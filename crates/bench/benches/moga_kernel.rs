//! Criterion bench: the tiered dominance kernel — the MOGA selection
//! machinery's receipts, seeding the `BENCH_moga.json` perf trajectory.
//!
//! For every `(N, M)` in `{64, 256, 1024} × {2, 3, 4}` the setup phase
//! sorts a deterministic random cloud through the tiered kernel, records
//! the dominance-comparison and mask-word counters next to the naive
//! kernel's `N·(N−1)/2` pairwise bill, cross-checks the fronts against
//! the retained naive oracle, and asserts the asymptotic win at the top
//! scale. When `BENCH_MOGA_JSON` is set the records are written as
//! `BENCH_moga.json` (see `sega_wire::report::MogaKernelReport`); the
//! committed repo-root copy is the baseline CI's counter-based
//! regression guard diffs against — deterministic counters, so the guard
//! is stable on a 1-CPU runner where wall-clock is not.
//!
//! `M=4` is the production DCIM shape: it runs the presorted
//! one-direction fill, whose bill is `word_ops` (64-lane mask words, 3
//! per chunk of up to 64 earlier rows in lexicographic order) rather
//! than scalar comparisons — the guard compares the *effective* counter
//! `comparisons + word_ops` against the pairwise bill.
//!
//! The random clouds hold no duplicate rows. One more M=4 case is shaped
//! like the GA's selection pool instead — N = 200 rows drawn with
//! replacement from 92 random ones, 82 of them distinct — and every
//! record carries the bill of sorting its distinct rows alone, which a
//! kernel that collapses copies must not exceed.

use std::collections::HashSet;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use sega_bench::json::{moga_json_path, MogaKernelRecord, MogaKernelReport};
use sega_moga::matrix::ObjectiveMatrix;
use sega_moga::pareto::{non_dominated_sort_matrix_into, non_dominated_sort_naive, SortScratch};

/// The shared deterministic cloud generator — one implementation
/// (`ObjectiveMatrix::xorshift_cloud`) serves this bench and the
/// dominance-kernel property tests, so the committed baseline and the
/// oracle tests always sort identical point sets.
fn cloud(n: usize, m: usize, seed: u64) -> ObjectiveMatrix {
    ObjectiveMatrix::xorshift_cloud(n, m, None, seed)
}

/// The GA's parents ∪ offspring pool shape: `n` M=4 rows drawn with
/// replacement from `distinct` random rows (a converged pool is mostly
/// bit-identical copies).
fn ga_pool(n: usize, distinct: usize, seed: u64) -> ObjectiveMatrix {
    let rows = cloud(distinct, 4, seed);
    let mut state = seed | 1;
    let mut pool = ObjectiveMatrix::with_capacity(4, n);
    for _ in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        pool.push_row_from(&rows, (state % distinct as u64) as usize);
    }
    pool
}

/// The bit-distinct rows of `matrix`, in first-appearance order.
fn distinct_rows(matrix: &ObjectiveMatrix) -> ObjectiveMatrix {
    let mut seen = HashSet::new();
    let mut out = ObjectiveMatrix::new(matrix.width());
    for row in matrix.iter_rows() {
        if seen.insert(row.iter().map(|x| x.to_bits()).collect::<Vec<_>>()) {
            out.push_row(row);
        }
    }
    out
}

/// Counters of one warm (steady-state) sort of `matrix`, its fronts and
/// its wall clock.
fn warm_sort(matrix: &ObjectiveMatrix) -> (sega_moga::DominanceStats, Vec<Vec<usize>>, f64) {
    let mut scratch = SortScratch::default();
    let mut fronts = Vec::new();
    non_dominated_sort_matrix_into(matrix, &mut scratch, &mut fronts);
    scratch.reset_stats();
    let started = Instant::now();
    non_dominated_sort_matrix_into(matrix, &mut scratch, &mut fronts);
    let wall_s = started.elapsed().as_secs_f64();
    (scratch.stats(), fronts, wall_s)
}

const CASES: [(usize, usize); 9] = [
    (64, 2),
    (256, 2),
    (1024, 2),
    (64, 3),
    (256, 3),
    (1024, 3),
    (64, 4),
    (256, 4),
    (1024, 4),
];

fn bench_moga_kernel(c: &mut Criterion) {
    // Receipts, computed once: counters + wall clock per case, fronts
    // cross-checked against the naive oracle.
    let mut records = Vec::new();
    let inputs = CASES
        .iter()
        .map(|&(n, m)| cloud(n, m, (n * 31 + m) as u64))
        .chain(std::iter::once(ga_pool(200, 92, 0x6A_9001)));
    for matrix in inputs {
        let (n, m) = (matrix.len(), matrix.width());
        let (stats, fronts, wall_s) = warm_sort(&matrix);
        let distinct = distinct_rows(&matrix);
        let (distinct_stats, _, _) = warm_sort(&distinct);

        let rows: Vec<&[f64]> = matrix.iter_rows().collect();
        let naive = non_dominated_sort_naive(&rows);
        if m == 4 {
            // The presorted fill reproduces the exact Deb front order.
            assert_eq!(fronts, naive, "N={n} M={m}: presorted fill diverged");
        } else {
            let mut naive = naive;
            let mut tiered = fronts.clone();
            for f in naive.iter_mut().chain(tiered.iter_mut()) {
                f.sort_unstable();
            }
            assert_eq!(tiered, naive, "N={n} M={m}: tiered kernel diverged");
        }

        let naive_comparisons = (n * (n - 1) / 2) as u64;
        let effective = stats.comparisons + stats.word_ops;
        let distinct_bill = distinct_stats.comparisons + distinct_stats.word_ops;
        assert!(
            effective <= distinct_bill,
            "N={n} M={m}: {effective} effective ops exceed the distinct rows' {distinct_bill}",
        );
        if n == 1024 {
            let factor = if m == 4 { 4 } else { 8 };
            assert!(
                effective * factor < naive_comparisons,
                "N={n} M={m}: {effective} effective ops not asymptotically below \
                 {naive_comparisons}",
            );
        }
        assert_eq!(stats.allocations, 0, "warm sorts must not allocate");
        eprintln!(
            "moga_kernel N={n:<5} M={m} D={:<5}: {:>8} comparisons + {:>6} word ops \
             (naive {naive_comparisons:>7}, {:>5.1}x fewer), {} fronts, {:.6}s",
            distinct.len(),
            stats.comparisons,
            stats.word_ops,
            naive_comparisons as f64 / effective.max(1) as f64,
            fronts.len(),
            wall_s,
        );
        records.push(MogaKernelRecord {
            n,
            m,
            comparisons: stats.comparisons,
            word_ops: stats.word_ops,
            naive_comparisons,
            distinct: distinct.len(),
            distinct_bill,
            allocations: stats.allocations,
            fronts: fronts.len(),
            wall_s,
        });
    }

    if let Some(path) = moga_json_path() {
        let report = MogaKernelReport { cases: records };
        report.write_to(&path).expect("write BENCH_moga.json");
        eprintln!("wrote {}", path.display());
    }

    let mut group = c.benchmark_group("moga_kernel");
    group.sample_size(10);
    for (n, m) in [(1024usize, 2usize), (1024, 3), (1024, 4)] {
        // M=4 is the DCIM shape: it exercises the presorted bitset
        // fill, so the timing trio shows all three tiers side by side.
        let matrix = cloud(n, m, 7);
        let mut scratch = SortScratch::default();
        let mut fronts = Vec::new();
        group.bench_function(format!("sort_n{n}_m{m}"), |b| {
            b.iter(|| {
                non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
                fronts.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_moga_kernel);
criterion_main!(benches);
