//! Property tests of the tiered dominance kernel: for every input — random
//! point sets, heavy duplicates, NaN rows, all-equal columns, M ∈ {2, 3, 4},
//! N up to 1024 — the tiered sort must return **exactly** the fronts of the
//! naive O(N²) Deb oracle ([`non_dominated_sort_naive`]), and at scale its
//! comparison counter must sit asymptotically below the oracle's
//! `N·(N−1)/2` pairwise bill (the ISSUE's machine-checkable acceptance
//! criterion, independent of the 1-CPU container's wall clock).

use std::collections::HashSet;

use proptest::prelude::*;
use sega_moga::matrix::ObjectiveMatrix;
use sega_moga::pareto::{
    non_dominated_sort_matrix_into, non_dominated_sort_naive, pareto_front_indices_matrix,
    SortScratch,
};
use sega_moga::DominanceStats;

fn sorted_fronts(mut fronts: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for f in fronts.iter_mut() {
        f.sort_unstable();
    }
    fronts
}

fn tiered(points: &[Vec<f64>]) -> (Vec<Vec<usize>>, DominanceStats) {
    let matrix = ObjectiveMatrix::from_rows(points);
    let mut scratch = SortScratch::default();
    let mut fronts = Vec::new();
    non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
    (fronts, scratch.stats())
}

fn naive(points: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
    non_dominated_sort_naive(&refs)
}

/// Deterministic point cloud through the workspace's one shared
/// generator (`ObjectiveMatrix::xorshift_cloud` — also the `moga_kernel`
/// bench's source, so these oracle tests and the committed
/// `BENCH_moga.json` baseline sort identical clouds); `quant` collapses
/// values onto a small integer grid (forcing ties and duplicate rows).
fn random_points(n: usize, m: usize, quant: Option<f64>, seed: u64) -> Vec<Vec<f64>> {
    ObjectiveMatrix::xorshift_cloud(n, m, quant, seed).to_rows()
}

fn naive_pairs(n: usize) -> u64 {
    (n * (n - 1) / 2) as u64
}

/// Number of bit-distinct rows: the fallback tier sorts one
/// representative per distinct row, so its scalar bill is
/// `naive_pairs(distinct_rows(points))`.
fn distinct_rows(points: &[Vec<f64>]) -> usize {
    points
        .iter()
        .map(|p| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        .collect::<HashSet<_>>()
        .len()
}

/// `n` M=4 rows drawn with replacement from a pool of `k` gridded rows.
/// From `k = 6` the pool's first rows are specials: two NaN rows with
/// different payloads, `+∞` and `−∞` entries, and a pair of rows equal
/// except for `-0.0` versus `0.0` — the converged-GA shape with every
/// bit-level corner the duplicate grouping must keep apart.
fn duplicate_pool(n: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut pool = random_points(k, 4, Some(4.0), seed);
    if k >= 6 {
        pool[0][1] = f64::NAN;
        pool[1][0] = f64::INFINITY;
        pool[2][3] = f64::NEG_INFINITY;
        pool[4][0] = 0.0;
        pool[3] = pool[4].clone();
        pool[3][0] = -0.0;
        pool[5][2] = f64::from_bits(f64::NAN.to_bits() | 1);
    }
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            pool[(state % k as u64) as usize].clone()
        })
        .collect()
}

/// Sets every entry whose xorshift draw hits `rate` to `+∞` or `−∞`.
fn sprinkle_infinities(pts: &mut [Vec<f64>], rate: u64, seed: u64) {
    let mut state = seed | 1;
    for v in pts.iter_mut().flatten() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if rate > 0 && state.is_multiple_of(rate) {
            *v = if state & 0x100 == 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
    }
}

/// Both M=4 fills, presorted and forced-scalar, return the oracle's
/// exact Deb front order.
fn assert_m4_deb_order(pts: &[Vec<f64>], label: &str) {
    let expected = naive(pts);
    let matrix = ObjectiveMatrix::from_rows(pts);
    for force_scalar in [false, true] {
        let mut scratch = SortScratch::default();
        scratch.set_force_scalar(force_scalar);
        let mut fronts = Vec::new();
        non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
        assert_eq!(fronts, expected, "{label} force_scalar={force_scalar}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The skyline first-front filter returns front 0 of the oracle,
    /// indices ascending: gridded clouds of every width with `±∞`
    /// entries, and the M=4 duplicate pools (NaN rows take the full
    /// sort).
    #[test]
    fn skyline_front_matches_naive_front_zero(
        m in 2usize..=4,
        n in 1usize..=96,
        seed in 0u64..10_000,
        inf_rate in 0u64..8,
        k in 1usize..=40,
    ) {
        let mut pts = random_points(n, m, Some(4.0), seed);
        sprinkle_infinities(&mut pts, inf_rate, seed);
        for pts in [pts, duplicate_pool(n, k, seed)] {
            let front = pareto_front_indices_matrix(&ObjectiveMatrix::from_rows(&pts));
            let expected = naive(&pts).into_iter().next().unwrap_or_default();
            prop_assert_eq!(front, expected);
        }
    }

    /// Quantized random clouds (ties and duplicates everywhere), with
    /// optional doubling of the whole set and optional collapse of one
    /// column to a constant, across M ∈ {2, 3, 4}.
    #[test]
    fn tiered_matches_naive_on_gridded_clouds(
        m in 2usize..=4,
        n in 1usize..=48,
        seed in 0u64..10_000,
        double in 0u32..2,
        collapse in 0usize..5,
    ) {
        let mut pts = random_points(n, m, Some(5.0), seed);
        if collapse > 0 && collapse <= m {
            for p in pts.iter_mut() {
                p[collapse - 1] = 1.0; // all-equal column
            }
        }
        if double == 1 {
            let copy = pts.clone();
            pts.extend(copy); // every row duplicated
        }
        prop_assert_eq!(sorted_fronts(tiered(&pts).0), sorted_fronts(naive(&pts)));
    }

    /// NaN injection routes every width to the fallback tier, which must
    /// still agree with the oracle's NaN semantics exactly.
    #[test]
    fn tiered_matches_naive_with_nan_rows(
        m in 2usize..=4,
        n in 1usize..=32,
        seed in 0u64..10_000,
        stride in 2usize..=7,
    ) {
        let mut pts = random_points(n, m, Some(4.0), seed);
        for (i, p) in pts.iter_mut().enumerate() {
            for (j, v) in p.iter_mut().enumerate() {
                if (i * 31 + j * 7) % stride == 0 {
                    *v = f64::NAN;
                }
            }
        }
        prop_assert_eq!(sorted_fronts(tiered(&pts).0), sorted_fronts(naive(&pts)));
    }

    /// Continuous (tie-free) clouds — the fast tiers' common case.
    #[test]
    fn tiered_matches_naive_on_continuous_clouds(
        m in 2usize..=3,
        n in 1usize..=128,
        seed in 0u64..10_000,
    ) {
        let pts = random_points(n, m, None, seed);
        prop_assert_eq!(sorted_fronts(tiered(&pts).0), sorted_fronts(naive(&pts)));
    }

    /// The presorted M=4 fill and the per-pair scalar fill produce
    /// byte-identical fronts — same bitset rows, same counts, same peel —
    /// for random and gridded clouds alike.
    #[test]
    fn m4_presorted_and_scalar_paths_agree(
        n in 1usize..=96,
        seed in 0u64..10_000,
        quant in 0u32..2,
    ) {
        let quant = (quant == 1).then_some(4.0);
        let pts = random_points(n, 4, quant, seed);
        let matrix = ObjectiveMatrix::from_rows(&pts);
        let mut presorted = SortScratch::default();
        presorted.set_force_scalar(false);
        let mut scalar = SortScratch::default();
        scalar.set_force_scalar(true);
        let (mut presorted_fronts, mut scalar_fronts) = (Vec::new(), Vec::new());
        non_dominated_sort_matrix_into(&matrix, &mut presorted, &mut presorted_fronts);
        non_dominated_sort_matrix_into(&matrix, &mut scalar, &mut scalar_fronts);
        prop_assert_eq!(&presorted_fronts, &scalar_fronts);
        prop_assert_eq!(scalar.stats().word_ops, 0);
        prop_assert_eq!(scalar.stats().comparisons, naive_pairs(distinct_rows(&pts)));
    }

    /// Duplicate-heavy M=4 pools (≤ 40 distinct rows, NaN, ±∞ and
    /// `-0.0`/`0.0` included): the presorted and forced-scalar sorts both
    /// reproduce the oracle's **exact** front order, the scalar path
    /// bills only the distinct pairs, and a warm resort allocates
    /// nothing.
    #[test]
    fn m4_duplicate_pools_match_naive_exactly(
        n in 1usize..=256,
        k in 1usize..=40,
        seed in 0u64..10_000,
    ) {
        let pts = duplicate_pool(n, k, seed);
        let expected = naive(&pts);
        let matrix = ObjectiveMatrix::from_rows(&pts);
        for force_scalar in [false, true] {
            let mut scratch = SortScratch::default();
            scratch.set_force_scalar(force_scalar);
            let mut fronts = Vec::new();
            non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
            prop_assert_eq!(&fronts, &expected, "force_scalar={}", force_scalar);
            if force_scalar {
                prop_assert_eq!(scratch.stats().comparisons, naive_pairs(distinct_rows(&pts)));
            }
            let warm = scratch.stats().allocations;
            non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
            prop_assert_eq!(&fronts, &expected);
            prop_assert_eq!(scratch.stats().allocations, warm, "warm sort allocated");
        }
    }
}

/// N = 1024 across every tier: the tiered kernel equals the oracle at the
/// satellite's top scale.
#[test]
fn tiered_matches_naive_at_n1024_for_every_width() {
    for m in [2usize, 3, 4] {
        let pts = random_points(1024, m, None, 0xA11CE + m as u64);
        assert_eq!(
            sorted_fronts(tiered(&pts).0),
            sorted_fronts(naive(&pts)),
            "m={m}"
        );
    }
}

/// The ISSUE's acceptance criterion: at N = 1024, M = 3 the dominance
/// comparison counter sits asymptotically below the seed kernel's
/// N·(N−1)/2 = 523 776 pairwise checks (we demand a ≥ 8× gap so the
/// assertion has real asymptotic teeth, not a constant-factor one).
#[test]
fn m3_comparisons_at_n1024_are_asymptotically_subquadratic() {
    let pts = random_points(1024, 3, None, 42);
    let (fronts, stats) = tiered(&pts);
    assert!(!fronts.is_empty());
    let naive_bill = naive_pairs(1024);
    assert!(
        stats.comparisons * 8 < naive_bill,
        "M=3: {} comparisons vs naive {naive_bill} — not asymptotically below",
        stats.comparisons
    );
}

/// Same criterion for the bi-objective sweep tier.
#[test]
fn m2_comparisons_at_n1024_are_asymptotically_subquadratic() {
    let pts = random_points(1024, 2, None, 43);
    let (fronts, stats) = tiered(&pts);
    assert!(!fronts.is_empty());
    let naive_bill = naive_pairs(1024);
    assert!(
        stats.comparisons * 16 < naive_bill,
        "M=2: {} comparisons vs naive {naive_bill} — not asymptotically below",
        stats.comparisons
    );
}

/// Heavy duplication (1024 draws from a 64-point pool) — the converged-GA
/// shape the interning layer feeds the kernel.
#[test]
fn heavy_duplicates_at_scale_match_naive() {
    let pool = random_points(64, 3, Some(6.0), 7);
    let mut state = 99u64;
    let pts: Vec<Vec<f64>> = (0..1024)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            pool[(state % 64) as usize].clone()
        })
        .collect();
    let (fronts, stats) = tiered(&pts);
    assert_eq!(sorted_fronts(fronts), sorted_fronts(naive(&pts)));
    // Duplicate chaining means the kernel pays per *distinct* point.
    assert!(
        stats.comparisons < 64 * 64,
        "duplicates must not be re-searched: {} comparisons",
        stats.comparisons
    );
}

/// The presorted M=4 tier reproduces the oracle's **exact front order**
/// (not just the front sets) at the production scale, pays zero scalar
/// pair comparisons on NaN-free data, and its word-op bill sits ≥4×
/// below the naive pairwise bill.
#[test]
fn m4_presorted_tier_beats_pairwise_bill_at_n1024() {
    let pts = random_points(1024, 4, None, 0xB10C);
    let (fronts, stats) = tiered(&pts);
    assert_eq!(fronts, naive(&pts), "exact Deb front order");
    assert_eq!(
        stats.comparisons, 0,
        "clean M=4 clouds never hit the scalar pair path"
    );
    let naive_bill = naive_pairs(1024);
    assert!(
        stats.word_ops * 4 <= naive_bill,
        "M=4: {} word-ops vs naive {naive_bill} — less than a 4× win",
        stats.word_ops
    );
}

/// Forced-scalar mode routes M=4 through the per-pair fill and still
/// produces byte-identical fronts, at exactly the pairwise bill of the
/// distinct rows (the gridded cloud has copies; the continuous ones do
/// not, so they pay the full `N·(N−1)/2`).
#[test]
fn m4_forced_scalar_matches_presorted_at_scale() {
    for (seed, quant) in [(1u64, None), (77, Some(4.0)), (0xFEED, None)] {
        let pts = random_points(512, 4, quant, seed);
        let matrix = ObjectiveMatrix::from_rows(&pts);
        let mut presorted = SortScratch::default();
        presorted.set_force_scalar(false);
        let mut scalar = SortScratch::default();
        scalar.set_force_scalar(true);
        let (mut presorted_fronts, mut scalar_fronts) = (Vec::new(), Vec::new());
        non_dominated_sort_matrix_into(&matrix, &mut presorted, &mut presorted_fronts);
        non_dominated_sort_matrix_into(&matrix, &mut scalar, &mut scalar_fronts);
        assert_eq!(presorted_fronts, scalar_fronts, "seed={seed}");
        assert_eq!(scalar.stats().comparisons, naive_pairs(distinct_rows(&pts)));
        assert_eq!(scalar.stats().word_ops, 0);
        assert!(presorted.stats().word_ops > 0);
    }
}

/// NaN rows inside an M=4 cloud take the scalar pair path while the
/// clean rows stay presorted — the mixed fill still equals the oracle.
#[test]
fn m4_nan_rows_mix_scalar_and_presorted_paths() {
    let mut pts = random_points(512, 4, None, 21);
    for i in (0..512).step_by(97) {
        pts[i][i % 4] = f64::NAN;
    }
    let (fronts, stats) = tiered(&pts);
    assert_eq!(sorted_fronts(fronts), sorted_fronts(naive(&pts)));
    assert!(
        stats.comparisons > 0 && stats.word_ops > 0,
        "expected both fill paths to engage: {stats:?}"
    );
}

/// Duplicated rows plus an all-equal column at N=1024/M=4 — the
/// degenerate shapes the presorted masks must get exactly right.
#[test]
fn m4_duplicates_and_collapsed_columns_match_naive_at_scale() {
    let mut pts = random_points(512, 4, Some(5.0), 3);
    let copy = pts.clone();
    pts.extend(copy);
    for p in pts.iter_mut() {
        p[2] = 2.5;
    }
    let (fronts, _) = tiered(&pts);
    assert_eq!(fronts, naive(&pts), "exact front order");
}

/// NaN rows at scale engage the fallback, whose comparison count is
/// exactly the pairwise bill — the counter distinguishes the tiers.
#[test]
fn nan_fallback_pays_exactly_the_pairwise_bill() {
    let mut pts = random_points(256, 3, None, 11);
    pts[17][1] = f64::NAN;
    let (fronts, stats) = tiered(&pts);
    assert_eq!(sorted_fronts(fronts), sorted_fronts(naive(&pts)));
    assert_eq!(stats.comparisons, naive_pairs(256));
}

/// A degenerate cloud — every point identical — is one front, whatever
/// the width.
#[test]
fn all_identical_points_form_one_front() {
    for m in [2usize, 3, 4] {
        let pts: Vec<Vec<f64>> = (0..100).map(|_| vec![1.5; m]).collect();
        let (fronts, _) = tiered(&pts);
        assert_eq!(fronts.len(), 1, "m={m}");
        assert_eq!(sorted_fronts(fronts), vec![(0..100).collect::<Vec<_>>()]);
    }
}

/// One scratch across many sorts: the second identical sort allocates
/// nothing (the steady state of a GA generation loop).
#[test]
fn scratch_reuse_is_allocation_free_across_tiers() {
    let mut scratch = SortScratch::default();
    let mut fronts = Vec::new();
    for m in [2usize, 3, 4] {
        let matrix = ObjectiveMatrix::from_rows(&random_points(200, m, None, 5));
        non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
        let after_warm = scratch.stats().allocations;
        non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
        assert_eq!(
            scratch.stats().allocations,
            after_warm,
            "m={m}: warm sort must not allocate"
        );
    }
}

/// `±∞` entries in M=4 clouds: the presorted fill's `≤` verdicts and
/// the lexicographic presort both order infinities like any other value.
#[test]
fn m4_presorted_fill_keeps_deb_order_with_infinities() {
    for seed in 0..24u64 {
        let n = 20 + 7 * seed as usize;
        let mut pts = random_points(n, 4, Some(4.0), seed);
        sprinkle_infinities(&mut pts, 3 + seed % 5, seed);
        assert_m4_deb_order(&pts, &format!("seed={seed}"));
    }
}

/// Rows equal in value but for the sign of a zero are separate bit
/// classes that sort next to each other and dominate nothing of each
/// other, while both still dominate (and are dominated by) the same
/// rows.
#[test]
fn m4_presorted_fill_separates_signed_zero_classes() {
    let pts = vec![
        vec![1.0, 0.0, 2.0, 3.0],
        vec![1.0, -0.0, 2.0, 3.0],
        vec![2.0, 1.0, 2.0, 3.0],
        vec![0.0, -0.0, 2.0, 3.0],
        vec![1.0, 0.0, 2.0, 3.0],
        vec![-0.0, 0.0, 2.0, 3.0],
        vec![1.0, -0.0, 2.0, -0.0],
        vec![1.0, 0.0, 2.0, 0.0],
        vec![3.0, 3.0, 3.0, 3.0],
        vec![1.0, -0.0, 2.0, 3.0],
    ];
    assert_m4_deb_order(&pts, "signed zeros");
    for seed in 0..16u64 {
        let mut pts = random_points(48, 4, Some(3.0), seed);
        for (i, p) in pts.iter_mut().enumerate() {
            for v in p.iter_mut() {
                if *v == 0.0 && (i + seed as usize).is_multiple_of(2) {
                    *v = -0.0;
                }
            }
        }
        assert_m4_deb_order(&pts, &format!("seed={seed}"));
    }
}

/// 65–130 distinct rows (with copies): a row's candidates span more
/// than one 64-lane chunk, and classes numbered 64 and up scatter into
/// the second word of every bitset row.
#[test]
fn m4_presorted_fill_crosses_word_boundaries() {
    for distinct in (65..=130).step_by(5) {
        let rows = random_points(distinct, 4, None, distinct as u64);
        let mut state = distinct as u64 | 1;
        let mut pts = rows.clone();
        for _ in 0..distinct / 2 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            pts.push(rows[(state % distinct as u64) as usize].clone());
        }
        assert_eq!(distinct_rows(&pts), distinct);
        assert_m4_deb_order(&pts, &format!("distinct={distinct}"));
    }
}
