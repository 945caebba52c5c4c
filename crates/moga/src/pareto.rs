//! Pareto-dominance machinery: dominance tests, tiered non-dominated
//! sorting, crowding distance, front extraction and hypervolume.
//!
//! Everything here operates on minimized objective vectors — either plain
//! slices (`&[f64]`) or, on the hot path, a flat [`ObjectiveMatrix`] — so
//! it is reusable outside the GA (the paper's Fig. 7 design spaces are
//! filtered with [`pareto_front_indices`], whose NaN-free path is a
//! presort-and-scan skyline rather than a full sort).
//!
//! # The tiered dominance kernel
//!
//! [`non_dominated_sort_matrix_into`] picks an algorithm per call from
//! the shape of the data:
//!
//! | Tier | Engages when | Cost (comparisons) |
//! |---|---|---|
//! | **Presort + sweep** | `M = 2`, all rows finite-or-∞ (no NaN) | `O(N log N)` |
//! | **Sweep + Pareto staircases** (Jensen/Fortin-style) | `M = 3`, no NaN | `O(N log N · log F)` |
//! | **Bitset rows, presorted fill** | `M = 4` (NaN rows of the set take the per-pair path) | `O(N)` grouping + the class view's `M` sorts of the `D ≤ N` distinct rows (order 3 is the presort) + `D²/2` one-direction tests, 64 per mask word |
//! | **Bitset rows, per-pair fill** | `M ∉ {2, 3, 4}`, or forced scalar | `O(N)` grouping + the class view + `O(M · D²)` over the distinct rows, flat row-major bitsets |
//!
//! All tiers return *exactly* the fronts of the textbook Deb et al.
//! `O(M·N²)` pass (retained as [`non_dominated_sort_naive`], the test
//! oracle), including for duplicate points, ±∞ objectives and — via the
//! fallback — NaN rows. The fast tiers process points in lexicographic
//! order and binary-search the front list; the front-monotonicity that
//! justifies the binary search follows by induction: every point placed
//! in front `r > 0` is dominated by a member of front `r − 1`, so by
//! transitivity "front `r` dominates `p`" implies "front `r − 1`
//! dominates `p`".
//!
//! The fallback first **collapses duplicates**: rows are grouped by their
//! exact IEEE-754 bit pattern (identical bits compare identically against
//! every other row, and no row dominates a copy of itself, NaN rows
//! included; `-0.0` and `0.0` stay separate classes). The fill and peel
//! run over one representative per class, and the peel expands classes
//! back to points in the exact Deb order:
//!
//! - front 0 lists its members by ascending index;
//! - a member `j` of front `k ≥ 1` is keyed by the position, in front
//!   `k − 1`'s order, of the last front-`(k − 1)` point that dominates
//!   `j`, and the front is ordered by `(key, j)`. Copies share every
//!   dominator, so the peel walks a class's dominance row once, at its
//!   last member in front `k − 1`, and merges the members of the classes
//!   it releases by index.
//!
//! A converged GA pool is mostly copies (a 200-row parents ∪ offspring
//! pool holds about 80 distinct rows), so the quadratic fill shrinks by
//! about 6×; when every row is distinct the grouping is the identity.
//!
//! The grouping is one half of the **class view** (`RowClasses`); the
//! other half is, for each objective `k`, the classes ordered by
//! `(o_k, o_{k−1}, …, o_0)` in `nan_last_cmp` order. The presorted fill
//! takes order 3 as its presort: any permutation of the objectives is a
//! valid presort for Kung, Luccio & Preparata (1975).
//!
//! # Crowding distance
//!
//! NSGA-II's crowding sorts a front once per objective, and the seed
//! engine chained those sorts stably: the front is first sorted by `o_0`,
//! then by `o_1` keeping the `o_0` order among ties, and so on. So the
//! order for objective `k` is by `(o_k, o_{k−1}, …, o_0, list position)`,
//! and a point's credit is `(next − prev) / span` for its neighbours in
//! that order. The kernel computes the same bits from the class view
//! instead of sorting points:
//!
//! - Order `k` lists the classes by `(o_k, …, o_0)`. Classes equal on
//!   all of those keys form a *group*; its members (the copies of its
//!   classes in the list) are adjacent in the point order and interleave
//!   there by list position.
//! - A *run* is a maximal sequence of groups with equal `o_k`. Inside a
//!   run every neighbour difference is `x − x = +0.0`, and adding `+0.0`
//!   to a distance that is never `-0.0` is exact. So only the run's
//!   first member (the lowest list position of its first group) and its
//!   last member (the highest of its last group) gain a credit: the gap
//!   to the previous run and to the next, or one `(next − prev)` when
//!   the run has a single member.
//! - The two boundary points get `+∞`. When `span ≤ 0` or it is not
//!   finite, that is all the objective adds, as before. A finite span
//!   means every value is finite, so each credit is finite.
//!
//! One view serves any list of the rows it was built over: the GA builds
//! it once per selection for the parents ∪ offspring pool and crowds
//! both the front and the kept subset of a truncated front with it. A
//! walk restricted to the classes in the list costs `O(n + M·D)`, where
//! the seed engine paid `M` stable sorts of the `n` points. The public
//! `crowding_distances*` functions build a one-off view of their front.
//!
//! Every sort accumulates a [`DominanceStats`] counter (dominance
//! comparisons / search probes, mask words, and buffer allocations) in
//! its [`SortScratch`], so the asymptotic win over the `N·(N−1)/2`
//! pairwise baseline is machine-checkable in tests and benches rather
//! than dependent on wall clock. The bitset tiers bill their `D` distinct
//! rows: `D·(D−1)/2` pair comparisons on the per-pair path, 3 mask words
//! per 64 earlier rows on the presorted path.

use crate::matrix::ObjectiveMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Returns true when `a` Pareto-dominates `b` in a minimization context
/// (paper Eq. 1): `a` is no worse in every objective and strictly better in
/// at least one.
///
/// `NaN` objective entries never dominate and are always dominated.
///
/// ```
/// use sega_moga::pareto::dominates;
/// assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
/// assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
/// assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
/// ```
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must have equal length");
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x.is_nan() || x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Both directions of one dominance comparison in a single pass over the
/// rows: `(a dominates b, b dominates a)`. Bit-identical semantics to two
/// [`dominates`] calls (including the NaN rules), at half the memory
/// traffic — the fallback tier's inner loop.
#[inline]
fn dominance_pair(a: &[f64], b: &[f64]) -> (bool, bool) {
    let mut a_no_worse = true;
    let mut a_strict = false;
    let mut b_no_worse = true;
    let mut b_strict = false;
    for (&x, &y) in a.iter().zip(b) {
        if x.is_nan() || x > y {
            a_no_worse = false;
        }
        if y.is_nan() || y > x {
            b_no_worse = false;
        }
        if x < y {
            a_strict = true;
        }
        if y < x {
            b_strict = true;
        }
        if !a_no_worse && !b_no_worse {
            return (false, false);
        }
    }
    (a_no_worse && a_strict, b_no_worse && b_strict)
}

/// Counters of the dominance kernel: how much work a sort (or a run of
/// sorts sharing one [`SortScratch`]) actually performed.
///
/// `comparisons` counts pairwise dominance checks in the fallback tier
/// and binary-search probes in the sweep/staircase tiers — the naive
/// kernel performs exactly `N·(N−1)/2` of them per sort, so the counter
/// makes the asymptotic win assertable in tests independent of wall
/// clock. The fallback bills only its `D` distinct rows (`D·(D−1)/2` on
/// the scalar path). `word_ops` counts 64-lane mask words produced by the
/// presorted M=4 fill (one per objective compared per 64-candidate
/// chunk: objectives 0–2, since the presort settles objective 3), each
/// subsuming up to 64 pairwise comparisons. `allocations` counts buffers
/// the kernel had to allocate fresh; a scratch-reusing steady state
/// performs zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DominanceStats {
    /// Dominance comparisons / search probes performed.
    pub comparisons: u64,
    /// 64-lane mask words produced by the presorted M=4 fill.
    pub word_ops: u64,
    /// Buffers allocated (not recycled from scratch).
    pub allocations: u64,
}

impl DominanceStats {
    /// Accumulates another counter into this one.
    pub fn merge(&mut self, other: DominanceStats) {
        self.comparisons += other.comparisons;
        self.word_ops += other.word_ops;
        self.allocations += other.allocations;
    }
}

/// Fast non-dominated sort: partitions the points into fronts
/// `F1, F2, …` where `F1` is the Pareto front, `F2` is the Pareto front
/// of the remainder, and so on. Returns fronts as index lists.
///
/// Dispatches to the tiered kernel (see the module docs): `O(N log N)`
/// for 2–3 finite objectives, `O(M·N²)` bitset fallback otherwise.
pub fn non_dominated_sort(points: &[Vec<f64>]) -> Vec<Vec<usize>> {
    non_dominated_sort_matrix(&ObjectiveMatrix::from_rows(points))
}

/// [`non_dominated_sort`] over borrowed objective slices — the clone-free
/// form callers without a flat matrix use.
pub fn non_dominated_sort_slices(points: &[&[f64]]) -> Vec<Vec<usize>> {
    non_dominated_sort_matrix(&ObjectiveMatrix::from_slices(points))
}

/// [`non_dominated_sort`] over a flat [`ObjectiveMatrix`].
pub fn non_dominated_sort_matrix(points: &ObjectiveMatrix) -> Vec<Vec<usize>> {
    let mut fronts = Vec::new();
    non_dominated_sort_matrix_into(points, &mut SortScratch::default(), &mut fronts);
    fronts
}

/// Reusable working memory for the dominance kernel: lexicographic order
/// and assignment buffers, the sweep/staircase structures, the class view
/// and the fallback's bitset rows, a pool of spare front buffers, and
/// the accumulated [`DominanceStats`]. One scratch serves any number of
/// sorts; a GA reuses it every generation so the sort performs no
/// steady-state allocation.
#[derive(Debug)]
pub struct SortScratch {
    /// Point indices in lexicographic row order (fast tiers); class
    /// indices, clean ones in order 3, in the presorted M=4 fill.
    order: Vec<usize>,
    /// assigned[i]: front index of point i (fast tiers' duplicate chain).
    assigned: Vec<usize>,
    /// Cleared front buffers recycled between calls.
    spare: Vec<Vec<usize>>,
    /// M=2 sweep: minimum f2 per front (non-decreasing across fronts).
    last_f2: Vec<f64>,
    /// M=3: per-front Pareto staircase over (f2, f3), f2 ascending.
    stairs: Vec<Vec<(f64, f64)>>,
    /// Cleared staircase buffers recycled between calls.
    spare_stairs: Vec<Vec<(f64, f64)>>,
    /// Fallback: row-major "i dominates j" bitset, n rows × ⌈n/64⌉ words.
    bits: Vec<u64>,
    /// Fallback: how many points dominate each point.
    domination_count: Vec<usize>,
    /// Presorted M=4 fill: objectives 0–2 of the clean classes,
    /// objective-major in `order`.
    cols: Vec<f64>,
    /// The class view of the last matrix classified: built by the bitset
    /// tiers, and by every [`non_dominated_sort_classified_into`] for
    /// crowding.
    classes: RowClasses,
    /// Fallback: position of each class's last member in the front being
    /// peeled.
    last: Vec<usize>,
    /// Route the fallback through the per-pair path even for M=4.
    force_scalar: bool,
    /// Flat staging matrix for the slice-based adapters.
    adapter: ObjectiveMatrix,
    stats: DominanceStats,
}

impl Default for SortScratch {
    fn default() -> Self {
        Self {
            order: Vec::new(),
            assigned: Vec::new(),
            spare: Vec::new(),
            last_f2: Vec::new(),
            stairs: Vec::new(),
            spare_stairs: Vec::new(),
            bits: Vec::new(),
            domination_count: Vec::new(),
            cols: Vec::new(),
            classes: RowClasses::default(),
            last: Vec::new(),
            force_scalar: force_scalar_env(),
            adapter: ObjectiveMatrix::default(),
            stats: DominanceStats::default(),
        }
    }
}

/// The `SEGA_FORCE_SCALAR` knob: any non-empty value other than `"0"`
/// disables the presorted/vector kernels process-wide (cached on first
/// read). [`SortScratch::set_force_scalar`] overrides it per scratch.
fn force_scalar_env() -> bool {
    static FORCE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCE
        .get_or_init(|| std::env::var("SEGA_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0"))
}

impl SortScratch {
    /// The counters accumulated by every sort that used this scratch
    /// since construction (or the last [`SortScratch::reset_stats`]).
    pub fn stats(&self) -> DominanceStats {
        self.stats
    }

    /// Zeroes the accumulated counters.
    pub fn reset_stats(&mut self) {
        self.stats = DominanceStats::default();
    }

    /// Overrides the `SEGA_FORCE_SCALAR` environment default for sorts
    /// using this scratch: `true` routes M=4 through the per-pair
    /// scalar path, `false` re-enables the presorted fill.
    pub fn set_force_scalar(&mut self, force: bool) {
        self.force_scalar = force;
    }

    fn take_front(&mut self) -> Vec<usize> {
        match self.spare.pop() {
            Some(buf) => buf,
            None => {
                self.stats.allocations += 1;
                Vec::new()
            }
        }
    }

    fn take_stair(&mut self) -> Vec<(f64, f64)> {
        match self.spare_stairs.pop() {
            Some(buf) => buf,
            None => {
                self.stats.allocations += 1;
                Vec::new()
            }
        }
    }

    fn recycle_fronts(&mut self, fronts: &mut Vec<Vec<usize>>) {
        for mut front in fronts.drain(..) {
            front.clear();
            self.spare.push(front);
        }
    }

    /// Lexicographic row order into `self.order` and a cleared
    /// `self.assigned` of the right size.
    fn prepare_fast_tier(&mut self, points: &ObjectiveMatrix) {
        let n = points.len();
        self.order.clear();
        self.order.extend(0..n);
        self.order
            .sort_unstable_by(|&a, &b| lex_cmp(points.row(a), points.row(b)));
        self.assigned.clear();
        self.assigned.resize(n, usize::MAX);
    }
}

/// Total lexicographic order over NaN-free rows.
#[inline]
fn lex_cmp(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.partial_cmp(y).expect("callers exclude NaN rows") {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// [`non_dominated_sort_slices`] writing into caller-owned buffers:
/// `fronts` is cleared and refilled (its inner index buffers are
/// recycled through `scratch` rather than reallocated).
pub fn non_dominated_sort_slices_into(
    points: &[&[f64]],
    scratch: &mut SortScratch,
    fronts: &mut Vec<Vec<usize>>,
) {
    let mut staging = std::mem::take(&mut scratch.adapter);
    staging.reset(points.first().map_or(0, |r| r.len()));
    for row in points {
        staging.push_row(row);
    }
    non_dominated_sort_matrix_into(&staging, scratch, fronts);
    scratch.adapter = staging;
}

/// The tiered dominance kernel: [`non_dominated_sort`] over a flat
/// [`ObjectiveMatrix`], writing into caller-owned buffers. See the
/// module docs for the tier table; the result is identical to
/// [`non_dominated_sort_naive`] for every input.
pub fn non_dominated_sort_matrix_into(
    points: &ObjectiveMatrix,
    scratch: &mut SortScratch,
    fronts: &mut Vec<Vec<usize>>,
) {
    sort_tiered(points, scratch, fronts, false);
}

/// [`non_dominated_sort_matrix_into`] that also leaves the class view of
/// `points` in `scratch` whatever tier runs, for
/// [`crowding_classified_into`] over any list of its rows. The GA builds
/// the view once per selection and shares it among the sort and every
/// crowding call.
pub(crate) fn non_dominated_sort_classified_into(
    points: &ObjectiveMatrix,
    scratch: &mut SortScratch,
    fronts: &mut Vec<Vec<usize>>,
) {
    sort_tiered(points, scratch, fronts, true);
}

fn sort_tiered(
    points: &ObjectiveMatrix,
    scratch: &mut SortScratch,
    fronts: &mut Vec<Vec<usize>>,
    classify: bool,
) {
    scratch.recycle_fronts(fronts);
    let has_nan = points.as_flat().iter().any(|x| x.is_nan());
    let sweep = !has_nan && matches!(points.width(), 2 | 3);
    if classify || !sweep {
        scratch.classes.build(points, &mut scratch.stats);
    }
    if points.is_empty() {
        return;
    }
    match points.width() {
        2 if sweep => sweep_sort_m2(points, scratch, fronts),
        3 if sweep => staircase_sort_m3(points, scratch, fronts),
        _ => bitset_sort_fallback(points, scratch, fronts),
    }
}

/// M=2 tier: presort lexicographically, then sweep. Each front tracks the
/// minimum second objective among its members (`last_f2`, non-decreasing
/// across fronts), so "does front `r` dominate `p`" is one scalar
/// comparison and front placement is a binary search — Jensen's classic
/// `O(N log N)` bi-objective sort, with duplicate rows chained onto their
/// predecessor's front (equal vectors never dominate each other).
fn sweep_sort_m2(
    points: &ObjectiveMatrix,
    scratch: &mut SortScratch,
    fronts: &mut Vec<Vec<usize>>,
) {
    scratch.prepare_fast_tier(points);
    scratch.last_f2.clear();
    let mut prev: Option<usize> = None;
    for idx in 0..points.len() {
        let i = scratch.order[idx];
        let row = points.row(i);
        if let Some(p) = prev {
            if points.row(p) == row {
                let f = scratch.assigned[p];
                scratch.assigned[i] = f;
                fronts[f].push(i);
                prev = Some(i);
                continue;
            }
        }
        // First front whose minimum f2 exceeds row[1] (monotone predicate).
        let mut lo = 0usize;
        let mut hi = scratch.last_f2.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            scratch.stats.comparisons += 1;
            if scratch.last_f2[mid] <= row[1] {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == scratch.last_f2.len() {
            scratch.last_f2.push(row[1]);
            let front = scratch.take_front();
            fronts.push(front);
        } else {
            // row[1] is the front's new minimum (the search guarantees it).
            scratch.last_f2[lo] = row[1];
        }
        fronts[lo].push(i);
        scratch.assigned[i] = lo;
        prev = Some(i);
    }
}

/// First staircase index whose f2 exceeds the query (probes counted).
fn stair_upper_bound(stair: &[(f64, f64)], f2: f64, stats: &mut DominanceStats) -> usize {
    let mut lo = 0usize;
    let mut hi = stair.len();
    while lo < hi {
        let mid = (lo + hi) / 2;
        stats.comparisons += 1;
        if stair[mid].0 <= f2 {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Does any member of the staircase's front dominate a point with
/// projection `(f2, f3)`? The staircase keeps the Pareto-minimal
/// `(f2, f3)` pairs sorted by f2 ascending (f3 strictly descending), so
/// the candidate is the rightmost entry with `e.f2 ≤ f2`.
fn stair_dominates(stair: &[(f64, f64)], f2: f64, f3: f64, stats: &mut DominanceStats) -> bool {
    let pos = stair_upper_bound(stair, f2, stats);
    if pos == 0 {
        return false;
    }
    stats.comparisons += 1;
    stair[pos - 1].1 <= f3
}

/// Inserts `(f2, f3)` into a staircase, dropping entries it supersedes.
/// The insertion point's invariants (no existing entry `≤ (f2, f3)`
/// componentwise) hold because the point was just proven non-dominated
/// within this front.
fn stair_insert(stair: &mut Vec<(f64, f64)>, f2: f64, f3: f64) {
    // First entry with e.f2 >= f2 (plain partition, probes not dominance
    // comparisons — the dominance decision already happened).
    let pos = stair.partition_point(|e| e.0 < f2);
    let mut end = pos;
    while end < stair.len() && stair[end].1 >= f3 {
        end += 1;
    }
    if end > pos {
        stair[pos] = (f2, f3);
        stair.drain(pos + 1..end);
    } else {
        stair.insert(pos, (f2, f3));
    }
}

/// M=3 tier: Jensen/Fortin-style sweep. Points are processed in
/// lexicographic order (so only processed points can dominate the
/// current one), each front maintains a Pareto staircase over the last
/// two objectives, and front placement binary-searches the front list —
/// `O(N log N · log F)` probes in place of `N·(N−1)/2` pairwise checks.
fn staircase_sort_m3(
    points: &ObjectiveMatrix,
    scratch: &mut SortScratch,
    fronts: &mut Vec<Vec<usize>>,
) {
    scratch.prepare_fast_tier(points);
    let mut stairs = std::mem::take(&mut scratch.stairs);
    for mut stair in stairs.drain(..) {
        stair.clear();
        scratch.spare_stairs.push(stair);
    }
    let mut prev: Option<usize> = None;
    for idx in 0..points.len() {
        let i = scratch.order[idx];
        let row = points.row(i);
        if let Some(p) = prev {
            if points.row(p) == row {
                let f = scratch.assigned[p];
                scratch.assigned[i] = f;
                fronts[f].push(i);
                prev = Some(i);
                continue;
            }
        }
        let (f2, f3) = (row[1], row[2]);
        // First front that does not dominate the point (monotone by the
        // induction in the module docs).
        let mut lo = 0usize;
        let mut hi = stairs.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if stair_dominates(&stairs[mid], f2, f3, &mut scratch.stats) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == stairs.len() {
            let mut stair = scratch.take_stair();
            stair.push((f2, f3));
            stairs.push(stair);
            let front = scratch.take_front();
            fronts.push(front);
        } else {
            stair_insert(&mut stairs[lo], f2, f3);
        }
        fronts[lo].push(i);
        scratch.assigned[i] = lo;
        prev = Some(i);
    }
    scratch.stairs = stairs;
}

/// Clears `buf` and refills it with `len` copies of `value`, billing an
/// allocation when it has to grow.
fn reset_buf<T: Clone>(buf: &mut Vec<T>, len: usize, value: T, stats: &mut DominanceStats) {
    if buf.capacity() < len {
        stats.allocations += 1;
    }
    buf.clear();
    buf.resize(len, value);
}

/// True when two rows have identical IEEE-754 bit patterns.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The class view of an objective matrix: its distinct rows, and for
/// each objective `k` an order of them by `(o_k, o_{k−1}, …, o_0)`.
///
/// Rows are grouped into classes of bit-identical rows (see the module
/// docs for why this is exact): `class_of[i]` is point `i`'s class,
/// classes are numbered by first appearance with `reps[c]` the class's
/// lowest-index point, and `members[member_start[c]..member_start[c + 1]]`
/// lists the class's points ascending. Order `k` compares
/// [`nan_last_key`] images, so it is the order of a stable key chain —
/// stable sorts by `o_0`, then `o_1`, …, then `o_k` — over the classes.
/// Classes equal on `o_k..o_0` form one *group* of order `k`; the order
/// within a group is immaterial to both consumers, the presorted M=4
/// fill (order 3) and crowding (every order).
#[derive(Debug, Default)]
pub(crate) struct RowClasses {
    class_of: Vec<usize>,
    reps: Vec<usize>,
    /// Open-addressing hash table of class representatives.
    rep_table: Vec<usize>,
    members: Vec<usize>,
    member_start: Vec<usize>,
    /// `keys[k * d + c]`: the [`nan_last_key`] of class `c`'s objective
    /// `k`, for `d` classes.
    keys: Vec<u64>,
    /// `orders[k * d..(k + 1) * d]`: the classes in order `k`.
    orders: Vec<usize>,
    /// `groups[k * d + p]`: the group of position `p` of order `k`,
    /// numbered from 0 along the order.
    groups: Vec<usize>,
    /// Each class's group in the order last built.
    group_of: Vec<usize>,
    /// Sort buffer: `(key, group in the previous order, class)`.
    chain: Vec<(u64, usize, usize)>,
    width: usize,
}

impl RowClasses {
    /// The number of classes.
    fn len(&self) -> usize {
        self.reps.len()
    }

    /// Order `k` of the classes.
    fn order(&self, k: usize) -> &[usize] {
        let d = self.len();
        &self.orders[k * d..(k + 1) * d]
    }

    /// Rebuilds the view over `points`, billing grown buffers to `stats`.
    fn build(&mut self, points: &ObjectiveMatrix, stats: &mut DominanceStats) {
        self.group_identical_rows(points, stats);
        self.sort_objectives(points, stats);
    }

    /// One pass over an open-addressing table of representatives keyed by
    /// a multiplicative hash of the row bits; with every row distinct the
    /// grouping is the identity. Membership lists follow by counting sort.
    fn group_identical_rows(&mut self, points: &ObjectiveMatrix, stats: &mut DominanceStats) {
        let n = points.len();
        let table_bits = (2 * n).max(2).next_power_of_two().trailing_zeros();
        let table = &mut self.rep_table;
        reset_buf(table, 1 << table_bits, usize::MAX, stats);
        let class_of = &mut self.class_of;
        reset_buf(class_of, n, 0, stats);
        let reps = &mut self.reps;
        reps.clear();
        if reps.capacity() < n {
            stats.allocations += 1;
            reps.reserve(n);
        }
        for (i, row) in points.iter_rows().enumerate() {
            let hash = row.iter().fold(0u64, |h, x| {
                (h ^ x.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            });
            let mut slot = (hash >> (64 - table_bits)) as usize;
            loop {
                let rep = table[slot];
                if rep == usize::MAX {
                    table[slot] = i;
                    class_of[i] = reps.len();
                    reps.push(i);
                    break;
                }
                if same_bits(points.row(rep), row) {
                    class_of[i] = class_of[rep];
                    break;
                }
                slot = (slot + 1) & (table.len() - 1);
            }
        }
        // `member_start[c + 1]` counts class `c`, the prefix sum turns the
        // counts into starts, and placing the members advances each
        // `member_start[c]` to class `c`'s end — one slot to the right.
        let d = reps.len();
        let start = &mut self.member_start;
        reset_buf(start, d + 1, 0, stats);
        for &c in class_of.iter() {
            start[c + 1] += 1;
        }
        for c in 0..d {
            start[c + 1] += start[c];
        }
        reset_buf(&mut self.members, n, 0, stats);
        for (i, &c) in class_of.iter().enumerate() {
            self.members[start[c]] = i;
            start[c] += 1;
        }
        start.copy_within(0..d, 1);
        start[0] = 0;
    }

    /// Builds every objective's order of the classes. Order `k` sorts the
    /// classes by `(o_k key, group in order k − 1)`, so equal pairs are
    /// exactly the classes equal on `o_k..o_0`: `m` sorts over the `d`
    /// classes, with the class index breaking ties deterministically.
    fn sort_objectives(&mut self, points: &ObjectiveMatrix, stats: &mut DominanceStats) {
        let (d, m) = (self.len(), points.width());
        self.width = m;
        reset_buf(&mut self.keys, d * m, 0, stats);
        for (c, &rep) in self.reps.iter().enumerate() {
            for (k, &x) in points.row(rep).iter().enumerate() {
                self.keys[k * d + c] = nan_last_key(x);
            }
        }
        reset_buf(&mut self.orders, d * m, 0, stats);
        reset_buf(&mut self.groups, d * m, 0, stats);
        reset_buf(&mut self.group_of, d, 0, stats);
        if self.chain.capacity() < d {
            stats.allocations += 1;
        }
        for k in 0..m {
            let keys = &self.keys[k * d..(k + 1) * d];
            self.chain.clear();
            self.chain.extend(
                keys.iter()
                    .zip(&self.group_of)
                    .enumerate()
                    .map(|(c, (&key, &g))| (key, g, c)),
            );
            self.chain.sort_unstable();
            let mut group = 0;
            for (p, &(key, prev, c)) in self.chain.iter().enumerate() {
                if p > 0 && (key, prev) != (self.chain[p - 1].0, self.chain[p - 1].1) {
                    group += 1;
                }
                self.orders[k * d + p] = c;
                self.groups[k * d + p] = group;
                self.group_of[c] = group;
            }
        }
    }
}

/// Fallback tier (`M ∉ {2, 3}` or NaN rows): Deb's pairwise pass over the
/// distinct rows of the class view (built by the caller), with the
/// per-point adjacency lists replaced by row-major bitsets — `⌈D/64⌉`
/// words per class, walked word-at-a-time during the peel. Produces
/// fronts in exactly the order of the textbook algorithm (the expansion
/// rule is in the module docs).
///
/// For `M = 4` (the production objective count) the fill phase runs the
/// presorted one-direction kernel ([`bitset_fill_presorted_m4`]) unless
/// scalar mode is forced; every other shape — and every NaN row — takes
/// the per-pair scalar fill. Both fills populate the same bitset rows
/// and domination counts, so the peel (and hence the Deb front order)
/// is byte-identical between them.
fn bitset_sort_fallback(
    points: &ObjectiveMatrix,
    scratch: &mut SortScratch,
    fronts: &mut Vec<Vec<usize>>,
) {
    let d = scratch.classes.len();
    let words = d.div_ceil(64);
    reset_buf(&mut scratch.bits, d * words, 0, &mut scratch.stats);
    scratch.domination_count.clear();
    scratch.domination_count.resize(d, 0);
    if points.width() == 4 && !scratch.force_scalar {
        bitset_fill_presorted_m4(points, scratch, words);
    } else {
        bitset_fill_pairwise(points, scratch, words);
    }
    // The peel walks each class's dominance row once, at the class's last
    // member in the current front — where the point-level peel would
    // release everything the class dominates — and appends the released
    // classes' members, merged by index when more than one class with
    // copies is released at once.
    reset_buf(&mut scratch.last, d, 0, &mut scratch.stats);
    let classes = std::mem::take(&mut scratch.classes);
    let mut current = scratch.take_front();
    current
        .extend((0..points.len()).filter(|&i| scratch.domination_count[classes.class_of[i]] == 0));
    while !current.is_empty() {
        for (pos, &i) in current.iter().enumerate() {
            scratch.last[classes.class_of[i]] = pos;
        }
        let mut next = scratch.take_front();
        for (pos, &i) in current.iter().enumerate() {
            let c = classes.class_of[i];
            if scratch.last[c] != pos {
                continue;
            }
            let start = next.len();
            let mut released = 0;
            let row = &scratch.bits[c * words..(c + 1) * words];
            for (w, &word) in row.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let e = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    scratch.domination_count[e] -= 1;
                    if scratch.domination_count[e] == 0 {
                        let members = classes.member_start[e]..classes.member_start[e + 1];
                        next.extend_from_slice(&classes.members[members]);
                        released += 1;
                    }
                }
            }
            if released > 1 && next.len() - start > released {
                next[start..].sort_unstable();
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    scratch.spare.push(current);
    scratch.classes = classes;
}

/// The seed per-pair fill over the class representatives: one branchy
/// [`dominance_pair`] per unordered pair, counted in `comparisons`.
fn bitset_fill_pairwise(points: &ObjectiveMatrix, scratch: &mut SortScratch, words: usize) {
    let SortScratch {
        classes,
        bits,
        domination_count,
        stats,
        ..
    } = scratch;
    for (i, &p) in classes.reps.iter().enumerate() {
        let row_i = points.row(p);
        for (j, &q) in classes.reps.iter().enumerate().skip(i + 1) {
            stats.comparisons += 1;
            match dominance_pair(row_i, points.row(q)) {
                (true, _) => mark_dominance(bits, domination_count, words, i, j),
                (_, true) => mark_dominance(bits, domination_count, words, j, i),
                _ => {}
            }
        }
    }
}

/// Records "class `i` dominates class `j`" in the bitset rows and counts.
#[inline]
fn mark_dominance(bits: &mut [u64], count: &mut [usize], words: usize, i: usize, j: usize) {
    bits[i * words + j / 64] |= 1u64 << (j % 64);
    count[j] += 1;
}

/// `LANE_BITS[t] = 1 << t`: the presorted fill ANDs a lane's all-ones or
/// all-zeros verdict with its bit, an OR reduction that vectorizes on the
/// baseline x86-64 target where a variable shift per lane does not.
const LANE_BITS: [u64; 64] = {
    let mut bits = [0u64; 64];
    let mut t = 0;
    while t < 64 {
        bits[t] = 1 << t;
        t += 1;
    }
    bits
};

/// Presorted one-direction fill for `M = 4`. The NaN-free classes are
/// taken in the class view's order 3 — by `(o_3, o_2, o_1, o_0)` — and
/// their objectives 0–2 transposed objective-major into `cols` in that
/// order. A dominator is `≤` in every objective and differs in value, so
/// it sorts strictly before the row it dominates, in an earlier run of
/// value-equal rows, under a lexicographic order of any permutation of
/// the objectives (Kung, Luccio & Preparata, 1975). Each row `b` is
/// therefore tested only against the rows before its run, in one
/// direction, and objective 3 holds by the sort: `a` dominates `b` iff
/// objectives 0–2 of `a` are `≤` those of `b`. The verdicts are built as
/// branch-free 64-candidate words and scattered into the class-indexed
/// bitset rows and domination counts. Work is counted in
/// [`DominanceStats::word_ops`]: 3 mask words per 64-candidate chunk.
///
/// Pairs touching a NaN row keep the exact scalar semantics of
/// [`dominance_pair`] and are billed in `comparisons`.
fn bitset_fill_presorted_m4(points: &ObjectiveMatrix, scratch: &mut SortScratch, words: usize) {
    let SortScratch {
        classes,
        order,
        cols,
        bits,
        domination_count,
        stats,
        ..
    } = scratch;
    let d = classes.len();
    let row = |c: usize| points.row(classes.reps[c]);
    let has_nan = |c: &usize| row(*c).iter().any(|x| x.is_nan());
    if order.capacity() < d {
        stats.allocations += 1;
    }
    // Clean classes in order 3, then the NaN classes.
    order.clear();
    order.extend(classes.order(3).iter().copied().filter(|c| !has_nan(c)));
    let clean = order.len();
    order.extend((0..d).filter(has_nan));
    for (k, &i) in order.iter().enumerate().skip(clean) {
        for &j in &order[..k] {
            stats.comparisons += 1;
            match dominance_pair(row(i), row(j)) {
                (true, _) => mark_dominance(bits, domination_count, words, i, j),
                (_, true) => mark_dominance(bits, domination_count, words, j, i),
                _ => {}
            }
        }
    }
    reset_buf(cols, 3 * clean, 0.0, stats);
    for (pos, &c) in order[..clean].iter().enumerate() {
        for (m, &x) in row(c)[..3].iter().enumerate() {
            cols[m * clean + pos] = x;
        }
    }
    let (c0, rest) = cols.split_at(clean);
    let (c1, c2) = rest.split_at(clean);
    let mut run_start = 0;
    for b in 1..clean {
        let class = order[b];
        if row(order[b - 1]) != row(class) {
            run_start = b;
        }
        let (x0, x1, x2) = (c0[b], c1[b], c2[b]);
        let (word, bit) = (class / 64, 1u64 << (class % 64));
        for base in (0..run_start).step_by(64) {
            let end = (base + 64).min(run_start);
            let mut mask = 0u64;
            let lanes = c0[base..end].iter().zip(&c1[base..end]).zip(&c2[base..end]);
            for (((&a0, &a1), &a2), &lane) in lanes.zip(&LANE_BITS) {
                mask |= lane & 0u64.wrapping_sub(u64::from((a0 <= x0) & (a1 <= x1) & (a2 <= x2)));
            }
            stats.word_ops += 3;
            domination_count[class] += mask.count_ones() as usize;
            while mask != 0 {
                let a = order[base + mask.trailing_zeros() as usize];
                mask &= mask - 1;
                bits[a * words + word] |= bit;
            }
        }
    }
}

/// The textbook Deb et al. (2002) `O(M·N²)` non-dominated sort — the
/// seed kernel, retained verbatim as the **oracle** the tiered kernel is
/// property-tested against (`tests/dominance_kernel.rs`). Not used on
/// any hot path.
pub fn non_dominated_sort_naive(points: &[&[f64]]) -> Vec<Vec<usize>> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut domination_count = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(points[i], points[j]) {
                dominated_by[i].push(j);
                domination_count[j] += 1;
            } else if dominates(points[j], points[i]) {
                dominated_by[j].push(i);
                domination_count[i] += 1;
            }
        }
    }
    let mut fronts = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Indices of the Pareto-optimal points (the first front), ascending.
pub fn pareto_front_indices(points: &[Vec<f64>]) -> Vec<usize> {
    pareto_front_indices_matrix(&ObjectiveMatrix::from_rows(points))
}

/// [`pareto_front_indices`] over borrowed objective slices.
pub fn pareto_front_indices_slices(points: &[&[f64]]) -> Vec<usize> {
    pareto_front_indices_matrix(&ObjectiveMatrix::from_slices(points))
}

/// [`pareto_front_indices`] over a flat [`ObjectiveMatrix`]: front 0 of
/// [`non_dominated_sort_matrix`], indices ascending.
///
/// NaN-free inputs take a skyline scan (Kung, Luccio & Preparata, 1975)
/// instead of the full sort: in lexicographic order a dominator always
/// comes first, so a row is kept iff no *kept* row dominates it (a
/// dominated dominator is itself dominated by a kept row, by
/// transitivity). `O(N log N + N·F)` for a front of `F` points.
pub fn pareto_front_indices_matrix(points: &ObjectiveMatrix) -> Vec<usize> {
    if points.as_flat().iter().any(|x| x.is_nan()) {
        return non_dominated_sort_matrix(points)
            .into_iter()
            .next()
            .unwrap_or_default();
    }
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_unstable_by(|&a, &b| lex_cmp(points.row(a), points.row(b)));
    let mut front: Vec<usize> = Vec::new();
    for i in order {
        let row = points.row(i);
        if !front.iter().any(|&k| dominates(points.row(k), row)) {
            front.push(i);
        }
    }
    front.sort_unstable();
    front
}

/// Crowding distance of each member of `front` (indices into `points`),
/// returned in `front` order. Boundary points get `f64::INFINITY`.
///
/// The distance is the normalized objective-space perimeter of the cuboid
/// spanned by each point's nearest neighbors — NSGA-II's diversity
/// criterion.
pub fn crowding_distances(points: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
    crowding_distances_slices(&refs, front)
}

/// [`crowding_distances`] over borrowed objective slices.
pub fn crowding_distances_slices(points: &[&[f64]], front: &[usize]) -> Vec<f64> {
    let mut dist = Vec::new();
    crowding_distances_slices_into(points, front, &mut dist, &mut CrowdingScratch::default());
    dist
}

/// Reusable working memory for the crowding-distance computations: the
/// span of list positions each class covers, the runs of one objective,
/// and — for the public one-off functions — a staging copy of the front
/// and its class view. One scratch serves every front of every
/// generation, so steady-state crowding computes without allocating.
#[derive(Debug, Default)]
pub struct CrowdingScratch {
    runs: RunBuffers,
    staging: ObjectiveMatrix,
    classes: RowClasses,
    positions: Vec<usize>,
}

#[derive(Debug, Default)]
struct RunBuffers {
    /// `(first, last)` list position of each class's members
    /// (`usize::MAX` first: absent from the list).
    extent: Vec<(usize, usize)>,
    /// `(key, first member, last member)` of each run of one objective.
    runs: Vec<(u64, usize, usize)>,
}

/// [`crowding_distances_slices`] writing into caller-owned buffers
/// (`dist` receives the distances in `front` order), so a per-generation
/// caller allocates nothing. The front is staged and given a one-off
/// class view; the scratch keeps both between calls.
pub fn crowding_distances_slices_into(
    points: &[&[f64]],
    front: &[usize],
    dist: &mut Vec<f64>,
    scratch: &mut CrowdingScratch,
) {
    let m = front.first().map_or(0, |&i| points[i].len());
    scratch.staging.reset(m);
    for &i in front {
        scratch.staging.push_row(points[i]);
    }
    crowding_of_staged_front(dist, scratch);
}

/// [`crowding_distances_slices_into`] over a flat [`ObjectiveMatrix`].
pub fn crowding_distances_matrix_into(
    points: &ObjectiveMatrix,
    front: &[usize],
    dist: &mut Vec<f64>,
    scratch: &mut CrowdingScratch,
) {
    scratch.staging.reset(points.width());
    for &i in front {
        scratch.staging.push_row_from(points, i);
    }
    crowding_of_staged_front(dist, scratch);
}

fn crowding_of_staged_front(dist: &mut Vec<f64>, scratch: &mut CrowdingScratch) {
    let CrowdingScratch {
        runs,
        staging,
        classes,
        positions,
    } = scratch;
    let n = staging.len();
    if n > 2 {
        // A one-off view: its buffer growth is billed nowhere.
        classes.build(staging, &mut DominanceStats::default());
    }
    positions.clear();
    positions.extend(0..n);
    crowding_of_classes(classes, positions, dist, runs);
}

/// Crowding distances of `list` (indices into the matrix `scratch`'s
/// class view was last built over, by
/// [`non_dominated_sort_classified_into`]), in list order.
pub(crate) fn crowding_classified_into(
    scratch: &SortScratch,
    list: &[usize],
    dist: &mut Vec<f64>,
    crowd: &mut CrowdingScratch,
) {
    crowding_of_classes(&scratch.classes, list, dist, &mut crowd.runs);
}

/// The run-based crowding kernel (see the module docs): per objective,
/// one walk of the class order restricted to the classes in `list`,
/// crediting each run of equal objective value at its first and last
/// member.
fn crowding_of_classes(
    classes: &RowClasses,
    list: &[usize],
    dist: &mut Vec<f64>,
    scratch: &mut RunBuffers,
) {
    dist.clear();
    let n = list.len();
    if n <= 2 {
        dist.resize(n, f64::INFINITY);
        return;
    }
    dist.resize(n, 0.0);
    let d = classes.len();
    let RunBuffers { extent, runs } = scratch;
    extent.clear();
    extent.resize(d, (usize::MAX, 0));
    for (pos, &i) in list.iter().enumerate() {
        let e = &mut extent[classes.class_of[i]];
        if e.0 == usize::MAX {
            e.0 = pos;
        }
        e.1 = pos;
    }
    for k in 0..classes.width {
        // Runs of equal `o_k`, each a sequence of groups whose members
        // interleave by list position: the run's first member opens its
        // first group and its last member closes its last group.
        let keys = &classes.keys[k * d..(k + 1) * d];
        let groups = &classes.groups[k * d..(k + 1) * d];
        runs.clear();
        let (mut group, mut first_group) = (usize::MAX, false);
        for (&c, &g) in classes.order(k).iter().zip(groups) {
            let (first, last) = extent[c];
            if first == usize::MAX {
                continue;
            }
            match runs.last_mut() {
                Some(run) if run.0 == keys[c] => {
                    if g != group {
                        (group, first_group) = (g, false);
                        run.2 = last;
                    } else {
                        if first_group {
                            run.1 = run.1.min(first);
                        }
                        run.2 = run.2.max(last);
                    }
                }
                _ => {
                    runs.push((keys[c], first, last));
                    (group, first_group) = (g, true);
                }
            }
        }
        let r = runs.len();
        dist[runs[0].1] = f64::INFINITY;
        dist[runs[r - 1].2] = f64::INFINITY;
        let value = |j: usize| value_of_key(runs[j].0);
        let span = value(r - 1) - value(0);
        if span <= 0.0 || !span.is_finite() {
            continue;
        }
        for (j, &(_, first, last)) in runs.iter().enumerate() {
            if first == last {
                if j > 0 && j + 1 < r {
                    dist[first] += (value(j + 1) - value(j - 1)) / span;
                }
                continue;
            }
            if j > 0 {
                dist[first] += (value(j) - value(j - 1)) / span;
            }
            if j + 1 < r {
                dist[last] += (value(j + 1) - value(j)) / span;
            }
        }
    }
}

/// An integer image of `x` whose order is [`nan_last_cmp`]'s: `-0.0`
/// maps to `0.0`'s key and every NaN to `u64::MAX`.
#[inline]
fn nan_last_key(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    let bits = (x + 0.0).to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The value behind a [`nan_last_key`] (a NaN for `u64::MAX`).
#[inline]
fn value_of_key(key: u64) -> f64 {
    f64::from_bits(key ^ (((!key as i64) >> 63) as u64 | (1 << 63)))
}

/// The order every sort over objective values uses: `partial_cmp` order
/// for numbers (so `-0.0` and `0.0` tie and keep their stable order),
/// with NaN after every number and equal to NaN. Unlike a bare
/// `partial_cmp(..).unwrap_or(Equal)` this is a total preorder, so the
/// standard sorts never detect an inconsistent comparator on NaN rows.
#[inline]
pub(crate) fn nan_last_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// [`nan_last_cmp`] extended lexicographically to objective rows (a
/// shorter row that is a prefix of a longer one sorts first).
#[inline]
pub(crate) fn nan_last_cmp_rows(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| nan_last_cmp(x, y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

/// Hypervolume (S-metric) of a point set against a reference point that
/// every point must weakly dominate — the standard front-quality indicator
/// used by the ablation benches to compare NSGA-II against the baselines.
///
/// Exact sweep for 2 objectives; deterministic Monte-Carlo estimate
/// (fixed-seed, 200k samples) for 3+ objectives.
///
/// Points that do not dominate the reference contribute nothing.
///
/// # Panics
///
/// Panics if `reference` has a different arity than the points.
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    hypervolume_sorted(points, reference, &mut Vec::new())
}

/// [`hypervolume`] sorting once into a caller-owned index buffer, so
/// repeat callers (benches, per-generation indicators) allocate nothing
/// for the 2-D sweep: `order` is cleared, filled with the indices of the
/// contributing points and sorted in place.
pub fn hypervolume_sorted(points: &[Vec<f64>], reference: &[f64], order: &mut Vec<usize>) -> f64 {
    order.clear();
    for (i, p) in points.iter().enumerate() {
        assert_eq!(p.len(), reference.len(), "arity mismatch");
        if p.iter().zip(reference).all(|(&x, &r)| x <= r) {
            order.push(i);
        }
    }
    if order.is_empty() {
        return 0.0;
    }
    if reference.len() == 2 {
        // One lexicographic sort, then a single sweep: a point contributes
        // exactly when it improves the running best y — i.e. it is on the
        // front — so no separate front extraction is needed.
        order.sort_unstable_by(|&a, &b| lex_cmp(&points[a], &points[b]));
        let mut hv = 0.0;
        let mut prev_y = reference[1];
        for &i in order.iter() {
            let p = &points[i];
            if p[1] < prev_y {
                hv += (reference[0] - p[0]) * (prev_y - p[1]);
                prev_y = p[1];
            }
        }
        return hv;
    }
    hypervolume_mc(points, order, reference)
}

fn hypervolume_mc(points: &[Vec<f64>], selected: &[usize], reference: &[f64]) -> f64 {
    let m = reference.len();
    // Bounding box: [min per objective, reference].
    let mut lo = vec![f64::INFINITY; m];
    for &i in selected {
        for (l, &x) in lo.iter_mut().zip(points[i].iter()) {
            *l = l.min(x);
        }
    }
    let volume: f64 = lo
        .iter()
        .zip(reference)
        .map(|(&l, &r)| (r - l).max(0.0))
        .product();
    if volume == 0.0 {
        return 0.0;
    }
    const SAMPLES: usize = 200_000;
    let mut rng = StdRng::seed_from_u64(0x5E6A_DC13);
    let mut hits = 0usize;
    let mut sample = vec![0.0f64; m];
    for _ in 0..SAMPLES {
        for d in 0..m {
            sample[d] = rng.gen_range(lo[d]..=reference[d]);
        }
        if selected
            .iter()
            .any(|&i| points[i].iter().zip(&sample).all(|(&x, &s)| x <= s))
        {
            hits += 1;
        }
    }
    volume * hits as f64 / SAMPLES as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[0.0, 0.0], &[1.0, 1.0]));
        assert!(dominates(&[0.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(!dominates(&[0.0, 2.0], &[1.0, 1.0]));
        assert!(!dominates(&[2.0, 0.0], &[1.0, 1.0]));
    }

    #[test]
    fn dominance_with_nan() {
        // A NaN objective can never dominate…
        assert!(!dominates(&[f64::NAN, 0.0], &[1.0, 1.0]));
        // …and is treated as worst, so a finite vector that is strictly
        // better somewhere dominates it.
        assert!(dominates(&[0.0, 0.0], &[f64::NAN, 1.0]));
    }

    #[test]
    fn dominance_pair_matches_two_directed_calls() {
        let rows: Vec<Vec<f64>> = vec![
            vec![0.0, 1.0, 2.0],
            vec![0.0, 1.0, 2.0],
            vec![1.0, 1.0, 1.0],
            vec![f64::NAN, 0.0, 0.0],
            vec![0.0, f64::NAN, 5.0],
            vec![f64::INFINITY, 0.0, -1.0],
            vec![-1.0, 2.0, f64::NEG_INFINITY],
        ];
        for a in &rows {
            for b in &rows {
                assert_eq!(
                    dominance_pair(a, b),
                    (dominates(a, b), dominates(b, a)),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn dominance_arity_mismatch_panics() {
        dominates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn sort_splits_fronts_correctly() {
        // Front 1: (0,3), (1,1), (3,0). Front 2: (2,2), (4,1). Front 3: (4,4).
        let pts = vec![
            vec![0.0, 3.0],
            vec![1.0, 1.0],
            vec![3.0, 0.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![4.0, 4.0],
        ];
        let fronts = non_dominated_sort(&pts);
        assert_eq!(fronts.len(), 3);
        let mut f0 = fronts[0].clone();
        f0.sort_unstable();
        assert_eq!(f0, vec![0, 1, 2]);
        let mut f1 = fronts[1].clone();
        f1.sort_unstable();
        assert_eq!(f1, vec![3, 4]);
        assert_eq!(fronts[2], vec![5]);
    }

    #[test]
    fn sort_of_empty_and_singleton() {
        assert!(non_dominated_sort(&[]).is_empty());
        let fronts = non_dominated_sort(&[vec![1.0, 2.0]]);
        assert_eq!(fronts, vec![vec![0]]);
    }

    #[test]
    fn every_point_lands_in_exactly_one_front() {
        let pts: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let x = (i * 37 % 50) as f64;
                vec![x, ((i * 13) % 50) as f64, ((i * 7) % 50) as f64]
            })
            .collect();
        let fronts = non_dominated_sort(&pts);
        let mut seen: Vec<usize> = fronts.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn first_front_is_mutually_non_dominated() {
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64, (i % 11) as f64])
            .collect();
        let front = pareto_front_indices(&pts);
        for &i in &front {
            for &j in &front {
                assert!(!dominates(&pts[i], &pts[j]), "{i} dominates {j}");
            }
        }
    }

    /// Every tier agrees with the naive oracle, fronts compared as sets.
    fn assert_matches_naive(pts: &[Vec<f64>]) {
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let mut tiered = non_dominated_sort(pts);
        let mut naive = non_dominated_sort_naive(&refs);
        for f in tiered.iter_mut().chain(naive.iter_mut()) {
            f.sort_unstable();
        }
        assert_eq!(tiered, naive, "tiered kernel diverged for {pts:?}");
    }

    #[test]
    fn tiers_match_naive_on_structured_inputs() {
        // M=2 with duplicates and an all-equal column.
        assert_matches_naive(&[
            vec![1.0, 5.0],
            vec![1.0, 5.0],
            vec![2.0, 5.0],
            vec![0.0, 5.0],
            vec![3.0, 5.0],
        ]);
        // M=3 with duplicates, ties and ±∞.
        assert_matches_naive(&[
            vec![1.0, 2.0, 3.0],
            vec![1.0, 2.0, 3.0],
            vec![1.0, 2.0, 2.0],
            vec![0.0, 9.0, 9.0],
            vec![f64::INFINITY, 0.0, 0.0],
            vec![0.0, 0.0, f64::NEG_INFINITY],
            vec![2.0, 2.0, 2.0],
        ]);
        // NaN rows route every width to the fallback and still match.
        assert_matches_naive(&[
            vec![f64::NAN, 0.0],
            vec![0.0, 0.0],
            vec![1.0, f64::NAN],
            vec![2.0, 2.0],
        ]);
        assert_matches_naive(&[
            vec![f64::NAN, 0.0, 1.0],
            vec![0.0, 0.0, 0.0],
            vec![0.0, f64::NAN, 5.0],
        ]);
        // M=4 exercises the bitset fallback on clean data.
        assert_matches_naive(&[
            vec![1.0, 2.0, 3.0, 4.0],
            vec![4.0, 3.0, 2.0, 1.0],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![2.0, 2.0, 2.0, 2.0],
            vec![1.0, 1.0, 1.0, 1.0],
        ]);
    }

    #[test]
    fn fast_tiers_beat_the_pairwise_comparison_count() {
        for m in [2usize, 3] {
            let n = 512usize;
            let matrix = ObjectiveMatrix::xorshift_cloud(n, m, None, 0x1234_5678);
            let mut scratch = SortScratch::default();
            let mut fronts = Vec::new();
            non_dominated_sort_matrix_into(&matrix, &mut scratch, &mut fronts);
            let naive_pairs = (n * (n - 1) / 2) as u64;
            assert!(
                scratch.stats().comparisons * 4 < naive_pairs,
                "m={m}: {} comparisons not asymptotically below {naive_pairs}",
                scratch.stats().comparisons
            );
        }
    }

    #[test]
    fn steady_state_sorts_allocate_nothing() {
        let pts: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 13) as f64, (i % 7) as f64, (i % 5) as f64])
            .collect();
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let mut scratch = SortScratch::default();
        let mut fronts = Vec::new();
        non_dominated_sort_slices_into(&refs, &mut scratch, &mut fronts);
        let warm = scratch.stats().allocations;
        non_dominated_sort_slices_into(&refs, &mut scratch, &mut fronts);
        assert_eq!(
            scratch.stats().allocations,
            warm,
            "second identical sort must allocate nothing"
        );
        // The classified sort bills the class view's buffers once, on
        // top of the sweep tier's, and nothing when warm.
        let matrix = ObjectiveMatrix::from_slices(&refs);
        let (mut classified, mut own_fronts) = (SortScratch::default(), Vec::new());
        non_dominated_sort_classified_into(&matrix, &mut classified, &mut own_fronts);
        let cold = classified.stats().allocations;
        assert!(cold > warm, "view buffers billed: {cold} vs {warm}");
        non_dominated_sort_classified_into(&matrix, &mut classified, &mut own_fronts);
        assert_eq!(classified.stats().allocations, cold, "warm classified sort");
    }

    #[test]
    fn crowding_boundary_points_are_infinite() {
        let pts = vec![
            vec![0.0, 4.0],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![4.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distances(&pts, &front);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
        assert!(d[2].is_finite() && d[2] > 0.0);
    }

    #[test]
    fn crowding_rewards_isolation() {
        // Middle points: one crowded, one isolated.
        let pts = vec![
            vec![0.0, 10.0],
            vec![1.0, 9.0], // crowded: neighbors at 0 and 1.1
            vec![1.1, 8.9],
            vec![5.0, 3.0], // isolated
            vec![10.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3, 4];
        let d = crowding_distances(&pts, &front);
        assert!(d[3] > d[1], "isolated point must have larger crowding");
        assert!(d[3] > d[2]);
    }

    #[test]
    fn crowding_small_fronts_all_infinite() {
        let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let d = crowding_distances(&pts, &[0, 1]);
        assert!(d.iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn crowding_matrix_and_slices_agree() {
        let pts = vec![
            vec![0.0, 10.0, 1.0],
            vec![1.0, 9.0, 2.0],
            vec![2.0, 5.0, 3.0],
            vec![5.0, 3.0, 1.5],
            vec![10.0, 0.0, 0.5],
        ];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let matrix = ObjectiveMatrix::from_rows(&pts);
        let front = vec![0, 1, 2, 3, 4];
        let via_slices = crowding_distances_slices(&refs, &front);
        let mut via_matrix = Vec::new();
        crowding_distances_matrix_into(
            &matrix,
            &front,
            &mut via_matrix,
            &mut CrowdingScratch::default(),
        );
        assert_eq!(via_slices, via_matrix);
    }

    #[test]
    fn nan_last_keys_order_like_the_comparator_and_decode_back() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            2.5,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    nan_last_key(a).cmp(&nan_last_key(b)),
                    nan_last_cmp(a, b),
                    "{a} vs {b}"
                );
            }
            let back = value_of_key(nan_last_key(a));
            if a.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(back, a, "{a}");
            }
        }
    }

    /// The seed crowding engine, kept as the bit-identity reference: per
    /// objective, one stable sort of the front positions (chained across
    /// objectives) whose every comparison re-reads the row through
    /// `front[order[k]]`.
    fn crowding_reference(
        objective: impl Fn(usize, usize) -> f64,
        m: usize,
        front: &[usize],
    ) -> Vec<f64> {
        let n = front.len();
        if n <= 2 {
            return vec![f64::INFINITY; n];
        }
        let mut dist = vec![0.0; n];
        let mut order: Vec<usize> = (0..n).collect();
        for obj in 0..m {
            order
                .sort_by(|&a, &b| nan_last_cmp(objective(front[a], obj), objective(front[b], obj)));
            let lo = objective(front[order[0]], obj);
            let hi = objective(front[order[n - 1]], obj);
            dist[order[0]] = f64::INFINITY;
            dist[order[n - 1]] = f64::INFINITY;
            let span = hi - lo;
            if span <= 0.0 || !span.is_finite() {
                continue;
            }
            for w in 1..(n - 1) {
                let prev = objective(front[order[w - 1]], obj);
                let next = objective(front[order[w + 1]], obj);
                dist[order[w]] += (next - prev) / span;
            }
        }
        dist
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs a crowding kernel, mapping a panic to `None`, so a kernel
    /// that panics where the other does not shows up as a mismatch.
    fn outcome(kernel: impl FnOnce() -> Vec<f64>) -> Option<Vec<u64>> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(kernel))
            .ok()
            .map(|d| bits(&d))
    }

    #[test]
    fn keyed_crowding_is_bit_identical_to_the_reference() {
        // Gridded values (ties and duplicate rows), with ±∞, NaN and
        // `-0.0` entries sprinkled in; fronts of every size class the
        // stable sort treats differently, listed in a scrambled order.
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0];
        let mut scratch = CrowdingScratch::default();
        let (mut sort, mut fronts) = (SortScratch::default(), Vec::new());
        let mut dist = Vec::new();
        for (case, n) in [0usize, 1, 2, 3, 5, 17, 21, 33, 64, 65, 100, 257, 300, 600]
            .into_iter()
            .enumerate()
        {
            for m in [2usize, 3, 4] {
                for special_rate in [0u64, 5, 13] {
                    let seed = (case * 7 + m) as u64 * 1000 + special_rate;
                    let mut pts = ObjectiveMatrix::xorshift_cloud(n, m, Some(6.0), seed).to_rows();
                    let mut state = seed | 1;
                    for v in pts.iter_mut().flatten() {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        if special_rate > 0 && state.is_multiple_of(special_rate) {
                            *v = specials[(state >> 8) as usize % specials.len()];
                        }
                    }
                    let front: Vec<usize> = (0..n).map(|k| (k * 37 + case) % n).collect();
                    let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
                    let matrix = ObjectiveMatrix::from_rows(&pts);
                    let label = format!("n={n} m={m} special_rate={special_rate}");

                    let expected = outcome(|| crowding_reference(|i, obj| pts[i][obj], m, &front));
                    assert!(expected.is_some(), "{label}");
                    let via_slices = outcome(|| {
                        crowding_distances_slices_into(&refs, &front, &mut dist, &mut scratch);
                        dist.clone()
                    });
                    assert_eq!(via_slices, expected, "slices {label}");
                    let via_matrix = outcome(|| {
                        crowding_distances_matrix_into(&matrix, &front, &mut dist, &mut scratch);
                        dist.clone()
                    });
                    assert_eq!(via_matrix, expected, "matrix {label}");
                    let via_pool = outcome(|| {
                        non_dominated_sort_classified_into(&matrix, &mut sort, &mut fronts);
                        crowding_classified_into(&sort, &front, &mut dist, &mut scratch);
                        dist.clone()
                    });
                    assert_eq!(via_pool, expected, "pool view {label}");
                }
            }
        }
    }

    /// Crowds `list` through a class view of all of `pts` (the GA's
    /// path) and through a one-off view of the list, and checks both
    /// against the reference bit for bit.
    fn assert_crowding_matches_reference(pts: &[Vec<f64>], list: &[usize], label: &str) {
        let m = pts.first().map_or(0, Vec::len);
        let expected = bits(&crowding_reference(|i, obj| pts[i][obj], m, list));
        let matrix = ObjectiveMatrix::from_rows(pts);
        let mut sort = SortScratch::default();
        non_dominated_sort_classified_into(&matrix, &mut sort, &mut Vec::new());
        let (mut dist, mut crowd) = (Vec::new(), CrowdingScratch::default());
        crowding_classified_into(&sort, list, &mut dist, &mut crowd);
        assert_eq!(bits(&dist), expected, "pool view {label}");
        crowding_distances_matrix_into(&matrix, list, &mut dist, &mut crowd);
        assert_eq!(bits(&dist), expected, "one-off view {label}");
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn kept_style_partial_lists_crowd_like_the_reference() {
        // A pool of heavy copies, and a scrambled subset of it (the kept
        // survivors of a truncated front): some classes are only partly
        // in the list, so their absent members must neither open nor
        // close a run.
        let mut partial_classes = 0;
        for seed in 0..24u64 {
            for m in [2usize, 3, 4] {
                let n = 40 + 9 * seed as usize;
                let base = ObjectiveMatrix::xorshift_cloud(n / 3 + 1, m, Some(4.0), seed).to_rows();
                let mut state = (seed * 31 + m as u64) | 1;
                let pts: Vec<Vec<f64>> = (0..n)
                    .map(|_| base[(xorshift(&mut state) % base.len() as u64) as usize].clone())
                    .collect();
                let mut list: Vec<usize> =
                    (0..n).filter(|_| xorshift(&mut state) % 5 < 3).collect();
                for k in (1..list.len()).rev() {
                    list.swap(k, (xorshift(&mut state) % (k as u64 + 1)) as usize);
                }
                partial_classes += base
                    .iter()
                    .filter(|row| {
                        let copies = |i: &usize| pts[*i] == **row;
                        let kept = list.iter().filter(|i| copies(i)).count();
                        kept > 0 && kept < (0..n).filter(copies).count()
                    })
                    .count();
                assert_crowding_matches_reference(&pts, &list, &format!("seed={seed} m={m}"));
            }
        }
        assert!(
            partial_classes > 100,
            "{partial_classes} partly kept classes"
        );
    }

    #[test]
    fn one_and_two_class_fronts_crowd_like_the_reference() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![2.0, 1.0, 3.0, 0.5];
        let one = vec![a.clone(); 6];
        let two: Vec<Vec<f64>> = (0..7)
            .map(|i| if i % 3 == 1 { b.clone() } else { a.clone() })
            .collect();
        for (pts, label) in [(&one, "one class"), (&two, "two classes")] {
            let n = pts.len();
            for list in [
                (0..n).collect::<Vec<_>>(),
                (0..n).rev().collect(),
                vec![4, 1, 5],
                vec![1, 4, 0, 2],
            ] {
                assert_crowding_matches_reference(pts, &list, &format!("{label} {list:?}"));
            }
        }
    }

    #[test]
    fn signed_zero_classes_tie_on_their_key() {
        // `-0.0` and `0.0` rows are distinct classes with equal keys:
        // they share a group, so their members interleave by position.
        let mut pts = Vec::new();
        for i in 0..30usize {
            let z = |bit: usize| if (i >> bit) & 1 == 1 { -0.0 } else { 0.0 };
            pts.push(vec![z(0), (i % 3) as f64, z(1), z(2) + (i % 2) as f64]);
        }
        for m in [2usize, 3, 4] {
            let rows: Vec<Vec<f64>> = pts.iter().map(|r| r[..m].to_vec()).collect();
            let list: Vec<usize> = (0..30)
                .map(|k| (k * 7 + 3) % 30)
                .filter(|k| k % 4 != 1)
                .collect();
            assert_crowding_matches_reference(&rows, &list, &format!("m={m}"));
            let all: Vec<usize> = (0..30).rev().collect();
            assert_crowding_matches_reference(&rows, &all, &format!("m={m} all"));
        }
    }

    #[test]
    fn nan_heavy_fronts_crowd_without_panicking() {
        // Past the stable sort's insertion-sort cutoff (20), an
        // inconsistent NaN comparator is detected and panics.
        for n in [21usize, 40, 257] {
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let x = i as f64;
                    let y = if i % 3 == 0 { f64::NAN } else { -x };
                    vec![x, y, if i % 2 == 0 { -0.0 } else { 0.0 }]
                })
                .collect();
            let front: Vec<usize> = (0..n).rev().collect();
            let dist = crowding_distances(&pts, &front);
            assert_eq!(dist.len(), n);
            assert!(dist.iter().all(|d| !d.is_nan()), "n={n}");
            // NaN sorts after every number, so the last NaN row in front
            // order is the objective-1 boundary.
            let last_nan = front.iter().rposition(|&i| i % 3 == 0).unwrap();
            assert_eq!(dist[last_nan], f64::INFINITY);
            let reference = crowding_reference(|i, obj| pts[i][obj], 3, &front);
            assert_eq!(bits(&dist), bits(&reference), "n={n}");
        }
        use std::cmp::Ordering::*;
        assert_eq!(nan_last_cmp(f64::NAN, f64::INFINITY), Greater);
        assert_eq!(nan_last_cmp(1.0, f64::NAN), Less);
        assert_eq!(nan_last_cmp(f64::NAN, f64::NAN), Equal);
        assert_eq!(nan_last_cmp(-0.0, 0.0), Equal);
        assert_eq!(nan_last_cmp_rows(&[1.0, f64::NAN], &[1.0, 2.0]), Greater);
        assert_eq!(nan_last_cmp_rows(&[1.0], &[1.0, 2.0]), Less);
    }

    #[test]
    fn hypervolume_2d_exact() {
        // Two points vs ref (4,4): (1,3) contributes (4-1)*(4-3)=3,
        // (2,1): (4-2)*(3-1)=4 -> 7.
        let pts = vec![vec![1.0, 3.0], vec![2.0, 1.0]];
        let hv = hypervolume(&pts, &[4.0, 4.0]);
        assert!((hv - 7.0).abs() < 1e-12, "hv={hv}");
    }

    #[test]
    fn hypervolume_dominated_points_add_nothing() {
        let alone = hypervolume(&[vec![1.0, 1.0]], &[4.0, 4.0]);
        let with_dominated = hypervolume(&[vec![1.0, 1.0], vec![2.0, 2.0]], &[4.0, 4.0]);
        assert!((alone - with_dominated).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_outside_reference_is_zero() {
        assert_eq!(hypervolume(&[vec![5.0, 5.0]], &[4.0, 4.0]), 0.0);
        assert_eq!(hypervolume(&[], &[4.0, 4.0]), 0.0);
    }

    #[test]
    fn hypervolume_sorted_reuses_the_order_buffer() {
        let pts = vec![vec![1.0, 3.0], vec![2.0, 1.0], vec![9.0, 9.0]];
        let mut order = Vec::new();
        let a = hypervolume_sorted(&pts, &[4.0, 4.0], &mut order);
        let cap = order.capacity();
        let b = hypervolume_sorted(&pts, &[4.0, 4.0], &mut order);
        assert_eq!(a, b);
        assert_eq!(order.capacity(), cap, "repeat sweep must not reallocate");
        assert!((a - 7.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_mc_matches_analytic_box() {
        // Single 3-D point at origin vs ref (1,1,1): exact volume 1.
        let hv = hypervolume(&[vec![0.0, 0.0, 0.0]], &[1.0, 1.0, 1.0]);
        assert!((hv - 1.0).abs() < 0.01, "hv={hv}");
    }

    #[test]
    fn hypervolume_monotone_in_front_quality() {
        let weak = vec![vec![3.0, 3.0, 3.0]];
        let strong = vec![vec![3.0, 3.0, 3.0], vec![1.0, 1.0, 4.5]];
        let r = [5.0, 5.0, 5.0];
        assert!(hypervolume(&strong, &r) > hypervolume(&weak, &r));
    }
}
