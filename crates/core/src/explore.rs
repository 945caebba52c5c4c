//! The MOGA-based design space explorer (paper §III-B).
//!
//! The genome is the array geometry `(log2 H, log2 L, k)`; the column count
//! `N = Wstore·Bw / (H·L)` is *derived*, which keeps every individual on
//! the capacity manifold `N·H·L/Bw = Wstore` by construction (Equations
//! 2/3's equality constraint). A repair operator clamps the genome into the
//! paper's exploration bounds (`N ≥ 4·Bw`, `L ≤ 64`, `H ≤ 2048`,
//! `1 ≤ k ≤ Bx`), and NSGA-II evolves the four objectives
//! `[area, delay, energy, −throughput]`.
//!
//! # The batched evaluation pipeline
//!
//! [`explore_pareto_with`] steps an [`Nsga2Driver`] from start to finish:
//! the driver breeds each generation completely before evaluating it,
//! and the loop hands the cohort to [`Problem::evaluate_batch_into`]
//! before passing the rows back. [`DcimProblem`]'s
//! implementation dedups the cohort, serves repeats from a sharded
//! [`SharedEvalCache`] key space — the discrete `(log2 H, log2 L, k)`
//! space has only a few hundred feasible points, so after the first few
//! generations almost every genome the GA proposes has already been
//! estimated — and hands the remaining misses as one cohort to the bound
//! [`EvalBackend`] (the in-process macro model by default), which
//! estimates them in one batched kernel call. An exploration runs on one
//! thread: a cohort is at most a generation's misses, and selection, not
//! estimation, is where its time goes. The knobs live in
//! [`PipelineOptions`]; none of them changes the result (the exploration
//! is bit-identical for every thread count, shard count, cache
//! configuration and backend choice).

use std::sync::{Arc, Mutex, PoisonError};

use rand::Rng;

use sega_cells::Technology;
use sega_estimator::{DcimDesign, EstimatorStats, MacroEstimate, OperatingConditions};
use sega_moga::{
    DominanceStats, DriverPhase, Nsga2Config, Nsga2Driver, Nsga2Result, ObjectiveMatrix, Problem,
};
use sega_parallel::Pool;

use crate::backend::{default_backend, CohortEvaluator, EvalBackend, GeometryLens};
use crate::cache::{CacheKey, EvalStats, FxHashMap, KeySpace, SharedEvalCache};
use crate::spec::UserSpec;

/// How [`DcimProblem`] schedules and memoizes objective evaluations.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Threads for the fan-outs over whole explorations or points:
    /// mixed-precision runs and design-space enumeration (`0` = all
    /// hardware threads, `1` = serial). An exploration itself runs on
    /// one thread whatever this says.
    pub threads: usize,
    /// Memoize per-geometry estimates, so each distinct geometry is
    /// estimated exactly once per cache lifetime. (Even with this off,
    /// duplicate genomes *within one cohort* reach the estimator once —
    /// intra-batch dedup is unconditional.)
    pub cache: bool,
    /// The estimate cache batches read and write. `None` (default) gives
    /// the problem a **private** cache, reproducing the per-exploration
    /// memoization of PR 1; set a [`SharedEvalCache`] to reuse estimates
    /// across explorations, sweep points and compiler runs (keyed by
    /// `(technology, conditions, precision, Wstore)`, so sharing can
    /// never alias unrelated estimates).
    pub shared_cache: Option<Arc<SharedEvalCache>>,
    /// Where objective vectors come from. `None` (default) resolves to
    /// the in-process [`MacroModelBackend`](crate::backend::MacroModelBackend);
    /// set a custom [`EvalBackend`] to swap the estimator implementation
    /// (the counting [`InstrumentedBackend`](crate::backend::InstrumentedBackend))
    /// without touching any caller. Every backend must be deterministic,
    /// so the choice can never change a front — only where and how fast
    /// estimates happen.
    pub backend: Option<Arc<dyn EvalBackend>>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            threads: 0,
            cache: true,
            shared_cache: None,
            backend: None,
        }
    }
}

impl PipelineOptions {
    /// One thread, nothing memoized: the baseline the pipeline benches
    /// compare against.
    pub fn serial_uncached() -> Self {
        PipelineOptions {
            threads: 1,
            cache: false,
            ..Default::default()
        }
    }

    /// The default pipeline with `threads` for the fan-outs (`0` = all).
    pub fn with_threads(threads: usize) -> Self {
        PipelineOptions {
            threads,
            ..Default::default()
        }
    }

    /// Shorthand for `threads = pool.participants()`.
    #[must_use]
    pub fn on_pool(mut self, pool: Arc<Pool>) -> Self {
        self.threads = pool.participants();
        self
    }

    /// Reads and writes estimates through `cache` instead of a private
    /// per-problem table.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<SharedEvalCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Shorthand: share the process-wide [`SharedEvalCache::global`].
    #[must_use]
    pub fn shared(self) -> Self {
        let cache = SharedEvalCache::global();
        self.with_shared_cache(cache)
    }

    /// Sources objective vectors from `backend` instead of the default
    /// in-process macro model.
    #[must_use]
    pub fn with_backend(mut self, backend: Arc<dyn EvalBackend>) -> Self {
        self.backend = Some(backend);
        self
    }
}

/// The cache a pipeline's batches read/write: the injected shared cache,
/// else a fresh private one (PR 1 semantics).
fn resolve_cache(pipeline: &PipelineOptions) -> Arc<SharedEvalCache> {
    pipeline
        .shared_cache
        .clone()
        .unwrap_or_else(|| Arc::new(SharedEvalCache::new()))
}

/// The backend a pipeline's cohorts evaluate on: the injected one, else
/// the process-wide macro-model default.
fn resolve_backend(pipeline: &PipelineOptions) -> Arc<dyn EvalBackend> {
    pipeline.backend.clone().unwrap_or_else(default_backend)
}

/// The explorer's genome: array geometry with powers-of-two `H` and `L`.
/// (The derived ordering — `log_h`, then `log_l`, then `k` — is the
/// canonical entry order of cache snapshots.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Geometry {
    /// `log2 H` (column height).
    pub log_h: u32,
    /// `log2 L` (weights per compute unit).
    pub log_l: u32,
    /// Input bits per cycle.
    pub k: u32,
}

/// One Pareto-optimal solution: the design point and its estimate.
#[derive(Debug, Clone)]
pub struct ParetoSolution {
    /// The design point (architecture + parameters).
    pub design: DcimDesign,
    /// Its performance estimate.
    pub estimate: MacroEstimate,
}

impl ParetoSolution {
    /// The four objective values `[area, delay, energy, −throughput]`.
    pub fn objectives(&self) -> [f64; 4] {
        self.estimate.objectives()
    }
}

impl std::fmt::Display for ParetoSolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.design, self.estimate)
    }
}

/// The outcome of a design space exploration.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// The specification that was explored.
    pub spec: UserSpec,
    /// The Pareto frontier (non-dominated, deduplicated, sorted by area).
    pub solutions: Vec<ParetoSolution>,
    /// Genome evaluations the GA requested (population + population ×
    /// generations, independent of caching).
    pub evaluations: usize,
    /// Evaluations that actually reached the estimator. With the cache on
    /// this is the number of **distinct** geometries visited — typically
    /// 20–60× smaller than [`evaluations`](Self::evaluations) at the
    /// default budget.
    pub distinct_evaluations: usize,
    /// Evaluations served without reaching the estimator — cache hits,
    /// intra-batch duplicates, and GA-interned genomes
    /// (`evaluations = distinct_evaluations + cache_hits`).
    pub cache_hits: usize,
    /// The subset of [`cache_hits`](Self::cache_hits) resolved by the
    /// GA's genome-interning layer before the cohort ever reached the
    /// problem's cache.
    pub interned: usize,
    /// Dominance-kernel counters of the run's selection sorts (also
    /// folded into the problem's [`EvalStats`]).
    pub dominance: DominanceStats,
    /// Estimator-kernel counters of the run's cohort evaluations:
    /// designs estimated and how many lanes went through the vector
    /// finish vs the scalar block.
    pub estimator: EstimatorStats,
}

impl ExplorationResult {
    /// Convenience: the objective vectors of all solutions as one flat
    /// [`ObjectiveMatrix`].
    pub fn objective_matrix(&self) -> ObjectiveMatrix {
        let mut matrix = ObjectiveMatrix::with_capacity(4, self.solutions.len());
        for s in &self.solutions {
            matrix.push_row(&s.objectives());
        }
        matrix
    }

    /// The wire/report-boundary adapter: the objective vectors as nested
    /// rows (hot paths should stay on
    /// [`objective_matrix`](Self::objective_matrix)).
    pub fn objective_rows(&self) -> Vec<Vec<f64>> {
        self.objective_matrix().to_rows()
    }
}

/// The genome box derived from the specification's `ExplorerLimits`: the
/// bounds every genetic operator works within, precomputed once per
/// problem so mutation never proposes a point repair must immediately
/// undo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GenomeBounds {
    min_log_h: u32,
    max_log_h: u32,
    max_log_l: u32,
}

/// The multi-objective problem NSGA-II evolves for one `(Wstore,
/// precision)` specification.
#[derive(Debug, Clone)]
pub struct DcimProblem {
    spec: UserSpec,
    tech: Technology,
    conditions: OperatingConditions,
    /// Genome → design conversion, hoisted once per problem.
    lens: GeometryLens,
    /// The bound estimator backend cohorts evaluate on (resolved once
    /// from `pipeline.backend`, macro model by default).
    evaluator: Arc<dyn CohortEvaluator>,
    /// Serial input width (`Bx` or `BM`): the upper bound of `k`.
    serial_bits: u32,
    /// Genome bounds derived from `spec.limits`.
    bounds: GenomeBounds,
    /// Memoization knobs for batch evaluation.
    pipeline: PipelineOptions,
    /// The backing cache (private unless `pipeline.shared_cache` is set).
    cache: Arc<SharedEvalCache>,
    /// This problem's key space within [`Self::cache`], resolved once.
    space: Arc<KeySpace>,
    /// Per-run accounting, shared across clones of this problem.
    stats: Arc<EvalStats>,
    /// Reusable batch working memory (dedup tables, miss lists), shared
    /// across clones so the steady-state batch path allocates nothing.
    batch_scratch: Arc<Mutex<BatchScratch>>,
}

/// Reusable working memory of [`DcimProblem::evaluate_batch_into`]: one
/// instance serves every generation of a run, so batch evaluation does
/// O(1) allocations instead of O(N).
#[derive(Debug, Default)]
struct BatchScratch {
    /// genome → index into `distinct` (intra-batch dedup).
    index_of: FxHashMap<Geometry, usize>,
    /// The batch's distinct geometries, in first-appearance order.
    distinct: Vec<Geometry>,
    /// For every input genome, its index into `distinct`.
    slots: Vec<usize>,
    /// Resolved objectives per distinct geometry.
    resolved: Vec<Option<[f64; 4]>>,
    /// Cache misses headed for the estimator backend.
    missing: Vec<Geometry>,
    /// `missing[i]`'s index into `distinct`.
    missing_slots: Vec<usize>,
}

impl DcimProblem {
    /// Builds the problem for a specification under a technology and
    /// operating conditions, with the default [`PipelineOptions`]
    /// (cached privately).
    pub fn new(spec: UserSpec, tech: Technology, conditions: OperatingConditions) -> Self {
        Self::with_options(spec, tech, conditions, PipelineOptions::default())
    }

    /// Builds the problem with explicit [`PipelineOptions`], resolving
    /// the cache, key-space and backend bindings exactly once.
    pub fn with_options(
        spec: UserSpec,
        tech: Technology,
        conditions: OperatingConditions,
        pipeline: PipelineOptions,
    ) -> Self {
        debug_assert!(spec.wstore.is_power_of_two(), "validated by UserSpec");
        let limits = &spec.limits;
        let cache = resolve_cache(&pipeline);
        let space = cache.space(&CacheKey::new(
            &tech,
            &conditions,
            spec.precision,
            spec.wstore,
        ));
        let evaluator = resolve_backend(&pipeline).bind(&spec, &tech, &conditions);
        DcimProblem {
            lens: GeometryLens::new(&spec),
            evaluator,
            spec,
            tech,
            conditions,
            serial_bits: spec.precision.input_bits(),
            bounds: GenomeBounds {
                min_log_h: limits.min_h.next_power_of_two().trailing_zeros(),
                max_log_h: limits.max_h.trailing_zeros(),
                max_log_l: limits.max_l.trailing_zeros(),
            },
            pipeline,
            cache,
            space,
            stats: Arc::new(EvalStats::default()),
            batch_scratch: Arc::new(Mutex::new(BatchScratch::default())),
        }
    }

    /// Overrides the evaluation pipeline configuration, re-resolving the
    /// cache and backend bindings. (Prefer [`DcimProblem::with_options`]
    /// when the options are known up front — it binds once.)
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineOptions) -> Self {
        self.cache = resolve_cache(&pipeline);
        self.space = self.cache.space(&CacheKey::new(
            &self.tech,
            &self.conditions,
            self.spec.precision,
            self.spec.wstore,
        ));
        self.evaluator = resolve_backend(&pipeline).bind(&self.spec, &self.tech, &self.conditions);
        self.pipeline = pipeline;
        self
    }

    /// The backing estimate cache (private unless the pipeline options
    /// injected a shared one).
    pub fn cache(&self) -> &Arc<SharedEvalCache> {
        &self.cache
    }

    /// This run's evaluation accounting (shared by all clones of this
    /// problem).
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// The bound estimator backend this problem's cohorts evaluate on.
    pub fn evaluator(&self) -> &Arc<dyn CohortEvaluator> {
        &self.evaluator
    }

    /// Evaluates one geometry through the backend, bypassing the cache.
    fn evaluate_raw(&self, genome: &Geometry) -> [f64; 4] {
        let before = self.evaluator.estimator_stats();
        let row = self
            .evaluator
            .evaluate_cohort(std::slice::from_ref(genome), &Pool::new(1), 1)
            .pop()
            .expect("one objective vector per geometry");
        self.stats
            .record_estimator(self.evaluator.estimator_stats().since(before));
        row
    }

    /// The presentation-grade form of one geometry (design point + full
    /// estimate) through the bound backend; `None` when infeasible.
    pub fn materialize(&self, g: &Geometry) -> Option<ParetoSolution> {
        self.evaluator.materialize(g)
    }

    /// Converts a (repaired) genome into a design point:
    /// `N = (Wstore >> (log_h + log_l)) · Bw`, which keeps `N` a whole
    /// multiple of the weight width for every precision, including the
    /// non-power-of-two mantissa widths (FP16's 11 bits, FP32's 24).
    ///
    /// Returns `None` when the geometry is infeasible even after repair
    /// (cannot happen for specs accepted by [`UserSpec::new`], but kept
    /// total for safety).
    pub fn design_of(&self, g: &Geometry) -> Option<DcimDesign> {
        self.lens.design_of(g)
    }

    /// The paper's exploration bounds as genome bounds:
    /// `log_l ≤ log2(max_l)`, `min_h ≤ H ≤ max_h`, and
    /// `log_h + log_l ≤ log2(Wstore / n_factor)` so that
    /// `N ≥ n_factor·Bw`.
    fn max_log_sum(&self) -> u32 {
        let f = self.spec.limits.n_factor.next_power_of_two();
        self.lens.log_wstore().saturating_sub(f.trailing_zeros())
    }
}

impl Problem for DcimProblem {
    type Genome = Geometry;

    fn objectives(&self) -> usize {
        4
    }

    fn random_genome(&self, rng: &mut dyn rand::RngCore) -> Geometry {
        let b = &self.bounds;
        Geometry {
            log_h: rng.gen_range(b.min_log_h..=b.max_log_h),
            log_l: rng.gen_range(0..=b.max_log_l),
            k: rng.gen_range(1..=self.serial_bits),
        }
    }

    fn evaluate(&self, genome: &Geometry) -> Vec<f64> {
        if !self.pipeline.cache {
            self.stats.record(0, 1);
            self.cache.record(0, 1);
            return self.evaluate_raw(genome).to_vec();
        }
        if let Some(objectives) = self.space.get(genome) {
            self.stats.record(1, 0);
            self.cache.record(1, 0);
            return objectives.to_vec();
        }
        let objectives = self.evaluate_raw(genome);
        self.stats.record(0, 1);
        self.cache.record(0, 1);
        self.space.insert(*genome, objectives);
        objectives.to_vec()
    }

    /// Batch evaluation through the memoizing pipeline
    /// (the nested-vector boundary adapter over
    /// [`evaluate_batch_into`](Problem::evaluate_batch_into)).
    fn evaluate_batch(&self, genomes: &[Geometry]) -> Vec<Vec<f64>> {
        let mut out = ObjectiveMatrix::with_capacity(4, genomes.len());
        self.evaluate_batch_into(genomes, &mut out);
        out.to_rows()
    }

    /// The hot batch path: dedup the cohort (duplicate genomes reach the
    /// estimator once even with caching off), collect the distinct
    /// geometries' cache misses, estimate them as one cohort on this
    /// thread, install the results, then answer every genome from the
    /// resolved table — appending rows to the caller's flat
    /// [`ObjectiveMatrix`]. All working memory comes from the problem's
    /// reusable [`BatchScratch`], so a generation's evaluation performs
    /// O(1) allocations. Results are identical for every thread count,
    /// shard count and cache configuration.
    fn evaluate_batch_into(&self, genomes: &[Geometry], out: &mut ObjectiveMatrix) {
        // Every field is cleared before use, so a scratch left behind by
        // a panicking holder is as good as a fresh one.
        let mut scratch = self
            .batch_scratch
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let s = &mut *scratch;
        // Intra-batch dedup, in first-appearance order: `distinct[i]`
        // and, for every genome, its index into `distinct`.
        s.index_of.clear();
        s.distinct.clear();
        s.slots.clear();
        for g in genomes {
            let distinct = &mut s.distinct;
            let slot = *s.index_of.entry(*g).or_insert_with(|| {
                distinct.push(*g);
                distinct.len() - 1
            });
            s.slots.push(slot);
        }

        // Resolve each distinct geometry: memoized value, or position in
        // the miss list headed for the estimator.
        s.resolved.clear();
        s.resolved.resize(s.distinct.len(), None);
        s.missing.clear();
        s.missing_slots.clear();
        if self.pipeline.cache {
            for (i, g) in s.distinct.iter().enumerate() {
                match self.space.get(g) {
                    Some(objectives) => s.resolved[i] = Some(objectives),
                    None => {
                        s.missing.push(*g);
                        s.missing_slots.push(i);
                    }
                }
            }
        } else {
            s.missing.extend_from_slice(&s.distinct);
            s.missing_slots.extend(0..s.distinct.len());
        }

        let before = self.evaluator.estimator_stats();
        let computed = self.evaluator.evaluate_cohort(&s.missing, &Pool::new(1), 1);
        self.stats
            .record_estimator(self.evaluator.estimator_stats().since(before));
        for ((slot, genome), objectives) in s.missing_slots.iter().zip(&s.missing).zip(computed) {
            if self.pipeline.cache {
                self.space.insert(*genome, objectives);
            }
            s.resolved[*slot] = Some(objectives);
        }
        self.stats
            .record(genomes.len() - s.missing.len(), s.missing.len());
        self.cache
            .record(genomes.len() - s.missing.len(), s.missing.len());
        for &i in &s.slots {
            out.push_row(&s.resolved[i].expect("every distinct geometry resolved"));
        }
    }

    /// Geometries intern by their [`FxHasher`] fingerprint, so the GA's
    /// interning layer dedups cohorts in O(N) before they reach the
    /// batch pipeline (the shared cache is no longer the only dedup
    /// layer).
    fn intern_key(&self, genome: &Geometry) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut hasher = crate::cache::FxHasher::default();
        genome.hash(&mut hasher);
        Some(hasher.finish())
    }

    fn crossover(&self, a: &Geometry, b: &Geometry, rng: &mut dyn rand::RngCore) -> Geometry {
        Geometry {
            log_h: if rng.gen_bool(0.5) { a.log_h } else { b.log_h },
            log_l: if rng.gen_bool(0.5) { a.log_l } else { b.log_l },
            k: if rng.gen_bool(0.5) { a.k } else { b.k },
        }
    }

    fn mutate(&self, genome: &mut Geometry, rng: &mut dyn rand::RngCore) {
        // Steps stay inside the spec's feasible box (not a hard-coded
        // `2^16` ceiling), so mutation never wastes a move that repair
        // must immediately undo.
        let b = &self.bounds;
        match rng.gen_range(0..3u32) {
            0 => genome.log_h = step(genome.log_h, rng.gen_bool(0.5), b.min_log_h, b.max_log_h),
            1 => genome.log_l = step(genome.log_l, rng.gen_bool(0.5), 0, b.max_log_l),
            _ => genome.k = step(genome.k, rng.gen_bool(0.5), 1, self.serial_bits),
        }
    }

    fn repair(&self, genome: &mut Geometry) {
        let b = &self.bounds;
        genome.log_l = genome.log_l.min(b.max_log_l);
        genome.log_h = genome.log_h.clamp(b.min_log_h, b.max_log_h);
        genome.k = genome.k.clamp(1, self.serial_bits);
        // Keep N >= n_factor * Bw: shrink L first (cheapest), then H.
        let max_sum = self.max_log_sum();
        if genome.log_h + genome.log_l > max_sum {
            genome.log_l = genome.log_l.min(max_sum.saturating_sub(genome.log_h));
        }
        if genome.log_h + genome.log_l > max_sum {
            genome.log_h = max_sum
                .saturating_sub(genome.log_l)
                .clamp(b.min_log_h, b.max_log_h);
        }
    }
}

fn step(v: u32, up: bool, lo: u32, hi: u32) -> u32 {
    if up {
        (v + 1).min(hi)
    } else {
        v.saturating_sub(1).max(lo)
    }
}

/// Runs the MOGA-based design space exploration for a specification and
/// returns the Pareto frontier (paper Fig. 4, "MOGA-based Design Space
/// Explorer"), with the default pipeline (memoized).
pub fn explore_pareto(
    spec: &UserSpec,
    tech: &Technology,
    conditions: &OperatingConditions,
    config: &Nsga2Config,
) -> ExplorationResult {
    explore_pareto_with(spec, tech, conditions, config, PipelineOptions::default())
}

/// [`explore_pareto`] with explicit [`PipelineOptions`]. The returned
/// frontier is bit-identical across all pipeline configurations; only the
/// wall-clock and the [`ExplorationResult`] counters differ.
///
/// The GA is stepped one [`DriverPhase`] at a time rather than through
/// [`sega_moga::Nsga2::run`]: `perfbench`'s traced replica times this
/// same loop span by span, so the two must stay step for step alike.
pub fn explore_pareto_with(
    spec: &UserSpec,
    tech: &Technology,
    conditions: &OperatingConditions,
    config: &Nsga2Config,
    pipeline: PipelineOptions,
) -> ExplorationResult {
    let problem = DcimProblem::with_options(*spec, tech.clone(), *conditions, pipeline);
    let mut driver = Nsga2Driver::new(config.clone(), problem.objectives());
    let result = loop {
        match driver.phase() {
            DriverPhase::Breed => driver.breed(&problem),
            DriverPhase::Submitted => {
                let mut rows = ObjectiveMatrix::with_capacity(4, driver.pending().len());
                let cohort = driver.pending().to_vec();
                problem.evaluate_batch_into(&cohort, &mut rows);
                driver.provide_rows(&rows);
            }
            DriverPhase::Reconcile => driver.reconcile(),
            DriverPhase::Select => driver.select(),
            DriverPhase::Done => break driver.into_result(),
        }
    };
    conclude(&problem, spec, result)
}

/// Materializes a finished GA run into the exploration report: front
/// solutions presented and deduplicated, accounting folded together.
fn conclude(
    problem: &DcimProblem,
    spec: &UserSpec,
    result: Nsga2Result<Geometry>,
) -> ExplorationResult {
    problem.stats().record_dominance(result.dominance);
    let mut solutions: Vec<ParetoSolution> = result
        .front
        .iter()
        .filter_map(|ind| {
            let solution = problem.materialize(&ind.genome)?;
            solution.estimate.area_mm2.is_finite().then_some(solution)
        })
        .collect();
    solutions.sort_by(|a, b| {
        a.estimate
            .area_mm2
            .partial_cmp(&b.estimate.area_mm2)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    solutions.dedup_by(|a, b| a.design == b.design);
    ExplorationResult {
        spec: *spec,
        solutions,
        evaluations: result.evaluations,
        distinct_evaluations: problem.stats().distinct_evaluations(),
        // Duplicates the GA interned away never reached the problem's
        // stats; they are still evaluations served from memory.
        cache_hits: problem.stats().hits() + result.interned,
        interned: result.interned,
        dominance: result.dominance,
        estimator: problem.stats().estimator(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sega_estimator::Precision;

    fn setup(precision: Precision, wstore: u64) -> DcimProblem {
        let spec = UserSpec::new(wstore, precision).unwrap();
        DcimProblem::new(
            spec,
            Technology::tsmc28(),
            OperatingConditions::paper_default(),
        )
    }

    fn small_config(seed: u64) -> Nsga2Config {
        Nsga2Config {
            population: 24,
            generations: 15,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn poisoned_batch_scratch_still_evaluates_the_cohort() {
        let problem = setup(Precision::Int8, 65536);
        let mut rng = StdRng::seed_from_u64(3);
        let cohort: Vec<Geometry> = (0..40).map(|_| problem.random_genome(&mut rng)).collect();
        let holder = problem.clone();
        let poisoner = std::thread::spawn(move || {
            let mut scratch = holder.batch_scratch.lock().unwrap();
            scratch.distinct.push(Geometry {
                log_h: 1,
                log_l: 1,
                k: 1,
            });
            scratch.slots.push(usize::MAX);
            scratch.resolved.push(Some([f64::NAN; 4]));
            panic!("poison the batch scratch");
        });
        assert!(poisoner.join().is_err());
        assert!(problem.batch_scratch.is_poisoned());

        let mut poisoned_rows = ObjectiveMatrix::with_capacity(4, cohort.len());
        problem.evaluate_batch_into(&cohort, &mut poisoned_rows);
        let fresh = setup(Precision::Int8, 65536);
        let mut fresh_rows = ObjectiveMatrix::with_capacity(4, cohort.len());
        fresh.evaluate_batch_into(&cohort, &mut fresh_rows);
        let bits =
            |m: &ObjectiveMatrix| m.as_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&poisoned_rows), bits(&fresh_rows));
        assert_eq!(poisoned_rows.len(), cohort.len());
    }

    #[test]
    fn repaired_genomes_are_always_feasible() {
        let problem = setup(Precision::Int8, 65536);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let mut g = problem.random_genome(&mut rng);
            problem.mutate(&mut g, &mut rng);
            problem.mutate(&mut g, &mut rng);
            problem.repair(&mut g);
            let d = problem.design_of(&g).expect("repaired genome feasible");
            d.validate().unwrap();
            let (n, h, l, _) = d.geometry();
            assert_eq!(d.wstore(), 65536, "capacity constraint violated");
            assert!(l <= 64 && h <= 2048 && n >= 4 * 8, "paper bounds violated");
        }
    }

    #[test]
    fn exploration_returns_nonempty_front() {
        for precision in [Precision::Int8, Precision::Bf16, Precision::Fp32] {
            let spec = UserSpec::new(16384, precision).unwrap();
            let r = explore_pareto(
                &spec,
                &Technology::tsmc28(),
                &OperatingConditions::paper_default(),
                &small_config(1),
            );
            assert!(!r.solutions.is_empty(), "{precision}");
            for s in &r.solutions {
                assert_eq!(s.design.wstore(), 16384);
            }
        }
    }

    #[test]
    fn front_is_mutually_non_dominated() {
        let spec = UserSpec::new(16384, Precision::Int8).unwrap();
        let r = explore_pareto(
            &spec,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            &small_config(2),
        );
        let objs = r.objective_matrix();
        for a in objs.iter_rows() {
            for b in objs.iter_rows() {
                assert!(!sega_moga::pareto::dominates(a, b) || a == b);
            }
        }
    }

    #[test]
    fn front_spans_area_throughput_tradeoff() {
        let spec = UserSpec::new(65536, Precision::Int8).unwrap();
        let r = explore_pareto(
            &spec,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            &Nsga2Config {
                population: 48,
                generations: 30,
                seed: 3,
                ..Default::default()
            },
        );
        assert!(
            r.solutions.len() >= 3,
            "front too small: {}",
            r.solutions.len()
        );
        let areas: Vec<f64> = r.solutions.iter().map(|s| s.estimate.area_mm2).collect();
        let min = areas.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = areas.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min > 1.5,
            "front should span a real area trade-off: {min}..{max}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = UserSpec::new(8192, Precision::Bf16).unwrap();
        let run = || {
            explore_pareto(
                &spec,
                &Technology::tsmc28(),
                &OperatingConditions::paper_default(),
                &small_config(42),
            )
            .objective_matrix()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fp_problem_respects_mantissa_bound_on_k() {
        let problem = setup(Precision::Bf16, 8192);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let mut g = problem.random_genome(&mut rng);
            g.k = 31; // force out of range
            problem.repair(&mut g);
            assert!(g.k <= 8, "k must be clamped to BM for BF16");
        }
    }
}
