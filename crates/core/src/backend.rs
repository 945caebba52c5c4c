//! The pluggable estimator seam: **where objective vectors come from**.
//!
//! Evaluation is batch-first (dedup → cache → one cohort); this module
//! abstracts the step at the bottom of that pipeline — "given a
//! cohort of distinct, uncached geometries, produce their objective
//! vectors" — behind [`EvalBackend`], so the estimator implementation can
//! be swapped without touching [`DcimProblem`], `explore_*`, `mixed`,
//! `enumerate` or the `Compiler`:
//!
//! * [`MacroModelBackend`] is today's in-process path: the closed-form
//!   macro model through a hoisted [`EstimationContext`], one batched
//!   kernel call per cohort on the calling thread.
//! * [`InstrumentedBackend`] wraps any backend with cohort/geometry
//!   counters — the test double proving fronts are backend-invariant,
//!   and the accounting hook the batch runner reports.
//!
//! Evaluation happens in-process only. The analytic model costs about
//! 0.1% of an exploration's wall-clock, so shipping cohorts to worker
//! processes never paid for its round-trips; a remote worker fleet once
//! sat behind this seam and was removed for that reason. The seam stays
//! because the instrumented backend and the benchmark's timing wrapper
//! use it.
//!
//! The contract every backend must honor: **determinism**. For one bound
//! `(spec, technology, conditions)` the objective vector of a geometry is
//! a pure function — the cache memoizes it, snapshots persist it, and the
//! bit-identical-front guarantee of the whole pipeline rests on it.
//!
//! [`DcimProblem`]: crate::explore::DcimProblem

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use sega_cells::Technology;
use sega_estimator::{
    CohortScratch, DcimDesign, EstimationContext, EstimatorStats, OperatingConditions, Precision,
};
use sega_parallel::Pool;

use crate::explore::{Geometry, ParetoSolution};
use crate::spec::UserSpec;

/// The genome → design-point conversion of one specification, hoisted
/// out of [`DcimProblem`](crate::explore::DcimProblem) so backends and
/// the enumeration path share one implementation:
/// `N = (Wstore >> (log_h + log_l)) · Bw`, which keeps every geometry on
/// the capacity manifold `N·H·L/Bw = Wstore` by construction.
#[derive(Debug, Clone, Copy)]
pub struct GeometryLens {
    wstore: u64,
    weight_bits: u64,
    precision: Precision,
    log_wstore: u32,
}

impl GeometryLens {
    /// The lens of one (validated) specification.
    pub fn new(spec: &UserSpec) -> GeometryLens {
        debug_assert!(spec.wstore.is_power_of_two(), "validated by UserSpec");
        GeometryLens {
            wstore: spec.wstore,
            weight_bits: spec.weight_bits() as u64,
            precision: spec.precision,
            log_wstore: spec.wstore.trailing_zeros(),
        }
    }

    /// `log2 Wstore`.
    pub fn log_wstore(&self) -> u32 {
        self.log_wstore
    }

    /// Converts a (repaired) genome into a design point. `None` when the
    /// geometry is infeasible even after repair (cannot happen for specs
    /// accepted by [`UserSpec::new`], but kept total for safety).
    pub fn design_of(&self, g: &Geometry) -> Option<DcimDesign> {
        let denom = g.log_h + g.log_l;
        if denom > self.log_wstore {
            return None;
        }
        let n = (self.wstore >> denom) * self.weight_bits;
        if n > u32::MAX as u64 {
            return None;
        }
        DcimDesign::for_precision(
            self.precision,
            n as u32,
            1u32 << g.log_h,
            1u32 << g.log_l,
            g.k,
        )
        .ok()
    }
}

/// An estimator implementation: binds to one exploration's invariants
/// and evaluates geometry cohorts.
///
/// Backends are stateless factories (safe to share process-wide); the
/// per-exploration state — voltage-realized technology, genome lens,
/// kernel counters — lives in the [`CohortEvaluator`] that
/// [`EvalBackend::bind`] returns, resolved **once** per problem, never
/// per genome.
pub trait EvalBackend: Send + Sync + std::fmt::Debug {
    /// Short name for reports and diagnostics, e.g. `"macro-model"`.
    fn name(&self) -> &'static str;

    /// Binds the backend to one exploration's invariants.
    fn bind(
        &self,
        spec: &UserSpec,
        tech: &Technology,
        conditions: &OperatingConditions,
    ) -> Arc<dyn CohortEvaluator>;
}

/// A backend bound to one `(spec, technology, conditions)` triple: the
/// object the hot path actually calls.
pub trait CohortEvaluator: Send + Sync + std::fmt::Debug {
    /// Objective vectors `[area, delay, energy, −throughput]` for a
    /// cohort of geometries, element-wise in cohort order. The caller
    /// (the cache layer) guarantees the cohort is deduplicated and
    /// cache-missed — the GA interns duplicate genomes and the batch
    /// pipeline dedups within the cohort, so every geometry arriving
    /// here is estimated exactly once. `workers` is an upper bound on the
    /// threads the evaluation may use on `pool`, not a request: the macro
    /// model meets it by running serially, and
    /// [`DcimProblem`](crate::explore::DcimProblem) passes a serial pool
    /// and `1`, so an exploration runs on one thread. The `[f64; 4]` rows
    /// are already flat and are copied straight into the caller's
    /// [`sega_moga::ObjectiveMatrix`] without per-genome allocation.
    ///
    /// Infeasible geometries evaluate to `[+∞; 4]` — they participate in
    /// NSGA-II domination like any other vector and are memoized like
    /// any other result.
    fn evaluate_cohort(&self, cohort: &[Geometry], pool: &Pool, workers: usize) -> Vec<[f64; 4]>;

    /// The presentation-grade form of one geometry — the full design
    /// point and estimate a front member or enumeration point reports.
    /// `None` for infeasible geometries.
    fn materialize(&self, g: &Geometry) -> Option<ParetoSolution>;

    /// Cumulative estimator-kernel counters accumulated by this
    /// evaluator: designs estimated, how many went through the vector
    /// finish vs the scalar block, and scratch growth. Backends without
    /// a kernel of their own report the zero default.
    fn estimator_stats(&self) -> EstimatorStats {
        EstimatorStats::default()
    }
}

/// The in-process macro-model backend: the paper's closed-form estimator
/// through a per-binding hoisted [`EstimationContext`], evaluated on the
/// calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct MacroModelBackend;

impl EvalBackend for MacroModelBackend {
    fn name(&self) -> &'static str {
        "macro-model"
    }

    fn bind(
        &self,
        spec: &UserSpec,
        tech: &Technology,
        conditions: &OperatingConditions,
    ) -> Arc<dyn CohortEvaluator> {
        Arc::new(MacroModelEvaluator {
            lens: GeometryLens::new(spec),
            ctx: EstimationContext::new(tech, conditions),
            counters: Arc::new(EstimatorCounters::default()),
        })
    }
}

/// The process-wide default backend instance (backends are stateless, so
/// one is enough).
pub fn default_backend() -> Arc<dyn EvalBackend> {
    static DEFAULT: std::sync::OnceLock<Arc<dyn EvalBackend>> = std::sync::OnceLock::new();
    Arc::clone(DEFAULT.get_or_init(|| Arc::new(MacroModelBackend)))
}

/// [`MacroModelBackend`] bound to one exploration.
#[derive(Debug)]
struct MacroModelEvaluator {
    lens: GeometryLens,
    /// Voltage-realized technology + energy factor, hoisted once per
    /// binding so the innermost estimate never clones a [`Technology`].
    ctx: EstimationContext,
    /// Kernel counters merged from every thread's cohort scratch.
    counters: Arc<EstimatorCounters>,
}

/// Atomic mirror of [`EstimatorStats`], so explorations sharing one
/// evaluator on different threads merge their counters without locking.
#[derive(Debug, Default)]
struct EstimatorCounters {
    designs: AtomicU64,
    batched: AtomicU64,
    scalar_fallbacks: AtomicU64,
    allocations: AtomicU64,
}

impl EstimatorCounters {
    fn add(&self, delta: EstimatorStats) {
        self.designs.fetch_add(delta.designs, Ordering::Relaxed);
        self.batched.fetch_add(delta.batched, Ordering::Relaxed);
        self.scalar_fallbacks
            .fetch_add(delta.scalar_fallbacks, Ordering::Relaxed);
        self.allocations
            .fetch_add(delta.allocations, Ordering::Relaxed);
    }

    fn snapshot(&self) -> EstimatorStats {
        EstimatorStats {
            designs: self.designs.load(Ordering::Relaxed),
            batched: self.batched.load(Ordering::Relaxed),
            scalar_fallbacks: self.scalar_fallbacks.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    /// Per-thread cohort workspace: the dense design list, the slot map
    /// back into the cohort, the estimator's SoA lanes, and the row
    /// output — all reused across cohorts so steady-state evaluation
    /// never allocates.
    static COHORT_TLS: RefCell<CohortWorkspace> = RefCell::new(CohortWorkspace::default());
}

#[derive(Default)]
struct CohortWorkspace {
    designs: Vec<DcimDesign>,
    slots: Vec<usize>,
    rows: Vec<[f64; 4]>,
    scratch: CohortScratch,
}

impl CohortEvaluator for MacroModelEvaluator {
    /// Runs the batched SoA estimator over the whole cohort on the
    /// calling thread, whatever `pool` and `workers` allow (a cohort is
    /// at most a generation's misses, which estimate in microseconds):
    /// map feasible geometries into a dense design list, estimate the
    /// list through [`EstimationContext::estimate_cohort`], then scatter
    /// the rows back — infeasible slots stay `[+∞; 4]`.
    fn evaluate_cohort(&self, cohort: &[Geometry], _pool: &Pool, _workers: usize) -> Vec<[f64; 4]> {
        if cohort.is_empty() {
            return Vec::new();
        }
        COHORT_TLS.with(|tls| {
            let ws = &mut *tls.borrow_mut();
            ws.designs.clear();
            ws.slots.clear();
            let mut out = vec![[f64::INFINITY; 4]; cohort.len()];
            for (slot, g) in cohort.iter().enumerate() {
                if let Some(design) = self.lens.design_of(g) {
                    ws.designs.push(design);
                    ws.slots.push(slot);
                }
            }
            self.ctx
                .estimate_cohort(&ws.designs, &mut ws.rows, &mut ws.scratch);
            for (&slot, &row) in ws.slots.iter().zip(&ws.rows) {
                out[slot] = row;
            }
            self.counters.add(ws.scratch.stats());
            ws.scratch.reset_stats();
            out
        })
    }

    fn materialize(&self, g: &Geometry) -> Option<ParetoSolution> {
        let design = self.lens.design_of(g)?;
        let estimate = self.ctx.estimate(&design);
        Some(ParetoSolution { design, estimate })
    }

    fn estimator_stats(&self) -> EstimatorStats {
        self.counters.snapshot()
    }
}

/// A pass-through backend that counts the traffic crossing the seam:
/// cohorts dispatched and geometries evaluated, across every evaluator
/// it has bound.
///
/// Two jobs: the **test double** proving the exploration result is
/// invariant in the backend choice (it perturbs scheduling metadata but
/// must not perturb fronts), and the **accounting hook** behind the batch
/// runner's per-backend statistics.
#[derive(Debug)]
pub struct InstrumentedBackend {
    inner: Arc<dyn EvalBackend>,
    counters: Arc<BackendCounters>,
}

/// The shared traffic counters of an [`InstrumentedBackend`] — `Arc`d so
/// evaluators can outlive the borrow that bound them.
#[derive(Debug, Default)]
struct BackendCounters {
    cohorts: AtomicUsize,
    geometries: AtomicUsize,
}

impl InstrumentedBackend {
    /// Wraps `inner`, starting all counters at zero.
    pub fn new(inner: Arc<dyn EvalBackend>) -> InstrumentedBackend {
        InstrumentedBackend {
            inner,
            counters: Arc::new(BackendCounters::default()),
        }
    }

    /// Wraps the default [`MacroModelBackend`].
    pub fn macro_model() -> InstrumentedBackend {
        InstrumentedBackend::new(default_backend())
    }

    /// Cohorts dispatched to the wrapped backend so far.
    pub fn cohorts(&self) -> usize {
        self.counters.cohorts.load(Ordering::Relaxed)
    }

    /// Geometries evaluated by the wrapped backend so far.
    pub fn geometries(&self) -> usize {
        self.counters.geometries.load(Ordering::Relaxed)
    }
}

impl EvalBackend for InstrumentedBackend {
    fn name(&self) -> &'static str {
        "instrumented"
    }

    fn bind(
        &self,
        spec: &UserSpec,
        tech: &Technology,
        conditions: &OperatingConditions,
    ) -> Arc<dyn CohortEvaluator> {
        Arc::new(InstrumentedEvaluator {
            inner: self.inner.bind(spec, tech, conditions),
            counters: Arc::clone(&self.counters),
        })
    }
}

#[derive(Debug)]
struct InstrumentedEvaluator {
    inner: Arc<dyn CohortEvaluator>,
    counters: Arc<BackendCounters>,
}

impl CohortEvaluator for InstrumentedEvaluator {
    fn evaluate_cohort(&self, cohort: &[Geometry], pool: &Pool, workers: usize) -> Vec<[f64; 4]> {
        if !cohort.is_empty() {
            self.counters.cohorts.fetch_add(1, Ordering::Relaxed);
            self.counters
                .geometries
                .fetch_add(cohort.len(), Ordering::Relaxed);
        }
        self.inner.evaluate_cohort(cohort, pool, workers)
    }

    fn materialize(&self, g: &Geometry) -> Option<ParetoSolution> {
        self.inner.materialize(g)
    }

    fn estimator_stats(&self) -> EstimatorStats {
        self.inner.estimator_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind_default(spec: &UserSpec) -> Arc<dyn CohortEvaluator> {
        default_backend().bind(
            spec,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
        )
    }

    #[test]
    fn macro_backend_matches_the_free_estimator() {
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let evaluator = bind_default(&spec);
        let lens = GeometryLens::new(&spec);
        let g = Geometry {
            log_h: 7,
            log_l: 4,
            k: 4,
        };
        let design = lens.design_of(&g).unwrap();
        let expected = sega_estimator::estimate(
            &design,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
        );
        let pool = Pool::new(1);
        let cohort = evaluator.evaluate_cohort(std::slice::from_ref(&g), &pool, 1);
        assert_eq!(cohort, vec![expected.objectives()]);
        let solution = evaluator.materialize(&g).unwrap();
        assert_eq!(solution.design, design);
        assert_eq!(solution.estimate, expected);
    }

    #[test]
    fn infeasible_geometries_evaluate_to_infinity_not_panic() {
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let evaluator = bind_default(&spec);
        let beyond = Geometry {
            log_h: 30,
            log_l: 30,
            k: 1,
        };
        let pool = Pool::new(1);
        let out = evaluator.evaluate_cohort(std::slice::from_ref(&beyond), &pool, 1);
        assert_eq!(out, vec![[f64::INFINITY; 4]]);
        assert!(evaluator.materialize(&beyond).is_none());
    }

    #[test]
    fn instrumented_backend_counts_traffic_and_preserves_results() {
        let spec = UserSpec::new(8192, Precision::Bf16).unwrap();
        let instrumented = InstrumentedBackend::macro_model();
        let tech = Technology::tsmc28();
        let cond = OperatingConditions::paper_default();
        let wrapped = instrumented.bind(&spec, &tech, &cond);
        let plain = bind_default(&spec);
        let cohort: Vec<Geometry> = (1..=4)
            .map(|k| Geometry {
                log_h: 5,
                log_l: 1,
                k,
            })
            .collect();
        let pool = Pool::new(1);
        assert_eq!(
            wrapped.evaluate_cohort(&cohort, &pool, 1),
            plain.evaluate_cohort(&cohort, &pool, 1)
        );
        assert_eq!(instrumented.cohorts(), 1);
        assert_eq!(instrumented.geometries(), 4);
        // Empty cohorts don't count.
        wrapped.evaluate_cohort(&[], &pool, 1);
        assert_eq!(instrumented.cohorts(), 1);
        assert_eq!(instrumented.name(), "instrumented");
    }

    #[test]
    fn evaluator_accumulates_estimator_stats() {
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let evaluator = bind_default(&spec);
        assert_eq!(evaluator.estimator_stats(), EstimatorStats::default());
        let cohort: Vec<Geometry> = (1..=4)
            .map(|k| Geometry {
                log_h: 5,
                log_l: 1,
                k,
            })
            .collect();
        let pool = Pool::new(1);
        let rows = evaluator.evaluate_cohort(&cohort, &pool, 1);
        assert_eq!(rows.len(), 4);
        let stats = evaluator.estimator_stats();
        assert_eq!(stats.designs, 4, "all four geometries are feasible");
        assert_eq!(stats.batched + stats.scalar_fallbacks, stats.designs);
        // A second cohort accumulates rather than resets.
        evaluator.evaluate_cohort(&cohort, &pool, 1);
        assert_eq!(evaluator.estimator_stats().designs, 8);
    }

    #[test]
    fn one_call_cohort_matches_per_geometry_cohorts() {
        let spec = UserSpec::new(16384, Precision::Fp16).unwrap();
        let evaluator = bind_default(&spec);
        // A cohort long enough to fill several vector blocks, with an
        // infeasible geometry buried mid-stream.
        let mut cohort = Vec::new();
        for log_h in 1..=6 {
            for log_l in 0..=2 {
                for k in 1..=4 {
                    cohort.push(Geometry { log_h, log_l, k });
                }
            }
        }
        cohort.insert(
            17,
            Geometry {
                log_h: 30,
                log_l: 30,
                k: 1,
            },
        );
        let pool = Pool::new(1);
        let whole = evaluator.evaluate_cohort(&cohort, &pool, 1);
        assert_eq!(whole.len(), cohort.len());
        assert_eq!(whole[17], [f64::INFINITY; 4]);
        let whole_bits: Vec<[u64; 4]> = whole.iter().map(|r| r.map(f64::to_bits)).collect();
        let single_bits: Vec<[u64; 4]> = cohort
            .iter()
            .map(|g| {
                let rows = evaluator.evaluate_cohort(std::slice::from_ref(g), &pool, 1);
                assert_eq!(rows.len(), 1);
                rows[0].map(f64::to_bits)
            })
            .collect();
        assert_eq!(whole_bits, single_bits);
    }

    #[test]
    fn lens_keeps_capacity_exact_for_every_precision() {
        let precisions = [
            Precision::Int2,
            Precision::Int4,
            Precision::Int8,
            Precision::Int16,
            Precision::Fp8,
            Precision::Fp16,
            Precision::Bf16,
            Precision::Fp32,
        ];
        for precision in precisions {
            let spec = match UserSpec::new(16384, precision) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let lens = GeometryLens::new(&spec);
            for log_h in 1..=6 {
                for log_l in 0..=2 {
                    for k in 1..=2 {
                        let g = Geometry { log_h, log_l, k };
                        if let Some(d) = lens.design_of(&g) {
                            assert_eq!(d.wstore(), 16384, "{precision} {g:?}");
                        }
                    }
                }
            }
        }
    }
}
