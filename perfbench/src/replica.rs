//! Traced replicas of the library's explore and compile paths.
//!
//! The replicas call the same public functions, in the same order, as
//! `explore_pareto_with` (non-speculative, no checkpoints) and
//! `Compiler::compile`, with a span around each layer call. The traced
//! run only counts if a replica reproduces the library's outputs bit for
//! bit (see the replica guard in each workload); otherwise it would be
//! timing a different program.

use std::sync::Arc;

use sega_dcim::backend::{default_backend, CohortEvaluator, EvalBackend};
use sega_dcim::cells::Technology;
use sega_dcim::estimator::{estimate, EstimatorStats, OperatingConditions};
use sega_dcim::explore::{DcimProblem, Geometry, ParetoSolution, PipelineOptions};
use sega_dcim::layout::drc::check_floorplan;
use sega_dcim::layout::export::to_def;
use sega_dcim::layout::floorplan::floorplan_macro;
use sega_dcim::layout::LayoutOptions;
use sega_dcim::moga::{DriverPhase, Nsga2Config, Nsga2Driver, ObjectiveMatrix, Problem};
use sega_dcim::netlist::generators::generate_macro;
use sega_dcim::netlist::stats::{audit, Audit};
use sega_dcim::netlist::{verilog, Design};
use sega_dcim::{distill::distill, DistillStrategy, UserSpec};
use sega_parallel::Pool;

use crate::trace::span;

/// A pass-through estimator backend that records a span around every
/// cohort evaluation of the default macro-model backend.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn EvalBackend>,
}

impl TimedBackend {
    /// Wraps the default in-process macro-model backend.
    pub fn macro_model() -> TimedBackend {
        TimedBackend {
            inner: default_backend(),
        }
    }
}

impl EvalBackend for TimedBackend {
    fn name(&self) -> &'static str {
        "timed-macro-model"
    }

    fn bind(
        &self,
        spec: &UserSpec,
        tech: &Technology,
        conditions: &OperatingConditions,
    ) -> Arc<dyn CohortEvaluator> {
        Arc::new(TimedEvaluator {
            inner: self.inner.bind(spec, tech, conditions),
        })
    }
}

#[derive(Debug)]
struct TimedEvaluator {
    inner: Arc<dyn CohortEvaluator>,
}

impl CohortEvaluator for TimedEvaluator {
    fn evaluate_cohort(&self, cohort: &[Geometry], pool: &Pool, workers: usize) -> Vec<[f64; 4]> {
        span("estimator.cohort", || {
            self.inner.evaluate_cohort(cohort, pool, workers)
        })
    }

    fn materialize(&self, g: &Geometry) -> Option<ParetoSolution> {
        self.inner.materialize(g)
    }

    fn estimator_stats(&self) -> EstimatorStats {
        self.inner.estimator_stats()
    }
}

/// What a traced exploration produced, with its layer counters.
#[derive(Debug)]
pub struct Explored {
    /// The front, as `explore_pareto_with` reports it.
    pub solutions: Vec<ParetoSolution>,
    /// Genome evaluations the GA requested.
    pub evaluations: usize,
    /// Evaluations the GA's interning layer resolved.
    pub interned: usize,
    /// Evaluations served by the problem's cache.
    pub cache_hits: usize,
    /// Evaluations that reached the estimator.
    pub distinct: usize,
    /// Blocked dominance-kernel mask words.
    pub word_ops: u64,
    /// Estimator-kernel counters.
    pub estimator: EstimatorStats,
}

/// `explore_pareto_with(spec, tech, conditions, config, pipeline)`, one
/// driver step at a time, with the estimator behind [`TimedBackend`].
pub fn explore(
    spec: &UserSpec,
    tech: &Technology,
    conditions: &OperatingConditions,
    config: &Nsga2Config,
    pipeline: PipelineOptions,
) -> Explored {
    let pipeline = pipeline.with_backend(Arc::new(TimedBackend::macro_model()));
    let problem = DcimProblem::with_options(*spec, tech.clone(), *conditions, pipeline);
    let mut driver = Nsga2Driver::new(config.clone(), problem.objectives());
    loop {
        match driver.phase() {
            DriverPhase::Breed => span("moga.breed", || driver.breed(&problem)),
            DriverPhase::Submitted => span("explore.eval", || {
                let mut rows = ObjectiveMatrix::with_capacity(4, driver.pending().len());
                let cohort = driver.pending().to_vec();
                problem.evaluate_batch_into(&cohort, &mut rows);
                driver.provide_rows(&rows);
            }),
            DriverPhase::Reconcile => span("moga.reconcile", || driver.reconcile()),
            DriverPhase::Select => span("moga.select", || driver.select()),
            DriverPhase::Done => break,
        }
    }
    let result = span("moga.front", || driver.into_result());
    let solutions = span("explore.materialize", || {
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
        solutions
    });
    Explored {
        solutions,
        evaluations: result.evaluations,
        interned: result.interned,
        cache_hits: problem.stats().hits() + result.interned,
        distinct: problem.stats().distinct_evaluations(),
        word_ops: result.dominance.word_ops,
        estimator: problem.stats().estimator(),
    }
}

/// Everything a traced compile produced. The netlist is returned so the
/// caller drops it outside the timed op, as the library's caller does.
pub struct Compiled {
    /// The exploration.
    pub explored: Explored,
    /// The generated netlist.
    pub netlist: Design,
    /// Gate-count audit.
    pub audit: Audit,
    /// Structural Verilog.
    pub verilog: String,
    /// DEF export.
    pub def: String,
}

/// `Compiler::compile(spec, Knee)` for a fresh compiler with `config`
/// on `pool`, one layer call at a time.
pub fn compile(
    spec: &UserSpec,
    config: &Nsga2Config,
    pool: &Arc<Pool>,
) -> Result<Compiled, String> {
    let (tech, conditions) = crate::harness::setting();
    let explored = explore(
        spec,
        &tech,
        &conditions,
        config,
        PipelineOptions::default()
            .on_pool(Arc::clone(pool))
            .with_shared_cache(Arc::new(Default::default())),
    );
    let selected = span("distill", || {
        distill(&explored.solutions, &DistillStrategy::Knee).map(|s| s.design)
    })
    .ok_or("design space exploration found no solutions")?;
    let est = span("estimator.estimate", || {
        selected
            .validate()
            .map(|()| estimate(&selected, &tech, &conditions))
    })
    .map_err(|e| e.to_string())?;
    let netlist =
        span("netlist.generate", || generate_macro(&selected)).map_err(|e| e.to_string())?;
    let audit = span("netlist.audit", || audit(&netlist, &est)).map_err(|e| e.to_string())?;
    if !audit.is_consistent(1e-9) {
        return Err("generator/estimator mismatch".to_owned());
    }
    let verilog = span("netlist.emit", || verilog::emit(&netlist)).map_err(|e| e.to_string())?;
    let layout = span("layout.floorplan", || {
        floorplan_macro(&selected, &tech, &LayoutOptions::default())
    })
    .map_err(|e| e.to_string())?;
    let violations = span("layout.drc", || check_floorplan(&layout));
    if !violations.is_empty() {
        return Err(format!("layout has {} DRC violations", violations.len()));
    }
    let def = span("layout.def", || to_def(&layout, &[]));
    Ok(Compiled {
        explored,
        netlist,
        audit,
        verilog,
        def,
    })
}
