//! The end-to-end SEGA-DCIM compiler pipeline (paper Fig. 4):
//! specification → MOGA-based exploration → user distillation →
//! template-based generation (netlist + layout) → audit.

use std::sync::Arc;

use sega_cells::Technology;
use sega_estimator::{estimate, DcimDesign, MacroEstimate, OperatingConditions, ParamError};
use sega_layout::drc::{check_floorplan, DrcViolation};
use sega_layout::floorplan::{floorplan_macro, MacroLayout};
use sega_layout::{LayoutError, LayoutOptions};
use sega_moga::Nsga2Config;
use sega_netlist::stats::{audit, Audit};
use sega_netlist::{verilog, Design, NetlistError};

use crate::cache::SharedEvalCache;
use crate::distill::{distill, DistillStrategy};
use crate::explore::{explore_pareto_with, ExplorationResult, PipelineOptions};
use crate::spec::UserSpec;

/// Errors of the compiler pipeline.
#[derive(Debug)]
pub enum CompileError {
    /// The explorer produced an empty frontier (should not happen for
    /// valid specs; indicates an over-constrained custom limit set).
    EmptyFrontier,
    /// A design point failed parameter validation.
    Param(ParamError),
    /// The template generator failed (indicates a generator bug).
    Netlist(NetlistError),
    /// The physical-design step failed.
    Layout(LayoutError),
    /// The generated layout violates DRC.
    Drc(Vec<DrcViolation>),
    /// Generator and estimator disagree beyond tolerance.
    AuditMismatch(Box<Audit>),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::EmptyFrontier => write!(f, "design space exploration found no solutions"),
            CompileError::Param(e) => write!(f, "invalid design parameters: {e}"),
            CompileError::Netlist(e) => write!(f, "netlist generation failed: {e}"),
            CompileError::Layout(e) => write!(f, "layout generation failed: {e}"),
            CompileError::Drc(v) => write!(f, "layout has {} DRC violations", v.len()),
            CompileError::AuditMismatch(a) => write!(
                f,
                "generator/estimator mismatch: area error {:.3e}, energy error {:.3e}",
                a.area_error(),
                a.energy_error()
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParamError> for CompileError {
    fn from(e: ParamError) -> Self {
        CompileError::Param(e)
    }
}
impl From<NetlistError> for CompileError {
    fn from(e: NetlistError) -> Self {
        CompileError::Netlist(e)
    }
}
impl From<LayoutError> for CompileError {
    fn from(e: LayoutError) -> Self {
        CompileError::Layout(e)
    }
}

/// A fully compiled DCIM macro: everything the paper's flow hands back to
/// the user.
#[derive(Debug)]
pub struct CompiledMacro {
    /// The selected design point.
    pub design: DcimDesign,
    /// Its performance estimate (the numbers the explorer optimized).
    pub estimate: MacroEstimate,
    /// The exploration that produced it (empty when compiled directly from
    /// a design point).
    pub frontier: Vec<crate::explore::ParetoSolution>,
    /// The generated hierarchical netlist.
    pub netlist: Design,
    /// Self-contained structural Verilog.
    pub verilog: String,
    /// Floorplanned layout.
    pub layout: MacroLayout,
    /// DEF-like export of the layout.
    pub def: String,
    /// Gate-count audit (generator vs estimator).
    pub audit: Audit,
}

/// The SEGA-DCIM compiler: configuration plus the
/// [`compile`](Compiler::compile) entry point.
#[derive(Debug, Clone)]
pub struct Compiler {
    technology: Technology,
    conditions: OperatingConditions,
    layout_options: LayoutOptions,
    nsga_config: Nsga2Config,
    pipeline: PipelineOptions,
    /// Estimates memoized **across** this compiler's runs (and its
    /// clones): a second exploration of the same specification reaches
    /// the estimator zero times.
    cache: Arc<SharedEvalCache>,
    audit_tolerance: f64,
}

impl Compiler {
    /// A compiler with the paper's defaults: calibrated TSMC28, 0.9 V,
    /// 10% sparsity, paper-scale NSGA-II budget, and the full evaluation
    /// pipeline (estimates memoized across runs).
    pub fn new() -> Compiler {
        Compiler {
            technology: Technology::tsmc28(),
            conditions: OperatingConditions::paper_default(),
            layout_options: LayoutOptions::default(),
            nsga_config: Nsga2Config::default(),
            pipeline: PipelineOptions::default(),
            cache: Arc::new(SharedEvalCache::new()),
            audit_tolerance: 1e-9,
        }
    }

    /// Overrides the technology.
    #[must_use]
    pub fn with_technology(mut self, tech: Technology) -> Self {
        self.technology = tech;
        self
    }

    /// Overrides the operating conditions.
    #[must_use]
    pub fn with_conditions(mut self, conditions: OperatingConditions) -> Self {
        self.conditions = conditions;
        self
    }

    /// Overrides the layout options.
    #[must_use]
    pub fn with_layout_options(mut self, options: LayoutOptions) -> Self {
        self.layout_options = options;
        self
    }

    /// Overrides the NSGA-II population and generation budget (smaller
    /// budgets for unit tests, larger for paper-scale sweeps).
    #[must_use]
    pub fn with_exploration_budget(mut self, population: usize, generations: usize) -> Self {
        self.nsga_config.population = population;
        self.nsga_config.generations = generations;
        self
    }

    /// Overrides the full NSGA-II configuration (seed included).
    #[must_use]
    pub fn with_nsga_config(mut self, config: Nsga2Config) -> Self {
        self.nsga_config = config;
        self
    }

    /// Sets [`PipelineOptions::threads`] (`0` = all hardware threads,
    /// `1` = serial). A compile's exploration runs on one thread, so this
    /// bounds nothing the compiler itself runs; the result is
    /// bit-identical either way.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pipeline.threads = threads;
        self
    }

    /// Overrides the full evaluation-pipeline configuration. A pipeline
    /// without its own `shared_cache` still reuses this compiler's
    /// cross-run cache.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineOptions) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Replaces the cross-run estimate cache, e.g. with
    /// [`SharedEvalCache::global`] to share estimates between several
    /// compilers in one process.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<SharedEvalCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Sources exploration objective vectors from `backend` instead of
    /// the default in-process macro model. Backends are deterministic by
    /// contract, so this can never change a compiled result — only where
    /// estimates are computed.
    #[must_use]
    pub fn with_backend(mut self, backend: Arc<dyn crate::backend::EvalBackend>) -> Self {
        self.pipeline.backend = Some(backend);
        self
    }

    /// The estimate cache this compiler's explorations accumulate into.
    pub fn shared_cache(&self) -> &Arc<SharedEvalCache> {
        &self.cache
    }

    /// The pipeline configuration an exploration actually runs with: the
    /// configured options, falling back to this compiler's cross-run
    /// cache when the options carry none.
    fn effective_pipeline(&self) -> PipelineOptions {
        let mut pipeline = self.pipeline.clone();
        if pipeline.shared_cache.is_none() {
            pipeline.shared_cache = Some(Arc::clone(&self.cache));
        }
        pipeline
    }

    /// The active technology.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// The active operating conditions.
    pub fn conditions(&self) -> &OperatingConditions {
        &self.conditions
    }

    /// Runs only the exploration stage and returns the Pareto frontier.
    /// Estimates are memoized across calls: exploring the same
    /// specification twice reports `distinct_evaluations == 0` the
    /// second time (the frontier is identical either way).
    pub fn explore(&self, spec: &UserSpec) -> ExplorationResult {
        explore_pareto_with(
            spec,
            &self.technology,
            &self.conditions,
            &self.nsga_config,
            self.effective_pipeline(),
        )
    }

    /// The full pipeline: explore, distill, generate, audit.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if exploration finds nothing, generation
    /// fails, the layout violates DRC, or the generated netlist disagrees
    /// with the estimate.
    pub fn compile(
        &self,
        spec: &UserSpec,
        strategy: DistillStrategy,
    ) -> Result<CompiledMacro, CompileError> {
        let exploration = self.explore(spec);
        let selected = distill(&exploration.solutions, &strategy)
            .ok_or(CompileError::EmptyFrontier)?
            .design;
        let mut compiled = self.compile_design(&selected)?;
        compiled.frontier = exploration.solutions;
        Ok(compiled)
    }

    /// Generates a specific design point (skipping exploration) — the
    /// "user-defined distillation already done" path.
    ///
    /// # Errors
    ///
    /// Same generation-stage conditions as [`compile`](Compiler::compile).
    pub fn compile_design(&self, design: &DcimDesign) -> Result<CompiledMacro, CompileError> {
        design.validate()?;
        let est = estimate(design, &self.technology, &self.conditions);
        let netlist = sega_netlist::generators::generate_macro(design)?;
        let audit_result = audit(&netlist, &est)?;
        if !audit_result.is_consistent(self.audit_tolerance) {
            return Err(CompileError::AuditMismatch(Box::new(audit_result)));
        }
        let verilog = verilog::emit(&netlist)?;
        let layout = floorplan_macro(design, &self.technology, &self.layout_options)?;
        let violations = check_floorplan(&layout);
        if !violations.is_empty() {
            return Err(CompileError::Drc(violations));
        }
        let def = sega_layout::export::to_def(&layout, &[]);
        Ok(CompiledMacro {
            design: *design,
            estimate: est,
            frontier: Vec::new(),
            netlist,
            verilog,
            layout,
            def,
            audit: audit_result,
        })
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::UserSpec;
    use sega_estimator::Precision;

    fn fast_compiler() -> Compiler {
        Compiler::new().with_exploration_budget(16, 8)
    }

    #[test]
    fn compile_design_produces_all_artifacts() {
        let d = DcimDesign::for_precision(Precision::Int8, 16, 16, 8, 4).unwrap();
        let c = fast_compiler().compile_design(&d).unwrap();
        assert!(c.verilog.contains("module dcim_int"));
        assert!(c.def.contains("DIEAREA"));
        assert!(c.audit.is_consistent(1e-9));
        assert!(c.layout.area_mm2() > 0.0);
        assert_eq!(c.design, d);
    }

    #[test]
    fn compile_fp_design() {
        let d = DcimDesign::for_precision(Precision::Bf16, 16, 16, 8, 4).unwrap();
        let c = fast_compiler().compile_design(&d).unwrap();
        assert!(c.verilog.contains("module dcim_fp"));
        assert!(c.verilog.contains("palign"));
        assert!(c
            .layout
            .region(sega_layout::RegionKind::PreAlignment)
            .is_some());
    }

    #[test]
    fn full_pipeline_from_spec() {
        let spec = UserSpec::new(4096, Precision::Int4).unwrap();
        let c = fast_compiler()
            .compile(&spec, DistillStrategy::Knee)
            .unwrap();
        assert_eq!(c.design.wstore(), 4096);
        assert!(!c.frontier.is_empty());
        assert!(c.audit.is_consistent(1e-9));
    }

    #[test]
    fn strategies_reach_different_corners() {
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let compiler = fast_compiler().with_exploration_budget(32, 20);
        let small = compiler.compile(&spec, DistillStrategy::MinArea).unwrap();
        let fast = compiler
            .compile(&spec, DistillStrategy::MaxThroughput)
            .unwrap();
        assert!(small.estimate.area_mm2 <= fast.estimate.area_mm2);
        assert!(fast.estimate.tops >= small.estimate.tops);
    }

    #[test]
    fn builder_overrides_apply() {
        let t22 = Technology::tsmc28().scaled_to_node(22.0);
        let c = Compiler::new()
            .with_technology(t22.clone())
            .with_conditions(OperatingConditions::dense());
        assert_eq!(c.technology().node_nm, 22.0);
        assert_eq!(c.conditions().input_sparsity, 0.0);
    }

    #[test]
    fn invalid_design_is_rejected() {
        // N not divisible by Bw.
        let d = DcimDesign::Int(sega_estimator::IntParams {
            n: 30,
            h: 16,
            l: 8,
            k: 4,
            bw: 8,
            bx: 8,
        });
        assert!(matches!(
            fast_compiler().compile_design(&d),
            Err(CompileError::Param(_))
        ));
    }
}
