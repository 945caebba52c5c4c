//! # sega-dcim — design space exploration-guided automatic digital CIM compiler
//!
//! A faithful open-source reproduction of **SEGA-DCIM** (DATE 2025): an
//! automatic compiler for digital computing-in-memory (DCIM) macros with
//! multiple precision support (INT2–INT16, FP8, FP16, BF16, FP32).
//!
//! Given a [`UserSpec`] — the number of stored weights and the computing
//! precision — the compiler:
//!
//! 1. **explores** the design space `(N, H, L, k)` with an NSGA-II
//!    multi-objective genetic algorithm over `[area, delay, energy,
//!    −throughput]` under the capacity constraint `N·H·L/Bw = Wstore`
//!    ([`explore`]),
//! 2. **distills** the Pareto frontier to the user's preference
//!    ([`distill`]),
//! 3. **generates** the selected design: a structural Verilog netlist
//!    (template-based, via [`sega_netlist`]), a floorplanned layout with
//!    DRC checks (via [`sega_layout`]), and a gate-count audit proving the
//!    generated hardware matches the estimate the explorer optimized
//!    ([`compiler`]).
//!
//! The bit-accurate functional behaviour of the generated macros is
//! verified by [`sega_sim`].
//!
//! # The evaluation pipeline
//!
//! Exploration runs through a **batch-first, memoized, data-parallel
//! pipeline**: NSGA-II breeds each generation completely before
//! evaluating it, and [`explore::DcimProblem`] dedups the cohort, serves
//! repeats from a sharded [`SharedEvalCache`] key space (reusable across
//! explorations, sweep points and compiler runs — keyed by technology,
//! conditions, precision and capacity), and fans the remaining misses
//! out as one cohort to the bound [`EvalBackend`] (the in-process macro
//! model by default), which evaluates them on a persistent
//! `sega_parallel::Pool` whose workers are spawned once per process. The
//! [`PipelineOptions`] knobs — thread count, cache switch, pool,
//! shared-cache and backend handles — change wall-clock only: the
//! frontier is bit-identical for every configuration, and
//! [`ExplorationResult`] reports the accounting (`evaluations` vs
//! `distinct_evaluations` vs `cache_hits`).
//!
//! The cache persists and merges across processes
//! ([`SharedEvalCache::snapshot`]/[`load`](SharedEvalCache::load)/
//! [`merge`](SharedEvalCache::merge), via the dependency-free `sega_wire`
//! codecs), and the [`batch`] module runs whole job files of
//! specifications over one pool and one cache — the `sega-dcim batch`
//! subcommand with `--cache-file` warm-starts an identical rerun to zero
//! distinct evaluations.
//!
//! # Quickstart
//!
//! ```
//! use sega_dcim::{Compiler, DistillStrategy, UserSpec};
//! use sega_estimator::Precision;
//!
//! // 8K-weight INT8 macro (the paper's Fig. 6(a) scenario).
//! let spec = UserSpec::new(8192, Precision::Int8)?;
//! let compiler = Compiler::new().with_exploration_budget(24, 12);
//! let compiled = compiler.compile(&spec, DistillStrategy::Knee)?;
//! assert!(compiled.audit.is_consistent(1e-9));
//! println!("{}", compiled.estimate);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod cache;
pub mod checkpoint;
pub mod compiler;
pub mod distill;
pub mod enumerate;
pub mod explore;
pub mod mixed;
pub mod report;
pub mod runtime;
pub mod serve;
mod spec;
pub mod store;
pub mod testbench;

pub use backend::{
    CohortEvaluator, EvalBackend, GeometryLens, InstrumentedBackend, MacroModelBackend,
};
pub use batch::{
    run_batch, run_batch_with, BatchControl, BatchJob, BatchOutcome, BatchReport, JobError,
};
pub use cache::{CacheKey, EvalStats, SharedEvalCache};
pub use checkpoint::CheckpointConfig;
pub use compiler::{CompileError, CompiledMacro, Compiler};
pub use distill::DistillStrategy;
pub use enumerate::{enumerate_design_space, enumerate_design_space_with, exhaustive_front};
pub use explore::{
    explore_pareto, explore_pareto_with, ExplorationResult, ParetoSolution, PipelineOptions,
};
pub use mixed::{explore_mixed, explore_mixed_with, MixedExploration};
pub use serve::{drain_flag, run_batch_connected, serve, ListenAddr, ServeOptions, ServeReport};
pub use spec::{ExplorerLimits, SpecError, UserSpec};
pub use store::{CacheStore, StoreStats};
pub use testbench::{generate_int_testbench, Testbench};

// Re-export the workspace layers under one roof for downstream users.
pub use sega_cells as cells;
pub use sega_estimator as estimator;
pub use sega_layout as layout;
pub use sega_moga as moga;
pub use sega_netlist as netlist;
pub use sega_sim as sim;
