//! `compile-large`: one closed-loop caller runs `Compiler::compile` with
//! knee distillation on the 8 precisions at `Wstore` = 1M, one compile
//! per op, each on a fresh compiler (cold estimate cache).
//!
//! Every compile uses the default GA configuration, as `sega-dcim
//! compile` does without `--seed`, so each precision distills to the
//! same macro under every workload seed: a seed-drawn GA seed would pick
//! a different knee design, and with it a netlist up to 10% larger, which
//! would make the netlist cost depend on the seed rather than on the
//! compiler. The workload seed orders the compiles within each pass.

use std::sync::Arc;
use std::time::Instant;

use sega_dcim::estimator::Precision;
use sega_dcim::explore::PipelineOptions;
use sega_dcim::moga::Nsga2Config;
use sega_dcim::{CompiledMacro, Compiler, DistillStrategy, UserSpec};
use sega_parallel::{resolve_threads, Pool};

use crate::checks::{
    check_audit, check_front, check_layout, check_verilog, front_bits, same_as_before, Digest,
};
use crate::common::{corpus, peak_rss_mb, Rng, Timed, MEMORY_PROBE};
use crate::dse::{record_explore_layers, Counters};
use crate::harness::{
    record_latency, record_setup, references, setting, Outcome, Quality, Settings, SETUP_REPS,
};
use crate::replica;
use crate::trace::{self, span, Totals};

const WSTORE: u64 = 1 << 20;
/// Fewest passes of an untraced run: 48 compiles, so the tail is p75 with
/// 12 ops beyond it, and a pass slowed by the host weighs a sixth.
const MIN_PASSES: usize = 6;

/// One op: a fresh compiler's `compile` of `spec`.
fn compile_op(
    spec: &UserSpec,
    config: &Nsga2Config,
    pool: &Arc<Pool>,
) -> Result<CompiledMacro, String> {
    Compiler::new()
        .with_nsga_config(config.clone())
        .with_pipeline(PipelineOptions::default().on_pool(Arc::clone(pool)))
        .compile(spec, DistillStrategy::Knee)
        .map_err(|e| e.to_string())
}

/// What pass-to-pass and replica comparisons look at.
#[derive(Debug, Clone, PartialEq)]
struct Outputs {
    front: Vec<[u64; 4]>,
    verilog: Digest,
    def: Digest,
}

/// Checks one compile's outputs (the netlist is already dropped).
fn check_outputs(
    spec: &UserSpec,
    front: &[sega_dcim::explore::ParetoSolution],
    audit: &sega_dcim::netlist::stats::Audit,
    layout: &sega_dcim::layout::MacroLayout,
    verilog: &str,
) -> Result<(), String> {
    let (tech, conditions) = setting();
    check_front(spec, front, &tech, &conditions)?;
    check_audit(audit)?;
    check_layout(layout)?;
    check_verilog(verilog)
}

/// The 1M-weight specs with the default GA configuration, and a fresh
/// pool, warmed by one small compile.
fn set_up() -> (Vec<(UserSpec, Nsga2Config)>, Arc<Pool>) {
    let jobs: Vec<(UserSpec, Nsga2Config)> = corpus()
        .into_iter()
        .filter(|s| s.wstore == WSTORE)
        .map(|spec| (spec, Nsga2Config::default()))
        .collect();
    let pool = Arc::new(Pool::new(resolve_threads(0)));
    let warm = UserSpec::new(4096, Precision::Int2).expect("valid warm-up spec");
    compile_op(&warm, &jobs[0].1, &pool).expect("warm-up compile succeeds");
    (jobs, pool)
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (jobs_and_pool, timing) = Timed::measure(MEMORY_PROBE, set_up);
        prepared = Some(jobs_and_pool);
        setups.push(timing);
    }
    let (jobs, pool) = prepared.expect("at least one set-up");
    let specs: Vec<UserSpec> = jobs.iter().map(|j| j.0).collect();
    let (refs, exact_front_s) = references(&specs);

    if settings.trace {
        trace::start(Instant::now(), 1);
    }
    let mut ops = Vec::new();
    let mut window = 0.0;
    let mut traced_wall = 0.0;
    let mut untraced_wall = 0.0;
    let mut counters = Counters::default();
    let mut cells = 0u64;
    let mut emitted_bytes = 0usize;
    let mut first: Vec<Option<Outputs>> = vec![None; jobs.len()];
    let mut quality = Quality::default();
    let mut artifact_bytes = 0usize;
    let mut passes = 0usize;
    let mut op = 0u64;
    let min_passes = if settings.trace { 2 } else { MIN_PASSES };
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let mut rng = Rng::new(settings.seed, 2);
    while passes < min_passes || window + traced_wall < settings.seconds {
        rng.shuffle(&mut order);
        for &i in &order {
            let (spec, config) = &jobs[i];
            op += 1;
            let traced_op = || {
                trace::set_op(op);
                let t0 = Instant::now();
                let compiled = span("op", || replica::compile(spec, config, &pool));
                let wall = t0.elapsed().as_secs_f64();
                compiled.map(|c| {
                    let replica::Compiled {
                        explored,
                        netlist,
                        audit,
                        verilog,
                        def,
                        ..
                    } = c;
                    drop(netlist);
                    (explored, audit, verilog, def, wall)
                })
            };
            // Every other op runs its replica first, so neither side
            // always runs on warmer caches.
            let replica_first = settings.trace && op.is_multiple_of(2);
            let mut traced = replica_first.then(&traced_op);

            let (compiled, timing) =
                Timed::measure(MEMORY_PROBE, || compile_op(spec, config, &pool));
            let dt = timing.wall_s;
            let verdict = compiled.and_then(|c| {
                let CompiledMacro {
                    netlist,
                    frontier,
                    audit,
                    layout,
                    verilog,
                    def,
                    ..
                } = c;
                drop(netlist);
                if passes == 0 {
                    artifact_bytes += verilog.len() + def.len();
                }
                quality.add(&refs, i, &frontier);
                check_outputs(spec, &frontier, &audit, &layout, &verilog)?;
                let outputs = Outputs {
                    front: front_bits(&frontier),
                    verilog: Digest::of(verilog.as_bytes()),
                    def: Digest::of(def.as_bytes()),
                };
                same_as_before(
                    "front and Verilog/DEF bytes",
                    &mut first[i],
                    outputs.clone(),
                )?;
                if settings.trace {
                    drop(verilog);
                    let (explored, r_audit, r_verilog, r_def, wall) = match traced.take() {
                        Some(t) => t,
                        None => traced_op(),
                    }?;
                    traced_wall += wall;
                    untraced_wall += dt;
                    counters.add(&explored);
                    cells += r_audit.counts.values().sum::<u64>();
                    emitted_bytes += r_verilog.len();
                    let replica = Outputs {
                        front: front_bits(&explored.solutions),
                        verilog: Digest::of(r_verilog.as_bytes()),
                        def: Digest::of(r_def.as_bytes()),
                    };
                    if replica != outputs {
                        return Err(format!(
                            "replica of {} differs from the library's compile",
                            crate::checks::label(spec)
                        ));
                    }
                }
                Ok(())
            });
            window += dt;
            ops.push(timing);
            out.ledger.record(verdict);
        }
        passes += 1;
    }

    if settings.trace {
        let spans = trace::finish();
        let totals = Totals::of(&spans);
        record_explore_layers(&mut out, &totals, "op", &counters);
        for (metric, span_name) in [
            ("distill.s", "distill"),
            ("netlist.generate_s", "netlist.generate"),
            ("netlist.audit_s", "netlist.audit"),
            ("netlist.emit_s", "netlist.emit"),
            ("layout.floorplan_s", "layout.floorplan"),
            ("layout.drc_s", "layout.drc"),
            ("layout.def_s", "layout.def"),
        ] {
            out.set(metric, totals.per_root(span_name, "op"));
        }
        let emit_s = totals.self_s.get("netlist.emit").copied().unwrap_or(0.0);
        if emit_s > 0.0 {
            out.set("netlist.emit_mb_per_s", emitted_bytes as f64 / 1e6 / emit_s);
        }
        out.set("netlist.cells", cells as f64 / op as f64);
        out.set("enumerate.exact_front_s", exact_front_s);
        out.set("trace.coverage", totals.coverage("op"));
        out.set("trace.overhead", traced_wall / untraced_wall - 1.0);
        out.spans = spans;
    } else {
        record_setup(&mut out, &setups);
        record_latency(&mut out, &ops, 1);
        match peak_rss_mb("self") {
            Ok(mb) => out.set("peak_rss_mb", mb),
            Err(e) => out.ledger.fail_counted(e),
        }
        out.set("artifact_mb", artifact_bytes as f64 / 1e6);
        out.set("front_hv_ratio", quality.hv_ratio());
        out.set("front_recall", quality.recall());
    }
    out.notes
        .push(format!("{passes} passes over {} compiles", jobs.len()));
    out
}
