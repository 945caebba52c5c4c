//! End-to-end benchmark of the SEGA-DCIM compiler.
//!
//! ```text
//! perfbench --workload <dse-corpus|compile-large|serve-sessions> --seed N
//!           --seconds S --trace <0|1> --sega-dcim PATH
//! ```
//!
//! Every input is generated from `--seed`. Each run measures its
//! workload for about `--seconds` (whole passes over the spec list, and
//! at least a few), checks every output, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1` (whose spans are also written to
//! `.perfbench/trace-<workload>-<seed>.json` as Chrome trace events).
//! `bash perfbench/run.sh ...` builds everything and runs this binary.
//!
//! Neighbours on a shared host slow it by up to 1.7× for seconds or
//! minutes at a time, so every timing is scaled to a reference speed by a
//! probe the benchmark runs just before and just after each op (see
//! `common::Timed`); the unscaled wall times are printed as comment
//! lines. `failed_share` is printed by name and carried by the
//! `attempted` and `failed` fields of the result line.

mod checks;
mod common;
mod compile;
mod dse;
mod harness;
mod quality;
mod replica;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

use harness::{Outcome, Settings};

/// End-to-end metrics (`--trace 0`) with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
    ("front_hv_ratio", "ratio"),
    ("front_recall", "ratio"),
];

/// Per-layer metrics (`--trace 1`) with their units. A layer that does
/// no work on a workload reports 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("moga.select_s", "s"),
    ("moga.breed_s", "s"),
    ("moga.reconcile_s", "s"),
    ("moga.word_ops", "count"),
    ("moga.intern_share", "ratio"),
    ("explore.eval_s", "s"),
    ("explore.materialize_s", "s"),
    ("cache.hit_rate", "ratio"),
    ("cache.distinct", "count"),
    ("estimator.cohort_s", "s"),
    ("estimator.designs", "count"),
    ("estimator.vector_share", "ratio"),
    ("distill.s", "s"),
    ("netlist.generate_s", "s"),
    ("netlist.audit_s", "s"),
    ("netlist.emit_s", "s"),
    ("netlist.emit_mb_per_s", "MB/s"),
    ("netlist.cells", "count"),
    ("layout.floorplan_s", "s"),
    ("layout.drc_s", "s"),
    ("layout.def_s", "s"),
    ("enumerate.exact_front_s", "s"),
    ("wire.report_encode_s", "s"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Most spans written to a trace file.
const TRACE_EVENT_CAP: usize = 100_000;

struct Args {
    workload: String,
    settings: Settings,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sega_dcim = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad(&"expected 0 or 1")),
            },
            "--sega-dcim" => sega_dcim = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        settings: Settings {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
            sega_dcim: sega_dcim.ok_or("missing --sega-dcim")?,
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let settings = &args.settings;
    let mut outcome: Outcome = match args.workload.as_str() {
        "dse-corpus" => dse::run(settings),
        "compile-large" => compile::run(settings),
        "serve-sessions" => serve::run(settings),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let attempted = outcome.ledger.attempted;
    let failed = outcome.ledger.failed.min(attempted);
    if attempted == 0 {
        eprintln!("perfbench: no op was attempted");
        std::process::exit(1);
    }
    let failed_share = failed as f64 / attempted as f64;
    if settings.trace {
        let path = format!(".perfbench/trace-{}-{}.json", args.workload, settings.seed);
        let written = std::fs::create_dir_all(".perfbench").and_then(|()| {
            std::fs::write(&path, trace::chrome_json(&outcome.spans, TRACE_EVENT_CAP))
        });
        match written {
            Ok(()) => outcome.notes.push(format!("trace written to {path}")),
            Err(e) => outcome
                .notes
                .push(format!("trace not written to {path}: {e}")),
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("# {attempted} ops attempted, {failed} failed");
    println!("# failed_share = {failed_share} ratio");
    let table: &[(&str, &str)] = if settings.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let mut value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            println!("# {name} is not finite; reported as 0");
            value = 0.0;
        }
        println!("# {name} = {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        failed == 0 && attempted > 0,
        attempted,
        failed
    );
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The metric tables agree with the committed benchmark definition
    /// and the layer map, so a renamed metric cannot drift from either.
    #[test]
    fn metric_tables_match_benchmark_json_and_layer_map() {
        let benchmark = include_str!("../../BENCHMARK.json");
        let layer_map = include_str!("../layer_map.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(benchmark.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _) in &PER_LAYER {
            assert!(
                layer_map.contains(&format!("\"{name}\"")),
                "layer map lacks {name}"
            );
        }
        let listed = benchmark.matches("{\"name\": ").count();
        assert_eq!(listed, 3 + END_TO_END.len() + PER_LAYER.len());
    }
}
