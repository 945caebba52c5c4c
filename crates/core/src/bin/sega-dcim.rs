//! The `sega-dcim` command-line compiler.
//!
//! ```text
//! sega-dcim compile --wstore 8192 --precision int8 [--strategy knee]
//!                   [--population 100] [--generations 120] [--seed N]
//!                   [--threads N] [--no-cache] [--out DIR]
//! sega-dcim explore --wstore 8192 --precision bf16 [--threads N] [--no-cache] [--csv | --json]
//! sega-dcim estimate --n 32 --h 128 --l 16 --k 4 --precision int8 [--json]
//! sega-dcim batch   --jobs FILE [--report FILE]
//!                   [--population N] [--generations N] [--seed N]
//!                   [--threads N] [--backend macro|instrumented]
//!                   [--checkpoint FILE | --resume FILE] [--stop-after-jobs N]
//! sega-dcim batch   --jobs FILE --connect ADDR [--drain] [--report FILE]
//! sega-dcim serve   --listen ADDR [--threads N]
//!                   [--hello-deadline-ms N] [--idle-timeout-ms N]
//!                   [--grace-ms N] [--log]
//! ```
//!
//! An exploration runs on one thread. `--threads` (`0` = all hardware
//! threads, the default; `1` = serial) bounds only the fan-outs over
//! whole explorations or points — mixed-precision runs and design-space
//! enumeration — so no command here runs faster for it today; `batch`
//! will use it to run jobs in parallel. `--no-cache` disables estimate
//! memoization (for pipeline A/B timing). The frontier is bit-identical
//! for every combination.
//!
//! `compile` runs the full pipeline and writes `macro.v`, `macro.def` and
//! `report.md` into `--out` (default `./sega-out`); `explore` prints the
//! Pareto frontier; `estimate` prints the cost model for one design point
//! (both machine-readable with `--json`).
//!
//! `batch` is the service-shaped entry point: it reads a JSON job file of
//! many specifications, runs them one after another over one shared
//! eval cache, and emits a wire-codec results report. The cache lives
//! for one run: every `batch` starts cold, so an identical rerun writes
//! a byte-identical report. `--backend instrumented` runs the same macro
//! model and also counts the cohorts and geometries it evaluated.
//!
//! `--checkpoint F` journals each completed batch job (and its cache
//! delta) to `F`; after a crash or an early stop, `--resume F` skips the
//! finished jobs, warm-starts the cache from the journal, and produces a
//! report **byte-identical** to an uninterrupted run. `--stop-after-jobs
//! N` stops after N executed jobs — the deterministic stand-in for
//! `kill -9` in the CI resume arm. The journal is job-granular: a job
//! interrupted mid-exploration reruns from its start on resume.
//!
//! `serve` runs the long-lived daemon: it listens on `--listen
//! unix:/path.sock` or `tcp:host:port`, accepts framed batch jobs from
//! many concurrent clients, and multiplexes them onto one shared eval
//! cache that lives as long as the daemon, so a repeat batch from a
//! second client answers with **0 distinct evaluations**. `batch
//! --connect ADDR` is the matching client (`--drain` asks the daemon to
//! exit after the batch); SIGTERM or a client's `--drain` triggers the
//! graceful drain: stop accepting, finish in-flight jobs under
//! `--grace-ms`, exit.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use sega_dcim::batch::{check_budget, parse_jobs, run_batch_with, MIN_POPULATION};
use sega_dcim::report::{csv_table, markdown_table};
use sega_dcim::{
    Compiler, DistillStrategy, ExplorationResult, InstrumentedBackend, JobError, PipelineOptions,
    UserSpec,
};
use sega_estimator::{estimate, DcimDesign, MacroEstimate, OperatingConditions, Precision};
use sega_layout::export::to_ascii;
use sega_moga::Nsga2Config;
use sega_wire::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  sega-dcim compile  --wstore N --precision P [--strategy knee|min-area|max-throughput|max-efficiency]
                     [--population N] [--generations N] [--seed N] [--threads N] [--no-cache] [--out DIR]
  sega-dcim explore  --wstore N --precision P [--threads N] [--no-cache] [--csv | --json]
  sega-dcim estimate --n N --h H --l L --k K --precision P [--json]
  sega-dcim batch    --jobs FILE [--report FILE]
                     [--population N] [--generations N] [--seed N]
                     [--threads N] [--backend macro|instrumented]
                     [--checkpoint FILE | --resume FILE] [--stop-after-jobs N]
  sega-dcim batch    --jobs FILE --connect ADDR [--drain] [--report FILE]
                     [--population N] [--generations N] [--seed N]
  sega-dcim serve    --listen ADDR [--threads N]
                     [--hello-deadline-ms N] [--idle-timeout-ms N] [--grace-ms N] [--log]
precisions:   int2 int4 int8 int16 fp8 fp16 bf16 fp32
--threads:    width of mixed-precision and enumeration fan-outs (0 = all
              hardware threads, 1 = serial; an exploration runs on one
              thread; batch requires >= 1, or omit the flag)
--no-cache:   disable estimate memoization (results are identical, only slower)
--json:       emit the wire-codec JSON document instead of a table
--jobs:       JSON job file: {\"jobs\":[{\"wstore\":8192,\"precision\":\"int8\",
              \"population\":..,\"generations\":..,\"seed\":..}, ...]}
--report:     write the batch results JSON here (default: stdout)
--backend:    estimator backend (default macro; instrumented = macro + counters)
--checkpoint: journal completed jobs (and cache deltas) to FILE as they finish
--resume:     skip the jobs FILE already records and warm-start from its deltas;
              the finished report is byte-identical to an uninterrupted run
--stop-after-jobs: stop after N executed jobs (requires --checkpoint or
              --resume; the report is withheld — resume to finish the batch)
--connect:    run the jobs on a `sega-dcim serve` daemon at ADDR
              (unix:/path.sock or tcp:host:port) instead of in-process
--drain:      after the last job, ask the connected daemon to drain and exit
              (requires --connect)
--listen:     the daemon's accept address (unix:/path.sock or tcp:host:port;
              tcp:host:0 picks a free port and logs it with --log)
--hello-deadline-ms / --idle-timeout-ms / --grace-ms:
              daemon connection-lifecycle knobs — how long a fresh connection
              may take to say hello, how long a quiet one is kept, and how
              long a drain waits for in-flight work
--log:        serve: log each connection's lifecycle on stderr";

type Command = fn(&HashMap<String, String>) -> Result<(), String>;

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?;
    let flags = parse_flags(&args[1..])?;
    let (handler, accepted): (Command, &str) = match command.as_str() {
        "compile" => (
            compile,
            "wstore precision population generations seed threads no-cache strategy out",
        ),
        "explore" => (
            explore,
            "wstore precision population generations seed threads no-cache csv json",
        ),
        "estimate" => (estimate_cmd, "n h l k precision json"),
        "batch" => (
            batch,
            "jobs report population generations seed threads backend \
             checkpoint resume stop-after-jobs connect drain",
        ),
        "serve" => (
            serve_cmd,
            "listen threads hello-deadline-ms idle-timeout-ms grace-ms log",
        ),
        other => return Err(format!("unknown command `{other}`")),
    };
    // A flag the command never reads would be a silent no-op: refuse it.
    let known = |flag: &&String| accepted.split_whitespace().any(|a| a == flag.as_str());
    if let Some(flag) = flags.keys().filter(|f| !known(f)).min() {
        return Err(format!("`{command}` does not take --{flag}"));
    }
    handler(&flags)
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected `--flag`, got `{arg}`"))?;
        // Boolean flags take no value.
        if key == "csv" || key == "no-cache" || key == "json" || key == "log" || key == "drain" {
            flags.insert(key.to_owned(), "true".to_owned());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag `--{key}` needs a value"))?;
        flags.insert(key.to_owned(), value.clone());
    }
    Ok(flags)
}

fn get_u64(flags: &HashMap<String, String>, key: &str) -> Result<u64, String> {
    flags
        .get(key)
        .ok_or_else(|| format!("missing --{key}"))?
        .parse()
        .map_err(|e| format!("--{key}: {e}"))
}

fn get_u32_opt(flags: &HashMap<String, String>, key: &str) -> Result<Option<u32>, String> {
    flags
        .get(key)
        .map(|v| v.parse().map_err(|e| format!("--{key}: {e}")))
        .transpose()
}

fn get_precision(flags: &HashMap<String, String>) -> Result<Precision, String> {
    let raw = flags.get("precision").ok_or("missing --precision")?;
    Precision::from_name(raw).ok_or_else(|| format!("unknown precision `{raw}`"))
}

fn get_strategy(flags: &HashMap<String, String>) -> Result<DistillStrategy, String> {
    Ok(match flags.get("strategy").map(String::as_str) {
        None | Some("knee") => DistillStrategy::Knee,
        Some("min-area") => DistillStrategy::MinArea,
        Some("max-throughput") => DistillStrategy::MaxThroughput,
        Some("max-efficiency") => DistillStrategy::MaxEfficiency,
        Some(other) => return Err(format!("unknown strategy `{other}`")),
    })
}

fn compiler_from(flags: &HashMap<String, String>) -> Result<Compiler, String> {
    let mut cfg = Nsga2Config::default();
    if let Some(p) = get_u32_opt(flags, "population")? {
        cfg.population = p as usize;
    }
    if let Some(g) = get_u32_opt(flags, "generations")? {
        cfg.generations = g as usize;
    }
    check_budget(0, cfg.population, cfg.generations).map_err(|e| match e {
        JobError::TooLarge { field, max, .. } => format!("--{field} must be <= {max}"),
        _ => format!("--population must be >= {MIN_POPULATION}"),
    })?;
    if let Some(s) = flags.get("seed") {
        cfg.seed = s.parse().map_err(|e| format!("--seed: {e}"))?;
    }
    let mut compiler = Compiler::new().with_nsga_config(cfg);
    let mut pipeline = sega_dcim::PipelineOptions::default();
    if let Some(t) = flags.get("threads") {
        pipeline.threads = t.parse().map_err(|e| format!("--threads: {e}"))?;
    }
    if flags.contains_key("no-cache") {
        pipeline.cache = false;
    }
    compiler = compiler.with_pipeline(pipeline);
    Ok(compiler)
}

fn compile(flags: &HashMap<String, String>) -> Result<(), String> {
    let spec = UserSpec::new(get_u64(flags, "wstore")?, get_precision(flags)?)
        .map_err(|e| e.to_string())?;
    let strategy = get_strategy(flags)?;
    let compiler = compiler_from(flags)?;
    println!("compiling {spec} (strategy {strategy:?}) …");
    let compiled = compiler
        .compile(&spec, strategy)
        .map_err(|e| e.to_string())?;

    let out: PathBuf = flags
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("sega-out"));
    fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    fs::write(out.join("macro.v"), &compiled.verilog).map_err(|e| e.to_string())?;
    fs::write(out.join("macro.def"), &compiled.def).map_err(|e| e.to_string())?;

    let mut report = String::new();
    report.push_str("# SEGA-DCIM compile report\n\n");
    report.push_str(&format!("* specification: {spec}\n"));
    report.push_str(&format!("* selected design: {}\n", compiled.design));
    report.push_str(&format!("* estimate: {}\n", compiled.estimate));
    report.push_str(&format!(
        "* audit: area err {:.2e}, energy err {:.2e}\n\n",
        compiled.audit.area_error(),
        compiled.audit.energy_error()
    ));
    report.push_str("## Pareto frontier\n\n");
    let rows: Vec<Vec<String>> = compiled
        .frontier
        .iter()
        .map(|s| {
            vec![
                s.design.to_string(),
                format!("{:.4}", s.estimate.area_mm2),
                format!("{:.3}", s.estimate.delay_ns),
                format!("{:.4}", s.estimate.energy_per_pass_nj),
                format!("{:.3}", s.estimate.tops),
            ]
        })
        .collect();
    report.push_str(&markdown_table(
        &["design", "area (mm²)", "delay (ns)", "energy (nJ)", "TOPS"],
        &rows,
    ));
    fs::write(out.join("report.md"), &report).map_err(|e| e.to_string())?;

    println!("selected: {}", compiled.design);
    println!("estimate: {}", compiled.estimate);
    println!();
    println!("{}", to_ascii(&compiled.layout, 56));
    println!("wrote {}/macro.v, macro.def, report.md", out.display());
    Ok(())
}

/// The wire-codec document of one exploration: spec, accounting, and the
/// front through the same per-solution schema as the batch report
/// ([`sega_dcim::batch::solution_json`] — readable metrics plus exact
/// objective bit patterns).
fn exploration_json(result: &ExplorationResult) -> Json {
    Json::obj([
        ("report", Json::from("sega-dcim-explore")),
        ("version", Json::from(sega_wire::FORMAT_VERSION)),
        ("wstore", Json::from(result.spec.wstore)),
        ("precision", Json::from(result.spec.precision.name())),
        ("evaluations", Json::from(result.evaluations)),
        (
            "distinct_evaluations",
            Json::from(result.distinct_evaluations),
        ),
        ("cache_hits", Json::from(result.cache_hits)),
        (
            "front",
            Json::Arr(
                result
                    .solutions
                    .iter()
                    .map(sega_dcim::batch::solution_json)
                    .collect(),
            ),
        ),
    ])
}

fn explore(flags: &HashMap<String, String>) -> Result<(), String> {
    let spec = UserSpec::new(get_u64(flags, "wstore")?, get_precision(flags)?)
        .map_err(|e| e.to_string())?;
    let compiler = compiler_from(flags)?;
    let result = compiler.explore(&spec);
    if flags.contains_key("json") {
        println!("{}", exploration_json(&result));
        return Ok(());
    }
    let rows: Vec<Vec<String>> = result
        .solutions
        .iter()
        .map(|s| {
            vec![
                s.design.to_string(),
                format!("{:.4}", s.estimate.area_mm2),
                format!("{:.3}", s.estimate.delay_ns),
                format!("{:.4}", s.estimate.energy_per_pass_nj),
                format!("{:.3}", s.estimate.tops),
                format!("{:.1}", s.estimate.tops_per_w()),
            ]
        })
        .collect();
    let header = [
        "design",
        "area_mm2",
        "delay_ns",
        "energy_nj",
        "tops",
        "tops_per_w",
    ];
    if flags.contains_key("csv") {
        print!("{}", csv_table(&header, &rows));
    } else {
        println!(
            "{} Pareto designs for {spec} ({} evaluations, {} distinct estimates, {} cache hits):\n",
            result.solutions.len(),
            result.evaluations,
            result.distinct_evaluations,
            result.cache_hits
        );
        print!("{}", markdown_table(&header, &rows));
    }
    Ok(())
}

fn estimate_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let n = get_u32_opt(flags, "n")?.ok_or("missing --n")?;
    let h = get_u32_opt(flags, "h")?.ok_or("missing --h")?;
    let l = get_u32_opt(flags, "l")?.ok_or("missing --l")?;
    let k = get_u32_opt(flags, "k")?.ok_or("missing --k")?;
    let precision = get_precision(flags)?;
    let design = DcimDesign::for_precision(precision, n, h, l, k).map_err(|e| e.to_string())?;
    let est = estimate(
        &design,
        &sega_cells::Technology::tsmc28(),
        &OperatingConditions::paper_default(),
    );
    if flags.contains_key("json") {
        println!("{}", estimate_json(&design, &est));
        return Ok(());
    }
    println!("design   : {design}");
    println!("wstore   : {}", design.wstore());
    println!("estimate : {est}");
    println!("breakdown (NOR-gate area units):");
    for (name, cost) in est.breakdown.iter() {
        if cost.area > 0.0 {
            println!(
                "  {name:>18}: {:>12.0}  ({:4.1}%)",
                cost.area,
                100.0 * cost.area / est.unit.area
            );
        }
    }
    Ok(())
}

/// The wire-codec document of one design-point estimate.
fn estimate_json(design: &DcimDesign, est: &MacroEstimate) -> Json {
    let (n, h, l, k) = design.geometry();
    Json::obj([
        ("report", Json::from("sega-dcim-estimate")),
        ("version", Json::from(sega_wire::FORMAT_VERSION)),
        ("design", Json::from(design.to_string())),
        (
            "geometry",
            Json::obj([
                ("n", Json::from(n)),
                ("h", Json::from(h)),
                ("l", Json::from(l)),
                ("k", Json::from(k)),
            ]),
        ),
        ("wstore", Json::from(design.wstore())),
        ("area_mm2", Json::from(est.area_mm2)),
        ("delay_ns", Json::from(est.delay_ns)),
        ("energy_per_cycle_nj", Json::from(est.energy_per_cycle_nj)),
        ("energy_per_pass_nj", Json::from(est.energy_per_pass_nj)),
        ("cycles_per_pass", Json::from(est.cycles_per_pass)),
        ("macs_per_pass", Json::from(est.macs_per_pass)),
        ("tops", Json::from(est.tops)),
        ("tops_per_w", Json::from(est.tops_per_w())),
        ("freq_ghz", Json::from(est.freq_ghz())),
        (
            "breakdown",
            Json::Obj(
                est.breakdown
                    .iter()
                    .map(|(name, cost)| {
                        (
                            name.to_owned(),
                            Json::obj([
                                ("area", Json::from(cost.area)),
                                ("delay", Json::from(cost.delay)),
                                ("energy", Json::from(cost.energy)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses a batch flag that must be a **positive** count: the batch
/// runner rejects `0` (and non-numbers) up front with a clear message
/// instead of running with a meaningless width.
fn get_positive(
    flags: &HashMap<String, String>,
    key: &str,
    hint: &str,
) -> Result<Option<usize>, String> {
    match flags.get(key) {
        None => Ok(None),
        Some(raw) => {
            let value: usize = raw
                .parse()
                .map_err(|e| format!("--{key}: {e} (got `{raw}`)"))?;
            if value == 0 {
                return Err(format!("--{key} must be >= 1 ({hint})"));
            }
            Ok(Some(value))
        }
    }
}

/// Runs the batch against a `sega-dcim serve` daemon instead of
/// in-process: the daemon owns the backend, cache and checkpointing, so
/// every local-execution flag is rejected up front rather than silently
/// ignored.
fn batch_connected(flags: &HashMap<String, String>, raw_addr: &str) -> Result<(), String> {
    let addr = sega_dcim::ListenAddr::parse(raw_addr)?;
    for flag in [
        "backend",
        "threads",
        "checkpoint",
        "resume",
        "stop-after-jobs",
    ] {
        if flags.contains_key(flag) {
            return Err(format!(
                "--{flag} does not apply with --connect (the daemon owns the \
                 backend, cache and checkpointing)"
            ));
        }
    }
    let jobs_path = flags.get("jobs").ok_or("missing --jobs")?;
    let jobs_text = fs::read_to_string(jobs_path)
        .map_err(|e| format!("cannot read job file `{jobs_path}`: {e}"))?;
    let mut defaults = Nsga2Config::default();
    if let Some(p) = get_u32_opt(flags, "population")? {
        defaults.population = p as usize;
    }
    if let Some(g) = get_u32_opt(flags, "generations")? {
        defaults.generations = g as usize;
    }
    if let Some(s) = flags.get("seed") {
        defaults.seed = s.parse().map_err(|e| format!("--seed: {e}"))?;
    }
    let jobs = parse_jobs(&jobs_text, &defaults).map_err(|e| e.to_string())?;
    let report = sega_dcim::run_batch_connected(&addr, &jobs, flags.contains_key("drain"))?;
    let document = report.to_json().to_string();
    match flags.get("report") {
        Some(path) => {
            fs::write(Path::new(path), document + "\n")
                .map_err(|e| format!("cannot write report `{path}`: {e}"))?;
            eprintln!("wrote batch report to {path}");
        }
        None => println!("{document}"),
    }
    eprintln!(
        "{} jobs on daemon {addr}: {} evaluations, {} distinct estimates, {} cache hits",
        report.outcomes.len(),
        report.evaluations,
        report.distinct_evaluations,
        report.cache_hits
    );
    Ok(())
}

fn batch(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(raw_addr) = flags.get("connect") {
        return batch_connected(flags, raw_addr);
    }
    if flags.contains_key("drain") {
        return Err("--drain requires --connect (only a daemon can be drained)".to_owned());
    }
    // Validate every scheduling knob before any file is read, so a typo
    // fails in microseconds with a precise message.
    let threads = get_positive(
        flags,
        "threads",
        "omit the flag to use all hardware threads",
    )?;
    let backend_name = flags.get("backend").map(String::as_str).unwrap_or("macro");
    if !matches!(backend_name, "macro" | "instrumented") {
        return Err(format!(
            "unknown backend `{backend_name}` (expected macro or instrumented)"
        ));
    }
    // Checkpoint plumbing: --checkpoint starts a fresh journal, --resume
    // continues one; they cannot both apply to one run.
    if flags.contains_key("checkpoint") && flags.contains_key("resume") {
        return Err("--checkpoint and --resume are mutually exclusive \
                    (--resume keeps appending to the journal it resumes from)"
            .to_owned());
    }
    let checkpoint = match (flags.get("checkpoint"), flags.get("resume")) {
        (Some(path), None) => {
            // Fail (or mkdir) now, not after the first job has already
            // burned minutes of exploration: Journal::create would only
            // discover a missing directory when it opens the file.
            if let Some(parent) = Path::new(path).parent() {
                if !parent.as_os_str().is_empty() && !parent.exists() {
                    fs::create_dir_all(parent).map_err(|e| {
                        format!(
                            "cannot create checkpoint directory `{}`: {e}",
                            parent.display()
                        )
                    })?;
                }
            }
            Some(sega_dcim::CheckpointConfig::fresh(path))
        }
        (None, Some(path)) => Some(sega_dcim::CheckpointConfig::resume(path)),
        _ => None,
    };
    let stop_after_jobs = get_positive(
        flags,
        "stop-after-jobs",
        "stopping before the first job would journal nothing",
    )?;
    if stop_after_jobs.is_some() && checkpoint.is_none() {
        return Err(
            "--stop-after-jobs requires --checkpoint or --resume (an early stop \
             without a journal just loses work)"
                .to_owned(),
        );
    }
    let jobs_path = flags.get("jobs").ok_or("missing --jobs")?;
    let jobs_text = fs::read_to_string(jobs_path)
        .map_err(|e| format!("cannot read job file `{jobs_path}`: {e}"))?;
    let mut defaults = Nsga2Config::default();
    if let Some(p) = get_u32_opt(flags, "population")? {
        defaults.population = p as usize;
    }
    if let Some(g) = get_u32_opt(flags, "generations")? {
        defaults.generations = g as usize;
    }
    if let Some(s) = flags.get("seed") {
        defaults.seed = s.parse().map_err(|e| format!("--seed: {e}"))?;
    }
    let jobs = parse_jobs(&jobs_text, &defaults).map_err(|e| e.to_string())?;

    // `run_batch_with` gives the whole batch one fresh shared cache.
    let mut pipeline = PipelineOptions::default();
    if let Some(t) = threads {
        pipeline.threads = t;
    }
    let mut instrumented: Option<Arc<InstrumentedBackend>> = None;
    if backend_name == "instrumented" {
        let backend = Arc::new(InstrumentedBackend::macro_model());
        pipeline.backend = Some(Arc::clone(&backend) as _);
        instrumented = Some(backend);
    }

    let control = sega_dcim::BatchControl {
        checkpoint,
        stop_after_jobs,
    };
    let report = run_batch_with(
        &jobs,
        &sega_cells::Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        pipeline,
        &control,
    )?;

    if report.complete {
        let document = report.to_json().to_string();
        match flags.get("report") {
            Some(path) => {
                fs::write(Path::new(path), document + "\n")
                    .map_err(|e| format!("cannot write report `{path}`: {e}"))?;
                eprintln!("wrote batch report to {path}");
            }
            None => println!("{document}"),
        }
    } else {
        // A stopped run's report would cover only a prefix — withhold it
        // so nothing downstream mistakes it for the batch's results.
        eprintln!(
            "stopped after {} executed job(s) ({} of {} journaled); \
             resume with --resume to finish the batch",
            report.outcomes.len() - report.resumed_jobs,
            report.outcomes.len(),
            jobs.len()
        );
    }

    let mut summary = format!(
        "{} jobs: {} evaluations, {} distinct estimates, {} cache hits\n",
        report.outcomes.len(),
        report.evaluations,
        report.distinct_evaluations,
        report.cache_hits
    );
    if let Some(backend) = instrumented {
        summary.push_str(&format!(
            "backend traffic: {} cohorts, {} geometries\n",
            backend.cohorts(),
            backend.geometries()
        ));
    }
    eprint!("{summary}");
    Ok(())
}

/// Bridges SIGTERM to the process-wide drain flag: the daemon's drain
/// watcher polls [`sega_dcim::drain_flag`] and, when the flag flips,
/// wakes the blocking accept with a self-connect and begins the graceful
/// drain (stop accepting, finish in-flight jobs, exit). The
/// handler body is a single atomic store — async-signal-safe.
fn install_sigterm_drain() {
    extern "C" fn on_sigterm(_signum: i32) {
        sega_dcim::drain_flag().store(true, std::sync::atomic::Ordering::SeqCst);
    }
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

/// The long-lived daemon: accept framed batch jobs on `--listen` from
/// many concurrent clients, multiplexed onto one shared eval cache,
/// until SIGTERM or a client's shutdown frame drains it.
fn serve_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let raw = flags.get("listen").ok_or("missing --listen")?;
    let listen = sega_dcim::ListenAddr::parse(raw)?;
    let mut options = sega_dcim::ServeOptions::new(listen);
    options.log = flags.contains_key("log");
    if let Some(t) = get_positive(
        flags,
        "threads",
        "omit the flag to use all hardware threads",
    )? {
        options.threads = t;
    }
    let knob_ms = |key: &str,
                   hint: &str,
                   default: std::time::Duration|
     -> Result<std::time::Duration, String> {
        Ok(get_positive(flags, key, hint)?
            .map(|ms| std::time::Duration::from_millis(ms as u64))
            .unwrap_or(default))
    };
    options.hello_deadline = knob_ms(
        "hello-deadline-ms",
        "a zero deadline would drop every connection instantly",
        options.hello_deadline,
    )?;
    options.idle_timeout = knob_ms(
        "idle-timeout-ms",
        "a zero timeout would close every quiet connection instantly",
        options.idle_timeout,
    )?;
    options.grace = knob_ms(
        "grace-ms",
        "a zero grace would abandon every in-flight job on drain",
        options.grace,
    )?;

    install_sigterm_drain();
    let report = sega_dcim::serve(options)?;
    eprintln!(
        "serve: {} connections, {} jobs, {} hello timeouts, {} idle closes, \
         drained {}, {} cache entries",
        report.connections,
        report.jobs,
        report.hello_timeouts,
        report.idle_closed,
        if report.drained_clean {
            "clean"
        } else {
            "dirty"
        },
        report.cache_entries,
    );
    Ok(())
}
