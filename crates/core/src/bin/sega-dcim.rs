//! The `sega-dcim` command-line compiler.
//!
//! ```text
//! sega-dcim compile --wstore 8192 --precision int8 [--strategy knee]
//!                   [--population 100] [--generations 120] [--seed N]
//!                   [--threads N] [--no-cache] [--out DIR]
//! sega-dcim explore --wstore 8192 --precision bf16 [--threads N] [--no-cache] [--csv | --json]
//! sega-dcim estimate --n 32 --h 128 --l 16 --k 4 --precision int8 [--json]
//! sega-dcim batch   --jobs FILE [--cache-file FILE] [--report FILE]
//!                   [--population N] [--generations N] [--seed N]
//!                   [--threads N] [--shards N]
//!                   [--backend macro|instrumented|remote] [--workers N]
//!                   [--worker-log-dir DIR] [--worker-deadline-ms N]
//!                   [--restart-budget N] [--backoff-ms N] [--backoff-seed N]
//!                   [--checkpoint FILE | --resume FILE] [--stop-after-jobs N]
//!                   [--checkpoint-generations N] [--stop-after-progress N]
//! sega-dcim serve   --listen ADDR [--cache-file FILE] [--threads N]
//!                   [--backend macro|remote] [--workers N] [--transport T]
//!                   [--hello-deadline-ms N] [--idle-timeout-ms N]
//!                   [--grace-ms N] [--log]
//! sega-dcim worker  --serve | --connect ADDR [--fail-after N]
//!                   [--corrupt-after N] [--hang-after N] [--stall-ms N]
//!                   [--truncate-after N] [--drop-conn-after N]
//!                   [--reconnect-after N] [--late-hello-ms N]
//!                   [--capacity N] [--worker-id N] [--log]
//! ```
//!
//! `--threads` bounds the exploration's evaluation pipeline (`0` = all
//! hardware threads, the default; `1` = serial); batches run on a
//! persistent worker pool either way. `--no-cache` disables estimate
//! memoization (for pipeline A/B timing). The frontier is bit-identical
//! for every combination — the flags only trade wall-clock.
//!
//! `compile` runs the full pipeline and writes `macro.v`, `macro.def` and
//! `report.md` into `--out` (default `./sega-out`); `explore` prints the
//! Pareto frontier; `estimate` prints the cost model for one design point
//! (both machine-readable with `--json`).
//!
//! `batch` is the service-shaped entry point: it reads a JSON job file of
//! many specifications, runs them over one worker pool and one shared
//! eval cache, and emits a wire-codec results report. `--cache-file`
//! loads the cache before the run and saves it after (binary snapshot,
//! or JSON when the path ends in `.json`), so an identical rerun
//! warm-starts to **0 distinct evaluations** with bit-identical fronts.
//! With `--backend remote` the batch dispatches cohorts to `--workers N`
//! worker **processes** (this same binary, re-invoked as `sega-dcim
//! worker --serve`) over the framed wire protocol; the fronts are
//! bit-identical to the in-process run for every worker count, and
//! remotely computed estimates land in the `--cache-file` like local
//! ones.
//!
//! The remote fleet is **supervised**: every outstanding request carries
//! a deadline (`--worker-deadline-ms`), a stalled or dead worker is
//! buried and its work requeued, and buried workers are respawned under
//! a per-worker `--restart-budget` with jittered exponential backoff
//! (`--backoff-ms` base, `--backoff-seed` jitter seed — deterministic
//! when seeded). `--checkpoint F` journals each completed batch job (and
//! its cache delta) to `F`; after a crash or an early stop,
//! `--resume F` skips the finished jobs, warm-starts the cache from the
//! journal, and produces a report **byte-identical** to an uninterrupted
//! run. `--stop-after-jobs N` stops after N executed jobs — the
//! deterministic stand-in for `kill -9` in the CI resume arm.
//! `--checkpoint-generations G` additionally journals the NSGA-II driver
//! state *inside* each job every G bred generations, so `--resume` picks
//! an interrupted exploration up at its last generation boundary instead
//! of re-running it; `--stop-after-progress N` abandons the run right
//! after the Nth such record — the mid-job kill stand-in.
//!
//! `--transport stdio|unix|tcp` picks the fleet's link: stdio pipes
//! (the default), a Unix domain socket, or TCP on `127.0.0.1` — fronts
//! and accounting are bit-identical across all three. On the socket
//! transports a worker whose *connection* drops is buried + requeued
//! like a dead process, but the process may reconnect and **rejoin**
//! under the same `--restart-budget` (the ledger gains a `rejoins`
//! term).
//!
//! `serve` runs the long-lived daemon: it listens on `--listen
//! unix:/path.sock` or `tcp:host:port`, accepts framed batch jobs from
//! many concurrent clients, and multiplexes them onto one shared eval
//! cache (warm-started from and flushed to `--cache-file`), so a repeat
//! batch from a second client answers with **0 distinct evaluations**.
//! `batch --connect ADDR` is the matching client (`--drain` asks the
//! daemon to flush and exit after the batch); SIGTERM or a client's
//! `--drain` triggers the graceful drain: stop accepting, finish
//! in-flight jobs under `--grace-ms`, flush the snapshot, exit.
//!
//! `worker` is the serving half of the fleet protocol: it speaks frames
//! on stdio (`--serve`) or dials a coordinator's hub (`--connect ADDR`)
//! and is only useful when launched by a coordinator (or a test).
//! `--fail-after`/`--corrupt-after`/`--hang-after`/`--stall-ms`/
//! `--truncate-after`/`--drop-conn-after`/`--reconnect-after`/
//! `--late-hello-ms` are fault-injection knobs for the recovery test
//! matrix; `--capacity` sets the weight the hello advertises;
//! `--worker-id`/`--log` give every stderr line a
//! `[+elapsed-ms wID rREQ]` prefix.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use sega_dcim::batch::{check_budget, parse_jobs, run_batch_with, MIN_POPULATION};
use sega_dcim::report::{csv_table, markdown_table};
use sega_dcim::{
    CacheStore, Compiler, DistillStrategy, ExplorationResult, InstrumentedBackend, JobError,
    PipelineOptions, RemoteBackend, RemoteOptions, SharedEvalCache, UserSpec,
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
  sega-dcim batch    --jobs FILE [--cache-file FILE] [--report FILE]
                     [--population N] [--generations N] [--seed N]
                     [--threads N] [--shards N]
                     [--backend macro|instrumented|remote] [--workers N]
                     [--worker-log-dir DIR] [--worker-deadline-ms N]
                     [--restart-budget N] [--backoff-ms N] [--backoff-seed N]
                     [--transport stdio|unix|tcp]
                     [--inject-fault none|kill-one|corrupt-one|hang-one|stall-one|
                                     truncate-one|drop-conn-one|reconnect-one]
                     [--checkpoint FILE | --resume FILE] [--stop-after-jobs N]
                     [--checkpoint-generations N] [--stop-after-progress N]
  sega-dcim batch    --jobs FILE --connect ADDR [--drain] [--report FILE]
                     [--population N] [--generations N] [--seed N]
  sega-dcim serve    --listen ADDR [--cache-file FILE] [--threads N]
                     [--backend macro|remote] [--workers N] [--transport stdio|unix|tcp]
                     [--hello-deadline-ms N] [--idle-timeout-ms N] [--grace-ms N] [--log]
  sega-dcim worker   --serve | --connect ADDR [--fail-after N] [--corrupt-after N]
                     [--hang-after N] [--stall-ms N] [--truncate-after N]
                     [--drop-conn-after N] [--reconnect-after N] [--late-hello-ms N]
                     [--capacity N] [--worker-id N] [--log]
precisions:   int2 int4 int8 int16 fp8 fp16 bf16 fp32
--threads:    evaluation pool width (0 = all hardware threads, 1 = serial;
              batch requires an explicit width >= 1, or omit the flag)
--no-cache:   disable estimate memoization (results are identical, only slower)
--json:       emit the wire-codec JSON document instead of a table
--jobs:       JSON job file: {\"jobs\":[{\"wstore\":8192,\"precision\":\"int8\",
              \"population\":..,\"generations\":..,\"seed\":..}, ...]}
--cache-file: load the eval cache before the batch, save it after (warm start;
              binary snapshot, or JSON text when the path ends in .json);
              with --connect the daemon owns the cache: use serve --cache-file
--report:     write the batch results JSON here (default: stdout)
--backend:    estimator backend (default macro; instrumented = macro + counters;
              remote = a fleet of worker processes over the wire protocol)
--workers:    worker processes for --backend remote (default 2, must be >= 1)
--worker-log-dir: write each remote worker's stderr to DIR/worker-N.log
              (timestamped, created if missing, appended across respawns)
--worker-deadline-ms: per-request deadline before a worker counts as stalled
              (default 30000)
--restart-budget: respawn attempts per buried worker (default 2; 0 disables)
--backoff-ms: base of the jittered exponential respawn backoff (default 250)
--backoff-seed: seed of the deterministic backoff jitter (default 0)
--transport:  how the remote fleet links up (stdio pipes, unix socket, or tcp
              on 127.0.0.1); fronts are bit-identical across all three
--inject-fault: sabotage remote worker 0 (none|kill-one|corrupt-one|hang-one|
              stall-one|truncate-one|drop-conn-one|reconnect-one) — the CI
              fault matrix; results must stay bit-identical regardless
--checkpoint: journal completed jobs (and cache deltas) to FILE as they finish
--resume:     skip the jobs FILE already records and warm-start from its deltas;
              the finished report is byte-identical to an uninterrupted run
--stop-after-jobs: stop after N executed jobs (requires --checkpoint or
              --resume; the report is withheld — resume to finish the batch)
--checkpoint-generations: also journal the GA driver state inside each job
              every N bred generations, so --resume continues an interrupted
              exploration at its last journaled generation boundary
--stop-after-progress: abandon the run after the Nth mid-job progress record
              (requires --checkpoint-generations; the mid-job kill stand-in)
--connect:    batch: run the jobs on a `sega-dcim serve` daemon at ADDR
              (unix:/path.sock or tcp:host:port) instead of in-process;
              worker: dial a coordinator's socket hub at ADDR
--drain:      after the last job, ask the connected daemon to flush its cache
              snapshot and exit (requires --connect)
--listen:     the daemon's accept address (unix:/path.sock or tcp:host:port;
              tcp:host:0 picks a free port and logs it with --log)
--hello-deadline-ms / --idle-timeout-ms / --grace-ms:
              daemon connection-lifecycle knobs — how long a fresh connection
              may take to say hello, how long a quiet one is kept, and how
              long a drain waits for in-flight work
--capacity:   the weight a worker's hello advertises (>= 1); the coordinator
              partitions shards proportionally to the fleet's weights
--serve:      speak the framed eval protocol on stdio (workers are spawned by
              a coordinator, not run by hand)";

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or("missing command")?;
    let flags = parse_flags(&args[1..])?;
    match command.as_str() {
        "compile" => compile(&flags),
        "explore" => explore(&flags),
        "estimate" => estimate_cmd(&flags),
        "batch" => batch(&flags),
        "serve" => serve_cmd(&flags),
        "worker" => worker(&flags),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected `--flag`, got `{arg}`"))?;
        // Boolean flags take no value.
        if key == "csv"
            || key == "no-cache"
            || key == "json"
            || key == "serve"
            || key == "log"
            || key == "drain"
        {
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
/// instead of letting a zero-width pool or zero-shard cache surface as a
/// panic deep inside the pipeline.
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
    if flags.contains_key("cache-file") {
        return Err(
            "--cache-file does not apply with --connect (the daemon owns the cache; \
             persist it with `serve --cache-file`)"
                .to_owned(),
        );
    }
    for flag in [
        "backend",
        "threads",
        "shards",
        "workers",
        "worker-log-dir",
        "worker-deadline-ms",
        "restart-budget",
        "backoff-ms",
        "backoff-seed",
        "transport",
        "inject-fault",
        "checkpoint",
        "resume",
        "stop-after-jobs",
        "checkpoint-generations",
        "stop-after-progress",
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
    // Validate every scheduling knob before any file is read or worker
    // spawned, so a typo fails in microseconds with a precise message.
    let threads = get_positive(
        flags,
        "threads",
        "omit the flag to use all hardware threads",
    )?;
    let shards = get_positive(flags, "shards", "the cache needs at least one shard")?
        .unwrap_or(sega_dcim::cache::DEFAULT_SHARDS);
    let workers =
        get_positive(flags, "workers", "a remote fleet needs at least one worker")?.unwrap_or(2);
    let backend_name = flags.get("backend").map(String::as_str).unwrap_or("macro");
    if !matches!(backend_name, "macro" | "instrumented" | "remote") {
        return Err(format!(
            "unknown backend `{backend_name}` (expected macro, instrumented or remote)"
        ));
    }
    let fault = flags.get("inject-fault").map(String::as_str);
    if !matches!(
        fault,
        None | Some(
            "none"
                | "kill-one"
                | "corrupt-one"
                | "hang-one"
                | "stall-one"
                | "truncate-one"
                | "drop-conn-one"
                | "reconnect-one"
        )
    ) {
        return Err(format!(
            "unknown fault `{}` (expected none, kill-one, corrupt-one, hang-one, \
             stall-one, truncate-one, drop-conn-one or reconnect-one)",
            fault.unwrap_or_default()
        ));
    }
    let transport = flags
        .get("transport")
        .map(|raw| sega_dcim::TransportKind::parse(raw))
        .transpose()?
        .unwrap_or_default();
    let deadline_ms = get_positive(
        flags,
        "worker-deadline-ms",
        "a zero deadline would bury every worker instantly",
    )?;
    let parse_u64 = |key: &str| -> Result<Option<u64>, String> {
        flags
            .get(key)
            .map(|v| v.parse().map_err(|e| format!("--{key}: {e} (got `{v}`)")))
            .transpose()
    };
    let restart_budget = parse_u64("restart-budget")?; // 0 is valid: no respawns
    let backoff_ms = parse_u64("backoff-ms")?; // 0 is valid: immediate respawn
    let backoff_seed = parse_u64("backoff-seed")?;
    // Fleet-only flags on a non-remote backend would be silently inert —
    // which, for a fault-matrix run, means believing a fault path was
    // exercised when nothing was. Refuse instead.
    if backend_name != "remote" {
        for flag in [
            "workers",
            "worker-log-dir",
            "worker-deadline-ms",
            "restart-budget",
            "backoff-ms",
            "backoff-seed",
            "transport",
        ] {
            if flags.contains_key(flag) {
                return Err(format!("--{flag} requires --backend remote"));
            }
        }
        if !matches!(fault, None | Some("none")) {
            return Err("--inject-fault requires --backend remote".to_owned());
        }
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
    let checkpoint_generations = get_positive(
        flags,
        "checkpoint-generations",
        "omit the flag for job-granular journaling only",
    )?
    .unwrap_or(0);
    if checkpoint_generations > 0 && checkpoint.is_none() {
        return Err(
            "--checkpoint-generations requires --checkpoint or --resume (mid-job \
             progress records need a journal to land in)"
                .to_owned(),
        );
    }
    let stop_after_progress = get_positive(
        flags,
        "stop-after-progress",
        "stopping before the first progress record would journal nothing",
    )?;
    if stop_after_progress.is_some() && checkpoint_generations == 0 {
        return Err(
            "--stop-after-progress requires --checkpoint-generations (without it \
             no progress record is ever written, so the run would never stop)"
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

    // One shared cache for the whole batch, warm-started from the cache
    // file when present.
    let cache = Arc::new(SharedEvalCache::with_shards(shards));
    let mut store = flags.get("cache-file").map(CacheStore::file);
    if let Some(store) = &mut store {
        let snapshot = store.load()?;
        if snapshot.is_empty() {
            eprintln!(
                "cache file {} is missing or empty, starting cold",
                store.path().display()
            );
        } else {
            let installed = cache.load(&snapshot).map_err(|e| e.to_string())?;
            eprintln!(
                "loaded {} cached estimates from {}",
                installed,
                store.path().display()
            );
        }
    }

    let mut pipeline = PipelineOptions::default().with_shared_cache(Arc::clone(&cache));
    if let Some(t) = threads {
        pipeline.threads = t;
    }
    let mut instrumented: Option<Arc<InstrumentedBackend>> = None;
    let mut remote: Option<Arc<RemoteBackend>> = None;
    match backend_name {
        "instrumented" => {
            let backend = Arc::new(InstrumentedBackend::macro_model());
            pipeline.backend = Some(Arc::clone(&backend) as _);
            instrumented = Some(backend);
        }
        "remote" => {
            let program = std::env::current_exe()
                .map_err(|e| format!("cannot locate the worker binary: {e}"))?;
            let mut options = RemoteOptions::fleet(program, workers).with_transport(transport);
            if let Some(ms) = deadline_ms {
                options = options.with_deadline(std::time::Duration::from_millis(ms as u64));
            }
            if let Some(budget) = restart_budget {
                options = options.with_restart_budget(budget as u32);
            }
            if backoff_ms.is_some() || backoff_seed.is_some() {
                let base = std::time::Duration::from_millis(
                    backoff_ms.unwrap_or(options.backoff_base.as_millis() as u64),
                );
                options = options.with_backoff(base, backoff_seed.unwrap_or(0));
            }
            // The CI fault matrix: sabotage worker 0 and demand the run
            // still complete with bit-identical fronts. (The value was
            // validated up front.) The stall is sized past the deadline
            // so the slow responder reliably counts as stalled.
            let stall_ms = 2 * options.deadline.as_millis().max(1);
            let sabotage = match fault {
                Some("kill-one") => Some(("--fail-after", "1".to_owned())),
                Some("corrupt-one") => Some(("--corrupt-after", "1".to_owned())),
                Some("hang-one") => Some(("--hang-after", "1".to_owned())),
                Some("stall-one") => Some(("--stall-ms", stall_ms.to_string())),
                Some("truncate-one") => Some(("--truncate-after", "1".to_owned())),
                Some("drop-conn-one") => Some(("--drop-conn-after", "1".to_owned())),
                Some("reconnect-one") => Some(("--reconnect-after", "1".to_owned())),
                _ => None,
            };
            if let Some((knob, value)) = sabotage {
                options.workers[0] = options.workers[0]
                    .clone()
                    .with_args([knob.to_owned(), value]);
            }
            if let Some(dir) = flags.get("worker-log-dir") {
                options = options.with_log_dir(dir);
            }
            // Worker snapshot deltas land in the batch cache, so the
            // saved --cache-file carries remotely computed estimates.
            let backend = Arc::new(RemoteBackend::spawn(options)?.with_sink(Arc::clone(&cache)));
            pipeline.backend = Some(Arc::clone(&backend) as _);
            remote = Some(backend);
        }
        _ => {}
    };

    let control = sega_dcim::BatchControl {
        checkpoint,
        stop_after_jobs,
        checkpoint_generations,
        stop_after_progress,
    };
    let mut report = run_batch_with(
        &jobs,
        &sega_cells::Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        pipeline,
        &control,
    )?;
    if let Some(backend) = &remote {
        report.remote = Some(backend.stats());
    }
    // Persist before emitting the report so its "cache" object carries
    // the save's byte count too.
    if let Some(store) = &mut store {
        store.save(&cache.snapshot())?;
        report.store = Some(store.stats());
        eprintln!(
            "saved {} cached estimates to {}",
            cache.len(),
            store.path().display()
        );
    }

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

    // Accumulate the whole stats block and emit it with ONE write_all:
    // per-line eprintln! takes and releases the stderr lock between
    // lines, so worker stderr (forwarded by the log pump threads under
    // --worker-log-dir) can interleave mid-block and garble the summary.
    use std::io::Write as _;
    let mut summary = format!(
        "{} jobs: {} evaluations, {} distinct estimates, {} cache hits ({} warm-start entries)\n",
        report.outcomes.len(),
        report.evaluations,
        report.distinct_evaluations,
        report.cache_hits,
        report.preloaded_entries
    );
    if let Some(backend) = instrumented {
        summary.push_str(&format!(
            "backend traffic: {} cohorts, {} geometries\n",
            backend.cohorts(),
            backend.geometries()
        ));
    }
    if let Some(backend) = remote {
        let stats = backend.stats();
        summary.push_str(&format!(
            "remote fleet ({}): {}/{} workers alive, {} round-trips, {} geometries \
             ({} requeued sub-cohorts, {} timeouts, {} worker deaths, {} respawns, \
             {} rejoins, {} evaluated in-process), {} delta entries merged\n",
            stats.transport.name(),
            stats.workers_alive,
            stats.workers_spawned,
            stats.round_trips,
            stats.geometries,
            stats.requeues,
            stats.timeouts,
            stats.worker_deaths,
            stats.respawns,
            stats.rejoins,
            stats.fallback_geometries,
            stats.merged_entries,
        ));
    }
    if let Some(stats) = &report.store {
        summary.push_str(&format!(
            "cache file: {} entries loaded, {} B read, {} B written\n",
            stats.entries_loaded, stats.bytes_read, stats.bytes_written,
        ));
    }
    let _ = std::io::stderr().lock().write_all(summary.as_bytes());
    Ok(())
}

/// Bridges SIGTERM to the process-wide drain flag: the daemon's drain
/// watcher polls [`sega_dcim::drain_flag`] and, when the flag flips,
/// wakes the blocking accept with a self-connect and begins the graceful
/// drain (stop accepting, finish in-flight jobs, flush, exit). The
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
/// many concurrent clients, multiplexed onto one shared eval cache (and
/// optionally a remote worker fleet), until SIGTERM or a client's
/// shutdown frame drains it.
fn serve_cmd(flags: &HashMap<String, String>) -> Result<(), String> {
    let raw = flags.get("listen").ok_or("missing --listen")?;
    let listen = sega_dcim::ListenAddr::parse(raw)?;
    let mut options = sega_dcim::ServeOptions::new(listen);
    options.cache_file = flags.get("cache-file").map(PathBuf::from);
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

    let backend_name = flags.get("backend").map(String::as_str).unwrap_or("macro");
    if backend_name != "remote" {
        for flag in ["workers", "transport"] {
            if flags.contains_key(flag) {
                return Err(format!("--{flag} requires --backend remote"));
            }
        }
    }
    let _fleet: Option<Arc<RemoteBackend>> = match backend_name {
        "macro" => None,
        "remote" => {
            let workers =
                get_positive(flags, "workers", "a remote fleet needs at least one worker")?
                    .unwrap_or(2);
            let transport = flags
                .get("transport")
                .map(|raw| sega_dcim::TransportKind::parse(raw))
                .transpose()?
                .unwrap_or_default();
            let program = std::env::current_exe()
                .map_err(|e| format!("cannot locate the worker binary: {e}"))?;
            let fleet_options = RemoteOptions::fleet(program, workers).with_transport(transport);
            // The fleet's snapshot deltas sink into the daemon's cache,
            // so remotely computed estimates warm later clients too.
            let cache = Arc::new(SharedEvalCache::new());
            let backend =
                Arc::new(RemoteBackend::spawn(fleet_options)?.with_sink(Arc::clone(&cache)));
            options.cache = Some(cache);
            options.backend = Some(Arc::clone(&backend) as _);
            Some(backend)
        }
        other => {
            return Err(format!(
                "unknown backend `{other}` (serve runs macro or remote)"
            ))
        }
    };

    install_sigterm_drain();
    let report = sega_dcim::serve(options)?;
    eprintln!(
        "serve: {} connections, {} jobs, {} hello timeouts, {} idle closes, \
         drained {}, {} cache entries flushed",
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

/// The serving half of the remote protocol: frames on stdio (`--serve`,
/// the coordinator launched us on pipes) or over a dialed socket
/// (`--connect ADDR`, the coordinator runs a hub) until it shuts us
/// down or closes the link.
fn worker(flags: &HashMap<String, String>) -> Result<(), String> {
    let knob = |key: &str| -> Result<Option<u64>, String> {
        flags
            .get(key)
            .map(|v| v.parse().map_err(|e| format!("--{key}: {e}")))
            .transpose()
    };
    let options = sega_dcim::WorkerOptions {
        fail_after: knob("fail-after")?,
        corrupt_after: knob("corrupt-after")?,
        hang_after: knob("hang-after")?,
        truncate_after: knob("truncate-after")?,
        stall: knob("stall-ms")?.map(std::time::Duration::from_millis),
        drop_conn_after: knob("drop-conn-after")?,
        reconnect_after: knob("reconnect-after")?,
        late_hello: knob("late-hello-ms")?.map(std::time::Duration::from_millis),
        capacity: knob("capacity")?.unwrap_or(1).min(u64::from(u32::MAX)) as u32,
        worker_id: knob("worker-id")?.unwrap_or(0),
        log: flags.contains_key("log"),
    };
    if let Some(raw) = flags.get("connect") {
        let addr = sega_dcim::ListenAddr::parse(raw)?;
        return sega_dcim::run_connected_worker(&addr, &options);
    }
    if !flags.contains_key("serve") {
        return Err(
            "worker requires --serve or --connect ADDR (it is launched by a \
             coordinator, not run by hand)"
                .to_owned(),
        );
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = std::io::BufWriter::new(stdout.lock());
    sega_dcim::remote::serve_worker(&mut input, &mut output, &options)
}
