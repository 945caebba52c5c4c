//! `serve-sessions`: a `sega-dcim serve` daemon process (macro backend,
//! `--threads 1`) and two closed-loop client connections from this
//! process. Each op is one single-job session through
//! `run_batch_connected`. The job pool is the 24-spec corpus, each spec
//! with a GA seed drawn from the workload seed; sessions draw jobs from
//! it with replacement, so a job's first session misses the daemon's
//! cache and its repeats hit it. Quality and artifact metrics count each
//! distinct job once, so they do not depend on how often the draw
//! repeated a job.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sega_dcim::batch::BatchJob;
use sega_dcim::explore::{explore_pareto_with, ParetoSolution, PipelineOptions};
use sega_dcim::{run_batch_connected, ListenAddr};

use crate::checks::{check_front, front_bits, label};
use crate::common::{corpus, job_config, median, peak_rss_mb, Rng, Timed, CACHE_PROBE};
use crate::dse::{record_explore_layers, Counters};
use crate::harness::{
    record_latency, record_setup, references, setting, Outcome, Quality, Settings, SETUP_REPS,
};
use crate::replica;
use crate::trace::{self, span, Span, Totals};

/// Closed-loop clients in the end-to-end run.
const CLIENTS: u64 = 2;
/// In-process reference runs per distinct job.
const REFERENCE_REPS: usize = 3;

/// A running daemon; killed and reaped on drop if not shut down.
struct Daemon {
    child: Child,
    addr: ListenAddr,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and returns once a client hello succeeded.
    fn spawn(program: &Path, socket: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(program)
            .arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .args(["--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start `{}`: {e}", program.display()))?;
        let mut daemon = Daemon {
            child,
            addr: ListenAddr::Unix(socket.clone()),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while !daemon.socket.exists() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon never started listening".to_owned());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        run_batch_connected(&daemon.addr, &[], false)?;
        Ok(daemon)
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shut_down(mut self) -> Result<(), String> {
        run_batch_connected(&self.addr, &[], true)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("daemon did not exit after a shutdown frame".to_owned()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One finished session.
struct Session {
    job: usize,
    timed: Timed,
    outcome: Result<(Vec<ParetoSolution>, usize), String>,
}

/// One session: connect, hello, one job, client-side rematerialization,
/// and the report document a client writes.
fn session(addr: &ListenAddr, job: &BatchJob) -> Result<(Vec<ParetoSolution>, usize), String> {
    let report = span("serve.session", || {
        run_batch_connected(addr, std::slice::from_ref(job), false)
    });
    report.and_then(|r| {
        let bytes = r.to_json().to_string().len();
        let front = r
            .outcomes
            .into_iter()
            .next()
            .ok_or("daemon returned no outcome")?;
        Ok((front.result.solutions, bytes))
    })
}

/// A closed-loop client: sessions back to back until `deadline`.
fn client(
    addr: &ListenAddr,
    jobs: &[BatchJob],
    seed: u64,
    id: u64,
    deadline: Instant,
    epoch: Option<Instant>,
) -> (Vec<Session>, Vec<Span>) {
    if let Some(epoch) = epoch {
        trace::start(epoch, id as u32 + 1);
    }
    let mut rng = Rng::new(seed, 100 + id);
    let mut sessions = Vec::new();
    while Instant::now() < deadline {
        let job = rng.below(jobs.len());
        trace::set_op((id << 32) | sessions.len() as u64);
        let (outcome, timed) =
            Timed::measure(CACHE_PROBE, || span("op", || session(addr, &jobs[job])));
        sessions.push(Session {
            job,
            timed,
            outcome,
        });
    }
    (sessions, trace::finish())
}

/// Runs `clients` closed-loop clients for `seconds`; returns their
/// sessions and spans.
fn drive(
    addr: &ListenAddr,
    jobs: &[BatchJob],
    settings: &Settings,
    clients: std::ops::Range<u64>,
    seconds: f64,
    epoch: Option<Instant>,
) -> (Vec<Session>, Vec<Span>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Session>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .map(|id| s.spawn(move || client(addr, jobs, settings.seed, id, deadline, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut sessions = Vec::new();
    let mut spans = Vec::new();
    for (s, sp) in results {
        sessions.extend(s);
        spans.extend(sp);
    }
    (sessions, spans)
}

/// The job pool: each corpus spec with a GA seed drawn from the
/// workload seed.
fn job_pool(seed: u64) -> Vec<BatchJob> {
    let mut rng = Rng::new(seed, 3);
    corpus()
        .into_iter()
        .map(|spec| BatchJob {
            spec,
            config: job_config(rng.next()),
        })
        .collect()
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_checked(settings, &mut out) {
        out.ledger.fail_counted(e);
    }
    out
}

fn run_checked(settings: &Settings, out: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(".perfbench").map_err(|e| format!(".perfbench: {e}"))?;
    let mut setups = Vec::new();
    let mut daemon = None;
    let mut pool = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = daemon.take() {
            Daemon::shut_down(previous)?;
        }
        let socket = PathBuf::from(format!(
            ".perfbench/serve-{}-{rep}.sock",
            std::process::id()
        ));
        let (spawned, timing) = Timed::measure(CACHE_PROBE, || {
            pool = Some(job_pool(settings.seed));
            Daemon::spawn(&settings.sega_dcim, socket)
        });
        daemon = Some(spawned?);
        setups.push(timing);
    }
    let daemon = daemon.expect("at least one set-up");
    let jobs = pool.expect("at least one set-up");
    let specs: Vec<_> = jobs.iter().map(|j| j.spec).collect();
    let (refs, exact_front_s) = references(&specs);

    let epoch = Instant::now();
    let traced = settings.trace.then_some(epoch);
    // The traced run splits its window: one client alone, then two
    // clients, so the queueing on the job lock shows as the difference.
    let (single, mut spans) = if settings.trace {
        drive(
            &daemon.addr,
            &jobs,
            settings,
            0..1,
            settings.seconds / 2.0,
            traced,
        )
    } else {
        (Vec::new(), Vec::new())
    };
    let seconds = if settings.trace {
        settings.seconds / 2.0
    } else {
        settings.seconds
    };
    let (pair, pair_spans) = drive(&daemon.addr, &jobs, settings, 0..CLIENTS, seconds, traced);
    spans.extend(pair_spans);
    let daemon_rss = peak_rss_mb(&daemon.child.id().to_string());
    daemon.shut_down()?;

    // In-process references of every job served, outside the window.
    let (tech, conditions) = setting();
    let served: std::collections::BTreeSet<usize> =
        single.iter().chain(&pair).map(|s| s.job).collect();
    let mut reference: BTreeMap<usize, (Vec<[u64; 4]>, f64)> = BTreeMap::new();
    let mut counters = Counters::default();
    let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
    let mut replica_mismatch = None;
    if settings.trace {
        trace::start(epoch, 0);
    }
    for &j in &served {
        let job = &jobs[j];
        let mut times = Vec::new();
        let mut bits = Vec::new();
        for rep in 0..REFERENCE_REPS {
            let traced_ref = |op: u64| {
                trace::set_op(op);
                let t0 = Instant::now();
                let e = span("ref", || {
                    replica::explore(
                        &job.spec,
                        &tech,
                        &conditions,
                        &job.config,
                        PipelineOptions::with_threads(1),
                    )
                });
                (e, t0.elapsed().as_secs_f64())
            };
            let op = (j * REFERENCE_REPS + rep) as u64;
            let replica_first = settings.trace && rep % 2 == 1;
            let mut replica_run = replica_first.then(|| traced_ref(op));
            let t0 = Instant::now();
            let result = explore_pareto_with(
                &job.spec,
                &tech,
                &conditions,
                &job.config,
                PipelineOptions::with_threads(1),
            );
            let dt = t0.elapsed().as_secs_f64();
            times.push(dt);
            bits = front_bits(&result.solutions);
            if settings.trace && replica_run.is_none() {
                replica_run = Some(traced_ref(op));
            }
            if let Some((explored, wall)) = replica_run {
                traced_wall += wall;
                untraced_wall += dt;
                counters.add(&explored);
                if front_bits(&explored.solutions) != bits {
                    replica_mismatch = Some(label(&job.spec));
                }
            }
        }
        reference.insert(j, (bits, median(&times)));
    }
    if settings.trace {
        spans.extend(trace::finish());
    }

    // Check every session against the in-process front of its job.
    let mut quality = Quality::default();
    let mut first_bytes: BTreeMap<usize, usize> = BTreeMap::new();
    for s in single.iter().chain(&pair) {
        let job = &jobs[s.job];
        let verdict = s
            .outcome
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(front, bytes)| {
                if let Entry::Vacant(first) = first_bytes.entry(s.job) {
                    first.insert(*bytes);
                    quality.add(&refs, s.job, front);
                }
                check_front(&job.spec, front, &tech, &conditions)?;
                if front_bits(front) != reference[&s.job].0 {
                    return Err(format!(
                        "served front of {} differs from the in-process front",
                        label(&job.spec)
                    ));
                }
                Ok(())
            });
        out.ledger.record(verdict);
    }
    if let Some(spec) = replica_mismatch {
        out.ledger.fail_counted(format!(
            "replica front of {spec} differs from the library's"
        ));
    }

    let latencies =
        |sessions: &[Session]| -> Vec<f64> { sessions.iter().map(|s| s.timed.wall_s).collect() };
    if settings.trace {
        let totals = Totals::of(&spans);
        record_explore_layers(out, &totals, "ref", &counters);
        let in_process: Vec<f64> = single.iter().map(|s| reference[&s.job].1).collect();
        let single_ms = median(&latencies(&single)) * 1e3;
        out.set("serve.overhead_ms", single_ms - median(&in_process) * 1e3);
        out.set(
            "serve.queue_ms",
            median(&latencies(&pair)) * 1e3 - single_ms,
        );
        out.set("enumerate.exact_front_s", exact_front_s);
        out.set("trace.coverage", totals.coverage("op"));
        out.set("trace.overhead", traced_wall / untraced_wall - 1.0);
        out.spans = spans;
    } else {
        record_setup(out, &setups);
        let ops: Vec<Timed> = pair.iter().map(|s| s.timed).collect();
        record_latency(out, &ops, CLIENTS as usize);
        out.set("peak_rss_mb", daemon_rss?);
        out.set(
            "artifact_mb",
            first_bytes.values().sum::<usize>() as f64 / 1e6,
        );
        out.set("front_hv_ratio", quality.hv_ratio());
        out.set("front_recall", quality.recall());
    }
    out.notes.push(format!(
        "{} sessions ({} single-client) over {} distinct jobs",
        single.len() + pair.len(),
        single.len(),
        served.len()
    ));
    Ok(())
}
