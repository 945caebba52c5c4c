//! The distributed acceptance suite: fronts and evaluation accounting
//! must be **bit-identical** across backend ∈ {macro, remote × {1,2,3}
//! workers} — including when workers are killed mid-batch, answer
//! corrupted or truncated frames, hang, or stall past the deadline —
//! because the remote backend only moves *where* a deterministic
//! function is computed, never *what* it computes.
//!
//! Every test here spawns real `sega-dcim worker --serve` processes
//! (the binary under test, via `CARGO_BIN_EXE_sega-dcim`) and talks to
//! them over the real framed stdio transport; the fault-injection knobs
//! (`--fail-after`, `--corrupt-after`, `--hang-after`, `--stall-ms`,
//! `--truncate-after`) are the worker's own CLI flags, so the recovery
//! paths exercised here are exactly the ones a dying fleet member
//! triggers in production. Supervision tests additionally assert the
//! stats ledger (`alive == spawned − deaths + respawns + rejoins`,
//! `timeouts ≤ deaths`) and that no run leaks zombie processes.
//!
//! The transport matrix runs the same acceptance property over all
//! three fleet links — stdio pipes, a Unix domain socket and TCP on
//! localhost — including the connection-scoped faults
//! (`--drop-conn-after`, `--reconnect-after`) that only exist once the
//! link can die separately from the process.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use sega_cells::Technology;
use sega_dcim::batch::parse_jobs;
use sega_dcim::{
    explore_pareto_with, run_batch, run_batch_connected, serve, BatchJob, EvalBackend,
    ExplorationResult, ListenAddr, PipelineOptions, RemoteBackend, RemoteOptions, ServeOptions,
    SharedEvalCache, TransportKind, UserSpec, WorkerCommand,
};
use sega_estimator::{OperatingConditions, Precision};
use sega_moga::Nsga2Config;

const PRECISIONS: [Precision; 4] = [
    Precision::Int4,
    Precision::Int8,
    Precision::Bf16,
    Precision::Fp32,
];

fn program() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sega-dcim"))
}

fn cfg(seed: u64) -> Nsga2Config {
    Nsga2Config {
        population: 10,
        generations: 5,
        seed,
        ..Default::default()
    }
}

fn explore(spec: &UserSpec, seed: u64, backend: Option<Arc<dyn EvalBackend>>) -> ExplorationResult {
    let pipeline = PipelineOptions {
        threads: 1,
        cache: true,
        min_batch_per_worker: 1,
        backend,
        ..Default::default()
    };
    explore_pareto_with(
        spec,
        &Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        &cfg(seed),
        pipeline,
    )
}

/// A faulty fleet: `fleet_size` workers, with worker 0 carrying the
/// given extra fault-injection flags. Respawning is disabled so the
/// exact-count assertions (one fault ⇒ one death, fleet shrinks) keep
/// holding; the supervision tests below opt back in explicitly. The
/// short deadline keeps hang/stall faults from slowing the suite.
fn faulty_fleet(fleet_size: usize, fault_flags: &[(&str, u64)]) -> RemoteBackend {
    let mut options = RemoteOptions::fleet(program(), fleet_size)
        .with_restart_budget(0)
        .with_deadline(Duration::from_millis(500));
    options.workers[0] = options.workers[0].clone().with_args(
        fault_flags
            .iter()
            .flat_map(|(flag, n)| [format!("--{flag}"), n.to_string()]),
    );
    RemoteBackend::spawn(options).expect("spawn faulty fleet")
}

/// The supervision ledger law: every quiescent fleet satisfies
/// `workers_alive == workers_spawned − worker_deaths + respawns +
/// rejoins` and `timeouts ≤ worker_deaths` (every timeout buries its
/// worker; every rejoin revives a buried one without a fresh process).
fn assert_ledger(stats: &sega_dcim::RemoteStats) {
    assert_eq!(
        stats.workers_alive as i64,
        stats.workers_spawned as i64 - stats.worker_deaths as i64
            + stats.respawns as i64
            + stats.rejoins as i64,
        "ledger violated: {stats:?}"
    );
    assert!(stats.timeouts <= stats.worker_deaths, "{stats:?}");
}

/// No worker pid may survive as a zombie once the backend is gone: a
/// reaped child's `/proc/<pid>` entry either vanishes or (pid reuse)
/// belongs to a non-zombie process.
fn assert_no_zombies(pids: &[u32]) {
    for &pid in pids {
        let stat = match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
            Ok(stat) => stat,
            Err(_) => continue, // fully reaped
        };
        // Field 3 of /proc/pid/stat, after the parenthesized comm.
        let state = stat
            .rsplit(')')
            .next()
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or("?");
        assert_ne!(state, "Z", "worker {pid} left a zombie");
    }
}

fn assert_matches_baseline(run: &ExplorationResult, baseline: &ExplorationResult, label: &str) {
    assert_eq!(
        run.objective_matrix(),
        baseline.objective_matrix(),
        "{label}: front diverged from the in-process baseline"
    );
    assert_eq!(run.evaluations, baseline.evaluations, "{label}");
    assert_eq!(
        run.distinct_evaluations, baseline.distinct_evaluations,
        "{label}"
    );
    assert_eq!(run.cache_hits, baseline.cache_hits, "{label}");
    assert_eq!(
        run.distinct_evaluations + run.cache_hits,
        run.evaluations,
        "{label}: accounting must partition exactly"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance property: for every sampled (precision, seed), the
    /// front and the evaluation accounting are bit-identical across
    /// backend ∈ {macro, remote×{1,2,3}} — and still identical when one
    /// of two workers is killed after its first answered request.
    #[test]
    fn fronts_are_bit_identical_across_macro_and_remote_fleets(
        precision_idx in 0usize..4,
        log_wstore in 13u32..=15,
        seed in 0u64..1000,
    ) {
        let spec = UserSpec::new(1u64 << log_wstore, PRECISIONS[precision_idx]).unwrap();
        let baseline = explore(&spec, seed, None);
        for fleet_size in [1usize, 2, 3] {
            let backend = Arc::new(
                RemoteBackend::spawn(RemoteOptions::fleet(program(), fleet_size))
                    .expect("spawn fleet"),
            );
            let run = explore(&spec, seed, Some(Arc::clone(&backend) as _));
            assert_matches_baseline(&run, &baseline, &format!("remote x{fleet_size}"));
            let stats = backend.stats();
            prop_assert_eq!(stats.worker_deaths, 0);
            prop_assert_eq!(stats.fallback_geometries, 0);
            prop_assert!(stats.round_trips > 0, "fleet must have been exercised");
            prop_assert_eq!(stats.geometries as usize, run.distinct_evaluations);
            prop_assert_eq!(stats.workers_alive, fleet_size);
        }
        // Injected worker death: worker 0 of 2 dies on its second request.
        let backend = Arc::new(faulty_fleet(2, &[("fail-after", 1)]));
        let run = explore(&spec, seed, Some(Arc::clone(&backend) as _));
        assert_matches_baseline(&run, &baseline, "remote x2 with mid-batch death");
        let stats = backend.stats();
        prop_assert_eq!(stats.worker_deaths, 1);
        prop_assert_eq!(stats.workers_alive, 1);
        prop_assert_eq!(stats.geometries as usize, run.distinct_evaluations);
    }
}

#[test]
fn killed_worker_requeues_to_the_survivor() {
    let spec = UserSpec::new(16384, Precision::Int8).unwrap();
    let baseline = explore(&spec, 7, None);
    let backend = Arc::new(faulty_fleet(2, &[("fail-after", 1)]));
    let run = explore(&spec, 7, Some(Arc::clone(&backend) as _));
    assert_matches_baseline(&run, &baseline, "mid-batch kill");
    let stats = backend.stats();
    assert_eq!(stats.worker_deaths, 1, "{stats:?}");
    assert!(stats.requeues >= 1, "{stats:?}");
    assert_eq!(stats.workers_alive, 1, "{stats:?}");
    assert_eq!(
        stats.fallback_geometries, 0,
        "survivor must absorb the load"
    );
}

#[test]
fn corrupt_frames_are_detected_and_requeued() {
    let spec = UserSpec::new(16384, Precision::Bf16).unwrap();
    let baseline = explore(&spec, 11, None);
    // Worker 0 answers its first request, then replies to the second
    // with a well-framed garbage payload and exits.
    let backend = Arc::new(faulty_fleet(2, &[("corrupt-after", 1)]));
    let run = explore(&spec, 11, Some(Arc::clone(&backend) as _));
    assert_matches_baseline(&run, &baseline, "corrupt frame");
    let stats = backend.stats();
    assert_eq!(stats.worker_deaths, 1, "{stats:?}");
    assert!(stats.requeues >= 1, "{stats:?}");
    assert_eq!(stats.fallback_geometries, 0, "{stats:?}");
}

#[test]
fn hung_worker_trips_the_deadline_and_requeues() {
    let spec = UserSpec::new(16384, Precision::Int8).unwrap();
    let baseline = explore(&spec, 13, None);
    // Worker 0 stops reading after its first answer but never exits:
    // only the deadline can detect it. The stall must count as a
    // timeout AND a death, and the survivor absorbs the requeued shard.
    let backend = Arc::new(faulty_fleet(2, &[("hang-after", 1)]));
    let pids = backend.worker_pids();
    let run = explore(&spec, 13, Some(Arc::clone(&backend) as _));
    assert_matches_baseline(&run, &baseline, "hung worker");
    let stats = backend.stats();
    assert_eq!(stats.worker_deaths, 1, "{stats:?}");
    assert_eq!(stats.timeouts, 1, "{stats:?}");
    assert!(stats.requeues >= 1, "{stats:?}");
    assert_eq!(stats.workers_alive, 1, "{stats:?}");
    assert_eq!(stats.fallback_geometries, 0, "{stats:?}");
    assert_ledger(&stats);
    drop(backend);
    // The hung child was killed, not abandoned: no zombie survives.
    assert_no_zombies(&pids);
}

#[test]
fn stalled_worker_is_buried_by_the_deadline() {
    let spec = UserSpec::new(16384, Precision::Bf16).unwrap();
    let baseline = explore(&spec, 17, None);
    // Worker 0 answers every request 1.5s late — three deadlines past
    // the fleet's 500ms budget — so its very first response times out.
    let backend = Arc::new(faulty_fleet(2, &[("stall-ms", 1500)]));
    let run = explore(&spec, 17, Some(Arc::clone(&backend) as _));
    assert_matches_baseline(&run, &baseline, "stalled worker");
    let stats = backend.stats();
    assert_eq!(stats.worker_deaths, 1, "{stats:?}");
    assert_eq!(stats.timeouts, 1, "{stats:?}");
    assert_eq!(stats.workers_alive, 1, "{stats:?}");
    assert_eq!(stats.fallback_geometries, 0, "{stats:?}");
    assert_ledger(&stats);
}

#[test]
fn truncated_frames_bury_the_worker() {
    let spec = UserSpec::new(16384, Precision::Int4).unwrap();
    let baseline = explore(&spec, 19, None);
    // Worker 0 answers its first request, then writes half a frame and
    // exits — the torn tail must read as a death, never as a reply.
    let backend = Arc::new(faulty_fleet(2, &[("truncate-after", 1)]));
    let run = explore(&spec, 19, Some(Arc::clone(&backend) as _));
    assert_matches_baseline(&run, &baseline, "truncated frame");
    let stats = backend.stats();
    assert_eq!(stats.worker_deaths, 1, "{stats:?}");
    assert!(stats.requeues >= 1, "{stats:?}");
    assert_eq!(stats.workers_alive, 1, "{stats:?}");
    assert_eq!(stats.fallback_geometries, 0, "{stats:?}");
    assert_ledger(&stats);
}

#[test]
fn buried_workers_respawn_and_rejoin_the_rotation() {
    let spec = UserSpec::new(8192, Precision::Int8).unwrap();
    let baseline = explore(&spec, 23, None);
    // A single worker that dies on every first request, with a restart
    // budget of 1 and zero backoff: the supervisor must respawn it once
    // (deterministically, immediately), route traffic to the respawn —
    // proven by the SECOND death, which only the respawned process can
    // die — then exhaust the budget and fall back in-process.
    let mut options = RemoteOptions::fleet(program(), 1)
        .with_restart_budget(1)
        .with_backoff(Duration::ZERO, 42)
        .with_deadline(Duration::from_millis(500));
    options.workers[0] = options.workers[0]
        .clone()
        .with_args(["--fail-after".to_owned(), "0".to_owned()]);
    let backend = Arc::new(RemoteBackend::spawn(options).expect("spawn fleet"));
    let run = explore(&spec, 23, Some(Arc::clone(&backend) as _));
    assert_matches_baseline(&run, &baseline, "respawn then budget exhaustion");
    let stats = backend.stats();
    assert_eq!(stats.worker_deaths, 2, "{stats:?}");
    assert_eq!(stats.respawns, 1, "{stats:?}");
    assert_eq!(stats.workers_spawned, 1, "{stats:?}");
    assert_eq!(stats.workers_alive, 0, "{stats:?}");
    assert_eq!(
        stats.fallback_geometries as usize, run.distinct_evaluations,
        "{stats:?}"
    );
    assert_ledger(&stats);
}

#[test]
fn teardown_leaves_no_zombies_behind() {
    // A healthy fleet: Drop's graceful shutdown must reap every child.
    let backend = RemoteBackend::spawn(RemoteOptions::fleet(program(), 3)).expect("spawn fleet");
    let pids = backend.worker_pids();
    assert_eq!(pids.len(), 3);
    drop(backend);
    assert_no_zombies(&pids);

    // A fleet whose worker never answers: Drop's bounded grace period
    // must escalate to kill and still reap it.
    let backend = Arc::new(faulty_fleet(1, &[("hang-after", 0)]));
    let pids = backend.worker_pids();
    let spec = UserSpec::new(8192, Precision::Int8).unwrap();
    let _ = explore(&spec, 29, Some(Arc::clone(&backend) as _));
    drop(backend);
    assert_no_zombies(&pids);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The fault-schedule determinism matrix: for every sampled
    /// fault ∈ {kill, corrupt, hang, stall, truncate}, fleet size
    /// ∈ {1,2,3} and injection point, the front and the evaluation
    /// accounting stay bit-identical to the macro backend, and the
    /// supervision ledger adds up exactly.
    #[test]
    fn fault_matrix_preserves_fronts_and_the_ledger(
        fault_idx in 0usize..5,
        fleet_size in 1usize..=3,
        inject in 0u64..2,
        seed in 0u64..1000,
    ) {
        let spec = UserSpec::new(16384, Precision::Int8).unwrap();
        let baseline = explore(&spec, seed, None);
        let fault: (&str, u64) = match fault_idx {
            0 => ("fail-after", inject),
            1 => ("corrupt-after", inject),
            2 => ("hang-after", inject),
            3 => ("truncate-after", inject),
            // A stall hits every response, so the injection point is
            // the stall length: always past the 500ms fleet deadline.
            _ => ("stall-ms", 1200),
        };
        let backend = Arc::new(faulty_fleet(fleet_size, &[fault]));
        let pids = backend.worker_pids();
        let run = explore(&spec, seed, Some(Arc::clone(&backend) as _));
        assert_matches_baseline(
            &run,
            &baseline,
            &format!("fault {fault:?} x{fleet_size}"),
        );
        let stats = backend.stats();
        assert_ledger(&stats);
        prop_assert_eq!(stats.respawns, 0, "restart budget is 0 here");
        prop_assert_eq!(stats.workers_spawned, fleet_size);
        prop_assert_eq!(stats.workers_alive, fleet_size - stats.worker_deaths as usize);
        // Work is conserved: every distinct geometry went through the
        // fleet exactly once (remotely or via in-process fallback).
        prop_assert_eq!(stats.geometries, run.distinct_evaluations as u64);
        prop_assert!(stats.fallback_geometries <= stats.geometries);
        drop(backend);
        assert_no_zombies(&pids);
    }
}

#[test]
fn whole_fleet_death_falls_back_in_process() {
    let spec = UserSpec::new(8192, Precision::Int8).unwrap();
    let baseline = explore(&spec, 3, None);
    // A single worker that dies on the very first request: every cohort
    // must be evaluated through the in-process fallback.
    let backend = Arc::new(faulty_fleet(1, &[("fail-after", 0)]));
    let run = explore(&spec, 3, Some(Arc::clone(&backend) as _));
    assert_matches_baseline(&run, &baseline, "fleet exhausted");
    let stats = backend.stats();
    assert_eq!(stats.worker_deaths, 1, "{stats:?}");
    assert_eq!(stats.workers_alive, 0, "{stats:?}");
    assert_eq!(
        stats.fallback_geometries as usize, run.distinct_evaluations,
        "everything must have been evaluated in-process: {stats:?}"
    );
    assert_eq!(stats.round_trips, 0, "{stats:?}");
}

#[test]
fn worker_snapshot_deltas_alone_warm_start_a_local_run() {
    let spec = UserSpec::new(16384, Precision::Int4).unwrap();
    let sink = Arc::new(SharedEvalCache::new());
    let backend = Arc::new(
        RemoteBackend::spawn(RemoteOptions::fleet(program(), 2))
            .expect("spawn fleet")
            .with_sink(Arc::clone(&sink)),
    );
    let remote_run = explore(&spec, 21, Some(Arc::clone(&backend) as _));
    // Every distinct estimate the run needed arrived as a delta entry.
    assert_eq!(sink.len(), remote_run.distinct_evaluations);
    assert_eq!(
        backend.stats().merged_entries as usize,
        remote_run.distinct_evaluations
    );
    // The deltas alone (no local estimator call ever wrote this cache)
    // fully warm-start an in-process rerun: 0 distinct evaluations and a
    // bit-identical front — the cache-merge law doing real work across
    // the process boundary.
    let warm = explore_pareto_with(
        &spec,
        &Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        &cfg(21),
        PipelineOptions {
            threads: 1,
            cache: true,
            min_batch_per_worker: 1,
            ..Default::default()
        }
        .with_shared_cache(sink),
    );
    assert_eq!(warm.distinct_evaluations, 0);
    assert_eq!(warm.objective_matrix(), remote_run.objective_matrix());
}

#[test]
fn one_fleet_serves_many_bindings() {
    // A batch-shaped workload: two specs with different precisions and
    // capacities through one fleet — the workers bind each key space on
    // first use and keep both memoized.
    let backend =
        Arc::new(RemoteBackend::spawn(RemoteOptions::fleet(program(), 2)).expect("spawn fleet"));
    for (wstore, precision, seed) in [
        (8192u64, Precision::Int8, 5u64),
        (16384, Precision::Bf16, 6),
    ] {
        let spec = UserSpec::new(wstore, precision).unwrap();
        let baseline = explore(&spec, seed, None);
        let run = explore(&spec, seed, Some(Arc::clone(&backend) as _));
        assert_matches_baseline(&run, &baseline, &format!("{precision} via shared fleet"));
    }
    let stats = backend.stats();
    assert_eq!(stats.worker_deaths, 0, "{stats:?}");
    assert_eq!(stats.workers_alive, 2, "{stats:?}");
}

#[test]
fn spawn_fails_loudly_for_a_missing_worker_binary() {
    let err = RemoteBackend::spawn(RemoteOptions::fleet("/nonexistent/sega-dcim", 1))
        .expect_err("spawn must fail");
    assert!(err.contains("cannot spawn worker"), "{err}");
}

#[test]
fn spawn_rejects_an_empty_fleet() {
    // An empty worker list must fail at spawn, not divide-by-zero later
    // in the shard partition — and `fleet(_, 0)` must not silently
    // clamp to one worker.
    for options in [
        RemoteOptions {
            workers: vec![],
            ..RemoteOptions::default()
        },
        RemoteOptions::fleet(program(), 0),
    ] {
        let err = RemoteBackend::spawn(options).expect_err("empty fleet must fail");
        assert!(err.contains("at least one worker"), "{err}");
    }
}

#[test]
fn partial_spawn_failure_reaps_the_spawned_workers() {
    // Worker 0 spawns fine; worker 1's program does not exist. The
    // spawn must fail AND reap worker 0 (no zombie left behind).
    let dir = std::env::temp_dir().join(format!("sega-partial-spawn-{}", std::process::id()));
    let options = RemoteOptions {
        workers: vec![
            WorkerCommand::serve(program()),
            WorkerCommand::serve("/nonexistent/sega-dcim"),
        ],
        log_dir: Some(dir.clone()),
        ..RemoteOptions::default()
    };
    let err = RemoteBackend::spawn(options).expect_err("partial spawn must fail");
    assert!(err.contains("cannot spawn worker"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spawn_rejects_a_peer_that_never_says_hello() {
    // `worker` without --serve prints an error and exits: no hello
    // frame. Its stderr goes to a scratch log dir to keep test output
    // clean.
    let dir = std::env::temp_dir().join(format!("sega-no-hello-{}", std::process::id()));
    let command = WorkerCommand {
        program: program(),
        args: vec!["worker".to_owned()],
    };
    let err = RemoteBackend::spawn(RemoteOptions {
        workers: vec![command],
        log_dir: Some(dir.clone()),
        ..RemoteOptions::default()
    })
    .expect_err("handshake must fail");
    assert!(err.contains("handshake failed"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

const TRANSPORTS: [TransportKind; 3] = [
    TransportKind::Stdio,
    TransportKind::Unix,
    TransportKind::Tcp,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The transport acceptance property (ISSUE 9): fronts and
    /// accounting are bit-identical across transport ∈ {stdio,
    /// unix-socket, tcp} × workers ∈ {1,2,3} × fault ∈ {none, kill-one,
    /// drop-conn-one, reconnect-one}, with the extended rejoin ledger
    /// law holding and no process leaked. The long backoff keeps the
    /// deterministic paths (bury → requeue → maybe rejoin) from racing
    /// a timed respawn on a slow runner.
    #[test]
    fn fronts_are_bit_identical_across_transports_and_connection_faults(
        transport_idx in 0usize..3,
        fleet_size in 1usize..=3,
        fault_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let transport = TRANSPORTS[transport_idx];
        let spec = UserSpec::new(16384, Precision::Int8).unwrap();
        let baseline = explore(&spec, seed, None);
        let mut options = RemoteOptions::fleet(program(), fleet_size)
            .with_transport(transport)
            .with_restart_budget(1)
            .with_backoff(Duration::from_secs(60), 0)
            .with_deadline(Duration::from_millis(500));
        let fault: Option<(&str, u64)> = match fault_idx {
            0 => None,
            1 => Some(("fail-after", 1)),
            2 => Some(("drop-conn-after", 1)),
            _ => Some(("reconnect-after", 1)),
        };
        if let Some((flag, n)) = fault {
            options.workers[0] = options.workers[0]
                .clone()
                .with_args([format!("--{flag}"), n.to_string()]);
        }
        let backend = Arc::new(RemoteBackend::spawn(options).expect("spawn fleet"));
        let pids = backend.worker_pids();
        let run = explore(&spec, seed, Some(Arc::clone(&backend) as _));
        assert_matches_baseline(
            &run,
            &baseline,
            &format!("{} x{fleet_size} fault {fault:?}", transport.name()),
        );
        let stats = backend.stats();
        assert_ledger(&stats);
        prop_assert_eq!(stats.transport, transport);
        prop_assert_eq!(stats.workers_spawned, fleet_size);
        prop_assert_eq!(stats.capacities.len(), fleet_size);
        if fault.is_none() {
            prop_assert_eq!(stats.worker_deaths, 0, "{:?}", stats);
            prop_assert_eq!(stats.workers_alive, fleet_size, "{:?}", stats);
        }
        // Rejoining is a socket-transport concept: a stdio worker's link
        // and process die together, so nothing can ever come back.
        if transport == TransportKind::Stdio {
            prop_assert_eq!(stats.rejoins, 0, "{:?}", stats);
        }
        // Work is conserved under every fault: each distinct geometry
        // was evaluated exactly once, remotely or via fallback.
        prop_assert_eq!(stats.geometries, run.distinct_evaluations as u64);
        drop(backend);
        assert_no_zombies(&pids);
    }
}

#[test]
fn a_worker_that_never_says_hello_cannot_stall_fleet_construction() {
    // Worker 0 sleeps 60s before its hello — far past the 300ms
    // deadline. Spawning the fleet must return promptly with the silent
    // peer entombed (a timeout AND a death, retry scheduled under the
    // budget), and the survivor must carry the run to the bit-identical
    // front.
    let spec = UserSpec::new(8192, Precision::Int8).unwrap();
    let baseline = explore(&spec, 31, None);
    let mut options = RemoteOptions::fleet(program(), 2)
        .with_restart_budget(1)
        .with_backoff(Duration::from_secs(120), 0)
        .with_deadline(Duration::from_millis(300));
    options.workers[0] = options.workers[0]
        .clone()
        .with_args(["--late-hello-ms".to_owned(), "60000".to_owned()]);
    let started = std::time::Instant::now();
    let backend = Arc::new(RemoteBackend::spawn(options).expect("spawn proceeds past the mute"));
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "construction must not wait out the 60s mute"
    );
    let pids = backend.worker_pids();
    let run = explore(&spec, 31, Some(Arc::clone(&backend) as _));
    assert_matches_baseline(&run, &baseline, "late hello at spawn");
    let stats = backend.stats();
    assert_eq!(stats.timeouts, 1, "{stats:?}");
    assert_eq!(stats.worker_deaths, 1, "{stats:?}");
    assert_eq!(stats.workers_alive, 1, "{stats:?}");
    assert_eq!(stats.respawns, 0, "backoff holds the retry: {stats:?}");
    assert_ledger(&stats);
    drop(backend);
    assert_no_zombies(&pids);
}

#[test]
fn a_dropped_socket_worker_reconnects_and_rejoins() {
    // Socket fleet of 2; worker 0 drops its connection after one served
    // request but keeps running and redials. The coordinator buries +
    // requeues it (front stays bit-identical), then readopts the parked
    // link under the budget — `rejoins` must tick without any fresh
    // process. The 60s backoff guarantees a respawn can never race the
    // rejoin; explorations keep giving the supervisor maintenance passes
    // until the adoption lands or a 20 s deadline passes (the redial's
    // timing depends on the host, not on how many explorations ran).
    let spec = UserSpec::new(16384, Precision::Int8).unwrap();
    let mut options = RemoteOptions::fleet(program(), 2)
        .with_transport(TransportKind::Unix)
        .with_restart_budget(1)
        .with_backoff(Duration::from_secs(60), 0)
        .with_deadline(Duration::from_secs(5));
    options.workers[0] = options.workers[0]
        .clone()
        .with_args(["--reconnect-after".to_owned(), "1".to_owned()]);
    let backend = Arc::new(RemoteBackend::spawn(options).expect("spawn fleet"));
    let pids = backend.worker_pids();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    for seed in 0u64.. {
        let baseline = explore(&spec, seed, None);
        let run = explore(&spec, seed, Some(Arc::clone(&backend) as _));
        assert_matches_baseline(&run, &baseline, "reconnect fault");
        if backend.stats().rejoins >= 1 || std::time::Instant::now() > deadline {
            break;
        }
    }
    let stats = backend.stats();
    assert!(stats.rejoins >= 1, "worker never rejoined: {stats:?}");
    assert_eq!(stats.respawns, 0, "rejoin must beat the respawn: {stats:?}");
    assert_eq!(stats.workers_alive, 2, "{stats:?}");
    assert_ledger(&stats);
    drop(backend);
    assert_no_zombies(&pids);
}

#[test]
fn worker_logs_land_in_the_log_dir() {
    let dir = std::env::temp_dir().join(format!("sega-worker-logs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = RemoteBackend::spawn(RemoteOptions::fleet(program(), 2).with_log_dir(&dir))
        .expect("spawn fleet");
    drop(backend);
    for index in 0..2 {
        assert!(
            dir.join(format!("worker-{index}.log")).is_file(),
            "missing worker-{index}.log"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon in front of a 2-worker fleet serves two clients at once, so
/// two batch jobs interleave their cohorts on one fleet (the in-flight
/// stash path): both clients still get the in-process fronts.
#[test]
fn a_daemon_fleet_serves_two_concurrent_clients() {
    let cache = Arc::new(SharedEvalCache::new());
    let backend = Arc::new(
        RemoteBackend::spawn(RemoteOptions::fleet(program(), 2))
            .expect("spawn fleet")
            .with_sink(Arc::clone(&cache)),
    );
    let pids = backend.worker_pids();
    let addr = ListenAddr::Unix(
        std::env::temp_dir().join(format!("sega-daemon-fleet-{}.sock", std::process::id())),
    );
    let mut options = ServeOptions::new(addr.clone());
    options.threads = 1;
    options.cache = Some(cache);
    options.backend = Some(Arc::clone(&backend) as _);
    let daemon = std::thread::spawn(move || serve(options));

    let batches: Vec<Vec<BatchJob>> = [
        r#"[{"wstore": 8192, "precision": "int8", "population": 16, "generations": 10, "seed": 21}]"#,
        r#"[{"wstore": 16384, "precision": "fp32", "population": 16, "generations": 10, "seed": 22}]"#,
    ]
    .iter()
    .map(|text| parse_jobs(text, &Nsga2Config::default()).unwrap())
    .collect();
    let start = std::sync::Barrier::new(batches.len());
    let served: Vec<_> = std::thread::scope(|s| {
        let clients: Vec<_> = batches
            .iter()
            .map(|jobs| {
                let (addr, start) = (&addr, &start);
                s.spawn(move || {
                    start.wait();
                    run_batch_connected(addr, jobs, false)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread").expect("client"))
            .collect()
    });
    for (report, jobs) in served.iter().zip(&batches) {
        let local = run_batch(
            jobs,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            PipelineOptions::default(),
        );
        assert_eq!(
            report.outcomes[0].result.objective_matrix(),
            local.outcomes[0].result.objective_matrix(),
            "a fleet-served concurrent job diverged from the in-process front"
        );
        assert_eq!(report.evaluations, local.evaluations);
    }
    run_batch_connected(&addr, &[], true).expect("drain");
    let report = daemon.join().expect("daemon thread").expect("daemon exit");
    assert_eq!(report.jobs, 2, "{report:?}");
    assert!(report.drained_clean, "{report:?}");
    let stats = backend.stats();
    assert_eq!(stats.worker_deaths, 0, "{stats:?}");
    assert_eq!(stats.fallback_geometries, 0, "{stats:?}");
    assert!(
        stats.round_trips > 0,
        "the fleet served no cohort: {stats:?}"
    );
    drop(backend);
    assert_no_zombies(&pids);
}
