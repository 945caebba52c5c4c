//! The remote evaluation backend: cohorts shipped to a fleet of worker
//! **processes** over the `sega_wire` framed protocol — the transport +
//! pipelined-dispatch layer the `EvalBackend` seam was built for.
//!
//! # Topology
//!
//! [`RemoteBackend::spawn`] launches N workers (`sega-dcim worker
//! --serve` by default); each worker answers [`sega_wire::frame`]
//! eval-requests until shutdown or transport EOF. One fleet serves every
//! binding the backend hands out, so a whole batch run — many specs,
//! many precisions — shares the same N processes, and each worker
//! memoizes its own [`SharedEvalCache`] across requests.
//!
//! # Transport
//!
//! The frame protocol is stream-agnostic, and the fleet link is a
//! pluggable [`TransportKind`] seam: **stdio** (piped child stdin/stdout,
//! the default), **unix-socket**, and **tcp** (loopback). Socket workers
//! are launched with `worker --connect ADDR` and dial back into the
//! coordinator's accept hub, where their capability hello
//! ([`sega_wire::frame::Hello`]: protocol version, capacity weight,
//! armed faults) is read under the same deadline as any request; the
//! negotiated capacity weights drive [`worker_of_weighted`], the
//! weighted shard partition that replaces static shard-mod when a
//! heterogeneous fleet reports uneven capacities (an all-ones fleet
//! partitions exactly like the historical `hash % N`). The front is
//! bit-identical across every transport and weighting — partitioning
//! only decides *where* a deterministic function is computed.
//!
//! # Dispatch
//!
//! [`CohortEvaluator::evaluate_cohort`] splits the (already
//! deduplicated) cohort by the same Fx-hash shard function the
//! [`KeySpace`](crate::cache::KeySpace) uses, writes **all** sub-cohort
//! requests before reading any response — the workers compute
//! concurrently while the coordinator is still dispatching — then
//! collects responses in order. Results merge back twice, and both
//! merges are order-insensitive by construction: the objective rows
//! scatter into cohort slots by index, and each response's snapshot
//! *delta* (the entries the worker computed fresh) folds into the
//! backend's sink cache through [`SharedEvalCache::load`], whose union
//! semantics are commutative and idempotent. That is why the front is
//! **bit-identical for every worker count**: partitioning only decides
//! *where* a deterministic function is computed.
//!
//! # Failure semantics: the worker lifecycle
//!
//! Every worker moves through a supervised lifecycle: **healthy** →
//! (**stalled** | **buried**) → **respawning** → **rejoined**. Each
//! outstanding request carries a deadline (worker I/O runs on a
//! reader-thread-per-worker, so the coordinator never blocks on a pipe):
//! a worker that misses it is *stalled* and treated exactly like a
//! death. A worker that dies (EOF/IO error), answers garbage (frame or
//! wire decode error), answers the wrong shape (id/row-count mismatch),
//! or stalls is **buried** — killed, reaped, its sub-cohort **requeued**
//! to a surviving worker — and, while its per-worker restart budget
//! lasts, scheduled for **respawn** under jittered exponential backoff
//! (deterministic for a given [`RemoteOptions::backoff_seed`]). A
//! respawned worker re-handshakes through the same versioned hello and
//! *rejoins* the [`FleetState::assign`] rotation. On a socket transport
//! a dropped worker has a second path back: the still-running process may
//! **reconnect** on its own and, while its retry window is open, be
//! *adopted* back into its rotation slot without a relaunch — counted in
//! [`RemoteStats::rejoins`], never double-counting in-flight work (the
//! buried connection's sub-cohort was already requeued at bury time).
//! The hello exchange itself runs under the per-request deadline, at
//! first spawn and on every reconnect: a worker that launches (or
//! connects) and never says hello is counted in
//! [`RemoteStats::timeouts`], buried like a stall, and fleet
//! construction proceeds without it. When the whole fleet is gone and no
//! respawn is due, the sub-cohort is evaluated in-process through the
//! bound macro-model fallback. Every path produces exactly one row per
//! requested geometry, so `EvalStats` accounting stays exact — and the
//! front stays bit-identical — under any fault schedule; the
//! [`RemoteStats`] ledger always satisfies
//! `workers_alive == workers_spawned − worker_deaths + respawns + rejoins`
//! and `timeouts ≤ worker_deaths`.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sega_cells::Technology;
use sega_estimator::{OperatingConditions, Precision};
use sega_parallel::Pool;
use sega_wire::frame::{
    self, EvalRequest, EvalResponse, FrameError, Hello, Message, PROTOCOL_VERSION,
};
use sega_wire::snapshot::{EntryRecord, SpaceRecord};
use sega_wire::{GeometryRecord, KeyRecord, Snapshot};

use crate::backend::{CohortEvaluator, EvalBackend, MacroModelBackend};
use crate::cache::{CacheKey, FxHasher, SharedEvalCache};
use crate::explore::{Geometry, ParetoSolution};
use crate::serve::{connect_with_retry, ListenAddr, Listener, Stream};
use crate::spec::UserSpec;

/// The fleet link: how the coordinator and its worker processes talk.
/// The frame protocol, the supervision laws, and the resulting fronts
/// are identical on every variant — only the byte pipe differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Piped child stdin/stdout — the zero-configuration default.
    #[default]
    Stdio,
    /// A Unix domain socket under the temp dir; workers dial back in
    /// with `worker --connect`, which enables reconnect-and-rejoin.
    Unix,
    /// A loopback TCP socket (`127.0.0.1:0`, port negotiated at bind) —
    /// the machine-spanning transport, exercised here on localhost.
    Tcp,
}

impl TransportKind {
    /// The report/CLI name: `stdio`, `unix-socket` or `tcp`.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Stdio => "stdio",
            TransportKind::Unix => "unix-socket",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parses a CLI `--transport` value.
    ///
    /// # Errors
    ///
    /// Names the accepted values.
    pub fn parse(raw: &str) -> Result<TransportKind, String> {
        match raw {
            "stdio" => Ok(TransportKind::Stdio),
            "unix" | "unix-socket" => Ok(TransportKind::Unix),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!(
                "unknown transport `{other}` (expected stdio, unix or tcp)"
            )),
        }
    }
}

/// How to launch one worker process.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// The executable (normally the `sega-dcim` binary itself).
    pub program: PathBuf,
    /// Its arguments (normally `worker --serve`, plus fault-injection
    /// flags in tests).
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// The standard serving worker for `program`.
    pub fn serve(program: impl Into<PathBuf>) -> WorkerCommand {
        WorkerCommand {
            program: program.into(),
            args: vec!["worker".to_owned(), "--serve".to_owned()],
        }
    }

    /// Appends extra arguments (fault-injection knobs, log verbosity).
    #[must_use]
    pub fn with_args(mut self, extra: impl IntoIterator<Item = String>) -> WorkerCommand {
        self.args.extend(extra);
        self
    }
}

/// Default per-request deadline: generous enough that a healthy worker
/// under CI load never trips it, small enough that a hung fleet member
/// cannot stall a batch for long.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Default per-worker respawn budget.
pub const DEFAULT_RESTART_BUDGET: u32 = 2;

/// Default base of the exponential respawn backoff.
pub const DEFAULT_BACKOFF_BASE: Duration = Duration::from_millis(250);

/// Fleet configuration for [`RemoteBackend::spawn`].
///
/// The supervisor appends `--worker-id <index>` (and `--log` when
/// [`log_dir`](Self::log_dir) is set) to every worker launch, so log
/// lines carry stable identities across respawns.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// One launch command per worker.
    pub workers: Vec<WorkerCommand>,
    /// When set, each worker's stderr goes to
    /// `<log_dir>/worker-<index>.log` instead of being inherited (CI
    /// uploads these as artifacts). The directory is created if missing;
    /// log files are opened in append mode so a respawned worker
    /// continues its predecessor's log instead of erasing the evidence.
    pub log_dir: Option<PathBuf>,
    /// How long the coordinator waits for any single response before
    /// declaring the worker stalled and requeueing its sub-cohort.
    pub deadline: Duration,
    /// How many times a buried worker may be respawned. `0` disables
    /// respawning (the PR-5 shrink-only fleet behaviour).
    pub restart_budget: u32,
    /// Base delay of the exponential respawn backoff: attempt `n` waits
    /// `backoff_base · 2ⁿ · jitter` with jitter in `[1, 2)`. A zero base
    /// respawns immediately (deterministic tests).
    pub backoff_base: Duration,
    /// Seed of the deterministic backoff jitter — the same seed, worker
    /// index and attempt always yield the same delay.
    pub backoff_seed: u64,
    /// The fleet link. Socket transports additionally enable the
    /// reconnect-and-rejoin path (see [`RemoteStats::rejoins`]).
    pub transport: TransportKind,
}

impl Default for RemoteOptions {
    /// An empty fleet (which [`RemoteBackend::spawn`] rejects) with the
    /// default supervision knobs — the base for struct-update syntax.
    fn default() -> RemoteOptions {
        RemoteOptions {
            workers: Vec::new(),
            log_dir: None,
            deadline: DEFAULT_DEADLINE,
            restart_budget: DEFAULT_RESTART_BUDGET,
            backoff_base: DEFAULT_BACKOFF_BASE,
            backoff_seed: 0,
            transport: TransportKind::Stdio,
        }
    }
}

impl RemoteOptions {
    /// A homogeneous fleet of `workers` copies of
    /// [`WorkerCommand::serve`]`(program)`. A count of zero yields an
    /// empty fleet, which [`RemoteBackend::spawn`] rejects loudly — a
    /// miscomputed size should fail, not silently run single-worker.
    pub fn fleet(program: impl Into<PathBuf>, workers: usize) -> RemoteOptions {
        let command = WorkerCommand::serve(program.into());
        RemoteOptions {
            workers: vec![command; workers],
            ..RemoteOptions::default()
        }
    }

    /// Routes worker stderr to per-worker log files under `dir`.
    #[must_use]
    pub fn with_log_dir(mut self, dir: impl Into<PathBuf>) -> RemoteOptions {
        self.log_dir = Some(dir.into());
        self
    }

    /// Sets the per-request deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> RemoteOptions {
        self.deadline = deadline;
        self
    }

    /// Sets the per-worker respawn budget (`0` disables respawning).
    #[must_use]
    pub fn with_restart_budget(mut self, budget: u32) -> RemoteOptions {
        self.restart_budget = budget;
        self
    }

    /// Sets the backoff base and jitter seed.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, seed: u64) -> RemoteOptions {
        self.backoff_base = base;
        self.backoff_seed = seed;
        self
    }

    /// Sets the fleet link (default [`TransportKind::Stdio`]).
    #[must_use]
    pub fn with_transport(mut self, transport: TransportKind) -> RemoteOptions {
        self.transport = transport;
        self
    }
}

/// A point-in-time copy of the fleet's traffic counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RemoteStats {
    /// Request/response exchanges completed successfully.
    pub round_trips: u64,
    /// Sub-cohorts re-dispatched after a worker failure.
    pub requeues: u64,
    /// Responses that missed the per-request deadline (the worker was
    /// declared stalled and buried; every timeout is also counted in
    /// [`worker_deaths`](Self::worker_deaths)).
    pub timeouts: u64,
    /// Workers that transitioned alive → dead.
    pub worker_deaths: u64,
    /// Buried workers successfully *relaunched* by the supervisor. The
    /// ledger `workers_alive == workers_spawned − worker_deaths +
    /// respawns + rejoins` holds at every quiescent point.
    pub respawns: u64,
    /// Buried socket workers whose still-running process reconnected on
    /// its own and was adopted back into its rotation slot — the
    /// relaunch-free half of the recovery ledger.
    pub rejoins: u64,
    /// Geometries evaluated in-process because no worker survived.
    pub fallback_geometries: u64,
    /// Geometries evaluated across the fleet (remote or fallback).
    pub geometries: u64,
    /// Cache entries installed into the sink from worker deltas.
    pub merged_entries: u64,
    /// Workers still alive right now.
    pub workers_alive: usize,
    /// Workers the fleet was spawned with.
    pub workers_spawned: usize,
    /// The fleet link the stats describe.
    pub transport: TransportKind,
    /// Per-worker negotiated capacity weights (hello capability
    /// exchange), in worker-index order — the weights
    /// [`worker_of_weighted`] partitions by.
    pub capacities: Vec<u32>,
}

#[derive(Debug, Default)]
struct RemoteCounters {
    round_trips: AtomicU64,
    requeues: AtomicU64,
    timeouts: AtomicU64,
    worker_deaths: AtomicU64,
    respawns: AtomicU64,
    rejoins: AtomicU64,
    fallback_geometries: AtomicU64,
    geometries: AtomicU64,
    merged_entries: AtomicU64,
}

/// `counters.round_trips.add(1)` — all counters are monotonic tallies.
trait Tally {
    fn add(&self, n: u64);
}

impl Tally for AtomicU64 {
    fn add(&self, n: u64) {
        self.fetch_add(n, Ordering::Relaxed);
    }
}

/// The coordinator's write half of one worker link.
#[derive(Debug)]
enum WriteHalf {
    /// The child's piped stdin (stdio transport).
    Stdio(ChildStdin),
    /// The accepted socket connection (unix/tcp transport).
    Socket(Stream),
}

impl Write for WriteHalf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            WriteHalf::Stdio(stdin) => stdin.write(buf),
            WriteHalf::Socket(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            WriteHalf::Stdio(stdin) => stdin.flush(),
            WriteHalf::Socket(stream) => stream.flush(),
        }
    }
}

/// One fleet member: its framed write half plus the reader thread
/// draining its read half into a channel, so receives can carry a
/// deadline (`recv_timeout`) instead of blocking the coordinator on a
/// link a hung worker will never write to.
#[derive(Debug)]
struct WorkerHandle {
    /// The launched process. `None` only transiently, while a rejoin
    /// adoption moves the handle to the reconnected link — the process
    /// of a soft-buried socket worker stays owned (and is reaped at
    /// respawn or fleet drop) even while its connection is gone.
    child: Option<Child>,
    /// OS pid at spawn time — kept for the zombie audit after the child
    /// handle has been reaped.
    pid: u32,
    writer: Option<WriteHalf>,
    /// Frames (or the terminal transport error) from the reader thread.
    incoming: Receiver<Result<Message, FrameError>>,
    /// Responses drained off the channel while looking for a different
    /// correlation id — when the mixed-precision fan-out runs several
    /// explorations over one shared backend, their cohorts can be in
    /// flight at once and worker responses arrive interleaved, so a
    /// collect waiting for its own id must park the others here rather
    /// than drop them.
    stash: HashMap<u64, EvalResponse>,
    reader: Option<JoinHandle<()>>,
    alive: bool,
    /// The partition weight this worker's hello negotiated (≥ 1).
    capacity: u32,
}

impl WorkerHandle {
    fn send(&mut self, message: &Message) -> Result<(), FrameError> {
        match &mut self.writer {
            Some(writer) => frame::send(writer, message),
            None => Err(FrameError::Eof),
        }
    }

    /// The next frame, or [`FrameError::Timeout`] after `deadline` — the
    /// hang-detection primitive. A disconnected channel means the reader
    /// thread exited after forwarding its terminal error, so whatever
    /// remains is an orderly EOF.
    fn recv_deadline(&mut self, deadline: Duration) -> Result<Message, FrameError> {
        match self.incoming.recv_timeout(deadline) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => Err(FrameError::Timeout { waited: deadline }),
            Err(RecvTimeoutError::Disconnected) => Err(FrameError::Eof),
        }
    }

    /// `true` when the link is a socket — the transports whose buried
    /// workers may reconnect and rejoin.
    fn is_socket(&self) -> bool {
        matches!(self.writer, Some(WriteHalf::Socket(_)))
    }

    /// Tears down the transport link and joins the reader thread. The
    /// socket shutdown wakes a reader blocked on a socket; a stdio
    /// reader blocked on the child's stdout only wakes at pipe EOF, so
    /// `kill` must reap the process *before* calling this.
    fn close_link(&mut self) {
        self.alive = false;
        if let Some(WriteHalf::Socket(stream)) = &self.writer {
            stream.disconnect();
        }
        self.writer = None;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }

    /// Soft bury (socket transports): the link dies, the process keeps
    /// running — it may reconnect and rejoin while the retry window is
    /// open, and is reaped at respawn or fleet drop otherwise.
    fn disconnect(&mut self) {
        self.close_link();
    }

    /// Hard bury: marks the worker dead, reaps the process and joins the
    /// reader thread. The process dies first: a hung stdio worker's
    /// reader is blocked on its stdout pipe and only the EOF from the
    /// child's death can wake it for the join in `close_link`.
    fn kill(&mut self) {
        self.alive = false;
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.close_link();
    }
}

/// Per-worker supervision bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct Supervision {
    /// Respawn attempts consumed (successful or not).
    restarts: u32,
    /// When the next respawn attempt is due; `None` when none is
    /// scheduled (healthy, or budget exhausted).
    retry_at: Option<Instant>,
}

/// The supervision knobs, copied out of [`RemoteOptions`] at spawn.
#[derive(Debug, Clone, Copy)]
struct SupervisionConfig {
    deadline: Duration,
    restart_budget: u32,
    backoff_base: Duration,
    backoff_seed: u64,
    transport: TransportKind,
}

/// The socket accept hub: the listener the fleet's workers dial back
/// into, and the parking lot where their capability hellos wait for the
/// supervisor. The accept thread reads each connection's hello under the
/// per-request deadline (a connected-but-mute peer is cut loose, never
/// awaited), then parks the identified link by its `peer_id` — the
/// worker index whose rotation slot it claims. Both initial spawns and
/// reconnecting workers arrive through the same lot; the spawn loop and
/// [`Fleet::maintain`]'s rejoin pass are the only consumers.
#[derive(Debug)]
struct HubShared {
    /// Identified links waiting for adoption, by claimed worker index.
    /// A worker reconnecting twice replaces its stale parked link.
    pending: Mutex<HashMap<u64, (Stream, Hello)>>,
    stop: AtomicBool,
    /// Live connections whose hello is still being read — counted so a
    /// spawn poll can distinguish "not yet connected" from "connected,
    /// hello in flight" near the deadline edge.
    greeting: AtomicUsize,
}

#[derive(Debug)]
struct SocketHub {
    addr: ListenAddr,
    shared: Arc<HubShared>,
    thread: Option<JoinHandle<()>>,
}

impl SocketHub {
    /// Binds a fresh coordinator listen address for `transport` and
    /// starts the accept thread.
    fn start(transport: TransportKind, hello_deadline: Duration) -> Result<SocketHub, String> {
        static NEXT_HUB: AtomicU64 = AtomicU64::new(0);
        let requested = match transport {
            TransportKind::Unix => ListenAddr::Unix(std::env::temp_dir().join(format!(
                "sega-fleet-{}-{}.sock",
                std::process::id(),
                NEXT_HUB.fetch_add(1, Ordering::Relaxed)
            ))),
            TransportKind::Tcp => ListenAddr::Tcp("127.0.0.1:0".to_owned()),
            TransportKind::Stdio => return Err("stdio transport has no socket hub".to_owned()),
        };
        let (listener, addr) = Listener::bind(&requested)
            .map_err(|e| format!("cannot bind fleet hub `{requested}`: {e}"))?;
        listener
            .set_nonblocking()
            .map_err(|e| format!("cannot poll fleet hub `{addr}`: {e}"))?;
        let shared = Arc::new(HubShared {
            pending: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            greeting: AtomicUsize::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("sega-fleet-hub".to_owned())
            .spawn(move || {
                while !accept_shared.stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok(mut stream) => {
                            accept_shared.greeting.fetch_add(1, Ordering::SeqCst);
                            // The hello runs under the same deadline as
                            // any request: a mute peer is dropped here.
                            let _ = stream.set_read_timeout(Some(hello_deadline));
                            if let Ok(Message::Hello(hello)) = frame::recv(&mut stream) {
                                if hello.role == "worker" {
                                    let _ = stream.set_read_timeout(None);
                                    accept_shared
                                        .pending
                                        .lock()
                                        .expect("hub lot poisoned")
                                        .insert(hello.peer_id, (stream, hello));
                                }
                            }
                            accept_shared.greeting.fetch_sub(1, Ordering::SeqCst);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
            .map_err(|e| format!("cannot start fleet hub thread: {e}"))?;
        Ok(SocketHub {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    /// Waits up to `deadline` for the link claiming worker index `index`
    /// to finish its hello and park. `None` is the hello timeout.
    fn claim(&self, index: usize, deadline: Duration) -> Option<(Stream, Hello)> {
        let due = Instant::now() + deadline;
        loop {
            if let Some(parked) = self
                .shared
                .pending
                .lock()
                .expect("hub lot poisoned")
                .remove(&(index as u64))
            {
                return Some(parked);
            }
            // Grace past the nominal deadline while a hello is actively
            // in flight, so a worker that connected in time is not
            // tombstoned over scheduler jitter in the accept thread.
            if Instant::now() >= due && self.shared.greeting.load(Ordering::SeqCst) == 0 {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Discards a stale parked link for worker `index`, if any.
    fn evict(&self, index: usize) {
        self.shared
            .pending
            .lock()
            .expect("hub lot poisoned")
            .remove(&(index as u64));
    }
}

impl Drop for SocketHub {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[derive(Debug)]
struct FleetState {
    workers: Vec<WorkerHandle>,
    supervise: Vec<Supervision>,
    /// The launch commands, kept so a buried worker can be respawned
    /// with its original configuration.
    commands: Vec<WorkerCommand>,
    log_dir: Option<PathBuf>,
    next_id: u64,
}

impl FleetState {
    /// The worker to dispatch shard `preferred` to: itself when alive,
    /// else the next alive worker scanning upward (deterministic, so a
    /// degraded fleet still partitions stably). `None` when every worker
    /// is dead.
    fn assign(&self, preferred: usize) -> Option<usize> {
        let n = self.workers.len();
        (0..n)
            .map(|offset| (preferred + offset) % n)
            .find(|&w| self.workers[w].alive)
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn alive_count(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }
}

/// SplitMix64 — the deterministic jitter generator (self-contained, no
/// RNG dependency; good dispersion from sequential seeds).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The delay before respawn attempt `attempt` of worker `w`:
/// `base · 2^attempt · jitter`, jitter deterministically in `[1, 2)`
/// from `(seed, worker, attempt)` — so colliding respawns of different
/// workers spread out, yet a seeded test replays the exact schedule.
fn backoff_delay(config: &SupervisionConfig, worker: usize, attempt: u32) -> Duration {
    let doubled = config.backoff_base.saturating_mul(1u32 << attempt.min(16));
    let bits = splitmix64(config.backoff_seed ^ ((worker as u64) << 32) ^ u64::from(attempt));
    let jitter = 1.0 + (bits >> 11) as f64 / (1u64 << 53) as f64;
    doubled.mul_f64(jitter)
}

/// How long [`Fleet::drop`] waits for workers to exit after the shutdown
/// frame before force-killing them — a dead coordinator must never hang
/// on a hung worker.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// The spawned worker fleet: shared by every evaluator the backend
/// binds. The transport exchange of one cohort holds the fleet lock, so
/// concurrent explorations serialize at the pipe (the workers themselves
/// still compute one cohort's sub-cohorts concurrently).
#[derive(Debug)]
struct Fleet {
    state: Mutex<FleetState>,
    counters: RemoteCounters,
    spawned: usize,
    config: SupervisionConfig,
    /// The socket accept hub (`None` on stdio) — reconnecting workers
    /// park here until the rejoin pass adopts them.
    hub: Option<SocketHub>,
}

impl Fleet {
    /// Buries worker `w` (counted once per transition) and, while the
    /// restart budget lasts, schedules a backed-off respawn. On stdio
    /// the process is killed and reaped with its link; on a socket
    /// transport only the *link* dies — the process may reconnect and
    /// rejoin inside the retry window (the rejoin pass), and is reaped
    /// at respawn or fleet drop otherwise. Either way the sub-cohort was
    /// already requeued by the caller, so a later rejoin can never
    /// double-count in-flight work.
    fn bury(&self, state: &mut FleetState, w: usize) {
        if !state.workers[w].alive {
            return;
        }
        if state.workers[w].is_socket() {
            state.workers[w].disconnect();
        } else {
            state.workers[w].kill();
        }
        self.counters.worker_deaths.add(1);
        let sup = &mut state.supervise[w];
        if sup.restarts < self.config.restart_budget {
            sup.retry_at = Some(Instant::now() + backoff_delay(&self.config, w, sup.restarts));
        }
    }

    /// The recovery pass, two halves. **Rejoin** (socket transports):
    /// a buried worker whose still-running process has reconnected and
    /// parked in the hub is adopted back into its rotation slot — no
    /// relaunch, counted in `rejoins`, budget charged like a respawn.
    /// **Respawn**: every buried worker whose backoff has elapsed is
    /// relaunched with its original command and re-handshaken; on
    /// success it rejoins the [`FleetState::assign`] rotation. Called at
    /// cohort start and inside the recovery loop — never from a timer,
    /// so a quiet backend spawns nothing behind the caller's back.
    ///
    /// A rejoined worker simply resumes: the sub-cohort lost with its
    /// link was already requeued, and every row is a pure function of
    /// the request.
    fn maintain(&self, state: &mut FleetState) {
        if let Some(hub) = &self.hub {
            for w in 0..state.workers.len() {
                if state.workers[w].alive || state.supervise[w].retry_at.is_none() {
                    // Healthy, or retry budget closed: any parked link
                    // for this slot is stale — drop it.
                    hub.evict(w);
                    continue;
                }
                let Some((stream, hello)) = hub
                    .shared
                    .pending
                    .lock()
                    .expect("hub lot poisoned")
                    .remove(&(w as u64))
                else {
                    continue;
                };
                if hello.protocol != PROTOCOL_VERSION {
                    continue;
                }
                // The reconnecting process IS the child this handle
                // already owns — move it into the adopted handle, never
                // kill it.
                let child = state.workers[w].child.take();
                let pid = state.workers[w].pid;
                match adopt_link(child, pid, stream, &hello, w) {
                    Ok(handle) => {
                        state.workers[w] = handle;
                        state.supervise[w].restarts += 1;
                        state.supervise[w].retry_at = None;
                        self.counters.rejoins.add(1);
                    }
                    Err(e) => {
                        eprintln!("warning: rejoin of worker {w} failed: {e}");
                    }
                }
            }
        }
        let now = Instant::now();
        for w in 0..state.workers.len() {
            if state.workers[w].alive || !matches!(state.supervise[w].retry_at, Some(t) if t <= now)
            {
                continue;
            }
            state.supervise[w].retry_at = None;
            let attempt = state.supervise[w].restarts;
            // A fresh launch replaces whatever is left of the old
            // incarnation: reap its (soft-buried) process and discard
            // any stale parked reconnect, so the hub key is free for the
            // relaunch's hello.
            if let Some(child) = state.workers[w].child.as_mut() {
                let _ = child.kill();
                let _ = child.wait();
            }
            if let Some(hub) = &self.hub {
                hub.evict(w);
            }
            let respawned = spawn_worker_on(
                &state.commands[w],
                w,
                state.log_dir.as_deref(),
                &self.config,
                self.hub.as_ref(),
            );
            match respawned {
                Ok(worker) => {
                    state.workers[w] = worker;
                    state.supervise[w].restarts = attempt + 1;
                    self.counters.respawns.add(1);
                }
                Err(SpawnError::HelloTimeout(tombstone)) => {
                    // The relaunch came up but never said hello inside
                    // the deadline: it was killed and entombed. Count
                    // the full cycle — respawn, timeout, death — so the
                    // ledger stays balanced (net-zero on `alive`) and
                    // `timeouts ≤ worker_deaths` still holds.
                    state.workers[w] = *tombstone;
                    self.counters.respawns.add(1);
                    self.counters.timeouts.add(1);
                    self.counters.worker_deaths.add(1);
                    let sup = &mut state.supervise[w];
                    sup.restarts = attempt + 1;
                    if sup.restarts < self.config.restart_budget {
                        sup.retry_at =
                            Some(Instant::now() + backoff_delay(&self.config, w, sup.restarts));
                    }
                }
                Err(SpawnError::Fatal(e)) => {
                    eprintln!("warning: respawn of worker {w} failed: {e}");
                    let sup = &mut state.supervise[w];
                    sup.restarts = attempt + 1;
                    if sup.restarts < self.config.restart_budget {
                        sup.retry_at =
                            Some(Instant::now() + backoff_delay(&self.config, w, sup.restarts));
                    }
                }
            }
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let mut state = match self.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Ask every live worker to exit, then close its link — a
        // healthy worker leaves on either signal.
        for worker in &mut state.workers {
            if worker.alive {
                let _ = worker.send(&Message::Shutdown);
                if let Some(WriteHalf::Socket(stream)) = &worker.writer {
                    stream.disconnect();
                }
                worker.writer = None;
            }
        }
        // Bounded wait: a worker that ignores the shutdown (hung fault
        // injection, wedged estimator) is force-killed at the grace
        // deadline, so dropping a backend can never hang the process —
        // and every child is reaped, so none is left a zombie. Dead
        // workers are reaped too: a soft-buried socket worker's process
        // outlives its link on purpose (the rejoin window), and this is
        // where that purpose ends.
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for worker in &mut state.workers {
            if let Some(child) = worker.child.as_mut() {
                if worker.alive {
                    loop {
                        match child.try_wait() {
                            Ok(Some(_)) | Err(_) => break,
                            Ok(None) => {
                                if Instant::now() >= deadline {
                                    let _ = child.kill();
                                    let _ = child.wait();
                                    break;
                                }
                                std::thread::sleep(Duration::from_millis(5));
                            }
                        }
                    }
                } else {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
            worker.alive = false;
            if let Some(reader) = worker.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// [`EvalBackend`] over a fleet of worker processes. See the module docs
/// for the protocol and failure semantics.
#[derive(Debug)]
pub struct RemoteBackend {
    fleet: Arc<Fleet>,
    /// Worker snapshot deltas are union-merged here. Defaults to a
    /// private cache; [`RemoteBackend::with_sink`] points it at a shared
    /// one so a batch run's `--cache-file` persists remote results.
    sink: Arc<SharedEvalCache>,
    /// The in-process estimator used when the whole fleet is dead, and
    /// for [`CohortEvaluator::materialize`] (presentation is local).
    fallback: MacroModelBackend,
}

impl RemoteBackend {
    /// Spawns the fleet and completes the hello handshake with every
    /// worker.
    ///
    /// A worker that launches but misses the hello **deadline** (the
    /// per-request deadline applies to the handshake too) does *not*
    /// fail the spawn: it is killed, entombed, counted in
    /// [`RemoteStats::timeouts`] and [`RemoteStats::worker_deaths`], and
    /// scheduled for respawn under the budget — a never-helloing peer
    /// must not stall fleet construction.
    ///
    /// # Errors
    ///
    /// An empty fleet, the launch error, a garbage/EOF handshake, or a
    /// protocol-version mismatch of the first worker that fails —
    /// failing the whole spawn keeps configuration mistakes loud (a
    /// *later* death is handled by requeueing instead).
    pub fn spawn(options: RemoteOptions) -> Result<RemoteBackend, String> {
        if options.workers.is_empty() {
            return Err("a remote fleet needs at least one worker command".to_owned());
        }
        let config = SupervisionConfig {
            deadline: options.deadline,
            restart_budget: options.restart_budget,
            backoff_base: options.backoff_base,
            backoff_seed: options.backoff_seed,
            transport: options.transport,
        };
        let hub = match options.transport {
            TransportKind::Stdio => None,
            TransportKind::Unix | TransportKind::Tcp => {
                Some(SocketHub::start(options.transport, options.deadline)?)
            }
        };
        let mut workers: Vec<WorkerHandle> = Vec::with_capacity(options.workers.len());
        let mut supervise = vec![Supervision::default(); options.workers.len()];
        let mut timeouts: u64 = 0;
        for (index, command) in options.workers.iter().enumerate() {
            let spawned = spawn_worker_on(
                command,
                index,
                options.log_dir.as_deref(),
                &config,
                hub.as_ref(),
            );
            match spawned {
                Ok(worker) => workers.push(worker),
                Err(SpawnError::HelloTimeout(tombstone)) => {
                    // Buried like a stall: counted, entombed, respawn
                    // scheduled under the budget — construction proceeds.
                    timeouts += 1;
                    if config.restart_budget > 0 {
                        supervise[index].retry_at =
                            Some(Instant::now() + backoff_delay(&config, index, 0));
                    }
                    workers.push(*tombstone);
                }
                Err(SpawnError::Fatal(e)) => {
                    // Reap the part of the fleet that did spawn — a
                    // failed spawn must not leak zombie processes.
                    for worker in &mut workers {
                        worker.kill();
                    }
                    return Err(e);
                }
            }
        }
        let spawned = workers.len();
        let counters = RemoteCounters::default();
        counters.timeouts.add(timeouts);
        counters.worker_deaths.add(timeouts);
        Ok(RemoteBackend {
            fleet: Arc::new(Fleet {
                state: Mutex::new(FleetState {
                    workers,
                    supervise,
                    commands: options.workers,
                    log_dir: options.log_dir,
                    next_id: 0,
                }),
                counters,
                spawned,
                config,
                hub,
            }),
            sink: Arc::new(SharedEvalCache::new()),
            fallback: MacroModelBackend,
        })
    }

    /// Merges worker snapshot deltas into `cache` instead of the
    /// backend's private sink — point it at a batch run's shared cache
    /// so remotely computed estimates persist with `--cache-file`.
    #[must_use]
    pub fn with_sink(mut self, cache: Arc<SharedEvalCache>) -> RemoteBackend {
        self.sink = cache;
        self
    }

    /// The cache worker deltas merge into.
    pub fn sink(&self) -> &Arc<SharedEvalCache> {
        &self.sink
    }

    /// The fleet's traffic counters, now.
    pub fn stats(&self) -> RemoteStats {
        let c = &self.fleet.counters;
        let state = self.fleet.state.lock().expect("fleet state poisoned");
        RemoteStats {
            round_trips: c.round_trips.load(Ordering::Relaxed),
            requeues: c.requeues.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            worker_deaths: c.worker_deaths.load(Ordering::Relaxed),
            respawns: c.respawns.load(Ordering::Relaxed),
            rejoins: c.rejoins.load(Ordering::Relaxed),
            fallback_geometries: c.fallback_geometries.load(Ordering::Relaxed),
            geometries: c.geometries.load(Ordering::Relaxed),
            merged_entries: c.merged_entries.load(Ordering::Relaxed),
            workers_alive: state.alive_count(),
            workers_spawned: self.fleet.spawned,
            transport: self.fleet.config.transport,
            capacities: state.workers.iter().map(|w| w.capacity).collect(),
        }
    }

    /// The OS pids of every worker the fleet currently holds (alive or
    /// buried) — the zombie audit in the spawned-process tests reads
    /// `/proc/<pid>` through this.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.fleet
            .state
            .lock()
            .expect("fleet state poisoned")
            .workers
            .iter()
            .map(|w| w.pid)
            .collect()
    }
}

/// How one worker spawn failed.
enum SpawnError {
    /// Configuration-grade failure (launch error, garbage/EOF handshake,
    /// protocol skew): the whole spawn fails loudly.
    Fatal(String),
    /// The worker launched but missed the hello **deadline**: it was
    /// killed, and construction continues with this tombstone in the
    /// slot — the caller counts the timeout+death and schedules respawn.
    HelloTimeout(Box<WorkerHandle>),
}

/// Starts the reader thread for one worker link and assembles its live
/// handle.
fn live_handle(
    child: Option<Child>,
    pid: u32,
    writer: WriteHalf,
    mut read_half: Box<dyn Read + Send>,
    index: usize,
    capacity: u32,
) -> Result<WorkerHandle, String> {
    let (tx, incoming) = mpsc::channel();
    let reader = std::thread::Builder::new()
        .name(format!("sega-worker-{index}-reader"))
        .spawn(move || loop {
            let result = frame::recv(&mut read_half);
            let stop = result.is_err();
            if tx.send(result).is_err() || stop {
                break;
            }
        })
        .map_err(|e| format!("worker {index} reader thread: {e}"))?;
    Ok(WorkerHandle {
        child,
        pid,
        writer: Some(writer),
        incoming,
        stash: HashMap::new(),
        reader: Some(reader),
        alive: true,
        capacity: capacity.max(1),
    })
}

/// Kills and entombs a worker that never said hello: a dead handle
/// (closed channel, capacity 1) holding the reaped child for the audit
/// trail.
fn entomb(mut child: Child) -> Box<WorkerHandle> {
    let pid = child.id();
    let _ = child.kill();
    let _ = child.wait();
    let (_closed, incoming) = mpsc::channel();
    Box::new(WorkerHandle {
        child: Some(child),
        pid,
        writer: None,
        incoming,
        stash: HashMap::new(),
        reader: None,
        alive: false,
        capacity: 1,
    })
}

/// Adopts an identified socket link (initial hello or reconnect) into a
/// live handle for rotation slot `index`.
fn adopt_link(
    child: Option<Child>,
    pid: u32,
    stream: Stream,
    hello: &Hello,
    index: usize,
) -> Result<WorkerHandle, String> {
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("worker {index} link clone: {e}"))?;
    // Clones share the socket's read timeout; clear the hub's hello
    // deadline so in-service reads block until the coordinator's own
    // channel deadline decides.
    read_half
        .set_read_timeout(None)
        .map_err(|e| format!("worker {index} link timeout reset: {e}"))?;
    live_handle(
        child,
        pid,
        WriteHalf::Socket(stream),
        Box::new(BufReader::new(read_half)),
        index,
        hello.capacity,
    )
}

fn spawn_worker_on(
    command: &WorkerCommand,
    index: usize,
    log_dir: Option<&std::path::Path>,
    config: &SupervisionConfig,
    hub: Option<&SocketHub>,
) -> Result<WorkerHandle, SpawnError> {
    let fatal = SpawnError::Fatal;
    let mut args = command.args.clone();
    if let Some(hub) = hub {
        // Socket transport: the worker dials back into the hub instead
        // of serving its stdio (`--connect` takes precedence over
        // `--serve` in the worker CLI, so the standard serve command
        // works unchanged on every transport).
        args.push("--connect".to_owned());
        args.push(hub.addr.to_string());
    }
    args.push("--worker-id".to_owned());
    args.push(index.to_string());
    let stderr = match log_dir {
        Some(dir) => {
            // Created here (not once at spawn) so respawns survive a CI
            // step deleting the directory between arms; append mode so a
            // respawned worker continues its predecessor's log instead
            // of erasing the evidence.
            std::fs::create_dir_all(dir).map_err(|e| {
                fatal(format!(
                    "cannot create worker log dir `{}`: {e}",
                    dir.display()
                ))
            })?;
            let path = dir.join(format!("worker-{index}.log"));
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| fatal(format!("cannot open worker log `{}`: {e}", path.display())))?;
            args.push("--log".to_owned());
            Stdio::from(file)
        }
        None => Stdio::inherit(),
    };
    let stdio = hub.is_none();
    let mut child = Command::new(&command.program)
        .args(&args)
        .stdin(if stdio { Stdio::piped() } else { Stdio::null() })
        .stdout(if stdio { Stdio::piped() } else { Stdio::null() })
        .stderr(stderr)
        .spawn()
        .map_err(|e| {
            fatal(format!(
                "cannot spawn worker `{}`: {e}",
                command.program.display()
            ))
        })?;

    if let Some(hub) = hub {
        // Socket handshake: the hub's accept thread reads the hello
        // under the deadline and parks the identified link by worker
        // index; claim it here.
        return match hub.claim(index, config.deadline) {
            Some((stream, hello)) if hello.protocol == PROTOCOL_VERSION => {
                let pid = child.id();
                adopt_link(Some(child), pid, stream, &hello, index).map_err(fatal)
            }
            Some((_, hello)) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(fatal(format!(
                    "worker {index} speaks protocol {}, coordinator speaks {PROTOCOL_VERSION}",
                    hello.protocol
                )))
            }
            None => Err(SpawnError::HelloTimeout(entomb(child))),
        };
    }

    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let pid = child.id();
    // Hello handshake under the per-request deadline: the reader thread
    // starts first and the hello arrives through its channel, so a
    // worker that never says hello costs one deadline, not forever.
    let mut handle = live_handle(
        Some(child),
        pid,
        WriteHalf::Stdio(stdin),
        Box::new(stdout),
        index,
        1,
    )
    .map_err(fatal)?;
    match handle.incoming.recv_timeout(config.deadline) {
        Ok(Ok(Message::Hello(hello))) if hello.protocol == PROTOCOL_VERSION => {
            handle.capacity = hello.capacity.max(1);
            Ok(handle)
        }
        Ok(Ok(Message::Hello(hello))) => {
            handle.kill();
            Err(fatal(format!(
                "worker {index} speaks protocol {}, coordinator speaks {PROTOCOL_VERSION}",
                hello.protocol
            )))
        }
        Ok(Ok(_)) => {
            handle.kill();
            Err(fatal(format!(
                "worker {index} sent a non-hello first frame"
            )))
        }
        Ok(Err(e)) => {
            handle.kill();
            Err(fatal(format!("worker {index} handshake failed: {e}")))
        }
        Err(_) => {
            handle.kill();
            let child = handle.child.take().expect("spawned child");
            Err(SpawnError::HelloTimeout(entomb(child)))
        }
    }
}

impl EvalBackend for RemoteBackend {
    fn name(&self) -> &'static str {
        "remote"
    }

    fn bind(
        &self,
        spec: &UserSpec,
        tech: &Technology,
        conditions: &OperatingConditions,
    ) -> Arc<dyn CohortEvaluator> {
        Arc::new(RemoteEvaluator {
            key: CacheKey::new(tech, conditions, spec.precision, spec.wstore).to_record(),
            fleet: Arc::clone(&self.fleet),
            sink: Arc::clone(&self.sink),
            fallback: self.fallback.bind(spec, tech, conditions),
        })
    }
}

/// [`RemoteBackend`] bound to one exploration's invariants: the key
/// record every request carries, plus the shared fleet.
#[derive(Debug)]
struct RemoteEvaluator {
    key: KeyRecord,
    fleet: Arc<Fleet>,
    sink: Arc<SharedEvalCache>,
    fallback: Arc<dyn CohortEvaluator>,
}

/// The worker a geometry belongs to under the negotiated capacity
/// weights: the same Fx-hash the cache's
/// [`KeySpace`](crate::cache::KeySpace) shards by, reduced into one of
/// `Σ capacities` shares and mapped to the worker owning that share —
/// a worker advertising capacity `c` owns `c` consecutive shares. With
/// all-ones capacities (every stdio fleet, and any socket fleet that
/// does not opt in) this is exactly the historical `hash % N`, so the
/// partition — and every worker's memoized shard — is unchanged. The
/// function is deterministic per `(geometry, capacities)`, so one
/// geometry always lands on the same (alive) worker and worker-side
/// memoization actually hits.
pub fn worker_of_weighted(g: &Geometry, capacities: &[u32]) -> usize {
    use std::hash::{Hash, Hasher};
    let total: u64 = capacities.iter().map(|&c| u64::from(c.max(1))).sum();
    let mut h = FxHasher::default();
    g.hash(&mut h);
    let mut share = h.finish() % total.max(1);
    for (w, &c) in capacities.iter().enumerate() {
        let owned = u64::from(c.max(1));
        if share < owned {
            return w;
        }
        share -= owned;
    }
    capacities.len().saturating_sub(1)
}

fn record_of(g: &Geometry) -> GeometryRecord {
    GeometryRecord {
        log_h: g.log_h,
        log_l: g.log_l,
        k: g.k,
    }
}

/// A response with the right correlation id but the wrong number of rows
/// is malformed — the id already matched, so only the shape can lie.
fn validate_shape(
    resp: EvalResponse,
    id: u64,
    expected_rows: usize,
) -> Result<EvalResponse, FrameError> {
    if resp.rows.len() == expected_rows {
        Ok(resp)
    } else {
        Err(FrameError::Wire(sega_wire::WireError::Malformed(format!(
            "response shape mismatch: id {} rows {} (expected id {id} rows {expected_rows})",
            resp.id,
            resp.rows.len()
        ))))
    }
}

/// One cohort between [`RemoteEvaluator::submit_inner`] and
/// [`RemoteEvaluator::wait_inner`]: the dispatched requests, the
/// sub-cohorts that already need recovery, and the output rows filled in
/// so far. The fleet lock is **not** held across this gap, so another
/// exploration of the mixed-precision fan-out (`explore_mixed_with`,
/// several precisions over one shared backend) may dispatch meanwhile;
/// responses landing in between wait in the worker channels (or the
/// other exploration's collect parks them in the per-worker stash).
/// The serve daemon interleaves here too: jobs from different client
/// connections run concurrently on its one backend. (`run_batch_with`
/// still runs a batch's jobs one after another.)
#[derive(Debug)]
struct InflightCohort {
    cohort: Vec<Geometry>,
    out: Vec<[f64; 4]>,
    /// `(worker, correlation id, cohort slots)` in dispatch order.
    inflight: Vec<(usize, u64, Vec<usize>)>,
    /// Sub-cohorts whose dispatch already failed (worker buried).
    requeue: Vec<Vec<usize>>,
    /// Slots that never had a live worker — straight to the fallback.
    orphans: Vec<usize>,
}

impl RemoteEvaluator {
    /// Writes the eval-request for the cohort slots in `slots` to worker
    /// `w`, returning the correlation id to [`collect`](Self::collect)
    /// on. The caller owns the fleet lock.
    fn dispatch(
        &self,
        state: &mut FleetState,
        w: usize,
        cohort: &[Geometry],
        slots: &[usize],
    ) -> Result<u64, FrameError> {
        let id = state.fresh_id();
        let request = Message::Request(EvalRequest {
            id,
            key: self.key.clone(),
            cohort: slots.iter().map(|&i| record_of(&cohort[i])).collect(),
        });
        state.workers[w].send(&request)?;
        Ok(id)
    }

    /// One synchronous request/response exchange with worker `w` for the
    /// cohort slots in `slots`. The caller owns the fleet lock.
    fn exchange(
        &self,
        state: &mut FleetState,
        w: usize,
        cohort: &[Geometry],
        slots: &[usize],
    ) -> Result<EvalResponse, FrameError> {
        let id = self.dispatch(state, w, cohort, slots)?;
        self.collect(state, w, id, slots.len())
    }

    /// Reads worker `w`'s response for correlation id `id` — bounded by
    /// the fleet's per-request deadline, so a hung worker surfaces as
    /// [`FrameError::Timeout`] (counted) instead of blocking the batch —
    /// and validates its row count. The stash is consulted first and
    /// fed in turn: with the mixed-precision fan-out's cohorts in flight
    /// at once, the worker's responses can arrive interleaved, so a frame
    /// answering a *different* id is parked for that id's collect
    /// instead of being treated as a protocol error.
    fn collect(
        &self,
        state: &mut FleetState,
        w: usize,
        id: u64,
        expected_rows: usize,
    ) -> Result<EvalResponse, FrameError> {
        loop {
            if let Some(resp) = state.workers[w].stash.remove(&id) {
                return validate_shape(resp, id, expected_rows);
            }
            let frame = match state.workers[w].recv_deadline(self.fleet.config.deadline) {
                Ok(frame) => frame,
                Err(e) => {
                    if matches!(e, FrameError::Timeout { .. }) {
                        self.fleet.counters.timeouts.add(1);
                    }
                    return Err(e);
                }
            };
            match frame {
                Message::Response(resp) if resp.id == id => {
                    return validate_shape(resp, id, expected_rows);
                }
                Message::Response(resp) => {
                    state.workers[w].stash.insert(resp.id, resp);
                }
                _ => {
                    return Err(FrameError::Wire(sega_wire::WireError::Malformed(
                        "worker sent a non-response frame".to_owned(),
                    )))
                }
            }
        }
    }

    /// Buries worker `w` through the fleet's supervisor (kill + reap,
    /// counted once per transition, respawn scheduled under the budget).
    fn bury(&self, state: &mut FleetState, w: usize) {
        self.fleet.bury(state, w);
    }

    /// Applies one successful response: scatter rows into `out` by slot
    /// and fold the delta into the sink.
    fn apply(&self, resp: &EvalResponse, slots: &[usize], out: &mut [[f64; 4]]) {
        for (&slot, row) in slots.iter().zip(&resp.rows) {
            out[slot] = *row;
        }
        match self.sink.load(&resp.delta) {
            Ok(installed) => self.fleet.counters.merged_entries.add(installed as u64),
            // A delta that decoded as a frame but won't install (e.g. a
            // worker from a newer build naming an unknown precision)
            // only costs cache warmth, never correctness — the rows
            // above are already applied. Say so instead of silently
            // degrading every warm start.
            Err(e) => eprintln!("warning: dropping a worker's cache delta: {e}"),
        }
        self.fleet.counters.round_trips.add(1);
    }

    /// Phase 1 of a cohort — partition and pipelined dispatch. Writes
    /// every sub-cohort request before returning, so the fleet computes
    /// concurrently; the lock is released when this returns.
    fn submit_inner(&self, cohort: &[Geometry]) -> InflightCohort {
        let mut flight = InflightCohort {
            cohort: cohort.to_vec(),
            out: vec![[f64::NAN; 4]; cohort.len()],
            inflight: Vec::new(),
            requeue: Vec::new(),
            orphans: Vec::new(),
        };
        if flight.cohort.is_empty() {
            return flight;
        }
        self.fleet
            .counters
            .geometries
            .add(flight.cohort.len() as u64);
        let mut state = self.fleet.state.lock().expect("fleet state poisoned");
        // Respawn pass: buried workers whose backoff elapsed rejoin the
        // rotation before this cohort partitions.
        self.fleet.maintain(&mut state);
        let fleet_size = state.workers.len();

        // Partition by weighted shard onto alive workers; orphans (no
        // fleet left) go straight to the in-process fallback at wait
        // time. The capacity vector covers dead workers too (their last
        // negotiated weight), so the preferred assignment is stable
        // across deaths and `assign` alone decides the detour.
        let capacities: Vec<u32> = state.workers.iter().map(|w| w.capacity).collect();
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); fleet_size];
        for (i, g) in flight.cohort.iter().enumerate() {
            match state.assign(worker_of_weighted(g, &capacities)) {
                Some(w) => parts[w].push(i),
                None => flight.orphans.push(i),
            }
        }

        // Pipeline: write every sub-cohort request before reading any
        // response, so the fleet computes concurrently.
        for (w, slots) in parts.into_iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            match self.dispatch(&mut state, w, &flight.cohort, &slots) {
                Ok(id) => flight.inflight.push((w, id, slots)),
                Err(_) => {
                    self.bury(&mut state, w);
                    flight.requeue.push(slots);
                }
            }
        }
        flight
    }

    /// Phases 2 and 3 of a cohort — collect in dispatch order, then the
    /// recovery loop (requeue to survivors, in-process fallback when the
    /// fleet is exhausted). Consumes the flight and returns one row per
    /// cohort geometry, exactly like the synchronous
    /// [`CohortEvaluator::evaluate_cohort`].
    fn wait_inner(&self, mut flight: InflightCohort, pool: &Pool, workers: usize) -> Vec<[f64; 4]> {
        if flight.cohort.is_empty() {
            return flight.out;
        }
        let counters = &self.fleet.counters;
        let cohort = &flight.cohort;
        let out = &mut flight.out;
        let mut requeue = std::mem::take(&mut flight.requeue);
        let mut state = self.fleet.state.lock().expect("fleet state poisoned");

        // Phase 2 — collect, in dispatch order. Any failure requeues the
        // sub-cohort; the worker is dead either way.
        for (w, id, slots) in std::mem::take(&mut flight.inflight) {
            match self.collect(&mut state, w, id, slots.len()) {
                Ok(resp) => self.apply(&resp, &slots, out),
                Err(_) => {
                    self.bury(&mut state, w);
                    requeue.push(slots);
                }
            }
        }

        // Phase 3 — recovery: re-dispatch failed sub-cohorts to
        // survivors (sequentially; this is the rare path), falling back
        // to in-process evaluation when the fleet is exhausted. Each
        // round first readmits any respawn that has come due — but never
        // *waits* for one: an empty rotation falls back in-process, and
        // the front is bit-identical either way.
        while let Some(slots) = requeue.pop() {
            self.fleet.maintain(&mut state);
            match state.assign(0) {
                Some(w) => {
                    counters.requeues.add(1);
                    match self.exchange(&mut state, w, cohort, &slots) {
                        Ok(resp) => self.apply(&resp, &slots, out),
                        Err(_) => {
                            self.bury(&mut state, w);
                            requeue.push(slots);
                        }
                    }
                }
                None => {
                    counters.fallback_geometries.add(slots.len() as u64);
                    let sub: Vec<Geometry> = slots.iter().map(|&i| cohort[i]).collect();
                    let rows = self.fallback.evaluate_cohort(&sub, pool, workers);
                    for (&slot, row) in slots.iter().zip(rows) {
                        out[slot] = row;
                    }
                }
            }
        }
        drop(state);
        if !flight.orphans.is_empty() {
            counters
                .fallback_geometries
                .add(flight.orphans.len() as u64);
            let sub: Vec<Geometry> = flight.orphans.iter().map(|&i| cohort[i]).collect();
            let rows = self.fallback.evaluate_cohort(&sub, pool, workers);
            for (&slot, row) in flight.orphans.iter().zip(rows) {
                out[slot] = row;
            }
        }
        flight.out
    }
}

impl CohortEvaluator for RemoteEvaluator {
    fn evaluate_cohort(&self, cohort: &[Geometry], pool: &Pool, workers: usize) -> Vec<[f64; 4]> {
        if cohort.is_empty() {
            return Vec::new();
        }
        self.wait_inner(self.submit_inner(cohort), pool, workers)
    }

    fn materialize(&self, g: &Geometry) -> Option<ParetoSolution> {
        // Presentation is a per-front-member, end-of-run operation: the
        // in-process macro model computes the identical estimate without
        // a round-trip.
        self.fallback.materialize(g)
    }

    fn estimator_stats(&self) -> sega_estimator::EstimatorStats {
        // Remote workers run the same batched kernel on their own side
        // and account for it locally; this evaluator only sees the
        // in-process fallback's share.
        self.fallback.estimator_stats()
    }
}

// ---------------------------------------------------------------------
// The worker side.
// ---------------------------------------------------------------------

/// Fault-injection and identity knobs of [`serve_worker`] — the levers
/// the CI distributed-fault matrix and the recovery tests pull through
/// the real CLI (`--fail-after N`, `--corrupt-after N`, `--hang-after
/// N`, `--stall-ms T`, `--truncate-after N`).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerOptions {
    /// Die (process exit, no response) upon receiving the request after
    /// serving this many — `Some(0)` dies on the very first request.
    pub fail_after: Option<u64>,
    /// After serving this many requests, answer the next one with a
    /// garbage frame and exit.
    pub corrupt_after: Option<u64>,
    /// After serving this many requests, hang forever on the next one —
    /// never responding, never exiting. The coordinator's deadline is
    /// the only way out.
    pub hang_after: Option<u64>,
    /// After serving this many requests, answer the next one with a
    /// mid-frame EOF (length prefix promising more bytes than follow)
    /// and exit.
    pub truncate_after: Option<u64>,
    /// Sleep this long before *every* response — the slow-responder
    /// fault that trips deadlines without the worker ever dying on its
    /// own.
    pub stall: Option<Duration>,
    /// After serving this many requests, drop the connection on the next
    /// one and **exit** — the link and the process die together (on
    /// stdio this is indistinguishable from `fail_after`; on a socket it
    /// exercises the connection-death path).
    pub drop_conn_after: Option<u64>,
    /// After serving this many requests, drop the connection on the next
    /// one but **keep running and reconnect** — the rejoin fault: the
    /// coordinator buries + requeues, then adopts the returning link
    /// under the retry budget. One-shot per process (a connected worker
    /// disarms it after firing, or every rejoin would immediately
    /// re-drop).
    pub reconnect_after: Option<u64>,
    /// Sleep this long before sending the hello — the late-hello fault
    /// that trips the handshake deadline without the worker dying.
    pub late_hello: Option<Duration>,
    /// The capacity weight this worker advertises in its hello (`0` is
    /// clamped to 1) — heterogeneous fleets weight the shard partition
    /// by it.
    pub capacity: u32,
    /// This worker's stable identity (the supervisor passes
    /// `--worker-id`); prefixes every log line.
    pub worker_id: u64,
    /// Emit the prefixed per-request log lines on stderr.
    pub log: bool,
}

impl WorkerOptions {
    /// The fault names this configuration arms, advertised in the hello
    /// so chaos runs are self-describing in supervisor logs.
    fn armed_faults(&self) -> Vec<String> {
        let mut faults = Vec::new();
        let mut arm = |armed: bool, name: &str| {
            if armed {
                faults.push(name.to_owned());
            }
        };
        arm(self.fail_after.is_some(), "fail-after");
        arm(self.corrupt_after.is_some(), "corrupt-after");
        arm(self.hang_after.is_some(), "hang-after");
        arm(self.truncate_after.is_some(), "truncate-after");
        arm(self.stall.is_some(), "stall");
        arm(self.drop_conn_after.is_some(), "drop-conn-after");
        arm(self.reconnect_after.is_some(), "reconnect-after");
        arm(self.late_hello.is_some(), "late-hello");
        faults
    }
}

/// Why one worker session ended — the connected-worker loop decides
/// from this whether to reconnect or exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerExit {
    /// The peer asked for an orderly shutdown.
    Shutdown,
    /// The peer's side of the link closed.
    Eof,
    /// The armed `drop-conn-after` fault fired: drop the link and exit.
    DropConn,
    /// The armed `reconnect-after` fault fired: drop the link, keep the
    /// process (and its memo cache), dial back in.
    Reconnect,
}

/// One key space the worker has bound: the estimator and the memo table.
struct WorkerBinding {
    evaluator: Arc<dyn CohortEvaluator>,
    space: Arc<crate::cache::KeySpace>,
}

fn technology_of(key: &KeyRecord) -> Technology {
    Technology {
        name: key.tech_name.clone(),
        node_nm: f64::from_bits(key.node_bits),
        gate_area_um2: f64::from_bits(key.gate_area_bits),
        gate_delay_ns: f64::from_bits(key.gate_delay_bits),
        gate_energy_fj: f64::from_bits(key.gate_energy_bits),
        nominal_voltage: f64::from_bits(key.nominal_voltage_bits),
    }
}

fn conditions_of(key: &KeyRecord) -> OperatingConditions {
    OperatingConditions {
        voltage: f64::from_bits(key.voltage_bits),
        input_sparsity: f64::from_bits(key.sparsity_bits),
        activity: f64::from_bits(key.activity_bits),
    }
}

fn bind_worker(key: &KeyRecord, cache: &SharedEvalCache) -> Result<WorkerBinding, String> {
    let precision = Precision::from_name(&key.precision)
        .ok_or_else(|| format!("request names unknown precision `{}`", key.precision))?;
    let spec = UserSpec::new(key.wstore, precision).map_err(|e| format!("request spec: {e}"))?;
    let tech = technology_of(key);
    let conditions = conditions_of(key);
    let cache_key = CacheKey::new(&tech, &conditions, precision, key.wstore);
    Ok(WorkerBinding {
        evaluator: MacroModelBackend.bind(&spec, &tech, &conditions),
        space: cache.space(&cache_key),
    })
}

/// Serves the worker side of the protocol over `input`/`output` until a
/// shutdown frame or EOF: the body of `sega-dcim worker --serve`.
///
/// The worker keeps its own [`SharedEvalCache`] across requests, so a
/// shard that keeps landing on this worker is estimated once per fleet
/// lifetime; each response's delta carries only the entries computed
/// fresh for that request.
///
/// # Errors
///
/// A human-readable message on a transport or protocol failure (the
/// worker process exits non-zero; the coordinator requeues).
pub fn serve_worker(
    input: &mut impl Read,
    output: &mut impl Write,
    options: &WorkerOptions,
) -> Result<(), String> {
    let cache = SharedEvalCache::new();
    let mut bindings: HashMap<u64, WorkerBinding> = HashMap::new();
    let pool = Pool::for_threads(1);
    let mut served: u64 = 0;
    // On stdio every session-ending event — shutdown, EOF, a fired
    // connection fault — ends the process; there is no link to re-dial.
    serve_session(
        input,
        output,
        options,
        &cache,
        &mut bindings,
        &pool,
        &mut served,
    )
    .map(|_| ())
}

/// Runs a socket worker: dial `addr`, serve a session, and — when the
/// armed `reconnect-after` fault drops the link — dial back in with the
/// memo cache intact, exercising the coordinator's rejoin path. The
/// body of `sega-dcim worker --connect ADDR`.
///
/// # Errors
///
/// Connect failures and transport/protocol failures, as
/// [`serve_worker`].
pub fn run_connected_worker(addr: &ListenAddr, options: &WorkerOptions) -> Result<(), String> {
    let mut options = *options;
    let cache = SharedEvalCache::new();
    let mut bindings: HashMap<u64, WorkerBinding> = HashMap::new();
    let pool = Pool::for_threads(1);
    let mut served: u64 = 0;
    loop {
        let stream = connect_with_retry(addr, Duration::from_secs(10))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("worker link clone: {e}"))?,
        );
        let mut writer = stream;
        let exit = serve_session(
            &mut reader,
            &mut writer,
            &options,
            &cache,
            &mut bindings,
            &pool,
            &mut served,
        )?;
        writer.disconnect();
        match exit {
            WorkerExit::Reconnect => {
                // One-shot: a rejoined worker that kept the fault armed
                // would drop its link again on the first request.
                options.reconnect_after = None;
            }
            WorkerExit::Shutdown | WorkerExit::Eof | WorkerExit::DropConn => return Ok(()),
        }
    }
}

/// One hello-to-exit worker session over an established link — the
/// transport-agnostic core shared by the stdio and socket workers. The
/// cache, bindings, pool and served count live with the *caller* (the
/// process), so a reconnecting worker rejoins with its memoization
/// intact.
#[allow(clippy::too_many_lines)]
fn serve_session(
    input: &mut impl Read,
    output: &mut impl Write,
    options: &WorkerOptions,
    cache: &SharedEvalCache,
    bindings: &mut HashMap<u64, WorkerBinding>,
    pool: &Pool,
    served: &mut u64,
) -> Result<WorkerExit, String> {
    // Monotonic timestamp base for the log prefix: `[+   12.345ms w0 r7]`
    // — elapsed-since-start, worker id, request id (r0 for lines outside
    // any request).
    let start = Instant::now();
    let log = |request: u64, text: &str| {
        if options.log {
            let ms = start.elapsed().as_secs_f64() * 1e3;
            eprintln!("[+{ms:>9.3}ms w{} r{request}] {text}", options.worker_id);
        }
    };
    if let Some(delay) = options.late_hello {
        // Injected fault: the handshake-deadline trip — connect (or
        // launch) but leave the coordinator waiting for the hello.
        log(0, &format!("injected fault: delaying hello {delay:?}"));
        std::thread::sleep(delay);
    }
    let mut hello = Hello::worker(options.worker_id, options.capacity);
    hello.faults = options.armed_faults();
    frame::send(output, &Message::Hello(hello)).map_err(|e| format!("worker hello: {e}"))?;
    log(
        0,
        &format!(
            "hello (protocol {PROTOCOL_VERSION}, capacity {})",
            options.capacity.max(1)
        ),
    );
    loop {
        let message = match frame::recv(input) {
            Ok(message) => message,
            // Coordinator gone (dropped pipes / closed socket): an
            // orderly exit too.
            Err(FrameError::Eof) => {
                log(0, "link EOF, session over");
                return Ok(WorkerExit::Eof);
            }
            Err(e) => return Err(format!("worker transport: {e}")),
        };
        let request = match message {
            Message::Shutdown => {
                log(0, "shutdown frame, exiting");
                return Ok(WorkerExit::Shutdown);
            }
            Message::Heartbeat => continue,
            Message::Request(request) => request,
            _ => return Err("coordinator sent a non-request frame".to_owned()),
        };
        log(
            request.id,
            &format!("request: {} geometries", request.cohort.len()),
        );
        if options.drop_conn_after == Some(*served) {
            // Simulated connection drop: the request is swallowed and
            // the link dies — the coordinator sees EOF and buries.
            log(request.id, "injected fault: dropping connection");
            return Ok(WorkerExit::DropConn);
        }
        if options.reconnect_after == Some(*served) {
            // Simulated link flap: same swallowed request, but the
            // process survives to dial back in and rejoin.
            log(
                request.id,
                "injected fault: dropping connection to reconnect",
            );
            return Ok(WorkerExit::Reconnect);
        }
        if options.fail_after == Some(*served) {
            // Simulated crash: die mid-batch without responding.
            log(request.id, "injected fault: dying (exit 17)");
            std::process::exit(17);
        }
        if options.corrupt_after == Some(*served) {
            // Simulated corruption: a well-framed garbage payload.
            log(request.id, "injected fault: corrupt frame (exit 3)");
            let _ = frame::write_frame(output, b"\xde\xad\xbe\xef corrupt worker");
            std::process::exit(3);
        }
        if options.hang_after == Some(*served) {
            // Simulated hang: alive but never responding — only the
            // coordinator's deadline (then kill) ends this.
            log(request.id, "injected fault: hanging forever");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        if options.truncate_after == Some(*served) {
            // Simulated mid-frame EOF: the length prefix promises a
            // whole shutdown frame, half the payload follows.
            log(request.id, "injected fault: truncated frame (exit 7)");
            let payload = Message::Shutdown.encode();
            let _ = frame::write_truncated_frame(output, &payload, payload.len() / 2);
            std::process::exit(7);
        }
        let binding = match bindings.entry(request.key.fingerprint()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(bind_worker(&request.key, cache)?)
            }
        };
        let cohort: Vec<Geometry> = request
            .cohort
            .iter()
            .map(|g| Geometry {
                log_h: g.log_h,
                log_l: g.log_l,
                k: g.k,
            })
            .collect();
        // Serve memoized geometries, compute the rest, remember both.
        let mut rows: Vec<Option<[f64; 4]>> = Vec::with_capacity(cohort.len());
        let mut missing: Vec<Geometry> = Vec::new();
        let mut missing_slots: Vec<usize> = Vec::new();
        for (i, g) in cohort.iter().enumerate() {
            match binding.space.get(g) {
                Some(objectives) => rows.push(Some(objectives)),
                None => {
                    rows.push(None);
                    missing.push(*g);
                    missing_slots.push(i);
                }
            }
        }
        let computed = binding.evaluator.evaluate_cohort(&missing, pool, 1);
        let mut delta_entries = Vec::with_capacity(computed.len());
        for ((slot, g), objectives) in missing_slots.iter().zip(&missing).zip(computed) {
            binding.space.insert(*g, objectives);
            rows[*slot] = Some(objectives);
            delta_entries.push(EntryRecord {
                geometry: record_of(g),
                objectives,
            });
        }
        let mut delta = Snapshot::default();
        if !delta_entries.is_empty() {
            delta.spaces.push(SpaceRecord {
                key: request.key.clone(),
                entries: delta_entries,
            });
            delta.canonicalize();
        }
        let delta_len = delta.len();
        if let Some(stall) = options.stall {
            // Simulated slow responder: the answer is correct but late —
            // with a stall past the coordinator's deadline this worker
            // gets buried while still healthy.
            log(request.id, &format!("injected fault: stalling {stall:?}"));
            std::thread::sleep(stall);
        }
        let response = Message::Response(EvalResponse {
            id: request.id,
            rows: rows
                .into_iter()
                .map(|r| r.expect("every cohort geometry resolved"))
                .collect(),
            delta,
        });
        frame::send(output, &response).map_err(|e| format!("worker response: {e}"))?;
        log(
            request.id,
            &format!("response: {} rows, {delta_len} delta entries", cohort.len()),
        );
        *served += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_records_reconstruct_the_exact_invariants() {
        let tech = Technology::tsmc28();
        let cond = OperatingConditions::paper_default();
        let key = CacheKey::new(&tech, &cond, Precision::Bf16, 8192).to_record();
        let back_tech = technology_of(&key);
        let back_cond = conditions_of(&key);
        assert_eq!(back_tech.name, tech.name);
        assert_eq!(back_tech.node_nm.to_bits(), tech.node_nm.to_bits());
        assert_eq!(
            back_tech.gate_energy_fj.to_bits(),
            tech.gate_energy_fj.to_bits()
        );
        assert_eq!(back_cond.voltage.to_bits(), cond.voltage.to_bits());
        assert_eq!(back_cond.activity.to_bits(), cond.activity.to_bits());
    }

    #[test]
    fn worker_partition_is_deterministic_and_total() {
        for fleet_size in [1usize, 2, 3, 5] {
            let ones = vec![1u32; fleet_size];
            for log_h in 0..8 {
                for k in 1..=8 {
                    let g = Geometry { log_h, log_l: 1, k };
                    let w = worker_of_weighted(&g, &ones);
                    assert!(w < fleet_size);
                    assert_eq!(w, worker_of_weighted(&g, &ones), "stable per geometry");
                }
            }
        }
    }

    /// The capability-weighted partition degenerates to the historical
    /// `hash % N` on all-ones capacities — the stdio byte-compat law —
    /// and weights shares proportionally otherwise.
    #[test]
    fn weighted_partition_degenerates_to_modulo_on_equal_capacity() {
        use std::hash::{Hash, Hasher};
        let mut counts = [0usize; 3];
        for log_h in 0..16 {
            for log_l in 0..8 {
                for k in 1..=8 {
                    let g = Geometry { log_h, log_l, k };
                    let mut h = FxHasher::default();
                    g.hash(&mut h);
                    let modulo = (h.finish() % 3) as usize;
                    assert_eq!(worker_of_weighted(&g, &[1, 1, 1]), modulo);
                    // A zero capacity is clamped to one share.
                    assert_eq!(worker_of_weighted(&g, &[0, 1, 1]), modulo);
                    counts[worker_of_weighted(&g, &[4, 1, 1])] += 1;
                }
            }
        }
        // Worker 0 owns 4 of 6 shares: it must receive the strict
        // majority of a uniform geometry population.
        assert!(
            counts[0] > counts[1] + counts[2],
            "weighted shares not honoured: {counts:?}"
        );
    }

    /// A session armed with `reconnect-after` swallows the triggering
    /// request, reports [`WorkerExit::Reconnect`], and keeps its memo
    /// cache for the next session — driven over in-memory buffers.
    #[test]
    fn sessions_exit_for_reconnect_and_resume_with_their_cache() {
        let tech = Technology::tsmc28();
        let cond = OperatingConditions::paper_default();
        let key = CacheKey::new(&tech, &cond, Precision::Int8, 8192).to_record();
        let cohort = vec![GeometryRecord {
            log_h: 5,
            log_l: 1,
            k: 4,
        }];
        let request = |id| {
            let mut buf = Vec::new();
            frame::send(
                &mut buf,
                &Message::Request(EvalRequest {
                    id,
                    key: key.clone(),
                    cohort: cohort.clone(),
                }),
            )
            .unwrap();
            buf
        };
        let options = WorkerOptions {
            reconnect_after: Some(1),
            ..WorkerOptions::default()
        };
        let cache = SharedEvalCache::new();
        let mut bindings = HashMap::new();
        let pool = Pool::for_threads(1);
        let mut served = 0u64;

        // Session 1: serve one request, then the fault fires on the
        // second — which is swallowed, exactly like a lost in-flight
        // sub-cohort.
        let mut input = request(1);
        input.extend(request(2));
        let mut output = Vec::new();
        let exit = serve_session(
            &mut input.as_slice(),
            &mut output,
            &options,
            &cache,
            &mut bindings,
            &pool,
            &mut served,
        )
        .unwrap();
        assert_eq!(exit, WorkerExit::Reconnect);
        assert_eq!(served, 1);

        // Session 2 (the rejoined link): the same geometry is served
        // from the memo cache — an empty delta proves nothing was
        // recomputed, i.e. the rejoin really kept the process state.
        let disarmed = WorkerOptions::default();
        let mut input = request(3);
        frame::send(&mut input, &Message::Shutdown).unwrap();
        let mut output = Vec::new();
        let exit = serve_session(
            &mut input.as_slice(),
            &mut output,
            &disarmed,
            &cache,
            &mut bindings,
            &pool,
            &mut served,
        )
        .unwrap();
        assert_eq!(exit, WorkerExit::Shutdown);
        let mut cursor = output.as_slice();
        assert!(matches!(
            frame::recv(&mut cursor).unwrap(),
            Message::Hello(_)
        ));
        match frame::recv(&mut cursor).unwrap() {
            Message::Response(resp) => {
                assert_eq!(resp.id, 3);
                assert!(resp.delta.is_empty(), "memo cache lost across sessions");
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }

    #[test]
    fn hellos_advertise_armed_faults() {
        let options = WorkerOptions {
            fail_after: Some(3),
            reconnect_after: Some(1),
            late_hello: Some(Duration::from_millis(1)),
            ..WorkerOptions::default()
        };
        assert_eq!(
            options.armed_faults(),
            vec!["fail-after", "reconnect-after", "late-hello"]
        );
        assert!(WorkerOptions::default().armed_faults().is_empty());
    }

    /// The worker loop is transport-agnostic: drive it over in-memory
    /// buffers, no processes involved.
    #[test]
    fn worker_loop_serves_requests_and_memoizes_deltas() {
        let tech = Technology::tsmc28();
        let cond = OperatingConditions::paper_default();
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let key = CacheKey::new(&tech, &cond, spec.precision, spec.wstore).to_record();
        let cohort = vec![
            GeometryRecord {
                log_h: 5,
                log_l: 1,
                k: 4,
            },
            GeometryRecord {
                log_h: 7,
                log_l: 0,
                k: 2,
            },
        ];
        let mut input = Vec::new();
        for id in [1u64, 2] {
            frame::send(
                &mut input,
                &Message::Request(EvalRequest {
                    id,
                    key: key.clone(),
                    cohort: cohort.clone(),
                }),
            )
            .unwrap();
        }
        frame::send(&mut input, &Message::Shutdown).unwrap();
        let mut output = Vec::new();
        serve_worker(
            &mut input.as_slice(),
            &mut output,
            &WorkerOptions::default(),
        )
        .unwrap();

        let mut cursor = output.as_slice();
        match frame::recv(&mut cursor).unwrap() {
            Message::Hello(hello) => {
                assert_eq!(hello.protocol, PROTOCOL_VERSION);
                assert_eq!(hello.role, "worker");
                assert!(hello.capacity >= 1);
                assert!(hello.faults.is_empty());
            }
            other => panic!("expected a hello, got {other:?}"),
        }
        let expected = MacroModelBackend.bind(&spec, &tech, &cond);
        let pool = Pool::for_threads(1);
        let geoms: Vec<Geometry> = cohort
            .iter()
            .map(|g| Geometry {
                log_h: g.log_h,
                log_l: g.log_l,
                k: g.k,
            })
            .collect();
        let reference = expected.evaluate_cohort(&geoms, &pool, 1);
        for id in [1u64, 2] {
            match frame::recv(&mut cursor).unwrap() {
                Message::Response(resp) => {
                    assert_eq!(resp.id, id);
                    assert_eq!(resp.rows, reference);
                    if id == 1 {
                        // First request computes both entries fresh.
                        assert_eq!(resp.delta.len(), 2);
                    } else {
                        // Second request is fully memoized: empty delta.
                        assert!(resp.delta.is_empty());
                    }
                }
                other => panic!("expected a response, got {other:?}"),
            }
        }
        assert!(matches!(
            frame::recv(&mut cursor).unwrap_err(),
            FrameError::Eof
        ));
    }

    #[test]
    fn worker_loop_rejects_unknown_precision_names() {
        let tech = Technology::tsmc28();
        let cond = OperatingConditions::paper_default();
        let mut key = CacheKey::new(&tech, &cond, Precision::Int8, 8192).to_record();
        key.precision = "int3".to_owned();
        let mut input = Vec::new();
        frame::send(
            &mut input,
            &Message::Request(EvalRequest {
                id: 1,
                key,
                cohort: vec![],
            }),
        )
        .unwrap();
        let mut output = Vec::new();
        let err = serve_worker(
            &mut input.as_slice(),
            &mut output,
            &WorkerOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("int3"), "{err}");
    }
}
