//! The networked service layer: `sega-dcim serve` — a long-lived daemon
//! that accepts framed batch jobs from many concurrent client
//! connections and runs them on **one** shared eval cache through the
//! in-process macro model — plus the socket plumbing ([`ListenAddr`],
//! stream and listener adapters) shared by the daemon and the connected
//! batch client.
//!
//! # Connection lifecycle
//!
//! Every connection moves through the same supervised state machine:
//!
//! ```text
//! Connecting → Hello → Serving → Draining → Gone
//! ```
//!
//! *Connecting* is the raw TCP/Unix accept: the accept loop blocks in
//! `accept` and hands each connection its own thread. *Hello* is the
//! versioned capability exchange ([`sega_wire::frame::Hello`]), bounded
//! by a hello deadline — a peer that connects and never identifies
//! itself is dropped and counted, never awaited indefinitely. *Serving*
//! answers framed requests under an idle timeout; [`Message::Heartbeat`]
//! frames keep a quiet connection alive. *Draining* begins on SIGTERM
//! (the CLI routes the signal through [`drain_flag`], which a watcher
//! thread polls) or a [`Message::Shutdown`] frame from any client: the
//! daemon connects to its own listen address once to wake the blocked
//! `accept`, stops accepting, lets in-flight jobs finish under a bounded
//! grace, and only then exits. *Gone* closes the connection and reclaims
//! its thread. The cache lives as long as the daemon: a restarted daemon
//! starts cold.
//!
//! # Concurrency and determinism
//!
//! Jobs from different connections run at the same time on the one
//! [`SharedEvalCache`], each on its connection's thread. A job executes through the exact
//! same [`explore_pareto_with`] pipeline a local batch run uses, and the
//! cache memoizes a pure function, so the front the daemon ships back is
//! **bit-identical** to an in-process run of the same job whatever else
//! runs beside it. A job's `distinct_evaluations` and `cache_hits`
//! describe that job's own cache lookups, and `evaluations ==
//! distinct_evaluations + cache_hits` holds exactly. A second client
//! repeating a batch against a warm daemon reports **0 distinct
//! evaluations**; two jobs that run at the same time and both miss on
//! one geometry each count it as distinct. A client that disconnects
//! mid-job changes nothing: the job runs to completion on the daemon and
//! its estimates stay in the cache; only the response write is skipped.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sega_cells::Technology;
use sega_estimator::{OperatingConditions, Precision};
use sega_moga::Nsga2Config;
use sega_wire::frame::{
    self, FrameError, Hello, JobRequest, JobResponse, Message, PROTOCOL_VERSION,
};
use sega_wire::GeometryRecord;

use crate::backend::{EvalBackend, MacroModelBackend};
use crate::batch::{BatchJob, BatchOutcome, BatchReport};
use crate::cache::SharedEvalCache;
use crate::explore::{explore_pareto_with, ExplorationResult, Geometry, PipelineOptions};

/// A parsed socket address: `unix:/path/to.sock` or `tcp:host:port`.
///
/// The single address vocabulary of the networked surfaces: `serve
/// --listen` and `batch --connect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A Unix domain socket at this filesystem path.
    Unix(PathBuf),
    /// A TCP socket at this `host:port`.
    Tcp(String),
}

impl ListenAddr {
    /// Parses `unix:PATH` or `tcp:HOST:PORT`.
    ///
    /// # Errors
    ///
    /// A human-readable message for any other shape.
    pub fn parse(raw: &str) -> Result<ListenAddr, String> {
        if let Some(path) = raw.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("unix address needs a socket path (`unix:/path/to.sock`)".to_owned());
            }
            return Ok(ListenAddr::Unix(PathBuf::from(path)));
        }
        if let Some(hostport) = raw.strip_prefix("tcp:") {
            if !hostport.contains(':') {
                return Err(format!(
                    "tcp address needs `host:port`, got `{hostport}` (`tcp:127.0.0.1:7800`)"
                ));
            }
            return Ok(ListenAddr::Tcp(hostport.to_owned()));
        }
        Err(format!(
            "address `{raw}` must start with `unix:` or `tcp:` \
             (`unix:/tmp/sega.sock`, `tcp:127.0.0.1:7800`)"
        ))
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            ListenAddr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
        }
    }
}

/// One connected socket, Unix or TCP — a unified `Read + Write` the
/// frame codec runs over.
#[derive(Debug)]
pub(crate) enum Stream {
    /// A Unix domain socket connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to `addr` once.
    pub(crate) fn connect(addr: &ListenAddr) -> io::Result<Stream> {
        match addr {
            ListenAddr::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            ListenAddr::Tcp(hostport) => TcpStream::connect(hostport.as_str()).map(Stream::Tcp),
        }
    }

    /// A second handle on the same socket (for a dedicated read half).
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    /// Bounds blocking reads on the socket (shared by every clone).
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Hard-closes both directions: pending and future reads on every
    /// clone return immediately (the bury/drain primitive — dropping one
    /// clone would leave the other's reader blocked).
    pub(crate) fn disconnect(&self) {
        match self {
            Stream::Unix(s) => drop(s.shutdown(Shutdown::Both)),
            Stream::Tcp(s) => drop(s.shutdown(Shutdown::Both)),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound accept socket. The Unix variant owns its socket file and
/// removes it on drop.
#[derive(Debug)]
pub(crate) enum Listener {
    /// A bound Unix domain socket and the path it occupies.
    Unix(UnixListener, PathBuf),
    /// A bound TCP socket.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `addr`, returning the listener and the **resolved** address
    /// (a `tcp:host:0` request comes back with the real port, so clients
    /// can be pointed at it).
    pub(crate) fn bind(addr: &ListenAddr) -> io::Result<(Listener, ListenAddr)> {
        match addr {
            ListenAddr::Unix(path) => {
                // A stale socket file from a dead daemon would fail the
                // bind with AddrInUse; connecting distinguishes a live
                // daemon (refuse to steal) from a leftover (remove).
                if path.exists() && UnixStream::connect(path).is_err() {
                    std::fs::remove_file(path)?;
                }
                let listener = UnixListener::bind(path)?;
                Ok((
                    Listener::Unix(listener, path.clone()),
                    ListenAddr::Unix(path.clone()),
                ))
            }
            ListenAddr::Tcp(hostport) => {
                let listener = TcpListener::bind(hostport.as_str())?;
                let resolved = listener.local_addr()?;
                Ok((
                    Listener::Tcp(listener),
                    ListenAddr::Tcp(resolved.to_string()),
                ))
            }
        }
    }

    /// Accepts one connection, blocking until a peer connects.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Connects to `addr`, retrying for up to `patience` (a daemon started
/// just before its first client may still be binding its listener).
///
/// # Errors
///
/// The last connect error once patience runs out.
pub(crate) fn connect_with_retry(addr: &ListenAddr, patience: Duration) -> Result<Stream, String> {
    let deadline = Instant::now() + patience;
    loop {
        match Stream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(format!("cannot connect to `{addr}`: {e}")),
        }
    }
}

/// `true` when a frame error is a read-timeout surfacing through the
/// socket's `SO_RCVTIMEO` (idle peer), as opposed to a real transport
/// failure.
fn is_read_timeout(e: &FrameError) -> bool {
    matches!(
        e,
        FrameError::Io(io) if matches!(io.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    )
}

/// The process-wide drain request flag: the CLI's SIGTERM handler sets
/// it, and a watcher thread of every running [`serve`] turns it into
/// that daemon's drain. (A [`Message::Shutdown`] frame drains only its
/// own daemon; the signal drains all of them.)
pub fn drain_flag() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    &FLAG
}

/// Configuration of one [`serve`] daemon.
#[derive(Debug)]
pub struct ServeOptions {
    /// Where to accept client connections.
    pub listen: ListenAddr,
    /// [`PipelineOptions::threads`] of every job (`0` = all hardware
    /// threads). A job's exploration runs on its connection's thread, so
    /// this bounds nothing the daemon runs today.
    pub threads: usize,
    /// How long a freshly accepted connection may take to say hello.
    pub hello_deadline: Duration,
    /// How long a helloed connection may stay silent before it is
    /// closed (heartbeats reset it).
    pub idle_timeout: Duration,
    /// How long the drain waits for in-flight connections before
    /// abandoning them.
    pub grace: Duration,
    /// Emit per-connection log lines on stderr.
    pub log: bool,
}

impl ServeOptions {
    /// A daemon on `listen` with the default supervision knobs: 10 s
    /// hello deadline, 10 min idle timeout, 5 s drain grace.
    pub fn new(listen: ListenAddr) -> ServeOptions {
        ServeOptions {
            listen,
            threads: 0,
            hello_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(600),
            grace: Duration::from_secs(5),
            log: false,
        }
    }
}

/// What one daemon lifetime served, returned by [`serve`] after drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Client connections accepted (a drain's own wake-up connection is
    /// not one).
    pub connections: u64,
    /// Jobs executed to completion.
    pub jobs: u64,
    /// Connections dropped for missing the hello deadline.
    pub hello_timeouts: u64,
    /// Connections closed by the idle timeout.
    pub idle_closed: u64,
    /// `true` when every connection finished inside the drain grace;
    /// `false` when the grace expired with work still in flight.
    pub drained_clean: bool,
    /// Entries the daemon's cache held when it drained (the cache is
    /// dropped with the daemon).
    pub cache_entries: usize,
}

/// Shared state of one daemon: the cache every connection's jobs run
/// through, the drain/activity flags the accept loop and the connection
/// threads coordinate on, and the served counters. Jobs from different
/// connections run concurrently: the cache is sharded and memoizes a
/// pure function.
#[derive(Debug)]
struct DaemonShared {
    cache: Arc<SharedEvalCache>,
    threads: usize,
    hello_deadline: Duration,
    idle_timeout: Duration,
    log: bool,
    /// The resolved listen address a drain connects to once, to wake
    /// the accept loop out of its blocking `accept`.
    listen: ListenAddr,
    draining: AtomicBool,
    active: Arc<AtomicUsize>,
    jobs: AtomicU64,
    hello_timeouts: AtomicU64,
    idle_closed: AtomicU64,
}

impl DaemonShared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || drain_flag().load(Ordering::SeqCst)
    }

    /// Starts this daemon's drain and wakes the accept loop with one
    /// self-connect; later calls do nothing.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Err(e) = Stream::connect(&self.listen) {
            self.log(&format!(
                "cannot wake the accept loop on {}: {e}",
                self.listen
            ));
        }
    }

    fn log(&self, text: &str) {
        if self.log {
            eprintln!("[serve] {text}");
        }
    }
}

/// One live connection counted in the daemon's `active` gauge, released
/// on drop — so a connection thread that panics still lets the drain
/// finish clean.
struct ActiveConnection(Arc<AtomicUsize>);

impl ActiveConnection {
    fn enter(active: &Arc<AtomicUsize>) -> ActiveConnection {
        active.fetch_add(1, Ordering::SeqCst);
        ActiveConnection(Arc::clone(active))
    }
}

impl Drop for ActiveConnection {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What the accept loop does after `accept` failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptFailure {
    /// A client reset before the accept, or a signal interrupted it:
    /// accept again.
    Retry,
    /// The process or system is out of file descriptors: back off
    /// briefly, then accept again.
    Backoff,
    /// The listener itself is broken: stop serving.
    Fatal,
}

/// Classifies an `accept` error so that nothing a client does can end
/// the daemon.
fn classify_accept_error(e: &io::Error) -> AcceptFailure {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    match (e.kind(), e.raw_os_error()) {
        (io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted, _) => AcceptFailure::Retry,
        (_, Some(ENFILE | EMFILE)) => AcceptFailure::Backoff,
        _ => AcceptFailure::Fatal,
    }
}

/// How often the watcher thread checks [`drain_flag`].
const DRAIN_POLL: Duration = Duration::from_millis(20);

/// Runs the daemon until a drain request (SIGTERM via [`drain_flag`], or
/// a [`Message::Shutdown`] frame from any client) completes: stop
/// accepting, finish in-flight connections under
/// [`ServeOptions::grace`], report.
///
/// # Errors
///
/// Binding the listen address or a broken listener.
pub fn serve(options: ServeOptions) -> Result<ServeReport, String> {
    let (listener, resolved) = Listener::bind(&options.listen)
        .map_err(|e| format!("cannot listen on `{}`: {e}", options.listen))?;
    let cache = Arc::new(SharedEvalCache::new());
    let shared = Arc::new(DaemonShared {
        cache: Arc::clone(&cache),
        threads: options.threads,
        hello_deadline: options.hello_deadline,
        idle_timeout: options.idle_timeout,
        log: options.log,
        listen: resolved.clone(),
        draining: AtomicBool::new(false),
        active: Arc::new(AtomicUsize::new(0)),
        jobs: AtomicU64::new(0),
        hello_timeouts: AtomicU64::new(0),
        idle_closed: AtomicU64::new(0),
    });
    shared.log(&format!("listening on {resolved}"));

    // glibc restarts `accept` after a signal, so SIGTERM alone cannot
    // wake the loop: this watcher turns the flag into the self-connect.
    let watcher_shared = Arc::clone(&shared);
    let watcher = std::thread::Builder::new()
        .name("sega-serve-drain".to_owned())
        .spawn(move || {
            while !watcher_shared.draining.load(Ordering::SeqCst) {
                if drain_flag().load(Ordering::SeqCst) {
                    watcher_shared.begin_drain();
                    break;
                }
                std::thread::sleep(DRAIN_POLL);
            }
        })
        .map_err(|e| format!("cannot start the drain watcher: {e}"))?;

    let mut connections: u64 = 0;
    let accepted = loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(e) => match classify_accept_error(&e) {
                AcceptFailure::Retry => continue,
                AcceptFailure::Backoff => {
                    shared.log(&format!("accept on {resolved}: {e}; backing off"));
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
                AcceptFailure::Fatal => break Err(format!("accept on `{resolved}` failed: {e}")),
            },
        };
        // The drain's own wake-up connection, or a client that raced it:
        // dropped unserved and uncounted.
        if shared.draining() {
            break Ok(());
        }
        connections += 1;
        let conn = connections;
        let active = ActiveConnection::enter(&shared.active);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("sega-serve-conn-{conn}"))
            .spawn(move || {
                let _active = active;
                if let Err(e) = serve_connection(stream, conn, &conn_shared) {
                    conn_shared.log(&format!("connection {conn}: {e}"));
                }
            });
        if let Err(e) = spawned {
            shared.log(&format!("connection {conn}: cannot start its thread: {e}"));
        }
    };
    // Stops the watcher without a wake-up if the loop ended any other way.
    shared.draining.store(true, Ordering::SeqCst);
    let _ = watcher.join();
    accepted?;

    // Draining: the listener stops accepting (loop exited), in-flight
    // connections get a bounded grace to finish, then the daemon moves
    // on regardless — a wedged client must never pin a shutdown.
    shared.log("draining: no longer accepting, waiting for in-flight work");
    let deadline = Instant::now() + options.grace;
    while shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let drained_clean = shared.active.load(Ordering::SeqCst) == 0;
    Ok(ServeReport {
        connections,
        jobs: shared.jobs.load(Ordering::Relaxed),
        hello_timeouts: shared.hello_timeouts.load(Ordering::Relaxed),
        idle_closed: shared.idle_closed.load(Ordering::Relaxed),
        drained_clean,
        cache_entries: cache.len(),
    })
}

/// One connection's lifecycle: hello under the deadline, then serve
/// frames under the idle timeout until the peer leaves, goes quiet, or
/// the daemon drains.
fn serve_connection(stream: Stream, conn: u64, shared: &DaemonShared) -> Result<(), String> {
    // Hello phase, bounded: a connected-but-silent peer is dropped at
    // the deadline.
    stream
        .set_read_timeout(Some(shared.hello_deadline))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let hello = match frame::recv(&mut reader) {
        Ok(Message::Hello(hello)) => hello,
        Ok(_) => return Err("peer's first frame was not a hello".to_owned()),
        Err(e) if is_read_timeout(&e) => {
            shared.hello_timeouts.fetch_add(1, Ordering::Relaxed);
            writer.disconnect();
            return Ok(());
        }
        Err(e) => return Err(format!("hello: {e}")),
    };
    if hello.protocol != PROTOCOL_VERSION {
        return Err(format!(
            "peer speaks protocol {}, daemon speaks {PROTOCOL_VERSION}",
            hello.protocol
        ));
    }
    frame::send(&mut writer, &Message::Hello(Hello::daemon()))
        .map_err(|e| format!("hello: {e}"))?;
    shared.log(&format!(
        "connection {conn}: hello from role `{}` peer {}",
        hello.role, hello.peer_id
    ));

    // Serving phase, under the idle timeout.
    writer
        .set_read_timeout(Some(shared.idle_timeout))
        .map_err(|e| e.to_string())?;
    loop {
        if shared.draining() {
            writer.disconnect();
            return Ok(());
        }
        match frame::recv(&mut reader) {
            Ok(Message::Heartbeat) => continue,
            Ok(Message::JobRequest(job)) => {
                let response = run_job(shared, &job)?;
                shared.jobs.fetch_add(1, Ordering::Relaxed);
                // A client gone mid-job is not an error: the job ran to
                // completion and its estimates are in the cache — only
                // the write is skipped (deterministically, for any
                // disconnect timing).
                if let Err(e) = frame::send(&mut writer, &Message::JobResponse(response)) {
                    shared.log(&format!(
                        "connection {conn}: client left mid-job ({e}); cache delta retained"
                    ));
                    return Ok(());
                }
            }
            Ok(Message::Shutdown) => {
                shared.log(&format!("connection {conn}: shutdown frame, draining"));
                shared.begin_drain();
                return Ok(());
            }
            Ok(_) => return Err("peer sent a frame the daemon does not serve".to_owned()),
            Err(FrameError::Eof) => return Ok(()),
            Err(e) if is_read_timeout(&e) => {
                shared.idle_closed.fetch_add(1, Ordering::Relaxed);
                shared.log(&format!("connection {conn}: idle timeout, closing"));
                writer.disconnect();
                return Ok(());
            }
            Err(e) => return Err(format!("transport: {e}")),
        }
    }
}

/// Executes one job through the standard exploration pipeline on the
/// daemon's shared cache, concurrently with the jobs of other
/// connections.
fn run_job(shared: &DaemonShared, job: &JobRequest) -> Result<JobResponse, String> {
    let precision = Precision::from_name(&job.precision)
        .ok_or_else(|| format!("job {} names unknown precision `{}`", job.id, job.precision))?;
    // Checked before the job runs: NSGA-II asserts on a population below
    // 2, and an oversized budget would try to allocate without bound.
    crate::batch::check_budget(
        job.id as usize,
        job.population as usize,
        job.generations as usize,
    )
    .map_err(|e| e.to_string())?;
    let spec = crate::spec::UserSpec::new(job.wstore, precision)
        .map_err(|e| format!("job {}: {e}", job.id))?;
    let config = Nsga2Config {
        population: job.population as usize,
        generations: job.generations as usize,
        seed: job.seed,
        ..Default::default()
    };
    let pipeline = PipelineOptions {
        threads: shared.threads,
        shared_cache: Some(Arc::clone(&shared.cache)),
        ..Default::default()
    };
    let result = explore_pareto_with(
        &spec,
        &Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        &config,
        pipeline,
    );
    Ok(JobResponse {
        id: job.id,
        evaluations: result.evaluations as u64,
        distinct_evaluations: result.distinct_evaluations as u64,
        cache_hits: result.cache_hits as u64,
        front: result.solutions.iter().map(record_of_solution).collect(),
    })
}

/// The geometry record of a front member (the design's `H`/`L` are
/// powers of two by construction, so the log form is exact).
fn record_of_solution(s: &crate::explore::ParetoSolution) -> GeometryRecord {
    let (_, h, l, k) = s.design.geometry();
    GeometryRecord {
        log_h: h.trailing_zeros(),
        log_l: l.trailing_zeros(),
        k,
    }
}

/// Runs a batch job list against a remote daemon: one
/// [`Message::JobRequest`] per job over a single connection, fronts
/// rematerialized locally through the deterministic macro model (the
/// daemon ships geometry records; presentation needs no round-trip and
/// cannot diverge). With `drain`, a [`Message::Shutdown`] frame follows
/// the last job, asking the daemon to drain and exit.
///
/// # Errors
///
/// Connect/handshake failures, a daemon protocol violation, or the
/// daemon vanishing mid-batch.
pub fn run_batch_connected(
    addr: &ListenAddr,
    jobs: &[BatchJob],
    drain: bool,
) -> Result<BatchReport, String> {
    let writer = connect_with_retry(addr, Duration::from_secs(5))?;
    let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    let mut writer = writer;
    frame::send(&mut writer, &Message::Hello(Hello::client()))
        .map_err(|e| format!("hello: {e}"))?;
    match frame::recv(&mut reader) {
        Ok(Message::Hello(hello)) if hello.protocol == PROTOCOL_VERSION => {}
        Ok(Message::Hello(hello)) => {
            return Err(format!(
                "daemon speaks protocol {}, client speaks {PROTOCOL_VERSION}",
                hello.protocol
            ))
        }
        Ok(_) => return Err("daemon's first frame was not a hello".to_owned()),
        Err(e) => return Err(format!("hello: {e}")),
    }

    let tech = Technology::tsmc28();
    let conditions = OperatingConditions::paper_default();
    let mut outcomes: Vec<BatchOutcome> = Vec::with_capacity(jobs.len());
    for (index, job) in jobs.iter().enumerate() {
        let id = index as u64 + 1;
        let request = Message::JobRequest(JobRequest {
            id,
            wstore: job.spec.wstore,
            precision: job.spec.precision.name().to_owned(),
            population: job.config.population as u32,
            generations: job.config.generations as u32,
            seed: job.config.seed,
        });
        frame::send(&mut writer, &request).map_err(|e| format!("job {id}: {e}"))?;
        let response = loop {
            match frame::recv(&mut reader) {
                Ok(Message::JobResponse(response)) if response.id == id => break response,
                Ok(Message::Heartbeat) => continue,
                Ok(other) => {
                    return Err(format!(
                        "job {id}: daemon answered out of protocol: {other:?}"
                    ))
                }
                Err(e) => return Err(format!("job {id}: daemon lost mid-batch: {e}")),
            }
        };
        outcomes.push(BatchOutcome {
            config: job.config.clone(),
            result: materialize_result(job, &response, &tech, &conditions)?,
        });
    }
    if drain {
        frame::send(&mut writer, &Message::Shutdown).map_err(|e| format!("shutdown: {e}"))?;
    }

    Ok(BatchReport {
        evaluations: outcomes.iter().map(|o| o.result.evaluations).sum(),
        distinct_evaluations: outcomes.iter().map(|o| o.result.distinct_evaluations).sum(),
        cache_hits: outcomes.iter().map(|o| o.result.cache_hits).sum(),
        dominance_comparisons: 0,
        dominance_word_ops: 0,
        estimator: Default::default(),
        // The daemon owns the cache; a connected client only sees what
        // its own jobs report.
        preloaded_entries: 0,
        cache_entries: 0,
        backend: "daemon",
        complete: true,
        resumed_jobs: 0,
        outcomes,
    })
}

/// Rebuilds a full [`ExplorationResult`] from a daemon's job response:
/// the front's geometry records rematerialize through the in-process
/// macro model (bit-identical by the determinism contract), in the
/// daemon's order.
fn materialize_result(
    job: &BatchJob,
    response: &JobResponse,
    tech: &Technology,
    conditions: &OperatingConditions,
) -> Result<ExplorationResult, String> {
    let evaluator = MacroModelBackend.bind(&job.spec, tech, conditions);
    let mut solutions = Vec::with_capacity(response.front.len());
    for record in &response.front {
        let g = Geometry {
            log_h: record.log_h,
            log_l: record.log_l,
            k: record.k,
        };
        let solution = evaluator.materialize(&g).ok_or_else(|| {
            format!(
                "job {}: daemon front names a geometry outside the spec's design space",
                response.id
            )
        })?;
        solutions.push(solution);
    }
    Ok(ExplorationResult {
        spec: job.spec,
        solutions,
        evaluations: response.evaluations as usize,
        distinct_evaluations: response.distinct_evaluations as usize,
        cache_hits: response.cache_hits as usize,
        interned: 0,
        dominance: Default::default(),
        estimator: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::parse_jobs;

    fn scratch_addr(tag: &str) -> ListenAddr {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        ListenAddr::Unix(
            std::env::temp_dir().join(format!("sega-{tag}-{}-{n}.sock", std::process::id())),
        )
    }

    #[test]
    fn listen_addrs_parse_and_round_trip() {
        let unix = ListenAddr::parse("unix:/tmp/sega.sock").unwrap();
        assert_eq!(unix, ListenAddr::Unix(PathBuf::from("/tmp/sega.sock")));
        assert_eq!(unix.to_string(), "unix:/tmp/sega.sock");
        let tcp = ListenAddr::parse("tcp:127.0.0.1:7800").unwrap();
        assert_eq!(tcp, ListenAddr::Tcp("127.0.0.1:7800".to_owned()));
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:7800");
        for bad in [
            "",
            "unix:",
            "tcp:",
            "tcp:noport",
            "udp:127.0.0.1:1",
            "/tmp/x",
        ] {
            assert!(ListenAddr::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn tcp_port_zero_resolves_to_a_real_port() {
        let (listener, resolved) =
            Listener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_owned())).expect("bind ephemeral");
        match &resolved {
            ListenAddr::Tcp(hostport) => assert!(!hostport.ends_with(":0"), "{resolved}"),
            other => panic!("expected tcp, got {other:?}"),
        }
        drop(listener);
    }

    /// The heart of the daemon acceptance: two clients in sequence over
    /// one warm daemon — the second client's repeat batch reports **0
    /// distinct evaluations** and a bit-identical front, and a shutdown
    /// frame drains the daemon cleanly.
    #[test]
    fn warm_daemon_answers_a_repeat_batch_from_cache() {
        let addr = scratch_addr("daemon");
        let mut options = ServeOptions::new(addr.clone());
        options.threads = 1;
        options.grace = Duration::from_secs(10);
        let daemon = std::thread::spawn(move || serve(options));

        let jobs = parse_jobs(
            r#"[{"wstore": 8192, "precision": "int8", "population": 10, "generations": 4, "seed": 5},
                {"wstore": 8192, "precision": "int4", "population": 10, "generations": 4, "seed": 6}]"#,
            &Nsga2Config::default(),
        )
        .unwrap();
        let cold = run_batch_connected(&addr, &jobs, false).expect("first client");
        assert_eq!(cold.outcomes.len(), 2);
        assert!(cold.distinct_evaluations > 0);
        assert_eq!(cold.backend, "daemon");
        assert_eq!(
            cold.distinct_evaluations + cold.cache_hits,
            cold.evaluations,
            "accounting must partition exactly"
        );

        // Local reference: the daemon's front must be bit-identical to
        // an in-process run of the same jobs.
        let local = crate::batch::run_batch(
            &jobs,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            PipelineOptions::default(),
        );
        for (remote, reference) in cold.outcomes.iter().zip(&local.outcomes) {
            assert_eq!(
                remote.result.objective_matrix(),
                reference.result.objective_matrix(),
                "daemon front diverged from the in-process reference"
            );
        }

        // Second client, same jobs, warm daemon: zero distinct
        // evaluations, identical front — then drain.
        let warm = run_batch_connected(&addr, &jobs, true).expect("second client");
        assert_eq!(
            warm.distinct_evaluations, 0,
            "warm daemon must serve from cache"
        );
        assert_eq!(warm.evaluations, cold.evaluations);
        for (w, c) in warm.outcomes.iter().zip(&cold.outcomes) {
            assert_eq!(w.result.objective_matrix(), c.result.objective_matrix());
        }

        let report = daemon.join().expect("daemon thread").expect("daemon exit");
        assert_eq!(report.connections, 2);
        assert_eq!(report.jobs, 4);
        assert!(report.drained_clean, "{report:?}");
        assert!(report.cache_entries > 0);
    }

    /// Three clients send different jobs at the same moment, so the jobs
    /// run concurrently on the daemon's one cache: every front is still
    /// bit-identical to an in-process run and every client's accounting
    /// partitions exactly.
    #[test]
    fn concurrent_clients_get_in_process_fronts() {
        let addr = scratch_addr("concurrent");
        let mut options = ServeOptions::new(addr.clone());
        options.threads = 1;
        options.grace = Duration::from_secs(10);
        let daemon = std::thread::spawn(move || serve(options));

        let batches: Vec<Vec<BatchJob>> = [
            r#"[{"wstore": 8192, "precision": "int8", "population": 10, "generations": 4, "seed": 11}]"#,
            r#"[{"wstore": 8192, "precision": "int4", "population": 10, "generations": 4, "seed": 12}]"#,
            r#"[{"wstore": 16384, "precision": "bf16", "population": 10, "generations": 4, "seed": 13}]"#,
        ]
        .iter()
        .map(|text| parse_jobs(text, &Nsga2Config::default()).unwrap())
        .collect();
        let start = std::sync::Barrier::new(batches.len());
        let served: Vec<BatchReport> = std::thread::scope(|s| {
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
            let local = crate::batch::run_batch(
                jobs,
                &Technology::tsmc28(),
                &OperatingConditions::paper_default(),
                PipelineOptions::default(),
            );
            assert_eq!(
                report.outcomes[0].result.objective_matrix(),
                local.outcomes[0].result.objective_matrix(),
                "a concurrent job's front diverged from the in-process reference"
            );
            assert_eq!(report.evaluations, local.evaluations);
            assert_eq!(
                report.distinct_evaluations + report.cache_hits,
                report.evaluations,
                "accounting must partition exactly"
            );
        }
        run_batch_connected(&addr, &[], true).expect("drain");
        let report = daemon.join().expect("daemon thread").expect("daemon exit");
        assert_eq!(report.jobs, 3, "{report:?}");
        assert_eq!(report.connections, 4, "{report:?}");
        assert!(report.drained_clean, "{report:?}");
    }

    /// A shutdown frame wakes a daemon blocked in `accept`: `serve`
    /// returns promptly instead of waiting for another client.
    #[test]
    fn shutdown_frame_wakes_an_idle_daemon() {
        let addr = scratch_addr("wake");
        let mut options = ServeOptions::new(addr.clone());
        options.threads = 1;
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(serve(options)));
        run_batch_connected(&addr, &[], true).expect("shutdown client");
        let report = finished
            .recv_timeout(Duration::from_secs(5))
            .expect("serve must return after a shutdown frame")
            .expect("daemon exit");
        assert_eq!(report.connections, 1, "{report:?}");
        assert!(report.drained_clean, "{report:?}");
    }

    #[test]
    fn accept_errors_a_client_can_cause_never_end_the_daemon() {
        let kind = |k| classify_accept_error(&io::Error::from(k));
        assert_eq!(kind(io::ErrorKind::ConnectionAborted), AcceptFailure::Retry);
        assert_eq!(kind(io::ErrorKind::Interrupted), AcceptFailure::Retry);
        for out_of_fds in [23, 24] {
            assert_eq!(
                classify_accept_error(&io::Error::from_raw_os_error(out_of_fds)),
                AcceptFailure::Backoff
            );
        }
        // EBADF and EINVAL: the listener itself is gone.
        for broken in [9, 22] {
            assert_eq!(
                classify_accept_error(&io::Error::from_raw_os_error(broken)),
                AcceptFailure::Fatal
            );
        }
    }

    #[test]
    fn a_panicking_connection_still_releases_its_slot() {
        let active = Arc::new(AtomicUsize::new(0));
        let guard = ActiveConnection::enter(&active);
        assert_eq!(active.load(Ordering::SeqCst), 1);
        let outcome = std::panic::catch_unwind(move || {
            let _guard = guard;
            panic!("connection thread panicked");
        });
        assert!(outcome.is_err());
        assert_eq!(active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn silent_peers_are_dropped_at_the_hello_deadline() {
        let addr = scratch_addr("hello");
        let mut options = ServeOptions::new(addr.clone());
        options.threads = 1;
        options.hello_deadline = Duration::from_millis(100);
        let daemon = std::thread::spawn(move || serve(options));

        // A peer that connects and never speaks: the daemon must cut it
        // loose at the deadline, not wait forever.
        let mute = connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
        std::thread::sleep(Duration::from_millis(400));
        drop(mute);

        // The daemon is still serving: a real client gets through, then
        // drains it.
        let jobs = parse_jobs(
            r#"[{"wstore": 8192, "precision": "int8", "population": 8, "generations": 2, "seed": 1}]"#,
            &Nsga2Config::default(),
        )
        .unwrap();
        let report = run_batch_connected(&addr, &jobs, true).expect("client after mute peer");
        assert_eq!(report.outcomes.len(), 1);
        let served = daemon.join().expect("daemon thread").expect("daemon exit");
        assert_eq!(served.hello_timeouts, 1, "{served:?}");
        assert_eq!(served.jobs, 1);
    }

    /// A job NSGA-II cannot run (population 1) or must not run
    /// (population 100,000,000) is refused before it runs, so the daemon
    /// keeps serving: a later well-formed client still gets
    /// its front, bit-identical to an in-process run.
    #[test]
    fn rejected_job_does_not_brick_the_daemon() {
        let addr = scratch_addr("reject");
        let mut options = ServeOptions::new(addr.clone());
        options.threads = 1;
        let daemon = std::thread::spawn(move || serve(options));

        let good = parse_jobs(
            r#"[{"wstore": 4096, "precision": "int4", "population": 8, "generations": 3, "seed": 2}]"#,
            &Nsga2Config::default(),
        )
        .unwrap();
        // `parse_jobs` refuses these jobs, so build them by hand as a
        // client that skips validation would: a population out of range,
        // a `Wstore` that is not a power of two, and one below INT4's
        // minimum of 32 weights.
        let mut bad_jobs = Vec::new();
        for population in [1, 100_000_000] {
            let mut bad = good.clone();
            bad[0].config.population = population;
            bad_jobs.push(bad);
        }
        for wstore in [3000, 16] {
            let mut bad = good.clone();
            bad[0].spec.wstore = wstore;
            bad_jobs.push(bad);
        }
        for bad in &bad_jobs {
            let err = run_batch_connected(&addr, bad, false).unwrap_err();
            assert!(err.contains("job 1"), "{err}");
        }

        let served = run_batch_connected(&addr, &good, true).expect("client after a bad job");
        let local = crate::batch::run_batch(
            &good,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            PipelineOptions::default(),
        );
        assert_eq!(
            served.outcomes[0].result.objective_matrix(),
            local.outcomes[0].result.objective_matrix()
        );
        let report = daemon.join().expect("daemon thread").expect("daemon exit");
        assert_eq!(report.jobs, 1, "{report:?}");
    }

    /// A peer that sends a frame kind the protocol withdrew (the worker
    /// fleet's `eval-request`) loses only its own connection: the daemon
    /// keeps serving, and a fresh client still gets the in-process front.
    #[test]
    fn a_retired_frame_kind_closes_only_its_connection() {
        let addr = scratch_addr("retired");
        let mut options = ServeOptions::new(addr.clone());
        options.threads = 1;
        let daemon = std::thread::spawn(move || serve(options));

        let writer = connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
        let mut reader = BufReader::new(writer.try_clone().unwrap());
        let mut writer = writer;
        frame::send(&mut writer, &Message::Hello(Hello::client())).unwrap();
        assert!(matches!(
            frame::recv(&mut reader).unwrap(),
            Message::Hello(_)
        ));
        let mut retired = sega_wire::Writer::with_header();
        retired.put_str("eval-request");
        retired.put_u64(1);
        frame::write_frame(&mut writer, &retired.finish()).unwrap();
        assert!(
            matches!(frame::recv(&mut reader), Err(FrameError::Eof)),
            "the daemon must close the offending connection"
        );

        let jobs = parse_jobs(
            r#"[{"wstore": 8192, "precision": "int8", "population": 8, "generations": 3, "seed": 4}]"#,
            &Nsga2Config::default(),
        )
        .unwrap();
        let served = run_batch_connected(&addr, &jobs, true).expect("client after the bad frame");
        let local = crate::batch::run_batch(
            &jobs,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            PipelineOptions::default(),
        );
        assert_eq!(
            served.outcomes[0].result.objective_matrix(),
            local.outcomes[0].result.objective_matrix()
        );
        let report = daemon.join().expect("daemon thread").expect("daemon exit");
        assert_eq!(report.connections, 2, "{report:?}");
        assert_eq!(report.jobs, 1, "{report:?}");
    }

    #[test]
    fn client_disconnect_mid_job_leaves_the_cache_delta() {
        let addr = scratch_addr("gone");
        let mut options = ServeOptions::new(addr.clone());
        options.threads = 1;
        let daemon = std::thread::spawn(move || serve(options));

        // Hand-rolled client: hello, submit a job, vanish immediately.
        let writer = connect_with_retry(&addr, Duration::from_secs(5)).expect("connect");
        let mut reader = BufReader::new(writer.try_clone().unwrap());
        let mut writer = writer;
        frame::send(&mut writer, &Message::Hello(Hello::client())).unwrap();
        assert!(matches!(
            frame::recv(&mut reader).unwrap(),
            Message::Hello(_)
        ));
        frame::send(
            &mut writer,
            &Message::JobRequest(JobRequest {
                id: 1,
                wstore: 8192,
                precision: "int8".to_owned(),
                population: 10,
                generations: 3,
                seed: 9,
            }),
        )
        .unwrap();
        writer.disconnect();
        drop((reader, writer));

        // A well-behaved client repeating the job finds it fully warm:
        // the abandoned job ran to completion and kept its delta.
        let jobs = parse_jobs(
            r#"[{"wstore": 8192, "precision": "int8", "population": 10, "generations": 3, "seed": 9}]"#,
            &Nsga2Config::default(),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let warm = loop {
            let report = run_batch_connected(&addr, &jobs, false).expect("repeat client");
            if report.distinct_evaluations == 0 || Instant::now() >= deadline {
                break report;
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        assert_eq!(
            warm.distinct_evaluations, 0,
            "the abandoned job's estimates must already be cached"
        );
        let _ = run_batch_connected(&addr, &[], true).expect("drain");
        let served = daemon.join().expect("daemon thread").expect("daemon exit");
        assert!(served.jobs >= 2, "{served:?}");
    }
}
