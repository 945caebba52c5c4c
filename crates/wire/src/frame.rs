//! The framed transport of the remote evaluation protocol.
//!
//! A *frame* is a `u32` little-endian length prefix followed by exactly
//! that many payload bytes; every payload is a complete `sega-wire`
//! binary document (magic + [`crate::FORMAT_VERSION`] header, then a
//! kind tag), so a receiver can always tell a stale or foreign peer from
//! a truncated stream. Frames travel over any ordered byte stream — the
//! engine uses the stdio pipes of `sega-dcim worker --serve` processes,
//! but nothing here knows about processes.
//!
//! The message vocabulary is deliberately tiny:
//!
//! * [`Message::Hello`] ([`Hello`]) — sent once by every peer on
//!   connection; carries [`PROTOCOL_VERSION`] so both sides fail loudly
//!   on skew, plus the peer's capabilities: its role (worker, client or
//!   daemon), stable id, partition capacity weight, and the
//!   fault-injection knobs it was armed with.
//! * [`Message::Request`] ([`EvalRequest`]) — a cohort of geometries to
//!   evaluate under one [`KeyRecord`]'s invariants (the same
//!   fingerprinted key record cache snapshots use, so a worker can
//!   reconstruct the *exact* technology, conditions, precision and
//!   capacity from bit patterns alone).
//! * [`Message::Response`] ([`EvalResponse`]) — objective rows in cohort
//!   order plus a [`Snapshot`] **delta** of the entries the worker
//!   computed fresh, ready for `SharedEvalCache::load` on the
//!   coordinator side.
//! * [`Message::Heartbeat`] — a keep-alive either side may send between
//!   exchanges; receivers reset their idle timer and otherwise ignore it.
//! * [`Message::JobRequest`] / [`Message::JobResponse`] — the daemon
//!   vocabulary: a whole exploration job shipped to a `sega-dcim serve`
//!   instance, answered with the front and its accounting.
//! * [`Message::Shutdown`] — orderly teardown; to a daemon it requests a
//!   graceful drain.
//!
//! Failure semantics are the transport's whole point: a dead worker
//! surfaces as [`FrameError::Eof`] (clean) or an I/O error, a corrupted
//! one as a [`WireError`] — and the coordinator requeues the sub-cohort
//! either way, so the protocol never needs retransmission state.

use std::io::{Read, Write};

use crate::binary::{Reader, WireError, Writer};
use crate::snapshot::{GeometryRecord, KeyRecord, Snapshot};

/// The remote-evaluation protocol generation, carried in every
/// [`Message::Hello`]. Bumped independently of [`crate::FORMAT_VERSION`]
/// when the message vocabulary changes incompatibly.
///
/// Version 2 extended the hello with capability negotiation (role, peer
/// id, capacity weight, advertised faults) and added the heartbeat and
/// daemon job frames. A version 3 once added cache-sync frames; they were
/// withdrawn, and version 2 is again the exact vocabulary, so a v3 peer
/// fails the hello check instead of sending frames nobody decodes.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a single frame's payload, guarding the receiver
/// against a corrupted length prefix committing it to a gigabyte read.
/// Far above any real cohort (a geometry is 12 bytes, an objective row
/// 32).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A transport failure: either the byte stream broke (I/O, EOF,
/// oversized frame, deadline missed) or the bytes arrived but don't
/// decode.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed mid-frame.
    Io(std::io::Error),
    /// The stream ended cleanly on a frame boundary (peer closed).
    Eof,
    /// The length prefix declares more than [`MAX_FRAME_BYTES`].
    TooLarge {
        /// Declared payload length.
        declared: usize,
        /// The frame's message kind, sniffed from the payload head when
        /// enough of it could be read — so the error names *what* was
        /// oversized, not just how big it claimed to be.
        kind: Option<String>,
    },
    /// No frame arrived within the receiver's deadline — the peer is
    /// stalled or hung. Produced by deadline-aware receivers (the frame
    /// functions here block indefinitely; supervision layers wrap them).
    Timeout {
        /// How long the receiver waited.
        waited: std::time::Duration,
    },
    /// The payload arrived but is not a valid protocol message.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport: {e}"),
            FrameError::Eof => write!(f, "stream closed"),
            FrameError::TooLarge { declared, kind } => {
                let kind = kind.as_deref().unwrap_or("unreadable");
                write!(
                    f,
                    "frame declares {declared} bytes (limit {MAX_FRAME_BYTES}, kind `{kind}`)"
                )
            }
            FrameError::Timeout { waited } => {
                write!(f, "no frame within {waited:?} (peer stalled)")
            }
            FrameError::Wire(e) => write!(f, "frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes, so a request
/// is visible to the peer the moment the call returns — the pipelined
/// dispatch pattern (write to every worker, then collect) depends on it.
///
/// # Errors
///
/// [`FrameError::Io`] from the underlying stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Writes a deliberately **truncated** frame: the length prefix promises
/// the full `payload`, but only the first `keep` bytes follow (then a
/// flush). When the writer subsequently closes the stream, the receiver
/// sees a mid-frame EOF — [`FrameError::Io`], never the orderly
/// [`FrameError::Eof`]. This is a fault-injection helper for chaos
/// testing the supervision layer; a correct peer never calls it.
///
/// # Errors
///
/// [`FrameError::Io`] from the underlying stream.
pub fn write_truncated_frame(
    w: &mut impl Write,
    payload: &[u8],
    keep: usize,
) -> Result<(), FrameError> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload[..keep.min(payload.len())])?;
    w.flush()?;
    Ok(())
}

/// Reads one frame's payload.
///
/// # Errors
///
/// [`FrameError::Eof`] when the stream ends *before* a length prefix
/// begins (the peer closed between frames — the orderly case);
/// [`FrameError::Io`] when it ends inside a frame; [`FrameError::TooLarge`]
/// on an absurd length prefix.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        let n = r.read(&mut prefix[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Err(FrameError::Eof)
            } else {
                Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof.into()))
            };
        }
        filled += n;
    }
    let declared = u32::from_le_bytes(prefix) as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge {
            declared,
            kind: sniff_kind(r, declared),
        });
    }
    let mut payload = vec![0u8; declared];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Best-effort read of an oversized frame's message kind: pull up to 256
/// bytes of the payload head (never the declared length — the guard
/// exists to refuse that commitment) and decode the document header +
/// kind tag. `None` when the stream ends first or the head is not a wire
/// document — the error is already terminal either way.
fn sniff_kind(r: &mut impl Read, declared: usize) -> Option<String> {
    let mut head = vec![0u8; declared.min(256)];
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) | Err(_) => break,
            Ok(n) => filled += n,
        }
    }
    let mut reader = Reader::open(&head[..filled]).ok()?;
    reader.take_str().ok()
}

/// A cohort of geometries to evaluate under one key's invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Correlation id; echoed verbatim in the matching [`EvalResponse`].
    pub id: u64,
    /// The full invariants (technology, conditions, precision, capacity)
    /// as exact bit patterns — everything a worker needs to bind an
    /// estimator, nothing it has to share out of band.
    pub key: KeyRecord,
    /// The geometries to evaluate, already deduplicated by the sender.
    pub cohort: Vec<GeometryRecord>,
}

/// The answer to one [`EvalRequest`].
#[derive(Debug, Clone)]
pub struct EvalResponse {
    /// The request's correlation id.
    pub id: u64,
    /// One objective row per cohort geometry, element-wise in request
    /// order, bit-exact (infeasible geometries are `[+∞; 4]`).
    pub rows: Vec<[f64; 4]>,
    /// The entries this worker computed *fresh* for this request (rows
    /// it served from its own memo are not repeated), as a mergeable
    /// cache snapshot: the coordinator folds it into its shared cache
    /// with union semantics, so worker results persist and survive the
    /// worker.
    pub delta: Snapshot,
}

/// The capability half of the versioned handshake: who this peer is and
/// what it brings. Sent once, first, by every connecting peer; a daemon
/// answers a client hello with its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The peer's [`PROTOCOL_VERSION`] — both sides fail loudly on skew.
    pub protocol: u32,
    /// `"worker"`, `"client"` or `"daemon"` — what the peer intends to
    /// do on this connection.
    pub role: String,
    /// The peer's stable identity (a worker's `--worker-id`; clients use
    /// 0) — how a reconnecting worker names the rotation slot it wants
    /// back.
    pub peer_id: u64,
    /// The peer's negotiated partition weight: a worker advertising
    /// capacity `c` receives `c` shares of the weighted shard partition.
    /// Always ≥ 1 for workers.
    pub capacity: u32,
    /// The fault-injection knobs this peer was armed with (empty in
    /// production) — supervisors log them so a chaos run is
    /// self-describing.
    pub faults: Vec<String>,
}

impl Hello {
    /// A worker hello with the current protocol version and no faults.
    pub fn worker(peer_id: u64, capacity: u32) -> Hello {
        Hello {
            protocol: PROTOCOL_VERSION,
            role: "worker".to_owned(),
            peer_id,
            capacity: capacity.max(1),
            faults: Vec::new(),
        }
    }

    /// A batch-client hello.
    pub fn client() -> Hello {
        Hello {
            protocol: PROTOCOL_VERSION,
            role: "client".to_owned(),
            peer_id: 0,
            capacity: 1,
            faults: Vec::new(),
        }
    }

    /// The daemon's answering hello.
    pub fn daemon() -> Hello {
        Hello {
            protocol: PROTOCOL_VERSION,
            role: "daemon".to_owned(),
            peer_id: 0,
            capacity: 1,
            faults: Vec::new(),
        }
    }
}

/// One whole exploration job shipped to a `sega-dcim serve` daemon: the
/// specification plus the NSGA-II budget, everything the daemon needs to
/// reproduce the exploration bit-exactly on its own pool and cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Correlation id; echoed in the matching [`JobResponse`].
    pub id: u64,
    /// Specification capacity (weights stored).
    pub wstore: u64,
    /// Specification precision name.
    pub precision: String,
    /// NSGA-II population.
    pub population: u32,
    /// NSGA-II generations.
    pub generations: u32,
    /// NSGA-II seed.
    pub seed: u64,
}

/// The daemon's answer to one [`JobRequest`]: the Pareto front as exact
/// geometries (the client rematerializes estimates locally — the macro
/// model is deterministic, so the reconstruction is bit-identical) plus
/// the exploration's accounting against the daemon's shared cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResponse {
    /// The request's correlation id.
    pub id: u64,
    /// Genome evaluations the GA requested.
    pub evaluations: u64,
    /// Evaluations that reached the estimator — `0` when the daemon's
    /// warm cache served the whole job.
    pub distinct_evaluations: u64,
    /// Evaluations served from the daemon's cache.
    pub cache_hits: u64,
    /// The front's design points, in the exploration's canonical order.
    pub front: Vec<GeometryRecord>,
}

/// One protocol message. See the module docs for the choreography.
#[derive(Debug)]
pub enum Message {
    /// Peer → supervisor (and daemon → client), once, on connection.
    Hello(Hello),
    /// Coordinator → worker: evaluate a cohort.
    Request(EvalRequest),
    /// Worker → coordinator: the cohort's objective rows + cache delta.
    Response(EvalResponse),
    /// Either direction, between exchanges: still alive, reset your idle
    /// timer. Carries nothing.
    Heartbeat,
    /// Client → daemon: run one exploration job.
    JobRequest(JobRequest),
    /// Daemon → client: the job's front + accounting.
    JobResponse(JobResponse),
    /// Coordinator → worker: exit cleanly. Client → daemon: drain.
    Shutdown,
}

const KIND_HELLO: &str = "worker-hello";
const KIND_REQUEST: &str = "eval-request";
const KIND_RESPONSE: &str = "eval-response";
const KIND_HEARTBEAT: &str = "heartbeat";
const KIND_JOB_REQUEST: &str = "job-request";
const KIND_JOB_RESPONSE: &str = "job-response";
const KIND_SHUTDOWN: &str = "shutdown";

impl Message {
    /// Encodes this message as a standalone wire document (the frame
    /// payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        match self {
            Message::Hello(hello) => {
                w.put_str(KIND_HELLO);
                w.put_u32(hello.protocol);
                w.put_str(&hello.role);
                w.put_u64(hello.peer_id);
                w.put_u32(hello.capacity);
                w.put_u32(hello.faults.len() as u32);
                for fault in &hello.faults {
                    w.put_str(fault);
                }
            }
            Message::Request(req) => {
                w.put_str(KIND_REQUEST);
                w.put_u64(req.id);
                w.put_u64(req.key.fingerprint());
                req.key.encode_into(&mut w);
                w.put_u32(req.cohort.len() as u32);
                for g in &req.cohort {
                    w.put_u32(g.log_h);
                    w.put_u32(g.log_l);
                    w.put_u32(g.k);
                }
            }
            Message::Response(resp) => {
                w.put_str(KIND_RESPONSE);
                w.put_u64(resp.id);
                w.put_u32(resp.rows.len() as u32);
                for row in &resp.rows {
                    for objective in row {
                        w.put_f64(*objective);
                    }
                }
                let delta = resp.delta.encode_binary();
                w.put_u32(delta.len() as u32);
                w.put_bytes(&delta);
            }
            Message::Heartbeat => {
                w.put_str(KIND_HEARTBEAT);
            }
            Message::JobRequest(job) => {
                w.put_str(KIND_JOB_REQUEST);
                w.put_u64(job.id);
                w.put_u64(job.wstore);
                w.put_str(&job.precision);
                w.put_u32(job.population);
                w.put_u32(job.generations);
                w.put_u64(job.seed);
            }
            Message::JobResponse(resp) => {
                w.put_str(KIND_JOB_RESPONSE);
                w.put_u64(resp.id);
                w.put_u64(resp.evaluations);
                w.put_u64(resp.distinct_evaluations);
                w.put_u64(resp.cache_hits);
                w.put_u32(resp.front.len() as u32);
                for g in &resp.front {
                    w.put_u32(g.log_h);
                    w.put_u32(g.log_l);
                    w.put_u32(g.k);
                }
            }
            Message::Shutdown => {
                w.put_str(KIND_SHUTDOWN);
            }
        }
        w.finish()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a bad header, an unknown message kind, a key
    /// whose stored fingerprint disagrees with its fields, or any
    /// truncation.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::open(bytes)?;
        let kind = r.take_str()?;
        let message = match kind.as_str() {
            KIND_HELLO => {
                let protocol = r.take_u32()?;
                let role = r.take_str()?;
                let peer_id = r.take_u64()?;
                let capacity = r.take_u32()?;
                let count = r.take_u32()? as usize;
                let mut faults = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    faults.push(r.take_str()?);
                }
                Message::Hello(Hello {
                    protocol,
                    role,
                    peer_id,
                    capacity,
                    faults,
                })
            }
            KIND_REQUEST => {
                let id = r.take_u64()?;
                let stored = r.take_u64()?;
                let key = KeyRecord::decode_from(&mut r)?;
                if key.fingerprint() != stored {
                    return Err(WireError::Malformed(format!(
                        "request key fingerprint mismatch for `{} {} w{}`",
                        key.tech_name, key.precision, key.wstore
                    )));
                }
                let count = r.take_u32()? as usize;
                let mut cohort = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    cohort.push(GeometryRecord {
                        log_h: r.take_u32()?,
                        log_l: r.take_u32()?,
                        k: r.take_u32()?,
                    });
                }
                Message::Request(EvalRequest { id, key, cohort })
            }
            KIND_RESPONSE => {
                let id = r.take_u64()?;
                let count = r.take_u32()? as usize;
                let mut rows = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let mut row = [0.0f64; 4];
                    for slot in &mut row {
                        *slot = r.take_f64()?;
                    }
                    rows.push(row);
                }
                let delta_len = r.take_u32()? as usize;
                let delta = Snapshot::decode_binary(r.take_bytes(delta_len)?)?;
                Message::Response(EvalResponse { id, rows, delta })
            }
            KIND_HEARTBEAT => Message::Heartbeat,
            KIND_JOB_REQUEST => {
                let id = r.take_u64()?;
                let wstore = r.take_u64()?;
                let precision = r.take_str()?;
                let population = r.take_u32()?;
                let generations = r.take_u32()?;
                let seed = r.take_u64()?;
                Message::JobRequest(JobRequest {
                    id,
                    wstore,
                    precision,
                    population,
                    generations,
                    seed,
                })
            }
            KIND_JOB_RESPONSE => {
                let id = r.take_u64()?;
                let evaluations = r.take_u64()?;
                let distinct_evaluations = r.take_u64()?;
                let cache_hits = r.take_u64()?;
                let count = r.take_u32()? as usize;
                let mut front = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    front.push(GeometryRecord {
                        log_h: r.take_u32()?,
                        log_l: r.take_u32()?,
                        k: r.take_u32()?,
                    });
                }
                Message::JobResponse(JobResponse {
                    id,
                    evaluations,
                    distinct_evaluations,
                    cache_hits,
                    front,
                })
            }
            KIND_SHUTDOWN => Message::Shutdown,
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown protocol message kind `{other}`"
                )))
            }
        };
        if !r.is_at_end() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after {kind} message",
                bytes.len() - r.position()
            )));
        }
        Ok(message)
    }
}

/// Frames and sends one message.
///
/// # Errors
///
/// [`FrameError::Io`].
pub fn send(w: &mut impl Write, message: &Message) -> Result<(), FrameError> {
    write_frame(w, &message.encode())
}

/// Receives and decodes one message.
///
/// # Errors
///
/// Any [`FrameError`]; a payload that frames correctly but does not
/// decode is [`FrameError::Wire`].
pub fn recv(r: &mut impl Read) -> Result<Message, FrameError> {
    Ok(Message::decode(&read_frame(r)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{EntryRecord, SpaceRecord};

    fn key() -> KeyRecord {
        KeyRecord {
            tech_name: "tsmc28-calibrated".to_owned(),
            node_bits: 28.0f64.to_bits(),
            gate_area_bits: 0.18f64.to_bits(),
            gate_delay_bits: 0.008f64.to_bits(),
            gate_energy_bits: 0.4f64.to_bits(),
            nominal_voltage_bits: 0.9f64.to_bits(),
            voltage_bits: 0.9f64.to_bits(),
            sparsity_bits: 0.1f64.to_bits(),
            activity_bits: 0.1f64.to_bits(),
            precision: "INT8".to_owned(),
            wstore: 8192,
        }
    }

    fn sample_request() -> EvalRequest {
        EvalRequest {
            id: 42,
            key: key(),
            cohort: vec![
                GeometryRecord {
                    log_h: 5,
                    log_l: 1,
                    k: 3,
                },
                GeometryRecord {
                    log_h: 7,
                    log_l: 0,
                    k: 8,
                },
            ],
        }
    }

    fn sample_response() -> EvalResponse {
        let mut delta = Snapshot {
            spaces: vec![SpaceRecord {
                key: key(),
                entries: vec![EntryRecord {
                    geometry: GeometryRecord {
                        log_h: 5,
                        log_l: 1,
                        k: 3,
                    },
                    objectives: [0.25, f64::NAN, f64::INFINITY, -1.5],
                }],
            }],
        };
        delta.canonicalize();
        EvalResponse {
            id: 42,
            rows: vec![[0.25, f64::NAN, f64::INFINITY, -1.5], [f64::INFINITY; 4]],
            delta,
        }
    }

    fn round_trip(message: &Message) -> Message {
        let mut stream = Vec::new();
        send(&mut stream, message).unwrap();
        let mut cursor = stream.as_slice();
        let back = recv(&mut cursor).unwrap();
        assert!(cursor.is_empty(), "frame must consume exactly its bytes");
        back
    }

    fn sample_hello() -> Hello {
        Hello {
            protocol: PROTOCOL_VERSION,
            role: "worker".to_owned(),
            peer_id: 3,
            capacity: 4,
            faults: vec!["reconnect-after".to_owned(), "late-hello".to_owned()],
        }
    }

    fn sample_job() -> JobRequest {
        JobRequest {
            id: 9,
            wstore: 16384,
            precision: "bf16".to_owned(),
            population: 16,
            generations: 8,
            seed: 42,
        }
    }

    fn sample_job_response() -> JobResponse {
        JobResponse {
            id: 9,
            evaluations: 144,
            distinct_evaluations: 57,
            cache_hits: 87,
            front: vec![
                GeometryRecord {
                    log_h: 5,
                    log_l: 1,
                    k: 3,
                },
                GeometryRecord {
                    log_h: 7,
                    log_l: 0,
                    k: 8,
                },
            ],
        }
    }

    #[test]
    fn every_message_kind_round_trips() {
        match round_trip(&Message::Hello(sample_hello())) {
            Message::Hello(hello) => assert_eq!(hello, sample_hello()),
            other => panic!("wrong kind: {other:?}"),
        }
        assert!(matches!(
            round_trip(&Message::Heartbeat),
            Message::Heartbeat
        ));
        match round_trip(&Message::JobRequest(sample_job())) {
            Message::JobRequest(job) => assert_eq!(job, sample_job()),
            other => panic!("wrong kind: {other:?}"),
        }
        match round_trip(&Message::JobResponse(sample_job_response())) {
            Message::JobResponse(resp) => assert_eq!(resp, sample_job_response()),
            other => panic!("wrong kind: {other:?}"),
        }
        match round_trip(&Message::Request(sample_request())) {
            Message::Request(req) => assert_eq!(req, sample_request()),
            other => panic!("wrong kind: {other:?}"),
        }
        match round_trip(&Message::Response(sample_response())) {
            Message::Response(resp) => {
                assert_eq!(resp.id, 42);
                // Bit-exact rows, including the NaN and the infinities.
                let bits = |rows: &[[f64; 4]]| -> Vec<[u64; 4]> {
                    rows.iter().map(|r| r.map(f64::to_bits)).collect()
                };
                assert_eq!(bits(&resp.rows), bits(&sample_response().rows));
                assert_eq!(resp.delta, sample_response().delta);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        assert!(matches!(round_trip(&Message::Shutdown), Message::Shutdown));
    }

    #[test]
    fn messages_pipeline_back_to_back_on_one_stream() {
        let mut stream = Vec::new();
        send(&mut stream, &Message::Request(sample_request())).unwrap();
        send(&mut stream, &Message::Shutdown).unwrap();
        let mut cursor = stream.as_slice();
        assert!(matches!(recv(&mut cursor).unwrap(), Message::Request(_)));
        assert!(matches!(recv(&mut cursor).unwrap(), Message::Shutdown));
        assert!(matches!(recv(&mut cursor).unwrap_err(), FrameError::Eof));
    }

    #[test]
    fn truncation_is_distinguished_from_clean_eof() {
        let mut stream = Vec::new();
        send(&mut stream, &Message::Shutdown).unwrap();
        // Cut inside the length prefix and inside the payload.
        for cut in [1, 3, stream.len() - 1] {
            let mut cursor = &stream[..cut];
            assert!(
                matches!(recv(&mut cursor).unwrap_err(), FrameError::Io(_)),
                "cut at {cut} must be a mid-frame error"
            );
        }
        let mut empty: &[u8] = &[];
        assert!(matches!(recv(&mut empty).unwrap_err(), FrameError::Eof));
    }

    #[test]
    fn truncated_frames_surface_as_mid_frame_io_errors() {
        // The chaos helper: a frame whose prefix promises more bytes
        // than follow. A receiver that then hits EOF must report a
        // mid-frame Io error, never the orderly Eof.
        let payload = Message::Shutdown.encode();
        for keep in [0, 1, payload.len() - 1] {
            let mut stream = Vec::new();
            write_truncated_frame(&mut stream, &payload, keep).unwrap();
            let mut cursor = stream.as_slice();
            assert!(
                matches!(recv(&mut cursor).unwrap_err(), FrameError::Io(_)),
                "keep={keep} must be a mid-frame error"
            );
        }
        // keep >= len degenerates to a complete frame.
        let mut stream = Vec::new();
        write_truncated_frame(&mut stream, &payload, payload.len() + 7).unwrap();
        let mut cursor = stream.as_slice();
        assert!(matches!(recv(&mut cursor).unwrap(), Message::Shutdown));
    }

    #[test]
    fn timeout_errors_render_the_deadline() {
        let e = FrameError::Timeout {
            waited: std::time::Duration::from_millis(250),
        };
        let text = e.to_string();
        assert!(text.contains("250ms") && text.contains("stalled"), "{text}");
    }

    #[test]
    fn garbage_and_oversized_frames_are_rejected_not_trusted() {
        // A well-framed payload that is not a wire document.
        let mut stream = Vec::new();
        write_frame(&mut stream, b"not a wire document").unwrap();
        let mut cursor = stream.as_slice();
        assert!(matches!(
            recv(&mut cursor).unwrap_err(),
            FrameError::Wire(_)
        ));
        // A length prefix promising far more than the limit.
        let huge = (u32::MAX).to_le_bytes();
        let mut cursor: &[u8] = &huge;
        assert!(matches!(
            recv(&mut cursor).unwrap_err(),
            FrameError::TooLarge { .. }
        ));
        // A stale format version inside a valid frame.
        let mut doc = Message::Shutdown.encode();
        doc[4] = 0xEE; // clobber the format version word
        let mut stream = Vec::new();
        write_frame(&mut stream, &doc).unwrap();
        let mut cursor = stream.as_slice();
        assert!(matches!(
            recv(&mut cursor).unwrap_err(),
            FrameError::Wire(_)
        ));
    }

    #[test]
    fn mismatched_request_fingerprints_fail_loudly() {
        let mut w = Writer::with_header();
        w.put_str(KIND_REQUEST);
        w.put_u64(1);
        w.put_u64(0xbad); // wrong fingerprint for the key that follows
        let request = sample_request();
        request.key.encode_into(&mut w);
        w.put_u32(0);
        assert!(matches!(
            Message::decode(&w.finish()).unwrap_err(),
            WireError::Malformed(m) if m.contains("fingerprint")
        ));
    }

    #[test]
    fn oversized_frames_name_their_kind() {
        // A structurally valid hello whose length prefix lies about its
        // size: the guard must refuse the read AND name the frame kind
        // from the payload head it could see.
        let payload = Message::Hello(sample_hello()).encode();
        let mut stream = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&payload);
        let mut cursor = stream.as_slice();
        match read_frame(&mut cursor).unwrap_err() {
            FrameError::TooLarge { declared, kind } => {
                assert_eq!(declared, MAX_FRAME_BYTES + 1);
                assert_eq!(kind.as_deref(), Some("worker-hello"));
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // An oversized prefix followed by garbage (or nothing): still
        // TooLarge, with no kind to name.
        let mut empty_cursor: &[u8] = &(u32::MAX).to_le_bytes();
        match read_frame(&mut empty_cursor).unwrap_err() {
            FrameError::TooLarge { kind, .. } => assert_eq!(kind, None),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        let e = FrameError::TooLarge {
            declared: 1 << 30,
            kind: Some("eval-response".to_owned()),
        };
        let text = e.to_string();
        assert!(
            text.contains("1073741824") && text.contains("eval-response"),
            "{text}"
        );
    }

    #[test]
    fn truncated_embedded_deltas_error_instead_of_panicking() {
        // A response whose embedded snapshot document claims more bytes
        // than the payload holds: `Reader::take_bytes` must surface
        // `WireError::Truncated`, never slice-panic.
        let mut w = Writer::with_header();
        w.put_str(KIND_RESPONSE);
        w.put_u64(1); // id
        w.put_u32(0); // no rows
        w.put_u32(u32::MAX); // delta length far past the document's end
        let err = Message::decode(&w.finish()).unwrap_err();
        assert!(
            matches!(err, WireError::Truncated { .. }),
            "expected Truncated, got {err:?}"
        );
    }

    /// A `Read` adapter that fragments the stream the way a socket does:
    /// 1–7 bytes per call (deterministically varied), with an optional
    /// hard EOF injected at byte `eof_at`.
    struct ChoppyReader<'a> {
        data: &'a [u8],
        pos: usize,
        calls: u64,
        eof_at: usize,
    }

    impl<'a> ChoppyReader<'a> {
        fn new(data: &'a [u8], eof_at: usize) -> ChoppyReader<'a> {
            ChoppyReader {
                data,
                pos: 0,
                calls: 0,
                eof_at: eof_at.min(data.len()),
            }
        }
    }

    impl Read for ChoppyReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            // 1..=7 bytes per call, varied by a tiny LCG on the call
            // count so every alignment gets exercised.
            let chunk = 1 + ((self.calls.wrapping_mul(2654435761) >> 7) % 7) as usize;
            let available = self.eof_at.saturating_sub(self.pos);
            let n = chunk.min(buf.len()).min(available);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn fragmented_streams_reassemble_every_message() {
        // Several messages back to back, delivered 1–7 bytes at a time:
        // the frame reader must reassemble all of them, then see a clean
        // EOF exactly at the trailing boundary.
        let mut stream = Vec::new();
        send(&mut stream, &Message::Hello(sample_hello())).unwrap();
        send(&mut stream, &Message::Request(sample_request())).unwrap();
        send(&mut stream, &Message::Response(sample_response())).unwrap();
        send(&mut stream, &Message::Heartbeat).unwrap();
        send(&mut stream, &Message::Shutdown).unwrap();
        let mut choppy = ChoppyReader::new(&stream, stream.len());
        assert!(matches!(recv(&mut choppy).unwrap(), Message::Hello(_)));
        assert!(matches!(recv(&mut choppy).unwrap(), Message::Request(_)));
        assert!(matches!(recv(&mut choppy).unwrap(), Message::Response(_)));
        assert!(matches!(recv(&mut choppy).unwrap(), Message::Heartbeat));
        assert!(matches!(recv(&mut choppy).unwrap(), Message::Shutdown));
        assert!(matches!(recv(&mut choppy).unwrap_err(), FrameError::Eof));
    }

    #[test]
    fn every_split_point_distinguishes_clean_eof_from_truncation() {
        // Two frames; inject EOF at EVERY byte offset of the stream. The
        // reader must report clean Eof exactly at the three frame
        // boundaries (start, between, end) and a mid-frame Io error at
        // every other split point — over a fragmented transport, where
        // the cut can land inside a length prefix, a payload, or between
        // read calls.
        let mut stream = Vec::new();
        send(&mut stream, &Message::Request(sample_request())).unwrap();
        send(&mut stream, &Message::Shutdown).unwrap();
        let first_frame_end = {
            let mut probe = Vec::new();
            send(&mut probe, &Message::Request(sample_request())).unwrap();
            probe.len()
        };
        let boundaries = [0, first_frame_end, stream.len()];
        for eof_at in 0..=stream.len() {
            let mut choppy = ChoppyReader::new(&stream, eof_at);
            // Drain complete frames, then inspect the terminal error.
            let terminal = loop {
                match recv(&mut choppy) {
                    Ok(_) => continue,
                    Err(e) => break e,
                }
            };
            if boundaries.contains(&eof_at) {
                assert!(
                    matches!(terminal, FrameError::Eof),
                    "eof at boundary {eof_at} must be clean, got {terminal:?}"
                );
            } else {
                assert!(
                    matches!(terminal, FrameError::Io(_)),
                    "eof inside a frame at {eof_at} must be truncation, got {terminal:?}"
                );
            }
        }
    }
}
