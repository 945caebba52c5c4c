//! The framed transport of the `sega-dcim serve` daemon protocol.
//!
//! A *frame* is a `u32` little-endian length prefix followed by exactly
//! that many payload bytes; every payload is a complete `sega-wire`
//! binary document (magic + [`crate::FORMAT_VERSION`] header, then a
//! kind tag), so a receiver can always tell a stale or foreign peer from
//! a truncated stream. Frames travel over any ordered byte stream — the
//! engine uses Unix and TCP sockets, but nothing here knows about them.
//!
//! The message vocabulary is deliberately tiny:
//!
//! * [`Message::Hello`] ([`Hello`]) — sent once by every peer on
//!   connection; carries [`PROTOCOL_VERSION`] so both sides fail loudly
//!   on skew, plus the peer's role (client or daemon).
//! * [`Message::Heartbeat`] — a keep-alive either side may send between
//!   exchanges; receivers reset their idle timer and otherwise ignore it.
//! * [`Message::JobRequest`] / [`Message::JobResponse`] — a whole
//!   exploration job shipped to a `sega-dcim serve` instance, answered
//!   with the front and its accounting.
//! * [`Message::Shutdown`] — asks a daemon for a graceful drain.
//!
//! A peer that goes away surfaces as [`FrameError::Eof`] (clean, on a
//! frame boundary) or an I/O error (mid-frame); a corrupted frame as a
//! [`WireError`].

use std::io::{Read, Write};

use crate::binary::{Reader, WireError, Writer};
use crate::snapshot::GeometryRecord;

/// The protocol generation, carried in every [`Message::Hello`]. Bumped
/// independently of [`crate::FORMAT_VERSION`] when the message
/// vocabulary changes incompatibly.
///
/// Version 2 extended the hello with capability fields (role, peer id,
/// capacity weight, advertised faults) and added the heartbeat and
/// daemon job frames. A version 3 once added cache-sync frames; they were
/// withdrawn, and version 2 is again the exact vocabulary, so a v3 peer
/// fails the hello check instead of sending frames nobody decodes. The
/// worker-fleet frames (`eval-request`, `eval-response`) were withdrawn
/// too; the clients' and daemons' frames stayed byte-for-byte the same,
/// so the version did not change.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a single frame's payload, guarding the receiver
/// against a corrupted length prefix committing it to a gigabyte read.
/// Far above any real job frame (a front record is 12 bytes).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A transport failure: either the byte stream broke (I/O, EOF,
/// oversized frame) or the bytes arrived but don't decode.
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
/// is visible to the peer the moment the call returns.
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
/// [`FrameError::Eof`]. This is a helper for testing torn writes (a
/// journal record cut off by a crash); a correct peer never calls it.
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

/// The versioned handshake: who this peer is. Sent once, first, by every
/// connecting client; the daemon answers with its own. The layout (and
/// the `worker-hello` kind tag) is protocol 2's, so the capability fields
/// a worker fleet once negotiated stay on the wire at their fixed
/// values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The peer's [`PROTOCOL_VERSION`] — both sides fail loudly on skew.
    pub protocol: u32,
    /// `"client"` or `"daemon"` — what the peer intends to do on this
    /// connection.
    pub role: String,
    /// The peer's identity; clients and daemons send 0.
    pub peer_id: u64,
    /// A capacity weight; clients and daemons send 1.
    pub capacity: u32,
    /// Advertised fault-injection knobs; clients and daemons send none.
    pub faults: Vec<String>,
}

impl Hello {
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
    /// Client → daemon and daemon → client, once, on connection.
    Hello(Hello),
    /// Either direction, between exchanges: still alive, reset your idle
    /// timer. Carries nothing.
    Heartbeat,
    /// Client → daemon: run one exploration job.
    JobRequest(JobRequest),
    /// Daemon → client: the job's front + accounting.
    JobResponse(JobResponse),
    /// Client → daemon: drain.
    Shutdown,
}

const KIND_HELLO: &str = "worker-hello";
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
    /// [`WireError`] on a bad header, an unknown message kind, or any
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

    fn round_trip(message: &Message) -> Message {
        let mut stream = Vec::new();
        send(&mut stream, message).unwrap();
        let mut cursor = stream.as_slice();
        let back = recv(&mut cursor).unwrap();
        assert!(cursor.is_empty(), "frame must consume exactly its bytes");
        back
    }

    /// A hello with every protocol-2 capability field populated, as a
    /// v2 peer may still send it.
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
        assert!(matches!(round_trip(&Message::Shutdown), Message::Shutdown));
    }

    #[test]
    fn messages_pipeline_back_to_back_on_one_stream() {
        let mut stream = Vec::new();
        send(&mut stream, &Message::JobRequest(sample_job())).unwrap();
        send(&mut stream, &Message::Shutdown).unwrap();
        let mut cursor = stream.as_slice();
        assert!(matches!(recv(&mut cursor).unwrap(), Message::JobRequest(_)));
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
            kind: Some("job-response".to_owned()),
        };
        let text = e.to_string();
        assert!(
            text.contains("1073741824") && text.contains("job-response"),
            "{text}"
        );
    }

    /// Lowercase hex of one framed message (length prefix + payload).
    fn framed_hex(message: &Message) -> String {
        let mut stream = Vec::new();
        send(&mut stream, message).unwrap();
        stream.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of every protocol-2 message a client or daemon
    /// sends. Any change here breaks deployed v2 peers: the hello keeps
    /// its `worker-hello` kind tag and its `peer_id`/`capacity`/`faults`
    /// layout even though no peer advertises anything in them.
    #[test]
    fn protocol_v2_frames_are_pinned_byte_for_byte() {
        // Every frame: u32 LE length, the `SGWB` magic, u32 format
        // version 1, then the u32-length-prefixed kind tag and fields.
        let cases = [
            (
                Message::Hello(Hello::client()),
                concat!(
                    "36000000",                 // frame length 54
                    "53475742",                 // magic
                    "01000000",                 // format version
                    "0c000000",                 // tag length
                    "776f726b65722d68656c6c6f", // "worker-hello"
                    "02000000",                 // protocol 2
                    "06000000",                 // role length
                    "636c69656e74",             // "client"
                    "0000000000000000",         // peer_id 0
                    "01000000",                 // capacity 1
                    "00000000",                 // no faults
                ),
            ),
            (
                Message::Hello(Hello::daemon()),
                concat!(
                    "36000000",
                    "53475742",
                    "01000000",
                    "0c000000",
                    "776f726b65722d68656c6c6f",
                    "02000000",
                    "06000000",
                    "6461656d6f6e", // "daemon"
                    "0000000000000000",
                    "01000000",
                    "00000000",
                ),
            ),
            (
                Message::JobRequest(sample_job()),
                concat!(
                    "3f000000",
                    "53475742",
                    "01000000",
                    "0b000000",
                    "6a6f622d72657175657374", // "job-request"
                    "0900000000000000",       // id 9
                    "0040000000000000",       // wstore 16384
                    "04000000",
                    "62663136",         // "bf16"
                    "10000000",         // population 16
                    "08000000",         // generations 8
                    "2a00000000000000", // seed 42
                ),
            ),
            (
                Message::JobResponse(sample_job_response()),
                concat!(
                    "54000000",
                    "53475742",
                    "01000000",
                    "0c000000",
                    "6a6f622d726573706f6e7365", // "job-response"
                    "0900000000000000",         // id 9
                    "9000000000000000",         // evaluations 144
                    "3900000000000000",         // distinct 57
                    "5700000000000000",         // cache hits 87
                    "02000000",                 // two front records
                    "050000000100000003000000", // log_h 5, log_l 1, k 3
                    "070000000000000008000000", // log_h 7, log_l 0, k 8
                ),
            ),
            (
                Message::Heartbeat,
                concat!(
                    "15000000",
                    "53475742",
                    "01000000",
                    "09000000",
                    "686561727462656174", // "heartbeat"
                ),
            ),
            (
                Message::Shutdown,
                concat!(
                    "14000000",
                    "53475742",
                    "01000000",
                    "08000000",
                    "73687574646f776e", // "shutdown"
                ),
            ),
        ];
        for (message, expected) in &cases {
            assert_eq!(&framed_hex(message), expected, "{message:?}");
        }
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
        send(&mut stream, &Message::JobRequest(sample_job())).unwrap();
        send(&mut stream, &Message::JobResponse(sample_job_response())).unwrap();
        send(&mut stream, &Message::Heartbeat).unwrap();
        send(&mut stream, &Message::Shutdown).unwrap();
        let mut choppy = ChoppyReader::new(&stream, stream.len());
        assert!(matches!(recv(&mut choppy).unwrap(), Message::Hello(_)));
        assert!(matches!(recv(&mut choppy).unwrap(), Message::JobRequest(_)));
        assert!(matches!(
            recv(&mut choppy).unwrap(),
            Message::JobResponse(_)
        ));
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
        send(&mut stream, &Message::JobRequest(sample_job())).unwrap();
        send(&mut stream, &Message::Shutdown).unwrap();
        let first_frame_end = {
            let mut probe = Vec::new();
            send(&mut probe, &Message::JobRequest(sample_job())).unwrap();
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
