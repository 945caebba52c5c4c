//! # sega-wire — the dependency-free wire formats of SEGA-DCIM
//!
//! Everything that crosses a process boundary — cache snapshots, batch
//! reports, machine-readable CLI output, bench artifacts — is encoded by
//! this crate, and nothing else. It has **zero dependencies** (the
//! workspace builds without crates.io, and a wire format should stay
//! decodable by anything that can read bytes), and every format is
//! **versioned**, so a decoder rejects a format generation it does not
//! know instead of guessing.
//!
//! Three layers:
//!
//! * [`json`] — a minimal JSON value model ([`Json`]) with a canonical
//!   emitter and a strict parser. This is the human-debuggable text
//!   format; it is also what `sega_bench` re-exports for its artifacts.
//! * [`binary`] — bounds-checked little-endian [`binary::Writer`] /
//!   [`binary::Reader`] primitives under a magic+version header. Floats
//!   travel as raw IEEE-754 bit patterns, so NaN and ±∞ round-trip
//!   **bit-identically** (the JSON emitter's `null` collapse does not
//!   apply here).
//! * [`snapshot`] — the persistent evaluation-cache format: a
//!   [`Snapshot`] of key spaces (technology + conditions + precision +
//!   capacity fingerprint) × geometry → objective-vector entries, with
//!   commutative/idempotent [`Snapshot::merge`], a canonical ordering
//!   that is invariant in shard count and insertion order, and both a
//!   JSON and a compact binary codec.
//! * [`frame`] — the length-prefixed framed transport and the typed
//!   message vocabulary of the `sega-dcim serve` daemon protocol
//!   (hello, heartbeat, job request/response, shutdown), built on the
//!   same header and the snapshot's geometry records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod frame;
pub mod json;
pub mod report;
pub mod snapshot;

pub use binary::{Reader, WireError, Writer};
pub use frame::{FrameError, Message, PROTOCOL_VERSION};
pub use json::{Json, JsonError};
pub use snapshot::{EntryRecord, GeometryRecord, KeyRecord, Snapshot, SpaceRecord};

/// The wire-format generation shared by every codec in this crate.
/// Bumped when any encoding changes incompatibly; decoders reject
/// versions they don't know instead of guessing.
pub const FORMAT_VERSION: u32 = 1;
