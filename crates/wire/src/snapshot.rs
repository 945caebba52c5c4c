//! The persistent evaluation-cache snapshot format.
//!
//! A [`Snapshot`] is the process-independent image of a shared eval
//! cache: a set of **key spaces** — each identified by a [`KeyRecord`]
//! carrying the full technology + operating-conditions + precision +
//! capacity invariants as exact `f64` bit patterns — and, per space, the
//! memoized geometry → objective-vector entries.
//!
//! Design rules:
//!
//! * **Canonical**: spaces are ordered by key, entries by geometry, so
//!   two caches holding the same facts encode to the same bytes no
//!   matter their shard count, thread schedule or insertion order.
//! * **Mergeable**: [`Snapshot::merge`] is a union — commutative,
//!   associative and idempotent (the estimator is deterministic, so two
//!   processes can only ever disagree about *which* entries they have,
//!   never about a value; on a bitwise conflict the receiver keeps its
//!   own entry).
//! * **Bit-exact**: objective vectors round-trip bit-identically in both
//!   codecs, including NaN and ±∞ (infeasible geometries memoize
//!   `[+∞; 4]`). The binary codec stores raw bits; the JSON codec stores
//!   bit patterns as 16-digit hex strings, never lossy decimals.
//! * **Versioned and fingerprinted**: documents open with the shared
//!   magic + [`crate::FORMAT_VERSION`] header, and every space carries an
//!   FNV-1a fingerprint of its key so corrupted or mispaired payloads
//!   fail loudly.

use crate::binary::{Reader, WireError, Writer};
use crate::json::Json;

/// The document kind tag distinguishing snapshots from other binary
/// documents under the same header.
const KIND: &str = "cache-snapshot";

/// Everything one key space's objective vectors depend on, as exact bit
/// patterns: the technology calibration, the operating conditions, the
/// precision name and the storage capacity.
///
/// This is the wire image of the engine's `CacheKey`; equality (and the
/// derived ordering) means "the estimator would compute the identical
/// `f64`s".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyRecord {
    /// Technology name, e.g. `"tsmc28-calibrated"`.
    pub tech_name: String,
    /// Bit pattern of the node size in nm.
    pub node_bits: u64,
    /// Bit pattern of the per-gate area in µm².
    pub gate_area_bits: u64,
    /// Bit pattern of the per-gate delay in ns.
    pub gate_delay_bits: u64,
    /// Bit pattern of the per-gate energy in fJ.
    pub gate_energy_bits: u64,
    /// Bit pattern of the nominal supply voltage.
    pub nominal_voltage_bits: u64,
    /// Bit pattern of the operating supply voltage.
    pub voltage_bits: u64,
    /// Bit pattern of the input sparsity fraction.
    pub sparsity_bits: u64,
    /// Bit pattern of the switching-activity factor.
    pub activity_bits: u64,
    /// Precision name, e.g. `"INT8"`.
    pub precision: String,
    /// Storage capacity in weights.
    pub wstore: u64,
}

impl KeyRecord {
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        w.put_str(&self.tech_name);
        for bits in [
            self.node_bits,
            self.gate_area_bits,
            self.gate_delay_bits,
            self.gate_energy_bits,
            self.nominal_voltage_bits,
            self.voltage_bits,
            self.sparsity_bits,
            self.activity_bits,
        ] {
            w.put_u64(bits);
        }
        w.put_str(&self.precision);
        w.put_u64(self.wstore);
    }

    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<KeyRecord, WireError> {
        let tech_name = r.take_str()?;
        let mut bits = [0u64; 8];
        for slot in &mut bits {
            *slot = r.take_u64()?;
        }
        Ok(KeyRecord {
            tech_name,
            node_bits: bits[0],
            gate_area_bits: bits[1],
            gate_delay_bits: bits[2],
            gate_energy_bits: bits[3],
            nominal_voltage_bits: bits[4],
            voltage_bits: bits[5],
            sparsity_bits: bits[6],
            activity_bits: bits[7],
            precision: r.take_str()?,
            wstore: r.take_u64()?,
        })
    }

    /// The space's technology+conditions fingerprint: FNV-1a over the
    /// key's canonical binary encoding. Stored in each space's header so
    /// a decoder (or a process merging a foreign snapshot) can verify it
    /// is pairing entries with the right invariants.
    pub fn fingerprint(&self) -> u64 {
        let mut w = Writer::default();
        self.encode_into(&mut w);
        fnv1a64(w.bytes())
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("tech_name", Json::from(self.tech_name.clone())),
            ("node", hex_json(self.node_bits)),
            ("gate_area", hex_json(self.gate_area_bits)),
            ("gate_delay", hex_json(self.gate_delay_bits)),
            ("gate_energy", hex_json(self.gate_energy_bits)),
            ("nominal_voltage", hex_json(self.nominal_voltage_bits)),
            ("voltage", hex_json(self.voltage_bits)),
            ("sparsity", hex_json(self.sparsity_bits)),
            ("activity", hex_json(self.activity_bits)),
            ("precision", Json::from(self.precision.clone())),
            ("wstore", Json::from(self.wstore)),
        ])
    }

    fn from_json(v: &Json) -> Result<KeyRecord, WireError> {
        Ok(KeyRecord {
            tech_name: str_field(v, "tech_name")?,
            node_bits: hex_field(v, "node")?,
            gate_area_bits: hex_field(v, "gate_area")?,
            gate_delay_bits: hex_field(v, "gate_delay")?,
            gate_energy_bits: hex_field(v, "gate_energy")?,
            nominal_voltage_bits: hex_field(v, "nominal_voltage")?,
            voltage_bits: hex_field(v, "voltage")?,
            sparsity_bits: hex_field(v, "sparsity")?,
            activity_bits: hex_field(v, "activity")?,
            precision: str_field(v, "precision")?,
            wstore: u64_field(v, "wstore")?,
        })
    }
}

/// The wire image of the explorer genome `(log2 H, log2 L, k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GeometryRecord {
    /// `log2 H` (column height).
    pub log_h: u32,
    /// `log2 L` (weights per compute unit).
    pub log_l: u32,
    /// Input bits per cycle.
    pub k: u32,
}

/// One memoized evaluation: a geometry and its four objective values
/// `[area, delay, energy, −throughput]`.
///
/// Equality is **bitwise** on the objectives (`NaN == NaN` when the
/// patterns match), so snapshot comparison, dedup and the merge laws all
/// hold for non-finite vectors too.
#[derive(Debug, Clone, Copy)]
pub struct EntryRecord {
    /// The evaluated geometry.
    pub geometry: GeometryRecord,
    /// Its objective vector.
    pub objectives: [f64; 4],
}

impl EntryRecord {
    /// The objective vector as raw bit patterns.
    pub fn objective_bits(&self) -> [u64; 4] {
        self.objectives.map(f64::to_bits)
    }
}

impl PartialEq for EntryRecord {
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry && self.objective_bits() == other.objective_bits()
    }
}

impl Eq for EntryRecord {}

/// One key space: the key plus its entries, in canonical (geometry)
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceRecord {
    /// The invariants every entry was computed under.
    pub key: KeyRecord,
    /// The memoized entries, ordered by geometry.
    pub entries: Vec<EntryRecord>,
}

/// A complete, process-independent cache image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The key spaces, ordered by key.
    pub spaces: Vec<SpaceRecord>,
}

impl Snapshot {
    /// Total entries across all spaces.
    pub fn len(&self) -> usize {
        self.spaces.iter().map(|s| s.entries.len()).sum()
    }

    /// True when no space holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rebuilds the canonical form: spaces sorted and deduplicated by
    /// key, entries sorted and deduplicated by geometry, empty spaces
    /// dropped. [`Snapshot::merge`] and the codecs keep snapshots
    /// canonical already; this is the entry point for hand-built ones.
    pub fn canonicalize(&mut self) {
        let mut canonical = Snapshot::default();
        canonical.absorb(std::mem::take(self));
        *self = canonical;
    }

    /// Union-merges `other` into `self`.
    ///
    /// Commutative, associative and idempotent over the *facts* held:
    /// a space present in either side is present in the result, an entry
    /// present in either side is present in the result, and merging a
    /// snapshot into itself changes nothing. When both sides hold the
    /// same geometry, the receiver's entry wins — with the deterministic
    /// estimator both values are bit-identical anyway, so this choice is
    /// only observable for corrupted inputs.
    pub fn merge(&mut self, other: &Snapshot) {
        self.absorb(other.clone());
    }

    fn absorb(&mut self, other: Snapshot) {
        use std::collections::BTreeMap;
        let mut spaces: BTreeMap<KeyRecord, BTreeMap<GeometryRecord, EntryRecord>> =
            BTreeMap::new();
        for source in [std::mem::take(self), other] {
            for space in source.spaces {
                let entries = spaces.entry(space.key).or_default();
                for entry in space.entries {
                    entries.entry(entry.geometry).or_insert(entry);
                }
            }
        }
        self.spaces = spaces
            .into_iter()
            .filter(|(_, entries)| !entries.is_empty())
            .map(|(key, entries)| SpaceRecord {
                key,
                entries: entries.into_values().collect(),
            })
            .collect();
    }

    /// The entries present in `self` but absent from `base` (matched by
    /// geometry, values untouched), as a canonical snapshot — the
    /// **delta** that, merged back into `base`, reproduces `self`
    /// whenever `base ⊆ self`:
    /// `base.merge(&self.diff(&base)) == self`.
    ///
    /// This is the journaling primitive: a batch checkpoint records only
    /// what each job added to the cache, not the whole cache again.
    /// Both snapshots are expected canonical (as every constructor here
    /// leaves them); entries are compared by geometry only, consistent
    /// with [`Snapshot::merge`]'s receiver-wins semantics.
    #[must_use]
    pub fn diff(&self, base: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for space in &self.spaces {
            let entries: Vec<EntryRecord> = match base.spaces.iter().find(|s| s.key == space.key) {
                None => space.entries.clone(),
                Some(known) => space
                    .entries
                    .iter()
                    .filter(|e| {
                        known
                            .entries
                            .binary_search_by(|k| k.geometry.cmp(&e.geometry))
                            .is_err()
                    })
                    .copied()
                    .collect(),
            };
            if !entries.is_empty() {
                out.spaces.push(SpaceRecord {
                    key: space.key.clone(),
                    entries,
                });
            }
        }
        out
    }

    /// Encodes to the compact binary form (magic + version header, kind
    /// tag, then per space: fingerprint, key, entry count, entries).
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        w.put_str(KIND);
        w.put_u32(self.spaces.len() as u32);
        for space in &self.spaces {
            w.put_u64(space.key.fingerprint());
            space.key.encode_into(&mut w);
            w.put_u32(space.entries.len() as u32);
            for entry in &space.entries {
                w.put_u32(entry.geometry.log_h);
                w.put_u32(entry.geometry.log_l);
                w.put_u32(entry.geometry.k);
                for objective in entry.objectives {
                    w.put_f64(objective);
                }
            }
        }
        w.finish()
    }

    /// Decodes the binary form.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a bad header, wrong document kind, truncation, or
    /// a space whose stored fingerprint disagrees with its key.
    pub fn decode_binary(bytes: &[u8]) -> Result<Snapshot, WireError> {
        let mut r = Reader::open(bytes)?;
        let kind = r.take_str()?;
        if kind != KIND {
            return Err(WireError::Malformed(format!(
                "expected a {KIND} document, found `{kind}`"
            )));
        }
        let space_count = r.take_u32()? as usize;
        let mut snapshot = Snapshot::default();
        for _ in 0..space_count {
            let stored = r.take_u64()?;
            let key = KeyRecord::decode_from(&mut r)?;
            if key.fingerprint() != stored {
                return Err(WireError::Malformed(format!(
                    "space fingerprint mismatch for key `{} {} w{}`",
                    key.tech_name, key.precision, key.wstore
                )));
            }
            let entry_count = r.take_u32()? as usize;
            let mut entries = Vec::with_capacity(entry_count.min(1 << 20));
            for _ in 0..entry_count {
                let geometry = GeometryRecord {
                    log_h: r.take_u32()?,
                    log_l: r.take_u32()?,
                    k: r.take_u32()?,
                };
                let mut objectives = [0.0f64; 4];
                for slot in &mut objectives {
                    *slot = r.take_f64()?;
                }
                entries.push(EntryRecord {
                    geometry,
                    objectives,
                });
            }
            snapshot.spaces.push(SpaceRecord { key, entries });
        }
        if !r.is_at_end() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after the last space",
                bytes.len() - r.position()
            )));
        }
        snapshot.canonicalize();
        Ok(snapshot)
    }

    /// The JSON form: same content as the binary form, with `f64` bit
    /// patterns as 16-digit hex strings (bit-exact, unlike decimal JSON
    /// numbers would be for NaN/∞).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("format", Json::from(KIND)),
            ("version", Json::from(crate::FORMAT_VERSION)),
            (
                "spaces",
                Json::Arr(
                    self.spaces
                        .iter()
                        .map(|space| {
                            Json::obj([
                                ("fingerprint", hex_json(space.key.fingerprint())),
                                ("key", space.key.to_json()),
                                (
                                    "entries",
                                    Json::Arr(
                                        space
                                            .entries
                                            .iter()
                                            .map(|e| {
                                                Json::obj([
                                                    (
                                                        "g",
                                                        Json::Arr(vec![
                                                            Json::from(e.geometry.log_h),
                                                            Json::from(e.geometry.log_l),
                                                            Json::from(e.geometry.k),
                                                        ]),
                                                    ),
                                                    (
                                                        "o",
                                                        Json::Arr(
                                                            e.objective_bits()
                                                                .iter()
                                                                .map(|&b| hex_json(b))
                                                                .collect(),
                                                        ),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes the JSON form produced by [`Snapshot::to_json`].
    ///
    /// # Errors
    ///
    /// [`WireError::UnsupportedVersion`] / [`WireError::Malformed`] on
    /// schema violations or fingerprint mismatches.
    pub fn from_json(doc: &Json) -> Result<Snapshot, WireError> {
        if doc.get("format").and_then(Json::as_str) != Some(KIND) {
            return Err(WireError::Malformed(format!("expected a {KIND} document")));
        }
        let version = u64_field(doc, "version")?;
        if version != crate::FORMAT_VERSION as u64 {
            // Saturate oversized version numbers rather than truncating
            // them into a known (and wrongly accepted) one.
            return Err(WireError::UnsupportedVersion(
                u32::try_from(version).unwrap_or(u32::MAX),
            ));
        }
        let spaces = doc
            .get("spaces")
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError::Malformed("missing `spaces` array".to_owned()))?;
        let mut snapshot = Snapshot::default();
        for space in spaces {
            let key = KeyRecord::from_json(
                space
                    .get("key")
                    .ok_or_else(|| WireError::Malformed("space without `key`".to_owned()))?,
            )?;
            let stored = hex_field(space, "fingerprint")?;
            if key.fingerprint() != stored {
                return Err(WireError::Malformed(format!(
                    "space fingerprint mismatch for key `{} {} w{}`",
                    key.tech_name, key.precision, key.wstore
                )));
            }
            let raw_entries = space
                .get("entries")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::Malformed("space without `entries`".to_owned()))?;
            let mut entries = Vec::with_capacity(raw_entries.len());
            for raw in raw_entries {
                let g = raw
                    .get("g")
                    .and_then(Json::as_arr)
                    .filter(|g| g.len() == 3)
                    .ok_or_else(|| WireError::Malformed("entry without `g: [h,l,k]`".to_owned()))?;
                let coord = |i: usize| -> Result<u32, WireError> {
                    g[i].as_u64()
                        .filter(|&v| v <= u32::MAX as u64)
                        .map(|v| v as u32)
                        .ok_or_else(|| WireError::Malformed("non-integer geometry".to_owned()))
                };
                let o = raw
                    .get("o")
                    .and_then(Json::as_arr)
                    .filter(|o| o.len() == 4)
                    .ok_or_else(|| WireError::Malformed("entry without `o: [4 hex]`".to_owned()))?;
                let mut objectives = [0.0f64; 4];
                for (slot, bits) in objectives.iter_mut().zip(o) {
                    *slot = f64::from_bits(parse_hex(bits.as_str().ok_or_else(|| {
                        WireError::Malformed("objective not a hex string".to_owned())
                    })?)?);
                }
                entries.push(EntryRecord {
                    geometry: GeometryRecord {
                        log_h: coord(0)?,
                        log_l: coord(1)?,
                        k: coord(2)?,
                    },
                    objectives,
                });
            }
            snapshot.spaces.push(SpaceRecord { key, entries });
        }
        snapshot.canonicalize();
        Ok(snapshot)
    }

    /// Decodes either wire form, sniffing the binary magic.
    ///
    /// # Errors
    ///
    /// [`WireError`] from the selected codec; non-UTF-8 non-binary input
    /// is [`WireError::Malformed`].
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, WireError> {
        if Reader::looks_binary(bytes) {
            return Snapshot::decode_binary(bytes);
        }
        let text = std::str::from_utf8(bytes)
            .map_err(|_| WireError::Malformed("neither binary magic nor UTF-8 JSON".to_owned()))?;
        let doc =
            Json::parse(text).map_err(|e| WireError::Malformed(format!("JSON snapshot: {e}")))?;
        Snapshot::from_json(&doc)
    }
}

/// FNV-1a (64-bit) over a byte slice — the fingerprint hash used for
/// key-space fingerprints and cache-file error messages. Chosen for
/// being trivially reimplementable in any language a cache-file reader
/// might be written in.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn hex_json(bits: u64) -> Json {
    Json::Str(format!("{bits:016x}"))
}

fn parse_hex(s: &str) -> Result<u64, WireError> {
    if s.len() != 16 {
        return Err(WireError::Malformed(format!(
            "expected 16 hex digits, got `{s}`"
        )));
    }
    u64::from_str_radix(s, 16).map_err(|_| WireError::Malformed(format!("invalid hex field `{s}`")))
}

fn str_field(v: &Json, key: &str) -> Result<String, WireError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| WireError::Malformed(format!("missing string field `{key}`")))
}

fn hex_field(v: &Json, key: &str) -> Result<u64, WireError> {
    parse_hex(
        v.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::Malformed(format!("missing hex field `{key}`")))?,
    )
}

fn u64_field(v: &Json, key: &str) -> Result<u64, WireError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::Malformed(format!("missing integer field `{key}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(precision: &str, wstore: u64) -> KeyRecord {
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
            precision: precision.to_owned(),
            wstore,
        }
    }

    fn entry(log_h: u32, log_l: u32, k: u32, objectives: [f64; 4]) -> EntryRecord {
        EntryRecord {
            geometry: GeometryRecord { log_h, log_l, k },
            objectives,
        }
    }

    fn sample() -> Snapshot {
        let mut s = Snapshot {
            spaces: vec![
                SpaceRecord {
                    key: key("BF16", 8192),
                    entries: vec![
                        entry(5, 1, 3, [0.25, 1.5, -0.0, f64::INFINITY]),
                        entry(3, 2, 1, [f64::NAN, f64::NEG_INFINITY, 7.0, 1e-300]),
                    ],
                },
                SpaceRecord {
                    key: key("INT8", 16384),
                    entries: vec![entry(4, 0, 8, [0.079, 1.1, 2.2, -3.3])],
                },
            ],
        };
        s.canonicalize();
        s
    }

    #[test]
    fn binary_codec_round_trips_bit_identically() {
        let snapshot = sample();
        let bytes = snapshot.encode_binary();
        let decoded = Snapshot::decode_binary(&bytes).unwrap();
        assert_eq!(decoded, snapshot); // EntryRecord equality is bitwise.
                                       // Canonical: re-encoding the decode is byte-identical.
        assert_eq!(decoded.encode_binary(), bytes);
    }

    #[test]
    fn json_codec_round_trips_bit_identically() {
        let snapshot = sample();
        let text = snapshot.to_json().to_string();
        let decoded = Snapshot::decode(text.as_bytes()).unwrap();
        assert_eq!(decoded, snapshot);
        // NaN/∞ traveled as hex, not as JSON null.
        assert!(text.contains("7ff0000000000000"), "+inf bits in {text}");
    }

    #[test]
    fn decode_sniffs_the_format() {
        let snapshot = sample();
        assert_eq!(
            Snapshot::decode(&snapshot.encode_binary()).unwrap(),
            snapshot
        );
        assert_eq!(
            Snapshot::decode(snapshot.to_json().to_string().as_bytes()).unwrap(),
            snapshot
        );
        assert!(Snapshot::decode(b"\xff\xfe not a snapshot").is_err());
    }

    #[test]
    fn merge_laws_hold() {
        let a = sample();
        let mut b = Snapshot {
            spaces: vec![SpaceRecord {
                key: key("INT8", 16384),
                entries: vec![
                    entry(9, 9, 9, [1.0, 2.0, 3.0, 4.0]),
                    entry(4, 0, 8, [0.079, 1.1, 2.2, -3.3]), // shared with `a`
                ],
            }],
        };
        b.canonicalize();
        let c = {
            let mut s = Snapshot {
                spaces: vec![SpaceRecord {
                    key: key("FP32", 4096),
                    entries: vec![entry(1, 1, 1, [f64::NAN; 4])],
                }],
            };
            s.canonicalize();
            s
        };
        // Commutative.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Associative.
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        // Idempotent.
        let mut aa = a.clone();
        aa.merge(&a);
        assert_eq!(aa, a);
        // Union counts: one shared entry between a and b.
        assert_eq!(ab.len(), a.len() + b.len() - 1);
    }

    #[test]
    fn diff_is_the_inverse_of_merge_for_supersets() {
        let base = sample();
        // Grow the base: one new entry in an existing space, one new space.
        let mut grown = base.clone();
        grown.merge(&{
            let mut s = Snapshot {
                spaces: vec![
                    SpaceRecord {
                        key: key("INT8", 16384),
                        entries: vec![entry(9, 9, 9, [1.0, f64::NAN, 3.0, 4.0])],
                    },
                    SpaceRecord {
                        key: key("FP32", 4096),
                        entries: vec![entry(1, 1, 1, [f64::INFINITY; 4])],
                    },
                ],
            };
            s.canonicalize();
            s
        });
        let delta = grown.diff(&base);
        assert_eq!(delta.len(), 2, "only the two new entries travel");
        // Inverse law: base ∪ delta == grown (bitwise, via EntryRecord).
        let mut rebuilt = base.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, grown);
        assert_eq!(rebuilt.encode_binary(), grown.encode_binary());
        // Degenerate cases: diff against self and against empty.
        assert!(grown.diff(&grown).is_empty());
        assert_eq!(grown.diff(&Snapshot::default()), grown);
    }

    #[test]
    fn fingerprint_separates_keys_and_guards_decoding() {
        assert_ne!(
            key("INT8", 16384).fingerprint(),
            key("INT8", 32768).fingerprint()
        );
        assert_ne!(
            key("INT8", 16384).fingerprint(),
            key("INT4", 16384).fingerprint()
        );
        // Corrupt a key byte after the fingerprint: decode must fail.
        let snapshot = sample();
        let mut bytes = snapshot.encode_binary();
        // Find the first key's tech-name bytes and flip one.
        let name_at = bytes
            .windows(6)
            .position(|w| w == b"tsmc28")
            .expect("tech name present");
        bytes[name_at] ^= 0x20;
        assert!(matches!(
            Snapshot::decode_binary(&bytes).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn canonical_form_is_insertion_order_invariant() {
        let mut forward = Snapshot::default();
        forward.merge(&sample());
        let mut reversed = Snapshot {
            spaces: sample().spaces.into_iter().rev().collect(),
        };
        for space in &mut reversed.spaces {
            space.entries.reverse();
        }
        reversed.canonicalize();
        assert_eq!(forward, reversed);
        assert_eq!(forward.encode_binary(), reversed.encode_binary());
    }

    #[test]
    fn unknown_versions_are_rejected_not_truncated() {
        let mut doc = sample().to_json();
        let set_version = |doc: &mut Json, v: f64| {
            if let Json::Obj(pairs) = doc {
                for (k, val) in pairs.iter_mut() {
                    if k == "version" {
                        *val = Json::Num(v);
                    }
                }
            }
        };
        set_version(&mut doc, 2.0);
        assert_eq!(
            Snapshot::from_json(&doc).unwrap_err(),
            WireError::UnsupportedVersion(2)
        );
        // 2^32 + FORMAT_VERSION must not truncate into an accepted version.
        set_version(&mut doc, (1u64 << 32) as f64 + crate::FORMAT_VERSION as f64);
        assert!(matches!(
            Snapshot::from_json(&doc).unwrap_err(),
            WireError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let empty = Snapshot::default();
        assert!(empty.is_empty());
        assert_eq!(
            Snapshot::decode_binary(&empty.encode_binary()).unwrap(),
            empty
        );
        assert_eq!(
            Snapshot::decode(empty.to_json().to_string().as_bytes()).unwrap(),
            empty
        );
    }
}
