//! The cross-exploration estimate cache: an N-way sharded concurrent
//! memoization table keyed by `(technology, conditions, precision,
//! Wstore)` × [`Geometry`].
//!
//! PR 1's `EvalCache` was a single `Mutex<HashMap>` owned by one
//! `DcimProblem`: each exploration started from an empty table and threw
//! it away at the end. [`SharedEvalCache`] lifts the table out of the
//! problem so that
//!
//! * the **mixed-precision fan-out** shares one cache object across its
//!   per-precision runs (each precision occupies its own [`CacheKey`]
//!   space — entries never alias across architectures),
//! * **sweep points** (the fig7/fig8 binaries, the criterion benches'
//!   repeated iterations) reuse everything an earlier point with the same
//!   key already estimated, and
//! * **repeated `Compiler` runs** on the same specification re-estimate
//!   nothing: a second identical exploration reports zero distinct
//!   evaluations.
//!
//! Internally each key space is split into power-of-two **shards**
//! (independent mutexes), so concurrent explorations (mixed-precision
//! runs, daemon connections) don't serialize on one lock, and every map hashes with
//! the vendored [`FxHasher`] — the workspace builds without crates.io,
//! and SipHash's DoS resistance buys nothing for 12-byte geometry keys
//! on a trusted hot path.
//!
//! Results are unaffected by any of this: a cached objective vector is
//! bit-identical to a recomputed one (the estimator is deterministic), so
//! sharing only changes *counters and wall-clock*, never fronts.
//!
//! [`SharedEvalCache::snapshot`] exports a canonical wire image
//! ([`sega_wire::Snapshot`], identical bytes for identical facts
//! regardless of shard count or insertion order) and
//! [`SharedEvalCache::load`] installs one as a union (entries already
//! memoized are kept): a batch checkpoint journals each job's snapshot
//! delta, and a resumed batch loads the deltas back.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use sega_cells::Technology;
use sega_estimator::{EstimatorStats, OperatingConditions, Precision};
use sega_moga::DominanceStats;
use sega_wire::snapshot::{EntryRecord, GeometryRecord, KeyRecord, Snapshot, SpaceRecord};

use crate::explore::Geometry;

/// A vendored FxHash-style hasher (the rustc/Firefox multiply-rotate
/// hash): one rotate-xor-multiply per word, no per-process seeding.
///
/// Orders of magnitude cheaper than the default SipHash on the small
/// fixed-size keys the cache uses, and deterministic across processes —
/// which keeps shard assignment (and therefore lock behaviour) stable
/// between runs.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

/// The FxHash multiplier (64-bit golden-ratio constant).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` hashing with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashing with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Everything an objective vector depends on **besides** the geometry:
/// the technology calibration, the operating conditions, the precision
/// and the storage capacity. Two explorations with equal keys may share
/// cached estimates; two with different keys never alias.
///
/// Floating-point fields are keyed by their exact bit patterns —
/// equality here must mean "the estimator would compute the identical
/// `f64`s", nothing looser.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    tech_name: Arc<str>,
    node_bits: u64,
    gate_area_bits: u64,
    gate_delay_bits: u64,
    gate_energy_bits: u64,
    nominal_voltage_bits: u64,
    voltage_bits: u64,
    sparsity_bits: u64,
    activity_bits: u64,
    precision: Precision,
    wstore: u64,
}

impl CacheKey {
    /// Builds the key for one exploration's invariants.
    pub fn new(
        tech: &Technology,
        conditions: &OperatingConditions,
        precision: Precision,
        wstore: u64,
    ) -> CacheKey {
        CacheKey {
            tech_name: Arc::from(tech.name.as_str()),
            node_bits: tech.node_nm.to_bits(),
            gate_area_bits: tech.gate_area_um2.to_bits(),
            gate_delay_bits: tech.gate_delay_ns.to_bits(),
            gate_energy_bits: tech.gate_energy_fj.to_bits(),
            nominal_voltage_bits: tech.nominal_voltage.to_bits(),
            voltage_bits: conditions.voltage.to_bits(),
            sparsity_bits: conditions.input_sparsity.to_bits(),
            activity_bits: conditions.activity.to_bits(),
            precision,
            wstore,
        }
    }

    /// The wire image of this key (the snapshot format's
    /// technology+conditions fingerprint source).
    pub fn to_record(&self) -> KeyRecord {
        KeyRecord {
            tech_name: self.tech_name.as_ref().to_owned(),
            node_bits: self.node_bits,
            gate_area_bits: self.gate_area_bits,
            gate_delay_bits: self.gate_delay_bits,
            gate_energy_bits: self.gate_energy_bits,
            nominal_voltage_bits: self.nominal_voltage_bits,
            voltage_bits: self.voltage_bits,
            sparsity_bits: self.sparsity_bits,
            activity_bits: self.activity_bits,
            precision: self.precision.name().to_owned(),
            wstore: self.wstore,
        }
    }

    /// Rebuilds a key from its wire image.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnknownPrecision`] when the record names a
    /// precision this engine does not know (e.g. a snapshot from a newer
    /// build).
    pub fn from_record(record: &KeyRecord) -> Result<CacheKey, SnapshotError> {
        let precision = Precision::from_name(&record.precision)
            .ok_or_else(|| SnapshotError::UnknownPrecision(record.precision.clone()))?;
        Ok(CacheKey {
            tech_name: Arc::from(record.tech_name.as_str()),
            node_bits: record.node_bits,
            gate_area_bits: record.gate_area_bits,
            gate_delay_bits: record.gate_delay_bits,
            gate_energy_bits: record.gate_energy_bits,
            nominal_voltage_bits: record.nominal_voltage_bits,
            voltage_bits: record.voltage_bits,
            sparsity_bits: record.sparsity_bits,
            activity_bits: record.activity_bits,
            precision,
            wstore: record.wstore,
        })
    }
}

/// A snapshot that cannot be installed into this engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot names a precision this build does not know.
    UnknownPrecision(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnknownPrecision(name) => {
                write!(f, "snapshot names unknown precision `{name}`")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The sharded geometry → objectives table of **one** [`CacheKey`]: what
/// a `DcimProblem` actually reads and writes on the hot path, resolved
/// once per exploration so per-genome operations never touch the key
/// again.
#[derive(Debug)]
pub struct KeySpace {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: usize,
}

/// One independently locked slice of a [`KeySpace`].
type Shard = Mutex<FxHashMap<Geometry, [f64; 4]>>;

/// Locks a shard or the key map, recovering it if a thread panicked while
/// holding it. Entries are deterministic estimates, and a panic inside a
/// map operation leaves the map valid, so whatever the lock guards is
/// still safe to read and extend.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl KeySpace {
    fn new(shards: usize) -> KeySpace {
        let shards = shards.max(1).next_power_of_two();
        KeySpace {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            mask: shards - 1,
        }
    }

    #[inline]
    fn shard_of(&self, g: &Geometry) -> usize {
        let mut h = FxHasher::default();
        g.hash(&mut h);
        (h.finish() as usize) & self.mask
    }

    /// Looks up one geometry.
    pub fn get(&self, g: &Geometry) -> Option<[f64; 4]> {
        lock(&self.shards[self.shard_of(g)]).get(g).copied()
    }

    /// Installs one geometry's objectives.
    pub fn insert(&self, g: Geometry, objectives: [f64; 4]) {
        lock(&self.shards[self.shard_of(&g)]).insert(g, objectives);
    }

    /// Installs one geometry's objectives unless it is already memoized
    /// (the load primitive: first value wins, so repeated loads are
    /// idempotent). Returns `true` when the entry was new.
    pub fn insert_if_absent(&self, g: Geometry, objectives: [f64; 4]) -> bool {
        let mut shard = lock(&self.shards[self.shard_of(&g)]);
        match shard.entry(g) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(objectives);
                true
            }
        }
    }

    /// Every memoized `(geometry, objectives)` pair, in unspecified
    /// order (snapshots canonicalize afterwards).
    pub fn entries(&self) -> Vec<(Geometry, [f64; 4])> {
        self.shards
            .iter()
            .flat_map(|s| lock(s).iter().map(|(g, o)| (*g, *o)).collect::<Vec<_>>())
            .collect()
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of memoized geometries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-level cache: a map from [`CacheKey`] to its sharded
/// [`KeySpace`], plus global accounting.
///
/// The key map is behind a single mutex, but it is touched **once per
/// exploration** (key resolution), never per genome — all hot-path
/// traffic goes through the resolved `Arc<KeySpace>`'s shards.
#[derive(Debug)]
pub struct SharedEvalCache {
    spaces: Mutex<FxHashMap<CacheKey, Arc<KeySpace>>>,
    shards_per_space: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Default shard count per key space — enough that a pool of a dozen
/// workers rarely collides, small enough to stay cache-friendly.
pub const DEFAULT_SHARDS: usize = 16;

impl SharedEvalCache {
    /// A cache with [`DEFAULT_SHARDS`] shards per key space.
    pub fn new() -> SharedEvalCache {
        SharedEvalCache::with_shards(DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count per key space (rounded up to
    /// a power of two). Results are invariant in the shard count; only
    /// lock contention changes.
    pub fn with_shards(shards: usize) -> SharedEvalCache {
        SharedEvalCache {
            spaces: Mutex::default(),
            shards_per_space: shards.max(1).next_power_of_two(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The process-wide cache: every `Compiler` and exploration that
    /// opts into sharing without providing its own cache object lands
    /// here, so estimates accumulate across the whole process lifetime.
    pub fn global() -> Arc<SharedEvalCache> {
        static GLOBAL: OnceLock<Arc<SharedEvalCache>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(SharedEvalCache::new())))
    }

    /// Resolves (creating on first use) the key space for one
    /// exploration's invariants. Called once per exploration.
    pub fn space(&self, key: &CacheKey) -> Arc<KeySpace> {
        let mut spaces = lock(&self.spaces);
        match spaces.get(key) {
            Some(space) => Arc::clone(space),
            None => {
                let space = Arc::new(KeySpace::new(self.shards_per_space));
                spaces.insert(key.clone(), Arc::clone(&space));
                space
            }
        }
    }

    /// Shards per key space.
    pub fn shards_per_space(&self) -> usize {
        self.shards_per_space
    }

    /// Number of distinct key spaces resolved so far.
    pub fn spaces_len(&self) -> usize {
        lock(&self.spaces).len()
    }

    /// Total memoized geometries across every key space.
    pub fn len(&self) -> usize {
        let spaces: Vec<Arc<KeySpace>> = {
            let map = lock(&self.spaces);
            map.values().map(Arc::clone).collect()
        };
        spaces.iter().map(|s| s.len()).sum()
    }

    /// True when no geometry has been memoized in any key space.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime evaluations served from memory, across every user of
    /// this cache object.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime evaluations that reached the estimator.
    pub fn distinct_evaluations(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    pub(crate) fn record(&self, hits: usize, misses: usize) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Every resolved `(key, key space)` pair at this instant.
    fn spaces_vec(&self) -> Vec<(CacheKey, Arc<KeySpace>)> {
        lock(&self.spaces)
            .iter()
            .map(|(k, s)| (k.clone(), Arc::clone(s)))
            .collect()
    }

    /// Exports the cache's current contents as a canonical, portable
    /// [`Snapshot`] (spaces ordered by key, entries by geometry —
    /// identical bytes for identical facts regardless of this cache's
    /// shard count, thread schedule or insertion history).
    ///
    /// The snapshot is a *copy*: taking it does not lock the whole cache
    /// at once (per-shard locks only), and concurrent inserts may or may
    /// not be included — exactly the guarantee a periodic persistence
    /// job wants.
    pub fn snapshot(&self) -> Snapshot {
        let mut snapshot = Snapshot {
            spaces: self
                .spaces_vec()
                .into_iter()
                .map(|(key, space)| SpaceRecord {
                    key: key.to_record(),
                    entries: space
                        .entries()
                        .into_iter()
                        .map(|(g, objectives)| EntryRecord {
                            geometry: GeometryRecord {
                                log_h: g.log_h,
                                log_l: g.log_l,
                                k: g.k,
                            },
                            objectives,
                        })
                        .collect(),
                })
                .collect(),
        };
        snapshot.canonicalize();
        snapshot
    }

    /// Installs a snapshot's entries into this cache (union semantics:
    /// entries already memoized are kept, new ones are added). Returns
    /// the number of entries actually installed.
    ///
    /// Loading touches **neither** the hit/miss counters nor any run's
    /// [`EvalStats`] — a warm-started run still reports exactly how many
    /// evaluations *it* served from memory.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the snapshot references invariants this
    /// engine cannot represent; nothing is installed from the offending
    /// space (earlier spaces remain installed — the operation is a
    /// per-space union, not a transaction).
    pub fn load(&self, snapshot: &Snapshot) -> Result<usize, SnapshotError> {
        let mut installed = 0;
        for record in &snapshot.spaces {
            let key = CacheKey::from_record(&record.key)?;
            let space = self.space(&key);
            for entry in &record.entries {
                let g = Geometry {
                    log_h: entry.geometry.log_h,
                    log_l: entry.geometry.log_l,
                    k: entry.geometry.k,
                };
                if space.insert_if_absent(g, entry.objectives) {
                    installed += 1;
                }
            }
        }
        Ok(installed)
    }
}

impl Default for SharedEvalCache {
    fn default() -> Self {
        SharedEvalCache::new()
    }
}

/// Per-exploration evaluation accounting: how many genome evaluations
/// *this run* served from memory vs sent to the estimator.
///
/// Separate from the [`SharedEvalCache`] lifetime counters because one
/// cache object may serve many runs — `ExplorationResult` reports the
/// run's own numbers (a warm second run reports `distinct_evaluations ==
/// 0` even though the cache's lifetime miss count is not zero).
#[derive(Debug, Default)]
pub struct EvalStats {
    hits: AtomicUsize,
    misses: AtomicUsize,
    dominance_comparisons: AtomicU64,
    dominance_word_ops: AtomicU64,
    dominance_allocations: AtomicU64,
    estimator_designs: AtomicU64,
    estimator_batched: AtomicU64,
    estimator_scalar_fallbacks: AtomicU64,
    estimator_allocations: AtomicU64,
}

impl EvalStats {
    /// Evaluations served without calling the estimator (cache hits plus
    /// intra-batch duplicates and GA-interned genomes).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Evaluations that actually reached the estimator.
    pub fn distinct_evaluations(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// The selection machinery's dominance-kernel counters for this run
    /// (comparisons/probes and kernel allocations) — the machine-checkable
    /// receipt that the tiered sort stays asymptotically below the naive
    /// `N·(N−1)/2` pairwise bill.
    pub fn dominance(&self) -> DominanceStats {
        DominanceStats {
            comparisons: self.dominance_comparisons.load(Ordering::Relaxed),
            word_ops: self.dominance_word_ops.load(Ordering::Relaxed),
            allocations: self.dominance_allocations.load(Ordering::Relaxed),
        }
    }

    /// The estimator kernel's cohort counters for this run: designs
    /// estimated, lanes finished through the vector path vs the scalar
    /// block, and scratch growth (zero once warm).
    pub fn estimator(&self) -> EstimatorStats {
        EstimatorStats {
            designs: self.estimator_designs.load(Ordering::Relaxed),
            batched: self.estimator_batched.load(Ordering::Relaxed),
            scalar_fallbacks: self.estimator_scalar_fallbacks.load(Ordering::Relaxed),
            allocations: self.estimator_allocations.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn record(&self, hits: usize, misses: usize) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_dominance(&self, stats: DominanceStats) {
        if stats.comparisons > 0 {
            self.dominance_comparisons
                .fetch_add(stats.comparisons, Ordering::Relaxed);
        }
        if stats.word_ops > 0 {
            self.dominance_word_ops
                .fetch_add(stats.word_ops, Ordering::Relaxed);
        }
        if stats.allocations > 0 {
            self.dominance_allocations
                .fetch_add(stats.allocations, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_estimator(&self, stats: EstimatorStats) {
        if stats.designs > 0 {
            self.estimator_designs
                .fetch_add(stats.designs, Ordering::Relaxed);
        }
        if stats.batched > 0 {
            self.estimator_batched
                .fetch_add(stats.batched, Ordering::Relaxed);
        }
        if stats.scalar_fallbacks > 0 {
            self.estimator_scalar_fallbacks
                .fetch_add(stats.scalar_fallbacks, Ordering::Relaxed);
        }
        if stats.allocations > 0 {
            self.estimator_allocations
                .fetch_add(stats.allocations, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry(log_h: u32, log_l: u32, k: u32) -> Geometry {
        Geometry { log_h, log_l, k }
    }

    fn key(precision: Precision, wstore: u64) -> CacheKey {
        CacheKey::new(
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            precision,
            wstore,
        )
    }

    #[test]
    fn poisoned_shard_and_key_map_keep_serving() {
        let cache = SharedEvalCache::with_shards(1);
        let space = cache.space(&key(Precision::Int8, 8192));
        space.insert(geometry(3, 4, 2), [1.0, 2.0, 3.0, 4.0]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _shard = space.shards[0].lock().unwrap();
            let _map = cache.spaces.lock().unwrap();
            panic!("panic while holding the shard and the key map");
        }));
        assert!(panicked.is_err());
        assert!(space.shards[0].is_poisoned() && cache.spaces.is_poisoned());
        assert_eq!(space.get(&geometry(3, 4, 2)), Some([1.0, 2.0, 3.0, 4.0]));
        space.insert(geometry(5, 4, 2), [5.0, 6.0, 7.0, 8.0]);
        assert!(space.insert_if_absent(geometry(6, 4, 2), [0.5; 4]));
        assert!(!space.insert_if_absent(geometry(3, 4, 2), [0.0; 4]));
        assert_eq!((space.len(), space.entries().len()), (3, 3));
        let again = cache.space(&key(Precision::Int8, 8192));
        assert!(Arc::ptr_eq(&space, &again));
        cache.space(&key(Precision::Int4, 8192));
        assert_eq!((cache.spaces_len(), cache.len()), (2, 3));
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        let hash_of = |g: &Geometry| {
            let mut h = FxHasher::default();
            g.hash(&mut h);
            h.finish()
        };
        let a = geometry(3, 2, 4);
        assert_eq!(hash_of(&a), hash_of(&a));
        // All distinct geometries of a realistic space hash distinctly.
        let mut seen = std::collections::HashSet::new();
        for log_h in 0..12 {
            for log_l in 0..7 {
                for k in 1..=32 {
                    seen.insert(hash_of(&geometry(log_h, log_l, k)));
                }
            }
        }
        assert_eq!(seen.len(), 12 * 7 * 32, "hash collisions in tiny space");
    }

    #[test]
    fn fx_hasher_write_handles_unaligned_tails() {
        let mut a = FxHasher::default();
        a.write(b"technology-name");
        let mut b = FxHasher::default();
        b.write(b"technology-nam");
        assert_ne!(a.finish(), b.finish());
        // And the empty write is a no-op, not a crash.
        let mut c = FxHasher::default();
        c.write(b"");
        assert_eq!(c.finish(), FxHasher::default().finish());
    }

    #[test]
    fn cache_keys_separate_what_must_not_alias() {
        let base = key(Precision::Int8, 16384);
        assert_eq!(base, key(Precision::Int8, 16384));
        assert_ne!(base, key(Precision::Int4, 16384));
        assert_ne!(base, key(Precision::Int8, 32768));
        let derated = CacheKey::new(
            &Technology::tsmc28(),
            &OperatingConditions {
                voltage: 0.6,
                ..OperatingConditions::paper_default()
            },
            Precision::Int8,
            16384,
        );
        assert_ne!(base, derated);
        let scaled = CacheKey::new(
            &Technology::tsmc28().scaled_to_node(22.0),
            &OperatingConditions::paper_default(),
            Precision::Int8,
            16384,
        );
        assert_ne!(base, scaled);
    }

    #[test]
    fn key_spaces_are_isolated_but_shared_per_key() {
        let cache = SharedEvalCache::new();
        let a = cache.space(&key(Precision::Int8, 16384));
        let b = cache.space(&key(Precision::Int8, 16384));
        let c = cache.space(&key(Precision::Bf16, 16384));
        assert!(Arc::ptr_eq(&a, &b), "same key must resolve one space");
        assert!(!Arc::ptr_eq(&a, &c), "different keys must not alias");
        a.insert(geometry(3, 2, 1), [1.0, 2.0, 3.0, -4.0]);
        assert_eq!(b.get(&geometry(3, 2, 1)), Some([1.0, 2.0, 3.0, -4.0]));
        assert_eq!(c.get(&geometry(3, 2, 1)), None);
        assert_eq!(cache.spaces_len(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two_and_holds_everything() {
        for requested in [1, 2, 3, 5, 16, 33] {
            let cache = SharedEvalCache::with_shards(requested);
            assert!(cache.shards_per_space().is_power_of_two());
            assert!(cache.shards_per_space() >= requested);
            let space = cache.space(&key(Precision::Int2, 8192));
            for log_h in 0..8 {
                for k in 1..=4 {
                    space.insert(geometry(log_h, 1, k), [log_h as f64, k as f64, 0.0, 0.0]);
                }
            }
            assert_eq!(space.len(), 8 * 4, "shards={requested}");
            for log_h in 0..8 {
                for k in 1..=4 {
                    assert_eq!(
                        space.get(&geometry(log_h, 1, k)),
                        Some([log_h as f64, k as f64, 0.0, 0.0])
                    );
                }
            }
        }
    }

    #[test]
    fn global_cache_is_one_object() {
        let a = SharedEvalCache::global();
        let b = SharedEvalCache::global();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn stats_partition_hits_and_misses() {
        let stats = EvalStats::default();
        stats.record(3, 2);
        stats.record(0, 1);
        assert_eq!(stats.hits(), 3);
        assert_eq!(stats.distinct_evaluations(), 3);
    }

    #[test]
    fn stats_accumulate_dominance_counters() {
        let stats = EvalStats::default();
        assert_eq!(stats.dominance(), DominanceStats::default());
        stats.record_dominance(DominanceStats {
            comparisons: 10,
            word_ops: 7,
            allocations: 2,
        });
        stats.record_dominance(DominanceStats {
            comparisons: 5,
            word_ops: 0,
            allocations: 0,
        });
        assert_eq!(
            stats.dominance(),
            DominanceStats {
                comparisons: 15,
                word_ops: 7,
                allocations: 2,
            }
        );
    }

    #[test]
    fn stats_accumulate_estimator_counters() {
        let stats = EvalStats::default();
        assert_eq!(stats.estimator(), EstimatorStats::default());
        stats.record_estimator(EstimatorStats {
            designs: 12,
            batched: 8,
            scalar_fallbacks: 4,
            allocations: 3,
        });
        stats.record_estimator(EstimatorStats {
            designs: 5,
            batched: 4,
            scalar_fallbacks: 1,
            allocations: 0,
        });
        assert_eq!(
            stats.estimator(),
            EstimatorStats {
                designs: 17,
                batched: 12,
                scalar_fallbacks: 5,
                allocations: 3,
            }
        );
    }

    /// Non-finite objective vectors (infeasible geometries memoize
    /// `[+∞; 4]`, and a corrupted journal delta may carry NaN) survive
    /// the full snapshot → encode → decode → load → lookup cycle a
    /// checkpoint delta takes, bit-identically.
    #[test]
    fn non_finite_objectives_survive_the_round_trip() {
        let cache = SharedEvalCache::with_shards(4);
        let key = key(Precision::Int8, 16384);
        let space = cache.space(&key);
        let nan = f64::from_bits(0x7ff8_0000_0000_1234); // payload NaN
        let odd = [nan, f64::NEG_INFINITY, -0.0, 1e-300];
        space.insert(geometry(1, 0, 1), [f64::INFINITY; 4]);
        space.insert(geometry(2, 0, 1), odd);

        let bytes = cache.snapshot().encode_binary();
        let fresh = SharedEvalCache::new();
        fresh
            .load(&Snapshot::decode_binary(&bytes).unwrap())
            .unwrap();
        let restored = fresh.space(&key);
        assert_eq!(restored.get(&geometry(1, 0, 1)), Some([f64::INFINITY; 4]));
        assert_eq!(
            restored.get(&geometry(2, 0, 1)).unwrap().map(f64::to_bits),
            odd.map(f64::to_bits),
            "NaN payload / −0 / subnormal must round-trip bit-identically"
        );
    }
}
