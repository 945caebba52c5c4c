//! Property tests of the persistence layer: snapshot round-trips, merge
//! laws, and warm-start determinism.
//!
//! Four properties anchor the `--cache-file` warm-start story:
//!
//! 1. **Round-trip** — snapshot → encode (binary *and* JSON) → decode →
//!    load gives bit-identical lookups, for every shard count.
//! 2. **Merge laws** — cache merging is commutative, associative and
//!    idempotent, and invariant in the shard counts of both sides
//!    ({1, 4, 64} exercised throughout).
//! 3. **Warm start** — an exploration served entirely from a loaded
//!    snapshot reports **0 distinct evaluations** and a front
//!    bit-identical to the cold run.
//! 4. **Batch determinism** — rerunning an identical job list against
//!    the previous run's snapshot is estimator-free and front-identical,
//!    whatever the backend choice, thread count or shard count.

use std::sync::Arc;

use proptest::prelude::*;
use sega_cells::Technology;
use sega_dcim::batch::{parse_jobs, run_batch};
use sega_dcim::{
    explore_pareto_with, CacheKey, ExplorationResult, InstrumentedBackend, PipelineOptions,
    SharedEvalCache, UserSpec,
};
use sega_estimator::{OperatingConditions, Precision};
use sega_moga::Nsga2Config;
use sega_wire::Snapshot;

const ALL_PRECISIONS: [Precision; 8] = [
    Precision::Int2,
    Precision::Int4,
    Precision::Int8,
    Precision::Int16,
    Precision::Fp8,
    Precision::Fp16,
    Precision::Bf16,
    Precision::Fp32,
];

const SHARD_COUNTS: [usize; 3] = [1, 4, 64];

fn cfg(seed: u64) -> Nsga2Config {
    Nsga2Config {
        population: 16,
        generations: 8,
        seed,
        ..Default::default()
    }
}

fn explore(spec: &UserSpec, seed: u64, cache: &Arc<SharedEvalCache>) -> ExplorationResult {
    explore_pareto_with(
        spec,
        &Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        &cfg(seed),
        PipelineOptions {
            threads: 4,
            min_batch_per_worker: 1,
            ..Default::default()
        }
        .with_shared_cache(Arc::clone(cache)),
    )
}

/// A cache warmed by one exploration, at the given shard count.
fn warmed_cache(spec: &UserSpec, seed: u64, shards: usize) -> Arc<SharedEvalCache> {
    let cache = Arc::new(SharedEvalCache::with_shards(shards));
    explore(spec, seed, &cache);
    cache
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Snapshot → encode → decode → load is lossless through **both**
    /// codecs, and the loaded cache warm-starts an identical exploration
    /// to zero distinct evaluations, for every shard count pairing.
    #[test]
    fn snapshot_round_trip_preserves_every_lookup(
        precision_idx in 0usize..8,
        log_wstore in 13u32..=15,
        seed in 0u64..1000,
        export_shards_idx in 0usize..3,
        import_shards_idx in 0usize..3,
    ) {
        let spec = UserSpec::new(1u64 << log_wstore, ALL_PRECISIONS[precision_idx]).unwrap();
        let cache = warmed_cache(&spec, seed, SHARD_COUNTS[export_shards_idx]);
        let reference = explore(&spec, seed, &cache); // front reference (cache already warm)
        let snapshot = cache.snapshot();
        prop_assert_eq!(snapshot.len(), cache.len());

        for bytes in [
            snapshot.encode_binary(),
            snapshot.to_json().to_string().into_bytes(),
        ] {
            let decoded = Snapshot::decode(&bytes).unwrap();
            // Bit-identical facts (EntryRecord equality is bitwise).
            prop_assert_eq!(&decoded, &snapshot);
            // Canonical: re-encoding is byte-identical.
            prop_assert_eq!(decoded.encode_binary(), snapshot.encode_binary());

            // Loading into a fresh cache (any shard count) reproduces
            // every lookup and snapshots back to the same bytes.
            let fresh = Arc::new(SharedEvalCache::with_shards(SHARD_COUNTS[import_shards_idx]));
            let installed = fresh.load(&decoded).unwrap();
            prop_assert_eq!(installed, snapshot.len());
            prop_assert_eq!(fresh.snapshot().encode_binary(), snapshot.encode_binary());
            // Idempotent: loading again installs nothing.
            prop_assert_eq!(fresh.load(&decoded).unwrap(), 0);

            // Warm start: the identical exploration is estimator-free and
            // bit-identical.
            let warm = explore(&spec, seed, &fresh);
            prop_assert_eq!(warm.distinct_evaluations, 0, "warm run must be estimator-free");
            prop_assert_eq!(warm.objective_matrix(), reference.objective_matrix());
        }
    }

    /// Merge is commutative, associative and idempotent, and the result
    /// is invariant in every participant's shard count — at the snapshot
    /// level and at the live-cache level.
    #[test]
    fn merge_laws_hold_across_shard_counts(
        seed in 0u64..1000,
        shards_a_idx in 0usize..3,
        shards_b_idx in 0usize..3,
        shards_c_idx in 0usize..3,
    ) {
        // Three caches with overlapping and disjoint key spaces.
        let int8 = UserSpec::new(16384, Precision::Int8).unwrap();
        let bf16 = UserSpec::new(16384, Precision::Bf16).unwrap();
        let a = warmed_cache(&int8, seed, SHARD_COUNTS[shards_a_idx]);
        let b = warmed_cache(&int8, seed.wrapping_add(1), SHARD_COUNTS[shards_b_idx]);
        let c = warmed_cache(&bf16, seed, SHARD_COUNTS[shards_c_idx]);
        let (sa, sb, sc) = (a.snapshot(), b.snapshot(), c.snapshot());

        // Snapshot-level laws.
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "commutative");
        let mut ab_c = ab.clone();
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associative");
        let mut aa = sa.clone();
        aa.merge(&sa);
        prop_assert_eq!(&aa, &sa, "idempotent");

        // Live-cache merge agrees with snapshot merge, for any receiver
        // shard count.
        for shards in SHARD_COUNTS {
            let receiver = Arc::new(SharedEvalCache::with_shards(shards));
            receiver.load(&sa).unwrap();
            receiver.merge(&b);
            receiver.merge(&c);
            prop_assert_eq!(
                receiver.snapshot().encode_binary(),
                ab_c.encode_binary(),
                "live merge diverged at {} shards",
                shards
            );
            // Merging the same cache again installs nothing.
            prop_assert_eq!(receiver.merge(&b), 0);
        }
    }
}

/// Non-finite objective vectors (infeasible geometries memoize `[+∞; 4]`,
/// and a hostile snapshot may carry NaN) survive the full
/// snapshot → encode → decode → load → lookup cycle bit-identically.
#[test]
fn non_finite_objectives_survive_the_round_trip() {
    use sega_dcim::explore::Geometry;
    let cache = SharedEvalCache::with_shards(4);
    let key = CacheKey::new(
        &Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        Precision::Int8,
        16384,
    );
    let space = cache.space(&key);
    let nan = f64::from_bits(0x7ff8_0000_0000_1234); // payload NaN
    space.insert(
        Geometry {
            log_h: 1,
            log_l: 0,
            k: 1,
        },
        [f64::INFINITY; 4],
    );
    space.insert(
        Geometry {
            log_h: 2,
            log_l: 0,
            k: 1,
        },
        [nan, f64::NEG_INFINITY, -0.0, 1e-300],
    );
    let snapshot = cache.snapshot();
    for bytes in [
        snapshot.encode_binary(),
        snapshot.to_json().to_string().into_bytes(),
    ] {
        let fresh = SharedEvalCache::new();
        fresh.load(&Snapshot::decode(&bytes).unwrap()).unwrap();
        let restored = fresh.space(&key);
        assert_eq!(
            restored.get(&Geometry {
                log_h: 1,
                log_l: 0,
                k: 1
            }),
            Some([f64::INFINITY; 4])
        );
        let roundtripped = restored
            .get(&Geometry {
                log_h: 2,
                log_l: 0,
                k: 1,
            })
            .unwrap();
        assert_eq!(
            roundtripped.map(f64::to_bits),
            [nan, f64::NEG_INFINITY, -0.0, 1e-300].map(f64::to_bits),
            "NaN payload / −0 / subnormal must round-trip bit-identically"
        );
    }
}

/// The ISSUE's acceptance criterion at the batch-runner level: a rerun of
/// an identical job list against the previous run's snapshot reports **0
/// distinct evaluations**, and the fronts are bit-identical across
/// backend choice, cache-file presence, thread count and shard count.
#[test]
fn batch_rerun_against_snapshot_is_estimator_free_and_bit_identical() {
    let jobs = parse_jobs(
        r#"[{"wstore": 8192, "precision": "int8", "seed": 1},
            {"wstore": 8192, "precision": "bf16", "seed": 2},
            {"wstore": 16384, "precision": "int8", "seed": 3}]"#,
        &cfg(0),
    )
    .unwrap();
    let tech = Technology::tsmc28();
    let cond = OperatingConditions::paper_default();

    // Cold reference run.
    let cold_cache = Arc::new(SharedEvalCache::new());
    let cold = run_batch(
        &jobs,
        &tech,
        &cond,
        PipelineOptions::default().with_shared_cache(Arc::clone(&cold_cache)),
    );
    assert!(cold.distinct_evaluations > 0);
    let fronts = |r: &sega_dcim::BatchReport| -> Vec<sega_moga::ObjectiveMatrix> {
        r.outcomes
            .iter()
            .map(|o| o.result.objective_matrix())
            .collect()
    };
    let reference = fronts(&cold);

    // The persisted snapshot (through the binary codec, as the CLI does).
    let snapshot = Snapshot::decode(&cold_cache.snapshot().encode_binary()).unwrap();

    for (threads, shards) in [(1usize, 1usize), (4, 4), (7, 64)] {
        for instrumented in [false, true] {
            let cache = Arc::new(SharedEvalCache::with_shards(shards));
            cache.load(&snapshot).unwrap();
            let mut pipeline = PipelineOptions {
                threads,
                min_batch_per_worker: 1,
                ..Default::default()
            }
            .with_shared_cache(Arc::clone(&cache));
            let backend = instrumented.then(|| Arc::new(InstrumentedBackend::macro_model()));
            if let Some(b) = &backend {
                pipeline.backend = Some(Arc::clone(b) as _);
            }
            let warm = run_batch(&jobs, &tech, &cond, pipeline);
            assert_eq!(
                warm.distinct_evaluations, 0,
                "threads={threads} shards={shards} instrumented={instrumented}"
            );
            assert_eq!(warm.evaluations, cold.evaluations);
            assert_eq!(warm.preloaded_entries, snapshot.len());
            assert_eq!(fronts(&warm), reference);
            // The backend saw zero traffic: everything came from the cache.
            if let Some(b) = backend {
                assert_eq!(b.geometries(), 0);
                assert_eq!(b.cohorts(), 0);
            }
        }
    }
}

/// Backend choice does not change a *cold* run either: the instrumented
/// wrapper sees exactly the distinct evaluations the accounting reports,
/// and fronts match the default backend bit-for-bit.
#[test]
fn cold_runs_are_backend_invariant_with_exact_traffic_accounting() {
    let spec = UserSpec::new(16384, Precision::Fp16).unwrap();
    let default_run = explore(&spec, 77, &Arc::new(SharedEvalCache::new()));
    let backend = Arc::new(InstrumentedBackend::macro_model());
    let instrumented_run = explore_pareto_with(
        &spec,
        &Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        &cfg(77),
        PipelineOptions {
            threads: 4,
            min_batch_per_worker: 1,
            ..Default::default()
        }
        .with_backend(Arc::clone(&backend) as _),
    );
    assert_eq!(
        instrumented_run.objective_matrix(),
        default_run.objective_matrix()
    );
    assert_eq!(
        backend.geometries(),
        instrumented_run.distinct_evaluations,
        "backend traffic must equal the distinct-evaluation accounting"
    );
}
