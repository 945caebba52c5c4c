//! Property tests of the batched evaluation pipeline: every pipeline
//! configuration — serial, pooled, cached, uncached, shared-cache, and
//! their combinations — must return a **bit-identical** Pareto front for
//! the same seed, and the evaluation accounting must be exact.

use std::sync::Arc;

use proptest::prelude::*;
use sega_cells::Technology;
use sega_dcim::explore::DcimProblem;
use sega_dcim::{
    explore_mixed_with, explore_pareto_with, ExplorationResult, InstrumentedBackend,
    MacroModelBackend, PipelineOptions, SharedEvalCache, UserSpec,
};
use sega_estimator::{OperatingConditions, Precision};
use sega_moga::{Nsga2Config, Problem};
use sega_parallel::Pool;

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

fn cfg(seed: u64) -> Nsga2Config {
    Nsga2Config {
        population: 16,
        generations: 8,
        seed,
        ..Default::default()
    }
}

fn explore(spec: &UserSpec, seed: u64, pipeline: PipelineOptions) -> ExplorationResult {
    explore_pareto_with(
        spec,
        &Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        &cfg(seed),
        pipeline,
    )
}

/// Every pipeline configuration worth distinguishing. The threaded ones
/// set `min_batch_per_worker: 1` so the multi-participant merge path
/// really runs even at the tests' small batch sizes; the forced widths
/// (4 and 7) resolve to genuine persistent pools of that width via
/// `Pool::for_threads`, regardless of the host's core count. Later
/// configurations run on an explicitly injected pool, a fresh shared
/// cache, and explicit estimator backends (the macro model named
/// directly, and the counting wrapper) — the backend choice, like every
/// other knob, must never change a front.
fn pipelines() -> Vec<PipelineOptions> {
    vec![
        PipelineOptions::serial_uncached(),
        PipelineOptions {
            threads: 1,
            cache: true,
            ..Default::default()
        },
        PipelineOptions {
            threads: 4,
            cache: true,
            min_batch_per_worker: 1,
            ..Default::default()
        },
        PipelineOptions {
            threads: 4,
            cache: false,
            min_batch_per_worker: 1,
            ..Default::default()
        },
        PipelineOptions {
            threads: 7,
            cache: true,
            min_batch_per_worker: 1,
            ..Default::default()
        },
        PipelineOptions {
            threads: 4,
            cache: true,
            min_batch_per_worker: 1,
            ..Default::default()
        }
        .on_pool(Pool::for_threads(4)),
        PipelineOptions {
            threads: 4,
            cache: true,
            min_batch_per_worker: 1,
            ..Default::default()
        }
        .with_shared_cache(Arc::new(SharedEvalCache::with_shards(4))),
        PipelineOptions {
            threads: 4,
            cache: true,
            min_batch_per_worker: 1,
            ..Default::default()
        }
        .with_backend(Arc::new(MacroModelBackend)),
        PipelineOptions {
            threads: 4,
            cache: false,
            min_batch_per_worker: 1,
            ..Default::default()
        }
        .with_backend(Arc::new(InstrumentedBackend::macro_model())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline determinism property: cached + pooled exploration
    /// returns a bit-identical front to the serial uncached baseline, for
    /// every precision and seed.
    #[test]
    fn every_pipeline_reproduces_the_serial_front(
        precision_idx in 0usize..8,
        log_wstore in 13u32..=16,
        seed in 0u64..1000,
    ) {
        let precision = ALL_PRECISIONS[precision_idx];
        let spec = UserSpec::new(1u64 << log_wstore, precision).unwrap();
        let baseline = explore(&spec, seed, PipelineOptions::serial_uncached());
        for pipeline in pipelines() {
            let run = explore(&spec, seed, pipeline.clone());
            prop_assert_eq!(
                run.objective_matrix(),
                baseline.objective_matrix(),
                "pipeline {:?} diverged for {} seed {}",
                pipeline,
                precision,
                seed
            );
            prop_assert_eq!(run.evaluations, baseline.evaluations);
        }
    }

    /// Exact accounting: the GA's evaluation count is population ×
    /// (generations + 1) and always splits into estimator calls + served
    /// evaluations; caching and intra-batch dedup never change *what* is
    /// counted, only where it is served from.
    #[test]
    fn evaluation_accounting_is_exact(
        precision_idx in 0usize..8,
        seed in 0u64..1000,
    ) {
        let precision = ALL_PRECISIONS[precision_idx];
        let spec = UserSpec::new(16384, precision).unwrap();
        for pipeline in pipelines() {
            let cached = pipeline.cache;
            let run = explore(&spec, seed, pipeline.clone());
            prop_assert_eq!(run.evaluations, 16 + 16 * 8);
            prop_assert_eq!(
                run.distinct_evaluations + run.cache_hits,
                run.evaluations,
                "accounting must partition exactly under {:?}",
                pipeline
            );
            prop_assert!(run.distinct_evaluations <= run.evaluations);
            if !cached {
                // Without memoization the only savings are intra-batch
                // duplicates, so every *distinct* genome of every batch
                // still reaches the estimator — across the whole run that
                // is at least the number of distinct geometries visited.
                let memoized = explore(&spec, seed, PipelineOptions::with_threads(1));
                prop_assert!(
                    run.distinct_evaluations >= memoized.distinct_evaluations,
                    "uncached runs must re-estimate across batches"
                );
            }
        }
    }

    /// The memoized problem evaluates each distinct geometry exactly once:
    /// replaying the same batch costs zero further estimator calls, and
    /// the batch API agrees element-wise with single evaluation.
    #[test]
    fn cache_memoizes_each_geometry_exactly_once(
        precision_idx in 0usize..8,
        seed in 0u64..1000,
    ) {
        let precision = ALL_PRECISIONS[precision_idx];
        let spec = UserSpec::new(16384, precision).unwrap();
        let problem = DcimProblem::new(
            spec,
            Technology::tsmc28(),
            OperatingConditions::paper_default(),
        )
        .with_pipeline(PipelineOptions {
            threads: 4,
            cache: true,
            min_batch_per_worker: 1,
            ..Default::default()
        });
        // A cohort with deliberate duplicates: the same genome block twice.
        let genomes: Vec<_> = {
            use rand::SeedableRng;
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g: Vec<_> = (0..40).map(|_| {
                let mut g = problem.random_genome(&mut r);
                problem.repair(&mut g);
                g
            }).collect();
            let copy = g.clone();
            g.extend(copy);
            g
        };
        let first = problem.evaluate_batch(&genomes);
        let distinct_after_first = problem.stats().distinct_evaluations();
        let replay = problem.evaluate_batch(&genomes);
        prop_assert_eq!(&first, &replay, "replay must be identical");
        prop_assert_eq!(
            problem.stats().distinct_evaluations(),
            distinct_after_first,
            "replaying a batch must not re-estimate anything"
        );
        prop_assert_eq!(distinct_after_first, problem.cache().len());
        // Batch and single evaluation agree element-wise.
        for (genome, batch_objs) in genomes.iter().zip(&first) {
            prop_assert_eq!(&problem.evaluate(genome), batch_objs);
        }
    }

    /// Intra-batch dedup holds even with memoization disabled: a cohort
    /// whose second half repeats its first half reaches the estimator
    /// once per distinct genome, and repeats are answered identically.
    #[test]
    fn uncached_batches_dedup_within_the_cohort(
        precision_idx in 0usize..8,
        seed in 0u64..1000,
    ) {
        let precision = ALL_PRECISIONS[precision_idx];
        let spec = UserSpec::new(16384, precision).unwrap();
        let problem = DcimProblem::new(
            spec,
            Technology::tsmc28(),
            OperatingConditions::paper_default(),
        )
        .with_pipeline(PipelineOptions {
            threads: 4,
            cache: false,
            min_batch_per_worker: 1,
            ..Default::default()
        });
        let genomes: Vec<_> = {
            use rand::SeedableRng;
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let mut g: Vec<_> = (0..30).map(|_| {
                let mut g = problem.random_genome(&mut r);
                problem.repair(&mut g);
                g
            }).collect();
            let copy = g.clone();
            g.extend(copy);
            g
        };
        let distinct_in_batch = {
            let mut seen = std::collections::HashSet::new();
            genomes.iter().filter(|g| seen.insert(**g)).count()
        };
        let out = problem.evaluate_batch(&genomes);
        prop_assert_eq!(
            problem.stats().distinct_evaluations(),
            distinct_in_batch,
            "duplicates must reach the estimator once even with caching off"
        );
        prop_assert_eq!(
            problem.stats().hits(),
            genomes.len() - distinct_in_batch
        );
        for (a, b) in out.iter().zip(out[genomes.len() / 2..].iter()) {
            prop_assert_eq!(a, b, "repeated genomes must answer identically");
        }
        // A second batch re-estimates everything: nothing was memoized.
        let _ = problem.evaluate_batch(&genomes);
        prop_assert_eq!(
            problem.stats().distinct_evaluations(),
            2 * distinct_in_batch
        );
    }

    /// Genome interning is result-neutral: with the GA-level dedup layer
    /// disabled the fronts, the requested-evaluation count, the distinct
    /// estimator bill and the total served-from-memory count are all
    /// unchanged — only *which layer* serves the duplicates moves (the
    /// interning layer's share is reported in `interned`). The tiered
    /// dominance kernel's counters are live in both configurations.
    #[test]
    fn interning_is_result_neutral_and_accounted(
        precision_idx in 0usize..8,
        seed in 0u64..1000,
    ) {
        let precision = ALL_PRECISIONS[precision_idx];
        let spec = UserSpec::new(16384, precision).unwrap();
        let interned_run = explore(&spec, seed, PipelineOptions::with_threads(1));
        let mut config_off = cfg(seed);
        config_off.intern = false;
        let plain = explore_pareto_with(
            &spec,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            &config_off,
            PipelineOptions::with_threads(1),
        );
        prop_assert_eq!(interned_run.objective_matrix(), plain.objective_matrix());
        prop_assert_eq!(interned_run.evaluations, plain.evaluations);
        prop_assert_eq!(interned_run.distinct_evaluations, plain.distinct_evaluations);
        prop_assert_eq!(interned_run.cache_hits, plain.cache_hits);
        prop_assert!(interned_run.interned <= interned_run.cache_hits);
        prop_assert_eq!(plain.interned, 0);
        // M=4 production sorts run the blocked branchless tier, so the
        // live counter is `word_ops` (comparisons only bill NaN rows
        // and forced-scalar runs).
        prop_assert!(interned_run.dominance.comparisons + interned_run.dominance.word_ops > 0);
        prop_assert!(plain.dominance.comparisons + plain.dominance.word_ops > 0);
    }

    /// The persistent cache tier joins the matrix: a shared cache
    /// warmed through a `--cache-file` round-trip (binary and JSON)
    /// reproduces the serial front bit-identically — with **zero**
    /// distinct evaluations, since the donor run computed everything.
    #[test]
    fn cache_file_warmed_caches_reproduce_the_serial_front(
        precision_idx in 0usize..8,
        seed in 0u64..1000,
    ) {
        let precision = ALL_PRECISIONS[precision_idx];
        let spec = UserSpec::new(16384, precision).unwrap();
        let baseline = explore(&spec, seed, PipelineOptions::serial_uncached());

        let donor = Arc::new(SharedEvalCache::new());
        let pipeline = |cache: &Arc<SharedEvalCache>| PipelineOptions {
            threads: 4,
            cache: true,
            min_batch_per_worker: 1,
            ..Default::default()
        }
        .with_shared_cache(Arc::clone(cache));
        explore(&spec, seed, pipeline(&donor));

        for extension in ["bin", "json"] {
            let path = std::env::temp_dir().join(format!(
                "sega-pipeline-store-{}-{seed}-{precision_idx}.{extension}",
                std::process::id()
            ));
            sega_dcim::CacheStore::file(&path).save(&donor.snapshot()).unwrap();
            let loaded = sega_dcim::CacheStore::file(&path).load().unwrap();
            let _ = std::fs::remove_file(&path);
            let via_file = Arc::new(SharedEvalCache::new());
            via_file.load(&loaded).unwrap();
            let run = explore(&spec, seed, pipeline(&via_file));
            prop_assert_eq!(run.objective_matrix(), baseline.objective_matrix());
            prop_assert_eq!(
                run.distinct_evaluations, 0,
                "file-warmed run must be estimator-free ({})", extension
            );
        }
    }

    /// The mixed-precision fan-out is bit-identical between its serial
    /// and concurrent forms, and its counters aggregate exactly.
    #[test]
    fn mixed_fanout_is_deterministic(seed in 0u64..1000) {
        let tech = Technology::tsmc28();
        let cond = OperatingConditions::paper_default();
        let precisions = [Precision::Int4, Precision::Int8, Precision::Bf16];
        let serial = explore_mixed_with(
            16384, &precisions, &tech, &cond, &cfg(seed),
            PipelineOptions { threads: 1, cache: true, ..PipelineOptions::default() },
        ).unwrap();
        let parallel = explore_mixed_with(
            16384, &precisions, &tech, &cond, &cfg(seed),
            PipelineOptions { threads: 4, cache: true, min_batch_per_worker: 1, ..Default::default() },
        ).unwrap();
        let objs = |m: &sega_dcim::MixedExploration| -> Vec<Vec<f64>> {
            m.front.iter().map(|s| s.objectives().to_vec()).collect()
        };
        prop_assert_eq!(objs(&serial), objs(&parallel));
        prop_assert_eq!(serial.evaluations, parallel.evaluations);
        prop_assert_eq!(serial.distinct_evaluations, parallel.distinct_evaluations);
        prop_assert_eq!(serial.evaluations, 3 * (16 + 16 * 8));
        prop_assert_eq!(
            serial.distinct_evaluations + serial.cache_hits,
            serial.evaluations
        );
    }
}

/// The acceptance benchmark of the refactor, pinned as a test: at the
/// default `Nsga2Config` budget the cache performs at least 5× fewer
/// `estimate()` calls than the number of genome evaluations the GA
/// requests (the seed's serial loop performed one call per request).
#[test]
fn cached_exploration_reaches_5x_fewer_estimates_at_default_budget() {
    let spec = UserSpec::new(65536, Precision::Int8).unwrap();
    let run = explore_pareto_with(
        &spec,
        &Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        &Nsga2Config::default(),
        PipelineOptions::default(),
    );
    assert_eq!(run.evaluations, 100 + 100 * 120);
    assert!(
        run.distinct_evaluations * 5 <= run.evaluations,
        "only {}x fewer estimator calls ({} of {})",
        run.evaluations / run.distinct_evaluations.max(1),
        run.distinct_evaluations,
        run.evaluations
    );
    // The accounting partitions exactly, and at a converged default
    // budget the GA-level interning layer serves a real share of the
    // duplicates before they ever reach the cache.
    assert_eq!(
        run.distinct_evaluations + run.cache_hits,
        run.evaluations,
        "hits + misses must partition the bill"
    );
    assert!(
        run.interned > 0,
        "a converged default-budget run must breed duplicate genomes"
    );
    assert!(run.interned <= run.cache_hits);
    assert!(
        run.dominance.comparisons + run.dominance.word_ops > 0,
        "kernel counters must be live"
    );
    // The estimator kernel's accounting covers exactly the cohort
    // traffic that reached the backend.
    assert_eq!(
        run.estimator.designs as usize, run.distinct_evaluations,
        "every distinct geometry runs through the cohort kernel once"
    );
    assert_eq!(
        run.estimator.batched + run.estimator.scalar_fallbacks,
        run.estimator.designs
    );
}
