//! Criterion bench: the batched evaluation pipeline — serial vs pooled
//! vs cached vs **cross-exploration shared cache** — the runtime's
//! receipts.
//!
//! Five configurations explore the same spec with the same seed (the
//! fronts are bit-identical by construction, asserted in the setup
//! phase):
//!
//! * `serial_uncached` — the pre-refactor behaviour: one `estimate()` per
//!   genome evaluation, single-threaded.
//! * `pooled_uncached` — batch fan-out on the persistent worker pool,
//!   no memoization (intra-batch dedup still applies).
//! * `cached_serial` — memoized estimates, single-threaded.
//! * `cached_pooled` — the default pipeline: memoized + pool fan-out.
//! * `shared_cache` — two successive explorations through one
//!   [`SharedEvalCache`]: the second run reports **zero** distinct
//!   evaluations (everything is served from the first run's estimates).
//!
//! The setup prints the evaluation accounting at the default
//! `Nsga2Config` budget, compares the mixed-precision fan-out under
//! per-problem vs shared caching, and — when `BENCH_PIPELINE_JSON` is
//! set — records everything to `BENCH_pipeline.json` so CI can track the
//! perf trajectory per PR (see `sega_bench::json`).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use sega_bench::json::{pipeline_json_path, ConfigRecord, PipelineReport};
use sega_bench::{quick_nsga_config, FIG7_PRECISIONS};
use sega_cells::Technology;
use sega_dcim::{
    explore_mixed_with, explore_pareto_with, PipelineOptions, SharedEvalCache, UserSpec,
};
use sega_estimator::{OperatingConditions, Precision};
use sega_moga::Nsga2Config;

fn pipeline_configs() -> [(&'static str, PipelineOptions); 4] {
    [
        ("serial_uncached", PipelineOptions::serial_uncached()),
        (
            // min_batch_per_worker: 1 so the fan-out genuinely engages at
            // GA batch sizes; otherwise "pooled" would measure the
            // serial fast path.
            "pooled_uncached",
            PipelineOptions {
                threads: 0,
                cache: false,
                min_batch_per_worker: 1,
                ..Default::default()
            },
        ),
        (
            "cached_serial",
            PipelineOptions {
                threads: 1,
                cache: true,
                ..PipelineOptions::default()
            },
        ),
        (
            "cached_pooled",
            PipelineOptions {
                threads: 0,
                cache: true,
                min_batch_per_worker: 1,
                ..Default::default()
            },
        ),
    ]
}

fn bench_pipeline(c: &mut Criterion) {
    let spec = UserSpec::new(65536, Precision::Int8).unwrap();
    let tech = Technology::tsmc28();
    let cond = OperatingConditions::paper_default();

    // Receipts, printed once: identical fronts, and the evaluation
    // accounting at the paper-scale default budget.
    let default_cfg = Nsga2Config::default();
    let mut records: Vec<ConfigRecord> = Vec::new();
    let mut fronts = Vec::new();
    for (name, pipeline) in pipeline_configs() {
        let started = Instant::now();
        let run = explore_pareto_with(&spec, &tech, &cond, &default_cfg, pipeline);
        records.push(ConfigRecord {
            name: name.to_owned(),
            wall_s: started.elapsed().as_secs_f64(),
            evaluations: run.evaluations,
            distinct_evaluations: run.distinct_evaluations,
            cache_hits: run.cache_hits,
        });
        fronts.push((name, run));
    }

    // The shared-cache scenario: a second exploration of the same spec
    // through the same cache serves everything from memory.
    let shared = Arc::new(SharedEvalCache::new());
    let shared_pipeline = PipelineOptions {
        threads: 0,
        cache: true,
        min_batch_per_worker: 1,
        ..Default::default()
    }
    .with_shared_cache(Arc::clone(&shared));
    for run_idx in 1..=2 {
        let started = Instant::now();
        let run = explore_pareto_with(&spec, &tech, &cond, &default_cfg, shared_pipeline.clone());
        records.push(ConfigRecord {
            name: format!("shared_cache_run{run_idx}"),
            wall_s: started.elapsed().as_secs_f64(),
            evaluations: run.evaluations,
            distinct_evaluations: run.distinct_evaluations,
            cache_hits: run.cache_hits,
        });
        if run_idx == 2 {
            assert_eq!(
                run.distinct_evaluations, 0,
                "a warm shared cache must serve the whole second run"
            );
        }
        fronts.push(("shared_cache", run));
    }

    let reference = fronts[0].1.objective_matrix();
    for (name, run) in &fronts {
        assert_eq!(
            run.objective_matrix(),
            reference,
            "{name} must reproduce the serial front bit-identically"
        );
    }
    for r in &records {
        eprintln!(
            "{:<18}: {} evaluations -> {} distinct estimates ({} cache hits, {:.1}x fewer estimator calls) in {:.3}s",
            r.name,
            r.evaluations,
            r.distinct_evaluations,
            r.cache_hits,
            r.evaluations as f64 / (r.distinct_evaluations.max(1)) as f64,
            r.wall_s,
        );
    }

    if let Some(path) = pipeline_json_path() {
        let report = PipelineReport {
            wstore: spec.wstore,
            precision: spec.precision.to_string(),
            configs: records,
        };
        report.write_to(&path).expect("write BENCH_pipeline.json");
        eprintln!("wrote {}", path.display());
    }

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for (name, pipeline) in pipeline_configs() {
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                explore_pareto_with(
                    &spec,
                    &tech,
                    &cond,
                    &quick_nsga_config(seed),
                    pipeline.clone(),
                )
            })
        });
    }
    // The shared-cache steady state: successive explorations (varying
    // seeds) through one warm cache — the sweep/compiler workload.
    group.bench_function("shared_cache_warm", |b| {
        let cache = Arc::new(SharedEvalCache::new());
        let pipeline = PipelineOptions {
            threads: 0,
            cache: true,
            min_batch_per_worker: 1,
            ..Default::default()
        }
        .with_shared_cache(Arc::clone(&cache));
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            explore_pareto_with(
                &spec,
                &tech,
                &cond,
                &quick_nsga_config(seed),
                pipeline.clone(),
            )
        })
    });
    group.finish();
}

fn bench_mixed_fanout(c: &mut Criterion) {
    // The per-spec loop of the mixed-precision explorer is where the
    // pool buys wall-clock: eight independent seeded runs, one per
    // precision, fanned out concurrently — and where the shared cache
    // buys estimator calls: a second mixed run at the same budget
    // re-estimates nothing it has seen.
    let tech = Technology::tsmc28();
    let cond = OperatingConditions::paper_default();
    let cfg = quick_nsga_config(7);
    let cfg2 = quick_nsga_config(8);

    let serial = explore_mixed_with(
        16384,
        &FIG7_PRECISIONS,
        &tech,
        &cond,
        &cfg,
        PipelineOptions {
            threads: 1,
            cache: true,
            ..PipelineOptions::default()
        },
    )
    .unwrap();
    let parallel = explore_mixed_with(
        16384,
        &FIG7_PRECISIONS,
        &tech,
        &cond,
        &cfg,
        PipelineOptions::default(),
    )
    .unwrap();
    assert_eq!(
        serial
            .front
            .iter()
            .map(|s| s.objectives().to_vec())
            .collect::<Vec<_>>(),
        parallel
            .front
            .iter()
            .map(|s| s.objectives().to_vec())
            .collect::<Vec<_>>(),
        "mixed fronts must be identical for every thread budget"
    );

    // Per-problem caching (PR 1 semantics: a fresh cache per call) vs a
    // shared cache that survives across mixed runs, on the same budget.
    let per_problem_run2 = explore_mixed_with(
        16384,
        &FIG7_PRECISIONS,
        &tech,
        &cond,
        &cfg2,
        PipelineOptions::default(),
    )
    .unwrap();
    let shared = Arc::new(SharedEvalCache::new());
    let shared_opts = PipelineOptions::default().with_shared_cache(Arc::clone(&shared));
    let _warmup = explore_mixed_with(
        16384,
        &FIG7_PRECISIONS,
        &tech,
        &cond,
        &cfg,
        shared_opts.clone(),
    )
    .unwrap();
    let shared_run2 =
        explore_mixed_with(16384, &FIG7_PRECISIONS, &tech, &cond, &cfg2, shared_opts).unwrap();
    assert!(
        shared_run2.distinct_evaluations < per_problem_run2.distinct_evaluations,
        "shared cache must strictly reduce distinct evaluations across mixed runs \
         ({} vs {})",
        shared_run2.distinct_evaluations,
        per_problem_run2.distinct_evaluations,
    );
    eprintln!(
        "mixed fan-out (8 precisions, second run at equal budget): \
         per-problem cache {} distinct estimates, shared cache {} distinct estimates",
        per_problem_run2.distinct_evaluations, shared_run2.distinct_evaluations
    );

    let mut group = c.benchmark_group("mixed_fanout");
    group.sample_size(10);
    for (name, pipeline) in [
        (
            "serial",
            PipelineOptions {
                threads: 1,
                cache: true,
                ..PipelineOptions::default()
            },
        ),
        ("pooled", PipelineOptions::default()),
        (
            "pooled_shared_cache",
            PipelineOptions::default().with_shared_cache(Arc::new(SharedEvalCache::new())),
        ),
    ] {
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                explore_mixed_with(
                    16384,
                    &FIG7_PRECISIONS,
                    &tech,
                    &cond,
                    &quick_nsga_config(seed),
                    pipeline.clone(),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_mixed_fanout);
criterion_main!(benches);
