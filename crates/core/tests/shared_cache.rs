//! Integration tests of the sharded cross-exploration
//! [`SharedEvalCache`] and its interaction with the exploration
//! pipeline.
//!
//! Three properties anchor everything:
//!
//! 1. **Thread-count determinism** — forced widths (4 and 7, regardless
//!    of host cores) reproduce the serial front bit-identically.
//! 2. **Shard invariance** — the shard count changes lock granularity
//!    only: fronts *and counters* are identical for 1, 4 and 64 shards.
//! 3. **Cross-exploration reuse** — a second run of the same spec
//!    through the same cache reports **zero** distinct evaluations.

use std::sync::Arc;

use sega_cells::Technology;
use sega_dcim::{
    explore_mixed_with, explore_pareto_with, Compiler, ExplorationResult, PipelineOptions,
    SharedEvalCache, UserSpec,
};
use sega_estimator::{OperatingConditions, Precision};
use sega_moga::Nsga2Config;
use sega_parallel::Pool;

fn cfg(seed: u64) -> Nsga2Config {
    Nsga2Config {
        population: 20,
        generations: 10,
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

#[test]
fn forced_pool_widths_reproduce_the_serial_front() {
    let spec = UserSpec::new(16384, Precision::Bf16).unwrap();
    let baseline = explore(&spec, 11, PipelineOptions::serial_uncached());
    for width in [4usize, 7] {
        // The width set directly and through the `on_pool` shorthand.
        for pipeline in [
            PipelineOptions {
                threads: width,
                cache: true,
                ..Default::default()
            },
            PipelineOptions {
                threads: width,
                cache: true,
                ..Default::default()
            }
            .on_pool(Arc::new(Pool::new(width))),
        ] {
            let run = explore(&spec, 11, pipeline);
            assert_eq!(
                run.objective_matrix(),
                baseline.objective_matrix(),
                "thread count {width} diverged"
            );
        }
    }
}

#[test]
fn shard_count_changes_nothing_observable() {
    let spec = UserSpec::new(16384, Precision::Int8).unwrap();
    let mut reference: Option<(sega_moga::ObjectiveMatrix, usize, usize)> = None;
    for shards in [1usize, 4, 64] {
        let cache = Arc::new(SharedEvalCache::with_shards(shards));
        let run = explore(
            &spec,
            3,
            PipelineOptions {
                threads: 4,
                cache: true,
                ..Default::default()
            }
            .with_shared_cache(Arc::clone(&cache)),
        );
        // The cache saw exactly this run: its lifetime counters must
        // match the run's, shard count notwithstanding. (Genomes the GA
        // interned never reached the cache, so they are excluded from
        // its lifetime hits.)
        assert_eq!(cache.distinct_evaluations(), run.distinct_evaluations);
        assert_eq!(cache.hits() + run.interned, run.cache_hits);
        assert_eq!(cache.len(), run.distinct_evaluations);
        match &reference {
            None => {
                reference = Some((
                    run.objective_matrix(),
                    run.distinct_evaluations,
                    run.cache_hits,
                ))
            }
            Some((front, distinct, hits)) => {
                assert_eq!(
                    &run.objective_matrix(),
                    front,
                    "front differs at {shards} shards"
                );
                assert_eq!(
                    run.distinct_evaluations, *distinct,
                    "counters differ at {shards} shards"
                );
                assert_eq!(run.cache_hits, *hits);
            }
        }
    }
}

#[test]
fn second_run_of_the_same_spec_estimates_nothing() {
    let spec = UserSpec::new(16384, Precision::Fp16).unwrap();
    let cache = Arc::new(SharedEvalCache::new());
    let pipeline = PipelineOptions::default().with_shared_cache(Arc::clone(&cache));
    let first = explore(&spec, 42, pipeline.clone());
    assert!(first.distinct_evaluations > 0);
    let second = explore(&spec, 42, pipeline);
    assert_eq!(
        second.distinct_evaluations, 0,
        "warm cache must serve the whole identical run"
    );
    assert_eq!(second.cache_hits, second.evaluations);
    assert_eq!(second.objective_matrix(), first.objective_matrix());
    // A different seed still reuses most of the discrete space.
    let third = explore(
        &spec,
        43,
        PipelineOptions::default().with_shared_cache(cache),
    );
    assert!(
        third.distinct_evaluations < first.distinct_evaluations,
        "cross-seed reuse must shrink the estimator bill ({} vs {})",
        third.distinct_evaluations,
        first.distinct_evaluations
    );
}

#[test]
fn cache_isolates_differing_specs_and_conditions() {
    // Same cache object, different key: nothing may leak between key
    // spaces — the second exploration pays its own full estimate bill.
    let cache = Arc::new(SharedEvalCache::new());
    let int8 = UserSpec::new(16384, Precision::Int8).unwrap();
    let int4 = UserSpec::new(16384, Precision::Int4).unwrap();
    let a = explore(
        &int8,
        1,
        PipelineOptions::default().with_shared_cache(Arc::clone(&cache)),
    );
    let b = explore(
        &int4,
        1,
        PipelineOptions::default().with_shared_cache(Arc::clone(&cache)),
    );
    assert!(a.distinct_evaluations > 0 && b.distinct_evaluations > 0);
    assert_eq!(cache.spaces_len(), 2);
    // And a private-cache run of the second spec sees identical counters:
    // the shared cache gave it nothing.
    let private = explore(&int4, 1, PipelineOptions::default());
    assert_eq!(b.distinct_evaluations, private.distinct_evaluations);
    assert_eq!(b.objective_matrix(), private.objective_matrix());
}

#[test]
fn compiler_reuses_estimates_across_runs() {
    let spec = UserSpec::new(8192, Precision::Int8).unwrap();
    let compiler = Compiler::new().with_exploration_budget(20, 10);
    let first = compiler.explore(&spec);
    assert!(first.distinct_evaluations > 0);
    let second = compiler.explore(&spec);
    assert_eq!(
        second.distinct_evaluations, 0,
        "a compiler's second identical exploration must be estimator-free"
    );
    assert_eq!(second.objective_matrix(), first.objective_matrix());
    // Clones share the cache (the paper flow compiles several strategies
    // from one exploration budget).
    let clone_run = compiler.clone().explore(&spec);
    assert_eq!(clone_run.distinct_evaluations, 0);
}

#[test]
fn mixed_exploration_with_shared_cache_beats_per_problem_caching() {
    // The ISSUE's acceptance criterion: a mixed-precision run through a
    // warm SharedEvalCache reports strictly fewer distinct evaluations
    // than per-problem caching at the same budget.
    let tech = Technology::tsmc28();
    let cond = OperatingConditions::paper_default();
    let precisions = [Precision::Int4, Precision::Int8, Precision::Bf16];
    let per_problem = explore_mixed_with(
        16384,
        &precisions,
        &tech,
        &cond,
        &cfg(5),
        PipelineOptions::default(),
    )
    .unwrap();
    let cache = Arc::new(SharedEvalCache::new());
    let shared_opts = PipelineOptions::default().with_shared_cache(Arc::clone(&cache));
    let warm = explore_mixed_with(
        16384,
        &precisions,
        &tech,
        &cond,
        &cfg(4),
        shared_opts.clone(),
    )
    .unwrap();
    assert!(warm.distinct_evaluations > 0);
    let second =
        explore_mixed_with(16384, &precisions, &tech, &cond, &cfg(5), shared_opts).unwrap();
    assert!(
        second.distinct_evaluations < per_problem.distinct_evaluations,
        "shared cache must strictly reduce the estimator bill ({} vs {})",
        second.distinct_evaluations,
        per_problem.distinct_evaluations
    );
    // Fronts are unaffected by where estimates came from.
    let objs = |m: &sega_dcim::MixedExploration| -> Vec<Vec<f64>> {
        m.front.iter().map(|s| s.objectives().to_vec()).collect()
    };
    assert_eq!(objs(&second), objs(&per_problem));
}

#[test]
fn global_cache_accumulates_across_pipelines() {
    // `.shared()` attaches the process-global cache: two pipelines built
    // independently still see each other's estimates.
    let spec = UserSpec::new(32768, Precision::Int16).unwrap();
    let first = explore(&spec, 77, PipelineOptions::default().shared());
    let second = explore(&spec, 77, PipelineOptions::default().shared());
    // (Another test may have warmed this key space first — the second
    // run is the one with a guaranteed-warm cache.)
    assert_eq!(second.distinct_evaluations, 0);
    assert_eq!(second.objective_matrix(), first.objective_matrix());
}
