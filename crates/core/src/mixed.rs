//! Mixed-precision frontier merging (paper §III-B.2): "a classic NSGA-II
//! algorithm is performed for multiple architectures respectively.
//! Finally, a high-quality Pareto-frontier set containing both integer and
//! floating-point solutions can be obtained".
//!
//! [`explore_mixed`] runs one exploration per candidate precision (each on
//! its own architecture template) and Pareto-merges the per-precision
//! frontiers into a single cross-architecture front, so an application
//! that can tolerate either number format sees the genuinely best designs
//! of both.

use std::sync::Arc;

use sega_cells::Technology;
use sega_estimator::{OperatingConditions, Precision};
use sega_moga::pareto::pareto_front_indices_matrix;
use sega_moga::{DominanceStats, Nsga2Config, ObjectiveMatrix};
use sega_parallel::par_map;

use crate::cache::SharedEvalCache;
use crate::explore::{explore_pareto_with, ParetoSolution, PipelineOptions};
use crate::spec::{SpecError, UserSpec};

/// The merged outcome of a multi-architecture exploration.
#[derive(Debug, Clone)]
pub struct MixedExploration {
    /// The cross-architecture Pareto frontier (sorted by area).
    pub front: Vec<ParetoSolution>,
    /// Per-precision frontier sizes before merging, in input order.
    pub per_precision: Vec<(Precision, usize)>,
    /// Total genome evaluations across all runs.
    pub evaluations: usize,
    /// Total estimator calls across all runs (see
    /// [`crate::ExplorationResult::distinct_evaluations`]).
    pub distinct_evaluations: usize,
    /// Total cache-served evaluations across all runs.
    pub cache_hits: usize,
    /// Total evaluations the GA's interning layer resolved across all
    /// runs (a subset of [`cache_hits`](Self::cache_hits)).
    pub interned: usize,
    /// Dominance-kernel counters summed across all runs' sorts.
    pub dominance: DominanceStats,
}

impl MixedExploration {
    /// How many merged-front members use each precision's architecture.
    pub fn survivors_of(&self, precision: Precision) -> usize {
        let bw = precision.weight_bits();
        let is_float = precision.is_float();
        self.front
            .iter()
            .filter(|s| {
                s.design.is_float() == is_float
                    && match s.design {
                        sega_estimator::DcimDesign::Int(p) => p.bw == bw,
                        sega_estimator::DcimDesign::Fp(p) => p.bm == bw,
                    }
            })
            .count()
    }
}

/// Explores each precision separately and merges the fronts into a single
/// cross-architecture Pareto set, with the default [`PipelineOptions`].
///
/// # Errors
///
/// Returns the first [`SpecError`] if `wstore` is invalid for any of the
/// requested precisions.
pub fn explore_mixed(
    wstore: u64,
    precisions: &[Precision],
    tech: &Technology,
    conditions: &OperatingConditions,
    config: &Nsga2Config,
) -> Result<MixedExploration, SpecError> {
    explore_mixed_with(
        wstore,
        precisions,
        tech,
        conditions,
        config,
        PipelineOptions::default(),
    )
}

/// [`explore_mixed`] with explicit [`PipelineOptions`].
///
/// The per-precision explorations are independent seeded runs, so they
/// execute **concurrently**, on up to `pipeline.threads` scoped threads
/// (each exploration runs on one). All runs share one
/// [`SharedEvalCache`] (a fresh one per call unless the options inject
/// their own), so estimates persist across the fan-out and across
/// repeated calls with a caller-provided cache. Results are merged in
/// input order, keeping the outcome bit-identical to a serial sweep.
///
/// # Errors
///
/// Returns the first [`SpecError`] if `wstore` is invalid for any of the
/// requested precisions.
pub fn explore_mixed_with(
    wstore: u64,
    precisions: &[Precision],
    tech: &Technology,
    conditions: &OperatingConditions,
    config: &Nsga2Config,
    pipeline: PipelineOptions,
) -> Result<MixedExploration, SpecError> {
    // Validate every spec up front so errors surface in input order, then
    // fan the seeded runs out in parallel.
    let specs: Vec<UserSpec> = precisions
        .iter()
        .map(|&p| UserSpec::new(wstore, p))
        .collect::<Result<_, _>>()?;
    let runs: Vec<(UserSpec, Nsga2Config)> = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut cfg = config.clone();
            cfg.seed = config.seed.wrapping_add(i as u64);
            (spec, cfg)
        })
        .collect();
    // One cache serves every run; the per-precision key spaces never
    // alias.
    let cache = pipeline
        .shared_cache
        .clone()
        .unwrap_or_else(|| Arc::new(SharedEvalCache::new()));
    let inner = PipelineOptions {
        shared_cache: Some(cache),
        ..pipeline
    };
    let results = par_map(&runs, inner.threads, |(spec, cfg)| {
        explore_pareto_with(spec, tech, conditions, cfg, inner.clone())
    });

    let mut candidates: Vec<ParetoSolution> = Vec::new();
    let mut per_precision = Vec::new();
    let mut evaluations = 0;
    let mut distinct_evaluations = 0;
    let mut cache_hits = 0;
    let mut interned = 0;
    let mut dominance = DominanceStats::default();
    for (&precision, result) in precisions.iter().zip(results) {
        per_precision.push((precision, result.solutions.len()));
        evaluations += result.evaluations;
        distinct_evaluations += result.distinct_evaluations;
        cache_hits += result.cache_hits;
        interned += result.interned;
        dominance.merge(result.dominance);
        candidates.extend(result.solutions);
    }
    // Cross-architecture Pareto merge over one flat objective matrix.
    let mut objs = ObjectiveMatrix::with_capacity(4, candidates.len());
    for s in &candidates {
        objs.push_row(&s.objectives());
    }
    let keep = pareto_front_indices_matrix(&objs);
    let mut front: Vec<ParetoSolution> = keep.into_iter().map(|i| candidates[i].clone()).collect();
    front.sort_by(|a, b| {
        a.estimate
            .area_mm2
            .partial_cmp(&b.estimate.area_mm2)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(MixedExploration {
        front,
        per_precision,
        evaluations,
        distinct_evaluations,
        cache_hits,
        interned,
        dominance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> Nsga2Config {
        Nsga2Config {
            population: 24,
            generations: 15,
            seed,
            ..Default::default()
        }
    }

    fn run(precisions: &[Precision]) -> MixedExploration {
        explore_mixed(
            16384,
            precisions,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            &cfg(1),
        )
        .unwrap()
    }

    #[test]
    fn merged_front_is_non_dominated() {
        let m = run(&[Precision::Int8, Precision::Bf16]);
        assert!(!m.front.is_empty());
        for a in &m.front {
            for b in &m.front {
                let (oa, ob) = (a.objectives(), b.objectives());
                assert!(!sega_moga::pareto::dominates(&oa, &ob) || oa == ob);
            }
        }
    }

    #[test]
    fn both_architectures_can_survive_the_merge() {
        // INT8 and BF16 occupy nearby cost points with different
        // throughput trade-offs, so a healthy merge keeps members of both.
        let m = run(&[Precision::Int8, Precision::Bf16]);
        let int_count = m.front.iter().filter(|s| !s.design.is_float()).count();
        let fp_count = m.front.iter().filter(|s| s.design.is_float()).count();
        assert!(int_count > 0, "merge lost every integer design");
        assert!(fp_count > 0, "merge lost every floating-point design");
        assert_eq!(m.survivors_of(Precision::Int8), int_count);
        assert_eq!(m.survivors_of(Precision::Bf16), fp_count);
    }

    #[test]
    fn narrow_precision_dominates_wide_on_cost_axes() {
        // INT4 strictly beats INT16 on area/energy at equal Wstore, so in a
        // merged INT4+INT16 front, the minimum-area member must be INT4.
        let m = run(&[Precision::Int4, Precision::Int16]);
        let min_area = m
            .front
            .iter()
            .min_by(|a, b| {
                a.estimate
                    .area_mm2
                    .partial_cmp(&b.estimate.area_mm2)
                    .unwrap()
            })
            .unwrap();
        match min_area.design {
            sega_estimator::DcimDesign::Int(p) => assert_eq!(p.bw, 4),
            sega_estimator::DcimDesign::Fp(_) => panic!("expected integer design"),
        }
    }

    #[test]
    fn evaluation_budget_accumulates() {
        let m = run(&[Precision::Int8, Precision::Bf16, Precision::Fp8]);
        // 3 runs × (24 + 24·15) evals.
        assert_eq!(m.evaluations, 3 * (24 + 24 * 15));
        assert_eq!(m.per_precision.len(), 3);
    }

    #[test]
    fn invalid_wstore_propagates() {
        let err = explore_mixed(
            5000,
            &[Precision::Int8],
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            &cfg(1),
        );
        assert!(matches!(err, Err(SpecError::WstoreNotPowerOfTwo(5000))));
    }
}
