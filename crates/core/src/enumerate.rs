//! Exhaustive enumeration of the DCIM design space.
//!
//! For one `(Wstore, precision)` specification the legal geometries are a
//! small discrete set (powers-of-two `H`, `L` within the paper's bounds ×
//! `k ≤ Bx`), so the *entire* space can be enumerated and Pareto-filtered
//! exactly. This serves two purposes:
//!
//! * a **ground truth** to measure the NSGA-II explorer against, and
//! * the data behind Fig. 7's full design-space clouds.
//!
//! The explorer does not recover the true front exactly. On the 24-spec
//! benchmark corpus its point recall is about 0.55, at a hypervolume
//! ratio of about 0.997. The test below checks only that the GA front's
//! hypervolume is at least 95% of the exhaustive front's.

use sega_cells::Technology;
use sega_estimator::OperatingConditions;
use sega_moga::pareto::pareto_front_indices_matrix;
use sega_moga::ObjectiveMatrix;
use sega_parallel::par_map;

use crate::explore::{DcimProblem, Geometry, ParetoSolution};
use crate::spec::UserSpec;

/// Every legal geometry of the specification's design space, within the
/// paper's exploration bounds.
pub fn enumerate_geometries(spec: &UserSpec) -> Vec<Geometry> {
    let limits = &spec.limits;
    let max_log_l = limits.max_l.trailing_zeros();
    let min_log_h = limits.min_h.next_power_of_two().trailing_zeros();
    let max_log_h = limits.max_h.trailing_zeros();
    let log_wstore = spec.wstore.trailing_zeros();
    let max_sum = log_wstore.saturating_sub(limits.n_factor.next_power_of_two().trailing_zeros());
    let serial_bits = spec.precision.input_bits();

    let mut out = Vec::new();
    for log_h in min_log_h..=max_log_h {
        for log_l in 0..=max_log_l {
            if log_h + log_l > max_sum {
                continue;
            }
            for k in 1..=serial_bits {
                out.push(Geometry { log_h, log_l, k });
            }
        }
    }
    out
}

/// Evaluates the complete design space and returns every point
/// (design + estimate), unfiltered — Fig. 7's cloud.
///
/// Estimates run data-parallel over all hardware threads (the order of
/// the returned points is the enumeration order regardless).
pub fn enumerate_design_space(
    spec: &UserSpec,
    tech: &Technology,
    conditions: &OperatingConditions,
) -> Vec<ParetoSolution> {
    enumerate_design_space_with(spec, tech, conditions, 0)
}

/// [`enumerate_design_space`] with an explicit thread count (`0` = all
/// hardware threads, `1` = serial). Every point materializes through the
/// pipeline's bound [`crate::backend::EvalBackend`] (the macro model by
/// default, with its technology voltage-realized once for the whole
/// cloud, not once per point).
pub fn enumerate_design_space_with(
    spec: &UserSpec,
    tech: &Technology,
    conditions: &OperatingConditions,
    threads: usize,
) -> Vec<ParetoSolution> {
    // The problem is only used for its bound evaluator here; the
    // data-parallel fan-out below runs through `par_map` directly.
    let problem = DcimProblem::new(*spec, tech.clone(), *conditions);
    let geometries = enumerate_geometries(spec);
    par_map(&geometries, threads, |g| problem.materialize(g))
        .into_iter()
        .flatten()
        .collect()
}

/// The exact Pareto frontier of the full design space — ground truth for
/// the MOGA explorer.
pub fn exhaustive_front(
    spec: &UserSpec,
    tech: &Technology,
    conditions: &OperatingConditions,
) -> Vec<ParetoSolution> {
    let all = enumerate_design_space(spec, tech, conditions);
    // One flat matrix for the whole cloud — the dominance kernel's
    // canonical input, no per-point objective clones.
    let mut objs = ObjectiveMatrix::with_capacity(4, all.len());
    for s in &all {
        objs.push_row(&s.objectives());
    }
    let keep = pareto_front_indices_matrix(&objs);
    let mut front: Vec<ParetoSolution> = keep.into_iter().map(|i| all[i].clone()).collect();
    front.sort_by(|a, b| {
        a.estimate
            .area_mm2
            .partial_cmp(&b.estimate.area_mm2)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use sega_estimator::Precision;

    fn setup() -> (Technology, OperatingConditions) {
        (Technology::tsmc28(), OperatingConditions::paper_default())
    }

    #[test]
    fn enumeration_respects_bounds() {
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let geoms = enumerate_geometries(&spec);
        assert!(!geoms.is_empty());
        for g in &geoms {
            assert!(g.log_l <= 6, "L bound");
            assert!(g.log_h >= 1 && g.log_h <= 11, "H bound");
            assert!(g.k >= 1 && g.k <= 8, "k bound");
        }
    }

    #[test]
    fn enumeration_counts_are_exact() {
        // Wstore=8192 (2^13), INT8: max_sum = 13 - 2 = 11.
        // Pairs (log_h in 1..=11, log_l in 0..=6, sum <= 11): for log_h=1..5
        // all 7 log_l fit (log_h+6 <= 11); for log_h=6..11, 12-log_h each.
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let pairs: u32 = (1..=11u32)
            .map(|h| (0..=6u32).filter(|l| h + l <= 11).count() as u32)
            .sum();
        assert_eq!(enumerate_geometries(&spec).len() as u32, pairs * 8);
    }

    #[test]
    fn every_enumerated_design_is_valid() {
        let (tech, cond) = setup();
        let spec = UserSpec::new(4096, Precision::Bf16).unwrap();
        let all = enumerate_design_space(&spec, &tech, &cond);
        assert!(!all.is_empty());
        for s in &all {
            s.design.validate().unwrap();
            assert_eq!(s.design.wstore(), 4096);
            assert!(s.estimate.area_mm2.is_finite());
        }
    }

    #[test]
    fn exhaustive_front_is_non_dominated_subset() {
        let (tech, cond) = setup();
        let spec = UserSpec::new(4096, Precision::Int4).unwrap();
        let all = enumerate_design_space(&spec, &tech, &cond);
        let front = exhaustive_front(&spec, &tech, &cond);
        assert!(!front.is_empty() && front.len() < all.len());
        // No point of the full space dominates a front member.
        for f in &front {
            for a in &all {
                assert!(
                    !sega_moga::pareto::dominates(&a.objectives(), &f.objectives()),
                    "{} dominates front member {}",
                    a.design,
                    f.design
                );
            }
        }
    }

    #[test]
    fn nsga2_recovers_most_of_the_true_front() {
        // The headline DSE quality check: with a realistic budget the GA
        // front must cover the exhaustive front's hypervolume closely.
        use sega_moga::pareto::hypervolume;
        let (tech, cond) = setup();
        let spec = UserSpec::new(8192, Precision::Int8).unwrap();
        let truth = exhaustive_front(&spec, &tech, &cond);
        let ga = crate::explore::explore_pareto(
            &spec,
            &tech,
            &cond,
            &sega_moga::Nsga2Config {
                population: 64,
                generations: 40,
                seed: 5,
                ..Default::default()
            },
        );
        let to_objs = |v: &[ParetoSolution]| -> Vec<Vec<f64>> {
            v.iter().map(|s| s.objectives().to_vec()).collect()
        };
        // Common reference comfortably dominating both fronts.
        let reference = vec![100.0, 100.0, 1000.0, 0.0];
        let hv_truth = hypervolume(&to_objs(&truth), &reference);
        let hv_ga = hypervolume(&to_objs(&ga.solutions), &reference);
        assert!(
            hv_ga >= 0.95 * hv_truth,
            "GA hypervolume {hv_ga:.4e} below 95% of ground truth {hv_truth:.4e}"
        );
    }
}
