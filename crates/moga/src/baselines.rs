//! Baseline optimizers contrasted against NSGA-II in the ablation benches.
//!
//! The paper motivates MOGA-based exploration by noting that "many previous
//! studies have transformed these multi-objective optimization problems into
//! single-objective optimization problems" with "a fixed human experience"
//! (§II-B), and that AutoDCIM leaves the trade-off decision to the user
//! entirely. These baselines make that comparison measurable:
//!
//! * [`random_search`] — pure Monte-Carlo sampling with the same evaluation
//!   budget;
//! * [`weighted_sum_ga`] — the single-objective reduction with a scalar
//!   weight vector (a set of runs with different weights approximates a
//!   front);
//! * [`exhaustive_front`] — ground truth on small enumerable spaces.

use crate::matrix::ObjectiveMatrix;
use crate::pareto::pareto_front_indices_matrix;
use crate::Problem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random search: draws `budget` random (repaired) genomes and returns the
/// Pareto front of the samples as `(genome, objectives)` pairs.
pub fn random_search<P: Problem>(
    problem: &P,
    budget: usize,
    seed: u64,
) -> Vec<(P::Genome, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<(P::Genome, Vec<f64>)> = (0..budget)
        .map(|_| {
            let mut g = problem.random_genome(&mut rng);
            problem.repair(&mut g);
            let o = problem.evaluate(&g);
            (g, o)
        })
        .collect();
    front_of(samples)
}

/// Configuration of the weighted-sum single-objective GA baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSumConfig {
    /// Population size.
    pub population: usize,
    /// Generations to evolve.
    pub generations: usize,
    /// Mutation probability per child.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WeightedSumConfig {
    fn default() -> Self {
        WeightedSumConfig {
            population: 60,
            generations: 60,
            mutation_rate: 0.4,
            seed: 1,
        }
    }
}

/// Single-objective GA minimizing the scalarized objective
/// `Σ wᵢ·fᵢ(x)` — the "fixed human experience" reduction the paper argues
/// against. Returns the best genome found and its (vector) objectives.
///
/// # Panics
///
/// Panics if `weights` does not match the problem's objective count, or if
/// the population is smaller than 2.
pub fn weighted_sum_ga<P: Problem>(
    problem: &P,
    weights: &[f64],
    config: &WeightedSumConfig,
) -> (P::Genome, Vec<f64>) {
    assert_eq!(
        weights.len(),
        problem.objectives(),
        "weight vector arity must match objectives"
    );
    assert!(config.population >= 2, "population must be at least 2");
    let scalar = |o: &[f64]| -> f64 { o.iter().zip(weights).map(|(&x, &w)| x * w).sum() };

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut pop: Vec<(P::Genome, Vec<f64>)> = (0..config.population)
        .map(|_| {
            let mut g = problem.random_genome(&mut rng);
            problem.repair(&mut g);
            let o = problem.evaluate(&g);
            (g, o)
        })
        .collect();

    for _ in 0..config.generations {
        let mut next: Vec<(P::Genome, Vec<f64>)> = Vec::with_capacity(config.population);
        // Elitism: keep the incumbent best.
        let best = pop
            .iter()
            .min_by(|a, b| {
                scalar(&a.1)
                    .partial_cmp(&scalar(&b.1))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("population is nonempty")
            .clone();
        next.push(best);
        while next.len() < config.population {
            let a = tournament(&pop, &scalar, &mut rng);
            let b = tournament(&pop, &scalar, &mut rng);
            let mut child = problem.crossover(&pop[a].0, &pop[b].0, &mut rng);
            if rng.gen_bool(config.mutation_rate) {
                problem.mutate(&mut child, &mut rng);
            }
            problem.repair(&mut child);
            let o = problem.evaluate(&child);
            next.push((child, o));
        }
        pop = next;
    }

    pop.into_iter()
        .min_by(|a, b| {
            scalar(&a.1)
                .partial_cmp(&scalar(&b.1))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("population is nonempty")
}

fn tournament<G>(
    pop: &[(G, Vec<f64>)],
    scalar: &impl Fn(&[f64]) -> f64,
    rng: &mut StdRng,
) -> usize {
    let i = rng.gen_range(0..pop.len());
    let j = rng.gen_range(0..pop.len());
    if scalar(&pop[i].1) <= scalar(&pop[j].1) {
        i
    } else {
        j
    }
}

/// Evaluates every genome in `candidates` and returns the exact Pareto
/// front — ground truth for small design spaces.
pub fn exhaustive_front<P: Problem>(
    problem: &P,
    candidates: impl IntoIterator<Item = P::Genome>,
) -> Vec<(P::Genome, Vec<f64>)> {
    let evaluated: Vec<(P::Genome, Vec<f64>)> = candidates
        .into_iter()
        .map(|g| {
            let o = problem.evaluate(&g);
            (g, o)
        })
        .collect();
    front_of(evaluated)
}

fn front_of<G>(mut samples: Vec<(G, Vec<f64>)>) -> Vec<(G, Vec<f64>)> {
    // One flat matrix for the dominance kernel — no per-sample clones.
    let mut objs = ObjectiveMatrix::new(samples.first().map_or(0, |(_, o)| o.len()));
    for (_, o) in &samples {
        objs.push_row(o);
    }
    let keep = pareto_front_indices_matrix(&objs);
    let mut keep_iter = keep.into_iter().peekable();
    let mut idx = 0usize;
    samples.retain(|_| {
        let retain = keep_iter.peek() == Some(&idx);
        if retain {
            keep_iter.next();
        }
        idx += 1;
        retain
    });
    // Deduplicate identical objective vectors for stable comparisons.
    samples.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    samples.dedup_by(|a, b| a.1 == b.1);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::{dominates, hypervolume};
    use crate::{Nsga2, Nsga2Config};
    use rand::RngCore;

    struct Sch;
    impl Problem for Sch {
        type Genome = f64;
        fn objectives(&self) -> usize {
            2
        }
        fn random_genome(&self, rng: &mut dyn RngCore) -> f64 {
            (rng.next_u32() % 2001) as f64 / 10.0 - 100.0
        }
        fn evaluate(&self, x: &f64) -> Vec<f64> {
            vec![x * x, (x - 2.0) * (x - 2.0)]
        }
        fn crossover(&self, a: &f64, b: &f64, _rng: &mut dyn RngCore) -> f64 {
            (a + b) / 2.0
        }
        fn mutate(&self, x: &mut f64, rng: &mut dyn RngCore) {
            *x += ((rng.next_u32() % 2001) as f64 / 1000.0) - 1.0;
        }
    }

    #[test]
    fn random_search_front_is_non_dominated() {
        let front = random_search(&Sch, 500, 11);
        assert!(!front.is_empty());
        for (_, a) in &front {
            for (_, b) in &front {
                assert!(!dominates(a, b));
            }
        }
    }

    #[test]
    fn nsga2_beats_random_search_on_hypervolume() {
        // Same evaluation budget: 40 + 40*40 = 1640 evals for NSGA-II.
        let nsga = Nsga2::new(Nsga2Config {
            population: 40,
            generations: 40,
            seed: 5,
            ..Default::default()
        })
        .run(&Sch);
        let rs = random_search(&Sch, 1640, 5);
        let r = [50.0, 50.0];
        let hv_nsga = hypervolume(
            &nsga
                .front
                .iter()
                .map(|i| i.objectives.clone())
                .collect::<Vec<_>>(),
            &r,
        );
        let hv_rs = hypervolume(&rs.iter().map(|(_, o)| o.clone()).collect::<Vec<_>>(), &r);
        assert!(
            hv_nsga >= hv_rs,
            "NSGA-II hv {hv_nsga} should be >= random search hv {hv_rs}"
        );
    }

    #[test]
    fn weighted_sum_finds_a_compromise() {
        let (x, o) = weighted_sum_ga(&Sch, &[0.5, 0.5], &WeightedSumConfig::default());
        // Minimizer of 0.5x² + 0.5(x−2)² is x = 1.
        assert!((x - 1.0).abs() < 0.3, "x={x}");
        assert_eq!(o.len(), 2);
    }

    #[test]
    fn weighted_sum_extreme_weights_find_extremes() {
        let (x0, _) = weighted_sum_ga(&Sch, &[1.0, 0.0], &WeightedSumConfig::default());
        let (x1, _) = weighted_sum_ga(&Sch, &[0.0, 1.0], &WeightedSumConfig::default());
        assert!(x0.abs() < 0.3, "f1-only should find x≈0, got {x0}");
        assert!((x1 - 2.0).abs() < 0.3, "f2-only should find x≈2, got {x1}");
    }

    #[test]
    #[should_panic(expected = "weight vector arity")]
    fn weighted_sum_arity_checked() {
        let _ = weighted_sum_ga(&Sch, &[1.0], &WeightedSumConfig::default());
    }

    #[test]
    fn exhaustive_front_is_ground_truth() {
        // Integer domain -5..=7: Pareto set of SCH is x in [0, 2].
        let front = exhaustive_front(&Sch, (-5..=7).map(f64::from));
        let xs: Vec<f64> = front.iter().map(|(g, _)| *g).collect();
        assert_eq!(xs, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn exhaustive_front_dedups_equal_objectives() {
        let front = exhaustive_front(&Sch, vec![1.0, 1.0, 1.0]);
        assert_eq!(front.len(), 1);
    }
}
