//! # sega-moga — multi-objective genetic algorithm substrate
//!
//! A from-scratch implementation of **NSGA-II** (Deb et al.), the
//! "prevailing genetic algorithm" the SEGA-DCIM paper uses for its
//! MOGA-based design space explorer (§III-B.2), together with the Pareto
//! machinery it rests on (fast non-dominated sorting, crowding distance,
//! dominance tests, hypervolume) and the baseline optimizers the paper's
//! motivation contrasts against (single-objective weighted-sum GA, random
//! search, exhaustive enumeration).
//!
//! The crate is generic: anything implementing [`Problem`] can be explored.
//! All objectives are **minimized**; negate a quantity to maximize it (the
//! paper does exactly this with throughput: `−T_INT`).
//!
//! # Batch-first evaluation
//!
//! [`Nsga2::run`] is structured as *breed-then-evaluate*: every RNG
//! decision of a generation (tournaments, crossover, mutation) happens
//! before any objective function runs, and the complete cohort is then
//! passed to [`Problem::evaluate_batch`] in one call. The default batch
//! implementation is a serial loop over [`Problem::evaluate`], so simple
//! problems need nothing extra — but a problem can override the batch
//! hook to memoize duplicate genomes, fan the cohort out across threads,
//! or forward it to a remote estimator service, and the run's result is
//! **bit-identical** in every case because no RNG draw ever depends on
//! when (or where) an evaluation executed.
//!
//! # Example
//!
//! ```
//! use sega_moga::{Nsga2, Nsga2Config, Problem};
//! use rand::Rng;
//!
//! /// Minimize [x², (x−2)²] over integers −100..100 — a classic bi-objective
//! /// toy whose Pareto set is x ∈ [0, 2].
//! struct Toy;
//! impl Problem for Toy {
//!     type Genome = i32;
//!     fn objectives(&self) -> usize { 2 }
//!     fn random_genome(&self, rng: &mut dyn rand::RngCore) -> i32 {
//!         use rand::Rng;
//!         rng.gen_range(-100..=100)
//!     }
//!     fn evaluate(&self, x: &i32) -> Vec<f64> {
//!         let xf = *x as f64;
//!         vec![xf * xf, (xf - 2.0) * (xf - 2.0)]
//!     }
//!     fn crossover(&self, a: &i32, b: &i32, _rng: &mut dyn rand::RngCore) -> i32 {
//!         (a + b) / 2
//!     }
//!     fn mutate(&self, x: &mut i32, rng: &mut dyn rand::RngCore) {
//!         use rand::Rng;
//!         *x += rng.gen_range(-3..=3);
//!     }
//! }
//!
//! let result = Nsga2::new(Nsga2Config { population: 32, generations: 40, ..Default::default() })
//!     .run(&Toy);
//! assert!(result.front.iter().all(|ind| ind.genome >= -2 && ind.genome <= 4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
pub mod matrix;
pub mod metrics;
mod nsga2;
pub mod pareto;
mod problem;

pub use baselines::{exhaustive_front, random_search, weighted_sum_ga, WeightedSumConfig};
pub use matrix::ObjectiveMatrix;
pub use nsga2::{
    DriverPhase, DriverState, Individual, Nsga2, Nsga2Config, Nsga2Driver, Nsga2Result,
};
pub use pareto::DominanceStats;
pub use problem::Problem;
