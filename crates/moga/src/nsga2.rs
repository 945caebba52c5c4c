use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::matrix::ObjectiveMatrix;
use crate::pareto::{
    crowding_classified_into, nan_last_cmp, nan_last_cmp_rows, non_dominated_sort_classified_into,
    CrowdingScratch, DominanceStats, SortScratch,
};
use crate::Problem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of an NSGA-II run.
///
/// The defaults mirror the scale the paper reports (DSE per design point
/// finishing "in 30 minutes" on a server; our estimator is fast enough that
/// the same population/generation budget finishes in seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Population size (and offspring count per generation).
    pub population: usize,
    /// Number of generations to evolve.
    pub generations: usize,
    /// Probability that a child is produced by crossover (otherwise a
    /// mutated clone of the first parent).
    pub crossover_rate: f64,
    /// Probability that a child is additionally mutated.
    pub mutation_rate: f64,
    /// RNG seed — runs are fully deterministic given the seed.
    pub seed: u64,
    /// Intern duplicate genomes before evaluation (default `true`):
    /// each cohort is deduplicated by genome equality and only distinct
    /// genomes reach [`Problem::evaluate_batch_into`], with results
    /// mapped back by index. Offspring of converged populations are
    /// heavily duplicated, so this removes most evaluation traffic even
    /// for problems with no cache of their own. Never changes the
    /// result (the evaluation contract guarantees equal genomes
    /// evaluate identically); the duplicates served are reported in
    /// [`Nsga2Result::interned`].
    pub intern: bool,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 100,
            generations: 120,
            crossover_rate: 0.9,
            mutation_rate: 0.35,
            seed: 0xD31A_2025,
            intern: true,
        }
    }
}

/// One evaluated member of the population.
#[derive(Debug, Clone)]
pub struct Individual<G> {
    /// The decision variables.
    pub genome: G,
    /// The (minimized) objective vector.
    pub objectives: Vec<f64>,
    /// Non-domination rank (0 = Pareto front of the final population).
    pub rank: usize,
    /// Crowding distance within its front.
    pub crowding: f64,
}

/// The outcome of an NSGA-II run.
#[derive(Debug, Clone)]
pub struct Nsga2Result<G> {
    /// The non-dominated front of the final population, deduplicated by
    /// objective vector.
    pub front: Vec<Individual<G>>,
    /// The complete final population.
    pub population: Vec<Individual<G>>,
    /// Total number of objective-function evaluations performed.
    pub evaluations: usize,
    /// Generations actually run.
    pub generations: usize,
    /// Evaluations served by the genome-interning layer: duplicate
    /// genomes within a cohort that never reached
    /// [`Problem::evaluate_batch_into`]. Zero when
    /// [`Nsga2Config::intern`] is off.
    pub interned: usize,
    /// Dominance-kernel work counters accumulated across every
    /// non-dominated sort of the run.
    pub dominance: DominanceStats,
}

/// The NSGA-II algorithm (elitist fast-non-dominated-sorting GA with
/// crowding-distance diversity preservation).
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Nsga2 {
    config: Nsga2Config,
}

/// The population in structure-of-arrays form: one flat
/// [`ObjectiveMatrix`] plus parallel rank/crowding vectors, so a
/// generation's selection machinery walks contiguous memory and never
/// allocates per individual. [`Individual`]s are materialized only at
/// the result boundary.
struct Pop<G> {
    genomes: Vec<G>,
    objs: ObjectiveMatrix,
    rank: Vec<usize>,
    crowding: Vec<f64>,
}

impl<G> Pop<G> {
    fn len(&self) -> usize {
        self.genomes.len()
    }

    fn into_individuals(self) -> Vec<Individual<G>> {
        let Pop {
            genomes,
            objs,
            rank,
            crowding,
        } = self;
        genomes
            .into_iter()
            .enumerate()
            .map(|(i, genome)| Individual {
                genome,
                objectives: objs.row(i).to_vec(),
                rank: rank[i],
                crowding: crowding[i],
            })
            .collect()
    }
}

impl Nsga2 {
    /// Creates a runner with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the population is smaller than 2.
    pub fn new(config: Nsga2Config) -> Self {
        assert!(config.population >= 2, "population must be at least 2");
        Nsga2 { config }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &Nsga2Config {
        &self.config
    }

    /// Runs the algorithm to completion and returns the final front and
    /// population.
    ///
    /// The run is **batch-first**: every generation is fully bred (all
    /// tournament, crossover and mutation draws taken from the seeded RNG)
    /// *before* a single objective function is called, then the cohort is
    /// interned (duplicates resolved by genome equality) and the distinct
    /// genomes are handed to [`Problem::evaluate_batch_into`] in one call,
    /// landing in the run's flat [`ObjectiveMatrix`]. Because no RNG
    /// decision ever depends on an objective value of the cohort being
    /// evaluated, the result is bit-identical regardless of how the batch
    /// schedules the work — serially, across a thread pool, or through a
    /// memoizing cache — and regardless of whether interning is on.
    ///
    /// This is the thin synchronous driver loop over [`Nsga2Driver`]:
    /// breed → evaluate-in-place → reconcile → select until done.
    pub fn run<P: Problem>(&self, problem: &P) -> Nsga2Result<P::Genome> {
        Nsga2Driver::new(self.config.clone(), problem.objectives()).run_to_completion(problem)
    }
}

/// Where a [`Nsga2Driver`] stands in its step cycle.
///
/// The cycle is `Breed → Submitted → Reconcile → Select → Breed …`,
/// ending in `Done` after the final cohort's selection. Every transition
/// is an explicit method call, so a caller can interleave arbitrary work
/// — cache lookups, span timing — between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverPhase {
    /// Ready to breed the next cohort ([`Nsga2Driver::breed`]).
    Breed,
    /// A cohort is bred and awaiting objective rows
    /// ([`Nsga2Driver::pending`] → [`Nsga2Driver::provide_rows`]).
    Submitted,
    /// Rows are staged and ready to install ([`Nsga2Driver::reconcile`]).
    Reconcile,
    /// The pool is ready for environmental selection
    /// ([`Nsga2Driver::select`]).
    Select,
    /// The run is complete ([`Nsga2Driver::into_result`]).
    Done,
}

/// One bred-but-unevaluated cohort and its interning products.
struct PendingBatch<G> {
    /// The full bred cohort, duplicates included (appended to the
    /// population at reconcile).
    cohort: Vec<G>,
    /// The deduplicated genomes actually submitted for evaluation
    /// (empty when interning is off — the cohort itself is submitted).
    distinct: Vec<G>,
    /// `slots[i]` = row index in the evaluated batch serving
    /// `cohort[i]` (unused when interning is off).
    slots: Vec<usize>,
}

/// `Nsga2::run` unrolled into an explicit state machine.
///
/// The driver owns the run's complete state — genomes, the flat
/// [`ObjectiveMatrix`], rank/crowding vectors, RNG stream, counters —
/// and exposes the evolution loop as discrete steps (see
/// [`DriverPhase`]). The synchronous [`Nsga2::run`] is a thin loop over
/// these steps; callers that evaluate elsewhere instead hold the driver
/// in `Submitted` while the cohort is in flight.
pub struct Nsga2Driver<G> {
    config: Nsga2Config,
    objectives: usize,
    rng: StdRng,
    pop: Pop<G>,
    scratch: EvolutionScratch<G>,
    pending: PendingBatch<G>,
    /// Rows staged by `provide_rows`, one per submitted genome.
    provided: ObjectiveMatrix,
    phase: DriverPhase,
    /// Cohorts bred so far; breed #1 is the initial random population.
    bred: usize,
    evaluations: usize,
}

impl<G: Clone + PartialEq> Nsga2Driver<G> {
    /// A fresh driver at [`DriverPhase::Breed`], about to breed the
    /// initial population. `objectives` is the problem's objective count
    /// (the width of every objective row).
    ///
    /// # Panics
    ///
    /// Panics if the population is smaller than 2.
    pub fn new(config: Nsga2Config, objectives: usize) -> Nsga2Driver<G> {
        assert!(config.population >= 2, "population must be at least 2");
        Nsga2Driver {
            rng: StdRng::seed_from_u64(config.seed),
            pop: Pop {
                genomes: Vec::with_capacity(2 * config.population),
                objs: ObjectiveMatrix::with_capacity(objectives, 2 * config.population),
                rank: Vec::new(),
                crowding: Vec::new(),
            },
            scratch: EvolutionScratch::new(objectives),
            pending: PendingBatch {
                cohort: Vec::with_capacity(config.population),
                distinct: Vec::new(),
                slots: Vec::new(),
            },
            provided: ObjectiveMatrix::new(objectives),
            phase: DriverPhase::Breed,
            bred: 0,
            evaluations: 0,
            objectives,
            config,
        }
    }

    /// The driver's current phase.
    pub fn phase(&self) -> DriverPhase {
        self.phase
    }

    /// Breeds the next cohort: the initial random population on the
    /// first call, a tournament/crossover/mutation offspring cohort
    /// afterwards. All RNG draws for the cohort happen here, before any
    /// evaluation — the batch-first property the determinism argument
    /// rests on. With interning on, the cohort is deduplicated here too.
    ///
    /// Transitions `Breed → Submitted`.
    ///
    /// # Panics
    ///
    /// Panics when called out of phase.
    pub fn breed<P: Problem<Genome = G>>(&mut self, problem: &P) {
        assert_eq!(self.phase, DriverPhase::Breed, "breed out of phase");
        debug_assert!(self.pending.cohort.is_empty(), "cohort installed");
        {
            let Nsga2Driver {
                config,
                rng,
                pop,
                pending,
                ..
            } = self;
            if pop.genomes.is_empty() {
                for _ in 0..config.population {
                    let mut g = problem.random_genome(rng);
                    problem.repair(&mut g);
                    pending.cohort.push(g);
                }
            } else {
                while pending.cohort.len() < config.population {
                    let a = tournament(pop, rng);
                    let b = tournament(pop, rng);
                    let mut child = if rng.gen_bool(config.crossover_rate) {
                        problem.crossover(&pop.genomes[a], &pop.genomes[b], rng)
                    } else {
                        pop.genomes[a].clone()
                    };
                    if rng.gen_bool(config.mutation_rate) {
                        problem.mutate(&mut child, rng);
                    }
                    problem.repair(&mut child);
                    pending.cohort.push(child);
                }
            }
        }
        if self.config.intern {
            intern_cohort(
                problem,
                &self.pending.cohort,
                &mut self.pending.distinct,
                &mut self.pending.slots,
                &mut self.scratch,
            );
            self.scratch.interned += self.pending.cohort.len() - self.pending.distinct.len();
        }
        self.bred += 1;
        self.phase = DriverPhase::Submitted;
    }

    /// The genomes awaiting evaluation: the deduplicated distinct list
    /// with interning on, the full cohort otherwise. Evaluate these (in
    /// order) and hand the rows back through [`Self::provide_rows`].
    ///
    /// # Panics
    ///
    /// Panics when no cohort is outstanding.
    pub fn pending(&self) -> &[G] {
        assert_eq!(self.phase, DriverPhase::Submitted, "no cohort outstanding");
        if self.config.intern {
            &self.pending.distinct
        } else {
            &self.pending.cohort
        }
    }

    /// Stages the objective rows of [`Self::pending`] (same order).
    ///
    /// Transitions `Submitted → Reconcile`.
    ///
    /// # Panics
    ///
    /// Panics when called out of phase or with a mismatched row count.
    pub fn provide_rows(&mut self, rows: &ObjectiveMatrix) {
        assert_eq!(self.phase, DriverPhase::Submitted, "rows out of phase");
        assert_eq!(rows.len(), self.pending().len(), "row count mismatch");
        assert_eq!(rows.width(), self.objectives, "objective width mismatch");
        self.provided.clear();
        for i in 0..rows.len() {
            self.provided.push_row_from(rows, i);
        }
        self.phase = DriverPhase::Reconcile;
    }

    /// Evaluates the pending cohort in place through the problem's batch
    /// hook — the synchronous path [`Nsga2::run`] takes.
    fn evaluate_pending<P: Problem<Genome = G>>(&mut self, problem: &P) {
        assert_eq!(self.phase, DriverPhase::Submitted, "no cohort outstanding");
        self.provided.clear();
        let list = if self.config.intern {
            &self.pending.distinct
        } else {
            &self.pending.cohort
        };
        problem.evaluate_batch_into(list, &mut self.provided);
        self.phase = DriverPhase::Reconcile;
    }

    /// Installs the staged rows: scatters them into the population's
    /// objective matrix by intern slot (or appends directly with
    /// interning off), appends the cohort's genomes, and counts the
    /// evaluations.
    ///
    /// Transitions `Reconcile → Select`.
    ///
    /// # Panics
    ///
    /// Panics when called out of phase.
    pub fn reconcile(&mut self) {
        assert_eq!(self.phase, DriverPhase::Reconcile, "reconcile out of phase");
        let before = self.pop.objs.len();
        if self.config.intern {
            for &slot in &self.pending.slots {
                self.pop.objs.push_row_from(&self.provided, slot);
            }
        } else {
            for i in 0..self.provided.len() {
                self.pop.objs.push_row_from(&self.provided, i);
            }
        }
        debug_assert_eq!(
            self.pop.objs.len() - before,
            self.pending.cohort.len(),
            "batch arity"
        );
        self.evaluations += self.pending.cohort.len();
        self.pop.genomes.append(&mut self.pending.cohort);
        self.pending.distinct.clear();
        self.pending.slots.clear();
        self.pop.rank.resize(self.pop.len(), 0);
        self.pop.crowding.resize(self.pop.len(), 0.0);
        self.phase = DriverPhase::Select;
    }

    /// Environmental selection: ranks the initial population on the
    /// first cycle, elitist survivor selection over parents ∪ offspring
    /// afterwards.
    ///
    /// Transitions `Select → Breed`, or `Select → Done` after the final
    /// cohort.
    ///
    /// # Panics
    ///
    /// Panics when called out of phase.
    pub fn select(&mut self) {
        assert_eq!(self.phase, DriverPhase::Select, "select out of phase");
        if self.bred == 1 {
            rank_population(&mut self.pop, &mut self.scratch);
        } else {
            select_survivors(&mut self.pop, self.config.population, &mut self.scratch);
        }
        self.phase = if self.bred == self.config.generations + 1 {
            DriverPhase::Done
        } else {
            DriverPhase::Breed
        };
    }

    /// Finalizes a completed run.
    ///
    /// # Panics
    ///
    /// Panics unless the driver is [`DriverPhase::Done`].
    pub fn into_result(self) -> Nsga2Result<G> {
        assert_eq!(self.phase, DriverPhase::Done, "run not complete");
        let front = extract_front(&self.pop);
        Nsga2Result {
            front,
            population: self.pop.into_individuals(),
            evaluations: self.evaluations,
            generations: self.config.generations,
            interned: self.scratch.interned,
            dominance: self.scratch.sort.stats(),
        }
    }

    /// Drives the remaining steps synchronously (evaluating through the
    /// problem's batch hook) and finalizes — the body of [`Nsga2::run`].
    fn run_to_completion<P: Problem<Genome = G>>(mut self, problem: &P) -> Nsga2Result<G> {
        while self.phase != DriverPhase::Done {
            match self.phase {
                DriverPhase::Breed => self.breed(problem),
                DriverPhase::Submitted => self.evaluate_pending(problem),
                DriverPhase::Reconcile => self.reconcile(),
                DriverPhase::Select => self.select(),
                DriverPhase::Done => unreachable!(),
            }
        }
        self.into_result()
    }
}

/// Interns a bred cohort: `slots[i]` = index of `cohort[i]` in
/// `distinct`, resolved by the problem's hash key when it provides one,
/// by linear equality scan otherwise. The hash buckets and intrusive
/// collision chain live in the shared scratch (cleared per use); the
/// distinct list and slot map land in the caller's (cohort-owned)
/// buffers.
fn intern_cohort<P: Problem>(
    problem: &P,
    cohort: &[P::Genome],
    distinct: &mut Vec<P::Genome>,
    slots: &mut Vec<usize>,
    scratch: &mut EvolutionScratch<P::Genome>,
) {
    slots.clear();
    distinct.clear();
    scratch.chain.clear();
    scratch.buckets.clear();
    for g in cohort.iter() {
        let slot = match problem.intern_key(g) {
            Some(key) => match scratch.buckets.entry(key) {
                std::collections::hash_map::Entry::Occupied(head) => {
                    // Walk the bucket's intrusive chain, confirming
                    // with `==` (keys may collide).
                    let mut d = *head.get();
                    loop {
                        if distinct[d] == *g {
                            break d;
                        }
                        match scratch.chain[d] {
                            usize::MAX => {
                                let fresh = distinct.len();
                                distinct.push(g.clone());
                                scratch.chain.push(usize::MAX);
                                scratch.chain[d] = fresh;
                                break fresh;
                            }
                            next => d = next,
                        }
                    }
                }
                std::collections::hash_map::Entry::Vacant(head) => {
                    let fresh = distinct.len();
                    distinct.push(g.clone());
                    scratch.chain.push(usize::MAX);
                    head.insert(fresh);
                    fresh
                }
            },
            None => match distinct.iter().position(|d| d == g) {
                Some(d) => d,
                None => {
                    distinct.push(g.clone());
                    scratch.chain.push(usize::MAX);
                    distinct.len() - 1
                }
            },
        };
        slots.push(slot);
    }
}

/// Binary tournament by (rank, crowding) — the NSGA-II crowded-comparison
/// operator.
fn tournament<G>(pop: &Pop<G>, rng: &mut StdRng) -> usize {
    let i = rng.gen_range(0..pop.len());
    let j = rng.gen_range(0..pop.len());
    if crowded_less(pop, i, j) {
        i
    } else {
        j
    }
}

fn crowded_less<G>(pop: &Pop<G>, a: usize, b: usize) -> bool {
    pop.rank[a] < pop.rank[b] || (pop.rank[a] == pop.rank[b] && pop.crowding[a] > pop.crowding[b])
}

/// Assigns ranks and crowding distances to the whole population with a
/// single non-dominated sort over the flat objective matrix, whose class
/// view serves the crowding of every front.
fn rank_population<G>(pop: &mut Pop<G>, scratch: &mut EvolutionScratch<G>) {
    non_dominated_sort_classified_into(&pop.objs, &mut scratch.sort, &mut scratch.fronts);
    for (rank, front) in scratch.fronts.iter().enumerate() {
        crowding_classified_into(&scratch.sort, front, &mut scratch.dist, &mut scratch.crowd);
        for (&idx, &d) in front.iter().zip(scratch.dist.iter()) {
            pop.rank[idx] = rank;
            pop.crowding[idx] = d;
        }
    }
}

/// Reusable per-generation working memory of the evolution loop: the
/// survivor plan, the sort/crowding buffers, the interning hash tables,
/// and the SoA staging area. One instance serves a whole run. (The
/// per-cohort interning *products* — distinct list and slot map — live
/// in the driver's [`PendingBatch`].)
struct EvolutionScratch<G> {
    sort: SortScratch,
    crowd: CrowdingScratch,
    fronts: Vec<Vec<usize>>,
    dist: Vec<f64>,
    by_crowding: Vec<(usize, f64)>,
    kept: Vec<usize>,
    /// `(pool index, rank, crowding)` of each survivor, in survivor order.
    plan: Vec<(usize, usize, f64)>,
    taken: Vec<Option<G>>,
    next_genomes: Vec<G>,
    next_objs: ObjectiveMatrix,
    /// Interning hash buckets: key → first distinct index, collisions
    /// threaded through the intrusive `chain` so clearing drops no
    /// allocations.
    buckets: HashMap<u64, usize, BuildHasherDefault<InternKeyHasher>>,
    /// `chain[d]`: next distinct index sharing `d`'s intern key
    /// (`usize::MAX` terminates).
    chain: Vec<usize>,
    /// Duplicates resolved by interning across the whole run.
    interned: usize,
}

impl<G> EvolutionScratch<G> {
    fn new(objectives: usize) -> Self {
        EvolutionScratch {
            sort: SortScratch::default(),
            crowd: CrowdingScratch::default(),
            fronts: Vec::new(),
            dist: Vec::new(),
            by_crowding: Vec::new(),
            kept: Vec::new(),
            plan: Vec::new(),
            taken: Vec::new(),
            next_genomes: Vec::new(),
            next_objs: ObjectiveMatrix::new(objectives),
            buckets: HashMap::default(),
            chain: Vec::new(),
            interned: 0,
        }
    }
}

/// Hasher of the intern buckets. Their keys are already hashes
/// ([`Problem::intern_key`]), so one multiply, rotated to bring the
/// well-mixed high bits down to the bucket index, spreads them; SipHash
/// would hash them a second time. Only lookups use it, so no result
/// depends on it.
#[derive(Default)]
struct InternKeyHasher(u64);

impl Hasher for InternKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// NSGA-II environmental selection: fill the next generation front by front,
/// truncating the last partially-fitting front by crowding distance.
///
/// Ranks the parents∪offspring pool exactly **once**. Survivor ranks carry
/// over from the pool's sort (removing whole trailing fronts cannot change
/// the rank of a kept member), and only the crowding distances of the one
/// truncated front are recomputed within the kept subset — semantically
/// identical to re-ranking the survivor set, at a third of the sorting
/// work. The pool's class view, built once by the sort, serves both
/// crowding calls: its per-objective class orders replace a sort of the
/// front and of the kept subset per objective.
///
/// Operates **in place**: survivor genomes are moved out of the pool and
/// objective rows are `memcpy`d between the two flat matrices; every
/// buffer comes from the reusable [`EvolutionScratch`].
fn select_survivors<G>(pop: &mut Pop<G>, target: usize, scratch: &mut EvolutionScratch<G>) {
    scratch.plan.clear();
    non_dominated_sort_classified_into(&pop.objs, &mut scratch.sort, &mut scratch.fronts);
    for (rank, front) in scratch.fronts.iter().enumerate() {
        if scratch.plan.len() + front.len() <= target {
            // The whole front survives: its crowding distances
            // (computed within the full front) are final.
            crowding_classified_into(&scratch.sort, front, &mut scratch.dist, &mut scratch.crowd);
            for (&idx, &d) in front.iter().zip(scratch.dist.iter()) {
                scratch.plan.push((idx, rank, d));
            }
        } else {
            // Truncate by crowding within the full front (the NSGA-II
            // crowded-comparison tiebreak)…
            crowding_classified_into(&scratch.sort, front, &mut scratch.dist, &mut scratch.crowd);
            scratch.by_crowding.clear();
            scratch
                .by_crowding
                .extend(front.iter().copied().zip(scratch.dist.iter().copied()));
            scratch.by_crowding.sort_by(|a, b| nan_last_cmp(b.1, a.1));
            scratch.by_crowding.truncate(target - scratch.plan.len());
            // …then recompute crowding among the kept subset, matching
            // what a full re-rank of the survivor set would produce.
            scratch.kept.clear();
            scratch
                .kept
                .extend(scratch.by_crowding.iter().map(|&(idx, _)| idx));
            crowding_classified_into(
                &scratch.sort,
                &scratch.kept,
                &mut scratch.dist,
                &mut scratch.crowd,
            );
            for (&idx, &d) in scratch.kept.iter().zip(scratch.dist.iter()) {
                scratch.plan.push((idx, rank, d));
            }
            break;
        }
        if scratch.plan.len() == target {
            break;
        }
    }
    // Execute the plan: move the selected genomes out of the pool in
    // survivor order and copy their objective rows into the staging
    // matrix; the rest drop with the staging buffer's clear.
    scratch.taken.clear();
    scratch.taken.extend(pop.genomes.drain(..).map(Some));
    debug_assert!(scratch.next_genomes.is_empty());
    scratch.next_objs.clear();
    pop.rank.clear();
    pop.crowding.clear();
    for &(idx, rank, crowding) in &scratch.plan {
        let genome = scratch.taken[idx].take().expect("survivor selected once");
        scratch.next_genomes.push(genome);
        scratch.next_objs.push_row_from(&pop.objs, idx);
        pop.rank.push(rank);
        pop.crowding.push(crowding);
    }
    std::mem::swap(&mut pop.genomes, &mut scratch.next_genomes);
    std::mem::swap(&mut pop.objs, &mut scratch.next_objs);
    scratch.next_genomes.clear();
    scratch.taken.clear();
}

/// The rank-0 members, deduplicated by objective vector and sorted by the
/// first objective for stable presentation.
fn extract_front<G: Clone>(pop: &Pop<G>) -> Vec<Individual<G>> {
    let mut front: Vec<Individual<G>> = (0..pop.len())
        .filter(|&i| pop.rank[i] == 0)
        .map(|i| Individual {
            genome: pop.genomes[i].clone(),
            objectives: pop.objs.row(i).to_vec(),
            rank: 0,
            crowding: pop.crowding[i],
        })
        .collect();
    front.sort_by(|a, b| nan_last_cmp_rows(&a.objectives, &b.objectives));
    front.dedup_by(|a, b| a.objectives == b.objectives);
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::{dominates, hypervolume};
    use rand::RngCore;

    /// Schaffer's SCH problem: minimize [x², (x−2)²] over a discretized
    /// domain. The Pareto set is x ∈ [0, 2].
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

    fn run_sch(seed: u64) -> Nsga2Result<f64> {
        Nsga2::new(Nsga2Config {
            population: 60,
            generations: 60,
            seed,
            ..Default::default()
        })
        .run(&Sch)
    }

    #[test]
    fn converges_to_pareto_set() {
        let r = run_sch(1);
        assert!(!r.front.is_empty());
        for ind in &r.front {
            assert!(
                ind.genome > -0.5 && ind.genome < 2.5,
                "x={} not near Pareto set [0,2]",
                ind.genome
            );
        }
    }

    #[test]
    fn front_is_mutually_non_dominated() {
        let r = run_sch(2);
        for a in &r.front {
            for b in &r.front {
                assert!(!dominates(&a.objectives, &b.objectives));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_sch(42);
        let b = run_sch(42);
        let objs = |r: &Nsga2Result<f64>| -> Vec<Vec<f64>> {
            r.front.iter().map(|i| i.objectives.clone()).collect()
        };
        assert_eq!(objs(&a), objs(&b));
    }

    #[test]
    fn different_seeds_explore_differently() {
        let a = run_sch(1);
        let b = run_sch(2);
        // Fronts converge to the same region but the exact genomes differ.
        let ga: Vec<f64> = a.front.iter().map(|i| i.genome).collect();
        let gb: Vec<f64> = b.front.iter().map(|i| i.genome).collect();
        assert_ne!(ga, gb);
    }

    #[test]
    fn evaluation_count_is_accounted() {
        let r = run_sch(3);
        assert_eq!(r.evaluations, 60 + 60 * 60);
        assert_eq!(r.generations, 60);
    }

    #[test]
    fn front_spreads_across_tradeoff() {
        // The front should cover both ends of the trade-off, not collapse
        // to a single compromise point.
        let r = run_sch(4);
        let f1_min = r
            .front
            .iter()
            .map(|i| i.objectives[0])
            .fold(f64::INFINITY, f64::min);
        let f1_max = r
            .front
            .iter()
            .map(|i| i.objectives[0])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            f1_max - f1_min > 1.0,
            "front collapsed: [{f1_min}, {f1_max}]"
        );
    }

    #[test]
    fn more_generations_do_not_hurt_hypervolume() {
        let short = Nsga2::new(Nsga2Config {
            population: 40,
            generations: 5,
            seed: 7,
            ..Default::default()
        })
        .run(&Sch);
        let long = Nsga2::new(Nsga2Config {
            population: 40,
            generations: 80,
            seed: 7,
            ..Default::default()
        })
        .run(&Sch);
        let hv = |r: &Nsga2Result<f64>| {
            let pts: Vec<Vec<f64>> = r.front.iter().map(|i| i.objectives.clone()).collect();
            hypervolume(&pts, &[10.0, 10.0])
        };
        assert!(hv(&long) >= hv(&short) * 0.99);
    }

    #[test]
    fn repair_is_applied() {
        /// A problem whose feasible set is even integers; repair rounds down.
        struct Evens;
        impl Problem for Evens {
            type Genome = i64;
            fn objectives(&self) -> usize {
                2
            }
            fn random_genome(&self, rng: &mut dyn RngCore) -> i64 {
                (rng.next_u32() % 100) as i64
            }
            fn evaluate(&self, x: &i64) -> Vec<f64> {
                vec![*x as f64, (100 - x) as f64]
            }
            fn crossover(&self, a: &i64, b: &i64, _: &mut dyn RngCore) -> i64 {
                (a + b) / 2
            }
            fn mutate(&self, x: &mut i64, rng: &mut dyn RngCore) {
                *x += (rng.next_u32() % 5) as i64;
            }
            fn repair(&self, g: &mut i64) {
                *g -= *g % 2;
            }
        }
        let r = Nsga2::new(Nsga2Config {
            population: 20,
            generations: 10,
            seed: 9,
            ..Default::default()
        })
        .run(&Evens);
        for ind in &r.population {
            assert_eq!(ind.genome % 2, 0, "repair must keep genomes feasible");
        }
    }

    /// A discrete problem whose tiny genome space guarantees duplicate
    /// offspring, counting how many evaluations actually reach it — the
    /// interning layer's test double. Provides a hash key so the hashed
    /// interning path is exercised.
    struct Discrete(std::cell::Cell<usize>);
    impl Problem for Discrete {
        type Genome = i64;
        fn objectives(&self) -> usize {
            2
        }
        fn random_genome(&self, rng: &mut dyn RngCore) -> i64 {
            (rng.next_u32() % 8) as i64
        }
        fn evaluate(&self, x: &i64) -> Vec<f64> {
            self.0.set(self.0.get() + 1);
            vec![*x as f64, (7 - x) as f64]
        }
        fn intern_key(&self, g: &i64) -> Option<u64> {
            Some(*g as u64)
        }
        fn crossover(&self, a: &i64, b: &i64, _: &mut dyn RngCore) -> i64 {
            (a + b) / 2
        }
        fn mutate(&self, x: &mut i64, rng: &mut dyn RngCore) {
            *x = (*x + (rng.next_u32() % 3) as i64 - 1).clamp(0, 7);
        }
    }

    #[test]
    fn interning_dedups_cohorts_without_changing_results() {
        let cfg = Nsga2Config {
            population: 32,
            generations: 12,
            seed: 5,
            ..Default::default()
        };
        let counted = Discrete(std::cell::Cell::new(0));
        let with = Nsga2::new(cfg.clone()).run(&counted);
        let reached_interned = counted.0.get();
        let counted_off = Discrete(std::cell::Cell::new(0));
        let without = Nsga2::new(Nsga2Config {
            intern: false,
            ..cfg
        })
        .run(&counted_off);
        let reached_plain = counted_off.0.get();
        // Identical results, identical requested-evaluation accounting.
        let objs = |r: &Nsga2Result<i64>| -> Vec<Vec<f64>> {
            r.front.iter().map(|i| i.objectives.clone()).collect()
        };
        assert_eq!(objs(&with), objs(&without));
        assert_eq!(with.evaluations, without.evaluations);
        // The 8-point genome space cannot fill 32-genome cohorts with
        // distinct genomes: interning must have served the difference.
        assert_eq!(with.evaluations, reached_interned + with.interned);
        assert!(
            with.interned > 0 && reached_interned < reached_plain,
            "interning must shrink the problem's evaluation bill \
             ({reached_interned} vs {reached_plain})"
        );
        assert_eq!(without.interned, 0);
        assert_eq!(reached_plain, without.evaluations);
    }

    #[test]
    fn dominance_counters_are_reported() {
        let r = run_sch(6);
        assert!(r.dominance.comparisons > 0, "sorts must be counted");
        // SCH is bi-objective: every per-generation sort runs the sweep
        // tier, so the whole run's comparison bill stays far below one
        // generation's worth of naive pairwise work (pool of 120 →
        // 120·119/2 = 7140 per sort, 61 sorts).
        let naive_per_sort = (120 * 119 / 2) as u64;
        assert!(
            r.dominance.comparisons < 61 * naive_per_sort / 4,
            "comparisons {} not asymptotically below the naive bill",
            r.dominance.comparisons
        );
    }

    /// A problem whose every third genome evaluates to a NaN objective.
    struct NanRows;
    impl Problem for NanRows {
        type Genome = i64;
        fn objectives(&self) -> usize {
            2
        }
        fn random_genome(&self, rng: &mut dyn RngCore) -> i64 {
            (rng.next_u32() % 1000) as i64
        }
        fn evaluate(&self, x: &i64) -> Vec<f64> {
            let y = if x % 3 == 0 {
                f64::NAN
            } else {
                (1000 - x) as f64
            };
            vec![*x as f64, y]
        }
        fn crossover(&self, a: &i64, b: &i64, _: &mut dyn RngCore) -> i64 {
            (a + b) / 2
        }
        fn mutate(&self, x: &mut i64, rng: &mut dyn RngCore) {
            *x = (*x + (rng.next_u32() % 21) as i64 - 10).clamp(0, 999);
        }
    }

    #[test]
    fn nan_rows_run_to_completion() {
        let cfg = Nsga2Config {
            population: 48,
            generations: 8,
            seed: 21,
            ..Default::default()
        };
        let a = Nsga2::new(cfg.clone()).run(&NanRows);
        let b = Nsga2::new(cfg).run(&NanRows);
        assert_eq!(a.population.len(), 48);
        assert!(!a.front.is_empty());
        let bits = |r: &Nsga2Result<i64>| -> Vec<Vec<u64>> {
            r.front
                .iter()
                .map(|i| i.objectives.iter().map(|o| o.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        // The front is sorted with NaN after every number.
        for w in a.front.windows(2) {
            assert_ne!(
                nan_last_cmp_rows(&w[0].objectives, &w[1].objectives),
                std::cmp::Ordering::Greater
            );
        }
    }

    #[test]
    #[should_panic(expected = "population must be at least 2")]
    fn tiny_population_rejected() {
        let _ = Nsga2::new(Nsga2Config {
            population: 1,
            ..Default::default()
        });
    }

    // -----------------------------------------------------------------
    // Nsga2Driver state-machine tests.
    // -----------------------------------------------------------------

    /// Bitwise equality of two results: fronts, population, accounting.
    fn assert_results_identical(a: &Nsga2Result<f64>, b: &Nsga2Result<f64>) {
        let rows = |inds: &[Individual<f64>]| -> Vec<(u64, Vec<u64>, usize)> {
            inds.iter()
                .map(|i| {
                    (
                        i.genome.to_bits(),
                        i.objectives.iter().map(|o| o.to_bits()).collect(),
                        i.rank,
                    )
                })
                .collect()
        };
        assert_eq!(rows(&a.front), rows(&b.front), "fronts differ");
        assert_eq!(
            rows(&a.population),
            rows(&b.population),
            "populations differ"
        );
        assert_eq!(a.evaluations, b.evaluations, "evaluations differ");
        assert_eq!(a.interned, b.interned, "interned differ");
        assert_eq!(a.generations, b.generations);
    }

    /// Steps a driver with explicit `provide_rows` calls — the external
    /// (async-seam) protocol — and returns the result.
    fn step_driver(cfg: Nsga2Config) -> Nsga2Result<f64> {
        let mut driver: Nsga2Driver<f64> = Nsga2Driver::new(cfg, Sch.objectives());
        let mut rows = ObjectiveMatrix::new(2);
        loop {
            match driver.phase() {
                DriverPhase::Breed => driver.breed(&Sch),
                DriverPhase::Submitted => {
                    rows.clear();
                    Sch.evaluate_batch_into(driver.pending(), &mut rows);
                    driver.provide_rows(&rows);
                }
                DriverPhase::Reconcile => driver.reconcile(),
                DriverPhase::Select => driver.select(),
                DriverPhase::Done => break,
            }
        }
        driver.into_result()
    }

    #[test]
    fn driver_steps_match_run_bit_for_bit() {
        for seed in [1u64, 7, 42, 20250808] {
            for intern in [true, false] {
                let cfg = Nsga2Config {
                    population: 24,
                    generations: 15,
                    seed,
                    intern,
                    ..Default::default()
                };
                let reference = Nsga2::new(cfg.clone()).run(&Sch);
                let stepped = step_driver(cfg);
                assert_results_identical(&reference, &stepped);
                assert_eq!(reference.dominance, stepped.dominance, "dominance differs");
            }
        }
    }
}
