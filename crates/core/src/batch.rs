//! The batch job runner: many heterogeneous exploration requests through
//! **one** persistent pool and **one** shared, persistable eval cache —
//! the first scenario where the engine behaves like a service.
//!
//! A *job file* (JSON, parsed with the dependency-free `sega_wire`
//! parser) lists `UserSpec`s plus optional per-job NSGA-II budget
//! overrides. [`run_batch`] executes them in order against a shared
//! [`SharedEvalCache`], so later jobs reuse everything earlier jobs (or a
//! `--cache-file` warm start) already estimated, and returns a
//! [`BatchReport`] that serializes to a machine-readable results document
//! via the wire codec — including the exact objective bit patterns, so
//! CI can assert bit-identical fronts across runs, thread counts, shard
//! counts and backend choices.
//!
//! The cache round-trips through [`Snapshot`] files: load before, save
//! after. Rerunning an identical job file against the saved snapshot
//! reports **0 distinct evaluations** — every objective vector is served
//! from the warm cache, and the fronts are bit-identical to the cold run.

use std::collections::BTreeMap;
use std::sync::Arc;

use sega_cells::Technology;
use sega_estimator::{EstimatorStats, OperatingConditions, Precision};
use sega_moga::Nsga2Config;
use sega_parallel::{resolve_threads, Pool};
use sega_wire::{Json, Snapshot};

use crate::cache::SharedEvalCache;
use crate::checkpoint::{
    jobs_fingerprint, load_journal, reconstruct_outcome, record_of_outcome, CheckpointConfig,
    Header, Journal,
};
use crate::explore::{explore_pareto_with, ExplorationResult, PipelineOptions};
use crate::spec::UserSpec;

/// One batch entry: a specification and the exploration budget to spend
/// on it.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// What to explore.
    pub spec: UserSpec,
    /// The NSGA-II budget and seed for this job.
    pub config: Nsga2Config,
}

/// One finished job: the budget it ran with and what came out.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The configuration the job ran with.
    pub config: Nsga2Config,
    /// The exploration result (front + accounting).
    pub result: ExplorationResult,
}

/// The outcome of a whole batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job outcomes, in job-file order.
    pub outcomes: Vec<BatchOutcome>,
    /// Total genome evaluations the GA requested across all jobs.
    pub evaluations: usize,
    /// Total evaluations that reached the estimator backend. `0` on a
    /// fully warm-started rerun of an identical job file.
    pub distinct_evaluations: usize,
    /// Total evaluations served from memory.
    pub cache_hits: usize,
    /// Total dominance comparisons/probes the selection kernel performed
    /// across all jobs — the batch-level perf receipt of the tiered sort.
    pub dominance_comparisons: u64,
    /// Total 64-lane mask words the blocked dominance tier produced
    /// across all jobs (the branchless complement of
    /// [`dominance_comparisons`](Self::dominance_comparisons)).
    pub dominance_word_ops: u64,
    /// Estimator-kernel totals across all jobs: designs estimated, and
    /// the vector/scalar split of their finish lanes.
    pub estimator: EstimatorStats,
    /// Entries the shared cache held *before* the first job (the warm
    /// start, e.g. from a loaded `--cache-file`).
    pub preloaded_entries: usize,
    /// Entries the shared cache holds after the last job.
    pub cache_entries: usize,
    /// Name of the estimator backend the batch ran on.
    pub backend: &'static str,
    /// Cache-file activity (entries loaded, bytes read and written)
    /// when the run used `--cache-file`; serialized as the `"cache"`
    /// object's nested `"store"` only when present, so storeless reports
    /// are unchanged.
    pub store: Option<crate::store::StoreStats>,
    /// `false` when [`BatchControl::stop_after_jobs`] ended the run
    /// before the job list did — the report covers only a prefix.
    pub complete: bool,
    /// Jobs reconstructed from a resume journal instead of executed.
    pub resumed_jobs: usize,
}

/// Execution controls of [`run_batch_with`]: checkpointing and early
/// stop. The default is plain [`run_batch`] behaviour.
#[derive(Debug, Clone, Default)]
pub struct BatchControl {
    /// Journal completed jobs to (or resume them from) a sidecar file.
    pub checkpoint: Option<CheckpointConfig>,
    /// Stop after *executing* this many jobs (resumed jobs don't count)
    /// — the deterministic stand-in for a killed batch in resume tests
    /// and CI.
    pub stop_after_jobs: Option<usize>,
}

/// The smallest population NSGA-II can breed from.
pub const MIN_POPULATION: usize = 2;

/// The largest population a job may ask for. The GA allocates per
/// member, so an unbounded request from a job file or a daemon frame
/// could ask for memory no host has; no workload here uses more than 100.
pub const MAX_POPULATION: usize = 10_000;

/// The largest generation count a job may ask for (no workload here runs
/// more than 120).
pub const MAX_GENERATIONS: usize = 10_000;

/// Why a job list was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The document is not a non-empty job list.
    File(String),
    /// Job `index` has a missing or invalid field.
    Invalid {
        /// Position of the job in the list.
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// Job `index` asks for fewer than [`MIN_POPULATION`] members.
    Population {
        /// Position of the job in the list.
        index: usize,
        /// The requested population.
        population: usize,
    },
    /// Job `index` asks for more than [`MAX_POPULATION`] members or
    /// [`MAX_GENERATIONS`] generations.
    TooLarge {
        /// Position of the job in the list.
        index: usize,
        /// The budget field: `population` or `generations`.
        field: &'static str,
        /// The requested value.
        value: usize,
        /// The field's upper bound.
        max: usize,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::File(message) => f.write_str(message),
            JobError::Invalid { index, reason } => write!(f, "job {index}: {reason}"),
            JobError::Population { index, population } => write!(
                f,
                "job {index}: population {population} is below the minimum of {MIN_POPULATION}"
            ),
            JobError::TooLarge {
                index,
                field,
                value,
                max,
            } => write!(
                f,
                "job {index}: {field} {value} exceeds the maximum of {max}"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// Rejects a GA budget outside what NSGA-II can run, naming the job.
///
/// # Errors
///
/// [`JobError::Population`] when `population < MIN_POPULATION`, and
/// [`JobError::TooLarge`] when the population exceeds [`MAX_POPULATION`]
/// or the generation count exceeds [`MAX_GENERATIONS`].
pub fn check_budget(index: usize, population: usize, generations: usize) -> Result<(), JobError> {
    if population < MIN_POPULATION {
        return Err(JobError::Population { index, population });
    }
    for (field, value, max) in [
        ("population", population, MAX_POPULATION),
        ("generations", generations, MAX_GENERATIONS),
    ] {
        if value > max {
            return Err(JobError::TooLarge {
                index,
                field,
                value,
                max,
            });
        }
    }
    Ok(())
}

/// Parses a batch job file: either `{"jobs": [...]}` or a bare array,
/// each job `{"wstore": N, "precision": "int8"}` with optional
/// `"population"`, `"generations"` and `"seed"` overriding `defaults`.
///
/// # Errors
///
/// A [`JobError`] naming the offending job index and field, including a
/// budget outside [`check_budget`]'s bounds (from the job or from
/// `defaults`).
pub fn parse_jobs(text: &str, defaults: &Nsga2Config) -> Result<Vec<BatchJob>, JobError> {
    let doc = Json::parse(text).map_err(|e| JobError::File(format!("job file: {e}")))?;
    let raw_jobs = doc
        .get("jobs")
        .or(Some(&doc))
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            JobError::File("job file must be a JSON array or an object with a `jobs` array".into())
        })?;
    if raw_jobs.is_empty() {
        return Err(JobError::File("job file lists no jobs".to_owned()));
    }
    raw_jobs
        .iter()
        .enumerate()
        .map(|(index, raw)| {
            let invalid = |reason: String| JobError::Invalid { index, reason };
            let field = |name: &str| invalid(format!("missing or invalid `{name}`"));
            let wstore = raw
                .get("wstore")
                .and_then(Json::as_u64)
                .ok_or_else(|| field("wstore"))?;
            let precision_name = raw
                .get("precision")
                .and_then(Json::as_str)
                .ok_or_else(|| field("precision"))?;
            let precision = Precision::from_name(precision_name)
                .ok_or_else(|| invalid(format!("unknown precision `{precision_name}`")))?;
            let spec = UserSpec::new(wstore, precision).map_err(|e| invalid(e.to_string()))?;
            let mut config = defaults.clone();
            let override_usize = |name: &str| -> Result<Option<usize>, JobError> {
                match raw.get(name) {
                    None => Ok(None),
                    Some(v) => v
                        .as_u64()
                        .map(|n| Some(n as usize))
                        .ok_or_else(|| field(name)),
                }
            };
            if let Some(p) = override_usize("population")? {
                config.population = p;
            }
            if let Some(g) = override_usize("generations")? {
                config.generations = g;
            }
            check_budget(index, config.population, config.generations)?;
            if let Some(seed) = raw.get("seed") {
                config.seed = seed.as_u64().ok_or_else(|| field("seed"))?;
            }
            Ok(BatchJob { spec, config })
        })
        .collect()
}

/// Runs every job over one pool, one shared cache and one backend.
///
/// Jobs execute in file order (each job's *inner* evaluation still fans
/// out on the pool), so the report — and the cache snapshot left behind
/// — is deterministic for a given job file, whatever the thread count.
/// If the pipeline options carry no shared cache, a fresh one is created
/// for the batch; pass one explicitly to warm-start (see
/// [`SharedEvalCache::load`]).
pub fn run_batch(
    jobs: &[BatchJob],
    tech: &Technology,
    conditions: &OperatingConditions,
    pipeline: PipelineOptions,
) -> BatchReport {
    run_batch_with(jobs, tech, conditions, pipeline, &BatchControl::default())
        .expect("an uncheckpointed batch run cannot fail")
}

/// [`run_batch`] plus execution controls: journal completed jobs to a
/// checkpoint file, resume a previously interrupted run, or stop early
/// after a fixed number of executed jobs.
///
/// On resume, the journal's cache deltas warm-start the shared cache and
/// the journaled jobs are reconstructed (not re-run) by re-materializing
/// their fronts through the deterministic macro model — so the finished
/// report is **byte-identical** to an uninterrupted run's.
///
/// # Errors
///
/// Checkpoint I/O failures, a journal whose fingerprint names a
/// different job list, or a backend mismatch between the journal and
/// this run. With no checkpoint configured this never fails.
pub fn run_batch_with(
    jobs: &[BatchJob],
    tech: &Technology,
    conditions: &OperatingConditions,
    pipeline: PipelineOptions,
    control: &BatchControl,
) -> Result<BatchReport, String> {
    let cache = pipeline
        .shared_cache
        .clone()
        .unwrap_or_else(|| Arc::new(SharedEvalCache::new()));
    let pool = pipeline
        .pool
        .clone()
        .unwrap_or_else(|| Pool::for_threads(resolve_threads(pipeline.threads)));
    let backend = pipeline
        .backend
        .as_ref()
        .map(|b| b.name())
        .unwrap_or("macro-model");
    let inner = PipelineOptions {
        pool: Some(pool),
        shared_cache: Some(Arc::clone(&cache)),
        ..pipeline
    };
    let mut preloaded_entries = cache.len();

    // Checkpoint setup: either replay an existing journal or start one.
    let mut finished: BTreeMap<u64, crate::checkpoint::JobRecord> = BTreeMap::new();
    let mut journal = match &control.checkpoint {
        Some(cp) if cp.resume => {
            let bytes = std::fs::read(&cp.path)
                .map_err(|e| format!("cannot read checkpoint `{}`: {e}", cp.path.display()))?;
            let loaded = load_journal(&bytes)?;
            if loaded.header.fingerprint != jobs_fingerprint(jobs) {
                return Err(format!(
                    "checkpoint `{}` was written for a different job list",
                    cp.path.display()
                ));
            }
            if loaded.header.backend != backend {
                return Err(format!(
                    "checkpoint `{}` was written by the `{}` backend, this run uses `{backend}`",
                    cp.path.display(),
                    loaded.header.backend
                ));
            }
            // The original run's warm-start size, so totals reproduce.
            preloaded_entries = loaded.header.preloaded_entries as usize;
            for record in loaded.records {
                cache
                    .load(&record.delta)
                    .map_err(|e| format!("checkpoint delta: {e}"))?;
                finished.insert(record.index, record);
            }
            Some(Journal::reopen(&cp.path, loaded.good_len)?)
        }
        Some(cp) => Some(Journal::create(
            &cp.path,
            &Header {
                fingerprint: jobs_fingerprint(jobs),
                preloaded_entries: preloaded_entries as u64,
                backend: backend.to_owned(),
            },
        )?),
        None => None,
    };

    // Snapshot baseline for per-job deltas (checkpoint mode only — the
    // snapshot walk is not free and buys nothing without a journal).
    let mut last_snapshot = journal.as_ref().map(|_| cache.snapshot());
    let resumed_jobs = finished.len();
    let mut outcomes: Vec<BatchOutcome> = Vec::with_capacity(jobs.len());
    let mut executed = 0usize;
    let mut complete = true;
    for (index, job) in jobs.iter().enumerate() {
        if let Some(record) = finished.get(&(index as u64)) {
            outcomes.push(reconstruct_outcome(record, job, tech, conditions)?);
            continue;
        }
        if control.stop_after_jobs == Some(executed) {
            complete = false;
            break;
        }
        let result = explore_pareto_with(&job.spec, tech, conditions, &job.config, inner.clone());
        let outcome = BatchOutcome {
            config: job.config.clone(),
            result,
        };
        if let Some(journal) = &mut journal {
            let now = cache.snapshot();
            let delta = now.diff(last_snapshot.as_ref().expect("baseline set with journal"));
            journal.append(&record_of_outcome(index, &outcome, delta))?;
            last_snapshot = Some(now);
        }
        outcomes.push(outcome);
        executed += 1;
    }
    Ok(BatchReport {
        evaluations: outcomes.iter().map(|o| o.result.evaluations).sum(),
        distinct_evaluations: outcomes.iter().map(|o| o.result.distinct_evaluations).sum(),
        cache_hits: outcomes.iter().map(|o| o.result.cache_hits).sum(),
        dominance_comparisons: outcomes
            .iter()
            .map(|o| o.result.dominance.comparisons)
            .sum(),
        dominance_word_ops: outcomes.iter().map(|o| o.result.dominance.word_ops).sum(),
        estimator: outcomes
            .iter()
            .fold(EstimatorStats::default(), |mut acc, o| {
                acc.merge(o.result.estimator);
                acc
            }),
        preloaded_entries,
        cache_entries: cache.len(),
        backend,
        store: None,
        complete,
        resumed_jobs,
        outcomes,
    })
}

impl BatchReport {
    /// The machine-readable results document. Objective vectors appear
    /// twice: as display-friendly decimal fields and as exact bit
    /// patterns (`"bits"`, 16-digit hex), so consumers can both read and
    /// byte-compare fronts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("report", Json::from("sega-dcim-batch")),
            ("version", Json::from(sega_wire::FORMAT_VERSION)),
            ("backend", Json::from(self.backend)),
            (
                "totals",
                Json::obj([
                    ("jobs", Json::from(self.outcomes.len())),
                    ("evaluations", Json::from(self.evaluations)),
                    (
                        "distinct_evaluations",
                        Json::from(self.distinct_evaluations),
                    ),
                    ("cache_hits", Json::from(self.cache_hits)),
                    (
                        "dominance_comparisons",
                        Json::from(self.dominance_comparisons),
                    ),
                    ("dominance_word_ops", Json::from(self.dominance_word_ops)),
                    ("estimator_designs", Json::from(self.estimator.designs)),
                    ("estimator_batched", Json::from(self.estimator.batched)),
                    (
                        "estimator_scalar_fallbacks",
                        Json::from(self.estimator.scalar_fallbacks),
                    ),
                ]),
            ),
            ("cache", self.cache_json()),
            (
                "jobs",
                Json::Arr(self.outcomes.iter().map(outcome_json).collect()),
            ),
        ])
    }

    /// The `"cache"` stats object: warm-start and final entry counts,
    /// the hit rate, and — only when a cache file was used — its nested
    /// ledger.
    fn cache_json(&self) -> Json {
        let hit_rate = if self.evaluations > 0 {
            self.cache_hits as f64 / self.evaluations as f64
        } else {
            0.0
        };
        let mut fields = vec![
            ("preloaded_entries", Json::from(self.preloaded_entries)),
            ("entries", Json::from(self.cache_entries)),
            ("hit_rate", Json::from(hit_rate)),
        ];
        if let Some(store) = &self.store {
            fields.push((
                "store",
                Json::obj([
                    ("entries_loaded", Json::from(store.entries_loaded)),
                    ("bytes_read", Json::from(store.bytes_read)),
                    ("bytes_written", Json::from(store.bytes_written)),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

fn outcome_json(outcome: &BatchOutcome) -> Json {
    let result = &outcome.result;
    Json::obj([
        ("wstore", Json::from(result.spec.wstore)),
        ("precision", Json::from(result.spec.precision.name())),
        ("population", Json::from(outcome.config.population)),
        ("generations", Json::from(outcome.config.generations)),
        ("seed", Json::from(outcome.config.seed)),
        ("evaluations", Json::from(result.evaluations)),
        (
            "distinct_evaluations",
            Json::from(result.distinct_evaluations),
        ),
        ("cache_hits", Json::from(result.cache_hits)),
        (
            "front",
            Json::Arr(result.solutions.iter().map(solution_json).collect()),
        ),
    ])
}

/// The wire document of one front member — the **single** schema shared
/// by the batch report and the CLI's `explore --json`: the design point,
/// its readable metrics, and the exact objective bit patterns (`"bits"`,
/// 16-digit hex) consumers byte-compare.
pub fn solution_json(s: &crate::explore::ParetoSolution) -> Json {
    let (n, h, l, k) = s.design.geometry();
    Json::obj([
        ("design", Json::from(s.design.to_string())),
        (
            "geometry",
            Json::obj([
                ("n", Json::from(n)),
                ("h", Json::from(h)),
                ("l", Json::from(l)),
                ("k", Json::from(k)),
            ]),
        ),
        ("area_mm2", Json::from(s.estimate.area_mm2)),
        ("delay_ns", Json::from(s.estimate.delay_ns)),
        (
            "energy_per_pass_nj",
            Json::from(s.estimate.energy_per_pass_nj),
        ),
        ("tops", Json::from(s.estimate.tops)),
        ("tops_per_w", Json::from(s.estimate.tops_per_w())),
        (
            "bits",
            Json::Arr(
                s.objectives()
                    .iter()
                    .map(|o| Json::Str(format!("{:016x}", o.to_bits())))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a cache file's bytes (binary or JSON, sniffed by magic) into
/// a [`Snapshot`].
///
/// # Errors
///
/// A human-readable message (for CLI surfaces).
pub fn decode_cache_file(bytes: &[u8]) -> Result<Snapshot, String> {
    Snapshot::decode(bytes).map_err(|e| format!("cache file: {e}"))
}

/// Encodes a snapshot for a cache file path: JSON text when the path
/// ends in `.json`, the compact binary form otherwise.
pub fn encode_cache_file(snapshot: &Snapshot, path: &std::path::Path) -> Vec<u8> {
    if path.extension().is_some_and(|e| e == "json") {
        let mut text = snapshot.to_json().to_string();
        text.push('\n');
        text.into_bytes()
    } else {
        snapshot.encode_binary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Nsga2Config {
        Nsga2Config {
            population: 12,
            generations: 6,
            seed: 9,
            ..Default::default()
        }
    }

    #[test]
    fn job_files_parse_with_defaults_and_overrides() {
        let jobs = parse_jobs(
            r#"{"jobs":[
                {"wstore": 8192, "precision": "int8"},
                {"wstore": 16384, "precision": "BF16", "population": 30, "seed": 5}
            ]}"#,
            &quick(),
        )
        .unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].spec.wstore, 8192);
        assert_eq!(jobs[0].config.population, 12);
        assert_eq!(jobs[0].config.seed, 9);
        assert_eq!(jobs[1].spec.precision, Precision::Bf16);
        assert_eq!(jobs[1].config.population, 30);
        assert_eq!(jobs[1].config.generations, 6);
        assert_eq!(jobs[1].config.seed, 5);
        // A bare array works too.
        let bare = parse_jobs(r#"[{"wstore": 4096, "precision": "int4"}]"#, &quick()).unwrap();
        assert_eq!(bare.len(), 1);
    }

    #[test]
    fn job_file_errors_name_the_job() {
        let defaults = quick();
        for (text, needle) in [
            ("{}", "jobs"),
            ("[]", "no jobs"),
            (
                r#"[{"precision":"int8"}]"#,
                "job 0: missing or invalid `wstore`",
            ),
            (
                r#"[{"wstore":8192}]"#,
                "job 0: missing or invalid `precision`",
            ),
            (
                r#"[{"wstore":8192,"precision":"int3"}]"#,
                "unknown precision",
            ),
            (r#"[{"wstore":5000,"precision":"int8"}]"#, "power of two"),
            (
                r#"[{"wstore":8192,"precision":"int8","seed":"x"}]"#,
                "job 0: missing or invalid `seed`",
            ),
        ] {
            let err = parse_jobs(text, &defaults).unwrap_err().to_string();
            assert!(err.contains(needle), "`{err}` missing `{needle}`");
        }
    }

    #[test]
    fn populations_below_two_are_rejected_by_index() {
        let two_jobs = r#"[{"wstore":4096,"precision":"INT4","population":8},
                           {"wstore":4096,"precision":"INT4","population":1}]"#;
        let err = parse_jobs(two_jobs, &quick()).unwrap_err();
        assert_eq!(
            err,
            JobError::Population {
                index: 1,
                population: 1
            }
        );
        assert_eq!(
            err.to_string(),
            "job 1: population 1 is below the minimum of 2"
        );
        // A too-small default is caught on the first job that inherits it.
        let tiny = Nsga2Config {
            population: 0,
            ..quick()
        };
        assert_eq!(
            parse_jobs(r#"[{"wstore":4096,"precision":"int4"}]"#, &tiny).unwrap_err(),
            JobError::Population {
                index: 0,
                population: 0
            }
        );
        assert!(parse_jobs(
            r#"[{"wstore":4096,"precision":"int4","population":2}]"#,
            &quick()
        )
        .is_ok());
    }

    #[test]
    fn budgets_above_the_maximum_are_rejected_by_index_and_field() {
        let huge = r#"[{"wstore":4096,"precision":"INT4","population":8},
                       {"wstore":4096,"precision":"INT4","population":100000000}]"#;
        let err = parse_jobs(huge, &quick()).unwrap_err();
        assert_eq!(
            err,
            JobError::TooLarge {
                index: 1,
                field: "population",
                value: 100_000_000,
                max: MAX_POPULATION
            }
        );
        assert_eq!(
            err.to_string(),
            "job 1: population 100000000 exceeds the maximum of 10000"
        );
        let long = r#"[{"wstore":4096,"precision":"INT4","generations":10001}]"#;
        assert_eq!(
            parse_jobs(long, &quick()).unwrap_err().to_string(),
            "job 0: generations 10001 exceeds the maximum of 10000"
        );
        let at_bounds = format!(
            r#"[{{"wstore":4096,"precision":"INT4","population":{MAX_POPULATION},"generations":{MAX_GENERATIONS}}}]"#
        );
        assert!(parse_jobs(&at_bounds, &quick()).is_ok());
    }

    #[test]
    fn batch_runs_share_one_cache_across_jobs() {
        let jobs = parse_jobs(
            r#"[{"wstore": 8192, "precision": "int8", "seed": 1},
                {"wstore": 8192, "precision": "int8", "seed": 2}]"#,
            &quick(),
        )
        .unwrap();
        let report = run_batch(
            &jobs,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            PipelineOptions::default(),
        );
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.preloaded_entries, 0);
        assert_eq!(report.backend, "macro-model");
        // Second job mines the first job's cache: strictly fewer distinct
        // evaluations than an isolated run of the same job.
        let isolated = run_batch(
            &jobs[1..],
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            PipelineOptions::default(),
        );
        assert!(
            report.outcomes[1].result.distinct_evaluations
                < isolated.outcomes[0].result.distinct_evaluations,
            "cross-job reuse must shrink the estimator bill"
        );
        // And the front is unaffected by where estimates came from.
        assert_eq!(
            report.outcomes[1].result.objective_matrix(),
            isolated.outcomes[0].result.objective_matrix()
        );
    }

    #[test]
    fn report_document_is_valid_json_with_exact_bits() {
        let jobs = parse_jobs(r#"[{"wstore": 8192, "precision": "int8"}]"#, &quick()).unwrap();
        let report = run_batch(
            &jobs,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            PipelineOptions::default(),
        );
        let text = report.to_json().to_string();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("report").and_then(Json::as_str),
            Some("sega-dcim-batch")
        );
        let job = &doc.get("jobs").and_then(Json::as_arr).unwrap()[0];
        let front = job.get("front").and_then(Json::as_arr).unwrap();
        assert_eq!(front.len(), report.outcomes[0].result.solutions.len());
        let bits = front[0].get("bits").and_then(Json::as_arr).unwrap();
        let expected = report.outcomes[0].result.solutions[0].objectives();
        for (b, o) in bits.iter().zip(expected) {
            assert_eq!(b.as_str().unwrap(), format!("{:016x}", o.to_bits()));
        }
    }

    #[test]
    fn cache_file_encoding_follows_the_extension() {
        let snapshot = Snapshot::default();
        let binary = encode_cache_file(&snapshot, std::path::Path::new("warm.bin"));
        assert!(sega_wire::Reader::looks_binary(&binary));
        let json = encode_cache_file(&snapshot, std::path::Path::new("warm.json"));
        assert!(json.starts_with(b"{"));
        decode_cache_file(&binary).unwrap();
        decode_cache_file(&json).unwrap();
        assert!(decode_cache_file(b"garbage").is_err());
    }
}
