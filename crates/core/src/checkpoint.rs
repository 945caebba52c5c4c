//! Checkpointed batch resume: a journal of completed jobs that lets a
//! killed `sega-dcim batch` pick up where it stopped.
//!
//! The journal is a sidecar file next to the batch run: one
//! [`sega_wire::frame`]-framed header naming the job list (by
//! fingerprint, so a resume against a *different* job file fails loudly)
//! followed by one record frame per completed job — its accounting, its
//! front as geometry triples, and the cache [`Snapshot`] **delta** the
//! job added. A resumed run replays the deltas into the shared cache
//! (warm start), reconstructs finished outcomes by re-materializing
//! their journaled fronts through the deterministic macro model, and
//! executes only the remaining jobs — producing a report **byte-identical**
//! to an uninterrupted run.
//!
//! Durability follows the transport's framing discipline: every record
//! is a complete frame flushed on append, and the loader keeps the
//! longest decodable prefix — a record torn by `kill -9` mid-write is
//! dropped (that job simply reruns) instead of poisoning the file. On
//! resume the file is truncated back to that prefix before appending.

use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use sega_estimator::EstimatorStats;
use sega_moga::{DominanceStats, DriverState, Nsga2Config, ObjectiveMatrix};
use sega_wire::frame::{self, FrameError};
use sega_wire::{DriverStateRecord, GeometryRecord, Reader, Snapshot, WireError, Writer};

use crate::backend::EvalBackend;
use crate::backend::MacroModelBackend;
use crate::batch::{BatchJob, BatchOutcome};
use crate::cache::FxHasher;
use crate::explore::{ExplorationResult, ExploreResume, Geometry};
use sega_cells::Technology;
use sega_estimator::OperatingConditions;

/// Where the batch journal lives and whether to resume from it.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// The journal file.
    pub path: PathBuf,
    /// `true` resumes from an existing journal (the file must exist and
    /// match the job list); `false` starts a fresh journal, replacing
    /// any file at `path`.
    pub resume: bool,
}

impl CheckpointConfig {
    /// A fresh journal at `path`.
    pub fn fresh(path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            path: path.into(),
            resume: false,
        }
    }

    /// Resume from the journal at `path`.
    pub fn resume(path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            path: path.into(),
            resume: true,
        }
    }
}

/// Document kind tag of the journal header frame. The `-v2` suffix
/// marks journals whose records use the `-v2` layouts below, so resuming
/// an older journal fails at its header, before anything is truncated.
const HEADER_KIND: &str = "batch-checkpoint-v2";
/// Document kind tag of each per-job record frame. The `-v2` suffix
/// marks the layout without the three retired ledger words that used
/// to follow the estimator counters: an older record fails the kind
/// check instead of having its front length misread.
const RECORD_KIND: &str = "batch-job-record-v2";
/// Document kind tag of a mid-job progress frame (a generation-boundary
/// GA checkpoint inside a long exploration).
const PROGRESS_KIND: &str = "batch-job-progress";

/// The journal header: which batch this journal belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Header {
    /// Fingerprint of the job list (specs + budgets, order-sensitive).
    pub fingerprint: u64,
    /// Cache entries preloaded before the first job of the original run
    /// — carried so a resumed report reproduces the original's
    /// `preloaded_entries` byte-for-byte.
    pub preloaded_entries: u64,
    /// Backend name of the original run (a resume under a different
    /// backend is refused: its report could not match).
    pub backend: String,
}

impl Header {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        w.put_str(HEADER_KIND);
        w.put_u64(self.fingerprint);
        w.put_u64(self.preloaded_entries);
        w.put_str(&self.backend);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Header, WireError> {
        let mut r = Reader::open(bytes)?;
        let kind = r.take_str()?;
        if kind != HEADER_KIND {
            return Err(WireError::Malformed(format!(
                "expected a {HEADER_KIND} document, found `{kind}`"
            )));
        }
        Ok(Header {
            fingerprint: r.take_u64()?,
            preloaded_entries: r.take_u64()?,
            backend: r.take_str()?,
        })
    }
}

/// One journaled job: everything needed to reconstruct its
/// [`BatchOutcome`] without re-running it.
#[derive(Debug, Clone)]
pub(crate) struct JobRecord {
    /// Index into the job list.
    pub index: u64,
    /// `ExplorationResult::evaluations`.
    pub evaluations: u64,
    /// `ExplorationResult::distinct_evaluations`.
    pub distinct_evaluations: u64,
    /// `ExplorationResult::cache_hits`.
    pub cache_hits: u64,
    /// `ExplorationResult::interned`.
    pub interned: u64,
    /// Dominance-kernel counters of the run.
    pub dominance: DominanceStats,
    /// Estimator-kernel counters of the run.
    pub estimator: EstimatorStats,
    /// The front, in report order, as log-geometry triples — the macro
    /// model re-materializes the full solutions deterministically.
    pub front: Vec<GeometryRecord>,
    /// The cache entries this job added (snapshot diff against the
    /// cache state before the job).
    pub delta: Snapshot,
}

impl JobRecord {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        w.put_str(RECORD_KIND);
        w.put_u64(self.index);
        w.put_u64(self.evaluations);
        w.put_u64(self.distinct_evaluations);
        w.put_u64(self.cache_hits);
        w.put_u64(self.interned);
        w.put_u64(self.dominance.comparisons);
        w.put_u64(self.dominance.word_ops);
        w.put_u64(self.dominance.allocations);
        w.put_u64(self.estimator.designs);
        w.put_u64(self.estimator.batched);
        w.put_u64(self.estimator.scalar_fallbacks);
        w.put_u64(self.estimator.allocations);
        w.put_u64(self.front.len() as u64);
        for g in &self.front {
            w.put_u32(g.log_h);
            w.put_u32(g.log_l);
            w.put_u32(g.k);
        }
        let delta = self.delta.encode_binary();
        w.put_u64(delta.len() as u64);
        w.put_bytes(&delta);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<JobRecord, WireError> {
        let mut r = Reader::open(bytes)?;
        let kind = r.take_str()?;
        if kind != RECORD_KIND {
            return Err(WireError::Malformed(format!(
                "expected a {RECORD_KIND} document, found `{kind}`"
            )));
        }
        let index = r.take_u64()?;
        let evaluations = r.take_u64()?;
        let distinct_evaluations = r.take_u64()?;
        let cache_hits = r.take_u64()?;
        let interned = r.take_u64()?;
        let dominance = DominanceStats {
            comparisons: r.take_u64()?,
            word_ops: r.take_u64()?,
            allocations: r.take_u64()?,
        };
        let estimator = EstimatorStats {
            designs: r.take_u64()?,
            batched: r.take_u64()?,
            scalar_fallbacks: r.take_u64()?,
            allocations: r.take_u64()?,
        };
        let front_len = r.take_u64()? as usize;
        let mut front = Vec::with_capacity(front_len.min(1 << 20));
        for _ in 0..front_len {
            front.push(GeometryRecord {
                log_h: r.take_u32()?,
                log_l: r.take_u32()?,
                k: r.take_u32()?,
            });
        }
        let delta_len = r.take_u64()? as usize;
        let delta = Snapshot::decode_binary(r.take_bytes(delta_len)?)?;
        Ok(JobRecord {
            index,
            evaluations,
            distinct_evaluations,
            cache_hits,
            interned,
            dominance,
            estimator,
            front,
            delta,
        })
    }
}

/// A mid-job GA checkpoint: the exploration of job `index` had committed
/// `driver.bred` generations when this frame was written. Replaces the
/// previous progress frame logically (the loader keeps only the latest),
/// and is superseded entirely by the job's [`JobRecord`] once it
/// finishes.
#[derive(Debug, Clone)]
pub(crate) struct ProgressRecord {
    /// Index into the job list.
    pub index: u64,
    /// Cache hits the exploration's stats had recorded so far.
    pub hits: u64,
    /// Distinct evaluations (misses) recorded so far.
    pub misses: u64,
    /// Estimator-kernel counters recorded so far.
    pub estimator: EstimatorStats,
    /// The GA driver at the generation boundary.
    pub driver: DriverStateRecord,
    /// Cache entries added **since this job started** (the finished-job
    /// deltas already journaled cover everything before it).
    pub delta: Snapshot,
}

impl ProgressRecord {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        w.put_str(PROGRESS_KIND);
        w.put_u64(self.index);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.estimator.designs);
        w.put_u64(self.estimator.batched);
        w.put_u64(self.estimator.scalar_fallbacks);
        w.put_u64(self.estimator.allocations);
        let driver = self.driver.encode();
        w.put_u64(driver.len() as u64);
        w.put_bytes(&driver);
        let delta = self.delta.encode_binary();
        w.put_u64(delta.len() as u64);
        w.put_bytes(&delta);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<ProgressRecord, WireError> {
        let mut r = Reader::open(bytes)?;
        let kind = r.take_str()?;
        if kind != PROGRESS_KIND {
            return Err(WireError::Malformed(format!(
                "expected a {PROGRESS_KIND} document, found `{kind}`"
            )));
        }
        let index = r.take_u64()?;
        let hits = r.take_u64()?;
        let misses = r.take_u64()?;
        let estimator = EstimatorStats {
            designs: r.take_u64()?,
            batched: r.take_u64()?,
            scalar_fallbacks: r.take_u64()?,
            allocations: r.take_u64()?,
        };
        let driver_len = r.take_u64()? as usize;
        let driver = DriverStateRecord::decode(r.take_bytes(driver_len)?)?;
        let delta_len = r.take_u64()? as usize;
        let delta = Snapshot::decode_binary(r.take_bytes(delta_len)?)?;
        Ok(ProgressRecord {
            index,
            hits,
            misses,
            estimator,
            driver,
            delta,
        })
    }
}

/// [`DriverState`] → wire record (field-for-field, floats as bits).
pub(crate) fn driver_record_of(state: &DriverState<Geometry>) -> DriverStateRecord {
    DriverStateRecord {
        population: state.config.population as u64,
        generations: state.config.generations as u64,
        crossover_bits: state.config.crossover_rate.to_bits(),
        mutation_bits: state.config.mutation_rate.to_bits(),
        seed: state.config.seed,
        intern: state.config.intern,
        rng: state.rng,
        genomes: state
            .genomes
            .iter()
            .map(|g| GeometryRecord {
                log_h: g.log_h,
                log_l: g.log_l,
                k: g.k,
            })
            .collect(),
        objective_width: state.objectives.width() as u32,
        objective_bits: state
            .objectives
            .as_flat()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        rank: state.rank.iter().map(|&r| r as u64).collect(),
        crowding_bits: state.crowding.iter().map(|v| v.to_bits()).collect(),
        bred: state.bred as u64,
        evaluations: state.evaluations as u64,
        interned: state.interned as u64,
        dominance: [
            state.dominance.comparisons,
            state.dominance.word_ops,
            state.dominance.allocations,
        ],
    }
}

/// Wire record → [`DriverState`] (decode already validated the
/// population vectors agree).
pub(crate) fn driver_state_of(record: &DriverStateRecord) -> DriverState<Geometry> {
    let width = record.objective_width as usize;
    let mut objectives = ObjectiveMatrix::with_capacity(width, record.genomes.len());
    if width > 0 {
        let mut row = vec![0.0f64; width];
        for bits in record.objective_bits.chunks(width) {
            for (v, &b) in row.iter_mut().zip(bits) {
                *v = f64::from_bits(b);
            }
            objectives.push_row(&row);
        }
    }
    DriverState {
        config: Nsga2Config {
            population: record.population as usize,
            generations: record.generations as usize,
            crossover_rate: f64::from_bits(record.crossover_bits),
            mutation_rate: f64::from_bits(record.mutation_bits),
            seed: record.seed,
            intern: record.intern,
        },
        rng: record.rng,
        genomes: record
            .genomes
            .iter()
            .map(|g| Geometry {
                log_h: g.log_h,
                log_l: g.log_l,
                k: g.k,
            })
            .collect(),
        objectives,
        rank: record.rank.iter().map(|&r| r as usize).collect(),
        crowding: record
            .crowding_bits
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect(),
        bred: record.bred as usize,
        evaluations: record.evaluations as usize,
        interned: record.interned as usize,
        dominance: DominanceStats {
            comparisons: record.dominance[0],
            word_ops: record.dominance[1],
            allocations: record.dominance[2],
        },
    }
}

/// A [`ProgressRecord`] from a mid-exploration [`ExploreResume`].
pub(crate) fn progress_record_of(
    index: usize,
    resume: &ExploreResume,
    delta: Snapshot,
) -> ProgressRecord {
    ProgressRecord {
        index: index as u64,
        hits: resume.hits as u64,
        misses: resume.misses as u64,
        estimator: resume.estimator,
        driver: driver_record_of(&resume.driver),
        delta,
    }
}

/// The [`ExploreResume`] a journaled [`ProgressRecord`] resumes from
/// (the caller loads the record's cache delta separately).
pub(crate) fn resume_of_progress(progress: &ProgressRecord) -> ExploreResume {
    ExploreResume {
        driver: driver_state_of(&progress.driver),
        hits: progress.hits as usize,
        misses: progress.misses as usize,
        estimator: progress.estimator,
    }
}

/// Deterministic fingerprint of a job list: every field that shapes the
/// exploration, in order — the same Fx hash the cache shards by, so it
/// is stable across runs, platforms and processes.
pub(crate) fn jobs_fingerprint(jobs: &[BatchJob]) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    h.write_usize(jobs.len());
    for job in jobs {
        h.write_u64(job.spec.wstore);
        h.write(job.spec.precision.name().as_bytes());
        h.write_usize(job.config.population);
        h.write_usize(job.config.generations);
        h.write_u64(job.config.crossover_rate.to_bits());
        h.write_u64(job.config.mutation_rate.to_bits());
        h.write_u64(job.config.seed);
        h.write_u8(job.config.intern as u8);
    }
    h.finish()
}

/// The parsed journal: its header, the complete records, the latest
/// still-relevant mid-job progress frame, and the byte length of the
/// decodable prefix (everything past it is torn tail).
pub(crate) struct LoadedJournal {
    pub header: Header,
    pub records: Vec<JobRecord>,
    /// The newest [`ProgressRecord`] whose job has no finished
    /// [`JobRecord`] — the point a resumed run continues that job from.
    pub progress: Option<ProgressRecord>,
    pub good_len: u64,
}

/// Parses journal bytes, keeping the longest decodable prefix.
///
/// # Errors
///
/// Only when the *header* is unreadable — a journal that never recorded
/// its identity cannot be safely resumed. Torn or corrupt record tails
/// are tolerated: those jobs rerun.
pub(crate) fn load_journal(bytes: &[u8]) -> Result<LoadedJournal, String> {
    let mut cursor = bytes;
    let header_payload =
        frame::read_frame(&mut cursor).map_err(|e| format!("checkpoint journal header: {e}"))?;
    let header =
        Header::decode(&header_payload).map_err(|e| format!("checkpoint journal header: {e}"))?;
    let mut records: Vec<JobRecord> = Vec::new();
    let mut progress: Option<ProgressRecord> = None;
    let mut good_len = (bytes.len() - cursor.len()) as u64;
    loop {
        let payload = match frame::read_frame(&mut cursor) {
            Ok(payload) => payload,
            // Clean end *or* a frame torn mid-write: either way the
            // decodable prefix ends here.
            Err(FrameError::Eof) => break,
            Err(_) => break,
        };
        // Two record kinds interleave: finished jobs and mid-job GA
        // progress. Later frames supersede earlier progress (each
        // progress frame carries the complete driver state).
        if let Ok(record) = JobRecord::decode(&payload) {
            records.push(record);
            good_len = (bytes.len() - cursor.len()) as u64;
        } else if let Ok(record) = ProgressRecord::decode(&payload) {
            progress = Some(record);
            good_len = (bytes.len() - cursor.len()) as u64;
        } else {
            // A framed-but-garbled record: stop at the last good one.
            break;
        }
    }
    // A progress frame is only live while its job is unfinished — the
    // job's own record makes it redundant.
    if let Some(p) = &progress {
        if records.iter().any(|r| r.index == p.index) {
            progress = None;
        }
    }
    Ok(LoadedJournal {
        header,
        records,
        progress,
        good_len,
    })
}

/// An open journal file accepting record appends.
#[derive(Debug)]
pub(crate) struct Journal {
    file: std::fs::File,
}

impl Journal {
    /// Creates a fresh journal at `path` (replacing any existing file)
    /// and writes its header.
    pub fn create(path: &Path, header: &Header) -> Result<Journal, String> {
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create checkpoint `{}`: {e}", path.display()))?;
        frame::write_frame(&mut file, &header.encode())
            .map_err(|e| format!("checkpoint header write: {e}"))?;
        file.sync_data()
            .map_err(|e| format!("checkpoint sync: {e}"))?;
        Ok(Journal { file })
    }

    /// Reopens the journal at `path` for appending, first truncating it
    /// to `good_len` so a torn tail never sits between records.
    pub fn reopen(path: &Path, good_len: u64) -> Result<Journal, String> {
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot reopen checkpoint `{}`: {e}", path.display()))?;
        file.set_len(good_len)
            .map_err(|e| format!("checkpoint truncate: {e}"))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| format!("checkpoint seek: {e}"))?;
        Ok(Journal { file })
    }

    /// Appends one completed-job record and flushes it to disk.
    pub fn append(&mut self, record: &JobRecord) -> Result<(), String> {
        frame::write_frame(&mut self.file, &record.encode())
            .map_err(|e| format!("checkpoint record write: {e}"))?;
        self.file
            .flush()
            .and_then(|()| self.file.sync_data())
            .map_err(|e| format!("checkpoint sync: {e}"))
    }

    /// Appends one mid-job progress record and flushes it to disk. The
    /// journal grows by one frame per checkpoint (append-only — no
    /// rewriting on the hot path); the loader keeps only the latest.
    pub fn append_progress(&mut self, record: &ProgressRecord) -> Result<(), String> {
        frame::write_frame(&mut self.file, &record.encode())
            .map_err(|e| format!("checkpoint progress write: {e}"))?;
        self.file
            .flush()
            .and_then(|()| self.file.sync_data())
            .map_err(|e| format!("checkpoint sync: {e}"))
    }
}

/// The journal record of a finished job.
pub(crate) fn record_of_outcome(
    index: usize,
    outcome: &BatchOutcome,
    delta: Snapshot,
) -> JobRecord {
    let result = &outcome.result;
    JobRecord {
        index: index as u64,
        evaluations: result.evaluations as u64,
        distinct_evaluations: result.distinct_evaluations as u64,
        cache_hits: result.cache_hits as u64,
        interned: result.interned as u64,
        dominance: result.dominance,
        estimator: result.estimator,
        front: result
            .solutions
            .iter()
            .map(|s| {
                let (_, h, l, k) = s.design.geometry();
                // `design_of` builds h and l as `1 << log`, so the logs
                // round-trip exactly through trailing_zeros.
                GeometryRecord {
                    log_h: h.trailing_zeros(),
                    log_l: l.trailing_zeros(),
                    k,
                }
            })
            .collect(),
        delta,
    }
}

/// Rebuilds a finished job's [`BatchOutcome`] from its journal record:
/// the accounting is copied, the front re-materialized through the
/// deterministic in-process macro model (the same path
/// [`CohortEvaluator::materialize`](crate::backend::CohortEvaluator::materialize)
/// takes for presentation), preserving journaled order.
///
/// # Errors
///
/// A record whose geometry no longer materializes — a journal from a
/// different job file that somehow passed the fingerprint check.
pub(crate) fn reconstruct_outcome(
    record: &JobRecord,
    job: &BatchJob,
    tech: &Technology,
    conditions: &OperatingConditions,
) -> Result<BatchOutcome, String> {
    let evaluator = MacroModelBackend.bind(&job.spec, tech, conditions);
    let solutions = record
        .front
        .iter()
        .map(|g| {
            evaluator
                .materialize(&Geometry {
                    log_h: g.log_h,
                    log_l: g.log_l,
                    k: g.k,
                })
                .ok_or_else(|| {
                    format!(
                        "checkpoint record {} names an infeasible geometry \
                         (2^{} × 2^{}, k={})",
                        record.index, g.log_h, g.log_l, g.k
                    )
                })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BatchOutcome {
        config: job.config.clone(),
        result: ExplorationResult {
            spec: job.spec,
            solutions,
            evaluations: record.evaluations as usize,
            distinct_evaluations: record.distinct_evaluations as usize,
            cache_hits: record.cache_hits as usize,
            interned: record.interned as usize,
            dominance: record.dominance,
            estimator: record.estimator,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::parse_jobs;
    use sega_moga::Nsga2Config;

    fn jobs() -> Vec<BatchJob> {
        parse_jobs(
            r#"[{"wstore": 8192, "precision": "int8", "seed": 3},
                {"wstore": 16384, "precision": "bf16", "seed": 4}]"#,
            &Nsga2Config {
                population: 10,
                generations: 4,
                ..Default::default()
            },
        )
        .unwrap()
    }

    fn sample_record(index: u64) -> JobRecord {
        JobRecord {
            index,
            evaluations: 50,
            distinct_evaluations: 20,
            cache_hits: 30,
            interned: 5,
            dominance: DominanceStats {
                comparisons: 123,
                word_ops: 4,
                allocations: 1,
            },
            estimator: EstimatorStats {
                designs: 20,
                batched: 16,
                scalar_fallbacks: 4,
                allocations: 2,
            },
            front: vec![
                GeometryRecord {
                    log_h: 5,
                    log_l: 1,
                    k: 4,
                },
                GeometryRecord {
                    log_h: 7,
                    log_l: 0,
                    k: 2,
                },
            ],
            delta: Snapshot::default(),
        }
    }

    #[test]
    fn records_round_trip_bitwise() {
        let record = sample_record(7);
        let decoded = JobRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded.index, 7);
        assert_eq!(decoded.evaluations, 50);
        assert_eq!(decoded.dominance, record.dominance);
        assert_eq!(decoded.estimator, record.estimator);
        assert_eq!(decoded.front, record.front);
        assert_eq!(decoded.delta.encode_binary(), record.delta.encode_binary());
        let header = Header {
            fingerprint: 0xdead_beef,
            preloaded_entries: 12,
            backend: "macro-model".to_owned(),
        };
        assert_eq!(Header::decode(&header.encode()).unwrap(), header);
        // Kind tags are checked, not assumed.
        assert!(Header::decode(&record.encode()).is_err());
        assert!(JobRecord::decode(&header.encode()).is_err());
    }

    /// A record in the layout before the `-v2` kind tag: three retired
    /// ledger words sat between the estimator counters and the
    /// front length.
    fn unversioned_record_bytes(record: &JobRecord) -> Vec<u8> {
        let mut w = Writer::with_header();
        w.put_str("batch-job-record");
        w.put_u64(record.index);
        w.put_u64(record.evaluations);
        w.put_u64(record.distinct_evaluations);
        w.put_u64(record.cache_hits);
        w.put_u64(record.interned);
        for v in [
            record.dominance.comparisons,
            record.dominance.word_ops,
            record.dominance.allocations,
            record.estimator.designs,
            record.estimator.batched,
            record.estimator.scalar_fallbacks,
            record.estimator.allocations,
            9,
            7,
            2,
        ] {
            w.put_u64(v);
        }
        w.put_u64(record.front.len() as u64);
        for g in &record.front {
            w.put_u32(g.log_h);
            w.put_u32(g.log_l);
            w.put_u32(g.k);
        }
        let delta = record.delta.encode_binary();
        w.put_u64(delta.len() as u64);
        w.put_bytes(&delta);
        w.finish()
    }

    #[test]
    fn records_in_the_unversioned_layout_are_rejected_not_misread() {
        let old = unversioned_record_bytes(&sample_record(0));
        match JobRecord::decode(&old) {
            Err(WireError::Malformed(message)) => assert_eq!(
                message,
                "expected a batch-job-record-v2 document, found `batch-job-record`"
            ),
            other => panic!("expected a kind mismatch, got {other:?}"),
        }
        // A whole journal in the unversioned layout: its header names the
        // old kind, so `--resume` fails loudly at the header and leaves
        // the file untouched instead of silently rerunning every job.
        let jobs = jobs();
        let mut w = Writer::with_header();
        w.put_str("batch-checkpoint");
        w.put_u64(jobs_fingerprint(&jobs));
        w.put_u64(0);
        w.put_str("macro-model");
        let mut bytes = Vec::new();
        frame::write_frame(&mut bytes, &w.finish()).unwrap();
        frame::write_frame(&mut bytes, &old).unwrap();
        let path =
            std::env::temp_dir().join(format!("sega-ckpt-unversioned-{}", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let err = crate::batch::run_batch_with(
            &jobs,
            &Technology::tsmc28(),
            &OperatingConditions::paper_default(),
            crate::PipelineOptions {
                threads: 1,
                ..Default::default()
            },
            &crate::batch::BatchControl {
                checkpoint: Some(CheckpointConfig::resume(&path)),
                ..Default::default()
            },
        )
        .expect_err("an unversioned journal must not resume");
        assert!(
            err.contains("expected a batch-checkpoint-v2 document, found `batch-checkpoint`"),
            "{err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprints_are_order_and_field_sensitive() {
        let a = jobs();
        let mut reversed = a.clone();
        reversed.reverse();
        assert_ne!(jobs_fingerprint(&a), jobs_fingerprint(&reversed));
        let mut reseeded = a.clone();
        reseeded[0].config.seed += 1;
        assert_ne!(jobs_fingerprint(&a), jobs_fingerprint(&reseeded));
        assert_eq!(jobs_fingerprint(&a), jobs_fingerprint(&jobs()));
    }

    #[test]
    fn torn_tails_are_dropped_but_the_prefix_survives() {
        let header = Header {
            fingerprint: 1,
            preloaded_entries: 0,
            backend: "macro-model".to_owned(),
        };
        let mut bytes = Vec::new();
        frame::write_frame(&mut bytes, &header.encode()).unwrap();
        frame::write_frame(&mut bytes, &sample_record(0).encode()).unwrap();
        let good_len = bytes.len() as u64;
        // A record torn mid-write: the length prefix promises more than
        // the file holds.
        let torn = sample_record(1).encode();
        frame::write_truncated_frame(&mut bytes, &torn, torn.len() / 3).unwrap();
        let loaded = load_journal(&bytes).unwrap();
        assert_eq!(loaded.header, header);
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].index, 0);
        assert_eq!(loaded.good_len, good_len);
        // An empty journal (header only) is valid: zero records.
        let mut only_header = Vec::new();
        frame::write_frame(&mut only_header, &header.encode()).unwrap();
        let loaded = load_journal(&only_header).unwrap();
        assert!(loaded.records.is_empty());
        // No header at all is a hard error.
        assert!(load_journal(b"").is_err());
        assert!(load_journal(b"garbage that is not a frame").is_err());
    }

    #[test]
    fn reconstruction_rematerializes_the_journaled_front() {
        let jobs = jobs();
        let tech = Technology::tsmc28();
        let cond = OperatingConditions::paper_default();
        let record = sample_record(0);
        let outcome = reconstruct_outcome(&record, &jobs[0], &tech, &cond).unwrap();
        assert_eq!(outcome.result.solutions.len(), 2);
        assert_eq!(outcome.result.evaluations, 50);
        // The materialized estimate is the macro model's own answer for
        // that geometry — bit-identical to a live run's.
        let evaluator = MacroModelBackend.bind(&jobs[0].spec, &tech, &cond);
        let direct = evaluator
            .materialize(&Geometry {
                log_h: 5,
                log_l: 1,
                k: 4,
            })
            .unwrap();
        assert_eq!(
            outcome.result.solutions[0].objectives().map(f64::to_bits),
            direct.objectives().map(f64::to_bits)
        );
    }
}
