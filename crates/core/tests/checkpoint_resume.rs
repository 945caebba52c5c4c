//! Checkpointed batch resume, end to end at the library level: a run
//! that is stopped after one job and resumed from its journal must
//! finish with a report **byte-identical** to the uninterrupted run's —
//! including cross-job cache accounting, which only reproduces if the
//! journal's snapshot deltas really rebuild the original cache state.

use std::path::PathBuf;

use sega_cells::Technology;
use sega_dcim::{
    run_batch, run_batch_with, BatchControl, BatchJob, CheckpointConfig, PipelineOptions, UserSpec,
};
use sega_estimator::{OperatingConditions, Precision};
use sega_moga::Nsga2Config;

fn jobs() -> Vec<BatchJob> {
    let job = |wstore: u64, precision, seed| BatchJob {
        spec: UserSpec::new(wstore, precision).unwrap(),
        config: Nsga2Config {
            population: 10,
            generations: 4,
            seed,
            ..Default::default()
        },
    };
    vec![
        job(8192, Precision::Int8, 1),
        // Same key space as job 0: job 1's accounting only reproduces on
        // resume if the journal's deltas rebuilt job 0's cache entries.
        job(8192, Precision::Int8, 2),
        job(16384, Precision::Bf16, 3),
    ]
}

fn pipeline() -> PipelineOptions {
    PipelineOptions {
        threads: 1,
        cache: true,
        min_batch_per_worker: 1,
        ..Default::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sega-ckpt-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn tech() -> Technology {
    Technology::tsmc28()
}

fn conditions() -> OperatingConditions {
    OperatingConditions::paper_default()
}

#[test]
fn resume_reproduces_the_uninterrupted_report_byte_for_byte() {
    let jobs = jobs();
    let reference = run_batch(&jobs, &tech(), &conditions(), pipeline());
    let path = scratch("resume");

    // The "killed" run: journal to the checkpoint, stop after one job.
    let stopped = run_batch_with(
        &jobs,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::fresh(&path)),
            stop_after_jobs: Some(1),
            ..Default::default()
        },
    )
    .expect("checkpointed run");
    assert!(!stopped.complete);
    assert_eq!(stopped.outcomes.len(), 1);
    assert_eq!(stopped.resumed_jobs, 0);

    // The resumed run: job 0 reconstructed from the journal, jobs 1–2
    // executed against the delta-rebuilt cache.
    let resumed = run_batch_with(
        &jobs,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::resume(&path)),
            stop_after_jobs: None,
            ..Default::default()
        },
    )
    .expect("resumed run");
    assert!(resumed.complete);
    assert_eq!(resumed.resumed_jobs, 1);
    assert_eq!(
        resumed.to_json().to_string(),
        reference.to_json().to_string(),
        "resumed report must be byte-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_journal_tail_re_executes_only_the_lost_job() {
    let jobs = jobs();
    let reference = run_batch(&jobs, &tech(), &conditions(), pipeline());
    let path = scratch("torn");

    // A complete journaled run, then a crash that tears the last record.
    let full = run_batch_with(
        &jobs,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::fresh(&path)),
            stop_after_jobs: None,
            ..Default::default()
        },
    )
    .expect("journaled run");
    assert!(full.complete);
    let bytes = std::fs::read(&path).expect("journal exists");
    std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("tear the tail");

    let resumed = run_batch_with(
        &jobs,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::resume(&path)),
            stop_after_jobs: None,
            ..Default::default()
        },
    )
    .expect("resume over a torn journal");
    assert!(resumed.complete);
    assert_eq!(
        resumed.resumed_jobs, 2,
        "the torn record must be dropped, the intact prefix kept"
    );
    assert_eq!(
        resumed.to_json().to_string(),
        reference.to_json().to_string()
    );
    let _ = std::fs::remove_file(&path);
}

/// A run abandoned *inside* a job — right after its Nth mid-job
/// progress record — must resume at that generation boundary and still
/// finish with a report byte-identical to an uninterrupted run with the
/// same journaling cadence.
#[test]
fn mid_job_progress_resume_reproduces_the_uninterrupted_report() {
    let jobs = jobs();
    let reference_path = scratch("progress-ref");
    let reference = run_batch_with(
        &jobs,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::fresh(&reference_path)),
            checkpoint_generations: 2,
            ..Default::default()
        },
    )
    .expect("reference run");
    assert!(reference.complete);

    let path = scratch("progress");
    let stopped = run_batch_with(
        &jobs,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::fresh(&path)),
            checkpoint_generations: 2,
            stop_after_progress: Some(2),
            ..Default::default()
        },
    )
    .expect("stopped run");
    assert!(!stopped.complete, "the run must abandon mid-job");
    assert_eq!(
        stopped.outcomes.len(),
        0,
        "the interrupted job must not report an outcome"
    );

    let resumed = run_batch_with(
        &jobs,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::resume(&path)),
            checkpoint_generations: 2,
            ..Default::default()
        },
    )
    .expect("resumed run");
    assert!(resumed.complete);
    assert_eq!(
        resumed.resumed_jobs, 0,
        "no job had finished; the interrupted one resumes mid-flight"
    );
    assert_eq!(
        resumed.to_json().to_string(),
        reference.to_json().to_string(),
        "mid-job resume must reproduce the uninterrupted report"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&reference_path);
}

#[test]
fn resume_rejects_a_journal_for_a_different_job_list() {
    let jobs = jobs();
    let path = scratch("mismatch");
    run_batch_with(
        &jobs,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::fresh(&path)),
            stop_after_jobs: Some(1),
            ..Default::default()
        },
    )
    .expect("checkpointed run");

    let mut edited = jobs.clone();
    edited[2].config.seed = 999;
    let err = run_batch_with(
        &edited,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::resume(&path)),
            stop_after_jobs: None,
            ..Default::default()
        },
    )
    .expect_err("fingerprint mismatch must fail");
    assert!(err.contains("different job list"), "{err}");
    let _ = std::fs::remove_file(&path);
}
