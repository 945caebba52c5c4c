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
use sega_wire::frame::write_frame;
use sega_wire::Writer;

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

/// A journal from an older build may hold `batch-job-progress` frames
/// (mid-exploration GA state, a retired record kind) after its finished
/// jobs. The loader treats the first such frame like a torn tail: the
/// jobs before it are kept, everything from it on reruns, and the frame
/// is truncated away before the resumed run appends.
#[test]
fn retired_progress_frames_end_the_journal_prefix() {
    let jobs = jobs();
    let reference = run_batch(&jobs, &tech(), &conditions(), pipeline());
    let path = scratch("retired-progress");
    run_batch_with(
        &jobs,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::fresh(&path)),
            stop_after_jobs: Some(1),
        },
    )
    .expect("checkpointed run");
    let mut payload = Writer::with_header();
    payload.put_str("batch-job-progress");
    payload.put_u64(1);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("journal exists");
    write_frame(&mut file, &payload.finish()).expect("append the retired frame");
    drop(file);

    let resumed = run_batch_with(
        &jobs,
        &tech(),
        &conditions(),
        pipeline(),
        &BatchControl {
            checkpoint: Some(CheckpointConfig::resume(&path)),
            stop_after_jobs: None,
        },
    )
    .expect("resume over a journal holding a retired frame");
    assert!(resumed.complete);
    assert_eq!(resumed.resumed_jobs, 1, "the job before the frame is kept");
    assert_eq!(
        resumed.to_json().to_string(),
        reference.to_json().to_string()
    );
    let bytes = std::fs::read(&path).expect("journal exists");
    let retired = b"batch-job-progress";
    assert!(
        !bytes.windows(retired.len()).any(|w| w == retired),
        "the retired frame must be truncated away"
    );
    let _ = std::fs::remove_file(&path);
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
        },
    )
    .expect_err("fingerprint mismatch must fail");
    assert!(err.contains("different job list"), "{err}");
    let _ = std::fs::remove_file(&path);
}
