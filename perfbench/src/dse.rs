//! `dse-corpus`: one closed-loop caller runs the in-process batch path
//! over the 24-spec corpus, one job per op, with a fresh cold cache per
//! pass — what `sega-dcim batch` without `--cache-file` does.

use std::sync::Arc;
use std::time::Instant;

use sega_dcim::batch::{run_batch, BatchJob, BatchReport};
use sega_dcim::explore::PipelineOptions;
use sega_dcim::SharedEvalCache;
use sega_parallel::{resolve_threads, Pool};

use crate::checks::{check_front, front_bits, same_as_before};
use crate::common::{corpus, job_config, peak_rss_mb, Rng, Timed, CACHE_PROBE};
use crate::harness::{
    record_latency, record_setup, references, setting, Outcome, Quality, Settings, SETUP_REPS,
};
use crate::replica;
use crate::trace::{self, span, Totals};

/// Fewest passes of an untraced run: 120 ops, so the tail is at least
/// p90 with 12 ops beyond it.
const MIN_PASSES: usize = 5;

/// One op: the batch path for a single job, plus the report document
/// the CLI would write.
fn batch_op(
    job: &BatchJob,
    pool: &Arc<Pool>,
    cache: &Arc<SharedEvalCache>,
) -> (BatchReport, usize) {
    let (tech, conditions) = setting();
    let report = run_batch(
        std::slice::from_ref(job),
        &tech,
        &conditions,
        PipelineOptions::default()
            .on_pool(Arc::clone(pool))
            .with_shared_cache(Arc::clone(cache)),
    );
    let bytes = report.to_json().to_string().len();
    (report, bytes)
}

/// The corpus jobs with seeds drawn from the workload seed, and a fresh
/// pool, warmed by one job.
fn set_up(seed: u64) -> (Vec<BatchJob>, Arc<Pool>) {
    let mut rng = Rng::new(seed, 1);
    let jobs: Vec<BatchJob> = corpus()
        .into_iter()
        .map(|spec| BatchJob {
            spec,
            config: job_config(rng.next()),
        })
        .collect();
    let pool = Arc::new(Pool::new(resolve_threads(0)));
    batch_op(&jobs[0], &pool, &Arc::new(SharedEvalCache::new()));
    (jobs, pool)
}

/// Runs the workload.
pub fn run(settings: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (jobs_and_pool, timing) = Timed::measure(CACHE_PROBE, || set_up(settings.seed));
        prepared = Some(jobs_and_pool);
        setups.push(timing);
    }
    let (jobs, pool) = prepared.expect("at least one set-up");
    let specs: Vec<_> = jobs.iter().map(|j| j.spec).collect();
    let (refs, exact_front_s) = references(&specs);
    let (tech, conditions) = setting();

    let epoch = Instant::now();
    if settings.trace {
        trace::start(epoch, 1);
    }
    let mut ops = Vec::new();
    let mut window = 0.0;
    let mut traced_wall = 0.0;
    let mut untraced_wall = 0.0;
    let mut counters = Counters::default();
    let mut first: Vec<Option<Vec<[u64; 4]>>> = vec![None; jobs.len()];
    let mut reports: Vec<Option<BatchReport>> = (0..jobs.len()).map(|_| None).collect();
    let mut quality = Quality::default();
    let mut artifact_bytes = 0usize;
    let mut passes = 0usize;
    let mut op = 0u64;
    let min_passes = if settings.trace { 2 } else { MIN_PASSES };
    while passes < min_passes || window + traced_wall < settings.seconds {
        let cache = Arc::new(SharedEvalCache::new());
        let replica_cache = Arc::new(SharedEvalCache::new());
        for (i, job) in jobs.iter().enumerate() {
            op += 1;
            // The traced replica of this op. It encodes the latest library
            // report of the same job (identical bytes on every pass).
            let traced_op = |report: &BatchReport| {
                trace::set_op(op);
                let t0 = Instant::now();
                let explored = span("op", || {
                    let explored = replica::explore(
                        &job.spec,
                        &tech,
                        &conditions,
                        &job.config,
                        PipelineOptions::default()
                            .on_pool(Arc::clone(&pool))
                            .with_shared_cache(Arc::clone(&replica_cache)),
                    );
                    span("wire.report_encode", || report.to_json().to_string());
                    explored
                });
                (explored, t0.elapsed().as_secs_f64())
            };
            // After the first pass every other op runs its replica first,
            // so neither side always runs on warmer caches.
            let replica_first = settings.trace && passes > 0 && op.is_multiple_of(2);
            let mut traced = match &reports[i] {
                Some(report) if replica_first => Some(traced_op(report)),
                _ => None,
            };
            let ((report, bytes), timing) =
                Timed::measure(CACHE_PROBE, || batch_op(job, &pool, &cache));
            let dt = timing.wall_s;
            if settings.trace && traced.is_none() {
                traced = Some(traced_op(&report));
            }
            let front = &report.outcomes[0].result.solutions;
            let mut verdict = check_front(&job.spec, front, &tech, &conditions)
                .and_then(|()| same_as_before("front", &mut first[i], front_bits(front)));
            quality.add(&refs, i, front);
            if passes == 0 {
                artifact_bytes += bytes;
            }
            window += dt;
            ops.push(timing);
            if let Some((explored, wall)) = traced {
                traced_wall += wall;
                untraced_wall += dt;
                counters.add(&explored);
                if verdict.is_ok() && front_bits(&explored.solutions) != front_bits(front) {
                    verdict = Err(format!(
                        "replica front differs from the library's for job {i}"
                    ));
                }
            }
            reports[i] = Some(report);
            out.ledger.record(verdict);
        }
        passes += 1;
    }

    if settings.trace {
        let spans = trace::finish();
        let totals = Totals::of(&spans);
        record_explore_layers(&mut out, &totals, "op", &counters);
        out.set(
            "wire.report_encode_s",
            totals.per_root("wire.report_encode", "op"),
        );
        out.set("enumerate.exact_front_s", exact_front_s);
        out.set("trace.coverage", totals.coverage("op"));
        out.set("trace.overhead", traced_wall / untraced_wall - 1.0);
        out.spans = spans;
    } else {
        record_setup(&mut out, &setups);
        record_latency(&mut out, &ops, 1);
        match peak_rss_mb("self") {
            Ok(mb) => out.set("peak_rss_mb", mb),
            Err(e) => out.ledger.fail_counted(e),
        }
        out.set("artifact_mb", artifact_bytes as f64 / 1e6);
        out.set("front_hv_ratio", quality.hv_ratio());
        out.set("front_recall", quality.recall());
    }
    out.notes
        .push(format!("{passes} passes over {} jobs", jobs.len()));
    out
}

/// Layer counters summed over traced explorations.
#[derive(Debug, Default)]
pub struct Counters {
    explorations: usize,
    evaluations: usize,
    interned: usize,
    cache_hits: usize,
    distinct: usize,
    word_ops: u64,
    designs: u64,
    batched: u64,
}

impl Counters {
    /// Adds one traced exploration.
    pub fn add(&mut self, e: &replica::Explored) {
        self.explorations += 1;
        self.evaluations += e.evaluations;
        self.interned += e.interned;
        self.cache_hits += e.cache_hits;
        self.distinct += e.distinct;
        self.word_ops += e.word_ops;
        self.designs += e.estimator.designs;
        self.batched += e.estimator.batched;
    }
}

fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The moga, explore, cache and estimator metrics of traced
/// explorations that ran under root spans named `root`.
pub fn record_explore_layers(out: &mut Outcome, totals: &Totals, root: &str, c: &Counters) {
    let n = c.explorations as f64;
    for (metric, span_name) in [
        ("moga.select_s", "moga.select"),
        ("moga.breed_s", "moga.breed"),
        ("moga.reconcile_s", "moga.reconcile"),
        ("explore.eval_s", "explore.eval"),
        ("explore.materialize_s", "explore.materialize"),
        ("estimator.cohort_s", "estimator.cohort"),
    ] {
        out.set(metric, totals.per_root(span_name, root));
    }
    out.set("moga.word_ops", share(c.word_ops as f64, n));
    out.set(
        "moga.intern_share",
        share(c.interned as f64, c.evaluations as f64),
    );
    out.set(
        "cache.hit_rate",
        share(c.cache_hits as f64, c.evaluations as f64),
    );
    out.set("cache.distinct", share(c.distinct as f64, n));
    out.set("estimator.designs", share(c.designs as f64, n));
    out.set(
        "estimator.vector_share",
        share(c.batched as f64, c.designs as f64),
    );
}
