//! Pieces every workload shares: run settings, the result record, the
//! exact-front references and the quality accumulator.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use sega_dcim::cells::Technology;
use sega_dcim::estimator::OperatingConditions;
use sega_dcim::explore::ParetoSolution;
use sega_dcim::{exhaustive_front, UserSpec};

use crate::checks::{front_bits, Digest, Ledger};
use crate::common::{Latency, Timed};
use crate::quality::Reference;
use crate::trace::Span;

/// How many times each run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `sega-dcim` CLI binary (the serve workload's daemon).
    pub sega_dcim: PathBuf,
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted and failed.
    pub ledger: Ledger,
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// Recorded spans (traced runs).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The fixed technology and operating conditions of every job.
pub fn setting() -> (Technology, OperatingConditions) {
    (Technology::tsmc28(), OperatingConditions::paper_default())
}

/// Exact-front references of `specs`, and the mean `exhaustive_front`
/// time per spec in seconds. Computed outside every timed region.
pub fn references(specs: &[UserSpec]) -> (Vec<Reference>, f64) {
    let (tech, conditions) = setting();
    let mut elapsed = 0.0;
    let refs = specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            let front = exhaustive_front(spec, &tech, &conditions);
            elapsed += t0.elapsed().as_secs_f64();
            Reference::new(&front)
        })
        .collect();
    (refs, elapsed / specs.len().max(1) as f64)
}

/// Accumulates `front_hv_ratio` and `front_recall` over ops. Fronts are
/// memoized by content, so a front repeated on a later pass costs one
/// lookup.
#[derive(Debug, Default)]
pub struct Quality {
    ratios: Vec<f64>,
    recalled: usize,
    exact: usize,
    memo: HashMap<(usize, Digest), (f64, usize)>,
}

impl Quality {
    /// Adds one op's front for the spec whose reference is `refs[spec]`.
    pub fn add(&mut self, refs: &[Reference], spec: usize, front: &[ParetoSolution]) {
        let bits: Vec<u64> = front_bits(front).into_iter().flatten().collect();
        let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        let key = (spec, Digest::of(&bytes));
        let reference = &refs[spec];
        let (ratio, recalled) = *self
            .memo
            .entry(key)
            .or_insert_with(|| (reference.hv_ratio(front), reference.recalled(front)));
        self.ratios.push(ratio);
        self.recalled += recalled;
        self.exact += reference.len();
    }

    /// Geometric mean of the per-op hypervolume ratios.
    pub fn hv_ratio(&self) -> f64 {
        crate::common::geomean(&self.ratios)
    }

    /// Exact-front points found, pooled over ops.
    pub fn recall(&self) -> f64 {
        self.recalled as f64 / self.exact.max(1) as f64
    }
}

/// Records `setup_s`, the median of the run's set-up times at the
/// reference host's speed (see [`Timed::at_reference_speed`]).
pub fn record_setup(out: &mut Outcome, setups: &[Timed]) {
    let scaled: Vec<f64> = setups.iter().map(Timed::at_reference_speed).collect();
    out.set("setup_s", crate::common::median(&scaled));
    let ms: Vec<String> = setups
        .iter()
        .map(|s| format!("{:.2}", s.wall_s * 1e3))
        .collect();
    out.notes.push(format!("set-up wall ms: {}", ms.join(" ")));
}

/// Records `ops_per_s`, `op_ms_p50` and `op_ms_tail` of the ops of
/// `clients` closed-loop clients, every time at the reference host's
/// speed (see [`Timed::at_reference_speed`]). `ops_per_s` is the clients
/// over the mean latency, a closed loop's throughput (Little's law).
pub fn record_latency(out: &mut Outcome, ops: &[Timed], clients: usize) {
    let scaled: Vec<f64> = ops.iter().map(Timed::at_reference_speed).collect();
    let latency = Latency::of(&scaled);
    let n = scaled.len() as f64;
    out.set("ops_per_s", clients as f64 * n / scaled.iter().sum::<f64>());
    out.set("op_ms_p50", latency.p50_ms);
    out.set("op_ms_tail", latency.tail_ms);
    let wall: Vec<f64> = ops.iter().map(|t| t.wall_s).collect();
    let slowdowns: Vec<f64> = ops.iter().map(|t| t.slowdown).collect();
    let raw = Latency::of(&wall);
    out.notes.push(format!(
        "{n} ops from {clients} client(s); wall time p50 {:.3} ms, p{} {:.3} ms; \
         median host slowdown {:.3}",
        raw.p50_ms,
        raw.tail_pct,
        raw.tail_ms,
        crate::common::median(&slowdowns)
    ));
    out.notes.push(format!(
        "op_ms_tail is p{} over {} ops ({} beyond it)",
        latency.tail_pct,
        latency.count,
        latency.beyond()
    ));
}
