//! Machine-readable report records shared by the bench harness and the
//! batch runner — one serializer ([`crate::Json`]), one schema test
//! suite.
//!
//! The pipeline-bench schema is deliberately flat so CI can diff it
//! across PRs:
//!
//! ```json
//! {
//!   "bench": "pipeline",
//!   "spec": {"wstore": 65536, "precision": "int8"},
//!   "configs": [
//!     {"name": "serial_uncached", "wall_s": 1.23,
//!      "evaluations": 12100, "distinct_evaluations": 12100, "cache_hits": 0},
//!     ...
//!   ]
//! }
//! ```

use crate::json::Json;

/// One measured pipeline configuration: wall-clock plus the evaluation
/// accounting of the run.
#[derive(Debug, Clone)]
pub struct ConfigRecord {
    /// Configuration name, e.g. `"serial_uncached"` or `"shared_cache_run2"`.
    pub name: String,
    /// Wall-clock of the measured run in seconds.
    pub wall_s: f64,
    /// Genome evaluations the GA requested.
    pub evaluations: usize,
    /// Evaluations that reached the estimator.
    pub distinct_evaluations: usize,
    /// Evaluations served from memory (cache or intra-batch dedup).
    pub cache_hits: usize,
}

impl ConfigRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.clone())),
            ("wall_s", Json::from(self.wall_s)),
            ("evaluations", Json::from(self.evaluations)),
            (
                "distinct_evaluations",
                Json::from(self.distinct_evaluations),
            ),
            ("cache_hits", Json::from(self.cache_hits)),
        ])
    }
}

/// The full `BENCH_pipeline.json` document.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Specification capacity.
    pub wstore: u64,
    /// Specification precision name.
    pub precision: String,
    /// One record per measured configuration, in measurement order.
    pub configs: Vec<ConfigRecord>,
}

impl PipelineReport {
    /// Serializes the report to its canonical JSON text.
    pub fn to_json_string(&self) -> String {
        Json::obj([
            ("bench", Json::from("pipeline")),
            (
                "spec",
                Json::obj([
                    ("wstore", Json::from(self.wstore)),
                    ("precision", Json::from(self.precision.clone())),
                ]),
            ),
            (
                "configs",
                Json::Arr(self.configs.iter().map(ConfigRecord::to_json).collect()),
            ),
        ])
        .to_string()
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string() + "\n")
    }
}

/// Resolves the `BENCH_PIPELINE_JSON` environment knob: unset → `None`
/// (no file written); `"1"`/`"true"` → the default `BENCH_pipeline.json`
/// in the current directory; anything else → that path.
pub fn pipeline_json_path() -> Option<std::path::PathBuf> {
    let raw = std::env::var("BENCH_PIPELINE_JSON").ok()?;
    match raw.as_str() {
        "" => None,
        "1" | "true" => Some("BENCH_pipeline.json".into()),
        path => Some(path.into()),
    }
}

/// One measured dominance-kernel case of the `moga_kernel` bench: the
/// point-set shape, the tiered kernel's counters, the naive `N·(N−1)/2`
/// pairwise bill it replaces, and the wall clock.
///
/// The counters are **deterministic** for a given build and input, so
/// CI's regression guard diffs them against the committed
/// `BENCH_moga.json` baseline with a tight (5%) tolerance — stable even
/// on a noisy 1-CPU runner, unlike wall-clock.
#[derive(Debug, Clone)]
pub struct MogaKernelRecord {
    /// Number of points sorted.
    pub n: usize,
    /// Objectives per point.
    pub m: usize,
    /// Dominance comparisons / search probes the tiered kernel performed.
    pub comparisons: u64,
    /// 64-lane mask words the presorted M=4 fill produced (0 for
    /// the sweep/staircase/pairwise tiers; the M=4 tier bills here
    /// instead of `comparisons`).
    pub word_ops: u64,
    /// The naive kernel's pairwise bill for the same input.
    pub naive_comparisons: u64,
    /// Bit-distinct rows among the `n` points.
    pub distinct: usize,
    /// Effective bill (`comparisons + word_ops`) of sorting only the
    /// distinct rows: a kernel that collapses copies never exceeds it.
    pub distinct_bill: u64,
    /// Buffers the kernel allocated (0 once the scratch is warm).
    pub allocations: u64,
    /// Fronts produced.
    pub fronts: usize,
    /// Wall-clock of one warm sort in seconds.
    pub wall_s: f64,
}

impl MogaKernelRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("m", Json::from(self.m)),
            ("comparisons", Json::from(self.comparisons)),
            ("word_ops", Json::from(self.word_ops)),
            ("naive_comparisons", Json::from(self.naive_comparisons)),
            ("distinct", Json::from(self.distinct)),
            ("distinct_bill", Json::from(self.distinct_bill)),
            ("allocations", Json::from(self.allocations)),
            ("fronts", Json::from(self.fronts)),
            ("wall_s", Json::from(self.wall_s)),
        ])
    }
}

/// The full `BENCH_moga.json` document: the dominance kernel's perf
/// trajectory, one record per `(N, M)` case.
#[derive(Debug, Clone)]
pub struct MogaKernelReport {
    /// One record per measured case, in measurement order.
    pub cases: Vec<MogaKernelRecord>,
}

impl MogaKernelReport {
    /// Serializes the report to its canonical JSON text.
    pub fn to_json_string(&self) -> String {
        Json::obj([
            ("bench", Json::from("moga_kernel")),
            (
                "cases",
                Json::Arr(self.cases.iter().map(MogaKernelRecord::to_json).collect()),
            ),
        ])
        .to_string()
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string() + "\n")
    }
}

/// Resolves the `BENCH_MOGA_JSON` environment knob: unset → `None` (no
/// file written); `"1"`/`"true"` → the default `BENCH_moga.json` in the
/// current directory; anything else → that path.
pub fn moga_json_path() -> Option<std::path::PathBuf> {
    let raw = std::env::var("BENCH_MOGA_JSON").ok()?;
    match raw.as_str() {
        "" => None,
        "1" | "true" => Some("BENCH_moga.json".into()),
        path => Some(path.into()),
    }
}

/// One measured cohort case of the `estimator_cohort` bench: the cohort
/// shape, the batched kernel's counters, and the wall clock of one warm
/// pass.
///
/// As with [`MogaKernelRecord`], the counters — not the wall-clock — are
/// what CI's regression guard diffs against the committed
/// `BENCH_estimator.json` baseline: `allocations` must stay 0 once warm,
/// and `designs` must equal the cohort size exactly.
#[derive(Debug, Clone)]
pub struct EstimatorCohortRecord {
    /// Designs in the cohort.
    pub cohort: usize,
    /// Precision name of the cohort's specification, or `"mixed"`.
    pub precision: String,
    /// Designs the kernel estimated (must equal `cohort`).
    pub designs: u64,
    /// Finish lanes that went through the vector path.
    pub batched: u64,
    /// Finish lanes that fell back to the scalar block (remainders and
    /// non-vector hosts).
    pub scalar_fallbacks: u64,
    /// Scratch growth during the measured (warm) passes — 0 by contract.
    pub allocations: u64,
    /// Wall-clock of one warm cohort pass in seconds.
    pub wall_s: f64,
}

impl EstimatorCohortRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cohort", Json::from(self.cohort)),
            ("precision", Json::from(self.precision.clone())),
            ("designs", Json::from(self.designs)),
            ("batched", Json::from(self.batched)),
            ("scalar_fallbacks", Json::from(self.scalar_fallbacks)),
            ("allocations", Json::from(self.allocations)),
            ("wall_s", Json::from(self.wall_s)),
        ])
    }
}

/// The full `BENCH_estimator.json` document: the batched estimator's
/// counters, one record per cohort case, plus whether the vector path
/// was available on the measuring host (so consumers can interpret the
/// `batched`/`scalar_fallbacks` split).
#[derive(Debug, Clone)]
pub struct EstimatorReport {
    /// Whether the runtime-dispatched vector kernel was active.
    pub vector: bool,
    /// One record per measured case, in measurement order.
    pub cases: Vec<EstimatorCohortRecord>,
}

impl EstimatorReport {
    /// Serializes the report to its canonical JSON text.
    pub fn to_json_string(&self) -> String {
        Json::obj([
            ("bench", Json::from("estimator_cohort")),
            ("vector", Json::from(self.vector)),
            (
                "cases",
                Json::Arr(
                    self.cases
                        .iter()
                        .map(EstimatorCohortRecord::to_json)
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string() + "\n")
    }
}

/// Resolves the `BENCH_ESTIMATOR_JSON` environment knob: unset → `None`
/// (no file written); `"1"`/`"true"` → the default `BENCH_estimator.json`
/// in the current directory; anything else → that path.
pub fn estimator_json_path() -> Option<std::path::PathBuf> {
    let raw = std::env::var("BENCH_ESTIMATOR_JSON").ok()?;
    match raw.as_str() {
        "" => None,
        "1" | "true" => Some("BENCH_estimator.json".into()),
        path => Some(path.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_report_schema_is_stable() {
        let report = PipelineReport {
            wstore: 65536,
            precision: "int8".to_owned(),
            configs: vec![
                ConfigRecord {
                    name: "serial_uncached".to_owned(),
                    wall_s: 0.25,
                    evaluations: 12100,
                    distinct_evaluations: 12100,
                    cache_hits: 0,
                },
                ConfigRecord {
                    name: "shared_cache_run2".to_owned(),
                    wall_s: 0.5,
                    evaluations: 12100,
                    distinct_evaluations: 0,
                    cache_hits: 12100,
                },
            ],
        };
        let text = report.to_json_string();
        assert!(
            text.starts_with(r#"{"bench":"pipeline","spec":{"wstore":65536,"precision":"int8"}"#)
        );
        assert!(text.contains(r#""name":"serial_uncached","wall_s":0.25,"evaluations":12100"#));
        assert!(text.contains(r#""distinct_evaluations":12100,"cache_hits":0}"#));
        assert!(text.contains(
            r#"{"name":"shared_cache_run2","wall_s":0.5,"evaluations":12100,"distinct_evaluations":0,"cache_hits":12100}"#
        ));
        // The report is valid JSON by our own parser.
        Json::parse(&text).unwrap();
    }

    #[test]
    fn moga_kernel_report_schema_is_stable() {
        let report = MogaKernelReport {
            cases: vec![MogaKernelRecord {
                n: 1024,
                m: 3,
                comparisons: 40_000,
                word_ops: 0,
                naive_comparisons: 523_776,
                distinct: 1024,
                distinct_bill: 40_000,
                allocations: 0,
                fronts: 17,
                wall_s: 0.001,
            }],
        };
        let text = report.to_json_string();
        assert!(text.starts_with(r#"{"bench":"moga_kernel","cases":["#));
        assert!(text.contains(r#""n":1024,"m":3,"comparisons":40000"#));
        assert!(text.contains(r#""comparisons":40000,"word_ops":0"#));
        assert!(text.contains(
            r#""naive_comparisons":523776,"distinct":1024,"distinct_bill":40000,"allocations":0,"fronts":17"#
        ));
        Json::parse(&text).unwrap();
    }

    #[test]
    fn estimator_report_schema_is_stable() {
        let report = EstimatorReport {
            vector: true,
            cases: vec![EstimatorCohortRecord {
                cohort: 1024,
                precision: "int8".to_owned(),
                designs: 1024,
                batched: 1024,
                scalar_fallbacks: 0,
                allocations: 0,
                wall_s: 0.0005,
            }],
        };
        let text = report.to_json_string();
        assert!(text.starts_with(r#"{"bench":"estimator_cohort","vector":true,"cases":["#));
        assert!(text.contains(r#""cohort":1024,"precision":"int8","designs":1024"#));
        assert!(text.contains(r#""batched":1024,"scalar_fallbacks":0,"allocations":0"#));
        Json::parse(&text).unwrap();
    }
}
