//! # sega-bench — the experiment harness
//!
//! Shared workload builders and sweep configurations used by
//!
//! * the **figure/table binaries** (`table1`, `table_cost_models`, `fig6`,
//!   `fig7`, `fig8`) that regenerate every evaluation artifact of the
//!   paper, and
//! * the **criterion benches** (`estimator`, `dse`, `generation`,
//!   `simulator`, `ablation`).
//!
//! Run `cargo run -p sega-bench --bin fig7` (etc.) to print a figure's data
//! series with the paper's reference values alongside.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use sega_dcim::{
    explore_pareto_with, ExplorationResult, PipelineOptions, SharedEvalCache, UserSpec,
};
use sega_estimator::{DcimDesign, OperatingConditions, Precision};
use sega_moga::Nsga2Config;
use sega_parallel::{available_threads, Pool};

pub mod json;

/// The two Fig. 6 design points (N=32, L=16, H=128, 8K weights), INT8 and
/// BF16 — `k = 4` balances the area/throughput trade at the paper's
/// geometry.
pub fn fig6_designs() -> (DcimDesign, DcimDesign) {
    let int8 = DcimDesign::for_precision(Precision::Int8, 32, 128, 16, 4)
        .expect("paper geometry is valid");
    let bf16 = DcimDesign::for_precision(Precision::Bf16, 32, 128, 16, 4)
        .expect("paper geometry is valid");
    (int8, bf16)
}

/// The precision sweep of Fig. 7, in presentation order.
pub const FIG7_PRECISIONS: [Precision; 8] = [
    Precision::Int2,
    Precision::Int4,
    Precision::Int8,
    Precision::Int16,
    Precision::Fp8,
    Precision::Bf16,
    Precision::Fp16,
    Precision::Fp32,
];

/// The `Wstore` sweep of Fig. 8 (§IV: "from 4K to 128K").
pub const FIG8_WSTORE: [u64; 6] = [4096, 8192, 16384, 32768, 65536, 131072];

/// The exploration budget the experiment binaries use: large enough for
/// converged fronts, small enough to finish the whole figure in seconds.
pub fn experiment_nsga_config(seed: u64) -> Nsga2Config {
    Nsga2Config {
        population: 60,
        generations: 60,
        seed,
        ..Default::default()
    }
}

/// A quick exploration budget for smoke tests and criterion benches.
pub fn quick_nsga_config(seed: u64) -> Nsga2Config {
    Nsga2Config {
        population: 24,
        generations: 12,
        seed,
        ..Default::default()
    }
}

/// Explores one `(wstore, precision)` point at the experiment budget.
pub fn explore_point(wstore: u64, precision: Precision, seed: u64) -> ExplorationResult {
    explore_point_with(wstore, precision, seed, PipelineOptions::default())
}

/// [`explore_point`] with explicit [`PipelineOptions`].
pub fn explore_point_with(
    wstore: u64,
    precision: Precision,
    seed: u64,
    pipeline: PipelineOptions,
) -> ExplorationResult {
    let spec = UserSpec::new(wstore, precision).expect("experiment specs are valid");
    explore_pareto_with(
        &spec,
        &sega_cells::Technology::tsmc28(),
        &OperatingConditions::paper_default(),
        &experiment_nsga_config(seed),
        pipeline,
    )
}

/// Explores a whole sweep of `(wstore, precision, seed)` points
/// concurrently — the figure binaries' workhorse. Each point is an
/// independent seeded run on one of up to [`available_threads`] scoped
/// threads, and all points share one
/// [`SharedEvalCache`]: two points with the same `(wstore, precision)`
/// reuse every estimate the first one produced. The fan-out and the
/// sharing change wall-clock only; results come back in input order.
pub fn explore_sweep(points: &[(u64, Precision, u64)]) -> Vec<ExplorationResult> {
    explore_sweep_on(points, &Arc::new(SharedEvalCache::new()))
}

/// [`explore_sweep`] accumulating into a caller-provided cache, so
/// successive sweeps (e.g. bench iterations) reuse each other's
/// estimates.
pub fn explore_sweep_on(
    points: &[(u64, Precision, u64)],
    cache: &Arc<SharedEvalCache>,
) -> Vec<ExplorationResult> {
    Pool::new(available_threads()).par_map(points, |&(wstore, precision, seed)| {
        let pipeline = PipelineOptions {
            threads: 1,
            shared_cache: Some(Arc::clone(cache)),
            ..Default::default()
        };
        explore_point_with(wstore, precision, seed, pipeline)
    })
}

/// Deterministic pseudo-random signed integers in the `bits`-bit range —
/// the synthetic MVM workloads driving the simulator benches.
pub fn int_workload(count: usize, bits: u32, seed: u64) -> Vec<i64> {
    let lo = -(1i64 << (bits - 1));
    let span = 1i64 << bits;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lo + (state % span as u64) as i64
        })
        .collect()
}

/// Deterministic pseudo-random reals in `[-scale, scale]` for FP workloads.
pub fn fp_workload(count: usize, scale: f64, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            (unit * 2.0 - 1.0) * scale
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_designs_store_8k() {
        let (a, b) = fig6_designs();
        assert_eq!(a.wstore(), 8192);
        assert_eq!(b.wstore(), 8192);
        assert!(!a.is_float() && b.is_float());
    }

    #[test]
    fn int_workload_respects_range() {
        for bits in [2u32, 4, 8, 16] {
            let w = int_workload(1000, bits, 42);
            let lo = -(1i64 << (bits - 1));
            let hi = (1i64 << (bits - 1)) - 1;
            assert!(w.iter().all(|&x| x >= lo && x <= hi), "bits={bits}");
            // Not degenerate.
            assert!(w.iter().any(|&x| x != w[0]));
        }
    }

    #[test]
    fn fp_workload_respects_scale() {
        let w = fp_workload(1000, 3.0, 7);
        assert!(w.iter().all(|&x| x.abs() <= 3.0));
        assert!(w.iter().any(|&x| x < 0.0) && w.iter().any(|&x| x > 0.0));
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(int_workload(64, 8, 1), int_workload(64, 8, 1));
        assert_ne!(int_workload(64, 8, 1), int_workload(64, 8, 2));
    }
}
