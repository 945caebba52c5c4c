//! Golden trajectory test: pins what the GA finds, across commits.
//!
//! `pipeline_properties.rs` compares pipeline configurations with each
//! other at one commit, so a selection change that moved every front the
//! same way would pass there. This test pins `explore_pareto` at the
//! default budget (population 100 × 120 generations) for six corpus
//! specs and two seeds. Each run is reduced to a digest of the front's
//! objective bits, the evaluation accounting and the reported dominance
//! counters (`comparisons`, `word_ops`). Any change to breeding,
//! selection, crowding or the dominance kernel that moves one front bit
//! or one counter fails here.
//!
//! The dominance kernel's `allocations` counter is left out: it counts
//! scratch buffers, which a refactor may add or remove without changing
//! the search.

use sega_cells::Technology;
use sega_dcim::{explore_pareto, ExplorationResult, UserSpec};
use sega_estimator::{OperatingConditions, Precision};
use sega_moga::Nsga2Config;

/// 64-bit FNV-1a over a sequence of words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

fn digest(result: &ExplorationResult) -> u64 {
    let front = result
        .solutions
        .iter()
        .flat_map(|s| s.objectives().map(f64::to_bits));
    let accounting = [
        result.evaluations as u64,
        result.distinct_evaluations as u64,
        result.interned as u64,
        result.dominance.comparisons,
        result.dominance.word_ops,
    ];
    fnv1a(front.chain(accounting))
}

/// `(wstore, precision, seed, front length, digest)`.
const GOLDEN: [(u64, Precision, u64, usize, u64); 12] = [
    (4096, Precision::Int2, 7, 25, 0xe44c_077f_a4ab_df73),
    (4096, Precision::Int2, 2025, 25, 0xf691_8e9d_30a5_4b33),
    (4096, Precision::Int8, 7, 62, 0x985b_9078_dce5_8dcc),
    (4096, Precision::Int8, 2025, 62, 0x1b4e_0f44_d583_661b),
    (4096, Precision::Fp32, 7, 61, 0x9be1_3549_2dc1_be23),
    (4096, Precision::Fp32, 2025, 59, 0x6d84_fec3_aea4_0da3),
    (1 << 20, Precision::Int2, 7, 37, 0x7fa8_1dac_50b0_377d),
    (1 << 20, Precision::Int2, 2025, 37, 0x6ca3_e77f_12da_d3f6),
    (1 << 20, Precision::Int8, 7, 70, 0xcba7_c22f_d3fd_fb50),
    (1 << 20, Precision::Int8, 2025, 67, 0xeeed_2e9a_7f62_74b1),
    (1 << 20, Precision::Fp32, 7, 67, 0x9806_f837_5187_9615),
    (1 << 20, Precision::Fp32, 2025, 67, 0x93e7_a002_ebc6_b736),
];

#[test]
fn default_budget_trajectories_match_their_pins() {
    let tech = Technology::tsmc28();
    let conditions = OperatingConditions::paper_default();
    let mut mismatches = Vec::new();
    for (wstore, precision, seed, len, pinned) in GOLDEN {
        let spec = UserSpec::new(wstore, precision).expect("corpus spec");
        let config = Nsga2Config {
            seed,
            ..Default::default()
        };
        let result = explore_pareto(&spec, &tech, &conditions, &config);
        let got = (result.solutions.len(), digest(&result));
        if got != (len, pinned) {
            mismatches.push(format!(
                "({wstore}, Precision::{precision:?}, {seed}, {}, {:#018x}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "trajectories moved; observed pins:\n{}",
        mismatches.join("\n")
    );
}
