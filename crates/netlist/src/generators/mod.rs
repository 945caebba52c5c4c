//! Template-based DCIM generators (paper §III-C and Fig. 3).
//!
//! Each generator builds (and memoizes, by deterministic name) one module of
//! the synthesizable DCIM architecture. The cell inventory of every template
//! **matches the `sega-estimator` cost model exactly** — `stats::audit`
//! cross-checks this — so the estimator the design space explorer optimizes
//! with is provably the hardware the generator emits.
//!
//! Where the paper's model abstracts a block (the exponent max tree is
//! modeled as comparators only; the INT-to-FP leading-zero count is an OR
//! reduction), the generated topology follows the same abstraction and the
//! bit-accurate behaviour lives in `sega-sim` instead; these points are
//! documented on the individual generators.

mod datapath;
mod fp;
mod macro_top;
mod primitives;

pub use datapath::{
    ensure_adder_tree, ensure_compute_unit, ensure_input_buffer, ensure_result_fusion,
    ensure_shift_accumulator,
};
pub use fp::{ensure_int_to_fp, ensure_pre_alignment};
pub use macro_top::{ensure_column, generate_macro};
pub use primitives::{ensure_adder, ensure_multiplier, ensure_selector, ensure_shifter};

use crate::ir::{Module, ModuleId, NetlistError, Signal};

/// Pads `signal` (of width `from`) with zeros up to `to` bits.
///
/// # Panics
///
/// Panics if `to < from`.
pub(crate) fn zero_extend(m: &mut Module, signal: Signal, from: u32, to: u32) -> Signal {
    assert!(to >= from, "cannot zero-extend {from} bits down to {to}");
    if to == from {
        signal
    } else {
        m.concat(&[Signal::zeros(to - from), signal])
    }
}

/// A constant that fits in `width` bits (masking off high bits, which only
/// occurs in degenerate single-chunk configurations).
pub(crate) fn fitted_const(width: u32, value: u64) -> Signal {
    let masked = if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    };
    Signal::Const {
        width,
        value: masked,
    }
}

/// Shorthand for the `Result` the generators return: the id of the
/// (possibly memoized) module.
pub(crate) type GenResult = Result<ModuleId, NetlistError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_extend_identity() {
        let s = Signal::zeros(4);
        assert_eq!(zero_extend(&mut Module::new("m"), s, 4, 4), s);
    }

    #[test]
    fn zero_extend_pads_msbs() {
        let mut m = Module::new("m");
        let x = m.add_wire("x", 4);
        match zero_extend(&mut m, Signal::Net(x), 4, 6) {
            Signal::Concat(c) => {
                assert_eq!(m.concat_parts(c), [Signal::zeros(2), Signal::Net(x)]);
            }
            other => panic!("expected concat, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot zero-extend")]
    fn zero_extend_rejects_shrink() {
        let _ = zero_extend(&mut Module::new("m"), Signal::zeros(8), 8, 4);
    }

    #[test]
    fn fitted_const_masks() {
        assert_eq!(fitted_const(2, 7), Signal::Const { width: 2, value: 3 });
        assert_eq!(fitted_const(8, 7), Signal::Const { width: 8, value: 7 });
    }
}
