//! Floating-point periphery templates: FP pre-alignment and INT-to-FP
//! conversion (paper Fig. 3, right side).

use super::primitives::{adder, ensure_shifter};
use super::{zero_extend, GenResult};
use crate::ir::Signal::{Bit, Net};
use crate::ir::{Design, Module, Signal};
use sega_cells::{ceil_log2, StandardCell};

/// Ensures the FP pre-alignment module `palign_h{h}_be{be}_bm{bm}` exists:
/// an exponent max tree of `h−1` comparators (modeled as `be`-bit adders,
/// per the paper's comparator simplification), `h` exponent-offset
/// subtractors, and `h` mantissa barrel shifters. Ports: `xe[h*be-1:0]`,
/// `xm[h*bm-1:0]`, `xma[h*bm-1:0]`, `xemax[be-1:0]`.
///
/// Behavioral note: the paper's cost model reduces the comparator to an
/// adder without the max-select mux, and this template follows the same
/// abstraction — the max tree's *selection* is represented by pass-through
/// wiring while its *logic cost* is the comparator chain. The bit-accurate
/// max/align behaviour is implemented (and verified) in `sega-sim`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_pre_alignment(design: &mut Design, h: u32, be: u32, bm: u32) -> GenResult {
    assert!(h >= 1 && be >= 1 && bm >= 2, "invalid pre-alignment shape");
    let name = format!("palign_h{h}_be{be}_bm{bm}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let add = adder(design, be)?;
    let shifter = ensure_shifter(design, bm)?;
    let amt_w = ceil_log2(bm as u64);
    let mut m = Module::new(name);
    let xe = m.add_input("xe", h * be);
    let xm = m.add_input("xm", h * bm);
    let xma = m.add_output("xma", h * bm);
    let xemax = m.add_output("xemax", be);

    // Exponent max tree: pairwise comparator reduction. Each comparator is
    // a be-bit adder (paper Table II); the winning operand is passed through
    // by wiring (see the module docs).
    let mut level: Vec<Signal> = (0..h)
        .map(|i| Signal::slice(xe, (i + 1) * be - 1, i * be))
        .collect();
    let mut depth = 0u32;
    let mut cmp_id = 0u32;
    while level.len() > 1 {
        let pairs = level.len() / 2;
        let mut next = Vec::with_capacity(pairs + level.len() % 2);
        for j in 0..pairs {
            let wire = m.add_wire(format_args!("cmp{depth}_{j}"), be + 1);
            m.add_instance(
                design,
                format_args!("c{cmp_id}"),
                add,
                &[
                    ("a", level[2 * j]),
                    ("b", level[2 * j + 1]),
                    ("sum", Net(wire)),
                ],
            );
            cmp_id += 1;
            // The larger operand propagates; structurally we carry the
            // first operand's wiring (selection is abstracted, see docs).
            next.push(level[2 * j]);
        }
        if level.len() % 2 == 1 {
            next.push(*level.last().expect("odd operand"));
        }
        level = next;
        depth += 1;
    }
    m.add_assign(Net(xemax), level.pop().expect("max survivor"));

    // Per-input offset subtractor and mantissa shifter.
    for i in 0..h {
        let diff = m.add_wire(format_args!("off{i}"), be + 1);
        m.add_instance(
            design,
            format_args!("sub{i}"),
            add,
            &[
                ("a", Net(xemax)),
                ("b", Signal::slice(xe, (i + 1) * be - 1, i * be)),
                ("sum", Net(diff)),
            ],
        );
        let amount = if amt_w <= be {
            Signal::slice(diff, amt_w - 1, 0)
        } else {
            zero_extend(&mut m, Signal::slice(diff, be - 1, 0), be, amt_w)
        };
        m.add_instance(
            design,
            format_args!("sh{i}"),
            shifter,
            &[
                ("d", Signal::slice(xm, (i + 1) * bm - 1, i * bm)),
                ("amount", amount),
                ("y", Signal::slice(xma, (i + 1) * bm - 1, i * bm)),
            ],
        );
    }
    design.add_module(m)
}

/// Ensures the INT-to-FP converter `i2f_br{br}_be{be}` exists: a
/// leading-one detector over the `br`-bit array result (an OR reduction
/// chain, `br` OR gates), a `br`-bit normalizing barrel shifter, and a
/// `(be+1)`-bit exponent adder. Ports: `d[br-1:0]`, `ebase[be:0]`,
/// `ym[br-1:0]`, `ye[be+1:0]`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_int_to_fp(design: &mut Design, br: u32, be: u32) -> GenResult {
    assert!(br >= 2 && be >= 1, "invalid converter shape");
    let name = format!("i2f_br{br}_be{be}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let shifter = ensure_shifter(design, br)?;
    let eadder = adder(design, be + 1)?;
    let amt_w = ceil_log2(br as u64);
    let mut m = Module::new(name);
    let d = m.add_input("d", br);
    let ebase = m.add_input("ebase", be + 1);
    let ym = m.add_output("ym", br);
    let ye = m.add_output("ye", be + 2);
    // Leading-one detection: OR prefix chain from the MSB (`br` OR gates,
    // the MSB gate folding in a constant 0).
    let pre = m.add_wire("pre", br);
    m.add_cell(
        format_args!("or{}", br - 1),
        StandardCell::Or,
        &[
            ("a", Bit(d, br - 1)),
            ("b", Signal::zeros(1)),
            ("y", Bit(pre, br - 1)),
        ],
    );
    for i in (0..br - 1).rev() {
        m.add_cell(
            format_args!("or{i}"),
            StandardCell::Or,
            &[("a", Bit(d, i)), ("b", Bit(pre, i + 1)), ("y", Bit(pre, i))],
        );
    }
    // Normalizing shift (amount wired from the prefix's low bits; exact
    // priority encoding is behavioral, see module docs on `palign`).
    m.add_instance(
        design,
        "norm0",
        shifter,
        &[
            ("d", Net(d)),
            ("amount", Signal::slice(pre, amt_w - 1, 0)),
            ("y", Net(ym)),
        ],
    );
    // Exponent adjustment.
    let offset = zero_extend(&mut m, Signal::slice(pre, amt_w - 1, 0), amt_w, be + 1);
    m.add_instance(
        design,
        "eadj0",
        eadder,
        &[("a", Net(ebase)), ("b", offset), ("sum", Net(ye))],
    );
    design.add_module(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ModuleId;
    use crate::stats::unit_cost_of_module;
    use sega_cells::Cost;
    use sega_estimator::components;

    fn cost(d: &Design, id: ModuleId) -> Cost {
        unit_cost_of_module(d, &d[id].name).unwrap()
    }

    const EPS: f64 = 1e-6;

    #[test]
    fn pre_alignment_matches_cost_model() {
        for (h, be, bm) in [(2u32, 4u32, 4u32), (128, 8, 8), (64, 5, 11), (100, 8, 24)] {
            let mut d = Design::new();
            let id = ensure_pre_alignment(&mut d, h, be, bm).unwrap();
            let cost = cost(&d, id);
            let model = components::pre_alignment(h, be, bm);
            assert!(
                (cost.area - model.area).abs() < EPS,
                "h={h} be={be} bm={bm}: {} vs {}",
                cost.area,
                model.area
            );
            assert!((cost.energy - model.energy).abs() < EPS);
        }
    }

    #[test]
    fn int_to_fp_matches_cost_model() {
        for (br, be) in [(16u32, 4u32), (23, 8), (59, 8)] {
            let mut d = Design::new();
            let id = ensure_int_to_fp(&mut d, br, be).unwrap();
            let cost = cost(&d, id);
            let model = components::int_to_fp_converter(br, be);
            assert!(
                (cost.area - model.area).abs() < EPS,
                "br={br} be={be}: {} vs {}",
                cost.area,
                model.area
            );
        }
    }

    #[test]
    fn fp_blocks_validate() {
        let mut d = Design::new();
        ensure_pre_alignment(&mut d, 16, 8, 8).unwrap();
        let top = ensure_int_to_fp(&mut d, 23, 8).unwrap();
        d.set_top_id(top);
        d.validate().unwrap();
    }
}
