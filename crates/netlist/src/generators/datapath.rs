//! Datapath block templates: compute unit, adder tree, shift accumulator,
//! result fusion and input buffer (paper Fig. 3, left side).

use super::primitives::{adder, ensure_multiplier, ensure_selector, ensure_shifter};
use super::{fitted_const, zero_extend, GenResult};
use crate::ir::Signal::{Bit, Net};
use crate::ir::{Design, Module, Signal};
use sega_cells::{ceil_log2, StandardCell};

/// Ensures the compute unit `cu_l{l}_k{k}` exists (paper Fig. 5): an `L`:1
/// weight-bit selection gate feeding a 1-bit × `k`-bit NOR multiplier.
/// Ports: `w[l-1:0]` (inverted stored weight bits), `wsel[⌈log2 l⌉-1:0]`,
/// `xb[k-1:0]` (inverted input bits), `p[k-1:0]`.
///
/// For `l == 1` the selection gate degenerates to a wire (no MUX2 cells),
/// matching the cost model's `sel(1) = 0`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_compute_unit(design: &mut Design, l: u32, k: u32) -> GenResult {
    let name = format!("cu_l{l}_k{k}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let mul = ensure_multiplier(design, k)?;
    let sel = if l >= 2 {
        Some(ensure_selector(design, l)?)
    } else {
        None
    };
    let mut m = Module::new(name);
    let w = m.add_input("w", l);
    let sel_w = ceil_log2(l as u64).max(1);
    let wsel = m.add_input("wsel", sel_w);
    let xb = m.add_input("xb", k);
    let p = m.add_output("p", k);
    let wbit = m.add_wire("wbit", 1);
    match sel {
        Some(sel) => {
            m.add_instance(
                design,
                "wsel0",
                sel,
                &[
                    ("d", Net(w)),
                    ("sel", Signal::slice(wsel, ceil_log2(l as u64) - 1, 0)),
                    ("y", Net(wbit)),
                ],
            );
        }
        None => m.add_assign(Net(wbit), Net(w)),
    }
    m.add_instance(
        design,
        "mul0",
        mul,
        &[("xb", Net(xb)), ("wb", Net(wbit)), ("p", Net(p))],
    );
    design.add_module(m)
}

/// Ensures the adder tree `atree_h{h}_k{k}` exists: pairwise reduction of
/// `h` operands of `k` bits, one-bit width growth per level. Ports:
/// `d[h*k-1:0]`, `y[wout-1:0]` with `wout = k + ⌈log2 h⌉`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_adder_tree(design: &mut Design, h: u32, k: u32) -> GenResult {
    assert!(h >= 1 && k >= 1, "tree needs h >= 1, k >= 1");
    let name = format!("atree_h{h}_k{k}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let wout = k + ceil_log2(h as u64);
    let mut m = Module::new(name);
    let d = m.add_input("d", h * k);
    let y = m.add_output("y", wout);

    // Current operands. All operands at a level share the same width; an
    // odd operand is zero-padded one bit when carried up.
    let mut operands: Vec<Signal> = (0..h)
        .map(|i| Signal::slice(d, (i + 1) * k - 1, i * k))
        .collect();
    let mut width = k;
    let mut level = 0u32;
    while operands.len() > 1 {
        let add = adder(design, width)?;
        let pairs = operands.len() / 2;
        let mut next: Vec<Signal> = Vec::with_capacity(pairs + operands.len() % 2);
        for j in 0..pairs {
            let wire = m.add_wire(format_args!("t{level}_{j}"), width + 1);
            m.add_instance(
                design,
                format_args!("a{level}_{j}"),
                add,
                &[
                    ("a", operands[2 * j]),
                    ("b", operands[2 * j + 1]),
                    ("sum", Net(wire)),
                ],
            );
            next.push(Net(wire));
        }
        if operands.len() % 2 == 1 {
            let odd = *operands.last().expect("odd operand");
            next.push(zero_extend(&mut m, odd, width, width + 1));
        }
        operands = next;
        width += 1;
        level += 1;
    }
    let result = operands.pop().expect("one result");
    let result = zero_extend(&mut m, result, width, wout);
    m.add_assign(Net(y), result);
    design.add_module(m)
}

/// Ensures the shift accumulator `sacc_bx{bx}_h{h}` exists (paper: "it
/// requires `(Bx + log2 H)` registers, one shifter, and one adder" of that
/// width). Ports: `d[din-1:0]` (adder-tree output), `clk`, `q[w-1:0]` with
/// `w = bx + ⌈log2 h⌉`; the shift amount is hard-wired to the per-cycle
/// input chunk width `k`.
///
/// # Errors
///
/// Propagates IR construction errors; `din` must not exceed `w`.
pub fn ensure_shift_accumulator(
    design: &mut Design,
    bx: u32,
    h: u32,
    k: u32,
    din: u32,
) -> GenResult {
    let w = bx + ceil_log2(h as u64);
    assert!(din <= w, "tree output ({din}) must fit accumulator ({w})");
    let name = format!("sacc_bx{bx}_h{h}_k{k}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let shifter = if w >= 2 {
        Some(ensure_shifter(design, w)?)
    } else {
        None
    };
    let add = adder(design, w)?;
    let mut m = Module::new(name);
    let d = m.add_input("d", din);
    let clk = m.add_input("clk", 1);
    let q = m.add_output("q", w);
    let shifted = m.add_wire("shifted", w);
    let sum = m.add_wire("sum", w + 1);
    // Register bank.
    for i in 0..w {
        m.add_cell(
            format_args!("r{i}"),
            StandardCell::Dff,
            &[("d", Bit(sum, i)), ("clk", Net(clk)), ("q", Bit(q, i))],
        );
    }
    // Shift the accumulated value by the chunk width each cycle.
    match shifter {
        Some(shifter) => {
            let amt_w = ceil_log2(w as u64);
            m.add_instance(
                design,
                "sh0",
                shifter,
                &[
                    ("d", Net(q)),
                    ("amount", fitted_const(amt_w, k as u64)),
                    ("y", Net(shifted)),
                ],
            );
        }
        None => m.add_assign(Net(shifted), Net(q)),
    }
    // Accumulate the incoming partial sum.
    let operand = zero_extend(&mut m, Net(d), din, w);
    m.add_instance(
        design,
        "acc0",
        add,
        &[("a", Net(shifted)), ("b", operand), ("sum", Net(sum))],
    );
    design.add_module(m)
}

/// Ensures the result fusion unit `fuse_bw{bw}_bx{bx}_h{h}` exists: the
/// weighted (hard-wired shift) summation of `bw` accumulator outputs of
/// `bx + ⌈log2 h⌉` bits into one `w`-bit result,
/// `w = bx + ⌈log2 h⌉ + bw`, using `bw − 1` adders of width `w` in a tree.
/// Ports: `d[bw*win-1:0]`, `y[w-1:0]`.
///
/// For `bw == 1` the module is a zero-padding wire (no cells), matching the
/// cost model.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_result_fusion(design: &mut Design, bw: u32, bx: u32, h: u32) -> GenResult {
    assert!(bw >= 1, "fusion needs at least one column");
    let name = format!("fuse_bw{bw}_bx{bx}_h{h}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let win = bx + ceil_log2(h as u64);
    let w = win + bw;
    let mut m = Module::new(name);
    let d = m.add_input("d", bw * win);
    let y = m.add_output("y", w);

    // Operand j is the column-j result left-shifted by its bit position
    // (hard-wired), zero-padded to the fused width.
    let mut operands: Vec<Signal> = (0..bw)
        .map(|j| {
            let body = Signal::slice(d, (j + 1) * win - 1, j * win);
            let mut parts = Vec::new();
            if w > win + j {
                parts.push(Signal::zeros(w - win - j));
            }
            parts.push(body);
            if j > 0 {
                parts.push(Signal::zeros(j));
            }
            if parts.len() == 1 {
                body
            } else {
                m.concat(&parts)
            }
        })
        .collect();

    if bw == 1 {
        m.add_assign(Net(y), operands.pop().expect("single operand"));
        return design.add_module(m);
    }

    let add = adder(design, w)?;
    let mut level = 0u32;
    while operands.len() > 1 {
        let pairs = operands.len() / 2;
        let mut next = Vec::with_capacity(pairs + operands.len() % 2);
        for j in 0..pairs {
            let wire = m.add_wire(format_args!("f{level}_{j}"), w + 1);
            m.add_instance(
                design,
                format_args!("fa{level}_{j}"),
                add,
                &[
                    ("a", operands[2 * j]),
                    ("b", operands[2 * j + 1]),
                    ("sum", Net(wire)),
                ],
            );
            // Truncate the carry: fused width is the full precision already.
            next.push(Signal::slice(wire, w - 1, 0));
        }
        if operands.len() % 2 == 1 {
            next.push(*operands.last().expect("odd operand"));
        }
        operands = next;
        level += 1;
    }
    m.add_assign(Net(y), operands.pop().expect("one result"));
    design.add_module(m)
}

/// Ensures the input buffer `ibuf_h{h}_bx{bx}_k{k}` exists: an `h·bx`-bit
/// register file plus, per emitted bit, a `⌈bx/k⌉`:1 chunk selector walking
/// the stored bits cycle by cycle. Ports: `d[h*bx-1:0]`, `clk`,
/// `phase[⌈log2 chunks⌉-1:0]`, `q[h*k-1:0]`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_input_buffer(design: &mut Design, h: u32, bx: u32, k: u32) -> GenResult {
    assert!(
        h >= 1 && bx >= 1 && k >= 1 && k <= bx,
        "invalid buffer shape"
    );
    let name = format!("ibuf_h{h}_bx{bx}_k{k}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let chunks = bx.div_ceil(k);
    let phase_w = ceil_log2(chunks as u64).max(1);
    let sel = if chunks >= 2 {
        Some(ensure_selector(design, chunks)?)
    } else {
        None
    };
    let mut m = Module::new(name);
    let d = m.add_input("d", h * bx);
    let clk = m.add_input("clk", 1);
    let phase = m.add_input("phase", phase_w);
    let q = m.add_output("q", h * k);
    let held = m.add_wire("held", h * bx);
    for i in 0..(h * bx) {
        m.add_cell(
            format_args!("r{i}"),
            StandardCell::Dff,
            &[("d", Bit(d, i)), ("clk", Net(clk)), ("q", Bit(held, i))],
        );
    }
    for row in 0..h {
        for j in 0..k {
            let out_bit = row * k + j;
            match sel {
                Some(sel) => {
                    let cand = m.add_wire(format_args!("c{out_bit}"), chunks);
                    for c in 0..chunks {
                        let src_bit = c * k + j;
                        let src = if src_bit < bx {
                            Bit(held, row * bx + src_bit)
                        } else {
                            Signal::zeros(1)
                        };
                        m.add_assign(Bit(cand, c), src);
                    }
                    m.add_instance(
                        design,
                        format_args!("s{out_bit}"),
                        sel,
                        &[
                            ("d", Net(cand)),
                            ("sel", Signal::slice(phase, ceil_log2(chunks as u64) - 1, 0)),
                            ("y", Bit(q, out_bit)),
                        ],
                    );
                }
                None => m.add_assign(Bit(q, out_bit), Bit(held, row * bx + j)),
            }
        }
    }
    design.add_module(m)
}

/// Helper: the adder-tree output width for `h` operands of `k` bits.
pub(crate) fn tree_output_width(h: u32, k: u32) -> u32 {
    k + ceil_log2(h as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ModuleId;
    use crate::stats::{cell_counts_of_module, unit_cost_of_module};
    use sega_cells::Cost;
    use sega_estimator::components;

    fn cost(d: &Design, id: ModuleId) -> Cost {
        unit_cost_of_module(d, &d[id].name).unwrap()
    }

    const EPS: f64 = 1e-6;

    #[test]
    fn compute_unit_matches_cost_model() {
        let (l, k) = (16u32, 4u32);
        let mut d = Design::new();
        let id = ensure_compute_unit(&mut d, l, k).unwrap();
        let cost = cost(&d, id);
        let model = sega_cells::modules::selector(l).then(sega_cells::modules::multiplier(k));
        assert!((cost.area - model.area).abs() < EPS);
        assert!((cost.energy - model.energy).abs() < EPS);
    }

    #[test]
    fn compute_unit_l1_has_no_muxes() {
        let mut d = Design::new();
        let id = ensure_compute_unit(&mut d, 1, 4).unwrap();
        let counts = cell_counts_of_module(&d, &d[id].name).unwrap();
        assert_eq!(counts.get(&StandardCell::Mux2), None);
        assert_eq!(counts.get(&StandardCell::Nor), Some(&4));
    }

    #[test]
    fn adder_tree_matches_cost_model() {
        for (h, k) in [(2u32, 4u32), (8, 2), (128, 4), (100, 3)] {
            let mut d = Design::new();
            let id = ensure_adder_tree(&mut d, h, k).unwrap();
            let cost = cost(&d, id);
            let model = components::adder_tree(h, k);
            assert!(
                (cost.area - model.area).abs() < EPS,
                "h={h} k={k}: {} vs {}",
                cost.area,
                model.area
            );
            assert!((cost.energy - model.energy).abs() < EPS);
        }
    }

    #[test]
    fn shift_accumulator_matches_cost_model() {
        let (bx, h, k) = (8u32, 128u32, 4u32);
        let mut d = Design::new();
        let din = tree_output_width(h, k);
        let id = ensure_shift_accumulator(&mut d, bx, h, k, din).unwrap();
        let cost = cost(&d, id);
        let model = components::shift_accumulator(bx, h);
        assert!((cost.area - model.area).abs() < EPS);
        assert!((cost.energy - model.energy).abs() < EPS);
    }

    #[test]
    fn result_fusion_matches_cost_model() {
        for bw in [1u32, 2, 4, 8] {
            let (bx, h) = (8u32, 128u32);
            let mut d = Design::new();
            let id = ensure_result_fusion(&mut d, bw, bx, h).unwrap();
            let cost = cost(&d, id);
            let model = components::result_fusion(bw, bx, h);
            assert!(
                (cost.area - model.area).abs() < EPS,
                "bw={bw}: {} vs {}",
                cost.area,
                model.area
            );
        }
    }

    #[test]
    fn input_buffer_matches_cost_model() {
        for (h, bx, k) in [(8u32, 8u32, 8u32), (128, 8, 4), (16, 8, 1), (4, 8, 3)] {
            let mut d = Design::new();
            let id = ensure_input_buffer(&mut d, h, bx, k).unwrap();
            let cost = cost(&d, id);
            let model = components::input_buffer(h, bx, k);
            assert!(
                (cost.area - model.area).abs() < EPS,
                "h={h} bx={bx} k={k}: {} vs {}",
                cost.area,
                model.area
            );
        }
    }

    #[test]
    fn datapath_blocks_validate() {
        let mut d = Design::new();
        ensure_compute_unit(&mut d, 16, 4).unwrap();
        ensure_adder_tree(&mut d, 16, 4).unwrap();
        ensure_shift_accumulator(&mut d, 8, 16, 4, tree_output_width(16, 4)).unwrap();
        ensure_result_fusion(&mut d, 8, 8, 16).unwrap();
        let top = ensure_input_buffer(&mut d, 16, 8, 4).unwrap();
        d.set_top_id(top);
        d.validate().unwrap();
    }
}
