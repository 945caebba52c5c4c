//! Leaf-level module templates: ripple adder, mux-tree selector, barrel
//! shifter, NOR multiplier (paper Table II / Fig. 5 structures).

use super::GenResult;
use crate::ir::Signal::{Bit, Net};
use crate::ir::{Design, Module, NetlistError, Signal};
use sega_cells::{ceil_log2, StandardCell};

/// Ensures a `w`-bit carry-ripple adder module `add{w}` exists:
/// ports `a[w-1:0]`, `b[w-1:0]`, `sum[w:0]`; 1 HA + `w−1` FA. Returns the
/// module's name.
///
/// # Errors
///
/// Propagates IR construction errors (which indicate a generator bug).
pub fn ensure_adder(design: &mut Design, w: u32) -> Result<String, NetlistError> {
    let id = adder(design, w)?;
    Ok(design[id].name.clone())
}

/// [`ensure_adder`], returning the module's id.
pub(crate) fn adder(design: &mut Design, w: u32) -> GenResult {
    assert!(w >= 1, "adder width must be >= 1");
    let name = format!("add{w}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let mut m = Module::new(name);
    let a = m.add_input("a", w);
    let b = m.add_input("b", w);
    let sum = m.add_output("sum", w + 1);
    let c = (w >= 2).then(|| m.add_wire("c", w - 1));
    // Bit 0: half adder.
    m.add_cell(
        "ha0",
        StandardCell::HalfAdder,
        &[
            ("a", Bit(a, 0)),
            ("b", Bit(b, 0)),
            ("sum", Bit(sum, 0)),
            ("cout", c.map_or(Bit(sum, 1), |c| Bit(c, 0))),
        ],
    );
    // Bits 1..w: full adders rippling the carry; last carry is sum[w].
    if let Some(c) = c {
        for i in 1..w {
            let cout = if i == w - 1 { Bit(sum, w) } else { Bit(c, i) };
            m.add_cell(
                format_args!("fa{i}"),
                StandardCell::FullAdder,
                &[
                    ("a", Bit(a, i)),
                    ("b", Bit(b, i)),
                    ("cin", Bit(c, i - 1)),
                    ("sum", Bit(sum, i)),
                    ("cout", cout),
                ],
            );
        }
    }
    design.add_module(m)
}

/// Ensures an `n`:1 single-bit selector module `sel{n}` exists (`n ≥ 2`):
/// ports `d[n-1:0]`, `sel[⌈log2 n⌉-1:0]`, `y`; a mux tree of `n−1` MUX2.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_selector(design: &mut Design, n: u32) -> GenResult {
    assert!(
        n >= 2,
        "selector needs at least 2 inputs (use a wire for 1)"
    );
    let name = format!("sel{n}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let sel_w = ceil_log2(n as u64);
    let mut m = Module::new(name);
    let d = m.add_input("d", n);
    let sel = m.add_input("sel", sel_w);
    let y = m.add_output("y", 1);

    let mut level: Vec<Signal> = (0..n).map(|i| Bit(d, i)).collect();
    let mut mux_id = 0u32;
    let mut depth = 0u32;
    while level.len() > 1 {
        let pairs = level.len() / 2;
        let mut next: Vec<Signal> = Vec::with_capacity(pairs + level.len() % 2);
        if pairs > 0 {
            let wire = m.add_wire(format_args!("l{depth}"), pairs as u32);
            for j in 0..pairs {
                let out = Bit(wire, j as u32);
                m.add_cell(
                    format_args!("mx{mux_id}"),
                    StandardCell::Mux2,
                    &[
                        ("a", level[2 * j]),
                        ("b", level[2 * j + 1]),
                        ("sel", Bit(sel, depth)),
                        ("y", out),
                    ],
                );
                mux_id += 1;
                next.push(out);
            }
        }
        if level.len() % 2 == 1 {
            next.push(*level.last().expect("nonempty level"));
        }
        level = next;
        depth += 1;
    }
    m.add_assign(Net(y), level.pop().expect("one survivor"));
    design.add_module(m)
}

/// Ensures a `w`-bit logical right barrel shifter module `shr{w}` exists
/// (`w ≥ 2`): ports `d[w-1:0]`, `amount[⌈log2 w⌉-1:0]`, `y[w-1:0]`.
///
/// Per Table II the shifter is `w` parallel `w`:1 selections (one per output
/// bit), each picking `d[i + amount]` with zero fill beyond the msb —
/// `w·(w−1)` MUX2 in total.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_shifter(design: &mut Design, w: u32) -> GenResult {
    assert!(w >= 2, "shifter width must be >= 2 (1-bit shift is a wire)");
    let name = format!("shr{w}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let sel = ensure_selector(design, w)?;
    let sel_w = ceil_log2(w as u64);
    let mut m = Module::new(name);
    let d = m.add_input("d", w);
    let amount = m.add_input("amount", sel_w);
    let y = m.add_output("y", w);
    for i in 0..w {
        // Candidate bus for output bit i: candidate a is d[i+a] (0 beyond).
        let cand = m.add_wire(format_args!("c{i}"), w);
        for a in 0..w {
            let src = if i + a < w {
                Bit(d, i + a)
            } else {
                Signal::zeros(1)
            };
            m.add_assign(Bit(cand, a), src);
        }
        m.add_instance(
            design,
            format_args!("s{i}"),
            sel,
            &[("d", Net(cand)), ("sel", Net(amount)), ("y", Bit(y, i))],
        );
    }
    design.add_module(m)
}

/// Ensures the 1-bit × `k`-bit NOR multiplier module `mul1x{k}` exists
/// (paper Fig. 5: `IN × W = INB NOR WB`): ports `xb[k-1:0]` (inverted input
/// bits), `wb` (inverted selected weight bit), `p[k-1:0]`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_multiplier(design: &mut Design, k: u32) -> GenResult {
    assert!(k >= 1, "multiplier width must be >= 1");
    let name = format!("mul1x{k}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let mut m = Module::new(name);
    let xb = m.add_input("xb", k);
    let wb = m.add_input("wb", 1);
    let p = m.add_output("p", k);
    for i in 0..k {
        m.add_cell(
            format_args!("n{i}"),
            StandardCell::Nor,
            &[("a", Bit(xb, i)), ("b", Net(wb)), ("y", Bit(p, i))],
        );
    }
    design.add_module(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::cell_counts_of_module;

    fn fresh() -> Design {
        Design::new()
    }

    fn counts(d: &Design, id: crate::ir::ModuleId) -> std::collections::HashMap<StandardCell, u64> {
        cell_counts_of_module(d, &d[id].name).unwrap()
    }

    #[test]
    fn adder_cell_inventory() {
        let mut d = fresh();
        let name = ensure_adder(&mut d, 8).unwrap();
        let counts = cell_counts_of_module(&d, &name).unwrap();
        assert_eq!(counts.get(&StandardCell::HalfAdder), Some(&1));
        assert_eq!(counts.get(&StandardCell::FullAdder), Some(&7));
    }

    #[test]
    fn adder_one_bit() {
        let mut d = fresh();
        let name = ensure_adder(&mut d, 1).unwrap();
        let counts = cell_counts_of_module(&d, &name).unwrap();
        assert_eq!(counts.get(&StandardCell::HalfAdder), Some(&1));
        assert_eq!(counts.get(&StandardCell::FullAdder), None);
    }

    #[test]
    fn adder_is_memoized() {
        let mut d = fresh();
        let a = ensure_adder(&mut d, 4).unwrap();
        let b = ensure_adder(&mut d, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(d.modules().len(), 1);
    }

    #[test]
    fn selector_uses_n_minus_one_muxes() {
        for n in [2u32, 3, 5, 8, 16, 33] {
            let mut d = fresh();
            let id = ensure_selector(&mut d, n).unwrap();
            let counts = counts(&d, id);
            assert_eq!(
                counts.get(&StandardCell::Mux2),
                Some(&((n - 1) as u64)),
                "n={n}"
            );
        }
    }

    #[test]
    fn shifter_uses_w_selectors() {
        let w = 6u32;
        let mut d = fresh();
        let id = ensure_shifter(&mut d, w).unwrap();
        let counts = counts(&d, id);
        assert_eq!(
            counts.get(&StandardCell::Mux2),
            Some(&((w * (w - 1)) as u64))
        );
    }

    #[test]
    fn multiplier_uses_k_nors() {
        let mut d = fresh();
        let id = ensure_multiplier(&mut d, 4).unwrap();
        let counts = counts(&d, id);
        assert_eq!(counts.get(&StandardCell::Nor), Some(&4));
    }

    #[test]
    fn primitives_validate() {
        let mut d = fresh();
        ensure_adder(&mut d, 5).unwrap();
        ensure_selector(&mut d, 7).unwrap();
        let top = ensure_shifter(&mut d, 9).unwrap();
        ensure_multiplier(&mut d, 3).unwrap();
        d.set_top_id(top);
        d.validate().unwrap();
    }
}
