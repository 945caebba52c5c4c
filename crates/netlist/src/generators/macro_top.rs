//! Column and whole-macro templates: the memory array plus compute
//! components assembled into the synthesizable DCIM of paper Fig. 3.

use super::datapath::{
    ensure_adder_tree, ensure_compute_unit, ensure_input_buffer, ensure_result_fusion,
    ensure_shift_accumulator, tree_output_width,
};
use super::fp::{ensure_int_to_fp, ensure_pre_alignment};
use super::GenResult;
use crate::ir::LoopSignal::Broadcast;
use crate::ir::Signal::{Bit, Net};
use crate::ir::{Design, GenerateLoop, LoopSignal, Module, ModuleId, NetId, NetlistError, Signal};
use sega_cells::{ceil_log2, StandardCell};
use sega_estimator::{DcimDesign, FpParams, IntParams};

/// Ensures one DCIM array column `col_h{h}_l{l}_k{k}_bx{bx}` exists:
/// `h·l` SRAM bit cells, `h` compute units, one adder tree and one shift
/// accumulator (paper Fig. 3, "Column N"). Ports: `xb[h*k-1:0]`,
/// `wsel`, `clk`, `wdata`, `wl[h*l-1:0]`, `q[bx+⌈log2 h⌉-1:0]`.
///
/// # Errors
///
/// Propagates IR construction errors.
pub fn ensure_column(design: &mut Design, h: u32, l: u32, k: u32, bx: u32) -> GenResult {
    let name = format!("col_h{h}_l{l}_k{k}_bx{bx}");
    if let Some(id) = design.module_id(&name) {
        return Ok(id);
    }
    let cu = ensure_compute_unit(design, l, k)?;
    let tree = ensure_adder_tree(design, h, k)?;
    let din = tree_output_width(h, k);
    let acc = ensure_shift_accumulator(design, bx, h, k, din)?;
    let wsel_w = ceil_log2(l as u64).max(1);
    let qw = bx + ceil_log2(h as u64);

    let mut m = Module::new(name);
    let xb = m.add_input("xb", h * k);
    let wsel = m.add_input("wsel", wsel_w);
    let clk = m.add_input("clk", 1);
    let wdata = m.add_input("wdata", 1);
    let wl = m.add_input("wl", h * l);
    let q = m.add_output("q", qw);
    let wq = m.add_wire("wq", h * l);
    let pr = m.add_wire("pr", h * k);
    let tsum = m.add_wire("tsum", din);

    // The memory array: L weight bits hard-wired into each compute unit.
    for i in 0..(h * l) {
        m.add_cell(
            format_args!("sram{i}"),
            StandardCell::Sram,
            &[("d", Net(wdata)), ("wl", Bit(wl, i)), ("q", Bit(wq, i))],
        );
    }
    // One compute unit per row.
    for r in 0..h {
        m.add_instance(
            design,
            format_args!("cu{r}"),
            cu,
            &[
                ("w", Signal::slice(wq, (r + 1) * l - 1, r * l)),
                ("wsel", Net(wsel)),
                ("xb", Signal::slice(xb, (r + 1) * k - 1, r * k)),
                ("p", Signal::slice(pr, (r + 1) * k - 1, r * k)),
            ],
        );
    }
    m.add_instance(design, "tree0", tree, &[("d", Net(pr)), ("y", Net(tsum))]);
    m.add_instance(
        design,
        "acc0",
        acc,
        &[("d", Net(tsum)), ("clk", Net(clk)), ("q", Net(q))],
    );
    design.add_module(m)
}

/// Generates the complete hierarchical netlist for a DCIM design point —
/// the paper's template-based generator step. Returns a validated
/// [`Design`] whose top module is the macro.
///
/// # Errors
///
/// Returns [`NetlistError::DesignPoint`] for a design point that fails
/// parameter validation. Any other error indicates a template bug: every
/// valid [`DcimDesign`] generates successfully.
///
/// # Example
///
/// ```
/// use sega_estimator::{DcimDesign, Precision};
/// use sega_netlist::generators::generate_macro;
///
/// let d = DcimDesign::for_precision(Precision::Int8, 16, 8, 4, 2)?;
/// let netlist = generate_macro(&d)?;
/// assert!(netlist.top()?.name.starts_with("dcim_int"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn generate_macro(design_point: &DcimDesign) -> Result<Design, NetlistError> {
    design_point.validate().map_err(NetlistError::DesignPoint)?;
    let mut d = Design::new();
    let top = match design_point {
        DcimDesign::Int(p) => generate_int_macro(&mut d, p)?,
        DcimDesign::Fp(p) => generate_fp_macro(&mut d, p)?,
    };
    d.set_top_id(top);
    d.validate()?;
    Ok(d)
}

/// `net[i·width +: width]` for copy `i`.
fn stride(net: NetId, width: u32) -> LoopSignal {
    LoopSignal::Strided {
        net,
        base: 0,
        width,
    }
}

/// The `n` columns as the loop `cols[c].col`, copy `c` driving its
/// `qw`-bit slice of `colq`, shared by both macro kinds.
fn column_loop(
    d: &Design,
    col: ModuleId,
    n: u32,
    qw: u32,
    [xb, wsel, clk, wdata, wl, colq]: [NetId; 6],
) -> GenerateLoop {
    let mut cols = GenerateLoop::new("cols", n);
    cols.add_member(
        d,
        "col",
        col,
        &[
            ("xb", Broadcast(Net(xb))),
            ("wsel", Broadcast(Net(wsel))),
            ("clk", Broadcast(Net(clk))),
            ("wdata", Broadcast(Net(wdata))),
            ("wl", Broadcast(Net(wl))),
            ("q", stride(colq, qw)),
        ],
    );
    cols
}

fn generate_int_macro(d: &mut Design, p: &IntParams) -> GenResult {
    let IntParams { n, h, l, k, bw, bx } = *p;
    let name = format!("dcim_int_n{n}_h{h}_l{l}_k{k}_bw{bw}_bx{bx}");
    if let Some(id) = d.module_id(&name) {
        return Ok(id);
    }
    let ibuf = ensure_input_buffer(d, h, bx, k)?;
    let col = ensure_column(d, h, l, k, bx)?;
    let fuse = ensure_result_fusion(d, bw, bx, h)?;

    let chunks = bx.div_ceil(k);
    let phase_w = ceil_log2(chunks as u64).max(1);
    let wsel_w = ceil_log2(l as u64).max(1);
    let qw = bx + ceil_log2(h as u64);
    let wf = qw + bw;
    let groups = n / bw;

    let mut m = Module::new(name);
    let xin = m.add_input("xin", h * bx);
    let clk = m.add_input("clk", 1);
    let phase = m.add_input("phase", phase_w);
    let wsel = m.add_input("wsel", wsel_w);
    let wdata = m.add_input("wdata", 1);
    let wl = m.add_input("wl", h * l);
    let y = m.add_output("y", groups * wf);
    let xb = m.add_wire("xb", h * k);
    let colq = m.add_wire("colq", n * qw);

    m.add_instance(
        d,
        "ibuf0",
        ibuf,
        &[
            ("d", Net(xin)),
            ("clk", Net(clk)),
            ("phase", Net(phase)),
            ("q", Net(xb)),
        ],
    );
    m.add_loop(column_loop(d, col, n, qw, [xb, wsel, clk, wdata, wl, colq]));
    let mut fusion = GenerateLoop::new("groups", groups);
    fusion.add_member(
        d,
        "fuse",
        fuse,
        &[("d", stride(colq, bw * qw)), ("y", stride(y, wf))],
    );
    m.add_loop(fusion);
    d.add_module(m)
}

fn generate_fp_macro(d: &mut Design, p: &FpParams) -> GenResult {
    let FpParams { n, h, l, k, be, bm } = *p;
    let name = format!("dcim_fp_n{n}_h{h}_l{l}_k{k}_be{be}_bm{bm}");
    if let Some(id) = d.module_id(&name) {
        return Ok(id);
    }
    let palign = ensure_pre_alignment(d, h, be, bm)?;
    let ibuf = ensure_input_buffer(d, h, bm, k)?;
    let col = ensure_column(d, h, l, k, bm)?;
    let fuse = ensure_result_fusion(d, bm, bm, h)?;
    let br = p.result_bits();
    let i2f = ensure_int_to_fp(d, br, be)?;

    let chunks = bm.div_ceil(k);
    let phase_w = ceil_log2(chunks as u64).max(1);
    let wsel_w = ceil_log2(l as u64).max(1);
    let qw = bm + ceil_log2(h as u64);
    let groups = n / bm;

    let mut m = Module::new(name);
    let xe = m.add_input("xe", h * be);
    let xm = m.add_input("xm", h * bm);
    let clk = m.add_input("clk", 1);
    let phase = m.add_input("phase", phase_w);
    let wsel = m.add_input("wsel", wsel_w);
    let wdata = m.add_input("wdata", 1);
    let wl = m.add_input("wl", h * l);
    let ebase = m.add_input("ebase", be + 1);
    let xemax = m.add_output("xemax", be);
    let ym = m.add_output("ym", groups * br);
    let ye = m.add_output("ye", groups * (be + 2));
    let xma = m.add_wire("xma", h * bm);
    let xb = m.add_wire("xb", h * k);
    let colq = m.add_wire("colq", n * qw);
    let fused = m.add_wire("fused", groups * br);

    m.add_instance(
        d,
        "palign0",
        palign,
        &[
            ("xe", Net(xe)),
            ("xm", Net(xm)),
            ("xma", Net(xma)),
            ("xemax", Net(xemax)),
        ],
    );
    m.add_instance(
        d,
        "ibuf0",
        ibuf,
        &[
            ("d", Net(xma)),
            ("clk", Net(clk)),
            ("phase", Net(phase)),
            ("q", Net(xb)),
        ],
    );
    m.add_loop(column_loop(d, col, n, qw, [xb, wsel, clk, wdata, wl, colq]));
    let mut fusion = GenerateLoop::new("groups", groups);
    fusion
        .add_member(
            d,
            "fuse",
            fuse,
            &[("d", stride(colq, bm * qw)), ("y", stride(fused, br))],
        )
        .add_member(
            d,
            "i2f",
            i2f,
            &[
                ("d", stride(fused, br)),
                ("ebase", Broadcast(Net(ebase))),
                ("ym", stride(ym, br)),
                ("ye", stride(ye, be + 2)),
            ],
        );
    m.add_loop(fusion);
    d.add_module(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{cell_counts, unit_cost_of_module};
    use sega_estimator::Precision;

    #[test]
    fn column_validates_and_counts_sram() {
        let mut d = Design::new();
        let id = ensure_column(&mut d, 8, 4, 2, 8).unwrap();
        d.set_top_id(id);
        d.validate().unwrap();
        let counts = crate::stats::cell_counts_of_module(&d, &d[id].name).unwrap();
        assert_eq!(counts.get(&StandardCell::Sram), Some(&32));
    }

    #[test]
    fn int_macro_generates_and_validates() {
        let dp = DcimDesign::for_precision(Precision::Int8, 16, 8, 4, 2).unwrap();
        let netlist = generate_macro(&dp).unwrap();
        let counts = cell_counts(&netlist).unwrap();
        assert_eq!(counts.get(&StandardCell::Sram), Some(&(16 * 8 * 4)));
    }

    #[test]
    fn fp_macro_generates_and_validates() {
        let dp = DcimDesign::for_precision(Precision::Bf16, 16, 8, 4, 2).unwrap();
        let netlist = generate_macro(&dp).unwrap();
        assert!(netlist.top().unwrap().name.starts_with("dcim_fp"));
        let counts = cell_counts(&netlist).unwrap();
        // FP macro must contain OR gates (leading-one detectors).
        assert!(counts.get(&StandardCell::Or).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn invalid_design_point_is_a_typed_error() {
        let bad = DcimDesign::Int(IntParams {
            n: 8,
            h: 0,
            l: 4,
            k: 2,
            bw: 4,
            bx: 4,
        });
        assert_eq!(
            generate_macro(&bad).unwrap_err(),
            NetlistError::DesignPoint(sega_estimator::ParamError::ZeroDimension("h"))
        );
        let too_wide = DcimDesign::Int(IntParams {
            n: 8,
            h: 4,
            l: 4,
            k: 8,
            bw: 4,
            bx: 4,
        });
        assert!(matches!(
            generate_macro(&too_wide),
            Err(NetlistError::DesignPoint(_))
        ));
    }

    #[test]
    fn int_macro_area_matches_estimator_exactly() {
        use sega_estimator::{estimate, OperatingConditions};
        let dp = DcimDesign::for_precision(Precision::Int8, 16, 16, 8, 4).unwrap();
        let netlist = generate_macro(&dp).unwrap();
        let top = netlist.top().unwrap().name.clone();
        let cost = unit_cost_of_module(&netlist, &top).unwrap();
        let est = estimate(
            &dp,
            &sega_cells::Technology::tsmc28(),
            &OperatingConditions::paper_default(),
        );
        let rel = (cost.area - est.unit.area).abs() / est.unit.area;
        assert!(
            rel < 1e-9,
            "netlist area {} vs estimator {} (rel err {rel})",
            cost.area,
            est.unit.area
        );
    }
}
