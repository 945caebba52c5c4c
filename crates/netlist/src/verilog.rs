//! Structural Verilog emission.
//!
//! [`emit`] renders a whole [`Design`] as a single self-contained `.v`
//! file: behavioral primitives for every Table III cell actually used,
//! followed by the module definitions in dependency order (children before
//! parents), ending with the top module. Each [`GenerateLoop`] becomes one
//! `genvar` and one Verilog-2001 `generate for` block, so a row of copies
//! costs the same text as one copy. This is the artifact the paper
//! hands to the commercial synthesis/P&R flow; `sega-layout` consumes the
//! same [`Design`] directly.

use crate::cells::cell_verilog;
use crate::ir::{
    Design, Dir, GenerateLoop, InstanceTarget, LoopSignal, Module, NetlistError, Signal,
};
use sega_cells::{StandardCell, ALL_CELLS};

/// Emits the whole design as self-contained structural Verilog.
///
/// The text is written straight into one `String`, reserved up front from
/// the design's size, without per-signal or per-connection temporaries.
///
/// # Errors
///
/// Fails if the design does not validate (the emitter never renders a
/// malformed netlist).
pub fn emit(design: &Design) -> Result<String, NetlistError> {
    design.validate()?;
    let top = design.top_id()?;
    let order = design.children_first(top);
    let mut out = String::with_capacity(
        1024 + order
            .iter()
            .map(|&id| size_hint(design, &design[id]))
            .sum::<usize>(),
    );
    out.push_str("// Generated by sega-netlist (SEGA-DCIM template-based generator)\n");
    out.push_str("// Top module: ");
    out.push_str(&design[top].name);
    out.push_str("\n\n");

    // Behavioral primitives for every cell used anywhere in the design.
    for cell in used_cells(design) {
        out.push_str(cell_verilog(cell));
        out.push('\n');
    }

    // Modules in dependency order.
    for id in order {
        emit_module(&mut out, design, &design[id]);
    }
    Ok(out)
}

/// All standard cells instantiated anywhere in the design, in `Ord`
/// (declaration) order.
fn used_cells(design: &Design) -> Vec<StandardCell> {
    let mut used = [false; ALL_CELLS.len()];
    for m in design.modules() {
        for &target in m.targets() {
            if let InstanceTarget::Cell(c) = target {
                used[c as usize] = true;
            }
        }
    }
    ALL_CELLS
        .into_iter()
        .filter(|&c| used[c as usize])
        .collect()
}

/// A slight over-estimate of `m`'s emitted size: per instance or loop
/// member its target and name, per connection a port, a net name and a
/// bus index (plus the genvar for a loop), per loop its header.
fn size_hint(design: &Design, m: &Module) -> usize {
    let nets = m.ports().len() + m.wires().len();
    let instances: usize = m
        .targets()
        .iter()
        .map(|&t| design.target_name(t).len() + 24)
        .sum();
    let loops: usize = m
        .loops()
        .iter()
        .map(|g| {
            let genvar = g.block().len() + 2;
            let members: usize = g
                .members()
                .iter()
                .map(|mem| {
                    design.target_name(InstanceTarget::Module(mem.child)).len()
                        + mem.name.len()
                        + 16
                        + (40 + genvar) * mem.connections.len()
                })
                .sum();
            96 + 6 * genvar + members
        })
        .sum();
    64 + 32 * nets + 48 * m.assigns().len() + instances + 32 * m.connection_count() + loops
}

fn push_num(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// `[width-1:0] ` for a bus, nothing for a single bit.
fn push_bus_decl(out: &mut String, width: u32) {
    if width != 1 {
        out.push('[');
        push_num(out, u64::from(width) - 1);
        out.push_str(":0] ");
    }
}

fn emit_module(out: &mut String, design: &Design, m: &Module) {
    out.push_str("module ");
    out.push_str(&m.name);
    out.push('(');
    for (i, p) in m.ports().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(m.net_name(p.net));
    }
    out.push_str(");\n");
    for p in m.ports() {
        out.push_str(match p.dir {
            Dir::Input => "  input ",
            Dir::Output => "  output ",
        });
        push_bus_decl(out, m.net_width(p.net));
        out.push_str(m.net_name(p.net));
        out.push_str(";\n");
    }
    for &w in m.wires() {
        out.push_str("  wire ");
        push_bus_decl(out, m.net_width(w));
        out.push_str(m.net_name(w));
        out.push_str(";\n");
    }
    for &(lhs, rhs) in m.assigns() {
        out.push_str("  assign ");
        render(out, m, lhs);
        out.push_str(" = ");
        render(out, m, rhs);
        out.push_str(";\n");
    }
    // The target's name and port names, looked up again only when the
    // target changes (runs of one target are the common case).
    let mut target = None;
    let (mut target_name, mut port_names) = ("", Vec::new());
    for inst in m.instances() {
        if target != Some(inst.target) {
            target = Some(inst.target);
            target_name = design.target_name(inst.target);
            port_names = (0..)
                .map_while(|i| design.port_name(inst.target, i))
                .collect();
        }
        out.push_str("  ");
        out.push_str(target_name);
        out.push(' ');
        out.push_str(inst.name);
        push_connections(out, &port_names, inst.connections, |out, signal| {
            render(out, m, signal);
        });
    }
    for generate in m.loops() {
        emit_loop(out, design, m, generate);
    }
    out.push_str("endmodule\n\n");
}

/// Appends ` (.port(signal), …);` and a newline, each signal written by
/// `render_one`.
fn push_connections<S: Copy>(
    out: &mut String,
    port_names: &[&str],
    connections: &[(u32, S)],
    mut render_one: impl FnMut(&mut String, S),
) {
    out.push_str(" (");
    for (i, &(port, signal)) in connections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('.');
        out.push_str(port_names[port as usize]);
        out.push('(');
        render_one(out, signal);
        out.push(')');
    }
    out.push_str(");\n");
}

/// Appends one generate loop: its `genvar`, then a `generate for` block
/// instantiating every member once, a strided connection as the indexed
/// part-select `net[base + i*width +: width]`.
fn emit_loop(out: &mut String, design: &Design, m: &Module, generate: &GenerateLoop) {
    let genvar = generate.genvar();
    out.push_str("  genvar ");
    out.push_str(&genvar);
    out.push_str(";\n  generate\n    for (");
    out.push_str(&genvar);
    out.push_str(" = 0; ");
    out.push_str(&genvar);
    out.push_str(" < ");
    push_num(out, u64::from(generate.count()));
    out.push_str("; ");
    out.push_str(&genvar);
    out.push_str(" = ");
    out.push_str(&genvar);
    out.push_str(" + 1) begin : ");
    out.push_str(generate.block());
    out.push('\n');
    for member in generate.members() {
        let target = InstanceTarget::Module(member.child);
        let port_names: Vec<&str> = (0..).map_while(|i| design.port_name(target, i)).collect();
        out.push_str("      ");
        out.push_str(design.target_name(target));
        out.push(' ');
        out.push_str(&member.name);
        push_connections(
            out,
            &port_names,
            &member.connections,
            |out, wiring| match wiring {
                LoopSignal::Broadcast(signal) => render(out, m, signal),
                LoopSignal::Strided { net, base, width } => {
                    out.push_str(m.net_name(net));
                    out.push('[');
                    if base != 0 {
                        push_num(out, u64::from(base));
                        out.push_str(" + ");
                    }
                    out.push_str(&genvar);
                    out.push('*');
                    push_num(out, u64::from(width));
                    out.push_str(" +: ");
                    push_num(out, u64::from(width));
                    out.push(']');
                }
            },
        );
    }
    out.push_str("    end\n  endgenerate\n");
}

/// Appends a signal expression as Verilog.
fn render(out: &mut String, m: &Module, signal: Signal) {
    match signal {
        Signal::Net(n) => out.push_str(m.net_name(n)),
        Signal::Bit(n, b) => {
            out.push_str(m.net_name(n));
            out.push('[');
            push_num(out, u64::from(b));
            out.push(']');
        }
        Signal::Slice { net, msb, lsb } => {
            out.push_str(m.net_name(net));
            out.push('[');
            push_num(out, u64::from(msb));
            out.push(':');
            push_num(out, u64::from(lsb));
            out.push(']');
        }
        Signal::Const { width, value } => {
            push_num(out, u64::from(width));
            out.push_str("'d");
            push_num(out, value);
        }
        Signal::Concat(c) => {
            out.push('{');
            for (i, &part) in m.concat_parts(c).iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render(out, m, part);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::generate_macro;
    use sega_estimator::{DcimDesign, Precision};

    fn small_int() -> Design {
        let d = DcimDesign::for_precision(Precision::Int4, 8, 4, 2, 1).unwrap();
        generate_macro(&d).unwrap()
    }

    #[test]
    fn emits_self_contained_verilog() {
        let v = emit(&small_int()).unwrap();
        // Primitives present.
        assert!(v.contains("module NOR("));
        assert!(v.contains("module DFF("));
        assert!(v.contains("module SRAM("));
        // Top present and last.
        let top_pos = v.find("module dcim_int").expect("top module emitted");
        let nor_pos = v.find("module NOR(").expect("primitive emitted");
        assert!(nor_pos < top_pos, "primitives must precede the top");
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn children_precede_parents() {
        let v = emit(&small_int()).unwrap();
        let col = v.find("module col_").expect("column module");
        let top = v.find("module dcim_int").expect("top module");
        let adder = v.find("module add").expect("adder module");
        assert!(adder < col && col < top);
    }

    #[test]
    fn module_and_endmodule_counts_balance() {
        for d in [small_int(), lanes()] {
            let v = emit(&d).unwrap();
            let modules = v.lines().filter(|l| l.starts_with("module ")).count();
            let ends = v.lines().filter(|l| *l == "endmodule").count();
            assert!(modules > 0);
            assert_eq!(modules, ends);
            assert!(v.trim_end().ends_with("endmodule"));
        }
    }

    #[test]
    fn render_forms() {
        let mut m = Module::new("m");
        let x = m.add_wire("x", 8);
        let a = m.add_wire("a", 2);
        let cat = m.concat(&[Signal::Net(a), Signal::Bit(x, 0)]);
        let nested = m.concat(&[Signal::zeros(1), cat]);
        let rendered = |s| {
            let mut out = String::new();
            render(&mut out, &m, s);
            out
        };
        assert_eq!(rendered(Signal::Net(x)), "x");
        assert_eq!(rendered(Signal::Bit(x, 3)), "x[3]");
        assert_eq!(rendered(Signal::slice(x, 7, 4)), "x[7:4]");
        assert_eq!(rendered(Signal::Const { width: 4, value: 5 }), "4'd5");
        assert_eq!(rendered(cat), "{a, x[0]}");
        assert_eq!(rendered(nested), "{1'd0, {a, x[0]}}");
    }

    #[test]
    fn numbers_render_in_decimal() {
        for v in [0, 7, 10, 4_294_967_295, u64::MAX] {
            let mut out = String::new();
            push_num(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    /// `row`: a loop `lanes` of 3 copies of two `stage` members, `a` fed
    /// from `din` at bit 2 onward and `b` chained behind it through `w`.
    fn lanes() -> Design {
        let mut d = Design::new();
        let mut stage = Module::new("stage");
        stage.add_input("s", 1);
        stage.add_input("d", 2);
        stage.add_output("q", 2);
        let stage = d.add_module(stage).unwrap();
        let mut row = Module::new("row");
        let sel = row.add_input("sel", 1);
        let din = row.add_input("din", 8);
        let dout = row.add_output("dout", 6);
        let w = row.add_wire("w", 6);
        let lane = |net, base| LoopSignal::Strided {
            net,
            base,
            width: 2,
        };
        let mut lanes = GenerateLoop::new("lanes", 3);
        lanes
            .add_member(
                &d,
                "a",
                stage,
                &[
                    ("s", LoopSignal::Broadcast(Signal::Net(sel))),
                    ("d", lane(din, 2)),
                    ("q", lane(w, 0)),
                ],
            )
            .add_member(
                &d,
                "b",
                stage,
                &[
                    ("s", LoopSignal::Broadcast(Signal::Bit(din, 0))),
                    ("d", lane(w, 0)),
                    ("q", lane(dout, 0)),
                ],
            );
        row.add_loop(lanes);
        let row = d.add_module(row).unwrap();
        d.set_top_id(row);
        d
    }

    #[test]
    fn loops_emit_as_generate_blocks() {
        let v = emit(&lanes()).unwrap();
        assert_eq!(
            v,
            "// Generated by sega-netlist (SEGA-DCIM template-based generator)
// Top module: row

module stage(s, d, q);
  input s;
  input [1:0] d;
  output [1:0] q;
endmodule

module row(sel, din, dout);
  input sel;
  input [7:0] din;
  output [5:0] dout;
  wire [5:0] w;
  genvar lanes_i;
  generate
    for (lanes_i = 0; lanes_i < 3; lanes_i = lanes_i + 1) begin : lanes
      stage a (.s(sel), .d(din[2 + lanes_i*2 +: 2]), .q(w[lanes_i*2 +: 2]));
      stage b (.s(din[0]), .d(w[lanes_i*2 +: 2]), .q(dout[lanes_i*2 +: 2]));
    end
  endgenerate
endmodule

"
        );
        let flat = emit(&lanes().flattened()).unwrap();
        assert!(flat.contains(
            "  stage a1 (.s(sel), .d(din[5:4]), .q(w[3:2]));\n  stage b1 (.s(din[0]), .d(w[3:2]), .q(dout[3:2]));\n"
        ));
    }

    #[test]
    fn size_hint_covers_the_output() {
        let mut designs = Vec::new();
        for (p, n, h, l, k) in [
            (Precision::Int4, 8, 4, 2, 1),
            (Precision::Bf16, 16, 7, 3, 3),
            (Precision::Fp32, 48, 5, 1, 24),
        ] {
            let d = generate_macro(&DcimDesign::for_precision(p, n, h, l, k).unwrap()).unwrap();
            designs.push((format!("{p:?}"), d));
        }
        designs.push(("lanes".to_owned(), lanes()));
        for (name, d) in designs {
            let v = emit(&d).unwrap();
            let hint: usize = d.modules().iter().map(|m| size_hint(&d, m)).sum();
            assert!(
                hint >= v.len() && hint < 3 * v.len(),
                "{name}: {hint} vs {}",
                v.len()
            );
        }
    }

    #[test]
    fn invalid_design_is_refused() {
        let d = Design::new();
        assert!(matches!(emit(&d), Err(NetlistError::NoTop)));
    }

    #[test]
    fn emission_is_deterministic() {
        let a = emit(&small_int()).unwrap();
        let b = emit(&small_int()).unwrap();
        assert_eq!(a, b);
    }
}
