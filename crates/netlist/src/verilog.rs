//! Structural Verilog emission.
//!
//! [`emit`] renders a whole [`Design`] as a single self-contained `.v`
//! file: behavioral primitives for every Table III cell actually used,
//! followed by the module definitions in dependency order (children before
//! parents), ending with the top module. This is the artifact the paper
//! hands to the commercial synthesis/P&R flow; `sega-layout` consumes the
//! same [`Design`] directly.

use crate::cells::cell_verilog;
use crate::ir::{Design, Dir, InstanceTarget, Module, NetlistError, Signal};
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

/// A slight over-estimate of `m`'s emitted size: per instance its target
/// and name, per connection a port, a net name and a bus index.
fn size_hint(design: &Design, m: &Module) -> usize {
    let nets = m.ports().len() + m.wires().len();
    let instances: usize = m
        .targets()
        .iter()
        .map(|&t| design.target_name(t).len() + 24)
        .sum();
    64 + 32 * nets + 48 * m.assigns().len() + instances + 32 * m.connection_count()
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
        out.push_str(" (");
        for (i, &(port, signal)) in inst.connections.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('.');
            out.push_str(port_names[port as usize]);
            out.push('(');
            render(out, m, signal);
            out.push(')');
        }
        out.push_str(");\n");
    }
    out.push_str("endmodule\n\n");
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
        let v = emit(&small_int()).unwrap();
        let modules = v.matches("\nmodule ").count() + usize::from(v.starts_with("module "));
        let ends = v.matches("endmodule").count();
        assert_eq!(modules, ends);
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

    #[test]
    fn size_hint_covers_the_output() {
        for (p, n, h, l, k) in [
            (Precision::Int4, 8, 4, 2, 1),
            (Precision::Bf16, 16, 7, 3, 3),
            (Precision::Fp32, 48, 5, 1, 24),
        ] {
            let d = generate_macro(&DcimDesign::for_precision(p, n, h, l, k).unwrap()).unwrap();
            let v = emit(&d).unwrap();
            let hint: usize = d.modules().iter().map(|m| size_hint(&d, m)).sum();
            assert!(
                hint >= v.len() && hint < 3 * v.len(),
                "{p:?}: {hint} vs {}",
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
