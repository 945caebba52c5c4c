//! # sega-netlist — structural netlist IR and template-based DCIM generation
//!
//! The paper's template-based DCIM generator (§III-C) turns a chosen design
//! point into "the memory array, DCIM compute components, and digital
//! peripherals", emitting netlists that commercial tools then place and
//! route. This crate is that generator:
//!
//! * a hierarchical structural **netlist IR** ([`Design`], [`Module`],
//!   [`Instance`], [`Signal`]) addressed by [`ModuleId`] / [`NetId`] /
//!   [`InstId`] indices, rows of identical children held once as a
//!   [`GenerateLoop`], with one validation pass that reports every located
//!   width or port violation,
//! * **template generators** for every DCIM block of paper Fig. 3
//!   ([`generators`]) — compute unit, adder tree, shift accumulator, result
//!   fusion, FP pre-alignment, INT-to-FP converter, input buffer, SRAM
//!   column, and the full macro for both architectures,
//! * a **Verilog emitter** ([`verilog`]) producing a self-contained
//!   structural `.v` file (leaf cells included as behavioral primitives),
//! * a **gate-count audit** ([`stats`]) that recursively counts standard
//!   cells and cross-checks the generated hardware against the
//!   `sega-estimator` cost model — the generator and the estimator must
//!   agree exactly, which is tested.
//!
//! # Example
//!
//! ```
//! use sega_estimator::{DcimDesign, Precision};
//! use sega_netlist::{generators, stats, verilog};
//!
//! let design = DcimDesign::for_precision(Precision::Int8, 16, 8, 4, 2)?;
//! let netlist = generators::generate_macro(&design)?;
//! let counts = stats::cell_counts(&netlist)?;
//! assert!(counts[&sega_cells::StandardCell::Sram] == 16 * 8 * 4);
//!
//! let v = verilog::emit(&netlist)?;
//! assert!(v.contains("module "));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod generators;
pub mod hierarchy;
mod ir;
pub mod stats;
pub mod verilog;

pub use ir::{
    Concat, Design, Dir, Fault, GenerateLoop, InstId, Instance, InstanceTarget, LoopSignal, Member,
    Module, ModuleId, NetId, NetlistError, Port, Signal, Violation,
};
