//! Gate-count statistics and the generator-vs-estimator audit.
//!
//! [`cell_counts`] counts every Table III standard cell under a module of
//! a hierarchical [`Design`] in one bottom-up pass: each module's direct
//! cells plus, per distinct child, the child's total times its instance
//! count — work proportional to the instances and loop members, not to
//! the flattened cells.
//! [`audit`] then cross-checks the generated hardware against a
//! [`MacroEstimate`]: the paper's whole flow rests on the estimator
//! predicting what the generator builds, and here that property is
//! enforced to floating-point precision.

use std::collections::HashMap;

use crate::ir::{Design, InstanceTarget, ModuleId, NetlistError};
use sega_cells::{Cost, StandardCell, ALL_CELLS};
use sega_estimator::MacroEstimate;

/// Cell counts indexed by `StandardCell as usize` (the [`ALL_CELLS`] order).
pub(crate) type Tally = [u64; ALL_CELLS.len()];

/// One bottom-up pass over the modules `0..=root` in id order, where
/// children always precede their parents.
pub(crate) struct Census {
    /// Per module: its distinct child modules in first-use order, each
    /// with its instance count (a generate loop member counts once per
    /// copy).
    pub(crate) uses: Vec<Vec<(ModuleId, u64)>>,
    /// Per module: its recursive cell tally.
    pub(crate) tally: Vec<Tally>,
}

impl Census {
    pub(crate) fn of(design: &Design, root: ModuleId) -> Census {
        let modules = &design.modules()[..=root.index()];
        let mut uses = Vec::with_capacity(modules.len());
        let mut tally: Vec<Tally> = Vec::with_capacity(modules.len());
        for module in modules {
            let mut own: Tally = [0; ALL_CELLS.len()];
            for &target in module.targets() {
                if let InstanceTarget::Cell(cell) = target {
                    own[cell as usize] += 1;
                }
            }
            let mut children: Vec<(ModuleId, u64)> = Vec::new();
            for (child, copies) in module.child_uses() {
                match children.iter_mut().find(|(c, _)| *c == child) {
                    Some((_, n)) => *n += u64::from(copies),
                    None => children.push((child, u64::from(copies))),
                }
            }
            for &(child, n) in &children {
                for (total, below) in own.iter_mut().zip(&tally[child.index()]) {
                    *total += n * below;
                }
            }
            tally.push(own);
            uses.push(children);
        }
        Census { uses, tally }
    }
}

/// Counts standard cells under the design's top module.
///
/// # Errors
///
/// Fails if the design has no top.
pub fn cell_counts(design: &Design) -> Result<HashMap<StandardCell, u64>, NetlistError> {
    Ok(counts_of(design, design.top_id()?))
}

/// Counts standard cells under the named module (recursively).
///
/// # Errors
///
/// Fails with [`NetlistError::UnknownModule`] if no module has that name.
pub fn cell_counts_of_module(
    design: &Design,
    module: &str,
) -> Result<HashMap<StandardCell, u64>, NetlistError> {
    let id = design
        .module_id(module)
        .ok_or_else(|| NetlistError::UnknownModule(module.to_owned()))?;
    Ok(counts_of(design, id))
}

/// The nonzero counts under `root`.
fn counts_of(design: &Design, root: ModuleId) -> HashMap<StandardCell, u64> {
    let tally = Census::of(design, root).tally[root.index()];
    ALL_CELLS
        .into_iter()
        .zip(tally)
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Total area/energy of a cell-count table in NOR-gate units (delay is not
/// meaningful in a sum and is reported as zero).
pub fn counts_cost(counts: &HashMap<StandardCell, u64>) -> Cost {
    let mut total = Cost::ZERO;
    for (cell, &n) in counts {
        let c = cell.cost();
        total.area += c.area * n as f64;
        total.energy += c.energy * n as f64;
    }
    total
}

/// Area/energy of the named module in NOR-gate units.
///
/// # Errors
///
/// Same conditions as [`cell_counts_of_module`].
pub fn unit_cost_of_module(design: &Design, module: &str) -> Result<Cost, NetlistError> {
    Ok(counts_cost(&cell_counts_of_module(design, module)?))
}

/// The result of auditing a generated netlist against its estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Audit {
    /// Area of the netlist (NOR-gate units, from cell counts).
    pub netlist_area: f64,
    /// Area predicted by the estimator (NOR-gate units).
    pub estimated_area: f64,
    /// Energy of the netlist (NOR-gate units).
    pub netlist_energy: f64,
    /// Energy predicted by the estimator (NOR-gate units, before the
    /// activity factor).
    pub estimated_energy: f64,
    /// Per-cell counts of the netlist.
    pub counts: HashMap<StandardCell, u64>,
}

impl Audit {
    /// Relative area discrepancy between generator and estimator.
    pub fn area_error(&self) -> f64 {
        (self.netlist_area - self.estimated_area).abs() / self.estimated_area.max(f64::MIN_POSITIVE)
    }

    /// Relative energy discrepancy between generator and estimator.
    pub fn energy_error(&self) -> f64 {
        (self.netlist_energy - self.estimated_energy).abs()
            / self.estimated_energy.max(f64::MIN_POSITIVE)
    }

    /// True when generator and estimator agree to within `tolerance`
    /// relative error on both area and energy.
    pub fn is_consistent(&self, tolerance: f64) -> bool {
        self.area_error() <= tolerance && self.energy_error() <= tolerance
    }
}

/// Audits a generated netlist against the estimate the design space
/// explorer optimized: counts every standard cell in the netlist and
/// compares total area and energy with the estimator's unit cost.
///
/// # Errors
///
/// Fails if the netlist has no top.
///
/// ```
/// use sega_estimator::{estimate, DcimDesign, OperatingConditions, Precision};
/// use sega_netlist::{generators, stats};
///
/// let d = DcimDesign::for_precision(Precision::Int4, 16, 8, 4, 2)?;
/// let netlist = generators::generate_macro(&d)?;
/// let est = estimate(&d, &sega_cells::Technology::tsmc28(),
///                    &OperatingConditions::paper_default());
/// let audit = stats::audit(&netlist, &est)?;
/// assert!(audit.is_consistent(1e-9));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn audit(design: &Design, estimate: &MacroEstimate) -> Result<Audit, NetlistError> {
    let counts = cell_counts(design)?;
    let cost = counts_cost(&counts);
    Ok(Audit {
        netlist_area: cost.area,
        estimated_area: estimate.unit.area,
        netlist_energy: cost.energy,
        estimated_energy: estimate.unit.energy,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Module, Signal};

    fn leaf(name: &str, nors: u32) -> Module {
        let mut m = Module::new(name);
        let a = m.add_input("a", 1);
        let y = m.add_output("y", nors);
        for i in 0..nors {
            m.add_cell(
                format_args!("n{i}"),
                StandardCell::Nor,
                &[
                    ("a", Signal::Net(a)),
                    ("b", Signal::Net(a)),
                    ("y", Signal::Bit(y, i)),
                ],
            );
        }
        m
    }

    /// A module `name` with one input `a` and `count` instances of `child`,
    /// each driving its own 2-bit wire.
    fn parent(d: &Design, name: &str, child: ModuleId, count: u32) -> Module {
        let mut m = Module::new(name);
        let a = m.add_input("a", 1);
        m.add_output("y", 2);
        for i in 0..count {
            let w = m.add_wire(format_args!("w{i}"), 2);
            m.add_instance(
                d,
                format_args!("u{i}"),
                child,
                &[("a", Signal::Net(a)), ("y", Signal::Net(w))],
            );
        }
        m
    }

    #[test]
    fn counts_flat_module() {
        let mut d = Design::new();
        d.add_module(leaf("leaf3", 3)).unwrap();
        d.set_top("leaf3").unwrap();
        let c = cell_counts(&d).unwrap();
        assert_eq!(c.get(&StandardCell::Nor), Some(&3));
    }

    #[test]
    fn counts_multiply_through_hierarchy() {
        let mut d = Design::new();
        let leaf2 = d.add_module(leaf("leaf2", 2)).unwrap();
        let mid = d.add_module(parent(&d, "mid", leaf2, 4)).unwrap();
        let top = d.add_module(parent(&d, "top", mid, 3)).unwrap();
        d.set_top_id(top);
        d.validate().unwrap();
        // 3 mids × 4 leaves × 2 NORs = 24.
        let c = cell_counts(&d).unwrap();
        assert_eq!(c.get(&StandardCell::Nor), Some(&24));
        assert_eq!(
            cell_counts_of_module(&d, "mid").unwrap()[&StandardCell::Nor],
            8
        );
        assert!(matches!(
            cell_counts_of_module(&d, "ghost"),
            Err(NetlistError::UnknownModule(_))
        ));
    }

    #[test]
    fn counts_cost_weights_by_cell() {
        let mut counts = HashMap::new();
        counts.insert(StandardCell::FullAdder, 10u64);
        counts.insert(StandardCell::Sram, 100u64);
        let c = counts_cost(&counts);
        assert!((c.area - (10.0 * 5.7 + 100.0 * 2.2)).abs() < 1e-9);
        assert!((c.energy - 10.0 * 8.4).abs() < 1e-9);
    }

    #[test]
    fn audit_consistency_thresholds() {
        let a = Audit {
            netlist_area: 100.0,
            estimated_area: 100.0,
            netlist_energy: 50.0,
            estimated_energy: 51.0,
            counts: HashMap::new(),
        };
        assert!(a.is_consistent(0.05));
        assert!(!a.is_consistent(0.001));
    }
}
