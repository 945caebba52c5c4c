//! Hierarchy reporting: per-module instance statistics of a generated
//! design — the "what did the template generator actually build" view a
//! user inspects before handing the netlist to synthesis.

use std::fmt::Write as _;

use crate::ir::{Design, InstanceTarget, NetlistError};
use crate::stats::Census;

/// Statistics of one module definition within a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleStats {
    /// Module name.
    pub name: String,
    /// Direct child-module instances (a generate loop member counts once
    /// per copy).
    pub child_instances: usize,
    /// Direct leaf-cell instances.
    pub cell_instances: usize,
    /// Total leaf cells under this module (recursive).
    pub total_cells: u64,
    /// How many times this module is instantiated across the whole design
    /// (1 for the top).
    pub instantiation_count: u64,
}

/// Computes per-module statistics for every module reachable from the top,
/// in dependency (children-first) order. One bottom-up census supplies
/// every module's totals; multiplicities flow from the top down in one
/// sweep over the modules in reverse id order (parents before children).
///
/// # Errors
///
/// Fails if the design has no top.
pub fn hierarchy_stats(design: &Design) -> Result<Vec<ModuleStats>, NetlistError> {
    let top = design.top_id()?;
    let census = Census::of(design, top);
    let mut multiplicity = vec![0u64; top.index() + 1];
    multiplicity[top.index()] = 1;
    for id in (0..=top.index()).rev() {
        let factor = multiplicity[id];
        for &(child, count) in &census.uses[id] {
            multiplicity[child.index()] += factor * count;
        }
    }
    Ok(design
        .children_first(top)
        .into_iter()
        .map(|id| {
            let m = &design[id];
            let child_instances: u64 = census.uses[id.index()].iter().map(|&(_, n)| n).sum();
            ModuleStats {
                name: m.name.clone(),
                child_instances: child_instances as usize,
                cell_instances: m
                    .targets()
                    .iter()
                    .filter(|t| matches!(t, InstanceTarget::Cell(_)))
                    .count(),
                total_cells: census.tally[id.index()].iter().sum(),
                instantiation_count: multiplicity[id.index()],
            }
        })
        .collect())
}

/// Renders the hierarchy statistics as an aligned text table.
///
/// # Errors
///
/// Same conditions as [`hierarchy_stats`].
pub fn hierarchy_report(design: &Design) -> Result<String, NetlistError> {
    let stats = hierarchy_stats(design)?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<32} {:>6} {:>8} {:>8} {:>12}",
        "module", "uses", "children", "cells", "total cells"
    );
    for m in &stats {
        let _ = writeln!(
            s,
            "{:<32} {:>6} {:>8} {:>8} {:>12}",
            m.name, m.instantiation_count, m.child_instances, m.cell_instances, m.total_cells
        );
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::generate_macro;
    use sega_estimator::{DcimDesign, Precision};

    fn small() -> Design {
        let d = DcimDesign::for_precision(Precision::Int4, 8, 8, 2, 2).unwrap();
        generate_macro(&d).unwrap()
    }

    #[test]
    fn top_is_instantiated_once_and_last() {
        let stats = hierarchy_stats(&small()).unwrap();
        let top = stats.last().unwrap();
        assert!(top.name.starts_with("dcim_int"));
        assert_eq!(top.instantiation_count, 1);
    }

    #[test]
    fn column_multiplicity_equals_n() {
        let stats = hierarchy_stats(&small()).unwrap();
        let col = stats.iter().find(|m| m.name.starts_with("col_")).unwrap();
        assert_eq!(col.instantiation_count, 8, "N=8 column instances");
    }

    #[test]
    fn total_cells_of_top_matches_flat_count() {
        let design = small();
        let stats = hierarchy_stats(&design).unwrap();
        let top = stats.last().unwrap();
        let flat: u64 = crate::stats::cell_counts(&design).unwrap().values().sum();
        assert_eq!(top.total_cells, flat);
    }

    #[test]
    fn weighted_totals_are_consistent() {
        // Sum over modules of (direct cells × multiplicity) equals the
        // top's recursive total.
        let design = small();
        let stats = hierarchy_stats(&design).unwrap();
        let top_total = stats.last().unwrap().total_cells;
        let weighted: u64 = stats
            .iter()
            .map(|m| m.cell_instances as u64 * m.instantiation_count)
            .sum();
        assert_eq!(weighted, top_total);
    }

    #[test]
    fn report_renders_every_module() {
        let design = small();
        let report = hierarchy_report(&design).unwrap();
        for m in design.modules() {
            assert!(report.contains(&m.name), "missing {}", m.name);
        }
    }

    #[test]
    fn children_precede_parents_in_report() {
        let report = hierarchy_report(&small()).unwrap();
        let col = report.find("col_").unwrap();
        let top = report.find("dcim_int").unwrap();
        assert!(col < top);
    }
}
