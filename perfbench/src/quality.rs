//! Solution quality against the exact Pareto front.
//!
//! Every corpus space is small enough to enumerate, so the exact front
//! (`sega_dcim::exhaustive_front`) is the reference. The normalization is
//! fixed here so `front_hv_ratio` stays comparable across changes: each
//! objective is mapped through the exact front's ideal (0) and nadir (1)
//! points, and the hypervolume reference point is 1.1 in every
//! normalized objective (ideal + 1.1 × (nadir − ideal)). The hypervolume
//! is computed exactly (no sampling) by slicing along the objectives.

use std::collections::HashSet;

use sega_dcim::explore::ParetoSolution;

/// Normalized hypervolume reference coordinate.
pub const REFERENCE: f64 = 1.1;

/// The exact-front reference of one specification.
#[derive(Debug, Clone)]
pub struct Reference {
    ideal: [f64; 4],
    span: [f64; 4],
    points: HashSet<[u64; 4]>,
    hv: f64,
}

/// Objective bit patterns of a front member.
pub fn bits_of(objectives: [f64; 4]) -> [u64; 4] {
    objectives.map(f64::to_bits)
}

impl Reference {
    /// Builds the reference from an exact front.
    pub fn new(exact: &[ParetoSolution]) -> Reference {
        let mut ideal = [f64::INFINITY; 4];
        let mut nadir = [f64::NEG_INFINITY; 4];
        for s in exact {
            for (j, x) in s.objectives().into_iter().enumerate() {
                ideal[j] = ideal[j].min(x);
                nadir[j] = nadir[j].max(x);
            }
        }
        let mut span = [1.0; 4];
        for j in 0..4 {
            if nadir[j] > ideal[j] {
                span[j] = nadir[j] - ideal[j];
            }
        }
        let mut reference = Reference {
            ideal,
            span,
            points: exact.iter().map(|s| bits_of(s.objectives())).collect(),
            hv: 0.0,
        };
        reference.hv = reference.hypervolume(exact.iter().map(ParetoSolution::objectives));
        reference
    }

    /// Exact-front points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Normalized hypervolume of a point set.
    pub fn hypervolume(&self, objectives: impl Iterator<Item = [f64; 4]>) -> f64 {
        let points: Vec<[f64; 4]> = objectives
            .map(|o| std::array::from_fn(|j| (o[j] - self.ideal[j]) / self.span[j]))
            .collect();
        hypervolume4(&points, [REFERENCE; 4])
    }

    /// Hypervolume of `front` divided by the exact front's.
    pub fn hv_ratio(&self, front: &[ParetoSolution]) -> f64 {
        self.hypervolume(front.iter().map(ParetoSolution::objectives)) / self.hv
    }

    /// Exact-front points present in `front`.
    pub fn recalled(&self, front: &[ParetoSolution]) -> usize {
        let found: HashSet<[u64; 4]> = front.iter().map(|s| bits_of(s.objectives())).collect();
        self.points.intersection(&found).count()
    }
}

/// Exact hypervolume of 4-objective points (minimization) against
/// `reference`; points not strictly better than the reference in every
/// objective contribute nothing. Slices along the last objective and
/// sums 3-D slabs, so it costs O(n³) for n points.
pub fn hypervolume4(points: &[[f64; 4]], reference: [f64; 4]) -> f64 {
    let mut pts: Vec<[f64; 4]> = points
        .iter()
        .copied()
        .filter(|p| p.iter().zip(&reference).all(|(x, r)| x < r))
        .collect();
    pts.sort_by(|a, b| a[3].total_cmp(&b[3]));
    let mut total = 0.0;
    for i in 0..pts.len() {
        let next = pts.get(i + 1).map_or(reference[3], |p| p[3]);
        let depth = next - pts[i][3];
        if depth > 0.0 {
            total += hypervolume3(&pts[..=i], [reference[0], reference[1], reference[2]]) * depth;
        }
    }
    total
}

/// Exact 3-D hypervolume of the first three objectives of `points`:
/// sweeps the third objective, keeping the 2-D staircase of the first two.
fn hypervolume3(points: &[[f64; 4]], reference: [f64; 3]) -> f64 {
    let mut order: Vec<[f64; 3]> = points.iter().map(|p| [p[0], p[1], p[2]]).collect();
    order.sort_by(|a, b| a[2].total_cmp(&b[2]));
    let mut stair: Vec<(f64, f64)> = Vec::with_capacity(order.len());
    let mut total = 0.0;
    for i in 0..order.len() {
        insert_staircase(&mut stair, (order[i][0], order[i][1]));
        let next = order.get(i + 1).map_or(reference[2], |p| p[2]);
        let depth = next - order[i][2];
        if depth > 0.0 {
            total += staircase_area(&stair, reference[0], reference[1]) * depth;
        }
    }
    total
}

/// Inserts a point into a 2-D non-dominated staircase kept sorted by x
/// ascending (so y descending), dropping what it dominates.
fn insert_staircase(stair: &mut Vec<(f64, f64)>, p: (f64, f64)) {
    if stair.iter().any(|q| q.0 <= p.0 && q.1 <= p.1) {
        return;
    }
    stair.retain(|q| !(p.0 <= q.0 && p.1 <= q.1));
    let at = stair.partition_point(|q| q.0 < p.0);
    stair.insert(at, p);
}

fn staircase_area(stair: &[(f64, f64)], rx: f64, ry: f64) -> f64 {
    let mut area = 0.0;
    let mut prev_y = ry;
    for &(x, y) in stair {
        area += (rx - x) * (prev_y - y);
        prev_y = y;
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_is_a_box() {
        let hv = hypervolume4(&[[0.0, 0.5, 0.25, 0.1]], [1.0; 4]);
        assert!((hv - 1.0 * 0.5 * 0.75 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn union_counts_overlap_once() {
        // Two unit-ish boxes overlapping in a cube of side 0.5.
        let a = [0.0, 0.5, 0.5, 0.5];
        let b = [0.5, 0.0, 0.5, 0.5];
        let hv = hypervolume4(&[a, b], [1.0; 4]);
        let box_ = 1.0 * 0.5 * 0.5 * 0.5;
        let overlap = 0.5 * 0.5 * 0.5 * 0.5;
        assert!((hv - (2.0 * box_ - overlap)).abs() < 1e-12);
    }

    #[test]
    fn dominated_and_outside_points_add_nothing() {
        let p = [0.2, 0.2, 0.2, 0.2];
        let base = hypervolume4(&[p], [1.0; 4]);
        let with = hypervolume4(&[p, [0.3, 0.3, 0.3, 0.3], [0.1, 0.1, 0.1, 1.5]], [1.0; 4]);
        assert!((base - with).abs() < 1e-12);
    }
}
