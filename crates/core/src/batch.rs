//! Batched bias-grid evaluation of the compact model.
//!
//! The paper motivates the compact model with "implementation in
//! circuit-level … simulators where large numbers of such devices may be
//! used" — which makes whole *grids* of bias points, not single points,
//! the unit of work. This module evaluates [`CompactCntFet`] over a
//! rectangular `V_G × V_DS` grid (or an arbitrary list of bias points)
//! with a rayon-parallel engine, and keeps the strictly sequential loop
//! ([`ids_points_sequential`], [`BiasGrid::evaluate_sequential`]) as its
//! bitwise reference.
//!
//! Parallel and sequential paths run the *same* per-point closed-form
//! evaluation, so their results are bitwise identical; the property tests
//! in `crates/core/tests/proptests.rs` pin that down.
//!
//! Worker count follows rayon's convention: the `RAYON_NUM_THREADS`
//! environment variable, defaulting to the machine's available
//! parallelism.
//!
//! # Examples
//!
//! ```
//! use cntfet_core::batch::BiasGrid;
//! use cntfet_core::CompactCntFet;
//! use cntfet_reference::DeviceParams;
//!
//! let model = CompactCntFet::model2(DeviceParams::paper_default())?;
//! let grid = BiasGrid::rectangular(vec![0.3, 0.45, 0.6], vec![0.0, 0.2, 0.4, 0.6]);
//! let table = grid.evaluate(&model)?;
//! // One drain current per (vg, vds) pair, vg-major:
//! assert_eq!(table.ids.len(), 12);
//! assert!(table.ids_at(2, 3) > table.ids_at(0, 3)); // more gate, more current
//! # Ok::<(), cntfet_core::CompactModelError>(())
//! ```

use crate::device::CompactCntFet;
use crate::error::CompactModelError;
use rayon::prelude::*;

/// A batch of bias points: a rectangular `V_G × V_DS` grid flattened
/// vg-major, or an arbitrary point list.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasGrid {
    /// Gate voltages (the slow, outer axis of the flattened grid).
    vg: Vec<f64>,
    /// Drain voltages (the fast, inner axis of the flattened grid).
    vds: Vec<f64>,
}

impl BiasGrid {
    /// A rectangular grid: every `vg` paired with every `vds`.
    pub fn rectangular(vg: Vec<f64>, vds: Vec<f64>) -> Self {
        Self { vg, vds }
    }

    /// The gate-voltage axis.
    pub fn vg(&self) -> &[f64] {
        &self.vg
    }

    /// The drain-voltage axis.
    pub fn vds(&self) -> &[f64] {
        &self.vds
    }

    /// Number of bias points in the grid.
    pub fn len(&self) -> usize {
        self.vg.len() * self.vds.len()
    }

    /// Whether the grid contains no bias points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flattened (vg-major) bias-point list.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(self.len());
        for &vg in &self.vg {
            for &vds in &self.vds {
                out.push((vg, vds));
            }
        }
        out
    }

    /// Evaluates `model` over the whole grid, in parallel.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CompactModelError`] any point produces.
    pub fn evaluate(&self, model: &CompactCntFet) -> Result<GridIds, CompactModelError> {
        let ids = ids_points(model, &self.points())?;
        Ok(GridIds {
            grid: self.clone(),
            ids,
        })
    }

    /// Evaluates `model` over the whole grid strictly sequentially,
    /// regardless of features — the reference path for equivalence tests
    /// and speed-up baselines.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CompactModelError`] any point produces.
    pub fn evaluate_sequential(&self, model: &CompactCntFet) -> Result<GridIds, CompactModelError> {
        let ids = ids_points_sequential(model, &self.points())?;
        Ok(GridIds {
            grid: self.clone(),
            ids,
        })
    }
}

/// Drain currents over a [`BiasGrid`], flattened vg-major.
#[derive(Debug, Clone, PartialEq)]
pub struct GridIds {
    /// The grid the currents were evaluated on.
    pub grid: BiasGrid,
    /// `ids[i * grid.vds().len() + j]` is the current at
    /// `(grid.vg()[i], grid.vds()[j])`, in amperes.
    pub ids: Vec<f64>,
}

impl GridIds {
    /// Drain current at grid indices `(vg_index, vds_index)`, in amperes.
    pub fn ids_at(&self, vg_index: usize, vds_index: usize) -> f64 {
        self.ids[vg_index * self.grid.vds.len() + vds_index]
    }

    /// The output characteristic (one row of the grid) at `vg_index`.
    pub fn row(&self, vg_index: usize) -> &[f64] {
        let w = self.grid.vds.len();
        &self.ids[vg_index * w..(vg_index + 1) * w]
    }
}

/// Evaluates `model.ids` over an arbitrary bias-point list, in parallel.
///
/// Results are in input order and identical to the sequential loop —
/// the same closed-form evaluation runs either way.
///
/// # Errors
///
/// Propagates the first [`CompactModelError`] any point produces.
pub fn ids_points(
    model: &CompactCntFet,
    points: &[(f64, f64)],
) -> Result<Vec<f64>, CompactModelError> {
    let evaluated: Vec<Result<f64, CompactModelError>> = points
        .par_iter()
        .map(|&(vg, vds)| model.ids(vg, vds))
        .collect();
    evaluated.into_iter().collect()
}

/// The strictly sequential evaluation loop — the baseline `ids_points`
/// must match bitwise.
///
/// # Errors
///
/// Propagates the first [`CompactModelError`] any point produces.
pub fn ids_points_sequential(
    model: &CompactCntFet,
    points: &[(f64, f64)],
) -> Result<Vec<f64>, CompactModelError> {
    points.iter().map(|&(vg, vds)| model.ids(vg, vds)).collect()
}

impl CompactCntFet {
    /// Batched drain current over arbitrary `(vg, vds)` points — the
    /// rayon-parallel engine behind [`BiasGrid::evaluate`], exposed for
    /// callers that already hold a point list.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CompactModelError`] any point produces.
    pub fn ids_batch(&self, points: &[(f64, f64)]) -> Result<Vec<f64>, CompactModelError> {
        ids_points(self, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntfet_reference::DeviceParams;

    fn model() -> CompactCntFet {
        CompactCntFet::model2(DeviceParams::paper_default()).unwrap()
    }

    #[test]
    fn grid_flattening_is_vg_major() {
        let g = BiasGrid::rectangular(vec![0.1, 0.2], vec![0.0, 0.3, 0.6]);
        assert_eq!(g.len(), 6);
        assert_eq!(
            g.points(),
            vec![
                (0.1, 0.0),
                (0.1, 0.3),
                (0.1, 0.6),
                (0.2, 0.0),
                (0.2, 0.3),
                (0.2, 0.6)
            ]
        );
    }

    #[test]
    fn batched_matches_sequential_bitwise() {
        let m = model();
        let g = BiasGrid::rectangular(
            (0..7).map(|i| 0.3 + 0.05 * i as f64).collect(),
            (0..31).map(|i| 0.02 * i as f64).collect(),
        );
        let par = g.evaluate(&m).unwrap();
        let seq = g.evaluate_sequential(&m).unwrap();
        assert_eq!(
            par.ids, seq.ids,
            "parallel and sequential must agree bitwise"
        );
    }

    #[test]
    fn batched_matches_scalar_calls() {
        let m = model();
        let points = [(0.3, 0.1), (0.45, 0.25), (0.6, 0.6)];
        let batch = m.ids_batch(&points).unwrap();
        for (k, &(vg, vds)) in points.iter().enumerate() {
            assert_eq!(batch[k], m.ids(vg, vds).unwrap());
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let m = model();
        let g = BiasGrid::rectangular(vec![], vec![0.1, 0.2]);
        assert!(g.is_empty());
        assert!(g.evaluate(&m).unwrap().ids.is_empty());
    }

    #[test]
    fn grid_accessors_index_consistently() {
        let m = model();
        let g = BiasGrid::rectangular(vec![0.2, 0.4, 0.6], vec![0.0, 0.3, 0.6]);
        let r = g.evaluate(&m).unwrap();
        assert_eq!(r.row(1)[2], r.ids_at(1, 2));
        assert_eq!(r.ids_at(2, 1), m.ids(0.6, 0.3).unwrap());
    }
}
