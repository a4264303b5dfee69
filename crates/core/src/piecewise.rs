//! Piecewise-polynomial representation of the mobile charge curve
//! `Q_S(V_SC)`.
//!
//! A [`PiecewiseCharge`] is `k` interior breakpoints and `k + 1` region
//! polynomials (ascending in `V_SC`). The first region extends to `−∞`
//! (the paper's linear region) and the last to `+∞` (the paper's zero
//! region). Evaluation is a breakpoint search plus one Horner pass —
//! no quadrature, no iteration.

use cntfet_numerics::polynomial::Polynomial;

/// A piecewise-polynomial charge approximation.
///
/// # Examples
///
/// ```
/// use cntfet_core::piecewise::PiecewiseCharge;
/// use cntfet_numerics::polynomial::Polynomial;
///
/// // Two regions split at 0: `1 − x` on the left, zero on the right.
/// let pw = PiecewiseCharge::new(
///     vec![0.0],
///     vec![Polynomial::new(vec![1.0, -1.0]), Polynomial::zero()],
/// )?;
/// assert_eq!(pw.eval(-1.0), 2.0);
/// assert_eq!(pw.eval(1.0), 0.0);
/// # Ok::<(), cntfet_core::CompactModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseCharge {
    breakpoints: Vec<f64>,
    polys: Vec<Polynomial>,
}

use crate::error::CompactModelError;

impl PiecewiseCharge {
    /// Creates a piecewise curve from interior breakpoints (ascending) and
    /// one polynomial per region (`breakpoints.len() + 1` regions).
    ///
    /// # Errors
    ///
    /// Returns [`CompactModelError::InvalidSpec`] when the region count
    /// does not match, the breakpoints are not strictly increasing, or any
    /// polynomial exceeds degree 3 (which would break the closed-form
    /// solver).
    pub fn new(breakpoints: Vec<f64>, polys: Vec<Polynomial>) -> Result<Self, CompactModelError> {
        if polys.len() != breakpoints.len() + 1 {
            return Err(CompactModelError::InvalidSpec(format!(
                "{} breakpoints require {} regions, got {}",
                breakpoints.len(),
                breakpoints.len() + 1,
                polys.len()
            )));
        }
        for w in breakpoints.windows(2) {
            // partial_cmp so NaN values are rejected, not let through.
            if w[1].partial_cmp(&w[0]) != Some(std::cmp::Ordering::Greater) {
                return Err(CompactModelError::InvalidSpec(format!(
                    "breakpoints must be strictly increasing ({} then {})",
                    w[0], w[1]
                )));
            }
        }
        for (i, p) in polys.iter().enumerate() {
            if p.degree().unwrap_or(0) > 3 {
                return Err(CompactModelError::InvalidSpec(format!(
                    "region {i} has degree {} (> 3)",
                    p.degree().unwrap_or(0)
                )));
            }
        }
        Ok(PiecewiseCharge { breakpoints, polys })
    }

    /// Interior breakpoints, ascending.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// Region polynomials, one more than [`PiecewiseCharge::breakpoints`].
    pub fn polynomials(&self) -> &[Polynomial] {
        &self.polys
    }

    /// Index of the region containing `v` (right-closed regions:
    /// `v` exactly on a breakpoint belongs to the left region).
    pub fn region_index(&self, v: f64) -> usize {
        self.breakpoints.partition_point(|&b| b < v)
    }

    /// Evaluates the charge at `v` (V_SC in volts; result in C/m).
    pub fn eval(&self, v: f64) -> f64 {
        self.polys[self.region_index(v)].eval(v)
    }

    /// Evaluates the slope `dQ/dV` at `v` (F/m — the compact model's
    /// quantum capacitance, up to sign).
    pub fn eval_derivative(&self, v: f64) -> f64 {
        self.eval_with_derivative(v).1
    }

    /// The charge and its slope at `v` from one region search and one
    /// Horner pass, bitwise equal to [`PiecewiseCharge::eval`] and
    /// [`PiecewiseCharge::eval_derivative`].
    pub fn eval_with_derivative(&self, v: f64) -> (f64, f64) {
        self.polys[self.region_index(v)].eval_with_derivative(v)
    }

    /// Largest polynomial degree across regions.
    pub fn max_degree(&self) -> usize {
        self.polys
            .iter()
            .map(|p| p.degree().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// Value and slope mismatches at every breakpoint, as
    /// `(value_jump, slope_jump)` pairs. Both should be ≈ 0 for a fit
    /// honouring the paper's C¹-continuity requirement.
    pub fn continuity_jumps(&self) -> Vec<(f64, f64)> {
        self.breakpoints
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let (lv, ls) = self.polys[i].eval_with_derivative(b);
                let (rv, rs) = self.polys[i + 1].eval_with_derivative(b);
                (rv - lv, rs - ls)
            })
            .collect()
    }

    /// `true` when the curve is non-increasing on `[lo, hi]` sampled at
    /// `n` points — the physical sanity condition for a charge curve
    /// (charge falls as the band rises).
    pub fn is_non_increasing(&self, lo: f64, hi: f64, n: usize) -> bool {
        let mut prev = f64::INFINITY;
        for i in 0..n {
            let v = lo + (hi - lo) * i as f64 / (n - 1).max(1) as f64;
            let q = self.eval(v);
            if q > prev + 1e-18 {
                return false;
            }
            prev = q;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_region() -> PiecewiseCharge {
        PiecewiseCharge::new(
            vec![0.0],
            vec![Polynomial::new(vec![1.0, -1.0]), Polynomial::zero()],
        )
        .unwrap()
    }

    #[test]
    fn region_lookup_is_right_closed() {
        let pw = two_region();
        assert_eq!(pw.region_index(-0.5), 0);
        assert_eq!(pw.region_index(0.0), 0);
        assert_eq!(pw.region_index(1e-12), 1);
    }

    #[test]
    fn eval_switches_polynomials() {
        let pw = two_region();
        assert_eq!(pw.eval(-2.0), 3.0);
        assert_eq!(pw.eval(0.0), 1.0);
        assert_eq!(pw.eval(5.0), 0.0);
    }

    #[test]
    fn derivative_tracks_regions() {
        let pw = two_region();
        assert_eq!(pw.eval_derivative(-1.0), -1.0);
        assert_eq!(pw.eval_derivative(1.0), 0.0);
    }

    #[test]
    fn fused_value_and_slope_equal_the_separate_calls_bitwise() {
        // A fitted curve: breakpoints that are not round numbers and
        // cubic regions, so the Horner passes round non-trivially.
        let fitted = crate::CompactCntFet::model2(cntfet_reference::DeviceParams::paper_default())
            .expect("model 2 fit");
        for pw in [two_region(), fitted.charge().clone()] {
            let mut vs = vec![0.0, -0.0, 1e3, -1e3];
            for &b in pw.breakpoints() {
                vs.extend([b, b.next_down(), b.next_up()]);
            }
            vs.extend((-1000..=1000).map(|k| k as f64 * 1.3e-3));
            for v in vs {
                let (q, dq) = pw.eval_with_derivative(v);
                assert_eq!(q.to_bits(), pw.eval(v).to_bits(), "q({v})");
                assert_eq!(dq.to_bits(), pw.eval_derivative(v).to_bits(), "dq({v})");
            }
        }
    }

    #[test]
    fn continuity_jumps_report_discontinuity() {
        let pw = two_region();
        let jumps = pw.continuity_jumps();
        assert_eq!(jumps.len(), 1);
        // Value jumps from 1 to 0, slope from −1 to 0.
        assert!((jumps[0].0 + 1.0).abs() < 1e-14);
        assert!((jumps[0].1 - 1.0).abs() < 1e-14);
    }

    #[test]
    fn c1_curve_has_no_jumps() {
        // (x−1)² on the left of 1, zero on the right: C¹ at the joint.
        let pw = PiecewiseCharge::new(
            vec![1.0],
            vec![Polynomial::new(vec![1.0, -2.0, 1.0]), Polynomial::zero()],
        )
        .unwrap();
        let jumps = pw.continuity_jumps();
        assert!(jumps[0].0.abs() < 1e-14);
        assert!(jumps[0].1.abs() < 1e-14);
    }

    #[test]
    fn wrong_region_count_is_rejected() {
        let r = PiecewiseCharge::new(vec![0.0], vec![Polynomial::zero()]);
        assert!(matches!(r, Err(CompactModelError::InvalidSpec(_))));
    }

    #[test]
    fn unsorted_breakpoints_are_rejected() {
        let r = PiecewiseCharge::new(
            vec![1.0, 0.0],
            vec![Polynomial::zero(), Polynomial::zero(), Polynomial::zero()],
        );
        assert!(matches!(r, Err(CompactModelError::InvalidSpec(_))));
    }

    #[test]
    fn degree_four_is_rejected() {
        let quartic = Polynomial::new(vec![0.0, 0.0, 0.0, 0.0, 1.0]);
        let r = PiecewiseCharge::new(vec![], vec![quartic]);
        assert!(matches!(r, Err(CompactModelError::InvalidSpec(_))));
    }

    #[test]
    fn monotonicity_check() {
        let decreasing = PiecewiseCharge::new(
            vec![1.0],
            vec![Polynomial::new(vec![1.0, -1.0]), Polynomial::zero()],
        )
        .unwrap();
        assert!(decreasing.is_non_increasing(-2.0, 2.0, 50));
        let increasing =
            PiecewiseCharge::new(vec![], vec![Polynomial::new(vec![0.0, 1.0])]).unwrap();
        assert!(!increasing.is_non_increasing(-1.0, 1.0, 10));
    }

    #[test]
    fn single_region_curve_works() {
        let pw = PiecewiseCharge::new(vec![], vec![Polynomial::constant(2.0)]).unwrap();
        assert_eq!(pw.eval(100.0), 2.0);
        assert!(pw.continuity_jumps().is_empty());
        assert_eq!(pw.max_degree(), 0);
    }
}
