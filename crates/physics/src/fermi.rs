//! Fermi–Dirac statistics.
//!
//! Two objects matter to the paper: the distribution `f(E)` inside the
//! state-density integrals (eqs. 2–4), and the order-0 Fermi–Dirac
//! integral whose closed form `F₀(η) = ln(1 + e^η)` makes the drain
//! current (eqs. 12–14) cheap once the self-consistent voltage is known.

/// Fermi–Dirac occupation `1 / (1 + e^{(e − mu)/kt})`.
///
/// All arguments in eV. Written in an overflow-safe form: large positive
/// and negative arguments saturate to 0 and 1 without producing `inf/inf`.
///
/// # Examples
///
/// ```
/// use cntfet_physics::fermi::fermi;
/// assert_eq!(fermi(0.0, 0.0, 0.0259), 0.5);
/// assert!(fermi(1.0, 0.0, 0.0259) < 1e-16);
/// ```
pub fn fermi(e: f64, mu: f64, kt: f64) -> f64 {
    let x = (e - mu) / kt;
    if x > 0.0 {
        let ex = (-x).exp();
        ex / (1.0 + ex)
    } else {
        1.0 / (1.0 + x.exp())
    }
}

/// Derivative of the Fermi function with respect to energy, `∂f/∂E`
/// (negative, peaked at `E = mu` with value `−1/(4 kT)`), in 1/eV.
pub fn fermi_derivative(e: f64, mu: f64, kt: f64) -> f64 {
    let x = ((e - mu) / kt).abs();
    // f(1−f)/kT computed stably via the smaller exponential.
    let ex = (-x).exp();
    let denom = (1.0 + ex) * (1.0 + ex);
    -ex / denom / kt
}

/// Fermi–Dirac integral of order 0 in closed form (paper eq. 13):
/// `F₀(η) = ln(1 + e^η)`.
///
/// Overflow-safe: for large `η` it returns `η + ln(1 + e^{−η})`.
pub fn fermi_integral_zero(eta: f64) -> f64 {
    if eta > 0.0 {
        eta + (-eta).exp().ln_1p()
    } else {
        eta.exp().ln_1p()
    }
}

/// Derivative of [`fermi_integral_zero`], which is the logistic function
/// `1 / (1 + e^{−η})`. Used by Newton iterations on the reference model.
pub fn fermi_integral_zero_derivative(eta: f64) -> f64 {
    if eta > 0.0 {
        1.0 / (1.0 + (-eta).exp())
    } else {
        let e = eta.exp();
        e / (1.0 + e)
    }
}

/// [`fermi_integral_zero`] and [`fermi_integral_zero_derivative`] at
/// once: both branch on the sign of `η` and exponentiate the same
/// argument, so the pair costs one `exp`. Bitwise equal to the two
/// separate calls.
pub fn fermi_integral_zero_with_derivative(eta: f64) -> (f64, f64) {
    if eta > 0.0 {
        let e = (-eta).exp();
        (eta + e.ln_1p(), 1.0 / (1.0 + e))
    } else {
        let e = eta.exp();
        (e.ln_1p(), e / (1.0 + e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KT: f64 = 0.0259;

    #[test]
    fn fermi_half_at_chemical_potential() {
        assert_eq!(fermi(0.3, 0.3, KT), 0.5);
    }

    #[test]
    fn fermi_limits_saturate_cleanly() {
        assert_eq!(fermi(100.0, 0.0, KT), 0.0);
        assert_eq!(fermi(-100.0, 0.0, KT), 1.0);
        assert!(fermi(1e6, 0.0, KT).is_finite());
    }

    #[test]
    fn fermi_is_monotone_decreasing_in_energy() {
        let mut prev = fermi(-1.0, 0.0, KT);
        for i in 1..=100 {
            let e = -1.0 + 2.0 * i as f64 / 100.0;
            let v = fermi(e, 0.0, KT);
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    fn fermi_symmetry_about_mu() {
        // f(mu + x) + f(mu - x) = 1.
        for &x in &[0.01, 0.05, 0.2] {
            let s = fermi(0.3 + x, 0.3, KT) + fermi(0.3 - x, 0.3, KT);
            assert!((s - 1.0).abs() < 1e-14, "{s}");
        }
    }

    #[test]
    fn fermi_derivative_matches_finite_difference() {
        let h = 1e-7;
        for &e in &[-0.2, 0.0, 0.05, 0.3] {
            let fd = (fermi(e + h, 0.0, KT) - fermi(e - h, 0.0, KT)) / (2.0 * h);
            let an = fermi_derivative(e, 0.0, KT);
            assert!(
                (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                "e = {e}: {fd} vs {an}"
            );
        }
    }

    #[test]
    fn fermi_derivative_peak_value() {
        let peak = fermi_derivative(0.0, 0.0, KT);
        assert!((peak + 1.0 / (4.0 * KT)).abs() < 1e-12);
    }

    #[test]
    fn f0_closed_form_reference_values() {
        assert!((fermi_integral_zero(0.0) - std::f64::consts::LN_2).abs() < 1e-15);
        // Degenerate limit: F0(η) → η.
        assert!((fermi_integral_zero(50.0) - 50.0).abs() < 1e-15);
        // Non-degenerate limit: F0(η) → e^η (relative error ~e^η/2).
        let eta = -20.0;
        let rel = (fermi_integral_zero(eta) - eta.exp()).abs() / eta.exp();
        assert!(rel < 1e-8, "{rel}");
    }

    #[test]
    fn f0_is_smooth_and_increasing() {
        let mut prev = fermi_integral_zero(-10.0);
        for i in 1..=400 {
            let eta = -10.0 + 20.0 * i as f64 / 400.0;
            let v = fermi_integral_zero(eta);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn f0_derivative_is_logistic() {
        let h = 1e-6;
        for &eta in &[-5.0, -0.5, 0.0, 0.5, 5.0] {
            let fd = (fermi_integral_zero(eta + h) - fermi_integral_zero(eta - h)) / (2.0 * h);
            let an = fermi_integral_zero_derivative(eta);
            assert!((fd - an).abs() < 1e-8, "eta = {eta}");
        }
    }

    #[test]
    fn fused_f0_pair_equals_the_separate_calls_bitwise() {
        let mut etas = vec![0.0, -0.0, 1e3, -1e3, f64::MIN_POSITIVE, -f64::MIN_POSITIVE];
        etas.extend((-2000..=2000).map(|k| k as f64 * 0.5));
        etas.extend((-400..=400).map(|k| k as f64 * 1e-3 + 1e-9));
        for eta in etas {
            let (f, df) = fermi_integral_zero_with_derivative(eta);
            assert_eq!(f.to_bits(), fermi_integral_zero(eta).to_bits(), "F0({eta})");
            assert_eq!(
                df.to_bits(),
                fermi_integral_zero_derivative(eta).to_bits(),
                "F0'({eta})"
            );
        }
    }

    #[test]
    fn f0_no_overflow_for_huge_eta() {
        assert!(fermi_integral_zero(1e8).is_finite());
        assert!(fermi_integral_zero(-1e8).abs() < 1e-300 + f64::MIN_POSITIVE);
    }
}
