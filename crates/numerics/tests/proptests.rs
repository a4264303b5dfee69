//! Property-based tests for the numerical substrate.

use cntfet_numerics::fit::{polyfit, polyfit_constrained, LinearConstraint};
use cntfet_numerics::interp::{linspace, LinearInterpolator, PchipInterpolator};
use cntfet_numerics::linalg::Matrix;
use cntfet_numerics::polynomial::Polynomial;
use cntfet_numerics::quadrature::{adaptive_simpson, gauss_legendre};
use cntfet_numerics::rootfind::{bisection, brent, RootFindOptions};
use cntfet_numerics::roots::{real_roots, solve_cubic, solve_quadratic};
use cntfet_numerics::sparse::{DenseLuSolver, SparseLu, TripletMatrix};
use cntfet_numerics::stats::{relative_rms_percent, rms};
use proptest::prelude::*;

fn coeff() -> impl Strategy<Value = f64> {
    prop_oneof![(-10.0f64..10.0), (-0.1f64..0.1)]
}

proptest! {
    #[test]
    fn cubic_roots_have_small_residual(a in coeff(), b in coeff(), c in coeff(), d in coeff()) {
        prop_assume!(a.abs() > 1e-3);
        let roots = solve_cubic(a, b, c, d);
        prop_assert!(!roots.is_empty(), "odd degree must yield a real root");
        for r in roots {
            let res = ((a * r + b) * r + c) * r + d;
            let scale = a.abs() * r.abs().powi(3) + b.abs() * r * r + c.abs() * r.abs() + d.abs();
            prop_assert!(res.abs() <= 1e-6 * (1.0 + scale.abs()), "residual {res} at {r}");
        }
    }

    #[test]
    fn quadratic_roots_have_small_residual(a in coeff(), b in coeff(), c in coeff()) {
        for r in solve_quadratic(a, b, c) {
            let res = (a * r + b) * r + c;
            let scale = a.abs() * r * r + b.abs() * r.abs() + c.abs();
            prop_assert!(res.abs() <= 1e-7 * (1.0 + scale.abs()), "residual {res} at {r}");
        }
    }

    #[test]
    fn from_roots_roundtrip(r1 in -5.0f64..5.0, r2 in -5.0f64..5.0, r3 in -5.0f64..5.0) {
        // Keep the roots separated so dedup cannot merge them.
        prop_assume!((r1 - r2).abs() > 0.1 && (r2 - r3).abs() > 0.1 && (r1 - r3).abs() > 0.1);
        let p = Polynomial::from_roots(&[r1, r2, r3]);
        let got = real_roots(&p);
        prop_assert_eq!(got.len(), 3);
        let mut want = [r1, r2, r3];
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-6 * (1.0 + w.abs()), "{:?} vs {:?}", got, want);
        }
    }

    #[test]
    fn shift_argument_is_translation(coeffs in proptest::collection::vec(coeff(), 1..5), s in -3.0f64..3.0, x in -3.0f64..3.0) {
        let p = Polynomial::new(coeffs);
        let q = p.shift_argument(s);
        let direct = p.eval(x + s);
        let shifted = q.eval(x);
        let scale = 1.0 + direct.abs();
        prop_assert!((direct - shifted).abs() < 1e-9 * scale);
    }

    #[test]
    fn simpson_matches_exact_polynomial_integral(coeffs in proptest::collection::vec(coeff(), 1..5), a in -2.0f64..0.0, b in 0.1f64..2.0) {
        let p = Polynomial::new(coeffs);
        let exact = p.integrate(a, b);
        let num = adaptive_simpson(&|x: f64| p.eval(x), a, b, 1e-13, 40);
        prop_assert!((exact - num).abs() < 1e-8 * (1.0 + exact.abs()));
    }

    #[test]
    fn gauss_legendre_matches_exact_polynomial_integral(coeffs in proptest::collection::vec(coeff(), 1..8), a in -2.0f64..0.0, b in 0.1f64..2.0) {
        let p = Polynomial::new(coeffs);
        let exact = p.integrate(a, b);
        let num = gauss_legendre(&|x: f64| p.eval(x), a, b, 8);
        prop_assert!((exact - num).abs() < 1e-9 * (1.0 + exact.abs()));
    }

    #[test]
    fn lu_solve_reproduces_rhs(n in 1usize..6, seed in 0u64..1000) {
        // Diagonally dominant matrices are always solvable.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
            m[(i, i)] += n as f64 + 1.0;
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = m.solve(&b).unwrap();
        let back = m.mul_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn polyfit_interpolates_exact_data(c0 in coeff(), c1 in coeff(), c2 in coeff()) {
        let xs = linspace(-1.0, 1.0, 12);
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
        let p = polyfit(&xs, &ys, 2).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            prop_assert!((p.eval(x) - y).abs() < 1e-7 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn constrained_fit_always_honours_constraint(c0 in coeff(), c1 in coeff(), v in -5.0f64..5.0) {
        let xs = linspace(0.0, 1.0, 15);
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x).collect();
        let c = LinearConstraint::value_at(0.5, v, 2);
        let p = polyfit_constrained(&xs, &ys, 2, &[c]).unwrap();
        prop_assert!((p.eval(0.5) - v).abs() < 1e-7 * (1.0 + v.abs()));
    }

    #[test]
    fn bisection_and_brent_agree(shift in -0.9f64..0.9) {
        let f = |x: f64| x * x * x + x - shift;
        let o = RootFindOptions::default();
        let r1 = bisection(f, -2.0, 2.0, o).unwrap();
        let r2 = brent(f, -2.0, 2.0, o).unwrap();
        prop_assert!((r1 - r2).abs() < 1e-7);
    }

    #[test]
    fn linear_interp_bounded_by_data(knots in proptest::collection::vec(-5.0f64..5.0, 3..8), x in 0.0f64..1.0) {
        let n = knots.len();
        let xs = linspace(0.0, 1.0, n);
        let li = LinearInterpolator::new(xs, knots.clone()).unwrap();
        let v = li.eval(x);
        let lo = knots.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = knots.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn pchip_bounded_by_data(knots in proptest::collection::vec(-5.0f64..5.0, 3..8), x in 0.0f64..1.0) {
        let n = knots.len();
        let xs = linspace(0.0, 1.0, n);
        let p = PchipInterpolator::new(xs, knots.clone()).unwrap();
        let v = p.eval(x);
        let lo = knots.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = knots.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Monotone Hermite interpolation never overshoots the data range.
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "v = {v} outside [{lo}, {hi}]");
    }

    #[test]
    fn rms_scales_linearly(values in proptest::collection::vec(-10.0f64..10.0, 1..20), s in 0.1f64..10.0) {
        let scaled: Vec<f64> = values.iter().map(|v| v * s).collect();
        prop_assert!((rms(&scaled) - s * rms(&values)).abs() < 1e-9 * (1.0 + rms(&values)));
    }

    #[test]
    fn relative_rms_is_zero_iff_identical(values in proptest::collection::vec(-10.0f64..10.0, 2..20)) {
        prop_assume!(values.iter().any(|v| v.abs() > 1e-6));
        prop_assert_eq!(relative_rms_percent(&values, &values), 0.0);
        let mut perturbed = values.clone();
        perturbed[0] += 1.0;
        prop_assert!(relative_rms_percent(&perturbed, &values) > 0.0);
    }

    /// Random banded systems with random extra couplings: the sparse LU
    /// agrees with the dense reference. Then a random subset of slots
    /// changes, and `factor_partial` on the bitwise-diff changed list
    /// (which may replay only some elimination steps) solves bitwise
    /// equal to a second `SparseLu` that froze the same plan and
    /// replayed it in full — the partial-refactorisation contract.
    #[test]
    fn sparse_and_dense_solvers_agree(
        diag in proptest::collection::vec(1.0f64..10.0, 4..24),
        off in proptest::collection::vec(-0.9f64..0.9, 3..23),
        link_rows in proptest::collection::vec(0usize..24, 0..6),
        link_cols in proptest::collection::vec(0usize..24, 0..6),
        picks in proptest::collection::vec(0usize..1000, 0..6),
        rhs_scale in -5.0f64..5.0,
    ) {
        let n = diag.len().min(off.len() + 1);
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, diag[i]);
            if i + 1 < n {
                t.push(i, i + 1, off[i]);
                t.push(i + 1, i, off[i] * 0.5);
            }
        }
        for (&r, &c) in link_rows.iter().zip(&link_cols) {
            t.push(r % n, c % n, 0.1);
        }
        let a = t.to_csr();
        let pattern = a.pattern();
        let b: Vec<f64> = (0..n).map(|i| rhs_scale * (i as f64 + 1.0)).collect();
        let mut dense = DenseLuSolver::new();
        let mut sparse = SparseLu::<f64>::new();
        let mut full = SparseLu::<f64>::new();
        let xd = dense.solve(&a, &b).expect("dense solve");
        sparse.factor(pattern, a.values()).expect("sparse factor");
        full.factor(pattern, a.values()).expect("sparse factor");
        let xs = sparse.solve_factored(&b).expect("sparse solve");
        let scale = 1.0 + xd.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (d, s) in xd.iter().zip(&xs) {
            prop_assert!((d - s).abs() <= 1e-10 * scale, "{d} vs {s}");
        }
        // Perturb the picked slots (diagonals grow, couplings shrink, so
        // the system stays as well conditioned) and list the changed
        // slots from a bitwise diff, as the engine does.
        let mut a2 = a.clone();
        a2.set_zero();
        for r in 0..n {
            for (slot, &c) in pattern.row_range(r).zip(pattern.row_cols(r)) {
                let v = a.values()[slot];
                let picked = picks.iter().any(|&p| p % a.nnz() == slot);
                let factor = if !picked { 1.0 } else if r == c { 1.5 } else { 0.5 };
                a2.add_at(r, c, v * factor);
            }
        }
        let changed: Vec<usize> = (0..a.nnz())
            .filter(|&slot| a2.values()[slot].to_bits() != a.values()[slot].to_bits())
            .collect();
        let before = sparse.factor_path_stats();
        sparse
            .factor_partial(pattern, a2.values(), &changed)
            .expect("partial refactor");
        // One factorisation ran; on the partial path it replayed only
        // some of the steps.
        let paths = sparse.factor_path_stats().delta_since(&before);
        let runs = paths.symbolic_factorizations
            + paths.replay_refactorizations
            + paths.partial_refactorizations;
        prop_assert!(runs == 1, "{paths:?}");
        prop_assert!(
            paths.partial_refactorizations == 0 || paths.columns_recomputed < paths.columns_total,
            "{paths:?}"
        );
        full.factor(pattern, a2.values()).expect("full replay");
        let xp = sparse.solve_factored(&b).expect("solve after partial");
        let xf = full.solve_factored(&b).expect("solve after full replay");
        for (p, f) in xp.iter().zip(&xf) {
            prop_assert!(p.to_bits() == f.to_bits(), "{p} vs {f}");
        }
        let xd2 = dense.solve(&a2, &b).expect("dense solve 2");
        let scale2 = 1.0 + xd2.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (d, s) in xd2.iter().zip(&xp) {
            prop_assert!((d - s).abs() <= 1e-10 * scale2, "{d} vs {s}");
        }
    }
}
