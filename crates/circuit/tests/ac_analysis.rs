//! AC small-signal acceptance tests.
//!
//! * A single-pole RC low-pass must match the analytic transfer
//!   function to ≤ 1e-9 relative in magnitude and ≤ 1e-9 rad in phase
//!   across a 6-decade sweep.
//! * A CNFET inverter's low-frequency gain must match the VTC slope at
//!   the bias point (finite-differenced `dc_sweep`) within 1%.
//! * The sparse pattern must be ordered once per sweep and only
//!   re-valued per frequency point (factorisation counters).
//! * On random linear dividers, the lowest-frequency AC magnitude must
//!   equal the finite-differenced `dc_sweep` gain to ≤ 1e-9.

use cntfet_circuit::prelude::*;
use cntfet_core::CompactCntFet;
use cntfet_reference::DeviceParams;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn model() -> Arc<CompactCntFet> {
    static MODEL: OnceLock<Arc<CompactCntFet>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        Arc::new(CompactCntFet::model2(DeviceParams::paper_default()).expect("model 2 fit"))
    }))
}

#[test]
fn rc_lowpass_matches_analytic_over_six_decades() {
    let (r, c) = (1e3, 1e-9); // corner ≈ 159 kHz, well inside the sweep
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add(VoltageSource::dc("V1", vin, Circuit::ground(), 0.5));
    ckt.add(Resistor::new("R1", vin, out, r));
    ckt.add(Capacitor::new("C1", out, Circuit::ground(), c));

    let mut sim = Simulator::new(ckt);
    // 6 decades: 100 Hz … 100 MHz, 20 points per decade.
    let res = sim.ac(&AcSweep::decade("V1", 1e2, 1e8, 20)).expect("ac");
    assert!(res.len() > 120, "6 decades at 20 ppd: {} points", res.len());
    let mag = res.magnitude("out").expect("probe");
    let phase = res.phase("out").expect("probe");
    for ((&f, &m), &p) in res.frequencies().iter().zip(&mag).zip(&phase) {
        let omega = 2.0 * std::f64::consts::PI * f;
        let wrc = omega * r * c;
        let m_expect = 1.0 / (1.0 + wrc * wrc).sqrt();
        let p_expect = -wrc.atan();
        assert!(
            (m - m_expect).abs() <= 1e-9 * m_expect,
            "f = {f:.3e} Hz: |H| = {m:.15e} vs analytic {m_expect:.15e}"
        );
        assert!(
            (p - p_expect).abs() <= 1e-9,
            "f = {f:.3e} Hz: arg H = {p:.15e} vs analytic {p_expect:.15e}"
        );
    }
    // The dB accessor agrees with the linear magnitude.
    let db = res.magnitude_db("out").expect("probe");
    for (&m, &d) in mag.iter().zip(&db) {
        assert!((d - 20.0 * m.log10()).abs() < 1e-9);
    }
}

#[test]
fn cnfet_inverter_low_frequency_gain_matches_vtc_slope() {
    let tech = CntTechnology::symmetric(model(), 0.8);
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    let out = c.node("out");
    c.add(VoltageSource::dc("VDD", vdd, Circuit::ground(), tech.vdd));
    c.add(VoltageSource::dc("VIN", vin, Circuit::ground(), 0.0));
    add_inverter(&mut c, &tech, "inv", vin, out, vdd);

    let mut sim = Simulator::new(c);
    // Locate the switching threshold from a coarse VTC.
    let vtc = sim
        .dc_sweep(&SweepSpec::linspace("VIN", 0.0, tech.vdd, 33))
        .expect("vtc");
    let outs = vtc.voltage("out").expect("probe");
    let mid = tech.vdd / 2.0;
    let bias = vtc
        .values
        .iter()
        .zip(outs)
        .min_by(|(_, a), (_, b)| {
            (*a - mid)
                .abs()
                .partial_cmp(&(*b - mid).abs())
                .expect("finite")
        })
        .map(|(&v, _)| v)
        .expect("non-empty VTC");

    // Small-signal gain from AC at a frequency far below the RC corner
    // of the device capacitances (≈ GHz for µS conductances and aF-fF
    // capacitances): 1 Hz is deep in the flat band.
    sim.set_source("VIN", bias).expect("bias");
    let ac = sim.ac(&AcSweep::list("VIN", vec![1.0])).expect("ac");
    let ac_gain = ac.magnitude("out").expect("probe")[0];

    // Reference: central finite difference of the VTC at the bias point.
    let h = 1e-5;
    let fd = sim
        .dc_sweep(&SweepSpec::new("VIN", vec![bias - h, bias + h]))
        .expect("fd");
    let v = fd.voltage("out").expect("probe");
    let fd_gain = ((v[1] - v[0]) / (2.0 * h)).abs();

    assert!(
        fd_gain > 1.0,
        "an inverter at threshold must amplify: VTC slope {fd_gain}"
    );
    assert!(
        (ac_gain - fd_gain).abs() <= 0.01 * fd_gain,
        "AC gain {ac_gain} vs VTC slope {fd_gain} (bias {bias} V): \
         disagreement exceeds 1%"
    );
    // Low-frequency phase of an inverting stage is 180°.
    let phase = ac.phase_deg("out").expect("probe")[0];
    assert!(
        (phase.abs() - 180.0).abs() < 1.0,
        "inverting stage phase {phase}° should be ±180°"
    );
}

#[test]
fn cnfet_chain_pattern_ordered_once_per_sweep() {
    let tech = CntTechnology::symmetric(model(), 0.8);
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    c.add(VoltageSource::dc("VDD", vdd, Circuit::ground(), tech.vdd));
    c.add(VoltageSource::dc(
        "VIN",
        vin,
        Circuit::ground(),
        0.5 * tech.vdd,
    ));
    add_inverter_chain(&mut c, &tech, "chain", vin, 8, vdd);

    let mut sim = Simulator::new(c);
    let res = sim
        .ac(&AcSweep::decade("VIN", 1e3, 1e10, 5))
        .expect("chain ac");
    let s = res.stats();
    let c = &s.counters;
    assert_eq!(c.symbolic_factorizations, 1, "one ordering per sweep");
    assert_eq!(
        c.replay_refactorizations + c.partial_refactorizations,
        s.frequencies as u64 - 1,
        "all later frequencies re-value the frozen pattern"
    );
    // Every CNFET row carries a capacitive (ω-dependent) slot, but the
    // plan keeps their reach short: a later frequency dirties 10 of the
    // 28 elimination steps, below the solver's partial-replay
    // crossover, so every later frequency takes the partial path.
    assert_eq!(
        (c.replay_refactorizations, c.partial_refactorizations),
        (0, 35),
        "each of the 35 later frequencies replays only its dirty steps"
    );
    assert_eq!(
        (c.columns_recomputed, c.columns_total),
        (28 + 35 * 10, 28 * 36)
    );
    // A second sweep on the same session orders its own plan once more
    // (fresh complex solver per sweep) but reuses the engine's real
    // Jacobian pattern: no extra pattern builds beyond the initial
    // DC + transient-stencil pair.
    let builds_before = sim.pattern_builds();
    let res2 = sim
        .ac(&AcSweep::decade("VIN", 1e3, 1e10, 5))
        .expect("second ac");
    assert_eq!(res2.stats().counters.symbolic_factorizations, 1);
    assert_eq!(sim.pattern_builds(), builds_before, "engine caches reused");
    // The first stage sits at mid-rail (active region): its gain must
    // roll off capacitively well past the aF-load corner (~GHz).
    let mag = res.magnitude("chain_c0").expect("probe");
    assert!(
        *mag.last().expect("non-empty") < 0.7 * mag[0],
        "expected roll-off: {:.3} at 1 kHz vs {:.3} at 10 GHz",
        mag[0],
        mag.last().unwrap()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The AC magnitude at the lowest frequency of a sweep equals the
    /// DC small-signal gain obtained by finite-differencing a `dc_sweep`
    /// — on random linear divider networks the two derivations of
    /// dV(out)/dV(in) must agree to ≤ 1e-9 relative.
    #[test]
    fn ac_low_frequency_matches_dc_sweep_finite_difference(
        r1 in 1e2f64..1e5,
        r2 in 1e2f64..1e5,
        c_load in 1e-12f64..1e-9,
        bias in -2.0f64..2.0,
    ) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::dc("V1", vin, Circuit::ground(), bias));
        c.add(Resistor::new("R1", vin, out, r1));
        c.add(Resistor::new("R2", out, Circuit::ground(), r2));
        c.add(Capacitor::new("C1", out, Circuit::ground(), c_load));
        // The corner sits at 1/(2π(R1∥R2)C); probe five decades below
        // it so the residual attenuation (f/fc)²/2 ≈ 5e-11 is inside
        // the 1e-9 agreement bound.
        let r_par = r1 * r2 / (r1 + r2);
        let f_low = 1e-5 / (2.0 * std::f64::consts::PI * r_par * c_load);
        let mut sim = Simulator::new(c);
        let ac = sim
            .ac(&AcSweep::list("V1", vec![f_low, 1e3 * f_low]))
            .expect("ac");
        let ac_gain = ac.magnitude("out").expect("probe")[0];
        // Central finite difference of the swept transfer curve.
        let h = 1e-4;
        let fd = sim
            .dc_sweep(&SweepSpec::new("V1", vec![bias - h, bias + h]))
            .expect("fd sweep");
        let vout = fd.voltage("out").expect("probe");
        let fd_gain = ((vout[1] - vout[0]) / (2.0 * h)).abs();
        prop_assert!(
            (ac_gain - fd_gain).abs() <= 1e-9 * (1.0 + fd_gain),
            "AC {ac_gain} vs finite-difference {fd_gain}"
        );
        // Sanity: both equal the analytic divider ratio.
        let expect = r2 / (r1 + r2);
        prop_assert!((ac_gain - expect).abs() <= 1e-9 * (1.0 + expect));
    }
}
