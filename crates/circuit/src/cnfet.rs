//! The CNFET circuit element — the paper's Fig. 1 equivalent circuit.
//!
//! The element owns one extra MNA unknown: the inner node Σ that "comprises
//! all the CNT charges". Its row is the charge-balance form of the
//! self-consistent voltage equation,
//!
//! ```text
//! F_Σ = C_Σ·V_SC + Q_t + qN₀ − q̂N_S(V_SC) − q̂N_S(V_SC + V_DS) = 0
//! ```
//!
//! with `V_SC = V_Σ − V_S`, `Q_t = C_G(V_G−V_S) + C_D(V_D−V_S)` (source-
//! referenced). Because the fitted charge `q̂N_S` is piecewise polynomial,
//! each Newton iteration of the *circuit* sees cheap closed-form values
//! and derivatives — no quadrature, no nested solver: this is exactly how
//! the paper intends the model to live inside a SPICE-like engine.
//!
//! The ballistic transport current `I_DS(V_SC, V_DS)` (paper eq. 14) is a
//! voltage-controlled current source from drain to source. In transient
//! analysis the three terminal capacitances carry displacement currents
//! between the terminals and Σ (backward-Euler companions), scaled by the
//! device length.
//!
//! P-type devices are modelled by mirror symmetry: an ideal p-CNFET is an
//! n-CNFET with every terminal voltage negated and every current
//! reversed. The Σ unknown of a p-device stores the *mirrored* inner
//! voltage.

use crate::element::{node_voltage, AnalysisMode, Element, Mna};
use crate::netlist::NodeId;
use cntfet_core::CompactCntFet;
use cntfet_physics::constants::BALLISTIC_CURRENT_PREFACTOR;
use cntfet_physics::fermi::fermi_integral_zero_with_derivative;
use cntfet_reference::current::drain_current;
use std::sync::Arc;

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Electron conduction (the paper's device).
    N,
    /// Hole conduction, modelled by mirror symmetry.
    P,
}

/// A ballistic CNFET instance in a circuit.
///
/// # Examples
///
/// ```
/// use cntfet_circuit::netlist::Circuit;
/// use cntfet_circuit::cnfet::{CnfetElement, Polarity};
/// use cntfet_core::CompactCntFet;
/// use cntfet_reference::DeviceParams;
/// use std::sync::Arc;
///
/// let model = Arc::new(CompactCntFet::model2(DeviceParams::paper_default())?);
/// let mut c = Circuit::new();
/// let (d, g) = (c.node("d"), c.node("g"));
/// c.add(CnfetElement::new("M1", model, Polarity::N, d, g, Circuit::ground(), 100e-9));
/// # Ok::<(), cntfet_core::CompactModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CnfetElement {
    name: String,
    model: Arc<CompactCntFet>,
    polarity: Polarity,
    drain: NodeId,
    gate: NodeId,
    source: NodeId,
    /// Channel length in metres (converts per-unit-length capacitances to
    /// farads for transient terminal currents).
    length: f64,
}

impl CnfetElement {
    /// Creates a CNFET of the given polarity with channel `length`
    /// metres.
    ///
    /// # Panics
    ///
    /// Panics if `length <= 0`.
    pub fn new(
        name: &str,
        model: Arc<CompactCntFet>,
        polarity: Polarity,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        length: f64,
    ) -> Self {
        assert!(length > 0.0, "channel length must be positive");
        CnfetElement {
            name: name.to_string(),
            model,
            polarity,
            drain,
            gate,
            source,
            length,
        }
    }

    fn sign(&self) -> f64 {
        match self.polarity {
            Polarity::N => 1.0,
            Polarity::P => -1.0,
        }
    }

    /// The expensive channel quantities at a mirrored operating point
    /// `(vsc, vds)`: fitted-charge values/derivatives at both band
    /// edges and the ballistic transport current with its derivatives
    /// w.r.t. `(vsc, vds)`. Everything else in the stamp is affine in the
    /// terminal voltages.
    ///
    /// Layout: `[q_src, dq_src, q_drn, dq_drn, i, di_dvsc, di_dvds]`.
    ///
    /// With `jacobian` off only the three values are computed and the
    /// derivative slots hold 0 (a residual-only stamp never reads them).
    /// The values are bitwise the same either way: the fused value/slope
    /// kernels equal the value-only calls bit for bit.
    fn eval_channel(&self, vsc: f64, vds: f64, jacobian: bool) -> [f64; 7] {
        let charge = self.model.charge();
        let p = self.model.params();
        let ef = p.fermi_level.value();
        let kt = p.thermal_energy_ev();
        let temperature = p.temperature.value();
        if !jacobian {
            let i = drain_current(ef, vsc, vds, temperature, kt);
            return [
                charge.eval(vsc),
                0.0,
                charge.eval(vsc + vds),
                0.0,
                i,
                0.0,
                0.0,
            ];
        }
        let (q_src, dq_src) = charge.eval_with_derivative(vsc);
        let (q_drn, dq_drn) = charge.eval_with_derivative(vsc + vds);
        // `drain_current` with each F₀ sharing its exp with F₀′.
        let (f0_s, sig_s) = fermi_integral_zero_with_derivative((ef - vsc) / kt);
        let (f0_d, sig_d) = fermi_integral_zero_with_derivative((ef - vsc - vds) / kt);
        let i = BALLISTIC_CURRENT_PREFACTOR * temperature * (f0_s - f0_d);
        let k = BALLISTIC_CURRENT_PREFACTOR * temperature / kt;
        let di_dvsc = -k * (sig_s - sig_d);
        let di_dvds = k * sig_d;
        [q_src, dq_src, q_drn, dq_drn, i, di_dvsc, di_dvds]
    }
}

impl Element for CnfetElement {
    fn name(&self) -> &str {
        &self.name
    }

    fn extra_vars(&self) -> usize {
        1 // the inner node Σ (mirrored voltage for P devices)
    }

    fn stamp(&self, x: &[f64], sigma: usize, mode: &AnalysisMode, mna: &mut Mna<'_>) {
        let s = self.sign();
        // Mirrored terminal voltages (identity for N devices).
        let vd = s * node_voltage(x, self.drain);
        let vg = s * node_voltage(x, self.gate);
        let vs = s * node_voltage(x, self.source);
        let vsig = x[sigma];
        let vsc = vsig - vs;

        let caps = self.model.params().capacitances;
        let [q_src, dq_src, q_drn, dq_drn, i_core, di_dvsc, di_dvds] =
            self.eval_channel(vsc, vd - vs, mna.wants_jacobian());

        // --- Σ row: charge balance (units C/m). -------------------------
        let qt = caps.gate * (vg - vs) + caps.drain * (vd - vs);
        let f_sigma = caps.total() * vsc + qt + self.model.equilibrium_charge() - q_src - q_drn;
        mna.add_f_extra(sigma, f_sigma);

        // --- Transport current source drain → source. -------------------
        // Real current into the real drain is s·i_core.
        mna.add_f_node(self.drain, s * i_core);
        mna.add_f_node(self.source, -s * i_core);

        // --- Terminal displacement currents (transient only). -----------
        // Per-terminal capacitor to Σ, scaled to farads by length. The
        // Σ row stays algebraic (charge balance), so the return current
        // exits through the other terminals via their own companions;
        // no Σ-row stamp here.
        let terminals = [
            (self.gate, caps.gate, vg),
            (self.drain, caps.drain, vd),
            (self.source, caps.source, vs),
        ];
        let transient = match mode {
            AnalysisMode::Transient(stamp) => Some(stamp),
            AnalysisMode::Dc => None,
        };
        if let Some(stamp) = transient {
            // History of the mirrored Σ unknown (stored mirrored, so no
            // sign factor); node histories are raw and mirror through s.
            let hist_sig = stamp.history(sigma);
            for (node, c_per_m, v_now) in terminals {
                // Mirrored d/dt of the capacitor voltage (v_node − vΣ).
                let ddt = stamp.a0 * (v_now - vsig) + s * stamp.history_node(node) - hist_sig;
                // Mirrored current out of the mirrored node = s·i into the
                // real node's KCL.
                mna.add_f_node(node, s * (c_per_m * self.length * ddt));
            }
        }

        mna.stamp_jacobian(|j| {
            // Σ row. ∂F/∂vσ (mirrored unknown, no sign factor).
            j.add_index(sigma, sigma, caps.total() - dq_src - dq_drn);
            // ∂F/∂(node voltages): chain through the mirror (× s).
            // vsc depends on vs; vds on vd, vs; qt on vg, vd, vs.
            let df_dvg = caps.gate;
            let df_dvd = caps.drain - dq_drn;
            let df_dvs = -caps.total() - caps.gate - caps.drain + dq_src + 2.0 * dq_drn;
            j.add_extra_node(sigma, self.gate, s * df_dvg);
            j.add_extra_node(sigma, self.drain, s * df_dvd);
            j.add_extra_node(sigma, self.source, s * df_dvs);
            // Transport: ∂(s·i)/∂x[node] = s · (∂i/∂v_mirror) · s =
            // ∂i/∂v_mirror.
            let di_dvd_m = di_dvds;
            let di_dvs_m = -di_dvsc - di_dvds;
            j.add_nodes(self.drain, self.drain, di_dvd_m);
            j.add_nodes(self.drain, self.source, di_dvs_m);
            j.add_node_extra(self.drain, sigma, s * di_dvsc);
            j.add_nodes(self.source, self.drain, -di_dvd_m);
            j.add_nodes(self.source, self.source, -di_dvs_m);
            j.add_node_extra(self.source, sigma, -s * di_dvsc);
            // Displacement: ∂/∂(real node voltage) = s·g·s = g.
            if let Some(stamp) = transient {
                for (node, c_per_m, _) in terminals {
                    let g = c_per_m * self.length * stamp.a0;
                    j.add_nodes(node, node, g);
                    j.add_node_extra(node, sigma, -s * g);
                }
            }
        });
    }

    fn limit_step(&self, _x: &[f64], dx: &[f64], sigma: usize) -> Option<f64> {
        // fetlim-style swing cap: no controlling voltage of this device
        // may move more than MAX_SWING in one Newton iteration. 2 V is
        // generous against the 0.9 V logic rails, yet healthy solves
        // still exceed it: the DC operating point of the 1 000-gate
        // ring array, solved from x = 0, clamps 116 of its steps. So
        // do the multi-volt overshoots of a diverging or
        // limit-cycling iteration.
        const MAX_SWING: f64 = 2.0;
        let s = self.sign();
        let dvd = s * node_voltage(dx, self.drain);
        let dvg = s * node_voltage(dx, self.gate);
        let dvs = s * node_voltage(dx, self.source);
        let dvsc = dx[sigma] - dvs;
        let dvds = dvd - dvs;
        let dvgs = dvg - dvs;
        let worst = dvsc.abs().max(dvds.abs()).max(dvgs.abs());
        if worst > MAX_SWING {
            Some(MAX_SWING / worst)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::Solution;
    use crate::element::VoltageSource;
    use crate::engine::{NewtonEngine, NewtonOptions};
    use crate::netlist::Circuit;
    use cntfet_reference::DeviceParams;

    fn model() -> Arc<CompactCntFet> {
        Arc::new(CompactCntFet::model2(DeviceParams::paper_default()).unwrap())
    }

    fn solve_dc(c: &Circuit) -> Solution {
        NewtonEngine::new(NewtonOptions::default())
            .dc_operating_point(c, None)
            .unwrap()
    }

    fn single_device_circuit(vg: f64, vd: f64, pol: Polarity) -> (Circuit, NodeId, usize) {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        c.add(VoltageSource::dc("VD", d, Circuit::ground(), vd));
        c.add(VoltageSource::dc("VG", g, Circuit::ground(), vg));
        c.add(CnfetElement::new(
            "M1",
            model(),
            pol,
            d,
            g,
            Circuit::ground(),
            100e-9,
        ));
        let bases = c.extra_var_bases();
        (c, d, bases[2])
    }

    #[test]
    fn dc_inner_node_matches_compact_model() {
        let m = model();
        for &(vg, vd) in &[(0.3, 0.2), (0.5, 0.4), (0.6, 0.6)] {
            let (c, _, sigma) = single_device_circuit(vg, vd, Polarity::N);
            let sol = solve_dc(&c);
            let expect = m.vsc(vg, vd).unwrap();
            assert!(
                (sol.x[sigma] - expect).abs() < 1e-6,
                "vg {vg} vd {vd}: circuit {} vs model {expect}",
                sol.x[sigma]
            );
        }
    }

    #[test]
    fn dc_drain_current_matches_compact_model() {
        let m = model();
        let (c, _, _) = single_device_circuit(0.5, 0.4, Polarity::N);
        let sol = solve_dc(&c);
        // VD branch current = −I_D (source delivers the drain current).
        let bases = c.extra_var_bases();
        let i_vd = sol.x[bases[0]];
        let expect = m.ids(0.5, 0.4).unwrap();
        assert!(
            (i_vd + expect).abs() < 1e-9 + 1e-5 * expect,
            "branch {i_vd} vs −{expect}"
        );
    }

    #[test]
    fn p_device_mirrors_n_device() {
        let mn = {
            let (c, _, _) = single_device_circuit(0.5, 0.4, Polarity::N);
            let bases = c.extra_var_bases();
            solve_dc(&c).x[bases[0]]
        };
        let mp = {
            let (c, _, _) = single_device_circuit(-0.5, -0.4, Polarity::P);
            let bases = c.extra_var_bases();
            solve_dc(&c).x[bases[0]]
        };
        assert!(
            (mn + mp).abs() < 1e-9 + 1e-6 * mn.abs(),
            "n-branch {mn} vs p-branch {mp}"
        );
    }

    #[test]
    fn zero_bias_gives_zero_current() {
        let (c, _, _) = single_device_circuit(0.0, 0.0, Polarity::N);
        let sol = solve_dc(&c);
        let bases = c.extra_var_bases();
        assert!(sol.x[bases[0]].abs() < 1e-12);
    }

    #[test]
    fn fused_channel_kernel_equals_the_separate_calls_bitwise() {
        use cntfet_physics::fermi::fermi_integral_zero_derivative;
        let m = model();
        let e = CnfetElement::new(
            "M",
            Arc::clone(&m),
            Polarity::N,
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            100e-9,
        );
        let charge = m.charge();
        let p = m.params();
        let (ef, kt, temp) = (
            p.fermi_level.value(),
            p.thermal_energy_ev(),
            p.temperature.value(),
        );
        let mut vscs: Vec<f64> = (-60..=60).map(|k| k as f64 * 0.0137).collect();
        vscs.extend(charge.breakpoints());
        vscs.extend([0.0, -0.0]);
        for &vsc in &vscs {
            for vds in [0.0, -0.0, 0.05, 0.4, 0.8, -0.3, 1.7] {
                let full = e.eval_channel(vsc, vds, true);
                let k = BALLISTIC_CURRENT_PREFACTOR * temp / kt;
                let sig_s = fermi_integral_zero_derivative((ef - vsc) / kt);
                let sig_d = fermi_integral_zero_derivative((ef - vsc - vds) / kt);
                let separate = [
                    charge.eval(vsc),
                    charge.eval_derivative(vsc),
                    charge.eval(vsc + vds),
                    charge.eval_derivative(vsc + vds),
                    drain_current(ef, vsc, vds, temp, kt),
                    -k * (sig_s - sig_d),
                    k * sig_d,
                ];
                let values = e.eval_channel(vsc, vds, false);
                for (slot, (a, b)) in full.iter().zip(&separate).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "slot {slot} at ({vsc}, {vds})");
                }
                for slot in [0, 2, 4] {
                    assert_eq!(full[slot].to_bits(), values[slot].to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        let _ = CnfetElement::new(
            "M",
            model(),
            Polarity::N,
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            0.0,
        );
    }
}
