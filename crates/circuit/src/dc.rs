//! The DC operating-point result type.
//!
//! The damped-Newton iteration with its rescue ladder lives in
//! [`crate::engine`]; solve operating points through
//! [`crate::sim::Simulator::op`], which shares solver caches and warm
//! starts across analyses.

/// A converged solution of the MNA system.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Unknown vector: node voltages (order of node creation) followed by
    /// element extra variables.
    pub x: Vec<f64>,
    /// Newton iterations used (summed over rescue stages).
    pub iterations: usize,
}

impl Solution {
    /// Voltage of `node` in this solution.
    pub fn voltage(&self, node: crate::netlist::NodeId) -> f64 {
        node.unknown_index().map(|i| self.x[i]).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use crate::element::{CurrentSource, Resistor, VoltageSource};
    use crate::netlist::Circuit;
    use crate::sim::Simulator;

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 2.0));
        c.add(Resistor::new("R1", vin, out, 1e3));
        c.add(Resistor::new("R2", out, Circuit::ground(), 3e3));
        let op = Simulator::new(c).op().unwrap();
        assert!((op.voltage_at(out) - 1.5).abs() < 1e-9);
        assert!((op.voltage_at(vin) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(CurrentSource::dc("I1", Circuit::ground(), a, 1e-3));
        c.add(Resistor::new("R1", a, Circuit::ground(), 2e3));
        let op = Simulator::new(c).op().unwrap();
        assert!((op.voltage_at(a) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn branch_current_of_voltage_source() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::dc("V1", a, Circuit::ground(), 5.0));
        c.add(Resistor::new("R1", a, Circuit::ground(), 1e3));
        let bases = c.extra_var_bases();
        let op = Simulator::new(c).op().unwrap();
        // Source supplies 5 mA; branch current (out of +) is −5 mA.
        assert!((op.x()[bases[0]] + 5e-3).abs() < 1e-9);
    }

    #[test]
    fn two_sources_parallel_resistors() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(VoltageSource::dc("VA", a, Circuit::ground(), 1.0));
        c.add(VoltageSource::dc("VB", b, Circuit::ground(), 2.0));
        c.add(Resistor::new("R1", a, b, 1e3));
        let op = Simulator::new(c).op().unwrap();
        assert!((op.voltage_at(a) - 1.0).abs() < 1e-12);
        assert!((op.voltage_at(b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn floating_nodes_resolve_to_ground_via_gmin() {
        // Nothing drives the pair, so the all-zero start already meets
        // every row's tolerance and Newton stops before any
        // factorisation: the floating pair reads 0 V.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(Resistor::new("R1", a, b, 1e3));
        let op = Simulator::new(c).op().unwrap();
        assert!(op.voltage_at(a).abs() < 1e-9);
        assert!(op.voltage_at(b).abs() < 1e-9);
    }

    #[test]
    fn floating_nodes_resolve_with_sparse_solver_too() {
        // A second solve on the same session warm-starts from the first
        // and still settles the floating pair at 0 V.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(Resistor::new("R1", a, b, 1e3));
        let mut sim = Simulator::new(c);
        sim.op().unwrap();
        let op = sim.op().unwrap();
        assert!(op.voltage_at(a).abs() < 1e-9);
        assert!(op.voltage_at(b).abs() < 1e-9);
    }

    #[test]
    fn empty_circuit_solves_trivially() {
        let op = Simulator::new(Circuit::new()).op().unwrap();
        assert!(op.x().is_empty());
    }

    #[test]
    fn warm_start_converges_faster_or_equal() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 2.0));
        c.add(Resistor::new("R1", vin, out, 1e3));
        c.add(Resistor::new("R2", out, Circuit::ground(), 1e3));
        let mut sim = Simulator::new(c);
        let cold = sim.op().unwrap();
        let warm = sim.op().unwrap();
        assert!(warm.iterations() <= cold.iterations());
        assert!((warm.voltage_at(out) - cold.voltage_at(out)).abs() < 1e-12);
    }
}
