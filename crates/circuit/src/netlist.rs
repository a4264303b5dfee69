//! Circuit description: nodes and the element container.
//!
//! # Unknown-vector layout
//!
//! Every solver in this crate shares one layout of the MNA unknown
//! vector: the [`Circuit::node_count`] non-ground node voltages first
//! (node `n` at index `n − 1`, see [`NodeId::unknown_index`]), followed
//! by each element's extra variables in element insertion order
//! ([`Circuit::extra_var_bases`]). Analyses exploit the split — e.g.
//! adaptive transient stepping measures its truncation-error norm over
//! the node-voltage prefix only, because the extra rows (branch
//! currents in amperes, CNFET charge balances in C/m) live in
//! different units.
//!
//! # Structural identity
//!
//! Solver caches are keyed on ([`Circuit::id`], [`Circuit::revision`]):
//! `id` is process-unique per circuit instance, and `revision` bumps on
//! every structural change (new node or element). Value-only updates
//! such as [`Circuit::set_source_value`] leave `revision` untouched, so
//! warm solver state survives sweeps and transient runs.

use crate::element::Element;
use std::collections::HashMap;
use std::fmt;

/// A circuit node. `NodeId::GROUND` is the reference node (0 V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(0);

    /// Index of this node's voltage in the unknown vector, or `None` for
    /// ground.
    pub fn unknown_index(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0 - 1)
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            write!(f, "gnd")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// A circuit under construction: named nodes plus a list of elements.
///
/// # Examples
///
/// ```
/// use cntfet_circuit::netlist::Circuit;
/// use cntfet_circuit::element::{Resistor, VoltageSource};
///
/// let mut c = Circuit::new();
/// let vin = c.node("in");
/// let out = c.node("out");
/// c.add(VoltageSource::dc("V1", vin, Circuit::ground(), 1.0));
/// c.add(Resistor::new("R1", vin, out, 1e3));
/// c.add(Resistor::new("R2", out, Circuit::ground(), 1e3));
/// assert_eq!(c.node_count(), 2);
/// ```
#[derive(Debug)]
pub struct Circuit {
    id: u64,
    names: HashMap<String, NodeId>,
    next_node: usize,
    elements: Vec<Box<dyn Element>>,
    revision: u64,
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Circuit {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            names: HashMap::new(),
            next_node: 1,
            elements: Vec::new(),
            revision: 0,
        }
    }

    /// A process-unique identity for this circuit instance. Solver
    /// caches key on `(id, revision)` so an engine reused across two
    /// different circuits can never confuse their structures.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The ground node.
    pub fn ground() -> NodeId {
        NodeId::GROUND
    }

    /// Returns the node with the given name, creating it on first use.
    /// The name `"gnd"` (or `"0"`) is the ground node.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "gnd" || name == "0" {
            return NodeId::GROUND;
        }
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.revision += 1;
        self.names.insert(name.to_string(), id);
        id
    }

    /// Structural revision counter: bumped whenever the circuit gains a
    /// node or an element. Solvers key their cached sparsity patterns on
    /// this, so a grown circuit transparently rebuilds the pattern.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "gnd" || name == "0" {
            Some(NodeId::GROUND)
        } else {
            self.names.get(name).copied()
        }
    }

    /// Number of non-ground nodes.
    pub fn node_count(&self) -> usize {
        self.next_node - 1
    }

    /// Adds an element.
    pub fn add(&mut self, element: impl Element + 'static) {
        self.revision += 1;
        self.elements.push(Box::new(element));
    }

    /// The elements in insertion order.
    pub fn elements(&self) -> &[Box<dyn Element>] {
        &self.elements
    }

    /// Mutable access to the elements (used by sweeps to update source
    /// values in place).
    pub fn elements_mut(&mut self) -> &mut [Box<dyn Element>] {
        &mut self.elements
    }

    /// Number of nonlinear device instances: elements that carry extra
    /// unknowns without being sources (today, the CNFETs and their
    /// inner charge nodes). Every assembly pass evaluates each of them
    /// once and adds this count to
    /// [`crate::engine::EngineCounters::device_evals`] (or, on a
    /// residual-only pass, to `residual_evals`) — linear R/C/V/I stamps
    /// are never counted.
    pub fn device_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| e.extra_vars() > 0 && !e.is_source())
            .count()
    }

    /// Total number of MNA unknowns: node voltages plus element extra
    /// variables (source branch currents, CNFET inner nodes).
    pub fn unknown_count(&self) -> usize {
        self.node_count() + self.elements.iter().map(|e| e.extra_vars()).sum::<usize>()
    }

    /// Assigns each element its base index into the extra-variable block
    /// and returns the list (same order as [`Circuit::elements`]).
    pub fn extra_var_bases(&self) -> Vec<usize> {
        let mut base = self.node_count();
        self.elements
            .iter()
            .map(|e| {
                let b = base;
                base += e.extra_vars();
                b
            })
            .collect()
    }

    /// All named nodes as `(name, id)` pairs, sorted by node id (i.e.
    /// creation order) so the listing is deterministic.
    pub fn node_names(&self) -> Vec<(String, NodeId)> {
        let mut names: Vec<(String, NodeId)> =
            self.names.iter().map(|(n, &id)| (n.clone(), id)).collect();
        names.sort_by_key(|&(_, id)| id);
        names
    }

    /// Names of the elements that can be driven as sources (accept
    /// [`Circuit::set_source_value`] / provide an AC stimulus), in
    /// element insertion order. Used to validate sweep and AC requests
    /// up front with a helpful error.
    pub fn source_names(&self) -> Vec<String> {
        self.elements
            .iter()
            .filter(|e| e.is_source())
            .map(|e| e.name().to_string())
            .collect()
    }

    /// `true` when the circuit has a drivable source with this name.
    pub fn has_source(&self, name: &str) -> bool {
        self.elements
            .iter()
            .any(|e| e.is_source() && e.name() == name)
    }

    /// Sets the value of the named source element (DC value).
    ///
    /// Returns `true` if an element with that name accepted the update.
    pub fn set_source_value(&mut self, name: &str, value: f64) -> bool {
        for e in &mut self.elements {
            if e.name() == name && e.set_value(value) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Resistor, VoltageSource};

    #[test]
    fn node_names_are_stable() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_ne!(a, b);
        assert_eq!(c.node("a"), a);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.find_node("b"), Some(b));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("gnd"), NodeId::GROUND);
        assert_eq!(c.node("0"), NodeId::GROUND);
        assert_eq!(c.node_count(), 0);
        assert_eq!(NodeId::GROUND.unknown_index(), None);
    }

    #[test]
    fn unknown_count_includes_branch_currents() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::dc("V1", a, Circuit::ground(), 1.0));
        c.add(Resistor::new("R1", a, Circuit::ground(), 1e3));
        assert_eq!(c.unknown_count(), 2); // node a + V1 branch current
        assert_eq!(c.extra_var_bases(), vec![1, 2]);
    }

    #[test]
    fn set_source_value_finds_named_source() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(VoltageSource::dc("V1", a, Circuit::ground(), 1.0));
        c.add(Resistor::new("R1", a, Circuit::ground(), 1e3));
        assert!(c.set_source_value("V1", 2.5));
        assert!(!c.set_source_value("R1", 2.5));
        assert!(!c.set_source_value("nope", 1.0));
    }

    #[test]
    fn source_and_node_listings() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add(VoltageSource::dc("V1", a, Circuit::ground(), 1.0));
        c.add(Resistor::new("R1", a, b, 1e3));
        assert_eq!(c.source_names(), vec!["V1".to_string()]);
        assert!(c.has_source("V1"));
        assert!(!c.has_source("R1"), "a resistor is not drivable");
        assert!(!c.has_source("nope"));
        let names = c.node_names();
        assert_eq!(
            names,
            vec![("a".to_string(), a), ("b".to_string(), b)],
            "sorted by creation order"
        );
    }

    #[test]
    fn display_of_nodes() {
        assert_eq!(NodeId::GROUND.to_string(), "gnd");
        assert_eq!(NodeId(3).to_string(), "n3");
    }
}
