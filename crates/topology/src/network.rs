use std::fmt;

use serde::{Deserialize, Serialize};
use spef_graph::{traversal, EdgeId, Graph, NodeId};

/// Errors produced when building or validating a [`Network`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A link capacity was zero, negative, NaN or infinite.
    InvalidCapacity {
        /// The offending link.
        edge: EdgeId,
        /// The offending capacity.
        capacity: f64,
    },
    /// The network is not strongly connected, so some demand pairs could
    /// never be routed.
    NotStronglyConnected,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidCapacity { edge, capacity } => {
                write!(f, "link {edge} has invalid capacity {capacity}")
            }
            TopologyError::NotStronglyConnected => {
                write!(f, "network is not strongly connected")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A network: directed graph plus per-link capacities, node names, and
/// planar node coordinates.
///
/// Coordinates feed the Fortz–Thorup demand generator (demands decay with
/// distance) and are set to rough geographic positions for the real
/// backbones and to generator-chosen positions for synthetic networks.
///
/// # Example
///
/// ```
/// use spef_topology::Network;
///
/// # fn main() -> Result<(), spef_topology::TopologyError> {
/// let mut b = Network::builder("toy");
/// let a = b.add_node("a", (0.0, 0.0));
/// let c = b.add_node("c", (1.0, 0.0));
/// b.add_duplex_link(a, c, 10.0);
/// let net = b.build()?;
/// assert_eq!(net.link_count(), 2);
/// assert_eq!(net.total_capacity(), 20.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    graph: Graph,
    capacities: Vec<f64>,
    node_names: Vec<String>,
    coords: Vec<(f64, f64)>,
}

impl Network {
    /// Starts building a network with the given display name.
    pub fn builder(name: impl Into<String>) -> NetworkBuilder {
        NetworkBuilder {
            name: name.into(),
            graph: Graph::new(),
            capacities: Vec::new(),
            node_names: Vec::new(),
            coords: Vec::new(),
        }
    }

    /// Display name (e.g. `"Abilene"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying directed graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Capacity of link `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.capacities[e.index()]
    }

    /// All link capacities, indexed by edge id.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Sum of all link capacities (denominator of the paper's
    /// "network load" metric).
    pub fn total_capacity(&self) -> f64 {
        self.capacities.iter().sum()
    }

    /// Name of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn node_name(&self, u: NodeId) -> &str {
        &self.node_names[u.index()]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_names
            .iter()
            .position(|n| n == name)
            .map(NodeId::new)
    }

    /// Planar coordinates of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn coord(&self, u: NodeId) -> (f64, f64) {
        self.coords[u.index()]
    }

    /// Euclidean distance between the coordinates of `u` and `v`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn euclidean_distance(&self, u: NodeId, v: NodeId) -> f64 {
        let (ux, uy) = self.coord(u);
        let (vx, vy) = self.coord(v);
        ((ux - vx).powi(2) + (uy - vy).powi(2)).sqrt()
    }

    /// Largest Euclidean distance between any node pair (the `Δ` of the
    /// Fortz–Thorup demand model). Zero for networks with fewer than two
    /// nodes.
    pub fn max_distance(&self) -> f64 {
        let mut best = 0.0f64;
        for u in self.graph.nodes() {
            for v in self.graph.nodes() {
                if u != v {
                    best = best.max(self.euclidean_distance(u, v));
                }
            }
        }
        best
    }

    /// Returns a copy of the network with the given directed links removed
    /// (to fail a duplex circuit, pass both directions), together with the
    /// mapping from new edge ids to the original ones.
    ///
    /// Used by failure-robustness studies: OSPF-family protocols reconverge
    /// on the surviving topology with their *existing* weights.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NotStronglyConnected`] if the removal
    /// disconnects the network.
    pub fn without_links(
        &self,
        failed: &[EdgeId],
    ) -> Result<(Network, Vec<EdgeId>), TopologyError> {
        let mut b = Network::builder(format!("{}-degraded", self.name));
        for node in self.graph.nodes() {
            b.add_node(self.node_name(node), self.coord(node));
        }
        let mut kept = Vec::new();
        for (e, u, v) in self.graph.edges() {
            if !failed.contains(&e) {
                b.add_link(u, v, self.capacity(e));
                kept.push(e);
            }
        }
        Ok((b.build()?, kept))
    }

    /// Groups the directed links into duplex *circuits*: a forward link and
    /// its antiparallel partner (same endpoints, opposite direction) form
    /// one circuit; a link with no surviving partner forms a circuit by
    /// itself. Failure studies take a whole circuit down at once — a fibre
    /// cut kills both directions — so this is the canonical enumeration of
    /// single-failure events.
    ///
    /// Deterministic: circuits are ordered by their lowest edge id, and
    /// each forward link pairs with the first unpaired reverse link (the
    /// builder's `add_duplex_link` always produces adjacent ids, so named
    /// topologies get the obvious `(2i, 2i+1)` pairing).
    pub fn duplex_circuits(&self) -> Vec<Vec<EdgeId>> {
        let m = self.graph.edge_count();
        let mut claimed = vec![false; m];
        let mut circuits = Vec::new();
        for (e, u, v) in self.graph.edges() {
            if claimed[e.index()] {
                continue;
            }
            claimed[e.index()] = true;
            let mut circuit = vec![e];
            if let Some(rev) = self
                .graph
                .edges()
                .find(|&(r, ru, rv)| !claimed[r.index()] && ru == v && rv == u)
                .map(|(r, _, _)| r)
            {
                claimed[rev.index()] = true;
                circuit.push(rev);
            }
            circuits.push(circuit);
        }
        circuits
    }

    /// Per-link utilizations `f_e / c_e` for a given aggregate flow vector.
    ///
    /// # Panics
    ///
    /// Panics if `flows.len() != self.link_count()`.
    pub fn utilizations(&self, flows: &[f64]) -> Vec<f64> {
        assert_eq!(flows.len(), self.link_count(), "flow vector length");
        flows
            .iter()
            .zip(&self.capacities)
            .map(|(f, c)| f / c)
            .collect()
    }
}

/// Incremental builder for [`Network`] (see [`Network::builder`]).
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    graph: Graph,
    capacities: Vec<f64>,
    node_names: Vec<String>,
    coords: Vec<(f64, f64)>,
}

impl NetworkBuilder {
    /// Adds a named node at the given planar coordinates.
    pub fn add_node(&mut self, name: impl Into<String>, coord: (f64, f64)) -> NodeId {
        let id = self.graph.add_node();
        self.node_names.push(name.into());
        self.coords.push(coord);
        id
    }

    /// Adds a directed link `u -> v` with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `u == v`.
    pub fn add_link(&mut self, u: NodeId, v: NodeId, capacity: f64) -> EdgeId {
        let e = self.graph.add_edge(u, v);
        self.capacities.push(capacity);
        e
    }

    /// Adds a pair of directed links `u -> v` and `v -> u`, both with the
    /// given capacity (how every backbone in the paper is wired).
    ///
    /// Returns the pair of edge ids `(u→v, v→u)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range or `u == v`.
    pub fn add_duplex_link(&mut self, u: NodeId, v: NodeId, capacity: f64) -> (EdgeId, EdgeId) {
        (self.add_link(u, v, capacity), self.add_link(v, u, capacity))
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of directed links added so far.
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Finalises the network.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::InvalidCapacity`] if any capacity is not a
    ///   strictly positive finite number,
    /// * [`TopologyError::NotStronglyConnected`] if some ordered node pair
    ///   has no directed path (demands between arbitrary pairs must be
    ///   routable).
    pub fn build(self) -> Result<Network, TopologyError> {
        for (i, &c) in self.capacities.iter().enumerate() {
            if !c.is_finite() || c <= 0.0 {
                return Err(TopologyError::InvalidCapacity {
                    edge: EdgeId::new(i),
                    capacity: c,
                });
            }
        }
        if !traversal::is_strongly_connected(&self.graph) {
            return Err(TopologyError::NotStronglyConnected);
        }
        Ok(Network {
            name: self.name,
            graph: self.graph,
            capacities: self.capacities,
            node_names: self.node_names,
            coords: self.coords,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Network {
        let mut b = Network::builder("tri");
        let a = b.add_node("a", (0.0, 0.0));
        let c = b.add_node("b", (3.0, 4.0));
        let d = b.add_node("c", (0.0, 1.0));
        b.add_duplex_link(a, c, 1.0);
        b.add_duplex_link(c, d, 2.0);
        b.add_duplex_link(d, a, 4.0);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_consistent_network() {
        let net = triangle();
        assert_eq!(net.name(), "tri");
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.link_count(), 6);
        assert_eq!(net.total_capacity(), 14.0);
        assert_eq!(net.capacity(EdgeId::new(2)), 2.0);
    }

    #[test]
    fn node_lookup_by_name() {
        let net = triangle();
        assert_eq!(net.node_by_name("b"), Some(NodeId::new(1)));
        assert_eq!(net.node_by_name("zzz"), None);
        assert_eq!(net.node_name(NodeId::new(2)), "c");
    }

    #[test]
    fn euclidean_distances() {
        let net = triangle();
        assert_eq!(net.euclidean_distance(NodeId::new(0), NodeId::new(1)), 5.0);
        assert_eq!(net.max_distance(), 5.0);
    }

    #[test]
    fn utilizations_divide_by_capacity() {
        let net = triangle();
        let u = net.utilizations(&[0.5, 1.0, 1.0, 0.0, 2.0, 4.0]);
        assert_eq!(u, vec![0.5, 1.0, 0.5, 0.0, 0.5, 1.0]);
    }

    #[test]
    fn rejects_nonpositive_capacity() {
        let mut b = Network::builder("bad");
        let a = b.add_node("a", (0.0, 0.0));
        let c = b.add_node("b", (1.0, 0.0));
        b.add_duplex_link(a, c, 0.0);
        assert!(matches!(
            b.build(),
            Err(TopologyError::InvalidCapacity { .. })
        ));
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = Network::builder("bad");
        let a = b.add_node("a", (0.0, 0.0));
        let c = b.add_node("b", (1.0, 0.0));
        b.add_link(a, c, 1.0); // one-way only
        assert_eq!(b.build(), Err(TopologyError::NotStronglyConnected));
    }

    #[test]
    fn single_node_network_is_valid() {
        let mut b = Network::builder("lonely");
        b.add_node("only", (0.0, 0.0));
        let net = b.build().unwrap();
        assert_eq!(net.max_distance(), 0.0);
    }

    #[test]
    fn without_links_drops_a_circuit_and_maps_ids() {
        let net = triangle();
        // Fail the duplex a<->b circuit (edges 0 and 1).
        let (degraded, kept) = net
            .without_links(&[EdgeId::new(0), EdgeId::new(1)])
            .unwrap();
        assert_eq!(degraded.link_count(), 4);
        assert_eq!(kept.len(), 4);
        // New edge 0 is the original edge 2.
        assert_eq!(kept[0], EdgeId::new(2));
        assert_eq!(
            degraded.capacity(EdgeId::new(0)),
            net.capacity(EdgeId::new(2))
        );
        assert_eq!(degraded.node_count(), 3);
    }

    #[test]
    fn duplex_circuits_pair_antiparallel_links() {
        let net = triangle();
        let circuits = net.duplex_circuits();
        assert_eq!(circuits.len(), 3);
        for (i, c) in circuits.iter().enumerate() {
            assert_eq!(c, &[EdgeId::new(2 * i), EdgeId::new(2 * i + 1)]);
            let (u0, v0) = net.graph().endpoints(c[0]);
            let (u1, v1) = net.graph().endpoints(c[1]);
            assert_eq!((u0, v0), (v1, u1));
        }
    }

    #[test]
    fn duplex_circuits_leave_unpaired_links_as_singletons() {
        // A directed 3-cycle plus one duplex pair: 3 singleton circuits and
        // one paired circuit.
        let mut b = Network::builder("mixed");
        let a = b.add_node("a", (0.0, 0.0));
        let c = b.add_node("b", (1.0, 0.0));
        let d = b.add_node("c", (0.0, 1.0));
        b.add_link(a, c, 1.0); // 0
        b.add_link(c, d, 1.0); // 1
        b.add_link(d, a, 1.0); // 2
        b.add_duplex_link(a, d, 2.0); // 3, 4
        let net = b.build().unwrap();
        let circuits = net.duplex_circuits();
        assert_eq!(
            circuits,
            vec![
                vec![EdgeId::new(0)],
                vec![EdgeId::new(1)],
                // Edge 2 (d->a) pairs with edge 3 (a->d) of the duplex link.
                vec![EdgeId::new(2), EdgeId::new(3)],
                vec![EdgeId::new(4)],
            ]
        );
        let total: usize = circuits.iter().map(Vec::len).sum();
        assert_eq!(total, net.link_count());
    }

    #[test]
    fn without_links_rejects_disconnection() {
        let mut b = Network::builder("path");
        let a = b.add_node("a", (0.0, 0.0));
        let c = b.add_node("b", (1.0, 0.0));
        b.add_duplex_link(a, c, 1.0);
        let net = b.build().unwrap();
        assert_eq!(
            net.without_links(&[EdgeId::new(0), EdgeId::new(1)])
                .unwrap_err(),
            TopologyError::NotStronglyConnected
        );
    }
}
