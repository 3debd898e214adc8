//! Flat compressed-sparse-row adjacency.
//!
//! [`Graph`] stores adjacency as `Vec<Vec<EdgeId>>` — convenient to build
//! incrementally, but every node's edge list is its own heap allocation, so
//! batch algorithms that sweep the whole graph per destination (Dijkstra,
//! DAG construction) pay a pointer chase per node. [`Csr`] freezes the same
//! adjacency into two flat arrays: `offsets` (one entry per node, plus a
//! terminator) and `entries` (one `(edge, neighbor)` pair per edge, grouped
//! by node). Traversal becomes a contiguous slice scan, and the *other*
//! endpoint of each edge is pre-resolved so the inner Dijkstra loop touches
//! exactly one cache line stream.
//!
//! The entry order within each node's slice is the insertion order of the
//! underlying adjacency lists, so algorithms that iterate a `Csr` visit
//! edges in exactly the same sequence as ones that iterate
//! [`Graph::out_edges`]/[`Graph::in_edges`] — a prerequisite for the
//! batched routing engine's bit-identical-to-legacy guarantee.

use crate::{EdgeId, Graph, NodeId};

/// A frozen CSR view of one direction of a [`Graph`]'s adjacency.
///
/// Build once per graph (O(|N| + |J|)), traverse many times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[u]..offsets[u + 1]` indexes `entries` for node `u`;
    /// length `node_count + 1`.
    offsets: Vec<usize>,
    /// `(edge, neighbor)` pairs grouped by node. For an out-CSR the
    /// neighbor is the edge's target; for an in-CSR it is the source.
    entries: Vec<(EdgeId, NodeId)>,
}

impl Csr {
    /// Builds the out-edge CSR: `neighbors(u)` lists `(e, target(e))` for
    /// every edge `e` leaving `u`, in [`Graph::out_edges`] order.
    pub fn out_of(graph: &Graph) -> Csr {
        Self::build(graph, |g, u| g.out_edges(u), |g, e| g.target(e))
    }

    /// Builds the in-edge CSR: `neighbors(v)` lists `(e, source(e))` for
    /// every edge `e` entering `v`, in [`Graph::in_edges`] order.
    ///
    /// This is the adjacency Dijkstra-to-a-destination traverses.
    pub fn in_of(graph: &Graph) -> Csr {
        Self::build(graph, |g, v| g.in_edges(v), |g, e| g.source(e))
    }

    fn build(
        graph: &Graph,
        list: impl Fn(&Graph, NodeId) -> &[EdgeId],
        other: impl Fn(&Graph, EdgeId) -> NodeId,
    ) -> Csr {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(graph.edge_count());
        offsets.push(0);
        for u in graph.nodes() {
            for &e in list(graph, u) {
                entries.push((e, other(graph, e)));
            }
            offsets.push(entries.len());
        }
        Csr { offsets, entries }
    }

    /// Number of nodes this CSR covers.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of `(edge, neighbor)` entries — the graph's edge count.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Bytes of capacity the offset and entry arrays hold. An entry is
    /// two 4-byte ids.
    pub fn arena_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.entries.capacity() * std::mem::size_of::<(EdgeId, NodeId)>()
    }

    /// The `(edge, neighbor)` pairs incident to `u` in this direction.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[(EdgeId, NodeId)] {
        &self.entries[self.offsets[u.index()]..self.offsets[u.index() + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g
    }

    #[test]
    fn out_csr_matches_adjacency_lists() {
        let g = diamond();
        let csr = Csr::out_of(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.entry_count(), 4);
        for u in g.nodes() {
            let flat: Vec<EdgeId> = csr.neighbors(u).iter().map(|&(e, _)| e).collect();
            assert_eq!(flat, g.out_edges(u), "out edges of {u}");
            for &(e, v) in csr.neighbors(u) {
                assert_eq!(v, g.target(e));
            }
        }
    }

    #[test]
    fn in_csr_matches_adjacency_lists() {
        let g = diamond();
        let csr = Csr::in_of(&g);
        for v in g.nodes() {
            let flat: Vec<EdgeId> = csr.neighbors(v).iter().map(|&(e, _)| e).collect();
            assert_eq!(flat, g.in_edges(v), "in edges of {v}");
            for &(e, u) in csr.neighbors(v) {
                assert_eq!(u, g.source(e));
            }
        }
    }

    #[test]
    fn parallel_edges_keep_both_entries() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 1.into());
        let csr = Csr::out_of(&g);
        assert_eq!(csr.neighbors(0.into()).len(), 2);
        assert_eq!(csr.neighbors(1.into()).len(), 0);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        let csr = Csr::out_of(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.entry_count(), 0);
    }
}
