//! Single-source / single-destination shortest path distances.
//!
//! OSPF route computation is *per destination*: every router needs its
//! distance **to** each destination `t`, which is a shortest-path problem on
//! the reverse graph. [`distances_to`] runs Dijkstra over incoming edges
//! directly so callers never have to materialise a reversed graph.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::validate_weights;
use crate::{Graph, GraphError, NodeId};

/// A `(distance, node)` heap entry ordered as a min-heap by distance.
///
/// Shared with the batched engine in [`crate::batch`] so both paths pop
/// nodes in the same order (distance, then node id) and relax the same
/// edges in the same sequence, which gives the same distances, bit for
/// bit. The batched DAG processing order does not depend on this pop
/// order: it reverses the settle order and sorts each run of equal
/// distance by node id.
#[derive(Debug, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) dist: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) pops the smallest distance.
        // Distances are produced from finite non-negative weights, so
        // total_cmp is a total order consistent with numeric order here.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn check_node(graph: &Graph, node: NodeId) -> Result<(), GraphError> {
    if node.index() >= graph.node_count() {
        return Err(GraphError::NodeOutOfRange {
            node,
            nodes: graph.node_count(),
        });
    }
    Ok(())
}

/// Computes shortest-path distances **from** `source` to every node.
///
/// Unreachable nodes get `f64::INFINITY`.
///
/// # Errors
///
/// Returns [`GraphError::WeightCount`] if `weights.len() != graph.edge_count()`,
/// [`GraphError::InvalidWeight`] if any weight is negative, NaN or infinite,
/// and [`GraphError::NodeOutOfRange`] if `source` is not in the graph.
///
/// # Example
///
/// ```
/// use spef_graph::{Graph, distances_from};
///
/// # fn main() -> Result<(), spef_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(1.into(), 2.into());
/// let d = distances_from(&g, &[2.0, 3.0], 0.into())?;
/// assert_eq!(d, vec![0.0, 2.0, 5.0]);
/// # Ok(())
/// # }
/// ```
pub fn distances_from(
    graph: &Graph,
    weights: &[f64],
    source: NodeId,
) -> Result<Vec<f64>, GraphError> {
    validate_weights(graph.edge_count(), weights)?;
    check_node(graph, source)?;
    Ok(run(graph, weights, source, Direction::Forward))
}

/// Computes shortest-path distances from every node **to** `target`.
///
/// This is Dijkstra on the reverse graph; unreachable nodes get
/// `f64::INFINITY`. It is the primitive behind the per-destination
/// shortest-path sets `ON_t` of the paper.
///
/// # Errors
///
/// Same conditions as [`distances_from`].
///
/// # Example
///
/// ```
/// use spef_graph::{Graph, distances_to};
///
/// # fn main() -> Result<(), spef_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(1.into(), 2.into());
/// let d = distances_to(&g, &[2.0, 3.0], 2.into())?;
/// assert_eq!(d, vec![5.0, 3.0, 0.0]);
/// # Ok(())
/// # }
/// ```
pub fn distances_to(
    graph: &Graph,
    weights: &[f64],
    target: NodeId,
) -> Result<Vec<f64>, GraphError> {
    validate_weights(graph.edge_count(), weights)?;
    check_node(graph, target)?;
    Ok(run(graph, weights, target, Direction::Reverse))
}

#[derive(Clone, Copy)]
enum Direction {
    Forward,
    Reverse,
}

fn run(graph: &Graph, weights: &[f64], origin: NodeId, dir: Direction) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; graph.node_count()];
    let mut settled = vec![false; graph.node_count()];
    let mut heap = BinaryHeap::with_capacity(graph.node_count());
    dist[origin.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: origin,
    });

    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if settled[u.index()] {
            continue;
        }
        settled[u.index()] = true;
        let edges = match dir {
            Direction::Forward => graph.out_edges(u),
            Direction::Reverse => graph.in_edges(u),
        };
        for &e in edges {
            let v = match dir {
                Direction::Forward => graph.target(e),
                Direction::Reverse => graph.source(e),
            };
            let nd = d + weights[e.index()];
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeId;

    /// 4-node example of the paper's Fig. 1: edges (1,3), (3,4), (1,2), (2,3)
    /// with node ids 0-based.
    fn fig1() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 2.into()); // (1,3)
        g.add_edge(2.into(), 3.into()); // (3,4)
        g.add_edge(0.into(), 1.into()); // (1,2)
        g.add_edge(1.into(), 2.into()); // (2,3)
        g
    }

    #[test]
    fn forward_distances_fig1_unit_weights() {
        let g = fig1();
        let d = distances_from(&g, &[1.0; 4], 0.into()).unwrap();
        assert_eq!(d, vec![0.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn reverse_distances_fig1_unit_weights() {
        let g = fig1();
        let d = distances_to(&g, &[1.0; 4], 3.into()).unwrap();
        assert_eq!(d, vec![2.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn reverse_equals_forward_on_reverse_graph() {
        let g = fig1();
        let w = [2.5, 0.5, 1.0, 3.0];
        let rev = g.reverse();
        let via_reverse_graph = distances_from(&rev, &w, 3.into()).unwrap();
        let direct = distances_to(&g, &w, 3.into()).unwrap();
        assert_eq!(via_reverse_graph, direct);
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        let d = distances_from(&g, &[1.0], 0.into()).unwrap();
        assert_eq!(d[2], f64::INFINITY);
        let d = distances_to(&g, &[1.0], 2.into()).unwrap();
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[1], f64::INFINITY);
        assert_eq!(d[2], 0.0);
    }

    #[test]
    fn zero_weights_are_allowed() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        let d = distances_from(&g, &[0.0, 0.0], 0.into()).unwrap();
        assert_eq!(d, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn ties_choose_minimum() {
        // Two parallel edges with different weights.
        let mut g = Graph::with_nodes(2);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 1.into());
        let d = distances_from(&g, &[5.0, 3.0], 0.into()).unwrap();
        assert_eq!(d[1], 3.0);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let g = fig1();
        assert!(matches!(
            distances_from(&g, &[1.0; 3], 0.into()),
            Err(GraphError::WeightCount { .. })
        ));
        assert_eq!(
            distances_from(&g, &[1.0, -1.0, 1.0, 1.0], 0.into()),
            Err(GraphError::InvalidWeight {
                edge: EdgeId::new(1),
                weight: -1.0
            })
        );
        assert!(matches!(
            distances_from(&g, &[1.0; 4], 17.into()),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::with_nodes(1);
        let d = distances_to(&g, &[], 0.into()).unwrap();
        assert_eq!(d, vec![0.0]);
    }
}
