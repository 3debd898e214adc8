//! Bellman–Ford shortest paths under possibly negative edge weights.
//!
//! No routing code calls it: it is the independent reference the property
//! tests check Dijkstra against.

use crate::{EdgeId, Graph, GraphError, NodeId};

/// Computes shortest-path distances **from** `source` under weights that may
/// be negative. Unreachable nodes get `f64::INFINITY`.
///
/// # Errors
///
/// * [`GraphError::WeightCount`] if the weight slice length is wrong.
/// * [`GraphError::InvalidWeight`] if any weight is NaN or infinite.
/// * [`GraphError::NodeOutOfRange`] if `source` is not in the graph.
/// * [`GraphError::NegativeCycle`] if a negative-cost cycle is reachable
///   from `source`.
///
/// # Example
///
/// ```
/// use spef_graph::{Graph, bellman_ford};
///
/// # fn main() -> Result<(), spef_graph::GraphError> {
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(1.into(), 2.into());
/// g.add_edge(0.into(), 2.into());
/// let d = bellman_ford::distances_from(&g, &[1.0, -3.0, 0.0], 0.into())?;
/// assert_eq!(d, vec![0.0, 1.0, -2.0]);
/// # Ok(())
/// # }
/// ```
pub fn distances_from(
    graph: &Graph,
    weights: &[f64],
    source: NodeId,
) -> Result<Vec<f64>, GraphError> {
    if weights.len() != graph.edge_count() {
        return Err(GraphError::WeightCount {
            expected: graph.edge_count(),
            got: weights.len(),
        });
    }
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() {
            return Err(GraphError::InvalidWeight {
                edge: EdgeId::new(i),
                weight: w,
            });
        }
    }
    if source.index() >= graph.node_count() {
        return Err(GraphError::NodeOutOfRange {
            node: source,
            nodes: graph.node_count(),
        });
    }

    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.index()] = 0.0;

    // Standard |N|-1 relaxation rounds with early exit.
    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for (e, u, v) in graph.edges() {
            let du = dist[u.index()];
            if du.is_finite() && du + weights[e.index()] < dist[v.index()] {
                dist[v.index()] = du + weights[e.index()];
                changed = true;
            }
        }
        if !changed {
            return Ok(dist);
        }
    }
    // One more round: any further improvement proves a negative cycle.
    for (e, u, v) in graph.edges() {
        let du = dist[u.index()];
        if du.is_finite() && du + weights[e.index()] < dist[v.index()] - 1e-12 {
            return Err(GraphError::NegativeCycle);
        }
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_dijkstra_on_nonnegative_weights() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g.add_edge(3.into(), 4.into());
        let w = [2.0, 1.0, 1.0, 5.0, 0.5];
        let bf = distances_from(&g, &w, 0.into()).unwrap();
        let dj = crate::distances_from(&g, &w, 0.into()).unwrap();
        assert_eq!(bf, dj);
    }

    #[test]
    fn handles_negative_edges() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into()); // 4
        g.add_edge(0.into(), 2.into()); // 1
        g.add_edge(2.into(), 1.into()); // -2  -> dist(1) = -1
        g.add_edge(1.into(), 3.into()); // 1
        let d = distances_from(&g, &[4.0, 1.0, -2.0, 1.0], 0.into()).unwrap();
        assert_eq!(d, vec![0.0, -1.0, 1.0, 0.0]);
    }

    #[test]
    fn detects_negative_cycle() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        g.add_edge(2.into(), 1.into());
        let res = distances_from(&g, &[1.0, -2.0, 1.0], 0.into());
        assert_eq!(res, Err(GraphError::NegativeCycle));
    }

    #[test]
    fn unreachable_negative_cycle_is_ignored() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into());
        // Cycle 2 <-> 3 is not reachable from 0.
        g.add_edge(2.into(), 3.into());
        g.add_edge(3.into(), 2.into());
        let d = distances_from(&g, &[1.0, -2.0, 1.0], 0.into()).unwrap();
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], f64::INFINITY);
    }

    #[test]
    fn rejects_nan_weight() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0.into(), 1.into());
        assert!(matches!(
            distances_from(&g, &[f64::NAN], 0.into()),
            Err(GraphError::InvalidWeight { .. })
        ));
    }
}
