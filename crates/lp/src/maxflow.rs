//! Maximum flow via Dinic's algorithm.
//!
//! No routing code calls it: it is the combinatorial reference the
//! cross-validation tests check the simplex's max-flow LP against.

use spef_graph::{EdgeId, Graph, NodeId};

const EPS: f64 = 1e-12;

/// Computes the maximum `source → sink` flow value under `capacities`, and
/// the per-edge flows achieving it.
///
/// Returns `(value, flows)` where `flows[e]` is the flow on edge `e`.
///
/// # Panics
///
/// Panics if `capacities.len() != graph.edge_count()`, if any capacity is
/// negative or NaN, if `source == sink`, or if either node is out of range.
///
/// # Example
///
/// ```
/// use spef_graph::Graph;
/// use spef_lp::max_flow;
///
/// let mut g = Graph::with_nodes(4);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(0.into(), 2.into());
/// g.add_edge(1.into(), 3.into());
/// g.add_edge(2.into(), 3.into());
/// let (value, _flows) = max_flow(&g, &[3.0, 2.0, 2.0, 2.0], 0.into(), 3.into());
/// assert_eq!(value, 4.0);
/// ```
pub fn max_flow(
    graph: &Graph,
    capacities: &[f64],
    source: NodeId,
    sink: NodeId,
) -> (f64, Vec<f64>) {
    assert_eq!(
        capacities.len(),
        graph.edge_count(),
        "capacities length mismatch"
    );
    assert!(
        capacities.iter().all(|&c| !c.is_nan() && c >= 0.0),
        "capacities must be non-negative"
    );
    assert!(source.index() < graph.node_count(), "source out of range");
    assert!(sink.index() < graph.node_count(), "sink out of range");
    assert_ne!(source, sink, "source and sink must differ");

    let n = graph.node_count();
    let e_count = graph.edge_count();
    // Residual arcs: 2e forward, 2e+1 backward.
    let mut resid = vec![0.0; 2 * e_count];
    for e in 0..e_count {
        resid[2 * e] = capacities[e];
    }

    // Flat residual adjacency, built once and shared by every BFS/DFS
    // round: node `u`'s arcs are `adj[start[u]..start[u + 1]]` (forward
    // arcs of out-edges, then backward arcs of in-edges), with arc heads
    // precomputed. The legacy implementation materialised a fresh arc
    // vector per node visit.
    let mut start = vec![0usize; n + 1];
    for u in 0..n {
        let u_node = NodeId::new(u);
        start[u + 1] = start[u] + graph.out_edges(u_node).len() + graph.in_edges(u_node).len();
    }
    let mut adj = Vec::with_capacity(start[n]);
    for u in 0..n {
        let u_node = NodeId::new(u);
        adj.extend(graph.out_edges(u_node).iter().map(|&e| 2 * e.index()));
        adj.extend(graph.in_edges(u_node).iter().map(|&e| 2 * e.index() + 1));
    }
    let mut head_of = vec![0usize; 2 * e_count];
    for e in 0..e_count {
        head_of[2 * e] = graph.target(EdgeId::new(e)).index();
        head_of[2 * e + 1] = graph.source(EdgeId::new(e)).index();
    }

    let mut level = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    // DFS arc cursors: count down from the end of each node's arc slice,
    // matching the legacy `last()`/`pop()` traversal order exactly.
    let mut cursor = vec![0usize; n];
    let mut total = 0.0;
    loop {
        // BFS level graph.
        level.fill(usize::MAX);
        level[source.index()] = 0;
        queue.clear();
        queue.push_back(source.index());
        while let Some(u) = queue.pop_front() {
            for &arc in &adj[start[u]..start[u + 1]] {
                let v = head_of[arc];
                if resid[arc] > EPS && level[v] == usize::MAX {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        if level[sink.index()] == usize::MAX {
            break;
        }
        // DFS blocking flow.
        cursor.copy_from_slice(&start[1..]);
        loop {
            let pushed = dfs_push(
                source.index(),
                sink.index(),
                f64::INFINITY,
                &mut resid,
                &level,
                &adj,
                &start,
                &mut cursor,
                &head_of,
            );
            if pushed <= EPS {
                break;
            }
            total += pushed;
        }
    }

    let flows: Vec<f64> = (0..e_count).map(|e| resid[2 * e + 1]).collect();
    (total, flows)
}

#[allow(clippy::too_many_arguments)]
fn dfs_push(
    u: usize,
    sink: usize,
    limit: f64,
    resid: &mut [f64],
    level: &[usize],
    adj: &[usize],
    start: &[usize],
    cursor: &mut [usize],
    head_of: &[usize],
) -> f64 {
    if u == sink {
        return limit;
    }
    while cursor[u] > start[u] {
        let arc = adj[cursor[u] - 1];
        let v = head_of[arc];
        if resid[arc] > EPS && level[v] == level[u] + 1 {
            let pushed = dfs_push(
                v,
                sink,
                limit.min(resid[arc]),
                resid,
                level,
                adj,
                start,
                cursor,
                head_of,
            );
            if pushed > EPS {
                resid[arc] -= pushed;
                resid[arc ^ 1] += pushed;
                return pushed;
            }
        }
        cursor[u] -= 1;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0.into(), 1.into());
        let (v, f) = max_flow(&g, &[5.0], 0.into(), 1.into());
        assert_eq!(v, 5.0);
        assert_eq!(f, vec![5.0]);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS Figure 26.1-style network, max flow 23.
        let mut g = Graph::with_nodes(6);
        let caps = [16.0, 13.0, 12.0, 4.0, 14.0, 9.0, 20.0, 7.0, 4.0];
        g.add_edge(0.into(), 1.into()); // 16
        g.add_edge(0.into(), 2.into()); // 13
        g.add_edge(1.into(), 3.into()); // 12
        g.add_edge(2.into(), 1.into()); // 4
        g.add_edge(2.into(), 4.into()); // 14
        g.add_edge(3.into(), 2.into()); // 9
        g.add_edge(3.into(), 5.into()); // 20
        g.add_edge(4.into(), 3.into()); // 7
        g.add_edge(4.into(), 5.into()); // 4
        let (v, flows) = max_flow(&g, &caps, 0.into(), 5.into());
        assert_eq!(v, 23.0);
        // Flow conservation at interior nodes.
        let div = g.divergence(&flows);
        for d in &div[1..=4] {
            assert!(d.abs() < 1e-9);
        }
        assert!((div[0] - 23.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_gives_zero() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        let (v, _) = max_flow(&g, &[1.0], 0.into(), 2.into());
        assert_eq!(v, 0.0);
    }

    #[test]
    fn needs_augmenting_through_backward_arc() {
        // Diamond with a crossing edge; greedy path 0-1-2-3 must be undone.
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into()); // 1
        g.add_edge(0.into(), 2.into()); // 1
        g.add_edge(1.into(), 2.into()); // 1
        g.add_edge(1.into(), 3.into()); // 1
        g.add_edge(2.into(), 3.into()); // 1
        let (v, _) = max_flow(&g, &[1.0; 5], 0.into(), 3.into());
        assert_eq!(v, 2.0);
    }

    #[test]
    fn respects_capacity_zero() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0.into(), 1.into());
        let (v, _) = max_flow(&g, &[0.0], 0.into(), 1.into());
        assert_eq!(v, 0.0);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_source_sink_panics() {
        let g = Graph::with_nodes(2);
        max_flow(&g, &[], 0.into(), 0.into());
    }
}
