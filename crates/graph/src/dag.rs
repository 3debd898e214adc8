//! Shortest-path DAGs toward a destination — the sets `ON_t` of the paper.
//!
//! For a destination `t` and link weights `w`, the shortest-path DAG contains
//! exactly the links that lie on *some* shortest path to `t`. OSPF's ECMP,
//! SPEF's exponential flow-splitting (Algorithm 3) and PEFT's downward
//! forwarding all operate on this structure.
//!
//! §V.G of the paper requires equal-cost detection **with a tolerance**: with
//! integer (rounded) weights, two path costs are treated as equal by
//! Dijkstra's algorithm "if the difference in costs is less than the
//! specified tolerance". [`ShortestPathDag::build`] takes that tolerance
//! explicitly; `0.0` gives exact ECMP.

use crate::dijkstra::distances_to;
use crate::{EdgeId, Graph, GraphError, NodeId};

/// The shortest-path DAG `ON_t` toward one destination.
///
/// A link `(u, v)` belongs to the DAG iff
/// `w_uv + dist(v) − dist(u) ≤ tol` *and* `dist(v) < dist(u)`.
/// The second condition keeps the structure acyclic even with a positive
/// tolerance or zero-weight links: distance strictly decreases along every
/// DAG edge.
///
/// With **strictly positive** weights (which Theorem 3.1 of the paper
/// guarantees for optimal first weights) the strict-decrease condition is
/// implied, and every node that can reach the target has at least one
/// successor. With zero-weight links, nodes tied in distance across a
/// zero-weight edge may conservatively end up without successors; callers
/// that synthesise intermediate weights (e.g. subgradient iterates, whose
/// projection can touch zero) must floor them above zero first.
///
/// # Example
///
/// ```
/// use spef_graph::{Graph, ShortestPathDag};
///
/// # fn main() -> Result<(), spef_graph::GraphError> {
/// let mut g = Graph::with_nodes(4);
/// let up0 = g.add_edge(0.into(), 1.into());
/// let lo0 = g.add_edge(0.into(), 2.into());
/// let up1 = g.add_edge(1.into(), 3.into());
/// let lo1 = g.add_edge(2.into(), 3.into());
/// let dag = ShortestPathDag::build(&g, &[1.0, 1.0, 1.0, 1.0], 3.into(), 0.0)?;
/// assert_eq!(dag.successors(0.into()), &[up0, lo0]);
/// assert_eq!(dag.successors(1.into()), &[up1]);
/// assert_eq!(dag.path_count(0.into()), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShortestPathDag {
    target: NodeId,
    tol: f64,
    dist: Vec<f64>,
    /// DAG edges leaving each node (toward the target).
    succ: Vec<Vec<EdgeId>>,
    /// DAG edges entering each node.
    pred: Vec<Vec<EdgeId>>,
    /// Membership flag per edge.
    on_dag: Vec<bool>,
    /// Reachable nodes sorted by decreasing distance (target last).
    order_desc: Vec<NodeId>,
    /// Number of shortest paths from each node to the target (saturating).
    path_counts: Vec<u64>,
}

impl ShortestPathDag {
    /// Builds the shortest-path DAG toward `target` under `weights`, with
    /// equal-cost tolerance `tol`.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`distances_to`], plus
    /// [`GraphError::InvalidTolerance`] if `tol` is negative or not finite.
    pub fn build(
        graph: &Graph,
        weights: &[f64],
        target: NodeId,
        tol: f64,
    ) -> Result<Self, GraphError> {
        if !tol.is_finite() || tol < 0.0 {
            return Err(GraphError::InvalidTolerance { tolerance: tol });
        }
        let dist = distances_to(graph, weights, target)?;

        let n = graph.node_count();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        let mut on_dag = vec![false; graph.edge_count()];
        for (e, u, v) in graph.edges() {
            let (du, dv) = (dist[u.index()], dist[v.index()]);
            if !du.is_finite() || !dv.is_finite() {
                continue;
            }
            let slack = weights[e.index()] + dv - du;
            if slack <= tol && dv < du {
                succ[u.index()].push(e);
                pred[v.index()].push(e);
                on_dag[e.index()] = true;
            }
        }

        let mut order_desc: Vec<NodeId> = graph
            .nodes()
            .filter(|u| dist[u.index()].is_finite())
            .collect();
        order_desc.sort_by(|a, b| {
            dist[b.index()]
                .total_cmp(&dist[a.index()])
                .then_with(|| a.index().cmp(&b.index()))
        });

        // Path counts by increasing distance (reverse of order_desc).
        let mut path_counts = vec![0u64; n];
        path_counts[target.index()] = 1;
        for &u in order_desc.iter().rev() {
            if u == target {
                continue;
            }
            let mut total = 0u64;
            for &e in &succ[u.index()] {
                let v = graph.target(e);
                total = total.saturating_add(path_counts[v.index()]);
            }
            path_counts[u.index()] = total;
        }

        Ok(ShortestPathDag {
            target,
            tol,
            dist,
            succ,
            pred,
            on_dag,
            order_desc,
            path_counts,
        })
    }

    /// Assembles a DAG from pre-computed parts — used by the batched
    /// engine ([`crate::batch::DagSet`]) to materialise owned DAGs without
    /// re-running the legacy single-destination path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        target: NodeId,
        tol: f64,
        dist: Vec<f64>,
        succ: Vec<Vec<EdgeId>>,
        pred: Vec<Vec<EdgeId>>,
        on_dag: Vec<bool>,
        order_desc: Vec<NodeId>,
        path_counts: Vec<u64>,
    ) -> ShortestPathDag {
        ShortestPathDag {
            target,
            tol,
            dist,
            succ,
            pred,
            on_dag,
            order_desc,
            path_counts,
        }
    }

    /// The destination this DAG routes toward.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The equal-cost tolerance the DAG was built with.
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// Shortest distance from `u` to the target (`f64::INFINITY` if
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn distance(&self, u: NodeId) -> f64 {
        self.dist[u.index()]
    }

    /// All per-node distances, indexed by node id.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// DAG edges leaving `u` — the next-hop links of `u` toward the target.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn successors(&self, u: NodeId) -> &[EdgeId] {
        &self.succ[u.index()]
    }

    /// DAG edges entering `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn predecessors(&self, v: NodeId) -> &[EdgeId] {
        &self.pred[v.index()]
    }

    /// Returns `true` if edge `e` lies on some shortest path to the target.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.on_dag[e.index()]
    }

    /// Returns `true` if the target is reachable from `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn reaches_target(&self, u: NodeId) -> bool {
        self.dist[u.index()].is_finite()
    }

    /// Reachable nodes in order of **decreasing** distance to the target
    /// (the target itself comes last).
    ///
    /// This is exactly the processing order of Algorithm 3 of the paper
    /// ("sorting on the distance of node s to t ... in the decreasing
    /// distance order"): when a node is processed, all of its DAG
    /// predecessors have already been processed.
    pub fn nodes_by_decreasing_distance(&self) -> &[NodeId] {
        &self.order_desc
    }

    /// Number of distinct equal-cost shortest paths from `u` to the target,
    /// saturating at `u64::MAX`. Zero if unreachable.
    ///
    /// Used for the equal-cost-path census of TABLE V.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn path_count(&self, u: NodeId) -> u64 {
        self.path_counts[u.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diamond with a longer lower path: 0→1→3 costs 2, 0→2→3 costs 2+ε.
    fn near_tie(eps: f64) -> (Graph, Vec<f64>) {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into()); // e0
        g.add_edge(0.into(), 2.into()); // e1
        g.add_edge(1.into(), 3.into()); // e2
        g.add_edge(2.into(), 3.into()); // e3
        (g, vec![1.0, 1.0 + eps, 1.0, 1.0])
    }

    #[test]
    fn exact_tolerance_excludes_near_ties() {
        let (g, w) = near_tie(0.1);
        let dag = ShortestPathDag::build(&g, &w, 3.into(), 0.0).unwrap();
        assert_eq!(dag.successors(0.into()).len(), 1);
        assert_eq!(dag.path_count(0.into()), 1);
    }

    #[test]
    fn positive_tolerance_includes_near_ties() {
        let (g, w) = near_tie(0.1);
        let dag = ShortestPathDag::build(&g, &w, 3.into(), 0.3).unwrap();
        assert_eq!(dag.successors(0.into()).len(), 2);
        assert_eq!(dag.path_count(0.into()), 2);
    }

    #[test]
    fn dag_edges_strictly_decrease_distance() {
        let (g, w) = near_tie(0.1);
        let dag = ShortestPathDag::build(&g, &w, 3.into(), 0.5).unwrap();
        for (e, u, v) in g.edges() {
            if dag.contains_edge(e) {
                assert!(dag.distance(v) < dag.distance(u));
            }
        }
    }

    #[test]
    fn decreasing_order_ends_at_target() {
        let (g, w) = near_tie(0.0);
        let dag = ShortestPathDag::build(&g, &w, 3.into(), 0.0).unwrap();
        let order = dag.nodes_by_decreasing_distance();
        assert_eq!(*order.last().unwrap(), NodeId::new(3));
        for pair in order.windows(2) {
            assert!(dag.distance(pair[0]) >= dag.distance(pair[1]));
        }
    }

    #[test]
    fn unreachable_nodes_excluded() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        // Node 2 is isolated.
        let dag = ShortestPathDag::build(&g, &[1.0], 1.into(), 0.0).unwrap();
        assert!(!dag.reaches_target(2.into()));
        assert_eq!(dag.path_count(2.into()), 0);
        assert_eq!(dag.nodes_by_decreasing_distance().len(), 2);
    }

    #[test]
    fn path_count_grid_is_binomial() {
        // 3x3 grid, all weights 1: paths from corner to corner = C(4,2) = 6.
        let mut g = Graph::with_nodes(9);
        for r in 0..3usize {
            for c in 0..3usize {
                let id = r * 3 + c;
                if c + 1 < 3 {
                    g.add_edge(id.into(), (id + 1).into());
                }
                if r + 1 < 3 {
                    g.add_edge(id.into(), (id + 3).into());
                }
            }
        }
        let w = vec![1.0; g.edge_count()];
        let dag = ShortestPathDag::build(&g, &w, 8.into(), 0.0).unwrap();
        assert_eq!(dag.path_count(0.into()), 6);
        assert_eq!(dag.distance(0.into()), 4.0);
    }

    #[test]
    fn negative_tolerance_rejected() {
        let (g, w) = near_tie(0.0);
        assert!(ShortestPathDag::build(&g, &w, 3.into(), -0.1).is_err());
        assert!(ShortestPathDag::build(&g, &w, 3.into(), f64::NAN).is_err());
    }

    #[test]
    fn zero_weight_edges_do_not_create_cycles() {
        // 0 <-> 1 with zero weights plus exit 1 -> 2. Both 0 and 1 sit at
        // distance 1; the zero-weight tie edges are conservatively excluded
        // because distance does not strictly decrease along them, which keeps
        // the structure acyclic. (SPEF weights are strictly positive —
        // Theorem 3.1 — so this corner never arises in the protocol; callers
        // that synthesise weights must floor them above zero, see
        // `spef-core::dual_decomp`.)
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 0.into());
        g.add_edge(1.into(), 2.into());
        let dag = ShortestPathDag::build(&g, &[0.0, 0.0, 1.0], 2.into(), 0.0).unwrap();
        assert_eq!(dag.distance(0.into()), 1.0);
        assert!(dag.successors(0.into()).is_empty());
        assert_eq!(dag.successors(1.into()).len(), 1);
        assert!(!dag.contains_edge(EdgeId::new(0)));
        assert!(!dag.contains_edge(EdgeId::new(1)));
        assert!(dag.contains_edge(EdgeId::new(2)));
    }

    #[test]
    fn target_has_no_successors_and_one_path() {
        let (g, w) = near_tie(0.0);
        let dag = ShortestPathDag::build(&g, &w, 3.into(), 0.0).unwrap();
        assert!(dag.successors(3.into()).is_empty());
        assert_eq!(dag.path_count(3.into()), 1);
        assert_eq!(dag.target(), NodeId::new(3));
    }
}
