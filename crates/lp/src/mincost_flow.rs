//! Min-cost network flow by successive shortest paths with Johnson
//! potentials.
//!
//! The `Route_t(w; d_t)` subproblem of Algorithm 1 is a min-cost flow
//! problem (Remark 1 of the paper reduces the whole `Network(G,c,D;w)`
//! problem to one). No routing code calls this solver: it is the exact
//! combinatorial reference the cross-validation tests check the simplex
//! against.

use std::fmt;

use spef_graph::{EdgeId, Graph, NodeId};

/// Errors returned by [`MinCostFlow::solve`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MinCostFlowError {
    /// Supplies do not sum to zero.
    UnbalancedSupply {
        /// The (nonzero) total supply.
        total: f64,
    },
    /// The demands cannot be routed within the capacities.
    Infeasible,
    /// A capacity was negative/NaN, or a cost NaN/infinite.
    InvalidInput(String),
}

impl fmt::Display for MinCostFlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinCostFlowError::UnbalancedSupply { total } => {
                write!(f, "supplies sum to {total}, expected 0")
            }
            MinCostFlowError::Infeasible => write!(f, "flow demands exceed network capacity"),
            MinCostFlowError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for MinCostFlowError {}

/// A min-cost flow instance over a [`Graph`].
///
/// Capacities may be `f64::INFINITY` (uncapacitated links — the form used by
/// `Route_t`). Costs must be non-negative (link weights always are).
///
/// # Example
///
/// Route 2 units from node 0 to node 2 over a cheap capped link and an
/// expensive parallel path:
///
/// ```
/// use spef_graph::Graph;
/// use spef_lp::MinCostFlow;
///
/// # fn main() -> Result<(), spef_lp::MinCostFlowError> {
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(0.into(), 2.into()); // direct, cheap, capacity 1
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(1.into(), 2.into());
/// let mcf = MinCostFlow::new(&g, &[1.0, 1.0, 1.0], &[1.0, 2.0, 2.0]);
/// let mut supply = vec![0.0; 3];
/// supply[0] = 2.0;
/// supply[2] = -2.0;
/// let sol = mcf.solve(&supply)?;
/// assert!((sol.cost() - (1.0 + 4.0)).abs() < 1e-9);
/// assert!((sol.flow(0.into()) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow<'g> {
    graph: &'g Graph,
    capacities: Vec<f64>,
    costs: Vec<f64>,
}

/// Result of a min-cost flow computation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSolution {
    flows: Vec<f64>,
    cost: f64,
    potentials: Vec<f64>,
}

impl FlowSolution {
    /// Flow on edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn flow(&self, e: EdgeId) -> f64 {
        self.flows[e.index()]
    }

    /// All edge flows indexed by edge id.
    pub fn flows(&self) -> &[f64] {
        &self.flows
    }

    /// Total cost `Σ cost_e · flow_e`.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Final node potentials (LP duals of the conservation constraints up to
    /// a per-component additive constant).
    pub fn potentials(&self) -> &[f64] {
        &self.potentials
    }
}

const EPS: f64 = 1e-9;

impl<'g> MinCostFlow<'g> {
    /// Creates an instance over `graph` with per-edge `capacities` and
    /// `costs`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match `graph.edge_count()`.
    pub fn new(graph: &'g Graph, capacities: &[f64], costs: &[f64]) -> Self {
        assert_eq!(capacities.len(), graph.edge_count(), "capacities length");
        assert_eq!(costs.len(), graph.edge_count(), "costs length");
        MinCostFlow {
            graph,
            capacities: capacities.to_vec(),
            costs: costs.to_vec(),
        }
    }

    /// Solves for the min-cost flow realising `supply` (positive = source,
    /// negative = sink; must sum to zero).
    ///
    /// # Errors
    ///
    /// * [`MinCostFlowError::UnbalancedSupply`] if `supply` does not sum to 0,
    /// * [`MinCostFlowError::Infeasible`] if capacities cannot carry it,
    /// * [`MinCostFlowError::InvalidInput`] for negative/NaN capacities,
    ///   negative/NaN costs, or a supply vector of the wrong length.
    pub fn solve(&self, supply: &[f64]) -> Result<FlowSolution, MinCostFlowError> {
        let n = self.graph.node_count();
        if supply.len() != n {
            return Err(MinCostFlowError::InvalidInput(format!(
                "supply has length {}, graph has {n} nodes",
                supply.len()
            )));
        }
        for (i, &c) in self.capacities.iter().enumerate() {
            if c.is_nan() || c < 0.0 {
                return Err(MinCostFlowError::InvalidInput(format!(
                    "capacity of edge e{i} is {c}"
                )));
            }
        }
        for (i, &c) in self.costs.iter().enumerate() {
            if !c.is_finite() || c < 0.0 {
                return Err(MinCostFlowError::InvalidInput(format!(
                    "cost of edge e{i} is {c}"
                )));
            }
        }
        let total: f64 = supply.iter().sum();
        if total.abs() > 1e-6 {
            return Err(MinCostFlowError::UnbalancedSupply { total });
        }

        // Residual network: forward arc 2e, backward arc 2e+1.
        let e_count = self.graph.edge_count();
        let mut resid = vec![0.0; 2 * e_count];
        for e in 0..e_count {
            resid[2 * e] = self.capacities[e];
        }

        // Potentials: costs are non-negative, so zero potentials are valid.
        let mut pi = vec![0.0; n];

        let mut remaining: Vec<f64> = supply.to_vec();
        // Dijkstra scratch, hoisted out of the augmentation loop so each
        // shortest-path computation reuses the same buffers.
        let mut scratch = DijkstraScratch::new(n);
        // Pick any node with positive remaining supply until none is left.
        while let Some(src) = (0..n).find(|&i| remaining[i] > EPS) {
            // Dijkstra over the residual graph with reduced costs.
            self.residual_dijkstra(src, &resid, &pi, &mut scratch);
            let DijkstraScratch { dist, parent, .. } = &scratch;
            // Find the nearest reachable node with deficit.
            let sink = (0..n)
                .filter(|&i| remaining[i] < -EPS && dist[i].is_finite())
                .min_by(|&a, &b| dist[a].total_cmp(&dist[b]));
            let Some(sink) = sink else {
                return Err(MinCostFlowError::Infeasible);
            };
            // Bottleneck along the path.
            let mut bottleneck = remaining[src].min(-remaining[sink]);
            let mut v = sink;
            while v != src {
                let arc = parent[v].expect("path arc");
                bottleneck = bottleneck.min(resid[arc]);
                v = self.arc_tail(arc);
            }
            // Augment.
            let mut v = sink;
            while v != src {
                let arc = parent[v].expect("path arc");
                resid[arc] -= bottleneck;
                resid[arc ^ 1] += bottleneck;
                v = self.arc_tail(arc);
            }
            remaining[src] -= bottleneck;
            remaining[sink] += bottleneck;
            // Update potentials (Johnson): keeps reduced costs non-negative.
            for i in 0..n {
                if dist[i].is_finite() {
                    pi[i] += dist[i];
                }
            }
        }

        let mut flows = vec![0.0; e_count];
        let mut cost = 0.0;
        for e in 0..e_count {
            let f = resid[2 * e + 1]; // backward residual == flow pushed
            flows[e] = f;
            cost += f * self.costs[e];
        }
        Ok(FlowSolution {
            flows,
            cost,
            potentials: pi,
        })
    }

    fn arc_tail(&self, arc: usize) -> usize {
        let e = EdgeId::new(arc / 2);
        if arc.is_multiple_of(2) {
            self.graph.source(e).index()
        } else {
            self.graph.target(e).index()
        }
    }

    fn arc_head(&self, arc: usize) -> usize {
        let e = EdgeId::new(arc / 2);
        if arc.is_multiple_of(2) {
            self.graph.target(e).index()
        } else {
            self.graph.source(e).index()
        }
    }

    fn arc_cost(&self, arc: usize) -> f64 {
        let c = self.costs[arc / 2];
        if arc.is_multiple_of(2) {
            c
        } else {
            -c
        }
    }

    /// Dijkstra on the residual graph with reduced costs
    /// `c(u,v) + π(u) − π(v) ≥ 0`. Fills `scratch` with distances and the
    /// incoming arc of each node on the shortest path tree.
    fn residual_dijkstra(
        &self,
        src: usize,
        resid: &[f64],
        pi: &[f64],
        scratch: &mut DijkstraScratch,
    ) {
        use std::cmp::Reverse;

        let DijkstraScratch {
            dist,
            parent,
            done,
            heap,
        } = scratch;
        dist.fill(f64::INFINITY);
        parent.fill(None);
        done.fill(false);
        heap.clear();
        dist[src] = 0.0;
        heap.push((Reverse(OrdF64(0.0)), src));
        while let Some((Reverse(OrdF64(d)), u)) = heap.pop() {
            if done[u] {
                continue;
            }
            done[u] = true;
            // Arcs leaving u: forward arcs of out-edges, backward arcs of
            // in-edges.
            let u_node = NodeId::new(u);
            let fw = self.graph.out_edges(u_node).iter().map(|&e| 2 * e.index());
            let bw = self
                .graph
                .in_edges(u_node)
                .iter()
                .map(|&e| 2 * e.index() + 1);
            for arc in fw.chain(bw) {
                if resid[arc] <= EPS {
                    continue;
                }
                let v = self.arc_head(arc);
                let rc = self.arc_cost(arc) + pi[u] - pi[v];
                // Clamp tiny negatives from floating-point drift.
                let rc = rc.max(0.0);
                let nd = d + rc;
                if nd < dist[v] - EPS {
                    dist[v] = nd;
                    parent[v] = Some(arc);
                    heap.push((Reverse(OrdF64(nd)), v));
                }
            }
        }
    }
}

/// Reusable buffers for [`MinCostFlow::solve`]'s repeated Dijkstra runs.
struct DijkstraScratch {
    dist: Vec<f64>,
    parent: Vec<Option<usize>>,
    done: Vec<bool>,
    heap: std::collections::BinaryHeap<(std::cmp::Reverse<OrdF64>, usize)>,
}

impl DijkstraScratch {
    fn new(n: usize) -> Self {
        DijkstraScratch {
            dist: vec![f64::INFINITY; n],
            parent: vec![None; n],
            done: vec![false; n],
            heap: std::collections::BinaryHeap::new(),
        }
    }
}

/// Total-order wrapper for f64 heap keys (all values finite here).
#[derive(PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two paths from 0 to 3: cheap (cost 1+1) capacity 1, expensive
    /// (cost 2+2) capacity 10.
    fn two_path_net() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into()); // e0 cheap hop 1
        g.add_edge(1.into(), 3.into()); // e1 cheap hop 2
        g.add_edge(0.into(), 2.into()); // e2 expensive hop 1
        g.add_edge(2.into(), 3.into()); // e3 expensive hop 2
        g
    }

    #[test]
    fn splits_when_cheap_path_saturates() {
        let g = two_path_net();
        let mcf = MinCostFlow::new(&g, &[1.0, 1.0, 10.0, 10.0], &[1.0, 1.0, 2.0, 2.0]);
        let mut s = vec![0.0; 4];
        s[0] = 3.0;
        s[3] = -3.0;
        let sol = mcf.solve(&s).unwrap();
        assert!((sol.flow(EdgeId::new(0)) - 1.0).abs() < 1e-9);
        assert!((sol.flow(EdgeId::new(2)) - 2.0).abs() < 1e-9);
        assert!((sol.cost() - (2.0 + 8.0)).abs() < 1e-9);
    }

    #[test]
    fn uncapacitated_routes_all_on_shortest_path() {
        let g = two_path_net();
        let inf = f64::INFINITY;
        let mcf = MinCostFlow::new(&g, &[inf; 4], &[1.0, 1.0, 2.0, 2.0]);
        let mut s = vec![0.0; 4];
        s[0] = 7.0;
        s[3] = -7.0;
        let sol = mcf.solve(&s).unwrap();
        assert!((sol.flow(EdgeId::new(0)) - 7.0).abs() < 1e-9);
        assert_eq!(sol.flow(EdgeId::new(2)), 0.0);
        assert!((sol.cost() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_sources_and_sinks() {
        // 0 and 1 supply, 2 and 3 demand, complete-ish network.
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 2.into()); // cost 1
        g.add_edge(0.into(), 3.into()); // cost 5
        g.add_edge(1.into(), 2.into()); // cost 4
        g.add_edge(1.into(), 3.into()); // cost 1
        let mcf = MinCostFlow::new(&g, &[10.0; 4], &[1.0, 5.0, 4.0, 1.0]);
        let sol = mcf.solve(&[2.0, 2.0, -2.0, -2.0]).unwrap();
        // Obvious matching: 0->2, 1->3.
        assert!((sol.cost() - 4.0).abs() < 1e-9);
        assert!((sol.flow(EdgeId::new(0)) - 2.0).abs() < 1e-9);
        assert!((sol.flow(EdgeId::new(3)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_when_capacity_insufficient() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0.into(), 1.into());
        let mcf = MinCostFlow::new(&g, &[1.0], &[1.0]);
        assert_eq!(mcf.solve(&[2.0, -2.0]), Err(MinCostFlowError::Infeasible));
    }

    #[test]
    fn unbalanced_supply_rejected() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0.into(), 1.into());
        let mcf = MinCostFlow::new(&g, &[1.0], &[1.0]);
        assert!(matches!(
            mcf.solve(&[1.0, 0.0]),
            Err(MinCostFlowError::UnbalancedSupply { .. })
        ));
    }

    #[test]
    fn zero_supply_gives_zero_flow() {
        let g = two_path_net();
        let mcf = MinCostFlow::new(&g, &[1.0; 4], &[1.0; 4]);
        let sol = mcf.solve(&[0.0; 4]).unwrap();
        assert_eq!(sol.cost(), 0.0);
        assert!(sol.flows().iter().all(|&f| f == 0.0));
    }

    #[test]
    fn rerouting_uses_backward_arcs() {
        // Classic instance where the greedy first path must be partially
        // undone: 0->1 (cap 1, cost 1), 0->2 (cap 1, cost 2), 1->2 (cap 1,
        // cost 0), 1->3 (cap 1, cost 2), 2->3 (cap 1, cost 1).
        // Send 2 units 0 -> 3; optimum = 0-1-2-3 (cost 2) + 0-2? no:
        // paths 0-1-3 (3) and 0-2-3 (3) total 6; vs 0-1-2-3 (2) + 0-2-3
        // blocked (cap on 2->3). Optimum: 0-1-2-3 and 0-2... 2->3 cap 1.
        // Feasible pairs: {0-1-3, 0-2-3} = 6 or {0-1-2-3, ...} second unit
        // must use 0-2 then 2->3 is full -> infeasible; so optimum is 6.
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        let mcf = MinCostFlow::new(&g, &[1.0, 1.0, 1.0, 1.0, 1.0], &[1.0, 2.0, 0.0, 2.0, 1.0]);
        let sol = mcf.solve(&[2.0, 0.0, 0.0, -2.0]).unwrap();
        assert!((sol.cost() - 6.0).abs() < 1e-9, "cost = {}", sol.cost());
    }

    #[test]
    fn conservation_holds() {
        let g = two_path_net();
        let mcf = MinCostFlow::new(&g, &[2.0; 4], &[1.0, 1.0, 2.0, 2.0]);
        let sol = mcf.solve(&[3.0, 0.0, 0.0, -3.0]).unwrap();
        let div = g.divergence(sol.flows());
        assert!((div[0] - 3.0).abs() < 1e-9);
        assert!((div[3] + 3.0).abs() < 1e-9);
        assert!(div[1].abs() < 1e-9);
        assert!(div[2].abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0.into(), 1.into());
        let mcf = MinCostFlow::new(&g, &[-1.0], &[1.0]);
        assert!(matches!(
            mcf.solve(&[0.0, 0.0]),
            Err(MinCostFlowError::InvalidInput(_))
        ));
        let mcf = MinCostFlow::new(&g, &[1.0], &[-1.0]);
        assert!(matches!(
            mcf.solve(&[0.0, 0.0]),
            Err(MinCostFlowError::InvalidInput(_))
        ));
        let mcf = MinCostFlow::new(&g, &[1.0], &[1.0]);
        assert!(matches!(
            mcf.solve(&[0.0]),
            Err(MinCostFlowError::InvalidInput(_))
        ));
    }
}
