//! Primal Frank–Wolfe reference solver for `TE(V, G, c, D)` with β > 0.
//!
//! Algorithm 1 of the paper is a projected *subgradient* method on the dual;
//! it converges, but slowly, and the paper itself only shows it approaching
//! the optimum (Fig. 12). Experiments that need tight optima (utility
//! curves, TABLE I, the first link weights) use this conditional-gradient
//! method on the primal instead, and the two are cross-validated in the
//! test-suite (they optimise the same `TE(V, G, c, D)`).
//!
//! The method exploits the same structure as Algorithm 1: linearising the
//! utility at the current flow gives per-link costs `κ_e = V'_e(s_e)`, and
//! the linear subproblem over the flow polytope is exactly `Route_t` — route
//! every demand along shortest paths under `κ`. An exact concave line
//! search (bisection on the directional derivative) picks the step.
//!
//! **Capacity handling.** The flow polytope carries only the conservation
//! constraints; capacities enter through the barrier in `V` (for β ≥ 1,
//! `V(s) → −∞` as `s → 0`). To make every iterate well-defined even when
//! intermediate flows overshoot a capacity, the utility is extended below a
//! tiny per-link threshold `σ_e = σ·c_e` by its second-order Taylor model
//! (still concave, finitely valued, with a steeply increasing marginal).
//! Whenever the true optimum keeps `s* ≥ σ_e` — which holds for every
//! routable instance since `V'(0⁺) = ∞` for β > 0 — the smoothed and true
//! problems have the same solution. If the demands are not routable the
//! smoothed optimum retains an over-capacity link, which is reported as
//! [`SpefError::Infeasible`].

use spef_graph::{EdgeId, NodeId};
use spef_topology::{Network, TrafficMatrix};

use crate::engine::RoutingEngine;
use crate::solver::{ConvergenceCriteria, FwSession, TeWorkspace};
use crate::te::TeSolution;
use crate::traffic_dist::{distribute_streamed, Flows, SplitRule, StreamScratch};
use crate::{Objective, SpefError};

/// Relative duality-gap tolerance used when
/// [`ConvergenceCriteria::gap_tolerance`] is `None`.
pub const DEFAULT_RELATIVE_GAP: f64 = 1e-8;

/// Bisection steps of the exact line search.
const LINE_SEARCH_ITERATIONS: usize = 60;

/// Barrier smoothing threshold as a fraction of link capacity.
const SMOOTHING_FRACTION: f64 = 1e-7;

/// Configuration of the Frank–Wolfe solver.
#[derive(Debug, Clone)]
pub struct FrankWolfeConfig {
    /// Stopping rules (default: 1500 iterations, relative duality gap
    /// [`DEFAULT_RELATIVE_GAP`]).
    pub convergence: ConvergenceCriteria,
}

impl Default for FrankWolfeConfig {
    fn default() -> Self {
        FrankWolfeConfig {
            convergence: ConvergenceCriteria::budget(1500),
        }
    }
}

impl FrankWolfeConfig {
    /// A cheaper preset for large parameter sweeps (500 iterations,
    /// relative gap 1e-6).
    pub fn fast() -> Self {
        FrankWolfeConfig {
            convergence: ConvergenceCriteria::with_tolerance(500, 1e-6),
        }
    }
}

/// Smoothed utility: the true `V_e` above `σ_e`, its second-order Taylor
/// extension below.
struct SmoothedUtility<'a> {
    objective: &'a Objective,
    sigma: Vec<f64>,
}

impl<'a> SmoothedUtility<'a> {
    fn new(objective: &'a Objective, capacities: &[f64], fraction: f64) -> Self {
        SmoothedUtility {
            objective,
            sigma: capacities.iter().map(|c| c * fraction).collect(),
        }
    }

    fn value(&self, e: usize, s: f64) -> f64 {
        let sig = self.sigma[e];
        if s >= sig {
            self.objective.utility_at(e, s)
        } else {
            let v = self.objective.utility_at(e, sig);
            let v1 = self.objective.marginal_utility_at(e, sig);
            let v2 = self.objective.second_derivative_at(e, sig);
            v + v1 * (s - sig) + 0.5 * v2 * (s - sig) * (s - sig)
        }
    }

    /// `V'_smooth(s)`; always finite and strictly positive.
    fn marginal(&self, e: usize, s: f64) -> f64 {
        let sig = self.sigma[e];
        if s >= sig {
            self.objective.marginal_utility_at(e, s)
        } else {
            let v1 = self.objective.marginal_utility_at(e, sig);
            let v2 = self.objective.second_derivative_at(e, sig);
            v1 + v2 * (s - sig)
        }
    }

    fn aggregate(&self, spare: &[f64]) -> f64 {
        spare
            .iter()
            .enumerate()
            .map(|(e, &s)| self.value(e, s))
            .sum()
    }
}

/// The session entry point for β > 0: the loop runs on workspace-resident
/// buffers and always starts from even-ECMP on InvCap weights. Reached
/// through the [`TeSolver`](crate::TeSolver) impl on [`FrankWolfeConfig`]
/// (via [`solve_te_in`](crate::te::solve_te_in), which adds the β = 0 LP
/// dispatch).
///
/// # Errors
///
/// * [`SpefError::InvalidInput`] for size mismatches, an empty traffic
///   matrix, or β = 0;
/// * [`SpefError::UnroutableDemand`] if a demand pair is disconnected;
/// * [`SpefError::Infeasible`] if the optimum cannot keep every link
///   strictly below capacity.
pub(crate) fn solve_in(
    network: &Network,
    traffic: &TrafficMatrix,
    objective: &Objective,
    config: &FrankWolfeConfig,
    ws: &mut TeWorkspace,
) -> Result<TeSolution, SpefError> {
    crate::te::validate_sizes(network, traffic, objective)?;
    if objective.beta() == 0.0 {
        return Err(SpefError::InvalidInput(
            "Frank-Wolfe requires beta > 0; beta = 0 is solved as an LP by TeSolver::solve"
                .to_string(),
        ));
    }
    let dests = traffic.destinations();
    if dests.is_empty() {
        return Err(SpefError::InvalidInput(
            "traffic matrix is empty".to_string(),
        ));
    }

    let mut engine = RoutingEngine::with_state(network.graph(), ws.take_engine(network.graph()));
    let outcome = run(
        network,
        traffic,
        objective,
        config,
        &dests,
        &mut engine,
        &mut ws.fw,
    );
    ws.put_engine(engine.into_state());
    let (utility, weights, relative_gap, iterations) = outcome?;
    Ok(TeSolution {
        flows: std::mem::take(&mut ws.fw.flows),
        spare: ws.fw.spare.clone(),
        utility,
        weights,
        relative_gap,
        iterations,
    })
}

/// The conditional-gradient loop on workspace buffers: arena reuse must
/// never change results.
fn run(
    network: &Network,
    traffic: &TrafficMatrix,
    objective: &Objective,
    config: &FrankWolfeConfig,
    dests: &[NodeId],
    engine: &mut RoutingEngine<'_>,
    fw: &mut FwSession,
) -> Result<(f64, Vec<f64>, f64, usize), SpefError> {
    let m = network.graph().edge_count();
    let caps = network.capacities();
    let smooth = SmoothedUtility::new(objective, caps, SMOOTHING_FRACTION);
    let gap_tol = config
        .convergence
        .gap_tolerance
        .unwrap_or(DEFAULT_RELATIVE_GAP);
    let pinned = config.convergence.pinned;

    // Initial point: even-ECMP on InvCap weights (always conservation-
    // feasible; capacities are handled by the smoothed barrier).
    fw.init_weights.clear();
    fw.init_weights.extend(caps.iter().map(|c| 1.0 / c));
    engine.build_dags(&fw.init_weights, dests, 0.0)?;
    engine.distribute_into(traffic, SplitRule::EvenEcmp, &mut fw.flows)?;

    fw.spare.clear();
    fw.spare
        .extend(caps.iter().zip(fw.flows.aggregate()).map(|(c, f)| c - f));
    fw.kappa.clear();
    fw.kappa.resize(m, 0.0);
    fw.delta.clear();
    fw.delta.resize(m, 0.0);
    let mut gap = f64::INFINITY;
    let mut iterations = 0;

    for iter in 0..config.convergence.max_iterations {
        iterations = iter + 1;
        // Linearise: per-link cost κ = V'_smooth(s) > 0.
        for (e, k) in fw.kappa.iter_mut().enumerate() {
            *k = smooth.marginal(e, fw.spare[e]);
        }
        // All-or-nothing target: Route_t under κ (even split over ties).
        engine.build_dags(&fw.kappa, dests, 0.0)?;
        fw.target.fill(engine, traffic, &mut fw.stream)?;

        // One pass over the aggregates serves the gap, the line-search
        // direction Δf = y − f, and (below) the spare update.
        let agg = fw.flows.aggregate();
        let target_agg = &fw.target.aggregate;
        gap = 0.0;
        for e in 0..m {
            gap += fw.kappa[e] * (agg[e] - target_agg[e]);
            fw.delta[e] = target_agg[e] - agg[e];
        }
        let obj_now = smooth.aggregate(&fw.spare);
        if !pinned && gap <= gap_tol * obj_now.abs().max(1.0) {
            break;
        }

        // Exact line search on φ(α) = Σ V_smooth(s − αΔf).
        let phi_prime = |alpha: f64| -> f64 {
            fw.spare
                .iter()
                .zip(&fw.delta)
                .enumerate()
                .map(|(e, (&s, &d))| -d * smooth.marginal(e, s - alpha * d))
                .sum()
        };
        let alpha = if phi_prime(1.0) >= 0.0 {
            1.0
        } else {
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            for _ in 0..LINE_SEARCH_ITERATIONS {
                let mid = 0.5 * (lo + hi);
                if phi_prime(mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        if !pinned && alpha <= 0.0 {
            break;
        }
        if alpha > 0.0 {
            fw.target
                .blend_into(&mut fw.flows, alpha, fw.stream.column_mut());
            for (s, (c, f)) in fw
                .spare
                .iter_mut()
                .zip(caps.iter().zip(fw.flows.aggregate()))
            {
                *s = c - f;
            }
        }
    }

    // Infeasibility check: the smoothed optimum must keep all links
    // strictly under capacity (σ is far below any meaningful spare).
    if fw.spare.iter().any(|&s| s <= 0.0) {
        return Err(SpefError::Infeasible);
    }

    let utility = objective.aggregate_utility(&fw.spare);
    let weights: Vec<f64> = fw
        .spare
        .iter()
        .enumerate()
        .map(|(e, &s)| objective.marginal_utility_at(e, s))
        .collect();
    let relative_gap = gap / utility.abs().max(1.0);
    Ok((utility, weights, relative_gap, iterations))
}

/// Frank–Wolfe's all-or-nothing target `y`: its aggregate, plus for each
/// destination only the flows on that destination's DAG edges, stored flat
/// in destination order. The kernel writes nothing off the DAG, so every
/// other slot of a dense target column is `+0.0`, and scattering the
/// entries into a zeroed column rebuilds that column bit for bit (after
/// origin-based assignment, Bar-Gera 2002, which stores each commodity's
/// flow on its own acyclic subnetwork only).
#[derive(Debug, Default)]
pub(crate) struct TargetFlows {
    /// Aggregate target flows `Σ_t y^t`.
    pub(crate) aggregate: Vec<f64>,
    edges: Vec<EdgeId>,
    flows: Vec<f64>,
    /// Destination `i`'s entries are `offsets[i]..offsets[i + 1]`.
    offsets: Vec<usize>,
}

impl TargetFlows {
    /// Routes the demand of every destination of `engine`'s DAG set
    /// evenly over its DAG (`Route_t`) through the streamed loop NEM
    /// shares, keeping each destination's DAG-edge flows and the
    /// aggregate.
    pub(crate) fn fill(
        &mut self,
        engine: &RoutingEngine<'_>,
        traffic: &TrafficMatrix,
        stream: &mut StreamScratch,
    ) -> Result<(), SpefError> {
        let graph = engine.graph();
        let dags = engine.dag_set();
        let TargetFlows {
            aggregate,
            edges,
            flows,
            offsets,
        } = self;
        aggregate.clear();
        aggregate.resize(graph.edge_count(), 0.0);
        edges.clear();
        flows.clear();
        offsets.clear();
        offsets.push(0);
        distribute_streamed(
            graph,
            dags.destinations(),
            dags.iter(),
            traffic,
            SplitRule::EvenEcmp,
            stream,
            aggregate,
            |dag, column, _, _| {
                for &u in dag.nodes_by_decreasing_distance() {
                    for &e in dag.successors(u) {
                        edges.push(e);
                        flows.push(column[e.index()]);
                    }
                }
                offsets.push(edges.len());
            },
        )
    }

    /// The Frank–Wolfe step `f ← f + α·(y − f)` on every column of
    /// `iterate` and on its aggregate. Each destination's entries are
    /// scattered into `column` (zeroed here, `m` long), so the update runs
    /// over all `m` slots against the dense target column, and the
    /// scattered slots are cleared again for the next destination.
    pub(crate) fn blend_into(&self, iterate: &mut Flows, alpha: f64, column: &mut Vec<f64>) {
        let m = self.aggregate.len();
        column.clear();
        column.resize(m, 0.0);
        let (columns, aggregate) = iterate.parts_mut();
        debug_assert_eq!(columns.len() + 1, self.offsets.len());
        for (mine, span) in columns.iter_mut().zip(self.offsets.windows(2)) {
            let (edges, flows) = (&self.edges[span[0]..span[1]], &self.flows[span[0]..span[1]]);
            for (&e, &y) in edges.iter().zip(flows) {
                column[e.index()] = y;
            }
            for (a, &b) in mine.iter_mut().zip(column.iter()) {
                *a += alpha * (b - *a);
            }
            for &e in edges {
                column[e.index()] = 0.0;
            }
        }
        for (a, &b) in aggregate.iter_mut().zip(&self.aggregate) {
            *a += alpha * (b - *a);
        }
    }

    /// Bytes of capacity: the aggregate and the flat entry store.
    pub(crate) fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        self.aggregate.capacity() * size_of::<f64>()
            + self.edges.capacity() * size_of::<EdgeId>()
            + self.flows.capacity() * size_of::<f64>()
            + self.offsets.capacity() * size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic_dist::{build_dags, traffic_distribution};
    use spef_graph::{EdgeId, NodeId};
    use spef_topology::standard;

    /// Cold-solve helper on a fresh workspace (β = 0 is rejected, not
    /// LP-dispatched).
    fn solve(
        network: &Network,
        traffic: &TrafficMatrix,
        objective: &Objective,
        config: &FrankWolfeConfig,
    ) -> Result<TeSolution, SpefError> {
        solve_in(network, traffic, objective, config, &mut TeWorkspace::new())
    }

    /// Two disjoint 2-link paths from 0 to 3 with equal capacities: the
    /// proportional optimum splits the demand exactly in half.
    fn parallel_paths_net() -> Network {
        let mut b = Network::builder("par");
        let n0 = b.add_node("0", (0.0, 0.0));
        let n1 = b.add_node("1", (1.0, 1.0));
        let n2 = b.add_node("2", (1.0, -1.0));
        let n3 = b.add_node("3", (2.0, 0.0));
        b.add_duplex_link(n0, n1, 2.0);
        b.add_duplex_link(n0, n2, 2.0);
        b.add_duplex_link(n1, n3, 2.0);
        b.add_duplex_link(n2, n3, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn symmetric_instance_splits_evenly() {
        let net = parallel_paths_net();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 2.0);
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        let f = sol.flows.aggregate();
        // Forward edges 0,2 (0→1, 0→2) each carry 1.
        assert!((f[0] - 1.0).abs() < 1e-6, "{f:?}");
        assert!((f[2] - 1.0).abs() < 1e-6);
        assert!(sol.relative_gap < 1e-6);
    }

    #[test]
    fn asymmetric_capacities_balance_marginal_utility() {
        // Same topology, upper path capacity 4, lower 2 (both hops).
        let mut b = Network::builder("asym");
        let n0 = b.add_node("0", (0.0, 0.0));
        let n1 = b.add_node("1", (1.0, 1.0));
        let n2 = b.add_node("2", (1.0, -1.0));
        let n3 = b.add_node("3", (2.0, 0.0));
        b.add_duplex_link(n0, n1, 4.0);
        b.add_duplex_link(n0, n2, 2.0);
        b.add_duplex_link(n1, n3, 4.0);
        b.add_duplex_link(n2, n3, 2.0);
        let net = b.build().unwrap();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 3.0);
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        let f = sol.flows.aggregate();
        // β=1 KKT: 2/(4−x) = 2/(2−(3−x)) per path ⇒ x − ... solves to
        // x = 2.5 on the wide path, 0.5 on the narrow one (equal spare 1.5).
        assert!((f[0] - 2.5).abs() < 1e-4, "wide path flow {}", f[0]);
        assert!((f[2] - 0.5).abs() < 1e-4, "narrow path flow {}", f[2]);
        // Equal path marginal costs at the optimum.
        let w_up = sol.weights[0] + sol.weights[4];
        let w_lo = sol.weights[2] + sol.weights[6];
        assert!((w_up - w_lo).abs() < 1e-4, "{w_up} vs {w_lo}");
    }

    #[test]
    fn weights_are_marginal_utilities() {
        let net = parallel_paths_net();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        let obj = Objective::uniform(2.0, net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        for e in 0..net.link_count() {
            let expected = obj.marginal_utility(EdgeId::new(e), sol.spare[e]);
            assert!((sol.weights[e] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn infeasible_demand_detected() {
        let net = parallel_paths_net();
        let mut tm = TrafficMatrix::new(4);
        // Max flow 0 → 3 is 4; ask for 5.
        tm.set(0.into(), 3.into(), 5.0);
        let obj = Objective::proportional(net.link_count());
        assert_eq!(
            solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap_err(),
            SpefError::Infeasible
        );
    }

    #[test]
    fn disconnected_demand_detected() {
        // Strongly connected network, but we build traffic for a node pair
        // that exists — so instead test the empty-matrix rejection and the
        // beta=0 rejection here.
        let net = parallel_paths_net();
        let tm = TrafficMatrix::new(4);
        let obj = Objective::proportional(net.link_count());
        assert!(matches!(
            solve(&net, &tm, &obj, &FrankWolfeConfig::default()),
            Err(SpefError::InvalidInput(_))
        ));
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        let obj0 = Objective::min_hop(net.link_count());
        assert!(matches!(
            solve(&net, &tm, &obj0, &FrankWolfeConfig::default()),
            Err(SpefError::InvalidInput(_))
        ));
    }

    #[test]
    fn fig1_proportional_matches_table1_utilizations() {
        // TABLE I, β = 1 column: utilizations 0.67 on (1,3), 0.90 on (3,4),
        // 0.33 on (1,2) and (2,3) — the demand 1→3 splits 2:1 between the
        // direct link and the 2-hop detour (equal spare per *path*).
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        let u = net.utilizations(sol.flows.aggregate());
        assert!((u[0] - 2.0 / 3.0).abs() < 1e-3, "(1,3): {}", u[0]);
        assert!((u[1] - 0.9).abs() < 1e-9, "(3,4): {}", u[1]);
        assert!((u[2] - 1.0 / 3.0).abs() < 1e-3, "(1,2): {}", u[2]);
        assert!((u[3] - 1.0 / 3.0).abs() < 1e-3, "(2,3): {}", u[3]);
    }

    #[test]
    fn fig1_weights_match_table1_ratios() {
        // TABLE I, β = 1: weights 3, 10, 1.5, 1.5 — i.e. w = 1/s with
        // s = (1/3, 0.1, 2/3, 2/3).
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        assert!(
            (sol.weights[0] - 3.0).abs() < 2e-2,
            "w13 = {}",
            sol.weights[0]
        );
        assert!(
            (sol.weights[1] - 10.0).abs() < 1e-6,
            "w34 = {}",
            sol.weights[1]
        );
        assert!(
            (sol.weights[2] - 1.5).abs() < 1e-2,
            "w12 = {}",
            sol.weights[2]
        );
        assert!(
            (sol.weights[3] - 1.5).abs() < 1e-2,
            "w23 = {}",
            sol.weights[3]
        );
    }

    #[test]
    fn higher_beta_reduces_mlu() {
        // On Fig. 4, utilization of the bottleneck decreases in β (Fig. 6).
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let mut mlus = Vec::new();
        for beta in [1.0, 2.0, 5.0] {
            let obj = Objective::uniform(beta, net.link_count());
            let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
            mlus.push(crate::metrics::max_link_utilization(
                &net,
                sol.flows.aggregate(),
            ));
        }
        assert!(mlus[0] > mlus[1] - 1e-6, "{mlus:?}");
        assert!(mlus[1] > mlus[2] - 1e-6, "{mlus:?}");
        assert!(mlus[2] < 1.0, "{mlus:?}");
    }

    #[test]
    fn utility_at_least_ecmp_baseline() {
        // The optimal TE utility must dominate the OSPF even-split value.
        let net = standard::fig4();
        let tm = standard::fig4_demands().scaled(0.5); // keep OSPF feasible
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        let invcap: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let dags = build_dags(net.graph(), &invcap, &tm.destinations(), 0.0).unwrap();
        let ecmp = traffic_distribution(net.graph(), &dags, &tm, SplitRule::EvenEcmp).unwrap();
        let spare_ecmp: Vec<f64> = net
            .capacities()
            .iter()
            .zip(ecmp.aggregate())
            .map(|(c, f)| c - f)
            .collect();
        assert!(sol.utility >= obj.aggregate_utility(&spare_ecmp) - 1e-9);
    }

    /// The memory contract of a session after a solve on a generated
    /// network: the iterate has moved into the returned solution, so the
    /// session's flow buffers (iterate and target together) are smaller
    /// than one dense dests × edges column set; the target keeps at most
    /// one entry per edge of each destination's last DAG, and only those
    /// edges; and the returned flows equal a fresh `solve()`'s, and a
    /// re-solve's in the same workspace, bit for bit.
    #[test]
    fn session_keeps_no_dense_columns_and_solution_is_unchanged() {
        let net = spef_topology::gen::random_network("mem", 24, 80, 7);
        let tm = TrafficMatrix::fortz_thorup(&net, 3).scaled_to_network_load(&net, 0.1);
        let obj = Objective::proportional(net.link_count());
        let config = FrankWolfeConfig {
            convergence: ConvergenceCriteria::pinned(30),
        };
        let (d, m) = (tm.destinations().len(), net.link_count());
        let mut ws = TeWorkspace::new();
        let sol = solve_in(&net, &tm, &obj, &config, &mut ws).unwrap();

        let dense_bytes = d * m * std::mem::size_of::<f64>();
        let session_flow_bytes = ws.fw.flows.arena_bytes() + ws.fw.target.arena_bytes();
        assert!(
            session_flow_bytes < dense_bytes,
            "session flow buffers hold {session_flow_bytes} bytes, a dense column set {dense_bytes}"
        );

        let graph = net.graph();
        let engine = RoutingEngine::with_state(graph, ws.take_engine(graph));
        let dags = engine.dag_set();
        let target = &ws.fw.target;
        assert_eq!(target.offsets.len(), dags.len() + 1);
        assert!(target.edges.len() <= dags.successor_total());
        for (i, span) in target.offsets.windows(2).enumerate() {
            let dag = dags.dag(i);
            for &e in &target.edges[span[0]..span[1]] {
                assert!(
                    dag.successors(graph.source(e)).contains(&e),
                    "target entry {e} of destination {} is off its DAG",
                    dag.target()
                );
            }
        }
        ws.put_engine(engine.into_state());

        let bits = |f: &Flows| -> Vec<u64> {
            let columns = f
                .destinations()
                .iter()
                .flat_map(|&t| f.for_destination(t).expect("per-destination columns"));
            columns.chain(f.aggregate()).map(|x| x.to_bits()).collect()
        };
        let fresh = solve(&net, &tm, &obj, &config).unwrap();
        let again = solve_in(&net, &tm, &obj, &config, &mut ws).unwrap();
        assert_eq!(sol.flows.destinations(), fresh.flows.destinations());
        assert_eq!(bits(&sol.flows), bits(&fresh.flows));
        assert_eq!(bits(&again.flows), bits(&fresh.flows));
    }

    #[test]
    fn flows_conserve_per_destination() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let obj = Objective::proportional(net.link_count());
        let sol = solve(&net, &tm, &obj, &FrankWolfeConfig::default()).unwrap();
        for &t in sol.flows.destinations() {
            let f = sol.flows.for_destination(t).unwrap();
            let div = net.graph().divergence(f);
            let demands = tm.demands_to(t);
            for node in net.graph().nodes() {
                if node == t {
                    continue;
                }
                assert!(
                    (div[node.index()] - demands[node.index()]).abs() < 1e-9,
                    "conservation at {node} for dest {t}"
                );
            }
        }
        let _ = NodeId::new(0);
    }
}
