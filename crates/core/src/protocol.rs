//! Algorithm 4 — the SPEF routing protocol, end to end.
//!
//! ```text
//! 1. Solve TE(V, G, c, D)            → optimal flows f*, first weights w
//! 2. Dijkstra per destination        → shortest-path DAGs ON_t
//! 3. Algorithm 2 (NEM)               → second weights v
//! 4. Per (router, destination)       → forwarding table (TABLE II)
//! ```
//!
//! Packets are then forwarded exactly like OSPF — hop by hop along
//! destination-based shortest paths under the first weights — except that a
//! router with several equal-cost next hops splits traffic with the
//! exponential ratios of Eq. (22), computed locally from the second
//! weights. *One more weight per link is enough.*

use spef_graph::{DagRef, NodeId};
use spef_topology::{Network, TrafficMatrix};

use crate::dual_decomp::{self, DualDecompConfig};
use crate::engine::RoutingEngine;
use crate::fib::ForwardingTable;
use crate::frank_wolfe::FrankWolfeConfig;
use crate::nem::{self, NemConfig, NemOutcome};
use crate::solver::TeWorkspace;
use crate::te::{self, TeSolution};
use crate::traffic_dist::{Flows, SplitRule};
use crate::weights::{
    integerize, scale_weights, INTEGER_DIJKSTRA_TOLERANCE, NONINTEGER_DIJKSTRA_TOLERANCE,
};
use crate::{metrics, Objective, SpefError};

/// How the first weights are post-processed before being configured
/// (§V.G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightMode {
    /// Use the real-valued optimal weights directly (an idealised router).
    #[default]
    Exact,
    /// Scale by `max_e s_e` but keep fractional values; Dijkstra tolerance
    /// 0.3 (the paper's "noninteger" configuration).
    ScaledNoninteger,
    /// Scale and round to positive integers; Dijkstra tolerance 1 (the
    /// paper's "integer" configuration, what real OSPF would carry).
    Integer,
}

/// Which solver computes the TE optimum and the first weights.
///
/// (Named `TeSolverKind` because [`TeSolver`](crate::TeSolver) is the
/// unified solver trait; this enum selects which implementation the SPEF
/// pipeline delegates step 1 to.)
#[derive(Debug, Clone)]
pub enum TeSolverKind {
    /// The primal Frank–Wolfe reference solver (default; β = 0 dispatches
    /// to the exact LP automatically).
    FrankWolfe(FrankWolfeConfig),
    /// The paper's Algorithm 1 (distributed dual decomposition). The NEM
    /// target capacity is the paper's virtual capacity `c' = c − s`.
    DualDecomposition(DualDecompConfig),
}

impl Default for TeSolverKind {
    fn default() -> Self {
        TeSolverKind::FrankWolfe(FrankWolfeConfig::default())
    }
}

/// Configuration of the full SPEF pipeline.
#[derive(Debug, Clone, Default)]
pub struct SpefConfig {
    /// TE solver for the first weights.
    pub solver: TeSolverKind,
    /// NEM solver for the second weights.
    pub nem: NemConfig,
    /// Weight post-processing mode.
    pub weight_mode: WeightMode,
    /// Explicit Dijkstra equal-cost tolerance; `None` picks the §V.G value
    /// for the weight mode (or an adaptive small tolerance for
    /// [`WeightMode::Exact`]).
    pub dijkstra_tolerance: Option<f64>,
}

/// A fully built SPEF routing: both weight sets, NEM's flows and the
/// forwarding tables.
#[derive(Debug, Clone)]
pub struct SpefRouting {
    first_weights: Vec<f64>,
    second_weights: Vec<f64>,
    te: TeSolution,
    target_flows: Vec<f64>,
    flows: Flows,
    fib: ForwardingTable,
    dijkstra_tolerance: f64,
    nem_converged: bool,
}

impl SpefRouting {
    /// The deployed first link weights (post-processed per the weight
    /// mode).
    pub fn first_weights(&self) -> &[f64] {
        &self.first_weights
    }

    /// The second link weights (the "one more weight" of the title).
    pub fn second_weights(&self) -> &[f64] {
        &self.second_weights
    }

    /// The TE optimum underlying this routing.
    pub fn te_solution(&self) -> &TeSolution {
        &self.te
    }

    /// The NEM target distribution (aggregate `f*`, or the virtual
    /// capacity `c − s` when Algorithm 1 was the solver).
    pub fn target_flows(&self) -> &[f64] {
        &self.target_flows
    }

    /// NEM's last distributed iterate: the aggregate exponential-split
    /// flows at the second weights of its final distribution. Only the
    /// aggregate is kept, so [`Flows::for_destination`] returns `None`;
    /// route [`RoutingEngine::distribute`] over the first-weight DAGs for
    /// per-destination flows. When NEM stops on its iteration budget
    /// (unconverged, or any pinned run) that distribution is one
    /// projected-gradient step behind
    /// [`second_weights`](Self::second_weights), which the FIB is built
    /// from, so these are not exactly the flows the FIB forwards; see
    /// [`NemOutcome::flows`](crate::NemOutcome::flows).
    pub fn flows(&self) -> &Flows {
        &self.flows
    }

    /// The forwarding tables (TABLE II, reduced to split ratios).
    pub fn forwarding_table(&self) -> &ForwardingTable {
        &self.fib
    }

    /// The Dijkstra equal-cost tolerance that built the DAGs.
    pub fn dijkstra_tolerance(&self) -> f64 {
        self.dijkstra_tolerance
    }

    /// Whether NEM met its ε-criterion (it may not under integer weights;
    /// see §V.G / Fig. 13).
    pub fn nem_converged(&self) -> bool {
        self.nem_converged
    }

    /// Maximum link utilization of [`flows`](Self::flows).
    pub fn max_link_utilization(&self, network: &Network) -> f64 {
        metrics::max_link_utilization(network, self.flows.aggregate())
    }

    /// Normalized utility `Σ log(1 − u)` of [`flows`](Self::flows).
    pub fn normalized_utility(&self, network: &Network) -> f64 {
        metrics::normalized_utility(network, self.flows.aggregate())
    }
}

/// Runs Algorithm 4 in the caller's workspace: the TE stage (step 1), the
/// DAG engine (steps 2 and 4) and NEM (step 3) all draw their arenas from
/// `ws`, and each starts from its fixed initial point, so the routing is
/// the same whatever `ws` solved before.
pub(crate) fn build_in(
    network: &Network,
    traffic: &TrafficMatrix,
    objective: &Objective,
    config: &SpefConfig,
    ws: &mut TeWorkspace,
) -> Result<SpefRouting, SpefError> {
    let g = network.graph();

    // Step 1: TE optimum + raw first weights.
    let (te, raw_weights, target_flows) = match &config.solver {
        TeSolverKind::FrankWolfe(fw) => {
            let te = te::solve_te_in(network, traffic, objective, fw, ws)?;
            let w = te.weights.clone();
            let f = te.flows.aggregate().to_vec();
            (te, w, f)
        }
        TeSolverKind::DualDecomposition(dd) => {
            let out = dual_decomp::solve_in(network, traffic, objective, dd, ws)?;
            // Virtual capacity c' = c − s is the NEM target.
            let target: Vec<f64> = network
                .capacities()
                .iter()
                .zip(&out.spare)
                .map(|(c, s)| (c - s).max(0.0))
                .collect();
            let spare = out.spare.clone();
            let utility = objective.aggregate_utility(&spare);
            let te = TeSolution {
                flows: out.flows,
                spare,
                utility,
                weights: out.weights.clone(),
                relative_gap: f64::NAN,
                iterations: out.iterations,
            };
            (te, out.weights, target)
        }
    };

    // Step 1b: weight post-processing per §V.G.
    let (first_weights, tolerance) = match config.weight_mode {
        WeightMode::Exact => {
            // The tolerance must absorb the TE solver's finite accuracy:
            // paths that tie at the exact optimum may differ by a small
            // amount in the computed weights (amplified by large β,
            // where V' is steep). Over-inclusion is benign — NEM drives
            // superfluous paths' split ratios toward zero — but missing
            // a path that carries optimal flow is fatal to
            // realisability, so the default tolerance is taken from the
            // worst Bellman slack over the optimal support itself.
            let tol = config
                .dijkstra_tolerance
                .map(Ok)
                .unwrap_or_else(|| support_slack_tolerance(g, &raw_weights, &te.flows))?;
            (raw_weights, tol)
        }
        WeightMode::ScaledNoninteger => {
            let scaled = scale_weights(&raw_weights, &te.spare)?;
            let tol = config
                .dijkstra_tolerance
                .unwrap_or(NONINTEGER_DIJKSTRA_TOLERANCE);
            (scaled, tol)
        }
        WeightMode::Integer => {
            let ints = integerize(&raw_weights, &te.spare)?;
            let tol = config
                .dijkstra_tolerance
                .unwrap_or(INTEGER_DIJKSTRA_TOLERANCE);
            (ints, tol)
        }
    };

    // Steps 2–4 run on the workspace's engine; the state goes back into
    // the workspace whether they succeed or not.
    let dests = traffic.destinations();
    let floored: Vec<f64> = first_weights
        .iter()
        .map(|w| w.max(dual_decomp::WEIGHT_FLOOR))
        .collect();
    let mut engine = RoutingEngine::with_state(g, ws.take_engine(g));
    let result = route_stages(
        traffic,
        config,
        &dests,
        &floored,
        tolerance,
        &target_flows,
        &mut engine,
        ws,
    );
    ws.put_engine(engine.into_state());
    let (nem_out, fib) = result?;

    Ok(SpefRouting {
        first_weights,
        second_weights: nem_out.second_weights,
        te,
        target_flows,
        flows: nem_out.flows,
        fib,
        dijkstra_tolerance: tolerance,
        nem_converged: nem_out.converged,
    })
}

/// Steps 2–4 of Algorithm 4: DAGs, second weights, forwarding tables.
#[allow(clippy::too_many_arguments)]
fn route_stages(
    traffic: &TrafficMatrix,
    config: &SpefConfig,
    dests: &[NodeId],
    floored: &[f64],
    tolerance: f64,
    target_flows: &[f64],
    engine: &mut RoutingEngine<'_>,
    ws: &mut TeWorkspace,
) -> Result<(NemOutcome, ForwardingTable), SpefError> {
    let g = engine.graph();

    // Step 2: per-destination shortest-path DAGs, built once into the
    // engine's flat DAG set. NEM reads them through borrowed views.
    engine.build_dags(floored, dests, tolerance)?;
    let dags: Vec<DagRef<'_>> = engine.dag_set().iter().collect();

    // Step 3: second weights via NEM.
    let nem_out = nem::solve_in(g, &dags, traffic, target_flows, &config.nem, ws)?;

    // Step 4: forwarding tables (TABLE II rows), streamed destination by
    // destination, so the only all-destinations structure built is the
    // FIB itself.
    let fib = engine.build_forwarding_table(SplitRule::Exponential(&nem_out.second_weights))?;
    Ok((nem_out, fib))
}

/// Smallest Dijkstra tolerance that keeps every significantly-loaded edge
/// of the optimal distribution inside its destination's shortest-path DAG:
/// the maximum Bellman slack `w_uv + dist(v) − dist(u)` over edges carrying
/// at least 1% of their commodity's peak flow, padded by 10%.
///
/// This is the tolerance the SPEF pipeline ([`SpefConfig`]'s
/// [`TeSolver`](crate::TeSolver) impl) derives for
/// [`WeightMode::Exact`]; it is exported for callers that build DAGs from
/// solver weights directly (e.g. the convergence experiments).
///
/// # Errors
///
/// Propagates graph errors from the distance computations.
pub fn support_slack_tolerance(
    g: &spef_graph::Graph,
    weights: &[f64],
    flows: &Flows,
) -> Result<f64, SpefError> {
    let floored: Vec<f64> = weights
        .iter()
        .map(|w| w.max(dual_decomp::WEIGHT_FLOOR))
        .collect();
    let mut max_slack = 0.0f64;
    for &t in flows.destinations() {
        let f_t = flows.for_destination(t).expect("destination flows");
        let peak = f_t.iter().cloned().fold(0.0, f64::max);
        if peak <= 0.0 {
            continue;
        }
        let dist = spef_graph::distances_to(g, &floored, t)?;
        for (e, u, v) in g.edges() {
            if f_t[e.index()] < 1e-2 * peak {
                continue;
            }
            let (du, dv) = (dist[u.index()], dist[v.index()]);
            if du.is_finite() && dv.is_finite() {
                max_slack = max_slack.max(floored[e.index()] + dv - du);
            }
        }
    }
    let max_w = floored.iter().cloned().fold(0.0, f64::max);
    Ok((1.1 * max_slack).max(1e-9 * max_w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ConvergenceCriteria;
    use spef_graph::EdgeId;
    use spef_topology::standard;

    /// Cold-build helper: each call gets a fresh workspace.
    fn build(
        network: &Network,
        traffic: &TrafficMatrix,
        objective: &Objective,
        config: &SpefConfig,
    ) -> Result<SpefRouting, SpefError> {
        build_in(network, traffic, objective, config, &mut TeWorkspace::new())
    }

    fn build_fig1(mode: WeightMode) -> (Network, SpefRouting) {
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let obj = Objective::proportional(net.link_count());
        let cfg = SpefConfig {
            weight_mode: mode,
            nem: NemConfig {
                convergence: ConvergenceCriteria::with_tolerance(20000, 1e-5),
                ..NemConfig::default()
            },
            ..SpefConfig::default()
        };
        let routing = build(&net, &tm, &obj, &cfg).unwrap();
        (net, routing)
    }

    #[test]
    fn exact_mode_realizes_optimal_te() {
        let (net, routing) = build_fig1(WeightMode::Exact);
        assert!(routing.nem_converged());
        // Realised flows match the TE optimum (Theorem 4.2).
        for (f, t) in routing
            .flows()
            .aggregate()
            .iter()
            .zip(routing.te_solution().flows.aggregate())
        {
            assert!((f - t).abs() < 1e-3, "{f} vs {t}");
        }
        // Realised utility ≈ optimal utility.
        let u = routing.normalized_utility(&net);
        assert!(u.is_finite());
    }

    #[test]
    fn forwarding_ratios_sum_to_one() {
        let (net, routing) = build_fig1(WeightMode::Exact);
        let fib = routing.forwarding_table();
        for &t in fib.destinations() {
            for node in net.graph().nodes() {
                let hops = fib.next_hops(node, t).unwrap();
                if !hops.is_empty() {
                    let sum: f64 = hops.iter().map(|&(_, r)| r).sum();
                    assert!((sum - 1.0).abs() < 1e-9);
                }
            }
        }
        assert!(fib.next_hops(NodeId::new(0), NodeId::new(1)).is_none());
    }

    #[test]
    fn integer_mode_uses_integer_weights_and_tolerance_one() {
        let (_, routing) = build_fig1(WeightMode::Integer);
        for &w in routing.first_weights() {
            assert_eq!(w, w.round());
            assert!(w >= 1.0);
        }
        assert_eq!(routing.dijkstra_tolerance(), 1.0);
    }

    #[test]
    fn scaled_mode_uses_tolerance_point_three() {
        let (_, routing) = build_fig1(WeightMode::ScaledNoninteger);
        assert_eq!(routing.dijkstra_tolerance(), 0.3);
        // Max-spare link scales to weight 1 under β = 1.
        let min_w = routing
            .first_weights()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!((min_w - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dual_decomposition_solver_also_builds() {
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let obj = Objective::proportional(net.link_count());
        let cfg = SpefConfig {
            solver: TeSolverKind::DualDecomposition(DualDecompConfig {
                convergence: ConvergenceCriteria::budget(4000),
                record_trace: false,
                ..DualDecompConfig::default()
            }),
            ..SpefConfig::default()
        };
        let routing = build(&net, &tm, &obj, &cfg).unwrap();
        // Weights close to the primal reference (TABLE I: 3, 10, 1.5, 1.5).
        assert!((routing.first_weights()[1] - 10.0).abs() < 1.5);
        let mlu = routing.max_link_utilization(&net);
        assert!(mlu <= 1.0 + 1e-6);
    }

    #[test]
    fn spef_beats_or_matches_ospf_utility_on_fig4() {
        use crate::traffic_dist::{build_dags, traffic_distribution, SplitRule};
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let obj = Objective::proportional(net.link_count());
        let routing = build(&net, &tm, &obj, &SpefConfig::default()).unwrap();
        // OSPF InvCap even split.
        let invcap: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let dags = build_dags(net.graph(), &invcap, &tm.destinations(), 0.0).unwrap();
        let ospf = traffic_distribution(net.graph(), &dags, &tm, SplitRule::EvenEcmp).unwrap();
        let ospf_u = metrics::normalized_utility(&net, ospf.aggregate());
        let spef_u = routing.normalized_utility(&net);
        // OSPF overloads the bottleneck (utility −∞); SPEF stays feasible.
        assert_eq!(ospf_u, f64::NEG_INFINITY);
        assert!(spef_u.is_finite());
        assert!(routing.max_link_utilization(&net) < 1.0);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn forwarding_table_validates_ratios() {
        ForwardingTable::new(
            2,
            vec![NodeId::new(1)],
            vec![vec![vec![(EdgeId::new(0), 0.5)], vec![]]],
        );
    }

    #[test]
    fn beta_zero_pipeline_works() {
        // SPEF0 on Fig. 4 (used by Fig. 6/7): LP weights + NEM.
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let obj = Objective::min_hop(net.link_count());
        let cfg = SpefConfig {
            nem: NemConfig {
                convergence: ConvergenceCriteria::budget(5000),
                ..NemConfig::default()
            },
            ..SpefConfig::default()
        };
        let routing = build(&net, &tm, &obj, &cfg).unwrap();
        // β=0 saturates the bottleneck link exactly (Fig. 6: SPEF0 has
        // utilization 1.0 on link 1).
        let mlu = routing.max_link_utilization(&net);
        assert!(
            (mlu - 1.0).abs() < 0.05,
            "beta=0 bottleneck utilization {mlu}"
        );
    }
}
