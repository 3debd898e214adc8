//! Algorithm 2 of the paper: Network Entropy Maximization for the **second
//! link weights**.
//!
//! Given the optimal traffic distribution `f*` and the shortest-path DAGs
//! under the first weights, SPEF needs per-router split ratios over the
//! equal-cost paths that (a) reproduce `f*` and (b) are computable locally
//! from one extra weight per link. The paper obtains them by maximising the
//! path-split entropy (Eq. 17); the Lagrange duals `v` of the capacity
//! constraints `Σ_paths ∋ e  d_r p_k ≤ f*_e` are the second weights, and
//! the optimal splits are the exponential softmax of second-weight path
//! lengths (Eq. 18).
//!
//! Algorithm 2 is projected gradient on the dual:
//! `v ← (v − γ (f* − f(v)))₊`, where `f(v)` is the traffic distribution
//! induced by exponential splitting ([`crate::traffic_distribution`] with
//! [`SplitRule::Exponential`]). The recorded dual-objective trace
//! `d(v) = Σ_r d_r · log Σ_k e^(−v^r_k) + Σ_e v_e f*_e` regenerates
//! Fig. 12(b). The split tables carry each path sum `Σ_k e^(−v^r_k)` as a
//! log offset and a scale, so computing its log costs one `ln` per
//! demand pair (`SplitTableRef::log_path_sum`), paid only by an iteration
//! that records the trace; the splits themselves call no `ln`.

use spef_graph::{DagAccess, Graph, NodeId};
use spef_topology::TrafficMatrix;

use crate::dual_decomp::StepRule;
use crate::solver::{ConvergenceCriteria, NemSession, TeWorkspace};
use crate::traffic_dist::{distribute_streamed, Flows, SplitRule};
use crate::SpefError;

/// Configuration of Algorithm 2.
#[derive(Debug, Clone)]
pub struct NemConfig {
    /// Step-size schedule. The default is the paper's
    /// `γ = 1 / max_e f*_e` (§V.F).
    pub step: StepRule,
    /// Stopping rules. `max_iterations` defaults to 1000 (the x-range of
    /// Fig. 12(b)); `gap_tolerance` is the ε of `f_e ≤ f*_e + ε` on every
    /// link, `None` deriving `1e-4 · max_e f*_e`.
    pub convergence: ConvergenceCriteria,
    /// Record the dual objective every iteration (Fig. 12(b)).
    pub record_trace: bool,
}

impl Default for NemConfig {
    fn default() -> Self {
        NemConfig {
            step: StepRule::DefaultRatio(1.0),
            convergence: ConvergenceCriteria::budget(1000),
            record_trace: false,
        }
    }
}

/// Outcome of Algorithm 2.
#[derive(Debug, Clone)]
pub struct NemOutcome {
    /// The second link weights `v`.
    pub second_weights: Vec<f64>,
    /// The aggregate of the exponential-split traffic distribution of the
    /// last iteration that distributed. Only the aggregate is kept (the
    /// step reads nothing else), so [`Flows::for_destination`] returns
    /// `None`. On an early convergence stop this is the distribution under
    /// `second_weights`. When the run ends on its iteration budget
    /// (unconverged, or any pinned run) `second_weights` has taken one more
    /// projected-gradient step after it, so these flows are one step
    /// behind the weights (and the FIB built from them).
    pub flows: Flows,
    /// Dual objective per iteration (Fig. 12(b)); empty unless
    /// `record_trace`.
    pub dual_objective_trace: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the ε-criterion was met. With *integerised* first weights
    /// the DAGs may not support `f*` exactly (§V.G), in which case the
    /// algorithm reports `false` and returns its last iterate.
    pub converged: bool,
}

/// The session entry point: the dual iterate `v`, the flow and demand
/// buffers and a one-destination split-table scratch live in the
/// workspace, and every run starts from `v(0) = 0` as in §V.F. Reached
/// through the [`TeSolver`](crate::TeSolver) impl on [`NemConfig`] with
/// owned DAGs, and from the SPEF pipeline with
/// [`DagRef`](spef_graph::DagRef) views of the engine's flat DAG set;
/// results are bit-identical either way.
pub(crate) fn solve_in<D: DagAccess>(
    graph: &Graph,
    dags: &[D],
    traffic: &TrafficMatrix,
    target_flows: &[f64],
    config: &NemConfig,
    ws: &mut TeWorkspace,
) -> Result<NemOutcome, SpefError> {
    if target_flows.len() != graph.edge_count() {
        return Err(SpefError::InvalidInput(format!(
            "target flow vector has length {}, expected {}",
            target_flows.len(),
            graph.edge_count()
        )));
    }
    let max_target = target_flows.iter().cloned().fold(0.0, f64::max);
    if max_target <= 0.0 {
        return Err(SpefError::InvalidInput(
            "target flows are all zero".to_string(),
        ));
    }
    if config.convergence.max_iterations == 0 {
        return Err(SpefError::InvalidInput(
            "max_iterations must be at least 1".to_string(),
        ));
    }
    let eps = config
        .convergence
        .gap_tolerance
        .unwrap_or(1e-4 * max_target);
    let pinned = config.convergence.pinned;
    let default_scale = 1.0 / max_target;

    let dests = traffic.destinations();
    let nem = &mut ws.nem;
    // §V.F: v(0) = 0 is a proper choice (and a good approximate dual).
    nem.v.clear();
    nem.v.resize(graph.edge_count(), 0.0);
    let mut trace = Vec::new();
    let mut converged = false;
    let mut iterations = 0;

    for k in 0..config.convergence.max_iterations {
        iterations = k + 1;
        // d(v) = Σ_r d_r log Σ_k e^{-v^r_k} + Σ_e v_e f*_e.
        let mut dual = distribute(nem, graph, dags, &dests, traffic, config.record_trace)?;
        if config.record_trace {
            for (ve, fe) in nem.v.iter().zip(target_flows) {
                dual += ve * fe;
            }
            trace.push(dual);
        }

        // Convergence: f_e ≤ f*_e + ε everywhere.
        let worst = nem
            .flows
            .aggregate()
            .iter()
            .zip(target_flows)
            .map(|(f, t)| f - t)
            .fold(f64::NEG_INFINITY, f64::max);
        if worst <= eps {
            converged = true;
            if !pinned {
                break;
            }
        } else if pinned {
            // Pinned mode reports the final iterate's status.
            converged = false;
        }

        let step = config.step.step(k, default_scale);
        let agg = nem.flows.aggregate();
        for ((v, &target), &f) in nem.v.iter_mut().zip(target_flows).zip(agg) {
            *v = (*v - step * (target - f)).max(0.0);
        }
    }

    Ok(NemOutcome {
        second_weights: nem.v.clone(),
        flows: nem.flows.clone(),
        dual_objective_trace: trace,
        iterations,
        converged,
    })
}

/// One Algorithm 3 pass under the exponential rule at the current `v`,
/// through the streamed loop Frank–Wolfe's target shares
/// ([`distribute_streamed`]): the batched kernel's operations in its order,
/// so the aggregate is bit-identical to it. Only the aggregate survives.
/// Returns the dual objective's demand terms
/// `Σ_r d_r · log Σ_k e^(−v^r_k)` when `record`, else `0`.
fn distribute<D: DagAccess>(
    nem: &mut NemSession,
    graph: &Graph,
    dags: &[D],
    dests: &[NodeId],
    traffic: &TrafficMatrix,
    record: bool,
) -> Result<f64, SpefError> {
    nem.flows.reset_aggregate(dests, graph.edge_count());
    let (_, aggregate) = nem.flows.parts_mut();
    let mut dual = 0.0;
    distribute_streamed::<D, _>(
        graph,
        dests,
        dags.iter(),
        traffic,
        SplitRule::Exponential(&nem.v),
        &mut nem.stream,
        aggregate,
        |_, _, table, demands| {
            if record {
                for (s, &d) in graph.nodes().zip(demands) {
                    if d > 0.0 {
                        dual += d * table.log_path_sum(s);
                    }
                }
            }
        },
    )?;
    Ok(dual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frank_wolfe::FrankWolfeConfig;
    use crate::solver::{ConvergenceCriteria, TeInstance, TeSolver, TeWorkspace};
    use crate::traffic_dist::build_dags;
    use crate::Objective;
    use spef_graph::{NodeId, ShortestPathDag};
    use spef_topology::{standard, Network};

    /// Cold-solve helper: the module's tests exercise the algorithm, not the
    /// session machinery, so each call gets a fresh [`TeWorkspace`].
    fn solve_second_weights(
        graph: &Graph,
        dags: &[ShortestPathDag],
        traffic: &TrafficMatrix,
        target_flows: &[f64],
        config: &NemConfig,
    ) -> Result<NemOutcome, SpefError> {
        solve_in(
            graph,
            dags,
            traffic,
            target_flows,
            config,
            &mut TeWorkspace::new(),
        )
    }

    /// Diamond with asymmetric target split.
    fn diamond() -> (Graph, Vec<f64>) {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        (g, vec![1.0; 4])
    }

    #[test]
    fn reproduces_even_target_with_zero_weights() {
        let (g, w) = diamond();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 2.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        // Even target: v = 0 already realises it; Algorithm 2 must converge
        // immediately with zero weights.
        let target = vec![1.0, 1.0, 1.0, 1.0];
        let out = solve_second_weights(&g, &dags, &tm, &target, &NemConfig::default()).unwrap();
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert!(out.second_weights.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn skewed_target_induces_positive_weight_on_hot_path() {
        let (g, w) = diamond();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        // Target: 30% on the upper path, 70% on the lower.
        let target = vec![0.3, 0.7, 0.3, 0.7];
        let cfg = NemConfig {
            convergence: ConvergenceCriteria::with_tolerance(5000, 1e-6),
            ..NemConfig::default()
        };
        let out = solve_second_weights(&g, &dags, &tm, &target, &cfg).unwrap();
        assert!(out.converged, "did not converge: {:?}", out.flows);
        let f = out.flows.aggregate();
        assert!((f[0] - 0.3).abs() < 1e-3, "upper {}", f[0]);
        assert!((f[1] - 0.7).abs() < 1e-3, "lower {}", f[1]);
        // The under-used (upper) path carries the positive second weight.
        let upper_len = out.second_weights[0] + out.second_weights[2];
        let lower_len = out.second_weights[1] + out.second_weights[3];
        assert!(upper_len > lower_len);
        // Eq. 18: p_upper/p_lower = e^{-(len_u - len_l)}.
        let expected_ratio = (-(upper_len - lower_len) as f64).exp();
        assert!((f[0] / f[1] - expected_ratio).abs() < 1e-3);
    }

    #[test]
    fn realizes_optimal_te_on_fig1() {
        // Theorem 4.2 end-to-end on the paper's Fig. 1: the β=1 optimal
        // distribution is realisable by exponential splitting over the
        // first-weight shortest paths.
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let obj = Objective::proportional(net.link_count());
        let te = FrankWolfeConfig::default()
            .solve(TeInstance::new(&net, &tm, &obj))
            .unwrap();
        // DAGs under the optimal first weights; small tolerance absorbs the
        // solver's finite accuracy.
        let tol = 1e-4;
        let dags = build_dags(net.graph(), &te.weights, &tm.destinations(), tol).unwrap();
        let cfg = NemConfig {
            convergence: ConvergenceCriteria::with_tolerance(20000, 1e-5),
            ..NemConfig::default()
        };
        let out =
            solve_second_weights(net.graph(), &dags, &tm, te.flows.aggregate(), &cfg).unwrap();
        assert!(out.converged);
        for (e, (f, t)) in out
            .flows
            .aggregate()
            .iter()
            .zip(te.flows.aggregate())
            .enumerate()
        {
            assert!((f - t).abs() < 1e-3, "edge {e}: {f} vs {t}");
        }
    }

    #[test]
    fn dual_trace_is_recorded_and_finite() {
        let (g, w) = diamond();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let cfg = NemConfig {
            record_trace: true,
            convergence: ConvergenceCriteria::with_tolerance(50, 0.0),
            ..NemConfig::default()
        };
        let target = vec![0.4, 0.6, 0.4, 0.6];
        let out = solve_second_weights(&g, &dags, &tm, &target, &cfg).unwrap();
        assert!(!out.dual_objective_trace.is_empty());
        assert!(out.dual_objective_trace.iter().all(|d| d.is_finite()));
        // The dual objective of the final iterate is near-minimal over the
        // trace (gradient descent on a convex dual).
        let last = *out.dual_objective_trace.last().unwrap();
        let min = out
            .dual_objective_trace
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(last - min < 1e-2);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (g, w) = diamond();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        assert!(matches!(
            solve_second_weights(&g, &dags, &tm, &[1.0; 2], &NemConfig::default()),
            Err(SpefError::InvalidInput(_))
        ));
        assert!(matches!(
            solve_second_weights(&g, &dags, &tm, &[0.0; 4], &NemConfig::default()),
            Err(SpefError::InvalidInput(_))
        ));
    }

    #[test]
    fn unreachable_target_flow_reports_nonconvergence() {
        // Target below what any split can achieve on one mandatory edge:
        // chain 0→1→2 must carry all demand on both edges; target says 0.5.
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        let w = vec![1.0, 1.0];
        let mut tm = TrafficMatrix::new(3);
        tm.set(0.into(), 2.into(), 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let cfg = NemConfig {
            convergence: ConvergenceCriteria::with_tolerance(50, 1e-9),
            ..NemConfig::default()
        };
        let out = solve_second_weights(&g, &dags, &tm, &[0.5, 0.5], &cfg).unwrap();
        assert!(!out.converged);
        // The flow is still the only feasible one.
        assert_eq!(out.flows.aggregate(), &[1.0, 1.0]);
        let _ = Network::builder("unused");
        let _ = NodeId::new(0);
    }
}
