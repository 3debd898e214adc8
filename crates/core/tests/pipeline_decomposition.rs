//! Property test: the SPEF pipeline ([`SpefConfig`]'s [`TeSolver`] impl,
//! Frank–Wolfe first weights) equals its decomposition into public steps,
//! the one the benchmark traces, bit for bit — first and second weights,
//! NEM's aggregate flows and convergence verdict, and the FIB — for a
//! pinned NEM run and a budgeted one that records the dual trace. The
//! trace's last entry is also checked against the dual objective summed
//! independently of the solver. NEM keeps only the aggregate flow, so
//! neither side holds per-destination columns.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use spef_core::protocol::support_slack_tolerance;
use spef_core::{
    dual_decomp, ConvergenceCriteria, ForwardingTable, FrankWolfeConfig, NemConfig, NemInstance,
    NemOutcome, Objective, RoutingEngine, SpefConfig, SplitRule, SplitTable, TeInstance, TeSolver,
    TeSolverKind, TeWorkspace,
};
use spef_graph::{NodeId, ShortestPathDag};
use spef_topology::{gen, Network, TrafficMatrix};

/// Strategy: a random duplex network and demands.
fn random_instance() -> impl Strategy<Value = (Network, TrafficMatrix)> {
    (4usize..10, 0u64..5000, 2usize..6).prop_map(|(n, seed, pairs)| {
        let links = 2 * (n - 1) + 2 * (n / 2);
        let net = gen::random_network("pipeprop", n, links, seed);
        let mut tm = TrafficMatrix::new(n);
        for k in 0..pairs {
            let s = (seed as usize + k * 3) % n;
            let t = (seed as usize + k * 5 + 1) % n;
            if s != t {
                tm.set(NodeId::new(s), NodeId::new(t), 0.2 + (k as f64) * 0.13);
            }
        }
        if tm.pair_count() == 0 {
            tm.set(NodeId::new(0), NodeId::new(1), 0.3);
        }
        let tm = tm.scaled_to_network_load(&net, 0.03);
        (net, tm)
    })
}

/// Bitwise slice equality for flow vectors (plain `==` would equate
/// `-0.0` and `0.0` and hide a changed operation order).
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// An exact-weight Frank–Wolfe SPEF solve decomposed into its public
/// steps, in the order the benchmark traces them: FW `solve_in`,
/// `support_slack_tolerance`, floored `build_dags`, owned DAGs,
/// `NemInstance`, then `build_split_tables` +
/// `ForwardingTable::from_split_table_set`. FW and NEM run in `ws`.
fn decomposed(
    net: &Network,
    tm: &TrafficMatrix,
    obj: &Objective,
    config: &SpefConfig,
    ws: &mut TeWorkspace,
) -> Steps {
    let TeSolverKind::FrankWolfe(fw) = &config.solver else {
        panic!("the decomposition covers the Frank-Wolfe pipeline only");
    };
    let g = net.graph();
    let dests = tm.destinations();
    let te = fw.solve_in(TeInstance::new(net, tm, obj), ws).unwrap();
    let tol = support_slack_tolerance(g, &te.weights, &te.flows).unwrap();
    let floored: Vec<f64> = te
        .weights
        .iter()
        .map(|w| w.max(dual_decomp::WEIGHT_FLOOR))
        .collect();
    let mut engine = RoutingEngine::new(g);
    engine.build_dags(&floored, &dests, tol).unwrap();
    let dags: Vec<ShortestPathDag> = (0..dests.len())
        .map(|i| engine.dag_set().to_shortest_path_dag(i, g))
        .collect();
    let nem = config
        .nem
        .solve_in(NemInstance::new(g, &dags, tm, te.flows.aggregate()), ws)
        .unwrap();
    let tables = engine
        .build_split_tables(SplitRule::Exponential(&nem.second_weights))
        .unwrap();
    let fib = ForwardingTable::from_split_table_set(g.node_count(), &dests, tables);
    Steps {
        first_weights: te.weights,
        target: te.flows.aggregate().to_vec(),
        dags,
        nem,
        fib,
    }
}

/// What [`decomposed`] produces: the first weights, NEM's target flows,
/// the owned DAGs, the NEM outcome and the FIB.
struct Steps {
    first_weights: Vec<f64>,
    target: Vec<f64>,
    dags: Vec<ShortestPathDag>,
    nem: NemOutcome,
    fib: ForwardingTable,
}

/// The NEM dual objective `Σ_r d_r · log Σ_k e^(−v^r_k) + Σ_e v_e f*_e`
/// at `v`, summed independently of the solver: demand terms in ascending
/// destination order, then source order, then the link terms.
fn dual_objective(
    net: &Network,
    tm: &TrafficMatrix,
    dags: &[ShortestPathDag],
    v: &[f64],
    target: &[f64],
) -> f64 {
    let mut column = Vec::new();
    let mut dual = 0.0;
    for (dag, &t) in dags.iter().zip(&tm.destinations()) {
        let table = SplitTable::build(net.graph(), dag, SplitRule::Exponential(v)).unwrap();
        tm.demands_to_into(t, &mut column);
        for (s, &d) in column.iter().enumerate() {
            if d > 0.0 {
                dual += d * table.log_path_sum(NodeId::new(s));
            }
        }
    }
    for (ve, fe) in v.iter().zip(target) {
        dual += ve * fe;
    }
    dual
}

/// Asserts two forwarding tables agree cell for cell, bit for bit.
fn assert_tables_identical(
    a: &ForwardingTable,
    b: &ForwardingTable,
    n: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.destinations(), b.destinations());
    prop_assert_eq!(a.entry_count(), b.entry_count());
    for &dest in a.destinations() {
        for u in 0..n {
            let node = NodeId::new(u);
            let ra: Vec<(u32, u64)> = a
                .next_hops(node, dest)
                .unwrap_or(&[])
                .iter()
                .map(|&(e, p)| (e.index() as u32, p.to_bits()))
                .collect();
            let rb: Vec<(u32, u64)> = b
                .next_hops(node, dest)
                .unwrap_or(&[])
                .iter()
                .map(|&(e, p)| (e.index() as u32, p.to_bits()))
                .collect();
            prop_assert_eq!(ra, rb, "node {} dest {:?}", u, dest);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The Frank–Wolfe pipeline against its public steps: a pinned NEM
    /// run, and a budgeted one (which may stop early) that records the
    /// dual trace. The traced case routes every ordered pair, so each
    /// destination folds several demand terms and a changed summation
    /// order changes the trace's bits.
    #[test]
    fn pipeline_matches_its_public_steps((net, tm) in random_instance()) {
        let obj = Objective::proportional(net.link_count());
        let fw = TeSolverKind::FrankWolfe(FrankWolfeConfig {
            convergence: ConvergenceCriteria::pinned(8),
        });
        let mut all_pairs = TrafficMatrix::new(net.node_count());
        for s in net.graph().nodes() {
            for t in net.graph().nodes() {
                if s != t {
                    let d = 0.1 + ((s.index() * 7 + t.index() * 3) % 5) as f64 * 0.05;
                    all_pairs.set(s, t, d);
                }
            }
        }
        let all_pairs = all_pairs.scaled_to_network_load(&net, 0.03);
        let cases = [
            (
                NemConfig {
                    convergence: ConvergenceCriteria::pinned(20),
                    ..NemConfig::default()
                },
                &tm,
            ),
            (
                NemConfig {
                    convergence: ConvergenceCriteria::budget(40),
                    record_trace: true,
                    ..NemConfig::default()
                },
                &all_pairs,
            ),
        ];
        for (nem, tm) in cases {
            let config = SpefConfig { solver: fw.clone(), nem, ..SpefConfig::default() };
            let routing = config
                .solve_in(TeInstance::new(&net, tm, &obj), &mut TeWorkspace::new())
                .unwrap();
            let steps = decomposed(&net, tm, &obj, &config, &mut TeWorkspace::new());
            let Steps { first_weights, target, dags, nem, fib } = &steps;
            prop_assert_eq!(bits(routing.first_weights()), bits(first_weights));
            prop_assert_eq!(bits(routing.second_weights()), bits(&nem.second_weights));
            prop_assert_eq!(bits(routing.flows().aggregate()), bits(nem.flows.aggregate()));
            // NEM keeps the aggregate only: no destination has a column.
            for &t in &tm.destinations() {
                prop_assert!(routing.flows().for_destination(t).is_none(), "dest {:?}", t);
                prop_assert!(nem.flows.for_destination(t).is_none(), "dest {:?}", t);
            }
            prop_assert_eq!(routing.nem_converged(), nem.converged);
            assert_tables_identical(routing.forwarding_table(), fib, net.node_count())?;

            // The trace's last entry is the dual at the iterate before the
            // final step, summed in ascending destination order.
            if config.nem.record_trace {
                let k = nem.iterations;
                prop_assert_eq!(nem.dual_objective_trace.len(), k);
                let v = if k == 1 {
                    vec![0.0; net.link_count()]
                } else {
                    NemConfig {
                        convergence: ConvergenceCriteria::pinned(k - 1),
                        ..NemConfig::default()
                    }
                    .solve(NemInstance::new(net.graph(), dags, tm, target))
                    .unwrap()
                    .second_weights
                };
                prop_assert_eq!(
                    nem.dual_objective_trace[k - 1].to_bits(),
                    dual_objective(&net, tm, dags, &v, target).to_bits()
                );
            }
        }
    }
}
