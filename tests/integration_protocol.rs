//! End-to-end protocol tests: the full SPEF pipeline (Algorithm 4) on the
//! evaluation backbones.

use spef_core::{
    dual_decomp, metrics, ConvergenceCriteria, Flows, FrankWolfeConfig, NemConfig, Objective,
    RoutingEngine, SpefConfig, SplitRule, TeInstance, TeSolver, TeSolverKind, WeightMode,
};
use spef_topology::{standard, TrafficMatrix};

fn abilene_setup(load: f64) -> (spef_topology::Network, TrafficMatrix) {
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 42).scaled_to_network_load(&net, load);
    (net, tm)
}

#[test]
fn abilene_pipeline_is_feasible_and_consistent() {
    let (net, tm) = abilene_setup(0.12);
    let obj = Objective::proportional(net.link_count());
    let routing = SpefConfig::default()
        .solve(TeInstance::new(&net, &tm, &obj))
        .unwrap();

    // Feasible realisation.
    assert!(routing.max_link_utilization(&net) < 1.0);
    assert!(routing.normalized_utility(&net).is_finite());

    // Flow conservation, per destination, of the flows the FIB forwards:
    // the exponential split at the returned second weights over the
    // pipeline's own first-weight DAGs.
    let floored: Vec<f64> = routing
        .first_weights()
        .iter()
        .map(|w| w.max(dual_decomp::WEIGHT_FLOOR))
        .collect();
    let mut engine = RoutingEngine::new(net.graph());
    engine
        .build_dags(&floored, &tm.destinations(), routing.dijkstra_tolerance())
        .unwrap();
    let forwarded = engine
        .distribute(&tm, SplitRule::Exponential(routing.second_weights()))
        .unwrap();
    for &t in forwarded.destinations() {
        let f = forwarded.for_destination(t).unwrap();
        let div = net.graph().divergence(f);
        let demands = tm.demands_to(t);
        for node in net.graph().nodes() {
            if node != t {
                assert!(
                    (div[node.index()] - demands[node.index()]).abs() < 1e-6,
                    "conservation at {node} toward {t}"
                );
            }
        }
    }

    // Every FIB row's ratios sum to 1; every row's edges leave the node.
    let fib = routing.forwarding_table();
    for &t in fib.destinations() {
        for node in net.graph().nodes() {
            let hops = fib.next_hops(node, t).unwrap();
            if hops.is_empty() {
                continue;
            }
            let sum: f64 = hops.iter().map(|&(_, r)| r).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            for &(e, _) in hops {
                assert_eq!(net.graph().source(e), node);
            }
        }
    }

    // First weights are positive; second weights non-negative.
    assert!(routing.first_weights().iter().all(|&w| w > 0.0));
    assert!(routing.second_weights().iter().all(|&v| v >= 0.0));
}

#[test]
fn weight_modes_degrade_gracefully() {
    let (net, tm) = abilene_setup(0.10);
    let obj = Objective::proportional(net.link_count());
    let mut utilities = Vec::new();
    for mode in [
        WeightMode::Exact,
        WeightMode::ScaledNoninteger,
        WeightMode::Integer,
    ] {
        let cfg = SpefConfig {
            weight_mode: mode,
            ..SpefConfig::default()
        };
        let routing = cfg.solve(TeInstance::new(&net, &tm, &obj)).unwrap();
        utilities.push(routing.normalized_utility(&net));
    }
    // All modes stay feasible at low load (Fig. 13: "little impact ...
    // for the low network loading").
    for (i, u) in utilities.iter().enumerate() {
        assert!(u.is_finite(), "mode {i} infeasible");
    }
    let exact = utilities[0];
    for u in &utilities[1..] {
        assert!(
            (u - exact).abs() < 0.25 * exact.abs().max(1.0),
            "large degradation: {utilities:?}"
        );
    }
}

#[test]
fn scaled_weights_preserve_routing_exactly() {
    // Scaling all weights by a constant cannot change shortest paths:
    // the ScaledNoninteger mode (with its paper tolerance) must keep the
    // realised MLU close to Exact's.
    let (net, tm) = abilene_setup(0.12);
    let obj = Objective::proportional(net.link_count());
    let exact = SpefConfig::default()
        .solve(TeInstance::new(&net, &tm, &obj))
        .unwrap();
    let scaled = SpefConfig {
        weight_mode: WeightMode::ScaledNoninteger,
        ..SpefConfig::default()
    }
    .solve(TeInstance::new(&net, &tm, &obj))
    .unwrap();
    let mlu_e = exact.max_link_utilization(&net);
    let mlu_s = scaled.max_link_utilization(&net);
    assert!((mlu_e - mlu_s).abs() < 0.1, "{mlu_e} vs {mlu_s}");
}

#[test]
fn dual_decomposition_solver_pipeline_on_cernet2() {
    let net = standard::cernet2();
    let tm = TrafficMatrix::gravity(&net, 1.0, 5).scaled_to_network_load(&net, 0.08);
    let obj = Objective::proportional(net.link_count());
    let cfg = SpefConfig {
        solver: TeSolverKind::DualDecomposition(spef_core::DualDecompConfig {
            convergence: ConvergenceCriteria::budget(3000),
            record_trace: false,
            ..spef_core::DualDecompConfig::default()
        }),
        ..SpefConfig::default()
    };
    let routing = cfg.solve(TeInstance::new(&net, &tm, &obj)).unwrap();
    assert!(routing.max_link_utilization(&net) < 1.0);
    assert!(routing.normalized_utility(&net).is_finite());
}

#[test]
fn table5_census_has_more_multipath_under_spef_at_high_load() {
    let net = standard::cernet2();
    let shape = TrafficMatrix::gravity(&net, 1.0, 20100110);
    let obj = Objective::proportional(net.link_count());
    let all_dests: Vec<_> = net.graph().nodes().collect();

    let invcap: Vec<f64> = net.capacities().iter().map(|c| 10.0 / c).collect();
    let ospf_dags = spef_core::build_dags(net.graph(), &invcap, &all_dests, 0.0).unwrap();
    let ospf_census = metrics::PathCensus::from_dags(&ospf_dags);

    let lmax = spef_experiments::scale::max_feasible_load(&net, &shape, 0.05).unwrap();
    let tm = shape.scaled_to_network_load(&net, 0.8 * lmax);
    let routing = SpefConfig::default()
        .solve(TeInstance::new(&net, &tm, &obj))
        .unwrap();
    let spef_dags = spef_core::build_dags(
        net.graph(),
        routing.first_weights(),
        &all_dests,
        routing.dijkstra_tolerance(),
    )
    .unwrap();
    let spef_census = metrics::PathCensus::from_dags(&spef_dags);

    assert_eq!(ospf_census.total_pairs(), 20 * 19);
    assert_eq!(spef_census.total_pairs(), 20 * 19);
    assert!(
        spef_census.multipath_pairs() >= ospf_census.multipath_pairs(),
        "SPEF {} vs OSPF {}",
        spef_census.multipath_pairs(),
        ospf_census.multipath_pairs()
    );
}

#[test]
fn infeasible_demand_is_rejected_up_front() {
    let net = standard::abilene();
    // 60% network load on a backbone with bottleneck cuts is not routable.
    let tm = TrafficMatrix::fortz_thorup(&net, 42).scaled_to_network_load(&net, 0.6);
    let obj = Objective::proportional(net.link_count());
    assert_eq!(
        SpefConfig::default()
            .solve(TeInstance::new(&net, &tm, &obj))
            .unwrap_err(),
        spef_core::SpefError::Infeasible
    );
}

#[test]
fn nem_flows_are_one_step_behind_the_returned_second_weights() {
    // NEM distributes, then steps `v`. A run that ends on its budget (here
    // pinned, unconverged) returns the stepped weights, so `flows` is the
    // distribution at the weights of a run one iteration shorter, not at
    // the returned weights the FIB is built from.
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.12);
    let obj = Objective::proportional(net.link_count());
    let route = |nem_iterations| {
        SpefConfig {
            solver: TeSolverKind::FrankWolfe(FrankWolfeConfig {
                convergence: ConvergenceCriteria::pinned(12),
            }),
            nem: NemConfig {
                convergence: ConvergenceCriteria::pinned(nem_iterations),
                ..NemConfig::default()
            },
            ..SpefConfig::default()
        }
        .solve(TeInstance::new(&net, &tm, &obj))
        .unwrap()
    };
    let routing = route(40);
    let shorter = route(39);
    assert!(!routing.nem_converged());

    // Fresh distributions over the pipeline's own DAGs.
    let floored: Vec<f64> = routing
        .first_weights()
        .iter()
        .map(|w| w.max(dual_decomp::WEIGHT_FLOOR))
        .collect();
    let mut engine = RoutingEngine::new(net.graph());
    engine
        .build_dags(&floored, &tm.destinations(), routing.dijkstra_tolerance())
        .unwrap();
    let mut at = |v: &[f64]| engine.distribute(&tm, SplitRule::Exponential(v)).unwrap();
    let behind = at(shorter.second_weights());
    let returned = at(routing.second_weights());
    let bits = |f: &Flows| -> Vec<u64> { f.aggregate().iter().map(|x| x.to_bits()).collect() };
    assert_eq!(bits(routing.flows()), bits(&behind));
    assert_ne!(bits(routing.flows()), bits(&returned));

    let reported = routing.max_link_utilization(&net);
    let at_returned = metrics::max_link_utilization(&net, returned.aggregate());
    assert!(
        (reported - 0.748402).abs() < 5e-7,
        "reported MLU {reported}"
    );
    assert!(
        (at_returned - 0.748473).abs() < 5e-7,
        "MLU at v {at_returned}"
    );
}
