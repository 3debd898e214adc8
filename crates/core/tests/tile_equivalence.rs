//! Property tests: the destination-tiled routing paths are
//! **bit-identical** to the untiled ones for every tile size.
//!
//! The tiled engine ([`RoutingEngine::distribute_tiled`]) shrinks the DAG
//! and split-table arenas from O(dests·edges) to O(tile·edges), but the
//! determinism contract says results never move: each destination's flows
//! are folded into the global aggregate destination by destination in
//! ascending order — the exact operation sequence of the untiled batch.
//! These tests pin that contract for random instances across adversarial
//! tile sizes (1, a non-divisor, the whole set, and past the end), at the
//! engine layer and through the full SPEF pipeline
//! ([`TeWorkspace::set_tile_size`]) for both the Frank–Wolfe and
//! Algorithm 1 solvers. The pipeline is also checked against its
//! decomposition into public steps, the one the benchmark traces.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use spef_core::protocol::support_slack_tolerance;
use spef_core::{
    dual_decomp, traffic_distribution_detailed, ConvergenceCriteria, DualDecompConfig, FibSet,
    ForwardingTable, FrankWolfeConfig, NemConfig, NemInstance, NemOutcome, Objective,
    RoutingEngine, SpefConfig, SplitRule, TeInstance, TeSolver, TeSolverKind, TeWorkspace,
};
use spef_graph::{NodeId, ShortestPathDag};
use spef_topology::{gen, Network, TrafficMatrix};

/// Strategy: a random duplex network, demands, and second weights.
fn random_instance() -> impl Strategy<Value = (spef_topology::Network, TrafficMatrix, Vec<f64>)> {
    (4usize..10, 0u64..5000, 2usize..6, 0u64..97).prop_map(|(n, seed, pairs, vseed)| {
        let links = 2 * (n - 1) + 2 * (n / 2);
        let net = gen::random_network("tileprop", n, links, seed);
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
        let v: Vec<f64> = (0..net.link_count())
            .map(|e| ((e as u64 * 13 + vseed) % 7) as f64 * 0.29)
            .collect();
        (net, tm, v)
    })
}

/// The tile sizes every instance is checked under: degenerate, a
/// non-divisor of most destination counts, exactly the whole set, and
/// past the end (one oversized chunk).
fn tile_sizes(dests: usize) -> [usize; 4] {
    [1, 3, dests, dests + 7]
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
/// `ForwardingTable::from_split_table_set`. FW and NEM run in `ws`, so
/// they follow its tile setting.
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
    let (_, tables) =
        traffic_distribution_detailed(net.graph(), dags, tm, SplitRule::Exponential(v)).unwrap();
    let mut column = Vec::new();
    let mut dual = 0.0;
    for (table, &t) in tables.iter().zip(&tm.destinations()) {
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

    /// `distribute_tiled` (both column modes) and the tile-streamed FIB
    /// reproduce the untiled `build_dags` + `distribute_into` +
    /// `build_split_tables` results bit for bit, for every tile size.
    #[test]
    fn engine_tiled_paths_match_untiled((net, tm, v) in random_instance()) {
        let g = net.graph();
        let n = g.node_count();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let rule = SplitRule::Exponential(&v);

        // Untiled reference: dense DAG set, dense flows, dense FIB.
        let mut engine = RoutingEngine::new(g);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut dense = engine.distribute_fresh();
        engine.distribute_into(&tm, rule, &mut dense).unwrap();
        let tables = engine.build_split_tables(rule).unwrap();
        let dense_fib = ForwardingTable::from_split_table_set(n, &dests, tables);

        for tile in tile_sizes(dests.len()) {
            // Columns kept (the Frank–Wolfe mode).
            let mut out = engine.distribute_fresh();
            let mut streamed = FibSet::new();
            streamed.begin(n);
            engine
                .distribute_tiled(&w, &dests, 0.0, &tm, rule, tile, true, &mut out,
                    |_, chunk, _, tile_tables| {
                        for (i, &dest) in chunk.iter().enumerate() {
                            let table = tile_tables.table(i);
                            streamed.push_destination(dest, |u| table.next_hops(NodeId::new(u)));
                        }
                        Ok(())
                    })
                .unwrap();
            prop_assert_eq!(bits(out.aggregate()), bits(dense.aggregate()), "tile {}", tile);
            for &t in dests.iter() {
                prop_assert_eq!(
                    bits(out.for_destination(t).unwrap()),
                    bits(dense.for_destination(t).unwrap()),
                    "tile {} dest {:?}", tile, t
                );
            }
            assert_tables_identical(&ForwardingTable::from(streamed), &dense_fib, n)?;

            // Aggregate-only (the Algorithm 1 / NEM mode): same aggregate,
            // no columns materialised.
            let mut agg = engine.distribute_fresh();
            engine
                .distribute_tiled(&w, &dests, 0.0, &tm, rule, tile, false, &mut agg,
                    |_, _, _, _| Ok(()))
                .unwrap();
            prop_assert_eq!(bits(agg.aggregate()), bits(dense.aggregate()), "tile {}", tile);
            prop_assert!(agg.for_destination(dests[0]).is_none());
        }

        // The tiled calls never clobbered the untiled DAG fingerprint:
        // re-running the dense pair skips SPF and reproduces the flows.
        let builds = engine.spf_builds();
        engine.build_dags(&w, &dests, 0.0).unwrap();
        prop_assert_eq!(engine.spf_builds(), builds);
        let mut again = engine.distribute_fresh();
        engine.distribute_into(&tm, rule, &mut again).unwrap();
        prop_assert_eq!(bits(again.aggregate()), bits(dense.aggregate()));
    }

    /// The full SPEF pipeline under [`TeWorkspace::set_tile_size`] is a
    /// pure function of the instance — identical weights, flows, FIB and
    /// metrics for every tile size, for both TE solvers.
    #[test]
    fn solver_pipeline_tiled_matches_dense((net, tm, _v) in random_instance()) {
        let obj = Objective::proportional(net.link_count());
        let nem = NemConfig {
            convergence: ConvergenceCriteria::pinned(20),
            ..NemConfig::default()
        };
        let configs = [
            SpefConfig {
                solver: TeSolverKind::FrankWolfe(FrankWolfeConfig {
                    convergence: ConvergenceCriteria::pinned(8),
                    ..FrankWolfeConfig::default()
                }),
                nem: nem.clone(),
                ..SpefConfig::default()
            },
            SpefConfig {
                solver: TeSolverKind::DualDecomposition(DualDecompConfig {
                    convergence: ConvergenceCriteria::pinned(15),
                    record_trace: false,
                    ..DualDecompConfig::default()
                }),
                nem,
                ..SpefConfig::default()
            },
        ];
        for config in &configs {
            let mut dense_ws = TeWorkspace::new();
            let dense = config
                .solve_in(TeInstance::new(&net, &tm, &obj), &mut dense_ws)
                .unwrap();
            for tile in tile_sizes(tm.destinations().len()) {
                let mut ws = TeWorkspace::new();
                ws.set_tile_size(Some(tile));
                let tiled = config
                    .solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
                    .unwrap();
                prop_assert_eq!(
                    bits(tiled.first_weights()), bits(dense.first_weights()), "tile {}", tile
                );
                prop_assert_eq!(
                    bits(tiled.second_weights()), bits(dense.second_weights()), "tile {}", tile
                );
                prop_assert_eq!(
                    bits(tiled.flows().aggregate()), bits(dense.flows().aggregate()),
                    "tile {}", tile
                );
                prop_assert_eq!(
                    tiled.max_link_utilization(&net).to_bits(),
                    dense.max_link_utilization(&net).to_bits(),
                    "tile {}", tile
                );
                prop_assert_eq!(tiled.te_solution().iterations, dense.te_solution().iterations);
                prop_assert_eq!(tiled.nem_converged(), dense.nem_converged());
                assert_tables_identical(
                    tiled.forwarding_table(),
                    dense.forwarding_table(),
                    net.node_count(),
                )?;
            }
        }

        // The Frank–Wolfe pipeline against its public steps, dense and at
        // every tile size: a pinned NEM run, and a budgeted one (which may
        // stop early) that records the dual trace. The traced case routes
        // every ordered pair, so each destination folds several demand
        // terms and a changed summation order changes the trace's bits.
        let fw = TeSolverKind::FrankWolfe(FrankWolfeConfig {
            convergence: ConvergenceCriteria::pinned(8),
            ..FrankWolfeConfig::default()
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
            let dests = tm.destinations();
            let config = SpefConfig { solver: fw.clone(), nem, ..SpefConfig::default() };
            let reference = decomposed(&net, tm, &obj, &config, &mut TeWorkspace::new());
            let modes = std::iter::once(None).chain(tile_sizes(dests.len()).map(Some));
            for tile in modes {
                let mut ws = TeWorkspace::new();
                ws.set_tile_size(tile);
                let routing = config
                    .solve_in(TeInstance::new(&net, tm, &obj), &mut ws)
                    .unwrap();
                let mut ws = TeWorkspace::new();
                ws.set_tile_size(tile);
                let steps = decomposed(&net, tm, &obj, &config, &mut ws);
                let (nem, fib) = (&steps.nem, &steps.fib);
                prop_assert_eq!(
                    bits(routing.first_weights()), bits(&steps.first_weights), "tile {:?}", tile
                );
                prop_assert_eq!(
                    bits(routing.second_weights()), bits(&nem.second_weights), "tile {:?}", tile
                );
                prop_assert_eq!(
                    bits(routing.flows().aggregate()), bits(nem.flows.aggregate()),
                    "tile {:?}", tile
                );
                for &t in &dests {
                    // Dense sessions keep every column, tiled ones none (a
                    // tile covering every destination runs dense).
                    let tiled = tile.is_some_and(|t| t < dests.len());
                    prop_assert_eq!(routing.flows().for_destination(t).is_some(), !tiled);
                    prop_assert_eq!(
                        routing.flows().for_destination(t).map(bits),
                        nem.flows.for_destination(t).map(bits),
                        "tile {:?} dest {:?}", tile, t
                    );
                }
                prop_assert_eq!(routing.nem_converged(), nem.converged, "tile {:?}", tile);
                prop_assert_eq!(nem.iterations, reference.nem.iterations, "tile {:?}", tile);
                prop_assert_eq!(
                    bits(&nem.dual_objective_trace), bits(&reference.nem.dual_objective_trace),
                    "tile {:?}", tile
                );
                assert_tables_identical(routing.forwarding_table(), fib, net.node_count())?;
            }

            // The trace's last entry is the dual at the iterate before the
            // final step, summed in ascending destination order.
            if config.nem.record_trace {
                let Steps { target, dags, nem, .. } = &reference;
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
