//! Microbenchmarks of the core algorithms: the per-iteration costs that
//! dominate the experiment pipelines.

use criterion::{criterion_group, criterion_main, Criterion};
use spef_baselines::fortz_thorup::{FtConfig, FtOutcome};
use spef_core::{
    build_dags, traffic_distribution, ConvergenceCriteria, FibSet, ForwardingTable,
    FrankWolfeConfig, NemConfig, NemInstance, Objective, RoutingEngine, SplitRule, TeInstance,
    TeSolver, TeWorkspace,
};
use spef_graph::{
    build_dag_set, Csr, DagSet, NodeId, Parallelism, RoutingWorkspace, ShortestPathDag,
};
use spef_lp::simplex::{LinearProgram, Relation, SimplexWorkspace};
use spef_netsim::{simulate, simulate_with, SimConfig, SimWorkspace};
use spef_topology::{gen, standard, Network, TrafficMatrix};

fn bench_dijkstra_dag(c: &mut Criterion) {
    let net = gen::random_network("Rand100", 100, 392, 0xFEED);
    let w: Vec<f64> = net.capacities().iter().map(|x| 1.0 / x).collect();

    // The engine path: CSR + workspace arenas amortised across iterations,
    // exactly how the solver loops drive DAG construction.
    let csr = Csr::in_of(net.graph());
    let mut ws = RoutingWorkspace::new();
    let mut set = DagSet::new();
    c.bench_function("dag_build_rand100", |b| {
        b.iter(|| {
            build_dag_set(
                net.graph(),
                &csr,
                &w,
                &[NodeId::new(0)],
                0.0,
                Parallelism::Never,
                &mut ws,
                &mut set,
            )
            .expect("dag")
        })
    });
    // The legacy per-destination path, kept as the comparison point.
    c.bench_function("dag_build_rand100_legacy", |b| {
        b.iter(|| ShortestPathDag::build(net.graph(), &w, 0.into(), 0.0).expect("dag"))
    });

    // All-destinations batch: batched (parallel fan-out) vs a legacy loop.
    let dests: Vec<NodeId> = net.graph().nodes().collect();
    c.bench_function("dags_all_rand100_batched", |b| {
        b.iter(|| {
            build_dag_set(
                net.graph(),
                &csr,
                &w,
                &dests,
                0.0,
                Parallelism::Auto,
                &mut ws,
                &mut set,
            )
            .expect("dags")
        })
    });
    c.bench_function("dags_all_rand100_legacy", |b| {
        b.iter(|| {
            dests
                .iter()
                .map(|&t| ShortestPathDag::build(net.graph(), &w, t, 0.0).expect("dag"))
                .collect::<Vec<_>>()
        })
    });
}

fn bench_traffic_distribution(c: &mut Criterion) {
    let net = standard::cernet2();
    let tm = TrafficMatrix::gravity(&net, 1.0, 3).scaled_to_network_load(&net, 0.15);
    let w: Vec<f64> = net.capacities().iter().map(|x| 1.0 / x).collect();
    let dags = build_dags(net.graph(), &w, &tm.destinations(), 0.0).expect("dags");
    let v = vec![0.1; net.link_count()];
    c.bench_function("traffic_distribution_cernet2", |b| {
        b.iter(|| {
            traffic_distribution(net.graph(), &dags, &tm, SplitRule::Exponential(&v))
                .expect("distribution")
        })
    });

    // The full steady-state engine cycle (build DAGs + distribute) with
    // zero allocations — what one solver iteration costs.
    let dests = tm.destinations();
    let mut engine = RoutingEngine::new(net.graph());
    let mut flows = engine.distribute_fresh();
    c.bench_function("engine_cycle_cernet2", |b| {
        b.iter(|| {
            engine.build_dags(&w, &dests, 0.0).expect("dags");
            engine
                .distribute_into(&tm, SplitRule::Exponential(&v), &mut flows)
                .expect("distribution")
        })
    });
}

fn bench_fib(c: &mut Criterion) {
    // The forwarding-plane pair for the flat-FIB rework: CERNET2 split
    // tables (every node a destination) flattened into a `FibSet`, then
    // the netsim per-hop body — row fetch plus cum-prob selection — over
    // every (destination, router) cell.
    let net = standard::cernet2();
    let tm = TrafficMatrix::gravity(&net, 1.0, 3).scaled_to_network_load(&net, 0.15);
    let dests = tm.destinations();
    let w: Vec<f64> = net.capacities().iter().map(|x| 1.0 / x).collect();
    let v = vec![0.1; net.link_count()];
    let mut engine = RoutingEngine::new(net.graph());
    engine.build_dags(&w, &dests, 0.0).expect("dags");
    engine
        .build_split_tables(SplitRule::Exponential(&v))
        .expect("tables");
    let n = net.node_count();

    // Steady-state flatten: refill a warmed arena from the engine's split
    // tables (zero allocations once shaped — pinned by
    // crates/core/tests/fib_alloc.rs).
    let mut fib_ws = FibSet::new();
    c.bench_function("fib_build_cernet2", |b| {
        b.iter(|| {
            fib_ws.rebuild_from_split_table_set(n, &dests, engine.split_tables());
            fib_ws.entry_count()
        })
    });

    let fib = ForwardingTable::from_split_table_set(n, &dests, engine.split_tables());
    let set = fib.fib();
    c.bench_function("fib_lookup_cernet2", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            let mut x = 0.05f64;
            for (slot, _) in dests.iter().enumerate() {
                for u in 0..n {
                    let row = set.row(slot as u32, NodeId::new(u));
                    if !row.is_empty() {
                        acc += row.select(x).index();
                        x = (x + 0.37) % 1.0;
                    }
                }
            }
            acc
        })
    });
}

fn bench_frank_wolfe(c: &mut Criterion) {
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.12);
    let obj = Objective::proportional(net.link_count());
    let cfg = FrankWolfeConfig {
        convergence: ConvergenceCriteria::with_tolerance(100, 0.0),
        ..FrankWolfeConfig::default()
    };
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    group.bench_function("frank_wolfe_100it_abilene", |b| {
        b.iter(|| cfg.solve(TeInstance::new(&net, &tm, &obj)).expect("te"))
    });
    group.finish();
}

fn bench_nem(c: &mut Criterion) {
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.12);
    let obj = Objective::proportional(net.link_count());
    let te = FrankWolfeConfig::fast()
        .solve(TeInstance::new(&net, &tm, &obj))
        .expect("te");
    let max_w = te.weights.iter().cloned().fold(0.0, f64::max);
    let dags =
        build_dags(net.graph(), &te.weights, &tm.destinations(), 1e-2 * max_w).expect("dags");
    let cfg = NemConfig {
        convergence: ConvergenceCriteria::with_tolerance(100, 0.0),
        ..NemConfig::default()
    };
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    let mut ws = TeWorkspace::new();
    group.bench_function("nem_100it_abilene", |b| {
        b.iter(|| {
            cfg.solve_in(
                NemInstance::new(net.graph(), &dags, &tm, te.flows.aggregate()),
                &mut ws,
            )
            .expect("nem")
        })
    });
    group.finish();
}

fn bench_simplex(c: &mut Criterion) {
    // The β = 0 LP on Fig. 4 (57 vars, 37 rows).
    let net = standard::fig4();
    let tm = standard::fig4_demands();
    let obj = Objective::min_hop(net.link_count());
    let fw = FrankWolfeConfig::default();
    c.bench_function("simplex_beta0_fig4", |b| {
        b.iter(|| fw.solve(TeInstance::new(&net, &tm, &obj)).expect("lp"))
    });
    // A dense random-ish LP for raw pivot throughput.
    c.bench_function("simplex_dense_30x60", |b| {
        b.iter(|| {
            let mut lp = LinearProgram::maximize(60);
            for v in 0..60 {
                lp.set_objective(v, 1.0 + (v % 7) as f64);
            }
            for r in 0..30 {
                let row: Vec<(usize, f64)> = (0..60)
                    .map(|v| (v, 1.0 + ((r * 31 + v * 17) % 5) as f64))
                    .collect();
                lp.add_constraint(&row, Relation::Le, 100.0);
            }
            lp.solve().expect("solvable")
        })
    });
}

/// The min-MLU LP exactly as `spef_baselines::mlu_lp` builds it:
/// `|D|·|J| + 1` variables (per-destination flow blocks plus θ), capacity
/// rows and per-destination conservation rows.
fn build_mlu_lp(network: &Network, tm: &TrafficMatrix) -> LinearProgram {
    let g = network.graph();
    let m = g.edge_count();
    let dests = tm.destinations();
    let theta = dests.len() * m;
    let var = |ti: usize, e: usize| ti * m + e;
    let mut lp = LinearProgram::minimize(theta + 1);
    lp.set_objective(theta, 1.0);
    for e in 0..m {
        let mut row: Vec<(usize, f64)> = (0..dests.len()).map(|ti| (var(ti, e), 1.0)).collect();
        row.push((theta, -network.capacity(e.into())));
        lp.add_constraint(&row, Relation::Le, 0.0);
    }
    for (ti, &t) in dests.iter().enumerate() {
        let demands = tm.demands_to(t);
        for node in g.nodes() {
            if node == t {
                continue;
            }
            let mut row: Vec<(usize, f64)> = Vec::new();
            for &e in g.out_edges(node) {
                row.push((var(ti, e.index()), 1.0));
            }
            for &e in g.in_edges(node) {
                row.push((var(ti, e.index()), -1.0));
            }
            lp.add_constraint(&row, Relation::Eq, demands[node.index()]);
        }
    }
    lp
}

fn bench_simplex_mlu(c: &mut Criterion) {
    // The paper-scale MLU LP on Abilene, solved two ways: the flat-arena
    // engine cold (workspace recycled) and the warm-start resolve path.
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.12);
    let lp = build_mlu_lp(&net, &tm);

    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    group.bench_function("simplex_mlu_abilene_flat", |b| {
        let mut ws = SimplexWorkspace::new();
        b.iter(|| lp.solve_with(&mut ws).expect("mlu lp"))
    });
    group.bench_function("simplex_mlu_abilene_resolve", |b| {
        let mut ws = SimplexWorkspace::new();
        lp.resolve(&mut ws).expect("warm-up");
        b.iter(|| lp.resolve(&mut ws).expect("mlu lp"))
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let net = standard::fig4();
    let tm = standard::table4_simple_demands();
    let obj = Objective::proportional(net.link_count());
    let routing = spef_core::SpefConfig::default()
        .solve(TeInstance::new(&net, &tm, &obj))
        .expect("routing");
    let cfg = SimConfig {
        duration: 5.0,
        capacity_to_bps: 1e6,
        demand_to_bps: 1e6,
        ..SimConfig::default()
    };
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    // A fresh workspace per run here, one reused workspace in the next
    // lane.
    group.bench_function("netsim_5s_fig4", |b| {
        b.iter(|| simulate(&net, &tm, routing.forwarding_table(), &cfg).expect("sim"))
    });
    let mut ws = SimWorkspace::new();
    group.bench_function("sim_fig4_calendar", |b| {
        b.iter(|| simulate_with(&net, &tm, routing.forwarding_table(), &cfg, &mut ws).expect("sim"))
    });

    // CERNET2 panel of Fig. 11 (TABLE IV demands at the documented 0.5
    // scale), the larger sim workload of the sweep family.
    let net2 = standard::cernet2();
    let tm2 = standard::table4_cernet2_demands().scaled(0.5);
    let obj2 = Objective::proportional(net2.link_count());
    let cfg2 = spef_core::SpefConfig {
        solver: spef_core::TeSolverKind::FrankWolfe(FrankWolfeConfig::fast()),
        ..spef_core::SpefConfig::default()
    };
    let routing2 = cfg2
        .solve(TeInstance::new(&net2, &tm2, &obj2))
        .expect("routing");
    let sim_cfg2 = SimConfig {
        duration: 5.0,
        capacity_to_bps: 1e6, // Gb/s units driven at Mb/s scale: same event
        demand_to_bps: 1e6,   // counts, bench-friendly wall time
        ..SimConfig::default()
    };
    group.bench_function("sim_cernet2_calendar", |b| {
        b.iter(|| {
            simulate_with(&net2, &tm2, routing2.forwarding_table(), &sim_cfg2, &mut ws)
                .expect("sim")
        })
    });
    group.finish();
}

fn bench_incremental_spf(c: &mut Criterion) {
    // The PR 9 full-vs-incremental pairs: single-weight probe loops whose
    // SPF work the delta-aware engine trims to the dirty destinations.
    // Both modes are run once during setup, asserted bit-identical, and
    // the SPF counters (incl. mean dirty destinations per probe) are
    // printed so the lanes double as the incremental-path witness.
    let mut group = c.benchmark_group("incremental_spf");
    group.sample_size(10);

    // Fortz-Thorup local search on Abilene: every candidate is a
    // single-weight mutation of the incumbent, the incremental path's
    // best case. The bench budget is a slice of the sweep budget (same
    // search, shorter trajectory) to keep lane wall time sane.
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.1);
    let ft_full = FtConfig {
        max_weight: 20,
        max_evaluations: 300,
        restarts: 1,
        seed: 0xF7,
        full_rebuild: true,
    };
    let ft_incr = FtConfig {
        full_rebuild: false,
        ..ft_full
    };
    let t0 = std::time::Instant::now();
    let full = FtOutcome::local_search(&net, &tm, &ft_full).expect("ft full");
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = std::time::Instant::now();
    let incr = FtOutcome::local_search(&net, &tm, &ft_incr).expect("ft incremental");
    let incr_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(full.cost.to_bits(), incr.cost.to_bits());
    assert_eq!(full.weights, incr.weights);
    assert_eq!(full.spf_stats.incremental_builds, 0);
    assert!(
        incr.spf_stats.incremental_builds > 0,
        "FT probes never took the incremental path: {:?}",
        incr.spf_stats
    );
    let dests = tm.destinations().len() as f64;
    eprintln!(
        "ft_local_search_abilene full vs incremental: {full_ms:.1}ms -> {incr_ms:.1}ms; \
         {} of {} builds incremental, mean dirty destinations/probe {:.2} of {dests}",
        incr.spf_stats.incremental_builds,
        incr.spf_stats.builds,
        incr.spf_stats.slots_rebuilt as f64 / incr.spf_stats.incremental_builds as f64,
    );
    group.bench_function("ft_local_search_abilene_full", |b| {
        b.iter(|| FtOutcome::local_search(&net, &tm, &ft_full).expect("ft full"))
    });
    group.bench_function("ft_local_search_abilene_incremental", |b| {
        b.iter(|| FtOutcome::local_search(&net, &tm, &ft_incr).expect("ft incremental"))
    });

    // Reconfiguration pushes on a 200-node tiered topology: every
    // intermediate mixed state is a one-weight delta of its predecessor,
    // and with 200 destination slots the dirty fraction per push is tiny.
    // The pushed links point *into* edge-layer leaves (an access-link
    // reweighting campaign), so each push can only dirty the handful of
    // destinations behind that access link; and the `to` endpoint only
    // lowers weights so the mixed vector's maximum (which scales the
    // equal-cost tolerance) stays put across the whole migration.
    let hier = gen::tiered_network("Tier200", 8, 4, 5, 0x7E2);
    let htm = TrafficMatrix::fortz_thorup(&hier, 1).scaled_to_network_load(&hier, 0.04);
    let from: Vec<f64> = hier.capacities().iter().map(|c| 1.0 / c).collect();
    let first_edge_node = 8 + 8 * 4; // cores + aggregation routers
    let into_leaves: Vec<usize> = hier
        .graph()
        .edges()
        .filter(|&(_, _, v)| v.index() >= first_edge_node)
        .map(|(e, _, _)| e.index())
        .collect();
    let mut to = from.clone();
    for (k, e) in into_leaves
        .iter()
        .step_by(into_leaves.len() / 6)
        .take(6)
        .enumerate()
    {
        to[*e] *= 0.45 + 0.05 * k as f64;
    }
    let t0 = std::time::Instant::now();
    let (full_out, full_stats) =
        spef_experiments::reconfig::migrate_with(&hier, &htm, &from, &to, true).expect("reconfig");
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = std::time::Instant::now();
    let (incr_out, incr_stats) =
        spef_experiments::reconfig::migrate_with(&hier, &htm, &from, &to, false).expect("reconfig");
    let incr_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(full_out, incr_out);
    assert_eq!(full_stats.incremental_builds, 0);
    assert!(
        incr_stats.incremental_builds > 0,
        "reconfig probes never took the incremental path: {incr_stats:?}"
    );
    let hdests = htm.destinations().len() as u64;
    assert!(
        incr_stats.slots_rebuilt * 3 <= incr_stats.incremental_builds * hdests,
        "mean dirty set per push probe is not <= 1/3 of the {hdests} destinations: {incr_stats:?}"
    );
    eprintln!(
        "reconfig_push_hier200 full vs incremental: {full_ms:.1}ms -> {incr_ms:.1}ms; \
         {} of {} builds incremental, mean dirty destinations/probe {:.2} of {hdests}",
        incr_stats.incremental_builds,
        incr_stats.builds,
        incr_stats.slots_rebuilt as f64 / incr_stats.incremental_builds as f64,
    );
    group.bench_function("reconfig_push_hier200_full", |b| {
        b.iter(|| {
            spef_experiments::reconfig::migrate_with(&hier, &htm, &from, &to, true)
                .expect("reconfig")
        })
    });
    group.bench_function("reconfig_push_hier200_incremental", |b| {
        b.iter(|| {
            spef_experiments::reconfig::migrate_with(&hier, &htm, &from, &to, false)
                .expect("reconfig")
        })
    });
    group.finish();
}

criterion_group!(
    micro,
    bench_dijkstra_dag,
    bench_traffic_distribution,
    bench_fib,
    bench_frank_wolfe,
    bench_nem,
    bench_simplex,
    bench_simplex_mlu,
    bench_incremental_spf,
    bench_simulator
);
criterion_main!(micro);
