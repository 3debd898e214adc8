//! The solver-session determinism contract: a workspace holds arenas,
//! never a previous solution, so `solve_in` on a warm (previously used)
//! [`TeWorkspace`] is bit-identical to `solve` on a fresh one — across
//! random topologies, load perturbations, `without_links` clones and
//! repeated instances, pinned or stopped on a gap tolerance, for every
//! solver behind the [`TeSolver`] trait.

use proptest::prelude::*;
use spef_core::{
    ConvergenceCriteria, DualDecompConfig, FrankWolfeConfig, NemConfig, NemInstance, Objective,
    SpefConfig, TeInstance, TeSolver, TeSolverKind, TeWorkspace,
};
use spef_graph::NodeId;
use spef_topology::{gen, standard, Network, TrafficMatrix};

/// Bitwise equality for float slices — the contract is "no drift at all",
/// not "close".
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Strategy: a small random duplex network plus a random demand set scaled
/// to a conservative load (the `properties.rs` generator).
fn random_instance() -> impl Strategy<Value = (spef_topology::Network, TrafficMatrix)> {
    (4usize..10, 0u64..5000, 2usize..6).prop_map(|(n, seed, pairs)| {
        let links = 2 * (n - 1) + 2 * (n / 2);
        let net = gen::random_network("warm", n, links, seed);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frank–Wolfe, pinned: interleaved warm re-solves across a load
    /// perturbation reproduce the cold solutions bit for bit.
    #[test]
    fn pinned_frank_wolfe_warm_equals_cold(
        (net, tm) in random_instance(),
        scale in 1.05f64..1.6,
    ) {
        let obj = Objective::proportional(net.link_count());
        let fw = FrankWolfeConfig {
            convergence: ConvergenceCriteria::pinned(40),
        };
        let tm_hi = tm.scaled(scale);
        let cold_lo = fw.solve(TeInstance::new(&net, &tm, &obj)).unwrap();
        let cold_hi = fw.solve(TeInstance::new(&net, &tm_hi, &obj)).unwrap();

        let mut ws = TeWorkspace::new();
        for (demand, cold) in [(&tm, &cold_lo), (&tm_hi, &cold_hi), (&tm, &cold_lo)] {
            let warm = fw.solve_in(TeInstance::new(&net, demand, &obj), &mut ws).unwrap();
            prop_assert!(bits_eq(&warm.weights, &cold.weights));
            prop_assert!(bits_eq(warm.flows.aggregate(), cold.flows.aggregate()));
            prop_assert_eq!(warm.utility.to_bits(), cold.utility.to_bits());
            prop_assert_eq!(warm.iterations, cold.iterations);
        }
    }

    /// Dual decomposition, pinned: same contract, multiplier state in the
    /// workspace must not leak into results.
    #[test]
    fn pinned_dual_decomp_warm_equals_cold(
        (net, tm) in random_instance(),
        scale in 1.05f64..1.6,
    ) {
        let obj = Objective::proportional(net.link_count());
        let dd = DualDecompConfig {
            convergence: ConvergenceCriteria::pinned(60),
            record_trace: false,
            ..DualDecompConfig::default()
        };
        let tm_hi = tm.scaled(scale);
        let cold_lo = dd.solve(TeInstance::new(&net, &tm, &obj)).unwrap();
        let cold_hi = dd.solve(TeInstance::new(&net, &tm_hi, &obj)).unwrap();

        let mut ws = TeWorkspace::new();
        for (demand, cold) in [(&tm, &cold_lo), (&tm_hi, &cold_hi), (&tm, &cold_lo)] {
            let warm = dd.solve_in(TeInstance::new(&net, demand, &obj), &mut ws).unwrap();
            prop_assert!(bits_eq(&warm.weights, &cold.weights));
            prop_assert!(bits_eq(&warm.average_flows, &cold.average_flows));
            prop_assert_eq!(warm.iterations, cold.iterations);
        }
    }

    /// The full SPEF pipeline, pinned at both stages: warm re-builds on one
    /// workspace reproduce first weights, second weights, and realised
    /// flows bit for bit across a load perturbation.
    #[test]
    fn pinned_pipeline_warm_equals_cold(
        (net, tm) in random_instance(),
        scale in 1.05f64..1.5,
    ) {
        let obj = Objective::proportional(net.link_count());
        let cfg = SpefConfig {
            solver: TeSolverKind::FrankWolfe(FrankWolfeConfig {
                convergence: ConvergenceCriteria::pinned(40),
            }),
            nem: NemConfig {
                convergence: ConvergenceCriteria::pinned(120),
                ..NemConfig::default()
            },
            ..SpefConfig::default()
        };
        let tm_hi = tm.scaled(scale);
        let cold_lo = cfg.solve(TeInstance::new(&net, &tm, &obj)).unwrap();
        let cold_hi = cfg.solve(TeInstance::new(&net, &tm_hi, &obj)).unwrap();

        let mut ws = TeWorkspace::new();
        for (demand, cold) in [(&tm, &cold_lo), (&tm_hi, &cold_hi), (&tm, &cold_lo)] {
            let warm = cfg.solve_in(TeInstance::new(&net, demand, &obj), &mut ws).unwrap();
            prop_assert!(bits_eq(warm.first_weights(), cold.first_weights()));
            prop_assert!(bits_eq(warm.second_weights(), cold.second_weights()));
            prop_assert!(bits_eq(warm.flows().aggregate(), cold.flows().aggregate()));
        }
    }
}

/// NEM, pinned: warm re-solves of second weights on one workspace match
/// cold solves bit for bit (deterministic targets from a pinned FW solve).
#[test]
fn pinned_nem_warm_equals_cold() {
    let net = standard::fig4();
    let tm = standard::fig4_demands();
    let obj = Objective::proportional(net.link_count());
    let te = FrankWolfeConfig::fast()
        .solve(TeInstance::new(&net, &tm, &obj))
        .unwrap();
    let max_w = te.weights.iter().cloned().fold(0.0, f64::max);
    let dags =
        spef_core::build_dags(net.graph(), &te.weights, &tm.destinations(), 1e-3 * max_w).unwrap();
    let nem = NemConfig {
        convergence: ConvergenceCriteria::pinned(200),
        ..NemConfig::default()
    };
    let instance = NemInstance::new(net.graph(), &dags, &tm, te.flows.aggregate());
    let cold = nem.solve(instance).unwrap();
    let mut ws = TeWorkspace::new();
    for _ in 0..3 {
        let warm = nem.solve_in(instance, &mut ws).unwrap();
        assert!(bits_eq(&warm.second_weights, &cold.second_weights));
        assert!(bits_eq(warm.flows.aggregate(), cold.flows.aggregate()));
        assert_eq!(warm.iterations, cold.iterations);
    }
}

/// The instances one reused workspace solves in turn: the instance, a
/// proportional neighbouring load, the instance again, a `without_links`
/// clone (the first duplex circuit whose loss keeps the network
/// connected, if any), the instance, and the instance once more.
fn session_walk(net: &Network, tm: &TrafficMatrix, scale: f64) -> Vec<(Network, TrafficMatrix)> {
    let mut walk = vec![
        (net.clone(), tm.clone()),
        (net.clone(), tm.scaled(scale)),
        (net.clone(), tm.clone()),
    ];
    if let Some((degraded, _)) = net
        .duplex_circuits()
        .iter()
        .find_map(|c| net.without_links(c).ok())
    {
        walk.push((degraded, tm.clone()));
    }
    walk.push((net.clone(), tm.clone()));
    walk.push((net.clone(), tm.clone()));
    walk
}

/// Runs `solve` on a fresh workspace and `solve_in` on the walk's shared
/// one for every instance of [`session_walk`]; true when every pair of
/// solutions is `same`, or both solves fail with the same error.
fn walk_sessions<S, T>(
    solver: &S,
    net: &Network,
    tm: &TrafficMatrix,
    scale: f64,
    same: impl Fn(&T, &T) -> bool,
) -> bool
where
    S: for<'i> TeSolver<Instance<'i> = TeInstance<'i>, Output = T>,
{
    let mut ws = TeWorkspace::new();
    session_walk(net, tm, scale).iter().all(|(net, tm)| {
        let obj = Objective::proportional(net.link_count());
        let instance = TeInstance::new(net, tm, &obj);
        match (solver.solve_in(instance, &mut ws), solver.solve(instance)) {
            (Ok(warm), Ok(cold)) => same(&warm, &cold),
            (Err(warm), Err(cold)) => warm == cold,
            _ => false,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frank–Wolfe stopped on its relative gap: a reused workspace spends
    /// the same iterations and returns the same bits as a fresh one.
    #[test]
    fn tolerance_frank_wolfe_warm_equals_cold(
        (net, tm) in random_instance(),
        scale in 1.05f64..1.6,
    ) {
        prop_assert!(walk_sessions(&FrankWolfeConfig::fast(), &net, &tm, scale, |w, c| {
            w.iterations == c.iterations
                && bits_eq(&w.weights, &c.weights)
                && bits_eq(w.flows.aggregate(), c.flows.aggregate())
                && w.utility.to_bits() == c.utility.to_bits()
        }));
    }

    /// Algorithm 1 stopped on its dual gap: same contract.
    #[test]
    fn tolerance_dual_decomp_warm_equals_cold(
        (net, tm) in random_instance(),
        scale in 1.05f64..1.6,
    ) {
        let dd = DualDecompConfig {
            convergence: ConvergenceCriteria::budget(300),
            record_trace: false,
            ..DualDecompConfig::default()
        };
        prop_assert!(walk_sessions(&dd, &net, &tm, scale, |w, c| {
            w.iterations == c.iterations
                && w.converged == c.converged
                && bits_eq(&w.weights, &c.weights)
                && bits_eq(&w.average_flows, &c.average_flows)
        }));
    }

    /// The SPEF pipeline with both stages on their tolerances: first and
    /// second weights, realised flows and the TE iteration count match.
    #[test]
    fn tolerance_pipeline_warm_equals_cold(
        (net, tm) in random_instance(),
        scale in 1.05f64..1.5,
    ) {
        let cfg = SpefConfig {
            solver: TeSolverKind::FrankWolfe(FrankWolfeConfig::fast()),
            nem: NemConfig {
                convergence: ConvergenceCriteria::budget(400),
                ..NemConfig::default()
            },
            ..SpefConfig::default()
        };
        prop_assert!(walk_sessions(&cfg, &net, &tm, scale, |w, c| {
            w.te_solution().iterations == c.te_solution().iterations
                && w.nem_converged() == c.nem_converged()
                && bits_eq(w.first_weights(), c.first_weights())
                && bits_eq(w.second_weights(), c.second_weights())
                && bits_eq(w.flows().aggregate(), c.flows().aggregate())
        }));
    }
}

/// NEM stopped on its ε-criterion: a workspace that just solved a
/// proportional neighbouring instance (demands and target scaled alike,
/// so the same second weights solve it) or the same instance returns a
/// fresh solve's iterations and bits.
#[test]
fn tolerance_nem_warm_equals_cold() {
    let net = standard::fig4();
    let tm = standard::fig4_demands();
    let obj = Objective::proportional(net.link_count());
    let te = FrankWolfeConfig::fast()
        .solve(TeInstance::new(&net, &tm, &obj))
        .unwrap();
    let max_w = te.weights.iter().cloned().fold(0.0, f64::max);
    let dags =
        spef_core::build_dags(net.graph(), &te.weights, &tm.destinations(), 1e-3 * max_w).unwrap();
    let nem = NemConfig::default();
    let tm_hi = tm.scaled(1.1);
    let target_hi: Vec<f64> = te.flows.aggregate().iter().map(|f| 1.1 * f).collect();
    let instance = NemInstance::new(net.graph(), &dags, &tm, te.flows.aggregate());
    let neighbour = NemInstance::new(net.graph(), &dags, &tm_hi, &target_hi);
    let mut ws = TeWorkspace::new();
    for inst in [instance, neighbour, instance, instance] {
        let cold = nem.solve(inst).unwrap();
        let warm = nem.solve_in(inst, &mut ws).unwrap();
        assert_eq!(warm.iterations, cold.iterations);
        assert_eq!(warm.converged, cold.converged);
        assert!(bits_eq(&warm.second_weights, &cold.second_weights));
        assert!(bits_eq(warm.flows.aggregate(), cold.flows.aggregate()));
    }
}
