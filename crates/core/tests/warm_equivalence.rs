//! The solver-session determinism contract: under pinned iteration counts,
//! a warm `solve_in` on a reused [`TeWorkspace`] is bit-identical to a cold
//! `solve` of the same instance — across random topologies, random load
//! perturbations, and every solver behind the [`TeSolver`] trait. And with
//! a gap tolerance instead of pinning, warm starts must never *cost*
//! iterations on a proportional neighbouring load.

use proptest::prelude::*;
use spef_core::{
    ConvergenceCriteria, DualDecompConfig, FrankWolfeConfig, NemConfig, NemInstance, Objective,
    SpefConfig, TeInstance, TeSolver, TeSolverKind, TeWorkspace,
};
use spef_graph::NodeId;
use spef_topology::{gen, standard, TrafficMatrix};

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
            ..FrankWolfeConfig::default()
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
                ..FrankWolfeConfig::default()
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

/// With a gap tolerance (the sweep setting), a warm start from a
/// proportional neighbouring load converges in no more iterations than the
/// cold solve — and strictly fewer on the canonical Abilene pair.
#[test]
fn warm_start_saves_iterations_on_neighbouring_loads() {
    let net = standard::abilene();
    let shape = TrafficMatrix::fortz_thorup(&net, 1);
    let tm_lo = shape.scaled_to_network_load(&net, 0.12);
    let tm_hi = shape.scaled_to_network_load(&net, 0.13);
    let obj = Objective::proportional(net.link_count());
    // A tolerance-bound run (generous cap) so the iteration count reflects
    // convergence, not the budget: both runs stop at a 1e-4 relative gap.
    let fw = FrankWolfeConfig {
        convergence: ConvergenceCriteria::with_tolerance(20_000, 1e-4),
        ..FrankWolfeConfig::default()
    };

    let cold_hi = fw.solve(TeInstance::new(&net, &tm_hi, &obj)).unwrap();
    let mut ws = TeWorkspace::new();
    fw.solve_in(TeInstance::new(&net, &tm_lo, &obj), &mut ws)
        .unwrap();
    let warm_hi = fw
        .solve_in(TeInstance::new(&net, &tm_hi, &obj), &mut ws)
        .unwrap();
    assert!(
        warm_hi.iterations < cold_hi.iterations,
        "warm {} vs cold {} iterations",
        warm_hi.iterations,
        cold_hi.iterations
    );
    // Both runs satisfy the same optimality tolerance: utilities agree to
    // the gap scale even though the trajectories differ.
    assert!(
        (warm_hi.utility - cold_hi.utility).abs() <= 1e-4 * cold_hi.utility.abs().max(1.0),
        "warm utility {} vs cold {}",
        warm_hi.utility,
        cold_hi.utility
    );
}

/// Cold fallback: an objective change, a topology change, or an
/// out-of-proportion demand change invalidates the saved trajectory — the
/// warm path must reproduce the cold solution bit for bit, not reuse it.
#[test]
fn fingerprint_mismatch_falls_back_to_cold() {
    let net = standard::abilene();
    let shape = TrafficMatrix::fortz_thorup(&net, 1);
    let tm = shape.scaled_to_network_load(&net, 0.12);
    let obj_a = Objective::proportional(net.link_count());
    let obj_b = Objective::uniform(2.0, net.link_count());
    let fw = FrankWolfeConfig::fast();

    let mut ws = TeWorkspace::new();
    fw.solve_in(TeInstance::new(&net, &tm, &obj_a), &mut ws)
        .unwrap();

    // Objective change.
    let cold = fw.solve(TeInstance::new(&net, &tm, &obj_b)).unwrap();
    let warm = fw
        .solve_in(TeInstance::new(&net, &tm, &obj_b), &mut ws)
        .unwrap();
    assert!(bits_eq(&warm.weights, &cold.weights));
    assert_eq!(warm.iterations, cold.iterations);

    // Topology change (different network entirely).
    let net2 = standard::cernet2();
    let tm2 = TrafficMatrix::gravity(&net2, 1.0, 5).scaled_to_network_load(&net2, 0.05);
    let obj2 = Objective::proportional(net2.link_count());
    let cold2 = fw.solve(TeInstance::new(&net2, &tm2, &obj2)).unwrap();
    let warm2 = fw
        .solve_in(TeInstance::new(&net2, &tm2, &obj2), &mut ws)
        .unwrap();
    assert!(bits_eq(&warm2.weights, &cold2.weights));
    assert_eq!(warm2.iterations, cold2.iterations);

    // Non-proportional demand change on the original network. Re-solve
    // the original instance first, so the saved solution differs from the
    // new one in the demands alone, not in the topology too.
    fw.solve_in(TeInstance::new(&net, &tm, &obj_a), &mut ws)
        .unwrap();
    let mut skewed = shape.scaled_to_network_load(&net, 0.12);
    let (s, t, d) = skewed.pairs().next().unwrap();
    skewed.set(s, t, d + 0.01);
    let cold3 = fw.solve(TeInstance::new(&net, &skewed, &obj_a)).unwrap();
    let warm3 = fw
        .solve_in(TeInstance::new(&net, &skewed, &obj_a), &mut ws)
        .unwrap();
    assert!(bits_eq(&warm3.weights, &cold3.weights));
    assert_eq!(warm3.iterations, cold3.iterations);
}

/// The remove-one-link warm start: on an Abilene failure chain (intact
/// solve, then every single-circuit degraded topology), projecting the
/// intact optimum onto the surviving edges must save Frank–Wolfe
/// iterations versus cold solves — strictly on at least one circuit and
/// in total — while converging to the same tolerance, with per-
/// destination conservation intact on every degraded solution.
#[test]
fn removal_warm_start_saves_iterations_on_failure_chain() {
    let net = standard::abilene();
    let shape = TrafficMatrix::fortz_thorup(&net, 1);
    let tm = shape.scaled_to_network_load(&net, 0.12);
    let fw = FrankWolfeConfig {
        convergence: ConvergenceCriteria::with_tolerance(20_000, 1e-4),
        ..FrankWolfeConfig::default()
    };

    let mut ws = TeWorkspace::new();
    let obj = Objective::proportional(net.link_count());
    fw.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
        .unwrap();

    let (mut warm_total, mut cold_total, mut strict_wins, mut circuits_solved) = (0, 0, 0, 0);
    for circuit in net.duplex_circuits() {
        let Ok((degraded, _kept)) = net.without_links(&circuit) else {
            continue; // bridge circuit: removal disconnects Abilene
        };
        let obj_d = Objective::proportional(degraded.link_count());
        let cold = match fw.solve(TeInstance::new(&degraded, &tm, &obj_d)) {
            Ok(sol) => sol,
            Err(spef_core::SpefError::Infeasible) => {
                // Some circuits leave no slack at this load; the warmed
                // session must reach the same verdict (and keep its base
                // snapshot for the remaining circuits).
                let warm = fw.solve_in(TeInstance::new(&degraded, &tm, &obj_d), &mut ws);
                assert!(
                    matches!(warm, Err(spef_core::SpefError::Infeasible)),
                    "circuit {circuit:?}: cold infeasible but warm {warm:?}"
                );
                continue;
            }
            Err(e) => panic!("circuit {circuit:?}: {e}"),
        };
        let warm = fw
            .solve_in(TeInstance::new(&degraded, &tm, &obj_d), &mut ws)
            .unwrap();
        assert!(
            (warm.utility - cold.utility).abs() <= 1e-3 * cold.utility.abs().max(1.0),
            "circuit {circuit:?}: warm utility {} vs cold {}",
            warm.utility,
            cold.utility
        );
        // A removal-projected start must still be conservation-feasible,
        // and Frank–Wolfe preserves feasibility, so the warm solution
        // must satisfy per-destination conservation on the degraded net.
        for &t in warm.flows.destinations() {
            let f = warm.flows.for_destination(t).unwrap();
            let div = degraded.graph().divergence(f);
            let demands = tm.demands_to(t);
            for node in degraded.graph().nodes() {
                if node != t {
                    assert!(
                        (div[node.index()] - demands[node.index()]).abs() < 1e-6,
                        "circuit {circuit:?}: conservation at {node} for dest {t}"
                    );
                }
            }
        }
        warm_total += warm.iterations;
        cold_total += cold.iterations;
        strict_wins += usize::from(warm.iterations < cold.iterations);
        circuits_solved += 1;
    }
    assert!(
        circuits_solved >= 3,
        "only {circuits_solved} circuits solvable"
    );
    assert!(
        strict_wins >= 1,
        "no circuit solved in fewer warm iterations"
    );
    assert!(
        warm_total < cold_total,
        "warm chain {warm_total} vs cold chain {cold_total} iterations"
    );
}

/// Chained failures restart from the session *base*: after a degraded
/// solve, the saved solution describes the degraded topology — a different
/// circuit's topology is not its edge subset, so the second degraded solve
/// must project from the intact base snapshot (and still save iterations).
#[test]
fn removal_warm_start_falls_back_to_base_across_circuits() {
    let net = standard::abilene();
    let shape = TrafficMatrix::fortz_thorup(&net, 1);
    let tm = shape.scaled_to_network_load(&net, 0.12);
    let fw = FrankWolfeConfig {
        convergence: ConvergenceCriteria::with_tolerance(20_000, 1e-4),
        ..FrankWolfeConfig::default()
    };
    let circuits: Vec<_> = net
        .duplex_circuits()
        .into_iter()
        .filter(|c| net.without_links(c).is_ok())
        .take(2)
        .collect();
    assert_eq!(circuits.len(), 2);

    let mut ws = TeWorkspace::new();
    let obj = Objective::proportional(net.link_count());
    fw.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
        .unwrap();
    for circuit in &circuits {
        let (degraded, _) = net.without_links(circuit).unwrap();
        let obj_d = Objective::proportional(degraded.link_count());
        let cold = fw.solve(TeInstance::new(&degraded, &tm, &obj_d)).unwrap();
        let warm = fw
            .solve_in(TeInstance::new(&degraded, &tm, &obj_d), &mut ws)
            .unwrap();
        assert!(
            warm.iterations < cold.iterations,
            "circuit {circuit:?}: warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
    }
}

/// Pinned mode ignores the removal warm start exactly as it ignores the
/// proportional one: a degraded-topology solve on a workspace holding the
/// intact solution is bit-identical to the cold solve.
#[test]
fn pinned_mode_ignores_removal_warm_start() {
    let net = standard::abilene();
    let shape = TrafficMatrix::fortz_thorup(&net, 1);
    let tm = shape.scaled_to_network_load(&net, 0.12);
    let fw = FrankWolfeConfig {
        convergence: ConvergenceCriteria::pinned(60),
        ..FrankWolfeConfig::default()
    };
    let circuit = net
        .duplex_circuits()
        .into_iter()
        .find(|c| net.without_links(c).is_ok())
        .unwrap();
    let (degraded, _) = net.without_links(&circuit).unwrap();

    let obj = Objective::proportional(net.link_count());
    let obj_d = Objective::proportional(degraded.link_count());
    let cold = fw.solve(TeInstance::new(&degraded, &tm, &obj_d)).unwrap();
    let mut ws = TeWorkspace::new();
    fw.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
        .unwrap();
    let pinned = fw
        .solve_in(TeInstance::new(&degraded, &tm, &obj_d), &mut ws)
        .unwrap();
    assert!(bits_eq(&pinned.weights, &cold.weights));
    assert!(bits_eq(pinned.flows.aggregate(), cold.flows.aggregate()));
    assert_eq!(pinned.iterations, cold.iterations);
}

/// The removal path only accepts genuine edge-subset instances: a degraded
/// topology with a perturbed capacity is *not* a subsequence of the saved
/// fingerprint, so the solve must run the cold trajectory bit for bit.
#[test]
fn removal_warm_start_rejects_non_subset_topologies() {
    let net = standard::abilene();
    let shape = TrafficMatrix::fortz_thorup(&net, 1);
    let tm = shape.scaled_to_network_load(&net, 0.12);
    let fw = FrankWolfeConfig::fast();
    let circuit = net
        .duplex_circuits()
        .into_iter()
        .find(|c| net.without_links(c).is_ok())
        .unwrap();
    let (degraded, _) = net.without_links(&circuit).unwrap();
    // Rebuild the degraded network with one capacity nudged: same edges,
    // same endpoints, but no longer bitwise-identical to the fingerprint.
    let mut b = spef_topology::Network::builder("perturbed");
    for node in degraded.graph().nodes() {
        b.add_node(degraded.node_name(node), degraded.coord(node));
    }
    for (e, u, v) in degraded.graph().edges() {
        let cap = degraded.capacity(e);
        b.add_link(u, v, if e.index() == 0 { cap * 1.001 } else { cap });
    }
    let perturbed = b.build().unwrap();

    let obj = Objective::proportional(net.link_count());
    let obj_p = Objective::proportional(perturbed.link_count());
    let cold = fw.solve(TeInstance::new(&perturbed, &tm, &obj_p)).unwrap();
    let mut ws = TeWorkspace::new();
    fw.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
        .unwrap();
    let warm = fw
        .solve_in(TeInstance::new(&perturbed, &tm, &obj_p), &mut ws)
        .unwrap();
    assert!(bits_eq(&warm.weights, &cold.weights));
    assert_eq!(warm.iterations, cold.iterations);
}

/// `clear_solutions` drops the base snapshot too: after clearing, a
/// degraded-topology solve runs the cold trajectory even though the
/// workspace previously held the intact optimum.
#[test]
fn clear_solutions_drops_the_removal_base() {
    let net = standard::abilene();
    let shape = TrafficMatrix::fortz_thorup(&net, 1);
    let tm = shape.scaled_to_network_load(&net, 0.12);
    let fw = FrankWolfeConfig::fast();
    let circuit = net
        .duplex_circuits()
        .into_iter()
        .find(|c| net.without_links(c).is_ok())
        .unwrap();
    let (degraded, _) = net.without_links(&circuit).unwrap();

    let obj = Objective::proportional(net.link_count());
    let obj_d = Objective::proportional(degraded.link_count());
    let cold = fw.solve(TeInstance::new(&degraded, &tm, &obj_d)).unwrap();
    let mut ws = TeWorkspace::new();
    fw.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)
        .unwrap();
    ws.clear_solutions();
    let cleared = fw
        .solve_in(TeInstance::new(&degraded, &tm, &obj_d), &mut ws)
        .unwrap();
    assert!(bits_eq(&cleared.weights, &cold.weights));
    assert_eq!(cleared.iterations, cold.iterations);
}

/// `clear_solutions` restores the cold contract without dropping arenas:
/// a cleared workspace reproduces the cold trajectory exactly even with a
/// valid neighbouring solution previously recorded.
#[test]
fn clear_solutions_restores_cold_trajectories() {
    let net = standard::abilene();
    let shape = TrafficMatrix::fortz_thorup(&net, 1);
    let tm_lo = shape.scaled_to_network_load(&net, 0.12);
    let tm_hi = shape.scaled_to_network_load(&net, 0.13);
    let obj = Objective::proportional(net.link_count());
    let fw = FrankWolfeConfig::fast();

    let cold_hi = fw.solve(TeInstance::new(&net, &tm_hi, &obj)).unwrap();
    let mut ws = TeWorkspace::new();
    fw.solve_in(TeInstance::new(&net, &tm_lo, &obj), &mut ws)
        .unwrap();
    ws.clear_solutions();
    let cleared = fw
        .solve_in(TeInstance::new(&net, &tm_hi, &obj), &mut ws)
        .unwrap();
    assert!(bits_eq(&cleared.weights, &cold_hi.weights));
    assert!(bits_eq(
        cleared.flows.aggregate(),
        cold_hi.flows.aggregate()
    ));
    assert_eq!(cleared.iterations, cold_hi.iterations);
}
