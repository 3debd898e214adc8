//! Robust OSPF weight search: optimise the worst-case MLU across a
//! single-circuit failure set.
//!
//! The robust-OSPF line the paper's §VI cites (and "OSPF Weight Setting
//! Optimization for Single Link Failures") observes that weights optimised
//! for the intact topology go stale the moment a link fails: OSPF
//! reconverges on the survivors with the *old* weights, and the resulting
//! even-ECMP routing can be far from any optimum. The robust answer is to
//! pick one weight vector whose worst case over the failure set is as good
//! as possible — trading intact-topology optimality for failure insurance.
//!
//! This module reuses the Fortz–Thorup local-search scaffolding
//! ([`crate::FtOutcome`]): the same first-improvement shuffled
//! single-weight scans over integer weights `1..=max_weight`, but with the
//! scalar objective
//!
//! ```text
//! cost(w) = max over scenarios s of MLU(even-ECMP routing of w on s)
//! ```
//!
//! where the scenarios are the intact topology plus every single duplex
//! *circuit* failure that leaves the network connected (bridge circuits
//! are skipped and counted — see [`RobustOutcome::skipped_circuits`]).
//!
//! Each connected failure scenario is built once, as the degraded clone
//! [`Network::without_links`] returns, with an engine, weight buffer and
//! flow buffer of its own. Consecutive candidates differ in one or two
//! weights, so every scenario engine sees a small weight delta that its
//! incremental SPF absorbs by rebuilding only the destinations those
//! weights can affect. [`RobustConfig::full_rebuild`] forces dense
//! rebuilds on every engine; both modes produce bit-identical costs, so
//! the search trajectory is the same.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spef_core::{metrics, RoutingEngine, SpefError, SpfStats};
use spef_topology::{Network, TrafficMatrix};

use crate::ospf;
use crate::util::{rounded_invcap, WeightScan};

/// Configuration of the robust weight search.
///
/// Deliberately smaller than [`crate::FtConfig`]: each evaluation routes
/// the candidate on *every* failure scenario, so budgets are counted in
/// candidate vectors, and the default budget is modest. No random
/// restarts — the search starts from rounded InvCap weights so a given
/// `(instance, config)` pair explores one deterministic trajectory.
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// Largest weight value the search may assign (default 20, matching
    /// [`crate::FtConfig`]).
    pub max_weight: u32,
    /// Candidate weight-vector budget (default 150); each candidate costs
    /// one even-ECMP routing per scenario.
    pub max_evaluations: usize,
    /// RNG seed for the scan order.
    pub seed: u64,
    /// Force dense SPF rebuilds for every probe on every scenario
    /// (default `false`: each scenario engine's delta-aware incremental
    /// path rebuilds only destinations the probed weight can affect —
    /// bit-identical results, unchanged search trajectory).
    pub full_rebuild: bool,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            max_weight: 20,
            max_evaluations: 150,
            seed: 0x0b57,
            full_rebuild: false,
        }
    }
}

/// Result of a robust weight search.
#[derive(Debug, Clone)]
pub struct RobustOutcome {
    /// Best integer weight setting found.
    pub weights: Vec<f64>,
    /// Its worst-case MLU over the scenario set (intact + every
    /// connected single-circuit failure).
    pub worst_mlu: f64,
    /// Its MLU on the intact topology — the price paid for robustness,
    /// to compare against weights optimised for the intact case alone.
    pub intact_mlu: f64,
    /// Candidate weight vectors evaluated.
    pub evaluations: usize,
    /// Duplex circuits whose failure would disconnect the network,
    /// excluded from the scenario set (reported, never silent).
    pub skipped_circuits: usize,
    /// SPF build counters summed over every engine the search used — how
    /// many probe routings took the incremental path and how many
    /// destination slots they rebuilt.
    pub spf_stats: SpfStats,
    /// Peak bytes reserved by the search's routing arenas, summed over the
    /// intact and per-scenario engines.
    pub arena_bytes: usize,
}

impl RobustOutcome {
    /// Runs the local search: starting from rounded-InvCap weights,
    /// repeatedly rescans links in seeded-random order trying every
    /// candidate weight `1..=max_weight`, keeping first improvements of
    /// the worst-case MLU.
    ///
    /// # Errors
    ///
    /// Propagates routing errors ([`SpefError::UnroutableDemand`] etc.)
    /// from candidate evaluations on any scenario.
    pub fn local_search(
        network: &Network,
        traffic: &TrafficMatrix,
        config: &RobustConfig,
    ) -> Result<RobustOutcome, SpefError> {
        let dests = ospf::validate_ospf_inputs(network, traffic)?;
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Every degraded topology is built once, with one engine + weight
        // buffer + flow buffer per scenario.
        let mut scenarios = Vec::new();
        let mut skipped_circuits = 0usize;
        for circuit in network.duplex_circuits() {
            match network.without_links(&circuit) {
                Ok(scenario) => scenarios.push(scenario),
                Err(_) => skipped_circuits += 1,
            }
        }
        let engine_for = |graph| {
            let mut engine = RoutingEngine::new(graph);
            engine.set_incremental(!config.full_rebuild);
            engine
        };
        let mut intact_engine = engine_for(network.graph());
        let mut engines: Vec<RoutingEngine<'_>> = scenarios
            .iter()
            .map(|(degraded, _)| engine_for(degraded.graph()))
            .collect();
        let mut degraded_weights: Vec<Vec<f64>> = scenarios
            .iter()
            .map(|(_, kept)| vec![0.0; kept.len()])
            .collect();
        let mut flows = intact_engine.distribute_fresh();
        let mut scenario_flows: Vec<spef_core::Flows> = scenarios
            .iter()
            .map(|_| intact_engine.distribute_fresh())
            .collect();

        // Worst-case MLU of one candidate across all scenarios. The intact
        // MLU is returned alongside so the final report does not need an
        // extra pass.
        let cost_of = |weights: &[f64]| -> Result<(f64, f64), SpefError> {
            ospf::route_flows_into(&mut intact_engine, traffic, &dests, weights, &mut flows)?;
            let intact = metrics::max_link_utilization(network, flows.aggregate());
            let mut worst = intact;
            for (i, (degraded, kept)) in scenarios.iter().enumerate() {
                let dw = &mut degraded_weights[i];
                for (slot, &old) in dw.iter_mut().zip(kept) {
                    *slot = weights[old.index()];
                }
                let sf = &mut scenario_flows[i];
                ospf::route_flows_into(&mut engines[i], traffic, &dests, dw, sf)?;
                worst = worst.max(metrics::max_link_utilization(degraded, sf.aggregate()));
            }
            Ok((worst, intact))
        };
        // One scan from rounded InvCap (the FT convention).
        let mut weights = rounded_invcap(network, config.max_weight);
        let mut scan = WeightScan::new(config.max_weight, config.max_evaluations);
        let (cost, intact_mlu) = scan.run(&mut weights, &mut rng, cost_of)?;

        let mut spf_stats = intact_engine.spf_stats();
        let mut arena_bytes = intact_engine.arena_bytes();
        for e in &engines {
            spf_stats.add(e.spf_stats());
            arena_bytes += e.arena_bytes();
        }
        Ok(RobustOutcome {
            weights,
            worst_mlu: cost,
            intact_mlu,
            evaluations: scan.evaluations,
            skipped_circuits,
            spf_stats,
            arena_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ospf::OspfRouting;
    use spef_core::SplitRule;
    use spef_graph::EdgeId;
    use spef_topology::standard;

    fn abilene_instance(load: f64) -> (Network, TrafficMatrix) {
        let net = standard::abilene();
        let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, load);
        (net, tm)
    }

    #[test]
    fn worst_case_dominates_intact_case() {
        let (net, tm) = abilene_instance(0.05);
        let out = RobustOutcome::local_search(&net, &tm, &RobustConfig::default()).unwrap();
        assert!(out.worst_mlu >= out.intact_mlu - 1e-12);
        assert!(out.intact_mlu > 0.0);
        assert!(out.evaluations >= 1);
    }

    #[test]
    fn robust_search_improves_worst_case_over_invcap() {
        let (net, tm) = abilene_instance(0.08);
        // Worst-case MLU of plain InvCap weights across the same set.
        let invcap = ospf::invcap_weights(&net);
        let mut worst_invcap = OspfRouting::route_with_weights(&net, &tm, &invcap)
            .unwrap()
            .max_link_utilization(&net);
        for circuit in net.duplex_circuits() {
            let Ok((degraded, kept)) = net.without_links(&circuit) else {
                continue;
            };
            let dw: Vec<f64> = kept.iter().map(|&old| invcap[old.index()]).collect();
            let r = OspfRouting::route_with_weights(&degraded, &tm, &dw).unwrap();
            worst_invcap = worst_invcap.max(r.max_link_utilization(&degraded));
        }
        let cfg = RobustConfig {
            max_evaluations: 400,
            ..RobustConfig::default()
        };
        let out = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
        assert!(
            out.worst_mlu <= worst_invcap + 1e-12,
            "robust {} vs invcap worst-case {worst_invcap}",
            out.worst_mlu
        );
    }

    #[test]
    fn deterministic_in_seed_and_budget() {
        let (net, tm) = abilene_instance(0.05);
        let cfg = RobustConfig {
            max_evaluations: 60,
            ..RobustConfig::default()
        };
        let a = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
        let b = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.worst_mlu.to_bits(), b.worst_mlu.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn incremental_probes_match_full_rebuild_search() {
        let (net, tm) = abilene_instance(0.05);
        let cfg = RobustConfig {
            max_evaluations: 60,
            ..RobustConfig::default()
        };
        let full = RobustConfig {
            full_rebuild: true,
            ..cfg.clone()
        };
        let a = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
        let b = RobustOutcome::local_search(&net, &tm, &full).unwrap();
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.worst_mlu.to_bits(), b.worst_mlu.to_bits());
        assert_eq!(a.intact_mlu.to_bits(), b.intact_mlu.to_bits());
        assert_eq!(a.evaluations, b.evaluations);
        assert!(a.spf_stats.incremental_builds > 0, "{:?}", a.spf_stats);
        assert_eq!(b.spf_stats.incremental_builds, 0);
    }

    /// Even-ECMP MLU of `weights` on a fresh engine over `network`.
    fn fresh_mlu(network: &Network, tm: &TrafficMatrix, weights: &[f64]) -> f64 {
        let mut engine = RoutingEngine::new(network.graph());
        engine.build_dags(weights, &tm.destinations(), 0.0).unwrap();
        let flows = engine.distribute(tm, SplitRule::EvenEcmp).unwrap();
        metrics::max_link_utilization(network, flows.aggregate())
    }

    #[test]
    fn reported_mlus_match_fresh_engines_on_degraded_clones() {
        // The search's persistent per-scenario engines must report exactly
        // what fresh engines compute for its final weights: the intact MLU,
        // and the worst case over the intact network and every connected
        // circuit's `without_links` clone. On this CERNET2 matrix the
        // search moves off its start point within the budget; on Abilene
        // it does not.
        let (abilene, abilene_tm) = abilene_instance(0.05);
        let cernet2 = standard::cernet2();
        let cernet2_tm =
            TrafficMatrix::fortz_thorup(&cernet2, 2).scaled_to_network_load(&cernet2, 0.05);
        for (net, tm, moves) in [(abilene, abilene_tm, false), (cernet2, cernet2_tm, true)] {
            let name = net.name();
            let start = RobustOutcome::local_search(
                &net,
                &tm,
                &RobustConfig {
                    max_evaluations: 1,
                    ..RobustConfig::default()
                },
            )
            .unwrap()
            .weights;
            for full_rebuild in [false, true] {
                let cfg = RobustConfig {
                    max_evaluations: 60,
                    full_rebuild,
                    ..RobustConfig::default()
                };
                let out = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
                if moves {
                    assert_ne!(out.weights, start, "{name}: search never moved");
                }
                let intact = fresh_mlu(&net, &tm, &out.weights);
                let mut worst = intact;
                for circuit in net.duplex_circuits() {
                    let Ok((degraded, kept)) = net.without_links(&circuit) else {
                        continue;
                    };
                    let dw: Vec<f64> = kept.iter().map(|&e| out.weights[e.index()]).collect();
                    worst = worst.max(fresh_mlu(&degraded, &tm, &dw));
                }
                assert_eq!(
                    out.intact_mlu.to_bits(),
                    intact.to_bits(),
                    "{name}, full_rebuild {full_rebuild}"
                );
                assert_eq!(
                    out.worst_mlu.to_bits(),
                    worst.to_bits(),
                    "{name}, full_rebuild {full_rebuild}"
                );
            }
        }
    }

    #[test]
    fn bridge_circuits_are_counted_not_silent() {
        // A path network: every circuit is a bridge except none — failing
        // any circuit disconnects it, so all circuits are skipped and the
        // scenario set degenerates to the intact topology alone.
        let mut b = Network::builder("path3");
        let n0 = b.add_node("a", (0.0, 0.0));
        let n1 = b.add_node("b", (1.0, 0.0));
        let n2 = b.add_node("c", (2.0, 0.0));
        b.add_duplex_link(n0, n1, 1.0);
        b.add_duplex_link(n1, n2, 1.0);
        let net = b.build().unwrap();
        let mut tm = TrafficMatrix::new(3);
        tm.set(n0, n2, 0.5);
        let cfg = RobustConfig {
            max_evaluations: 30,
            ..RobustConfig::default()
        };
        let out = RobustOutcome::local_search(&net, &tm, &cfg).unwrap();
        assert_eq!(out.skipped_circuits, 2);
        // Only the intact scenario remains, so worst == intact.
        assert_eq!(out.worst_mlu.to_bits(), out.intact_mlu.to_bits());
        let _ = EdgeId::new(0);
    }
}
