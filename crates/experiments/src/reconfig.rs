//! Reconfiguration workload: ordered weight pushes between two weight
//! settings, with the transient MLU after every push.
//!
//! After a failure the operator re-optimises and must migrate the network
//! from the stale weight setting to the new optimum. Weights are pushed one
//! link at a time (an LSA flood per change), and between pushes the network
//! routes on a *mixed* weight vector that is optimal for neither endpoint —
//! the transient. This module measures that transient: starting from
//! `from`, push each differing weight until the vector equals `to`,
//! routing even-ECMP at every intermediate state and recording the peak
//! MLU along the way.
//!
//! Two push orders are compared:
//!
//! * **naive** — ascending link index, the "replay the diff" order an
//!   unsophisticated tool would use;
//! * **greedy** — at each step push the weight whose new mixed state has
//!   the lowest MLU (ties broken toward the lowest link index), an O(k²)
//!   lookahead that models a transient-aware scheduler.
//!
//! Both orders traverse the same endpoints, so `greedy_peak_mlu <=
//! naive_peak_mlu` is *not* guaranteed in general (greedy is myopic), but
//! the greedy order never does worse on the first step and in practice
//! shaves the worst transients.
//!
//! Routing during the transient is plain even-split ECMP: the second
//! weights are stale the moment the path set changes, so the split ratios
//! degenerate exactly as in the stale-failure model
//! ([`StaleWeightProbes`]). Equal-cost ties are detected with the shared
//! stale-weight threshold [`spef_core::STALE_WEIGHT_DAG_RTOL`] scaled by
//! the largest weight of the *current mixed vector*.
//!
//! The stale-weight failure model itself lives here too: [`MluProbe`]
//! routes one weight setting on a circuit's degraded clone, and
//! [`StaleWeightProbes`] pairs OSPF's InvCap probe with SPEF's stale-weight
//! probe for the sweep's failure stage.

use spef_core::{
    metrics, EngineState, Flows, RoutingEngine, SpefError, SpfStats, SplitRule,
    STALE_WEIGHT_DAG_RTOL,
};
use spef_graph::{EdgeId, GraphError, NodeId};
use spef_topology::{Network, TrafficMatrix};

/// Transient measurements of one ordered weight migration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigOutcome {
    /// Number of links whose weight differs between the endpoints (pushes
    /// performed by each order).
    pub steps: usize,
    /// Peak transient MLU under the naive ascending-index push order
    /// (maximum over the start state and the state after every push).
    pub naive_peak_mlu: f64,
    /// Peak transient MLU under the greedy minimum-MLU push order.
    pub greedy_peak_mlu: f64,
}

/// Even-ECMP MLU of one weight vector on a (possibly degraded) network
/// under the given equal-cost tolerance — the cold free-function oracle
/// the persistent probes ([`MluProbe`], [`migrate_with`]) are pinned
/// against. Production code routes through the engines; this stays as
/// the reference.
#[cfg(test)]
fn even_ecmp_mlu(
    network: &Network,
    traffic: &TrafficMatrix,
    dests: &[NodeId],
    weights: &[f64],
    dijkstra_tolerance: f64,
) -> Result<f64, SpefError> {
    let dags = spef_core::build_dags(network.graph(), weights, dests, dijkstra_tolerance)?;
    let flows =
        spef_core::traffic_distribution(network.graph(), &dags, traffic, SplitRule::EvenEcmp)?;
    Ok(metrics::max_link_utilization(network, flows.aggregate()))
}

/// A persistent even-ECMP MLU probe over failure circuits: one detached
/// engine state plus one flow buffer, reused across calls.
///
/// Each [`MluProbe::mlu`] call builds the circuit's degraded clone with
/// [`Network::without_links`], remaps the weights to the kept links,
/// re-attaches the saved state to the clone, routes, and folds the MLU
/// over the degraded links — bit for bit the cold free-function test
/// oracle `even_ecmp_mlu` on that clone. A clone of a different topology
/// than the previous call's rebuilds the CSR and runs one dense SPF batch
/// in the warmed arenas; probing the same circuit again keeps the SPF
/// fingerprint, so unchanged weights skip the batch and a few changed
/// weights take the incremental path.
///
/// An empty `circuit` degenerates to a persistent intact-network MLU
/// evaluation.
pub struct MluProbe {
    state: Option<EngineState>,
    flows: Option<Flows>,
    full_rebuild: bool,
}

impl MluProbe {
    /// Creates an empty probe. `full_rebuild` forces dense SPF rebuilds
    /// on every call; the default incremental mode rebuilds only the
    /// destinations a weight change can affect (bit-identical either way).
    pub fn new(full_rebuild: bool) -> MluProbe {
        MluProbe {
            state: None,
            flows: None,
            full_rebuild,
        }
    }

    /// Even-ECMP MLU of `weights` (full length — one per intact link) on
    /// `network` with the links of `circuit` failed.
    ///
    /// # Errors
    ///
    /// * [`SpefError::InvalidInput`] if a circuit link is out of range or
    ///   failing the circuit disconnects the network (a bridge circuit);
    ///   the saved state is kept.
    /// * Routing errors from the degraded network; the saved state is
    ///   dropped, so the next call starts cold.
    pub fn mlu(
        &mut self,
        network: &Network,
        traffic: &TrafficMatrix,
        dests: &[NodeId],
        weights: &[f64],
        dijkstra_tolerance: f64,
        circuit: &[EdgeId],
    ) -> Result<f64, SpefError> {
        let m = network.link_count();
        if weights.len() != m {
            return Err(GraphError::WeightCount {
                expected: m,
                got: weights.len(),
            }
            .into());
        }
        if let Some(e) = circuit.iter().find(|e| e.index() >= m) {
            return Err(SpefError::InvalidInput(format!(
                "link {e} out of range for a network with {m} links"
            )));
        }
        let (degraded, kept) = network
            .without_links(circuit)
            .map_err(|e| SpefError::InvalidInput(format!("failing links {circuit:?}: {e}")))?;
        let degraded_weights: Vec<f64> = kept.iter().map(|e| weights[e.index()]).collect();
        let mut engine = match self.state.take() {
            Some(state) => RoutingEngine::with_state(degraded.graph(), state),
            None => RoutingEngine::new(degraded.graph()),
        };
        engine.set_incremental(!self.full_rebuild);
        let flows = self.flows.get_or_insert_with(|| engine.distribute_fresh());
        engine.build_dags(&degraded_weights, dests, dijkstra_tolerance)?;
        engine.distribute_into(traffic, SplitRule::EvenEcmp, flows)?;
        self.state = Some(engine.into_state());
        Ok(metrics::max_link_utilization(&degraded, flows.aggregate()))
    }

    /// SPF counters accumulated by the saved engine state (zeroed until
    /// the first successful probe).
    pub fn spf_stats(&self) -> SpfStats {
        self.state
            .as_ref()
            .map(EngineState::spf_stats)
            .unwrap_or_default()
    }
}

/// The stale-weight failure model's probe pair, used by the sweep
/// harness's failure stage: after a circuit fails, OSPF reconverges on
/// InvCap weights, and SPEF keeps routing on its stale intact-optimal
/// first weights with even ECMP (the second weights' split ratios are
/// meaningless once the path set changed). Each setting has its own
/// persistent [`MluProbe`], so a sweep over circuits routes every degraded
/// clone in that probe's warmed arenas.
pub struct StaleWeightProbes {
    ospf: MluProbe,
    stale: MluProbe,
}

impl StaleWeightProbes {
    /// Creates the pair; `full_rebuild` as in [`MluProbe::new`].
    pub fn new(full_rebuild: bool) -> StaleWeightProbes {
        StaleWeightProbes {
            ospf: MluProbe::new(full_rebuild),
            stale: MluProbe::new(full_rebuild),
        }
    }

    /// `(OSPF MLU, stale-SPEF MLU)` on `network` with the links of
    /// `circuit` failed; `weights` are SPEF's intact first weights, one per
    /// intact link. The continuous weights solve nothing on the degraded
    /// topology, so the stale routing's equal-cost ties use the shared
    /// coarse threshold [`STALE_WEIGHT_DAG_RTOL`] scaled by the largest
    /// *surviving* weight.
    ///
    /// # Errors
    ///
    /// As [`MluProbe::mlu`], OSPF's probe first.
    pub fn mlus(
        &mut self,
        network: &Network,
        traffic: &TrafficMatrix,
        dests: &[NodeId],
        weights: &[f64],
        circuit: &[EdgeId],
    ) -> Result<(f64, f64), SpefError> {
        let invcap: Vec<f64> = network.capacities().iter().map(|c| 1.0 / c).collect();
        let ospf = self
            .ospf
            .mlu(network, traffic, dests, &invcap, 0.0, circuit)?;
        let max_surviving = weights
            .iter()
            .enumerate()
            .filter(|&(e, _)| !circuit.iter().any(|c| c.index() == e))
            .map(|(_, &w)| w)
            .fold(0.0, f64::max);
        let stale = self.stale.mlu(
            network,
            traffic,
            dests,
            weights,
            STALE_WEIGHT_DAG_RTOL * max_surviving,
            circuit,
        )?;
        Ok((ospf, stale))
    }

    /// Each probe's SPF counters, OSPF's first.
    pub fn spf_stats(&self) -> [SpfStats; 2] {
        [self.ospf.spf_stats(), self.stale.spf_stats()]
    }
}

/// Even-ECMP MLU of one (possibly mixed) weight vector, with the stale
/// equal-cost tolerance scaled to the vector's largest weight — the
/// free-function reference the engine-backed evaluation in
/// [`migrate_with`] is pinned against (production code routes through the
/// persistent engine; this stays as the test oracle).
#[cfg(test)]
fn transient_mlu(
    network: &Network,
    traffic: &TrafficMatrix,
    dests: &[NodeId],
    weights: &[f64],
) -> Result<f64, SpefError> {
    let max_w = weights.iter().cloned().fold(0.0, f64::max);
    even_ecmp_mlu(
        network,
        traffic,
        dests,
        weights,
        STALE_WEIGHT_DAG_RTOL * max_w,
    )
}

/// Measures the transient of migrating `network`'s weights from `from` to
/// `to`, one push at a time, under both push orders.
///
/// Weights are compared bitwise: a link is "changed" iff its weight
/// differs in the `f64` bit pattern, so the step count is deterministic
/// and never inflated by representation noise.
///
/// # Errors
///
/// Propagates routing errors from any intermediate state; panics if the
/// two vectors' lengths differ from the network's link count.
pub fn migrate(
    network: &Network,
    traffic: &TrafficMatrix,
    from: &[f64],
    to: &[f64],
) -> Result<ReconfigOutcome, SpefError> {
    migrate_with(network, traffic, from, to, false).map(|(outcome, _)| outcome)
}

/// [`migrate`] with an explicit engine mode, returning the probe engine's
/// SPF counters alongside the outcome — the bench surface of the
/// incremental path. `full_rebuild` forces dense SPF rebuilds for every
/// intermediate state; the default incremental mode rebuilds only
/// destinations a push can affect (bit-identical outcome either way).
///
/// Every intermediate state is evaluated on **one persistent engine**, so
/// consecutive single-push states are one-weight deltas the engine's
/// delta path can exploit. The per-state equal-cost tolerance still
/// tracks the mixed vector's largest weight; a push that changes the
/// maximum changes the tolerance and falls back to a dense rebuild
/// automatically.
///
/// # Errors
///
/// Same conditions as [`migrate`].
pub fn migrate_with(
    network: &Network,
    traffic: &TrafficMatrix,
    from: &[f64],
    to: &[f64],
    full_rebuild: bool,
) -> Result<(ReconfigOutcome, SpfStats), SpefError> {
    let m = network.link_count();
    assert_eq!(from.len(), m, "`from` must cover every link");
    assert_eq!(to.len(), m, "`to` must cover every link");
    let dests = traffic.destinations();

    let mut engine = RoutingEngine::new(network.graph());
    engine.set_incremental(!full_rebuild);
    let mut flows = engine.distribute_fresh();
    // The engine-backed twin of [`transient_mlu`]: bit-identical MLUs
    // (pinned by `engine_matches_free_functions_bit_for_bit` below), but
    // DAGs, tables and flow columns persist across the push sequence.
    let eval =
        |w: &[f64], engine: &mut RoutingEngine<'_>, flows: &mut Flows| -> Result<f64, SpefError> {
            let max_w = w.iter().cloned().fold(0.0, f64::max);
            engine.build_dags(w, &dests, STALE_WEIGHT_DAG_RTOL * max_w)?;
            engine.distribute_into(traffic, SplitRule::EvenEcmp, flows)?;
            Ok(metrics::max_link_utilization(network, flows.aggregate()))
        };

    let changed: Vec<usize> = (0..m)
        .filter(|&e| from[e].to_bits() != to[e].to_bits())
        .collect();
    let start_mlu = eval(from, &mut engine, &mut flows)?;

    // Naive order: ascending link index.
    let mut w = from.to_vec();
    let mut naive_peak = start_mlu;
    for &e in &changed {
        w[e] = to[e];
        naive_peak = naive_peak.max(eval(&w, &mut engine, &mut flows)?);
    }

    // Greedy order: at each step try every remaining push and commit the
    // one whose mixed state has the lowest MLU (lowest index on ties).
    let mut w = from.to_vec();
    let mut greedy_peak = start_mlu;
    let mut remaining = changed.clone();
    while !remaining.is_empty() {
        let mut best: Option<(usize, f64)> = None; // (position in `remaining`, mlu)
        for (pos, &e) in remaining.iter().enumerate() {
            let old = w[e];
            w[e] = to[e];
            let mlu = eval(&w, &mut engine, &mut flows)?;
            w[e] = old;
            // Strict `<` keeps the first (lowest-index) minimiser.
            if best.map(|(_, b)| mlu < b).unwrap_or(true) {
                best = Some((pos, mlu));
            }
        }
        let (pos, mlu) = best.expect("remaining is non-empty");
        let e = remaining.remove(pos);
        w[e] = to[e];
        greedy_peak = greedy_peak.max(mlu);
    }

    Ok((
        ReconfigOutcome {
            steps: changed.len(),
            naive_peak_mlu: naive_peak,
            greedy_peak_mlu: greedy_peak,
        },
        engine.spf_stats(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_topology::{gen, standard};

    fn abilene_instance(load: f64) -> (Network, TrafficMatrix) {
        let net = standard::abilene();
        let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, load);
        (net, tm)
    }

    #[test]
    fn identical_endpoints_take_zero_steps() {
        let (net, tm) = abilene_instance(0.05);
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let out = migrate(&net, &tm, &w, &w).unwrap();
        assert_eq!(out.steps, 0);
        // Both peaks degenerate to the (shared) endpoint MLU.
        assert_eq!(out.naive_peak_mlu.to_bits(), out.greedy_peak_mlu.to_bits());
        assert!(out.naive_peak_mlu > 0.0);
    }

    #[test]
    fn peaks_dominate_both_endpoints() {
        let (net, tm) = abilene_instance(0.05);
        let from: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        // A deliberately different endpoint: uniform weights.
        let to = vec![1.0; net.link_count()];
        let dests = tm.destinations();
        let start = transient_mlu(&net, &tm, &dests, &from).unwrap();
        let end = transient_mlu(&net, &tm, &dests, &to).unwrap();
        let out = migrate(&net, &tm, &from, &to).unwrap();
        assert!(out.steps > 0);
        for peak in [out.naive_peak_mlu, out.greedy_peak_mlu] {
            assert!(peak >= start - 1e-12, "peak {peak} vs start {start}");
            assert!(peak >= end - 1e-12, "peak {peak} vs end {end}");
        }
    }

    #[test]
    fn migration_is_deterministic() {
        let (net, tm) = abilene_instance(0.08);
        let from: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let to = vec![1.0; net.link_count()];
        let a = migrate(&net, &tm, &from, &to).unwrap();
        let b = migrate(&net, &tm, &from, &to).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.naive_peak_mlu.to_bits(), b.naive_peak_mlu.to_bits());
        assert_eq!(a.greedy_peak_mlu.to_bits(), b.greedy_peak_mlu.to_bits());
    }

    #[test]
    fn engine_matches_free_functions_bit_for_bit() {
        // The persistent-engine evaluation must reproduce the legacy
        // free-function transient MLUs exactly: recompute the naive
        // order's peak with `transient_mlu` and compare bitwise, for the
        // incremental and the forced-dense engine alike.
        let (net, tm) = abilene_instance(0.08);
        let from: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let to: Vec<f64> = vec![1.0; net.link_count()];
        let dests = tm.destinations();
        let changed: Vec<usize> = (0..net.link_count())
            .filter(|&e| from[e].to_bits() != to[e].to_bits())
            .collect();
        let mut peak = transient_mlu(&net, &tm, &dests, &from).unwrap();
        let mut w = from.clone();
        for &e in &changed {
            w[e] = to[e];
            peak = peak.max(transient_mlu(&net, &tm, &dests, &w).unwrap());
        }
        let (inc, inc_stats) = migrate_with(&net, &tm, &from, &to, false).unwrap();
        let (full, full_stats) = migrate_with(&net, &tm, &from, &to, true).unwrap();
        assert_eq!(inc.naive_peak_mlu.to_bits(), peak.to_bits());
        assert_eq!(full.naive_peak_mlu.to_bits(), peak.to_bits());
        assert_eq!(inc, full);
        assert!(
            inc_stats.incremental_builds > 0,
            "push probes never took the incremental path: {inc_stats:?}"
        );
        assert_eq!(full_stats.incremental_builds, 0);
    }

    #[test]
    fn mlu_probe_matches_degraded_free_function() {
        // One persistent probe across every connected circuit must
        // reproduce the cold free-function MLU on the corresponding
        // `without_links` network bit for bit, under both engine modes.
        // Varied integer weights give the probe DAGs other than InvCap's.
        let cernet2 = standard::cernet2();
        let cernet2_tm =
            TrafficMatrix::fortz_thorup(&cernet2, 1).scaled_to_network_load(&cernet2, 0.05);
        for (net, tm) in [abilene_instance(0.05), (cernet2, cernet2_tm)] {
            let dests = tm.destinations();
            let weights: Vec<f64> = (0..net.link_count())
                .map(|e| 1.0 + (e % 7) as f64)
                .collect();
            let mut incremental = MluProbe::new(false);
            let mut dense = MluProbe::new(true);
            let mut probed = 0usize;
            for circuit in net.duplex_circuits() {
                let Ok((degraded, kept)) = net.without_links(&circuit) else {
                    continue;
                };
                let dw: Vec<f64> = kept.iter().map(|e| weights[e.index()]).collect();
                let expect = even_ecmp_mlu(&degraded, &tm, &dests, &dw, 0.0).unwrap();
                for probe in [&mut incremental, &mut dense] {
                    let got = probe
                        .mlu(&net, &tm, &dests, &weights, 0.0, &circuit)
                        .unwrap();
                    assert_eq!(got.to_bits(), expect.to_bits(), "{}", net.name());
                }
                probed += 1;
            }
            assert!(probed > 0, "{}", net.name());
            assert_eq!(incremental.spf_stats().builds, probed as u64);
        }
    }

    #[test]
    fn mlu_probe_rejects_bridges_and_keeps_working() {
        // A triangle a-b-c with d hanging off c: the c-d circuit is a
        // bridge, the triangle's circuits are not.
        let mut b = Network::builder("kite");
        let a = b.add_node("a", (0.0, 0.0));
        let bn = b.add_node("b", (1.0, 0.0));
        let c = b.add_node("c", (0.5, 1.0));
        let d = b.add_node("d", (0.5, 2.0));
        b.add_duplex_link(a, bn, 2.0);
        b.add_duplex_link(bn, c, 2.0);
        b.add_duplex_link(c, a, 2.0);
        b.add_duplex_link(c, d, 1.0);
        let net = b.build().unwrap();
        let mut tm = TrafficMatrix::new(4);
        tm.set(a, d, 0.3);
        tm.set(bn, a, 0.2);
        tm.set(d, bn, 0.1);
        let dests = tm.destinations();
        let weights = vec![1.0; net.link_count()];
        let circuits = net.duplex_circuits();
        assert!(net.without_links(&circuits[3]).is_err());

        let mut probe = MluProbe::new(false);
        probe
            .mlu(&net, &tm, &dests, &weights, 0.0, &circuits[0])
            .unwrap();
        assert!(matches!(
            probe.mlu(&net, &tm, &dests, &weights, 0.0, &circuits[3]),
            Err(SpefError::InvalidInput(_))
        ));
        let (degraded, kept) = net.without_links(&circuits[1]).unwrap();
        let dw: Vec<f64> = kept.iter().map(|e| weights[e.index()]).collect();
        let expect = even_ecmp_mlu(&degraded, &tm, &dests, &dw, 0.0).unwrap();
        let got = probe
            .mlu(&net, &tm, &dests, &weights, 0.0, &circuits[1])
            .unwrap();
        assert_eq!(got.to_bits(), expect.to_bits());
    }

    #[test]
    fn greedy_first_step_never_exceeds_naive_first_step() {
        // The greedy order's first push is the minimum over all single
        // pushes, which includes naive's first push — so with exactly one
        // changed weight the two orders coincide.
        let (net, tm) = abilene_instance(0.05);
        let from: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let mut to = from.clone();
        to[3] += 0.5;
        let out = migrate(&net, &tm, &from, &to).unwrap();
        assert_eq!(out.steps, 1);
        assert_eq!(out.naive_peak_mlu.to_bits(), out.greedy_peak_mlu.to_bits());
    }

    #[test]
    fn leaf_pushes_on_hier200_rebuild_few_destinations() {
        // Six pushes lower the weights of links *into* edge-layer leaves
        // (an access-link reweighting campaign), so each push can dirty
        // only the destinations behind that access link; lowering keeps
        // the mixed vector's maximum, which scales the equal-cost
        // tolerance, fixed across the whole migration.
        let net = gen::tiered_network("Tier200", 8, 4, 5, 0x7E2);
        let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.04);
        let from: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let first_leaf = 8 + 8 * 4; // cores + aggregation routers
        let into_leaves: Vec<usize> = net
            .graph()
            .edges()
            .filter(|&(_, _, v)| v.index() >= first_leaf)
            .map(|(e, _, _)| e.index())
            .collect();
        let mut to = from.clone();
        for (k, &e) in into_leaves
            .iter()
            .step_by(into_leaves.len() / 6)
            .take(6)
            .enumerate()
        {
            to[e] *= 0.45 + 0.05 * k as f64;
        }
        let (full, full_stats) = migrate_with(&net, &tm, &from, &to, true).unwrap();
        let (inc, inc_stats) = migrate_with(&net, &tm, &from, &to, false).unwrap();
        assert_eq!(inc, full);
        assert_eq!(full_stats.incremental_builds, 0);
        assert!(
            inc_stats.incremental_builds > 0,
            "push probes never took the incremental path: {inc_stats:?}"
        );
        let dests = tm.destinations().len() as u64;
        assert!(
            inc_stats.slots_rebuilt * 3 <= inc_stats.incremental_builds * dests,
            "mean dirty set per push probe exceeds a third of the {dests} destinations: \
             {inc_stats:?}"
        );
    }
}
