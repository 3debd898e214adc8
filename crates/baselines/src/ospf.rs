//! The OSPF baseline: Cisco InvCap weights + even ECMP splitting.
//!
//! §V of the paper: "we compare the results of SPEF with that of OSPF,
//! which sets link weight inversely proportional to its capacity and evenly
//! splits the traffic over multiple equal-cost shortest paths."
//!
//! The split is even per equal-cost *path* ([`SplitRule::EvenEcmp`]): a
//! next hop with `k` shortest paths to the destination carries `k` shares.
//! A router's hash-based ECMP splits evenly per *next hop* instead; the two
//! differ wherever next hops lead to different numbers of equal-cost
//! paths.
//!
//! Note OSPF routing ignores capacities entirely; at high load its flows
//! exceed capacity (MLU > 1) — exactly the regime where Fig. 10 shows its
//! utility collapsing to −∞ while "SPEF still works".

use spef_core::{metrics, Flows, ForwardingTable, RoutingEngine, SpefError, SplitRule};
use spef_topology::{Network, TrafficMatrix};

/// Cisco InvCap weights: `w_e = max_cap / c_e`, normalised so the largest
/// link gets weight 1 (any positive scale yields identical routing).
pub fn invcap_weights(network: &Network) -> Vec<f64> {
    let max_cap = network
        .capacities()
        .iter()
        .cloned()
        .fold(f64::MIN_POSITIVE, f64::max);
    network.capacities().iter().map(|c| max_cap / c).collect()
}

/// An OSPF (InvCap + even ECMP) routing of a traffic matrix.
#[derive(Debug, Clone)]
pub struct OspfRouting {
    weights: Vec<f64>,
    flows: Flows,
    fib: ForwardingTable,
}

impl OspfRouting {
    /// Routes `traffic` over `network` with InvCap weights and even ECMP.
    ///
    /// # Errors
    ///
    /// * [`SpefError::UnroutableDemand`] for disconnected demand pairs,
    /// * [`SpefError::InvalidInput`] on size mismatches.
    pub fn route(network: &Network, traffic: &TrafficMatrix) -> Result<OspfRouting, SpefError> {
        Self::route_with_weights(network, traffic, &invcap_weights(network))
    }

    /// Routes with explicit OSPF weights (used by the Fortz–Thorup local
    /// search to evaluate candidate weight settings).
    ///
    /// # Errors
    ///
    /// Same conditions as [`route`](Self::route), plus weight-vector
    /// validation errors.
    pub fn route_with_weights(
        network: &Network,
        traffic: &TrafficMatrix,
        weights: &[f64],
    ) -> Result<OspfRouting, SpefError> {
        let g = network.graph();
        let mut engine = RoutingEngine::new(g);
        let dests = validate_ospf_inputs(network, traffic)?;
        let flows = route_flows(&mut engine, traffic, &dests, weights)?;
        // The same per-destination stream as the SPEF pipeline's FIB: no
        // all-destinations split tables, no owned per-row vectors.
        let fib = engine.build_forwarding_table(SplitRule::EvenEcmp)?;
        Ok(OspfRouting {
            weights: weights.to_vec(),
            flows,
            fib,
        })
    }

    /// The link weights in force.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The resulting flows.
    pub fn flows(&self) -> &Flows {
        &self.flows
    }

    /// The even-per-path forwarding table.
    pub fn forwarding_table(&self) -> &ForwardingTable {
        &self.fib
    }

    /// Maximum link utilization (may exceed 1 — OSPF ignores capacity).
    pub fn max_link_utilization(&self, network: &Network) -> f64 {
        metrics::max_link_utilization(network, self.flows.aggregate())
    }

    /// Normalized utility `Σ log(1 − u)`; `−∞` once any link saturates.
    pub fn normalized_utility(&self, network: &Network) -> f64 {
        metrics::normalized_utility(network, self.flows.aggregate())
    }
}

/// The entry count of [`OspfRouting::route`]'s forwarding table, built one
/// destination at a time: even ECMP gives every shortest-path DAG edge a
/// share, so each destination adds its DAG's edge count. Only one
/// destination's DAG is alive at a time, where `route` holds every
/// destination's DAG, the flows and the whole FIB.
///
/// # Errors
///
/// The input and weight checks of [`OspfRouting::route`]. No demand is
/// routed, so unroutable pairs are not detected.
pub fn fib_entry_count(network: &Network, traffic: &TrafficMatrix) -> Result<usize, SpefError> {
    let dests = validate_ospf_inputs(network, traffic)?;
    let weights = invcap_weights(network);
    let mut engine = RoutingEngine::new(network.graph());
    let mut total = 0;
    for t in dests {
        engine.build_dags(&weights, &[t], 0.0)?;
        total += engine.dag_set().successor_total();
    }
    Ok(total)
}

/// Shared input validation for OSPF routing; returns the destination set.
pub(crate) fn validate_ospf_inputs(
    network: &Network,
    traffic: &TrafficMatrix,
) -> Result<Vec<spef_graph::NodeId>, SpefError> {
    if traffic.node_count() != network.node_count() {
        return Err(SpefError::InvalidInput(format!(
            "traffic matrix covers {} nodes, network has {}",
            traffic.node_count(),
            network.node_count()
        )));
    }
    let dests = traffic.destinations();
    if dests.is_empty() {
        return Err(SpefError::InvalidInput(
            "traffic matrix is empty".to_string(),
        ));
    }
    Ok(dests)
}

/// One even-ECMP routing pass on a reusable engine, returning fresh flows.
/// The Fortz–Thorup local search drives this thousands of times per run;
/// the engine's arenas make each pass allocation-free apart from the
/// returned flows.
pub(crate) fn route_flows(
    engine: &mut RoutingEngine<'_>,
    traffic: &TrafficMatrix,
    dests: &[spef_graph::NodeId],
    weights: &[f64],
) -> Result<Flows, SpefError> {
    engine.build_dags(weights, dests, 0.0)?;
    engine.distribute(traffic, SplitRule::EvenEcmp)
}

/// The allocation-free variant: routes into a caller-held buffer.
pub(crate) fn route_flows_into(
    engine: &mut RoutingEngine<'_>,
    traffic: &TrafficMatrix,
    dests: &[spef_graph::NodeId],
    weights: &[f64],
    out: &mut Flows,
) -> Result<(), SpefError> {
    engine.build_dags(weights, dests, 0.0)?;
    engine.distribute_into(traffic, SplitRule::EvenEcmp, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_graph::EdgeId;
    use spef_topology::standard;

    #[test]
    fn invcap_is_inversely_proportional() {
        let net = standard::cernet2();
        let w = invcap_weights(&net);
        for (e, (&weight, &cap)) in w.iter().zip(net.capacities()).enumerate() {
            assert!(
                (weight - 10.0 / cap).abs() < 1e-12,
                "edge {e}: {weight} vs {}",
                10.0 / cap
            );
        }
        // 10G links get weight 1, 2.5G links weight 4.
        assert!(w.contains(&1.0));
        assert!(w.contains(&4.0));
    }

    #[test]
    fn equal_capacities_reduce_to_hop_count() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let ospf = OspfRouting::route(&net, &tm).unwrap();
        // The Fig. 6 OSPF profile: bottleneck link 1 at utilization 1.6.
        let u = net.utilizations(ospf.flows().aggregate());
        assert!((u[0] - 1.6).abs() < 1e-12, "link 1: {}", u[0]);
        assert!((ospf.max_link_utilization(&net) - 1.6).abs() < 1e-12);
        assert_eq!(ospf.normalized_utility(&net), f64::NEG_INFINITY);
    }

    #[test]
    fn ecmp_splits_parity_paths() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let ospf = OspfRouting::route(&net, &tm).unwrap();
        let f = ospf.flows().aggregate();
        // 1→7 demand (4 units) splits 2/2 across via-5 and via-6 paths.
        assert!((f[3] - 2.0).abs() < 1e-12);
        assert!((f[5] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fib_rows_are_even() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let ospf = OspfRouting::route(&net, &tm).unwrap();
        let fib = ospf.forwarding_table();
        // Node 1 toward destination 7 (ids 0 → 6): two next hops at 1/2.
        let hops = fib.next_hops(0.into(), 6.into()).unwrap();
        assert_eq!(hops.len(), 2);
        for &(_, r) in hops {
            assert!((r - 0.5).abs() < 1e-12);
        }
        let _ = EdgeId::new(0);
    }

    #[test]
    fn custom_weights_change_routing() {
        let net = standard::fig1();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 2.into(), 1.0);
        // Unit weights: direct (1,3) wins.
        let w1 = vec![1.0; net.link_count()];
        let r1 = OspfRouting::route_with_weights(&net, &tm, &w1).unwrap();
        assert!((r1.flows().aggregate()[0] - 1.0).abs() < 1e-12);
        // Penalise the direct link: the 2-hop detour wins.
        let mut w2 = w1.clone();
        w2[0] = 5.0;
        let r2 = OspfRouting::route_with_weights(&net, &tm, &w2).unwrap();
        assert_eq!(r2.flows().aggregate()[0], 0.0);
        assert!((r2.flows().aggregate()[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty_or_mismatched_traffic() {
        let net = standard::fig1();
        assert!(OspfRouting::route(&net, &TrafficMatrix::new(4)).is_err());
        assert!(OspfRouting::route(&net, &TrafficMatrix::new(9)).is_err());
    }
}
