//! Downward PEFT — the link-state protocol SPEF is compared against in
//! §V.D (Fig. 11).
//!
//! PEFT (Xu, Chiang, Rexford: "Link-state routing with hop-by-hop
//! forwarding achieves optimal traffic engineering", INFOCOM 2008) splits
//! traffic over **all** downward paths toward the destination — not only
//! the equal-cost shortest ones — with an exponential penalty on the extra
//! path length. Its *Downward PEFT* variant (the loop-free, computationally
//! efficient one actually proposed for deployment, which "does not provably
//! achieve optimal TE" per the SPEF paper's §VI) works as follows for a
//! destination `t` with per-node shortest distances `d(·)`:
//!
//! * a link `(u, v)` is *downward* iff `d(v) < d(u)`;
//! * each downward link carries penalty `h_uv = w_uv + d(v) − d(u) ≥ 0`
//!   (its extra cost over the shortest path);
//! * `Γ(t) = 1`, `Γ(u) = Σ_{(u,v) downward} Γ(v) · e^(−h_uv)`, and node
//!   `u` forwards to `v` with probability `Γ(v)·e^(−h_uv) / Γ(u)`.
//!
//! On equal-cost paths `h = 0`, so the split degenerates to path-count
//! weighting; on longer paths the exponential penalty applies. The key
//! behavioural contrast measured in Fig. 11: PEFT *uses fewer links* than
//! SPEF on these workloads but loads them more unevenly, because the
//! penalty concentrates traffic near the shortest paths while SPEF spreads
//! it uniformly over an engineered equal-cost set.

use spef_core::{metrics, Flows, ForwardingTable, RoutingEngine, SpefError};
use spef_graph::{EdgeId, NodeId};
use spef_topology::{Network, TrafficMatrix};

/// A Downward-PEFT routing of a traffic matrix under given link weights.
#[derive(Debug, Clone)]
pub struct PeftRouting {
    weights: Vec<f64>,
    flows: Flows,
    fib: ForwardingTable,
}

impl PeftRouting {
    /// Routes `traffic` with Downward-PEFT splitting under `weights`.
    ///
    /// For the SPEF-vs-PEFT comparison both protocols are driven by the
    /// same optimal first weights, isolating the difference in their
    /// *splitting* behaviour.
    ///
    /// # Errors
    ///
    /// * [`SpefError::InvalidInput`] on size mismatches or an empty matrix,
    /// * [`SpefError::UnroutableDemand`] for disconnected demand pairs.
    pub fn route(
        network: &Network,
        traffic: &TrafficMatrix,
        weights: &[f64],
    ) -> Result<PeftRouting, SpefError> {
        if traffic.node_count() != network.node_count() {
            return Err(SpefError::InvalidInput(format!(
                "traffic matrix covers {} nodes, network has {}",
                traffic.node_count(),
                network.node_count()
            )));
        }
        if weights.len() != network.link_count() {
            return Err(SpefError::InvalidInput(format!(
                "weight vector has length {}, network has {} links",
                weights.len(),
                network.link_count()
            )));
        }
        let g = network.graph();
        let dests = traffic.destinations();
        if dests.is_empty() {
            return Err(SpefError::InvalidInput(
                "traffic matrix is empty".to_string(),
            ));
        }

        let n = g.node_count();
        let m = g.edge_count();
        let mut per_dest = Vec::with_capacity(dests.len());
        let mut aggregate = vec![0.0; m];
        // The FIB is built destination by destination straight into the
        // flat CSR arena; the per-node ratio rows below are scratch reused
        // across destinations, never retained.
        let mut fib = ForwardingTable::default();
        fib.begin(n);

        // Every destination's shortest distances, and its reachable nodes
        // by decreasing distance (ties by node id), from one batched DAG
        // build: weights are validated once and the Dijkstra scratch is
        // shared (parallel for large destination sets).
        let mut engine = RoutingEngine::new(g);
        engine.build_dags(weights, &dests, 0.0)?;
        let mut log_gamma = vec![f64::NEG_INFINITY; n];
        let mut ratios: Vec<Vec<(EdgeId, f64)>> = vec![Vec::new(); n];
        let mut incoming = vec![0.0f64; n];

        for dag in engine.dag_set().iter() {
            let t = dag.target();
            let dist = dag.distances();
            let order = dag.nodes_by_decreasing_distance();

            // Γ recursion in log space, increasing distance.
            log_gamma.fill(f64::NEG_INFINITY);
            log_gamma[t.index()] = 0.0;
            for row in ratios.iter_mut() {
                row.clear();
            }
            for &u in order.iter().rev() {
                if u == t {
                    continue;
                }
                let terms = &mut ratios[u.index()];
                for &e in g.out_edges(u) {
                    let v = g.target(e);
                    let (du, dv) = (dist[u.index()], dist[v.index()]);
                    if !dv.is_finite() || dv >= du {
                        continue; // not downward
                    }
                    let h = weights[e.index()] + dv - du;
                    let term = -h + log_gamma[v.index()];
                    if term.is_finite() {
                        terms.push((e, term));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                let max_t = terms
                    .iter()
                    .map(|&(_, x)| x)
                    .fold(f64::NEG_INFINITY, f64::max);
                let sum: f64 = terms.iter().map(|&(_, x)| (x - max_t).exp()).sum();
                let lg = max_t + sum.ln();
                log_gamma[u.index()] = lg;
                for slot in terms.iter_mut() {
                    slot.1 = (slot.1 - lg).exp();
                }
            }
            fib.push_destination(t, |u| ratios[u].as_slice());

            // Distribute demand in decreasing-distance order.
            let demands = traffic.demands_to(t);
            let mut flows = vec![0.0; m];
            incoming.fill(0.0);
            for (s, &d) in demands.iter().enumerate() {
                if d > 0.0 && !dist[s].is_finite() {
                    return Err(SpefError::UnroutableDemand {
                        source: NodeId::new(s),
                        destination: t,
                    });
                }
            }
            for &u in order {
                if u == t {
                    continue;
                }
                let total = demands[u.index()] + incoming[u.index()];
                if total <= 0.0 {
                    continue;
                }
                if ratios[u.index()].is_empty() {
                    return Err(SpefError::UnroutableDemand {
                        source: u,
                        destination: t,
                    });
                }
                for &(e, r) in &ratios[u.index()] {
                    let f = total * r;
                    flows[e.index()] += f;
                    incoming[g.target(e).index()] += f;
                }
            }
            for (agg, f) in aggregate.iter_mut().zip(&flows) {
                *agg += f;
            }
            per_dest.push(flows);
        }

        let flows = Flows::assemble(dests, per_dest, aggregate);
        Ok(PeftRouting {
            weights: weights.to_vec(),
            flows,
            fib,
        })
    }

    /// The link weights driving the penalties.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The resulting flows.
    pub fn flows(&self) -> &Flows {
        &self.flows
    }

    /// The PEFT forwarding table.
    pub fn forwarding_table(&self) -> &ForwardingTable {
        &self.fib
    }

    /// Maximum link utilization of the PEFT flows.
    pub fn max_link_utilization(&self, network: &Network) -> f64 {
        metrics::max_link_utilization(network, self.flows.aggregate())
    }

    /// Number of links carrying at least `threshold` of flow — the
    /// "links used for carrying traffic" count of Fig. 11.
    pub fn links_used(&self, threshold: f64) -> usize {
        self.flows
            .aggregate()
            .iter()
            .filter(|&&f| f > threshold)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_topology::standard;

    /// Diamond with a longer alternative: 0→3 direct paths of length 2 via
    /// node 1, and length 3 via nodes 2→... (asymmetric).
    fn asym_net() -> Network {
        let mut b = Network::builder("asym");
        let n0 = b.add_node("0", (0.0, 0.0));
        let n1 = b.add_node("1", (1.0, 1.0));
        let n2 = b.add_node("2", (1.0, -1.0));
        let n3 = b.add_node("3", (2.0, 0.0));
        b.add_duplex_link(n0, n1, 5.0);
        b.add_duplex_link(n1, n3, 5.0);
        b.add_duplex_link(n0, n2, 5.0);
        b.add_duplex_link(n2, n3, 5.0);
        b.build().unwrap()
    }

    #[test]
    fn equal_paths_split_evenly() {
        let net = asym_net();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 2.0);
        let w = vec![1.0; net.link_count()];
        let peft = PeftRouting::route(&net, &tm, &w).unwrap();
        let f = peft.flows().aggregate();
        // Both 2-hop paths have h = 0: split 50/50.
        assert!((f[0] - 1.0).abs() < 1e-9);
        assert!((f[4] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn longer_paths_get_exponentially_less() {
        let net = asym_net();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        // Make the lower path 1 unit longer.
        let mut w = vec![1.0; net.link_count()];
        w[4] = 2.0; // edge 0→2
        let peft = PeftRouting::route(&net, &tm, &w).unwrap();
        let f = peft.flows().aggregate();
        // Lower path penalty h = 1: ratio e^{-1} : 1. PEFT still uses it —
        // that is the defining contrast with pure shortest-path routing.
        assert!(f[4] > 0.0);
        let expected = (-1.0f64).exp();
        assert!(
            (f[4] / f[0] - expected).abs() < 1e-9,
            "ratio {} vs {expected}",
            f[4] / f[0]
        );
    }

    #[test]
    fn upward_links_carry_nothing() {
        let net = asym_net();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        let w = vec![1.0; net.link_count()];
        let peft = PeftRouting::route(&net, &tm, &w).unwrap();
        let f = peft.flows().aggregate();
        // Return edges (toward 0) are upward for destination 3.
        for e in [1usize, 3, 5, 7] {
            assert_eq!(f[e], 0.0, "upward edge {e} used");
        }
    }

    #[test]
    fn conservation_holds_per_destination() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let w = vec![1.0; net.link_count()];
        let peft = PeftRouting::route(&net, &tm, &w).unwrap();
        for &t in peft.flows().destinations() {
            let f = peft.flows().for_destination(t).unwrap();
            let div = net.graph().divergence(f);
            let demands = tm.demands_to(t);
            for node in net.graph().nodes() {
                if node == t {
                    continue;
                }
                assert!(
                    (div[node.index()] - demands[node.index()]).abs() < 1e-9,
                    "conservation at {node} toward {t}"
                );
            }
        }
    }

    #[test]
    fn peft_uses_more_paths_than_pure_shortest_path_routing() {
        // PEFT sends traffic on longer downward paths too; under unit
        // weights on Fig. 4, strictly more links carry flow than the
        // shortest-path-only count.
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let w = vec![1.0; net.link_count()];
        let peft = PeftRouting::route(&net, &tm, &w).unwrap();
        let ospf = crate::ospf::OspfRouting::route_with_weights(&net, &tm, &w).unwrap();
        let used = |flows: &[f64]| flows.iter().filter(|&&f| f > 1e-9).count();
        assert!(used(peft.flows().aggregate()) >= used(ospf.flows().aggregate()));
    }

    #[test]
    fn fib_ratios_sum_to_one() {
        let net = asym_net();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        let w = vec![1.0; net.link_count()];
        let peft = PeftRouting::route(&net, &tm, &w).unwrap();
        let hops = peft
            .forwarding_table()
            .next_hops(0.into(), 3.into())
            .unwrap();
        let sum: f64 = hops.iter().map(|&(_, r)| r).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn links_used_threshold() {
        let net = asym_net();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        let w = vec![1.0; net.link_count()];
        let peft = PeftRouting::route(&net, &tm, &w).unwrap();
        assert_eq!(peft.links_used(1e-9), 4);
        assert_eq!(peft.links_used(10.0), 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let net = asym_net();
        let tm = TrafficMatrix::new(4);
        let w = vec![1.0; net.link_count()];
        assert!(PeftRouting::route(&net, &tm, &w).is_err());
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 1.0);
        assert!(PeftRouting::route(&net, &tm, &w[..2]).is_err());
    }
}
