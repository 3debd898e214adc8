//! Property-based tests for [`Network::without_links`] and
//! [`Network::duplex_circuits`] on random topologies.
//!
//! The failure sweeps lean on three contracts: the kept-edge map returned
//! by `without_links` preserves endpoints and capacities in the original
//! edge order, removals that disconnect the network are always rejected
//! (never silently produce a partial topology), and remapping a per-link
//! vector through the kept map round-trips against the original ids.

use proptest::prelude::*;
use spef_graph::traversal::is_strongly_connected;
use spef_graph::{EdgeId, Graph};
use spef_topology::{Network, TopologyError};

/// Strategy: a random duplex network over a Hamiltonian backbone ring
/// (guaranteeing strong connectivity) plus random duplex chords, with
/// capacities in (0, 10], and a random subset of circuits to fail.
fn network_and_failures() -> impl Strategy<Value = (Network, Vec<usize>)> {
    (3usize..10).prop_flat_map(|n| {
        let chords = proptest::collection::vec((0..n, 0..n), 0..(2 * n));
        let caps = proptest::collection::vec(0.01f64..10.0, n + 2 * n);
        let picks = proptest::collection::vec(0usize..2, n + 2 * n);
        (Just(n), chords, caps, picks).prop_map(|(n, chords, caps, picks)| {
            let mut b = Network::builder("prop");
            for i in 0..n {
                b.add_node(format!("n{i}"), (i as f64, 0.0));
            }
            let mut cap = caps.into_iter().cycle();
            for i in 0..n {
                b.add_duplex_link(i.into(), ((i + 1) % n).into(), cap.next().unwrap());
            }
            for (u, v) in chords {
                if u != v {
                    b.add_duplex_link(u.into(), v.into(), cap.next().unwrap());
                }
            }
            let net = b.build().expect("backbone ring is strongly connected");
            let circuits = net.duplex_circuits().len();
            let failed: Vec<usize> = picks
                .into_iter()
                .take(circuits)
                .enumerate()
                .filter_map(|(i, pick)| (pick == 1).then_some(i))
                .collect();
            (net, failed)
        })
    })
}

/// Rebuilds the surviving graph by hand (no builder validation) so the
/// disconnection verdict can be cross-checked independently.
fn surviving_graph(net: &Network, failed: &[EdgeId]) -> Graph {
    let mut g = Graph::with_nodes(net.node_count());
    for (e, u, v) in net.graph().edges() {
        if !failed.contains(&e) {
            g.add_edge(u, v);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kept_map_preserves_endpoints_capacities_and_order((net, fail) in network_and_failures()) {
        let circuits = net.duplex_circuits();
        let failed: Vec<EdgeId> = fail.iter().flat_map(|&i| circuits[i].clone()).collect();
        let Ok((degraded, kept)) = net.without_links(&failed) else {
            return Ok(()); // disconnection case covered below
        };
        prop_assert_eq!(degraded.link_count(), net.link_count() - failed.len());
        prop_assert_eq!(kept.len(), degraded.link_count());
        // Kept ids are strictly increasing (original edge order preserved)
        // and none of them was failed.
        for w in kept.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for (new_e, _, _) in degraded.graph().edges() {
            let old_e = kept[new_e.index()];
            prop_assert!(!failed.contains(&old_e));
            prop_assert_eq!(
                degraded.graph().endpoints(new_e),
                net.graph().endpoints(old_e)
            );
            prop_assert_eq!(
                degraded.capacity(new_e).to_bits(),
                net.capacity(old_e).to_bits()
            );
        }
    }

    #[test]
    fn disconnection_is_always_rejected((net, fail) in network_and_failures()) {
        let circuits = net.duplex_circuits();
        let failed: Vec<EdgeId> = fail.iter().flat_map(|&i| circuits[i].clone()).collect();
        let connected = is_strongly_connected(&surviving_graph(&net, &failed));
        match net.without_links(&failed) {
            Ok(..) => prop_assert!(connected, "accepted a disconnecting removal"),
            Err(TopologyError::NotStronglyConnected) => {
                prop_assert!(!connected, "rejected a connected survivor")
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    #[test]
    fn remapped_per_link_vectors_round_trip((net, fail) in network_and_failures()) {
        let circuits = net.duplex_circuits();
        let failed: Vec<EdgeId> = fail.iter().flat_map(|&i| circuits[i].clone()).collect();
        let Ok((degraded, kept)) = net.without_links(&failed) else {
            return Ok(());
        };
        // Forward remap (how `MluProbe` maps weights onto a clone), then
        // scatter back: every kept id sees its original value again.
        let vals: Vec<f64> = (0..net.link_count()).map(|e| e as f64 + 0.25).collect();
        let remapped: Vec<f64> = kept.iter().map(|&old| vals[old.index()]).collect();
        prop_assert_eq!(remapped.len(), degraded.link_count());
        let mut scattered = vec![f64::NAN; net.link_count()];
        for (new_i, &old) in kept.iter().enumerate() {
            scattered[old.index()] = remapped[new_i];
        }
        for (e, &v) in vals.iter().enumerate() {
            let e = EdgeId::new(e);
            if failed.contains(&e) {
                prop_assert!(scattered[e.index()].is_nan());
            } else {
                prop_assert_eq!(scattered[e.index()].to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn duplex_circuits_partition_the_edge_set((net, _) in network_and_failures()) {
        let circuits = net.duplex_circuits();
        let mut seen = vec![false; net.link_count()];
        for circuit in &circuits {
            prop_assert!(!circuit.is_empty() && circuit.len() <= 2);
            for &e in circuit {
                prop_assert!(!seen[e.index()], "edge {e} in two circuits");
                seen[e.index()] = true;
            }
            if let [fwd, rev] = circuit[..] {
                let (u, v) = net.graph().endpoints(fwd);
                prop_assert_eq!(net.graph().endpoints(rev), (v, u));
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some edge in no circuit");
    }
}
