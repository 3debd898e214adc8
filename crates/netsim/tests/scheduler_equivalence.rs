//! Property test: a warm [`SimWorkspace`] reproduces a fresh [`simulate`]
//! bit for bit.
//!
//! The workspace keeps the event queue, arenas, link state and delay
//! histogram between runs and only clears them, so nothing of an earlier
//! run may leak into the next. Every [`SimReport`] field — float link
//! loads included — must agree exactly (bits, not approximately) on random
//! topologies, demand matrices and operating points that cover clean
//! delivery, multi-path splitting, drop-tail loss and zero propagation
//! delay (where events tie in time and only the queue's seq tie-break
//! orders them). The queue's pop order itself is pinned against a binary
//! heap by the `sched` unit tests.

use proptest::prelude::*;
use spef_core::ForwardingTable;
use spef_graph::{NodeId, ShortestPathDag};
use spef_netsim::{simulate, simulate_with, SimConfig, SimWorkspace};
use spef_topology::{Network, TrafficMatrix};

/// A strongly connected random network (directed ring backbone plus
/// chords) with capacities in [4, 12], and a demand matrix over a random
/// subset of pairs.
fn random_scenario() -> impl Strategy<Value = (Network, TrafficMatrix)> {
    (3usize..9).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), 0..(2 * n)),
            proptest::collection::vec(4.0f64..12.0, n + 2 * n),
            proptest::collection::vec((0..n, 0..n, 0.2f64..3.0), 1..6),
        )
            .prop_map(|(n, chords, caps, demands)| {
                let mut b = Network::builder("prop");
                let nodes: Vec<NodeId> = (0..n)
                    .map(|i| b.add_node(format!("n{i}"), (i as f64, 0.0)))
                    .collect();
                let mut next_cap = caps.into_iter();
                for i in 0..n {
                    b.add_link(nodes[i], nodes[(i + 1) % n], next_cap.next().unwrap());
                }
                for (u, v) in chords {
                    if u != v {
                        b.add_link(nodes[u], nodes[v], next_cap.next().unwrap());
                    }
                }
                let net = b.build().unwrap();
                let mut tm = TrafficMatrix::new(n);
                for (s, t, d) in demands {
                    if s != t {
                        tm.set(NodeId::new(s), NodeId::new(t), d);
                    }
                }
                (net, tm)
            })
    })
}

/// Builds a FIB from per-destination shortest-path DAGs (inverse-capacity
/// weights) with uniform splits — cheap, deterministic, and multi-path
/// whenever the DAG has equal-cost successors.
fn uniform_split_fib(net: &Network, tm: &TrafficMatrix) -> ForwardingTable {
    let g = net.graph();
    let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
    let dests = tm.destinations();
    let tables: Vec<Vec<Vec<_>>> = dests
        .iter()
        .map(|&t| {
            let dag = ShortestPathDag::build(g, &w, t, 0.0).unwrap();
            (0..net.node_count())
                .map(|u| {
                    let succ = dag.successors(NodeId::new(u));
                    let p = 1.0 / succ.len().max(1) as f64;
                    succ.iter().map(|&e| (e, p)).collect()
                })
                .collect()
        })
        .collect();
    ForwardingTable::new(net.node_count(), dests, tables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A workspace whose last run used a different seed and buffer size
    /// reproduces a fresh run exactly, across seeds, buffer regimes
    /// (including lossy ones) and propagation delays.
    #[test]
    fn warm_workspace_reports_match_fresh_runs(
        (net, tm) in random_scenario(),
        seed in 0u64..1_000,
        buffer in prop_oneof![Just(3usize), Just(100usize)],
        propagation in prop_oneof![Just(0.0f64), Just(1e-3)],
    ) {
        prop_assume!(tm.pair_count() > 0);
        let fib = uniform_split_fib(&net, &tm);
        let cfg = SimConfig {
            duration: 3.0,
            warmup: 0.5,
            buffer_packets: buffer,
            propagation_delay: propagation,
            seed,
            ..SimConfig::default()
        };
        let fresh = simulate(&net, &tm, &fib, &cfg).unwrap();

        let mut ws = SimWorkspace::new();
        let other = SimConfig {
            seed: seed + 1,
            buffer_packets: if buffer == 3 { 100 } else { 3 },
            ..cfg.clone()
        };
        simulate_with(&net, &tm, &fib, &other, &mut ws).unwrap();
        let warm = simulate_with(&net, &tm, &fib, &cfg, &mut ws).unwrap();
        prop_assert_eq!(&warm, &fresh);
        // Float fields compare bit for bit, not just `==` (which would
        // also accept -0.0 vs 0.0).
        for (a, b) in warm.mean_link_load_bps.iter().zip(&fresh.mean_link_load_bps) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(warm.mean_delay.to_bits(), fresh.mean_delay.to_bits());
        prop_assert_eq!(warm.p99_delay.to_bits(), fresh.p99_delay.to_bits());
    }
}
