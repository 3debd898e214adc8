//! The routing engine's memory model: split tables are held one
//! destination at a time, the Dijkstra scratch is one per worker, and ids
//! are 4 bytes. Each case pins one of these against the destination
//! count, on a small tiered network.

use std::mem::size_of;

use spef_core::{RoutingEngine, SplitRule};
use spef_graph::{build_dag_set, Csr, DagSet, EdgeId, NodeId, Parallelism, RoutingWorkspace};
use spef_topology::{gen, Network, TrafficMatrix};

/// 4 cores, 3 aggregation routers per core, 4 edge routers per
/// aggregation router: 64 nodes.
fn tiered() -> (Network, TrafficMatrix, Vec<f64>) {
    let net = gen::tiered_network("arena", 4, 3, 4, 1);
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.04);
    let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
    (net, tm, w)
}

/// (a) A distribution adds at most one destination's split table to the
/// engine's arenas — `n` spans, `n` path sums (a log offset and a scale
/// each) and at most `m` entries — however many destinations it routes.
#[test]
fn distribution_holds_one_destination_table() {
    let (net, tm, w) = tiered();
    let (n, m) = (net.node_count(), net.link_count());
    let one_table = n * size_of::<(usize, usize)>()
        + n * size_of::<(f64, f64)>()
        + m * size_of::<(EdgeId, f64)>();
    let dests = tm.destinations();
    assert!(
        dests.len() > 8,
        "the matrix covers {} destinations",
        dests.len()
    );
    for count in [1, 8, dests.len()] {
        let mut sub = TrafficMatrix::new(n);
        for (s, t, d) in tm.pairs() {
            if dests[..count].contains(&t) {
                sub.set(s, t, d);
            }
        }
        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests[..count], 0.0).unwrap();
        let after_dags = engine.arena_bytes();
        let mut flows = engine.distribute_fresh();
        for rule in [SplitRule::EvenEcmp, SplitRule::Exponential(&w)] {
            engine.distribute_into(&sub, rule, &mut flows).unwrap();
            let grown = engine.arena_bytes() - after_dags;
            assert!(
                grown <= one_table,
                "{count} destinations: distribution grew the arenas by {grown} bytes, \
                 one table is {one_table}"
            );
        }
    }
}

/// (b) The Dijkstra scratch is sized by the worker count, not the
/// destination count: a sequential build over every destination leaves
/// the workspace exactly as large as a build over one.
#[test]
fn sequential_scratch_does_not_grow_with_destinations() {
    let (net, _, w) = tiered();
    let g = net.graph();
    let csr = Csr::in_of(g);
    let all: Vec<NodeId> = g.nodes().collect();
    let build = |ws: &mut RoutingWorkspace, dests: &[NodeId]| {
        let mut set = DagSet::new();
        build_dag_set(g, &csr, &w, dests, 0.0, Parallelism::Never, ws, &mut set).unwrap();
        ws.arena_bytes()
    };

    let mut ws = RoutingWorkspace::new();
    let one = build(&mut ws, &all[..1]);
    assert!(one > 0);
    assert_eq!(build(&mut ws, &all), one);

    let mut fresh = RoutingWorkspace::new();
    assert_eq!(build(&mut fresh, &all), one);
}

/// (c) Node and edge ids are 4 bytes: `new` accepts `u32::MAX` and
/// panics past it, and so does `NodeId::range`.
#[test]
fn ids_are_checked_against_u32() {
    let max = u32::MAX as usize;
    assert_eq!(NodeId::new(max).index(), max);
    assert_eq!(EdgeId::new(max).index(), max);
    assert_eq!(size_of::<NodeId>(), 4);
    assert_eq!(size_of::<EdgeId>(), 4);
    let node = std::panic::catch_unwind(|| NodeId::new(max + 1));
    let edge = std::panic::catch_unwind(|| EdgeId::new(max + 1));
    assert!(node.is_err(), "NodeId::new accepted u32::MAX + 1");
    assert!(edge.is_err(), "EdgeId::new accepted u32::MAX + 1");
    // `range` checks the whole run once: its last id may be u32::MAX.
    assert!(NodeId::range(3).eq([0, 1, 2].map(NodeId::new)));
    assert_eq!(NodeId::range(max + 1).next_back(), Some(NodeId::new(max)));
    assert!(std::panic::catch_unwind(|| NodeId::range(max + 2).count()).is_err());
}
