//! Property tests: the CSR batched engine is **bit-identical** to the
//! legacy per-destination path.
//!
//! [`ShortestPathDag::build`] is kept as an independent reference
//! implementation (plain Dijkstra over `Vec<Vec<EdgeId>>` adjacency, fresh
//! allocations per call); [`build_dag_set`] is the arena-reusing CSR
//! engine. On random graphs and weights, every observable — distances,
//! DAG edge sets, successor order, processing order, path counts — must
//! agree exactly (`==` on floats, not approximately), and must not depend
//! on the parallel schedule. The set stores no edge flags or path counts,
//! so those are compared through [`DagSet::to_shortest_path_dag`], which
//! derives them from the successor lists.

use proptest::prelude::*;
use spef_graph::{
    build_dag_set, Csr, DagSet, Graph, NodeId, Parallelism, RoutingWorkspace, ShortestPathDag,
};

/// Strategy: a strongly connected digraph (Hamiltonian backbone plus
/// random chords, possibly parallel edges) with weights in [0, 10].
fn random_network() -> impl Strategy<Value = (Graph, Vec<f64>)> {
    (3usize..14).prop_flat_map(|n| {
        let extra = 0usize..(n * 3);
        (
            Just(n),
            extra.prop_flat_map(move |k| proptest::collection::vec((0..n, 0..n), k..=k)),
            proptest::collection::vec(0.0f64..10.0, n + n * 3),
        )
            .prop_map(|(n, chords, weights)| {
                let mut g = Graph::with_nodes(n);
                for i in 0..n {
                    g.add_edge(i.into(), ((i + 1) % n).into());
                }
                for (u, v) in chords {
                    if u != v {
                        g.add_edge(u.into(), v.into());
                    }
                }
                let w = weights[..g.edge_count()].to_vec();
                (g, w)
            })
    })
}

/// Strategy: the same networks with integer weights in `0..=3`, so
/// distances tie often, and zero weights settle equal-distance nodes out
/// of id order.
fn tie_heavy_network() -> impl Strategy<Value = (Graph, Vec<f64>)> {
    random_network().prop_map(|(g, w)| {
        let w = w.iter().map(|x| (x * 0.4).floor()).collect();
        (g, w)
    })
}

fn build_batched(g: &Graph, w: &[f64], dests: &[NodeId], tol: f64, par: Parallelism) -> DagSet {
    let csr = Csr::in_of(g);
    let mut ws = RoutingWorkspace::new();
    let mut set = DagSet::new();
    build_dag_set(g, &csr, w, dests, tol, par, &mut ws, &mut set).unwrap();
    set
}

/// Asserts that the engine's DAG of every destination equals the legacy
/// DAG on every observable: the view's distances, orders and successor
/// lists, and the path counts and on-DAG flags the materialised DAG
/// derives from them.
fn assert_matches_legacy(g: &Graph, w: &[f64], tol: f64, par: Parallelism) {
    let dests: Vec<NodeId> = g.nodes().collect();
    let set = build_batched(g, w, &dests, tol, par);
    let mut successors = 0;
    for (i, &t) in dests.iter().enumerate() {
        let legacy = ShortestPathDag::build(g, w, t, tol).unwrap();
        let view = set.dag(i);
        let owned = set.to_shortest_path_dag(i, g);
        // Exact float equality: same relaxation order, same sums.
        assert_eq!(view.distances(), legacy.distances());
        assert_eq!(
            view.nodes_by_decreasing_distance(),
            legacy.nodes_by_decreasing_distance()
        );
        for u in g.nodes() {
            assert_eq!(view.successors(u), legacy.successors(u));
            assert_eq!(owned.path_count(u), legacy.path_count(u));
            successors += legacy.successors(u).len();
        }
        for e in g.edge_ids() {
            assert_eq!(owned.contains_edge(e), legacy.contains_edge(e));
        }
    }
    assert_eq!(set.successor_total(), successors);
}

proptest! {
    /// Engine DAGs equal legacy DAGs on every observable, for exact and
    /// positive tolerances.
    #[test]
    fn dag_set_is_bit_identical_to_legacy(
        (g, w) in random_network(),
        tol in prop_oneof![Just(0.0f64), 0.0f64..2.0],
    ) {
        assert_matches_legacy(&g, &w, tol, Parallelism::Never);
    }

    /// The same on tie-heavy integer weights, whose processing orders have
    /// many equal-distance runs that must come out id-sorted, serially
    /// and under the threaded fan-out.
    #[test]
    fn tie_heavy_dag_set_is_bit_identical_to_legacy(
        (g, w) in tie_heavy_network(),
        tol in 0.1f64..2.0,
    ) {
        for tol in [0.0, tol] {
            for par in [Parallelism::Never, Parallelism::Always] {
                assert_matches_legacy(&g, &w, tol, par);
            }
        }
    }

    /// The materialised owned DAGs (what `spef_core::build_dags` returns)
    /// also match, including predecessor lists.
    #[test]
    fn materialised_dags_match_legacy((g, w) in random_network()) {
        let dests: Vec<NodeId> = g.nodes().collect();
        let set = build_batched(&g, &w, &dests, 0.0, Parallelism::Auto);
        for (i, &t) in dests.iter().enumerate() {
            let owned = set.to_shortest_path_dag(i, &g);
            let legacy = ShortestPathDag::build(&g, &w, t, 0.0).unwrap();
            prop_assert_eq!(owned.distances(), legacy.distances());
            for u in g.nodes() {
                prop_assert_eq!(owned.successors(u), legacy.successors(u));
                prop_assert_eq!(owned.predecessors(u), legacy.predecessors(u));
            }
        }
    }

    /// Results are independent of the parallel schedule: forcing the
    /// threaded fan-out produces the very same arena contents as the
    /// sequential build.
    #[test]
    fn schedule_independence((g, w) in random_network(), tol in 0.0f64..1.0) {
        let dests: Vec<NodeId> = g.nodes().collect();
        let serial = build_batched(&g, &w, &dests, tol, Parallelism::Never);
        let parallel = build_batched(&g, &w, &dests, tol, Parallelism::Always);
        for i in 0..dests.len() {
            let (a, b) = (serial.dag(i), parallel.dag(i));
            prop_assert_eq!(a.distances(), b.distances());
            prop_assert_eq!(
                a.nodes_by_decreasing_distance(),
                b.nodes_by_decreasing_distance()
            );
            for u in g.nodes() {
                prop_assert_eq!(a.successors(u), b.successors(u));
            }
        }
    }

    /// Arena reuse leaves no residue: rebuilding with different weights in
    /// the same workspace/set equals a fresh build.
    #[test]
    fn workspace_reuse_has_no_residue(
        (g, w) in random_network(),
        scale in 0.1f64..3.0,
    ) {
        let dests: Vec<NodeId> = g.nodes().collect();
        let w2: Vec<f64> = w.iter().map(|x| x * scale).collect();
        let csr = Csr::in_of(&g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DagSet::new();
        // Warm the arenas with the first weights, then rebuild with the
        // second and compare to an entirely fresh engine.
        build_dag_set(&g, &csr, &w, &dests, 0.0, Parallelism::Never, &mut ws, &mut set)
            .unwrap();
        build_dag_set(&g, &csr, &w2, &dests, 0.0, Parallelism::Never, &mut ws, &mut set)
            .unwrap();
        let fresh = build_batched(&g, &w2, &dests, 0.0, Parallelism::Never);
        for i in 0..dests.len() {
            let (a, b) = (set.dag(i), fresh.dag(i));
            prop_assert_eq!(a.distances(), b.distances());
            for u in g.nodes() {
                prop_assert_eq!(a.successors(u), b.successors(u));
            }
        }
    }
}

/// The threaded code path really runs multi-threaded when worker threads
/// are available: force a thread count through the shim's env knob in a
/// dedicated process-wide test and re-check equivalence. (On single-core
/// CI this is the only way the scoped-thread fan-out executes.)
#[test]
fn parallel_fanout_with_forced_threads_matches_serial() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    let mut g = Graph::with_nodes(40);
    for i in 0..40usize {
        g.add_edge(i.into(), ((i + 1) % 40).into());
        g.add_edge(i.into(), ((i + 7) % 40).into());
        g.add_edge(((i + 3) % 40).into(), i.into());
    }
    let w: Vec<f64> = (0..g.edge_count())
        .map(|e| 0.5 + ((e * 37) % 11) as f64)
        .collect();
    let dests: Vec<NodeId> = g.nodes().collect();
    let serial = build_batched(&g, &w, &dests, 0.25, Parallelism::Never);
    let parallel = build_batched(&g, &w, &dests, 0.25, Parallelism::Always);
    for i in 0..dests.len() {
        let (a, b) = (serial.dag(i), parallel.dag(i));
        assert_eq!(a.distances(), b.distances());
        assert_eq!(
            a.nodes_by_decreasing_distance(),
            b.nodes_by_decreasing_distance()
        );
        for u in g.nodes() {
            assert_eq!(a.successors(u), b.successors(u));
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
