//! Property tests pinning the flat-arena simplex engine to the guarantees
//! the legacy dense engine established: for random routing-shaped LPs the
//! returned primal `x` is feasible, strong duality holds, and
//! complementary slackness holds.

use proptest::prelude::*;
use spef_graph::Graph;
use spef_lp::simplex::{LinearProgram, Relation};

const TOL: f64 = 1e-6;

/// A random strongly connected digraph (backbone cycle + chords) with
/// capacities, costs, and a single source/sink demand — the shape of every
/// LP the TE pipeline builds.
fn random_routing_lp() -> impl Strategy<Value = (Graph, Vec<f64>, Vec<f64>, usize, usize, f64)> {
    (3usize..8).prop_flat_map(|n| {
        let chords = proptest::collection::vec((0..n, 0..n), 0..(2 * n));
        (
            Just(n),
            chords,
            proptest::collection::vec(1.0f64..8.0, 4 * n),
            proptest::collection::vec(0.0f64..5.0, 4 * n),
            0..n,
            0..n,
            0.5f64..4.0,
        )
            .prop_map(|(n, chords, caps, costs, s, t, demand)| {
                let mut g = Graph::with_nodes(n);
                for i in 0..n {
                    g.add_edge(i.into(), ((i + 1) % n).into());
                }
                for (u, v) in chords {
                    if u != v {
                        g.add_edge(u.into(), v.into());
                    }
                }
                let m = g.edge_count();
                let t = if s == t { (t + 1) % n } else { t };
                (g, caps[..m].to_vec(), costs[..m].to_vec(), s, t, demand)
            })
    })
}

struct RoutingLp {
    lp: LinearProgram,
    cap_rows: Vec<spef_lp::simplex::ConstraintId>,
    node_rows: Vec<spef_lp::simplex::ConstraintId>,
}

fn build_routing_lp(
    g: &Graph,
    caps: &[f64],
    costs: &[f64],
    s: usize,
    t: usize,
    demand: f64,
) -> RoutingLp {
    let m = g.edge_count();
    let mut lp = LinearProgram::minimize(m);
    let mut cap_rows = Vec::new();
    for e in 0..m {
        lp.set_objective(e, costs[e]);
        cap_rows.push(lp.add_constraint(&[(e, 1.0)], Relation::Le, caps[e]));
    }
    let mut node_rows = Vec::new();
    for node in g.nodes() {
        let mut row: Vec<(usize, f64)> = Vec::new();
        for &e in g.out_edges(node) {
            row.push((e.index(), 1.0));
        }
        for &e in g.in_edges(node) {
            row.push((e.index(), -1.0));
        }
        let rhs = if node.index() == s {
            demand
        } else if node.index() == t {
            -demand
        } else {
            0.0
        };
        node_rows.push(lp.add_constraint(&row, Relation::Eq, rhs));
    }
    RoutingLp {
        lp,
        cap_rows,
        node_rows,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The primal certificate: `x ≥ 0`, within capacity on every link, and
    /// exactly conserving flow at every node.
    #[test]
    fn returned_x_is_feasible((g, caps, costs, s, t, demand) in random_routing_lp()) {
        let built = build_routing_lp(&g, &caps, &costs, s, t, demand);
        let Ok(sol) = built.lp.solve() else { return Ok(()); };
        for (e, &cap) in caps.iter().enumerate() {
            prop_assert!(sol.value(e) >= -TOL, "negative flow {} on e{e}", sol.value(e));
            prop_assert!(sol.value(e) <= cap + TOL,
                "flow {} exceeds cap {} on e{e}", sol.value(e), cap);
        }
        let div = g.divergence(sol.values());
        for node in g.nodes() {
            let want = if node.index() == s { demand }
                else if node.index() == t { -demand }
                else { 0.0 };
            prop_assert!((div[node.index()] - want).abs() < TOL,
                "conservation violated at {node}: {} vs {want}", div[node.index()]);
        }
    }

    /// The dual certificate: strong duality and complementary slackness,
    /// i.e. the duals prove the primal optimal.
    #[test]
    fn strong_duality_and_complementary_slackness(
        (g, caps, costs, s, t, demand) in random_routing_lp()
    ) {
        let built = build_routing_lp(&g, &caps, &costs, s, t, demand);
        let Ok(sol) = built.lp.solve() else { return Ok(()); };
        // Extraction canonicalises noise: every entry below 1e-11 in
        // magnitude, either zero included, is exactly `+0.0`. The kernel's
        // bit-identity with a full-row update rests on this (it may leave
        // `-0.0` where the full-row update left `+0.0`, and vice versa).
        for &v in sol.values().iter().chain(sol.duals()) {
            if v.abs() < 1e-11 {
                prop_assert_eq!(v.to_bits(), 0.0f64.to_bits(), "uncanonical zero {:e}", v);
            }
        }
        // Strong duality: c'x == b'y over all rows.
        let mut by = 0.0;
        for (e, &cap) in caps.iter().enumerate() {
            by += cap * sol.dual(built.cap_rows[e]);
        }
        by += demand * sol.dual(built.node_rows[s]) - demand * sol.dual(built.node_rows[t]);
        prop_assert!((sol.objective() - by).abs() < TOL,
            "strong duality violated: {} vs {}", sol.objective(), by);
        for (e, u, v) in g.edges() {
            let rc = costs[e.index()] - sol.dual(built.cap_rows[e.index()])
                - (sol.dual(built.node_rows[u.index()]) - sol.dual(built.node_rows[v.index()]));
            // Dual feasibility: reduced costs non-negative (min problem).
            prop_assert!(rc > -TOL, "negative reduced cost {rc} on {e}");
            // Complementary slackness, variable side.
            if sol.value(e.index()) > TOL {
                prop_assert!(rc.abs() < TOL, "support edge {e} has reduced cost {rc}");
            }
            // Complementary slackness, constraint side: a capacity row with
            // a nonzero price must be binding.
            let y = sol.dual(built.cap_rows[e.index()]);
            if y.abs() > TOL {
                prop_assert!((sol.value(e.index()) - caps[e.index()]).abs() < TOL,
                    "priced row on {e} is slack: x = {}, cap = {}",
                    sol.value(e.index()), caps[e.index()]);
            }
        }
    }
}
