//! Property tests: the flat CSR [`ForwardingTable`] is **bit-identical**
//! to the legacy nested-`Vec` forwarding table it replaced.
//!
//! The reference implementation carried here is a faithful copy of the
//! pre-flat `ForwardingTable`: `tables[dest][node]` rows behind an
//! `O(dests)` destination scan, and the simulator's per-draw linear
//! accumulation walk (`acc += ratio; if x < acc`) with its trailing
//! `hops.last()` fallback. For every `(node, destination)` cell the flat
//! rows must match entry for entry, and for every uniform draw
//! `FibRow::select`, which walks the row's running ratio sum, must pick the
//! exact edge the linear walk picked — that equality, plus
//! the unchanged RNG stream, is what makes netsim `SimReport`s
//! bit-identical across the representation swap (pinned end-to-end in CI
//! by the committed `BENCH_sim.json` sweep baseline, which equals the
//! nested-`Vec` FIB's reports bit for bit).

use proptest::prelude::*;
use spef_core::{ForwardingTable, RoutingEngine, SplitRule};
use spef_graph::{EdgeId, NodeId};
use spef_topology::{gen, TrafficMatrix};

/// The legacy representation: owned nested rows + linear destination scan.
struct LegacyTable {
    dests: Vec<NodeId>,
    tables: Vec<Vec<Vec<(EdgeId, f64)>>>,
}

impl LegacyTable {
    fn next_hops(&self, node: NodeId, dest: NodeId) -> Option<&[(EdgeId, f64)]> {
        let di = self.dests.iter().position(|&d| d == dest)?;
        self.tables[di].get(node.index()).map(|v| v.as_slice())
    }
}

/// The legacy per-draw selection: linear accumulation with the silent
/// last-entry fallback for draws that float drift pushed past the sum.
fn legacy_select(hops: &[(EdgeId, f64)], x: f64) -> EdgeId {
    let mut acc = 0.0;
    for &(e, p) in hops {
        acc += p;
        if x < acc {
            return e;
        }
    }
    hops.last().expect("non-empty next-hop list").0
}

/// Strategy: a random duplex network, demands, and second weights — the
/// inputs the SPEF pipeline turns into split tables.
fn random_instance() -> impl Strategy<Value = (spef_topology::Network, TrafficMatrix, Vec<f64>)> {
    (4usize..10, 0u64..5000, 2usize..6, 0u64..97).prop_map(|(n, seed, pairs, vseed)| {
        let links = 2 * (n - 1) + 2 * (n / 2);
        let net = gen::random_network("prop", n, links, seed);
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
        let v: Vec<f64> = (0..net.link_count())
            .map(|e| ((e as u64 * 13 + vseed) % 7) as f64 * 0.29)
            .collect();
        (net, tm, v)
    })
}

/// Builds the engine split tables and both representations from them.
fn build_pair(
    net: &spef_topology::Network,
    tm: &TrafficMatrix,
    v: &[f64],
) -> (ForwardingTable, LegacyTable) {
    let g = net.graph();
    let dests = tm.destinations();
    let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
    let mut engine = RoutingEngine::new(g);
    engine.build_dags(&w, &dests, 0.0).unwrap();
    let tables = engine
        .build_split_tables(SplitRule::Exponential(v))
        .unwrap();
    let flat = ForwardingTable::from_split_table_set(g.node_count(), &dests, tables);
    let rows: Vec<Vec<Vec<(EdgeId, f64)>>> = (0..tables.len())
        .map(|i| {
            let t = tables.table(i);
            (0..g.node_count())
                .map(|u| t.next_hops(NodeId::new(u)).to_vec())
                .collect()
        })
        .collect();
    let legacy = LegacyTable {
        dests: dests.clone(),
        tables: rows,
    };
    (flat, legacy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every `(node, dest)` lookup — hit, miss, and empty-row — agrees
    /// with the legacy nested rows entry for entry.
    #[test]
    fn lookups_match_legacy_bit_for_bit((net, tm, v) in random_instance()) {
        let (flat, legacy) = build_pair(&net, &tm, &v);
        let n = net.node_count();
        for d in 0..n {
            let dest = NodeId::new(d);
            for u in 0..n {
                let node = NodeId::new(u);
                prop_assert_eq!(flat.next_hops(node, dest), legacy.next_hops(node, dest));
            }
        }
        // Totals: the O(1) entry count equals the exhaustive legacy walk.
        let legacy_total: usize = legacy
            .tables
            .iter()
            .flat_map(|per_node| per_node.iter().map(Vec::len))
            .sum();
        prop_assert_eq!(flat.entry_count(), legacy_total);
    }

    /// The row selection picks the same edge as the legacy linear walk
    /// for a dense sweep of draws — including draws on and around every
    /// cumulative boundary, where tie-breaking matters.
    #[test]
    fn selection_matches_legacy_walk((net, tm, v) in random_instance()) {
        let (flat, legacy) = build_pair(&net, &tm, &v);
        for (slot, &dest) in flat.destinations().iter().enumerate() {
            for u in 0..net.node_count() {
                let node = NodeId::new(u);
                let row = flat.row(slot as u32, node);
                let hops = legacy.next_hops(node, dest).unwrap();
                prop_assert_eq!(row.hops(), hops);
                if row.is_empty() {
                    continue;
                }
                // Dense sweep over [0, 1).
                for k in 0..64 {
                    let x = k as f64 / 64.0;
                    prop_assert_eq!(row.select(x), legacy_select(hops, x), "x = {}", x);
                }
                // Adversarial draws at the exact float boundaries: the
                // running sums themselves (a tie goes right in both
                // implementations) and one ulp either side.
                let mut acc = 0.0f64;
                for &(_, p) in hops {
                    acc += p;
                    for x in [acc.next_down(), acc, acc.next_up(), 1.0f64.next_down()] {
                        if (0.0..1.0).contains(&x) {
                            prop_assert_eq!(row.select(x), legacy_select(hops, x), "x = {}", x);
                        }
                    }
                }
            }
        }
    }
}

/// Many equal ratios accumulate float drift (`k × 1/k ≠ 1` in binary):
/// the row must still select exactly like the legacy walk with its
/// last-entry fallback, for draws up to the last representable value
/// below 1.
#[test]
fn drifted_rows_select_identically() {
    for k in [3usize, 6, 7, 9, 11, 13] {
        let hops: Vec<(EdgeId, f64)> = (0..k).map(|e| (EdgeId::new(e), 1.0 / k as f64)).collect();
        let fib = ForwardingTable::new(
            2,
            vec![NodeId::new(1)],
            vec![vec![hops.clone(), Vec::new()]],
        );
        let row = fib.row(0, NodeId::new(0));
        let mut x = 0.0f64;
        while x < 1.0 {
            assert_eq!(row.select(x), legacy_select(&hops, x), "k = {k}, x = {x}");
            x = (x + 0.0099).min(1.0f64.next_down());
            if x == 1.0f64.next_down() {
                assert_eq!(row.select(x), legacy_select(&hops, x), "k = {k}, sup draw");
                break;
            }
        }
    }
}

/// A row whose running sum passes 1.0 before its last entry (ratios may
/// sum to 1 within `1e-6`): every draw below 1 is taken before the trailing
/// zero-ratio entry, exactly as the legacy walk takes it, including draws
/// on and around the one interior boundary.
#[test]
fn overshooting_row_selects_identically() {
    let hops = vec![
        (EdgeId::new(0), 0.6),
        (EdgeId::new(1), 0.4000005),
        (EdgeId::new(2), 0.0),
    ];
    let fib = ForwardingTable::new(
        2,
        vec![NodeId::new(1)],
        vec![vec![hops.clone(), Vec::new()]],
    );
    let row = fib.row(0, NodeId::new(0));
    let boundary = 0.6f64;
    for x in [
        0.0,
        boundary.next_down(),
        boundary,
        boundary.next_up(),
        0.999_999,
        1.0f64.next_down(),
    ] {
        assert_eq!(row.select(x), legacy_select(&hops, x), "x = {x}");
    }
    assert_eq!(row.select(1.0f64.next_down()), EdgeId::new(1));
}
