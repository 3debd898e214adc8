//! Property tests: the batched [`RoutingEngine`] produces split ratios and
//! flows **bit-identical** to the legacy per-destination
//! `ShortestPathDag::build` + `SplitTable::build` path, independent of the
//! parallel schedule.

use proptest::prelude::*;
use spef_core::{traffic_distribution, RoutingEngine, SplitRule, SplitTable};
use spef_graph::{EdgeId, NodeId, Parallelism, ShortestPathDag};
use spef_topology::{gen, TrafficMatrix};

/// Strategy: a small random duplex network, a demand set, and a random
/// second-weight vector.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine flows equal the legacy distribution exactly, per destination
    /// and in aggregate, under both split rules.
    #[test]
    fn engine_flows_match_legacy_bit_for_bit((net, tm, v) in random_instance()) {
        let g = net.graph();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();

        // Independent legacy path: per-destination DAGs and split tables.
        let dags: Vec<ShortestPathDag> = dests
            .iter()
            .map(|&t| ShortestPathDag::build(g, &w, t, 0.0).unwrap())
            .collect();

        for par in [Parallelism::Never, Parallelism::Always] {
            let mut engine = RoutingEngine::with_parallelism(g, par);
            engine.build_dags(&w, &dests, 0.0).unwrap();
            for rule in [SplitRule::EvenEcmp, SplitRule::Exponential(&v)] {
                let legacy = traffic_distribution(g, &dags, &tm, rule).unwrap();
                let mine = engine.distribute(&tm, rule).unwrap();
                prop_assert_eq!(mine.aggregate(), legacy.aggregate());
                for &t in &dests {
                    prop_assert_eq!(mine.for_destination(t), legacy.for_destination(t));
                }
            }
        }
    }

    /// Engine split tables equal legacy `SplitTable::build` exactly:
    /// same next-hop sets, same ratio bits, same log path sum bits. The
    /// third rule mixes `+∞` second weights (a `−∞` log-term, which
    /// `validate_rule` accepts) and `exp`-underflowing ones into the
    /// tie-prone multiples of 0.29.
    #[test]
    fn engine_split_tables_match_legacy((net, tm, v) in random_instance()) {
        let g = net.graph();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let mut engine = RoutingEngine::new(g);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let extreme: Vec<f64> = v
            .iter()
            .enumerate()
            .map(|(e, &x)| match e % 5 {
                0 => f64::INFINITY,
                1 => 800.0,
                _ => x,
            })
            .collect();
        let bits = |hops: &[(EdgeId, f64)]| -> Vec<(EdgeId, u64)> {
            hops.iter().map(|&(e, r)| (e, r.to_bits())).collect()
        };

        for rule in [
            SplitRule::EvenEcmp,
            SplitRule::Exponential(&v),
            SplitRule::Exponential(&extreme),
        ] {
            let tables = engine.build_split_tables(rule).unwrap();
            for (i, &t) in dests.iter().enumerate() {
                let dag = ShortestPathDag::build(g, &w, t, 0.0).unwrap();
                let legacy = SplitTable::build(g, &dag, rule).unwrap();
                let view = tables.table(i);
                for u in g.nodes() {
                    prop_assert_eq!(bits(view.next_hops(u)), bits(legacy.next_hops(u)));
                    let (a, b) = (view.log_path_sum(u), legacy.log_path_sum(u));
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "log_path_sum mismatch at {}: {} vs {}",
                        u,
                        a,
                        b
                    );
                }
            }
        }
    }

    /// Buffer reuse across iterations with changing weights leaves no
    /// residue: iteration k equals a from-scratch computation.
    #[test]
    fn iterated_engine_equals_fresh_computation((net, tm, v) in random_instance()) {
        let g = net.graph();
        let dests = tm.destinations();
        let mut engine = RoutingEngine::new(g);
        let mut flows = engine.distribute_fresh();
        for k in 1..=3u32 {
            let w: Vec<f64> = net
                .capacities()
                .iter()
                .enumerate()
                .map(|(e, c)| 1.0 / c + 0.07 * (k as f64) * ((e % 5) as f64))
                .collect();
            engine.build_dags(&w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::Exponential(&v), &mut flows)
                .unwrap();
            let dags: Vec<ShortestPathDag> = dests
                .iter()
                .map(|&t| ShortestPathDag::build(g, &w, t, 0.0).unwrap())
                .collect();
            let fresh = traffic_distribution(g, &dags, &tm, SplitRule::Exponential(&v)).unwrap();
            prop_assert_eq!(flows.aggregate(), fresh.aggregate());
        }
    }
}

/// The split-table kernel skips the `exp` and `ln` calls whose results
/// are fixed: `exp(±0) = 1` and `ln(1) = +0` exactly (IEEE 754, C99
/// Annex F). A libm that broke this would shift every committed result,
/// so it fails here first.
#[test]
fn exp_and_ln_are_exact_where_the_split_kernel_skips_them() {
    use std::hint::black_box;
    assert_eq!(black_box(0.0f64).exp().to_bits(), 1.0f64.to_bits());
    assert_eq!(black_box(-0.0f64).exp().to_bits(), 1.0f64.to_bits());
    assert_eq!(black_box(1.0f64).ln().to_bits(), 0.0f64.to_bits());
}
