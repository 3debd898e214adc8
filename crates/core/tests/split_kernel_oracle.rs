//! The split kernel against the log-sum-exp formula it replaced.
//!
//! [`SplitTable::build`] (and the engine's kernel, which matches it bit
//! for bit) carries each path sum as a log offset and a scale,
//! `Z(u) = e^o(u) · s(u)`, and splits a row with `k − 1` `exp` calls and no
//! `ln`. The oracle below is the earlier log-domain table: `log Z(u) =
//! max + ln Σ exp(t_i − max)` over terms `t_i = −v_i + log Z(x_i)`, and
//! ratio `exp(t_i − log Z(u))`. The two are the same function of exact
//! arithmetic; these tests bound how far their roundings drift apart.

use proptest::prelude::*;
use spef_core::{RoutingEngine, SplitRule, SplitTable};
use spef_graph::{EdgeId, Graph, NodeId, ShortestPathDag};
use spef_topology::gen;

/// The log-domain split table of one destination DAG, as the kernel
/// computed it before path sums carried a scale.
struct LogDomainTable {
    ratios: Vec<Vec<(EdgeId, f64)>>,
    log_z: Vec<f64>,
    /// The largest finite `|t_i|` of each row (`0` for empty rows): the
    /// magnitude the rounding errors of both formulas scale with.
    largest_term: Vec<f64>,
}

fn log_domain_table(graph: &Graph, dag: &ShortestPathDag, v: Option<&[f64]>) -> LogDomainTable {
    let n = graph.node_count();
    let mut ratios = vec![Vec::new(); n];
    let mut log_z = vec![f64::NEG_INFINITY; n];
    let mut largest_term = vec![0.0f64; n];
    log_z[dag.target().index()] = 0.0;
    for &u in dag.nodes_by_decreasing_distance().iter().rev() {
        let succ = dag.successors(u);
        if u == dag.target() || succ.is_empty() {
            continue;
        }
        let terms: Vec<(EdgeId, f64)> = succ
            .iter()
            .map(|&e| {
                let v_e = v.map_or(0.0, |v| v[e.index()]);
                (e, -v_e + log_z[graph.target(e).index()])
            })
            .collect();
        let max_term = terms
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::NEG_INFINITY, f64::max);
        if max_term == f64::NEG_INFINITY {
            continue;
        }
        let sum_exp: f64 = terms.iter().map(|&(_, t)| (t - max_term).exp()).sum();
        let lz = max_term + sum_exp.ln();
        log_z[u.index()] = lz;
        largest_term[u.index()] = terms
            .iter()
            .map(|&(_, t)| t.abs())
            .filter(|t| t.is_finite())
            .fold(0.0, f64::max);
        ratios[u.index()] = terms
            .into_iter()
            .map(|(e, t)| (e, (t - lz).exp()))
            .collect();
    }
    LogDomainTable {
        ratios,
        log_z,
        largest_term,
    }
}

/// SplitMix64: a deterministic hash for the per-edge weight draws.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` for edge `e` under `seed`.
fn unit(seed: u64, e: usize) -> f64 {
    (mix(seed ^ mix(e as u64)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Second weights at `scale`: uniform in `[0, scale)`, with about one
/// edge in eight at `+∞` (an edge the split never uses).
fn second_weights(m: usize, scale: f64, seed: u64) -> Vec<f64> {
    (0..m)
        .map(|e| {
            if mix(seed.wrapping_add(e as u64)).is_multiple_of(8) {
                f64::INFINITY
            } else {
                scale * unit(seed, e)
            }
        })
        .collect()
}

/// A ratio of the kernel may differ from the oracle's by this many ε per
/// unit of the row's largest `|t_i|` (plus one): both formulas round
/// their exponents with an absolute error that grows like `|t|·ε`. The
/// largest gap these cases reach is 0.47 of this unit (1.3e-12 at
/// scale 1e4).
const RATIO_EPS_PER_TERM: f64 = 4.0;

/// Log path sums agree to this error relative to `max(1, |log Z|)`. A
/// log path sum near `0` is `A + ln Σw` with `A ≈ −ln Σw`: terms of
/// order 1 cancel, and their rounding stays absolute.
const LOG_SUM_RTOL: f64 = 1e-14;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random 8–37-node networks with tie-heavy first weights (mostly `1`,
    /// a third `2`), every node a destination, and second weights at
    /// scales 1, 40, 1e3 and 1e4 (some `+∞`) plus even ECMP: the kernel
    /// keeps the oracle's rows and matches its ratios and log path sums.
    #[test]
    fn kernel_matches_the_log_domain_formula(
        (n, seed, wseed, vseed) in (8usize..38, 0u64..10_000, 0u64..1_000, 0u64..1_000_000)
    ) {
        let links = 2 * (n - 1) + 2 * n;
        let net = gen::random_network("oracle", n, links, seed);
        let g = net.graph();
        let w: Vec<f64> = (0..g.edge_count())
            .map(|e| if mix(wseed ^ e as u64).is_multiple_of(3) { 2.0 } else { 1.0 })
            .collect();
        let scales = [1.0, 40.0, 1e3, 1e4];
        let weights: Vec<Vec<f64>> = scales
            .iter()
            .enumerate()
            .map(|(k, &s)| second_weights(g.edge_count(), s, vseed + k as u64))
            .collect();
        let mut rules = vec![(None, SplitRule::EvenEcmp)];
        rules.extend(weights.iter().map(|v| (Some(v.as_slice()), SplitRule::Exponential(v))));

        for t in g.nodes() {
            let dag = ShortestPathDag::build(g, &w, t, 0.0).unwrap();
            for &(v, rule) in &rules {
                let table = SplitTable::build(g, &dag, rule).unwrap();
                let oracle = log_domain_table(g, &dag, v);
                for u in g.nodes() {
                    let (row, want) = (table.next_hops(u), &oracle.ratios[u.index()]);
                    let edges = |r: &[(EdgeId, f64)]| r.iter().map(|&(e, _)| e).collect::<Vec<_>>();
                    prop_assert_eq!(edges(row), edges(want), "row of {} toward {}", u, t);
                    let bound = RATIO_EPS_PER_TERM
                        * f64::EPSILON
                        * (1.0 + oracle.largest_term[u.index()]);
                    for (&(e, r), &(_, o)) in row.iter().zip(want) {
                        prop_assert!(r.is_finite(), "ratio of {} toward {} is {}", e, t, r);
                        prop_assert!(
                            (r - o).abs() <= bound,
                            "ratio of {} toward {}: {} vs {} (bound {:e})", e, t, r, o, bound
                        );
                    }
                    if !row.is_empty() {
                        // k ratios rounded to ε/2 each, summed with k − 1
                        // more roundings of at most ε/2.
                        let sum: f64 = row.iter().map(|&(_, r)| r).sum();
                        prop_assert!(
                            (sum - 1.0).abs() <= row.len() as f64 * f64::EPSILON,
                            "row of {} toward {} sums to {}", u, t, sum
                        );
                    }
                    let (a, b) = (table.log_path_sum(u), oracle.log_z[u.index()]);
                    if b.is_finite() {
                        prop_assert!(
                            (a - b).abs() <= LOG_SUM_RTOL * b.abs().max(1.0),
                            "log path sum of {} toward {}: {} vs {}", u, t, a, b
                        );
                    } else {
                        prop_assert_eq!(a, b, "log path sum of {} toward {}", u, t);
                    }
                }
            }
        }
    }
}

/// A chain of `k` two-way diamonds, `a_0 → {b_0, c_0} → a_1 → … → a_k`,
/// with unit first weights: `2^k` equal-cost paths from `a_0` to `a_k`.
/// Returns the graph, the first weights, the source and the target.
fn diamond_chain(k: usize) -> (Graph, Vec<f64>, NodeId, NodeId) {
    let mut g = Graph::with_nodes(3 * k + 1);
    for i in 0..k {
        let (a, b, c, next) = (3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3);
        g.add_edge(a.into(), b.into());
        g.add_edge(a.into(), c.into());
        g.add_edge(b.into(), next.into());
        g.add_edge(c.into(), next.into());
    }
    let w = vec![1.0; g.edge_count()];
    (g, w, NodeId::new(0), NodeId::new(3 * k))
}

/// `2^600` paths pass the scale fold's `1e150 ≈ 2^498`, and `2^1100` would
/// overflow an `f64` scale that never folds. Every split stays exactly
/// even, the log path sum at the source is `k·ln 2 − 2k·v`, and the
/// engine's kernel agrees with [`SplitTable::build`] bit for bit.
#[test]
fn diamond_chains_fold_the_scale_and_split_evenly() {
    for k in [600, 1100] {
        let (g, w, source, target) = diamond_chain(k);
        let dag = ShortestPathDag::build(&g, &w, target, 0.0).unwrap();
        let uniform = vec![0.7; g.edge_count()];
        let mut engine = RoutingEngine::new(&g);
        engine.build_dags(&w, &[target], 0.0).unwrap();
        for (rule, v) in [
            (SplitRule::EvenEcmp, 0.0),
            (SplitRule::Exponential(&uniform), 0.7),
        ] {
            let table = SplitTable::build(&g, &dag, rule).unwrap();
            for u in g.nodes().filter(|&u| u != target) {
                let want = if u.index() % 3 == 0 { 2 } else { 1 };
                let hops = table.next_hops(u);
                assert_eq!(hops.len(), want, "row of {u}");
                let even = 1.0 / want as f64;
                assert!(hops.iter().all(|&(_, r)| r == even), "row of {u}: {hops:?}");
            }
            let expected = k as f64 * 2.0f64.ln() - 2.0 * k as f64 * v;
            let got = table.log_path_sum(source);
            assert!(
                (got - expected).abs() <= 1e-12 * expected.abs(),
                "{k} diamonds: log path sum {got}, expected {expected}"
            );
            let view = engine.build_split_tables(rule).unwrap().table(0);
            for u in g.nodes() {
                assert_eq!(view.next_hops(u), table.next_hops(u), "row of {u}");
                assert_eq!(
                    view.log_path_sum(u).to_bits(),
                    table.log_path_sum(u).to_bits(),
                    "log path sum of {u}"
                );
            }
        }
    }
}
