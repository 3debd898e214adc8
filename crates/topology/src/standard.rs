//! The paper's concrete networks: Fig. 1, Fig. 4, Abilene and CERNET2.
//!
//! Abilene uses the historical Internet2 11-PoP topology (14 duplex
//! circuits, 10 Gb/s). CERNET2 and the Fig. 4 example are *reconstructions*:
//! the paper's figures are not machine-readable, so we rebuilt topologies
//! with the stated node/link counts and capacity classes that reproduce the
//! qualitative behaviour the paper reports.

use spef_graph::NodeId;

use crate::{Network, TrafficMatrix};

/// The 4-node example of Fig. 1 / TABLE I.
///
/// Nodes `1..4` (ids `0..3`); four unit-capacity directed links
/// `(1,3), (3,4), (1,2), (2,3)` in that edge-id order, matching the rows of
/// TABLE I.
pub fn fig1() -> Network {
    let mut b = Network::builder("Fig1");
    let n1 = b.add_node("1", (0.0, 1.0));
    let n2 = b.add_node("2", (1.0, 2.0));
    let n3 = b.add_node("3", (2.0, 1.0));
    let n4 = b.add_node("4", (3.0, 1.0));
    b.add_link(n1, n3, 1.0); // e0 = (1,3)
    b.add_link(n3, n4, 1.0); // e1 = (3,4)
    b.add_link(n1, n2, 1.0); // e2 = (1,2)
    b.add_link(n2, n3, 1.0); // e3 = (2,3)
                             // Return links so the network is strongly connected (the paper's
                             // example only uses the forward directions; these carry no demand and
                             // stay empty).
    b.add_link(n4, n3, 1.0); // e4
    b.add_link(n3, n1, 1.0); // e5
    b.build().expect("fig1 is valid by construction")
}

/// The demands of the Fig. 1 example: `d(1→3) = 1`, `d(3→4) = 0.9`.
pub fn fig1_demands() -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(4);
    tm.set(NodeId::new(0), NodeId::new(2), 1.0);
    tm.set(NodeId::new(2), NodeId::new(3), 0.9);
    tm
}

/// Number of links of [`fig1`] that the paper's TABLE I reports on
/// (the first four edge ids; the remaining links are unused returns).
pub const FIG1_REPORTED_LINKS: usize = 4;

/// The 7-node, 13-link example of Fig. 4 (reconstruction).
///
/// Every link has capacity 5. Link ids follow the paper's link indices
/// 1..13 (edge id = paper index − 1). The reconstruction preserves the
/// facts the paper states about this network:
///
/// * OSPF (InvCap + ECMP) overloads one bottleneck link to utilization 1.6
///   (two 4-unit demands share it),
/// * the optimal distribution at β = 0 saturates that link exactly
///   (utilization 1.0) and its utilization decreases as β grows,
/// * longer alternate paths through nodes 5 and 6 give SPEF room to split.
pub fn fig4() -> Network {
    let mut b = Network::builder("Fig4");
    let n: Vec<NodeId> = (1..=7)
        .map(|i| {
            b.add_node(
                i.to_string(),
                ((i as f64) * 0.7, ((i * 3) % 5) as f64 * 0.5),
            )
        })
        .collect();
    let l = |k: usize| n[k - 1];
    let links = [
        (1, 4), // e0  = link 1 (the bottleneck)
        (4, 2), // e1  = link 2
        (4, 3), // e2  = link 3
        (1, 5), // e3  = link 4
        (5, 7), // e4  = link 5
        (1, 6), // e5  = link 6
        (6, 7), // e6  = link 7
        (3, 2), // e7  = link 8
        (7, 3), // e8  = link 9
        (5, 6), // e9  = link 10
        (7, 2), // e10 = link 11
        (4, 6), // e11 = link 12
        (5, 4), // e12 = link 13
    ];
    for (u, v) in links {
        b.add_link(l(u), l(v), 5.0);
    }
    // Unused return links (the paper: "we omit six links unused"): these
    // restore strong connectivity and never carry demand.
    for (u, v) in [(2, 1), (3, 1), (7, 1), (2, 4), (2, 3), (7, 5)] {
        b.add_link(l(u), l(v), 5.0);
    }
    b.build().expect("fig4 is valid by construction")
}

/// Number of links of [`fig4`] shown in the paper's Fig. 4/6/7 (link
/// indices 1..13 = edge ids 0..12).
pub const FIG4_SHOWN_LINKS: usize = 13;

/// The demands of the Fig. 4 example: 4 units each for
/// `1→2, 1→3, 3→2, 1→7`.
pub fn fig4_demands() -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(7);
    let pairs = [(1, 2), (1, 3), (3, 2), (1, 7)];
    for (s, t) in pairs {
        tm.set(NodeId::new(s - 1), NodeId::new(t - 1), 4.0);
    }
    tm
}

/// The Abilene backbone: 11 PoPs, 28 directed 10 Gb/s links.
///
/// Capacities are in Gb/s. Coordinates are approximate continental-US
/// positions (longitude, latitude), which drive the Fortz–Thorup demand
/// generator exactly as in the paper's §V.B.
pub fn abilene() -> Network {
    let mut b = Network::builder("Abilene");
    let cities: [(&str, (f64, f64)); 11] = [
        ("Seattle", (-122.3, 47.6)),
        ("Sunnyvale", (-122.0, 37.4)),
        ("LosAngeles", (-118.2, 34.1)),
        ("Denver", (-104.9, 39.7)),
        ("Houston", (-95.4, 29.8)),
        ("KansasCity", (-94.6, 39.1)),
        ("Indianapolis", (-86.2, 39.8)),
        ("Chicago", (-87.6, 41.9)),
        ("Atlanta", (-84.4, 33.7)),
        ("WashingtonDC", (-77.0, 38.9)),
        ("NewYork", (-74.0, 40.7)),
    ];
    let ids: Vec<NodeId> = cities
        .iter()
        .map(|(name, coord)| b.add_node(*name, *coord))
        .collect();
    let by_name = |n: &str| -> NodeId { ids[cities.iter().position(|(c, _)| *c == n).unwrap()] };
    let circuits = [
        ("Seattle", "Sunnyvale"),
        ("Seattle", "Denver"),
        ("Sunnyvale", "LosAngeles"),
        ("Sunnyvale", "Denver"),
        ("LosAngeles", "Houston"),
        ("Denver", "KansasCity"),
        ("Houston", "KansasCity"),
        ("Houston", "Atlanta"),
        ("KansasCity", "Indianapolis"),
        ("Indianapolis", "Chicago"),
        ("Indianapolis", "Atlanta"),
        ("Chicago", "NewYork"),
        ("Atlanta", "WashingtonDC"),
        ("NewYork", "WashingtonDC"),
    ];
    for (u, v) in circuits {
        b.add_duplex_link(by_name(u), by_name(v), 10.0);
    }
    b.build().expect("abilene is valid by construction")
}

/// The CERNET2 backbone (reconstruction): 20 PoPs, 44 directed links —
/// 4 directed links (Beijing↔Wuhan, Wuhan↔Guangzhou) at 10 Gb/s and the
/// remaining 40 at 2.5 Gb/s, matching the 4:1 capacity split the paper
/// describes for its bold backbone links.
///
/// Capacities are in Gb/s; coordinates are approximate (longitude,
/// latitude). Node ids follow the listing order, so `NodeId(0)` = Beijing …
/// `NodeId(19)` = Dalian; the paper's node numbers 1..20 map to
/// `NodeId(k−1)`.
pub fn cernet2() -> Network {
    let mut b = Network::builder("Cernet2");
    let cities: [(&str, (f64, f64)); 20] = [
        ("Beijing", (116.4, 39.9)),   // 1
        ("Tianjin", (117.2, 39.1)),   // 2
        ("Jinan", (117.0, 36.7)),     // 3
        ("Shanghai", (121.5, 31.2)),  // 4
        ("Nanjing", (118.8, 32.1)),   // 5
        ("Hefei", (117.3, 31.9)),     // 6
        ("Hangzhou", (120.2, 30.3)),  // 7
        ("Wuhan", (114.3, 30.6)),     // 8
        ("Changsha", (113.0, 28.2)),  // 9
        ("Guangzhou", (113.3, 23.1)), // 10
        ("Xiamen", (118.1, 24.5)),    // 11
        ("Chengdu", (104.1, 30.7)),   // 12
        ("Chongqing", (106.5, 29.6)), // 13
        ("Xian", (108.9, 34.3)),      // 14
        ("Lanzhou", (103.8, 36.1)),   // 15
        ("Zhengzhou", (113.7, 34.8)), // 16
        ("Harbin", (126.6, 45.8)),    // 17
        ("Changchun", (125.3, 43.9)), // 18
        ("Shenyang", (123.4, 41.8)),  // 19
        ("Dalian", (121.6, 38.9)),    // 20
    ];
    let ids: Vec<NodeId> = cities
        .iter()
        .map(|(name, coord)| b.add_node(*name, *coord))
        .collect();
    let by_name = |n: &str| -> NodeId { ids[cities.iter().position(|(c, _)| *c == n).unwrap()] };
    // The two bold 10 Gb/s trunks.
    b.add_duplex_link(by_name("Beijing"), by_name("Wuhan"), 10.0);
    b.add_duplex_link(by_name("Wuhan"), by_name("Guangzhou"), 10.0);
    // The 2.5 Gb/s circuits.
    let circuits = [
        ("Beijing", "Tianjin"),
        ("Tianjin", "Jinan"),
        ("Jinan", "Nanjing"),
        ("Nanjing", "Shanghai"),
        ("Shanghai", "Hangzhou"),
        ("Hangzhou", "Xiamen"),
        ("Xiamen", "Guangzhou"),
        ("Guangzhou", "Changsha"),
        ("Changsha", "Wuhan"),
        ("Wuhan", "Hefei"),
        ("Wuhan", "Chongqing"),
        ("Chongqing", "Chengdu"),
        ("Chengdu", "Xian"),
        ("Xian", "Lanzhou"),
        ("Xian", "Zhengzhou"),
        ("Zhengzhou", "Beijing"),
        ("Beijing", "Shenyang"),
        ("Shenyang", "Changchun"),
        ("Changchun", "Harbin"),
    ];
    for (u, v) in circuits {
        b.add_duplex_link(by_name(u), by_name(v), 2.5);
    }
    // 22nd circuit: Dalian spur.
    b.add_duplex_link(by_name("Shenyang"), by_name("Dalian"), 2.5);
    b.build().expect("cernet2 is valid by construction")
}

/// The simulation demands of TABLE IV, in Mb/s, keyed by the paper's node
/// numbers.
///
/// * Simple network (Fig. 4): 4 Mb/s each for `1→2, 1→3, 3→2, 1→7`
///   (link capacities 5 Mb/s) — returned by [`table4_simple_demands`].
/// * CERNET2: Gb-scale demands `11→1: 3G, 11→2: 2G, 11→20: 2G, 13→6: 1G,
///   14→1: 4G, 14→8: 2G` — returned by this function, in Gb/s.
pub fn table4_cernet2_demands() -> TrafficMatrix {
    let mut tm = TrafficMatrix::new(20);
    let gb = [
        (11, 1, 3.0),
        (11, 2, 2.0),
        (11, 20, 2.0),
        (13, 6, 1.0),
        (14, 1, 4.0),
        (14, 8, 2.0),
    ];
    for (s, t, d) in gb {
        tm.set(NodeId::new(s - 1), NodeId::new(t - 1), d);
    }
    tm
}

/// The simple-network half of TABLE IV: the Fig. 4 demand set interpreted
/// at 4 Mb/s per pair over 5 Mb/s links (identical structure to
/// [`fig4_demands`], units of Mb/s).
pub fn table4_simple_demands() -> TrafficMatrix {
    fig4_demands()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_graph::{distances_to, traversal};

    #[test]
    fn fig1_matches_table1_layout() {
        let net = fig1();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.capacities()[..4], [1.0, 1.0, 1.0, 1.0]);
        let g = net.graph();
        assert_eq!(
            (g.source(0.into()), g.target(0.into())),
            (NodeId::new(0), NodeId::new(2))
        );
        let tm = fig1_demands();
        assert_eq!(tm.total_demand(), 1.9);
    }

    #[test]
    fn fig4_has_13_shown_links_of_capacity_5() {
        let net = fig4();
        assert_eq!(net.node_count(), 7);
        assert!(net.link_count() >= FIG4_SHOWN_LINKS);
        for e in 0..FIG4_SHOWN_LINKS {
            assert_eq!(net.capacity(spef_graph::EdgeId::new(e)), 5.0);
        }
        let tm = fig4_demands();
        assert_eq!(tm.total_demand(), 16.0);
        assert_eq!(tm.pair_count(), 4);
    }

    #[test]
    fn fig4_bottleneck_is_link_1_under_hop_count_routing() {
        // Unit weights = InvCap on equal capacities. Demands 1→2 and 1→3
        // must both route via node 4 (link 1 = edge 0) as unique 2-hop
        // paths, which is the OSPF overload the paper's Fig. 6 shows.
        let net = fig4();
        let g = net.graph();
        let w = vec![1.0; g.edge_count()];
        for target in [1usize, 2] {
            // node "2" is id 1, node "3" is id 2
            let d = distances_to(g, &w, NodeId::new(target)).unwrap();
            assert_eq!(d[0], 2.0, "1→{} should be 2 hops", target + 1);
            // via node 4 (id 3): distance from 4 is 1
            assert_eq!(d[3], 1.0);
            // via node 5 (id 4) or 6 (id 5) strictly longer
            assert!(d[4] >= 2.0);
            assert!(d[5] >= 2.0);
        }
        // 1→7: two equal 2-hop paths via 5 and via 6.
        let d = distances_to(g, &w, NodeId::new(6)).unwrap();
        assert_eq!(d[0], 2.0);
        assert_eq!(d[4], 1.0);
        assert_eq!(d[5], 1.0);
    }

    #[test]
    fn abilene_matches_table3() {
        let net = abilene();
        assert_eq!(net.node_count(), 11);
        assert_eq!(net.link_count(), 28);
        assert!(net.capacities().iter().all(|&c| c == 10.0));
        assert!(traversal::is_strongly_connected(net.graph()));
    }

    #[test]
    fn cernet2_matches_table3() {
        let net = cernet2();
        assert_eq!(net.node_count(), 20);
        assert_eq!(net.link_count(), 44);
        let tens = net.capacities().iter().filter(|&&c| c == 10.0).count();
        let rest = net.capacities().iter().filter(|&&c| c == 2.5).count();
        assert_eq!(tens, 4, "exactly 4 bold 10G directed links");
        assert_eq!(rest, 40);
        assert!(traversal::is_strongly_connected(net.graph()));
    }

    #[test]
    fn cernet2_node_numbering_matches_paper_mapping() {
        let net = cernet2();
        assert_eq!(net.node_name(NodeId::new(0)), "Beijing");
        assert_eq!(net.node_name(NodeId::new(7)), "Wuhan");
        assert_eq!(net.node_name(NodeId::new(19)), "Dalian");
    }

    #[test]
    fn table4_demands_are_routable_pairs() {
        let net = cernet2();
        let tm = table4_cernet2_demands();
        assert_eq!(tm.pair_count(), 6);
        assert_eq!(tm.total_demand(), 14.0);
        // All sources/destinations exist and are connected.
        let g = net.graph();
        let w = vec![1.0; g.edge_count()];
        for (s, t, _) in tm.pairs() {
            let d = distances_to(g, &w, t).unwrap();
            assert!(d[s.index()].is_finite());
        }
    }

    #[test]
    fn demands_fit_fig1_network_size() {
        let net = fig1();
        let tm = fig1_demands();
        assert_eq!(tm.node_count(), net.node_count());
    }
}
