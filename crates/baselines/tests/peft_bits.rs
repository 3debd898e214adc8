//! Pins the exact bits of Downward PEFT's routing, the §V.D baseline.
//!
//! Each case folds an FNV-1a digest over the `to_bits` of every flow
//! `PeftRouting::route` returns (per destination, then the aggregate) and
//! over every forwarding-table row (`(edge, ratio)` entries per
//! `(destination, router)` cell). Any change to how PEFT obtains its
//! shortest distances, orders its nodes or accumulates its splits that
//! moves a single bit fails here, even when the values still agree to
//! tolerance.

use spef_baselines::{ospf, PeftRouting};
use spef_graph::NodeId;
use spef_topology::{standard, Network, TrafficMatrix};

/// FNV-1a over the little-endian bytes of each value.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat_u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.eat_u64(x.to_bits());
        }
    }

    fn eat_peft(&mut self, net: &Network, peft: &PeftRouting) {
        let flows = peft.flows();
        for &t in flows.destinations() {
            self.eat_all(flows.for_destination(t).expect("listed destination"));
        }
        self.eat_all(flows.aggregate());
        let fib = peft.forwarding_table();
        for &t in fib.destinations() {
            for u in 0..net.node_count() {
                let row = fib
                    .next_hops(NodeId::new(u), t)
                    .expect("covered destination");
                self.eat_u64(row.len() as u64);
                for &(e, r) in row {
                    self.eat_u64(e.index() as u64);
                    self.eat_u64(r.to_bits());
                }
            }
        }
    }
}

/// One case: `net` under Fortz–Thorup demands (seed 1) at network load
/// 0.05, routed once with InvCap weights and once with the varied integer
/// weights `1 + e mod 7`, which make unequal-cost downward paths and
/// equal-distance ties.
fn digest(net: &Network) -> u64 {
    let tm = TrafficMatrix::fortz_thorup(net, 1).scaled_to_network_load(net, 0.05);
    let varied: Vec<f64> = (0..net.link_count()).map(|e| (1 + e % 7) as f64).collect();
    let mut digest = Digest::new();
    for weights in [ospf::invcap_weights(net), varied] {
        let peft = PeftRouting::route(net, &tm, &weights).expect("peft route");
        digest.eat_peft(net, &peft);
    }
    digest.0
}

#[test]
fn peft_abilene_is_bit_pinned() {
    let d = digest(&standard::abilene());
    assert_eq!(d, 0xab14_d6a1_3e28_5f7d, "digest {d:#018x}");
}

#[test]
fn peft_cernet2_is_bit_pinned() {
    let d = digest(&standard::cernet2());
    assert_eq!(d, 0x2d9b_f572_9de8_c389, "digest {d:#018x}");
}
