//! Pins the exact bits of the LP answers the repository is checked
//! against: the min-MLU LP (`MluSolution`) and the β = 0 TE LP.
//!
//! Each pinned case folds an FNV-1a digest over the `to_bits` of every
//! returned number, so any change to the simplex kernel that moves a single
//! bit of a certificate (a different pivot sequence, a reassociated update,
//! a `-0.0` that escapes extraction) fails here, even when the values still
//! agree to tolerance. The constants were recorded on the dense full-row
//! elimination kernel that the nonzero-column elimination replaced. A
//! reused workspace must not move a bit either: case (a) compares a chain
//! of solves on one workspace with cold solves, answer by answer.

use spef_baselines::MluSolution;
use spef_core::{FrankWolfeConfig, Objective, TeInstance, TeSolution, TeSolver};
use spef_lp::SimplexWorkspace;
use spef_topology::{standard, Network, TrafficMatrix};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: f64) {
        for byte in x.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.eat(x);
        }
    }

    fn eat_mlu(&mut self, sol: &MluSolution) {
        self.eat(sol.mlu);
        for &t in sol.flows.destinations() {
            self.eat_all(sol.flows.for_destination(t).expect("listed destination"));
        }
        self.eat_all(&sol.link_prices);
    }

    fn eat_te(&mut self, sol: &TeSolution) {
        self.eat_all(&sol.weights);
        self.eat_all(sol.flows.aggregate());
        self.eat_all(&sol.spare);
        self.eat(sol.utility);
    }
}

/// Fortz–Thorup seeds 1–4 at network load 0.1.
fn matrices(net: &Network) -> Vec<TrafficMatrix> {
    (1..=4)
        .map(|seed| TrafficMatrix::fortz_thorup(net, seed).scaled_to_network_load(net, 0.1))
        .collect()
}

fn backbones() -> [Network; 2] {
    [standard::abilene(), standard::cernet2()]
}

/// (a) One `solve_in` chain per network. Each matrix is followed by two
/// rescaled copies of itself, which share its structure and its optimal
/// basis; the next seed's matrix does not. Every answer must be the cold
/// solve's, bit for bit.
#[test]
fn mlu_lp_chains_equal_cold_solves() {
    for net in backbones() {
        let mut ws = SimplexWorkspace::new();
        for (seed, tm) in matrices(&net).into_iter().enumerate() {
            for scale in [1.0, 0.75, 0.5] {
                let traffic = tm.scaled(scale);
                let mut chained = Digest::new();
                chained.eat_mlu(&MluSolution::solve_in(&net, &traffic, &mut ws).expect("mlu lp"));
                let mut cold = Digest::new();
                cold.eat_mlu(&MluSolution::solve(&net, &traffic).expect("mlu lp"));
                assert_eq!(
                    chained.0,
                    cold.0,
                    "{} seed {} scale {scale}",
                    net.name(),
                    seed + 1
                );
            }
        }
    }
}

/// (b) Cold solves of the same matrices.
#[test]
fn mlu_lp_cold_solves_are_bit_pinned() {
    let mut digest = Digest::new();
    for net in backbones() {
        for tm in matrices(&net) {
            digest.eat_mlu(&MluSolution::solve(&net, &tm).expect("mlu lp"));
        }
    }
    assert_eq!(digest.0, 0x2cd3_2d85_0076_01f1, "digest {:#018x}", digest.0);
}

/// (c) Every connected single-circuit failure of CERNET2 under one
/// matrix: cold phase-1 solves on a structure the workspace has not seen.
#[test]
fn mlu_lp_degraded_cernet2_is_bit_pinned() {
    let net = standard::cernet2();
    let tm = &matrices(&net)[0];
    let mut digest = Digest::new();
    let mut solved = 0;
    for circuit in net.duplex_circuits() {
        let Ok((degraded, _)) = net.without_links(&circuit) else {
            continue;
        };
        digest.eat_mlu(&MluSolution::solve(&degraded, tm).expect("mlu lp"));
        solved += 1;
    }
    assert!(solved > 0, "no connected single-circuit failure");
    assert_eq!(
        digest.0, 0x793e_0685_b950_e83b,
        "digest {:#018x} over {solved} clones",
        digest.0
    );
}

/// (d) The β = 0 TE LP (Example 3): first weights from the capacity
/// duals, plus the optimal flows, spare capacities and utility. The
/// backbone matrices are rescaled to a min-MLU optimum of 0.7 (at load
/// 0.1 CERNET2 needs more than its capacity, so the LP is infeasible).
#[test]
fn beta_zero_te_lp_is_bit_pinned() {
    let mut cases = vec![(standard::fig4(), standard::fig4_demands())];
    for net in backbones() {
        let tm = matrices(&net).swap_remove(0);
        let opt = MluSolution::solve(&net, &tm).expect("mlu lp").mlu;
        cases.push((net, tm.scaled(0.7 / opt)));
    }
    let mut digest = Digest::new();
    for (net, tm) in &cases {
        let obj = Objective::min_hop(net.link_count());
        let sol = FrankWolfeConfig::default()
            .solve(TeInstance::new(net, tm, &obj))
            .expect("beta = 0 lp");
        digest.eat_te(&sol);
    }
    assert_eq!(digest.0, 0x051b_1e2d_fa17_ac7e, "digest {:#018x}", digest.0);
}
