//! Exact minimisation of the maximum link utilization (the "MLU \[19\]"
//! column of TABLE I), as a linear program.
//!
//! ```text
//! minimise  θ
//! s.t.      Σ_t f^t_e ≤ θ · c_e          ∀ links e
//!           B f^t = d^t,  f^t ≥ 0        ∀ destinations t
//! ```
//!
//! The paper's Fig. 1 discussion uses this LP to illustrate why MLU alone
//! is "not a well-defined objective function": its optimum is massively
//! non-unique (any `a ∈ [0.1, 0.9]` split of the 1→3 demand attains
//! MLU 0.9), which min-max / (q, β → ∞) load balance then refines.

use spef_core::{te, Flows, SpefError};
use spef_lp::simplex::{LinearProgram, Relation, SimplexError, SimplexWorkspace};
use spef_topology::{Network, TrafficMatrix};

/// An optimal solution of the min-MLU LP.
#[derive(Debug, Clone)]
pub struct MluSolution {
    /// The minimum achievable maximum link utilization.
    pub mlu: f64,
    /// One optimal flow (a vertex of the non-unique optimal face).
    pub flows: Flows,
    /// Capacity-constraint duals: `price[e] ≥ 0` is the marginal MLU
    /// reduction per unit capacity added to link `e` (nonzero only on
    /// bottlenecks).
    pub link_prices: Vec<f64>,
}

impl MluSolution {
    /// Solves the min-MLU LP exactly.
    ///
    /// The LP has `|D|·|J| + 1` variables; intended for the paper's small
    /// and mid-size networks (Fig. 1, Fig. 4, Abilene, CERNET2). For the
    /// 50–100-node sweeps the paper itself does not report MLU-LP numbers.
    /// The simplex tableau is dense, rows × columns: hier200's would take
    /// 65 GB and hier500's 2.5 TB. A tableau the allocator refuses is an
    /// error, not an aborted process.
    ///
    /// # Errors
    ///
    /// * [`SpefError::UnroutableDemand`]-class infeasibility surfaces as
    ///   [`SpefError::Infeasible`] (an LP has no notion of which pair
    ///   failed),
    /// * [`SpefError::InvalidInput`] on size mismatches, an empty
    ///   traffic matrix, or a tableau the allocator refuses
    ///   ([`SimplexError::TooLarge`]).
    pub fn solve(network: &Network, traffic: &TrafficMatrix) -> Result<MluSolution, SpefError> {
        MluSolution::solve_in(network, traffic, &mut SimplexWorkspace::new())
    }

    /// Like [`solve`](MluSolution::solve), but reuses `workspace` across
    /// calls: the simplex tableau arena and basis bookkeeping are recycled.
    /// The workspace keeps no basis between solves, so the answer is
    /// [`solve`](MluSolution::solve)'s, bit for bit, whatever the
    /// workspace solved before.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](MluSolution::solve).
    pub fn solve_in(
        network: &Network,
        traffic: &TrafficMatrix,
        workspace: &mut SimplexWorkspace,
    ) -> Result<MluSolution, SpefError> {
        if traffic.node_count() != network.node_count() {
            return Err(SpefError::InvalidInput(format!(
                "traffic matrix covers {} nodes, network has {}",
                traffic.node_count(),
                network.node_count()
            )));
        }
        let dests = traffic.destinations();
        if dests.is_empty() {
            return Err(SpefError::InvalidInput(
                "traffic matrix is empty".to_string(),
            ));
        }
        let m = network.graph().edge_count();
        // Variables: the f^t_e blocks of `spef_core::te`, then θ last.
        let theta = dests.len() * m;
        let mut lp = LinearProgram::minimize(theta + 1);
        lp.set_objective(theta, 1.0);

        let mut cap_rows = Vec::with_capacity(m);
        for e in 0..m {
            let mut row: Vec<(usize, f64)> = (0..dests.len()).map(|ti| (ti * m + e, 1.0)).collect();
            row.push((theta, -network.capacity(e.into())));
            cap_rows.push(lp.add_constraint(&row, Relation::Le, 0.0));
        }
        te::add_conservation_rows(&mut lp, network, traffic, &dests);

        let sol = match lp.solve_with(workspace) {
            Ok(sol) => sol,
            Err(SimplexError::Infeasible) => return Err(SpefError::Infeasible),
            Err(e) => return Err(SpefError::InvalidInput(format!("min-MLU LP failed: {e}"))),
        };

        // Min-problem Le duals are ≤ 0; report positive prices.
        let link_prices: Vec<f64> = cap_rows.iter().map(|&r| -sol.dual(r)).collect();
        Ok(MluSolution {
            mlu: sol.value(theta),
            flows: te::lp_flows(&sol, dests, m),
            link_prices,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_core::metrics;
    use spef_topology::standard;

    #[test]
    fn fig1_min_mlu_is_090() {
        // TABLE I / Fig. 1 discussion: the (3,4) link pins MLU at 0.9; the
        // 1→3 split is free in [0.1, 0.9].
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let sol = MluSolution::solve(&net, &tm).unwrap();
        assert!((sol.mlu - 0.9).abs() < 1e-9, "mlu = {}", sol.mlu);
        let u = net.utilizations(sol.flows.aggregate());
        assert!((u[1] - 0.9).abs() < 1e-9, "(3,4) is the bottleneck");
        // The direct-link utilization is the paper's free constant a.
        assert!(u[0] >= 0.1 - 1e-9 && u[0] <= 0.9 + 1e-9, "a = {}", u[0]);
        // Achieved MLU equals the LP objective.
        assert!(
            (metrics::max_link_utilization(&net, sol.flows.aggregate()) - sol.mlu).abs() < 1e-9
        );
        // Only the bottleneck carries a positive price.
        assert!(sol.link_prices[1] > 0.0);
    }

    #[test]
    fn fig4_min_mlu_beats_ospf() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let sol = MluSolution::solve(&net, &tm).unwrap();
        // OSPF gets 1.6 (Fig. 6); the optimum must be < 1 and at least the
        // 0.8 bound forced by node 1's 12 units over 3×5 capacity... and by
        // the single-path 3→2 demand (4/5).
        assert!(sol.mlu < 1.0);
        assert!(sol.mlu >= 0.8 - 1e-9, "mlu = {}", sol.mlu);
    }

    #[test]
    fn conservation_holds() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let sol = MluSolution::solve(&net, &tm).unwrap();
        for &t in sol.flows.destinations() {
            let f = sol.flows.for_destination(t).unwrap();
            let div = net.graph().divergence(f);
            let demands = tm.demands_to(t);
            for node in net.graph().nodes() {
                if node != t {
                    assert!((div[node.index()] - demands[node.index()]).abs() < 1e-7);
                }
            }
        }
    }

    #[test]
    fn empty_matrix_rejected() {
        let net = standard::fig1();
        assert!(MluSolution::solve(&net, &TrafficMatrix::new(4)).is_err());
    }

    /// Every number of a solution, as bits.
    fn bits(sol: &MluSolution) -> Vec<u64> {
        let mut v = vec![sol.mlu.to_bits()];
        for &t in sol.flows.destinations() {
            let f = sol.flows.for_destination(t).unwrap();
            v.extend(f.iter().map(|x| x.to_bits()));
        }
        v.extend(sol.link_prices.iter().map(|x| x.to_bits()));
        v
    }

    #[test]
    fn workspace_reuse_matches_cold_across_demand_scales() {
        // The per-scenario pattern: same topology, demands move. A shared
        // workspace must reproduce the cold solve bit for bit at every
        // scale.
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let mut ws = spef_lp::SimplexWorkspace::new();
        for scale in [1.0, 0.5, 0.25, 0.75, 1.0] {
            let scaled = tm.scaled(scale);
            let reused = MluSolution::solve_in(&net, &scaled, &mut ws).unwrap();
            let cold = MluSolution::solve(&net, &scaled).unwrap();
            assert_eq!(bits(&reused), bits(&cold), "scale {scale}");
        }
    }

    #[test]
    fn oversized_lp_is_an_error_and_the_workspace_recovers() {
        // The scale ladder's hier500 (500 nodes, all-pairs demand): a
        // ~10⁶-variable LP whose dense tableau would take 2.5 TB.
        let big = spef_topology::gen::tiered_network("Tier500", 10, 7, 6, 0x7E5);
        let big_tm = TrafficMatrix::fortz_thorup(&big, 1);
        let mut ws = spef_lp::SimplexWorkspace::new();
        let err = MluSolution::solve_in(&big, &big_tm, &mut ws);
        assert!(matches!(err, Err(SpefError::InvalidInput(_))), "{err:?}");

        let net = standard::abilene();
        let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.1);
        let reused = MluSolution::solve_in(&net, &tm, &mut ws).unwrap();
        assert_eq!(bits(&reused), bits(&MluSolution::solve(&net, &tm).unwrap()));
    }

    #[test]
    fn scaling_demands_scales_mlu() {
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let half = tm.scaled(0.5);
        let sol = MluSolution::solve(&net, &half).unwrap();
        assert!((sol.mlu - 0.45).abs() < 1e-9);
    }
}
