//! Extension experiment: single-link-failure robustness of SPEF weights.
//!
//! Weight-based TE has a known operational exposure (the robust-OSPF line
//! of work the paper's §VI cites): weights are optimised for the intact
//! topology, but after a link failure OSPF reconverges on the surviving
//! topology with the *stale* weights. This experiment quantifies, on
//! Abilene, for every single duplex-circuit failure:
//!
//! * **OSPF** — InvCap weights, ECMP reconvergence on the survivors;
//! * **SPEF (stale)** — the intact-optimal first weights, DAGs recomputed
//!   on the survivors, traffic split evenly (the second weights' split
//!   ratios are no longer meaningful once the path set changed);
//! * **SPEF (reopt)** — full re-optimisation on the degraded topology, the
//!   post-convergence steady state.
//!
//! The interesting quantity is the MLU gap between stale and re-optimised
//! weights: how much of SPEF's advantage survives a failure *before* the
//! operator pushes new weights.
//!
//! The sweepable, regression-gated variant of this study is the `failure`
//! scenario family (`repro sweep --family failure`); this experiment keeps
//! the full per-circuit table and additionally reports each
//! re-optimisation's iteration count. One workspace serves the whole
//! sweep for its arenas; every re-optimisation starts from the solver's
//! fixed initial point, as it would on a fresh workspace.

use spef_core::{metrics, Objective, SpefError, TeInstance, TeSolver, TeWorkspace};
use spef_topology::{standard, TrafficMatrix};

use crate::reconfig::StaleWeightProbes;
use crate::report::{fmt_val, CsvFile, ExperimentResult, TextTable};
use crate::{scale, Quality};

/// Runs the failure-robustness ablation.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(quality: Quality) -> Result<ExperimentResult, SpefError> {
    let net = standard::abilene();
    let shape = TrafficMatrix::fortz_thorup(&net, crate::fig9::ABILENE_TM_SEED);
    let lmax = scale::max_feasible_load(&net, &shape, 0.05)?;
    // Leave failure headroom: half the intact feasibility boundary.
    let tm = shape.scaled_to_network_load(&net, 0.5 * lmax);
    let obj = Objective::proportional(net.link_count());
    let fw = quality.fw();
    // One workspace across the failure sweep, so each degraded solve
    // reuses the previous one's arenas.
    let mut ws = TeWorkspace::new();
    let intact = fw.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)?;

    let circuits = net.duplex_circuits();
    let budget = match quality {
        Quality::Full => circuits.len(),
        Quality::Quick => 4,
    };
    let dests = tm.destinations();

    let mut table = TextTable::new(
        format!(
            "Failure ablation — MLU after each single circuit failure, Abilene at load {:.3}",
            tm.network_load(&net)
        ),
        &[
            "failed circuit",
            "OSPF",
            "SPEF stale",
            "SPEF reopt",
            "reopt iters",
        ],
    );
    let mut rows = Vec::new();
    let mut skipped_bridges = 0usize;
    // One persistent probe per weight setting: each routes the circuit's
    // `without_links` clone in one retained engine state's arenas,
    // bit-identical to cold routing on that clone (pinned in
    // `reconfig::tests::mlu_probe_matches_degraded_free_function`).
    let mut probes = StaleWeightProbes::new(false);

    for (i, circuit) in circuits.iter().take(budget).enumerate() {
        let degraded = match net.without_links(circuit) {
            Ok((degraded, _kept)) => degraded,
            Err(_) => {
                // Failing a bridge circuit disconnects the network: no
                // post-failure routing exists. Counted and reported below,
                // never silently dropped (none on Abilene).
                skipped_bridges += 1;
                continue;
            }
        };

        // OSPF reconvergence, and SPEF with stale (intact-optimal) weights.
        let (mlu_ospf, mlu_stale) = probes.mlus(&net, &tm, &dests, &intact.weights, circuit)?;

        // SPEF re-optimised on the degraded topology.
        let obj_d = Objective::proportional(degraded.link_count());
        let (mlu_reopt, iters) = match fw.solve_in(TeInstance::new(&degraded, &tm, &obj_d), &mut ws)
        {
            Ok(sol) => (
                metrics::max_link_utilization(&degraded, sol.flows.aggregate()),
                sol.iterations,
            ),
            Err(SpefError::Infeasible) => (f64::INFINITY, 0),
            Err(e) => return Err(e),
        };

        let e_fwd = circuit[0];
        let (u, v) = (net.graph().source(e_fwd), net.graph().target(e_fwd));
        table.push_row(vec![
            format!("{}-{}", net.node_name(u), net.node_name(v)),
            fmt_val(mlu_ospf),
            fmt_val(mlu_stale),
            fmt_val(mlu_reopt),
            iters.to_string(),
        ]);
        rows.push(vec![i as f64, mlu_ospf, mlu_stale, mlu_reopt, iters as f64]);
    }
    table.push_row(vec![
        "skipped (bridge circuits)".into(),
        skipped_bridges.to_string(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    Ok(ExperimentResult {
        id: "failure",
        tables: vec![table],
        csvs: vec![
            CsvFile::from_rows(
                "failure.csv",
                &["circuit", "ospf", "spef_stale", "spef_reopt", "reopt_iters"],
                &rows,
            ),
            CsvFile::from_rows(
                "failure_skipped.csv",
                &["skipped_bridge_circuits"],
                &[vec![skipped_bridges as f64]],
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reopt_never_worse_than_stale_and_all_finite() {
        let r = run(Quality::Quick).unwrap();
        let rows: Vec<Vec<f64>> = r.csvs[0]
            .content
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        assert!(!rows.is_empty());
        for row in &rows {
            let (ospf, stale, reopt) = (row[1], row[2], row[3]);
            // Re-optimisation is the steady-state lower bound.
            assert!(reopt <= stale + 1e-6, "reopt {reopt} vs stale {stale}");
            assert!(reopt <= ospf + 1e-6, "reopt {reopt} vs ospf {ospf}");
            // At half the intact feasibility boundary every single failure
            // remains routable.
            assert!(reopt.is_finite());
            assert!(stale.is_finite());
            // The re-optimisation iterates.
            assert!(row[4] > 0.0);
        }
        // Abilene has no bridge circuits; the count is reported as zero.
        assert_eq!(r.csvs[1].content.lines().nth(1), Some("0"));
    }
}
