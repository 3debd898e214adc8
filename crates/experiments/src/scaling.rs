//! Extension experiment (§VII future work): computational cost of SPEF as
//! the network grows.
//!
//! The paper's conclusion names "analyz\[ing\] the computational complexity
//! in network environment with OSPF as well as other existing approaches
//! including PEFT" as future work. This ablation measures, over random
//! networks of increasing size plus one tiered (core/aggregation/edge)
//! network:
//!
//! * wall time of the TE solve (Frank–Wolfe, fixed budget),
//! * per-iteration wall time of Algorithm 1 and Algorithm 2 (the
//!   distributed protocols' message rounds),
//! * the full `SpefRouting` build time,
//! * the control-plane state: total forwarding-table entries for SPEF vs
//!   plain-OSPF ECMP (the "one more weight" overhead made concrete),
//! * the high-water mark of the SPEF build's workspace and FIB arenas
//!   ([`TeWorkspace::arena_bytes`], plus the TE solution's flows, which
//!   the solve moves out of the workspace).

use std::time::Instant;

use spef_baselines::ospf::OspfRouting;
use spef_core::{
    ConvergenceCriteria, DualDecompConfig, NemConfig, NemInstance, Objective, SpefError,
    TeInstance, TeSolver, TeWorkspace,
};
use spef_topology::{gen, Network, TrafficMatrix};

use crate::report::{CsvFile, ExperimentResult, TextTable};
use crate::Quality;

/// Network sizes swept on the random lane (nodes; links ≈ 4 × nodes).
pub fn sizes(quality: Quality) -> Vec<usize> {
    match quality {
        Quality::Full => vec![20, 40, 60, 80, 100],
        Quality::Quick => vec![20, 40],
    }
}

/// The networks swept: the random ladder plus one tiered
/// (core/aggregation/edge) lane exercising the hierarchical generator.
fn lanes(quality: Quality) -> Vec<(bool, Network)> {
    let mut lanes: Vec<(bool, Network)> = sizes(quality)
        .iter()
        .map(|&n| (false, gen::random_network("scale", n, 4 * n, 7 + n as u64)))
        .collect();
    lanes.push((
        true,
        match quality {
            Quality::Full => gen::tiered_network("TierScale", 8, 4, 5, 0xA11),
            Quality::Quick => gen::tiered_network("TierScale", 4, 2, 2, 0xA11),
        },
    ));
    lanes
}

/// Runs the scaling ablation.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(quality: Quality) -> Result<ExperimentResult, SpefError> {
    let mut table = TextTable::new(
        "Scaling ablation — computational cost vs network size (load 60% of feasible)",
        &[
            "topology",
            "nodes",
            "links",
            "TE solve (ms)",
            "Alg1 (ms/iter)",
            "Alg2 (ms/iter)",
            "SPEF build (ms)",
            "SPEF FIB entries",
            "OSPF FIB entries",
            "peak arena (KiB)",
        ],
    );
    let mut rows = Vec::new();

    for (tiered, net) in lanes(quality) {
        let n = net.node_count();
        let links = net.link_count();
        // The instance is built once per size and reused by every measured
        // stage below (the old code re-derived nothing, but each stage
        // solved in its own throwaway workspace — now the FW-based stages
        // share one, so later stages run on warm arenas).
        let shape = TrafficMatrix::fortz_thorup(&net, n as u64);
        let lmax = crate::scale::max_feasible_load(&net, &shape, 0.1)?;
        let tm = shape.scaled_to_network_load(&net, 0.6 * lmax);
        let obj = Objective::proportional(net.link_count());

        // One workspace shared by the TE, Algorithm 2, and SPEF-build
        // stages: later stages run on warm arenas, with the same results
        // as on a fresh workspace.
        let mut ws = TeWorkspace::new();

        let t0 = Instant::now();
        let te = quality
            .fw()
            .solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)?;
        let te_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Algorithm 1 gets its own workspace so the dual-decomposition
        // session arenas don't inflate the SPEF build's peak below (it
        // covers the FW + NEM + engine arenas only).
        let mut dd_ws = TeWorkspace::new();
        let alg1_iters = 50;
        let t0 = Instant::now();
        DualDecompConfig {
            convergence: ConvergenceCriteria::with_tolerance(alg1_iters, 0.0),
            record_trace: false,
            ..DualDecompConfig::default()
        }
        .solve_in(TeInstance::new(&net, &tm, &obj), &mut dd_ws)?;
        let alg1_ms = t0.elapsed().as_secs_f64() * 1e3 / alg1_iters as f64;

        let max_w = te.weights.iter().cloned().fold(0.0, f64::max);
        let dags =
            spef_core::build_dags(net.graph(), &te.weights, &tm.destinations(), 1e-2 * max_w)?;
        let alg2_iters = 50;
        let t0 = Instant::now();
        NemConfig {
            convergence: ConvergenceCriteria::with_tolerance(alg2_iters, 0.0),
            ..NemConfig::default()
        }
        .solve_in(
            NemInstance::new(net.graph(), &dags, &tm, te.flows.aggregate()),
            &mut ws,
        )?;
        let alg2_ms = t0.elapsed().as_secs_f64() * 1e3 / alg2_iters as f64;

        let t0 = Instant::now();
        let routing = quality
            .spef_config()
            .solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)?;
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let peak = ws.arena_bytes()
            + routing.te_solution().flows.arena_bytes()
            + routing.forwarding_table().arena_bytes();

        // Control-plane state straight off the flat FIB arena — O(1), not
        // the old O(dests · nodes) re-lookup that rebuilt a NodeId and
        // re-resolved the destination for every (node, dest) pair.
        let spef_entries = routing.forwarding_table().entry_count();
        let ospf = OspfRouting::route(&net, &tm)
            .map_err(|e| SpefError::InvalidInput(format!("OSPF failed: {e}")))?;
        let ospf_entries = ospf.forwarding_table().entry_count();

        table.push_row(vec![
            if tiered { "tiered" } else { "random" }.to_string(),
            n.to_string(),
            links.to_string(),
            format!("{te_ms:.1}"),
            format!("{alg1_ms:.2}"),
            format!("{alg2_ms:.2}"),
            format!("{build_ms:.1}"),
            spef_entries.to_string(),
            ospf_entries.to_string(),
            format!("{:.0}", peak as f64 / 1024.0),
        ]);
        rows.push(vec![
            n as f64,
            links as f64,
            te_ms,
            alg1_ms,
            alg2_ms,
            build_ms,
            spef_entries as f64,
            ospf_entries as f64,
            peak as f64,
            if tiered { 1.0 } else { 0.0 },
        ]);
    }

    Ok(ExperimentResult {
        id: "scaling",
        tables: vec![table],
        csvs: vec![CsvFile::from_rows(
            "scaling.csv",
            &[
                "nodes",
                "links",
                "te_ms",
                "alg1_ms_per_iter",
                "alg2_ms_per_iter",
                "spef_build_ms",
                "spef_fib_entries",
                "ospf_fib_entries",
                "peak_arena_bytes",
                "tiered",
            ],
            &rows,
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_rows_are_complete_and_sane() {
        let r = run(Quality::Quick).unwrap();
        let rows: Vec<Vec<f64>> = r.csvs[0]
            .content
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        // Two random sizes plus the tiered lane.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][9], 0.0);
        assert_eq!(rows[1][9], 0.0);
        assert_eq!(rows[2][9], 1.0);
        for row in &rows {
            // Timings positive, FIB entries at least one per (node−1, dest).
            assert!(row[2] > 0.0);
            assert!(row[3] > 0.0);
            assert!(row[4] > 0.0);
            let nodes = row[0] as usize;
            // Every (node, destination) pair needs at least one entry, and
            // the FT demand model makes every node a destination.
            let floor = (nodes * (nodes - 1)) as f64;
            assert!(row[6] >= floor, "SPEF entries {} < {floor}", row[6]);
            assert!(row[7] >= floor, "OSPF entries {} < {floor}", row[7]);
            assert!(row[8] > 0.0);
        }
    }
}
