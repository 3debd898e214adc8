//! TABLE V: equal-cost-path census on CERNET2 — for each ingress–egress
//! pair, how many equal-cost shortest paths the routing offers, at network
//! loads ≈ 0.13 / 0.17 / 0.21.
//!
//! Paper findings reproduced: OSPF's census is load-independent (InvCap
//! weights never change); SPEF's multipath pair count grows with load
//! ("SPEF routing is more likely to use multiple paths to balance traffic
//! at higher loads").

use spef_baselines::ospf;
use spef_core::{build_dags, metrics::PathCensus, Objective, SpefError, TeInstance, TeSolver};
use spef_topology::{standard, TrafficMatrix};

use crate::report::{CsvFile, ExperimentResult, TextTable};
use crate::{scale, Quality};

/// The paper's load points, clamped to the feasibility boundary of our
/// reconstructed CERNET2 instance.
pub fn load_points(quality: Quality) -> Result<Vec<f64>, SpefError> {
    let net = standard::cernet2();
    let shape = TrafficMatrix::gravity(
        &net,
        crate::fig9::CERNET2_SIGMA,
        crate::fig9::CERNET2_TM_SEED,
    );
    let lmax = scale::max_feasible_load(&net, &shape, 0.05)?;
    let targets: &[f64] = match quality {
        Quality::Full => &[0.13, 0.17, 0.21],
        Quality::Quick => &[0.13, 0.21],
    };
    Ok(targets
        .iter()
        .enumerate()
        .map(|(i, &t)| t.min(lmax * (0.55 + 0.4 * i as f64 / 2.0)))
        .collect())
}

fn census_row(census: &PathCensus) -> Vec<usize> {
    (1..=4).map(|i| census.n(i)).collect()
}

/// Runs the TABLE V reproduction.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(quality: Quality) -> Result<ExperimentResult, SpefError> {
    let net = standard::cernet2();
    let shape = TrafficMatrix::gravity(
        &net,
        crate::fig9::CERNET2_SIGMA,
        crate::fig9::CERNET2_TM_SEED,
    );
    let loads = load_points(quality)?;

    let mut table = TextTable::new(
        "TABLE V — number of equal-cost paths per ingress-egress pair (Cernet2)",
        &["routing", "load", "n1", "n2", "n3", "n4"],
    );
    let mut rows = Vec::new();

    // OSPF: identical at every load.
    let invcap = ospf::invcap_weights(&net);
    let all_dests: Vec<_> = net.graph().nodes().collect();
    let ospf_dags = build_dags(net.graph(), &invcap, &all_dests, 0.0)?;
    let ospf_census = PathCensus::from_dags(&ospf_dags);
    let ospf_row = census_row(&ospf_census);
    table.push_row(
        ["OSPF".to_string(), "any".to_string()]
            .into_iter()
            .chain(ospf_row.iter().map(|n| n.to_string()))
            .collect(),
    );
    rows.push(
        std::iter::once(0.0)
            .chain(ospf_row.iter().map(|&n| n as f64))
            .collect(),
    );

    // SPEF: census of the first-weight DAGs per load.
    let obj = Objective::proportional(net.link_count());
    for &load in &loads {
        let tm = shape.scaled_to_network_load(&net, load);
        let routing = quality
            .spef_config()
            .solve(TeInstance::new(&net, &tm, &obj))?;
        // Census over ALL ordered pairs: rebuild DAGs for every node as
        // destination under the deployed first weights and tolerance.
        let dags = build_dags(
            net.graph(),
            routing.first_weights(),
            &all_dests,
            routing.dijkstra_tolerance(),
        )?;
        let census = PathCensus::from_dags(&dags);
        let row = census_row(&census);
        table.push_row(
            ["SPEF".to_string(), format!("{load:.3}")]
                .into_iter()
                .chain(row.iter().map(|n| n.to_string()))
                .collect(),
        );
        rows.push(
            std::iter::once(load)
                .chain(row.iter().map(|&n| n as f64))
                .collect(),
        );
    }

    Ok(ExperimentResult {
        id: "table5",
        tables: vec![table],
        csvs: vec![CsvFile::from_rows(
            "table5.csv",
            &["load", "n1", "n2", "n3", "n4"],
            &rows,
        )],
    })
}

#[cfg(test)]
mod tests {
    use crate::pinned::quick_run;

    #[test]
    fn census_covers_all_pairs_and_spef_uses_multipath() {
        let r = quick_run("table5");
        let rows = &r.tables[0].rows;
        // First row is OSPF; there are 20×19 = 380 ordered pairs.
        let total: usize = rows[0][2..]
            .iter()
            .map(|c| c.parse::<usize>().unwrap())
            .sum();
        assert!(total <= 380);
        assert!(total >= 300, "most pairs have <= 4 equal-cost paths");
        // SPEF rows: multipath pairs (n2+n3+n4) at the highest load are at
        // least those at the lowest load, and at least OSPF's.
        let multi = |row: &[String]| -> usize {
            row[3..].iter().map(|c| c.parse::<usize>().unwrap()).sum()
        };
        let ospf_multi = multi(&rows[0]);
        let lo = multi(&rows[1]);
        let hi = multi(rows.last().unwrap());
        assert!(hi >= lo, "multipath pairs shrank with load: {lo} → {hi}");
        assert!(hi >= ospf_multi, "SPEF multipath {hi} < OSPF {ospf_multi}");
    }
}
