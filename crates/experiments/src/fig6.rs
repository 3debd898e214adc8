//! Fig. 6: per-link utilization on the Fig. 4 network — OSPF against SPEF
//! with β = 0, 1, 5.
//!
//! Paper findings reproduced: OSPF drives the bottleneck (link 1) to 1.6;
//! SPEF0 saturates it exactly (1.0); its utilization strictly decreases in
//! β; all SPEF variants stay at or below capacity.

use spef_baselines::ospf::OspfRouting;
use spef_core::{Objective, SpefError, SpefRouting, TeInstance, TeSolver};
use spef_topology::standard;

use crate::report::{fmt_val, CsvFile, ExperimentResult, TextTable};
use crate::Quality;

/// The β values shown in Fig. 6/7 ("SPEF0", "SPEF1", "SPEF5").
pub const BETAS: [f64; 3] = [0.0, 1.0, 5.0];

/// Builds the three SPEF routings of Fig. 6/7.
///
/// # Errors
///
/// Propagates solver failures.
pub fn spef_routings(quality: Quality) -> Result<Vec<SpefRouting>, SpefError> {
    let net = standard::fig4();
    let tm = standard::fig4_demands();
    BETAS
        .iter()
        .map(|&beta| {
            let obj = Objective::uniform(beta, net.link_count());
            quality
                .spef_config()
                .solve(TeInstance::new(&net, &tm, &obj))
        })
        .collect()
}

/// Runs the Fig. 6 reproduction.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(quality: Quality) -> Result<ExperimentResult, SpefError> {
    let net = standard::fig4();
    let tm = standard::fig4_demands();
    let ospf = OspfRouting::route(&net, &tm)
        .map_err(|e| SpefError::InvalidInput(format!("OSPF routing failed: {e}")))?;
    let spefs = spef_routings(quality)?;

    let u_ospf = net.utilizations(ospf.flows().aggregate());
    let u_spef: Vec<Vec<f64>> = spefs
        .iter()
        .map(|r| net.utilizations(r.flows().aggregate()))
        .collect();

    let mut table = TextTable::new(
        "Fig. 6 — link utilization on the Fig. 4 network",
        &["link", "OSPF", "SPEF0", "SPEF1", "SPEF5"],
    );
    let mut rows = Vec::new();
    for e in 0..standard::FIG4_SHOWN_LINKS {
        let row = vec![
            (e + 1) as f64,
            u_ospf[e],
            u_spef[0][e],
            u_spef[1][e],
            u_spef[2][e],
        ];
        table.push_row(
            std::iter::once(format!("{}", e + 1))
                .chain(row[1..].iter().map(|&v| fmt_val(v)))
                .collect(),
        );
        rows.push(row);
    }

    Ok(ExperimentResult {
        id: "fig6",
        tables: vec![table],
        csvs: vec![CsvFile::from_rows(
            "fig6.csv",
            &["link", "ospf", "spef0", "spef1", "spef5"],
            &rows,
        )],
    })
}

#[cfg(test)]
mod tests {
    use crate::pinned::quick_run;

    #[test]
    fn paper_shape_holds() {
        let r = quick_run("fig6");
        let rows: Vec<Vec<f64>> = r.csvs[0]
            .content
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        assert_eq!(rows.len(), 13);
        // Link 1 (row 0): OSPF 1.6, SPEF0 1.0, decreasing in beta.
        assert!((rows[0][1] - 1.6).abs() < 1e-9, "OSPF bottleneck");
        assert!((rows[0][2] - 1.0).abs() < 0.03, "SPEF0 saturates link 1");
        assert!(rows[0][3] <= rows[0][2] + 1e-6, "SPEF1 <= SPEF0 on link 1");
        assert!(rows[0][4] <= rows[0][3] + 1e-6, "SPEF5 <= SPEF1 on link 1");
        // All SPEF utilizations stay at or below capacity, within the NEM
        // realisation tolerance (the β=0 optimum saturates link 1 exactly,
        // so the realised flow may sit a hair above 1.0).
        for row in &rows {
            for v in &row[2..] {
                assert!(*v <= 1.03, "utilization {v}");
            }
        }
        // SPEF uses links OSPF leaves idle (load spreading).
        let ospf_used = rows.iter().filter(|r| r[1] > 1e-9).count();
        let spef1_used = rows.iter().filter(|r| r[3] > 1e-9).count();
        assert!(spef1_used > ospf_used);
    }
}
