//! Fig. 9: sorted link utilizations, OSPF vs SPEF — Abilene at network
//! load ≈ 0.17 (Fortz–Thorup demands) and CERNET2 at ≈ 0.21 (gravity
//! demands).
//!
//! Paper findings reproduced: "some underutilized links in OSPF are used
//! efficiently in SPEF. At the same time the traffic on the over-utilized
//! links in OSPF is removed in SPEF" — SPEF's sorted-utilization curve is
//! flatter: lower head, fatter middle.

use spef_baselines::ospf::OspfRouting;
use spef_core::{metrics, Objective, SpefError, TeInstance, TeSolver};
use spef_topology::{standard, Network, TrafficMatrix};

use crate::report::{fmt_val, CsvFile, ExperimentResult, TextTable};
use crate::{scale, Quality};

/// Seed for the Abilene Fortz–Thorup demand matrix.
pub const ABILENE_TM_SEED: u64 = 20110417;
/// Seed/σ for the CERNET2 gravity demand matrix.
pub const CERNET2_TM_SEED: u64 = 20100110;
/// Log-normal σ of the CERNET2 gravity masses.
pub const CERNET2_SIGMA: f64 = 1.0;

/// The two panels' target network loads (paper: 0.17 / 0.21), clamped to
/// 90% of the feasibility boundary of our reconstructed instances.
pub fn panel_setup(quality: Quality) -> Result<Vec<(Network, TrafficMatrix, f64)>, SpefError> {
    let abilene = standard::abilene();
    let cernet2 = standard::cernet2();
    let tm_a = TrafficMatrix::fortz_thorup(&abilene, ABILENE_TM_SEED);
    let tm_c = TrafficMatrix::gravity(&cernet2, CERNET2_SIGMA, CERNET2_TM_SEED);
    let mut panels = Vec::new();
    for (net, shape, target) in [(abilene, tm_a, 0.17f64), (cernet2, tm_c, 0.21)] {
        let lmax = match quality {
            Quality::Full => scale::max_feasible_load(&net, &shape, 0.02)?,
            Quality::Quick => scale::max_feasible_load(&net, &shape, 0.10)?,
        };
        let load = target.min(0.9 * lmax);
        let tm = shape.scaled_to_network_load(&net, load);
        panels.push((net, tm, load));
    }
    Ok(panels)
}

/// Runs the Fig. 9 reproduction.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(quality: Quality) -> Result<ExperimentResult, SpefError> {
    let mut tables = Vec::new();
    let mut csvs = Vec::new();
    for (net, tm, load) in panel_setup(quality)? {
        let obj = Objective::proportional(net.link_count());
        let spef = quality
            .spef_config()
            .solve(TeInstance::new(&net, &tm, &obj))?;
        let ospf = OspfRouting::route(&net, &tm)
            .map_err(|e| SpefError::InvalidInput(format!("OSPF failed: {e}")))?;

        let s_ospf = metrics::sorted_utilizations(&net, ospf.flows().aggregate());
        let s_spef = metrics::sorted_utilizations(&net, spef.flows().aggregate());

        let mut table = TextTable::new(
            format!(
                "Fig. 9 — sorted link utilizations, {} at network load {:.3}",
                net.name(),
                load
            ),
            &["rank", "OSPF", "SPEF"],
        );
        let mut rows = Vec::new();
        for (i, (o, s)) in s_ospf.iter().zip(&s_spef).enumerate() {
            rows.push(vec![(i + 1) as f64, *o, *s]);
            if i < 8 || i % 4 == 0 {
                table.push_row(vec![format!("{}", i + 1), fmt_val(*o), fmt_val(*s)]);
            }
        }
        table.push_row(vec!["MLU".into(), fmt_val(s_ospf[0]), fmt_val(s_spef[0])]);
        tables.push(table);
        csvs.push(CsvFile::from_rows(
            format!("fig9_{}.csv", net.name().to_lowercase()),
            &["rank", "ospf", "spef"],
            &rows,
        ));
    }

    Ok(ExperimentResult {
        id: "fig9",
        tables,
        csvs,
    })
}

#[cfg(test)]
mod tests {
    use crate::pinned::quick_run;

    #[test]
    fn spef_flattens_the_curve() {
        let r = quick_run("fig9");
        assert_eq!(r.csvs.len(), 2);
        for csv in &r.csvs {
            let rows: Vec<Vec<f64>> = csv
                .content
                .lines()
                .skip(1)
                .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
                .collect();
            let mlu_ospf = rows[0][1];
            let mlu_spef = rows[0][2];
            assert!(
                mlu_spef <= mlu_ospf + 1e-9,
                "{}: SPEF MLU {mlu_spef} vs OSPF {mlu_ospf}",
                csv.name
            );
            // Sorted: non-increasing.
            for w in rows.windows(2) {
                assert!(w[1][1] <= w[0][1] + 1e-9);
                assert!(w[1][2] <= w[0][2] + 1e-9);
            }
            // SPEF engages more links than OSPF leaves idle (tail is
            // fatter) or at minimum no fewer.
            let used = |col: usize| rows.iter().filter(|r| r[col] > 1e-9).count();
            assert!(used(2) >= used(1), "{}", csv.name);
        }
    }
}
