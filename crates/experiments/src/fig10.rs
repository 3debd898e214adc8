//! Fig. 10: normalized utility `Σ log(1 − u)` versus network load, OSPF vs
//! SPEF, across all seven evaluation networks of TABLE III.
//!
//! Paper findings reproduced: SPEF's utility dominates OSPF's everywhere;
//! "the utility difference between SPEF and OSPF becomes obvious with the
//! increasing of network load"; at the top of each sweep OSPF's MLU
//! crosses 1 (utility −∞, omitted from the paper's plots) while "SPEF
//! still works".

use spef_baselines::ospf::OspfRouting;
use spef_core::{Objective, SpefError, TeInstance, TeSolver};
use spef_topology::{gen, standard, Network, TrafficMatrix};

use crate::report::{fmt_val, CsvFile, ExperimentResult, TextTable};
use crate::{scale, Quality};

/// One panel of Fig. 10.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Network name (TABLE III id).
    pub name: String,
    /// Load points swept.
    pub loads: Vec<f64>,
    /// OSPF normalized utility per load (−∞ once MLU ≥ 1).
    pub ospf_utility: Vec<f64>,
    /// SPEF normalized utility per load.
    pub spef_utility: Vec<f64>,
}

/// The evaluation networks with their demand models (TABLE III order:
/// Abilene and Cernet2 backbones first, then the synthetic networks).
pub fn evaluation_networks(quality: Quality) -> Vec<(Network, TrafficMatrix)> {
    let abilene = standard::abilene();
    let cernet2 = standard::cernet2();
    let tm_a = TrafficMatrix::fortz_thorup(&abilene, crate::fig9::ABILENE_TM_SEED);
    let tm_c = TrafficMatrix::gravity(
        &cernet2,
        crate::fig9::CERNET2_SIGMA,
        crate::fig9::CERNET2_TM_SEED,
    );
    let mut nets = vec![(abilene, tm_a), (cernet2, tm_c)];
    if quality == Quality::Full {
        for net in gen::table3_synthetic_networks() {
            let tm = TrafficMatrix::fortz_thorup(&net, 0x46545F + net.node_count() as u64);
            nets.push((net, tm));
        }
    }
    nets
}

/// Sweeps one network: `n` load points across `[0.5, 0.98] × L*`.
///
/// # Errors
///
/// Propagates solver failures.
pub fn sweep_panel(
    net: &Network,
    shape: &TrafficMatrix,
    quality: Quality,
) -> Result<Panel, SpefError> {
    let (n_points, hi_frac) = match quality {
        Quality::Full => (7, 0.95),
        Quality::Quick => (3, 0.85),
    };
    let loads = scale::load_series(net, shape, n_points, 0.5, hi_frac)?;
    let obj = Objective::proportional(net.link_count());
    let mut ospf_utility = Vec::with_capacity(loads.len());
    let mut spef_utility = Vec::with_capacity(loads.len());
    for &load in &loads {
        let tm = shape.scaled_to_network_load(net, load);
        let ospf = OspfRouting::route(net, &tm)
            .map_err(|e| SpefError::InvalidInput(format!("OSPF failed: {e}")))?;
        ospf_utility.push(ospf.normalized_utility(net));
        let spef = quality
            .spef_config()
            .solve(TeInstance::new(net, &tm, &obj))?;
        spef_utility.push(spef.normalized_utility(net));
    }
    Ok(Panel {
        name: net.name().to_string(),
        loads,
        ospf_utility,
        spef_utility,
    })
}

/// Runs the Fig. 10 reproduction (all seven networks at `Quality::Full`,
/// the two backbones at `Quality::Quick`). Panels run on parallel threads.
///
/// # Errors
///
/// Propagates solver failures from any panel.
pub fn run(quality: Quality) -> Result<ExperimentResult, SpefError> {
    let nets = evaluation_networks(quality);
    let panels: Vec<Result<Panel, SpefError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = nets
            .iter()
            .map(|(net, tm)| scope.spawn(move || sweep_panel(net, tm, quality)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("panel thread panicked"))
            .collect()
    });

    let mut tables = Vec::new();
    let mut csvs = Vec::new();
    for panel in panels {
        let panel = panel?;
        let mut table = TextTable::new(
            format!(
                "Fig. 10 — normalized utility vs network load, {}",
                panel.name
            ),
            &["load", "OSPF", "SPEF"],
        );
        let mut rows = Vec::new();
        for i in 0..panel.loads.len() {
            table.push_row(vec![
                fmt_val(panel.loads[i]),
                fmt_val(panel.ospf_utility[i]),
                fmt_val(panel.spef_utility[i]),
            ]);
            rows.push(vec![
                panel.loads[i],
                panel.ospf_utility[i],
                panel.spef_utility[i],
            ]);
        }
        csvs.push(CsvFile::from_rows(
            format!("fig10_{}.csv", panel.name.to_lowercase()),
            &["load", "ospf_utility", "spef_utility"],
            &rows,
        ));
        tables.push(table);
    }

    Ok(ExperimentResult {
        id: "fig10",
        tables,
        csvs,
    })
}

#[cfg(test)]
mod tests {
    use crate::pinned::quick_run;

    #[test]
    fn spef_dominates_and_gap_widens() {
        let r = quick_run("fig10");
        assert_eq!(r.csvs.len(), 2); // Abilene + Cernet2 in quick mode
        for csv in &r.csvs {
            let rows: Vec<Vec<f64>> = csv
                .content
                .lines()
                .skip(1)
                .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
                .collect();
            for row in &rows {
                let (ospf, spef) = (row[1], row[2]);
                assert!(spef.is_finite(), "{}: SPEF must stay feasible", csv.name);
                assert!(
                    spef >= ospf - 1e-6 || ospf == f64::NEG_INFINITY,
                    "{}: SPEF {spef} vs OSPF {ospf}",
                    csv.name
                );
            }
            // The gap grows with load among finite OSPF points.
            let gaps: Vec<f64> = rows
                .iter()
                .filter(|r| r[1].is_finite())
                .map(|r| r[2] - r[1])
                .collect();
            if gaps.len() >= 2 {
                assert!(
                    gaps.last().unwrap() >= gaps.first().unwrap(),
                    "{}: gap shrank {gaps:?}",
                    csv.name
                );
            }
        }
    }
}
