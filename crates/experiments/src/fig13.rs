//! Fig. 13: impact of integer weights on utility — Abilene and CERNET2,
//! noninteger (scaled, Dijkstra tolerance 0.3) vs integer (rounded,
//! tolerance 1) first weights across a load sweep.
//!
//! Paper findings reproduced: "the integer weights has little impact on
//! utility for the low network loading. At higher network loadings, errors
//! due to integer tolerances comes into play so that the utility starts to
//! deviate."

use spef_core::{Objective, SpefError, TeInstance, TeSolver, WeightMode};
use spef_topology::standard;

use crate::report::{fmt_val, CsvFile, ExperimentResult, TextTable};
use crate::{scale, Quality};

/// Runs the Fig. 13 reproduction.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(quality: Quality) -> Result<ExperimentResult, SpefError> {
    let abilene = standard::abilene();
    let cernet2 = standard::cernet2();
    let tm_a = spef_topology::TrafficMatrix::fortz_thorup(&abilene, crate::fig9::ABILENE_TM_SEED);
    let tm_c = spef_topology::TrafficMatrix::gravity(
        &cernet2,
        crate::fig9::CERNET2_SIGMA,
        crate::fig9::CERNET2_TM_SEED,
    );
    let n_points = match quality {
        Quality::Full => 6,
        Quality::Quick => 3,
    };

    let mut tables = Vec::new();
    let mut csvs = Vec::new();
    for (net, shape) in [(abilene, tm_a), (cernet2, tm_c)] {
        let loads = scale::load_series(&net, &shape, n_points, 0.45, 0.9)?;
        let obj = Objective::proportional(net.link_count());
        let mut table = TextTable::new(
            format!("Fig. 13 — integer vs noninteger weights, {}", net.name()),
            &["load", "noninteger U", "integer U"],
        );
        let mut rows = Vec::new();
        for &load in &loads {
            let tm = shape.scaled_to_network_load(&net, load);
            let mut utilities = Vec::new();
            for mode in [WeightMode::ScaledNoninteger, WeightMode::Integer] {
                let cfg = spef_core::SpefConfig {
                    weight_mode: mode,
                    ..quality.spef_config()
                };
                let routing = cfg.solve(TeInstance::new(&net, &tm, &obj))?;
                utilities.push(routing.normalized_utility(&net));
            }
            table.push_row(vec![
                fmt_val(load),
                fmt_val(utilities[0]),
                fmt_val(utilities[1]),
            ]);
            rows.push(vec![load, utilities[0], utilities[1]]);
        }
        tables.push(table);
        csvs.push(CsvFile::from_rows(
            format!("fig13_{}.csv", net.name().to_lowercase()),
            &["load", "noninteger", "integer"],
            &rows,
        ));
    }

    Ok(ExperimentResult {
        id: "fig13",
        tables,
        csvs,
    })
}

#[cfg(test)]
mod tests {
    use crate::pinned::quick_run;

    #[test]
    fn integer_degradation_small_at_low_load() {
        let r = quick_run("fig13");
        for csv in &r.csvs {
            let rows: Vec<Vec<f64>> = csv
                .content
                .lines()
                .skip(1)
                .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
                .collect();
            // At the lowest load both configurations are feasible and
            // close (paper: "little impact ... for the low network
            // loading").
            let first = &rows[0];
            assert!(first[1].is_finite(), "{}", csv.name);
            assert!(first[2].is_finite(), "{}", csv.name);
            let rel = (first[1] - first[2]).abs() / first[1].abs().max(1.0);
            assert!(rel < 0.35, "{}: low-load deviation {rel}", csv.name);
            // Utilities decrease with load for both modes.
            for w in rows.windows(2) {
                if w[0][1].is_finite() && w[1][1].is_finite() {
                    assert!(w[1][1] <= w[0][1] + 1e-6);
                }
            }
        }
    }
}
