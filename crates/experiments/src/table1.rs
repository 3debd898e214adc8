//! TABLE I: weights and link utilizations on the Fig. 1 network for five
//! TE objectives — β = 0, β = 1, Fortz–Thorup, min-max (β → ∞), and
//! min-MLU.

use spef_baselines::fortz_thorup::{FtConfig, FtOutcome};
use spef_baselines::mlu_lp::MluSolution;
use spef_core::{Objective, SpefError, TeInstance, TeSolver, TeWorkspace};
use spef_graph::EdgeId;
use spef_topology::standard;

use crate::report::{fmt_val, CsvFile, ExperimentResult, TextTable};
use crate::Quality;

/// The β used to approximate min-max load balance ("as β grows large, it
/// converges to that of min-max load balance", §II.B).
pub const MIN_MAX_BETA: f64 = 25.0;

/// Runs the TABLE I reproduction.
///
/// # Errors
///
/// Propagates solver failures (none occur on the shipped Fig. 1 instance).
pub fn run(quality: Quality) -> Result<ExperimentResult, SpefError> {
    let net = standard::fig1();
    let tm = standard::fig1_demands();
    let fw = quality.fw();
    let link_names = ["(1,3)", "(3,4)", "(1,2)", "(2,3)"];

    // β = 0 (LP duals) and β = 1, min-max via large β — one workspace,
    // cold trajectories (the objective differs between the solves).
    let mut ws = TeWorkspace::new();
    let beta0 = fw.solve_in(
        TeInstance::new(&net, &tm, &Objective::min_hop(net.link_count())),
        &mut ws,
    )?;
    let beta1 = fw.solve_in(
        TeInstance::new(&net, &tm, &Objective::proportional(net.link_count())),
        &mut ws,
    )?;
    let minmax = fw.solve_in(
        TeInstance::new(
            &net,
            &tm,
            &Objective::uniform(MIN_MAX_BETA, net.link_count()),
        ),
        &mut ws,
    )?;

    // Fortz–Thorup local search.
    let ft_cfg = FtConfig {
        max_weight: 12,
        max_evaluations: match quality {
            Quality::Full => 4000,
            Quality::Quick => 600,
        },
        restarts: 2,
        seed: 11,
        ..FtConfig::default()
    };
    let ft = FtOutcome::local_search(&net, &tm, &ft_cfg)
        .map_err(|e| SpefError::InvalidInput(format!("FT search failed: {e}")))?;

    // Min-MLU LP.
    let mlu = MluSolution::solve(&net, &tm)?;

    let mut table = TextTable::new(
        "TABLE I — weight and link utilization for different objective functions (Fig. 1 network)",
        &[
            "link", "b0 w", "b0 u", "b1 w", "b1 u", "FT w", "FT u", "minmax w", "minmax u",
            "MLU w", "MLU u",
        ],
    );
    let mut csv_rows = Vec::new();
    for e in 0..standard::FIG1_REPORTED_LINKS {
        let id = EdgeId::new(e);
        let cap = net.capacity(id);
        let u = |flows: &[f64]| flows[e] / cap;
        let row = [
            beta0.weights[e],
            u(beta0.flows.aggregate()),
            beta1.weights[e],
            u(beta1.flows.aggregate()),
            ft.weights[e],
            u(ft.routing.flows().aggregate()),
            minmax.weights[e],
            u(minmax.flows.aggregate()),
            mlu.link_prices[e],
            u(mlu.flows.aggregate()),
        ];
        table.push_row(
            std::iter::once(link_names[e].to_string())
                .chain(row.iter().map(|&v| fmt_val(v)))
                .collect(),
        );
        csv_rows.push(std::iter::once(e as f64).chain(row).collect());
    }

    Ok(ExperimentResult {
        id: "table1",
        tables: vec![table],
        csvs: vec![CsvFile::from_rows(
            "table1.csv",
            &[
                "edge", "b0_w", "b0_u", "b1_w", "b1_u", "ft_w", "ft_u", "minmax_w", "minmax_u",
                "mlu_w", "mlu_u",
            ],
            &csv_rows,
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pinned::quick_run;

    fn cell(result: &ExperimentResult, row: usize, col: usize) -> f64 {
        result.tables[0].rows[row][col].parse().unwrap()
    }

    #[test]
    fn matches_paper_columns() {
        let r = quick_run("table1");
        // β=1 column (paper: weights 3, 10, 1.5, 1.5; utils .67 .90 .33 .33).
        assert!((cell(r, 0, 3) - 3.0).abs() < 0.1, "w(1,3) beta1");
        assert!((cell(r, 1, 3) - 10.0).abs() < 0.1, "w(3,4) beta1");
        assert!((cell(r, 0, 4) - 0.667).abs() < 0.01, "u(1,3) beta1");
        assert!((cell(r, 2, 4) - 0.333).abs() < 0.01, "u(1,2) beta1");
        // min-max column utilizations: 0.5, 0.9, 0.5, 0.5.
        assert!((cell(r, 0, 8) - 0.5).abs() < 0.02, "u(1,3) minmax");
        assert!((cell(r, 1, 8) - 0.9).abs() < 0.01, "u(3,4) minmax");
        // MLU column: bottleneck (3,4) at 0.9, direct link util in
        // [0.1, 0.9] (the paper's free constant a).
        assert!((cell(r, 1, 10) - 0.9).abs() < 1e-6);
        let a = cell(r, 0, 10);
        assert!((0.1..=0.9).contains(&a), "a = {a}");
        // β=0: direct link saturated, no detour flow.
        assert!((cell(r, 0, 2) - 1.0).abs() < 1e-6);
        assert!(cell(r, 2, 2).abs() < 1e-6);
    }

    #[test]
    fn csv_emitted() {
        let r = quick_run("table1");
        assert_eq!(r.csvs.len(), 1);
        assert!(r.csvs[0].content.lines().count() == 5);
    }
}
