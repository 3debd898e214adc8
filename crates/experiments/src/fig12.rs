//! Fig. 12: convergence of the dual-decomposition algorithms on CERNET2 —
//! (a) Algorithm 1's TE dual objective over 2000 iterations for step-size
//! ratios ×{2, 1, 0.5, 0.1} of the default `1/max c`, and (b) Algorithm
//! 2's NEM dual objective over 1000 iterations for ratios
//! ×{2, 1, 0.5, 0.25} of the default `1/max f*`.
//!
//! Paper findings reproduced: the default step converges fast; smaller
//! steps converge monotonically but slower; "too large a step size would
//! cause a little oscillation"; Algorithm 2's zero initialisation is
//! already a good approximate dual.

use spef_core::{
    build_dags, ConvergenceCriteria, DualDecompConfig, NemConfig, NemInstance, Objective,
    SpefError, StepRule, TeInstance, TeSolver, TeWorkspace,
};
use spef_topology::{standard, TrafficMatrix};

use crate::report::{fmt_val, CsvFile, ExperimentResult, TextTable};
use crate::{scale, Quality};

/// Step-size ratios for Algorithm 1 (Fig. 12(a) legend).
pub const TE_RATIOS: [f64; 4] = [2.0, 1.0, 0.5, 0.1];
/// Step-size ratios for Algorithm 2 (Fig. 12(b) legend).
pub const NEM_RATIOS: [f64; 4] = [2.0, 1.0, 0.5, 0.25];

/// Iteration budgets (the paper's x-ranges at `Quality::Full`).
pub fn budgets(quality: Quality) -> (usize, usize) {
    match quality {
        Quality::Full => (2000, 1000),
        Quality::Quick => (150, 100),
    }
}

/// Runs the Fig. 12 reproduction.
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
    let lmax = scale::max_feasible_load(&net, &shape, 0.05)?;
    let tm = shape.scaled_to_network_load(&net, (0.21f64).min(0.85 * lmax));
    let obj = Objective::proportional(net.link_count());
    let (te_iters, nem_iters) = budgets(quality);
    // Shared arenas across every solve; each trace still starts from the
    // paper's initial point (§V.F), as the figure compares trajectories.
    let mut ws = TeWorkspace::new();

    // Panel (a): Algorithm 1 traces.
    let mut te_traces = Vec::new();
    for &ratio in &TE_RATIOS {
        let cfg = DualDecompConfig {
            step: StepRule::DefaultRatio(ratio),
            // Zero tolerance: run the full budget for the figure.
            convergence: ConvergenceCriteria::with_tolerance(te_iters, 0.0),
            record_trace: true,
        };
        let out = cfg.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)?;
        te_traces.push((ratio, out.dual_objective_trace));
    }

    // Panel (b): Algorithm 2 traces against the optimal f*. The target is
    // padded by the TE solver's accuracy: on links with no routing choice
    // the realised flow is *forced*, and a target even infinitesimally
    // below it would push the corresponding dual upward forever (a linear
    // drift in d(v) that the paper's exactly-realisable target never
    // exhibits).
    let te = quality
        .fw()
        .solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)?;
    let max_f = te.flows.aggregate().iter().cloned().fold(0.0, f64::max);
    let target: Vec<f64> = te
        .flows
        .aggregate()
        .iter()
        .map(|f| f + 1e-6 * max_f)
        .collect();
    let dests = tm.destinations();
    let tol = spef_core::protocol::support_slack_tolerance(net.graph(), &te.weights, &te.flows)?;
    let dags = build_dags(net.graph(), &te.weights, &dests, tol)?;
    let mut nem_traces = Vec::new();
    for &ratio in &NEM_RATIOS {
        let cfg = NemConfig {
            step: StepRule::DefaultRatio(ratio),
            // Zero tolerance: run the full budget for the figure.
            convergence: ConvergenceCriteria::with_tolerance(nem_iters, 0.0),
            record_trace: true,
        };
        let out = cfg.solve_in(NemInstance::new(net.graph(), &dags, &tm, &target), &mut ws)?;
        nem_traces.push((ratio, out.dual_objective_trace));
    }

    // Render.
    let mut tables = Vec::new();
    let mut csvs = Vec::new();
    for (panel, traces, name) in [
        ("a", &te_traces, "TE dual objective (Algorithm 1)"),
        ("b", &nem_traces, "NEM dual objective (Algorithm 2)"),
    ] {
        let iters = traces[0].1.len();
        let mut table = TextTable::new(
            format!("Fig. 12({panel}) — {name}, Cernet2"),
            &["iteration", "x2", "x1", "x0.5", "x0.25/0.1"],
        );
        let mut rows = Vec::new();
        for k in 0..iters {
            let row: Vec<f64> = std::iter::once(k as f64)
                .chain(traces.iter().map(|(_, t)| t[k]))
                .collect();
            if k < 3 || k % (iters / 10).max(1) == 0 || k == iters - 1 {
                table.push_row(
                    std::iter::once(format!("{k}"))
                        .chain(row[1..].iter().map(|&v| fmt_val(v)))
                        .collect(),
                );
            }
            rows.push(row);
        }
        tables.push(table);
        csvs.push(CsvFile::from_rows(
            format!("fig12{panel}.csv"),
            &["iteration", "ratio2", "ratio1", "ratio05", "ratio_small"],
            &rows,
        ));
    }

    Ok(ExperimentResult {
        id: "fig12",
        tables,
        csvs,
    })
}

#[cfg(test)]
mod tests {
    use crate::pinned::quick_run;

    fn parse(csv: &str) -> Vec<Vec<f64>> {
        csv.lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect()
    }

    #[test]
    fn traces_have_paper_shape() {
        let r = quick_run("fig12");
        let te = parse(&r.csvs[0].content);
        let nem = parse(&r.csvs[1].content);
        // Every ratio's TE dual decreases substantially from its start
        // (start is an upper bound far from the optimum).
        for col in 1..=4 {
            let first = te.first().unwrap()[col];
            let last = te.last().unwrap()[col];
            assert!(last < first, "TE ratio col {col}: {first} → {last}");
        }
        // The default ratio (col 2) converges fast: through the early
        // budget it sits below the smallest step (col 4), which descends
        // monotonically but slowly. (With a constant step the default
        // ratio plateaus at an O(step) neighbourhood of the optimum, so
        // the *final* values may cross — the paper's claim is about speed.)
        let k10 = (te.len() / 10).max(1);
        assert!(
            te[k10][2] < te[k10][4],
            "default ratio not faster at k={k10}: {} vs {}",
            te[k10][2],
            te[k10][4]
        );
        // ...and it has essentially reached its plateau by a third of the
        // budget.
        let last = te.last().unwrap()[2];
        let descent = te.first().unwrap()[2] - last;
        assert!(
            (te[te.len() / 3][2] - last).abs() <= 0.15 * descent,
            "default ratio still moving after a third of the budget"
        );
        // NEM duals are finite and the default ratio is non-increasing
        // overall.
        for row in &nem {
            for v in &row[1..] {
                assert!(v.is_finite());
            }
        }
        let nem_first = nem.first().unwrap()[2];
        let nem_last = nem.last().unwrap()[2];
        assert!(nem_last <= nem_first + 1e-9);
    }
}
