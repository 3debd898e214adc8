//! Fig. 3: link weights (a) and utilizations (b) versus the load-balance
//! parameter β on the Fig. 1 network, q = 1.
//!
//! The paper's qualitative findings reproduced here: the weight of the
//! bottleneck arc (3,4) grows explosively with β (its spare capacity is
//! pinned at 0.1, so `w = 1/0.1^β`), the arcs (1,2) and (2,3) always share
//! one weight, and the utilization of (1,3) decreases from 1 toward the
//! min-max split 0.5 as β grows.

use spef_core::{Objective, SpefError, TeInstance, TeSolver, TeWorkspace};
use spef_topology::standard;

use crate::report::{fmt_val, CsvFile, ExperimentResult, TextTable};
use crate::Quality;

/// β sample points (denser near 0 where the behaviour changes fastest).
pub fn beta_samples(quality: Quality) -> Vec<f64> {
    match quality {
        Quality::Full => (0..=20).map(|i| i as f64 * 0.25).collect(),
        Quality::Quick => vec![0.0, 0.5, 1.0, 2.0, 3.0, 5.0],
    }
}

/// Runs the Fig. 3 reproduction.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(quality: Quality) -> Result<ExperimentResult, SpefError> {
    let net = standard::fig1();
    let tm = standard::fig1_demands();
    let fw = quality.fw();
    // One workspace across the beta sweep: the objective changes every
    // solve, so each runs the cold trajectory on warm arenas.
    let mut ws = TeWorkspace::new();

    let mut rows = Vec::new();
    for beta in beta_samples(quality) {
        let obj = Objective::uniform(beta, net.link_count());
        let sol = fw.solve_in(TeInstance::new(&net, &tm, &obj), &mut ws)?;
        let u = net.utilizations(sol.flows.aggregate());
        rows.push(vec![
            beta,
            sol.weights[0],
            sol.weights[1],
            sol.weights[2],
            sol.weights[3],
            u[0],
            u[1],
            u[2],
            u[3],
        ]);
    }

    let mut table = TextTable::new(
        "Fig. 3 — weights and utilizations vs beta (Fig. 1 network, q = 1)",
        &[
            "beta", "w(1,3)", "w(3,4)", "w(1,2)", "w(2,3)", "u(1,3)", "u(3,4)", "u(1,2)", "u(2,3)",
        ],
    );
    for row in &rows {
        table.push_row(row.iter().map(|&v| fmt_val(v)).collect());
    }

    Ok(ExperimentResult {
        id: "fig3",
        tables: vec![table],
        csvs: vec![CsvFile::from_rows(
            "fig3.csv",
            &[
                "beta", "w13", "w34", "w12", "w23", "u13", "u34", "u12", "u23",
            ],
            &rows,
        )],
    })
}

#[cfg(test)]
mod tests {
    use crate::pinned::quick_run;

    #[test]
    fn paper_shape_holds() {
        let r = quick_run("fig3");
        let rows = &r.csvs[0].content;
        let parsed: Vec<Vec<f64>> = rows
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        // Fig. 3(a): w(3,4) grows explosively with beta.
        let w34_first = parsed.first().unwrap()[2];
        let w34_last = parsed.last().unwrap()[2];
        assert!(
            w34_last > 100.0 * w34_first.max(1.0),
            "{w34_first} → {w34_last}"
        );
        // Arcs (1,2) and (2,3) always share a weight.
        for row in &parsed {
            assert!((row[3] - row[4]).abs() < 1e-6 * row[3].max(1.0));
        }
        // Fig. 3(b): u(1,3) decreases in beta, from 1.0 toward 0.5.
        let u13: Vec<f64> = parsed.iter().map(|r| r[5]).collect();
        assert!((u13[0] - 1.0).abs() < 1e-6);
        for w in u13.windows(2) {
            assert!(w[1] <= w[0] + 1e-6);
        }
        assert!(*u13.last().unwrap() < 0.6);
        // u(3,4) constant at 0.9 (single path).
        for row in &parsed {
            assert!((row[6] - 0.9).abs() < 1e-9);
        }
    }
}
