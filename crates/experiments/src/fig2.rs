//! Fig. 2: link cost as a function of load for a unit-capacity link —
//! the Fortz–Thorup piecewise-linear cost against the (q, β) family with
//! β = 0, 1, 2 and q = 1.
//!
//! The (q, β) "cost" of load `f` on a unit link is the utility loss
//! `Φ_β(f) = V(1) − V(1 − f)`, normalised so `Φ_β(0) = 0`:
//! `Φ_0(f) = f`, `Φ_1(f) = −ln(1 − f)`, `Φ_2(f) = 1/(1−f) − 1`.

use spef_baselines::fortz_thorup::FtCost;
use spef_core::Objective;
use spef_graph::EdgeId;

use crate::report::{CsvFile, ExperimentResult, TextTable};

/// Loads sampled along the x-axis.
pub const SAMPLES: usize = 100;

/// Computes the β-family cost `V(1) − V(1 − f)` for a unit link.
pub fn beta_cost(beta: f64, load: f64) -> f64 {
    let obj = Objective::uniform(beta, 1);
    let e = EdgeId::new(0);
    obj.utility(e, 1.0) - obj.utility(e, (1.0 - load).max(1e-12))
}

/// Runs the Fig. 2 reproduction.
pub fn run() -> ExperimentResult {
    let mut rows = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        let load = i as f64 / SAMPLES as f64;
        rows.push(vec![
            load,
            FtCost.cost(load, 1.0),
            beta_cost(0.0, load),
            beta_cost(1.0, load),
            beta_cost(2.0, load),
        ]);
    }

    let mut table = TextTable::new(
        "Fig. 2 — link cost vs load (capacity 1); sampled points",
        &["load", "FT", "beta=0", "beta=1", "beta=2"],
    );
    for &i in &[0usize, 33, 66, 90, 95, 99] {
        table.push_row(rows[i].iter().map(|v| format!("{v:.3}")).collect());
    }

    ExperimentResult {
        id: "fig2",
        tables: vec![table],
        csvs: vec![CsvFile::from_rows(
            "fig2.csv",
            &["load", "ft", "beta0", "beta1", "beta2"],
            &rows,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pinned::quick_run;

    #[test]
    fn curves_have_paper_shape() {
        // All curves are 0 at load 0, increasing; the barrier curves
        // (β ≥ 1) and FT explode near 1, β=0 stays linear.
        assert_eq!(beta_cost(0.0, 0.0), 0.0);
        assert!((beta_cost(0.0, 0.7) - 0.7).abs() < 1e-12);
        assert!(beta_cost(1.0, 0.99) > 4.0);
        assert!(beta_cost(2.0, 0.99) > beta_cost(1.0, 0.99));
        // FT reaches ~10 at capacity and explodes past it (the 500 slope).
        assert!(FtCost.cost(0.99, 1.0) > 9.0);
        assert!(FtCost.cost(1.05, 1.0) > 10.0);
        // Ordering at moderate load: β=2 ≥ β=1 ≥ β=0.
        let f = 0.8;
        assert!(beta_cost(2.0, f) >= beta_cost(1.0, f));
        assert!(beta_cost(1.0, f) >= beta_cost(0.0, f));
    }

    #[test]
    fn run_produces_full_csv() {
        let r = quick_run("fig2");
        assert_eq!(r.csvs[0].content.lines().count(), SAMPLES + 1);
        assert_eq!(r.tables[0].rows.len(), 6);
    }
}
