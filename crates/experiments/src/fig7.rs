//! Fig. 7: the first (a) and second (b) link weights on the Fig. 4
//! network for β = 0, 1, 5.
//!
//! Paper findings reproduced: the bottleneck link's first weight exceeds
//! the others at β = 0 (LP dual pricing of the saturated link); most
//! second weights are zero — only links whose exponential split must be
//! biased away from even carry a positive second weight; the bottleneck's
//! second-weight pressure grows with β ("we route fewer traffic through
//! link 1 with larger β").

use spef_core::SpefError;
use spef_topology::standard;

use crate::fig6::spef_routings;
use crate::report::{fmt_val, CsvFile, ExperimentResult, TextTable};
use crate::Quality;

/// Runs the Fig. 7 reproduction.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(quality: Quality) -> Result<ExperimentResult, SpefError> {
    let routings = spef_routings(quality)?;

    let mut first = TextTable::new(
        "Fig. 7(a) — first link weights (Fig. 4 network)",
        &["link", "SPEF0", "SPEF1", "SPEF5"],
    );
    let mut second = TextTable::new(
        "Fig. 7(b) — second link weights (Fig. 4 network)",
        &["link", "SPEF0", "SPEF1", "SPEF5"],
    );
    let mut rows1 = Vec::new();
    let mut rows2 = Vec::new();
    for e in 0..standard::FIG4_SHOWN_LINKS {
        let w1: Vec<f64> = routings.iter().map(|r| r.first_weights()[e]).collect();
        let w2: Vec<f64> = routings.iter().map(|r| r.second_weights()[e]).collect();
        first.push_row(
            std::iter::once(format!("{}", e + 1))
                .chain(w1.iter().map(|&v| fmt_val(v)))
                .collect(),
        );
        second.push_row(
            std::iter::once(format!("{}", e + 1))
                .chain(w2.iter().map(|&v| fmt_val(v)))
                .collect(),
        );
        rows1.push(std::iter::once((e + 1) as f64).chain(w1).collect());
        rows2.push(std::iter::once((e + 1) as f64).chain(w2).collect());
    }

    Ok(ExperimentResult {
        id: "fig7",
        tables: vec![first, second],
        csvs: vec![
            CsvFile::from_rows("fig7a.csv", &["link", "spef0", "spef1", "spef5"], &rows1),
            CsvFile::from_rows("fig7b.csv", &["link", "spef0", "spef1", "spef5"], &rows2),
        ],
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
    fn paper_shape_holds() {
        let r = quick_run("fig7");
        let first = parse(&r.csvs[0].content);
        let second = parse(&r.csvs[1].content);
        assert_eq!(first.len(), 13);
        assert_eq!(second.len(), 13);
        // Fig. 7(a) at β=0: the saturated bottleneck link 1 carries an
        // elevated weight, strictly above the unsaturated links' q = 1.
        let w0: Vec<f64> = first.iter().map(|r| r[1]).collect();
        assert!(w0[0] > 1.5, "bottleneck beta0 weight {}", w0[0]);
        let others_max = w0[1..].iter().cloned().fold(0.0, f64::max);
        assert!(w0[0] >= others_max, "bottleneck must carry the max weight");
        // All first weights positive.
        for row in &first {
            for v in &row[1..] {
                assert!(*v > 0.0);
            }
        }
        // Fig. 7(b): second weights are sparse — only a few links carry a
        // *significant* second weight (the gradient iterates leave tiny
        // residues elsewhere, as does the paper's Algorithm 2).
        for (bi, _) in crate::fig6::BETAS.iter().enumerate() {
            let max_v = second.iter().map(|r| r[1 + bi]).fold(0.0, f64::max);
            if max_v <= 0.0 {
                continue;
            }
            let significant = second.iter().filter(|r| r[1 + bi] > 0.05 * max_v).count();
            assert!(
                significant <= 8,
                "beta index {bi}: {significant} significant"
            );
        }
        // And non-negative everywhere.
        for row in &second {
            for v in &row[1..] {
                assert!(*v >= 0.0);
            }
        }
    }
}
