//! The experiment registry's public entry point and the cross-artifact
//! consistency checks. Each paper artifact itself runs once, in the
//! `spef-experiments` unit tests, which compare its CSVs byte for byte with
//! the committed quick-run files; the cross-checks here read those files,
//! so they check the numbers that run produces without computing them again.

use spef_experiments::{run_experiment, Quality};

/// The committed quick-run CSVs of `spef-experiments`.
const PIN_DIR: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../experiments/artifacts/quick"
);

/// The data rows of pinned CSV `name`, every cell parsed as a number.
fn pinned_rows(name: &str) -> Vec<Vec<f64>> {
    let path = format!("{PIN_DIR}/{name}");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .lines()
        .skip(1)
        .map(|l| l.split(',').map(|c| c.parse().unwrap()).collect())
        .collect()
}

#[test]
fn unknown_experiment_is_rejected() {
    let err = run_experiment("fig99", Quality::Quick).unwrap_err();
    assert!(err.contains("unknown experiment"));
    assert!(err.contains("fig99"));
}

#[test]
fn table1_and_fig3_agree_at_beta_one() {
    // The β = 1 column of TABLE I and the β = 1 sample of Fig. 3 are the
    // same computation through two different harness paths.
    let t1_w13 = pinned_rows("table1.csv")[0][3]; // link (1,3), b1_w
    let beta1_row = pinned_rows("fig3.csv")
        .into_iter()
        .find(|row| (row[0] - 1.0).abs() < 1e-9)
        .expect("beta = 1 sampled");
    assert!(
        (t1_w13 - beta1_row[1]).abs() < 0.05 * beta1_row[1],
        "w(1,3): table1 {t1_w13} vs fig3 {}",
        beta1_row[1]
    );
}

#[test]
fn fig6_and_fig7_share_the_spef_solutions() {
    // Fig. 7's first weights must be consistent with Fig. 6's utilizations:
    // under β = 1 the weight is 1/(c−f) = 1/(c(1−u)).
    let u_rows = pinned_rows("fig6.csv");
    let w_rows = pinned_rows("fig7a.csv");
    assert_eq!(u_rows.len(), w_rows.len());
    for (u_row, w_row) in u_rows.iter().zip(&w_rows) {
        let u = u_row[3]; // SPEF1 utilization
        let w = w_row[2]; // SPEF1 first weight
        let expected = 1.0 / (5.0 * (1.0 - u));
        // The utilizations are the *realised* flows, the weights come from
        // the TE optimum — equal up to the NEM realisation tolerance.
        assert!(
            (w - expected).abs() < 0.15 * expected,
            "link {}: w {w} vs 1/(c-f) {expected}",
            u_row[0]
        );
    }
}
