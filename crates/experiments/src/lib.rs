//! Experiment harness regenerating every table and figure of the SPEF
//! paper's evaluation (§II TABLE I, §V TABLES III–V, Figs. 2–13).
//!
//! Each experiment module exposes `run(quality) -> ExperimentResult`
//! containing human-readable tables (printed by the `repro` binary) and
//! CSV series (written to the results directory for plotting). Each
//! module's doc names the paper artifact it regenerates.
//!
//! Run everything:
//!
//! ```bash
//! cargo run --release -p spef-experiments --bin repro -- --exp all --out results
//! ```
//!
//! The CSVs of the `--quick` run are committed under `artifacts/quick`.
//! The tests run each artifact once at [`Quality::Quick`] and compare its
//! CSVs with those files byte for byte, so any drift in a paper number
//! fails them. A change that moves the numbers on purpose regenerates the
//! files:
//!
//! ```bash
//! cargo run --release -p spef-experiments --bin repro -- \
//!     --exp all --quick --out crates/experiments/artifacts/quick
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod reconfig;
pub mod report;
pub mod scale;
pub mod scenario;

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod table1;
pub mod table3;
pub mod table5;

pub use harness::{
    run_batch, run_scenario, BatchOptions, BatchReport, FailureScenarioResult, ScenarioFailure,
    ScenarioResult, SimScenarioResult,
};
pub use reconfig::ReconfigOutcome;
pub use report::{CsvFile, ExperimentResult, TextTable};
pub use scenario::{
    FailureSpec, ObjectiveSpec, Scenario, ScenarioGrid, SimSpec, SolverSpec, TopologySpec,
    TrafficModel, TrafficSpec,
};

/// Fidelity of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Paper-fidelity iteration budgets (the `repro` binary default).
    Full,
    /// Reduced budgets: the runs the tests check and the committed
    /// quick artifacts pin.
    Quick,
}

impl Quality {
    /// Frank–Wolfe configuration for this fidelity.
    pub fn fw(self) -> spef_core::FrankWolfeConfig {
        match self {
            Quality::Full => spef_core::FrankWolfeConfig::default(),
            Quality::Quick => spef_core::FrankWolfeConfig {
                convergence: spef_core::ConvergenceCriteria::with_tolerance(300, 1e-6),
            },
        }
    }

    /// NEM configuration for this fidelity.
    pub fn nem(self) -> spef_core::NemConfig {
        let budget = match self {
            Quality::Full => 6000,
            Quality::Quick => 1000,
        };
        spef_core::NemConfig {
            convergence: spef_core::ConvergenceCriteria::budget(budget),
            ..spef_core::NemConfig::default()
        }
    }

    /// A default SPEF pipeline config (β-independent parts).
    pub fn spef_config(self) -> spef_core::SpefConfig {
        spef_core::SpefConfig {
            solver: spef_core::TeSolverKind::FrankWolfe(self.fw()),
            nem: self.nem(),
            ..spef_core::SpefConfig::default()
        }
    }
}

/// All paper-artifact experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 12] = [
    "table1", "fig2", "fig3", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13", "table3",
    "table5",
];

/// Runs one experiment by id.
///
/// # Errors
///
/// Returns an error string for unknown ids or if the underlying solvers
/// fail (which indicates a bug — the shipped experiments are all feasible).
pub fn run_experiment(id: &str, quality: Quality) -> Result<ExperimentResult, String> {
    match id {
        "table1" => table1::run(quality).map_err(|e| e.to_string()),
        "fig2" => Ok(fig2::run()),
        "fig3" => fig3::run(quality).map_err(|e| e.to_string()),
        "fig6" => fig6::run(quality).map_err(|e| e.to_string()),
        "fig7" => fig7::run(quality).map_err(|e| e.to_string()),
        "fig9" => fig9::run(quality).map_err(|e| e.to_string()),
        "fig10" => fig10::run(quality).map_err(|e| e.to_string()),
        "fig11" => fig11::run(quality).map_err(|e| e.to_string()),
        "fig12" => fig12::run(quality).map_err(|e| e.to_string()),
        "fig13" => fig13::run(quality).map_err(|e| e.to_string()),
        "table3" => Ok(table3::run()),
        "table5" => table5::run(quality).map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown experiment {other:?}; known: {ALL_EXPERIMENTS:?}"
        )),
    }
}

/// The one run of each paper artifact in the tests: every claim test
/// takes its artifacts from [`pinned::quick_run`], which checks the run's
/// shape and compares its CSVs with the committed quick-run files.
#[cfg(test)]
pub(crate) mod pinned {
    use std::sync::OnceLock;

    use super::{run_experiment, ExperimentResult, Quality, ALL_EXPERIMENTS};

    /// The committed quick-run CSVs, from the workspace root: the `--out`
    /// of the one command that writes them.
    const PINS: &str = "crates/experiments/artifacts/quick";

    /// The same directory, from this crate's manifest.
    const PIN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/artifacts/quick");

    /// The quick run of paper artifact `id`, checked against its pins by
    /// [`checked_run`]. The first test that asks for `id` computes it;
    /// every later one, on any thread, shares that run, so each artifact
    /// is computed once per test run however many tests read it.
    pub(crate) fn quick_run(id: &'static str) -> &'static ExperimentResult {
        static RUNS: [OnceLock<ExperimentResult>; ALL_EXPERIMENTS.len()] =
            [const { OnceLock::new() }; ALL_EXPERIMENTS.len()];
        let slot = ALL_EXPERIMENTS
            .iter()
            .position(|&known| known == id)
            .unwrap_or_else(|| panic!("{id}: not a paper artifact"));
        RUNS[slot].get_or_init(|| checked_run(id))
    }

    /// Runs paper artifact `id` at [`Quality::Quick`] and checks its shape:
    /// the id echoes, every table has rows, every CSV has a header and a
    /// data row, and the rendering is not trivial. Then it writes the CSVs
    /// with [`ExperimentResult::write_csvs`] and compares each file byte
    /// for byte with its pin, naming the file and the first differing
    /// line.
    fn checked_run(id: &'static str) -> ExperimentResult {
        let result = run_experiment(id, Quality::Quick)
            .unwrap_or_else(|e| panic!("experiment {id} failed: {e}"));
        assert_eq!(result.id, id);
        assert!(!result.tables.is_empty(), "{id}: no tables");
        for t in &result.tables {
            assert!(!t.rows.is_empty(), "{id}: empty table {}", t.title);
        }
        for csv in &result.csvs {
            assert!(csv.content.lines().count() >= 2, "{id}: empty csv");
            assert!(csv.name.ends_with(".csv"));
        }
        // Tables render without panicking and non-trivially.
        let rendered = result.to_string();
        assert!(rendered.len() > 40, "{id}: suspiciously short rendering");

        let dir = std::env::temp_dir().join(format!("spef-quick-{id}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        result.write_csvs(&dir).unwrap();
        let mut written: Vec<String> = result.csvs.iter().map(|c| c.name.clone()).collect();
        written.sort_unstable();
        assert_eq!(written, pins_of(id), "{id}: CSV names differ from {PINS}");
        for name in &written {
            let pinned = std::fs::read_to_string(format!("{PIN_DIR}/{name}")).unwrap();
            let got = std::fs::read_to_string(dir.join(name)).unwrap();
            if got != pinned {
                // Two different texts differ in some line, or in their
                // line count, so the search ends.
                let (mut a, mut b) = (pinned.split('\n'), got.split('\n'));
                let (line, a, b) = (1..)
                    .map(|k| (k, a.next(), b.next()))
                    .find(|(_, a, b)| a != b)
                    .unwrap();
                panic!(
                    "{PINS}/{name}:{line}: pinned {:?}, this run wrote {:?}; only a deliberate \
                     change regenerates the pins: cargo run --release -p spef-experiments \
                     --bin repro -- --exp all --quick --out {PINS}",
                    a.unwrap_or("<end of file>"),
                    b.unwrap_or("<end of file>"),
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        result
    }

    /// The paper artifact a pinned file belongs to: the id its name
    /// starts with, followed by a non-digit (`fig7a.csv` is Fig. 7's,
    /// `fig10_abilene.csv` is Fig. 10's).
    fn owner(name: &str) -> Option<&'static str> {
        ALL_EXPERIMENTS.into_iter().find(|id| {
            name.strip_prefix(id)
                .is_some_and(|rest| !rest.starts_with(|c: char| c.is_ascii_digit()))
        })
    }

    /// The names of every pinned file.
    fn pins() -> Vec<String> {
        std::fs::read_dir(PIN_DIR)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect()
    }

    /// The sorted names of the pinned files of artifact `id`.
    fn pins_of(id: &str) -> Vec<String> {
        let mut names: Vec<String> = pins()
            .into_iter()
            .filter(|name| owner(name) == Some(id))
            .collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn every_artifact_has_pins_and_every_pin_an_artifact() {
        for name in pins() {
            assert!(owner(&name).is_some(), "{PINS}/{name}: no paper artifact");
        }
        for id in ALL_EXPERIMENTS {
            assert!(!pins_of(id).is_empty(), "{id}: no pinned CSV in {PINS}");
        }
    }
}
