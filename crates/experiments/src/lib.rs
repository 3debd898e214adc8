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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod reconfig;
pub mod report;
pub mod scale;
pub mod scenario;

pub mod failure;
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
    /// Reduced budgets for CI and integration tests.
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

/// Extension experiments beyond the paper's artifacts (run explicitly via
/// `repro --exp <id>`): a single-link-failure robustness study.
pub const EXTRA_EXPERIMENTS: [&str; 1] = ["failure"];

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
        "failure" => failure::run(quality).map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown experiment {other:?}; known: {ALL_EXPERIMENTS:?} plus {EXTRA_EXPERIMENTS:?}"
        )),
    }
}
