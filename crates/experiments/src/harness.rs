//! Parallel, dependency-aware scenario-sweep harness.
//!
//! Takes a batch of [`Scenario`]s (usually from a
//! [`ScenarioGrid`](crate::scenario::ScenarioGrid)) and collects a
//! [`BatchReport`] of [`ScenarioResult`]s that serializes to the
//! `BENCH_*.json` format downstream tooling tracks.
//!
//! Execution has one path: scenarios are grouped into *chains* by
//! [`Scenario::chain_key`] (same topology, demand model + seed, objective
//! and solver — only the load and the stages vary within a chain).
//! Rayon fans out across chains; within a chain the scenarios run serially
//! on one shared [`spef_core::TeWorkspace`] + [`SimWorkspace`] pair, so
//! neighbouring grid points reuse the engine's DAG/flow/split arenas, the
//! SPF skip, and the simplex tableau without reallocating. Scenarios in a
//! chain that are identical up to the sim stage ([`Scenario::solve_key`])
//! share a single pipeline solve outright. A scenario that panics becomes
//! a failure row carrying the panic message, and the rest of its chain
//! runs on fresh workspaces.
//!
//! Reuse is strictly *result-preserving*: a workspace holds arenas, never
//! a previous solution, so each scenario runs the same iteration sequence
//! as on a fresh workspace and every deterministic result field is
//! bit-identical to an isolated [`run_scenario`] — the reference the
//! tests compare batches against. Every scenario carries its own seed, so
//! the parallel schedule cannot change any result either; a serial run is
//! `RAYON_NUM_THREADS=1`.
//!
//! ```
//! use spef_experiments::harness::{run_batch, BatchOptions};
//! use spef_experiments::scenario::ScenarioGrid;
//! use spef_experiments::scenario::TopologySpec;
//!
//! let scenarios = ScenarioGrid::new()
//!     .topologies([TopologySpec::Fig1])
//!     .seeds([1])
//!     .loads([0.2])
//!     .build();
//! let report = run_batch(scenarios, &BatchOptions::default());
//! assert_eq!(report.results.len(), 1);
//! assert!(report.results[0].mlu < 1.0);
//! ```

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use rayon::prelude::*;
use serde::{Deserialize, Number, Serialize, Value};
use spef_baselines::fortz_thorup::{FtConfig, FtOutcome};
use spef_baselines::{ospf, RobustConfig, RobustOutcome};
use spef_core::{ForwardingTable, SpefRouting, SpfStats, TeInstance, TeSolver, TeWorkspace};
use spef_netsim::{simulate_with, SimWorkspace};
use spef_topology::{Network, TrafficMatrix};

use crate::reconfig::{self, StaleWeightProbes};
use crate::scenario::{Scenario, SolverSpec};

/// Schema version stamped into every [`BatchReport`]; bump when the JSON
/// layout changes incompatibly.
pub const BATCH_SCHEMA_VERSION: u64 = 1;

/// Deterministic measurements of a scenario's packet-level simulation
/// stage. Every field is a pure function of the scenario (the simulator is
/// seeded), so `repro diff` compares them bit-identically — across runs,
/// machines and execution modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimScenarioResult {
    /// Packets handed to the network by all sources.
    pub generated_packets: u64,
    /// Packets that reached their destination.
    pub delivered_packets: u64,
    /// Packets dropped at full buffers.
    pub dropped_packets: u64,
    /// Mean end-to-end delay of delivered packets, seconds.
    pub mean_delay: f64,
    /// 99th-percentile end-to-end delay, seconds.
    pub p99_delay: f64,
    /// Links that carried any traffic.
    pub links_used: u64,
    /// Busiest link's mean load in bits/s.
    pub max_link_load_bps: f64,
    /// Sum of all links' mean loads in bits/s (total carried traffic).
    pub total_link_load_bps: f64,
    /// High-water mark of live packet slots (memory witness).
    pub peak_packet_slots: u64,
}

/// Deterministic measurements of a scenario's single-circuit failure
/// stage. Every field is a pure function of the scenario, so `repro diff`
/// compares them bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureScenarioResult {
    /// MLU after OSPF (InvCap weights) reconverges on the survivors.
    pub mlu_ospf: f64,
    /// MLU with the stale intact-optimal SPEF weights on the survivors
    /// (even-ECMP — the second weights' splits are meaningless once the
    /// path set changed).
    pub mlu_stale: f64,
    /// MLU after full SPEF re-optimisation on the degraded topology.
    pub mlu_reopt: f64,
    /// TE-solver iterations the re-optimisation spent, from the solver's
    /// fixed initial point (the same count on a fresh or a chain's
    /// workspace).
    pub reopt_iterations: u64,
    /// Worst-case MLU (over intact + every connected single-circuit
    /// failure) of the robust weight search's best setting.
    pub mlu_robust: f64,
    /// Weight pushes needed to migrate from the stale to the re-optimised
    /// setting.
    pub reconfig_steps: u64,
    /// Peak transient MLU under the naive ascending-index push order.
    pub reconfig_peak_mlu: f64,
    /// Peak transient MLU under the greedy minimum-MLU push order.
    pub reconfig_greedy_peak_mlu: f64,
}

/// Measurements of a scenario's scale stage. The size counts are pure
/// functions of the scenario and bit-diffed by `repro diff`; the two
/// `peak_*_bytes` memory witnesses are on [`REPORT_METADATA`], since they
/// also reflect the worker count and what earlier scenarios of the chain
/// grew the shared workspace to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleScenarioResult {
    /// Nodes of the materialized network.
    pub nodes: u64,
    /// Directed links of the materialized network.
    pub links: u64,
    /// Destinations the routing covers.
    pub dests: u64,
    /// Total `(edge, ratio)` forwarding entries across all
    /// `(destination, router)` rows.
    pub fib_entries: u64,
    /// The same total for OSPF (InvCap weights, even ECMP) on the same
    /// instance, against which `fib_entries` prices the second weight.
    pub ospf_fib_entries: u64,
    /// High-water bytes of the solver workspace (`TeWorkspace::arena_bytes`:
    /// routing arenas, flow buffers and caches) plus the TE solution's
    /// per-destination flows, which the solve moves out of the workspace;
    /// capacity-based.
    pub peak_arena_bytes: u64,
    /// High-water bytes of the forwarding-table arenas.
    pub peak_fib_bytes: u64,
}

/// Aggregate SPF-engine counters of one sweep: summed over every chain
/// workspace, failure-stage probe, robust weight search and
/// reconfiguration transient the batch executed. Execution metadata (the
/// incremental engine path is bit-identical to dense rebuilds; only these
/// counters move), so sweeps diff clean across engine modes while the
/// dirty-set effectiveness stays visible per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpfStatsResult {
    /// SPF batch builds actually executed (fingerprint skips excluded).
    pub builds: u64,
    /// Builds served by the weight-delta incremental path.
    pub incremental_builds: u64,
    /// Destination slots rebuilt in place across all delta builds.
    pub slots_rebuilt: u64,
}

impl SpfStatsResult {
    fn from_stats(s: SpfStats) -> SpfStatsResult {
        SpfStatsResult {
            builds: s.builds,
            incremental_builds: s.incremental_builds,
            slots_rebuilt: s.slots_rebuilt,
        }
    }
}

/// Measurements of one successfully solved scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The scenario that produced this result (embedded so a report is
    /// self-describing).
    pub scenario: Scenario,
    /// Maximum link utilization of the realised routing.
    pub mlu: f64,
    /// Normalized aggregate utility (1 = the TE optimum's scale; see
    /// `spef_core::metrics::normalized_utility`).
    pub utility: f64,
    /// TE-solver iterations spent on the first weights.
    pub iterations: u64,
    /// Whether the NEM second-weight solver converged.
    pub nem_converged: bool,
    /// Packet-level simulation measurements (present iff the scenario has
    /// a [`SimSpec`](crate::scenario::SimSpec) stage).
    pub sim: Option<SimScenarioResult>,
    /// Failure-stage measurements (present iff the scenario has a
    /// [`FailureSpec`](crate::scenario::FailureSpec) stage).
    pub failure: Option<FailureScenarioResult>,
    /// Scale-stage measurements (present iff the scenario carries the
    /// scale stage).
    pub scale: Option<ScaleScenarioResult>,
    /// Wall-clock milliseconds for the full pipeline (execution metadata).
    pub wall_ms: f64,
}

/// A scenario the pipeline could not solve (e.g. demands infeasible at the
/// requested load).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioFailure {
    /// The failing scenario.
    pub scenario: Scenario,
    /// The solver error, stringified.
    pub error: String,
}

/// Everything one sweep produces; serializes to the `BENCH_*.json` format.
///
/// The serde is derived: an `Option` field is omitted when `None` and reads
/// back as `None` when its key is absent, so reports that predate a stage or
/// `spf` still parse, and keys this version does not read (such as the
/// since-removed destination tile size) are ignored.
/// [`result_drift`](Self::result_drift) bit-diffs every field except the
/// execution metadata named in [`REPORT_METADATA`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// JSON schema version ([`BATCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Successful runs, in scenario order.
    pub results: Vec<ScenarioResult>,
    /// Failed runs, in scenario order.
    pub failures: Vec<ScenarioFailure>,
    /// Wall-clock milliseconds for the whole batch.
    pub total_wall_ms: f64,
    /// Worker threads the batch ran on: rayon's pool size
    /// (`RAYON_NUM_THREADS` if set, else the machine's parallelism).
    /// Execution metadata.
    pub threads: u64,
    /// Aggregate SPF-engine counters of the batch ([`SpfStatsResult`]);
    /// `None` when the batch executed no SPF builds (or the report
    /// predates the field). Execution metadata, so incremental sweeps diff
    /// clean against dense baselines.
    pub spf: Option<SpfStatsResult>,
}

/// The report keys [`BatchReport::result_drift`] skips, value and presence
/// alike, wherever they appear: the execution metadata. Wall clocks, the
/// worker count and the SPF engine's counters vary with the run, the
/// machine or the engine mode; the scale stage's `peak_*_bytes` are memory
/// high-water marks, which an arena layout change, the worker count or a
/// chain's earlier scenarios move without moving a result. Every other
/// field is bit-diffed, so a new report field is gated unless it is added
/// here.
pub const REPORT_METADATA: [&str; 6] = [
    "wall_ms",
    "total_wall_ms",
    "threads",
    "spf",
    "peak_arena_bytes",
    "peak_fib_bytes",
];

impl BatchReport {
    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("batch report serializes")
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error message on malformed input.
    pub fn from_json(text: &str) -> Result<BatchReport, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Writes the report to `path` as JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Lists every difference between `self` (the baseline) and `other` (a
    /// candidate run), one line each, skipping the keys in
    /// [`REPORT_METADATA`]. Both reports are serialised and walked in
    /// lockstep: every leaf is compared (floats **bit for bit**, other
    /// scalars by equality), and so are array lengths and key presence. A
    /// `results` or `failures` row is named by its baseline scenario id, so
    /// a line reads `<scenario id>: <key path> <a> vs <b>` — a stage present
    /// on one side only is the line `<id>: <stage> present vs absent`.
    /// Each row's embedded scenario spec is compared whole.
    ///
    /// The sweep pipeline is deterministic, so any drift — however small —
    /// means an algorithmic change and must be triaged, not tolerated.
    pub fn result_drift(&self, other: &BatchReport) -> Vec<String> {
        let mut drift = Vec::new();
        value_drift(&self.to_value(), &other.to_value(), "", &mut drift);
        drift
    }

    /// A terminal summary table of the batch.
    pub fn summary_table(&self) -> crate::report::TextTable {
        let mut table = crate::report::TextTable::new(
            "scenario sweep",
            &[
                "scenario", "MLU", "utility", "iters", "NEM", "sim pkts", "loss %", "wall ms",
            ],
        );
        for r in &self.results {
            let (pkts, loss) = match &r.sim {
                None => ("-".to_string(), "-".to_string()),
                Some(sim) => (
                    sim.generated_packets.to_string(),
                    format!(
                        "{:.2}",
                        100.0 * sim.dropped_packets as f64 / sim.generated_packets.max(1) as f64
                    ),
                ),
            };
            table.push_row(vec![
                r.scenario.id.clone(),
                format!("{:.4}", r.mlu),
                format!("{:.4}", r.utility),
                r.iterations.to_string(),
                if r.nem_converged { "conv" } else { "MAX" }.to_string(),
                pkts,
                loss,
                format!("{:.1}", r.wall_ms),
            ]);
        }
        for f in &self.failures {
            table.push_row(vec![
                f.scenario.id.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("FAILED: {}", f.error),
            ]);
        }
        table
    }
}

/// Appends one line per difference between `a` and `b`. `at` is the start
/// of each line: empty at the report level, `"<scenario id>: "` at a report
/// row, with each key below it and a space appended.
fn value_drift(a: &Value, b: &Value, at: &str, drift: &mut Vec<String>) {
    match (a, b) {
        (Value::Object(xs), Value::Object(ys)) => {
            let gated = |(key, _): &&(String, Value)| !REPORT_METADATA.contains(&key.as_str());
            for (key, x) in xs.iter().filter(gated) {
                match b.get_field(key) {
                    Some(y) => value_drift(x, y, &format!("{at}{key} "), drift),
                    None => drift.push(format!("{at}{key} present vs absent")),
                }
            }
            for (key, _) in ys.iter().filter(gated) {
                if a.get_field(key).is_none() {
                    drift.push(format!("{at}{key} absent vs present"));
                }
            }
        }
        (Value::Array(xs), Value::Array(ys)) => {
            if xs.len() != ys.len() {
                drift.push(format!("{at}length {} vs {}", xs.len(), ys.len()));
            }
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                let id = x.get_field("scenario").and_then(|s| s.get_field("id"));
                let at = match id.and_then(Value::as_str) {
                    Some(id) => format!("{id}: "),
                    None => format!("{at}{i} "),
                };
                value_drift(x, y, &at, drift);
            }
        }
        _ if !same_leaf(a, b) => {
            let json = |v: &Value| serde_json::to_string(v).expect("a value renders as JSON");
            drift.push(format!("{at}{} vs {}", json(a), json(b)));
        }
        _ => {}
    }
}

/// Leaf equality for the drift walk: floats bit for bit (so `0.0` and
/// `-0.0` differ), everything else by value.
fn same_leaf(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(Number::Float(x)), Value::Number(Number::Float(y))) => {
            x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

/// Batch execution options.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Force dense SPF rebuilds everywhere
    /// ([`TeWorkspace::set_incremental`] off, and dense probes in the
    /// Fortz–Thorup rows). A pure execution knob: the delta-aware
    /// incremental engine is bit-identical to cold dense rebuilds, so
    /// results must not move — the regression gate cross-diffs
    /// full-rebuild vs incremental sweeps to prove exactly that.
    pub full_rebuild: bool,
}

/// The routing a scenario's solver row produced: a full SPEF pipeline, or
/// the even-ECMP routing of the Fortz–Thorup weight search.
enum PipelineRouting {
    Spef(SpefRouting),
    FortzThorup(FtOutcome),
}

impl PipelineRouting {
    fn max_link_utilization(&self, network: &Network) -> f64 {
        match self {
            PipelineRouting::Spef(r) => r.max_link_utilization(network),
            PipelineRouting::FortzThorup(ft) => ft.routing.max_link_utilization(network),
        }
    }

    fn normalized_utility(&self, network: &Network) -> f64 {
        match self {
            PipelineRouting::Spef(r) => r.normalized_utility(network),
            PipelineRouting::FortzThorup(ft) => ft.routing.normalized_utility(network),
        }
    }

    /// TE iterations for SPEF rows; weight evaluations for FT rows (the
    /// unit of solver work either way).
    fn iterations(&self) -> u64 {
        match self {
            PipelineRouting::Spef(r) => r.te_solution().iterations as u64,
            PipelineRouting::FortzThorup(ft) => ft.evaluations as u64,
        }
    }

    /// FT rows have no NEM stage, so convergence holds vacuously.
    fn nem_converged(&self) -> bool {
        match self {
            PipelineRouting::Spef(r) => r.nem_converged(),
            PipelineRouting::FortzThorup(_) => true,
        }
    }

    fn forwarding_table(&self) -> &ForwardingTable {
        match self {
            PipelineRouting::Spef(r) => r.forwarding_table(),
            PipelineRouting::FortzThorup(ft) => ft.routing.forwarding_table(),
        }
    }

    /// Bytes of the TE solution's flows, which a SPEF solve moves out of
    /// the workspace (FT rows solve no TE).
    fn te_flow_bytes(&self) -> usize {
        match self {
            PipelineRouting::Spef(r) => r.te_solution().flows.arena_bytes(),
            PipelineRouting::FortzThorup(_) => 0,
        }
    }
}

/// A solved pipeline kept alive so later scenarios in the same chain can
/// reuse it: the materialized instance plus the routing it produced.
struct SolvedPipeline {
    network: Network,
    traffic: TrafficMatrix,
    routing: PipelineRouting,
}

/// The fixed Fortz–Thorup search budget of [`SolverSpec::FortzThorup`]
/// sweep rows (part of the rows' identity — see the variant docs). Only
/// `full_rebuild` comes from execution options, and it cannot move a
/// result.
fn sweep_ft_config(full_rebuild: bool) -> FtConfig {
    FtConfig {
        max_weight: 20,
        max_evaluations: 1000,
        restarts: 1,
        seed: 0xF7,
        full_rebuild,
    }
}

/// Materializes and solves a scenario's pipeline (everything up to, not
/// including, the sim stage) on the given workspace, whose arenas only
/// change the wall time, never a result.
fn solve_pipeline(
    scenario: &Scenario,
    ws: &mut TeWorkspace,
    options: &BatchOptions,
    spf: &mut SpfStats,
) -> Result<SolvedPipeline, String> {
    let network = scenario.topology.build();
    let traffic = scenario.traffic.build(&network);
    let routing = if scenario.solver == SolverSpec::FortzThorup {
        let cfg = sweep_ft_config(options.full_rebuild);
        let ft = FtOutcome::local_search(&network, &traffic, &cfg).map_err(|e| e.to_string())?;
        spf.add(ft.spf_stats);
        // An overloaded best routing has no finite utility, which the
        // report's JSON round trip cannot carry — report it as a
        // deterministic scenario failure (like the infeasible Frank–Wolfe
        // rows this family already pins).
        let mlu = ft.routing.max_link_utilization(&network);
        if mlu >= 1.0 {
            return Err(format!(
                "Fortz-Thorup best weights overload the network (MLU {mlu})"
            ));
        }
        PipelineRouting::FortzThorup(ft)
    } else {
        let objective = scenario.objective.build(network.link_count());
        let config = scenario.solver.build();
        let routing = config
            .solve_in(TeInstance::new(&network, &traffic, &objective), ws)
            .map_err(|e| e.to_string())?;
        PipelineRouting::Spef(routing)
    };
    Ok(SolvedPipeline {
        network,
        traffic,
        routing,
    })
}

/// Runs a scenario's optional packet-level sim stage against an already
/// solved pipeline.
fn sim_stage(
    scenario: &Scenario,
    solved: &SolvedPipeline,
    sim_ws: &mut SimWorkspace,
) -> Result<Option<SimScenarioResult>, String> {
    let Some(spec) = &scenario.sim else {
        return Ok(None);
    };
    let report = simulate_with(
        &solved.network,
        &solved.traffic,
        solved.routing.forwarding_table(),
        &spec.config(),
        sim_ws,
    )
    .map_err(|e| format!("simulation failed: {e}"))?;
    Ok(Some(SimScenarioResult {
        generated_packets: report.generated_packets,
        delivered_packets: report.delivered_packets,
        dropped_packets: report.dropped_packets,
        mean_delay: report.mean_delay,
        p99_delay: report.p99_delay,
        links_used: report.links_used as u64,
        max_link_load_bps: report
            .mean_link_load_bps
            .iter()
            .cloned()
            .fold(0.0, f64::max),
        total_link_load_bps: report.mean_link_load_bps.iter().sum(),
        peak_packet_slots: report.peak_packet_slots,
    }))
}

/// Per-chain memo of robust weight-search worst cases. The search depends
/// on the intact instance and the search parameters — not on which circuit
/// a scenario fails — so every circuit of a chain shares one search.
/// Memoization is a pure speedup: the search is deterministic, so an
/// isolated [`run_scenario`] recomputing it gets bit-identical values.
type RobustMemo = Vec<(String, f64)>;

/// Runs a scenario's optional single-circuit failure stage against an
/// already solved (intact) pipeline: fail the circuit, measure the OSPF /
/// stale-SPEF / re-optimised-SPEF MLU triple, the robust-weight worst
/// case, and the stale→reopt weight-reconfiguration transient.
///
/// The re-optimisation runs on the chain's workspace, whose second engine
/// slot keeps the degraded topology's arenas apart from the intact one's;
/// it is bit-identical to a solve on a fresh workspace, so a chain and an
/// isolated [`run_scenario`] agree.
fn failure_stage(
    scenario: &Scenario,
    solved: &SolvedPipeline,
    ws: &mut TeWorkspace,
    robust_memo: &mut RobustMemo,
    probes: &mut StaleWeightProbes,
    options: &BatchOptions,
    spf: &mut SpfStats,
) -> Result<Option<FailureScenarioResult>, String> {
    let Some(spec) = &scenario.failure else {
        return Ok(None);
    };
    // The stage re-optimises with the scenario's SPEF solver and needs the
    // intact solve's continuous weights — neither exists for an FT row.
    let PipelineRouting::Spef(intact) = &solved.routing else {
        return Err(
            "failure stage: supported for SPEF solvers only (fw/fw-fast/fw-pinned/dd)".to_string(),
        );
    };
    let circuits = solved.network.duplex_circuits();
    let c = spec.circuit as usize;
    if c >= circuits.len() {
        return Err(format!(
            "failure stage: circuit index {c} out of range ({} duplex circuits)",
            circuits.len()
        ));
    }
    let (degraded, kept) = solved
        .network
        .without_links(&circuits[c])
        .map_err(|e| format!("failure stage: failing circuit {c}: {e}"))?;

    // OSPF reconvergence and stale SPEF weights on the survivors.
    let (mlu_ospf, mlu_stale) = probes
        .mlus(
            &solved.network,
            &solved.traffic,
            &solved.traffic.destinations(),
            &intact.te_solution().weights,
            &circuits[c],
        )
        .map_err(|e| format!("failure stage: OSPF and stale-weight routing: {e}"))?;

    // Full SPEF re-optimisation on the degraded topology.
    let obj = scenario.objective.build(degraded.link_count());
    let config = scenario.solver.build();
    let reopt = config
        .solve_in(TeInstance::new(&degraded, &solved.traffic, &obj), ws)
        .map_err(|e| format!("failure stage: re-optimisation after circuit {c}: {e}"))?;
    let mlu_reopt = reopt.max_link_utilization(&degraded);

    // Robust weight search on the intact instance (chain-memoized).
    let robust_key = format!(
        "{}+e{}s{}",
        scenario.solve_key(),
        spec.robust_evals,
        spec.robust_seed
    );
    let mlu_robust = match robust_memo.iter().find(|(k, _)| *k == robust_key) {
        Some((_, worst)) => *worst,
        None => {
            let cfg = RobustConfig {
                max_evaluations: spec.robust_evals as usize,
                seed: spec.robust_seed,
                full_rebuild: options.full_rebuild,
                ..RobustConfig::default()
            };
            let out = RobustOutcome::local_search(&solved.network, &solved.traffic, &cfg)
                .map_err(|e| format!("failure stage: robust weight search: {e}"))?;
            spf.add(out.spf_stats);
            robust_memo.push((robust_key, out.worst_mlu));
            out.worst_mlu
        }
    };

    // Reconfiguration transient: ordered pushes from the stale weights,
    // remapped to the surviving links, to the re-optimised ones.
    let w_stale: Vec<f64> = kept
        .iter()
        .map(|&old| intact.te_solution().weights[old.index()])
        .collect();
    let (transit, transit_spf) = reconfig::migrate_with(
        &degraded,
        &solved.traffic,
        &w_stale,
        &reopt.te_solution().weights,
        options.full_rebuild,
    )
    .map_err(|e| format!("failure stage: reconfiguration transient: {e}"))?;
    spf.add(transit_spf);

    Ok(Some(FailureScenarioResult {
        mlu_ospf,
        mlu_stale,
        mlu_reopt,
        reopt_iterations: reopt.te_solution().iterations as u64,
        mlu_robust,
        reconfig_steps: transit.steps as u64,
        reconfig_peak_mlu: transit.naive_peak_mlu,
        reconfig_greedy_peak_mlu: transit.greedy_peak_mlu,
    }))
}

/// Runs a scenario's optional scale stage: record the instance's size
/// counts and OSPF's forwarding entries next to the routing's, plus the
/// workspace and FIB arena high-water marks reached while solving it
/// (see [`ScaleScenarioResult`] for which of them are diffed).
fn scale_stage(
    scenario: &Scenario,
    solved: &SolvedPipeline,
    ws: &TeWorkspace,
) -> Result<Option<ScaleScenarioResult>, String> {
    if !scenario.scale {
        return Ok(None);
    }
    let ospf_fib_entries = ospf::fib_entry_count(&solved.network, &solved.traffic)
        .map_err(|e| format!("scale stage: OSPF forwarding entries: {e}"))?;
    let table = solved.routing.forwarding_table();
    Ok(Some(ScaleScenarioResult {
        nodes: solved.network.node_count() as u64,
        links: solved.network.link_count() as u64,
        dests: solved.traffic.destinations().len() as u64,
        fib_entries: table.entry_count() as u64,
        ospf_fib_entries: ospf_fib_entries as u64,
        peak_arena_bytes: (ws.arena_bytes() + solved.routing.te_flow_bytes()) as u64,
        peak_fib_bytes: table.arena_bytes() as u64,
    }))
}

/// Assembles the per-scenario measurements from a solved pipeline.
fn measure(
    scenario: &Scenario,
    solved: &SolvedPipeline,
    sim: Option<SimScenarioResult>,
    failure: Option<FailureScenarioResult>,
    scale: Option<ScaleScenarioResult>,
    started: Instant,
) -> ScenarioResult {
    ScenarioResult {
        scenario: scenario.clone(),
        mlu: solved.routing.max_link_utilization(&solved.network),
        utility: solved.routing.normalized_utility(&solved.network),
        iterations: solved.routing.iterations(),
        nem_converged: solved.routing.nem_converged(),
        sim,
        failure,
        scale,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// Runs one scenario end to end in fresh workspaces: materialize → solve
/// → (optionally) fail a circuit, simulate, measure the scale stage. A
/// one-scenario chain of [`run_batch`]'s execution path, and the isolated
/// reference the batch tests compare against.
///
/// # Errors
///
/// Returns the stringified solver error (e.g. infeasible demands at the
/// requested load), a stage error, or `panicked: <message>` if the
/// pipeline panicked.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioResult, String> {
    let (mut outcomes, _) = run_chain(vec![(0, scenario.clone())], &BatchOptions::default());
    outcomes
        .pop()
        .expect("a one-scenario chain yields one outcome")
        .2
}

/// A scenario's outcome tagged with its original batch index so the caller
/// can restore submission order after the parallel chain fan-out.
type IndexedOutcome = (usize, Scenario, Result<ScenarioResult, String>);

/// The arenas a chain's scenarios share: the solver and simulator
/// workspaces, and one failure-stage probe pair, so every circuit of the
/// chain is routed in the same retained engine states.
struct ChainArenas {
    ws: TeWorkspace,
    sim_ws: SimWorkspace,
    probes: StaleWeightProbes,
}

impl ChainArenas {
    fn new(options: &BatchOptions) -> ChainArenas {
        let mut ws = TeWorkspace::new();
        ws.set_incremental(!options.full_rebuild);
        ChainArenas {
            ws,
            sim_ws: SimWorkspace::new(),
            probes: StaleWeightProbes::new(options.full_rebuild),
        }
    }

    /// Adds the SPF counters of the arenas' engines into `total`.
    fn add_spf_to(&self, total: &mut SpfStats) {
        total.add(self.ws.spf_stats());
        for probe in self.probes.spf_stats() {
            total.add(probe);
        }
    }
}

/// The message of a caught panic's payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(message) => message,
        None => payload
            .downcast_ref::<String>()
            .map_or("non-string panic payload", String::as_str),
    }
}

/// Runs one chain serially: every scenario shares the chain's arenas, and
/// scenarios with equal solve keys (identical up to the sim stage) share
/// one pipeline solve. A scenario that panics yields a `panicked:` failure
/// row; the rest of the chain continues on fresh arenas, since the panic
/// may have left the shared ones mid-update. Returns each scenario tagged
/// with its original batch index so the caller can restore submission
/// order.
fn run_chain(
    chain: Vec<(usize, Scenario)>,
    options: &BatchOptions,
) -> (Vec<IndexedOutcome>, SpfStats) {
    let mut arenas = ChainArenas::new(options);
    let mut spf = SpfStats::default();
    // Chains are short (one entry per load × sim/failure point), so
    // linear-scan memos keyed by solve key beat hashing.
    let mut memo: Vec<(String, Result<SolvedPipeline, String>)> = Vec::new();
    let mut robust_memo = RobustMemo::new();
    let mut out = Vec::with_capacity(chain.len());
    for (index, scenario) in chain {
        let started = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let key = scenario.solve_key();
            let pos = match memo.iter().position(|(k, _)| *k == key) {
                Some(pos) => pos,
                None => {
                    let solved = solve_pipeline(&scenario, &mut arenas.ws, options, &mut spf);
                    memo.push((key, solved));
                    memo.len() - 1
                }
            };
            let solved = memo[pos].1.as_ref().map_err(String::clone)?;
            let failure = failure_stage(
                &scenario,
                solved,
                &mut arenas.ws,
                &mut robust_memo,
                &mut arenas.probes,
                options,
                &mut spf,
            )?;
            let sim = sim_stage(&scenario, solved, &mut arenas.sim_ws)?;
            let scale = scale_stage(&scenario, solved, &arenas.ws)?;
            Ok(measure(&scenario, solved, sim, failure, scale, started))
        }))
        .unwrap_or_else(|payload| {
            arenas.add_spf_to(&mut spf);
            arenas = ChainArenas::new(options);
            Err(format!("panicked: {}", panic_message(&*payload)))
        });
        out.push((index, scenario, outcome));
    }
    arenas.add_spf_to(&mut spf);
    (out, spf)
}

/// Runs a batch of scenarios: groups them into chains (see the module
/// docs), fans the chains out over rayon, runs each chain serially on
/// shared arenas, and lets scenarios identical up to the sim stage share
/// one solve.
///
/// Results and failures come back in scenario order regardless of the
/// parallel schedule or chain grouping, and every field except the
/// wall-clock times is a pure function of the scenario (each run re-seeds
/// its own generators), so a sweep is reproducible run-to-run,
/// machine-to-machine, and thread count to thread count.
pub fn run_batch(scenarios: Vec<Scenario>, options: &BatchOptions) -> BatchReport {
    let started = Instant::now();
    // Chains are keyed by everything but the load and stage axes, in
    // first-appearance order, with submission order kept within each.
    let mut chains: Vec<Vec<(usize, Scenario)>> = Vec::new();
    let mut chain_index: HashMap<String, usize> = HashMap::new();
    for (i, s) in scenarios.into_iter().enumerate() {
        match chain_index.get(&s.chain_key()) {
            Some(&c) => chains[c].push((i, s)),
            None => {
                chain_index.insert(s.chain_key(), chains.len());
                chains.push(vec![(i, s)]);
            }
        }
    }
    let per_chain: Vec<(Vec<IndexedOutcome>, SpfStats)> = chains
        .into_par_iter()
        .map(|c| run_chain(c, options))
        .collect();
    let mut spf_total = SpfStats::default();
    let mut outcomes: Vec<IndexedOutcome> = per_chain
        .into_iter()
        .flat_map(|(outcomes, spf)| {
            spf_total.add(spf);
            outcomes
        })
        .collect();
    outcomes.sort_by_key(|(i, _, _)| *i);

    let mut results = Vec::new();
    let mut failures = Vec::new();
    for (_, scenario, outcome) in outcomes {
        match outcome {
            Ok(result) => results.push(result),
            Err(error) => failures.push(ScenarioFailure { scenario, error }),
        }
    }
    BatchReport {
        schema_version: BATCH_SCHEMA_VERSION,
        results,
        failures,
        total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
        threads: rayon::current_num_threads() as u64,
        spf: (spf_total.builds > 0).then(|| SpfStatsResult::from_stats(spf_total)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TrafficModel;
    use crate::scenario::{ObjectiveSpec, ScenarioGrid, SolverSpec, TopologySpec, TrafficSpec};

    /// Each scenario run alone through [`run_scenario`], collected into a
    /// report that `result_drift` can compare with a batch.
    fn isolated(scenarios: &[Scenario]) -> BatchReport {
        let mut report = BatchReport {
            schema_version: BATCH_SCHEMA_VERSION,
            results: Vec::new(),
            failures: Vec::new(),
            total_wall_ms: 0.0,
            threads: 1,
            spf: None,
        };
        for scenario in scenarios {
            match run_scenario(scenario) {
                Ok(result) => report.results.push(result),
                Err(error) => report.failures.push(ScenarioFailure {
                    scenario: scenario.clone(),
                    error,
                }),
            }
        }
        report
    }

    #[test]
    fn single_scenario_runs_and_reports() {
        let scenario = Scenario::new(
            TopologySpec::Fig1,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed: 3,
                load: 0.2,
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfeFast,
        );
        let result = run_scenario(&scenario).expect("fig1 at load 0.2 is feasible");
        assert!(result.mlu > 0.0 && result.mlu < 1.0);
        assert!(result.iterations > 0);
        assert_eq!(result.scenario, scenario);
    }

    #[test]
    fn infeasible_scenario_is_reported_not_dropped() {
        let scenario = Scenario::new(
            TopologySpec::Fig1,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed: 3,
                load: 50.0, // 50× total capacity cannot be routed
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfeFast,
        );
        let report = run_batch(vec![scenario], &BatchOptions::default());
        assert!(report.results.is_empty());
        assert_eq!(report.failures.len(), 1);
    }

    #[test]
    fn result_drift_ignores_wall_clock_but_catches_everything_else() {
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig1])
            .seeds([1, 2])
            .loads([0.15])
            .build();
        let base = run_batch(scenarios.clone(), &BatchOptions::default());
        let mut other = isolated(&scenarios);
        // Same deterministic results, different wall clock/threads: clean.
        assert!(
            base.result_drift(&other).is_empty(),
            "{:?}",
            base.result_drift(&other)
        );

        // Any result field flip is drift.
        other.results[0].mlu += 1e-15;
        assert_eq!(base.result_drift(&other).len(), 1);
        other.results[0].mlu = base.results[0].mlu;
        other.results[1].iterations += 1;
        assert_eq!(base.result_drift(&other).len(), 1);
        other.results.pop();
        assert!(!base.result_drift(&other).is_empty());
    }

    #[test]
    fn warm_chains_match_cold_solves_bit_for_bit() {
        // Two chains (fig4, abilene), each spanning two loads × two sim
        // durations: exercises workspace reuse along the load axis AND
        // solve sharing across sim durations, against each scenario solved
        // alone in fresh workspaces.
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig4, TopologySpec::Abilene])
            .seeds([1])
            .loads([0.1, 0.15])
            .sim_durations([1.0, 2.0])
            .build();
        assert_eq!(scenarios.len(), 8);
        let cold = isolated(&scenarios);
        let warm = run_batch(scenarios, &BatchOptions::default());
        assert_eq!(warm.results.len(), 8);
        let drift = cold.result_drift(&warm);
        assert!(drift.is_empty(), "warm vs cold drift: {drift:?}");
    }

    #[test]
    fn ft_rows_solve_and_full_rebuild_matches_incremental_bit_for_bit() {
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig4])
            .seeds([1])
            .loads([0.15])
            .solvers([SolverSpec::FrankWolfeFast, SolverSpec::FortzThorup])
            .build();
        let incremental = run_batch(scenarios.clone(), &BatchOptions::default());
        let full = run_batch(scenarios, &BatchOptions { full_rebuild: true });
        assert_eq!(incremental.results.len(), 2);
        let ft = &incremental.results[1];
        assert!(ft.scenario.id.ends_with("+ft"));
        assert!(ft.mlu > 0.0 && ft.mlu < 1.0);
        assert!(ft.utility.is_finite());
        assert!(ft.nem_converged, "vacuous for FT rows");
        let drift = incremental.result_drift(&full);
        assert!(drift.is_empty(), "full-rebuild drift: {drift:?}");
    }

    #[test]
    fn ft_rows_reject_the_failure_stage() {
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Abilene])
            .seeds([1])
            .loads([0.05])
            .solvers([SolverSpec::FortzThorup])
            .failure_circuits([0])
            .build();
        let report = run_batch(scenarios, &BatchOptions::default());
        assert!(report.results.is_empty());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].error.contains("SPEF solvers only"));
    }

    #[test]
    fn chain_grouping_preserves_submission_order() {
        // Interleave two chains by hand; results must come back in the
        // submitted order, not grouped by chain.
        let mut scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig1, TopologySpec::Fig4])
            .seeds([1])
            .loads([0.1, 0.15])
            .build();
        scenarios.swap(1, 2); // fig1-l0.1, fig4-l0.1, fig1-l0.15, fig4-l0.15
        let ids: Vec<String> = scenarios.iter().map(|s| s.id.clone()).collect();
        let report = run_batch(scenarios, &BatchOptions::default());
        let got: Vec<String> = report
            .results
            .iter()
            .map(|r| r.scenario.id.clone())
            .collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn parallel_and_serial_agree() {
        // The parallel batch against each scenario run alone, one after
        // another on this thread.
        let scenarios = ScenarioGrid::new()
            .topologies([TopologySpec::Fig1, TopologySpec::Fig4])
            .seeds([1, 2])
            .loads([0.15])
            .build();
        let par = run_batch(scenarios.clone(), &BatchOptions::default());
        let ser = isolated(&scenarios);
        assert_eq!(par.results.len(), ser.results.len());
        for (a, b) in par.results.iter().zip(&ser.results) {
            assert_eq!(a.scenario.id, b.scenario.id, "order is preserved");
            assert_eq!(a.mlu, b.mlu);
            assert_eq!(a.utility, b.utility);
            assert_eq!(a.iterations, b.iterations);
        }
    }
}
