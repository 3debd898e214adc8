//! Integration tests of the scenario-sweep harness: determinism across
//! runs, batches against isolated runs, JSON round-tripping of the batch
//! report, the packet-level `sim` scenario family (schedule-independent
//! results, old-baseline compatibility), panic isolation, the committed
//! baselines' families and layout, the scale stage's forwarding-entry
//! counts, and the regression gate leaf by leaf.

use std::collections::HashSet;
use std::path::Path;

use serde::{Deserialize, Number, Serialize, Value};
use spef_baselines::OspfRouting;
use spef_experiments::harness::{
    run_batch, run_scenario, BatchOptions, BatchReport, ScenarioFailure, BATCH_SCHEMA_VERSION,
    REPORT_METADATA,
};
use spef_experiments::scenario::{
    FailureSpec, ObjectiveSpec, Scenario, ScenarioGrid, SimSpec, SolverSpec, TopologySpec,
    TrafficModel, TrafficSpec,
};

/// Each scenario run alone through `run_scenario`, collected into a report
/// that `result_drift` can compare with a batch.
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

/// The four committed baselines, one per sweep family.
const COMMITTED_BASELINES: [&str; 4] = [
    "BENCH_te.json",
    "BENCH_sim.json",
    "BENCH_failure.json",
    "BENCH_scale.json",
];

/// Reads a committed baseline's text from the repository root.
fn committed_text(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed baseline {name} readable: {e}"))
}

/// Parses a committed baseline from the repository root.
fn committed_baseline(name: &str) -> BatchReport {
    BatchReport::from_json(&committed_text(name)).unwrap_or_else(|e| panic!("{name} parses: {e}"))
}

/// A 3-scenario sweep: fig1 at two seeds plus Abilene.
fn three_scenarios() -> Vec<Scenario> {
    let spec = |topology: TopologySpec, seed: u64| {
        Scenario::new(
            topology,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed,
                load: 0.15,
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfeFast,
        )
    };
    vec![
        spec(TopologySpec::Fig1, 1),
        spec(TopologySpec::Fig1, 2),
        spec(TopologySpec::Abilene, 1),
    ]
}

#[test]
fn sweep_is_deterministic_across_runs() {
    let first = run_batch(three_scenarios(), &BatchOptions::default());
    let second = run_batch(three_scenarios(), &BatchOptions::default());

    assert_eq!(first.results.len(), 3, "all scenarios feasible");
    assert!(first.failures.is_empty());
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(a.scenario, b.scenario);
        // Every measurement except wall-clock is a pure function of the
        // scenario, bit for bit.
        assert_eq!(a.mlu, b.mlu, "{}", a.scenario.id);
        assert_eq!(a.utility, b.utility, "{}", a.scenario.id);
        assert_eq!(a.iterations, b.iterations, "{}", a.scenario.id);
        assert_eq!(a.nem_converged, b.nem_converged, "{}", a.scenario.id);
    }
}

#[test]
fn results_are_physically_sane() {
    let report = run_batch(three_scenarios(), &BatchOptions::default());
    for r in &report.results {
        assert!(
            r.mlu > 0.0 && r.mlu < 1.0,
            "{}: MLU {}",
            r.scenario.id,
            r.mlu
        );
        assert!(r.iterations > 0, "{}", r.scenario.id);
        assert!(r.wall_ms > 0.0, "{}", r.scenario.id);
    }
}

#[test]
fn batch_report_roundtrips_through_json() {
    let report = run_batch(three_scenarios(), &BatchOptions::default());
    let json = report.to_json();
    let back = BatchReport::from_json(&json).expect("report parses back");
    // Full structural equality: scenarios (nested enums included), all
    // measurements, and the wall-clock fields survive serialization.
    assert_eq!(back, report);

    // The id field stays the stable join key tooling can rely on.
    assert!(json.contains("\"fig1+ft-s1-l0.15+q1b1+fw-fast\""));
    assert!(json.contains("\"schema_version\": 1"));

    // A top-level key this version does not read is ignored, so reports
    // from sweeps that recorded a since-removed option (the destination
    // tile size) still parse, to the same report.
    let legacy = json.replacen("\"threads\":", "\"retired_option\": 64,\n  \"threads\":", 1);
    assert_ne!(legacy, json);
    assert_eq!(
        BatchReport::from_json(&legacy).expect("legacy report parses"),
        report
    );
}

/// A small sim-staged sweep: fig4 clean plus fig4 at a lossier point.
fn sim_scenarios() -> Vec<Scenario> {
    let spec = |load: f64, duration: f64| {
        Scenario::new(
            TopologySpec::Fig4,
            TrafficSpec {
                model: TrafficModel::FortzThorup,
                seed: 1,
                load,
            },
            ObjectiveSpec { q: 1.0, beta: 1.0 },
            SolverSpec::FrankWolfeFast,
        )
        .with_sim(SimSpec {
            duration,
            warmup: duration * 0.1,
            unit_bps: 1e6,
            seed: 0x5117,
        })
    };
    vec![spec(0.05, 2.0), spec(0.1, 2.0), spec(0.1, 4.0)]
}

#[test]
fn sim_sweep_is_deterministic_and_scheduler_independent() {
    // Whatever the thread schedule, the parallel batch and each scenario
    // run alone must produce bit-identical deterministic fields through
    // the whole solve+simulate pipeline.
    let parallel = run_batch(sim_scenarios(), &BatchOptions::default());
    assert_eq!(parallel.results.len(), 3, "{:?}", parallel.failures);
    for r in &parallel.results {
        let sim = r.sim.as_ref().expect("sim stage ran");
        assert!(sim.generated_packets > 0);
        assert!(sim.delivered_packets > 0);
        assert!(sim.max_link_load_bps > 0.0);
        assert!(sim.total_link_load_bps >= sim.max_link_load_bps);
        assert!(sim.peak_packet_slots > 0);
    }
    let serial = isolated(&sim_scenarios());
    assert!(
        parallel.result_drift(&serial).is_empty(),
        "serial drift: {:?}",
        parallel.result_drift(&serial)
    );
}

#[test]
fn sim_results_roundtrip_and_drift_catches_sim_fields() {
    let report = run_batch(sim_scenarios(), &BatchOptions::default());
    let back = BatchReport::from_json(&report.to_json()).expect("parses back");
    assert_eq!(back, report);

    // Any sim field flip is drift.
    let mut other = back.clone();
    other.results[0].sim.as_mut().unwrap().delivered_packets += 1;
    assert_eq!(report.result_drift(&other).len(), 1);
    other = back.clone();
    other.results[1].sim.as_mut().unwrap().mean_delay += 1e-15;
    assert_eq!(report.result_drift(&other).len(), 1);
    // Dropping the stage entirely is drift too.
    other = back;
    other.results[2].sim = None;
    assert_eq!(report.result_drift(&other).len(), 1);
}

#[test]
fn pre_sim_reports_still_parse_and_sim_less_results_omit_the_field() {
    // The committed te baseline's `ScenarioResult` objects carry no `sim`
    // key and must keep parsing (the CI regression gate reads it on every
    // PR).
    let baseline = committed_baseline("BENCH_te.json");
    assert!(baseline.results.iter().all(|r| r.sim.is_none()));

    // And a sim-less run serializes without the key, so regenerating the
    // te grid still byte-matches its schema shape.
    let report = run_batch(three_scenarios(), &BatchOptions::default());
    let json = report.to_json();
    assert!(!json.contains("\"sim\""));
}

/// A small failure-staged sweep: Abilene at one load, two failed circuits
/// (sharing the intact solve) with a tiny robust budget.
fn failure_scenarios() -> Vec<Scenario> {
    ScenarioGrid::new()
        .topologies([TopologySpec::Abilene])
        .seeds([1])
        .loads([0.05])
        .failure_circuits([0, 7])
        .robust_evals(40)
        .build()
}

#[test]
fn failure_sweep_is_deterministic_and_mode_independent() {
    // Warm chains (shared intact solve + chain-memoized robust search) and
    // each scenario run alone in fresh workspaces must produce
    // bit-identical deterministic fields — the failure family's regression
    // contract.
    let warm = run_batch(failure_scenarios(), &BatchOptions::default());
    assert_eq!(warm.results.len(), 2, "{:?}", warm.failures);
    for r in &warm.results {
        let f = r.failure.as_ref().expect("failure stage ran");
        // Re-optimisation is the steady-state lower bound.
        assert!(f.mlu_reopt <= f.mlu_stale + 1e-6);
        assert!(f.mlu_reopt <= f.mlu_ospf + 1e-6);
        assert!(f.reopt_iterations > 0);
        // The robust worst case covers this circuit's failure, so it
        // cannot beat the per-failure optimum.
        assert!(f.mlu_robust >= f.mlu_reopt - 1e-9);
        // The transient starts at the stale state, so both peaks
        // dominate it; the migration pushes at least one weight.
        assert!(f.reconfig_steps > 0);
        assert!(f.reconfig_peak_mlu >= f.mlu_stale - 1e-12);
        assert!(f.reconfig_greedy_peak_mlu >= f.mlu_stale - 1e-12);
    }
    let cold = isolated(&failure_scenarios());
    assert!(
        warm.result_drift(&cold).is_empty(),
        "cold drift: {:?}",
        warm.result_drift(&cold)
    );
}

#[test]
fn failure_results_roundtrip_and_drift_catches_failure_fields() {
    let report = run_batch(failure_scenarios(), &BatchOptions::default());
    let back = BatchReport::from_json(&report.to_json()).expect("parses back");
    assert_eq!(back, report);

    // Any failure field flip is drift.
    let mut other = back.clone();
    other.results[0].failure.as_mut().unwrap().mlu_stale += 1e-15;
    assert_eq!(report.result_drift(&other).len(), 1);
    other = back.clone();
    other.results[1].failure.as_mut().unwrap().reopt_iterations += 1;
    assert_eq!(report.result_drift(&other).len(), 1);
    // Dropping the stage entirely is drift too.
    other = back;
    other.results[0].failure = None;
    assert_eq!(report.result_drift(&other).len(), 1);
}

#[test]
fn spf_metadata_is_surfaced_but_never_diffed() {
    // The batch-level SPF counters are execution metadata: present on any
    // run that routed traffic, round-tripping through JSON, but outside
    // the bit-diffed result fields — an engine-mode flip (incremental SPF
    // vs full rebuilds) moves the counters while `result_drift` stays
    // empty.
    let incremental = run_batch(failure_scenarios(), &BatchOptions::default());
    let spf = incremental.spf.expect("failure sweep carries spf metadata");
    assert!(spf.builds > 0);
    assert!(
        spf.incremental_builds > 0,
        "failure sweep never took the incremental path: {spf:?}"
    );
    let back = BatchReport::from_json(&incremental.to_json()).expect("parses back");
    assert_eq!(back, incremental);

    let rebuild = run_batch(failure_scenarios(), &BatchOptions { full_rebuild: true });
    let rebuild_spf = rebuild.spf.expect("rebuild sweep carries spf metadata");
    assert_eq!(rebuild_spf.incremental_builds, 0);
    assert_ne!(spf, rebuild_spf, "engine modes should differ in SPF work");
    assert!(
        incremental.result_drift(&rebuild).is_empty(),
        "spf metadata leaked into the diffed fields: {:?}",
        incremental.result_drift(&rebuild)
    );

    // The committed failure baseline predates the field; it must keep
    // parsing with the metadata absent (the CI regression gate reads it on
    // every PR).
    assert!(committed_baseline("BENCH_failure.json").spf.is_none());
}

#[test]
fn out_of_range_circuit_is_a_scenario_failure_not_a_panic() {
    let scenario = Scenario::new(
        TopologySpec::Abilene,
        TrafficSpec {
            model: TrafficModel::FortzThorup,
            seed: 1,
            load: 0.05,
        },
        ObjectiveSpec { q: 1.0, beta: 1.0 },
        SolverSpec::FrankWolfeFast,
    )
    .with_failure(FailureSpec {
        circuit: 999, // Abilene has 14 duplex circuits
        robust_evals: 10,
        robust_seed: 1,
    });
    let report = run_batch(vec![scenario], &BatchOptions::default());
    assert!(report.results.is_empty());
    assert_eq!(report.failures.len(), 1);
    assert!(report.failures[0].error.contains("out of range"));
}

#[test]
fn pre_failure_reports_still_parse_and_failure_less_results_omit_the_field() {
    // The committed te baseline predates the failure stage; its
    // `ScenarioResult` objects carry no `failure` key and must keep
    // parsing (the CI regression gate reads it on every PR).
    let baseline = committed_baseline("BENCH_te.json");
    assert!(baseline.results.iter().all(|r| r.failure.is_none()));

    // And a failure-less run serializes without the key, so regenerating
    // the te grid still byte-matches its schema shape.
    let report = run_batch(three_scenarios(), &BatchOptions::default());
    assert!(!report.to_json().contains("\"failure\""));
}

#[test]
fn a_panicking_scenario_is_a_failure_row_and_its_chain_runs_on() {
    // A negative load panics in `TrafficMatrix::scaled`. Each topology's
    // chain runs 0.15, the panicking -0.1, then 0.1 on fresh arenas.
    let scenarios = ScenarioGrid::new()
        .topologies([TopologySpec::Fig1, TopologySpec::Fig4])
        .seeds([1])
        .loads([0.15, -0.1, 0.1])
        .build();
    let report = run_batch(scenarios.clone(), &BatchOptions::default());
    assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
    for f in &report.failures {
        assert!(f.scenario.traffic.load < 0.0, "{}", f.scenario.id);
        assert!(
            f.error.starts_with("panicked: ") && f.error.contains("scale factor"),
            "{}",
            f.error
        );
    }
    // The other scenarios' results are those of clean runs, bit for bit.
    let clean: Vec<Scenario> = scenarios
        .into_iter()
        .filter(|s| s.traffic.load >= 0.0)
        .collect();
    let expected = isolated(&clean);
    assert_eq!(expected.results.len(), 4);
    let results_only = BatchReport {
        failures: Vec::new(),
        ..report
    };
    let drift = expected.result_drift(&results_only);
    assert!(drift.is_empty(), "{drift:?}");
}

#[test]
fn each_committed_baseline_is_exactly_its_family() {
    // The `.gitignore` allow-lines are the list of committed baselines;
    // each must be one family's grid, whole scenario spec for whole
    // scenario spec (an id does not pin every field), and no scenario may
    // be pinned by two baselines.
    let gitignore =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.gitignore"))
            .expect(".gitignore readable");
    let committed: Vec<&str> = gitignore
        .lines()
        .filter_map(|l| l.strip_prefix("!BENCH_")?.strip_suffix(".json"))
        .collect();
    let mut families = committed.clone();
    families.sort_unstable();
    assert_eq!(families, ["failure", "scale", "sim", "te"]);
    let mut pinned = HashSet::new();
    for family in committed {
        let grid = match family {
            "te" => ScenarioGrid::te_family(),
            "sim" => ScenarioGrid::sim_family(),
            "failure" => ScenarioGrid::failure_family(),
            _ => ScenarioGrid::scale_family(),
        };
        let mut want = grid.build();
        let baseline = committed_baseline(&format!("BENCH_{family}.json"));
        let mut got: Vec<Scenario> = baseline
            .results
            .into_iter()
            .map(|r| r.scenario)
            .chain(baseline.failures.into_iter().map(|f| f.scenario))
            .collect();
        want.sort_unstable_by(|a, b| a.id.cmp(&b.id));
        got.sort_unstable_by(|a, b| a.id.cmp(&b.id));
        assert_eq!(got, want, "BENCH_{family}.json");
        for id in got.into_iter().map(|s| s.id) {
            assert!(pinned.insert(id.clone()), "{id} is in two baselines");
        }
    }
}

#[test]
fn grid_sweep_runs_mixed_feasibility_batches() {
    // One infeasible scenario (load 5.0 = 5x capacity) among feasible ones:
    // the batch completes, failures are recorded, results keep their order.
    let scenarios = ScenarioGrid::new()
        .topologies([TopologySpec::Fig1])
        .seeds([1])
        .loads([0.15, 5.0])
        .build();
    let report = run_batch(scenarios, &BatchOptions::default());
    assert_eq!(report.results.len(), 1);
    assert_eq!(report.failures.len(), 1);
    assert!(report.failures[0].scenario.traffic.load > 1.0);
}

#[test]
fn scale_stage_counts_both_fibs_and_diffs_the_ospf_count() {
    let scenarios = ScenarioGrid::new()
        .topologies([TopologySpec::Random {
            nodes: 24,
            links: 96,
            seed: 0x5CA1E,
        }])
        .seeds([1])
        .loads([0.04])
        .solvers([SolverSpec::FrankWolfePinned])
        .scale_stage(true)
        .build();
    let report = run_batch(scenarios, &BatchOptions::default());
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let result = &report.results[0];
    let scale = result.scale.as_ref().expect("the scale stage ran");

    // The per-destination count equals the full OSPF routing's FIB.
    let network = result.scenario.topology.build();
    let traffic = result.scenario.traffic.build(&network);
    let ospf = OspfRouting::route(&network, &traffic).unwrap();
    assert_eq!(
        scale.ospf_fib_entries,
        ospf.forwarding_table().entry_count() as u64
    );
    // Every router but the destination needs an entry per destination,
    // and the Fortz–Thorup model makes every node a destination.
    assert_eq!(scale.dests, scale.nodes);
    let floor = scale.dests * (scale.nodes - 1);
    assert!(
        scale.fib_entries >= floor,
        "SPEF {} < {floor}",
        scale.fib_entries
    );
    assert!(
        scale.ospf_fib_entries >= floor,
        "OSPF {} < {floor}",
        scale.ospf_fib_entries
    );

    let json = report.to_json();
    assert!(json.contains("\"ospf_fib_entries\""));
    let back = BatchReport::from_json(&json).expect("parses back");
    assert_eq!(back, report);

    // A moved OSPF count is drift.
    let mut other = back;
    other.results[0].scale.as_mut().unwrap().ospf_fib_entries += 1;
    let drift = report.result_drift(&other);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert!(drift[0].contains("scale ospf_fib_entries"), "{drift:?}");
}

#[test]
fn committed_baselines_reserialize_byte_identically() {
    // The derived serde writes the committed layout: key order, omitted
    // stages and `spf`, float spelling, no trailing newline.
    for name in COMMITTED_BASELINES {
        assert_eq!(
            committed_baseline(name).to_json(),
            committed_text(name),
            "{name}"
        );
    }
}

/// One step of a key path into a report's value tree.
#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Collects the path of every leaf (a scalar) below `value`.
fn leaf_paths(value: &Value, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match value {
        Value::Object(fields) => {
            for (key, child) in fields {
                path.push(Step::Key(key.clone()));
                leaf_paths(child, path, out);
                path.pop();
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                path.push(Step::Index(i));
                leaf_paths(child, path, out);
                path.pop();
            }
        }
        _ => out.push(path.clone()),
    }
}

/// The value at `path`, mutably.
fn at_path<'v>(mut value: &'v mut Value, path: &[Step]) -> &'v mut Value {
    for step in path {
        value = match (value, step) {
            (Value::Object(fields), Step::Key(key)) => {
                &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
            }
            (Value::Array(items), Step::Index(i)) => &mut items[*i],
            (other, _) => panic!("{step:?} does not index {other:?}"),
        };
    }
    value
}

#[test]
fn the_gate_catches_every_leaf_but_the_metadata() {
    // Every leaf of every committed baseline is nudged in turn — the next
    // float up, integer + 1, a flipped bool, one character appended to a
    // string — and must drift exactly one line naming its key path, unless
    // a key on its path is execution metadata. Nothing is solved.
    let mut checked = 0;
    let mut skipped = Vec::new();
    for name in COMMITTED_BASELINES {
        let baseline = committed_baseline(name);
        let tree = baseline.to_value();
        let mut paths = Vec::new();
        leaf_paths(&tree, &mut Vec::new(), &mut paths);
        for path in paths {
            let mut nudged = tree.clone();
            let leaf = at_path(&mut nudged, &path);
            *leaf = match &*leaf {
                Value::Number(Number::Float(x)) => Value::from(x.next_up()),
                Value::Number(Number::UInt(n)) => Value::from(n + 1),
                Value::Bool(b) => Value::Bool(!b),
                Value::String(s) => Value::String(format!("{s}x")),
                other => panic!("{name}: unexpected leaf {other:?} at {path:?}"),
            };
            let keys: Vec<&str> = path
                .iter()
                .filter_map(|step| match step {
                    Step::Key(key) => Some(key.as_str()),
                    Step::Index(_) => None,
                })
                .collect();
            // An enum spelled as a string no longer parses once nudged.
            let Ok(candidate) = BatchReport::from_value(&nudged) else {
                skipped.push(keys.last().unwrap().to_string());
                continue;
            };
            let drift = baseline.result_drift(&candidate);
            checked += 1;
            if keys.iter().any(|key| REPORT_METADATA.contains(key)) {
                assert!(drift.is_empty(), "{name} {path:?}: {drift:?}");
                continue;
            }
            assert_eq!(drift.len(), 1, "{name} {path:?}: {drift:?}");
            // A row's line starts with its scenario id and names the keys
            // below the row; a top-level line names the key.
            let expected = match path.get(1) {
                Some(Step::Index(row)) => {
                    let rows = tree.get_field(keys[0]).and_then(Value::as_array).unwrap();
                    let scenario = rows[*row].get_field("scenario").unwrap();
                    let id = scenario.get_field("id").and_then(Value::as_str).unwrap();
                    format!("{id}: {} ", keys[1..].join(" "))
                }
                _ => format!("{} ", keys.join(" ")),
            };
            assert!(
                drift[0].starts_with(&expected),
                "{name} {path:?}: {:?} does not start with {expected:?}",
                drift[0]
            );
        }
    }
    // Only the enum-valued strings are skipped, and they are few.
    let skips = skipped.len();
    assert!(
        skips < checked,
        "{skips} skips against {checked} leaves checked"
    );
    skipped.sort_unstable();
    skipped.dedup();
    assert_eq!(
        skipped,
        ["model", "solver", "topology"],
        "unparsable nudges"
    );
}
