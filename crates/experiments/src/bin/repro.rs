//! `repro` — regenerates the SPEF paper's tables and figures, and runs
//! scenario sweeps.
//!
//! ```bash
//! repro                         # run everything at full fidelity
//! repro --exp fig9,table1      # selected experiments
//! repro --quick                # reduced iteration budgets
//! repro --out results          # CSV output directory (default: results)
//! repro --list                 # list experiment ids
//!
//! repro sweep                  # default smoke grid, parallel, JSON report
//! repro sweep --topologies abilene,cernet2 --seeds 1,2,3 \
//!     --loads 0.15,0.3 --betas 0.5,1.0,2.0 --solvers fw \
//!     --json BENCH_sweep.json
//!
//! repro sweep --family te      # solver grid (fig1/fig4/abilene/cernet2)
//! repro sweep --family sim     # packet-level sim grid (fig4/abilene/cernet2)
//! repro sweep --family failure # single-circuit failure grid (abilene)
//! repro sweep --family scale   # tiered 200/500/1000-node scaling ladder
//! repro sweep --family te --full-rebuild   # dense SPF rebuilds everywhere:
//!                                          # results must not move a bit
//! RAYON_NUM_THREADS=1 repro sweep --family sim   # one worker thread
//!
//! repro diff BENCH_a.json BENCH_b.json   # fail on any scenario-result drift
//! ```
//!
//! Each family's committed baseline is `BENCH_<family>.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use spef_experiments::{
    harness::{run_batch, BatchOptions, BatchReport},
    run_experiment, Quality, ScenarioGrid, SolverSpec, TopologySpec, TrafficModel, ALL_EXPERIMENTS,
};

struct Args {
    experiments: Vec<String>,
    out_dir: PathBuf,
    quality: Quality,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut experiments: Vec<String> = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    let mut out_dir = PathBuf::from("results");
    let mut quality = Quality::Full;
    let mut list = false;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--exp" => {
                let val = argv.next().ok_or("--exp needs a value")?;
                if val != "all" {
                    experiments = val.split(',').map(|s| s.trim().to_string()).collect();
                }
            }
            "--out" => {
                out_dir = PathBuf::from(argv.next().ok_or("--out needs a value")?);
            }
            "--quick" => quality = Quality::Quick,
            "--list" => list = true,
            "--help" | "-h" => {
                println!(
                    "usage: repro [--exp all|id,id,...] [--out DIR] [--quick] [--list]\n\
                     paper artifacts: {}",
                    ALL_EXPERIMENTS.join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        experiments,
        out_dir,
        quality,
        list,
    })
}

/// Parses one grid value of `flag`. NaN and ±∞ are rejected here: a
/// scenario built from one either panics in a solver's argument check or
/// writes a report whose non-finite fields serialise as `null`, which
/// `repro diff` cannot read back.
fn parse_finite(flag: &str, val: &str) -> Result<f64, String> {
    let x = val
        .parse::<f64>()
        .map_err(|e| format!("{flag}: invalid number {val:?}: {e}"))?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("{flag}: value {val:?} is not a finite number"))
    }
}

/// Rejects negative values of `flag` (demand scales and β), the domain
/// `TrafficMatrix::scaled` and `Objective::with_weights` assert.
fn non_negative(flag: &str, values: Vec<f64>) -> Result<Vec<f64>, String> {
    match values.iter().find(|&&x| x < 0.0) {
        Some(x) => Err(format!("{flag}: value {x} must not be negative")),
        None => Ok(values),
    }
}

/// Parses and runs `repro sweep ...`, returning the process exit code.
fn run_sweep(argv: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut grid = ScenarioGrid::new();
    let mut json_path = PathBuf::from("BENCH_sweep.json");
    let mut options = BatchOptions::default();

    let parse_list =
        |val: &str| -> Vec<String> { val.split(',').map(|s| s.trim().to_string()).collect() };
    let parse_f64s = |flag: &str, val: &str| -> Result<Vec<f64>, String> {
        val.split(',')
            .map(|s| parse_finite(flag, s.trim()))
            .collect()
    };

    let mut argv = argv.peekable();
    let mut grid_customised = false;
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        if arg.starts_with("--")
            && !matches!(
                arg.as_str(),
                "--family" | "--json" | "--full-rebuild" | "--help" | "-h"
            )
        {
            grid_customised = true;
        }
        match arg.as_str() {
            "--family" => {
                if grid_customised {
                    return Err(
                        "--family replaces the whole grid; pass it before any grid flags".into(),
                    );
                }
                let val = value("--family")?;
                match val.as_str() {
                    "te" => grid = ScenarioGrid::te_family(),
                    "sim" => grid = ScenarioGrid::sim_family(),
                    "failure" => grid = ScenarioGrid::failure_family(),
                    "scale" => grid = ScenarioGrid::scale_family(),
                    other => {
                        return Err(format!(
                            "--family: unknown family {other:?}; known: te, sim, failure, scale"
                        ))
                    }
                };
            }
            "--topologies" => {
                let names = value("--topologies")?;
                grid = grid.topologies(
                    parse_list(&names)
                        .iter()
                        .map(|n| TopologySpec::parse(n))
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            "--seeds" => {
                let val = value("--seeds")?;
                grid = grid.seeds(
                    parse_list(&val)
                        .iter()
                        .map(|s| {
                            s.parse::<u64>()
                                .map_err(|e| format!("--seeds: invalid seed {s:?}: {e}"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            "--loads" => {
                let val = value("--loads")?;
                grid = grid.loads(non_negative("--loads", parse_f64s("--loads", &val)?)?);
            }
            "--betas" => {
                let val = value("--betas")?;
                grid = grid.betas(non_negative("--betas", parse_f64s("--betas", &val)?)?);
            }
            "--q" => {
                let val = value("--q")?;
                let q = parse_finite("--q", &val)?;
                if q <= 0.0 {
                    return Err(format!("--q: value {q} must be positive"));
                }
                grid = grid.q(q);
            }
            "--solvers" => {
                let val = value("--solvers")?;
                grid = grid.solvers(
                    parse_list(&val)
                        .iter()
                        .map(|n| SolverSpec::parse(n))
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            "--traffic" => {
                let val = value("--traffic")?;
                grid = grid.traffic_model(match val.as_str() {
                    "ft" => TrafficModel::FortzThorup,
                    "gravity" => TrafficModel::Gravity,
                    other => return Err(format!("--traffic: unknown model {other:?}")),
                });
            }
            "--base-seed" => {
                let val = value("--base-seed")?;
                grid = grid.base_seed(
                    val.parse::<u64>()
                        .map_err(|e| format!("--base-seed: invalid value {val:?}: {e}"))?,
                );
            }
            "--sim-durations" => {
                let val = value("--sim-durations")?;
                grid = grid.sim_durations(parse_f64s("--sim-durations", &val)?);
            }
            "--sim-warmup-frac" => {
                let val = value("--sim-warmup-frac")?;
                let frac = parse_finite("--sim-warmup-frac", &val)?;
                // The warmup is this fraction of each duration and must stay
                // below it; a fraction ≥ 1 could also overflow to ∞.
                if !(0.0..1.0).contains(&frac) {
                    return Err(format!("--sim-warmup-frac: value {frac} must be in [0, 1)"));
                }
                grid = grid.sim_warmup_frac(frac);
            }
            "--sim-unit" => {
                let val = value("--sim-unit")?;
                grid = grid.sim_unit_bps(parse_finite("--sim-unit", &val)?);
            }
            "--sim-seed" => {
                let val = value("--sim-seed")?;
                grid = grid.sim_seed(
                    val.parse::<u64>()
                        .map_err(|e| format!("--sim-seed: invalid value {val:?}: {e}"))?,
                );
            }
            "--json" => json_path = PathBuf::from(value("--json")?),
            "--full-rebuild" => options.full_rebuild = true,
            "--help" | "-h" => {
                println!(
                    "usage: repro sweep [--family te|sim|failure|scale] [--topologies a,b,...] \
                     [--seeds 1,2,...] [--loads 0.15,...] [--betas 1.0,...] [--q 1.0] \
                     [--solvers fw|fw-fast|fw-pinned|dd|ft] [--traffic ft|gravity] \
                     [--base-seed N] [--sim-durations 2,5] [--sim-warmup-frac 0.1] \
                     [--sim-unit 1e6] [--sim-seed N] [--json FILE] [--full-rebuild]\n\
                     worker threads: RAYON_NUM_THREADS (default: all cores)"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown sweep argument {other:?}")),
        }
    }

    let scenarios = grid.build();
    println!(
        "sweep: {} scenario(s), {} thread(s)",
        scenarios.len(),
        rayon::current_num_threads()
    );
    let report = run_batch(scenarios, &options);
    print!("{}", report.summary_table());
    report
        .write(&json_path)
        .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    println!(
        "sweep: {} ok, {} failed, {:.1}s total; report: {}",
        report.results.len(),
        report.failures.len(),
        report.total_wall_ms / 1e3,
        json_path.display()
    );
    if let Some(spf) = &report.spf {
        println!(
            "  spf: {} builds ({} incremental, {} slots rebuilt)",
            spf.builds, spf.incremental_builds, spf.slots_rebuilt
        );
    }
    if report.failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

/// Parses and runs `repro diff BASELINE.json CANDIDATE.json`: bit-compares
/// every field of two sweep reports except the execution metadata named
/// in [`REPORT_METADATA`](spef_experiments::harness::REPORT_METADATA), and
/// fails on any drift, printing one line per difference
/// ([`BatchReport::result_drift`]). The regression gate of every change.
fn run_diff(mut argv: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let usage = "usage: repro diff BASELINE.json CANDIDATE.json";
    let baseline_path = argv.next().ok_or(usage)?;
    let candidate_path = argv.next().ok_or(usage)?;
    if let Some(extra) = argv.next() {
        return Err(format!("unexpected diff argument {extra:?}\n{usage}"));
    }
    let load = |path: &str| -> Result<BatchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        BatchReport::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))
    };
    let baseline = load(&baseline_path)?;
    let candidate = load(&candidate_path)?;
    let drift = baseline.result_drift(&candidate);
    if drift.is_empty() {
        println!(
            "diff: {} scenario(s) bit-identical ({} vs {}); wall {:.1} ms -> {:.1} ms",
            baseline.results.len(),
            baseline_path,
            candidate_path,
            baseline.total_wall_ms,
            candidate.total_wall_ms,
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "diff: {} drift(s) between {} and {}:",
            drift.len(),
            baseline_path,
            candidate_path
        );
        for line in &drift {
            eprintln!("  {line}");
        }
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("sweep") {
        argv.next();
        return match run_sweep(argv) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.peek().map(String::as_str) == Some("diff") {
        argv.next();
        return match run_diff(argv) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    let mut failed = false;
    for id in &args.experiments {
        let started = std::time::Instant::now();
        match run_experiment(id, args.quality) {
            Ok(result) => {
                print!("{result}");
                if let Err(e) = result.write_csvs(&args.out_dir) {
                    eprintln!("error: writing CSVs for {id}: {e}");
                    failed = true;
                } else {
                    println!(
                        "[{id}] done in {:.1}s; {} CSV file(s) in {}\n",
                        started.elapsed().as_secs_f64(),
                        result.csvs.len(),
                        args.out_dir.display()
                    );
                }
            }
            Err(e) => {
                eprintln!("error: experiment {id}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_sweep_options_are_rejected_by_name() {
        for (argv, name) in [
            (&["--cold-solves"][..], "--cold-solves"),
            (&["--serial"][..], "--serial"),
            (&["--family", "all"][..], "\"all\""),
        ] {
            let err = run_sweep(argv.iter().map(|s| s.to_string())).unwrap_err();
            assert!(err.contains(name), "{argv:?}: {err}");
        }
    }

    #[test]
    fn out_of_domain_grid_values_are_rejected_where_parsed() {
        let json = std::env::temp_dir().join("repro-out-of-domain-grid-values.json");
        let base = [
            "--topologies",
            "fig1",
            "--seeds",
            "1",
            "--loads",
            "0.05",
            "--solvers",
            "fw-fast",
            "--json",
            json.to_str().unwrap(),
        ];
        let cases: &[(&str, &[&str])] = &[
            ("--loads", &["--loads", "inf"]),
            ("--loads", &["--loads", "nan"]),
            ("--loads", &["--loads", "-0.1"]),
            ("--betas", &["--betas", "-1"]),
            ("--betas", &["--betas", "nan"]),
            ("--betas", &["--betas", "inf"]),
            ("--q", &["--q", "0"]),
            ("--q", &["--q", "inf"]),
            (
                "--sim-durations",
                &["--sim-durations", "inf", "--sim-warmup-frac", "0"],
            ),
            ("--sim-unit", &["--sim-durations", "1", "--sim-unit", "inf"]),
            (
                "--sim-warmup-frac",
                &["--sim-durations", "1", "--sim-warmup-frac", "nan"],
            ),
            (
                "--sim-warmup-frac",
                &["--sim-durations", "1e300", "--sim-warmup-frac", "1e10"],
            ),
            (
                "--sim-warmup-frac",
                &["--sim-durations", "1", "--sim-warmup-frac", "1"],
            ),
            (
                "--sim-warmup-frac",
                &["--sim-durations", "1", "--sim-warmup-frac", "-0.1"],
            ),
        ];
        for (flag, extra) in cases {
            let argv = base.iter().chain(extra.iter()).map(|s| s.to_string());
            match run_sweep(argv) {
                Err(err) => assert!(err.contains(flag), "{extra:?}: {err}"),
                Ok(code) => panic!("{extra:?} was accepted ({code:?})"),
            }
        }
    }

    /// A duration too long to simulate but finite, with an in-range warmup
    /// fraction, fails its scenario with a typed error; the failure row
    /// keeps finite values, so the report reads back for `repro diff`.
    #[test]
    fn unsimulable_duration_writes_a_diffable_failure_row() {
        let json = std::env::temp_dir().join("repro-unsimulable-duration.json");
        let path = json.to_str().unwrap();
        let argv = [
            "--topologies",
            "fig1",
            "--seeds",
            "1",
            "--loads",
            "0.05",
            "--solvers",
            "fw-fast",
            "--sim-durations",
            "1e300",
            "--sim-warmup-frac",
            "0.5",
            "--json",
            path,
        ];
        let code = run_sweep(argv.into_iter().map(String::from)).unwrap();
        assert_eq!(code, ExitCode::FAILURE);
        let diff = run_diff([path, path].into_iter().map(String::from)).unwrap();
        assert_eq!(diff, ExitCode::SUCCESS);
    }
}
