//! Capacity-planning scenario: how much more traffic can the Abilene
//! backbone absorb under SPEF than under OSPF before any link congests?
//!
//! This is the operational question behind the paper's Fig. 10: an ISP
//! watching demand grow wants to know the headroom its routing leaves.
//! (On networks whose worst link is a choice-free spur — e.g. our CERNET2
//! reconstruction — no routing scheme buys headroom; Abilene's diverse
//! core is where weight optimisation pays.)
//!
//! ```bash
//! cargo run --release -p spef-experiments --example load_sweep
//! ```

use spef_baselines::ospf::OspfRouting;
use spef_core::{Objective, SpefConfig, SpefError, TeInstance, TeSolver, TeWorkspace};
use spef_topology::{standard, Network, TrafficMatrix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = standard::abilene();
    // Fortz–Thorup demand shape, as in the paper's Abilene experiments.
    let shape = TrafficMatrix::fortz_thorup(&network, 42);
    let objective = Objective::proportional(network.link_count());

    println!(
        "{} — sweeping offered load, Fortz-Thorup demand shape\n",
        network.name()
    );
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "load", "OSPF MLU", "SPEF MLU", "OSPF utility", "SPEF utility"
    );
    println!("{}", "-".repeat(64));

    let mut ospf_breaks = None;
    let mut spef_breaks = None;
    // One workspace across the sweep: every load routes over the same
    // topology, so each solve after the first reuses its neighbour's
    // arenas instead of reallocating them.
    let config = SpefConfig::default();
    let mut ws = TeWorkspace::new();
    for step in 4..=15 {
        let load = 0.015 * step as f64;
        let tm = shape.scaled_to_network_load(&network, load);
        let ospf = OspfRouting::route(&network, &tm)?;
        let ospf_mlu = ospf.max_link_utilization(&network);
        if ospf_mlu >= 1.0 && ospf_breaks.is_none() {
            ospf_breaks = Some(load);
        }
        let (spef_mlu, spef_u) =
            match config.solve_in(TeInstance::new(&network, &tm, &objective), &mut ws) {
                Ok(spef) => (
                    spef.max_link_utilization(&network),
                    spef.normalized_utility(&network),
                ),
                Err(SpefError::Infeasible) => {
                    if spef_breaks.is_none() {
                        spef_breaks = Some(load);
                    }
                    (f64::NAN, f64::NEG_INFINITY)
                }
                Err(e) => return Err(e.into()),
            };
        println!(
            "{:>8.3} {:>12.4} {:>12.4} {:>14.3} {:>14.3}",
            load,
            ospf_mlu,
            spef_mlu,
            ospf.normalized_utility(&network),
            spef_u,
        );
    }

    summarize(&network, ospf_breaks, spef_breaks);
    Ok(())
}

fn summarize(network: &Network, ospf_breaks: Option<f64>, spef_breaks: Option<f64>) {
    println!();
    match (ospf_breaks, spef_breaks) {
        (Some(o), Some(s)) => println!(
            "{}: OSPF congests at load {:.3}, SPEF at {:.3} — {:.0}% more headroom",
            network.name(),
            o,
            s,
            100.0 * (s / o - 1.0)
        ),
        (Some(o), None) => println!(
            "{}: OSPF congests at load {:.3}; SPEF never congested in this sweep",
            network.name(),
            o
        ),
        _ => println!(
            "{}: neither protocol congested in this sweep",
            network.name()
        ),
    }
}
