//! Packet-level validation: run the discrete-event simulator over the
//! Fig. 4 network with the forwarding tables of OSPF, PEFT and SPEF, and
//! compare delivered throughput, loss and delay.
//!
//! This is the §V.D experiment extended with OSPF: the paper's TABLE IV
//! demands (4 Mb/s per pair over 5 Mb/s links) overload OSPF's bottleneck,
//! drop at PEFT's saturated link, and flow cleanly under SPEF.
//!
//! ```bash
//! cargo run --release -p spef-experiments --example packet_sim
//! ```

use spef_baselines::ospf::OspfRouting;
use spef_baselines::peft::PeftRouting;
use spef_core::{weights, Objective, SpefConfig, TeInstance, TeSolver};
use spef_netsim::{simulate_with, SimConfig, SimReport, SimWorkspace};
use spef_topology::standard;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = standard::fig4();
    let traffic = standard::table4_simple_demands();
    let objective = Objective::proportional(network.link_count());

    let spef = SpefConfig::default().solve(TeInstance::new(&network, &traffic, &objective))?;
    let te = spef.te_solution();
    let peft = PeftRouting::route(
        &network,
        &traffic,
        &weights::integerize(&te.weights, &te.spare)?,
    )?;
    let ospf = OspfRouting::route(&network, &traffic)?;

    let cfg = SimConfig {
        duration: 60.0,
        warmup: 5.0,
        capacity_to_bps: 1e6, // capacity 5 = 5 Mb/s
        demand_to_bps: 1e6,   // demand 4 = 4 Mb/s
        seed: 99,
        ..SimConfig::default()
    };

    println!(
        "Fig. 4 network, TABLE IV demands (4 Mb/s x 4 pairs over 5 Mb/s links), {}s simulated\n",
        cfg.duration
    );
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "proto", "delivered", "dropped", "loss %", "mean delay", "p99 delay", "pkt slots"
    );
    println!("{}", "-".repeat(81));
    // One workspace serves all three runs: after the first, the event
    // queue, arenas and histogram are recycled allocation-free.
    let mut ws = SimWorkspace::new();
    for (name, fib) in [
        ("OSPF", ospf.forwarding_table()),
        ("PEFT", peft.forwarding_table()),
        ("SPEF", spef.forwarding_table()),
    ] {
        let report = simulate_with(&network, &traffic, fib, &cfg, &mut ws)?;
        print_row(name, &report);
    }

    // Scheduler internals of the last run — the smoke check that the
    // calendar queue is actually bucketing (and recycling event slots)
    // rather than degenerating into one sorted list.
    let stats = ws.scheduler_stats();
    println!(
        "\ncalendar queue: {} buckets x {} ns | max bucket occupancy {} | \
         peak events {} (slots {}) | resizes {} | peak overflow {}",
        stats.bucket_count,
        stats.bucket_width_ns,
        stats.max_bucket_occupancy,
        stats.peak_events,
        stats.peak_event_slots,
        stats.resizes,
        stats.peak_overflow
    );

    println!(
        "\nreading: OSPF funnels two demands over one 5 Mb/s link (offered\n\
         8 Mb/s) and loses roughly a fifth of all packets; PEFT's\n\
         exponential splitting still saturates its favourite path; SPEF's\n\
         engineered equal-cost splits carry everything, with an order of\n\
         magnitude less delay."
    );
    Ok(())
}

fn print_row(name: &str, r: &SimReport) {
    let loss = 100.0 * r.dropped_packets as f64 / r.generated_packets.max(1) as f64;
    println!(
        "{:<8} {:>12} {:>12} {:>9.2}% {:>10.2}ms {:>10.2}ms {:>10}",
        name,
        r.delivered_packets,
        r.dropped_packets,
        loss,
        1e3 * r.mean_delay,
        1e3 * r.p99_delay,
        r.peak_packet_slots
    );
}
