//! Discrete-event packet-level network simulator — the SSFnet substitute
//! for §V.D of the SPEF paper.
//!
//! The paper runs SPEF and PEFT "for 400s" in SSFnet over the Fig. 4
//! network (5 Mb/s links) and the CERNET2 backbone, and reports the *mean
//! traffic load on each link* (Fig. 11). SSFnet is not available as a
//! maintained artifact, so this crate provides an equivalent simulator
//! that exercises the identical code path — the per-router probabilistic
//! forwarding tables — and measures the same statistic:
//!
//! * **Sources** generate fixed-size packets per demand pair as a Poisson
//!   process matching the pair's offered rate;
//! * **Routers** forward hop by hop: each packet independently samples a
//!   next hop from the [`ForwardingTable`](spef_core::ForwardingTable)
//!   split ratios of its destination (exactly how SPEF/PEFT routers use
//!   their weights). The table is one flat CSR arena: destination slots
//!   are resolved once per run and stamped into packets, so a hop is two
//!   index operations plus a walk of the row's running ratio sum — the
//!   legacy per-draw walk itself;
//! * **Links** are FIFO, drop-tail, with finite rate (serialisation
//!   delay), constant propagation delay and bounded buffers;
//! * **Measurements**: per-link mean load (bits/s over the measurement
//!   window), end-to-end delay of delivered packets, and drop counts.
//!
//! The simulator is fully deterministic in its seed, and its mean loads
//! are validated against the analytic flow solutions in the integration
//! test-suite.
//!
//! Events are scheduled by an adaptive **calendar queue** (see the
//! `sched` module) in `(time, seq)` order, with payloads in free-list
//! arenas. Batch callers should reuse a [`SimWorkspace`] through
//! [`simulate_with`] — repeated runs are then allocation-free in steady
//! state, and the workspace exposes [`SchedulerStats`] for the last run.
//!
//! # Example
//!
//! ```
//! use spef_core::{Objective, SpefConfig, TeInstance, TeSolver};
//! use spef_netsim::{simulate, SimConfig};
//! use spef_topology::standard;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = standard::fig4();
//! let tm = standard::fig4_demands();
//! let obj = Objective::proportional(net.link_count());
//! let routing = SpefConfig::default().solve(TeInstance::new(&net, &tm, &obj))?;
//!
//! let cfg = SimConfig {
//!     duration: 5.0,
//!     capacity_to_bps: 1e6, // capacity "5" means 5 Mb/s
//!     demand_to_bps: 1e6,   // demand "4" means 4 Mb/s
//!     ..SimConfig::default()
//! };
//! let report = simulate(&net, &tm, routing.forwarding_table(), &cfg)?;
//! assert!(report.delivered_packets > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod sched;

pub use engine::{simulate, simulate_with, SimConfig, SimError, SimReport, SimWorkspace};
pub use sched::SchedulerStats;
