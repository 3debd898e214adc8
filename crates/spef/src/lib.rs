//! Facade crate for the SPEF workspace.
//!
//! Re-exports every member crate under one roof so downstream users (and the
//! workspace-level integration tests and examples) can depend on a single
//! package. The algorithms live in the member crates:
//!
//! * [`graph`] — directed multigraph, Dijkstra, shortest-path DAGs
//! * [`lp`] — simplex with duals, min-cost flow, max-flow
//! * [`topology`] — evaluation networks and traffic matrices
//! * [`core`] — the SPEF algorithms (first + second weights)
//! * [`baselines`] — OSPF/InvCap, Fortz–Thorup, PEFT, min-MLU
//! * [`netsim`] — packet-level discrete-event simulator
//! * [`experiments`] — paper artifacts and the scenario-sweep harness

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spef_baselines as baselines;
pub use spef_core as core;
pub use spef_experiments as experiments;
pub use spef_graph as graph;
pub use spef_lp as lp;
pub use spef_netsim as netsim;
pub use spef_topology as topology;
