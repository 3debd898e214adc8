//! Directed-graph substrate for the SPEF traffic-engineering reproduction.
//!
//! This crate provides the graph machinery that every algorithm in
//! *"One More Weight is Enough: Toward the Optimal Traffic Engineering with
//! OSPF"* (Xu et al., ICDCS 2011) relies on:
//!
//! * [`Graph`] — a compact directed multigraph with stable [`NodeId`] /
//!   [`EdgeId`] indices and O(1) access to in/out adjacency,
//! * [`dijkstra`] — forward and *reverse* single-destination shortest paths
//!   (OSPF computes routes per destination prefix, so the reverse variant is
//!   the workhorse),
//! * [`ShortestPathDag`] — the set `ON_t` of shortest-path links toward a
//!   destination, built with a configurable **cost tolerance** as required by
//!   §V.G of the paper (integer weights make path costs equal only up to a
//!   tolerance),
//! * [`bellman_ford`] — shortest paths under possibly negative weights, the
//!   oracle `tests/properties.rs` checks Dijkstra against (no routing code
//!   calls it),
//! * [`traversal`] — reachability and connectivity checks used to validate
//!   topologies,
//! * [`csr`] / [`batch`] — the **batched routing engine**: flat CSR
//!   adjacency, reusable scratch arenas ([`RoutingWorkspace`]) and
//!   all-destinations DAG construction ([`DagSet`], with parallel fan-out
//!   over destinations) producing results bit-identical to the
//!   per-destination path above. A [`DagSet`] is also the one batched
//!   form of the shortest distances: each destination's distances and
//!   decreasing-distance node order are read from its [`DagRef`].
//!
//! # Example
//!
//! Build a diamond, compute the shortest-path DAG toward node `t`, and count
//! equal-cost paths:
//!
//! ```
//! use spef_graph::{Graph, ShortestPathDag};
//!
//! # fn main() -> Result<(), spef_graph::GraphError> {
//! let mut g = Graph::new();
//! let (s, a, b, t) = (g.add_node(), g.add_node(), g.add_node(), g.add_node());
//! g.add_edge(s, a);
//! g.add_edge(s, b);
//! g.add_edge(a, t);
//! g.add_edge(b, t);
//! let weights = vec![1.0, 1.0, 1.0, 1.0];
//! let dag = ShortestPathDag::build(&g, &weights, t, 0.0)?;
//! assert_eq!(dag.distance(s), 2.0);
//! assert_eq!(dag.path_count(s), 2); // s-a-t and s-b-t tie
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;

pub mod batch;
pub mod bellman_ford;
pub mod csr;
pub mod dag;
pub mod dijkstra;
pub mod traversal;

pub use error::GraphError;
pub use graph::{EdgeId, Graph, NodeId};

pub use batch::{build_dag_set, DagAccess, DagRef, DagSet, Parallelism, RoutingWorkspace};
pub use csr::Csr;
pub use dag::ShortestPathDag;
pub use dijkstra::{distances_from, distances_to};
