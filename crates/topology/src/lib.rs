//! Evaluation networks and traffic matrices for the SPEF reproduction.
//!
//! §V.B of the paper (TABLE III) evaluates SPEF on seven networks:
//!
//! | Net. ID  | Topology  | Nodes | Links |
//! |----------|-----------|-------|-------|
//! | Abilene  | backbone  | 11    | 28    |
//! | Cernet2  | backbone  | 20    | 44    |
//! | Hier50a  | 2-level   | 50    | 222   |
//! | Hier50b  | 2-level   | 50    | 152   |
//! | Rand50a  | random    | 50    | 242   |
//! | Rand50b  | random    | 50    | 230   |
//! | Rand100  | random    | 100   | 392   |
//!
//! plus the two pedagogical examples of Fig. 1 (4 nodes) and Fig. 4
//! (7 nodes, 13 links). This crate provides all of them:
//!
//! * [`Network`] — a directed graph with per-link capacities, node names and
//!   planar coordinates;
//! * [`standard`] — Fig. 1, Fig. 4, Abilene and CERNET2 (the latter two
//!   reconstructed; its module doc gives the substitution notes);
//! * [`gen`] — GT-ITM-style 2-level hierarchical networks and random
//!   networks with exact link-count targeting;
//! * [`TrafficMatrix`] and its generators — the Fortz–Thorup demand model
//!   (used for Abilene and the synthetic networks) and a gravity model
//!   standing in for the paper's NetFlow-derived CERNET2 demands.
//!
//! # Example
//!
//! ```
//! use spef_topology::{standard, TrafficMatrix};
//!
//! let net = standard::abilene();
//! assert_eq!(net.node_count(), 11);
//! assert_eq!(net.link_count(), 28);
//!
//! let tm = TrafficMatrix::fortz_thorup(&net, 42);
//! let tm = tm.scaled_to_network_load(&net, 0.17);
//! assert!((tm.network_load(&net) - 0.17).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;
mod traffic;

pub mod gen;
pub mod standard;

pub use network::{Network, NetworkBuilder, TopologyError};
pub use traffic::TrafficMatrix;
