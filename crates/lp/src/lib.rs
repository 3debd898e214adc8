//! Linear-programming substrate for the SPEF traffic-engineering
//! reproduction.
//!
//! The paper needs exact linear optimisation in two places:
//!
//! * the **β = 0** objective of the (q, β) load-balance family is linear
//!   (`V_ij(s) = q_ij·s`), so its optimal first weights are LP duals
//!   (TABLE I, Fig. 6/7 with SPEF0);
//! * the **min-MLU** and **min-max** columns of TABLE I are solutions of the
//!   classic maximum-link-utilization LP.
//!
//! No sufficiently capable LP crate is available offline, so this crate
//! implements the substrate from scratch:
//!
//! * [`simplex`] — a two-phase simplex on a flat single-allocation tableau
//!   arena for general LPs `min/max c'x  s.t.  Ax {≤,=,≥} b, x ≥ 0`, with
//!   **dual extraction** (strong duality and complementary slackness are
//!   verified in tests) and a reusable [`SimplexWorkspace`] that recycles
//!   the arena across solves but keeps no basis, so a solve's answer does
//!   not depend on what the workspace solved before,
//! * [`mincost_flow`] — successive shortest paths with Johnson potentials,
//! * [`maxflow`] — Dinic's algorithm.
//!
//! The two combinatorial solvers have no caller outside the tests: they are
//! the oracles `tests/cross_validation.rs` checks the simplex against.
//!
//! # Example
//!
//! ```
//! use spef_lp::simplex::{LinearProgram, Relation};
//!
//! # fn main() -> Result<(), spef_lp::simplex::SimplexError> {
//! // max 3x + 2y  s.t. x + y <= 4, x <= 2
//! let mut lp = LinearProgram::maximize(2);
//! lp.set_objective(0, 3.0);
//! lp.set_objective(1, 2.0);
//! lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
//! lp.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
//! let sol = lp.solve()?;
//! assert!((sol.objective() - 10.0).abs() < 1e-9); // x=2, y=2
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod maxflow;
pub mod mincost_flow;
pub mod simplex;

pub use maxflow::max_flow;
pub use mincost_flow::{MinCostFlow, MinCostFlowError};
pub use simplex::{LinearProgram, Relation, SimplexError, SimplexWorkspace, Solution};
