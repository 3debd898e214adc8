//! Solver sessions: the unified [`TeSolver`] trait, the [`TeWorkspace`]
//! that persists across solves, and the shared [`ConvergenceCriteria`].
//!
//! Every TE-style solver in this crate — Frank–Wolfe (with the β = 0 LP
//! fallback), Algorithm 1 (dual decomposition), Algorithm 2 (NEM) and the
//! full SPEF pipeline — exposes the same two entry points:
//!
//! * [`TeSolver::solve`] — a solve on a fresh workspace;
//! * [`TeSolver::solve_in`] — a solve **in** a caller-held
//!   [`TeWorkspace`], whose arenas (CSR adjacency, DAG sets, split tables,
//!   flow and demand buffers, the simplex tableau) are reused across
//!   calls.
//!
//! ## Determinism contract
//!
//! A workspace holds arenas, never a previous solution: every solver
//! starts from a fixed initial point — the paper's `w(0) = 1/c` for
//! Algorithm 1 and `v(0) = 0` for Algorithm 2 (§V.F), even-ECMP on InvCap
//! weights for Frank–Wolfe. So `solve_in` on any workspace — fresh, or one
//! that just solved another load, topology or the same instance — is
//! bit-identical to `solve()`: arena reuse and the SPF skip in
//! [`RoutingEngine`](crate::RoutingEngine) never change results.

use spef_graph::{Graph, ShortestPathDag};
use spef_lp::simplex::SimplexWorkspace;
use spef_topology::{Network, TrafficMatrix};

use crate::engine::EngineState;
use crate::frank_wolfe::TargetFlows;
use crate::traffic_dist::{Flows, StreamScratch};
use crate::{Objective, SpefError};

/// Relative Dijkstra tie threshold for reconverging *stale* continuous
/// weights on a degraded topology: two paths count as equal-cost when
/// their lengths differ by at most `STALE_WEIGHT_DAG_RTOL · max_e w_e`.
///
/// Contract: solver-produced weights (marginal utilities) are continuous,
/// so after a failure the surviving weights almost never tie exactly and
/// a zero threshold would collapse every ECMP split to a single path —
/// overstating the stale-weight MLU. Fresh SPEF solves derive their
/// adaptive tolerance from the Bellman slack over the optimal support
/// (§V.G, [`crate::SpefConfig::dijkstra_tolerance`]); on a degraded
/// topology the stale weights solve *nothing*, there is no support to
/// probe, so this coarse threshold — relative to the **maximum** current
/// weight, which keeps it meaningful across objectives where β changes
/// weight magnitudes by orders of magnitude — stands in. Every failure
/// study must use this one constant so stale and re-optimised routings
/// are compared under the same tie rule.
pub const STALE_WEIGHT_DAG_RTOL: f64 = 1e-2;

/// Stopping rules shared by every solver configuration, replacing the
/// former per-config field dialects (`max_iterations` +
/// `relative_gap_tolerance` / `epsilon` / `gap_tolerance`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriteria {
    /// Iteration budget.
    pub max_iterations: usize,
    /// Convergence tolerance; the meaning is solver-specific (Frank–Wolfe:
    /// relative duality gap; NEM: the ε of `f_e ≤ f*_e + ε`; dual
    /// decomposition: absolute dual gap). `None` derives each solver's
    /// documented default.
    pub gap_tolerance: Option<f64>,
    /// Pinned-iteration mode: run exactly `max_iterations` iterations,
    /// with no early termination on the tolerance, so the iteration count
    /// is fixed by the configuration rather than by convergence.
    pub pinned: bool,
}

impl ConvergenceCriteria {
    /// A budget-only criterion: stop on the solver's default tolerance or
    /// after `max_iterations`, whichever comes first.
    pub const fn budget(max_iterations: usize) -> ConvergenceCriteria {
        ConvergenceCriteria {
            max_iterations,
            gap_tolerance: None,
            pinned: false,
        }
    }

    /// A budget with an explicit tolerance.
    pub const fn with_tolerance(max_iterations: usize, tolerance: f64) -> ConvergenceCriteria {
        ConvergenceCriteria {
            max_iterations,
            gap_tolerance: Some(tolerance),
            pinned: false,
        }
    }

    /// Exactly `iterations` iterations, no early exit.
    pub const fn pinned(iterations: usize) -> ConvergenceCriteria {
        ConvergenceCriteria {
            max_iterations: iterations,
            gap_tolerance: None,
            pinned: true,
        }
    }
}

/// A TE problem instance: the triple every network-level solver consumes.
/// Cheap to copy; borrows everything.
#[derive(Debug, Clone, Copy)]
pub struct TeInstance<'a> {
    /// The network (graph + capacities).
    pub network: &'a Network,
    /// The demand matrix `D`.
    pub traffic: &'a TrafficMatrix,
    /// The utility objective `V`.
    pub objective: &'a Objective,
}

impl<'a> TeInstance<'a> {
    /// Bundles a TE instance.
    pub fn new(
        network: &'a Network,
        traffic: &'a TrafficMatrix,
        objective: &'a Objective,
    ) -> TeInstance<'a> {
        TeInstance {
            network,
            traffic,
            objective,
        }
    }
}

/// An Algorithm 2 (NEM) instance: the second-weight computation runs over
/// already-built shortest-path DAGs against a target distribution.
#[derive(Debug, Clone, Copy)]
pub struct NemInstance<'a> {
    /// The graph the DAGs live on.
    pub graph: &'a Graph,
    /// Per-destination shortest-path DAGs under the first weights,
    /// aligned with `traffic.destinations()`.
    pub dags: &'a [ShortestPathDag],
    /// The demand matrix.
    pub traffic: &'a TrafficMatrix,
    /// The aggregate target distribution `f*`.
    pub target_flows: &'a [f64],
}

impl<'a> NemInstance<'a> {
    /// Bundles a NEM instance.
    pub fn new(
        graph: &'a Graph,
        dags: &'a [ShortestPathDag],
        traffic: &'a TrafficMatrix,
        target_flows: &'a [f64],
    ) -> NemInstance<'a> {
        NemInstance {
            graph,
            dags,
            traffic,
            target_flows,
        }
    }
}

/// The unified solver interface. Implemented by [`FrankWolfeConfig`]
/// (β = 0 dispatches to the exact LP), [`DualDecompConfig`], [`NemConfig`]
/// and [`SpefConfig`] — the configuration *is* the solver; the instance
/// carries the problem data.
///
/// [`FrankWolfeConfig`]: crate::FrankWolfeConfig
/// [`DualDecompConfig`]: crate::DualDecompConfig
/// [`NemConfig`]: crate::NemConfig
/// [`SpefConfig`]: crate::SpefConfig
pub trait TeSolver {
    /// The instance type this solver consumes ([`TeInstance`] for the
    /// network-level solvers, [`NemInstance`] for Algorithm 2).
    type Instance<'i>;
    /// The solution type this solver produces.
    type Output;

    /// Solves `instance` in the caller's workspace, reusing its arenas.
    /// Bit-identical to [`TeSolver::solve`] whatever the workspace solved
    /// before (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// The same conditions as the solver's documented cold path.
    fn solve_in(
        &self,
        instance: Self::Instance<'_>,
        workspace: &mut TeWorkspace,
    ) -> Result<Self::Output, SpefError>;

    /// Solves `instance` on a fresh workspace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TeSolver::solve_in`].
    fn solve(&self, instance: Self::Instance<'_>) -> Result<Self::Output, SpefError> {
        self.solve_in(instance, &mut TeWorkspace::new())
    }
}

/// Bytes of capacity of an `f64` buffer.
fn f64_bytes(v: &Vec<f64>) -> usize {
    v.capacity() * std::mem::size_of::<f64>()
}

/// Frank–Wolfe session buffers: the iterate, the all-or-nothing target,
/// the streamed-distribution scratch and the per-link vectors. The iterate
/// is moved into the returned [`TeSolution`](crate::TeSolution) at the end
/// of a solve, so between solves the session holds no per-destination
/// column set; the next solve regrows it.
#[derive(Debug, Default)]
pub(crate) struct FwSession {
    pub(crate) flows: Flows,
    /// The target keeps its aggregate and, per destination, only the
    /// flows on that destination's DAG edges.
    pub(crate) target: TargetFlows,
    /// One destination's split table, kernel scratch and flow column: the
    /// target is routed through it, and the blend reuses the column.
    pub(crate) stream: StreamScratch,
    pub(crate) spare: Vec<f64>,
    pub(crate) kappa: Vec<f64>,
    pub(crate) delta: Vec<f64>,
    pub(crate) init_weights: Vec<f64>,
}

impl FwSession {
    /// Bytes of capacity: the iterate (empty between solves), the target,
    /// the stream scratch and the per-link buffers.
    fn arena_bytes(&self) -> usize {
        self.flows.arena_bytes()
            + self.target.arena_bytes()
            + self.stream.arena_bytes()
            + [&self.spare, &self.kappa, &self.delta, &self.init_weights]
                .into_iter()
                .map(f64_bytes)
                .sum::<usize>()
    }
}

/// NEM session buffers: the dual iterate `v` and the distribution scratch.
/// The step reads only the aggregate flow, so the session holds no
/// per-destination columns: each destination is routed through one
/// split-table scratch and one flow column and folded into `flows`'
/// aggregate.
#[derive(Debug, Default)]
pub(crate) struct NemSession {
    pub(crate) v: Vec<f64>,
    /// Aggregate-only flows of the last distribution.
    pub(crate) flows: Flows,
    /// One destination's split table, kernel scratch and flow column at a
    /// time: NEM routes each destination through it.
    pub(crate) stream: StreamScratch,
}

impl NemSession {
    /// Bytes of capacity: the flows, the stream scratch and the iterate.
    fn arena_bytes(&self) -> usize {
        self.flows.arena_bytes() + self.stream.arena_bytes() + f64_bytes(&self.v)
    }
}

/// Dual-decomposition session buffers: the multipliers, the per-link
/// vectors and the routed flows.
#[derive(Debug, Default)]
pub(crate) struct DdSession {
    pub(crate) weights: Vec<f64>,
    pub(crate) spare: Vec<f64>,
    pub(crate) average_flows: Vec<f64>,
    pub(crate) floored: Vec<f64>,
    pub(crate) flows: Flows,
    pub(crate) demand_buf: Vec<f64>,
}

impl DdSession {
    /// Bytes of capacity: the flows and the per-link buffers.
    fn arena_bytes(&self) -> usize {
        self.flows.arena_bytes()
            + [
                &self.weights,
                &self.spare,
                &self.average_flows,
                &self.floored,
                &self.demand_buf,
            ]
            .into_iter()
            .map(f64_bytes)
            .sum::<usize>()
    }
}

/// A reusable solver workspace: the arenas the solvers in this crate
/// carry from one solve to the next. It holds no solution: a solve in a
/// used workspace is bit-identical to a solve in a fresh one.
///
/// One workspace serves all four solvers — the SPEF pipeline threads the
/// same workspace through its TE, DAG and NEM stages, so a chained sweep
/// (same topology, neighbouring loads) reuses the CSR adjacency, DAG
/// arenas, flow/split/demand buffers and the simplex tableau (β = 0)
/// without reallocating.
#[derive(Debug, Default)]
pub struct TeWorkspace {
    engine: Option<EngineState>,
    /// Second engine slot, so two topologies stay warm at once: a caller
    /// that alternates between two networks (two backbones in one loop,
    /// or a failure stage's intact topology and its degraded clone) would
    /// otherwise re-attach the one state to a different graph on every
    /// switch, rebuilding the CSR and losing the SPF-skip fingerprint
    /// both ways. [`TeWorkspace::take_engine`] hands out whichever slot
    /// matches the requested graph.
    engine_alt: Option<EngineState>,
    /// `true` disables the engine's delta-aware incremental rebuild
    /// paths (dense rebuilds only); default `false` = incremental on.
    full_rebuild_only: bool,
    pub(crate) simplex: SimplexWorkspace,
    pub(crate) fw: FwSession,
    pub(crate) nem: NemSession,
    pub(crate) dd: DdSession,
}

impl TeWorkspace {
    /// An empty workspace; arenas grow on first use.
    pub fn new() -> TeWorkspace {
        TeWorkspace::default()
    }

    /// Bytes currently reserved by the workspace, by capacity — the
    /// high-water mark over every solve this workspace has run, since the
    /// arenas never shrink. It counts both engine slots' routing arenas
    /// (DAG sets, split tables, Dijkstra scratch) and everything else they
    /// hold (CSR, demand cache, SPF-skip fingerprint), every solver's flow
    /// buffers (NEM's holds the aggregate only, Frank–Wolfe's target only
    /// its DAG edges) and the per-link buffers; only the β = 0 simplex
    /// tableau is left out. The Frank–Wolfe and Algorithm 1 iterates are
    /// not counted: each solve moves its per-destination flows into the
    /// returned solution, which owns them from then on (add
    /// `Flows::arena_bytes` of the solution's flows for a route's total).
    /// The sweep harness's scale stage reports that total as its
    /// `peak_arena_bytes` witness.
    pub fn arena_bytes(&self) -> usize {
        let engine_bytes = |e: &EngineState| e.arena_bytes() + e.cache_bytes();
        self.engine.as_ref().map_or(0, engine_bytes)
            + self.engine_alt.as_ref().map_or(0, engine_bytes)
            + self.fw.arena_bytes()
            + self.nem.arena_bytes()
            + self.dd.arena_bytes()
    }

    /// Does nothing: a workspace holds no solution to clear, so every
    /// `solve_in` already equals [`TeSolver::solve`]. Kept only so
    /// existing callers still build; new code should not call it.
    pub fn clear_solutions(&mut self) {}

    /// Enables/disables the engine's delta-aware incremental rebuild
    /// paths for subsequent solves (enabled by default). After a small
    /// weight delta, an incremental re-solve rebuilds only the dirty
    /// destinations' DAGs and split tables; results are bit-identical to
    /// dense rebuilds either way — only wall clock changes.
    pub fn set_incremental(&mut self, enabled: bool) {
        self.full_rebuild_only = !enabled;
        for engine in [self.engine.as_mut(), self.engine_alt.as_mut()]
            .into_iter()
            .flatten()
        {
            engine.set_incremental(enabled);
        }
    }

    /// Whether the incremental engine paths are enabled.
    pub fn incremental(&self) -> bool {
        !self.full_rebuild_only
    }

    /// The SPF build counters summed over both engine slots (zeroes
    /// before the first solve); `last_dirty` is the maximum over the
    /// slots, as "most recent" is meaningless across two engines.
    pub fn spf_stats(&self) -> crate::SpfStats {
        let mut total = crate::SpfStats::default();
        for engine in [self.engine.as_ref(), self.engine_alt.as_ref()]
            .into_iter()
            .flatten()
        {
            total.add(engine.spf_stats());
        }
        total
    }

    /// Detaches an engine state for attaching to `graph`: the slot that
    /// last routed over this topology if one exists (its CSR, arenas and
    /// SPF fingerprint survive), otherwise an empty state, otherwise the
    /// secondary slot's arenas. The primary slot is never recycled for a
    /// new topology while occupied, so a chain's intact-topology engine
    /// outlives any number of degraded-topology solves in between.
    pub(crate) fn take_engine(&mut self, graph: &Graph) -> EngineState {
        let primary_matches = self
            .engine
            .as_ref()
            .is_some_and(|s| s.matches_topology(graph));
        let mut state = if primary_matches {
            self.engine.take().expect("checked above")
        } else if self
            .engine_alt
            .as_ref()
            .is_some_and(|s| s.matches_topology(graph))
        {
            self.engine_alt.take().expect("checked above")
        } else if self.engine.is_none() || self.engine_alt.is_none() {
            EngineState::new()
        } else {
            // Both slots warm on other topologies: recycle the secondary
            // slot's arenas for the new one.
            self.engine_alt.take().expect("checked above")
        };
        state.set_incremental(!self.full_rebuild_only);
        state
    }

    /// Returns the engine state after a session, into the first free slot
    /// (the secondary slot is overwritten when both are somehow full).
    pub(crate) fn put_engine(&mut self, state: EngineState) {
        if self.engine.is_none() {
            self.engine = Some(state);
        } else {
            self.engine_alt = Some(state);
        }
    }
}

impl TeSolver for crate::FrankWolfeConfig {
    type Instance<'i> = TeInstance<'i>;
    type Output = crate::TeSolution;

    fn solve_in(
        &self,
        instance: TeInstance<'_>,
        workspace: &mut TeWorkspace,
    ) -> Result<crate::TeSolution, SpefError> {
        crate::te::solve_te_in(
            instance.network,
            instance.traffic,
            instance.objective,
            self,
            workspace,
        )
    }
}

impl TeSolver for crate::DualDecompConfig {
    type Instance<'i> = TeInstance<'i>;
    type Output = crate::DualDecompOutcome;

    fn solve_in(
        &self,
        instance: TeInstance<'_>,
        workspace: &mut TeWorkspace,
    ) -> Result<crate::DualDecompOutcome, SpefError> {
        crate::dual_decomp::solve_in(
            instance.network,
            instance.traffic,
            instance.objective,
            self,
            workspace,
        )
    }
}

impl TeSolver for crate::NemConfig {
    type Instance<'i> = NemInstance<'i>;
    type Output = crate::NemOutcome;

    fn solve_in(
        &self,
        instance: NemInstance<'_>,
        workspace: &mut TeWorkspace,
    ) -> Result<crate::NemOutcome, SpefError> {
        crate::nem::solve_in(
            instance.graph,
            instance.dags,
            instance.traffic,
            instance.target_flows,
            self,
            workspace,
        )
    }
}

impl TeSolver for crate::SpefConfig {
    type Instance<'i> = TeInstance<'i>;
    type Output = crate::SpefRouting;

    fn solve_in(
        &self,
        instance: TeInstance<'_>,
        workspace: &mut TeWorkspace,
    ) -> Result<crate::SpefRouting, SpefError> {
        crate::protocol::build_in(
            instance.network,
            instance.traffic,
            instance.objective,
            self,
            workspace,
        )
    }
}
