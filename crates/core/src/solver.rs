//! Solver sessions: the unified [`TeSolver`] trait, the [`TeWorkspace`]
//! that persists across solves, and the shared [`ConvergenceCriteria`].
//!
//! Every TE-style solver in this crate — Frank–Wolfe (with the β = 0 LP
//! fallback), Algorithm 1 (dual decomposition), Algorithm 2 (NEM) and the
//! full SPEF pipeline — exposes the same two entry points, mirroring
//! `LinearProgram::solve`/`resolve` from `spef-lp`:
//!
//! * [`TeSolver::solve`] — a **cold** solve on a fresh workspace;
//! * [`TeSolver::solve_in`] — a solve **in** a caller-held
//!   [`TeWorkspace`]: arenas (CSR adjacency, DAG sets, split tables, flow
//!   and demand buffers, the simplex tableau) are reused across calls,
//!   and when the workspace holds a compatible previous solution the
//!   solver **warm-starts** from it.
//!
//! ## Warm-start and cold-fallback rules
//!
//! A saved solution is only used when its fingerprint matches the new
//! instance exactly: same topology (node count and edge list, bit for
//! bit), same capacities, same objective (β and every `q_e`), same
//! destination set — and, for Frank–Wolfe, the new demand columns must be
//! per-destination *proportional* to the saved ones (the case produced by
//! load sweeps, which scale a whole matrix uniformly), so the saved flows
//! rescale into a conservation-feasible starting point. Frank–Wolfe
//! additionally accepts a **link-removal** instance — the new edge list an
//! order-preserving strict subsequence of the saved one with bit-identical
//! endpoints, capacities and `q_e` (what [`Network::without_links`]
//! produces) — by projecting the saved flows onto the surviving edges and
//! re-routing each removed edge's flow along a surviving shortest path, so
//! failure chains restart from the intact optimum instead of cold-solving
//! every degraded topology. Any mismatch falls back to the cold initial
//! point automatically; warm-starting is never a correctness hazard, only
//! a trajectory change.
//!
//! ## Determinism contract
//!
//! * `solve()` is bit-identical to the pre-session free functions.
//! * `solve_in` on a workspace with **no saved solution** (fresh, or
//!   after [`TeWorkspace::clear_solutions`]) is bit-identical to
//!   `solve()`: arena reuse and the SPF skip in
//!   [`RoutingEngine`](crate::RoutingEngine) never change results.
//! * With [`ConvergenceCriteria::pinned`] set, `solve_in` ignores any
//!   saved solution and runs exactly `max_iterations` iterations from
//!   the cold start — the bit-exactness gate used by the equivalence
//!   proptests and the regression-gated sweeps.

use spef_graph::{dijkstra, Graph, NodeId, ShortestPathDag};
use spef_lp::simplex::SimplexWorkspace;
use spef_topology::{Network, TrafficMatrix};

use crate::engine::EngineState;
use crate::traffic_dist::{DistScratch, Flows, SplitTableSet};
use crate::{Objective, SpefError};

/// Relative tolerance of the per-destination demand proportionality check
/// that gates the Frank–Wolfe warm start.
const PROPORTIONALITY_RTOL: f64 = 1e-9;

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
    /// Pinned-iteration mode: run exactly `max_iterations` iterations —
    /// no early termination on the tolerance — and ignore any saved
    /// solution in the workspace (always the cold trajectory). This makes
    /// results a pure function of the instance, independent of workspace
    /// history: the bit-exactness gate.
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

    /// Exactly `iterations` iterations, cold trajectory, no early exit.
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

    /// Solves `instance` in the caller's workspace: arenas are reused and
    /// a fingerprint-compatible saved solution warm-starts the run (see
    /// the [module docs](self) for the exact rules).
    ///
    /// # Errors
    ///
    /// The same conditions as the solver's documented cold path.
    fn solve_in(
        &self,
        instance: Self::Instance<'_>,
        workspace: &mut TeWorkspace,
    ) -> Result<Self::Output, SpefError>;

    /// Cold solve on a fresh workspace; bit-identical to the pre-session
    /// free functions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TeSolver::solve_in`].
    fn solve(&self, instance: Self::Instance<'_>) -> Result<Self::Output, SpefError> {
        self.solve_in(instance, &mut TeWorkspace::new())
    }
}

/// Structural + data fingerprint shared by the per-solver saved states:
/// the topology (node count, edge list) and destination set a solution
/// was computed for.
#[derive(Debug, Default)]
pub(crate) struct TopoFingerprint {
    nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
    dests: Vec<NodeId>,
}

impl TopoFingerprint {
    fn matches(&self, graph: &Graph, dests: &[NodeId]) -> bool {
        self.nodes == graph.node_count()
            && self.edges.len() == graph.edge_count()
            && self.dests.as_slice() == dests
            && graph
                .edges()
                .zip(&self.edges)
                .all(|((_, u, v), &(su, sv))| u == su && v == sv)
    }

    fn arena_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<(NodeId, NodeId)>()
            + self.dests.capacity() * std::mem::size_of::<NodeId>()
    }

    fn record(&mut self, graph: &Graph, dests: &[NodeId]) {
        self.nodes = graph.node_count();
        self.edges.clear();
        self.edges.extend(graph.edges().map(|(_, u, v)| (u, v)));
        self.dests.clear();
        self.dests.extend_from_slice(dests);
    }
}

/// Bytes of capacity of an `f64` buffer.
fn f64_bytes(v: &Vec<f64>) -> usize {
    v.capacity() * std::mem::size_of::<f64>()
}

/// Bitwise equality of two f64 slices.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// How a Frank–Wolfe run was seeded (see [`FwSession::warm_start`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FwStart {
    /// Cold init: even-ECMP on InvCap weights.
    Cold,
    /// Same topology, per-destination proportional demands: the saved
    /// flows rescaled in place (load sweeps).
    Rescaled,
    /// Edge-subset topology (link removal): the saved flows projected
    /// onto the surviving edges with conservation repair (failure
    /// chains).
    RemovalProjected,
}

/// Frank–Wolfe session state: working buffers that double as the saved
/// solution (after a successful solve, `flows`/`spare` hold the optimum
/// and `saved` describes the instance they solve).
#[derive(Debug, Default)]
pub(crate) struct FwSession {
    pub(crate) flows: Flows,
    pub(crate) target: Flows,
    pub(crate) spare: Vec<f64>,
    pub(crate) kappa: Vec<f64>,
    pub(crate) delta: Vec<f64>,
    pub(crate) init_weights: Vec<f64>,
    demand_buf: Vec<f64>,
    ratio: Vec<f64>,
    saved: Option<FwFingerprint>,
    /// An invalidated fingerprint kept only for its buffer capacity, so
    /// warm re-solves record their solution without reallocating.
    stale: Option<FwFingerprint>,
    /// The last *full-topology* solution of the session: its own flows
    /// snapshot plus the instance it solves. Removal warm starts fall
    /// back to projecting from here, so a failure chain (intact → circuit
    /// 1 down, intact → circuit 2 down, …) warm-starts every degraded
    /// solve from the one intact optimum instead of cold-solving each.
    /// Only non-removal solves refresh it; survives solve errors (the
    /// snapshot is untouched by a failed run's half-blended buffers).
    base: Option<FwFingerprint>,
    base_flows: Flows,
}

#[derive(Debug, Default)]
struct FwFingerprint {
    topo: TopoFingerprint,
    capacities: Vec<f64>,
    q: Vec<f64>,
    beta: f64,
    smoothing: f64,
    /// Demand columns (one per destination) the saved flows route.
    demands: Vec<Vec<f64>>,
}

impl FwFingerprint {
    /// Bytes of capacity, the demand columns included.
    fn arena_bytes(&self) -> usize {
        self.topo.arena_bytes()
            + f64_bytes(&self.capacities)
            + f64_bytes(&self.q)
            + self.demands.capacity() * std::mem::size_of::<Vec<f64>>()
            + self.demands.iter().map(f64_bytes).sum::<usize>()
    }

    /// Overwrites `self` with the given instance, reusing buffers.
    fn record_instance(
        &mut self,
        network: &Network,
        traffic: &TrafficMatrix,
        objective: &Objective,
        smoothing_fraction: f64,
        dests: &[NodeId],
    ) {
        self.topo.record(network.graph(), dests);
        self.capacities.clear();
        self.capacities.extend_from_slice(network.capacities());
        self.q.clear();
        self.q
            .extend((0..objective.link_count()).map(|e| objective.q(e.into())));
        self.beta = objective.beta();
        self.smoothing = smoothing_fraction;
        if self.demands.len() != dests.len() {
            self.demands.resize_with(dests.len(), Vec::new);
        }
        for (col, &t) in self.demands.iter_mut().zip(dests) {
            traffic.demands_to_into(t, col);
        }
    }
}

/// Per-destination proportionality gate shared by both warm starts:
/// `d'^t = r_t · d^t` within [`PROPORTIONALITY_RTOL`] for every saved
/// column, with the ratios written to `ratio`. Returns `false` on any
/// mismatch (wrong shape, zero/negative/non-finite ratio, non-proportional
/// column).
fn proportional_ratios(
    saved_demands: &[Vec<f64>],
    traffic: &TrafficMatrix,
    dests: &[NodeId],
    demand_buf: &mut Vec<f64>,
    ratio: &mut Vec<f64>,
) -> bool {
    ratio.clear();
    if saved_demands.len() != dests.len() {
        return false;
    }
    for (i, &t) in dests.iter().enumerate() {
        traffic.demands_to_into(t, demand_buf);
        let old = &saved_demands[i];
        if old.len() != demand_buf.len() {
            return false;
        }
        let (peak_idx, peak) = old
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .map(|(i, &v)| (i, v))
            .unwrap_or((0, 0.0));
        if peak <= 0.0 {
            return false;
        }
        let r = demand_buf[peak_idx] / peak;
        if !r.is_finite() || r < 0.0 {
            return false;
        }
        let tol = PROPORTIONALITY_RTOL * peak * r.max(1.0);
        if demand_buf
            .iter()
            .zip(old)
            .any(|(new, old)| (new - r * old).abs() > tol)
        {
            return false;
        }
        ratio.push(r);
    }
    true
}

/// Greedy InvCap shortest-path descent from `u` toward `v`: repeatedly
/// steps along the out-edge minimising `w_e + dist(target)` (id-tiebroken)
/// and pushes the edge indices onto `path`. Positive weights make `dist`
/// strictly decrease per hop, so this terminates in under `n` hops (bound
/// checked anyway). Returns `false` when `u` cannot reach `v` under
/// `dist`; `path` is cleared first either way.
fn descent_path(
    g: &Graph,
    invcap: &[f64],
    dist: &[f64],
    u: NodeId,
    v: NodeId,
    path: &mut Vec<usize>,
) -> bool {
    path.clear();
    if !dist[u.index()].is_finite() {
        return false;
    }
    let mut x = u;
    let mut hops = 0usize;
    while x != v {
        hops += 1;
        if hops > g.node_count() {
            return false;
        }
        let Some(e) = g.out_edges(x).iter().copied().min_by(|&a, &b| {
            (invcap[a.index()] + dist[g.target(a).index()])
                .total_cmp(&(invcap[b.index()] + dist[g.target(b).index()]))
                .then_with(|| a.index().cmp(&b.index()))
        }) else {
            return false;
        };
        path.push(e.index());
        x = g.target(e);
    }
    true
}

impl FwSession {
    /// Bytes of capacity: the iterate, target and base flow buffers, the
    /// saved, parked and base fingerprints, and the per-link buffers.
    fn arena_bytes(&self) -> usize {
        self.flows.arena_bytes()
            + self.target.arena_bytes()
            + self.base_flows.arena_bytes()
            + [&self.saved, &self.stale, &self.base]
                .into_iter()
                .flatten()
                .map(FwFingerprint::arena_bytes)
                .sum::<usize>()
            + [
                &self.spare,
                &self.kappa,
                &self.delta,
                &self.init_weights,
                &self.demand_buf,
                &self.ratio,
            ]
            .into_iter()
            .map(f64_bytes)
            .sum::<usize>()
    }

    /// Checks whether the saved solution can warm-start `(network,
    /// traffic, objective)` and, if so, rescales `self.flows` in place
    /// into a starting point for the new demands. Returns `false` (and
    /// leaves the buffers free for a cold init) on any mismatch.
    pub(crate) fn try_warm_start(
        &mut self,
        network: &Network,
        traffic: &TrafficMatrix,
        objective: &Objective,
        smoothing_fraction: f64,
        dests: &[NodeId],
    ) -> bool {
        let Some(saved) = &self.saved else {
            return false;
        };
        if !saved.topo.matches(network.graph(), dests)
            || !bits_eq(&saved.capacities, network.capacities())
            || saved.beta.to_bits() != objective.beta().to_bits()
            || saved.smoothing.to_bits() != smoothing_fraction.to_bits()
            || saved.q.len() != objective.link_count()
            || !(0..objective.link_count())
                .all(|e| saved.q[e].to_bits() == objective.q(e.into()).to_bits())
        {
            return false;
        }
        // Per-destination proportionality: d'^t = r_t · d^t within a tiny
        // relative tolerance, so r_t · f^t stays conservation-feasible.
        if !proportional_ratios(
            &saved.demands,
            traffic,
            dests,
            &mut self.demand_buf,
            &mut self.ratio,
        ) {
            return false;
        }
        self.flows.scale_per_destination(&self.ratio);
        // The rescaled buffer is a starting point, not a solution: until
        // the next successful solve records a fresh fingerprint, nothing
        // claims it solves anything. The stale fingerprint is parked for
        // its buffer capacity.
        self.stale = self.saved.take();
        true
    }

    /// The combined warm-start entry: tries, in order, (a) the in-place
    /// proportional rescale on an identical topology, (b) a link-removal
    /// projection from the most recent solution (covers cascading
    /// failures: degraded → further degraded), (c) a link-removal
    /// projection from the session's base (intact) solution — the failure
    /// chain case, where every single-circuit solve restarts from the one
    /// intact optimum. Falls back to [`FwStart::Cold`] when nothing
    /// matches; never a correctness hazard, only a trajectory change.
    pub(crate) fn warm_start(
        &mut self,
        network: &Network,
        traffic: &TrafficMatrix,
        objective: &Objective,
        smoothing_fraction: f64,
        dests: &[NodeId],
    ) -> FwStart {
        if self.try_warm_start(network, traffic, objective, smoothing_fraction, dests) {
            return FwStart::Rescaled;
        }
        if let Some(saved) = &self.saved {
            if let Some(projected) = removal_projection(
                saved,
                &self.flows,
                network,
                traffic,
                objective,
                smoothing_fraction,
                dests,
                &mut self.demand_buf,
                &mut self.ratio,
            ) {
                self.flows = projected;
                self.stale = self.saved.take();
                return FwStart::RemovalProjected;
            }
        }
        if let Some(base) = &self.base {
            if let Some(projected) = removal_projection(
                base,
                &self.base_flows,
                network,
                traffic,
                objective,
                smoothing_fraction,
                dests,
                &mut self.demand_buf,
                &mut self.ratio,
            ) {
                self.flows = projected;
                if let Some(s) = self.saved.take() {
                    self.stale = Some(s);
                }
                return FwStart::RemovalProjected;
            }
        }
        FwStart::Cold
    }

    /// Records the instance the current `flows` buffer solves. Unless the
    /// run was seeded by a removal projection (`degraded`), the solution
    /// is also snapshotted as the session's base for future failure-chain
    /// restarts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_solution(
        &mut self,
        network: &Network,
        traffic: &TrafficMatrix,
        objective: &Objective,
        smoothing_fraction: f64,
        dests: &[NodeId],
        degraded: bool,
    ) {
        let mut saved = self
            .saved
            .take()
            .or_else(|| self.stale.take())
            .unwrap_or_default();
        saved.record_instance(network, traffic, objective, smoothing_fraction, dests);
        self.saved = Some(saved);
        if !degraded {
            let mut base = self.base.take().unwrap_or_default();
            base.record_instance(network, traffic, objective, smoothing_fraction, dests);
            self.base_flows.copy_from(&self.flows);
            self.base = Some(base);
        }
    }

    /// Forgets the saved solution (arenas are kept). The base snapshot
    /// survives: it lives in its own buffers, so a failed solve's
    /// half-blended iterate never corrupts it.
    pub(crate) fn forget(&mut self) {
        self.saved = None;
    }

    /// Forgets the saved solution *and* the base snapshot — the full
    /// history reset behind [`TeWorkspace::clear_solutions`], after which
    /// no warm start of any kind can fire.
    pub(crate) fn forget_all(&mut self) {
        self.saved = None;
        self.base = None;
    }
}

/// Builds a conservation-feasible Frank–Wolfe starting point on an
/// edge-subset topology from a saved solution of the full topology.
///
/// Match rule: the new edge list must be an order-preserving subsequence
/// of the saved one — same endpoints, bitwise-identical capacity and
/// `q_e` — with strictly fewer edges, same node count, destination set,
/// β and smoothing (exactly what [`Network::without_links`] produces),
/// and the new demands per-destination proportional to the saved ones.
///
/// Projection: kept edges inherit `r_t · f^t_e`; each removed edge's flow
/// is re-routed along a surviving shortest path between its endpoints
/// (InvCap weights — cheap, deterministic, biased toward spare capacity),
/// which restores per-destination conservation exactly: dropping edge
/// `(u,v)` removes `x` from `u`'s outflow and `v`'s inflow, and the path
/// puts exactly `x` back. Capacity overshoot on the repair path is fine —
/// Frank–Wolfe's smoothed barrier keeps over-capacity iterates
/// well-defined and the line search pulls them back.
///
/// Returns `None` on any mismatch (caller falls back to the next source
/// or the cold init); `self`-free so disjoint session fields can be
/// borrowed around it.
#[allow(clippy::too_many_arguments)]
fn removal_projection(
    source: &FwFingerprint,
    source_flows: &Flows,
    network: &Network,
    traffic: &TrafficMatrix,
    objective: &Objective,
    smoothing_fraction: f64,
    dests: &[NodeId],
    demand_buf: &mut Vec<f64>,
    ratio: &mut Vec<f64>,
) -> Option<Flows> {
    let g = network.graph();
    let m_new = g.edge_count();
    let m_old = source.topo.edges.len();
    if m_new >= m_old
        || source.topo.nodes != g.node_count()
        || source.topo.dests.as_slice() != dests
        || source.beta.to_bits() != objective.beta().to_bits()
        || source.smoothing.to_bits() != smoothing_fraction.to_bits()
        || source_flows.destinations() != dests
    {
        return None;
    }
    // Greedy order-preserving subsequence match of the new edge list
    // against the saved one (`without_links` keeps relative edge order,
    // so greedy matching is exact for genuine removals).
    let mut kept: Vec<usize> = Vec::with_capacity(m_new);
    let mut oi = 0usize;
    for (e, u, v) in g.edges() {
        let cap = network.capacity(e).to_bits();
        let q = objective.q(e).to_bits();
        loop {
            if oi == m_old {
                return None;
            }
            let cursor = oi;
            oi += 1;
            if source.topo.edges[cursor] == (u, v)
                && source.capacities[cursor].to_bits() == cap
                && source.q[cursor].to_bits() == q
            {
                kept.push(cursor);
                break;
            }
        }
    }
    if !proportional_ratios(&source.demands, traffic, dests, demand_buf, ratio) {
        return None;
    }
    // Project the kept edges' flows, scaled per destination.
    let mut per_dest: Vec<Vec<f64>> = Vec::with_capacity(dests.len());
    for (i, r) in ratio.iter().enumerate() {
        let old = source_flows.column(i);
        if old.len() != m_old {
            return None;
        }
        per_dest.push(kept.iter().map(|&o| r * old[o]).collect());
    }
    // Conservation repair for the removed edges.
    let removed = {
        let mut removed = Vec::with_capacity(m_old - m_new);
        let mut k = 0usize;
        for o in 0..m_old {
            if k < kept.len() && kept[k] == o {
                k += 1;
            } else {
                removed.push(o);
            }
        }
        removed
    };
    let invcap: Vec<f64> = network.capacities().iter().map(|c| 1.0 / c).collect();
    let mut path: Vec<usize> = Vec::new();
    for &o in &removed {
        if !(0..dests.len()).any(|i| ratio[i] * source_flows.column(i)[o] > 0.0) {
            continue;
        }
        let (u, v) = source.topo.edges[o];
        let dist = dijkstra::distances_to(g, &invcap, v).ok()?;
        if !descent_path(g, &invcap, &dist, u, v, &mut path) {
            return None;
        }
        for (i, f) in per_dest.iter_mut().enumerate() {
            let flow = ratio[i] * source_flows.column(i)[o];
            if flow > 0.0 {
                for &pe in &path {
                    f[pe] += flow;
                }
            }
        }
    }
    let mut aggregate = vec![0.0; m_new];
    for f in &per_dest {
        for (a, x) in aggregate.iter_mut().zip(f) {
            *a += *x;
        }
    }
    Some(Flows::new_unchecked(dests.to_vec(), per_dest, aggregate))
}

/// NEM session state: the dual iterate `v` doubles as the saved solution.
/// The step reads only the aggregate flow, so the session holds no
/// per-destination columns: each destination is routed through one
/// split-table scratch and one flow column and folded into `flows`'
/// aggregate.
#[derive(Debug, Default)]
pub(crate) struct NemSession {
    pub(crate) v: Vec<f64>,
    /// Aggregate-only flows of the last distribution.
    pub(crate) flows: Flows,
    /// One destination's split table at a time: NEM routes each
    /// destination through it.
    pub(crate) table: SplitTableSet,
    pub(crate) scratch: DistScratch,
    /// The flow column each destination is routed into before it is
    /// folded into the aggregate.
    pub(crate) column: Vec<f64>,
    saved: Option<TopoFingerprint>,
}

impl NemSession {
    /// Bytes of capacity: the flows, the one-destination table and
    /// scratch, the iterate and the saved fingerprint.
    fn arena_bytes(&self) -> usize {
        self.flows.arena_bytes()
            + self.table.arena_bytes()
            + self.scratch.arena_bytes()
            + f64_bytes(&self.v)
            + f64_bytes(&self.column)
            + self.saved.as_ref().map_or(0, TopoFingerprint::arena_bytes)
    }

    /// True when the saved `v` may seed the new run (same graph and
    /// destination set; any `v ≥ 0` is a valid projected-gradient start,
    /// so no further checks are needed).
    pub(crate) fn try_warm_start(&mut self, graph: &Graph, dests: &[NodeId]) -> bool {
        let warm = self
            .saved
            .as_ref()
            .is_some_and(|s| s.matches(graph, dests) && self.v.len() == graph.edge_count());
        self.saved = None;
        warm
    }

    /// Records the instance the current `v` solves.
    pub(crate) fn record_solution(&mut self, graph: &Graph, dests: &[NodeId]) {
        let mut saved = self.saved.take().unwrap_or_default();
        saved.record(graph, dests);
        self.saved = Some(saved);
    }

    pub(crate) fn forget(&mut self) {
        self.saved = None;
    }
}

/// Dual-decomposition session state: the multiplier vector `weights`
/// doubles as the saved solution.
#[derive(Debug, Default)]
pub(crate) struct DdSession {
    pub(crate) weights: Vec<f64>,
    pub(crate) spare: Vec<f64>,
    pub(crate) average_flows: Vec<f64>,
    pub(crate) floored: Vec<f64>,
    pub(crate) flows: Flows,
    pub(crate) demand_buf: Vec<f64>,
    saved: Option<TopoFingerprint>,
}

impl DdSession {
    /// Bytes of capacity: the flows, the per-link buffers and the saved
    /// fingerprint.
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
            + self.saved.as_ref().map_or(0, TopoFingerprint::arena_bytes)
    }

    /// True when the saved multipliers may seed the new run (same graph
    /// and destination set; any `w ≥ 0` is a valid dual start).
    pub(crate) fn try_warm_start(&mut self, graph: &Graph, dests: &[NodeId]) -> bool {
        let warm = self
            .saved
            .as_ref()
            .is_some_and(|s| s.matches(graph, dests) && self.weights.len() == graph.edge_count());
        self.saved = None;
        warm
    }

    /// Records the instance the current `weights` solve.
    pub(crate) fn record_solution(&mut self, graph: &Graph, dests: &[NodeId]) {
        let mut saved = self.saved.take().unwrap_or_default();
        saved.record(graph, dests);
        self.saved = Some(saved);
    }

    pub(crate) fn forget(&mut self) {
        self.saved = None;
    }
}

/// A reusable solver workspace: every arena and saved iterate the solvers
/// in this crate can carry from one solve to the next.
///
/// One workspace serves all four solvers — the SPEF pipeline threads the
/// same workspace through its TE, DAG and NEM stages, so a chained sweep
/// (same topology, neighbouring loads) reuses the CSR adjacency, DAG
/// arenas, flow/split/demand buffers, the simplex tableau (β = 0), and —
/// unless cleared or pinned — the previous grid point's solution as a
/// warm start. See the [module docs](self) for the fingerprint rules.
#[derive(Debug, Default)]
pub struct TeWorkspace {
    engine: Option<EngineState>,
    /// Second engine slot. A failure chain alternates between the intact
    /// topology (the warm-start base solve) and a degraded one (the
    /// re-optimisation); with a single slot each alternation re-attached
    /// the state to a different graph, rebuilding the CSR and losing the
    /// SPF skip fingerprint both ways. Two slots keep one engine per
    /// topology: [`TeWorkspace::take_engine`] hands out whichever slot
    /// matches the requested graph, so both sides of the alternation stay
    /// warm.
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
    /// arenas never shrink. It counts the engines' routing arenas (DAG
    /// sets, split tables, Dijkstra scratch) and everything else they hold
    /// (CSR, demand cache, fingerprints), every solver's flow buffers
    /// (NEM's holds the aggregate only), the saved solutions' fingerprints
    /// and demand columns, and the per-link buffers; only the β = 0
    /// simplex tableau is left out. The scaling ablation prints this as
    /// its peak-memory column.
    pub fn arena_bytes(&self) -> usize {
        let engine_bytes = |e: &EngineState| e.arena_bytes() + e.cache_bytes();
        self.engine.as_ref().map_or(0, engine_bytes)
            + self.engine_alt.as_ref().map_or(0, engine_bytes)
            + self.fw.arena_bytes()
            + self.nem.arena_bytes()
            + self.dd.arena_bytes()
    }

    /// Drops every saved solution while keeping all arenas, so subsequent
    /// `solve_in` calls run the cold trajectory (bit-identical to
    /// [`TeSolver::solve`]) at warm-buffer speed. The result-preserving
    /// mode used by the regression-gated sweep harness.
    pub fn clear_solutions(&mut self) {
        self.fw.forget_all();
        self.nem.forget();
        self.dd.forget();
    }

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
            let s = engine.spf_stats();
            total.builds += s.builds;
            total.incremental_builds += s.incremental_builds;
            total.slots_rebuilt += s.slots_rebuilt;
            total.last_dirty = total.last_dirty.max(s.last_dirty);
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
