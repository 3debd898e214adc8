//! The batched routing engine — the per-iteration hot path of every
//! solver, packaged as one reusable object.
//!
//! A solver loop (Frank–Wolfe, Algorithm 1, NEM, the Fortz–Thorup local
//! search) repeats the cycle *build per-destination DAGs → distribute
//! traffic* hundreds to tens of thousands of times with only the weights
//! changing. [`RoutingEngine`] amortises everything else:
//!
//! * the in-edge [`Csr`] adjacency is built **once** per engine;
//! * weight validation runs once per batch, not once per destination;
//! * DAGs ([`DagSet`]), demand columns and flow vectors live in flat
//!   arenas that are reused across calls — after the first iteration the
//!   cycle performs **zero allocations** on the sequential path (with
//!   parallel fan-out engaged, only the `O(dests)`-pointer task lists are
//!   allocated per call, never the arena data);
//! * split tables ([`SplitTableSet`]) stream one destination at a time
//!   through a one-destination scratch, and the Dijkstra scratch is one
//!   per worker thread, so only the DAG set (4-byte ids), the demand
//!   cache and the flow columns grow with the destination count;
//! * DAG construction fans destinations out across worker threads when
//!   the batch is large enough, with bit-identical results regardless of
//!   schedule (each destination writes only its own arena slices).
//!
//! The engine is a drop-in for the legacy
//! [`build_dags`](crate::build_dags) +
//! [`traffic_distribution`](crate::traffic_distribution) pair and produces
//! bit-identical flows; the property tests in
//! `tests/engine_equivalence.rs` pin that guarantee.
//!
//! Two refinements support solver sessions ([`crate::TeWorkspace`]):
//!
//! * [`RoutingEngine::build_dags`] **skips the SPF batch entirely** when
//!   the weight vector, destination set and tolerance are bit-identical
//!   to the previous call on the same engine — solvers that converge to
//!   a fixed weight vector (and pipelines that rebuild DAGs under the
//!   same weights across stages) pay nothing for the repeat call. The
//!   skip is result-transparent: identical inputs always produce
//!   identical DAGs.
//! * the engine's arenas detach into an [`EngineState`] via
//!   [`RoutingEngine::into_state`] and re-attach (to the same or another
//!   graph) via [`RoutingEngine::with_state`], so a long-lived workspace
//!   can outlive any single borrowed graph. Attaching to a different
//!   topology (checked structurally, edge list against edge list)
//!   rebuilds the CSR and invalidates the DAG fingerprint.
//!
//! A link failure is a different topology: callers route it on the
//! degraded clone [`Network::without_links`] returns, on an engine of its
//! own or on a state re-attached to the clone. A persistent per-failure
//! engine sees its next weight change as a weight delta, which the
//! incremental path of [`RoutingEngine::build_dags`] absorbs.
//!
//! [`Network::without_links`]: spef_topology::Network::without_links
//!
//! ```
//! use spef_core::{RoutingEngine, SplitRule};
//! use spef_topology::{standard, TrafficMatrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = standard::fig1();
//! let tm = standard::fig1_demands();
//! let dests = tm.destinations();
//! let weights = vec![1.0; net.link_count()];
//!
//! let mut engine = RoutingEngine::new(net.graph());
//! let mut flows = engine.distribute_fresh();
//! for _ in 0..3 {
//!     // Steady state: no allocations inside this loop.
//!     engine.build_dags(&weights, &dests, 0.0)?;
//!     engine.distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)?;
//! }
//! assert_eq!(flows.aggregate().len(), net.link_count());
//! # Ok(())
//! # }
//! ```

use spef_graph::batch::{
    build_dag_set, rebuild_dag_set_slots, validate_dag_inputs, DagSet, Parallelism,
    RoutingWorkspace,
};
use spef_graph::{Csr, Graph, GraphError, NodeId};
use spef_topology::TrafficMatrix;

use crate::fib::ForwardingTable;
use crate::traffic_dist::{
    distribute_batch, distribute_one_into, next_flow_stamp, validate_rule, DistScratch, Flows,
    SplitRule, SplitTableSet,
};
use crate::SpefError;

/// Incremental rebuilds give up (dense fallback) when more than this many
/// quarters of the edge weights changed — at that point the dirty scan
/// costs as much as it could save.
const INCR_MAX_CHANGED_QUARTERS: usize = 1;

/// Incremental rebuilds give up (dense fallback) when more than half the
/// destinations are dirty: a dense batch amortises better than per-slot
/// bookkeeping once most slots rebuild anyway.
const INCR_MAX_DIRTY_HALVES: usize = 1;

/// The split rule a distribution ran under, reduced to a cheap tag (the
/// exponential rule's weight vector is cached separately, bit for bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum RuleKind {
    #[default]
    None,
    Even,
    Exponential,
}

/// SPF build counters of one engine state — the observability surface of
/// the incremental rebuild path (benches report dirty-destination counts
/// per probe from these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpfStats {
    /// SPF batch builds executed (dense + incremental; calls skipped by
    /// the bit-identical-weights fingerprint are not counted).
    pub builds: u64,
    /// Builds served by the incremental dirty-destination path.
    pub incremental_builds: u64,
    /// Total destination slots re-run across all incremental builds
    /// (`slots_rebuilt / incremental_builds` = mean dirty set per probe).
    pub slots_rebuilt: u64,
    /// Dirty-slot count of the most recent incremental build.
    pub last_dirty: u64,
    /// Always 0. Failure scenarios route on their own degraded topology
    /// clone, so no build ever patches a topology change in place; the
    /// field stays only because the benchmark's per-layer report reads
    /// it.
    pub topology_builds: u64,
}

impl SpfStats {
    /// Adds another engine's counters into this running total.
    /// `last_dirty`, a gauge, takes the maximum, as "most recent" is
    /// meaningless across engines.
    pub fn add(&mut self, other: SpfStats) {
        self.builds += other.builds;
        self.incremental_builds += other.incremental_builds;
        self.slots_rebuilt += other.slots_rebuilt;
        self.last_dirty = self.last_dirty.max(other.last_dirty);
        self.topology_builds += other.topology_builds;
    }
}

/// The detached, owned arenas of a [`RoutingEngine`]: everything the
/// engine holds except the graph borrow itself. A long-lived workspace
/// (e.g. [`crate::TeWorkspace`]) keeps an `EngineState` and re-attaches
/// it to whichever graph the next solve targets; when the topology is
/// structurally unchanged, the CSR adjacency, DAG arenas and the
/// bit-identical-weights fingerprint all survive the round trip.
#[derive(Debug, Default)]
pub struct EngineState {
    in_csr: Option<Csr>,
    topo_nodes: usize,
    topo_edges: Vec<(NodeId, NodeId)>,
    ws: RoutingWorkspace,
    dags: DagSet,
    /// One table per destination, filled only by
    /// [`RoutingEngine::build_split_tables`].
    tables: SplitTableSet,
    /// One destination's split table: every distribution and FIB build
    /// streams its destinations through it.
    table: SplitTableSet,
    scratch: DistScratch,
    last_weights: Vec<f64>,
    last_dests: Vec<NodeId>,
    last_tolerance: f64,
    dags_valid: bool,
    spf_builds: u64,
    /// `true` forces dense rebuilds everywhere (the delta-aware
    /// incremental paths off). Default `false`: incremental on.
    full_rebuild_only: bool,
    /// Changed-edge scratch of the weight diff: `(tail, head, old, new)`.
    delta_scratch: Vec<(NodeId, NodeId, f64, f64)>,
    /// Per-slot dirty flags of the incremental build in progress.
    dirty: Vec<bool>,
    /// Slots whose DAG changed since the last successful distribution
    /// (what the incremental distribution must refresh).
    pending: Vec<bool>,
    /// `true` when the pending set is meaningless (dense build, shape
    /// change, or no distribution yet): the next distribution runs dense.
    pending_all: bool,
    /// The rule of the last successful distribution.
    last_rule_kind: RuleKind,
    /// Bitwise copy of the exponential rule's weight vector (empty for
    /// even ECMP).
    last_rule_v: Vec<f64>,
    /// Cached demand columns (`dests × nodes`) backing the bitwise
    /// demand-change check of the incremental distribution.
    demand_cache: Vec<f64>,
    demand_cache_valid: bool,
    /// Stamp of the `Flows` buffer the last successful distribution wrote
    /// (its columns *are* the incremental flow cache).
    out_stamp: u64,
    incremental_builds: u64,
    slots_rebuilt: u64,
    last_dirty: u64,
}

impl EngineState {
    /// A fresh, empty state; the first attach builds the CSR.
    pub fn new() -> EngineState {
        EngineState::default()
    }

    /// True when `graph` is structurally identical to the topology this
    /// state last routed over (same node count, same edge list in the
    /// same order). Capacities and weights are *not* part of structure:
    /// they never affect the CSR, and weight changes are caught by the
    /// per-call fingerprint instead.
    pub(crate) fn matches_topology(&self, graph: &Graph) -> bool {
        self.in_csr.is_some()
            && self.topo_nodes == graph.node_count()
            && self.topo_edges.len() == graph.edge_count()
            && graph
                .edges()
                .zip(&self.topo_edges)
                .all(|((_, u, v), &(su, sv))| u == su && v == sv)
    }

    /// The SPF build counters, including the incremental-path breakdown.
    pub fn spf_stats(&self) -> SpfStats {
        SpfStats {
            builds: self.spf_builds,
            incremental_builds: self.incremental_builds,
            slots_rebuilt: self.slots_rebuilt,
            last_dirty: self.last_dirty,
            topology_builds: 0,
        }
    }

    /// Enables/disables the delta-aware incremental rebuild and
    /// redistribution paths (enabled by default). Disabling forces every
    /// non-skipped build/distribution to run dense — results are
    /// bit-identical either way; only wall clock changes.
    pub fn set_incremental(&mut self, enabled: bool) {
        self.full_rebuild_only = !enabled;
    }

    /// Whether the incremental paths are enabled.
    pub fn incremental(&self) -> bool {
        !self.full_rebuild_only
    }

    /// Drops the DAG fingerprint so the next
    /// [`RoutingEngine::build_dags`] call recomputes unconditionally.
    /// Arenas are kept.
    pub fn invalidate(&mut self) {
        self.dags_valid = false;
        self.drop_distribution_caches();
    }

    /// Invalidates everything the incremental distribution path relies
    /// on; the next distribution runs the dense kernel.
    fn drop_distribution_caches(&mut self) {
        self.demand_cache_valid = false;
        self.pending_all = true;
        self.out_stamp = 0;
        self.last_rule_kind = RuleKind::None;
    }

    /// Bytes currently reserved by the engine's routing arenas (DAG set,
    /// split tables, Dijkstra workspace), by capacity — a high-water mark,
    /// since the arenas only ever grow across reuse.
    /// [`crate::TeWorkspace::arena_bytes`] also counts the rest of the
    /// state: the CSR, the fingerprints and the demand cache.
    pub fn arena_bytes(&self) -> usize {
        self.ws.arena_bytes()
            + self.dags.arena_bytes()
            + self.tables.arena_bytes()
            + self.table.arena_bytes()
    }

    /// Bytes the state holds beside its routing arenas, by capacity: the
    /// CSR adjacency, the topology, weight and rule fingerprints, the
    /// incremental paths' demand cache and flags, and the distribution
    /// scratch.
    pub(crate) fn cache_bytes(&self) -> usize {
        use std::mem::size_of;
        self.in_csr.as_ref().map_or(0, Csr::arena_bytes)
            + self.topo_edges.capacity() * size_of::<(NodeId, NodeId)>()
            + self.last_weights.capacity() * size_of::<f64>()
            + self.last_dests.capacity() * size_of::<NodeId>()
            + self.delta_scratch.capacity() * size_of::<(NodeId, NodeId, f64, f64)>()
            + self.dirty.capacity()
            + self.pending.capacity()
            + self.last_rule_v.capacity() * size_of::<f64>()
            + self.demand_cache.capacity() * size_of::<f64>()
            + self.scratch.arena_bytes()
    }
}

/// A reusable batched router over one graph. See the [module
/// docs](self) for what it amortises.
#[derive(Debug)]
pub struct RoutingEngine<'g> {
    graph: &'g Graph,
    par: Parallelism,
    state: EngineState,
}

impl<'g> RoutingEngine<'g> {
    /// Creates an engine for `graph`, freezing its CSR adjacency.
    /// Destination fan-out is parallelised automatically for large
    /// batches.
    pub fn new(graph: &'g Graph) -> RoutingEngine<'g> {
        Self::with_parallelism(graph, Parallelism::Auto)
    }

    /// Like [`RoutingEngine::new`] with an explicit parallelism policy
    /// (used by the schedule-independence tests; results are identical
    /// either way).
    pub fn with_parallelism(graph: &'g Graph, par: Parallelism) -> RoutingEngine<'g> {
        Self::with_state_and_parallelism(graph, EngineState::new(), par)
    }

    /// Attaches a detached [`EngineState`] to `graph`. If the state last
    /// routed over a structurally identical topology, its CSR, arenas
    /// and DAG fingerprint are reused as-is; otherwise the CSR is
    /// rebuilt and the fingerprint invalidated (automatic cold
    /// fallback — never a correctness hazard, only a wall-clock one).
    pub fn with_state(graph: &'g Graph, state: EngineState) -> RoutingEngine<'g> {
        Self::with_state_and_parallelism(graph, state, Parallelism::Auto)
    }

    fn with_state_and_parallelism(
        graph: &'g Graph,
        mut state: EngineState,
        par: Parallelism,
    ) -> RoutingEngine<'g> {
        if !state.matches_topology(graph) {
            state.in_csr = Some(Csr::in_of(graph));
            state.topo_nodes = graph.node_count();
            state.topo_edges.clear();
            state
                .topo_edges
                .extend(graph.edges().map(|(_, u, v)| (u, v)));
            state.dags_valid = false;
            state.drop_distribution_caches();
        }
        RoutingEngine { graph, par, state }
    }

    /// Detaches the engine's arenas for reuse against a later graph
    /// borrow. The inverse of [`RoutingEngine::with_state`].
    pub fn into_state(self) -> EngineState {
        self.state
    }

    /// The graph the engine routes over.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The SPF build counters, including the incremental-path breakdown.
    pub fn spf_stats(&self) -> SpfStats {
        self.state.spf_stats()
    }

    /// See [`EngineState::set_incremental`].
    pub fn set_incremental(&mut self, enabled: bool) {
        self.state.set_incremental(enabled);
    }

    /// See [`EngineState::arena_bytes`].
    pub fn arena_bytes(&self) -> usize {
        self.state.arena_bytes()
    }

    /// Builds the shortest-path DAGs of every destination under `weights`
    /// with equal-cost tolerance `tolerance`, replacing the engine's
    /// current DAG set. Weights are validated once for the whole batch.
    ///
    /// When `weights`, `dests` and `tolerance` are bit-identical to the
    /// previous (successful) call on this engine's state, the SPF batch
    /// is skipped outright — the retained DAG set is already the answer.
    ///
    /// When only a few weights changed (same destinations, same
    /// tolerance), the **incremental path** rebuilds only the dirty
    /// destination slots: a destination is dirty iff some changed edge
    /// was on, or could join, its shortest-path DAG, decided from the
    /// cached distance arrays of the previous build. Clean slots keep
    /// their arenas untouched, so the resulting DAG set is bit-identical
    /// to a dense rebuild (see `tests/incremental_equivalence.rs`). The
    /// path falls back to a dense build when the change is too large or
    /// the dirty set covers most destinations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`spef_graph::ShortestPathDag::build`].
    pub fn build_dags(
        &mut self,
        weights: &[f64],
        dests: &[NodeId],
        tolerance: f64,
    ) -> Result<(), GraphError> {
        let s = &mut self.state;
        let fingerprint_matches = s.dags_valid
            && s.last_tolerance.to_bits() == tolerance.to_bits()
            && s.last_dests.as_slice() == dests
            && s.last_weights.len() == weights.len();
        if fingerprint_matches
            && s.last_weights
                .iter()
                .zip(weights)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return Ok(());
        }
        let try_incremental = fingerprint_matches && !s.full_rebuild_only;
        s.dags_valid = false;
        if try_incremental && self.build_dags_incremental(weights, dests, tolerance)? {
            return Ok(());
        }
        let s = &mut self.state;
        build_dag_set(
            self.graph,
            s.in_csr.as_ref().expect("attached engine has a CSR"),
            weights,
            dests,
            tolerance,
            self.par,
            &mut s.ws,
            &mut s.dags,
        )?;
        s.spf_builds += 1;
        s.last_weights.clear();
        s.last_weights.extend_from_slice(weights);
        s.last_dests.clear();
        s.last_dests.extend_from_slice(dests);
        s.last_tolerance = tolerance;
        s.dags_valid = true;
        // A dense build may have changed any slot; the pending set no
        // longer bounds what the next distribution must refresh.
        s.pending_all = true;
        Ok(())
    }

    /// The delta path of [`build_dags`](Self::build_dags): diffs the
    /// weights bit for bit, flags dirty destinations via the cached
    /// distance arrays, and rebuilds only those slots in place. Returns
    /// `Ok(false)` when the change is too large to be worth it — the
    /// caller falls through to the dense build.
    ///
    /// Only called when the previous build used the same destinations,
    /// tolerance and weight-vector length (so the cached distances and
    /// arena shapes line up).
    fn build_dags_incremental(
        &mut self,
        weights: &[f64],
        dests: &[NodeId],
        tolerance: f64,
    ) -> Result<bool, GraphError> {
        // Identical validation — and error order — to the dense path.
        validate_dag_inputs(self.graph, weights, dests, tolerance)?;
        let s = &mut self.state;
        let m = self.graph.edge_count();
        let d = dests.len();
        s.delta_scratch.clear();
        for (e, u, v) in self.graph.edges() {
            let old = s.last_weights[e.index()];
            let new = weights[e.index()];
            if old.to_bits() != new.to_bits() {
                s.delta_scratch.push((u, v, old, new));
            }
        }
        if s.delta_scratch.len() * 4 > m * INCR_MAX_CHANGED_QUARTERS {
            return Ok(false);
        }
        // A destination is dirty iff some changed edge was on — or, at
        // the new weight, could join — its shortest-path DAG. Both are
        // one slack test against the cached distances: edge (u,v) with
        // weight w is on/joinable when `w + dist[v] - dist[u] <= tol`,
        // the exact float association the DAG classifier uses, so a
        // "clean" verdict provably reproduces the dense result bit for
        // bit (slack > tol ≥ 0 means the edge loses every relaxation
        // and classification it could enter, under old and new weight).
        s.dirty.clear();
        s.dirty.resize(d, false);
        let mut dirty_count = 0usize;
        for (i, flag) in s.dirty.iter_mut().enumerate() {
            let dist = s.dags.dag(i).distances();
            let is_dirty = s.delta_scratch.iter().any(|&(u, v, old, new)| {
                let dv = dist[v.index()];
                if !dv.is_finite() {
                    // v cannot reach this destination; no weight value on
                    // (u,v) changes reachability, distances or the DAG.
                    return false;
                }
                let du = dist[u.index()];
                // du = +inf makes both slacks -inf → dirty (defensive;
                // cannot happen when dv is finite and the old weight was
                // valid, since du ≤ old + dv).
                !(old + dv - du > tolerance && new + dv - du > tolerance)
            });
            if is_dirty {
                *flag = true;
                dirty_count += 1;
            }
        }
        if dirty_count * 2 > d * INCR_MAX_DIRTY_HALVES {
            return Ok(false);
        }
        rebuild_dag_set_slots(
            self.graph,
            s.in_csr.as_ref().expect("attached engine has a CSR"),
            weights,
            &s.dirty,
            self.par,
            &mut s.ws,
            &mut s.dags,
        )?;
        s.spf_builds += 1;
        s.incremental_builds += 1;
        s.slots_rebuilt += dirty_count as u64;
        s.last_dirty = dirty_count as u64;
        if s.pending.len() == d {
            for (p, &flag) in s.pending.iter_mut().zip(&s.dirty) {
                *p |= flag;
            }
        } else {
            // No tracked pending set at this shape — pending_all is
            // already forcing a dense distribution; just keep shape.
            s.pending.clear();
            s.pending.resize(d, false);
            s.pending_all = true;
        }
        s.last_weights.copy_from_slice(weights);
        s.dags_valid = true;
        Ok(true)
    }

    /// The current DAG set (destinations of the last
    /// [`build_dags`](Self::build_dags) call).
    pub fn dag_set(&self) -> &DagSet {
        &self.state.dags
    }

    /// The split tables of the last
    /// [`build_split_tables`](Self::build_split_tables) call, aligned with
    /// its DAG destinations — the batched form of the paper's TABLE II
    /// rows. Nothing else fills them: distributions and FIB builds stream
    /// one destination's table at a time, so after those alone this set
    /// is empty.
    pub fn split_tables(&self) -> &SplitTableSet {
        &self.state.tables
    }

    /// A flow buffer shaped for reuse with
    /// [`distribute_into`](Self::distribute_into).
    pub fn distribute_fresh(&self) -> Flows {
        Flows::empty()
    }

    /// Algorithm 3 over the engine's current DAG set: routes the demand
    /// columns of the DAG destinations under `rule`, writing flows into
    /// `out` (reshaped as needed, zero allocations once warm). Each
    /// destination's split table is built into the engine's
    /// one-destination scratch, used, and dropped.
    ///
    /// The traffic matrix must cover the engine's graph; demand columns
    /// are taken for exactly the destinations the DAGs were built for.
    ///
    /// # Errors
    ///
    /// * [`SpefError::UnroutableDemand`] if a positive demand has no path
    ///   on its destination's DAG,
    /// * [`SpefError::InvalidInput`] if the rule's weight vector is
    ///   malformed.
    ///
    /// # Panics
    ///
    /// Panics if `traffic` covers fewer nodes than the graph.
    ///
    /// # Incremental redistribution
    ///
    /// When `out` still holds exactly what this engine's previous
    /// successful call wrote (tracked by a freshness stamp that any
    /// mutation clears), the rule is bit-identical, and the DAG set only
    /// changed in slots the engine tracked, the call refreshes **only**
    /// the destinations whose DAG or demand column changed — rebuilding
    /// their split tables in the scratch — and re-folds the aggregate from
    /// all columns in ascending destination order: the same additions, in
    /// the same order, as the dense kernel. Results are bit-identical
    /// either way; any precondition miss falls back to the dense path.
    pub fn distribute_into(
        &mut self,
        traffic: &TrafficMatrix,
        rule: SplitRule<'_>,
        out: &mut Flows,
    ) -> Result<(), SpefError> {
        if self.try_distribute_incremental(traffic, rule, out)? {
            return Ok(());
        }
        let s = &mut self.state;
        s.out_stamp = 0;
        distribute_batch(
            self.graph,
            s.dags.destinations(),
            s.dags.iter(),
            traffic,
            rule,
            &mut s.table,
            &mut s.scratch,
            out,
        )?;
        self.record_distribution(traffic, rule, out);
        Ok(())
    }

    /// Records the caches a successful dense distribution leaves behind
    /// for the next incremental one: the demand columns (bitwise), the
    /// rule fingerprint, and the output buffer's freshness stamp.
    fn record_distribution(
        &mut self,
        traffic: &TrafficMatrix,
        rule: SplitRule<'_>,
        out: &mut Flows,
    ) {
        let s = &mut self.state;
        let n = self.graph.node_count();
        let dests = s.dags.destinations();
        let d = dests.len();
        s.demand_cache.clear();
        s.demand_cache.resize(d * n, 0.0);
        for (i, &t) in dests.iter().enumerate() {
            traffic.demands_to_into(t, &mut s.scratch.demands);
            s.demand_cache[i * n..(i + 1) * n].copy_from_slice(&s.scratch.demands[..n]);
        }
        s.demand_cache_valid = true;
        match rule {
            SplitRule::EvenEcmp => {
                s.last_rule_kind = RuleKind::Even;
                s.last_rule_v.clear();
            }
            SplitRule::Exponential(v) => {
                s.last_rule_kind = RuleKind::Exponential;
                s.last_rule_v.clear();
                s.last_rule_v.extend_from_slice(v);
            }
        }
        s.pending.clear();
        s.pending.resize(d, false);
        s.pending_all = false;
        s.out_stamp = next_flow_stamp();
        out.set_stamp(s.out_stamp);
    }

    /// The delta path of [`distribute_into`](Self::distribute_into).
    /// Returns `Ok(false)` when any precondition fails (caller runs the
    /// dense kernel); on `Ok(true)` the refresh completed and `out` was
    /// re-stamped. A distribution error invalidates every cache before
    /// propagating, so the next call runs dense.
    fn try_distribute_incremental(
        &mut self,
        traffic: &TrafficMatrix,
        rule: SplitRule<'_>,
        out: &mut Flows,
    ) -> Result<bool, SpefError> {
        let s = &mut self.state;
        let rule_matches = match rule {
            SplitRule::EvenEcmp => s.last_rule_kind == RuleKind::Even,
            SplitRule::Exponential(v) => {
                s.last_rule_kind == RuleKind::Exponential
                    && v.len() == s.last_rule_v.len()
                    && v.iter()
                        .zip(&s.last_rule_v)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
        };
        if s.full_rebuild_only
            || !s.dags_valid
            || !s.demand_cache_valid
            || s.pending_all
            || !rule_matches
            || out.stamp() == 0
            || out.stamp() != s.out_stamp
        {
            return Ok(false);
        }
        // The rule already matched a previously validated one bit for
        // bit, but run the dense path's validation anyway so the error
        // surface is identical by construction.
        validate_rule(self.graph, rule)?;
        let n = self.graph.node_count();
        let d = s.dags.destinations().len();
        debug_assert_eq!(s.pending.len(), d);
        s.scratch.incoming.resize(n, 0.0);
        let (columns, aggregate) = out.parts_mut();
        debug_assert_eq!(columns.len(), d);
        for (i, col) in columns.iter_mut().enumerate() {
            let t = s.dags.destinations()[i];
            traffic.demands_to_into(t, &mut s.scratch.demands);
            let row = &s.demand_cache[i * n..(i + 1) * n];
            let demand_dirty = s.scratch.demands[..n]
                .iter()
                .zip(row)
                .any(|(a, b)| a.to_bits() != b.to_bits());
            let dag_dirty = s.pending[i];
            if !demand_dirty && !dag_dirty {
                // Same DAG, same rule, bit-identical demands: the cached
                // column is exactly what the dense kernel would recompute
                // (and its previous success proves no error either).
                continue;
            }
            // The same table the dense kernel builds for this slot.
            let dag = s.dags.dag(i);
            s.table.reset(n);
            s.table.push_table(self.graph, &dag, rule);
            col.fill(0.0);
            if let Err(e) = distribute_one_into(
                self.graph,
                &dag,
                s.table.table(0),
                &s.scratch.demands,
                &mut s.scratch.incoming,
                col,
            ) {
                s.drop_distribution_caches();
                return Err(e);
            }
            if demand_dirty {
                s.demand_cache[i * n..(i + 1) * n].copy_from_slice(&s.scratch.demands[..n]);
            }
        }
        // Re-fold the aggregate from every column in ascending
        // destination order — the same additions, in the same order, as
        // `distribute_destination` performs on the dense path.
        aggregate.fill(0.0);
        for col in columns.iter() {
            for (agg, f) in aggregate.iter_mut().zip(col.iter()) {
                *agg += f;
            }
        }
        for p in s.pending.iter_mut() {
            *p = false;
        }
        s.out_stamp = next_flow_stamp();
        out.set_stamp(s.out_stamp);
        Ok(true)
    }

    /// Builds only the split tables (TABLE II rows) for the current DAG
    /// set under `rule`, without routing any traffic, one table per
    /// destination — the only all-destinations split-table build. It
    /// serves callers that inspect the tables; forwarding tables come from
    /// [`build_forwarding_table`](Self::build_forwarding_table), which
    /// streams the same rows.
    ///
    /// # Errors
    ///
    /// [`SpefError::InvalidInput`] if the rule's weight vector is
    /// malformed.
    pub fn build_split_tables(&mut self, rule: SplitRule<'_>) -> Result<&SplitTableSet, SpefError> {
        validate_rule(self.graph, rule)?;
        let s = &mut self.state;
        s.tables.reset(self.graph.node_count());
        for dag in s.dags.iter() {
            s.tables.push_table(self.graph, &dag, rule);
        }
        Ok(&s.tables)
    }

    /// The forwarding tables (TABLE II rows, reduced to split ratios) of
    /// the current DAG set under `rule` — the final step of Algorithm 4.
    /// Each destination's split table is built into the engine's
    /// one-destination scratch and copied into the flat FIB, so no
    /// all-destinations split-table set is built. The rows equal those of
    /// [`build_split_tables`](Self::build_split_tables), bit for bit. The
    /// FIB is sized once, to the DAG set's successor total (one entry per
    /// DAG edge at most), so no arena doubles while it fills.
    ///
    /// # Errors
    ///
    /// [`SpefError::InvalidInput`] if the rule's weight vector is
    /// malformed.
    pub fn build_forwarding_table(
        &mut self,
        rule: SplitRule<'_>,
    ) -> Result<ForwardingTable, SpefError> {
        validate_rule(self.graph, rule)?;
        let n = self.graph.node_count();
        let s = &mut self.state;
        let mut fib = ForwardingTable::default();
        fib.begin(n);
        fib.reserve_exact(s.dags.len(), s.dags.successor_total());
        for dag in s.dags.iter() {
            s.table.reset(n);
            s.table.push_table(self.graph, &dag, rule);
            let table = s.table.table(0);
            fib.push_destination(dag.target(), |u| table.next_hops(NodeId::new(u)));
        }
        Ok(fib)
    }

    /// Convenience wrapper around
    /// [`distribute_into`](Self::distribute_into) returning an owned
    /// [`Flows`] (allocating; iterating callers should hold a buffer).
    ///
    /// # Errors
    ///
    /// Same conditions as [`distribute_into`](Self::distribute_into).
    pub fn distribute(
        &mut self,
        traffic: &TrafficMatrix,
        rule: SplitRule<'_>,
    ) -> Result<Flows, SpefError> {
        let mut out = Flows::empty();
        self.distribute_into(traffic, rule, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic_dist::{build_dags, traffic_distribution};
    use spef_topology::standard;

    #[test]
    fn engine_matches_legacy_wrappers_exactly() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let g = net.graph();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();

        let dags = build_dags(g, &w, &dests, 0.0).unwrap();
        let legacy = traffic_distribution(g, &dags, &tm, SplitRule::EvenEcmp).unwrap();

        let mut engine = RoutingEngine::new(g);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();

        assert_eq!(flows.aggregate(), legacy.aggregate());
        for &t in &dests {
            assert_eq!(flows.for_destination(t), legacy.for_destination(t));
        }
    }

    #[test]
    fn buffers_are_reused_across_iterations() {
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let dests = tm.destinations();
        let mut engine = RoutingEngine::new(net.graph());
        let mut flows = engine.distribute_fresh();
        let mut last = Vec::new();
        for k in 1..=4u32 {
            let w: Vec<f64> = (0..net.link_count())
                .map(|e| 1.0 + (e as f64) * 0.1 * k as f64)
                .collect();
            engine.build_dags(&w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            last = flows.aggregate().to_vec();
        }
        // Matches a from-scratch computation of the final iteration.
        let w: Vec<f64> = (0..net.link_count())
            .map(|e| 1.0 + (e as f64) * 0.4)
            .collect();
        let dags = build_dags(net.graph(), &w, &dests, 0.0).unwrap();
        let fresh = traffic_distribution(net.graph(), &dags, &tm, SplitRule::EvenEcmp).unwrap();
        assert_eq!(last, fresh.aggregate());
    }

    #[test]
    fn bit_identical_weights_skip_the_spf_batch() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let mut engine = RoutingEngine::new(net.graph());

        engine.build_dags(&w, &dests, 0.0).unwrap();
        assert_eq!(engine.spf_stats().builds, 1);
        // Same weights (a fresh but bit-identical vector), same dests,
        // same tolerance: skipped.
        engine.build_dags(&w.clone(), &dests, 0.0).unwrap();
        assert_eq!(engine.spf_stats().builds, 1);
        // Any bit change re-runs.
        let mut w2 = w.clone();
        w2[0] *= 1.0 + 1e-12;
        engine.build_dags(&w2, &dests, 0.0).unwrap();
        assert_eq!(engine.spf_stats().builds, 2);
        // Tolerance change re-runs even with identical weights.
        engine.build_dags(&w2, &dests, 1e-9).unwrap();
        assert_eq!(engine.spf_stats().builds, 3);
        // Destination-set change re-runs.
        engine
            .build_dags(&w2, &dests[..dests.len() - 1], 1e-9)
            .unwrap();
        assert_eq!(engine.spf_stats().builds, 4);

        // The skipped call left a usable DAG set behind.
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut again = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut again)
            .unwrap();
        assert_eq!(flows.aggregate(), again.aggregate());
    }

    #[test]
    fn state_round_trip_preserves_fingerprint_on_same_topology() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w = vec![1.0; net.link_count()];

        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let state = engine.into_state();
        assert_eq!(state.spf_stats().builds, 1);

        // Re-attach to the same graph: the fingerprint survives, so an
        // identical build is skipped.
        let mut engine = RoutingEngine::with_state(net.graph(), state);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        assert_eq!(engine.spf_stats().builds, 1);

        // Attach to a different topology: cold fallback, the build runs.
        let other = standard::fig1();
        let other_tm = standard::fig1_demands();
        let ow = vec![1.0; other.link_count()];
        let mut engine = RoutingEngine::with_state(other.graph(), engine.into_state());
        engine
            .build_dags(&ow, &other_tm.destinations(), 0.0)
            .unwrap();
        assert_eq!(engine.spf_stats().builds, 2);

        // And its results match a fresh engine's bit for bit.
        let mut fresh = RoutingEngine::new(other.graph());
        fresh
            .build_dags(&ow, &other_tm.destinations(), 0.0)
            .unwrap();
        let mut a = engine.distribute_fresh();
        engine
            .distribute_into(&other_tm, SplitRule::EvenEcmp, &mut a)
            .unwrap();
        let mut b = fresh.distribute_fresh();
        fresh
            .distribute_into(&other_tm, SplitRule::EvenEcmp, &mut b)
            .unwrap();
        assert_eq!(a.aggregate(), b.aggregate());
    }

    /// One full build+distribute cycle on a fresh dense engine; the
    /// reference every incremental test compares against.
    fn dense_reference(
        net: &spef_topology::Network,
        tm: &TrafficMatrix,
        dests: &[NodeId],
        w: &[f64],
        tol: f64,
    ) -> Flows {
        let mut engine = RoutingEngine::new(net.graph());
        engine.set_incremental(false);
        engine.build_dags(w, dests, tol).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        flows
    }

    #[test]
    fn incremental_single_weight_probe_matches_dense() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let mut w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();

        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();

        // A Fortz–Thorup-style probe loop: one weight changes per step.
        for e in 0..net.link_count() {
            w[e] *= 3.0;
            engine.build_dags(&w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            let fresh = dense_reference(&net, &tm, &dests, &w, 0.0);
            assert_eq!(flows, fresh, "probe on edge {e} diverged from dense");
            // Revert — again a single-weight delta.
            w[e] /= 3.0;
            engine.build_dags(&w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
        }
        let stats = engine.spf_stats();
        assert!(
            stats.incremental_builds > 0,
            "probe loop never took the incremental path: {stats:?}"
        );
        assert!(stats.slots_rebuilt < stats.incremental_builds * dests.len() as u64);
    }

    #[test]
    fn incremental_respects_equal_cost_tolerance() {
        let net = standard::fig1();
        let tm = standard::fig1_demands();
        let dests = tm.destinations();
        let tol = 0.5;
        let mut w = vec![1.0; net.link_count()];

        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, tol).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();

        // Nudge a weight by less than the tolerance: the edge may enter or
        // leave equal-cost DAGs without changing any shortest distance.
        for e in 0..net.link_count() {
            w[e] += 0.25;
            engine.build_dags(&w, &dests, tol).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            assert_eq!(flows, dense_reference(&net, &tm, &dests, &w, tol));
        }
    }

    #[test]
    fn incremental_off_switch_forces_dense() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let mut w = vec![1.0; net.link_count()];
        let mut engine = RoutingEngine::new(net.graph());
        engine.set_incremental(false);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        w[2] = 5.0;
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        assert_eq!(engine.spf_stats().incremental_builds, 0);
        assert_eq!(flows, dense_reference(&net, &tm, &dests, &w, 0.0));
    }

    #[test]
    fn incremental_tracks_demand_changes() {
        let net = standard::fig4();
        let mut tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w = vec![1.0; net.link_count()];
        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        // Change one demand entry and redistribute with unchanged DAGs:
        // only that destination's column may be stale.
        let (src, t, old) = tm.pairs().next().unwrap();
        tm.set(src, t, old + 1.5);
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        assert_eq!(flows, dense_reference(&net, &tm, &dests, &w, 0.0));
    }

    #[test]
    fn incremental_survives_buffer_swap_and_mutation() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let mut w = vec![1.0; net.link_count()];
        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();

        // Mutating the buffer (here halving every column in place) clears
        // its stamp; the next call must fall back dense, not trust stale
        // columns.
        let (columns, aggregate) = flows.parts_mut();
        for f in columns.iter_mut().flatten().chain(aggregate.iter_mut()) {
            *f *= 0.5;
        }
        w[0] = 2.0;
        engine.build_dags(&w, &dests, 0.0).unwrap();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        assert_eq!(flows, dense_reference(&net, &tm, &dests, &w, 0.0));

        // A different (unstamped) buffer also falls back dense.
        w[1] = 3.0;
        engine.build_dags(&w, &dests, 0.0).unwrap();
        let mut other = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut other)
            .unwrap();
        assert_eq!(other, dense_reference(&net, &tm, &dests, &w, 0.0));
    }

    #[test]
    fn fail_restore_matches_cold_engines_on_both_topologies() {
        // One detached state walked intact → degraded clone → intact for
        // every single-link failure: each attach to a different topology
        // rebuilds the CSR and drops the fingerprint, so every routing
        // equals a cold dense engine's on that topology, bit for bit.
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
        let intact = dense_reference(&net, &tm, &dests, &w, 0.0);

        let mut state = EngineState::new();
        let mut flows = Flows::empty();
        let mut probed = 0;
        for e in 0..net.link_count() {
            // Skip cut links; failing one disconnects the network.
            let Ok((degraded, kept)) = net.without_links(&[spef_graph::EdgeId::new(e)]) else {
                continue;
            };
            probed += 1;
            let dw: Vec<f64> = kept.iter().map(|&ke| w[ke.index()]).collect();
            let mut engine = RoutingEngine::with_state(degraded.graph(), state);
            engine.build_dags(&dw, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            assert_eq!(
                flows,
                dense_reference(&degraded, &tm, &dests, &dw, 0.0),
                "link {e} failed"
            );

            let mut engine = RoutingEngine::with_state(net.graph(), engine.into_state());
            engine.build_dags(&w, &dests, 0.0).unwrap();
            engine
                .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
                .unwrap();
            assert_eq!(flows, intact, "link {e} restored");
            state = engine.into_state();
        }
        assert!(probed > 0, "no single-link failure kept fig4 connected");
        assert_eq!(state.spf_stats().topology_builds, 0);
    }

    #[test]
    fn split_tables_align_with_destinations() {
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let dests = tm.destinations();
        let w = vec![1.0; net.link_count()];
        let mut engine = RoutingEngine::new(net.graph());
        engine.build_dags(&w, &dests, 0.0).unwrap();
        // Distributions stream their tables; only `build_split_tables`
        // keeps one per destination.
        let mut flows = engine.distribute_fresh();
        engine
            .distribute_into(&tm, SplitRule::EvenEcmp, &mut flows)
            .unwrap();
        assert!(engine.split_tables().is_empty());
        engine.build_split_tables(SplitRule::EvenEcmp).unwrap();
        assert_eq!(engine.split_tables().len(), dests.len());
        for (i, _) in dests.iter().enumerate() {
            let table = engine.split_tables().table(i);
            let dag = engine.dag_set().dag(i);
            for u in net.graph().nodes() {
                let hops = table.next_hops(u);
                if !hops.is_empty() {
                    let sum: f64 = hops.iter().map(|&(_, r)| r).sum();
                    assert!((sum - 1.0).abs() < 1e-9);
                    assert_eq!(hops.len(), dag.successors(u).len());
                }
            }
        }
    }
}
