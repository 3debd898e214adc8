//! Batched all-destinations routing: CSR Dijkstra, DAG-set construction
//! and reusable scratch arenas.
//!
//! Every solver in the SPEF workspace sits in a loop that rebuilds the
//! per-destination shortest-path DAGs `ON_t` on each iteration. The legacy
//! path ([`ShortestPathDag::build`]) allocates a fresh distance vector,
//! heap, and two `Vec<Vec<EdgeId>>` adjacency structures per destination
//! per iteration — an allocation storm that dominates the runtime of small
//! and medium instances. This module provides the batched alternative:
//!
//! * [`Csr`] adjacency is built once per graph and traversed flat;
//! * [`RoutingWorkspace`] owns the Dijkstra scratch (heap storage,
//!   settled flags, counting buffers): one per worker thread, never one
//!   per destination. It is reused across calls, so the sequential steady
//!   state performs **zero allocations** (when the parallel fan-out
//!   engages, the only per-call allocations left are the task lists and
//!   the shim's work cells — never the `O(dests · (nodes + edges))` arena
//!   data);
//! * [`DagSet`] holds the DAGs of *all* destinations in contiguous
//!   offset-indexed arenas (`dist`, CSR successor lists, processing
//!   orders) of 4-byte ids and offsets, instead of per-destination heap
//!   objects; it stores only what routing reads, so edge membership and
//!   path counts are derived on demand
//!   ([`DagSet::to_shortest_path_dag`]);
//! * destinations fan out across worker threads (through the `rayon`
//!   shim), one contiguous chunk per worker, when the batch is large
//!   enough to amortise the dispatch — each destination writes only its
//!   own arena slices and every Dijkstra re-initialises its worker's
//!   scratch, so results are **bit-identical** to the sequential path
//!   regardless of schedule.
//!
//! Weight validation (`O(|J|)`) runs once per batch, not once per
//! destination; the per-destination Dijkstra runs unchecked.
//!
//! The legacy single-destination entry points remain available (and are
//! kept as an independent reference implementation — the property tests in
//! `tests/batch_equivalence.rs` assert bit-identical agreement between the
//! two paths).

use std::collections::BinaryHeap;

use rayon::prelude::*;

use crate::csr::Csr;
use crate::dijkstra::HeapEntry;
use crate::error::validate_weights;
use crate::{EdgeId, Graph, GraphError, NodeId, ShortestPathDag};

/// When to fan destinations out across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Parallelise when the batch is large enough to amortise thread
    /// startup (the default).
    #[default]
    Auto,
    /// Always run sequentially.
    Never,
    /// Parallelise whenever there is more than one destination (used by
    /// the schedule-independence tests).
    Always,
}

/// Estimated per-destination work below which threading costs more than it
/// saves (tuned for the std::thread-scope rayon shim, which has no
/// persistent pool).
const PAR_WORK_THRESHOLD: usize = 1 << 14;

impl Parallelism {
    fn decide(self, dests: usize, work_per_dest: usize) -> bool {
        match self {
            Parallelism::Never => false,
            Parallelism::Always => dests > 1,
            Parallelism::Auto => {
                dests > 1
                    && dests.saturating_mul(work_per_dest) >= PAR_WORK_THRESHOLD
                    && rayon::current_num_threads() > 1
            }
        }
    }
}

/// One worker's scratch: everything one Dijkstra + DAG build needs beyond
/// its output slices. Every Dijkstra re-initialises it, so no result
/// depends on which worker's scratch served a destination.
#[derive(Debug, Default)]
struct SlotScratch {
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    /// Doubles as the per-node successor counter and fill cursor during
    /// CSR construction.
    cursor: Vec<usize>,
    /// DAG membership per edge of the destination being classified.
    on_dag: Vec<bool>,
}

impl SlotScratch {
    fn ensure(&mut self, n: usize, m: usize) {
        self.settled.resize(n, false);
        self.cursor.resize(n, 0);
        self.on_dag.resize(m, false);
        // A Dijkstra pushes the origin plus at most one entry per edge it
        // relaxes, so the heap never outgrows `m + 1`. Reserving that up
        // front keeps the capacity independent of which destinations ran.
        self.heap.reserve(m + 1);
    }
}

/// Reusable scratch arena for batched routing computations.
///
/// One Dijkstra scratch per worker thread, not per destination: a
/// sequential build runs every destination through one scratch, and the
/// parallel fan-out gives each worker one contiguous chunk of destinations
/// and one scratch. Scratch persists across calls, so the steady state of
/// a solver loop (`build_dag_set` every iteration) performs no heap
/// allocation. A workspace is tied to no particular graph — it grows to
/// fit whatever it is handed.
#[derive(Debug, Default)]
pub struct RoutingWorkspace {
    slots: Vec<SlotScratch>,
}

impl RoutingWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> RoutingWorkspace {
        RoutingWorkspace::default()
    }

    fn ensure(&mut self, workers: usize, n: usize, m: usize) -> &mut [SlotScratch] {
        if self.slots.len() < workers {
            self.slots.resize_with(workers, SlotScratch::default);
        }
        for slot in &mut self.slots[..workers] {
            slot.ensure(n, m);
        }
        &mut self.slots[..workers]
    }

    /// Bytes of scratch capacity across all slots — one per worker of the
    /// widest fan-out this workspace served, whatever the destination
    /// count.
    pub fn arena_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| {
                s.settled.capacity()
                    + s.heap.capacity() * std::mem::size_of::<HeapEntry>()
                    + s.cursor.capacity() * std::mem::size_of::<usize>()
                    + s.on_dag.capacity()
            })
            .sum()
    }
}

/// Shortest-path DAGs for a whole destination set, stored as flat arenas.
///
/// The batched analogue of `Vec<ShortestPathDag>`: per-destination data
/// lives in contiguous blocks of shared vectors rather than per-DAG heap
/// objects, and the buffers are reused across [`build_dag_set`] calls.
/// Access per-destination views through [`DagSet::dag`].
///
/// This is the one routing arena sized by destinations × edges: each
/// destination reserves an `m`-slot successor block, of which its DAG
/// uses only the on-DAG edges. Ids, successor offsets and order lengths
/// are 4 bytes each. Nothing else is stored per destination: edge
/// membership is classified in a per-worker scratch, and edge flags and
/// path counts are derived from the successor lists only when a DAG is
/// materialised ([`DagSet::to_shortest_path_dag`]).
#[derive(Debug, Clone, Default)]
pub struct DagSet {
    n: usize,
    /// Successor-arena block stride: `max(edge_count, 1)` so zero-edge
    /// graphs still chunk cleanly.
    m_block: usize,
    tol: f64,
    dests: Vec<NodeId>,
    /// `dist[i * n + u]`: distance from `u` to destination `i`.
    dist: Vec<f64>,
    /// `succ_off[i * (n + 1) + u]`: block-relative offsets into the
    /// destination's successor block.
    succ_off: Vec<u32>,
    /// Successor edge ids, `m_block` slots per destination.
    succ: Vec<EdgeId>,
    /// Reachable nodes by decreasing distance, `n` slots per destination
    /// (only the first `order_len[i]` are meaningful).
    order: Vec<NodeId>,
    order_len: Vec<u32>,
}

impl DagSet {
    /// Creates an empty set; arenas grow on first use.
    pub fn new() -> DagSet {
        DagSet::default()
    }

    /// Number of destinations covered.
    pub fn len(&self) -> usize {
        self.dests.len()
    }

    /// Returns `true` if the set covers no destinations.
    pub fn is_empty(&self) -> bool {
        self.dests.is_empty()
    }

    /// The destinations, in build order.
    pub fn destinations(&self) -> &[NodeId] {
        &self.dests
    }

    /// The equal-cost tolerance the set was built with.
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// A cheap view of destination `i`'s DAG.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn dag(&self, i: usize) -> DagRef<'_> {
        assert!(i < self.dests.len(), "destination index {i} out of range");
        let n = self.n;
        DagRef {
            target: self.dests[i],
            tol: self.tol,
            dist: &self.dist[i * n..(i + 1) * n],
            succ_off: &self.succ_off[i * (n + 1)..(i + 1) * (n + 1)],
            succ: &self.succ[i * self.m_block..(i + 1) * self.m_block],
            order: &self.order[i * n..i * n + self.order_len[i] as usize],
        }
    }

    /// Total DAG edges over every destination: the sum of the successor
    /// list lengths, and so the entry count of a forwarding table built
    /// over this set.
    pub fn successor_total(&self) -> usize {
        let n = self.n;
        (0..self.len())
            .map(|i| self.succ_off[i * (n + 1) + n] as usize)
            .sum()
    }

    /// Iterates over all per-destination DAG views in build order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DagRef<'_>> + '_ {
        (0..self.len()).map(|i| self.dag(i))
    }

    /// Materialises destination `i` as an owned [`ShortestPathDag`]
    /// (allocating), for callers that store DAGs beyond the engine's
    /// lifetime. Predecessor lists, edge flags and path counts are derived
    /// from the successor lists.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or `graph` does not match the graph the
    /// set was built from.
    pub fn to_shortest_path_dag(&self, i: usize, graph: &Graph) -> ShortestPathDag {
        let view = self.dag(i);
        let n = self.n;
        let mut succ = Vec::with_capacity(n);
        let mut pred = vec![Vec::new(); n];
        let mut on_dag = vec![false; graph.edge_count()];
        for u in 0..n {
            let s = view.successors(NodeId::new(u));
            succ.push(s.to_vec());
            for &e in s {
                pred[graph.target(e).index()].push(e);
                on_dag[e.index()] = true;
            }
        }
        // Predecessor lists must come out in edge-id order (the legacy
        // path pushes while scanning edges by id).
        for p in &mut pred {
            p.sort_unstable();
        }
        // Saturating path counts by increasing distance, as the legacy
        // build counts them.
        let mut path_counts = vec![0u64; n];
        path_counts[view.target.index()] = 1;
        for &u in view.order.iter().rev() {
            if u == view.target {
                continue;
            }
            path_counts[u.index()] = succ[u.index()].iter().fold(0u64, |total, &e| {
                total.saturating_add(path_counts[graph.target(e).index()])
            });
        }
        ShortestPathDag::from_parts(
            view.target,
            self.tol,
            view.dist.to_vec(),
            succ,
            pred,
            on_dag,
            view.order.to_vec(),
            path_counts,
        )
    }

    /// Bytes of arena capacity this set holds. `Vec` capacity never
    /// shrinks, so after a solve this is the high-water mark of the build.
    pub fn arena_bytes(&self) -> usize {
        self.dists_arena_bytes()
            + self.succ.capacity() * std::mem::size_of::<EdgeId>()
            + self.order.capacity() * std::mem::size_of::<NodeId>()
    }

    fn dists_arena_bytes(&self) -> usize {
        self.dests.capacity() * std::mem::size_of::<NodeId>()
            + self.dist.capacity() * std::mem::size_of::<f64>()
            + self.succ_off.capacity() * std::mem::size_of::<u32>()
            + self.order_len.capacity() * std::mem::size_of::<u32>()
    }

    fn prepare(&mut self, dests: &[NodeId], n: usize, m: usize, tol: f64) {
        // Offsets and lengths are 4 bytes, like the ids they count.
        assert!(
            n <= u32::MAX as usize && m <= u32::MAX as usize,
            "a DAG set addresses at most u32::MAX nodes and edges"
        );
        let d = dests.len();
        let m_block = m.max(1);
        self.n = n;
        self.m_block = m_block;
        self.tol = tol;
        self.dests.clear();
        self.dests.extend_from_slice(dests);
        self.dist.resize(d * n, 0.0);
        self.succ_off.resize(d * (n + 1), 0);
        self.succ.resize(d * m_block, EdgeId::new(0));
        self.order.resize(d * n, NodeId::new(0));
        self.order_len.resize(d, 0);
    }
}

/// A borrowed view of one destination's DAG inside a [`DagSet`].
///
/// Mirrors the routing accessors of [`ShortestPathDag`] (distances,
/// successor lists, processing order); both implement [`DagAccess`] so
/// downstream algorithms are generic over the storage. The set stores no
/// edge flags or path counts, so a caller that needs
/// [`ShortestPathDag::contains_edge`] or [`ShortestPathDag::path_count`]
/// materialises the DAG with [`DagSet::to_shortest_path_dag`].
#[derive(Debug, Clone, Copy)]
pub struct DagRef<'a> {
    target: NodeId,
    tol: f64,
    dist: &'a [f64],
    succ_off: &'a [u32],
    succ: &'a [EdgeId],
    order: &'a [NodeId],
}

// The accessors are `#[inline]` because the per-node loops of the
// distribution kernel call them across the crate boundary.
impl<'a> DagRef<'a> {
    /// The destination this DAG routes toward.
    #[inline]
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The equal-cost tolerance the DAG was built with.
    #[inline]
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// Shortest distance from `u` to the target (`f64::INFINITY` if
    /// unreachable).
    #[inline]
    pub fn distance(&self, u: NodeId) -> f64 {
        self.dist[u.index()]
    }

    /// All per-node distances, indexed by node id.
    #[inline]
    pub fn distances(&self) -> &'a [f64] {
        self.dist
    }

    /// DAG edges leaving `u`, in edge-id order.
    #[inline]
    pub fn successors(&self, u: NodeId) -> &'a [EdgeId] {
        &self.succ[self.succ_off[u.index()] as usize..self.succ_off[u.index() + 1] as usize]
    }

    /// Returns `true` if the target is reachable from `u`.
    #[inline]
    pub fn reaches_target(&self, u: NodeId) -> bool {
        self.dist[u.index()].is_finite()
    }

    /// Reachable nodes in decreasing-distance order (target last).
    #[inline]
    pub fn nodes_by_decreasing_distance(&self) -> &'a [NodeId] {
        self.order
    }
}

/// Storage-agnostic read access to a per-destination shortest-path DAG.
///
/// Implemented by the legacy owned [`ShortestPathDag`], the arena-backed
/// [`DagRef`], and references to either, so traffic-distribution code can
/// run over both without conversion.
pub trait DagAccess {
    /// The destination this DAG routes toward.
    fn dag_target(&self) -> NodeId;
    /// All per-node distances to the target.
    fn dag_distances(&self) -> &[f64];
    /// DAG edges leaving `u`, in edge-id order.
    fn dag_successors(&self, u: NodeId) -> &[EdgeId];
    /// Reachable nodes in decreasing-distance order (target last).
    fn dag_order_desc(&self) -> &[NodeId];

    /// Distance from `u` to the target.
    fn dag_distance(&self, u: NodeId) -> f64 {
        self.dag_distances()[u.index()]
    }

    /// Whether the target is reachable from `u`.
    fn dag_reaches_target(&self, u: NodeId) -> bool {
        self.dag_distance(u).is_finite()
    }
}

impl DagAccess for ShortestPathDag {
    fn dag_target(&self) -> NodeId {
        self.target()
    }
    fn dag_distances(&self) -> &[f64] {
        self.distances()
    }
    fn dag_successors(&self, u: NodeId) -> &[EdgeId] {
        self.successors(u)
    }
    fn dag_order_desc(&self) -> &[NodeId] {
        self.nodes_by_decreasing_distance()
    }
}

impl DagAccess for DagRef<'_> {
    #[inline]
    fn dag_target(&self) -> NodeId {
        self.target()
    }
    #[inline]
    fn dag_distances(&self) -> &[f64] {
        self.distances()
    }
    #[inline]
    fn dag_successors(&self, u: NodeId) -> &[EdgeId] {
        self.successors(u)
    }
    #[inline]
    fn dag_order_desc(&self) -> &[NodeId] {
        self.nodes_by_decreasing_distance()
    }
}

impl<T: DagAccess + ?Sized> DagAccess for &T {
    fn dag_target(&self) -> NodeId {
        (**self).dag_target()
    }
    fn dag_distances(&self) -> &[f64] {
        (**self).dag_distances()
    }
    fn dag_successors(&self, u: NodeId) -> &[EdgeId] {
        (**self).dag_successors(u)
    }
    fn dag_order_desc(&self) -> &[NodeId] {
        (**self).dag_order_desc()
    }
}

/// One destination's mutable arena slices — the unit of work a worker
/// runs through its scratch.
struct DagTask<'a> {
    target: NodeId,
    dist: &'a mut [f64],
    succ_off: &'a mut [u32],
    succ: &'a mut [EdgeId],
    order: &'a mut [NodeId],
    order_len: &'a mut u32,
}

impl DagSet {
    /// Destination `i`'s mutable arena slices, for every `i` in order.
    fn tasks(&mut self) -> impl Iterator<Item = DagTask<'_>> {
        let (n, m_block) = (self.n, self.m_block);
        self.dist
            .chunks_mut(n)
            .zip(self.succ_off.chunks_mut(n + 1))
            .zip(self.succ.chunks_mut(m_block))
            .zip(self.order.chunks_mut(n))
            .zip(self.order_len.iter_mut())
            .zip(self.dests.iter())
            .map(
                |(((((dist, succ_off), succ), order), order_len), &t)| DagTask {
                    target: t,
                    dist,
                    succ_off,
                    succ,
                    order,
                    order_len,
                },
            )
    }
}

/// Runs `run(scratch, task)` over `count` tasks with one Dijkstra scratch
/// per worker: all through one scratch when `par` keeps the batch
/// sequential, else one contiguous chunk of tasks per worker.
fn fan_out<T: Send>(
    ws: &mut RoutingWorkspace,
    par: Parallelism,
    (n, m): (usize, usize),
    count: usize,
    mut tasks: impl Iterator<Item = T>,
    run: impl Fn(&mut SlotScratch, T) + Sync,
) {
    let workers = if par.decide(count, n + m) {
        rayon::current_num_threads().min(count)
    } else {
        1
    };
    let slots = ws.ensure(workers.max(1), n, m);
    if workers <= 1 {
        let scratch = &mut slots[0];
        for task in tasks {
            run(scratch, task);
        }
        return;
    }
    let chunk = count.div_ceil(workers);
    slots
        .iter_mut()
        .map(|scratch| (scratch, tasks.by_ref().take(chunk).collect::<Vec<T>>()))
        .collect::<Vec<_>>()
        .into_par_iter()
        .for_each(|(scratch, chunk)| {
            for task in chunk {
                run(scratch, task);
            }
        });
}

/// Builds the shortest-path DAGs of every destination in `dests` into
/// `out`, reusing `ws` scratch and `in_csr` adjacency.
///
/// Semantically equivalent to calling [`ShortestPathDag::build`] per
/// destination — the results are bit-identical, including tie-breaking —
/// but weights are validated once, nothing is allocated in the steady
/// state, and large batches fan out across worker threads.
///
/// `in_csr` must be [`Csr::in_of`] of `graph`.
///
/// # Errors
///
/// Same conditions as [`ShortestPathDag::build`]: invalid weights or
/// tolerance, or a destination out of range.
#[allow(clippy::too_many_arguments)]
pub fn build_dag_set(
    graph: &Graph,
    in_csr: &Csr,
    weights: &[f64],
    dests: &[NodeId],
    tol: f64,
    par: Parallelism,
    ws: &mut RoutingWorkspace,
    out: &mut DagSet,
) -> Result<(), GraphError> {
    validate_dag_inputs(graph, weights, dests, tol)?;
    let n = graph.node_count();
    let m = graph.edge_count();
    out.prepare(dests, n, m, tol);
    fan_out(
        ws,
        par,
        (n, m),
        dests.len(),
        out.tasks(),
        |scratch, task| build_one_dag(graph, in_csr, weights, tol, scratch, task),
    );
    Ok(())
}

/// The input validation of [`build_dag_set`], exposed so the incremental
/// rebuild path in higher layers can reject bad inputs with **identical**
/// errors (and in the identical order) to a dense build before deciding
/// which destinations to rebuild.
///
/// # Errors
///
/// Same conditions as [`ShortestPathDag::build`]: invalid weights or
/// tolerance, or a destination out of range.
pub fn validate_dag_inputs(
    graph: &Graph,
    weights: &[f64],
    dests: &[NodeId],
    tol: f64,
) -> Result<(), GraphError> {
    if !tol.is_finite() || tol < 0.0 {
        return Err(GraphError::InvalidTolerance { tolerance: tol });
    }
    validate_weights(graph.edge_count(), weights)?;
    let n = graph.node_count();
    for &t in dests {
        if t.index() >= n {
            return Err(GraphError::NodeOutOfRange { node: t, nodes: n });
        }
    }
    Ok(())
}

/// Rebuilds **only the flagged destination slots** of `out` in place under
/// `weights`, leaving every other slot's arenas untouched — the delta step
/// of the incremental SPF path.
///
/// `out` must hold a DAG set previously built by [`build_dag_set`] over
/// the same graph with the same destination list and tolerance; `dirty`
/// is one flag per destination slot. Each rebuilt slot runs the exact
/// same Dijkstra + classification as a dense build (`build_one_dag`
/// over the slot's own arena slices), so a rebuilt slot is bit-identical
/// to what a dense [`build_dag_set`] call would produce for it. The
/// *caller* is responsible for flagging every destination whose DAG could
/// change under the new weights — clean slots are trusted as-is.
///
/// Inputs are assumed pre-validated via [`validate_dag_inputs`] (the
/// weights are revalidated defensively, since stale weights here would
/// silently corrupt the arena).
///
/// # Errors
///
/// Propagates weight validation failures.
///
/// # Panics
///
/// Panics if `dirty` is misaligned with `out`'s destinations or `out`'s
/// geometry does not match `graph`.
#[allow(clippy::too_many_arguments)]
pub fn rebuild_dag_set_slots(
    graph: &Graph,
    in_csr: &Csr,
    weights: &[f64],
    dirty: &[bool],
    par: Parallelism,
    ws: &mut RoutingWorkspace,
    out: &mut DagSet,
) -> Result<(), GraphError> {
    validate_weights(graph.edge_count(), weights)?;
    let n = graph.node_count();
    let m = graph.edge_count();
    let d = out.dests.len();
    assert_eq!(dirty.len(), d, "one dirty flag per destination slot");
    assert_eq!(out.n, n, "DAG set node geometry matches the graph");
    assert_eq!(out.m_block, m.max(1), "DAG set edge geometry matches");
    let tol = out.tol;
    let dirty_count = dirty.iter().filter(|&&b| b).count();
    let tasks = out
        .tasks()
        .zip(dirty)
        .filter_map(|(task, &flag)| flag.then_some(task));
    fan_out(ws, par, (n, m), dirty_count, tasks, |scratch, task| {
        build_one_dag(graph, in_csr, weights, tol, scratch, task)
    });
    Ok(())
}

/// Per-destination DAG build into arena slices. Produces the same values
/// as the legacy [`ShortestPathDag::build`], bit for bit, with every
/// ordering identical. Distances and edge classification follow the
/// legacy steps; the processing order is derived instead of sorted: the
/// reversed settle order of [`dijkstra_csr`] is already by decreasing
/// distance, so only its runs of equal distance are sorted by node id.
fn build_one_dag(
    graph: &Graph,
    in_csr: &Csr,
    weights: &[f64],
    tol: f64,
    scratch: &mut SlotScratch,
    task: DagTask<'_>,
) {
    let n = graph.node_count();
    let m = graph.edge_count();
    let DagTask {
        target,
        dist,
        succ_off,
        succ,
        order,
        order_len,
    } = task;

    let len = dijkstra_csr(in_csr, weights, target, dist, order, scratch);

    // Classify edges (in id order, exactly like the legacy path) into the
    // worker's membership scratch and count successors per node.
    let on_dag = &mut scratch.on_dag[..m];
    on_dag.fill(false);
    scratch.cursor[..n].fill(0);
    for (e, u, v) in graph.edges() {
        let (du, dv) = (dist[u.index()], dist[v.index()]);
        if !du.is_finite() || !dv.is_finite() {
            continue;
        }
        let slack = weights[e.index()] + dv - du;
        if slack <= tol && dv < du {
            on_dag[e.index()] = true;
            scratch.cursor[u.index()] += 1;
        }
    }
    // Prefix sums -> block-relative CSR offsets; cursor becomes the fill
    // position of each node. The total is at most `m`, which `prepare`
    // checked fits the 4-byte offsets.
    succ_off[0] = 0;
    let mut filled = 0;
    for u in 0..n {
        let count = scratch.cursor[u];
        scratch.cursor[u] = filled;
        filled += count;
        succ_off[u + 1] = filled as u32;
    }
    for (e, u, _) in graph.edges() {
        if on_dag[e.index()] {
            succ[scratch.cursor[u.index()]] = e;
            scratch.cursor[u.index()] += 1;
        }
    }

    // Reachable nodes by decreasing distance, id-tiebroken. Dijkstra
    // settled exactly the reachable nodes in non-decreasing distance, so
    // reversing the settle order leaves only the runs of equal distance
    // to sort: a zero weight (or one lost to rounding) can settle a node
    // after an equal-distance node with a larger id.
    *order_len = len as u32;
    let order = &mut order[..len];
    order.reverse();
    for run in order.chunk_by_mut(|a, b| dist[a.index()] == dist[b.index()]) {
        run.sort_unstable();
    }
}

/// Dijkstra toward `origin` over the in-edge CSR, writing distances into
/// `dist` and the nodes, in the order they are settled, into the front of
/// `settled`; returns how many were settled. Weights are assumed
/// pre-validated. Pops and relaxations follow the legacy
/// [`crate::distances_to`] exactly, so the distances are the same values,
/// bit for bit.
///
/// Weights are non-negative and float addition is monotone, so every
/// entry pushed is no smaller than the one just popped: nodes are settled
/// in non-decreasing distance, each exactly once, and the settled nodes
/// are exactly those with a finite distance.
fn dijkstra_csr(
    in_csr: &Csr,
    weights: &[f64],
    origin: NodeId,
    dist: &mut [f64],
    settled: &mut [NodeId],
    scratch: &mut SlotScratch,
) -> usize {
    dist.fill(f64::INFINITY);
    scratch.settled.fill(false);
    scratch.heap.clear();
    dist[origin.index()] = 0.0;
    scratch.heap.push(HeapEntry {
        dist: 0.0,
        node: origin,
    });
    let mut len = 0;
    while let Some(HeapEntry { dist: d, node: u }) = scratch.heap.pop() {
        if scratch.settled[u.index()] {
            continue;
        }
        scratch.settled[u.index()] = true;
        settled[len] = u;
        len += 1;
        for &(e, v) in in_csr.neighbors(u) {
            let nd = d + weights[e.index()];
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                scratch.heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn near_tie(eps: f64) -> (Graph, Vec<f64>) {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        (g, vec![1.0, 1.0 + eps, 1.0, 1.0])
    }

    fn build_all(g: &Graph, w: &[f64], dests: &[NodeId], tol: f64, par: Parallelism) -> DagSet {
        let csr = Csr::in_of(g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DagSet::new();
        build_dag_set(g, &csr, w, dests, tol, par, &mut ws, &mut set).unwrap();
        set
    }

    #[test]
    fn matches_legacy_on_near_tie() {
        let (g, w) = near_tie(0.1);
        for tol in [0.0, 0.3] {
            let dests: Vec<NodeId> = g.nodes().collect();
            let set = build_all(&g, &w, &dests, tol, Parallelism::Never);
            for (i, &t) in dests.iter().enumerate() {
                let legacy = ShortestPathDag::build(&g, &w, t, tol).unwrap();
                let view = set.dag(i);
                let owned = set.to_shortest_path_dag(i, &g);
                assert_eq!(view.distances(), legacy.distances(), "dist to {t}");
                for u in g.nodes() {
                    assert_eq!(view.successors(u), legacy.successors(u), "succ {u} -> {t}");
                    assert_eq!(owned.path_count(u), legacy.path_count(u));
                }
                assert_eq!(
                    view.nodes_by_decreasing_distance(),
                    legacy.nodes_by_decreasing_distance()
                );
                for e in g.edge_ids() {
                    assert_eq!(owned.contains_edge(e), legacy.contains_edge(e));
                }
            }
        }
    }

    #[test]
    fn parallel_schedule_is_bit_identical() {
        let (g, w) = near_tie(0.05);
        let dests: Vec<NodeId> = g.nodes().collect();
        let serial = build_all(&g, &w, &dests, 0.1, Parallelism::Never);
        let parallel = build_all(&g, &w, &dests, 0.1, Parallelism::Always);
        assert_eq!(serial.dist, parallel.dist);
        assert_eq!(serial.succ_off, parallel.succ_off);
        assert_eq!(serial.succ, parallel.succ);
        assert_eq!(serial.order, parallel.order);
    }

    #[test]
    fn workspace_reuse_across_calls() {
        let (g, w) = near_tie(0.0);
        let csr = Csr::in_of(&g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DagSet::new();
        let dests: Vec<NodeId> = g.nodes().collect();
        for _ in 0..3 {
            build_dag_set(
                &g,
                &csr,
                &w,
                &dests,
                0.0,
                Parallelism::Auto,
                &mut ws,
                &mut set,
            )
            .unwrap();
            assert_eq!(set.len(), 4);
            assert_eq!(set.dag(3).distance(0.into()), 2.0);
        }
        // Shrinking the destination set reuses the same arenas.
        build_dag_set(
            &g,
            &csr,
            &w,
            &dests[..1],
            0.0,
            Parallelism::Auto,
            &mut ws,
            &mut set,
        )
        .unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn materialised_dag_matches_legacy() {
        let (g, w) = near_tie(0.1);
        let set = build_all(&g, &w, &[NodeId::new(3)], 0.3, Parallelism::Never);
        let owned = set.to_shortest_path_dag(0, &g);
        let legacy = ShortestPathDag::build(&g, &w, 3.into(), 0.3).unwrap();
        assert_eq!(owned.distances(), legacy.distances());
        for u in g.nodes() {
            assert_eq!(owned.successors(u), legacy.successors(u));
            assert_eq!(owned.predecessors(u), legacy.predecessors(u));
            assert_eq!(owned.path_count(u), legacy.path_count(u));
        }
        for e in g.edge_ids() {
            assert_eq!(owned.contains_edge(e), legacy.contains_edge(e));
        }
        assert_eq!(
            owned.nodes_by_decreasing_distance(),
            legacy.nodes_by_decreasing_distance()
        );
    }

    #[test]
    fn rejects_bad_inputs_like_legacy() {
        let (g, w) = near_tie(0.0);
        let csr = Csr::in_of(&g);
        let mut ws = RoutingWorkspace::new();
        let mut set = DagSet::new();
        let run = |w: &[f64], dests: &[NodeId], tol: f64| {
            let mut ws2 = RoutingWorkspace::new();
            let mut set2 = DagSet::new();
            build_dag_set(
                &g,
                &csr,
                w,
                dests,
                tol,
                Parallelism::Auto,
                &mut ws2,
                &mut set2,
            )
        };
        assert!(matches!(
            run(&w[..2], &[NodeId::new(0)], 0.0),
            Err(GraphError::WeightCount { .. })
        ));
        assert!(matches!(
            run(&[1.0, -2.0, 1.0, 1.0], &[NodeId::new(0)], 0.0),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            run(&w, &[NodeId::new(17)], 0.0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert_eq!(
            run(&w, &[NodeId::new(0)], -0.5),
            Err(GraphError::InvalidTolerance { tolerance: -0.5 })
        );
        for tol in [-0.5, f64::INFINITY] {
            assert!(matches!(
                ShortestPathDag::build(&g, &w, NodeId::new(0), tol),
                Err(GraphError::InvalidTolerance { .. })
            ));
        }
        // Empty destination set is fine.
        build_dag_set(&g, &csr, &w, &[], 0.0, Parallelism::Auto, &mut ws, &mut set).unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn slot_rebuild_matches_dense_build() {
        let (g, w) = near_tie(0.1);
        let csr = Csr::in_of(&g);
        let dests: Vec<NodeId> = g.nodes().collect();
        let mut ws = RoutingWorkspace::new();
        let mut set = DagSet::new();
        build_dag_set(
            &g,
            &csr,
            &w,
            &dests,
            0.0,
            Parallelism::Never,
            &mut ws,
            &mut set,
        )
        .unwrap();

        // Perturb one weight and rebuild only slots 1 and 3 in place.
        let mut w2 = w.clone();
        w2[1] = 0.25;
        let dirty = [false, true, false, true];
        rebuild_dag_set_slots(&g, &csr, &w2, &dirty, Parallelism::Never, &mut ws, &mut set)
            .unwrap();

        // Dense references under both weight vectors.
        let old = build_all(&g, &w, &dests, 0.0, Parallelism::Never);
        let new = build_all(&g, &w2, &dests, 0.0, Parallelism::Never);
        for (i, _) in dests.iter().enumerate() {
            let reference = if dirty[i] { new.dag(i) } else { old.dag(i) };
            let view = set.dag(i);
            assert_eq!(view.distances(), reference.distances(), "slot {i}");
            for u in g.nodes() {
                assert_eq!(view.successors(u), reference.successors(u));
            }
            assert_eq!(
                view.nodes_by_decreasing_distance(),
                reference.nodes_by_decreasing_distance()
            );
        }
    }

    #[test]
    fn edgeless_graph_is_handled() {
        let g = Graph::with_nodes(3);
        let set = build_all(&g, &[], &[NodeId::new(1)], 0.0, Parallelism::Never);
        let view = set.dag(0);
        assert_eq!(view.distance(1.into()), 0.0);
        assert!(!view.reaches_target(0.into()));
        assert_eq!(view.nodes_by_decreasing_distance(), &[NodeId::new(1)]);
        assert_eq!(set.successor_total(), 0);
        assert_eq!(set.to_shortest_path_dag(0, &g).path_count(1.into()), 1);
    }
}
