//! `TrafficDistribution` — Algorithm 3 of the paper.
//!
//! Given the per-destination shortest-path DAGs `ON_t` (built from the
//! *first* link weights) and a split rule, this module computes the exact
//! link flows that hop-by-hop forwarding produces:
//!
//! * [`SplitRule::EvenEcmp`] — the OSPF baseline: traffic toward `t`
//!   splits evenly over all equal-cost shortest *paths*, so a next hop's
//!   share is proportional to its number of shortest paths to `t` (the
//!   exponential rule at `v = 0`) — not an even share per next hop;
//! * [`SplitRule::Exponential`] — SPEF behaviour (Eq. 22): traffic splits
//!   over next hops proportionally to `Σ_paths e^(−len₂(path))` where
//!   `len₂` is the path length under the *second* weights.
//!
//! The paper's TABLE II materialises, per (router, destination), the list
//! of second-weight path lengths through each next hop; enumerating paths
//! is exponential, so we instead evaluate the identical quantity with the
//! DAG recursion
//!
//! ```text
//! Z_t(t) = 1,   Z_t(u) = Σ_{(u,x) ∈ ON_t} e^(−v_ux) · Z_t(x)
//! ```
//!
//! giving `Γ_t(s, k) ∝ e^(−v_{s,n_k}) · Z_t(n_k)` — exactly Eq. (22),
//! computed in `O(|J|)` per destination. Each `Z_t(u)` is carried as a
//! log offset and a linear scale, `Z_t(u) = e^(o(u)) · s(u)` with
//! `s(u) ≥ 1`, so no product of path weights over- or underflows. A row over
//! successors `x_i` takes terms `a_i = −v_{u,x_i} + o(x_i)` and their max
//! `A`, weighs each next hop `w_i = s(x_i) · e^(a_i − A)`, and sets
//! `Γ_i = w_i / Σw`, `o(u) = A` and `s(u) = Σw`: a `k`-way row makes at
//! most `k − 1` `exp` calls and no `ln`. The scale is folded into the
//! offset only past `1e150` ([`SplitTable::log_path_sum`] and the fold are
//! the only `ln` calls).
//!
//! Nodes are processed "in the decreasing distance order" exactly as
//! Algorithm 3 prescribes, so each node's incoming flow
//! `d̄_st = d_st + Σ_{(j,s)} f^t_js` is complete before its outgoing flow
//! is assigned.
//!
//! Two execution paths produce the same values, bit for bit:
//!
//! * the **reference per-destination path** ([`ShortestPathDag::build`]
//!   → [`SplitTable::build`]) with owned DAGs and tables — the readable
//!   version the equivalence tests compare against;
//! * the **batched path** ([`crate::RoutingEngine`]) where DAGs and flows
//!   live in flat reusable arenas, split tables stream one destination at
//!   a time through a reusable one-destination [`SplitTableSet`], and a
//!   solver iteration performs zero steady-state allocations.
//!
//! The batched path skips work whose result is fixed before it runs. A
//! split row with one successor copies its successor's path sum and gets
//! ratio `1.0` with no call, and a term equal to its row's max weighs its
//! successor's scale with no `exp`, which is what `s · exp(0)` evaluates
//! to (IEEE 754 fixes `exp(±0) = 1`). So an even-ECMP row makes no call at
//! all, and its ratios are quotients of path counts, correctly rounded
//! while the counts stay below `2^53`. Its DAGs take the processing order
//! from Dijkstra's settle order, which is already by distance, and sort
//! only the runs of equal distance by node id ([`spef_graph::batch`]). The
//! public wrappers here ([`build_dags`], [`traffic_distribution`]) ride
//! the batched engine, and both DAG storages go through one distribution
//! kernel, generic over [`DagAccess`].

use std::borrow::Borrow;

use spef_graph::batch::{build_dag_set, DagAccess, DagSet, Parallelism, RoutingWorkspace};
use spef_graph::{Csr, EdgeId, Graph, GraphError, NodeId, ShortestPathDag};
use spef_topology::TrafficMatrix;

use crate::SpefError;

/// How a router splits traffic across the equal-cost next hops of one
/// destination.
#[derive(Debug, Clone, Copy)]
pub enum SplitRule<'a> {
    /// ECMP as the OSPF baseline models it: an even split over all
    /// equal-cost shortest **paths**. A next hop with `k` shortest paths to
    /// the destination gets `k` shares, so this is not the per-next-hop
    /// even split a router's hash-based ECMP performs. It is the
    /// exponential rule at `v = 0`: every row term is `0`, so a next hop's
    /// ratio is its path count over the row's, one division with no `exp`.
    EvenEcmp,
    /// SPEF: exponential split driven by the second link weights
    /// (one `f64` per edge).
    Exponential(&'a [f64]),
}

/// Once a path sum's scale passes this bound, [`PathSum::settle`] folds
/// `ln scale` into the offset and resets the scale to `1`, so scales stay
/// in `[1, 1e150]`. A row term `s(x) · e^(a − A)` whose `exp` falls below
/// the smallest normal `f64` (2.2e-308, where it starts to lose bits and,
/// past `e^(−745)`, underflows to `0`) then weighs at most
/// `1e150 · 2.2e-308 ≈ 2.2e-158` against a row sum of at least `1` (the
/// max term's scale): far below ε = 2.2e-16 of its row. A row of `k` terms
/// sums to at most `k · 1e150`, far from overflow. A scale never
/// exceeds its node's path count, so a fold, and its `ln`, runs only past
/// `1e150 ≈ 2^498` paths.
const SCALE_FOLD: f64 = 1e150;

/// One node's path sum `Z_t(u) = e^offset · scale`: the split kernel's
/// per-node state (see the module doc).
#[derive(Debug, Clone, Copy)]
struct PathSum {
    offset: f64,
    scale: f64,
}

impl PathSum {
    /// `Z_t(t) = 1`: the target's one path has length `0`.
    const TARGET: PathSum = PathSum {
        offset: 0.0,
        scale: 1.0,
    };

    /// `Z = 0` (`log Z = −∞`): a node with no path to the target.
    const UNREACHED: PathSum = PathSum {
        offset: f64::NEG_INFINITY,
        scale: 1.0,
    };

    /// The sum of a row whose largest term is `max` and whose weights
    /// `s(x_i) · e^(a_i − max)` total `total`, with the scale folded into
    /// the offset past [`SCALE_FOLD`].
    fn settle(max: f64, total: f64) -> PathSum {
        if total > SCALE_FOLD {
            PathSum {
                offset: max + total.ln(),
                scale: 1.0,
            }
        } else {
            PathSum {
                offset: max,
                scale: total,
            }
        }
    }

    /// `log Z = offset + ln scale`.
    fn log(self) -> f64 {
        self.offset + self.scale.ln()
    }
}

/// Per-destination split ratios on a shortest-path DAG, plus the path sums
/// `Z_t(u)` whose logs the NEM dual objective reads.
///
/// The readable reference for [`SplitTableSet`]'s rows: it computes every
/// row the same way, including the `exp` calls the batched kernel skips
/// because their result is fixed, so the two agree bit for bit.
#[derive(Debug, Clone)]
pub struct SplitTable {
    /// `ratios[u]` lists `(edge, fraction)` for every DAG successor edge of
    /// `u`; fractions sum to 1 for reachable non-target nodes.
    ratios: Vec<Vec<(EdgeId, f64)>>,
    /// `Σ_paths e^(−len₂(path))` from each node to the target (`1` at the
    /// target, `0` when unreachable). Under [`SplitRule::EvenEcmp`] the
    /// convention `v = 0` applies, so this counts the paths.
    sums: Vec<PathSum>,
}

impl SplitTable {
    /// Builds the split table for one destination DAG.
    ///
    /// # Errors
    ///
    /// Returns [`SpefError::InvalidInput`] if an [`SplitRule::Exponential`]
    /// weight vector has the wrong length or contains negative/NaN entries.
    pub fn build(
        graph: &Graph,
        dag: &ShortestPathDag,
        rule: SplitRule<'_>,
    ) -> Result<SplitTable, SpefError> {
        validate_rule(graph, rule)?;

        let n = graph.node_count();
        let mut ratios = vec![Vec::new(); n];
        let mut sums = vec![PathSum::UNREACHED; n];
        sums[dag.target().index()] = PathSum::TARGET;

        // Increasing distance: reverse of the decreasing-distance order.
        for &u in dag.nodes_by_decreasing_distance().iter().rev() {
            if u == dag.target() {
                continue;
            }
            let succ = dag.successors(u);
            if succ.is_empty() {
                continue; // stranded node; caught later only if it has demand
            }
            // Per-successor terms: -v_e + o(next).
            let terms: Vec<(EdgeId, PathSum, f64)> = succ
                .iter()
                .map(|&e| {
                    let x = sums[graph.target(e).index()];
                    let v_e = match rule {
                        SplitRule::EvenEcmp => 0.0,
                        SplitRule::Exponential(v) => v[e.index()],
                    };
                    (e, x, -v_e + x.offset)
                })
                .collect();
            let max_term = terms
                .iter()
                .map(|&(_, _, a)| a)
                .fold(f64::NEG_INFINITY, f64::max);
            if max_term == f64::NEG_INFINITY {
                continue; // all successors stranded
            }
            let weights: Vec<(EdgeId, f64)> = terms
                .into_iter()
                .map(|(e, x, a)| (e, x.scale * (a - max_term).exp()))
                .collect();
            let total = weights.iter().fold(0.0, |acc, &(_, w)| acc + w);
            sums[u.index()] = PathSum::settle(max_term, total);
            ratios[u.index()] = weights.into_iter().map(|(e, w)| (e, w / total)).collect();
        }

        Ok(SplitTable { ratios, sums })
    }

    /// The `(edge, fraction)` next-hop entries of node `u` — one row of the
    /// paper's TABLE II forwarding table, already reduced to split ratios.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn next_hops(&self, u: NodeId) -> &[(EdgeId, f64)] {
        &self.ratios[u.index()]
    }

    /// `log Σ_k e^(−v^r_k)` over all equal-cost shortest paths from `u` to
    /// the target — the per-pair partition function of the NEM dual
    /// (`0` at the target, `−∞` when unreachable), computed on demand
    /// from the stored offset and scale.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn log_path_sum(&self, u: NodeId) -> f64 {
        self.sums[u.index()].log()
    }
}

/// Split tables for a run of destinations, stored as flat arenas.
///
/// The batched analogue of `Vec<SplitTable>`: per-destination rows live in
/// contiguous blocks of shared vectors, reused across calls so the NEM /
/// Frank–Wolfe iteration loops allocate nothing in the steady state.
/// Access per-destination views through [`SplitTableSet::table`].
///
/// The routing paths ([`crate::RoutingEngine::distribute_into`], NEM, the
/// FIB builds) hold one destination's table at a time: `n` spans, `n`
/// path sums (a log offset and a scale each) and at most `m` entries. Only
/// [`crate::RoutingEngine::build_split_tables`] fills one table per
/// destination.
#[derive(Debug, Clone, Default)]
pub struct SplitTableSet {
    n: usize,
    count: usize,
    /// `(start, len)` into `entries` per `(dest, node)` — spans rather than
    /// prefix offsets because rows are produced in decreasing-distance
    /// order, not node-id order.
    spans: Vec<(usize, usize)>,
    entries: Vec<(EdgeId, f64)>,
    /// `Z_t(u)` per `(dest, node)`.
    sums: Vec<PathSum>,
}

impl SplitTableSet {
    /// Creates an empty set; arenas grow on first use.
    pub fn new() -> SplitTableSet {
        SplitTableSet::default()
    }

    /// Number of destinations covered.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` if the set covers no destinations.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// A cheap view of destination `i`'s split table.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn table(&self, i: usize) -> SplitTableRef<'_> {
        assert!(i < self.count, "table index {i} out of range");
        SplitTableRef {
            spans: &self.spans[i * self.n..(i + 1) * self.n],
            entries: &self.entries,
            sums: &self.sums[i * self.n..(i + 1) * self.n],
        }
    }

    pub(crate) fn reset(&mut self, n: usize) {
        self.n = n;
        self.count = 0;
        self.spans.clear();
        self.entries.clear();
        self.sums.clear();
    }

    /// Bytes currently reserved by the split-table arenas (capacity, not
    /// length) — a high-water mark, since `Vec` capacity never shrinks
    /// across `reset` calls.
    pub fn arena_bytes(&self) -> usize {
        self.spans.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.entries.capacity() * std::mem::size_of::<(EdgeId, f64)>()
            + self.sums.capacity() * std::mem::size_of::<PathSum>()
    }

    /// Appends the split table of one destination DAG: the same ratios
    /// and path sums as [`SplitTable::build`], bit for bit (see
    /// [`SplitTableSet::build_block`] for the calls it skips). The rule's
    /// weight vector must be pre-validated.
    pub(crate) fn push_table<D: DagAccess>(&mut self, graph: &Graph, dag: &D, rule: SplitRule<'_>) {
        let n = self.n;
        let span_base = self.spans.len();
        self.spans.resize(span_base + n, (0, 0));
        self.sums.resize(span_base + n, PathSum::UNREACHED);
        // Each DAG edge is one entry, so a table holds at most `m`: room
        // for that many keeps a one-destination table at exactly `m`.
        self.entries.reserve(graph.edge_count());
        self.build_block(self.count, graph, dag, rule);
        self.count += 1;
    }

    /// The row-construction body of [`SplitTableSet::push_table`]: fills
    /// block `block`'s spans and path sums (which must already be
    /// cleared) by appending entry rows with the same values as
    /// [`SplitTable::build`], bit for bit.
    ///
    /// A row over successors `x_i` with terms `a_i = −v_i + o(x_i)` and
    /// max `A` weighs `w_i = s(x_i) · e^(a_i − A)`, sets `Γ_i = w_i / Σw`
    /// and stores `Z(u)` as offset `A` and scale `Σw`. It skips the `exp`
    /// calls whose results are fixed, since `exp(±0) = 1` exactly
    /// (IEEE 754, C99 Annex F):
    ///
    /// * a row with one successor takes its one term as offset, its
    ///   successor's scale as scale, and ratio `1.0`: what `s · exp(0)`,
    ///   `s / s` and the unfolded settle evaluate to;
    /// * in a longer row, a term equal to the max weighs its successor's
    ///   scale as it is, so a `k`-way row makes at most `k − 1` calls and
    ///   an even-ECMP row (every term `0` below the first fold) none.
    ///
    /// No row calls `ln` unless its sum passes [`SCALE_FOLD`].
    fn build_block<D: DagAccess>(
        &mut self,
        block: usize,
        graph: &Graph,
        dag: &D,
        rule: SplitRule<'_>,
    ) {
        let base = block * self.n;
        let spans = &mut self.spans[base..base + self.n];
        let sums = &mut self.sums[base..base + self.n];
        let entries = &mut self.entries;
        let second = |e: EdgeId| match rule {
            SplitRule::EvenEcmp => 0.0,
            SplitRule::Exponential(v) => v[e.index()],
        };
        let target = dag.dag_target();
        sums[target.index()] = PathSum::TARGET;

        for &u in dag.dag_order_desc().iter().rev() {
            if u == target {
                continue;
            }
            let succ = dag.dag_successors(u);
            let start = entries.len();
            if let [e] = *succ {
                let x = sums[graph.target(e).index()];
                let a = -second(e) + x.offset;
                if a == f64::NEG_INFINITY {
                    continue; // stranded successor, or a `+∞` second weight
                }
                sums[u.index()] = PathSum {
                    offset: a,
                    scale: x.scale,
                };
                entries.push((e, 1.0));
                spans[u.index()] = (start, 1);
                continue;
            }
            let mut max_term = f64::NEG_INFINITY;
            for &e in succ {
                let a = -second(e) + sums[graph.target(e).index()].offset;
                max_term = max_term.max(a);
                entries.push((e, a));
            }
            if max_term == f64::NEG_INFINITY {
                entries.truncate(start);
                continue; // no usable successor
            }
            let mut total = 0.0;
            for slot in &mut entries[start..] {
                let scale = sums[graph.target(slot.0).index()].scale;
                slot.1 = if slot.1 == max_term {
                    scale
                } else {
                    scale * (slot.1 - max_term).exp()
                };
                total += slot.1;
            }
            for slot in &mut entries[start..] {
                slot.1 /= total;
            }
            sums[u.index()] = PathSum::settle(max_term, total);
            spans[u.index()] = (start, succ.len());
        }
    }
}

/// A borrowed view of one destination's split table inside a
/// [`SplitTableSet`]; mirrors the accessor surface of [`SplitTable`].
#[derive(Debug, Clone, Copy)]
pub struct SplitTableRef<'a> {
    spans: &'a [(usize, usize)],
    entries: &'a [(EdgeId, f64)],
    sums: &'a [PathSum],
}

impl<'a> SplitTableRef<'a> {
    /// The `(edge, fraction)` next-hop entries of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn next_hops(&self, u: NodeId) -> &'a [(EdgeId, f64)] {
        let (start, len) = self.spans[u.index()];
        &self.entries[start..start + len]
    }

    /// `log Σ_k e^(−v^r_k)` from `u` to the target, as
    /// [`SplitTable::log_path_sum`] computes it.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn log_path_sum(&self, u: NodeId) -> f64 {
        self.sums[u.index()].log()
    }
}

/// Reusable scratch for the distribution kernel: the per-destination
/// demand column and in-transit flow accumulator.
#[derive(Debug, Default)]
pub(crate) struct DistScratch {
    pub(crate) demands: Vec<f64>,
    pub(crate) incoming: Vec<f64>,
}

impl DistScratch {
    pub(crate) fn arena_bytes(&self) -> usize {
        (self.demands.capacity() + self.incoming.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Monotone counter behind [`Flows`] freshness stamps: each successful
/// engine distribution stamps its output buffer with a fresh value, and
/// any mutation clears the stamp — so a stamp match proves the buffer
/// still holds exactly the columns the engine last wrote (the
/// precondition of the incremental re-distribution path, whose cache *is*
/// the caller's buffer).
static FLOW_STAMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

pub(crate) fn next_flow_stamp() -> u64 {
    FLOW_STAMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The flows produced by a traffic distribution: per-destination edge flows
/// and their aggregate.
#[derive(Debug, Clone, Default)]
pub struct Flows {
    dests: Vec<NodeId>,
    per_dest: Vec<Vec<f64>>,
    aggregate: Vec<f64>,
    /// Freshness stamp (see [`next_flow_stamp`]); `0` = unstamped. Every
    /// mutating method clears it; only the engine sets it. Excluded from
    /// equality — it is an identity token, not data.
    stamp: u64,
}

impl PartialEq for Flows {
    fn eq(&self, other: &Flows) -> bool {
        self.dests == other.dests
            && self.per_dest == other.per_dest
            && self.aggregate == other.aggregate
    }
}

impl Flows {
    /// The destinations (commodities), in ascending node order.
    pub fn destinations(&self) -> &[NodeId] {
        &self.dests
    }

    /// Edge flows of the commodity destined to `t`, if `t` is a commodity
    /// and the flows keep per-destination columns. NEM's flows (and so
    /// [`crate::SpefRouting::flows`]) keep only the aggregate, so this
    /// returns `None` for them.
    pub fn for_destination(&self, t: NodeId) -> Option<&[f64]> {
        self.dests
            .iter()
            .position(|&d| d == t)
            .and_then(|i| self.per_dest.get(i))
            .map(|f| f.as_slice())
    }

    /// Aggregate edge flows `f_e = Σ_t f^t_e`.
    pub fn aggregate(&self) -> &[f64] {
        &self.aggregate
    }

    /// Assembles a `Flows` value from per-destination flow vectors,
    /// computing the aggregate — the constructor external routing schemes
    /// (e.g. the PEFT baseline) use to interoperate with the metrics and
    /// simulator APIs.
    ///
    /// # Panics
    ///
    /// Panics if `per_dest` is misaligned with `dests` or the per-
    /// destination vectors have inconsistent lengths.
    pub fn assemble(dests: Vec<NodeId>, per_dest: Vec<Vec<f64>>, aggregate: Vec<f64>) -> Flows {
        assert_eq!(
            dests.len(),
            per_dest.len(),
            "one flow vector per destination"
        );
        for f in &per_dest {
            assert_eq!(f.len(), aggregate.len(), "flow vector length mismatch");
        }
        Flows {
            dests,
            per_dest,
            aggregate,
            stamp: 0,
        }
    }

    /// The freshness stamp (`0` = no engine distribution owns this
    /// buffer's contents).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Marks the buffer as holding exactly what an engine distribution
    /// just wrote. Only [`crate::RoutingEngine`] calls this.
    pub(crate) fn set_stamp(&mut self, stamp: u64) {
        self.stamp = stamp;
    }

    /// An empty flow set, ready to be shaped by [`Flows::reset`] — the
    /// starting point for reusable distribution buffers.
    pub(crate) fn empty() -> Flows {
        Flows {
            dests: Vec::new(),
            per_dest: Vec::new(),
            aggregate: Vec::new(),
            stamp: 0,
        }
    }

    /// Reshapes for `dests` over `m` edges and zeroes every vector,
    /// reusing existing allocations where the shape already matches.
    pub(crate) fn reset(&mut self, dests: &[NodeId], m: usize) {
        self.stamp = 0;
        if self.dests.as_slice() != dests {
            self.dests.clear();
            self.dests.extend_from_slice(dests);
        }
        if self.per_dest.len() != dests.len() {
            self.per_dest.resize_with(dests.len(), Vec::new);
        }
        for f in &mut self.per_dest {
            f.clear();
            f.resize(m, 0.0);
        }
        self.aggregate.clear();
        self.aggregate.resize(m, 0.0);
    }

    /// Reshapes for an **aggregate-only** distribution over `dests`:
    /// per-destination columns are dropped (freeing their arenas) and only
    /// the aggregate vector is kept, zeroed over `m` edges. NEM uses this:
    /// its projected-gradient step reads only the aggregate, so its flows
    /// take O(edges) instead of O(dests·edges).
    pub(crate) fn reset_aggregate(&mut self, dests: &[NodeId], m: usize) {
        self.stamp = 0;
        if self.dests.as_slice() != dests {
            self.dests.clear();
            self.dests.extend_from_slice(dests);
        }
        self.per_dest.clear();
        self.aggregate.clear();
        self.aggregate.resize(m, 0.0);
    }

    /// Disjoint mutable access to the per-destination columns and the
    /// aggregate vector, so a distribution writes each column while
    /// accumulating into the shared aggregate.
    pub(crate) fn parts_mut(&mut self) -> (&mut [Vec<f64>], &mut [f64]) {
        self.stamp = 0;
        (&mut self.per_dest, &mut self.aggregate)
    }

    /// Bytes currently reserved by the flow arenas (capacity, not length) —
    /// a high-water mark, since `Vec` capacity never shrinks across the
    /// reuse cycle.
    pub fn arena_bytes(&self) -> usize {
        self.dests.capacity() * std::mem::size_of::<NodeId>()
            + self.per_dest.capacity() * std::mem::size_of::<Vec<f64>>()
            + self
                .per_dest
                .iter()
                .map(|f| f.capacity() * std::mem::size_of::<f64>())
                .sum::<usize>()
            + self.aggregate.capacity() * std::mem::size_of::<f64>()
    }
}

/// Builds the per-destination shortest-path DAGs `ON = {ON_t}` for the
/// given first weights and Dijkstra tolerance.
///
/// Since the batched-engine rework this routes through the CSR engine
/// (validating the weights once and fanning destinations out in parallel
/// for large batches) and materialises owned DAGs at the end; results are
/// bit-identical to calling [`ShortestPathDag::build`] per destination.
/// Iterating callers should prefer [`crate::RoutingEngine`], which also
/// reuses the arenas across calls.
///
/// # Errors
///
/// Propagates [`GraphError`] for invalid weights.
pub fn build_dags(
    graph: &Graph,
    first_weights: &[f64],
    destinations: &[NodeId],
    tolerance: f64,
) -> Result<Vec<ShortestPathDag>, GraphError> {
    let in_csr = Csr::in_of(graph);
    let mut ws = RoutingWorkspace::new();
    let mut set = DagSet::new();
    build_dag_set(
        graph,
        &in_csr,
        first_weights,
        destinations,
        tolerance,
        Parallelism::Auto,
        &mut ws,
        &mut set,
    )?;
    Ok((0..set.len())
        .map(|i| set.to_shortest_path_dag(i, graph))
        .collect())
}

/// Algorithm 3: computes the traffic distribution induced by hop-by-hop
/// forwarding on the DAGs under the given split rule.
///
/// `dags` must be aligned with `traffic.destinations()` (use
/// [`build_dags`]).
///
/// # Errors
///
/// * [`SpefError::UnroutableDemand`] if a source with positive demand has
///   no next hop toward its destination,
/// * [`SpefError::InvalidInput`] if `dags` is misaligned with the traffic
///   matrix or the rule's weight vector is malformed.
pub fn traffic_distribution(
    graph: &Graph,
    dags: &[ShortestPathDag],
    traffic: &TrafficMatrix,
    rule: SplitRule<'_>,
) -> Result<Flows, SpefError> {
    let dests = traffic.destinations();
    let mut flows = Flows::empty();
    distribute_batch(
        graph,
        &dests,
        dags.iter(),
        traffic,
        rule,
        &mut SplitTableSet::new(),
        &mut DistScratch::default(),
        &mut flows,
    )?;
    Ok(flows)
}

/// Validates an [`SplitRule::Exponential`] weight vector: its length must
/// be the edge count and no entry may be negative or NaN. Batches call it
/// once rather than once per destination; [`SplitTable::build`] calls it
/// per table.
pub(crate) fn validate_rule(graph: &Graph, rule: SplitRule<'_>) -> Result<(), SpefError> {
    if let SplitRule::Exponential(v) = rule {
        if v.len() != graph.edge_count() {
            return Err(SpefError::InvalidInput(format!(
                "second weight vector has length {}, expected {}",
                v.len(),
                graph.edge_count()
            )));
        }
        if let Some((i, &w)) = v.iter().enumerate().find(|(_, &w)| w.is_nan() || w < 0.0) {
            return Err(SpefError::InvalidInput(format!(
                "second weight of edge e{i} is {w}"
            )));
        }
    }
    Ok(())
}

/// The shared distribution kernel behind [`traffic_distribution`] and the
/// engine's dense path: routes each destination in turn through the
/// one-destination split-table scratch `table` and writes the flows into
/// `out`, reusing all buffers. Generic over the DAG storage
/// ([`ShortestPathDag`] references or arena-backed
/// [`spef_graph::DagRef`]s); results are bit-identical either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn distribute_batch<D, I>(
    graph: &Graph,
    dests: &[NodeId],
    dags: I,
    traffic: &TrafficMatrix,
    rule: SplitRule<'_>,
    table: &mut SplitTableSet,
    scratch: &mut DistScratch,
    out: &mut Flows,
) -> Result<(), SpefError>
where
    D: DagAccess,
    I: IntoIterator<Item = D>,
    I::IntoIter: ExactSizeIterator,
{
    let dags = dags.into_iter();
    if dests.len() != dags.len() {
        return Err(SpefError::InvalidInput(format!(
            "{} DAGs supplied for {} destinations",
            dags.len(),
            dests.len()
        )));
    }
    validate_rule(graph, rule)?;
    out.reset(dests, graph.edge_count());
    let (columns, aggregate) = out.parts_mut();
    for ((dag, &t), column) in dags.zip(dests).zip(columns) {
        distribute_destination(
            graph, t, &dag, traffic, rule, table, scratch, column, aggregate,
        )?;
    }
    Ok(())
}

/// The one-destination buffers of [`distribute_streamed`]: one split
/// table, the kernel's scratch and one `m`-long flow column, reused across
/// destinations and calls.
#[derive(Debug, Default)]
pub(crate) struct StreamScratch {
    table: SplitTableSet,
    scratch: DistScratch,
    column: Vec<f64>,
}

impl StreamScratch {
    /// The `m`-long column, for a caller that needs one scratch column
    /// between passes (its contents are unspecified).
    pub(crate) fn column_mut(&mut self) -> &mut Vec<f64> {
        &mut self.column
    }

    /// Bytes of capacity: the table, the kernel scratch and the column.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.table.arena_bytes()
            + self.scratch.arena_bytes()
            + self.column.capacity() * std::mem::size_of::<f64>()
    }
}

/// One streamed Algorithm 3 pass, the loop NEM and Frank–Wolfe's target
/// share: each destination in turn (in `dests` order, ascending) is routed
/// through `stream`'s one split table into its one `m`-long column, the
/// column is folded into `aggregate`, and `per_dest` sees the destination's
/// DAG, column, split table and demand column before the next destination
/// overwrites them. These are [`distribute_batch`]'s operations in its
/// order, so `aggregate` and every column are bit-identical to its; only
/// what `per_dest` keeps of the columns survives.
///
/// `aggregate` must be zeroed and `m` long. `dags` may yield the DAGs or
/// references to them: the kernel sees `&D` either way, since one more
/// reference layer in its per-node loops costs NEM measurable time.
///
/// # Errors
///
/// Same conditions as [`distribute_batch`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn distribute_streamed<D: DagAccess, B: Borrow<D>>(
    graph: &Graph,
    dests: &[NodeId],
    dags: impl ExactSizeIterator<Item = B>,
    traffic: &TrafficMatrix,
    rule: SplitRule<'_>,
    stream: &mut StreamScratch,
    aggregate: &mut [f64],
    mut per_dest: impl FnMut(&D, &[f64], SplitTableRef<'_>, &[f64]),
) -> Result<(), SpefError> {
    if dags.len() != dests.len() {
        return Err(SpefError::InvalidInput(format!(
            "{} DAGs supplied for {} destinations",
            dags.len(),
            dests.len()
        )));
    }
    validate_rule(graph, rule)?;
    let m = graph.edge_count();
    for (dag, &t) in dags.zip(dests) {
        let dag = dag.borrow();
        stream.column.clear();
        stream.column.resize(m, 0.0);
        distribute_destination(
            graph,
            t,
            dag,
            traffic,
            rule,
            &mut stream.table,
            &mut stream.scratch,
            &mut stream.column,
            aggregate,
        )?;
        per_dest(
            dag,
            &stream.column,
            stream.table.table(0),
            &stream.scratch.demands,
        );
    }
    Ok(())
}

/// The per-destination body shared by [`distribute_batch`] and
/// [`distribute_streamed`]: builds destination `t`'s split table into the
/// one-destination scratch `table`, routes `t`'s demand column into
/// `column`, and adds the column into the **global** `aggregate`. Both
/// callers run it in ascending destination order, so the aggregate's
/// floating-point accumulation order is the same on both paths, and the
/// streamed flows are bit-identical to the engine's.
///
/// `column` must be zeroed and `m` long. Inlined because the streamed loop
/// calls it once per destination, and on small graphs the call overhead is
/// a measurable share of an iteration.
#[allow(clippy::too_many_arguments)]
#[inline]
fn distribute_destination<D: DagAccess>(
    graph: &Graph,
    t: NodeId,
    dag: &D,
    traffic: &TrafficMatrix,
    rule: SplitRule<'_>,
    table: &mut SplitTableSet,
    scratch: &mut DistScratch,
    column: &mut [f64],
    aggregate: &mut [f64],
) -> Result<(), SpefError> {
    if dag.dag_target() != t {
        return Err(SpefError::InvalidInput(format!(
            "DAG target {} does not match destination {t}",
            dag.dag_target()
        )));
    }
    scratch.incoming.resize(graph.node_count(), 0.0);
    table.reset(graph.node_count());
    table.push_table(graph, dag, rule);
    traffic.demands_to_into(t, &mut scratch.demands);
    distribute_one_into(
        graph,
        dag,
        table.table(0),
        &scratch.demands,
        &mut scratch.incoming,
        column,
    )?;
    for (agg, f) in aggregate.iter_mut().zip(column.iter()) {
        *agg += f;
    }
    Ok(())
}

/// Distributes one destination's demand column into `flows`, processing
/// sources in decreasing distance order (Algorithm 3's inner loop).
/// `flows` must be pre-zeroed; `incoming` is overwritten.
pub(crate) fn distribute_one_into<D: DagAccess>(
    graph: &Graph,
    dag: &D,
    table: SplitTableRef<'_>,
    demands: &[f64],
    incoming: &mut [f64],
    flows: &mut [f64],
) -> Result<(), SpefError> {
    incoming.fill(0.0);
    let target = dag.dag_target();

    // Demands from nodes that cannot reach the target at all.
    for (s, (&d, dist)) in demands.iter().zip(dag.dag_distances()).enumerate() {
        if d > 0.0 && !dist.is_finite() {
            return Err(SpefError::UnroutableDemand {
                source: NodeId::new(s),
                destination: target,
            });
        }
    }

    for &u in dag.dag_order_desc() {
        if u == target {
            continue;
        }
        let total = demands[u.index()] + incoming[u.index()];
        if total <= 0.0 {
            continue;
        }
        let hops = table.next_hops(u);
        if hops.is_empty() {
            return Err(SpefError::UnroutableDemand {
                source: u,
                destination: target,
            });
        }
        for &(e, ratio) in hops {
            let f = total * ratio;
            flows[e.index()] += f;
            incoming[graph.target(e).index()] += f;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spef_topology::standard;

    /// Diamond: 0 → {1, 2} → 3 with unit weights (two equal-cost paths).
    fn diamond() -> (Graph, Vec<f64>) {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into()); // e0
        g.add_edge(0.into(), 2.into()); // e1
        g.add_edge(1.into(), 3.into()); // e2
        g.add_edge(2.into(), 3.into()); // e3
        (g, vec![1.0; 4])
    }

    fn demand(n: usize, s: usize, t: usize, d: f64) -> TrafficMatrix {
        let mut tm = TrafficMatrix::new(n);
        tm.set(s.into(), t.into(), d);
        tm
    }

    #[test]
    fn even_ecmp_splits_in_half() {
        let (g, w) = diamond();
        let tm = demand(4, 0, 3, 2.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp).unwrap();
        assert_eq!(flows.aggregate(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn even_ecmp_splits_by_path_count_not_next_hop() {
        // 0 → {1, 2} → 6: node 1 reaches 6 over two equal-cost paths (via
        // 3 and via 4), node 2 over one (via 5). The rule shares evenly
        // per path, so node 0 sends 2/3 via 1 and 1/3 via 2, where a
        // per-next-hop split would send 1/2 each.
        let mut g = Graph::with_nodes(7);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (1, 4),
            (2, 5),
            (3, 6),
            (4, 6),
            (5, 6),
        ] {
            g.add_edge(u.into(), v.into());
        }
        let w = vec![1.0; 8];
        let tm = demand(7, 0, 6, 3.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp).unwrap();
        let expected = [2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        for (e, (&f, &x)) in flows.aggregate().iter().zip(&expected).enumerate() {
            assert!((f - x).abs() < 1e-12, "e{e}: {f} vs {x}");
        }
        // Every term of an even-ECMP row is 0, so each ratio is one
        // division of path counts: exactly the nearest double to 2/3.
        let table = SplitTable::build(&g, &dags[0], SplitRule::EvenEcmp).unwrap();
        let hops = table.next_hops(0.into());
        assert_eq!(hops[0].1, 2.0 / 3.0, "via 1");
        assert_eq!(hops[1].1, 1.0 / 3.0, "via 2");
    }

    #[test]
    fn exponential_split_matches_eq22() {
        let (g, w) = diamond();
        let tm = demand(4, 0, 3, 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        // Second weights: upper path (e0, e2) has total length 1+0=1,
        // lower (e1, e3) has 0. Ratios: e^{-1} : e^{0}.
        let v = vec![1.0, 0.0, 0.0, 0.0];
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::Exponential(&v)).unwrap();
        let upper = (-1.0f64).exp() / ((-1.0f64).exp() + 1.0);
        assert!((flows.aggregate()[0] - upper).abs() < 1e-12);
        assert!((flows.aggregate()[1] - (1.0 - upper)).abs() < 1e-12);
        // Conservation through to the sink.
        assert!((flows.aggregate()[2] + flows.aggregate()[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn second_weight_on_shared_suffix_does_not_skew() {
        // If an extra second weight sits on an edge all paths share, the
        // split must stay even (the softmax is shift-invariant).
        let mut g = Graph::with_nodes(5);
        g.add_edge(0.into(), 1.into()); // e0
        g.add_edge(0.into(), 2.into()); // e1
        g.add_edge(1.into(), 3.into()); // e2
        g.add_edge(2.into(), 3.into()); // e3
        g.add_edge(3.into(), 4.into()); // e4 shared suffix
        let w = vec![1.0; 5];
        let tm = demand(5, 0, 4, 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let v = vec![0.0, 0.0, 0.0, 0.0, 7.0];
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::Exponential(&v)).unwrap();
        assert!((flows.aggregate()[0] - 0.5).abs() < 1e-12);
        assert!((flows.aggregate()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn multihop_aggregation_over_sources() {
        // Chain 0 -> 1 -> 2 with demands from both 0 and 1 to 2: the
        // decreasing-distance order must add 0's transit flow into 1's
        // outgoing total.
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        let w = vec![1.0, 1.0];
        let mut tm = TrafficMatrix::new(3);
        tm.set(0.into(), 2.into(), 1.0);
        tm.set(1.into(), 2.into(), 2.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp).unwrap();
        assert_eq!(flows.aggregate(), &[1.0, 3.0]);
    }

    #[test]
    fn multiple_destinations_aggregate() {
        let (g, w) = diamond();
        let mut tm = TrafficMatrix::new(4);
        tm.set(0.into(), 3.into(), 2.0);
        tm.set(0.into(), 1.into(), 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp).unwrap();
        assert_eq!(flows.destinations().len(), 2);
        // e0 carries half of the 0->3 demand plus all of 0->1.
        assert_eq!(flows.aggregate()[0], 2.0);
        assert_eq!(
            flows.for_destination(1.into()).unwrap(),
            &[1.0, 0.0, 0.0, 0.0]
        );
        assert!(flows.for_destination(2.into()).is_none());
    }

    #[test]
    fn unroutable_demand_is_reported() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 0.into());
        // Node 2 unreachable.
        let w = vec![1.0, 1.0];
        let tm = demand(3, 0, 2, 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let err = traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp).unwrap_err();
        assert_eq!(
            err,
            SpefError::UnroutableDemand {
                source: NodeId::new(0),
                destination: NodeId::new(2)
            }
        );
    }

    #[test]
    fn misaligned_dags_rejected() {
        let (g, w) = diamond();
        let tm = demand(4, 0, 3, 1.0);
        let dags = build_dags(&g, &w, &[NodeId::new(2)], 0.0).unwrap();
        assert!(matches!(
            traffic_distribution(&g, &dags, &tm, SplitRule::EvenEcmp),
            Err(SpefError::InvalidInput(_))
        ));
    }

    #[test]
    fn invalid_second_weights_rejected() {
        let (g, w) = diamond();
        let tm = demand(4, 0, 3, 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        let bad = vec![-1.0; 4];
        assert!(matches!(
            traffic_distribution(&g, &dags, &tm, SplitRule::Exponential(&bad)),
            Err(SpefError::InvalidInput(_))
        ));
        let short = vec![0.0; 2];
        assert!(matches!(
            traffic_distribution(&g, &dags, &tm, SplitRule::Exponential(&short)),
            Err(SpefError::InvalidInput(_))
        ));
    }

    #[test]
    fn log_path_sum_counts_paths_under_even_rule() {
        let (g, w) = diamond();
        let dag = ShortestPathDag::build(&g, &w, 3.into(), 0.0).unwrap();
        let table = SplitTable::build(&g, &dag, SplitRule::EvenEcmp).unwrap();
        // Two equal-cost paths: log Z = ln 2.
        assert!((table.log_path_sum(0.into()) - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(table.log_path_sum(3.into()), 0.0);
    }

    #[test]
    fn large_second_weights_are_numerically_stable() {
        let (g, w) = diamond();
        let tm = demand(4, 0, 3, 1.0);
        let dags = build_dags(&g, &w, &tm.destinations(), 0.0).unwrap();
        // Huge weights would underflow a naive e^{-v} implementation.
        let v = vec![5000.0, 5001.0, 0.0, 0.0];
        let flows = traffic_distribution(&g, &dags, &tm, SplitRule::Exponential(&v)).unwrap();
        let total = flows.aggregate()[0] + flows.aggregate()[1];
        assert!((total - 1.0).abs() < 1e-9);
        // Path with weight 5000 is e^1 more likely than 5001.
        let ratio = flows.aggregate()[0] / flows.aggregate()[1];
        assert!((ratio - std::f64::consts::E).abs() < 1e-6);
    }

    #[test]
    fn ecmp_on_fig4_matches_hand_computation() {
        // The OSPF baseline behaviour the paper's Fig. 6 relies on:
        // link 1 = edge 0 carries both 4-unit demands 1→2 and 1→3.
        let net = standard::fig4();
        let tm = standard::fig4_demands();
        let w = vec![1.0; net.graph().edge_count()];
        let dags = build_dags(net.graph(), &w, &tm.destinations(), 0.0).unwrap();
        let flows = traffic_distribution(net.graph(), &dags, &tm, SplitRule::EvenEcmp).unwrap();
        let agg = flows.aggregate();
        assert!(
            (agg[0] - 8.0).abs() < 1e-12,
            "bottleneck link 1: {}",
            agg[0]
        );
        // 1→7 splits across the two 2-hop paths via 5 and via 6.
        assert!((agg[3] - 2.0).abs() < 1e-12);
        assert!((agg[5] - 2.0).abs() < 1e-12);
        // 3→2 rides its direct link.
        assert!((agg[7] - 4.0).abs() < 1e-12);
    }
}
