//! The SPEF forwarding plane: TABLE II as a flat CSR arena.
//!
//! A forwarding information base answers one question on every packet hop:
//! *which next-hop links, with which split probabilities, does router `u`
//! use toward destination `t`?* The legacy representation — a
//! `Vec<Vec<Vec<(EdgeId, f64)>>>` indexed `[dest][node][entry]` plus a
//! linear scan to find the destination's index — put three pointer chases
//! and an `O(dests)` search on the per-packet hot path of the simulator.
//!
//! [`ForwardingTable`] stores the same table as three flat arrays:
//!
//! ```text
//! dest_index : node id      → dest slot   (u32, sentinel for non-dests)
//! row_offsets: slot·n + u   → entry range (CSR prefix offsets, len+1)
//! hops       : entry        → (EdgeId, ratio)
//! ```
//!
//! `next_hops(u, t)` is two index operations. Sampling a next hop from a
//! uniform draw walks the row's running ratio sum (`acc += rᵢ; if x < acc`)
//! and falls back to the last entry, which is the legacy per-draw walk
//! itself, so for every draw the selected edge is **bit-identical** to it.
//! Rows are short (one to four entries, 1.9 on average, in the 500-node
//! `scale` scenario's FIB), so the walk costs no more than a search over a
//! stored cumulative array would, and the FIB keeps no such array. Every
//! non-empty row's ratios are validated at build time to sum to 1 within
//! `1e-6`.

use std::fmt;

use spef_graph::{EdgeId, NodeId};

use crate::traffic_dist::SplitTableSet;

/// Sentinel in `dest_index` marking a node that is not a destination.
const NO_DEST: u32 = u32::MAX;

/// The SPEF forwarding tables the protocol, the baselines and the
/// simulator exchange, as one flat CSR arena: per `(destination, router)`
/// the next-hop links and their split ratios — the operational reduction
/// of the paper's TABLE II. See the [module docs](self) for the layout.
///
/// An empty table is [`ForwardingTable::default`]; a build calls
/// [`begin`](Self::begin) once and then
/// [`push_destination`](Self::push_destination) per destination.
#[derive(Clone, PartialEq, Default)]
pub struct ForwardingTable {
    node_count: usize,
    dests: Vec<NodeId>,
    /// `dest_index[t] = slot` for destinations, [`NO_DEST`] otherwise.
    dest_index: Vec<u32>,
    /// CSR prefix offsets over `(slot, node)` cells: the entries of cell
    /// `slot·node_count + u` live at `hops[row_offsets[c]..row_offsets[c+1]]`.
    row_offsets: Vec<u32>,
    /// The `(edge, ratio)` entry arena, rows concatenated in cell order.
    hops: Vec<(EdgeId, f64)>,
}

impl ForwardingTable {
    /// Builds a forwarding table from explicit per-destination next-hop
    /// ratio rows. `tables[d][node]` lists `(edge, ratio)` entries; rows
    /// must be empty or have ratios summing to ≈ 1.
    ///
    /// # Panics
    ///
    /// Panics if `tables.len() != dests.len()`, a destination is out of
    /// range or duplicated, a per-node table does not have exactly
    /// `node_count` rows, or some non-empty row's ratios do not sum to 1
    /// within 1e-6.
    pub fn new(
        node_count: usize,
        dests: Vec<NodeId>,
        tables: Vec<Vec<Vec<(EdgeId, f64)>>>,
    ) -> ForwardingTable {
        assert_eq!(tables.len(), dests.len(), "one table per destination");
        let mut fib = ForwardingTable::default();
        fib.begin(node_count);
        for (per_node, &t) in tables.iter().zip(&dests) {
            assert_eq!(per_node.len(), node_count, "one row per node");
            fib.push_destination(t, |u| per_node[u].as_slice());
        }
        fib
    }

    /// Builds the table from a batched [`SplitTableSet`] (the routing
    /// engine's arena form) without materialising any owned rows.
    ///
    /// # Panics
    ///
    /// Panics if `tables.len() != dests.len()`, a destination id is out of
    /// range or duplicated, or a non-empty row's ratios do not sum to 1
    /// within `1e-6`.
    pub fn from_split_table_set(
        node_count: usize,
        dests: &[NodeId],
        tables: &SplitTableSet,
    ) -> ForwardingTable {
        assert_eq!(tables.len(), dests.len(), "one table per destination");
        let mut fib = ForwardingTable::default();
        fib.begin(node_count);
        for (i, &t) in dests.iter().enumerate() {
            let table = tables.table(i);
            fib.push_destination(t, |u| table.next_hops(NodeId::new(u)));
        }
        fib
    }

    /// Starts a build over `node_count` routers: empties the table and
    /// fixes the node count. Follow with one
    /// [`push_destination`](Self::push_destination) call per destination.
    pub fn begin(&mut self, node_count: usize) {
        self.node_count = node_count;
        self.dests.clear();
        self.dest_index.clear();
        self.dest_index.resize(node_count, NO_DEST);
        self.row_offsets.clear();
        self.row_offsets.push(0);
        self.hops.clear();
    }

    /// Reserves room for `dests` more destinations holding `entries` more
    /// entries in total, exactly, so a build that knows its size (the
    /// routing engine's, from its DAG set) never doubles an arena past it.
    /// Call after [`begin`](Self::begin).
    pub(crate) fn reserve_exact(&mut self, dests: usize, entries: usize) {
        self.dests.reserve_exact(dests);
        self.row_offsets.reserve_exact(dests * self.node_count);
        self.hops.reserve_exact(entries);
    }

    /// Appends one destination's rows: `row(u)` must yield node `u`'s
    /// `(edge, ratio)` next-hop entries toward `dest` (empty for the
    /// destination itself and for nodes that cannot reach it). Entries are
    /// copied into the arena.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range or already pushed, a ratio is
    /// negative or NaN, or a non-empty row's ratios do not sum to 1 within
    /// `1e-6`.
    pub fn push_destination<'a, F>(&mut self, dest: NodeId, row: F)
    where
        F: Fn(usize) -> &'a [(EdgeId, f64)],
    {
        assert!(
            dest.index() < self.node_count,
            "destination {dest} outside the {}-node graph",
            self.node_count
        );
        assert!(
            self.dest_index[dest.index()] == NO_DEST,
            "duplicate destination {dest}"
        );
        self.dest_index[dest.index()] = self.dests.len() as u32;
        self.dests.push(dest);
        for u in 0..self.node_count {
            let hops = row(u);
            if !hops.is_empty() {
                let mut acc = 0.0f64;
                for &(e, r) in hops {
                    assert!(r >= 0.0, "next-hop ratio {r} is negative or NaN");
                    acc += r;
                    self.hops.push((e, r));
                }
                assert!(
                    (acc - 1.0).abs() < 1e-6,
                    "next-hop ratios sum to {acc}, expected 1"
                );
            }
            self.row_offsets.push(self.hops.len() as u32);
        }
    }

    /// Number of nodes (routers) each destination's table covers.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Destinations the FIB covers, in slot order.
    pub fn destinations(&self) -> &[NodeId] {
        &self.dests
    }

    /// Total `(edge, ratio)` entries across all `(destination, router)`
    /// rows — the control-plane state size, in `O(1)`.
    pub fn entry_count(&self) -> usize {
        self.hops.len()
    }

    /// Bytes reserved by the FIB arenas (capacities, not lengths) — the
    /// forwarding-plane state's memory.
    pub fn arena_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dests.capacity() * size_of::<NodeId>()
            + self.dest_index.capacity() * size_of::<u32>()
            + self.row_offsets.capacity() * size_of::<u32>()
            + self.hops.capacity() * size_of::<(EdgeId, f64)>()
    }

    /// The dense slot of `dest`, or `None` if it is not a covered
    /// destination — the `O(dests)` scan of the legacy table reduced to
    /// one array load. Callers on a per-packet path should resolve the
    /// slot once and use [`row`](Self::row) per hop.
    #[inline]
    pub fn dest_slot(&self, dest: NodeId) -> Option<u32> {
        match self.dest_index.get(dest.index()) {
            Some(&s) if s != NO_DEST => Some(s),
            _ => None,
        }
    }

    /// The next-hop row of `node` toward the destination in `slot` (from
    /// [`dest_slot`](Self::dest_slot)): two index operations.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a valid slot or `node` is out of range.
    #[inline]
    pub fn row(&self, slot: u32, node: NodeId) -> FibRow<'_> {
        let cell = slot as usize * self.node_count + node.index();
        let start = self.row_offsets[cell] as usize;
        let end = self.row_offsets[cell + 1] as usize;
        FibRow {
            hops: &self.hops[start..end],
        }
    }

    /// Next-hop `(edge, ratio)` entries of `node` toward `dest`, or `None`
    /// if `dest` is not a covered destination. An empty slice means the
    /// node is the destination itself or cannot reach it.
    pub fn next_hops(&self, node: NodeId, dest: NodeId) -> Option<&[(EdgeId, f64)]> {
        let slot = self.dest_slot(dest)?;
        if node.index() >= self.node_count {
            return None;
        }
        Some(self.row(slot, node).hops())
    }

    /// Iterates every `(destination, router, row)` cell in arena order.
    pub fn rows(&self) -> impl Iterator<Item = (NodeId, NodeId, FibRow<'_>)> + '_ {
        self.dests.iter().enumerate().flat_map(move |(slot, &t)| {
            (0..self.node_count).map(move |u| {
                let node = NodeId::new(u);
                (t, node, self.row(slot as u32, node))
            })
        })
    }

    /// Returns `self`: the table is its own flat arena. Kept only so
    /// existing callers still build; new code should not call it.
    pub fn fib(&self) -> &ForwardingTable {
        self
    }
}

impl fmt::Debug for ForwardingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForwardingTable")
            .field("node_count", &self.node_count)
            .field("dests", &self.dests)
            .field("entries", &self.hops.len())
            .finish()
    }
}

/// One `(destination, router)` row of a [`ForwardingTable`]: the
/// `(edge, ratio)` entries.
#[derive(Debug, Clone, Copy)]
pub struct FibRow<'a> {
    hops: &'a [(EdgeId, f64)],
}

impl<'a> FibRow<'a> {
    /// The `(edge, ratio)` next-hop entries.
    #[inline]
    pub fn hops(&self) -> &'a [(EdgeId, f64)] {
        self.hops
    }

    /// `true` when the row has no next hops (the node is the destination
    /// or cannot reach it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Number of next-hop entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Selects the next-hop edge for a uniform draw `x ∈ [0, 1)`: the
    /// first entry whose running ratio sum (`acc += ratio`, in entry
    /// order) exceeds `x`, or the last entry when rounding leaves the
    /// whole row's sum at or below `x` — the legacy per-draw walk, so a
    /// draw equal to a boundary goes right (the `[0, 1)` contract is
    /// debug-asserted).
    ///
    /// # Panics
    ///
    /// Panics if the row is empty.
    #[inline]
    pub fn select(&self, x: f64) -> EdgeId {
        debug_assert!((0.0..1.0).contains(&x), "draw {x} outside [0, 1)");
        let mut acc = 0.0;
        for &(e, r) in self.hops {
            acc += r;
            if x < acc {
                return e;
            }
        }
        self.hops.last().expect("non-empty next-hop row").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_table() -> ForwardingTable {
        // One destination (node 3): node 0 splits 0.3/0.7, nodes 1 and 2
        // forward deterministically.
        ForwardingTable::new(
            4,
            vec![NodeId::new(3)],
            vec![vec![
                vec![(EdgeId::new(0), 0.3), (EdgeId::new(1), 0.7)],
                vec![(EdgeId::new(2), 1.0)],
                vec![(EdgeId::new(3), 1.0)],
                vec![],
            ]],
        )
    }

    #[test]
    fn lookup_matches_construction() {
        let fib = diamond_table();
        assert_eq!(fib.destinations(), &[NodeId::new(3)]);
        assert_eq!(fib.entry_count(), 4);
        let hops = fib.next_hops(NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(hops, &[(EdgeId::new(0), 0.3), (EdgeId::new(1), 0.7)]);
        assert!(fib
            .next_hops(NodeId::new(3), NodeId::new(3))
            .unwrap()
            .is_empty());
        assert!(fib.next_hops(NodeId::new(0), NodeId::new(1)).is_none());
    }

    #[test]
    fn slot_lookup_and_selection() {
        let fib = diamond_table();
        let slot = fib.dest_slot(NodeId::new(3)).unwrap();
        assert_eq!(fib.dest_slot(NodeId::new(1)), None);
        let row = fib.row(slot, NodeId::new(0));
        assert_eq!(row.len(), 2);
        // Below 0.3 → edge 0; at/above → edge 1 (the legacy `x < acc`
        // strictness: a draw equal to a boundary goes right).
        assert_eq!(row.select(0.0), EdgeId::new(0));
        assert_eq!(row.select(0.29999), EdgeId::new(0));
        assert_eq!(row.select(0.3), EdgeId::new(1));
        assert_eq!(row.select(0.999_999_999), EdgeId::new(1));
    }

    #[test]
    fn rows_iterates_every_cell() {
        let fib = diamond_table();
        let cells: Vec<_> = fib.rows().collect();
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|&(t, _, _)| t == NodeId::new(3)));
        let total: usize = cells.iter().map(|(_, _, r)| r.len()).sum();
        assert_eq!(total, fib.entry_count());
    }

    #[test]
    #[should_panic(expected = "duplicate destination")]
    fn duplicate_destinations_rejected() {
        let rows = vec![vec![], vec![]];
        ForwardingTable::new(
            2,
            vec![NodeId::new(1), NodeId::new(1)],
            vec![rows.clone(), rows],
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_destination_rejected() {
        ForwardingTable::new(2, vec![NodeId::new(5)], vec![vec![vec![], vec![]]]);
    }
}
