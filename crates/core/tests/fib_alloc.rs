//! Verifies the flat FIB's allocation contract: destination-slot
//! resolution, row lookups and next-hop selections never touch the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spef_core::{ForwardingTable, RoutingEngine, SplitRule};
use spef_graph::NodeId;
use spef_topology::{standard, TrafficMatrix};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn lookups_are_allocation_free() {
    // CERNET2-sized split tables through the routing engine.
    let net = standard::cernet2();
    let tm = TrafficMatrix::gravity(&net, 1.0, 3).scaled_to_network_load(&net, 0.15);
    let dests = tm.destinations();
    let w: Vec<f64> = net.capacities().iter().map(|c| 1.0 / c).collect();
    let v = vec![0.1; net.link_count()];
    let mut engine = RoutingEngine::new(net.graph());
    engine.build_dags(&w, &dests, 0.0).unwrap();
    engine
        .build_split_tables(SplitRule::Exponential(&v))
        .unwrap();
    let n = net.node_count();

    let fib = ForwardingTable::from_split_table_set(n, &dests, engine.split_tables());

    // Per-lookup path: row fetch and next-hop selection across every cell
    // and a sweep of draws — zero allocations.
    let before = allocations();
    let mut acc = 0usize;
    for (slot, _) in dests.iter().enumerate() {
        for u in 0..n {
            let row = fib.row(slot as u32, NodeId::new(u));
            if row.is_empty() {
                continue;
            }
            acc += row.hops().len();
            for k in 0..16 {
                acc += row.select(k as f64 / 16.0).index();
            }
        }
    }
    assert!(acc > 0, "lookup loop must have exercised real rows");
    assert_eq!(allocations() - before, 0, "FIB lookups must not allocate");

    // The dest-index path is allocation-free too.
    let before = allocations();
    let mut hits = 0usize;
    for u in 0..n {
        if fib.dest_slot(NodeId::new(u)).is_some() {
            hits += 1;
        }
    }
    assert_eq!(hits, dests.len());
    assert_eq!(
        allocations() - before,
        0,
        "dest-slot resolution must not allocate"
    );
}
