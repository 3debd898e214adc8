//! Verifies the flat-arena engine's steady-state allocation contract: once
//! a [`SimplexWorkspace`] has grown to a program's shape, further
//! solves perform a small constant number of heap allocations (the returned
//! `Solution`'s vectors) — independent of problem size and pivot count, i.e.
//! the pivot path itself is allocation-free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spef_lp::simplex::{LinearProgram, Relation, SimplexWorkspace};

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

/// A routing-shaped min-cost LP over a ring of `n` nodes with chords:
/// `n` conservation rows + `2n` capacity rows, `2n` variables. Larger `n`
/// means more rows, more columns, and many more pivots.
fn ring_lp(n: usize) -> LinearProgram {
    let m = 2 * n; // ring edges + chords
    let mut lp = LinearProgram::minimize(m);
    for e in 0..m {
        lp.set_objective(e, 1.0 + (e % 5) as f64);
        lp.add_constraint(&[(e, 1.0)], Relation::Le, 4.0 + (e % 3) as f64);
    }
    // Ring edge e: i -> i+1; chord edge n+i: i -> i+2 (mod n).
    for i in 0..n {
        // Out: ring i, chord i; in: ring i-1, chord i-2.
        let row: Vec<(usize, f64)> = vec![
            (i, 1.0),
            (n + i, 1.0),
            ((i + n - 1) % n, -1.0),
            (n + (i + n - 2) % n, -1.0),
        ];
        let rhs = if i == 0 {
            2.5
        } else if i == n / 2 {
            -2.5
        } else {
            0.0
        };
        lp.add_constraint(&row, Relation::Eq, rhs);
    }
    lp
}

/// Allocations of one warmed re-solve of `lp` (workspace already sized).
fn warmed_solve_allocs(lp: &LinearProgram, ws: &mut SimplexWorkspace) -> u64 {
    lp.solve_with(ws).expect("feasible");
    let before = allocations();
    let sol = lp.solve_with(ws).expect("feasible");
    let after = allocations();
    drop(sol);
    after - before
}

#[test]
fn steady_state_solves_allocate_constant_independent_of_size() {
    let small = ring_lp(4);
    let large = ring_lp(40);

    let mut ws = SimplexWorkspace::new();
    let small_allocs = warmed_solve_allocs(&small, &mut ws);
    let large_allocs = warmed_solve_allocs(&large, &mut ws);

    // The returned Solution owns its x/duals vectors; everything else —
    // tableau arena, basis, pivot column cache — is recycled. If any pivot
    // or row build allocated, the 10×-larger LP (with far more pivots)
    // would allocate more.
    assert!(
        small_allocs <= 4,
        "warmed small solve allocated {small_allocs} times"
    );
    assert_eq!(
        small_allocs, large_allocs,
        "allocation count grew with problem size: {small_allocs} -> {large_allocs}"
    );
}
