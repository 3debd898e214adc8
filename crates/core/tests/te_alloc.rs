//! Steady-state allocation contract of warm solver sessions: once a
//! [`TeWorkspace`] has been warmed on an instance shape, a re-solve
//! allocates only the returned solution's own vectors — a count fixed by
//! the topology, independent of the iteration budget. If any
//! per-iteration buffer (descent direction, DAG arena, line-search
//! scratch, NEM's per-destination split-table and flow scratch) allocated,
//! a 16×-larger budget would allocate more.
//!
//! Everything runs in one test function: the counter is process-wide, so
//! a second test running in parallel would leak its allocations into the
//! measured windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use spef_core::protocol::support_slack_tolerance;
use spef_core::{
    build_dags, ConvergenceCriteria, FrankWolfeConfig, NemConfig, NemInstance, Objective,
    SpefConfig, TeInstance, TeSolver, TeSolverKind, TeWorkspace,
};
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

/// Allocations of one more pinned solve on an already-warmed workspace.
fn warmed_solve_allocs(budget: usize, ws: &mut TeWorkspace) -> u64 {
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.12);
    let obj = Objective::proportional(net.link_count());
    let fw = FrankWolfeConfig {
        convergence: ConvergenceCriteria::pinned(budget),
    };
    fw.solve_in(TeInstance::new(&net, &tm, &obj), ws)
        .expect("feasible");
    let before = allocations();
    let sol = fw
        .solve_in(TeInstance::new(&net, &tm, &obj), ws)
        .expect("feasible");
    let after = allocations();
    drop(sol);
    after - before
}

/// Allocations of one more pinned NEM solve over owned Abilene DAGs (under
/// a pinned FW optimum's weights) on an already-warmed workspace.
fn warmed_nem_allocs(budget: usize, ws: &mut TeWorkspace) -> u64 {
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.12);
    let obj = Objective::proportional(net.link_count());
    let te = FrankWolfeConfig {
        convergence: ConvergenceCriteria::pinned(12),
    }
    .solve(TeInstance::new(&net, &tm, &obj))
    .expect("feasible");
    let tol = support_slack_tolerance(net.graph(), &te.weights, &te.flows).expect("valid");
    let dags = build_dags(net.graph(), &te.weights, &tm.destinations(), tol).expect("valid");
    let nem = NemConfig {
        convergence: ConvergenceCriteria::pinned(budget),
        ..NemConfig::default()
    };
    let instance = NemInstance::new(net.graph(), &dags, &tm, te.flows.aggregate());
    nem.solve_in(instance, ws).expect("routable");
    let before = allocations();
    let out = nem.solve_in(instance, ws).expect("routable");
    let after = allocations();
    drop(out);
    after - before
}

/// Allocations of one more full SPEF pipeline solve, NEM pinned at
/// `budget`, on an already-warmed workspace. FW is pinned at a fixed
/// count: its weights set the DAGs and so the size of the returned FIB,
/// whose growth reallocations would otherwise vary with the budget.
fn warmed_spef_allocs(budget: usize, ws: &mut TeWorkspace) -> u64 {
    let net = standard::abilene();
    let tm = TrafficMatrix::fortz_thorup(&net, 1).scaled_to_network_load(&net, 0.12);
    let obj = Objective::proportional(net.link_count());
    let config = SpefConfig {
        solver: TeSolverKind::FrankWolfe(FrankWolfeConfig {
            convergence: ConvergenceCriteria::pinned(12),
        }),
        nem: NemConfig {
            convergence: ConvergenceCriteria::pinned(budget),
            ..NemConfig::default()
        },
        ..SpefConfig::default()
    };
    config
        .solve_in(TeInstance::new(&net, &tm, &obj), ws)
        .expect("feasible");
    let before = allocations();
    let routing = config
        .solve_in(TeInstance::new(&net, &tm, &obj), ws)
        .expect("feasible");
    let after = allocations();
    drop(routing);
    after - before
}

#[test]
fn warm_resolves_allocate_constant_independent_of_budget() {
    let mut ws = TeWorkspace::new();
    let short = warmed_solve_allocs(8, &mut ws);
    let long = warmed_solve_allocs(128, &mut ws);
    assert_eq!(
        short, long,
        "allocation count grew with iteration budget: {short} -> {long}"
    );

    // NEM alone and the whole pipeline (NEM routes every destination
    // through one scratch column).
    let mut nem_ws = TeWorkspace::new();
    let short = warmed_nem_allocs(8, &mut nem_ws);
    let long = warmed_nem_allocs(128, &mut nem_ws);
    assert_eq!(
        short, long,
        "NEM allocations grew with the budget: {short} -> {long}"
    );
    let short = warmed_spef_allocs(8, &mut nem_ws);
    let long = warmed_spef_allocs(128, &mut nem_ws);
    assert_eq!(
        short, long,
        "SPEF allocations grew with the budget: {short} -> {long}"
    );
}
