//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon) crate.
//!
//! Implements the slice of rayon's API this workspace uses — the
//! `into_par_iter().map(f).collect()` pipeline plus the borrowed-slice and
//! range entry points the batched routing engine needs (`par_iter`,
//! `par_iter_mut`, ranges, `enumerate`, `for_each`) — with genuine
//! parallelism on a **persistent worker pool** (see `pool`): worker
//! threads are spawned lazily once, parked on a condvar, and dispatched
//! borrowed job shares per parallel call, mirroring real rayon's global
//! pool instead of paying `std::thread::scope` spawn-up on every call.
//! Work is distributed dynamically (an atomic work index, so uneven
//! per-item costs balance across workers) and results are returned **in
//! input order**, matching rayon's indexed-iterator semantics.
//!
//! Thread count defaults to [`std::thread::available_parallelism`] and can be
//! lowered with the `RAYON_NUM_THREADS` environment variable, mirroring
//! upstream (read once, when the pool first spins up).
//!
//! ```
//! use rayon::prelude::*;
//!
//! let squares: Vec<u64> = (0u64..100).collect::<Vec<_>>()
//!     .into_par_iter()
//!     .map(|x| x * x)
//!     .collect();
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares.len(), 100);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

mod pool;

/// The rayon-style glob-import module.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParIter, ParMap,
    };
}

/// Number of worker threads: `RAYON_NUM_THREADS` if set and positive,
/// otherwise the machine's available parallelism.
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;

    /// Converts `self` into a parallel iterator over owned items.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;

    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Send + Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;

    fn into_par_iter(self) -> ParIter<&'a T> {
        self.as_slice().into_par_iter()
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;

    fn into_par_iter(self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Item = &'a mut T;

    fn into_par_iter(self) -> ParIter<&'a mut T> {
        self.as_mut_slice().into_par_iter()
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Rayon's `par_iter()` entry point: borrow a collection as a parallel
/// iterator over shared references.
pub trait IntoParallelRefIterator<'a> {
    /// The reference type iterated over.
    type Item: Send + 'a;

    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        self.into_par_iter()
    }
}

impl<'a, T: Send + Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        self.as_slice().into_par_iter()
    }
}

/// Rayon's `par_iter_mut()` entry point: borrow a collection as a parallel
/// iterator over exclusive references — the primitive the batched routing
/// engine uses to fan destination *slots* out across workers.
pub trait IntoParallelRefMutIterator<'a> {
    /// The reference type iterated over.
    type Item: Send + 'a;

    /// Mutably borrows `self` as a parallel iterator.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;

    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        self.into_par_iter()
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;

    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        self.as_mut_slice().into_par_iter()
    }
}

/// A parallel iterator over owned items.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Maps each item through `f` (executed in parallel at collect time).
    pub fn map<U, F>(self, f: F) -> ParMap<T, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Pairs every item with its index, preserving input order — rayon's
    /// indexed-iterator `enumerate`.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Runs `f` on every item in parallel, discarding results.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        par_for_each(self.items, &f);
    }

    /// Collects the items in input order (no mapping step).
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// A lazily mapped parallel iterator; consumed by [`ParMap::collect`].
pub struct ParMap<T: Send, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> ParMap<T, F> {
    /// Runs the map in parallel and collects the results in input order.
    pub fn collect<U, C>(self) -> C
    where
        U: Send,
        F: Fn(T) -> U + Sync,
        C: FromIterator<U>,
    {
        par_map_ordered(self.items, &self.f).into_iter().collect()
    }

    /// Runs the map in parallel purely for its side effects.
    pub fn for_each<U, G>(self, g: G)
    where
        U: Send,
        F: Fn(T) -> U + Sync,
        G: Fn(U) + Sync,
    {
        let f = &self.f;
        par_for_each(self.items, &|t| g(f(t)));
    }
}

/// Order-preserving parallel map: the work queue is a shared atomic index,
/// each worker claims the next unprocessed item, results land in their
/// original slot. Executed on the persistent [`pool`] — no threads are
/// spawned per call once the pool is warm.
fn par_map_ordered<T: Send, U: Send>(items: Vec<T>, f: &(impl Fn(T) -> U + Sync)) -> Vec<U> {
    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Hand every item its own claimable cell so workers can steal
    // independently of declaration order.
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let claim_loop = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = cells[i]
            .lock()
            .expect("poisoned work cell")
            .take()
            .expect("each cell is claimed exactly once");
        let out = f(item);
        *results[i].lock().expect("poisoned result cell") = Some(out);
    };
    pool::run_batch(&claim_loop, threads);

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("poisoned result cell")
                .expect("every slot filled by a worker")
        })
        .collect()
}

/// Side-effect-only parallel iteration: same dynamic work distribution as
/// [`par_map_ordered`], without result storage.
fn par_for_each<T: Send>(items: Vec<T>, f: &(impl Fn(T) + Sync)) {
    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        items.into_iter().for_each(f);
        return;
    }

    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);

    let claim_loop = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = cells[i]
            .lock()
            .expect("poisoned work cell")
            .take()
            .expect("each cell is claimed exactly once");
        f(item);
    };
    pool::run_batch(&claim_loop, threads);
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = input.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
        let one: Vec<u8> = vec![9].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn par_iter_mut_mutates_in_place() {
        let mut data: Vec<u64> = (0..500).collect();
        data.par_iter_mut().for_each(|x| *x *= 3);
        assert_eq!(data, (0..500).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_reads_shared_refs() {
        let data: Vec<u64> = (0..100).collect();
        let doubled: Vec<u64> = data.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled[40], 80);
        assert_eq!(data.len(), 100); // still owned by the caller
    }

    #[test]
    fn range_and_enumerate() {
        let out: Vec<(usize, usize)> = (10..15usize).into_par_iter().enumerate().collect();
        assert_eq!(out, vec![(0, 10), (1, 11), (2, 12), (3, 13), (4, 14)]);
    }

    #[test]
    fn for_each_runs_every_item_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = AtomicUsize::new(0);
        (0..257usize).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 257);
        let sum = AtomicUsize::new(0);
        vec![1usize, 2, 3]
            .into_par_iter()
            .map(|x| x * 10)
            .for_each(|x| {
                sum.fetch_add(x, Ordering::Relaxed);
            });
        assert_eq!(sum.load(Ordering::Relaxed), 60);
    }

    #[test]
    fn indexed_slot_fanout_preserves_slot_identity() {
        // The batched-engine usage pattern: disjoint &mut slots, each worker
        // writes only through its own reference.
        let mut slots = vec![0usize; 64];
        slots
            .par_iter_mut()
            .enumerate()
            .for_each(|(i, slot)| *slot = i * i);
        for (i, &v) in slots.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn pool_does_not_spawn_threads_per_call() {
        // Force a multi-threaded pool even on single-core runners: the
        // batches below ask for 4 shares regardless of the env knob.
        let shares = 4usize;
        let run_round = |round: usize| {
            let hits = std::sync::atomic::AtomicUsize::new(0);
            let n = 64;
            let next = std::sync::atomic::AtomicUsize::new(0);
            let claim = || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(100));
            };
            super::pool::run_batch(&claim, shares);
            assert_eq!(
                hits.load(std::sync::atomic::Ordering::Relaxed),
                n,
                "round {round}: every item processed exactly once"
            );
        };
        // Warm the pool: after one batch it holds at least `shares − 1`
        // workers.
        run_round(0);
        let warmed = super::pool::spawned_workers();
        assert!(warmed >= shares - 1, "pool under-provisioned: {warmed}");
        for round in 1..9 {
            run_round(round);
        }
        // Other tests running concurrently in this process may grow the
        // shared pool toward the machine's parallelism, but the pool's cap
        // is the largest `shares − 1` any call has requested — a per-call
        // `thread::scope` implementation would instead mint
        // 8 × (shares − 1) fresh threads for these rounds.
        let cap = warmed.max(super::current_num_threads().saturating_sub(1));
        let after = super::pool::spawned_workers();
        assert!(
            after <= cap,
            "repeated batches grew the pool past its cap {cap}: {after}"
        );
    }

    #[test]
    fn nested_parallel_calls_complete() {
        // A dispatcher blocked on its batch must help drain the queue, so
        // nested fan-outs terminate even when every worker is busy.
        let outer: Vec<usize> = (0..8).collect();
        let totals: Vec<usize> = outer
            .into_par_iter()
            .map(|k| {
                let inner: Vec<usize> = (0..50usize)
                    .collect::<Vec<_>>()
                    .into_par_iter()
                    .map(|x| x * k)
                    .collect();
                inner.into_iter().sum()
            })
            .collect();
        for (k, &total) in totals.iter().enumerate() {
            assert_eq!(total, k * (49 * 50) / 2);
        }
    }

    #[test]
    fn panics_propagate_to_the_dispatcher() {
        let result = std::panic::catch_unwind(|| {
            let next = std::sync::atomic::AtomicUsize::new(0);
            let claim = || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= 16 {
                    break;
                }
                if i == 7 {
                    panic!("boom at {i}");
                }
            };
            super::pool::run_batch(&claim, 4);
        });
        let payload = result.expect_err("panic must cross the pool");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
    }

    #[test]
    fn actually_runs_work_from_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let _: Vec<()> = (0..256)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                // Keep each item busy long enough for other workers to join.
                std::thread::sleep(std::time::Duration::from_micros(200));
            })
            .collect();
        let distinct = ids.lock().unwrap().len();
        if super::current_num_threads() > 1 {
            assert!(distinct > 1, "expected multiple worker threads");
        }
    }
}
