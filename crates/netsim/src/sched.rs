//! The event scheduler: a bucketed calendar queue.
//!
//! Pending events are ordered by the unique key `(time, seq)`: `seq` is the
//! queue's global push counter, so ties in time are broken by scheduling
//! order. The pop order is therefore exactly that of a binary heap over the
//! same key. The simulation consumes its RNG stream in pop order, so this
//! order is what makes every [`SimReport`](crate::SimReport) a pure function
//! of its inputs; the unit tests below pin it against the standard
//! library's binary heap.
//!
//! The calendar queue is a timing wheel over integer nanoseconds:
//!
//! * events within the current *window* (one bucket width of simulated
//!   time) live in a small vector kept sorted descending, so the next
//!   event is a `pop()` from the end and same-window insertions are a
//!   binary-search splice;
//! * events within the wheel *horizon* (`bucket_count × width`) are
//!   appended unsorted to their bucket and only sorted when the wheel
//!   reaches that bucket — O(k log k) per bucket of k events instead of
//!   a heap's O(log n) per operation on the whole population;
//! * events beyond the horizon go to an overflow list that is drained
//!   (and the wheel re-anchored at the earliest pending event) whenever
//!   the wheel empties.
//!
//! Geometry is adaptive: bucket count doubles/halves with the population
//! and the bucket width is re-derived from the observed event spacing on
//! every resize, overflow drain, or oversized window. All adaptation is a
//! deterministic function of the pushed events, and no geometry choice can
//! reorder pops — correctness never depends on the tuning.

use std::cmp::Reverse;

/// Simulated time in integer nanoseconds (exact ordering, no float ties).
pub(crate) type Nanos = u64;

/// Index of an event slot in the engine's event arena.
pub(crate) type EventId = u32;

/// A scheduled entry: `(time, seq, event)` — the first two fields are the
/// unique ordering key, the third the arena slot holding the payload.
pub(crate) type Entry = (Nanos, u64, EventId);

/// Counters describing what the calendar queue did during one run. Purely
/// observational: none of these feed back into simulation results, so they
/// are reported outside [`SimReport`](crate::SimReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Calendar bucket count at the end of the run.
    pub bucket_count: usize,
    /// Calendar bucket width in nanoseconds at the end of the run.
    pub bucket_width_ns: u64,
    /// Largest number of events observed in a single bucket.
    pub max_bucket_occupancy: usize,
    /// High-water mark of pending events.
    pub peak_events: usize,
    /// High-water mark of allocated event-arena slots (recycled through a
    /// free list, so bounded by concurrency, not run length).
    pub peak_event_slots: usize,
    /// Calendar geometry changes: bucket-count resizes plus width retunes.
    pub resizes: u64,
    /// High-water mark of the far-future overflow list.
    pub peak_overflow: usize,
}

/// Smallest calendar size; also the floor the shrink rule stops at.
const MIN_BUCKETS: usize = 32;
/// Hard cap on calendar growth (2^20 buckets ≈ 24 MiB of headers).
const MAX_BUCKETS: usize = 1 << 20;
/// Grow when the population exceeds `bucket_count × GROW_AT`.
const GROW_AT: usize = 2;
/// Shrink when the population falls below `bucket_count / SHRINK_AT`.
const SHRINK_AT: usize = 8;
/// Retune the width when one window drains more than this many events
/// (the geometry is clearly too coarse for the event spacing).
const FAT_WINDOW: usize = 256;
/// Upper bound on the width exponent (2^42 ns ≈ 73 min per bucket).
const MAX_SHIFT: u32 = 42;
/// How many pops between shrink checks.
const SHRINK_CHECK_EVERY: u32 = 1024;

/// The bucketed calendar queue. See the module docs for the design.
pub(crate) struct CalendarQueue {
    /// Future buckets, unsorted. `buckets.len()` is a power of two.
    buckets: Vec<Vec<Entry>>,
    /// The current window, sorted descending by `(time, seq)`.
    current: Vec<Entry>,
    /// Events beyond the wheel horizon.
    overflow: Vec<Entry>,
    /// Earliest time in `overflow` (`u64::MAX` when empty): the advance
    /// loop migrates overflow back into the wheel the moment its earliest
    /// entry becomes due, so a far-future event can never be overtaken by
    /// a younger in-wheel event.
    overflow_min: Nanos,
    /// Redistribution scratch (kept to stay allocation-free in steady
    /// state).
    scratch: Vec<Entry>,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// `buckets.len() - 1`; bucket of day `d` is `d & mask`.
    mask: usize,
    /// Day index of the current window (`window start = day << shift`).
    day: u64,
    /// Total pending events.
    len: usize,
    /// Events currently stored in `buckets` (excludes current/overflow).
    wheel_len: usize,
    /// The tie-break key the next push receives.
    seq: u64,
    pops_since_shrink_check: u32,
    max_bucket_occupancy: usize,
    peak_events: usize,
    resizes: u64,
    peak_overflow: usize,
}

#[inline]
fn key(e: &Entry) -> (Nanos, u64) {
    (e.0, e.1)
}

impl CalendarQueue {
    pub(crate) fn new() -> CalendarQueue {
        CalendarQueue {
            buckets: Vec::new(),
            current: Vec::new(),
            overflow: Vec::new(),
            overflow_min: Nanos::MAX,
            scratch: Vec::new(),
            shift: 10,
            mask: 0,
            day: 0,
            len: 0,
            wheel_len: 0,
            seq: 0,
            pops_since_shrink_check: 0,
            max_bucket_occupancy: 0,
            peak_events: 0,
            resizes: 0,
            peak_overflow: 0,
        }
    }

    /// Clears the queue and re-derives the initial geometry from a hint:
    /// `width_hint_ns` ≈ the expected spacing between consecutive events,
    /// `concurrency_hint` ≈ how many events are typically pending. Buckets
    /// and scratch keep their capacity, so repeated runs do not allocate.
    pub(crate) fn reset(&mut self, width_hint_ns: Nanos, concurrency_hint: usize) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.current.clear();
        self.overflow.clear();
        self.overflow_min = Nanos::MAX;
        self.scratch.clear();
        self.shift = log2_clamped(width_hint_ns.saturating_mul(4).max(1));
        let want = (concurrency_hint.max(1) * 2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.set_bucket_count(want);
        self.day = 0;
        self.len = 0;
        self.wheel_len = 0;
        self.seq = 0;
        self.pops_since_shrink_check = 0;
        self.max_bucket_occupancy = 0;
        self.peak_events = 0;
        self.resizes = 0;
        self.peak_overflow = 0;
    }

    fn set_bucket_count(&mut self, count: usize) {
        debug_assert!(count.is_power_of_two());
        if self.buckets.len() < count {
            self.buckets.resize_with(count, Vec::new);
        }
        // Shrinking only narrows the mask; spare bucket vectors keep their
        // capacity for the next growth instead of being dropped.
        self.mask = count - 1;
    }

    #[inline]
    fn bucket_count(&self) -> usize {
        self.mask + 1
    }

    /// Schedules event `id` at time `t`, keyed `(t, seq)` with the next
    /// push counter value. `t` must be ≥ the last popped time (events are
    /// never scheduled in the past).
    #[inline]
    pub(crate) fn push(&mut self, t: Nanos, id: EventId) {
        let entry = (t, self.seq, id);
        self.seq += 1;
        self.len += 1;
        self.peak_events = self.peak_events.max(self.len);
        if self.len > self.bucket_count() * GROW_AT && self.bucket_count() < MAX_BUCKETS {
            self.rebuild(self.bucket_count() * 2);
        }
        self.insert(entry);
    }

    /// Places an entry into current / wheel / overflow. Does not touch
    /// `len` (shared by push and redistribution).
    fn insert(&mut self, entry: Entry) {
        let d = entry.0 >> self.shift;
        if d <= self.day {
            // Current window: splice into the descending order.
            let at = match self
                .current
                .binary_search_by(|probe| key(&entry).cmp(&key(probe)))
            {
                Ok(i) | Err(i) => i,
            };
            self.current.insert(at, entry);
        } else if d - self.day < self.bucket_count() as u64 {
            let b = (d as usize) & self.mask;
            self.buckets[b].push(entry);
            self.wheel_len += 1;
            self.max_bucket_occupancy = self.max_bucket_occupancy.max(self.buckets[b].len());
        } else {
            self.overflow_min = self.overflow_min.min(entry.0);
            self.overflow.push(entry);
            self.peak_overflow = self.peak_overflow.max(self.overflow.len());
        }
    }

    /// Moves every overflow entry that now falls within the wheel horizon
    /// into its bucket (or the current window). Called when the earliest
    /// overflow entry becomes due; afterwards `overflow_min` is at least a
    /// full rotation ahead, so the scan re-runs at most once per rotation.
    fn migrate_overflow(&mut self) {
        debug_assert!(self.scratch.is_empty());
        self.scratch.append(&mut self.overflow);
        self.overflow_min = Nanos::MAX;
        while let Some(e) = self.scratch.pop() {
            self.insert(e);
        }
    }

    /// Pops the globally earliest `(time, seq)` entry. Every
    /// [`SHRINK_CHECK_EVERY`] pops it first checks whether the wheel
    /// should shrink, rather than on every pop.
    pub(crate) fn pop(&mut self) -> Option<Entry> {
        self.pops_since_shrink_check += 1;
        if self.pops_since_shrink_check >= SHRINK_CHECK_EVERY {
            self.pops_since_shrink_check = 0;
            self.maybe_shrink();
        }
        loop {
            if let Some(e) = self.current.pop() {
                self.len -= 1;
                return Some(e);
            }
            if self.len == 0 {
                return None;
            }
            if self.wheel_len == 0 {
                // Only far-future events remain: jump the wheel to the
                // earliest one instead of stepping empty windows.
                debug_assert!(!self.overflow.is_empty());
                self.retune(self.overflow_min);
                continue;
            }
            // Advance to the next non-empty window (≤ one rotation, since
            // every wheel entry lies within the horizon). Overflow entries
            // whose day the cursor reaches are pulled in first, so they
            // sort into their window with the in-wheel events.
            loop {
                self.day += 1;
                if self.overflow_min >> self.shift <= self.day {
                    self.migrate_overflow();
                }
                let b = (self.day as usize) & self.mask;
                if !self.buckets[b].is_empty() {
                    self.wheel_len -= self.buckets[b].len();
                    let drained = self.buckets[b].len();
                    self.current.append(&mut self.buckets[b]);
                    self.current.sort_unstable_by_key(|e| Reverse(key(e)));
                    if drained > FAT_WINDOW && self.shift > 0 {
                        // The window is far coarser than the event spacing;
                        // re-derive the width before draining it linearly.
                        self.retune(self.current.last().expect("drained > 0").0);
                    }
                }
                if !self.current.is_empty() {
                    break;
                }
            }
        }
    }

    /// Rebuilds the wheel with `count` buckets, re-deriving the width from
    /// the pending population and re-anchoring at the earliest pending
    /// event (or the current window when the queue is empty).
    fn rebuild(&mut self, count: usize) {
        let anchor = self.min_pending_time().unwrap_or(self.day << self.shift);
        self.collect_pending();
        self.set_bucket_count(count.clamp(MIN_BUCKETS, MAX_BUCKETS));
        self.apply_geometry(anchor);
    }

    /// Re-derives the width (keeping the bucket count) and re-anchors the
    /// wheel at `anchor` — used for overflow drains and fat windows.
    fn retune(&mut self, anchor: Nanos) {
        self.collect_pending();
        self.apply_geometry(anchor);
    }

    fn min_pending_time(&self) -> Option<Nanos> {
        let cur = self.current.last().map(|e| e.0);
        let wheel = self
            .buckets
            .iter()
            .flat_map(|b| b.iter().map(|e| e.0))
            .min();
        let over = self.overflow.iter().map(|e| e.0).min();
        [cur, wheel, over].into_iter().flatten().min()
    }

    /// Moves every pending entry into `scratch`, leaving the structures
    /// empty (capacities retained).
    fn collect_pending(&mut self) {
        self.scratch.clear();
        self.scratch.append(&mut self.current);
        for b in &mut self.buckets {
            self.scratch.append(b);
        }
        self.scratch.append(&mut self.overflow);
        self.overflow_min = Nanos::MAX;
        self.wheel_len = 0;
    }

    /// Sets the width from the spacing of the entries in `scratch`,
    /// anchors the current window at `anchor`, and re-inserts everything.
    fn apply_geometry(&mut self, anchor: Nanos) {
        self.resizes += 1;
        if !self.scratch.is_empty() {
            let mut min_t = Nanos::MAX;
            let mut max_t = 0;
            for e in &self.scratch {
                min_t = min_t.min(e.0);
                max_t = max_t.max(e.0);
            }
            // Width ≈ 4× the average spacing, so one rotation covers a few
            // multiples of the pending span and buckets hold O(1) events.
            let sep = (max_t - min_t) / self.scratch.len() as u64;
            self.shift = log2_clamped(sep.saturating_mul(4).max(1));
        }
        self.day = anchor >> self.shift;
        // Drain scratch without freeing its buffer.
        while let Some(e) = self.scratch.pop() {
            self.insert(e);
        }
    }

    /// Shrinks the wheel when the population has collapsed well below the
    /// bucket count.
    fn maybe_shrink(&mut self) {
        if self.bucket_count() > MIN_BUCKETS && self.len < self.bucket_count() / SHRINK_AT {
            self.rebuild(self.bucket_count() / 2);
        }
    }

    pub(crate) fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            bucket_count: self.bucket_count(),
            bucket_width_ns: 1u64 << self.shift,
            max_bucket_occupancy: self.max_bucket_occupancy,
            peak_events: self.peak_events,
            peak_event_slots: 0, // filled in by the engine
            resizes: self.resizes,
            peak_overflow: self.peak_overflow,
        }
    }
}

/// `floor(log2(x))` clamped to the supported width range.
fn log2_clamped(x: u64) -> u32 {
    (63 - x.max(1).leading_zeros().min(63)).min(MAX_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// Pushes an event at `t` and records the entry the queue stores: on a
    /// freshly reset queue the n-th push gets seq n, used here as the
    /// event id too.
    fn push(q: &mut CalendarQueue, pushed: &mut Vec<Entry>, t: Nanos) {
        let seq = pushed.len() as u64;
        q.push(t, seq as EventId);
        pushed.push((t, seq, seq as EventId));
    }

    /// Drains the queue, asserting the pop order equals the `(t, seq)`
    /// sort of everything pushed.
    fn assert_drains_sorted(q: &mut CalendarQueue, mut pushed: Vec<Entry>) {
        pushed.sort_unstable_by_key(|e| (e.0, e.1));
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped, pushed);
        assert!(q.pop().is_none());
    }

    fn fresh(width_hint: Nanos) -> CalendarQueue {
        let mut q = CalendarQueue::new();
        q.reset(width_hint, 4);
        q
    }

    /// The reference order: a binary heap over the same `(time, seq, id)`
    /// key, with seq numbered by push order like the calendar queue's.
    #[derive(Default)]
    struct HeapReference {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapReference {
        fn push(&mut self, t: Nanos, id: EventId) {
            self.heap.push(Reverse((t, self.seq, id)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<Entry> {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    /// Pushes the same event into the queue and the heap reference.
    fn push_both(q: &mut CalendarQueue, heap: &mut HeapReference, t: Nanos, id: EventId) {
        q.push(t, id);
        heap.push(t, id);
    }

    #[test]
    fn pops_in_time_seq_order_with_interleaved_pushes() {
        let mut q = fresh(100);
        let mut pushed = Vec::new();
        // A deterministic scatter of times, including duplicates (ordered
        // by seq) and zero.
        let mut t = 0u64;
        for seq in 0..200u64 {
            t = (t + (seq * 2654435761) % 1733) % 50_000;
            push(&mut q, &mut pushed, t);
        }
        assert_drains_sorted(&mut q, pushed);
    }

    #[test]
    fn events_exactly_on_bucket_edges() {
        // Width is 2^shift after reset; schedule events at exact multiples
        // of the width, one below, one above — the classic off-by-one
        // surface of a timing wheel.
        let mut q = fresh(1 << 6); // shift derives from 4× hint
        let w = {
            // Recover the actual width from stats.
            q.stats().bucket_width_ns
        };
        let mut pushed = Vec::new();
        for day in [0u64, 1, 2, 5, 31, 32, 33] {
            for dt in [0u64, 1, w - 1] {
                push(&mut q, &mut pushed, day * w + dt);
            }
        }
        assert_drains_sorted(&mut q, pushed);
    }

    #[test]
    fn far_future_overflow_drains_in_order() {
        let mut q = fresh(16);
        let horizon = q.stats().bucket_width_ns * q.stats().bucket_count as u64;
        let mut pushed = Vec::new();
        // Near events plus events far beyond the horizon (several epochs
        // out, and the end of the clock), so the wheel must re-anchor
        // through the overflow list.
        for t in [
            5u64,
            horizon * 3,
            horizon * 3 + 1,
            10,
            Nanos::MAX,
            horizon * 100,
            horizon * 2,
        ] {
            push(&mut q, &mut pushed, t);
        }
        assert!(q.stats().peak_overflow > 0, "far events must overflow");
        assert_drains_sorted(&mut q, pushed);
    }

    #[test]
    fn interleaved_pop_push_never_reorders() {
        // Pop half, push more (all ≥ the last popped time, as the engine
        // guarantees), pop the rest; the merged order must hold.
        let mut q = fresh(50);
        for seq in 0..50u64 {
            q.push(seq * 97 % 1000, seq as EventId);
        }
        let mut popped = Vec::new();
        for _ in 0..25 {
            popped.push(q.pop().unwrap());
        }
        let now = popped.last().unwrap().0;
        for seq in 50..120u64 {
            q.push(now + seq * 31 % 2000, seq as EventId);
        }
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        // The interleaved schedule is not globally sorted, but each pop
        // must be the minimum of what was pending at that moment; a
        // sufficient check is that pops are strictly increasing in
        // (t, seq) within each phase — and that nothing was lost.
        assert_eq!(popped.len(), 120);
        let mut seen: Vec<u32> = popped.iter().map(|e| e.2).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..120).collect::<Vec<u32>>());
        for w in popped[..25].windows(2) {
            assert!(key(&w[0]) < key(&w[1]));
        }
        for w in popped[25..].windows(2) {
            assert!(key(&w[0]) < key(&w[1]));
        }
    }

    #[test]
    fn growth_and_shrink_resize_keep_order() {
        let mut q = fresh(10);
        let initial_buckets = q.stats().bucket_count;
        let mut pushed = Vec::new();
        // Push far more than GROW_AT × initial buckets to force doubling.
        for seq in 0..(initial_buckets as u64 * 8) {
            push(&mut q, &mut pushed, seq * 13 % 100_000);
        }
        assert!(
            q.stats().bucket_count > initial_buckets,
            "population {} must have grown the {} buckets",
            pushed.len(),
            initial_buckets
        );
        assert!(q.stats().resizes > 0);
        assert_drains_sorted(&mut q, pushed);

        // After a full drain plus shrink checks, a tiny population shrinks
        // the wheel again.
        for seq in 0..4u64 {
            q.push(seq, seq as EventId);
        }
        for _ in 0..4 {
            q.maybe_shrink();
        }
        assert!(q.stats().bucket_count < initial_buckets * 8);
        while q.pop().is_some() {}
    }

    #[test]
    fn heap_and_calendar_queue_pop_identically() {
        let mut q = CalendarQueue::new();
        q.reset(100, 8);
        let mut heap = HeapReference::default();
        let mut t = 1u64;
        for i in 0..500u32 {
            t = (t * 48271) % 0x7FFF_FFFF;
            push_both(&mut q, &mut heap, t % 1_000_000, i);
        }
        loop {
            let a = q.pop();
            assert_eq!(a, heap.pop());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn interleaved_random_stress_matches_heap() {
        // Mimics the sim's push pattern: each pop may push 0–2 new events
        // at now + delta, with deltas spanning sub-window to far-future.
        // Odd trials add bursts: up to 32 events at one time (half of them
        // at `now` itself), which only the seq tie-break can order. Runs
        // past 1 024 pops cross the shrink cadence.
        let mut q = CalendarQueue::new();
        for trial in 0..50u64 {
            q.reset(1 << (trial % 14), 4);
            let mut heap = HeapReference::default();
            let mut state = trial.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut rnd = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545F4914F6CDD1D)
            };
            let mut id = 0u32;
            for _ in 0..20 {
                push_both(&mut q, &mut heap, rnd() % 100_000, id);
                id += 1;
            }
            let mut pops = 0u32;
            loop {
                let a = q.pop();
                assert_eq!(a, heap.pop(), "trial {trial} diverged at pop {pops}");
                let Some((now, _, _)) = a else { break };
                pops += 1;
                if pops >= 3000 {
                    continue;
                }
                for _ in 0..(rnd() % 3) {
                    let delta = match rnd() % 10 {
                        0..=5 => rnd() % 5_000,
                        6..=8 => rnd() % 500_000,
                        _ => rnd() % 500_000_000,
                    };
                    push_both(&mut q, &mut heap, now + delta, id);
                    id += 1;
                }
                if trial % 2 == 1 && rnd() % 8 == 0 {
                    let at = now + if rnd() % 2 == 0 { 0 } else { rnd() % 500_000 };
                    for _ in 0..=(rnd() % 32) {
                        push_both(&mut q, &mut heap, at, id);
                        id += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn log2_clamps() {
        assert_eq!(log2_clamped(0), 0);
        assert_eq!(log2_clamped(1), 0);
        assert_eq!(log2_clamped(2), 1);
        assert_eq!(log2_clamped(1023), 9);
        assert_eq!(log2_clamped(1024), 10);
        assert_eq!(log2_clamped(u64::MAX), MAX_SHIFT);
    }
}
