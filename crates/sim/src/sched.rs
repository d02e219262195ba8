//! Deterministic event scheduler.
//!
//! A classic discrete-event simulation core: a priority queue of
//! `(time, sequence, event)` entries popped in time order. The monotonically
//! increasing sequence number breaks ties in insertion order, which makes
//! runs bit-for-bit reproducible — an essential property for the paper's
//! experiments, every one of which we re-run under fixed seeds.
//!
//! Most events are scheduled in the order they fire: a request stream
//! staggered ahead of time, a completion after the one before it. The
//! queue therefore keeps a *sorted run* beside its heap. An entry whose
//! `(at, seq)` key is not below the run's last key is appended to the
//! run in O(1); only the others pay for a heap push. A pop takes the
//! smaller of the two heads, so the order is exactly that of one heap
//! over every entry, and a queue holding 200,000 staggered requests pops
//! its next event without walking a 200,000-entry heap.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// An event queued for execution at a virtual instant.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion sequence number; orders simultaneous events.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for EventEntry<E> {}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; invert so the earliest entry wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The entries of room a drained [`Scheduler`] part may keep.
const KEEP_ON_DRAIN: usize = 16;

/// A deterministic discrete-event scheduler.
///
/// The scheduler owns the virtual clock: popping an event advances
/// [`Scheduler::now`] to the event's timestamp. Scheduling into the past is
/// a logic error and panics, as it would silently reorder causality.
///
/// The pending entries live in two parts: a sorted run, appended to while
/// entries arrive in firing order, and a heap for the rest. Whenever the
/// queue drains, a part whose buffer has room for more than 16 entries
/// releases it. A queue that absorbed a burst and sits idle therefore
/// holds no more than a small constant buffer, and one that only ever
/// holds a few entries never reallocates.
///
/// # Examples
///
/// ```
/// use upnp_sim::{Scheduler, SimDuration};
///
/// let mut sched: Scheduler<&str> = Scheduler::new();
/// sched.schedule_in(SimDuration::from_millis(10), "b");
/// sched.schedule_in(SimDuration::from_millis(5), "a");
/// assert_eq!(sched.pop().unwrap().event, "a");
/// assert_eq!(sched.pop().unwrap().event, "b");
/// assert_eq!(sched.now().as_nanos(), 10_000_000);
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    /// Entries in ascending `(at, seq)` order.
    run: VecDeque<EventEntry<E>>,
    /// Entries that arrived below the run's last key.
    heap: BinaryHeap<EventEntry<E>>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty scheduler whose heap is pre-sized for `capacity`
    /// pending events — fleet-scale simulations queue thousands of
    /// out-of-order deliveries at once, and growing the heap mid-run
    /// shows up in profiles.
    pub fn with_capacity(capacity: usize) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            run: VecDeque::new(),
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current virtual time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled into the past: {at} < now {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let entry = EventEntry { at, seq, event };
        // `seq` only grows, so `at` alone decides whether the entry keeps
        // the run sorted.
        match self.run.back() {
            Some(last) if at < last.at => self.heap.push(entry),
            _ => self.run.push_back(entry),
        }
    }

    /// Schedules `event` after the relative delay `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at the current instant (after already-queued
    /// events with the same timestamp).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        let from_heap = match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => (h.at, h.seq) < (r.at, r.seq),
            (None, Some(_)) => true,
            (_, None) => false,
        };
        let entry = if from_heap {
            self.heap.pop()
        } else {
            self.run.pop_front()
        }?;
        if self.is_empty() {
            // Drained: give back what a burst grew.
            if self.run.capacity() > KEEP_ON_DRAIN {
                self.run = VecDeque::new();
            }
            if self.heap.capacity() > KEEP_ON_DRAIN {
                self.heap = BinaryHeap::new();
            }
        }
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some(entry)
    }

    /// Drops every pending event for which `keep` returns false; the
    /// others fire in the order they would have.
    pub fn retain(&mut self, mut keep: impl FnMut(&E) -> bool) {
        self.run.retain(|e| keep(&e.event));
        self.heap.retain(|e| keep(&e.event));
    }

    /// Returns the timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => Some(r.at.min(h.at)),
            (r, h) => r.or(h).map(|e| e.at),
        }
    }

    /// Advances the clock to `at` without executing anything.
    ///
    /// Useful for idle periods (e.g. fast-forwarding a one-year deployment
    /// between peripheral changes).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time or would skip over a
    /// pending event.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "advance_to into the past");
        if let Some(next) = self.peek_time() {
            assert!(
                at <= next,
                "advance_to {at} would skip a pending event at {next}"
            );
        }
        self.now = at;
    }

    /// Drains and returns all pending events in firing order, advancing the
    /// clock to the last event's timestamp.
    pub fn drain_ordered(&mut self) -> Vec<EventEntry<E>> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_in(SimDuration::from_millis(30), 3);
        s.schedule_in(SimDuration::from_millis(10), 1);
        s.schedule_in(SimDuration::from_millis(20), 2);
        let order: Vec<u32> = s.drain_ordered().into_iter().map(|e| e.event).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..100 {
            s.schedule_in(SimDuration::from_millis(5), i);
        }
        let order: Vec<u32> = s.drain_ordered().into_iter().map(|e| e.event).collect();
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn pop_advances_clock() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_in(SimDuration::from_micros(7), ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop().unwrap();
        assert_eq!(s.now().as_nanos(), 7_000);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_in(SimDuration::from_millis(1), ());
        s.pop();
        s.schedule_at(SimTime::ZERO, ());
    }

    #[test]
    fn advance_to_is_bounded_by_next_event() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_in(SimDuration::from_millis(10), ());
        s.advance_to(SimTime::from_nanos(5_000_000));
        assert_eq!(s.now().as_nanos(), 5_000_000);
    }

    #[test]
    #[should_panic(expected = "would skip a pending event")]
    fn advance_past_event_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_in(SimDuration::from_millis(1), ());
        s.advance_to(SimTime::from_nanos(2_000_000));
    }

    #[test]
    fn schedule_now_runs_after_equal_timestamps() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_now("first");
        s.schedule_now("second");
        assert_eq!(s.pop().unwrap().event, "first");
        assert_eq!(s.pop().unwrap().event, "second");
    }

    #[test]
    fn a_drained_queue_keeps_only_a_small_buffer() {
        let mut s: Scheduler<u32> = Scheduler::new();
        // One entry in order, then 20 below it: the heap outgrows the cap.
        s.schedule_at(SimTime::from_nanos(100), 0);
        for i in 1..=20 {
            s.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        assert_eq!((s.run.len(), s.heap.len()), (1, 20));
        s.drain_ordered();
        // The burst's heap goes; the run's room for a few entries stays.
        assert_eq!(s.heap.capacity(), 0);
        let small = s.run.capacity();
        assert!((1..=KEEP_ON_DRAIN).contains(&small), "run keeps {small}");
        // A burst that fits keeps the buffer it found.
        for i in 0..3 {
            s.schedule_at(SimTime::from_nanos(200 + i), i as u32);
        }
        s.drain_ordered();
        assert_eq!(s.run.capacity(), small);
        // A long run is given back too.
        for i in 0..100 {
            s.schedule_at(SimTime::from_nanos(300 + i), i as u32);
        }
        s.drain_ordered();
        assert_eq!((s.run.capacity(), s.heap.capacity()), (0, 0));
    }

    #[test]
    fn retain_drops_events_and_keeps_the_order_of_the_rest() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in [50, 10, 40, 20, 30, 60] {
            s.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        s.retain(|&e| e % 20 != 0);
        let order: Vec<u32> = s.drain_ordered().into_iter().map(|e| e.event).collect();
        assert_eq!(order, vec![10, 30, 50]);
    }

    #[test]
    fn len_and_is_empty_track_queue() {
        let mut s: Scheduler<()> = Scheduler::new();
        assert!(s.is_empty());
        s.schedule_now(());
        assert_eq!(s.len(), 1);
        s.pop();
        assert!(s.is_empty());
        assert!(s.pop().is_none());
    }
}
