//! Property tests for the DES kernel's ordering invariants.

use std::collections::BinaryHeap;

use proptest::prelude::*;
use upnp_sim::{EventEntry, Scheduler, SimDuration, SimTime};

proptest! {
    /// Events always pop in non-decreasing time order, whatever the
    /// insertion order.
    #[test]
    fn pops_are_time_ordered(delays in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut s: Scheduler<usize> = Scheduler::new();
        for (i, &d) in delays.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(d), i);
        }
        let mut last = SimTime::ZERO;
        while let Some(e) = s.pop() {
            prop_assert!(e.at >= last, "time went backwards");
            last = e.at;
        }
    }

    /// Events with equal timestamps pop in insertion order (determinism).
    #[test]
    fn ties_break_by_insertion(count in 1usize..100, at in 0u64..1_000) {
        let mut s: Scheduler<usize> = Scheduler::new();
        for i in 0..count {
            s.schedule_at(SimTime::from_nanos(at), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| s.pop().map(|e| e.event)).collect();
        let expected: Vec<usize> = (0..count).collect();
        prop_assert_eq!(order, expected);
    }

    /// The clock after draining equals the max scheduled time.
    #[test]
    fn clock_lands_on_last_event(delays in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let mut s: Scheduler<()> = Scheduler::new();
        let max = *delays.iter().max().unwrap();
        for &d in &delays {
            s.schedule_at(SimTime::from_nanos(d), ());
        }
        while s.pop().is_some() {}
        prop_assert_eq!(s.now(), SimTime::from_nanos(max));
    }

    /// The sorted run beside the heap is invisible: any interleaving of
    /// in-order, same-instant and out-of-order `schedule_at` calls with
    /// pops gives exactly the `(at, seq, event)` sequence, `peek_time`
    /// and `len` of one binary heap over every entry.
    #[test]
    fn pops_match_one_heap(ops in prop::collection::vec((0u8..4, 0u64..1_000), 1..400)) {
        let mut s: Scheduler<usize> = Scheduler::new();
        let mut reference: BinaryHeap<EventEntry<usize>> = BinaryHeap::new();
        let (mut now, mut high, mut seq) = (0u64, 0u64, 0u64);
        for (i, &(kind, d)) in ops.iter().enumerate() {
            let at = match kind {
                // In order: not below anything scheduled so far.
                0 => high + d,
                // Same instant as the latest entry, or as the clock.
                1 => if d % 2 == 0 { high } else { now },
                // Out of order: anywhere from the clock to the latest.
                2 => now + d % (high - now + 1),
                _ => {
                    let got = s.pop().map(|e| (e.at, e.seq, e.event));
                    let want = reference.pop().map(|e| (e.at, e.seq, e.event));
                    prop_assert_eq!(got, want);
                    if let Some((at, _, _)) = got {
                        now = at.as_nanos();
                    }
                    prop_assert_eq!(s.peek_time(), reference.peek().map(|e| e.at));
                    prop_assert_eq!(s.len(), reference.len());
                    continue;
                }
            };
            high = high.max(at);
            s.schedule_at(SimTime::from_nanos(at), i);
            reference.push(EventEntry { at: SimTime::from_nanos(at), seq, event: i });
            seq += 1;
            prop_assert_eq!(s.peek_time(), reference.peek().map(|e| e.at));
            prop_assert_eq!(s.len(), reference.len());
        }
        while let Some(want) = reference.pop() {
            let got = s.pop().map(|e| (e.at, e.seq, e.event));
            prop_assert_eq!(got, Some((want.at, want.seq, want.event)));
        }
        prop_assert!(s.is_empty() && s.pop().is_none());
    }

    /// Duration arithmetic: sum of parts equals the whole (no overflow in
    /// realistic ranges).
    #[test]
    fn duration_addition_is_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let d = SimDuration::from_nanos(a) + SimDuration::from_nanos(b);
        prop_assert_eq!(d.as_nanos(), a + b);
    }

    /// Converting through f64 seconds round-trips within 1 ns per second
    /// of magnitude (f64 precision bound).
    #[test]
    fn float_roundtrip_is_tight(ns in 0u64..(1u64 << 52)) {
        let d = SimDuration::from_nanos(ns);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let err = back.as_nanos().abs_diff(ns);
        prop_assert!(err <= 1 + ns / 1_000_000_000, "error {err} ns");
    }
}
