//! The event router (paper §4.2).
//!
//! "The router implements two queues: a regular FIFO queue for event
//! processing and a priority queue for dispatching error messages. When an
//! event is placed inside a queue, control is immediately transferred back
//! to the originator." Error events (ids 64–127) always dispatch before
//! regular events. Every event is delivered to a driver slot: a driver
//! calls a native library directly with `signal`, and the network stack
//! reaches a driver through [`Runtime::request`](crate::Runtime::request).

use std::collections::VecDeque;

use upnp_sim::CpuCost;

use crate::cost::VmCostModel;
use crate::value::Cell;

/// An event in flight to a driver.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedEvent {
    /// The driver slot it is delivered to.
    pub slot: u8,
    /// Event id (error ids 64–127 take the priority queue).
    pub event: u8,
    /// Payload cells.
    pub args: Vec<Cell>,
}

impl RoutedEvent {
    /// True if this event id is in the error range.
    pub fn is_error(&self) -> bool {
        (64..128).contains(&self.event)
    }
}

/// The two-queue event router.
#[derive(Debug, Default)]
pub struct EventRouter {
    fifo: VecDeque<RoutedEvent>,
    errors: VecDeque<RoutedEvent>,
    routed: u64,
}

impl EventRouter {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an event; errors go to the priority queue.
    pub fn post(&mut self, event: RoutedEvent) {
        if event.is_error() {
            self.errors.push_back(event);
        } else {
            self.fifo.push_back(event);
        }
    }

    /// Dequeues the next event: all pending errors first, then FIFO order.
    /// Accrues the per-event routing cost into `cost`.
    pub fn next(&mut self, cost: &mut CpuCost) -> Option<RoutedEvent> {
        let ev = self.errors.pop_front().or_else(|| self.fifo.pop_front())?;
        self.routed += 1;
        *cost += VmCostModel.route_event();
        Some(ev)
    }

    /// Number of queued events (both queues).
    pub fn len(&self) -> usize {
        self.fifo.len() + self.errors.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.errors.is_empty()
    }

    /// Total events routed since construction.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// RAM occupied by queue structures (Table 2 accounting): the embedded
    /// implementation uses two fixed 16-entry rings of 8-byte descriptors.
    pub fn ram_bytes(&self) -> usize {
        2 * 16 * 8 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_dsl::events::errors;

    fn ev(slot: u8, event: u8) -> RoutedEvent {
        RoutedEvent {
            slot,
            event,
            args: Vec::new(),
        }
    }

    #[test]
    fn fifo_order_for_regular_events() {
        let mut r = EventRouter::new();
        for i in 0..5 {
            r.post(ev(i, i));
        }
        let mut cost = CpuCost::ZERO;
        for i in 0..5 {
            assert_eq!(r.next(&mut cost).unwrap().event, i);
        }
        assert!(r.next(&mut cost).is_none());
    }

    #[test]
    fn errors_preempt_regular_events() {
        let mut r = EventRouter::new();
        r.post(ev(0, 2)); // regular read
        r.post(ev(0, errors::TIME_OUT));
        r.post(ev(0, 16)); // regular newdata
        r.post(ev(0, errors::BUS_ERROR));
        let mut cost = CpuCost::ZERO;
        let order: Vec<u8> = std::iter::from_fn(|| r.next(&mut cost))
            .map(|e| e.event)
            .collect();
        assert_eq!(
            order,
            vec![errors::TIME_OUT, errors::BUS_ERROR, 2, 16],
            "errors first (among themselves FIFO), then regular FIFO"
        );
    }

    #[test]
    fn routing_cost_is_charged_per_event() {
        let mut r = EventRouter::new();
        r.post(ev(0, 2));
        r.post(ev(0, 2));
        let mut cost = CpuCost::ZERO;
        r.next(&mut cost);
        let one = cost.cycles;
        r.next(&mut cost);
        assert_eq!(cost.cycles, 2 * one, "linear scaling in events");
        assert_eq!(one, crate::cost::ROUTE_EVENT_CYCLES);
        assert_eq!(r.routed(), 2);
    }

    #[test]
    fn len_tracks_both_queues() {
        let mut r = EventRouter::new();
        assert!(r.is_empty());
        r.post(ev(0, 2));
        r.post(ev(0, errors::TIME_OUT));
        assert_eq!(r.len(), 2);
        let mut cost = CpuCost::ZERO;
        r.next(&mut cost);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn error_range_detection() {
        assert!(!ev(0, 0).is_error());
        assert!(!ev(0, 63).is_error());
        assert!(ev(0, 64).is_error());
        assert!(ev(0, 127).is_error());
        assert!(!ev(0, 128).is_error());
    }
}
