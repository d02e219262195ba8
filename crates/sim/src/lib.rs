//! Deterministic discrete-event simulation kernel for the µPnP reproduction.
//!
//! The paper evaluates µPnP on physical hardware: an ATMega128RFA1
//! microcontroller running Contiki 2.7 with an 802.15.4 radio. This crate
//! provides the substrate that stands in for that testbed:
//!
//! * [`time`] — a virtual clock with nanosecond resolution ([`SimTime`],
//!   [`SimDuration`]). All timings reported by the reproduction are measured
//!   in virtual time, never wall-clock time, so every experiment is exactly
//!   reproducible.
//! * [`sched`] — an event scheduler generic over the event payload type: a
//!   sorted run for events that arrive in firing order beside a binary heap
//!   for the rest. Ties are broken by insertion order, which keeps runs
//!   deterministic.
//! * [`rng`] — a seeded deterministic random source with helpers for sampling
//!   component tolerances and packet loss.
//! * [`energy`] — joule accounting: integrating meters and power-state
//!   trackers used by the hardware, radio and deployment models.
//! * [`cpu`] — a calibrated cost model of the ATMega128RFA1 (16 MHz AVR) that
//!   converts abstract operation costs into virtual time and energy, so the
//!   paper's millisecond-scale Tables 2/4 numbers can be compared
//!   shape-for-shape.
//! * [`trace`] — a bounded trace recorder used to dump waveforms
//!   (Figures 2, 3 and 5) and protocol timelines.
//! * [`vec_map`] — a map for the few entries a Thing or its runtime keeps
//!   per peripheral, slot or operation.

pub mod cpu;
pub mod energy;
pub mod rng;
pub mod sched;
pub mod time;
pub mod trace;
pub mod vec_map;

pub use cpu::{AvrCostModel, CpuCost};
pub use energy::{EnergyMeter, PowerState, PowerTracker};
pub use rng::{splitmix64, SimRng};
pub use sched::{EventEntry, Scheduler};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent};
pub use vec_map::VecMap;
