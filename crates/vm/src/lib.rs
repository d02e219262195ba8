//! The µPnP execution environment (paper §4.2, Figure 8).
//!
//! Five software elements run on every µPnP Thing:
//!
//! * the **peripheral controller** ([`controller`]) interfaces with the
//!   control board and implements the identification routine;
//! * the **driver manager** ([`manager`]) tracks installed drivers and
//!   their peripherals, and supports over-the-air deploy/remove;
//! * a **virtual machine** ([`vm`]) with a single operand stack executes
//!   driver bytecode, run-to-completion, no blocking;
//! * **native interconnect libraries** ([`natives`]) implement the
//!   platform-specific ADC/UART/I²C/SPI (+timer) calls behind the event
//!   API drivers import;
//! * an **event router** ([`router`]) delivers events to driver slots:
//!   a driver's signals to itself, native-library completions and errors,
//!   and the reads and writes the network stack (in `upnp-core`)
//!   requests, with a FIFO queue for regular events and a priority queue
//!   for errors.
//!
//! [`runtime`] wires them together on the deterministic virtual clock, and
//! [`cost`] prices every operation in ATMega128RFA1 cycles so the §6.2
//! measurements (39.7 µs per instruction, 11.1 µs push, 8.9 µs pop,
//! 77.79 µs per routed event) can be reproduced. [`footprint`] implements
//! the Table 2 memory accounting.

pub mod controller;
pub mod cost;
pub mod footprint;
pub mod manager;
pub mod natives;
pub mod router;
pub mod runtime;
pub mod value;
pub mod vm;

pub use controller::{PeripheralChange, PeripheralController};
pub use cost::VmCostModel;
pub use footprint::{FootprintReport, MemoryFootprint};
pub use manager::{DriverManager, DriverSlot, InstallError, SlotId};
pub use router::{EventRouter, RoutedEvent};
pub use runtime::{CompletedOp, OpToken, PendingKind, Runtime};
pub use value::Cell;
pub use vm::{DriverInstance, HandlerOutcome, ReturnValue, SignalOut, VmError};
