//! The assembled execution environment on one Thing (paper Figure 8,
//! minus the network stack, which `upnp-core` adds on top).
//!
//! The runtime owns the event router, driver manager, native libraries and
//! hardware context, and advances a deterministic virtual clock. Its
//! dispatch loop models the single-threaded MCU: one event at a time, each
//! handler run to completion, bus completions delivered from the deferred
//! queue only when the router drains — then time jumps to the next
//! completion.

use std::sync::Arc;

use upnp_dsl::events::{errors, ids, libs};
use upnp_dsl::image::DriverImage;
use upnp_sim::{AvrCostModel, CpuCost, EnergyMeter, Scheduler, SimDuration, SimTime};

use crate::manager::{DriverManager, InstallError, SlotId};
use crate::natives::{DeferredAction, HwContext, NativeLibs};
use crate::router::{EventRouter, RoutedEvent};
use crate::value::Cell;
use crate::vm::{ReturnValue, VmError};

/// A token identifying an in-flight remote operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpToken(pub u64);

/// The kind of remote operation pending on a driver (§5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingKind {
    /// `read`: expects a value back.
    Read,
    /// `write`: expects an acknowledgement.
    Write,
}

/// A resolved operation, ready for the network layer to answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedOp {
    /// The token from [`Runtime::request`].
    pub token: OpToken,
    /// The driver slot that served it.
    pub slot: SlotId,
    /// What kind of operation it was.
    pub kind: PendingKind,
    /// The returned value (`None` for acknowledgements or missing
    /// handlers).
    pub value: Option<ReturnValue>,
    /// Virtual time of completion.
    pub at: SimTime,
}

#[derive(Debug)]
struct PendingOp {
    token: OpToken,
    slot: SlotId,
    kind: PendingKind,
}

/// The per-Thing execution environment.
pub struct Runtime {
    /// The two-queue event router.
    pub router: EventRouter,
    /// Installed drivers.
    pub manager: DriverManager,
    /// Native library state.
    pub natives: NativeLibs,
    /// Buses, peripherals and the physical environment.
    pub hw: HwContext,
    /// Completions due later on the virtual clock: bus wire time, UART
    /// timeouts and driver timers.
    pub(crate) sched: Scheduler<DeferredAction>,
    now: SimTime,
    avr: AvrCostModel,
    cpu_meter: EnergyMeter,
    pub(crate) bus_meter: EnergyMeter,
    pending: Vec<PendingOp>,
    completed: Vec<CompletedOp>,
    next_token: u64,
    events_dispatched: u64,
    instructions_retired: u64,
}

/// Blueprint for per-Thing runtimes.
///
/// The CPU cost model and hardware defaults are fleet-invariant;
/// [`RuntimeTemplate::instantiate`] wires a fresh per-Thing context
/// (buses, router, meters) around them. One template serves an entire
/// fleet build — only the noise seed varies per Thing.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeTemplate {
    avr: AvrCostModel,
}

impl Default for RuntimeTemplate {
    fn default() -> Self {
        RuntimeTemplate {
            avr: AvrCostModel::atmega128rfa1(),
        }
    }
}

impl RuntimeTemplate {
    /// Stamps out one runtime seeded with `seed`.
    pub fn instantiate(&self, seed: u64) -> Runtime {
        Runtime {
            router: EventRouter::new(),
            manager: DriverManager::new(),
            natives: NativeLibs::new(),
            hw: HwContext::new(seed),
            sched: Scheduler::new(),
            now: SimTime::ZERO,
            avr: self.avr,
            cpu_meter: EnergyMeter::new("mcu"),
            bus_meter: EnergyMeter::new("bus"),
            pending: Vec::new(),
            completed: Vec::new(),
            next_token: 1,
            events_dispatched: 0,
            instructions_retired: 0,
        }
    }
}

impl Runtime {
    /// Creates a runtime with default hardware and the given noise seed.
    pub fn new(seed: u64) -> Self {
        RuntimeTemplate::default().instantiate(seed)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `at` (idle time costs nothing: the MCU
    /// sleeps).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "runtime clock cannot go backwards");
        self.now = at;
    }

    /// Charges a CPU cost against the clock and the MCU energy meter:
    /// the runtime's own work, or work done outside it such as
    /// network-stack packet processing.
    pub fn charge(&mut self, cost: CpuCost) {
        self.now += self.avr.duration(cost);
        self.cpu_meter.charge_j(self.avr.energy_j(cost));
    }

    /// Cumulative MCU energy, joules.
    pub fn cpu_energy_j(&self) -> f64 {
        self.cpu_meter.total_j()
    }

    /// Cumulative bus/peripheral-communication energy, joules.
    pub fn bus_energy_j(&self) -> f64 {
        self.bus_meter.total_j()
    }

    /// Lifetime counters: `(events dispatched, instructions retired)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.events_dispatched, self.instructions_retired)
    }

    /// Installs a driver for the peripheral on `channel` and fires its
    /// `init` event (§4.1: "an init event is automatically fired by the
    /// µPnP runtime when a new peripheral is plugged in and its
    /// corresponding driver is installed").
    ///
    /// # Errors
    ///
    /// See [`DriverManager::install`].
    pub fn install_driver(
        &mut self,
        image: impl Into<Arc<DriverImage>>,
        channel: u8,
    ) -> Result<SlotId, InstallError> {
        let slot = self.manager.install(image, channel)?;
        self.router.post(RoutedEvent {
            slot,
            event: ids::INIT,
            args: Vec::new(),
        });
        Ok(slot)
    }

    /// Fires `destroy` and removes the driver in `slot`, releasing the
    /// native state it held whether or not `destroy` did.
    pub fn remove_driver(&mut self, slot: SlotId) {
        if self.manager.get(slot).is_some() {
            self.router.post(RoutedEvent {
                slot,
                event: ids::DESTROY,
                args: Vec::new(),
            });
            self.run_until_idle();
            self.manager.remove(slot);
            // Drop any pending operations against the removed driver.
            self.pending.retain(|p| p.slot != slot);
            self.natives.release(slot, &mut self.hw);
        }
    }

    /// Issues a remote operation (read or write) against a driver.
    /// Returns the token that will appear in a [`CompletedOp`].
    pub fn request(&mut self, slot: SlotId, kind: PendingKind, args: Vec<Cell>) -> OpToken {
        let token = OpToken(self.next_token);
        self.next_token += 1;
        let event = match kind {
            PendingKind::Read => ids::READ,
            PendingKind::Write => ids::WRITE,
        };
        self.pending.push(PendingOp { token, slot, kind });
        self.router.post(RoutedEvent { slot, event, args });
        token
    }

    /// Pumps the UART: moves device bytes into the FIFO and schedules
    /// per-byte `newdata` deliveries with wire timing. Call after changing
    /// the environment (e.g. presenting an RFID card).
    pub fn pump_uart(&mut self) {
        let Some(reader) = self.natives.uart_reader else {
            return;
        };
        let Some(mut device) = self.hw.uart_device.take() else {
            return;
        };
        let result = self.hw.uart.pump(device.as_mut(), &mut self.hw.env);
        self.hw.uart_device = Some(device);
        let Ok((n, tx)) = result else {
            return;
        };
        if n == 0 {
            return;
        }
        self.bus_meter.charge_j(tx.energy_j);
        let byte_time = tx.duration / n as u64;
        let mut delay = SimDuration::ZERO;
        while let Some(byte) = self.hw.uart.read_byte() {
            delay += byte_time;
            self.sched.schedule_at(
                self.clamp_future(delay),
                DeferredAction::UartByte { slot: reader, byte },
            );
        }
        if self.hw.uart.take_overrun() {
            self.router.post(RoutedEvent {
                slot: reader,
                event: errors::BUS_ERROR,
                args: Vec::new(),
            });
        }
    }

    /// Schedules a deferred action `delay` from now.
    pub(crate) fn defer(&mut self, delay: SimDuration, action: DeferredAction) {
        self.sched.schedule_at(self.clamp_future(delay), action);
    }

    /// Absolute schedule time for a relative delay, respecting the
    /// scheduler's internal clock (which lags `self.now`).
    fn clamp_future(&self, delay: SimDuration) -> SimTime {
        let t = self.now + delay;
        if t < self.sched.now() {
            self.sched.now()
        } else {
            t
        }
    }

    /// Runs until both the router and the deferred queue are empty.
    /// Returns operations completed during this run.
    pub fn run_until_idle(&mut self) -> Vec<CompletedOp> {
        loop {
            // A subscribed UART reader picks up any bytes the device has
            // ready (e.g. a card that was already in the field when
            // `uart.read` was signalled).
            self.pump_uart();
            // Drain the router first: the MCU services queued events before
            // sleeping.
            let mut route_cost = CpuCost::ZERO;
            if let Some(ev) = self.router.next(&mut route_cost) {
                self.charge(route_cost);
                self.dispatch(ev);
                continue;
            }
            // Router idle: wake at the next deferred completion.
            match self.sched.pop() {
                Some(entry) => {
                    if entry.at > self.now {
                        self.now = entry.at;
                    }
                    self.resolve_deferred(entry.event);
                }
                None => break,
            }
        }
        std::mem::take(&mut self.completed)
    }

    fn resolve_deferred(&mut self, action: DeferredAction) {
        match action {
            DeferredAction::Post(ev) => self.router.post(ev),
            DeferredAction::TimerFired { slot, generation } => {
                if self.natives.timer_gen.get(&slot).copied() == Some(generation) {
                    self.router.post(RoutedEvent {
                        slot,
                        event: ids::TIMER_FIRED,
                        args: Vec::new(),
                    });
                }
            }
            DeferredAction::UartByte { slot, byte } => {
                // The byte ends the wait: a timeout armed before it would
                // otherwise wake the MCU for nothing.
                self.sched
                    .retain(|a| !matches!(a, DeferredAction::UartTimeout { .. }));
                self.router.post(RoutedEvent {
                    slot,
                    event: ids::NEWDATA,
                    args: vec![Cell::from_i32(i32::from(byte))],
                });
            }
            DeferredAction::UartTimeout { slot } => {
                if self.natives.uart_reader == Some(slot) {
                    self.router.post(RoutedEvent {
                        slot,
                        event: errors::TIME_OUT,
                        args: Vec::new(),
                    });
                }
            }
        }
    }

    fn dispatch(&mut self, ev: RoutedEvent) {
        self.events_dispatched += 1;
        let slot = ev.slot;
        let Some(driver) = self.manager.get_mut(slot) else {
            return; // Driver was removed while the event was queued.
        };
        let outcome = driver.instance.run_handler(ev.event, &ev.args);
        if outcome.error == Some(VmError::NoHandler(ev.event)) {
            // Unhandled events are dropped; a pending op against a driver
            // with no matching handler resolves to "no value".
            self.resolve_pending_if_op(slot, ev.event);
            return;
        }
        self.instructions_retired += outcome.instructions;
        self.charge(outcome.cost);

        for sig in outcome.signals {
            if sig.lib == libs::THIS {
                self.router.post(RoutedEvent {
                    slot,
                    event: sig.event,
                    args: sig.args,
                });
            } else {
                self.call_native(slot, sig.lib, sig.event, &sig.args);
            }
        }

        if let Some(value) = outcome.returned {
            self.resolve_pending(slot, None, Some(value));
        }

        if let Some(vm_error) = outcome.error {
            let error_event = map_vm_error(vm_error);
            // Do not recurse on errors raised by error handlers.
            if !(64..128).contains(&ev.event) {
                if let Some(event) = error_event {
                    self.router.post(RoutedEvent {
                        slot,
                        event,
                        args: Vec::new(),
                    });
                }
            }
        }
    }

    /// Resolves the oldest pending op on `slot` with `value`: the oldest
    /// of `kind` if one is given, else the oldest of any kind.
    fn resolve_pending(
        &mut self,
        slot: SlotId,
        kind: Option<PendingKind>,
        value: Option<ReturnValue>,
    ) {
        let found = self
            .pending
            .iter()
            .position(|p| p.slot == slot && kind.is_none_or(|k| p.kind == k));
        if let Some(idx) = found {
            let p = self.pending.remove(idx);
            self.completed.push(CompletedOp {
                token: p.token,
                slot: p.slot,
                kind: p.kind,
                value,
                at: self.now,
            });
        }
    }

    /// If the dispatched event was a remote op with no handler, resolve
    /// the oldest op of its kind with no value, so its caller is not left
    /// hanging and no other request is answered in its place.
    fn resolve_pending_if_op(&mut self, slot: SlotId, event: u8) {
        let kind = match event {
            ids::READ => PendingKind::Read,
            ids::WRITE => PendingKind::Write,
            _ => return,
        };
        self.resolve_pending(slot, Some(kind), None);
    }
}

/// Maps interpreter faults onto the paper's error-event vocabulary.
fn map_vm_error(e: VmError) -> Option<u8> {
    match e {
        VmError::OutOfRange => Some(errors::OUT_OF_RANGE),
        VmError::StackOverflow | VmError::StackUnderflow => Some(errors::STACK_OVERFLOW),
        VmError::DivideByZero => Some(errors::DIVIDE_BY_ZERO),
        VmError::GasExhausted => Some(errors::TIME_OUT),
        VmError::BadOpcode(_) | VmError::BadJump | VmError::BadSlot(_) => Some(errors::BUS_ERROR),
        VmError::NoHandler(_) => None,
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("now", &self.now)
            .field("drivers", &self.manager.installed())
            .field("router_queue", &self.router.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_bus::peripherals::{Bmp180, Hih4030, Id20La, Max6675, Tmp36, BMP180_I2C_ADDR};
    use upnp_dsl::compile_source;
    use upnp_dsl::drivers;

    #[test]
    fn tmp36_read_roundtrip() {
        let mut rt = Runtime::new(42);
        rt.hw.env.temperature_c = 31.0;
        rt.hw.analog_sources.insert(0, Box::new(Tmp36::new()));
        let image = compile_source(drivers::TMP36, 0xad1c_be01).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();

        let token = rt.request(slot, PendingKind::Read, vec![]);
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, token);
        let Some(ReturnValue::Scalar(v)) = done[0].value else {
            panic!("expected scalar: {:?}", done[0].value);
        };
        let temp = v.as_f32();
        assert!((temp - 31.0).abs() < 1.5, "temperature {temp}");
        // Virtual time advanced (ADC conversion + handler execution).
        assert!(rt.now() > SimTime::ZERO);
        assert!(rt.cpu_energy_j() > 0.0);
        assert!(rt.bus_energy_j() > 0.0);
    }

    #[test]
    fn rfid_card_read_via_uart() {
        let mut rt = Runtime::new(43);
        rt.hw.uart_device = Some(Box::new(Id20La::new()));
        let image = compile_source(drivers::ID20LA, 0xed3f_0ac1).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();

        let token = rt.request(slot, PendingKind::Read, vec![]);
        rt.run_until_idle();
        // Present a card; the runtime pumps the UART.
        rt.hw.env.present_card("0415AB09CD");
        rt.pump_uart();
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1, "one read completion");
        assert_eq!(done[0].token, token);
        let Some(ReturnValue::Array(_, cells)) = &done[0].value else {
            panic!("expected array: {:?}", done[0].value);
        };
        let text: Vec<u8> = cells.iter().map(|c| c.as_i32() as u8).collect();
        assert_eq!(&text[..10], b"0415AB09CD");
    }

    #[test]
    fn a_card_read_sees_no_timeout_and_ends_at_its_last_byte() {
        let mut rt = Runtime::new(47);
        rt.hw.uart_device = Some(Box::new(Id20La::new()));
        let image = compile_source(drivers::ID20LA, 0xed3f_0ac1).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        // A first read subscribes the driver to the UART and times out.
        rt.request(slot, PendingKind::Read, vec![]);
        rt.run_until_idle();
        // The card is in the field when the second read starts, so its
        // bytes are on the wire before the read handler arms a timeout.
        rt.hw.env.present_card("0415AB09CD");
        let (start, (events, _)) = (rt.now(), rt.stats());
        rt.request(slot, PendingKind::Read, vec![]);
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1, "the card answers a read");
        // read, 16 newdata and readDone: no timeOut.
        assert_eq!(rt.stats().0 - events, 18, "events of the card read");
        // Idle once the 16th byte is in (about 16.7 ms at 9600 8N1), not
        // when the timeout would have fired 2 s later.
        let idle = rt.now().since(start);
        assert!(idle < SimDuration::from_millis(20), "idle after {idle:?}");
    }

    #[test]
    fn uart_timeout_fires_without_data() {
        let mut rt = Runtime::new(44);
        rt.hw.uart_device = Some(Box::new(Id20La::new()));
        let image = compile_source(drivers::ID20LA, 0xed3f_0ac1).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        rt.request(slot, PendingKind::Read, vec![]);
        // No card presented: the timeout error handler must run and clear
        // the driver's busy flag (scalar slot 1 = busy).
        rt.run_until_idle();
        let busy = rt.manager.get(slot).unwrap().instance.scalar(1).unwrap();
        assert_eq!(busy.as_i32(), 0, "timeOut handler must clear busy");
    }

    #[test]
    fn bmp180_full_pressure_read() {
        let mut rt = Runtime::new(45);
        rt.hw.env.temperature_c = 22.5;
        rt.hw.env.pressure_pa = 99_800.0;
        rt.hw
            .i2c
            .attach(BMP180_I2C_ADDR, Box::new(Bmp180::noiseless(9)));
        let image = compile_source(drivers::BMP180, 0xed3f_bda1).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle(); // init reads the calibration EEPROM

        let token = rt.request(slot, PendingKind::Read, vec![]);
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, token);
        let Some(ReturnValue::Scalar(p)) = done[0].value else {
            panic!("expected pressure, got {:?}", done[0].value);
        };
        let pa = p.as_i32();
        assert!((pa - 99_800).abs() <= 20, "pressure {pa} Pa");
        // The conversion waits (2 × 5 ms timers) must show in virtual time.
        assert!(rt.now() >= SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn remove_driver_fires_destroy() {
        let mut rt = Runtime::new(46);
        let src = "\
import uart;
event init():
    signal uart.init(9600, 0, 1, 8);
event destroy():
    signal uart.reset();
";
        let image = compile_source(src, 7).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        assert!(rt.hw.uart.in_use());
        rt.remove_driver(slot);
        assert!(!rt.hw.uart.in_use(), "destroy must reset the uart");
        assert_eq!(rt.manager.installed(), 0);
    }

    #[test]
    fn remove_driver_releases_native_state_destroy_left() {
        let mut rt = Runtime::new(46);
        rt.hw
            .i2c
            .attach(BMP180_I2C_ADDR, Box::new(Bmp180::noiseless(9)));
        let src = "\
import uart;
import i2c;
event init():
    signal uart.init(9600, 0, 1, 8);
    signal i2c.init(119);
    signal uart.read();
event destroy():
    return;
";
        let image = compile_source(src, 7).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        assert!(rt.hw.uart.in_use());
        assert_eq!(rt.natives.uart_reader, Some(slot));
        assert_eq!(rt.natives.i2c_addr.get(&slot), Some(&BMP180_I2C_ADDR));
        rt.remove_driver(slot);
        assert!(!rt.hw.uart.in_use(), "the removed driver's port is free");
        assert_eq!(rt.natives.uart_reader, None);
        assert!(rt.natives.i2c_addr.is_empty());
        // The successor gets the same slot and none of that state.
        let successor = compile_source(
            "event init():\n    return;\nevent destroy():\n    return;\n",
            8,
        )
        .unwrap();
        assert_eq!(rt.install_driver(successor, 0).unwrap(), slot);
    }

    #[test]
    fn read_on_driver_without_read_handler_resolves_empty() {
        let mut rt = Runtime::new(47);
        let image = compile_source(
            "event init():\n    return;\nevent destroy():\n    return;\n",
            9,
        )
        .unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        let token = rt.request(slot, PendingKind::Read, vec![]);
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, token);
        assert_eq!(done[0].value, None);
    }

    #[test]
    fn an_unhandled_op_answers_its_own_request() {
        // The ID-20LA has no write handler: a write sent while a read
        // waits for a card completes empty under its own token, and the
        // card completes the read.
        let mut rt = Runtime::new(51);
        rt.hw.uart_device = Some(Box::new(Id20La::new()));
        let image = compile_source(drivers::ID20LA, 0xed3f_0ac1).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        let read = rt.request(slot, PendingKind::Read, vec![]);
        let write = rt.request(slot, PendingKind::Write, vec![Cell::from_i32(1)]);
        let done = rt.run_until_idle();
        let done: Vec<_> = done.iter().map(|d| (d.token, d.kind, &d.value)).collect();
        assert_eq!(done, [(write, PendingKind::Write, &None)]);

        rt.hw.env.present_card("0415AB09CD");
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1, "one read completion");
        assert_eq!((done[0].token, done[0].kind), (read, PendingKind::Read));
        assert!(matches!(done[0].value, Some(ReturnValue::Array(..))));
    }

    #[test]
    fn divide_by_zero_routes_error_event() {
        let mut rt = Runtime::new(48);
        let src = "\
int32_t x, y, crashes;
event init():
    return;
event destroy():
    return;
event read():
    x = 10 / y;
    return x;
error divideByZero():
    crashes = crashes + 1;
";
        let image = compile_source(src, 10).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        rt.request(slot, PendingKind::Read, vec![]);
        rt.run_until_idle();
        let crashes = rt.manager.get(slot).unwrap().instance.scalar(2).unwrap();
        assert_eq!(crashes.as_i32(), 1, "divideByZero handler must run");
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let run = || {
            let mut rt = Runtime::new(50);
            rt.hw.env.temperature_c = 25.0;
            rt.hw.analog_sources.insert(0, Box::new(Tmp36::new()));
            let image = compile_source(drivers::TMP36, 1).unwrap();
            let slot = rt.install_driver(image, 0).unwrap();
            rt.run_until_idle();
            rt.request(slot, PendingKind::Read, vec![]);
            rt.run_until_idle();
            (rt.now(), rt.stats())
        };
        assert_eq!(run(), run());
    }

    /// A driver whose `init` signals every native failure a compiled
    /// driver can reach, and whose error and timer handlers tally what
    /// came back, for a read to return.
    const HOSTILE: &str = "\
import uart;
import adc;
import i2c;
import spi;
import timer;
uint32_t tally;
event init():
    signal uart.read();
    signal uart.init(1234, USART_PARITY_NONE, USART_STOP_BITS_1, USART_DATA_BITS_8);
    signal uart.init(9600, 7, USART_STOP_BITS_1, USART_DATA_BITS_8);
    signal uart.write(65);
    signal uart.init(9600, USART_PARITY_NONE, USART_STOP_BITS_1, USART_DATA_BITS_8);
    signal adc.read();
    signal i2c.init(16);
    signal i2c.write(170, 1);
    signal i2c.read(170, 2);
    signal i2c.init(119);
    signal i2c.read(170, 33);
    signal spi.transfer(0);
    signal spi.transfer(40);
    signal timer.start(0);
    signal timer.start(5);
    signal timer.cancel();
    signal timer.start(5);
event destroy():
    return;
event read():
    return tally;
event timerFired():
    tally = tally + 1000000;
error invalidConfiguration():
    tally = tally + 1;
error uartInUse():
    tally = tally + 100;
error busError():
    tally = tally + 10000;
";

    /// FNV-1a over the runtime's outcomes below: the completions, the
    /// clock, both energy meters and the lifetime counters after every
    /// step, so the instant and energy of each native completion and each
    /// failure are pinned. Re-recorded when a delivered UART byte began
    /// to end the wait of an armed `uart.read`: the ID-20LA's card reads
    /// no longer take a spurious `timeOut` 2 s after the card.
    const RUNTIME_OUTCOMES_DIGEST: u64 = 0xf991_8c46_6fa1_7a57;

    #[test]
    fn runtime_outcomes_match_the_pinned_digest() {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |step: &str, rt: &Runtime, done: Vec<CompletedOp>| {
            let line = format!(
                "{step} {done:?} {:?} {:#x} {:#x} {:?}\n",
                rt.now(),
                rt.cpu_energy_j().to_bits(),
                rt.bus_energy_j().to_bits(),
                rt.stats()
            );
            for b in line.bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        // Every shipped driver on its bus model: init, three reads (the
        // ID-20LA's first times out, a card answers the later ones), a
        // write no driver handles, and removal.
        for (i, (name, src)) in drivers::ALL.iter().enumerate() {
            let mut rt = Runtime::new(60 + i as u64);
            rt.hw.env.temperature_c = 23.5;
            match *name {
                "tmp36" => drop(rt.hw.analog_sources.insert(0, Box::new(Tmp36::new()))),
                "hih4030" => drop(rt.hw.analog_sources.insert(0, Box::new(Hih4030::new()))),
                "id20la" => rt.hw.uart_device = Some(Box::new(Id20La::new())),
                "bmp180" => rt.hw.i2c.attach(BMP180_I2C_ADDR, Box::new(Bmp180::new(9))),
                "max6675" => rt.hw.spi.attach(Box::new(Max6675::new())),
                other => panic!("no bus model for {other}"),
            }
            let image = compile_source(src, i as u32 + 1).unwrap();
            let slot = rt.install_driver(image, 0).unwrap();
            let done = rt.run_until_idle();
            fold(&format!("{name} init"), &rt, done);
            for read in 0..3 {
                rt.request(slot, PendingKind::Read, vec![]);
                if read > 0 && *name == "id20la" {
                    rt.hw.env.present_card("0415AB09CD");
                }
                let done = rt.run_until_idle();
                fold(&format!("{name} read {read}"), &rt, done);
            }
            rt.request(slot, PendingKind::Write, vec![Cell::from_i32(42)]);
            let done = rt.run_until_idle();
            fold(&format!("{name} write"), &rt, done);
            rt.remove_driver(slot);
            fold(&format!("{name} remove"), &rt, Vec::new());
        }
        // The hostile driver beside a BMP180, then a second driver that
        // finds the UART taken, then a read of the tally.
        let mut rt = Runtime::new(70);
        rt.hw.i2c.attach(BMP180_I2C_ADDR, Box::new(Bmp180::new(9)));
        let hostile = rt
            .install_driver(compile_source(HOSTILE, 12).unwrap(), 0)
            .unwrap();
        let done = rt.run_until_idle();
        fold("hostile init", &rt, done);
        let second = "\
import uart;
event init():
    signal uart.init(9600, USART_PARITY_NONE, USART_STOP_BITS_1, USART_DATA_BITS_8);
event destroy():
    return;
error uartInUse():
    return;
";
        let second = rt
            .install_driver(compile_source(second, 13).unwrap(), 1)
            .unwrap();
        let done = rt.run_until_idle();
        fold("second init", &rt, done);
        rt.request(hostile, PendingKind::Read, vec![]);
        let done = rt.run_until_idle();
        fold("hostile read", &rt, done);
        rt.remove_driver(second);
        rt.remove_driver(hostile);
        fold("removed", &rt, Vec::new());
        assert_eq!(digest, RUNTIME_OUTCOMES_DIGEST, "{digest:#018x}");
    }
}
