//! Native interconnect libraries (paper §4.2).
//!
//! "A set of native interconnect libraries implement all low-level platform
//! specific I/O calls ... Every library exposes its API towards drivers as
//! a series of standard event handlers." Drivers `signal` operations into a
//! library; completions come back as events through the router, preserving
//! the split-phase model. A library posts a failed call's error event to
//! the router at once, defers each completion event on the runtime's
//! virtual clock by its wire time, and charges the bus energy the transfer
//! took; the runtime charges the CPU cost of the call before it runs.

use upnp_bus::adc::{Adc, AnalogSource};
use upnp_bus::i2c::I2cBus;
use upnp_bus::spi::SpiBus;
use upnp_bus::uart::{Parity, Uart, UartConfig, UartDevice, UartError, UartFrameFormat};
use upnp_bus::Environment;
use upnp_dsl::events::{errors, ids, libs};
use upnp_sim::{SimDuration, SimRng, VecMap};

use crate::cost::VmCostModel;
use crate::router::RoutedEvent;
use crate::runtime::Runtime;
use crate::value::Cell;

/// The hardware a Thing's runtime drives: one controller per bus family
/// plus the peripheral models currently attached through the µPnP
/// connector's pin mux.
pub struct HwContext {
    /// The simulated physical world.
    pub env: Environment,
    /// The MCU's ADC.
    pub adc: Adc,
    /// The (single) UART port.
    pub uart: Uart,
    /// The I²C bus with attached slaves.
    pub i2c: I2cBus,
    /// The SPI bus.
    pub spi: SpiBus,
    /// Deterministic noise source.
    pub rng: SimRng,
    /// Analog sources keyed by the driver slot that owns them.
    pub analog_sources: VecMap<u8, Box<dyn AnalogSource>>,
    /// The device on the far end of the UART, if any.
    pub uart_device: Option<Box<dyn UartDevice>>,
}

impl HwContext {
    /// Creates a context with default bus models and an empty environment.
    pub fn new(seed: u64) -> Self {
        HwContext {
            env: Environment::default(),
            adc: Adc::atmega128rfa1(),
            uart: Uart::new(),
            i2c: I2cBus::new(),
            spi: SpiBus::new(),
            rng: SimRng::seed(seed),
            analog_sources: VecMap::new(),
            uart_device: None,
        }
    }
}

impl std::fmt::Debug for HwContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwContext")
            .field("analog_sources", &self.analog_sources.len())
            .field("uart_device", &self.uart_device.is_some())
            .finish_non_exhaustive()
    }
}

/// A completion the runtime must act on later (virtual-time deferred).
#[derive(Debug, Clone, PartialEq)]
pub enum DeferredAction {
    /// Post a routed event.
    Post(RoutedEvent),
    /// Fire driver `slot`'s software timer if `generation` is still
    /// current (cancellation = generation bump).
    TimerFired {
        /// Target driver slot.
        slot: u8,
        /// Timer generation at arm time.
        generation: u64,
    },
    /// Deliver one received UART byte to the subscribed reader `slot` as
    /// `newdata`; its arrival ends the wait of every armed `uart.read`.
    UartByte {
        /// The subscribed reader.
        slot: u8,
        /// The received byte.
        byte: u8,
    },
    /// Declare a UART read timed out: no byte arrived since it was armed
    /// (a delivered byte removes this action from the queue).
    UartTimeout {
        /// The slot that issued `uart.read`.
        slot: u8,
    },
}

/// Mutable state of all native libraries.
#[derive(Debug, Default)]
pub struct NativeLibs {
    /// The slot currently subscribed to UART RX, if any.
    pub uart_reader: Option<u8>,
    /// Per-slot I²C slave address configured with `i2c.init`.
    pub i2c_addr: VecMap<u8, u8>,
    /// Per-slot timer generation (cancel = bump).
    pub timer_gen: VecMap<u8, u64>,
}

/// How long the UART library waits for data before posting `timeOut`.
pub const UART_READ_TIMEOUT: SimDuration = SimDuration::from_millis(2_000);

/// Largest I²C read a driver may request in one operation.
pub const I2C_MAX_READ: usize = 32;

/// Largest SPI transfer a driver may request in one operation.
const SPI_MAX_TRANSFER: usize = 32;

impl NativeLibs {
    /// Creates empty library state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Releases what driver `slot` held: its I²C address, its UART
    /// subscription and the UART port if it claimed it. The manager hands
    /// a removed driver's slot to the next install, which must start
    /// without its predecessor's device or data.
    pub(crate) fn release(&mut self, slot: u8, hw: &mut HwContext) {
        self.i2c_addr.remove(&slot);
        if self.uart_reader == Some(slot) {
            self.uart_reader = None;
        }
        if hw.uart.owner() == Some(u32::from(slot)) {
            hw.uart.reset();
        }
    }
}

impl Runtime {
    /// Handles `signal <lib>.<op>(args)` from driver `slot`: charges the
    /// call, runs it, and posts its error event to the slot if it fails.
    /// Each library operation below returns that event's id as its error.
    pub(crate) fn call_native(&mut self, slot: u8, lib: u8, op: u8, args: &[Cell]) {
        self.charge(VmCostModel.native_call());
        let called = match lib {
            libs::UART => self.uart_op(slot, op, args),
            libs::ADC => self.adc_op(slot, op),
            libs::I2C => self.i2c_op(slot, op, args),
            libs::SPI => self.spi_op(slot, op, args),
            libs::TIMER => self.timer_op(slot, op, args),
            _ => Err(errors::BUS_ERROR),
        };
        if let Err(event) = called {
            self.router.post(RoutedEvent {
                slot,
                event,
                args: Vec::new(),
            });
        }
    }

    /// Delivers `event(args)` to `slot` once `delay` has passed.
    fn complete_in(&mut self, delay: SimDuration, slot: u8, event: u8, args: Vec<Cell>) {
        self.defer(
            delay,
            DeferredAction::Post(RoutedEvent { slot, event, args }),
        );
    }

    /// Delivers `bytes` to `slot` as `event(byte, index)`, byte `i` once
    /// `(i + 1) × per_byte` has passed.
    fn deliver_bytes(&mut self, slot: u8, event: u8, bytes: &[u8], per_byte: SimDuration) {
        for (i, &b) in bytes.iter().enumerate() {
            let args = vec![Cell::from_i32(i32::from(b)), Cell::from_i32(i as i32)];
            self.complete_in(per_byte * (i as u64 + 1), slot, event, args);
        }
    }

    fn uart_op(&mut self, slot: u8, op: u8, args: &[Cell]) -> Result<(), u8> {
        match op {
            // init(baud, parity, stop, data)
            0 => {
                let [baud, parity, stop, data] = args else {
                    return Err(errors::INVALID_CONFIGURATION);
                };
                let parity = match parity.as_i32() {
                    0 => Parity::None,
                    1 => Parity::Even,
                    2 => Parity::Odd,
                    _ => return Err(errors::INVALID_CONFIGURATION),
                };
                let config = UartConfig {
                    baud: baud.as_i32().max(0) as u32,
                    format: UartFrameFormat {
                        data_bits: data.as_i32().clamp(0, 255) as u8,
                        parity,
                        stop_bits: stop.as_i32().clamp(0, 255) as u8,
                    },
                };
                self.hw
                    .uart
                    .init(u32::from(slot), config)
                    .map_err(|e| match e {
                        UartError::PortInUse => errors::UART_IN_USE,
                        _ => errors::INVALID_CONFIGURATION,
                    })
            }
            // reset()
            1 => {
                self.hw.uart.reset();
                if self.natives.uart_reader == Some(slot) {
                    self.natives.uart_reader = None;
                }
                Ok(())
            }
            // read(): subscribe to RX; data arrives via pump; arm timeout.
            2 => {
                if self.hw.uart.config().is_none() {
                    return Err(errors::INVALID_CONFIGURATION);
                }
                self.natives.uart_reader = Some(slot);
                self.defer(UART_READ_TIMEOUT, DeferredAction::UartTimeout { slot });
                Ok(())
            }
            // write(byte)
            3 => {
                let byte = args.first().map_or(0, |c| c.as_i32() as u8);
                let device = self.hw.uart_device.as_mut().ok_or(errors::BUS_ERROR)?;
                let tx = self
                    .hw
                    .uart
                    .write(device.as_mut(), &[byte])
                    .map_err(|_| errors::INVALID_CONFIGURATION)?;
                self.bus_meter.charge_j(tx.energy_j);
                self.complete_in(tx.duration, slot, ids::WRITE_DONE, Vec::new());
                Ok(())
            }
            _ => Err(errors::BUS_ERROR),
        }
    }

    fn adc_op(&mut self, slot: u8, op: u8) -> Result<(), u8> {
        match op {
            // init()
            0 => Ok(()),
            // read(): sample the slot's analog source.
            1 => {
                let hw = &mut self.hw;
                let source = hw.analog_sources.get(&slot).ok_or(errors::BUS_ERROR)?;
                let (reading, tx) = hw.adc.sample(source.as_ref(), &hw.env, &mut hw.rng);
                self.bus_meter.charge_j(tx.energy_j);
                let raw = Cell::from_i32(i32::from(reading.raw));
                self.complete_in(tx.duration, slot, ids::SAMPLE_DONE, vec![raw]);
                Ok(())
            }
            _ => Err(errors::BUS_ERROR),
        }
    }

    fn i2c_op(&mut self, slot: u8, op: u8, args: &[Cell]) -> Result<(), u8> {
        let arg = |i: usize| args.get(i).map_or(0, |c| c.as_i32());
        let configured = self.natives.i2c_addr.get(&slot).copied();
        let configured = configured.ok_or(errors::INVALID_CONFIGURATION);
        match op {
            // init(addr)
            0 => {
                let addr = arg(0) as u8;
                if !self.hw.i2c.probe(addr) {
                    return Err(errors::BUS_ERROR);
                }
                self.natives.i2c_addr.insert(slot, addr);
                Ok(())
            }
            // write(reg, value)
            1 => {
                let tx = self
                    .hw
                    .i2c
                    .write(configured?, &[arg(0) as u8, arg(1) as u8], &mut self.hw.env)
                    .map_err(|_| errors::BUS_ERROR)?;
                self.bus_meter.charge_j(tx.energy_j);
                self.complete_in(tx.duration, slot, ids::WRITE_DONE, Vec::new());
                Ok(())
            }
            // read(reg, n): delivers n i2cdata events then i2cDone.
            2 => {
                let addr = configured?;
                let n = arg(1);
                if n <= 0 || n as usize > I2C_MAX_READ {
                    return Err(errors::INVALID_CONFIGURATION);
                }
                let (data, tx) = self
                    .hw
                    .i2c
                    .write_read(addr, arg(0) as u8, n as usize, &mut self.hw.env)
                    .map_err(|_| errors::BUS_ERROR)?;
                self.bus_meter.charge_j(tx.energy_j);
                let per_byte = tx.duration / (data.len() as u64 + 1);
                self.deliver_bytes(slot, ids::I2C_DATA, &data, per_byte);
                self.complete_in(tx.duration, slot, ids::I2C_DONE, Vec::new());
                Ok(())
            }
            _ => Err(errors::BUS_ERROR),
        }
    }

    fn spi_op(&mut self, slot: u8, op: u8, args: &[Cell]) -> Result<(), u8> {
        match op {
            // init()
            0 => Ok(()),
            // transfer(n): clock n bytes, deliver spidata × n then spiDone.
            1 => {
                let n = args.first().map_or(0, |c| c.as_i32());
                if n <= 0 || n as usize > SPI_MAX_TRANSFER {
                    return Err(errors::INVALID_CONFIGURATION);
                }
                let zeros = [0u8; SPI_MAX_TRANSFER];
                let (rx, tx) = self
                    .hw
                    .spi
                    .transfer(&zeros[..n as usize], &mut self.hw.env)
                    .ok_or(errors::BUS_ERROR)?;
                self.bus_meter.charge_j(tx.energy_j);
                let per_byte = tx.duration / (rx.len() as u64).max(1);
                self.deliver_bytes(slot, ids::SPI_DATA, &rx, per_byte);
                self.complete_in(tx.duration, slot, ids::SPI_DONE, Vec::new());
                Ok(())
            }
            _ => Err(errors::BUS_ERROR),
        }
    }

    fn timer_op(&mut self, slot: u8, op: u8, args: &[Cell]) -> Result<(), u8> {
        match op {
            // start(ms)
            0 => {
                let ms = args.first().map_or(0, |c| c.as_i32());
                if ms <= 0 {
                    return Err(errors::INVALID_CONFIGURATION);
                }
                let generation = self.natives.timer_gen.get_or_insert_default(slot);
                *generation += 1;
                let fired = DeferredAction::TimerFired {
                    slot,
                    generation: *generation,
                };
                self.defer(SimDuration::from_millis(ms as u64), fired);
                Ok(())
            }
            // cancel()
            1 => {
                *self.natives.timer_gen.get_or_insert_default(slot) += 1;
                Ok(())
            }
            _ => Err(errors::BUS_ERROR),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_bus::peripherals::{Bmp180, Tmp36, BMP180_I2C_ADDR};
    use upnp_sim::CpuCost;

    fn cells(vals: &[i32]) -> Vec<Cell> {
        vals.iter().map(|&v| Cell::from_i32(v)).collect()
    }

    /// The error events the calls so far posted, in routing order.
    fn posted(rt: &mut Runtime) -> Vec<u8> {
        let mut cost = CpuCost::ZERO;
        std::iter::from_fn(|| rt.router.next(&mut cost))
            .map(|ev| ev.event)
            .collect()
    }

    /// The completions the calls so far deferred, in time order, each
    /// with its delay from now.
    fn deferred(rt: &mut Runtime) -> Vec<(SimDuration, DeferredAction)> {
        let now = rt.now();
        rt.sched
            .drain_ordered()
            .into_iter()
            .map(|e| (e.at.saturating_since(now), e.event))
            .collect()
    }

    #[test]
    fn uart_init_and_in_use() {
        let mut rt = Runtime::new(1);
        rt.call_native(0, libs::UART, 0, &cells(&[9600, 0, 1, 8]));
        assert!(posted(&mut rt).is_empty());
        // Second slot gets uartInUse.
        rt.call_native(1, libs::UART, 0, &cells(&[9600, 0, 1, 8]));
        assert_eq!(posted(&mut rt), [errors::UART_IN_USE]);
    }

    #[test]
    fn uart_bad_config_posts_invalid_configuration() {
        let mut rt = Runtime::new(1);
        rt.call_native(0, libs::UART, 0, &cells(&[1234, 0, 1, 8]));
        assert_eq!(posted(&mut rt), [errors::INVALID_CONFIGURATION]);
        rt.call_native(0, libs::UART, 0, &cells(&[9600, 7, 1, 8]));
        assert_eq!(posted(&mut rt), [errors::INVALID_CONFIGURATION]);
    }

    #[test]
    fn uart_read_arms_timeout() {
        let mut rt = Runtime::new(1);
        rt.call_native(0, libs::UART, 0, &cells(&[9600, 0, 1, 8]));
        rt.call_native(0, libs::UART, 2, &[]);
        assert_eq!(rt.natives.uart_reader, Some(0));
        let deferred = deferred(&mut rt);
        assert_eq!(deferred.len(), 1);
        assert_eq!(deferred[0].0, UART_READ_TIMEOUT);
        assert!(matches!(
            deferred[0].1,
            DeferredAction::UartTimeout { slot: 0, .. }
        ));
    }

    #[test]
    fn adc_read_defers_sample_done() {
        let mut rt = Runtime::new(2);
        rt.hw.env.temperature_c = 25.0;
        rt.hw.analog_sources.insert(0, Box::new(Tmp36::new()));
        rt.call_native(0, libs::ADC, 1, &[]);
        let deferred = deferred(&mut rt);
        assert_eq!(deferred.len(), 1);
        let (delay, DeferredAction::Post(ev)) = &deferred[0] else {
            panic!();
        };
        assert_eq!(*delay, SimDuration::from_micros(104));
        assert_eq!(ev.event, ids::SAMPLE_DONE);
        // 0.75 V on a 10-bit 3.3 V ADC ≈ 233 counts.
        let raw = ev.args[0].as_i32();
        assert!((raw - 233).abs() <= 2, "raw {raw}");
        assert!(rt.bus_energy_j() > 0.0);
    }

    #[test]
    fn adc_without_source_is_bus_error() {
        let mut rt = Runtime::new(3);
        rt.call_native(0, libs::ADC, 1, &[]);
        assert_eq!(posted(&mut rt), [errors::BUS_ERROR]);
    }

    #[test]
    fn i2c_init_probes_address() {
        let mut rt = Runtime::new(4);
        rt.hw
            .i2c
            .attach(BMP180_I2C_ADDR, Box::new(Bmp180::noiseless(1)));
        rt.call_native(0, libs::I2C, 0, &cells(&[0x77]));
        assert!(posted(&mut rt).is_empty());
        rt.call_native(1, libs::I2C, 0, &cells(&[0x10]));
        assert_eq!(posted(&mut rt), [errors::BUS_ERROR]);
    }

    #[test]
    fn i2c_read_delivers_data_then_done() {
        let mut rt = Runtime::new(5);
        rt.hw
            .i2c
            .attach(BMP180_I2C_ADDR, Box::new(Bmp180::noiseless(1)));
        rt.call_native(0, libs::I2C, 0, &cells(&[0x77]));
        rt.call_native(0, libs::I2C, 2, &cells(&[0xaa, 4]));
        let deferred = deferred(&mut rt);
        assert_eq!(deferred.len(), 5, "4 data + 1 done");
        // Events are time-ordered and indexed.
        for (i, (_, action)) in deferred[..4].iter().enumerate() {
            let DeferredAction::Post(ev) = action else {
                panic!()
            };
            assert_eq!(ev.event, ids::I2C_DATA);
            assert_eq!(ev.args[1].as_i32(), i as i32);
        }
        let DeferredAction::Post(done) = &deferred[4].1 else {
            panic!()
        };
        assert_eq!(done.event, ids::I2C_DONE);
    }

    #[test]
    fn i2c_read_without_init_is_invalid() {
        let mut rt = Runtime::new(6);
        rt.call_native(0, libs::I2C, 2, &cells(&[0xaa, 4]));
        assert_eq!(posted(&mut rt), [errors::INVALID_CONFIGURATION]);
    }

    #[test]
    fn i2c_read_size_limit() {
        let mut rt = Runtime::new(7);
        rt.hw
            .i2c
            .attach(BMP180_I2C_ADDR, Box::new(Bmp180::noiseless(1)));
        rt.call_native(0, libs::I2C, 0, &cells(&[0x77]));
        rt.call_native(0, libs::I2C, 2, &cells(&[0xaa, 33]));
        assert_eq!(posted(&mut rt), [errors::INVALID_CONFIGURATION]);
    }

    #[test]
    fn timer_start_and_cancel_generations() {
        let mut rt = Runtime::new(0);
        rt.call_native(0, libs::TIMER, 0, &cells(&[5]));
        let DeferredAction::TimerFired { generation, .. } = deferred(&mut rt)[0].1 else {
            panic!();
        };
        assert_eq!(generation, 1);
        // Cancel bumps the generation, so the pending fire is stale.
        rt.call_native(0, libs::TIMER, 1, &[]);
        assert_eq!(rt.natives.timer_gen.get(&0), Some(&2));
        rt.call_native(0, libs::TIMER, 0, &cells(&[0]));
        assert_eq!(posted(&mut rt), [errors::INVALID_CONFIGURATION]);
    }

    #[test]
    fn spi_transfer_defers_bytes() {
        use upnp_bus::peripherals::Max6675;
        let mut rt = Runtime::new(8);
        rt.hw.spi.attach(Box::new(Max6675::new()));
        rt.hw.env.temperature_c = 100.0;
        rt.call_native(0, libs::SPI, 1, &cells(&[2]));
        assert_eq!(deferred(&mut rt).len(), 3, "2 data + 1 done");
    }
}
