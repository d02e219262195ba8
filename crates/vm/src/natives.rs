//! Native interconnect libraries (paper §4.2).
//!
//! "A set of native interconnect libraries implement all low-level platform
//! specific I/O calls ... Every library exposes its API towards drivers as
//! a series of standard event handlers." Drivers `signal` operations into a
//! library; completions come back as events through the router, preserving
//! the split-phase model. Wire time is respected by *deferring* completion
//! events on the virtual clock, and every operation reports its CPU cost
//! and bus energy.

use upnp_bus::adc::{Adc, AnalogSource};
use upnp_bus::i2c::I2cBus;
use upnp_bus::spi::SpiBus;
use upnp_bus::uart::{Parity, Uart, UartConfig, UartDevice, UartError, UartFrameFormat};
use upnp_bus::Environment;
use upnp_dsl::events::{errors, ids, libs};
use upnp_sim::{CpuCost, SimDuration, SimRng, VecMap};

use crate::cost::VmCostModel;
use crate::router::{Endpoint, RoutedEvent};
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
    /// Declare a UART read timed out if no byte arrived since
    /// `generation`.
    UartTimeout {
        /// The slot that issued `uart.read`.
        slot: u8,
        /// RX generation at arm time.
        generation: u64,
    },
}

/// The result of one native-library operation.
#[derive(Debug, Default)]
pub struct NativeResult {
    /// CPU cost of servicing the call.
    pub cost: CpuCost,
    /// Events posted immediately (typically errors).
    pub immediate: Vec<RoutedEvent>,
    /// Actions deferred on the virtual clock (relative delays).
    pub deferred: Vec<(SimDuration, DeferredAction)>,
    /// Energy consumed on the bus, joules.
    pub bus_energy_j: f64,
}

impl NativeResult {
    fn err(slot: u8, error_id: u8, cost: CpuCost) -> NativeResult {
        NativeResult {
            cost,
            immediate: vec![RoutedEvent {
                dst: Endpoint::Driver(slot),
                event: error_id,
                args: Vec::new(),
            }],
            ..Default::default()
        }
    }
}

/// Mutable state of all native libraries.
#[derive(Debug, Default)]
pub struct NativeLibs {
    /// The slot currently subscribed to UART RX, if any.
    pub uart_reader: Option<u8>,
    /// RX generation: bumps on every delivered byte; used to validate
    /// timeout deadlines.
    pub uart_rx_gen: u64,
    /// Per-slot I²C slave address configured with `i2c.init`.
    pub i2c_addr: VecMap<u8, u8>,
    /// Per-slot timer generation (cancel = bump).
    pub timer_gen: VecMap<u8, u64>,
    cost_model: VmCostModel,
}

/// How long the UART library waits for data before posting `timeOut`.
pub const UART_READ_TIMEOUT: SimDuration = SimDuration::from_millis(2_000);

/// Largest I²C read a driver may request in one operation.
pub const I2C_MAX_READ: usize = 32;

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

    /// Handles `signal <lib>.<op>(args)` from driver `slot`.
    pub fn handle(
        &mut self,
        slot: u8,
        lib: u8,
        op: u8,
        args: &[Cell],
        hw: &mut HwContext,
    ) -> NativeResult {
        let base = self.cost_model.native_call();
        match lib {
            x if x == libs::UART => self.uart_op(slot, op, args, hw, base),
            x if x == libs::ADC => self.adc_op(slot, op, hw, base),
            x if x == libs::I2C => self.i2c_op(slot, op, args, hw, base),
            x if x == libs::SPI => self.spi_op(slot, op, args, hw, base),
            x if x == libs::TIMER => self.timer_op(slot, op, args, base),
            _ => NativeResult::err(slot, errors::BUS_ERROR, base),
        }
    }

    fn uart_op(
        &mut self,
        slot: u8,
        op: u8,
        args: &[Cell],
        hw: &mut HwContext,
        base: CpuCost,
    ) -> NativeResult {
        match op {
            // init(baud, parity, stop, data)
            0 => {
                let [baud, parity, stop, data] = args else {
                    return NativeResult::err(slot, errors::INVALID_CONFIGURATION, base);
                };
                let parity = match parity.as_i32() {
                    0 => Parity::None,
                    1 => Parity::Even,
                    2 => Parity::Odd,
                    _ => return NativeResult::err(slot, errors::INVALID_CONFIGURATION, base),
                };
                let config = UartConfig {
                    baud: baud.as_i32().max(0) as u32,
                    format: UartFrameFormat {
                        data_bits: data.as_i32().clamp(0, 255) as u8,
                        parity,
                        stop_bits: stop.as_i32().clamp(0, 255) as u8,
                    },
                };
                match hw.uart.init(slot as u32, config) {
                    Ok(()) => NativeResult {
                        cost: base,
                        ..Default::default()
                    },
                    Err(UartError::PortInUse) => NativeResult::err(slot, errors::UART_IN_USE, base),
                    Err(_) => NativeResult::err(slot, errors::INVALID_CONFIGURATION, base),
                }
            }
            // reset()
            1 => {
                hw.uart.reset();
                if self.uart_reader == Some(slot) {
                    self.uart_reader = None;
                }
                NativeResult {
                    cost: base,
                    ..Default::default()
                }
            }
            // read(): subscribe to RX; data arrives via pump; arm timeout.
            2 => {
                if hw.uart.config().is_none() {
                    return NativeResult::err(slot, errors::INVALID_CONFIGURATION, base);
                }
                self.uart_reader = Some(slot);
                NativeResult {
                    cost: base,
                    deferred: vec![(
                        UART_READ_TIMEOUT,
                        DeferredAction::UartTimeout {
                            slot,
                            generation: self.uart_rx_gen,
                        },
                    )],
                    ..Default::default()
                }
            }
            // write(byte)
            3 => {
                let byte = args.first().map(|c| c.as_i32() as u8).unwrap_or(0);
                let Some(device) = hw.uart_device.as_mut() else {
                    return NativeResult::err(slot, errors::BUS_ERROR, base);
                };
                match hw.uart.write(device.as_mut(), &[byte]) {
                    Ok(tx) => NativeResult {
                        cost: base,
                        bus_energy_j: tx.energy_j,
                        deferred: vec![(
                            tx.duration,
                            DeferredAction::Post(RoutedEvent {
                                dst: Endpoint::Driver(slot),
                                event: ids::WRITE_DONE,
                                args: Vec::new(),
                            }),
                        )],
                        ..Default::default()
                    },
                    Err(_) => NativeResult::err(slot, errors::INVALID_CONFIGURATION, base),
                }
            }
            _ => NativeResult::err(slot, errors::BUS_ERROR, base),
        }
    }

    fn adc_op(&mut self, slot: u8, op: u8, hw: &mut HwContext, base: CpuCost) -> NativeResult {
        match op {
            // init()
            0 => NativeResult {
                cost: base,
                ..Default::default()
            },
            // read(): sample the slot's analog source.
            1 => {
                let Some(source) = hw.analog_sources.get(&slot) else {
                    return NativeResult::err(slot, errors::BUS_ERROR, base);
                };
                let (reading, tx) = hw.adc.sample(source.as_ref(), &hw.env, &mut hw.rng);
                NativeResult {
                    cost: base,
                    bus_energy_j: tx.energy_j,
                    deferred: vec![(
                        tx.duration,
                        DeferredAction::Post(RoutedEvent {
                            dst: Endpoint::Driver(slot),
                            event: ids::SAMPLE_DONE,
                            args: vec![Cell::from_i32(reading.raw as i32)],
                        }),
                    )],
                    ..Default::default()
                }
            }
            _ => NativeResult::err(slot, errors::BUS_ERROR, base),
        }
    }

    fn i2c_op(
        &mut self,
        slot: u8,
        op: u8,
        args: &[Cell],
        hw: &mut HwContext,
        base: CpuCost,
    ) -> NativeResult {
        match op {
            // init(addr)
            0 => {
                let addr = args.first().map(|c| c.as_i32() as u8).unwrap_or(0);
                if !hw.i2c.probe(addr) {
                    return NativeResult::err(slot, errors::BUS_ERROR, base);
                }
                self.i2c_addr.insert(slot, addr);
                NativeResult {
                    cost: base,
                    ..Default::default()
                }
            }
            // write(reg, value)
            1 => {
                let Some(&addr) = self.i2c_addr.get(&slot) else {
                    return NativeResult::err(slot, errors::INVALID_CONFIGURATION, base);
                };
                let reg = args.first().map(|c| c.as_i32() as u8).unwrap_or(0);
                let val = args.get(1).map(|c| c.as_i32() as u8).unwrap_or(0);
                match hw.i2c.write(addr, &[reg, val], &mut hw.env) {
                    Ok(tx) => NativeResult {
                        cost: base,
                        bus_energy_j: tx.energy_j,
                        deferred: vec![(
                            tx.duration,
                            DeferredAction::Post(RoutedEvent {
                                dst: Endpoint::Driver(slot),
                                event: ids::WRITE_DONE,
                                args: Vec::new(),
                            }),
                        )],
                        ..Default::default()
                    },
                    Err(_) => NativeResult::err(slot, errors::BUS_ERROR, base),
                }
            }
            // read(reg, n): delivers n i2cdata events then i2cDone.
            2 => {
                let Some(&addr) = self.i2c_addr.get(&slot) else {
                    return NativeResult::err(slot, errors::INVALID_CONFIGURATION, base);
                };
                let reg = args.first().map(|c| c.as_i32() as u8).unwrap_or(0);
                let n = args.get(1).map(|c| c.as_i32()).unwrap_or(0);
                if n <= 0 || n as usize > I2C_MAX_READ {
                    return NativeResult::err(slot, errors::INVALID_CONFIGURATION, base);
                }
                match hw.i2c.write_read(addr, reg, n as usize, &mut hw.env) {
                    Ok((data, tx)) => {
                        let per_byte = tx.duration / (data.len() as u64 + 1);
                        let mut deferred: Vec<(SimDuration, DeferredAction)> = data
                            .iter()
                            .enumerate()
                            .map(|(i, &b)| {
                                (
                                    per_byte * (i as u64 + 1),
                                    DeferredAction::Post(RoutedEvent {
                                        dst: Endpoint::Driver(slot),
                                        event: ids::I2C_DATA,
                                        args: vec![
                                            Cell::from_i32(b as i32),
                                            Cell::from_i32(i as i32),
                                        ],
                                    }),
                                )
                            })
                            .collect();
                        deferred.push((
                            tx.duration,
                            DeferredAction::Post(RoutedEvent {
                                dst: Endpoint::Driver(slot),
                                event: ids::I2C_DONE,
                                args: Vec::new(),
                            }),
                        ));
                        NativeResult {
                            cost: base,
                            bus_energy_j: tx.energy_j,
                            deferred,
                            ..Default::default()
                        }
                    }
                    Err(_) => NativeResult::err(slot, errors::BUS_ERROR, base),
                }
            }
            _ => NativeResult::err(slot, errors::BUS_ERROR, base),
        }
    }

    fn spi_op(
        &mut self,
        slot: u8,
        op: u8,
        args: &[Cell],
        hw: &mut HwContext,
        base: CpuCost,
    ) -> NativeResult {
        match op {
            // init()
            0 => NativeResult {
                cost: base,
                ..Default::default()
            },
            // transfer(n): clock n bytes, deliver spidata × n then spiDone.
            1 => {
                let n = args.first().map(|c| c.as_i32()).unwrap_or(0);
                if n <= 0 || n > 32 {
                    return NativeResult::err(slot, errors::INVALID_CONFIGURATION, base);
                }
                let tx_bytes = vec![0u8; n as usize];
                match hw.spi.transfer(&tx_bytes, &mut hw.env) {
                    Some((rx, tx)) => {
                        let per_byte = tx.duration / (rx.len() as u64).max(1);
                        let mut deferred: Vec<(SimDuration, DeferredAction)> = rx
                            .iter()
                            .enumerate()
                            .map(|(i, &b)| {
                                (
                                    per_byte * (i as u64 + 1),
                                    DeferredAction::Post(RoutedEvent {
                                        dst: Endpoint::Driver(slot),
                                        event: ids::SPI_DATA,
                                        args: vec![
                                            Cell::from_i32(b as i32),
                                            Cell::from_i32(i as i32),
                                        ],
                                    }),
                                )
                            })
                            .collect();
                        deferred.push((
                            tx.duration,
                            DeferredAction::Post(RoutedEvent {
                                dst: Endpoint::Driver(slot),
                                event: ids::SPI_DONE,
                                args: Vec::new(),
                            }),
                        ));
                        NativeResult {
                            cost: base,
                            bus_energy_j: tx.energy_j,
                            deferred,
                            ..Default::default()
                        }
                    }
                    None => NativeResult::err(slot, errors::BUS_ERROR, base),
                }
            }
            _ => NativeResult::err(slot, errors::BUS_ERROR, base),
        }
    }

    fn timer_op(&mut self, slot: u8, op: u8, args: &[Cell], base: CpuCost) -> NativeResult {
        match op {
            // start(ms)
            0 => {
                let ms = args.first().map(|c| c.as_i32()).unwrap_or(0);
                if ms <= 0 {
                    return NativeResult::err(slot, errors::INVALID_CONFIGURATION, base);
                }
                let generation = self.timer_gen.get_or_insert_default(slot);
                *generation += 1;
                NativeResult {
                    cost: base,
                    deferred: vec![(
                        SimDuration::from_millis(ms as u64),
                        DeferredAction::TimerFired {
                            slot,
                            generation: *generation,
                        },
                    )],
                    ..Default::default()
                }
            }
            // cancel()
            1 => {
                *self.timer_gen.get_or_insert_default(slot) += 1;
                NativeResult {
                    cost: base,
                    ..Default::default()
                }
            }
            _ => NativeResult::err(slot, errors::BUS_ERROR, base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_bus::peripherals::{Bmp180, Tmp36, BMP180_I2C_ADDR};

    fn cells(vals: &[i32]) -> Vec<Cell> {
        vals.iter().map(|&v| Cell::from_i32(v)).collect()
    }

    #[test]
    fn uart_init_and_in_use() {
        let mut hw = HwContext::new(1);
        let mut libs_state = NativeLibs::new();
        let r = libs_state.handle(0, libs::UART, 0, &cells(&[9600, 0, 1, 8]), &mut hw);
        assert!(r.immediate.is_empty());
        // Second slot gets uartInUse.
        let r = libs_state.handle(1, libs::UART, 0, &cells(&[9600, 0, 1, 8]), &mut hw);
        assert_eq!(r.immediate[0].event, errors::UART_IN_USE);
    }

    #[test]
    fn uart_bad_config_posts_invalid_configuration() {
        let mut hw = HwContext::new(1);
        let mut libs_state = NativeLibs::new();
        let r = libs_state.handle(0, libs::UART, 0, &cells(&[1234, 0, 1, 8]), &mut hw);
        assert_eq!(r.immediate[0].event, errors::INVALID_CONFIGURATION);
        let r = libs_state.handle(0, libs::UART, 0, &cells(&[9600, 7, 1, 8]), &mut hw);
        assert_eq!(r.immediate[0].event, errors::INVALID_CONFIGURATION);
    }

    #[test]
    fn uart_read_arms_timeout() {
        let mut hw = HwContext::new(1);
        let mut libs_state = NativeLibs::new();
        libs_state.handle(0, libs::UART, 0, &cells(&[9600, 0, 1, 8]), &mut hw);
        let r = libs_state.handle(0, libs::UART, 2, &[], &mut hw);
        assert_eq!(libs_state.uart_reader, Some(0));
        assert_eq!(r.deferred.len(), 1);
        assert_eq!(r.deferred[0].0, UART_READ_TIMEOUT);
        assert!(matches!(
            r.deferred[0].1,
            DeferredAction::UartTimeout { slot: 0, .. }
        ));
    }

    #[test]
    fn adc_read_defers_sample_done() {
        let mut hw = HwContext::new(2);
        hw.env.temperature_c = 25.0;
        hw.analog_sources.insert(0, Box::new(Tmp36::new()));
        let mut libs_state = NativeLibs::new();
        let r = libs_state.handle(0, libs::ADC, 1, &[], &mut hw);
        assert_eq!(r.deferred.len(), 1);
        let (delay, DeferredAction::Post(ev)) = &r.deferred[0] else {
            panic!();
        };
        assert_eq!(*delay, SimDuration::from_micros(104));
        assert_eq!(ev.event, ids::SAMPLE_DONE);
        // 0.75 V on a 10-bit 3.3 V ADC ≈ 233 counts.
        let raw = ev.args[0].as_i32();
        assert!((raw - 233).abs() <= 2, "raw {raw}");
        assert!(r.bus_energy_j > 0.0);
    }

    #[test]
    fn adc_without_source_is_bus_error() {
        let mut hw = HwContext::new(3);
        let mut libs_state = NativeLibs::new();
        let r = libs_state.handle(0, libs::ADC, 1, &[], &mut hw);
        assert_eq!(r.immediate[0].event, errors::BUS_ERROR);
    }

    #[test]
    fn i2c_init_probes_address() {
        let mut hw = HwContext::new(4);
        hw.i2c
            .attach(BMP180_I2C_ADDR, Box::new(Bmp180::noiseless(1)));
        let mut libs_state = NativeLibs::new();
        let ok = libs_state.handle(0, libs::I2C, 0, &cells(&[0x77]), &mut hw);
        assert!(ok.immediate.is_empty());
        let bad = libs_state.handle(1, libs::I2C, 0, &cells(&[0x10]), &mut hw);
        assert_eq!(bad.immediate[0].event, errors::BUS_ERROR);
    }

    #[test]
    fn i2c_read_delivers_data_then_done() {
        let mut hw = HwContext::new(5);
        hw.i2c
            .attach(BMP180_I2C_ADDR, Box::new(Bmp180::noiseless(1)));
        let mut libs_state = NativeLibs::new();
        libs_state.handle(0, libs::I2C, 0, &cells(&[0x77]), &mut hw);
        let r = libs_state.handle(0, libs::I2C, 2, &cells(&[0xaa, 4]), &mut hw);
        assert_eq!(r.deferred.len(), 5, "4 data + 1 done");
        // Events are time-ordered and indexed.
        for (i, (_, action)) in r.deferred[..4].iter().enumerate() {
            let DeferredAction::Post(ev) = action else {
                panic!()
            };
            assert_eq!(ev.event, ids::I2C_DATA);
            assert_eq!(ev.args[1].as_i32(), i as i32);
        }
        let DeferredAction::Post(done) = &r.deferred[4].1 else {
            panic!()
        };
        assert_eq!(done.event, ids::I2C_DONE);
    }

    #[test]
    fn i2c_read_without_init_is_invalid() {
        let mut hw = HwContext::new(6);
        let mut libs_state = NativeLibs::new();
        let r = libs_state.handle(0, libs::I2C, 2, &cells(&[0xaa, 4]), &mut hw);
        assert_eq!(r.immediate[0].event, errors::INVALID_CONFIGURATION);
    }

    #[test]
    fn i2c_read_size_limit() {
        let mut hw = HwContext::new(7);
        hw.i2c
            .attach(BMP180_I2C_ADDR, Box::new(Bmp180::noiseless(1)));
        let mut libs_state = NativeLibs::new();
        libs_state.handle(0, libs::I2C, 0, &cells(&[0x77]), &mut hw);
        let r = libs_state.handle(0, libs::I2C, 2, &cells(&[0xaa, 33]), &mut hw);
        assert_eq!(r.immediate[0].event, errors::INVALID_CONFIGURATION);
    }

    #[test]
    fn timer_start_and_cancel_generations() {
        let mut libs_state = NativeLibs::new();
        let r = libs_state.timer_op(0, 0, &cells(&[5]), CpuCost::ZERO);
        let DeferredAction::TimerFired { generation, .. } = r.deferred[0].1 else {
            panic!();
        };
        assert_eq!(generation, 1);
        // Cancel bumps the generation, so the pending fire is stale.
        libs_state.timer_op(0, 1, &[], CpuCost::ZERO);
        assert_eq!(libs_state.timer_gen.get(&0), Some(&2));
        let r = libs_state.timer_op(0, 0, &cells(&[0]), CpuCost::ZERO);
        assert_eq!(r.immediate[0].event, errors::INVALID_CONFIGURATION);
    }

    #[test]
    fn spi_transfer_defers_bytes() {
        use upnp_bus::peripherals::Max6675;
        let mut hw = HwContext::new(8);
        hw.spi.attach(Box::new(Max6675::new()));
        hw.env.temperature_c = 100.0;
        let mut libs_state = NativeLibs::new();
        let r = libs_state.handle(0, libs::SPI, 1, &cells(&[2]), &mut hw);
        assert_eq!(r.deferred.len(), 3, "2 data + 1 done");
    }
}
