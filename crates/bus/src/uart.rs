//! UART controller model.
//!
//! Byte-level simulation of an asynchronous serial port with the classic
//! frame format parameters (baud rate, parity, stop bits, data bits) —
//! exactly the knobs Listing 1's driver configures
//! (`uart.init(9600, USART_PARITY_NONE, USART_STOP_BITS_1,
//! USART_DATA_BITS_8)`). Timing follows from the frame format; energy
//! charges the MCU for servicing RX interrupts per byte.

use std::collections::VecDeque;

use upnp_sim::SimDuration;

use crate::BusTransaction;

/// Parity setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parity {
    /// No parity bit.
    None,
    /// Even parity.
    Even,
    /// Odd parity.
    Odd,
}

/// Frame format: data bits, parity, stop bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UartFrameFormat {
    /// Data bits per frame (5–9).
    pub data_bits: u8,
    /// Parity setting.
    pub parity: Parity,
    /// Stop bits (1 or 2).
    pub stop_bits: u8,
}

impl UartFrameFormat {
    /// The ubiquitous 8N1 format.
    pub const EIGHT_N_ONE: UartFrameFormat = UartFrameFormat {
        data_bits: 8,
        parity: Parity::None,
        stop_bits: 1,
    };

    /// Total bits on the wire per frame (including the start bit).
    pub fn bits_per_frame(&self) -> u32 {
        let parity = if self.parity == Parity::None { 0 } else { 1 };
        1 + self.data_bits as u32 + parity + self.stop_bits as u32
    }
}

/// Full port configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UartConfig {
    /// Baud rate in bits per second.
    pub baud: u32,
    /// Frame format.
    pub format: UartFrameFormat,
}

impl UartConfig {
    /// 9600 baud 8N1 — the ID-20LA's fixed configuration.
    pub const BAUD_9600_8N1: UartConfig = UartConfig {
        baud: 9600,
        format: UartFrameFormat::EIGHT_N_ONE,
    };

    /// Wire time for one byte.
    pub fn byte_time(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.format.bits_per_frame() as u64 * 1_000_000_000 / self.baud as u64,
        )
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), UartError> {
        let ok_baud = matches!(
            self.baud,
            1200 | 2400 | 4800 | 9600 | 19_200 | 38_400 | 57_600 | 115_200
        );
        let ok_data = (5..=9).contains(&self.format.data_bits);
        let ok_stop = matches!(self.format.stop_bits, 1 | 2);
        if ok_baud && ok_data && ok_stop {
            Ok(())
        } else {
            Err(UartError::InvalidConfiguration)
        }
    }
}

/// UART failure modes surfaced to drivers as error events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UartError {
    /// The requested configuration is unsupported (triggers the DSL's
    /// `invalidConfiguration` error event).
    InvalidConfiguration,
    /// The port is already claimed by another driver (`uartInUse`).
    PortInUse,
    /// The port has not been initialised.
    NotInitialised,
    /// RX FIFO overrun: bytes arrived faster than the driver consumed them.
    Overrun,
}

impl std::fmt::Display for UartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            UartError::InvalidConfiguration => "invalid UART configuration",
            UartError::PortInUse => "UART port already in use",
            UartError::NotInitialised => "UART port not initialised",
            UartError::Overrun => "UART RX overrun",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for UartError {}

/// A device on the far end of the UART (e.g. the ID-20LA reader).
///
/// `Send` so boxed devices can live inside Things that migrate to shard
/// worker threads.
pub trait UartDevice: Send {
    /// Called when the environment may have new data for the device to
    /// transmit; returns bytes the device puts on the wire, in order.
    fn poll_tx(&mut self, env: &mut crate::Environment) -> Vec<u8>;

    /// A byte written by the MCU arrives at the device.
    fn on_rx(&mut self, byte: u8);
}

/// The MCU-side UART controller.
///
/// Split-phase by construction: [`Uart::pump`] moves device bytes into the
/// RX FIFO (with wire timing); the native library drains the FIFO and posts
/// one `newdata` event per byte to the owning driver, as §4.1 describes.
#[derive(Debug)]
pub struct Uart {
    config: Option<UartConfig>,
    owner: Option<u32>,
    rx_fifo: VecDeque<u8>,
    rx_capacity: usize,
    overrun: bool,
}

impl Default for Uart {
    fn default() -> Self {
        Self::new()
    }
}

impl Uart {
    /// Creates an unconfigured port with a 64-byte RX FIFO.
    pub fn new() -> Self {
        Uart {
            config: None,
            owner: None,
            rx_fifo: VecDeque::new(),
            rx_capacity: 64,
            overrun: false,
        }
    }

    /// Claims and configures the port for `owner` (a driver slot id).
    ///
    /// # Errors
    ///
    /// [`UartError::PortInUse`] if another owner holds the port;
    /// [`UartError::InvalidConfiguration`] for a bad configuration.
    pub fn init(&mut self, owner: u32, config: UartConfig) -> Result<(), UartError> {
        if let Some(current) = self.owner {
            if current != owner {
                return Err(UartError::PortInUse);
            }
        }
        config.validate()?;
        self.owner = Some(owner);
        self.config = Some(config);
        self.rx_fifo.clear();
        self.overrun = false;
        Ok(())
    }

    /// Releases the port and restores platform defaults (Listing 1's
    /// `uart.reset()`).
    pub fn reset(&mut self) {
        self.config = None;
        self.owner = None;
        self.rx_fifo.clear();
        self.overrun = false;
    }

    /// The active configuration, if initialised.
    pub fn config(&self) -> Option<UartConfig> {
        self.config
    }

    /// True if a driver currently owns the port.
    pub fn in_use(&self) -> bool {
        self.owner.is_some()
    }

    /// The owner that claimed the port, if any.
    pub fn owner(&self) -> Option<u32> {
        self.owner
    }

    /// Moves pending device bytes onto the RX FIFO, returning the wire
    /// time/energy consumed and how many bytes arrived.
    ///
    /// # Errors
    ///
    /// [`UartError::NotInitialised`] if the port is not configured.
    pub fn pump(
        &mut self,
        device: &mut dyn UartDevice,
        env: &mut crate::Environment,
    ) -> Result<(usize, BusTransaction), UartError> {
        let config = self.config.ok_or(UartError::NotInitialised)?;
        let bytes = device.poll_tx(env);
        let n = bytes.len();
        for b in bytes {
            if self.rx_fifo.len() == self.rx_capacity {
                self.overrun = true;
                break;
            }
            self.rx_fifo.push_back(b);
        }
        let duration = config.byte_time() * n as u64;
        // MCU takes an RX interrupt per byte: ≈100 cycles of handler at
        // 4.1 mA/3.3 V on top of idle-wait (2 mA) for the wire time.
        let energy_j =
            duration.as_secs_f64() * 3.3 * 2.0e-3 + n as f64 * 100.0 / 16e6 * 3.3 * 4.1e-3;
        Ok((
            n,
            BusTransaction {
                duration,
                energy_j,
                bytes: n,
            },
        ))
    }

    /// Writes bytes to the device, returning wire time/energy.
    ///
    /// # Errors
    ///
    /// [`UartError::NotInitialised`] if the port is not configured.
    pub fn write(
        &mut self,
        device: &mut dyn UartDevice,
        data: &[u8],
    ) -> Result<BusTransaction, UartError> {
        let config = self.config.ok_or(UartError::NotInitialised)?;
        for &b in data {
            device.on_rx(b);
        }
        let duration = config.byte_time() * data.len() as u64;
        let energy_j = duration.as_secs_f64() * 3.3 * 4.1e-3;
        Ok(BusTransaction {
            duration,
            energy_j,
            bytes: data.len(),
        })
    }

    /// Pops the next received byte.
    pub fn read_byte(&mut self) -> Option<u8> {
        self.rx_fifo.pop_front()
    }

    /// Number of bytes waiting in the RX FIFO.
    pub fn rx_pending(&self) -> usize {
        self.rx_fifo.len()
    }

    /// Takes the overrun flag (clears it).
    pub fn take_overrun(&mut self) -> bool {
        std::mem::take(&mut self.overrun)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Environment;

    /// A device that transmits a canned byte sequence once.
    struct Canned(Vec<u8>, Vec<u8>);

    impl Canned {
        fn new(tx: &[u8]) -> Self {
            Canned(tx.to_vec(), Vec::new())
        }
    }

    impl UartDevice for Canned {
        fn poll_tx(&mut self, _env: &mut Environment) -> Vec<u8> {
            std::mem::take(&mut self.0)
        }

        fn on_rx(&mut self, byte: u8) {
            self.1.push(byte);
        }
    }

    #[test]
    fn byte_time_at_9600_8n1_is_about_1ms() {
        let t = UartConfig::BAUD_9600_8N1.byte_time();
        // 10 bits / 9600 baud = 1.0416 ms.
        assert!((t.as_micros_f64() - 1041.666).abs() < 1.0);
    }

    #[test]
    fn frame_bits_count_parity_and_stops() {
        let f = UartFrameFormat {
            data_bits: 8,
            parity: Parity::Even,
            stop_bits: 2,
        };
        assert_eq!(f.bits_per_frame(), 12);
        assert_eq!(UartFrameFormat::EIGHT_N_ONE.bits_per_frame(), 10);
    }

    #[test]
    fn init_claims_port_and_rejects_second_owner() {
        let mut u = Uart::new();
        u.init(1, UartConfig::BAUD_9600_8N1).unwrap();
        assert!(u.in_use());
        assert_eq!(
            u.init(2, UartConfig::BAUD_9600_8N1).unwrap_err(),
            UartError::PortInUse
        );
        // Same owner may reconfigure.
        u.init(1, UartConfig::BAUD_9600_8N1).unwrap();
        u.reset();
        assert!(!u.in_use());
        u.init(2, UartConfig::BAUD_9600_8N1).unwrap();
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut u = Uart::new();
        let bad_baud = UartConfig {
            baud: 1234,
            format: UartFrameFormat::EIGHT_N_ONE,
        };
        assert_eq!(
            u.init(1, bad_baud).unwrap_err(),
            UartError::InvalidConfiguration
        );
        let bad_stop = UartConfig {
            baud: 9600,
            format: UartFrameFormat {
                data_bits: 8,
                parity: Parity::None,
                stop_bits: 3,
            },
        };
        assert_eq!(
            u.init(1, bad_stop).unwrap_err(),
            UartError::InvalidConfiguration
        );
    }

    #[test]
    fn pump_moves_device_bytes_with_wire_timing() {
        let mut u = Uart::new();
        u.init(1, UartConfig::BAUD_9600_8N1).unwrap();
        let mut dev = Canned::new(b"HELLO");
        let mut env = Environment::default();
        let (n, tx) = u.pump(&mut dev, &mut env).unwrap();
        assert_eq!(n, 5);
        assert_eq!(u.rx_pending(), 5);
        assert_eq!(tx.duration, UartConfig::BAUD_9600_8N1.byte_time() * 5);
        assert_eq!(u.read_byte(), Some(b'H'));
        assert_eq!(u.rx_pending(), 4);
    }

    #[test]
    fn pump_requires_init() {
        let mut u = Uart::new();
        let mut dev = Canned::new(b"X");
        let mut env = Environment::default();
        assert_eq!(
            u.pump(&mut dev, &mut env).unwrap_err(),
            UartError::NotInitialised
        );
    }

    #[test]
    fn fifo_overrun_sets_flag() {
        let mut u = Uart::new();
        u.init(1, UartConfig::BAUD_9600_8N1).unwrap();
        let big: Vec<u8> = (0..100).collect();
        let mut dev = Canned::new(&big);
        let mut env = Environment::default();
        u.pump(&mut dev, &mut env).unwrap();
        assert_eq!(u.rx_pending(), 64);
        assert!(u.take_overrun());
        assert!(!u.take_overrun(), "flag must clear");
    }

    #[test]
    fn write_reaches_device() {
        let mut u = Uart::new();
        u.init(1, UartConfig::BAUD_9600_8N1).unwrap();
        let mut dev = Canned::new(b"");
        let tx = u.write(&mut dev, b"CMD").unwrap();
        assert_eq!(dev.1, b"CMD");
        assert_eq!(tx.bytes, 3);
    }
}
