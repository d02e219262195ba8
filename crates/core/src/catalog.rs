//! The peripheral catalog: what the reproduction knows how to plug in.
//!
//! Maps each device-type identifier to its human metadata, its bus, its
//! shipped DSL driver and a factory that attaches the simulated peripheral
//! model to a Thing's hardware context. The four paper prototypes (§6) are
//! always present; the MAX6675 extension demonstrates adding a fifth
//! family (SPI).

use std::sync::Arc;

use upnp_bus::peripherals::{Bmp180, Hih4030, Id20La, Max6675, Tmp36, BMP180_I2C_ADDR};
use upnp_hw::id::{prototypes, DeviceTypeId};
use upnp_hw::peripheral::Interconnect;
use upnp_vm::runtime::Runtime;

/// One catalog row.
#[derive(Clone)]
pub struct CatalogEntry {
    /// The peripheral's device-type identifier.
    pub device_id: DeviceTypeId,
    /// Human-readable name.
    pub name: &'static str,
    /// The bus it communicates over.
    pub interconnect: Interconnect,
    /// The µPnP DSL driver source.
    pub driver_source: &'static str,
    /// The unit of the value the driver returns.
    pub unit: &'static str,
}

/// The catalog of known peripheral types. Clones share one table, so
/// every Thing of a world holds a pointer, not a copy.
#[derive(Clone)]
pub struct Catalog {
    entries: Arc<[CatalogEntry]>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::with_prototypes()
    }
}

impl Catalog {
    /// The catalog with the paper's four prototypes plus the SPI
    /// extension.
    pub fn with_prototypes() -> Self {
        Catalog {
            entries: vec![
                CatalogEntry {
                    device_id: prototypes::TMP36,
                    name: "TMP36 temperature sensor",
                    interconnect: Interconnect::Adc,
                    driver_source: upnp_dsl::drivers::TMP36,
                    unit: "degC",
                },
                CatalogEntry {
                    device_id: prototypes::HIH4030,
                    name: "HIH-4030 humidity sensor",
                    interconnect: Interconnect::Adc,
                    driver_source: upnp_dsl::drivers::HIH4030,
                    unit: "%RH",
                },
                CatalogEntry {
                    device_id: prototypes::ID20LA,
                    name: "ID-20LA RFID reader",
                    interconnect: Interconnect::Uart,
                    driver_source: upnp_dsl::drivers::ID20LA,
                    unit: "card",
                },
                CatalogEntry {
                    device_id: prototypes::BMP180,
                    name: "BMP180 pressure sensor",
                    interconnect: Interconnect::I2c,
                    driver_source: upnp_dsl::drivers::BMP180,
                    unit: "Pa",
                },
                CatalogEntry {
                    // The second example identifier from the paper's
                    // Figure 8 (0x0a0bbf03) serves the SPI extension.
                    device_id: DeviceTypeId::new(0x0a0b_bf03),
                    name: "MAX6675 thermocouple",
                    interconnect: Interconnect::Spi,
                    driver_source: upnp_dsl::drivers::MAX6675,
                    unit: "degC",
                },
            ]
            .into(),
        }
    }

    /// Looks up an entry by device id.
    pub fn get(&self, device_id: DeviceTypeId) -> Option<&CatalogEntry> {
        self.entries.iter().find(|e| e.device_id == device_id)
    }

    /// All entries.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// Attaches the simulated peripheral model for `device_id` to the
    /// hardware context so the slot's driver can talk to it.
    ///
    /// Returns false for unknown device types.
    pub fn attach(&self, runtime: &mut Runtime, slot: u8, device_id: DeviceTypeId) -> bool {
        let Some(entry) = self.get(device_id) else {
            return false;
        };
        let seed = runtime.hw.rng.next_u64();
        match entry.interconnect {
            Interconnect::Adc => {
                if device_id == prototypes::TMP36 {
                    runtime
                        .hw
                        .analog_sources
                        .insert(slot, Box::new(Tmp36::new()));
                } else {
                    runtime
                        .hw
                        .analog_sources
                        .insert(slot, Box::new(Hih4030::new()));
                }
            }
            Interconnect::Uart => {
                runtime.hw.uart_device = Some(Box::new(Id20La::new()));
            }
            Interconnect::I2c => {
                if !runtime.hw.i2c.probe(BMP180_I2C_ADDR) {
                    runtime
                        .hw
                        .i2c
                        .attach(BMP180_I2C_ADDR, Box::new(Bmp180::new(seed)));
                }
            }
            Interconnect::Spi => {
                runtime.hw.spi.attach(Box::new(Max6675::new()));
            }
        }
        true
    }

    /// Detaches the peripheral model when the hardware is unplugged.
    pub fn detach(&self, runtime: &mut Runtime, slot: u8, device_id: DeviceTypeId) {
        let Some(entry) = self.get(device_id) else {
            return;
        };
        match entry.interconnect {
            Interconnect::Adc => {
                runtime.hw.analog_sources.remove(&slot);
            }
            Interconnect::Uart => {
                runtime.hw.uart_device = None;
            }
            Interconnect::I2c => {
                runtime.hw.i2c.detach(BMP180_I2C_ADDR);
            }
            Interconnect::Spi => {
                runtime.hw.spi.detach();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototypes_are_present() {
        let c = Catalog::with_prototypes();
        for id in prototypes::ALL {
            let e = c.get(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(!e.driver_source.is_empty());
        }
        assert_eq!(c.entries().len(), 5);
    }

    #[test]
    fn drivers_in_catalog_compile() {
        let c = Catalog::with_prototypes();
        for e in c.entries() {
            let img = upnp_dsl::compile_source(e.driver_source, e.device_id.raw())
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert_eq!(img.device_id, e.device_id.raw());
        }
    }

    #[test]
    fn attach_detach_cycle() {
        let c = Catalog::with_prototypes();
        let mut rt = Runtime::new(1);
        assert!(c.attach(&mut rt, 0, prototypes::TMP36));
        assert!(rt.hw.analog_sources.contains_key(&0));
        c.detach(&mut rt, 0, prototypes::TMP36);
        assert!(!rt.hw.analog_sources.contains_key(&0));

        assert!(c.attach(&mut rt, 1, prototypes::BMP180));
        assert!(rt.hw.i2c.probe(BMP180_I2C_ADDR));
        c.detach(&mut rt, 1, prototypes::BMP180);
        assert!(!rt.hw.i2c.probe(BMP180_I2C_ADDR));
    }

    #[test]
    fn unknown_device_attach_fails() {
        let c = Catalog::with_prototypes();
        let mut rt = Runtime::new(2);
        assert!(!c.attach(&mut rt, 0, DeviceTypeId::new(0xdead_0000)));
    }
}
