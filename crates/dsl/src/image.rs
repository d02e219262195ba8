//! The serialized driver image — what travels over the air (§4.1:
//! "compact bytecode instructions, allowing for energy-efficient
//! distribution in networks of IoT nodes").
//!
//! Layout (all multi-byte fields little endian unless noted):
//!
//! ```text
//! 0..2   magic 0xB5 0x50
//! 2      format version (1)
//! 3..7   peripheral device-type id (big endian, as in the multicast schema)
//! 7      bus kind (0 none, 1 ADC, 2 I²C, 3 SPI, 4 UART)
//! 8      import count, then one library id byte each
//! .      global count, then one descriptor byte each:
//!        bit7 = array flag; bits 0..4 = type tag; arrays follow with a
//!        length byte
//! .      handler count, then 4 bytes each: event id, param count,
//!        code offset (u16)
//! .      code length (u16), then the bytecode
//! ```

use crate::ast::Type;
use crate::isa;

/// Magic bytes of a driver image.
pub const MAGIC: [u8; 2] = [0xb5, 0x50];

/// Current image format version.
pub const VERSION: u8 = 1;

/// The bus family a driver speaks, inferred from its imports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusKind {
    /// No interconnect (pure-software driver).
    None,
    /// Analog input.
    Adc,
    /// I²C.
    I2c,
    /// SPI.
    Spi,
    /// UART.
    Uart,
}

impl BusKind {
    /// Wire tag.
    pub fn tag(self) -> u8 {
        match self {
            BusKind::None => 0,
            BusKind::Adc => 1,
            BusKind::I2c => 2,
            BusKind::Spi => 3,
            BusKind::Uart => 4,
        }
    }

    /// Inverse of [`BusKind::tag`].
    pub fn from_tag(tag: u8) -> Option<BusKind> {
        Some(match tag {
            0 => BusKind::None,
            1 => BusKind::Adc,
            2 => BusKind::I2c,
            3 => BusKind::Spi,
            4 => BusKind::Uart,
            _ => return None,
        })
    }
}

/// A global variable slot in the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalSlot {
    /// Element type.
    pub ty: Type,
    /// Array length, or `None` for scalars.
    pub array_len: Option<u8>,
}

/// A handler table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerEntry {
    /// The event id this handler answers.
    pub event_id: u8,
    /// Number of parameters the handler expects.
    pub n_params: u8,
    /// Byte offset of the handler's code in the code region.
    pub offset: u16,
}

/// A complete driver image.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverImage {
    /// The peripheral type this driver serves.
    pub device_id: u32,
    /// The interconnect the driver uses.
    pub bus: BusKind,
    /// Imported native library ids.
    pub imports: Vec<u8>,
    /// Global variable slots, in declaration order.
    pub globals: Vec<GlobalSlot>,
    /// Handler table.
    pub handlers: Vec<HandlerEntry>,
    /// Bytecode for all handlers, concatenated.
    pub code: Vec<u8>,
}

/// Image (de)serialization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// Too short or missing magic.
    BadHeader,
    /// Unknown format version.
    BadVersion(u8),
    /// Truncated while reading a section.
    Truncated,
    /// An unknown type tag or bus tag.
    BadTag(u8),
    /// A handler offset points outside the code region.
    BadOffset(u16),
    /// The bytecode does not decode at the given offset.
    BadCode(usize),
    /// Bytes follow the code region; the image proper ends at the given
    /// offset.
    TrailingBytes(usize),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::BadHeader => write!(f, "bad image header"),
            ImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ImageError::Truncated => write!(f, "truncated image"),
            ImageError::BadTag(t) => write!(f, "unknown tag {t:#x}"),
            ImageError::BadOffset(o) => write!(f, "handler offset {o} out of range"),
            ImageError::BadCode(o) => write!(f, "undecodable bytecode at offset {o}"),
            ImageError::TrailingBytes(end) => write!(f, "trailing bytes after offset {end}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl DriverImage {
    /// Serializes the image to its wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&self.device_id.to_be_bytes());
        out.push(self.bus.tag());
        out.push(self.imports.len() as u8);
        out.extend_from_slice(&self.imports);
        out.push(self.globals.len() as u8);
        for g in &self.globals {
            match g.array_len {
                None => out.push(g.ty.tag()),
                Some(len) => {
                    out.push(0x80 | g.ty.tag());
                    out.push(len);
                }
            }
        }
        out.push(self.handlers.len() as u8);
        for h in &self.handlers {
            out.push(h.event_id);
            out.push(h.n_params);
            out.extend_from_slice(&h.offset.to_le_bytes());
        }
        out.extend_from_slice(&(self.code.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.code);
        out
    }

    /// Total serialized size in bytes — the number Table 3 reports.
    pub fn size_bytes(&self) -> usize {
        let globals_bytes: usize = self
            .globals
            .iter()
            .map(|g| if g.array_len.is_some() { 2 } else { 1 })
            .sum();
        2 + 1 + 4 + 1 // magic, version, device id, bus
            + 1 + self.imports.len()
            + 1 + globals_bytes
            + 1 + self.handlers.len() * 4
            + 2 + self.code.len()
    }

    /// Parses and structurally validates an image.
    ///
    /// # Errors
    ///
    /// Returns an [`ImageError`] for malformed input, including bytes
    /// after the code region; a valid result is guaranteed to have
    /// in-range handler offsets and decodable bytecode.
    pub fn from_bytes(data: &[u8]) -> Result<DriverImage, ImageError> {
        let mut r = Reader { data, i: 0 };
        if r.take(2)? != MAGIC {
            return Err(ImageError::BadHeader);
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(ImageError::BadVersion(version));
        }
        let device_id = u32::from_be_bytes(r.take(4)?.try_into().expect("len 4"));
        let bus = BusKind::from_tag(r.u8()?).ok_or(ImageError::BadTag(0xf0))?;
        let n_imports = r.u8()? as usize;
        let imports = r.take(n_imports)?.to_vec();
        let n_globals = r.u8()? as usize;
        let mut globals = Vec::with_capacity(n_globals);
        for _ in 0..n_globals {
            let tag = r.u8()?;
            let ty = Type::from_tag(tag & 0x1f).ok_or(ImageError::BadTag(tag))?;
            let array_len = if tag & 0x80 != 0 { Some(r.u8()?) } else { None };
            globals.push(GlobalSlot { ty, array_len });
        }
        let n_handlers = r.u8()? as usize;
        let mut handlers = Vec::with_capacity(n_handlers);
        for _ in 0..n_handlers {
            let event_id = r.u8()?;
            let n_params = r.u8()?;
            let offset = u16::from_le_bytes(r.take(2)?.try_into().expect("len 2"));
            handlers.push(HandlerEntry {
                event_id,
                n_params,
                offset,
            });
        }
        let code_len = u16::from_le_bytes(r.take(2)?.try_into().expect("len 2")) as usize;
        let code = r.take(code_len)?.to_vec();
        if r.i != data.len() {
            return Err(ImageError::TrailingBytes(r.i));
        }

        for h in &handlers {
            if h.offset as usize >= code.len() && !(code.is_empty() && h.offset == 0) {
                return Err(ImageError::BadOffset(h.offset));
            }
        }
        let mut pc = 0;
        while pc < code.len() {
            let (_, operands) = isa::decode(&code, pc).map_err(ImageError::BadCode)?;
            pc += 1 + operands.len();
        }

        Ok(DriverImage {
            device_id,
            bus,
            imports,
            globals,
            handlers,
            code,
        })
    }

    /// Finds the handler table entry for an event id.
    pub fn handler_for(&self, event_id: u8) -> Option<&HandlerEntry> {
        self.handlers.iter().find(|h| h.event_id == event_id)
    }

    /// A human-readable dump: header summary plus disassembly.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "driver for {:#010x} via {:?}: {} imports, {} globals, {} handlers, {} code bytes ({} total)",
            self.device_id,
            self.bus,
            self.imports.len(),
            self.globals.len(),
            self.handlers.len(),
            self.code.len(),
            self.size_bytes(),
        );
        for h in &self.handlers {
            let _ = writeln!(
                out,
                "  handler event={} params={} @ {:#06x}",
                h.event_id, h.n_params, h.offset
            );
        }
        if let Ok(lines) = isa::disassemble(&self.code) {
            for l in lines {
                let _ = writeln!(out, "    {l}");
            }
        }
        out
    }
}

struct Reader<'a> {
    data: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        if self.i + n > self.data.len() {
            return Err(ImageError::Truncated);
        }
        let s = &self.data[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ImageError> {
        Ok(self.take(1)?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DriverImage {
        DriverImage {
            device_id: 0xed3f_0ac1,
            bus: BusKind::Uart,
            imports: vec![1],
            globals: vec![
                GlobalSlot {
                    ty: Type::U8,
                    array_len: None,
                },
                GlobalSlot {
                    ty: Type::U8,
                    array_len: Some(12),
                },
                GlobalSlot {
                    ty: Type::Bool,
                    array_len: None,
                },
            ],
            handlers: vec![
                HandlerEntry {
                    event_id: 0,
                    n_params: 0,
                    offset: 0,
                },
                HandlerEntry {
                    event_id: 16,
                    n_params: 1,
                    offset: 2,
                },
            ],
            // RET; NOP; PUSH8 1; RET
            code: vec![0x63, 0x00, 0x01, 1, 0x63],
        }
    }

    #[test]
    fn roundtrip() {
        let img = sample();
        let bytes = img.to_bytes();
        assert_eq!(bytes.len(), img.size_bytes());
        let back = DriverImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0;
        assert_eq!(
            DriverImage::from_bytes(&bytes).unwrap_err(),
            ImageError::BadHeader
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[2] = 9;
        assert_eq!(
            DriverImage::from_bytes(&bytes).unwrap_err(),
            ImageError::BadVersion(9)
        );
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample().to_bytes();
        for cut in 1..bytes.len() {
            let r = DriverImage::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "no error at cut {cut}");
        }
    }

    #[test]
    fn bad_code_rejected() {
        let mut img = sample();
        // Keep handler offsets in range but make byte 3 undecodable.
        img.code = vec![0x63, 0x00, 0x63, 0x99, 0x63];
        let bytes = img.to_bytes();
        assert_eq!(
            DriverImage::from_bytes(&bytes).unwrap_err(),
            ImageError::BadCode(3)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        let end = bytes.len();
        bytes.extend_from_slice(&[0x63, 0x00]);
        assert_eq!(
            DriverImage::from_bytes(&bytes).unwrap_err(),
            ImageError::TrailingBytes(end)
        );
    }

    #[test]
    fn out_of_range_handler_offset_rejected() {
        let mut img = sample();
        img.handlers[1].offset = 999;
        let bytes = img.to_bytes();
        assert_eq!(
            DriverImage::from_bytes(&bytes).unwrap_err(),
            ImageError::BadOffset(999)
        );
    }

    #[test]
    fn size_counts_array_descriptors() {
        let img = sample();
        // magic(2)+ver(1)+id(4)+bus(1)+imports(1+1)+globals(1+ (1+2+1))
        // +handlers(1+8)+codelen(2)+code(5)
        assert_eq!(img.size_bytes(), 2 + 1 + 4 + 1 + 2 + 5 + 9 + 2 + 5);
    }

    #[test]
    fn handler_lookup() {
        let img = sample();
        assert_eq!(img.handler_for(16).unwrap().offset, 2);
        assert!(img.handler_for(99).is_none());
    }

    #[test]
    fn dump_mentions_device_and_handlers() {
        let d = sample().dump();
        assert!(d.contains("0xed3f0ac1"));
        assert!(d.contains("handler event=16"));
    }

    #[test]
    fn bus_tags_roundtrip() {
        for b in [
            BusKind::None,
            BusKind::Adc,
            BusKind::I2c,
            BusKind::Spi,
            BusKind::Uart,
        ] {
            assert_eq!(BusKind::from_tag(b.tag()), Some(b));
        }
        assert_eq!(BusKind::from_tag(9), None);
    }
}
