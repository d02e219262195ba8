//! Type-length-value tuples (paper §5.2.1).
//!
//! Advertisement and discovery messages carry "a set of type-length-value
//! (TLV) encoded tuples containing extra information about each
//! peripheral". Wire format: one type byte, one length byte, `length`
//! value bytes.

/// Well-known TLV types used by the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlvType {
    /// Human-readable peripheral name (UTF-8).
    Name,
    /// Measurement unit (UTF-8, e.g. "degC", "Pa").
    Unit,
    /// Installed driver version (u16 big endian).
    DriverVersion,
    /// The control-board channel the peripheral occupies (u8).
    Channel,
    /// Free-form location tag (UTF-8).
    Location,
    /// Vendor-specific payload.
    Vendor(u8),
}

impl TlvType {
    /// The wire tag.
    pub fn tag(self) -> u8 {
        match self {
            TlvType::Name => 1,
            TlvType::Unit => 2,
            TlvType::DriverVersion => 3,
            TlvType::Channel => 4,
            TlvType::Location => 5,
            TlvType::Vendor(t) => t,
        }
    }

    /// Inverse of [`TlvType::tag`].
    pub fn from_tag(tag: u8) -> TlvType {
        match tag {
            1 => TlvType::Name,
            2 => TlvType::Unit,
            3 => TlvType::DriverVersion,
            4 => TlvType::Channel,
            5 => TlvType::Location,
            t => TlvType::Vendor(t),
        }
    }
}

/// One TLV tuple, borrowed from the bytes that hold it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tlv<'a> {
    /// The tuple type.
    pub ty: TlvType,
    /// The value bytes (max 255).
    pub value: &'a [u8],
}

impl<'a> Tlv<'a> {
    /// Creates a tuple.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds 255 bytes (the length field is u8).
    pub fn new(ty: TlvType, value: &'a [u8]) -> Tlv<'a> {
        assert!(value.len() <= 255, "TLV value too long");
        Tlv { ty, value }
    }

    /// Convenience: a UTF-8 text tuple.
    pub fn text(ty: TlvType, s: &'a str) -> Tlv<'a> {
        Tlv::new(ty, s.as_bytes())
    }

    /// The value decoded as UTF-8, if valid.
    pub fn as_text(&self) -> Option<&'a str> {
        std::str::from_utf8(self.value).ok()
    }

    /// Serialized size.
    pub fn wire_len(&self) -> usize {
        2 + self.value.len()
    }
}

/// A list of TLV tuples held in wire form: the tuples' bytes in one
/// allocation (none when empty) and their count.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TlvList {
    count: u8,
    bytes: Box<[u8]>,
}

impl TlvList {
    /// Lays `tuples` out in wire form, allocating once.
    ///
    /// # Panics
    ///
    /// Panics on more than 255 tuples or a value over 255 bytes.
    pub fn new<'a, I>(tuples: I) -> TlvList
    where
        I: IntoIterator<Item = Tlv<'a>>,
        I::IntoIter: Clone,
    {
        let tuples = tuples.into_iter();
        let size = tuples.clone().map(|t| t.wire_len()).sum();
        let mut bytes = Vec::with_capacity(size);
        let mut count = 0u8;
        for t in tuples {
            assert!(t.value.len() <= 255, "TLV value too long");
            count = count.checked_add(1).expect("at most 255 TLV tuples");
            bytes.push(t.ty.tag());
            bytes.push(t.value.len() as u8);
            bytes.extend_from_slice(t.value);
        }
        TlvList {
            count,
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// The tuples, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = Tlv<'_>> + '_ {
        let mut rest = &self.bytes[..];
        std::iter::from_fn(move || {
            let (&tag, tail) = rest.split_first()?;
            let (&len, tail) = tail.split_first()?;
            let (value, tail) = tail.split_at(len as usize);
            rest = tail;
            Some(Tlv {
                ty: TlvType::from_tag(tag),
                value,
            })
        })
    }

    /// Appends the list's wire form (count byte, then the tuples) to
    /// `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.count);
        out.extend_from_slice(&self.bytes);
    }

    /// Parses a list from `data` starting at `*i`; advances `*i` past
    /// it.
    ///
    /// Returns `None` on truncation.
    pub fn decode(data: &[u8], i: &mut usize) -> Option<TlvList> {
        let count = *data.get(*i)?;
        let start = *i + 1;
        let mut end = start;
        for _ in 0..count {
            end += 2 + *data.get(end + 1)? as usize;
            if end > data.len() {
                return None;
            }
        }
        *i = end;
        Some(TlvList {
            count,
            bytes: data[start..end].into(),
        })
    }
}

impl std::fmt::Debug for TlvList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_list() {
        let tuples = [
            Tlv::text(TlvType::Name, "TMP36"),
            Tlv::text(TlvType::Unit, "degC"),
            Tlv::new(TlvType::Channel, &[1]),
            Tlv::new(TlvType::Vendor(0x80), &[1, 2, 3]),
        ];
        let list = TlvList::new(tuples);
        assert!(list.iter().eq(tuples));
        let mut buf = Vec::new();
        list.encode(&mut buf);
        let mut i = 0;
        let back = TlvList::decode(&buf, &mut i).unwrap();
        assert_eq!(back, list);
        assert_eq!(i, buf.len());
    }

    #[test]
    fn empty_list() {
        let mut buf = Vec::new();
        TlvList::default().encode(&mut buf);
        assert_eq!(buf, vec![0]);
        let mut i = 0;
        let back = TlvList::decode(&buf, &mut i).unwrap();
        assert_eq!(back.iter().count(), 0);
    }

    #[test]
    fn truncation_detected() {
        let list = TlvList::new([Tlv::text(TlvType::Name, "BMP180")]);
        let mut buf = Vec::new();
        list.encode(&mut buf);
        for cut in 1..buf.len() {
            let mut i = 0;
            assert!(TlvList::decode(&buf[..cut], &mut i).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn text_helpers() {
        let t = Tlv::text(TlvType::Location, "greenhouse-3");
        assert_eq!(t.as_text(), Some("greenhouse-3"));
        assert_eq!(t.wire_len(), 2 + 12);
        let raw = Tlv::new(TlvType::Vendor(9), &[0xff]);
        assert!(raw.as_text().is_none());
    }

    #[test]
    fn tags_roundtrip() {
        for tag in 0..=255u8 {
            assert_eq!(TlvType::from_tag(tag).tag(), tag);
        }
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn oversized_value_panics() {
        Tlv::new(TlvType::Name, &[0; 300]);
    }
}
