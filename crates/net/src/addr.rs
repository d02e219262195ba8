//! The µPnP multicast addressing schema (paper §5.1, Figure 9).
//!
//! ```text
//! | ff3e:30 (32 bits) | network prefix (48 bits) | 0 (16 bits) | peripheral (32 bits) |
//! ```
//!
//! Unicast-prefix-based multicast addresses (RFC 3306) let the schema work
//! in a global or local scope. Two peripheral values are reserved:
//! `0x00000000` (all peripherals) and `0xffffffff` (all µPnP clients).

use std::net::Ipv6Addr;

/// The UDP port all µPnP protocol messages use (§5.2).
pub const MCAST_PORT: u16 = 6030;

/// The fixed 32-bit multicast prefix `ff3e:0030`.
pub const SCHEMA_PREFIX: u32 = 0xff3e_0030;

/// Value of zero-pad octet 11 that marks a per-stream group derived from
/// a peripheral group (see `Thing::stream_group`). Stream groups only
/// ever hold clients, which a sharded world replicates into every shard —
/// the network layer uses this flag to keep stream traffic shard-local.
pub const STREAM_FLAG: u8 = 1;

/// Builds the multicast group address of one peripheral type inside a
/// 48-bit network prefix.
///
/// # Examples
///
/// ```
/// use upnp_net::addr::peripheral_group;
///
/// // The paper's example: ff3e:30:2001:db8::ed3f:0ac1.
/// let g = peripheral_group(0x2001_0db8_0000, 0xed3f_0ac1);
/// assert_eq!(g.to_string(), "ff3e:30:2001:db8::ed3f:ac1");
/// ```
pub fn peripheral_group(network_prefix_48: u64, peripheral: u32) -> Ipv6Addr {
    let prefix = network_prefix_48 & 0xffff_ffff_ffff;
    let mut octets = [0u8; 16];
    octets[..4].copy_from_slice(&SCHEMA_PREFIX.to_be_bytes());
    octets[4..10].copy_from_slice(&prefix.to_be_bytes()[2..8]);
    // Octets 10..12 are the zero pad.
    octets[12..16].copy_from_slice(&peripheral.to_be_bytes());
    Ipv6Addr::from(octets)
}

/// The group of all µPnP Things with *any* peripheral in the prefix
/// (reserved value `0x00000000`).
pub fn all_peripherals_group(network_prefix_48: u64) -> Ipv6Addr {
    peripheral_group(network_prefix_48, 0x0000_0000)
}

/// The group of all µPnP clients in the prefix (reserved value
/// `0xffffffff`).
pub fn all_clients_group(network_prefix_48: u64) -> Ipv6Addr {
    peripheral_group(network_prefix_48, 0xffff_ffff)
}

/// Extracts the peripheral identifier from a schema address, or `None` if
/// the address does not carry the µPnP prefix.
pub fn peripheral_of(addr: Ipv6Addr) -> Option<u32> {
    let o = addr.octets();
    if u32::from_be_bytes([o[0], o[1], o[2], o[3]]) != SCHEMA_PREFIX {
        return None;
    }
    Some(u32::from_be_bytes([o[12], o[13], o[14], o[15]]))
}

/// Extracts the 48-bit network prefix from a schema address.
pub fn prefix_of(addr: Ipv6Addr) -> Option<u64> {
    let o = addr.octets();
    if u32::from_be_bytes([o[0], o[1], o[2], o[3]]) != SCHEMA_PREFIX {
        return None;
    }
    let mut bytes = [0u8; 8];
    bytes[2..8].copy_from_slice(&o[4..10]);
    Some(u64::from_be_bytes(bytes))
}

/// Builds a node's unicast address inside the 48-bit prefix from a 16-bit
/// subnet and 64-bit interface identifier.
pub fn unicast(network_prefix_48: u64, subnet: u16, iid: u64) -> Ipv6Addr {
    let prefix = network_prefix_48 & 0xffff_ffff_ffff;
    let mut octets = [0u8; 16];
    octets[..6].copy_from_slice(&prefix.to_be_bytes()[2..8]);
    octets[6..8].copy_from_slice(&subnet.to_be_bytes());
    octets[8..16].copy_from_slice(&iid.to_be_bytes());
    Ipv6Addr::from(octets)
}

/// The 48-bit network prefix of a unicast address built by [`unicast`]:
/// a node derives its groups from its own address (Figure 9).
pub fn unicast_prefix(addr: Ipv6Addr) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[2..8].copy_from_slice(&addr.octets()[..6]);
    u64::from_be_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC_PREFIX: u64 = 0x2001_0db8_0000;

    #[test]
    fn figure9_layout() {
        let g = peripheral_group(DOC_PREFIX, 0xed3f_0ac1);
        let o = g.octets();
        assert_eq!(&o[..4], &[0xff, 0x3e, 0x00, 0x30]);
        assert_eq!(&o[4..10], &[0x20, 0x01, 0x0d, 0xb8, 0x00, 0x00]);
        assert_eq!(&o[10..12], &[0, 0]);
        assert_eq!(&o[12..], &[0xed, 0x3f, 0x0a, 0xc1]);
    }

    #[test]
    fn reserved_groups() {
        let all_p = all_peripherals_group(DOC_PREFIX);
        assert_eq!(peripheral_of(all_p), Some(0));
        let all_c = all_clients_group(DOC_PREFIX);
        assert_eq!(peripheral_of(all_c), Some(0xffff_ffff));
        assert_eq!(
            all_c.to_string(),
            "ff3e:30:2001:db8::ffff:ffff",
            "matches the paper's Figure 10 example"
        );
    }

    #[test]
    fn extraction_roundtrips() {
        for p in [0u32, 1, 0xed3f_0ac1, u32::MAX] {
            let g = peripheral_group(DOC_PREFIX, p);
            assert_eq!(peripheral_of(g), Some(p));
            assert_eq!(prefix_of(g), Some(DOC_PREFIX));
        }
    }

    #[test]
    fn non_schema_addresses_rejected() {
        let unicast = "2001:db8::1".parse::<Ipv6Addr>().unwrap();
        assert_eq!(peripheral_of(unicast), None);
        assert_eq!(prefix_of(unicast), None);
    }

    #[test]
    fn unicast_addresses_embed_prefix() {
        let a = unicast(DOC_PREFIX, 0, 1);
        assert_eq!(a.to_string(), "2001:db8::1");
        let b = unicast(DOC_PREFIX, 2, 0xaabb);
        assert_eq!(b.to_string(), "2001:db8:0:2::aabb");
    }

    #[test]
    fn unicast_prefix_inverts_unicast() {
        for (subnet, iid) in [(0, 1), (2, 0xaabb), (u16::MAX, u64::MAX)] {
            assert_eq!(unicast_prefix(unicast(DOC_PREFIX, subnet, iid)), DOC_PREFIX);
        }
    }

    #[test]
    fn groups_differ_per_peripheral() {
        let a = peripheral_group(DOC_PREFIX, 0xed3f_0ac1);
        let b = peripheral_group(DOC_PREFIX, 0xed3f_bda1);
        assert_ne!(a, b, "per-type groups enable network-layer filtering");
    }
}
