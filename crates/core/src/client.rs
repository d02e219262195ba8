//! The µPnP Client: remote discovery and usage of peripherals (paper §5).
//!
//! A client joins the all-clients group (so unsolicited advertisements
//! reach it), multicasts (2) discovery messages to peripheral-type groups,
//! and drives (10) read / (12) stream / (16) write interactions.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use upnp_net::addr::{self, MCAST_PORT};
use upnp_net::msg::{AdvertisedPeripheral, Message, MessageBody, SeqNo, Value};
use upnp_net::{Action, Datagram, NodeId, Reply, Tlv, TlvList, TlvType};
use upnp_sim::SimTime;

/// A discovered peripheral: where it lives and what it advertised.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredPeripheral {
    /// The Thing hosting the peripheral.
    pub thing: Ipv6Addr,
    /// The advertisement contents.
    pub advert: AdvertisedPeripheral,
    /// True if it arrived solicited (reply to our discovery).
    pub solicited: bool,
}

/// The µPnP Client.
pub struct Client {
    /// The client's network node.
    pub node: NodeId,
    /// The client's unicast address.
    pub address: Ipv6Addr,
    prefix: u64,
    seq: SeqNo,
    /// Everything discovered so far.
    pub discovered: Vec<DiscoveredPeripheral>,
    /// Read results: `(peripheral, value, at)`.
    pub readings: Vec<(u32, Value, SimTime)>,
    /// Stream samples: `(peripheral, value, at)`.
    pub stream_data: Vec<(u32, Value, SimTime)>,
    /// Stream-established groups: group address → peripheral. Keyed by
    /// the group (unique per Thing × peripheral since groups are
    /// per-Thing), so recording is idempotent and merge-order
    /// independent when shard replicas are folded into a master client.
    pub stream_groups: HashMap<Ipv6Addr, u32>,
    /// Streams that have been closed by the Thing.
    pub closed_streams: Vec<u32>,
    /// Write acknowledgements: `(peripheral, ok)`.
    pub write_acks: Vec<(u32, bool)>,
}

impl Client {
    /// Creates a client (the world joins it to the all-clients group).
    pub fn new(node: NodeId, address: Ipv6Addr, prefix: u64) -> Self {
        Client {
            node,
            address,
            prefix,
            seq: 0x4000, // distinct space from things, aids debugging
            discovered: Vec::new(),
            readings: Vec::new(),
            stream_data: Vec::new(),
            stream_groups: HashMap::new(),
            closed_streams: Vec::new(),
            write_acks: Vec::new(),
        }
    }

    fn next_seq(&mut self) -> SeqNo {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    fn datagram(&self, dst: Ipv6Addr, msg: Message) -> Datagram {
        Datagram {
            src: self.address,
            dst,
            src_port: MCAST_PORT,
            dst_port: MCAST_PORT,
            payload: msg.encode().into(),
        }
    }

    /// Builds a (2) discovery for a peripheral type (or the all-peripherals
    /// wildcard `0`).
    pub fn discover(&mut self, peripheral: u32) -> Datagram {
        self.discover_with(peripheral, TlvList::default())
    }

    /// Builds a location-filtered discovery (§9's location-aware
    /// discovery): only Things whose location tag matches will answer.
    pub fn discover_at(&mut self, peripheral: u32, location: &str) -> Datagram {
        self.discover_with(
            peripheral,
            TlvList::new([Tlv::text(TlvType::Location, location)]),
        )
    }

    fn discover_with(&mut self, peripheral: u32, tlvs: TlvList) -> Datagram {
        let seq = self.next_seq();
        let group = addr::peripheral_group(self.prefix, peripheral);
        self.datagram(
            group,
            Message {
                seq,
                body: MessageBody::Discovery(tlvs),
            },
        )
    }

    /// Builds a (10) read for a peripheral on a specific Thing.
    pub fn read(&mut self, thing: Ipv6Addr, peripheral: u32) -> Datagram {
        let seq = self.next_seq();
        self.datagram(
            thing,
            Message {
                seq,
                body: MessageBody::Read { peripheral },
            },
        )
    }

    /// Builds a (16) write.
    pub fn write(&mut self, thing: Ipv6Addr, peripheral: u32, value: Value) -> Datagram {
        let seq = self.next_seq();
        self.datagram(
            thing,
            Message {
                seq,
                body: MessageBody::Write { peripheral, value },
            },
        )
    }

    /// Builds a (12) stream request.
    pub fn stream(&mut self, thing: Ipv6Addr, peripheral: u32) -> Datagram {
        let seq = self.next_seq();
        self.datagram(
            thing,
            Message {
                seq,
                body: MessageBody::Stream { peripheral },
            },
        )
    }

    /// Handles a delivery. The reply joins the stream group an (13)
    /// established message names.
    pub fn on_datagram(&mut self, at: SimTime, dgram: &Datagram) -> Reply {
        let Some(msg) = Message::decode(&dgram.payload) else {
            return Reply::default();
        };
        match msg.body {
            MessageBody::UnsolicitedAdvertisement(ads) => self.record(dgram.src, ads, false),
            MessageBody::SolicitedAdvertisement(ads) => self.record(dgram.src, ads, true),
            MessageBody::Data { peripheral, value } => {
                self.readings.push((peripheral, value, at));
            }
            MessageBody::Established { peripheral, group } => {
                // The group is wire input: a unicast one cannot be joined.
                let group = Ipv6Addr::from(group);
                if group.is_multicast() {
                    self.stream_groups.insert(group, peripheral);
                    return Reply::from(vec![Action::Join(group)]);
                }
            }
            MessageBody::StreamData { peripheral, value } => {
                self.stream_data.push((peripheral, value, at));
            }
            MessageBody::Closed { peripheral } => self.closed_streams.push(peripheral),
            MessageBody::WriteAck { peripheral, ok } => self.write_acks.push((peripheral, ok)),
            _ => {}
        }
        Reply::default()
    }

    fn record(&mut self, thing: Ipv6Addr, ads: Vec<AdvertisedPeripheral>, solicited: bool) {
        for advert in ads {
            self.discovered.push(DiscoveredPeripheral {
                thing,
                advert,
                solicited,
            });
        }
    }

    /// Things that advertised a given peripheral type.
    pub fn things_with(&self, peripheral: u32) -> Vec<Ipv6Addr> {
        let mut out: Vec<Ipv6Addr> = self
            .discovered
            .iter()
            .filter(|d| d.advert.peripheral == peripheral)
            .map(|d| d.thing)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The most recent reading for a peripheral type.
    pub fn last_reading(&self, peripheral: u32) -> Option<&Value> {
        self.readings
            .iter()
            .rev()
            .find(|(p, _, _)| *p == peripheral)
            .map(|(_, v, _)| v)
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("node", &self.node)
            .field("discovered", &self.discovered.len())
            .field("readings", &self.readings.len())
            .finish_non_exhaustive()
    }
}
