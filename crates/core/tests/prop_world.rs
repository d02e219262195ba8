//! Totality of the protocol actors on hostile traffic: any sequence of
//! well-formed messages, of every type, with arbitrary fields, from any
//! node to any address, runs to idle without a panic and never leaves a
//! Thing serving a peripheral it does not have plugged.

use std::cell::RefCell;
use std::net::Ipv6Addr;
use std::sync::OnceLock;

use proptest::prelude::*;
use upnp_core::world::{SimWorld, ThingId, World, WorldConfig};
use upnp_core::Catalog;
use upnp_dsl::DriverImage;
use upnp_hw::channels::ChannelId;
use upnp_hw::id::{prototypes, DeviceTypeId};
use upnp_net::link::LinkQuality;
use upnp_net::msg::{AdvertisedPeripheral, Message, MessageBody, Value, DRIVER_CHUNK_PAYLOAD};
use upnp_net::{addr, Datagram, NodeId, Tlv, TlvList, TlvType, MCAST_PORT};
use upnp_sim::SimDuration;

/// The shipped drivers, compiled once.
fn shipped_drivers() -> &'static [DriverImage] {
    static DRIVERS: OnceLock<Vec<DriverImage>> = OnceLock::new();
    DRIVERS.get_or_init(|| {
        Catalog::with_prototypes()
            .entries()
            .iter()
            .map(|e| upnp_dsl::compile_source(e.driver_source, e.device_id.raw()).unwrap())
            .collect()
    })
}

/// A peripheral id: usually a catalog type, sometimes any.
fn arb_peripheral() -> impl Strategy<Value = u32> {
    prop_oneof![
        (0usize..4).prop_map(|i| prototypes::ALL[i].raw()),
        any::<u32>(),
    ]
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..max)
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::None),
        any::<i32>().prop_map(Value::I32),
        any::<f32>().prop_map(Value::F32),
        arb_bytes(24).prop_map(Value::Bytes),
    ]
}

fn arb_tlvs() -> impl Strategy<Value = TlvList> {
    prop::collection::vec((0u8..8, arb_bytes(12)), 0..3).prop_map(|tuples| {
        TlvList::new(
            tuples
                .iter()
                .map(|(tag, v)| Tlv::new(TlvType::from_tag(*tag), v)),
        )
    })
}

fn arb_adverts() -> impl Strategy<Value = Vec<AdvertisedPeripheral>> {
    let advert = (arb_peripheral(), arb_tlvs())
        .prop_map(|(peripheral, tlvs)| AdvertisedPeripheral { peripheral, tlvs });
    prop::collection::vec(advert, 0..3)
}

/// Driver image bytes: a shipped driver built for any peripheral id
/// (whole, or cut short), or arbitrary bytes.
fn arb_image() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0usize..4, arb_peripheral(), any::<u16>(), any::<bool>()).prop_map(
            |(driver, device_id, cut, whole)| {
                let mut image = shipped_drivers()[driver].clone();
                image.device_id = device_id;
                let mut bytes = image.to_bytes();
                if !whole {
                    bytes.truncate(cut as usize % bytes.len());
                }
                bytes
            }
        ),
        arb_bytes(96),
    ]
}

/// An invalidation's delta: none, one between two shipped drivers (so
/// a cache holding the base can patch it), or arbitrary bytes.
fn arb_delta() -> impl Strategy<Value = Option<Vec<u8>>> {
    prop_oneof![
        Just(None),
        (0usize..4, 0usize..4).prop_map(|(from, to)| {
            let [from, to] = [from, to].map(|i| shipped_drivers()[i].to_bytes());
            Some(upnp_dsl::ImageDelta::diff(&from, &to).to_bytes())
        }),
        arb_bytes(160).prop_map(Some),
    ]
}

/// A 16-byte stream group: a multicast address, or any bytes.
fn arb_group() -> impl Strategy<Value = [u8; 16]> {
    (any::<bool>(), any::<u128>()).prop_map(|(multicast, bits)| {
        let mut group = bits.to_be_bytes();
        if multicast {
            group[0] = 0xff;
        }
        group
    })
}

/// A message body of every type, with arbitrary fields.
fn arb_body() -> impl Strategy<Value = MessageBody> {
    prop_oneof![
        arb_adverts().prop_map(MessageBody::UnsolicitedAdvertisement),
        arb_tlvs().prop_map(MessageBody::Discovery),
        arb_adverts().prop_map(MessageBody::SolicitedAdvertisement),
        arb_peripheral().prop_map(|peripheral| MessageBody::DriverRequest { peripheral }),
        (arb_peripheral(), arb_image())
            .prop_map(|(peripheral, image)| MessageBody::DriverUpload { peripheral, image }),
        Just(MessageBody::DriverDiscovery),
        prop::collection::vec((arb_peripheral(), any::<u16>()), 0..4)
            .prop_map(|drivers| MessageBody::DriverAdvertisement { drivers }),
        arb_peripheral().prop_map(|peripheral| MessageBody::DriverRemoval { peripheral }),
        (arb_peripheral(), any::<bool>()).prop_map(|(peripheral, removed)| {
            MessageBody::DriverRemovalAck {
                peripheral,
                removed,
            }
        }),
        arb_peripheral().prop_map(|peripheral| MessageBody::Read { peripheral }),
        (arb_peripheral(), arb_value())
            .prop_map(|(peripheral, value)| MessageBody::Data { peripheral, value }),
        arb_peripheral().prop_map(|peripheral| MessageBody::Stream { peripheral }),
        (arb_peripheral(), arb_group())
            .prop_map(|(peripheral, group)| MessageBody::Established { peripheral, group }),
        (arb_peripheral(), arb_value())
            .prop_map(|(peripheral, value)| MessageBody::StreamData { peripheral, value }),
        arb_peripheral().prop_map(|peripheral| MessageBody::Closed { peripheral }),
        (arb_peripheral(), arb_value())
            .prop_map(|(peripheral, value)| MessageBody::Write { peripheral, value }),
        (arb_peripheral(), any::<bool>())
            .prop_map(|(peripheral, ok)| MessageBody::WriteAck { peripheral, ok }),
        (arb_peripheral(), any::<u16>(), 0u16..40).prop_map(|(peripheral, session, chunk)| {
            MessageBody::DriverChunkRequest {
                peripheral,
                session,
                chunk,
            }
        }),
        (
            arb_peripheral(),
            0u16..4,
            0u16..40,
            0u16..40,
            arb_bytes(DRIVER_CHUNK_PAYLOAD + 1)
        )
            .prop_map(|(peripheral, version, chunk, total, data)| {
                MessageBody::DriverChunk {
                    peripheral,
                    version,
                    chunk,
                    total,
                    data,
                }
            }),
        (arb_peripheral(), 0u16..4, arb_delta()).prop_map(|(peripheral, version, delta)| {
            MessageBody::DriverInvalidate {
                peripheral,
                version,
                delta,
            }
        }),
    ]
}

/// The small world the property drives: a manager and its standby, an
/// edge cache heading two Things with a TMP36 and a BMP180 plugged, and
/// a client.
struct Fixture {
    world: World,
    things: [(ThingId, DeviceTypeId); 2],
    /// Every node, in the order a sender index picks from.
    nodes: Vec<NodeId>,
    /// Every destination a message may take: each node's unicast
    /// address, both anycast addresses and the joined groups.
    dsts: Vec<Ipv6Addr>,
}

impl Fixture {
    fn new() -> Fixture {
        let mut w = World::new(WorldConfig::default());
        let q = LinkQuality::PERFECT;
        let manager = w.add_manager();
        let standby = w.add_standby();
        let cache = w.add_cache();
        let cache = w.cache_node(cache);
        let things = [
            (w.add_thing(), prototypes::TMP36),
            (w.add_thing(), prototypes::BMP180),
        ];
        let client = w.add_client();
        let client = w.client_node(client);
        w.link(manager, standby, q);
        w.link(manager, cache, q);
        w.link(manager, client, q);
        let mut nodes = vec![manager, standby, cache, client];
        for (thing, device) in things {
            let node = w.thing_node(thing);
            w.link(cache, node, q);
            w.plug(thing, 0, device);
            nodes.push(node);
        }
        w.build_tree(manager);
        w.run_until_idle();
        let prefix = WorldConfig::default().prefix;
        let mut dsts: Vec<Ipv6Addr> = nodes.iter().map(|&n| w.net.addr_of(n)).collect();
        dsts.extend([
            w.manager_anycast,
            w.origin_anycast,
            addr::all_clients_group(prefix),
            addr::peripheral_group(prefix, prototypes::TMP36.raw()),
            addr::peripheral_group(prefix, prototypes::BMP180.raw()),
        ]);
        Fixture {
            world: w,
            things,
            nodes,
            dsts,
        }
    }

    /// Replugs every Thing whose peripheral lost its driver (a (8)
    /// removal, or an upload that replaced it), so each case starts from
    /// two served peripherals.
    fn restore(&mut self) {
        for (thing, device) in self.things {
            let served: Vec<u32> = self.world.thing(thing).served_peripherals().collect();
            if served != [device.raw()] {
                self.world.unplug(thing, 0);
                self.world.run_until_idle();
                self.world.plug(thing, 0, device);
                self.world.run_until_idle();
            }
        }
    }
}

thread_local! {
    /// One world per test thread, reused across cases: building and
    /// plugging it costs more than a case does.
    static FIXTURE: RefCell<Option<Fixture>> = const { RefCell::new(None) };
}

proptest! {
    /// Every actor survives any well-formed message any node may send:
    /// the world runs to idle, and each Thing still serves only
    /// peripherals plugged into its board.
    #[test]
    fn hostile_messages_never_panic_or_serve_unplugged_peripherals(
        messages in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>(), arb_body()), 1..8),
    ) {
        FIXTURE.with_borrow_mut(|fixture| {
            let f = fixture.get_or_insert_with(Fixture::new);
            f.restore();
            let start = f.world.now();
            for (i, (sender, dst, seq, body)) in messages.into_iter().enumerate() {
                let from = f.nodes[sender as usize % f.nodes.len()];
                let dgram = Datagram {
                    src: f.world.net.addr_of(from),
                    dst: f.dsts[dst as usize % f.dsts.len()],
                    src_port: MCAST_PORT,
                    dst_port: MCAST_PORT,
                    payload: Message { seq, body }.encode().into(),
                };
                let at = start + SimDuration::from_millis(i as u64);
                f.world.inject(at, from, dgram);
            }
            f.world.run_until_idle();
            for (thing, _) in f.things {
                let thing = f.world.thing(thing);
                let plugged: Vec<u32> = (0..thing.board().channel_count())
                    .filter_map(|c| thing.board().peripheral(ChannelId(c as u8)))
                    .map(|p| p.device_id.raw())
                    .collect();
                for served in thing.served_peripherals() {
                    prop_assert!(
                        plugged.contains(&served),
                        "{:?} serves {served:#x} with only {plugged:x?} plugged",
                        thing.node
                    );
                }
            }
            Ok(())
        })?;
    }
}
