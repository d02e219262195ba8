//! The µPnP Manager: the anycast-addressed driver repository (paper §5.3).
//!
//! "The µPnP Manager runs on a server-class device and manages the
//! deployment and remote configuration of device drivers on µPnP Things."
//! It answers (4) driver requests with (5) uploads, explores Things with
//! (6) driver discovery and prunes them with (8) removals.
//!
//! Since the distribution tier landed, the Manager is also the **origin**
//! behind the [`upnp_distro::EdgeCache`] nodes: it serves their (18)
//! chunk requests, like its own (5) uploads, from a lazily encoded copy
//! of each image and stamps every chunk with the repository version.
//! [`Manager::push_update`] includes (20) invalidations for the
//! registered caches in its returned datagrams, and removal flows build
//! them explicitly with [`Manager::invalidate_caches`], so origin updates
//! propagate to the tier coherently.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv6Addr;

use upnp_dsl::image::DriverImage;
use upnp_dsl::ImageDelta;
use upnp_hw::id::DeviceTypeId;
use upnp_net::addr::MCAST_PORT;
use upnp_net::calib;
use upnp_net::msg::{Message, MessageBody, SeqNo, DRIVER_CHUNK_PAYLOAD};
use upnp_net::{Action, Datagram, NodeId, Reply};
use upnp_sim::CpuCost;

use crate::catalog::Catalog;
use crate::registry::AddressSpace;

/// Bound on the (7)-advertisement inventory: beyond this many Things the
/// oldest record is dropped (FIFO). A churn storm therefore costs the
/// manager bounded memory; the live count is surfaced through
/// [`crate::fleet::ScenarioMetrics`] instead of being allowed to grow
/// silently.
pub const MAX_INVENTORY: usize = 4096;

/// Bound on retained (9) removal acknowledgements: a ring of the most
/// recent acks plus a total counter, instead of an ever-growing log.
pub const MAX_REMOVAL_ACKS: usize = 1024;

/// The µPnP Manager.
pub struct Manager {
    /// The manager's network node.
    pub node: NodeId,
    /// The manager's unicast address.
    pub address: Ipv6Addr,
    /// The anycast address Things send driver requests to.
    pub anycast: Ipv6Addr,
    /// The global address space registry this manager fronts.
    pub registry: AddressSpace,
    repository: HashMap<u32, DriverImage>,
    /// Lazily encoded wire images for uploads and chunks, keyed by
    /// device id (dropped on republish so both always carry the live
    /// version).
    encoded: HashMap<u32, Vec<u8>>,
    /// Encoded bytes of each driver's previous published version, kept
    /// so a republish can ship caches an [`ImageDelta`] patch inside the
    /// (20) invalidation instead of forcing a full re-fetch.
    previous: HashMap<u32, (u16, Vec<u8>)>,
    seq: SeqNo,
    /// Thing address → advertised driver inventory (from (7) messages),
    /// bounded by [`MAX_INVENTORY`] with FIFO eviction. Mutate only
    /// through the message path so the eviction order stays consistent.
    inventory: HashMap<Ipv6Addr, Vec<(u32, u16)>>,
    /// Insertion order of `inventory` keys (the FIFO eviction queue).
    inventory_order: VecDeque<Ipv6Addr>,
    /// The most recent (9) removal acknowledgements, bounded by
    /// [`MAX_REMOVAL_ACKS`].
    pub removal_acks: VecDeque<(Ipv6Addr, u32, bool)>,
    /// Total (9) acks ever received (the ring above only keeps the tail).
    pub removal_acks_total: u64,
    /// Edge-cache addresses registered for (20) invalidation fan-out.
    caches: Vec<Ipv6Addr>,
    /// Last chunked fetch-session nonce seen per `(requester,
    /// peripheral)`. A (18) chunk-0 request counts towards
    /// [`Manager::uploads_served`] only when its session differs from
    /// the last one recorded, so retransmitted requests (lost reply,
    /// mid-fetch version restart) never double-count while a genuinely
    /// new fetch — even after the cache abandoned its predecessor —
    /// always does. Bounded by caches × device types.
    chunk_sessions: HashMap<(Ipv6Addr, u32), SeqNo>,
    /// Driver uploads served (diagnostic): (5) uploads sent directly,
    /// plus one per chunked fetch session an edge cache starts.
    pub uploads_served: u64,
}

impl Manager {
    /// Creates a manager whose repository is populated by compiling every
    /// driver in `catalog`, registering each in the address space.
    pub fn new(node: NodeId, address: Ipv6Addr, anycast: Ipv6Addr, catalog: &Catalog) -> Self {
        let mut repository = HashMap::new();
        let mut registry = AddressSpace::new();
        for entry in catalog.entries() {
            let image = upnp_dsl::compile_source(entry.driver_source, entry.device_id.raw())
                .expect("catalog drivers compile");
            repository.insert(entry.device_id.raw(), image);
            registry
                .allocate(
                    entry.device_id,
                    "prototype",
                    "iMinds-DistriNet",
                    "upnp@example.org",
                    "https://www.micropnp.com",
                )
                .expect("catalog ids allocate");
            registry
                .record_driver(entry.device_id, 1)
                .expect("just allocated");
        }
        Manager {
            node,
            address,
            anycast,
            registry,
            repository,
            encoded: HashMap::new(),
            previous: HashMap::new(),
            seq: 0,
            inventory: HashMap::new(),
            inventory_order: VecDeque::new(),
            removal_acks: VecDeque::new(),
            removal_acks_total: 0,
            caches: Vec::new(),
            chunk_sessions: HashMap::new(),
            uploads_served: 0,
        }
    }

    fn next_seq(&mut self) -> SeqNo {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// The driver image for a peripheral, if the repository has one.
    pub fn driver_for(&self, device_id: DeviceTypeId) -> Option<&DriverImage> {
        self.repository.get(&device_id.raw())
    }

    /// Adds (or replaces) a driver image in the repository, after static
    /// validation — a third-party upload must never be able to wedge the
    /// Things it gets deployed to (§9's driver-validation future work).
    ///
    /// # Errors
    ///
    /// Returns the verifier's finding for rejected images.
    pub fn publish_driver(&mut self, image: DriverImage) -> Result<(), upnp_dsl::VerifyError> {
        upnp_dsl::verify(&image)?;
        let id = DeviceTypeId::new(image.device_id);
        if self.registry.get(id).is_none() {
            let _ = self.registry.allocate(
                id,
                "third-party",
                "unknown",
                "unknown@example.org",
                "https://example.org",
            );
        }
        let version = self
            .registry
            .get(id)
            .map(|e| e.driver_versions.len() as u16 + 1)
            .unwrap_or(1);
        // Stash the outgoing version's wire bytes: the next (20)
        // invalidation offers caches a delta patch computed against it.
        if let Some(old) = self.repository.get(&image.device_id) {
            let old_version = self.driver_version(id);
            let old_bytes = self
                .encoded
                .remove(&image.device_id)
                .unwrap_or_else(|| old.to_bytes());
            self.previous
                .insert(image.device_id, (old_version, old_bytes));
        }
        let _ = self.registry.record_driver(id, version);
        self.encoded.remove(&image.device_id);
        self.repository.insert(image.device_id, image);
        Ok(())
    }

    /// The wire bytes of a published driver, encoded on first use and
    /// reused until the driver is republished.
    fn encoded(&mut self, peripheral: u32) -> Option<&Vec<u8>> {
        let image = self.repository.get(&peripheral)?;
        Some(
            self.encoded
                .entry(peripheral)
                .or_insert_with(|| image.to_bytes()),
        )
    }

    /// The repository's current version of a driver (latest recorded in
    /// the registry; 1 when nothing is recorded).
    pub fn driver_version(&self, device_id: DeviceTypeId) -> u16 {
        self.registry
            .get(device_id)
            .and_then(|e| e.driver_versions.last().copied())
            .unwrap_or(1)
    }

    /// The advertised driver inventory (bounded; see [`MAX_INVENTORY`]).
    pub fn inventory(&self) -> &HashMap<Ipv6Addr, Vec<(u32, u16)>> {
        &self.inventory
    }

    /// Records a (7) advertisement, evicting the oldest Thing's record
    /// once [`MAX_INVENTORY`] distinct Things are tracked.
    fn record_inventory(&mut self, thing: Ipv6Addr, drivers: Vec<(u32, u16)>) {
        if self.inventory.insert(thing, drivers).is_none() {
            self.inventory_order.push_back(thing);
            if self.inventory.len() > MAX_INVENTORY {
                // The order queue only ever holds live keys (re-adverts
                // replace in place), so the front is the oldest record.
                if let Some(oldest) = self.inventory_order.pop_front() {
                    self.inventory.remove(&oldest);
                }
            }
        }
    }

    /// Registers an edge cache for (20) invalidation fan-out (the world
    /// does this when the cache node is added).
    pub fn register_cache(&mut self, cache: Ipv6Addr) {
        if !self.caches.contains(&cache) {
            self.caches.push(cache);
        }
    }

    /// Builds (20) invalidations telling every registered edge cache the
    /// repository's current version of `device_id` — send these alongside
    /// the (8) removals / (5) update pushes of the same flow so the tier
    /// stays coherent with the origin.
    ///
    /// When the previous published version's bytes are known and the
    /// chunk-level [`ImageDelta`] against them encodes strictly smaller
    /// than the full image, the invalidation carries the delta: a cache
    /// holding the predecessor patches in place (checksum-guarded both
    /// sides) instead of evicting and re-fetching every chunk. Otherwise
    /// the invalidation is a plain eviction notice, exactly as before.
    pub fn invalidate_caches(&mut self, device_id: DeviceTypeId) -> Vec<Datagram> {
        let version = self.driver_version(device_id);
        let raw = device_id.raw();
        let delta: Option<Vec<u8>> = {
            let prev = self.previous.get(&raw);
            let repo = self.repository.get(&raw);
            if let (Some((_, old_bytes)), Some(image)) = (prev, repo) {
                let new_bytes = self
                    .encoded
                    .get(&raw)
                    .cloned()
                    .unwrap_or_else(|| image.to_bytes());
                let patch = ImageDelta::diff(old_bytes, &new_bytes);
                (patch.encoded_len() < new_bytes.len()).then(|| patch.to_bytes())
            } else {
                None
            }
        };
        let targets = self.caches.clone();
        targets
            .into_iter()
            .map(|cache| {
                let seq = self.next_seq();
                self.datagram(
                    cache,
                    Message {
                        seq,
                        body: MessageBody::DriverInvalidate {
                            peripheral: device_id.raw(),
                            version,
                            delta: delta.clone(),
                        },
                    },
                )
            })
            .collect()
    }

    /// Handles a datagram. The reply's two legs are `process` (receive +
    /// repository lookup + upload setup — the tail of Table 4's *request
    /// driver* row) and `send_path` (the UDP/6LoWPAN send path — the head
    /// of the *install driver* row).
    pub fn on_datagram(&mut self, dgram: &Datagram) -> Reply {
        let Some(msg) = Message::decode(&dgram.payload) else {
            return Reply::default();
        };
        match msg.body {
            MessageBody::DriverRequest { peripheral } => {
                let mut cost = CpuCost::ZERO;
                cost += calib::UDP_RECV_PATH;
                cost += calib::REPO_LOOKUP;
                let Some(image) = self.encoded(peripheral).cloned() else {
                    return Reply::with_cost(cost);
                };
                cost += calib::UPLOAD_SETUP;
                self.uploads_served += 1;
                let reply = Message {
                    seq: msg.seq,
                    body: MessageBody::DriverUpload { peripheral, image },
                };
                self.replying(cost, dgram.src, reply)
            }
            MessageBody::DriverChunkRequest {
                peripheral,
                session,
                chunk,
            } => {
                // Origin leg of the distribution tier: serve one
                // DRIVER_CHUNK_PAYLOAD-sized slice of the encoded image,
                // stamped with the repository version. Chunk 0 marks the
                // start of one fetch session — the origin-side unit that
                // replaces a (5) upload when a cache fronts the request.
                let mut cost = CpuCost::ZERO;
                cost += calib::UDP_RECV_PATH;
                cost += calib::REPO_LOOKUP;
                let Some(bytes) = self.encoded(peripheral) else {
                    return Reply::with_cost(cost);
                };
                let total = bytes.len().div_ceil(DRIVER_CHUNK_PAYLOAD).max(1) as u16;
                if chunk >= total {
                    return Reply::with_cost(cost);
                }
                let start = chunk as usize * DRIVER_CHUNK_PAYLOAD;
                let end = (start + DRIVER_CHUNK_PAYLOAD).min(bytes.len());
                let data = bytes[start..end].to_vec();
                if chunk == 0 {
                    cost += calib::UPLOAD_SETUP;
                    // One count per fetch session: retransmitted chunk-0
                    // requests carry the same nonce and re-enter the
                    // recorded session; a new fetch (even after an
                    // abandoned predecessor) carries a fresh one.
                    if self.chunk_sessions.insert((dgram.src, peripheral), session) != Some(session)
                    {
                        self.uploads_served += 1;
                    }
                }
                let version = self.driver_version(DeviceTypeId::new(peripheral));
                let reply = Message {
                    seq: msg.seq,
                    body: MessageBody::DriverChunk {
                        peripheral,
                        version,
                        chunk,
                        total,
                        data,
                    },
                };
                self.replying(cost, dgram.src, reply)
            }
            MessageBody::DriverAdvertisement { drivers } => {
                self.record_inventory(dgram.src, drivers);
                Reply::with_cost(calib::UDP_RECV_PATH)
            }
            MessageBody::DriverRemovalAck {
                peripheral,
                removed,
            } => {
                self.removal_acks
                    .push_back((dgram.src, peripheral, removed));
                if self.removal_acks.len() > MAX_REMOVAL_ACKS {
                    self.removal_acks.pop_front();
                }
                self.removal_acks_total += 1;
                Reply::with_cost(calib::UDP_RECV_PATH)
            }
            _ => Reply::default(),
        }
    }

    /// The reply that sends `msg` to `dst` after processing `cost`.
    fn replying(&self, cost: CpuCost, dst: Ipv6Addr, msg: Message) -> Reply {
        let mut reply = Reply::with_cost(cost).sending();
        reply.actions.push(Action::Send(self.datagram(dst, msg)));
        reply
    }

    /// Builds (5) driver-upload pushes for every inventoried Thing that
    /// runs a driver for `device_id`, plus (20) invalidations for every
    /// registered edge cache — the over-the-air update flow (§3.3:
    /// drivers "may be updated at any time"), kept coherent with the
    /// distribution tier. Call after [`Manager::publish_driver`] with
    /// the new image.
    pub fn push_update(&mut self, device_id: DeviceTypeId) -> Vec<Datagram> {
        let Some(image) = self.encoded(device_id.raw()).cloned() else {
            return Vec::new();
        };
        let targets: Vec<Ipv6Addr> = self
            .inventory
            .iter()
            .filter(|(_, drivers)| drivers.iter().any(|(p, _)| *p == device_id.raw()))
            .map(|(addr, _)| *addr)
            .collect();
        let mut out: Vec<Datagram> = targets
            .into_iter()
            .map(|thing| {
                let seq = self.next_seq();
                self.uploads_served += 1;
                self.datagram(
                    thing,
                    Message {
                        seq,
                        body: MessageBody::DriverUpload {
                            peripheral: device_id.raw(),
                            image: image.clone(),
                        },
                    },
                )
            })
            .collect();
        out.extend(self.invalidate_caches(device_id));
        out
    }

    /// Builds a (6) driver discovery query for a Thing.
    pub fn query_drivers(&mut self, thing: Ipv6Addr) -> Datagram {
        let seq = self.next_seq();
        self.datagram(
            thing,
            Message {
                seq,
                body: MessageBody::DriverDiscovery,
            },
        )
    }

    /// Builds an (8) driver removal request for a Thing.
    pub fn remove_driver(&mut self, thing: Ipv6Addr, device_id: DeviceTypeId) -> Datagram {
        let seq = self.next_seq();
        self.datagram(
            thing,
            Message {
                seq,
                body: MessageBody::DriverRemoval {
                    peripheral: device_id.raw(),
                },
            },
        )
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
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("node", &self.node)
            .field("drivers", &self.repository.len())
            .field("uploads_served", &self.uploads_served)
            .finish_non_exhaustive()
    }
}
