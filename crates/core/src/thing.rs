//! The µPnP Thing: an IoT device with the control board, the execution
//! environment and the network protocol (paper §5, Figure 8).
//!
//! The Thing's life is event-driven:
//!
//! 1. the board's interrupt fires on plug/unplug → identification scan;
//! 2. a newly identified peripheral either has its driver locally or a
//!    (4) driver request goes to the manager's anycast address;
//! 3. on (5) driver upload: install, fire `init`, generate the
//!    peripheral's multicast address, join the group and send a (1)
//!    unsolicited advertisement to all clients;
//! 4. (2) discovery, (10) read, (12) stream, (16) write and the driver
//!    management messages are answered per §5.2–5.3.
//!
//! Every handler answers its stimulus with one [`Reply`] whose actions
//! the world applies at the Thing's runtime clock.

use std::net::Ipv6Addr;
use std::sync::Arc;

use upnp_dsl::image::DriverImage;
use upnp_hw::board::ControlBoard;
use upnp_hw::channels::ChannelId;
use upnp_hw::id::DeviceTypeId;
use upnp_net::addr;
use upnp_net::calib;
use upnp_net::msg::{AdvertisedPeripheral, Message, MessageBody, SeqNo, Value};
use upnp_net::tlv::{Tlv, TlvList, TlvType};
use upnp_net::{Action, Datagram, NodeId, Reply};
use upnp_sim::{SimDuration, SimTime, VecMap};
use upnp_vm::controller::{PeripheralChange, PeripheralController};
use upnp_vm::runtime::{OpToken, PendingKind, Runtime};
use upnp_vm::vm::ReturnValue;

use crate::catalog::Catalog;

/// Whether a driver's scalar return is float- or integer-valued (carried
/// here rather than in the image format; a production registry would ship
/// it as driver metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Scalar float (e.g. degrees Celsius).
    Float,
    /// Scalar integer (e.g. pascals).
    Int,
}

/// Instrumentation of one plug-to-advertised pipeline (regenerates the
/// paper's Table 4 and the §8 "488.53 ms" claim).
#[derive(Debug, Clone, Default)]
pub struct PlugTimeline {
    /// Identification scan duration.
    pub scan: Option<SimDuration>,
    /// Driver request initiated (thing clock).
    pub request_sent: Option<SimTime>,
    /// Manager finished preparing the upload (world clock).
    pub upload_sent: Option<SimTime>,
    /// Upload delivered to the Thing.
    pub upload_received: Option<SimTime>,
    /// Driver installed and `init` completed.
    pub installed: Option<SimTime>,
    /// Multicast address generation duration.
    pub generate_addr: Option<SimDuration>,
    /// Group join duration.
    pub join_group: Option<SimDuration>,
    /// Advertisement build+send duration (up to last radio bit).
    pub advertise: Option<SimDuration>,
    /// Scan start (thing clock).
    pub scan_started: Option<SimTime>,
    /// Advertisement completed (thing clock).
    pub finished: Option<SimTime>,
    /// Deterministic trace id of the most recent plug of this
    /// peripheral (stamped by the world even when tracing is disabled,
    /// so chaos recovery attribution can name the serving trace).
    pub trace_id: u64,
}

impl PlugTimeline {
    /// `request driver` row: request sent → upload ready at the manager.
    pub fn request_driver(&self) -> Option<SimDuration> {
        Some(self.upload_sent?.saturating_since(self.request_sent?))
    }

    /// `install driver` row: upload ready → driver installed and started.
    pub fn install_driver(&self) -> Option<SimDuration> {
        Some(self.installed?.saturating_since(self.upload_sent?))
    }

    /// End-to-end plug-to-advertised time (the paper's §8 total).
    pub fn total(&self) -> Option<SimDuration> {
        Some(self.finished?.saturating_since(self.scan_started?))
    }
}

#[derive(Debug)]
struct StreamState {
    group: Ipv6Addr,
    remaining: u32,
}

/// What a revive found in the torn flash staging area (see
/// [`Thing::audit_flash`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashRecovery {
    /// Half-written images rejected on revive — stale install
    /// generation, or failed `verify()`.
    pub rejected: u64,
    /// Driver requests reissued end-to-end for peripherals still
    /// waiting (the refetch never stitches across the crash).
    pub refetches: u64,
}

/// The µPnP Thing.
pub struct Thing {
    /// This Thing's network node.
    pub node: NodeId,
    /// This Thing's unicast address.
    pub address: Ipv6Addr,
    /// The execution environment (buses, VM, router, drivers).
    pub runtime: Runtime,
    controller: PeripheralController,
    catalog: Catalog,
    seq: SeqNo,
    /// Locally cached driver images by device id, shared with the
    /// runtime's instance of each installed driver.
    driver_cache: VecMap<u32, Arc<DriverImage>>,
    /// Peripherals waiting for a driver upload: device id → channels
    /// awaiting it, in plug order (one device type may be plugged on
    /// several channels at once).
    awaiting_driver: VecMap<u32, Vec<ChannelId>>,
    /// In-flight remote operations: token → (reply seq, requester,
    /// peripheral, stream?).
    pending_ops: VecMap<OpToken, (SeqNo, Ipv6Addr, u32, bool)>,
    /// Active streams by peripheral id.
    streams: VecMap<u32, StreamState>,
    /// Plug pipeline instrumentation by device id.
    pub timelines: VecMap<u32, PlugTimeline>,
    /// Ambient temperature used for identification scans.
    pub scan_temp_c: f64,
    /// Samples per stream before `Closed` (configurable).
    pub stream_samples: u32,
    /// Stream sampling period ([`crate::world::WorldConfig`]'s).
    pub(crate) stream_period: SimDuration,
    /// Physical location tag; discoveries carrying a `Location` TLV are
    /// only answered when it matches (§9's location-aware discovery).
    pub location: Option<String>,
    /// Install generation — bumped on every MCU crash, the same
    /// generation-stamp discipline the edge cache uses to fence stale
    /// chunk sessions across its own crashes. An image staged under an
    /// older generation can never be accepted after a crash, and a
    /// stream tick armed under one is stale.
    install_gen: u64,
    /// Driver bytes that were mid-flash when the MCU died: `(install
    /// generation at staging time, peripheral, the torn prefix)`.
    torn_flash: Vec<(u64, u32, Vec<u8>)>,
}

impl Thing {
    /// Creates a Thing on `node` with a sampled control board and its
    /// execution environment (typically stamped from the world's
    /// [`RuntimeTemplate`](upnp_vm::runtime::RuntimeTemplate)).
    pub fn new(
        node: NodeId,
        address: Ipv6Addr,
        board: ControlBoard,
        catalog: Catalog,
        runtime: Runtime,
    ) -> Self {
        Thing {
            node,
            address,
            runtime,
            controller: PeripheralController::new(board),
            catalog,
            seq: 0,
            driver_cache: VecMap::new(),
            awaiting_driver: VecMap::new(),
            pending_ops: VecMap::new(),
            streams: VecMap::new(),
            timelines: VecMap::new(),
            scan_temp_c: 25.0,
            stream_samples: 5,
            stream_period: SimDuration::from_millis(500),
            location: None,
            install_gen: 0,
            torn_flash: Vec::new(),
        }
    }

    fn next_seq(&mut self) -> SeqNo {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// The deployment's 48-bit prefix, the one the Thing's own unicast
    /// address carries.
    fn prefix(&self) -> u64 {
        addr::unicast_prefix(self.address)
    }

    /// The control board, to plug and unplug peripherals. Only the world
    /// does, so every board change raises an interrupt it has queued.
    pub(crate) fn board_mut(&mut self) -> &mut ControlBoard {
        self.controller.board_mut()
    }

    /// The control board, immutable.
    pub fn board(&self) -> &ControlBoard {
        self.controller.board()
    }

    /// True if the board interrupt is pending.
    pub fn interrupt_pending(&self) -> bool {
        self.controller.interrupt_pending()
    }

    /// Device ids of currently driver-served peripherals, in slot order.
    /// Iterating allocates nothing, so fleet-wide scans can ask `any` or
    /// `count` of every Thing.
    pub fn served_peripherals(&self) -> impl Iterator<Item = u32> + '_ {
        self.runtime.manager.iter().map(|(_, d)| d.device_id)
    }

    /// Services the board interrupt at world time `now`: runs the scan and
    /// reacts to every change.
    pub fn service_interrupt(&mut self, now: SimTime, mgr_anycast: Ipv6Addr) -> Reply {
        if self.runtime.now() < now {
            self.runtime.advance_to(now);
        }
        let scan_start = self.runtime.now();
        let (outcome, changes) = self
            .controller
            .service_interrupt(scan_start, self.scan_temp_c);
        self.runtime.advance_to(outcome.finished);

        let mut out = Vec::new();
        for change in changes {
            match change {
                PeripheralChange::Connected { channel, device_id } => {
                    let tl = self.timelines.get_or_insert_default(device_id.raw());
                    tl.scan_started = Some(scan_start);
                    tl.scan = Some(outcome.duration());
                    if let Some(image) = self.driver_cache.get(&device_id.raw()).cloned() {
                        self.activate_driver(channel, device_id, image, &mut out);
                    } else {
                        self.request_driver(device_id, mgr_anycast, &mut out);
                        self.awaiting_driver
                            .get_or_insert_default(device_id.raw())
                            .push(channel);
                    }
                }
                PeripheralChange::Disconnected { channel, device_id } => {
                    self.deactivate_driver(channel, device_id, &mut out);
                }
                PeripheralChange::IdentificationFailed { .. } => {
                    // The MCU will retry on the next interrupt; nothing to
                    // send.
                }
            }
        }
        Reply::from(out)
    }

    fn request_driver(&mut self, device_id: DeviceTypeId, mgr: Ipv6Addr, out: &mut Vec<Action>) {
        // The request-driver leg starts when the Thing decides to ask, so
        // its own send path counts into the measured row.
        if let Some(tl) = self.timelines.get_mut(&device_id.raw()) {
            tl.request_sent = Some(self.runtime.now());
        }
        self.runtime.charge(calib::UDP_SEND_PATH);
        let seq = self.next_seq();
        out.push(Action::Send(self.datagram(
            mgr,
            Message {
                seq,
                body: MessageBody::DriverRequest {
                    peripheral: device_id.raw(),
                },
            },
        )));
    }

    /// Installs `image` for the peripheral on `channel`, joins its group
    /// and advertises it.
    fn activate_driver(
        &mut self,
        channel: ChannelId,
        device_id: DeviceTypeId,
        image: Arc<DriverImage>,
        out: &mut Vec<Action>,
    ) {
        // Install cost scales with the image size (flash write).
        let size = image.size_bytes();
        self.runtime
            .charge(calib::INSTALL_PER_BYTE.times(size as u64));
        let Ok(slot) = self.runtime.install_driver(image, channel.0) else {
            return;
        };
        self.catalog.attach(&mut self.runtime, slot, device_id);
        self.runtime.run_until_idle(); // the driver's init handler
        if let Some(tl) = self.timelines.get_mut(&device_id.raw()) {
            tl.installed = Some(self.runtime.now());
        }

        // Generate the peripheral's multicast address (§5.1).
        let t0 = self.runtime.now();
        self.runtime.charge(calib::GEN_MCAST_ADDR);
        let group = addr::peripheral_group(self.prefix(), device_id.raw());
        let t1 = self.runtime.now();

        // Join the group.
        self.runtime.charge(calib::JOIN_GROUP);
        out.push(Action::Join(group));
        let t2 = self.runtime.now();

        // Build and send the unsolicited advertisement.
        self.runtime.charge(calib::BUILD_ADVERTISEMENT);
        self.runtime.charge(calib::UDP_SEND_PATH);
        let seq = self.next_seq();
        out.push(Action::Send(self.datagram(
            addr::all_clients_group(self.prefix()),
            Message {
                seq,
                body: MessageBody::UnsolicitedAdvertisement(vec![
                    self.advertised(device_id, channel),
                ]),
            },
        )));
        let t3 = self.runtime.now();

        if let Some(tl) = self.timelines.get_mut(&device_id.raw()) {
            tl.generate_addr = Some(t1.since(t0));
            tl.join_group = Some(t2.since(t1));
            tl.advertise = Some(t3.since(t2));
            tl.finished = Some(t3);
        }
    }

    fn deactivate_driver(
        &mut self,
        channel: ChannelId,
        device_id: DeviceTypeId,
        out: &mut Vec<Action>,
    ) {
        // Cancel the in-flight driver request for *this* channel: an
        // upload racing this unplug must not activate a driver for a
        // peripheral that is no longer present (it is cached for the
        // next plug instead). Other channels carrying the same device
        // type keep their pending requests.
        if let Some(waiting) = self.awaiting_driver.get_mut(&device_id.raw()) {
            waiting.retain(|&c| c != channel);
            if waiting.is_empty() {
                self.awaiting_driver.remove(&device_id.raw());
            }
        }
        if let Some(slot) = self.runtime.manager.slot_for_channel(channel.0) {
            self.runtime.remove_driver(slot);
            self.catalog.detach(&mut self.runtime, slot, device_id);
        }
        let group = addr::peripheral_group(self.prefix(), device_id.raw());
        out.push(Action::Leave(group));
        // A stream ends with its peripheral; its pending tick finds no
        // stream and does not re-arm.
        if let Some(stream) = self.streams.remove(&device_id.raw()) {
            let seq = self.next_seq();
            out.push(Action::Send(self.datagram(
                stream.group,
                Message {
                    seq,
                    body: MessageBody::Closed {
                        peripheral: device_id.raw(),
                    },
                },
            )));
        }
        // Unplug also triggers an unsolicited advertisement (§5.2.1:
        // "whenever a new peripheral is connected or disconnected").
        self.runtime.charge(calib::UDP_SEND_PATH);
        let seq = self.next_seq();
        out.push(Action::Send(self.datagram(
            addr::all_clients_group(self.prefix()),
            Message {
                seq,
                body: MessageBody::UnsolicitedAdvertisement(self.current_advertisement()),
            },
        )));
    }

    fn advertised(&self, device_id: DeviceTypeId, channel: ChannelId) -> AdvertisedPeripheral {
        let described = self.catalog.get(device_id).into_iter().flat_map(|entry| {
            [
                Tlv::text(TlvType::Name, entry.name),
                Tlv::text(TlvType::Unit, entry.unit),
            ]
        });
        let located = self
            .location
            .as_deref()
            .map(|location| Tlv::text(TlvType::Location, location));
        AdvertisedPeripheral {
            peripheral: device_id.raw(),
            tlvs: TlvList::new(
                std::iter::once(Tlv::new(TlvType::Channel, std::slice::from_ref(&channel.0)))
                    .chain(described)
                    .chain(located),
            ),
        }
    }

    fn current_advertisement(&self) -> Vec<AdvertisedPeripheral> {
        self.runtime
            .manager
            .iter()
            .map(|(_, d)| self.advertised(DeviceTypeId::new(d.device_id), ChannelId(d.channel)))
            .collect()
    }

    fn datagram(&self, dst: Ipv6Addr, msg: Message) -> Datagram {
        Datagram {
            src: self.address,
            dst,
            src_port: addr::MCAST_PORT,
            dst_port: addr::MCAST_PORT,
            payload: msg.encode().into(),
        }
    }

    /// The stream multicast group for one of this Thing's peripherals:
    /// distinct from the discovery group (the pad field carries the
    /// stream flag) and *per Thing* (the group id mixes the node id), so
    /// subscribers only receive samples of streams they asked this Thing
    /// for — not the cross-talk of every same-typed peripheral in the
    /// deployment. Per-Thing groups also keep stream traffic inside one
    /// shard of a partitioned world by construction.
    fn stream_group(&self, peripheral: u32) -> Ipv6Addr {
        // 40-bit group id: a full-avalanche mix of (peripheral, node)
        // fills the 32-bit group field plus pad octet 10, so distinct
        // (Thing, type) pairs collide with probability ~2^-40 per pair
        // rather than the birthday-prone 2^-32.
        let h = upnp_sim::splitmix64(((peripheral as u64) << 32) | self.node.0 as u64);
        let base = addr::peripheral_group(self.prefix(), h as u32);
        let mut o = base.octets();
        o[10] = (h >> 32) as u8;
        o[11] = addr::STREAM_FLAG; // stream flag in the zero pad
        Ipv6Addr::from(o)
    }

    /// Handles a datagram delivered at `at` (world clock).
    pub fn on_datagram(&mut self, at: SimTime, dgram: &Datagram) -> Reply {
        if self.runtime.now() < at {
            self.runtime.advance_to(at);
        }
        let Some(msg) = Message::decode(&dgram.payload) else {
            return Reply::default();
        };
        self.runtime.charge(calib::UDP_RECV_PATH);
        let mut out = Vec::new();
        match msg.body {
            MessageBody::DriverUpload { peripheral, image } => {
                if let Some(tl) = self.timelines.get_mut(&peripheral) {
                    tl.upload_received = Some(at);
                }
                let Ok(parsed) = DriverImage::from_bytes(&image) else {
                    return Reply::default();
                };
                // Defence in depth: the Thing re-verifies what the
                // repository claims to have verified, and takes an image
                // only as the driver of the peripheral it names.
                if parsed.device_id != peripheral || upnp_dsl::verify(&parsed).is_err() {
                    return Reply::default();
                }
                let parsed = Arc::new(parsed);
                self.driver_cache.insert(peripheral, Arc::clone(&parsed));
                match self.awaiting_driver.remove(&peripheral) {
                    Some(channels) => {
                        // One upload serves every channel still waiting
                        // for this device type (usually exactly one).
                        for channel in channels {
                            self.activate_driver(
                                channel,
                                DeviceTypeId::new(peripheral),
                                Arc::clone(&parsed),
                                &mut out,
                            );
                        }
                    }
                    None => {
                        // An unsolicited upload for a peripheral we are
                        // already serving is an over-the-air *update*:
                        // destroy the running driver and activate the new
                        // version in place (§3.3: "the device drivers
                        // associated with an address may be updated at any
                        // time"). Otherwise it is pre-staged for later.
                        if let Some(slot) = self.runtime.manager.slot_for_device(peripheral) {
                            let channel = self
                                .runtime
                                .manager
                                .get(slot)
                                .map(|d| ChannelId(d.channel))
                                .expect("slot exists");
                            self.runtime.remove_driver(slot);
                            let device_id = DeviceTypeId::new(peripheral);
                            self.activate_driver(channel, device_id, parsed, &mut out);
                        }
                    }
                }
            }
            MessageBody::Discovery(tlvs) => {
                // A discovery reaches us through a peripheral group we
                // joined. Location-aware filtering (§9): a discovery
                // carrying a Location tuple is only answered by Things at
                // that location.
                let wanted_location = tlvs
                    .iter()
                    .find(|t| t.ty == TlvType::Location)
                    .and_then(|t| t.as_text());
                if let Some(wanted) = wanted_location {
                    if self.location.as_deref() != Some(wanted) {
                        return Reply::default();
                    }
                }
                self.runtime.charge(calib::UDP_SEND_PATH);
                out.push(Action::Send(self.datagram(
                    dgram.src,
                    Message {
                        seq: msg.seq,
                        body: MessageBody::SolicitedAdvertisement(self.current_advertisement()),
                    },
                )));
            }
            MessageBody::Read { peripheral } => {
                let kind = PendingKind::Read;
                match self.start_op(msg.seq, dgram.src, peripheral, kind, Vec::new(), false) {
                    Some(answer) => out.push(answer),
                    None => self.flush_completions(&mut out),
                }
            }
            MessageBody::Write { peripheral, value } => {
                let args = match value {
                    Value::I32(v) => vec![upnp_vm::value::Cell::from_i32(v)],
                    Value::F32(v) => vec![upnp_vm::value::Cell::from_f32(v)],
                    Value::Bytes(b) => b
                        .iter()
                        .map(|&x| upnp_vm::value::Cell::from_i32(x as i32))
                        .collect(),
                    Value::None => Vec::new(),
                };
                let kind = PendingKind::Write;
                match self.start_op(msg.seq, dgram.src, peripheral, kind, args, false) {
                    Some(answer) => out.push(answer),
                    None => self.flush_completions(&mut out),
                }
            }
            MessageBody::Stream { peripheral } => {
                let Some(_) = self.runtime.manager.slot_for_device(peripheral) else {
                    return Reply::default();
                };
                let group = self.stream_group(peripheral);
                self.streams.insert(
                    peripheral,
                    StreamState {
                        group,
                        remaining: self.stream_samples,
                    },
                );
                self.runtime.charge(calib::UDP_SEND_PATH);
                out.push(Action::Send(self.datagram(
                    dgram.src,
                    Message {
                        seq: msg.seq,
                        body: MessageBody::Established {
                            peripheral,
                            group: group.octets(),
                        },
                    },
                )));
                // The first sample is due one period after the reply.
                out.push(Action::Timer {
                    key: peripheral,
                    gen: self.install_gen,
                    after: self.stream_period,
                });
            }
            MessageBody::DriverDiscovery => {
                self.runtime.charge(calib::UDP_SEND_PATH);
                let drivers = self
                    .runtime
                    .manager
                    .iter()
                    .map(|(_, d)| (d.device_id, 1u16))
                    .collect();
                out.push(Action::Send(self.datagram(
                    dgram.src,
                    Message {
                        seq: msg.seq,
                        body: MessageBody::DriverAdvertisement { drivers },
                    },
                )));
            }
            MessageBody::DriverRemoval { peripheral } => {
                let removed = match self.runtime.manager.slot_for_device(peripheral) {
                    Some(slot) => {
                        self.runtime.remove_driver(slot);
                        // Peripheral models are keyed by the driver slot
                        // that owns them, as `activate_driver` attached it.
                        self.catalog
                            .detach(&mut self.runtime, slot, DeviceTypeId::new(peripheral));
                        self.driver_cache.remove(&peripheral);
                        true
                    }
                    None => false,
                };
                self.runtime.charge(calib::UDP_SEND_PATH);
                out.push(Action::Send(self.datagram(
                    dgram.src,
                    Message {
                        seq: msg.seq,
                        body: MessageBody::DriverRemovalAck {
                            peripheral,
                            removed,
                        },
                    },
                )));
                if removed {
                    out.push(Action::Leave(addr::peripheral_group(
                        self.prefix(),
                        peripheral,
                    )));
                }
            }
            _ => {}
        }
        Reply::from(out)
    }

    /// Starts a read/write against the driver of `peripheral`. Without
    /// a driver it returns the answer at once, an empty value or a failed
    /// ack; otherwise the reply leaves with the next
    /// [`Thing::flush_completions`].
    fn start_op(
        &mut self,
        seq: SeqNo,
        requester: Ipv6Addr,
        peripheral: u32,
        kind: PendingKind,
        args: Vec<upnp_vm::value::Cell>,
        stream: bool,
    ) -> Option<Action> {
        let Some(slot) = self.runtime.manager.slot_for_device(peripheral) else {
            self.runtime.charge(calib::UDP_SEND_PATH);
            let body = match kind {
                PendingKind::Write => MessageBody::WriteAck {
                    peripheral,
                    ok: false,
                },
                _ => MessageBody::Data {
                    peripheral,
                    value: Value::None,
                },
            };
            return Some(Action::Send(
                self.datagram(requester, Message { seq, body }),
            ));
        };
        let token = self.runtime.request(slot, kind, args);
        self.pending_ops
            .insert(token, (seq, requester, peripheral, stream));
        None
    }

    /// Runs the runtime until idle and converts completed operations into
    /// protocol replies.
    fn flush_completions(&mut self, out: &mut Vec<Action>) {
        for op in self.runtime.run_until_idle() {
            let Some((seq, requester, peripheral, stream)) = self.pending_ops.remove(&op.token)
            else {
                continue;
            };
            let value = convert_value(op.value.as_ref(), self.value_kind(peripheral));
            self.runtime.charge(calib::UDP_SEND_PATH);
            let body = match op.kind {
                PendingKind::Write => MessageBody::WriteAck {
                    peripheral,
                    ok: !matches!(value, Value::None),
                },
                _ if stream => MessageBody::StreamData { peripheral, value },
                _ => MessageBody::Data { peripheral, value },
            };
            let dst = if stream {
                self.streams
                    .get(&peripheral)
                    .map(|s| s.group)
                    .unwrap_or(requester)
            } else {
                requester
            };
            out.push(Action::Send(self.datagram(dst, Message { seq, body })));
        }
    }

    /// A stream timer for `peripheral` at `at` (world clock): sample the
    /// driver and multicast the value, or close the stream after the
    /// configured sample count. A live stream re-arms the timer for one
    /// period after `at`; a tick armed before a crash is stale, because
    /// the revive re-armed the stream.
    pub fn on_timer(&mut self, at: SimTime, peripheral: u32, gen: u64) -> Reply {
        if gen != self.install_gen {
            return Reply::default();
        }
        if self.runtime.now() < at {
            self.runtime.advance_to(at);
        }
        let mut out = Vec::new();
        let mut live = false;
        if let Some(state) = self.streams.get_mut(&peripheral) {
            let group = state.group;
            if state.remaining == 0 {
                self.streams.remove(&peripheral);
                self.runtime.charge(calib::UDP_SEND_PATH);
                let seq = self.next_seq();
                let body = MessageBody::Closed { peripheral };
                out.push(Action::Send(self.datagram(group, Message { seq, body })));
            } else {
                state.remaining -= 1;
                live = true;
                // Each tick is a one-shot read whose reply is formatted
                // as (14) stream data and sent to the stream group.
                let seq = self.next_seq();
                let kind = PendingKind::Read;
                out.extend(self.start_op(seq, group, peripheral, kind, Vec::new(), true));
            }
        }
        self.flush_completions(&mut out);
        if live {
            // The reply leaves at the runtime clock; the next tick is
            // due one period after this one.
            let after = (at + self.stream_period).saturating_since(self.runtime.now());
            out.push(Action::Timer {
                key: peripheral,
                gen,
                after,
            });
        }
        Reply::from(out)
    }

    /// The MCU dies mid-operation. Bumps the install generation so
    /// anything staged before (or during) the outage is fenced: a
    /// half-written image from the old life can never be accepted by the
    /// new one, only rejected and refetched end-to-end.
    pub fn crash_mcu(&mut self) {
        self.install_gen = self.install_gen.wrapping_add(1);
    }

    /// A frame delivered while the MCU is dead. Only a (5) driver upload
    /// leaves a trace: the first half of its image reaches flash — the
    /// write was cut mid-stream — stamped with the current install
    /// generation for [`Thing::audit_flash`]. Everything else evaporates
    /// with the MCU.
    pub fn stage_torn_upload(&mut self, payload: &[u8]) {
        if payload.first() != Some(&MessageBody::DRIVER_UPLOAD_TYPE) {
            return;
        }
        if let Some(Message {
            body: MessageBody::DriverUpload { peripheral, image },
            ..
        }) = Message::decode(payload)
        {
            let torn = &image[..image.len() / 2];
            self.torn_flash
                .push((self.install_gen, peripheral, torn.to_vec()));
        }
    }

    /// Audits the torn flash staging area as a crashed MCU revives: an
    /// image is accepted only if its install generation is current *and*
    /// it still parses and passes `verify()`, which a torn prefix never
    /// does. Also counts the driver requests [`Thing::revive_mcu`] then
    /// reissues.
    pub fn audit_flash(&mut self) -> FlashRecovery {
        let mut recovery = FlashRecovery {
            rejected: 0,
            refetches: self.awaiting_driver.keys().count() as u64,
        };
        for (generation, _peripheral, bytes) in std::mem::take(&mut self.torn_flash) {
            let intact = generation == self.install_gen
                && DriverImage::from_bytes(&bytes)
                    .ok()
                    .is_some_and(|image| upnp_dsl::verify(&image).is_ok());
            debug_assert!(!intact, "a torn prefix must never verify");
            if !intact {
                recovery.rejected += 1;
            }
        }
        recovery
    }

    /// Revives a crashed MCU at world time `now`, after
    /// [`Thing::audit_flash`]: reissues a driver request for every
    /// peripheral still waiting, so the image is refetched end-to-end
    /// rather than stitched across the crash, and re-arms every live
    /// stream one period from now.
    ///
    /// Protocol state (streams, pending operations) is assumed to be
    /// restored from persistent storage; only the flash install path and
    /// the stream timers are torn by the crash.
    pub fn revive_mcu(&mut self, now: SimTime, mgr_anycast: Ipv6Addr) -> Reply {
        if self.runtime.now() < now {
            self.runtime.advance_to(now);
        }
        let mut pending: Vec<u32> = self.awaiting_driver.keys().copied().collect();
        pending.sort_unstable();
        let mut out = Vec::new();
        for peripheral in pending {
            self.request_driver(DeviceTypeId::new(peripheral), mgr_anycast, &mut out);
        }
        for (&peripheral, _) in self.streams.iter() {
            out.push(Action::Timer {
                key: peripheral,
                gen: self.install_gen,
                after: self.stream_period,
            });
        }
        Reply::from(out)
    }

    fn value_kind(&self, peripheral: u32) -> ValueKind {
        match self.catalog.get(DeviceTypeId::new(peripheral)) {
            Some(e) if e.unit == "Pa" => ValueKind::Int,
            Some(_) => ValueKind::Float,
            None => ValueKind::Int,
        }
    }
}

/// Converts a VM return value into a protocol value.
fn convert_value(rv: Option<&ReturnValue>, kind: ValueKind) -> Value {
    match rv {
        None => Value::None,
        Some(ReturnValue::Scalar(cell)) => match kind {
            ValueKind::Float => Value::F32(cell.as_f32()),
            ValueKind::Int => Value::I32(cell.as_i32()),
        },
        Some(ReturnValue::Array(_, cells)) => {
            Value::Bytes(cells.iter().map(|c| c.as_i32() as u8).collect())
        }
    }
}

impl std::fmt::Debug for Thing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thing")
            .field("node", &self.node)
            .field("address", &self.address)
            .field("drivers", &self.served_peripherals().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}
