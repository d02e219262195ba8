//! End-to-end tests of the assembled µPnP system: plug → identify →
//! OTA driver install → advertise → discover → read/stream/write.

use upnp_core::world::{SimWorld, World, WorldConfig, WorldOp};
use upnp_hw::id::prototypes;
use upnp_net::msg::{Message, MessageBody, Value};
use upnp_net::{Datagram, MCAST_PORT};
use upnp_sim::SimDuration;

/// A world with a manager, one thing and one client in a star.
fn small_world() -> (World, upnp_core::world::ThingId, upnp_core::world::ClientId) {
    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    let thing = w.add_thing();
    let client = w.add_client();
    w.star_topology();
    (w, thing, client)
}

#[test]
fn plug_pipeline_installs_driver_and_advertises() {
    let (mut w, thing, client) = small_world();
    let tl = w.plug_and_wait(thing, 0, prototypes::TMP36);

    // The driver arrived over the air and is serving the peripheral.
    assert!(w
        .thing(thing)
        .served_peripherals()
        .any(|p| p == prototypes::TMP36.raw()));
    assert_eq!(w.manager().uploads_served, 1);

    // The client heard the unsolicited advertisement.
    let ads = &w.client(client).discovered;
    assert_eq!(ads.len(), 1);
    assert_eq!(ads[0].advert.peripheral, prototypes::TMP36.raw());
    assert!(!ads[0].solicited);

    // The timeline is fully populated.
    assert!(tl.scan.is_some());
    assert!(tl.request_driver().is_some());
    assert!(tl.install_driver().is_some());
    assert!(tl.generate_addr.is_some());
    assert!(tl.join_group.is_some());
    assert!(tl.advertise.is_some());
    assert!(tl.total().is_some());
}

#[test]
fn plug_timeline_reproduces_table4_shape() {
    let (mut w, thing, _) = small_world();
    let tl = w.plug_and_wait(thing, 0, prototypes::TMP36);

    let gen = tl.generate_addr.unwrap().as_millis_f64();
    let join = tl.join_group.unwrap().as_millis_f64();
    let request = tl.request_driver().unwrap().as_millis_f64();
    let install = tl.install_driver().unwrap().as_millis_f64();
    let advertise = tl.advertise.unwrap().as_millis_f64();

    // Paper Table 4: 2.59, 5.44, 53.91, 59.50, 45.37 ms. The simulated
    // values must land in the same ballpark (±40 %) and in the same order.
    assert!((1.5..4.0).contains(&gen), "generate {gen:.2} ms");
    assert!((3.0..8.0).contains(&join), "join {join:.2} ms");
    assert!((32.0..76.0).contains(&request), "request {request:.2} ms");
    assert!((35.0..84.0).contains(&install), "install {install:.2} ms");
    assert!(
        (27.0..64.0).contains(&advertise),
        "advertise {advertise:.2} ms"
    );
    assert!(gen < join && join < advertise && advertise < request);
}

#[test]
fn section8_total_plug_latency() {
    // §8: identification (220–300 ms) + network pipeline (188.53 ms with
    // an 80-byte driver) = 488.53 ms. The TMP36 driver is the closest to
    // the paper's 80-byte reference; its end-to-end plug must land in the
    // same ballpark. The BMP180 image is several times larger, so its
    // install leg (flash-write per byte) must make the total strictly
    // larger.
    let (mut w, thing, _) = small_world();
    let tmp36 = w
        .plug_and_wait(thing, 0, prototypes::TMP36)
        .total()
        .unwrap()
        .as_millis_f64();
    assert!(
        (300.0..620.0).contains(&tmp36),
        "plug-to-advertised {tmp36:.1} ms vs paper 488.53 ms"
    );
    let bmp180 = w
        .plug_and_wait(thing, 1, prototypes::BMP180)
        .total()
        .unwrap()
        .as_millis_f64();
    assert!(
        bmp180 > tmp36,
        "bigger driver must take longer: {bmp180:.1} vs {tmp36:.1} ms"
    );
}

#[test]
fn client_reads_temperature_remotely() {
    let (mut w, thing, client) = small_world();
    w.thing_mut(thing).runtime.hw.env.temperature_c = 29.5;
    w.plug_and_wait(thing, 0, prototypes::TMP36);

    let value = w.client_read(client, thing, prototypes::TMP36).unwrap();
    let Value::F32(temp) = value else {
        panic!("expected float, got {value:?}");
    };
    assert!((temp - 29.5).abs() < 1.5, "temperature {temp}");
}

#[test]
fn client_reads_pressure_remotely() {
    let (mut w, thing, client) = small_world();
    w.thing_mut(thing).runtime.hw.env.pressure_pa = 98_200.0;
    w.plug_and_wait(thing, 0, prototypes::BMP180);

    let value = w.client_read(client, thing, prototypes::BMP180).unwrap();
    let Value::I32(pa) = value else {
        panic!("expected int, got {value:?}");
    };
    assert!((pa - 98_200).abs() < 60, "pressure {pa} Pa");
}

#[test]
fn rfid_read_returns_card_bytes() {
    let (mut w, thing, client) = small_world();
    w.plug_and_wait(thing, 0, prototypes::ID20LA);
    // Present a card, then read.
    w.thing_mut(thing).runtime.hw.env.present_card("0415AB09CD");
    w.thing_mut(thing).runtime.pump_uart();
    let value = w.client_read(client, thing, prototypes::ID20LA).unwrap();
    let Value::Bytes(bytes) = value else {
        panic!("expected bytes, got {value:?}");
    };
    assert_eq!(&bytes[..10], b"0415AB09CD");
}

#[test]
fn discovery_finds_things_by_type() {
    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    let t1 = w.add_thing();
    let t2 = w.add_thing();
    let t3 = w.add_thing();
    let client = w.add_client();
    w.star_topology();

    w.plug_and_wait(t1, 0, prototypes::TMP36);
    w.plug_and_wait(t2, 0, prototypes::BMP180);
    w.plug_and_wait(t3, 0, prototypes::TMP36);

    let found = w.client_discover(client, prototypes::TMP36);
    assert_eq!(found.len(), 2);
    assert!(found.contains(&w.thing_addr(t1)));
    assert!(found.contains(&w.thing_addr(t3)));
    assert!(!found.contains(&w.thing_addr(t2)));
}

#[test]
fn stream_delivers_samples_then_closes() {
    let config = WorldConfig {
        stream_samples: 3,
        stream_period: SimDuration::from_millis(200),
        ..WorldConfig::default()
    };
    let mut w = World::new(config);
    w.add_manager();
    let thing = w.add_thing();
    let client = w.add_client();
    w.star_topology();
    w.thing_mut(thing).runtime.hw.env.temperature_c = 24.0;
    w.plug_and_wait(thing, 0, prototypes::TMP36);

    let samples = w.client_stream(client, thing, prototypes::TMP36);
    assert_eq!(samples.len(), 3);
    for s in &samples {
        let Value::F32(t) = s else { panic!("{s:?}") };
        assert!((t - 24.0).abs() < 1.5);
    }
    assert!(w
        .client(client)
        .closed_streams
        .contains(&prototypes::TMP36.raw()));
}

/// Streams 10 samples 200 ms apart from a Thing that crashes at
/// `CRASH` after the request and revives after `outage`. Returns the
/// arrival instants of the samples, relative to the request, and how
/// many times the stream closed.
fn stream_across_a_crash(outage: SimDuration) -> (Vec<SimDuration>, usize) {
    let config = WorldConfig {
        stream_samples: 10,
        stream_period: SimDuration::from_millis(200),
        ..WorldConfig::default()
    };
    let mut w = World::new(config);
    w.add_manager();
    let thing = w.add_thing();
    let client = w.add_client();
    w.star_topology();
    w.plug_and_wait(thing, 0, prototypes::TMP36);
    let (node, addr) = (w.thing_node(thing), w.thing_addr(thing));
    let peripheral = prototypes::TMP36.raw();
    let request = w.client_request_stream(client, addr, peripheral);
    let start = w.now();
    w.inject(start, w.client_node(client), request);
    let crash = start + CRASH;
    w.run_until(crash);
    w.apply(crash, WorldOp::Crash(node));
    w.run_until(crash + outage);
    w.apply(crash + outage, WorldOp::Revive(node));
    w.run_until_idle();
    let c = w.client(client);
    let arrivals = c
        .stream_data
        .iter()
        .map(|&(_, _, at)| at.saturating_since(start))
        .collect();
    let closed = c
        .closed_streams
        .iter()
        .filter(|&&p| p == peripheral)
        .count();
    (arrivals, closed)
}

const CRASH: SimDuration = SimDuration::from_millis(692);

/// Asserts that samples arrive at most once per 200 ms period: a
/// doubled tick chain samples faster.
fn assert_one_chain(arrivals: &[SimDuration]) {
    for pair in arrivals.windows(2) {
        assert!(
            pair[1] - pair[0] >= SimDuration::from_millis(150),
            "two tick chains: {arrivals:?}"
        );
    }
}

#[test]
fn a_crashed_thing_streams_nothing_until_it_revives() {
    let outage = SimDuration::from_secs(1);
    let (arrivals, closed) = stream_across_a_crash(outage);
    // Three samples left before the crash; nothing is sampled while the
    // MCU is down; the revived stream delivers the rest and closes.
    let before = arrivals.iter().filter(|&&a| a < CRASH).count();
    assert_eq!(before, 3, "{arrivals:?}");
    assert!(
        arrivals.iter().all(|&a| a < CRASH || a > CRASH + outage),
        "a sample left the crashed Thing: {arrivals:?}"
    );
    assert_eq!(arrivals.len(), 10, "{arrivals:?}");
    assert_one_chain(&arrivals);
    assert_eq!(closed, 1);
}

#[test]
fn a_stream_tick_armed_before_a_short_crash_is_not_doubled() {
    // The outage is shorter than the period: the tick armed before the
    // crash fires after the revive, which has re-armed the stream.
    let (arrivals, closed) = stream_across_a_crash(SimDuration::from_millis(50));
    assert_eq!(arrivals.len(), 10, "{arrivals:?}");
    assert_one_chain(&arrivals);
    assert_eq!(closed, 1);
}

#[test]
fn unplug_removes_driver_and_advertises() {
    let (mut w, thing, client) = small_world();
    w.plug_and_wait(thing, 0, prototypes::HIH4030);
    assert_eq!(w.thing(thing).served_peripherals().count(), 1);

    w.unplug(thing, 0);
    w.run_until_idle();
    assert!(w.thing(thing).served_peripherals().next().is_none());
    // The disconnect advertisement reached the client (empty peripheral
    // set is allowed; the client records nothing new for it, so check the
    // read path instead).
    let v = w.client_read(client, thing, prototypes::HIH4030).unwrap();
    assert_eq!(v, Value::None, "no driver answers after unplug");
}

#[test]
fn second_plug_uses_cached_driver() {
    let (mut w, thing, _) = small_world();
    w.plug_and_wait(thing, 0, prototypes::TMP36);
    assert_eq!(w.manager().uploads_served, 1);
    w.unplug(thing, 0);
    w.run_until_idle();
    // Re-plug the same type: the driver is cached locally, no new upload.
    w.plug_and_wait(thing, 0, prototypes::TMP36);
    assert_eq!(w.manager().uploads_served, 1, "cache hit expected");
    assert!(w
        .thing(thing)
        .served_peripherals()
        .any(|p| p == prototypes::TMP36.raw()));
}

#[test]
fn manager_queries_and_removes_drivers() {
    let (mut w, thing, _) = small_world();
    w.plug_and_wait(thing, 0, prototypes::TMP36);
    w.plug_and_wait(thing, 1, prototypes::BMP180);

    // (6)/(7) inventory.
    let thing_addr = w.thing_addr(thing);
    let q = w.manager_mut().query_drivers(thing_addr);
    let mgr_node = w.manager().node;
    let now = w.now();
    w.net.send(now, mgr_node, q);
    w.run_until_idle();
    let inv = w.manager().inventory().get(&thing_addr).unwrap();
    assert_eq!(inv.len(), 2);

    // (8)/(9) removal.
    let r = w.manager_mut().remove_driver(thing_addr, prototypes::TMP36);
    let now = w.now();
    w.net.send(now, mgr_node, r);
    w.run_until_idle();
    assert_eq!(
        w.manager().removal_acks.back(),
        Some(&(thing_addr, prototypes::TMP36.raw(), true))
    );
    assert_eq!(
        w.thing(thing).served_peripherals().collect::<Vec<_>>(),
        vec![prototypes::BMP180.raw()]
    );
}

#[test]
fn driver_removal_detaches_its_own_peripheral_model() {
    // The TMP36 on channel 1 gets driver slot 0 and the HIH-4030 on
    // channel 0 slot 1, so channel and slot numbers cross. Removing the
    // TMP36 driver must detach the TMP36 model (slot 0), and the
    // HIH-4030 must keep answering reads.
    let (mut w, thing, client) = small_world();
    w.plug_and_wait(thing, 1, prototypes::TMP36);
    w.plug_and_wait(thing, 0, prototypes::HIH4030);
    let thing_addr = w.thing_addr(thing);
    let removal = w.manager_mut().remove_driver(thing_addr, prototypes::TMP36);
    let (mgr_node, now) = (w.manager().node, w.now());
    w.net.send(now, mgr_node, removal);
    w.run_until_idle();
    assert_eq!(
        w.thing(thing).served_peripherals().collect::<Vec<_>>(),
        vec![prototypes::HIH4030.raw()]
    );
    let hw = &w.thing(thing).runtime.hw;
    assert!(!hw.analog_sources.contains_key(&0), "TMP36 model detached");
    assert!(hw.analog_sources.contains_key(&1), "HIH-4030 model kept");
    assert!(
        w.client_read(client, thing, prototypes::HIH4030).is_some(),
        "the HIH-4030 must still answer a read"
    );
}

#[test]
fn established_with_a_unicast_group_is_ignored() {
    // The (13) stream group is wire input: a client told to join a
    // unicast address must ignore it, not hand it to the network.
    let (mut w, thing, client) = small_world();
    let established = Message {
        seq: 1,
        body: MessageBody::Established {
            peripheral: prototypes::TMP36.raw(),
            group: w.thing_addr(thing).octets(),
        },
    };
    let dgram = Datagram {
        src: w.thing_addr(thing),
        dst: w.client(client).address,
        src_port: MCAST_PORT,
        dst_port: MCAST_PORT,
        payload: established.encode().into(),
    };
    let now = w.now();
    w.inject(now, w.thing_node(thing), dgram);
    w.run_until_idle();
    assert!(w.client(client).stream_groups.is_empty());
}

#[test]
fn upload_of_another_peripherals_driver_is_refused() {
    // A (5) upload names the peripheral it is for. An image built for
    // another device type must not replace the running driver, or the
    // Thing would serve a peripheral it does not have plugged.
    let (mut w, thing, _) = small_world();
    w.plug_and_wait(thing, 0, prototypes::TMP36);
    let image = w.manager().driver_for(prototypes::HIH4030).unwrap();
    let upload = Message {
        seq: 1,
        body: MessageBody::DriverUpload {
            peripheral: prototypes::TMP36.raw(),
            image: image.to_bytes(),
        },
    };
    let (mgr, now) = (w.manager().node, w.now());
    let dgram = Datagram {
        src: w.net.addr_of(mgr),
        dst: w.thing_addr(thing),
        src_port: MCAST_PORT,
        dst_port: MCAST_PORT,
        payload: upload.encode().into(),
    };
    w.inject(now, mgr, dgram);
    w.run_until_idle();
    assert_eq!(
        w.thing(thing).served_peripherals().collect::<Vec<_>>(),
        vec![prototypes::TMP36.raw()]
    );
}

#[test]
fn multiple_peripherals_on_one_thing() {
    let (mut w, thing, client) = small_world();
    w.thing_mut(thing).runtime.hw.env.temperature_c = 21.0;
    w.thing_mut(thing).runtime.hw.env.pressure_pa = 101_000.0;
    w.plug_and_wait(thing, 0, prototypes::TMP36);
    w.plug_and_wait(thing, 1, prototypes::BMP180);

    let t = w.client_read(client, thing, prototypes::TMP36).unwrap();
    let p = w.client_read(client, thing, prototypes::BMP180).unwrap();
    assert!(matches!(t, Value::F32(v) if (v - 21.0).abs() < 1.5));
    assert!(matches!(p, Value::I32(v) if (v - 101_000).abs() < 60));
}

#[test]
fn multihop_topology_works() {
    // manager - relay thing - far thing: reads traverse two hops.
    let mut w = World::new(WorldConfig::default());
    let mgr = w.add_manager();
    let relay = w.add_thing();
    let far = w.add_thing();
    let client = w.add_client();
    w.link(
        mgr,
        w.thing_node(relay),
        upnp_net::link::LinkQuality::PERFECT,
    );
    w.link(
        w.thing_node(relay),
        w.thing_node(far),
        upnp_net::link::LinkQuality::PERFECT,
    );
    w.link(
        mgr,
        w.client(client).node,
        upnp_net::link::LinkQuality::PERFECT,
    );
    w.build_tree(mgr);

    w.thing_mut(far).runtime.hw.env.temperature_c = 33.0;
    w.plug_and_wait(far, 0, prototypes::TMP36);
    let v = w.client_read(client, far, prototypes::TMP36).unwrap();
    assert!(matches!(v, Value::F32(t) if (t - 33.0).abs() < 1.5));
}

#[test]
fn world_is_deterministic() {
    let run = || {
        let (mut w, thing, client) = small_world();
        w.plug_and_wait(thing, 0, prototypes::TMP36);
        let v = w.client_read(client, thing, prototypes::TMP36);
        (w.now(), format!("{v:?}"))
    };
    assert_eq!(run(), run());
}

#[test]
fn write_to_driver_without_write_handler_nacks() {
    let (mut w, thing, client) = small_world();
    w.plug_and_wait(thing, 0, prototypes::TMP36);
    let ok = w
        .client_write(client, thing, prototypes::TMP36, Value::I32(1))
        .unwrap();
    assert!(!ok, "TMP36 driver has no write handler");
}

#[test]
fn run_for_respects_the_deadline() {
    let (mut w, thing, _) = small_world();
    w.plug(thing, 0, prototypes::TMP36);
    // A deadline shorter than the scan cannot complete the pipeline...
    w.run_for(SimDuration::from_millis(1));
    // ...but interrupts are serviced immediately, so the scan has run;
    // the driver request is still in flight.
    assert!(w.thing(thing).served_peripherals().next().is_none());
    // Running long enough finishes it.
    w.run_for(SimDuration::from_secs(2));
    assert_eq!(w.thing(thing).served_peripherals().count(), 1);
}

#[test]
fn leaving_the_group_stops_advertisement_delivery() {
    let (mut w, thing, client) = small_world();
    // Kick the client out of the all-clients group: the unsolicited
    // advertisement must no longer reach it.
    let group = upnp_net::addr::all_clients_group(0x2001_0db8_0000);
    let node = w.client(client).node;
    assert!(w.net.leave_group(node, group));
    w.plug_and_wait(thing, 0, prototypes::TMP36);
    assert!(w.client(client).discovered.is_empty());
    // Solicited discovery still works (unicast reply).
    let found = w.client_discover(client, prototypes::TMP36);
    assert_eq!(found.len(), 1);
}

#[test]
fn unplug_cancels_only_its_own_channels_driver_request() {
    // Two channels of the same Thing carry the same device type, both
    // with driver requests in flight (cold cache). Unplugging the first
    // channel must cancel only its own pending request — the second
    // channel still deserves its driver when the upload lands.
    let (mut w, thing, _) = small_world();
    let base = w.now();
    w.apply(
        base + SimDuration::from_millis(1),
        WorldOp::Plug {
            node: w.thing_node(thing),
            channel: 0,
            device: prototypes::TMP36,
        },
    );
    w.apply(
        base + SimDuration::from_millis(2),
        WorldOp::Plug {
            node: w.thing_node(thing),
            channel: 1,
            device: prototypes::TMP36,
        },
    );
    w.apply(
        base + SimDuration::from_millis(5),
        WorldOp::Unplug {
            node: w.thing_node(thing),
            channel: 0,
        },
    );
    w.run_until_idle();
    assert!(
        w.thing(thing)
            .served_peripherals()
            .any(|p| p == prototypes::TMP36.raw()),
        "channel 1 must end up served despite channel 0's cancelled plug"
    );
}

#[test]
fn unplug_of_newer_channel_keeps_older_channels_request() {
    // The mirror ordering: the channel plugged *second* is unplugged
    // while both channels' driver requests are in flight. The first
    // channel's pending request must survive and activate its driver.
    let (mut w, thing, _) = small_world();
    let base = w.now();
    w.apply(
        base + SimDuration::from_millis(1),
        WorldOp::Plug {
            node: w.thing_node(thing),
            channel: 0,
            device: prototypes::TMP36,
        },
    );
    w.apply(
        base + SimDuration::from_millis(2),
        WorldOp::Plug {
            node: w.thing_node(thing),
            channel: 1,
            device: prototypes::TMP36,
        },
    );
    w.apply(
        base + SimDuration::from_millis(5),
        WorldOp::Unplug {
            node: w.thing_node(thing),
            channel: 1,
        },
    );
    w.run_until_idle();
    assert!(
        w.thing(thing)
            .served_peripherals()
            .any(|p| p == prototypes::TMP36.raw()),
        "channel 0 must end up served despite channel 1's cancelled plug"
    );
}

// ---- Driver-distribution tier (edge caches) ----------------------------

/// A world with an edge cache as the interior router: manager — cache —
/// two Things, plus a client next to the manager.
fn cached_world() -> (
    World,
    upnp_core::world::CacheId,
    upnp_core::world::ThingId,
    upnp_core::world::ThingId,
) {
    let mut w = World::new(WorldConfig::default());
    let mgr = w.add_manager();
    let cache = w.add_cache();
    let t1 = w.add_thing();
    let t2 = w.add_thing();
    let client = w.add_client();
    let q = upnp_net::link::LinkQuality::PERFECT;
    w.link(mgr, w.cache_node(cache), q);
    w.link(w.cache_node(cache), w.thing_node(t1), q);
    w.link(w.cache_node(cache), w.thing_node(t2), q);
    w.link(mgr, w.client_node(client), q);
    w.build_tree(mgr);
    (w, cache, t1, t2)
}

#[test]
fn edge_cache_serves_plug_pipeline_end_to_end() {
    let (mut w, cache, t1, t2) = cached_world();
    // First plug: the request anycast-resolves to the cache (nearer than
    // the origin), misses, and the cache pulls the image in chunks.
    let tl = w.plug_and_wait(t1, 0, prototypes::TMP36);
    assert!(w
        .thing(t1)
        .served_peripherals()
        .any(|p| p == prototypes::TMP36.raw()));
    assert!(
        tl.upload_sent.is_some(),
        "cache-served uploads must stitch the plug timeline"
    );
    assert!(tl.total().is_some());
    let stats = w.cache(cache).stats;
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.uploads_served, 1);
    assert_eq!(
        w.manager().uploads_served,
        1,
        "one chunked fetch session at the origin"
    );
    assert_eq!(
        w.cache(cache).cached_version(prototypes::TMP36.raw()),
        Some(1)
    );

    // Second Thing, same type: a pure LRU hit — the origin is idle.
    w.plug_and_wait(t2, 0, prototypes::TMP36);
    assert!(w
        .thing(t2)
        .served_peripherals()
        .any(|p| p == prototypes::TMP36.raw()));
    let stats = w.cache(cache).stats;
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.uploads_served, 2);
    assert_eq!(w.manager().uploads_served, 1, "origin untouched on a hit");
}

#[test]
fn invalidation_propagates_republished_driver_to_the_tier() {
    let (mut w, cache, t1, t2) = cached_world();
    w.plug_and_wait(t1, 0, prototypes::TMP36);
    assert_eq!(
        w.cache(cache).cached_version(prototypes::TMP36.raw()),
        Some(1)
    );

    // Republish the driver (version 2) and fan the (20) invalidations
    // out to the registered caches, as the (8)-removal flow would.
    let image = w
        .manager()
        .driver_for(prototypes::TMP36)
        .cloned()
        .expect("catalog driver");
    w.manager_mut()
        .publish_driver(image)
        .expect("image verifies");
    assert_eq!(w.manager().driver_version(prototypes::TMP36), 2);
    let invalidations = w.manager_mut().invalidate_caches(prototypes::TMP36);
    assert_eq!(invalidations.len(), 1, "one registered cache");
    let mgr_node = w.manager().node;
    let now = w.now();
    for d in invalidations {
        w.net.send(now, mgr_node, d);
    }
    w.run_until_idle();
    assert_eq!(
        w.cache(cache).cached_version(prototypes::TMP36.raw()),
        Some(2),
        "the (20) delta upgraded the cached copy in place"
    );
    assert_eq!(w.cache(cache).stats.delta_patched, 1);

    // The next request is a warm hit on the upgraded copy — the origin
    // never sees a second fetch session.
    w.plug_and_wait(t2, 0, prototypes::TMP36);
    assert_eq!(
        w.cache(cache).cached_version(prototypes::TMP36.raw()),
        Some(2)
    );
    assert_eq!(
        w.manager().uploads_served,
        1,
        "the delta patch spared the origin a second fetch session"
    );
}

#[test]
fn removal_message_evicts_cache_and_acks() {
    let (mut w, cache, t1, _) = cached_world();
    w.plug_and_wait(t1, 0, prototypes::TMP36);
    // Send the paper's (8) removal to the cache node itself.
    let cache_addr = w.cache(cache).address;
    let removal = w.manager_mut().remove_driver(cache_addr, prototypes::TMP36);
    let mgr_node = w.manager().node;
    let now = w.now();
    w.net.send(now, mgr_node, removal);
    w.run_until_idle();
    assert_eq!(w.cache(cache).cached_version(prototypes::TMP36.raw()), None);
    assert_eq!(
        w.manager().removal_acks.back(),
        Some(&(cache_addr, prototypes::TMP36.raw(), true)),
        "the cache acknowledges with (9)"
    );
}

#[test]
fn manager_retention_is_bounded_under_churn_storms() {
    use upnp_core::manager::{MAX_INVENTORY, MAX_REMOVAL_ACKS};
    use upnp_net::msg::{Message, MessageBody};

    let (mut w, _, _) = small_world();
    let mgr = w.manager_mut();
    let mgr_addr = mgr.address;
    let synth = move |i: u32, body: MessageBody| upnp_net::Datagram {
        src: format!("2001:db8::f:{:x}", i + 1).parse().unwrap(),
        dst: mgr_addr,
        src_port: upnp_net::addr::MCAST_PORT,
        dst_port: upnp_net::addr::MCAST_PORT,
        payload: Message { seq: 1, body }.encode().into(),
    };
    // A churn storm's worth of (7) advertisements from distinct Things.
    for i in 0..(MAX_INVENTORY as u32 + 500) {
        let d = synth(
            i,
            MessageBody::DriverAdvertisement {
                drivers: vec![(prototypes::TMP36.raw(), 1)],
            },
        );
        mgr.on_datagram(&d);
    }
    assert_eq!(mgr.inventory().len(), MAX_INVENTORY, "inventory is capped");
    // The oldest records were the ones evicted (FIFO).
    assert!(!mgr
        .inventory()
        .contains_key(&"2001:db8::f:1".parse().unwrap()));

    // And a storm of (9) acks keeps a bounded ring plus the total.
    for i in 0..(MAX_REMOVAL_ACKS as u32 + 100) {
        let d = synth(
            i,
            MessageBody::DriverRemovalAck {
                peripheral: prototypes::TMP36.raw(),
                removed: true,
            },
        );
        mgr.on_datagram(&d);
    }
    assert_eq!(mgr.removal_acks.len(), MAX_REMOVAL_ACKS);
    assert_eq!(mgr.removal_acks_total, MAX_REMOVAL_ACKS as u64 + 100);
}
