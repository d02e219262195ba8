//! Cross-crate integration tests: larger deployments, lossy networks,
//! hot-swapping and driver lifecycle management.

use micropnp::core::world::{SimWorld, World, WorldConfig};
use micropnp::hw::id::prototypes;
use micropnp::net::link::LinkQuality;
use micropnp::net::msg::Value;

#[test]
fn ten_thing_deployment_discovers_and_reads_everything() {
    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    let things: Vec<_> = (0..10).map(|_| w.add_thing()).collect();
    let client = w.add_client();
    w.star_topology();

    // Alternate temperature and pressure sensors across the fleet.
    for (i, &t) in things.iter().enumerate() {
        let dev = if i % 2 == 0 {
            w.thing_mut(t).runtime.hw.env.temperature_c = 20.0 + i as f64;
            prototypes::TMP36
        } else {
            w.thing_mut(t).runtime.hw.env.pressure_pa = 100_000.0 + 100.0 * i as f64;
            prototypes::BMP180
        };
        w.plug_and_wait(t, 0, dev);
    }

    // One multicast discovery per type reaches exactly the right half.
    let with_temp = w.client_discover(client, prototypes::TMP36);
    let with_pressure = w.client_discover(client, prototypes::BMP180);
    assert_eq!(with_temp.len(), 5);
    assert_eq!(with_pressure.len(), 5);

    // Every sensor answers a remote read with its own environment.
    for (i, &t) in things.iter().enumerate() {
        if i % 2 == 0 {
            let v = w.client_read(client, t, prototypes::TMP36).unwrap();
            let Value::F32(c) = v else { panic!("{v:?}") };
            assert!((c - (20.0 + i as f32)).abs() < 1.5, "thing {i}: {c}");
        } else {
            let v = w.client_read(client, t, prototypes::BMP180).unwrap();
            let Value::I32(pa) = v else { panic!("{v:?}") };
            assert!((pa as f64 - (100_000.0 + 100.0 * i as f64)).abs() < 60.0);
        }
    }

    // The manager uploaded each driver type once per thing that needed it.
    assert_eq!(w.manager().uploads_served, 10);
}

#[test]
fn plug_pipeline_survives_lossy_links() {
    // 85 % PRR on every link: MAC retries must carry the pipeline through.
    let mut w = World::new(WorldConfig::default());
    let mgr = w.add_manager();
    let thing = w.add_thing();
    let client = w.add_client();
    w.link(mgr, w.thing_node(thing), LinkQuality::new(0.85));
    w.link(mgr, w.client(client).node, LinkQuality::new(0.85));
    w.build_tree(mgr);

    w.thing_mut(thing).runtime.hw.env.temperature_c = 25.0;
    w.plug_and_wait(thing, 0, prototypes::TMP36);
    assert!(w
        .thing(thing)
        .served_peripherals()
        .any(|p| p == prototypes::TMP36.raw()));

    // Reads may need a few attempts end-to-end; the protocol itself is
    // fire-and-forget, so retry at the application level as a real client
    // would.
    let mut value = None;
    for _ in 0..5 {
        value = w.client_read(client, thing, prototypes::TMP36);
        if value.is_some() {
            break;
        }
    }
    assert!(matches!(value, Some(Value::F32(_))), "{value:?}");
}

#[test]
fn hot_swap_switches_drivers() {
    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    let thing = w.add_thing();
    let client = w.add_client();
    w.star_topology();

    w.thing_mut(thing).runtime.hw.env.temperature_c = 22.0;
    w.plug_and_wait(thing, 0, prototypes::TMP36);
    let v = w.client_read(client, thing, prototypes::TMP36).unwrap();
    assert!(matches!(v, Value::F32(_)));

    // Swap the temperature sensor for a humidity sensor on the same
    // channel.
    w.unplug(thing, 0);
    w.run_until_idle();
    w.thing_mut(thing).runtime.hw.env.humidity_rh = 61.0;
    w.plug_and_wait(thing, 0, prototypes::HIH4030);

    assert_eq!(
        w.thing(thing).served_peripherals().collect::<Vec<_>>(),
        vec![prototypes::HIH4030.raw()]
    );
    let v = w.client_read(client, thing, prototypes::HIH4030).unwrap();
    let Value::F32(rh) = v else { panic!("{v:?}") };
    assert!((30.0..100.0).contains(&rh), "humidity {rh}");
    // The old type no longer answers.
    let v = w.client_read(client, thing, prototypes::TMP36).unwrap();
    assert_eq!(v, Value::None);
}

#[test]
fn manager_inventories_the_whole_fleet() {
    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    let t1 = w.add_thing();
    let t2 = w.add_thing();
    w.star_topology();
    w.plug_and_wait(t1, 0, prototypes::TMP36);
    w.plug_and_wait(t1, 1, prototypes::ID20LA);
    w.plug_and_wait(t2, 0, prototypes::BMP180);

    for t in [t1, t2] {
        let addr = w.thing_addr(t);
        let q = w.manager_mut().query_drivers(addr);
        let mgr_node = w.manager().node;
        let now = w.now();
        w.net.send(now, mgr_node, q);
    }
    w.run_until_idle();

    let inv = w.manager().inventory();
    assert_eq!(inv[&w.thing_addr(t1)].len(), 2);
    assert_eq!(inv[&w.thing_addr(t2)].len(), 1);
    assert_eq!(inv[&w.thing_addr(t2)][0].0, prototypes::BMP180.raw());
}

#[test]
fn spi_extension_peripheral_works_end_to_end() {
    // The MAX6675 demonstrates adding a fifth peripheral family: same
    // pipeline, no changes anywhere else.
    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    let thing = w.add_thing();
    let client = w.add_client();
    w.star_topology();

    let max6675 = micropnp::hw::id::DeviceTypeId::new(0x0a0b_bf03);
    w.thing_mut(thing).runtime.hw.env.temperature_c = 150.0; // a kiln
    w.plug_and_wait(thing, 0, max6675);
    let v = w.client_read(client, thing, max6675).unwrap();
    let Value::F32(c) = v else { panic!("{v:?}") };
    assert!((c - 150.0).abs() < 0.5, "thermocouple {c}");
}

#[test]
fn streams_to_multiple_subscribing_clients() {
    let config = WorldConfig {
        stream_samples: 4,
        ..WorldConfig::default()
    };
    let mut w = World::new(config);
    w.add_manager();
    let thing = w.add_thing();
    let c1 = w.add_client();
    let c2 = w.add_client();
    w.star_topology();
    w.thing_mut(thing).runtime.hw.env.temperature_c = 19.0;
    w.plug_and_wait(thing, 0, prototypes::TMP36);

    // Client 1 establishes the stream; client 2 joins the same group once
    // it learns of it (here: by also sending a stream request, which maps
    // to the same group).
    let samples1 = w.client_stream(c1, thing, prototypes::TMP36);
    assert_eq!(samples1.len(), 4);

    let samples2 = w.client_stream(c2, thing, prototypes::TMP36);
    assert_eq!(samples2.len(), 4);
    // Client 1 remained in the group and heard the second run too.
    assert!(w.client(c1).stream_data.len() >= 8);
}

#[test]
fn radio_energy_accrues_on_the_whole_path() {
    let mut w = World::new(WorldConfig::default());
    let mgr = w.add_manager();
    let relay = w.add_thing();
    let leaf = w.add_thing();
    w.link(mgr, w.thing_node(relay), LinkQuality::PERFECT);
    w.link(
        w.thing_node(relay),
        w.thing_node(leaf),
        LinkQuality::PERFECT,
    );
    w.build_tree(mgr);

    w.plug_and_wait(leaf, 0, prototypes::TMP36);
    let relay_node = w.thing_node(relay);
    let leaf_node = w.thing_node(leaf);
    assert!(w.net.radio_energy_j(leaf_node) > 0.0, "leaf transmitted");
    assert!(w.net.radio_energy_j(relay_node) > 0.0, "relay forwarded");
    // The leaf's MCU also consumed energy running the pipeline.
    assert!(w.thing(leaf).runtime.cpu_energy_j() > 0.0);
}

#[test]
fn two_hundred_plugs_remain_stable() {
    // Longevity: repeated plug/unplug cycles must not leak drivers,
    // wedge the event loop or drift the driver cache.
    let mut w = World::new(WorldConfig::default());
    w.add_manager();
    let thing = w.add_thing();
    w.add_client();
    w.star_topology();

    for round in 0..200 {
        let dev = if round % 2 == 0 {
            prototypes::TMP36
        } else {
            prototypes::BMP180
        };
        w.plug(thing, 0, dev);
        w.run_until_idle();
        assert_eq!(
            w.thing(thing).served_peripherals().collect::<Vec<_>>(),
            vec![dev.raw()],
            "round {round}"
        );
        w.unplug(thing, 0);
        w.run_until_idle();
        assert!(w.thing(thing).served_peripherals().next().is_none());
    }
    // Drivers were fetched over the air exactly once per type.
    assert_eq!(w.manager().uploads_served, 2);
    assert_eq!(w.thing(thing).board().scans(), 400);
}
