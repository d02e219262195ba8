//! Smart-building scenario: a multi-hop sensor network with heterogeneous
//! peripherals — the deployment style the paper's introduction motivates.
//!
//! Three floors hang off a basement border router (the manager).
//! Facility staff plug sensors in over time; a dashboard client
//! discovers and polls them without anyone touching driver code.
//!
//! ```text
//! cargo run --example smart_building
//! ```

use micropnp::core::world::{SimWorld, World, WorldConfig};
use micropnp::hw::id::prototypes;
use micropnp::net::link::LinkQuality;
use micropnp::net::msg::Value;
use micropnp::sim::SimDuration;

fn main() {
    let mut world = World::new(WorldConfig::default());
    let manager = world.add_manager();

    // One Thing per floor, chained: manager - f1 - f2 - f3 (multi-hop).
    let floor1 = world.add_thing();
    let floor2 = world.add_thing();
    let floor3 = world.add_thing();
    let dashboard = world.add_client();

    world.link(manager, world.thing_node(floor1), LinkQuality::new(0.98));
    world.link(
        world.thing_node(floor1),
        world.thing_node(floor2),
        LinkQuality::new(0.95),
    );
    world.link(
        world.thing_node(floor2),
        world.thing_node(floor3),
        LinkQuality::new(0.93),
    );
    world.link(manager, world.client(dashboard).node, LinkQuality::PERFECT);
    world.build_tree(manager);

    // Different conditions per floor.
    world.thing_mut(floor1).runtime.hw.env.temperature_c = 21.0;
    world.thing_mut(floor2).runtime.hw.env.temperature_c = 23.5;
    world.thing_mut(floor2).runtime.hw.env.humidity_rh = 55.0;
    world.thing_mut(floor3).runtime.hw.env.pressure_pa = 100_800.0;

    // Staff plug peripherals in floor by floor.
    println!("== plugging peripherals ==");
    for (name, floor, channel, id) in [
        ("floor1 TMP36", floor1, 0, prototypes::TMP36),
        ("floor2 TMP36", floor2, 0, prototypes::TMP36),
        ("floor2 HIH-4030", floor2, 1, prototypes::HIH4030),
        ("floor3 BMP180", floor3, 0, prototypes::BMP180),
    ] {
        let tl = world.plug_and_wait(floor, channel, id);
        println!(
            "  {name:<18} ready in {:6.1} ms",
            tl.total().unwrap().as_millis_f64()
        );
    }

    // The dashboard discovers temperature sensors by type: one multicast,
    // answered only by the Things that actually host a TMP36.
    println!("== discovery ==");
    let temp_things = world.client_discover(dashboard, prototypes::TMP36);
    println!("  TMP36 found on {} things", temp_things.len());

    // Poll everything.
    println!("== readings ==");
    let show = |label: &str, v: Option<Value>| match v {
        Some(Value::F32(x)) => println!("  {label:<18} {x:8.2}"),
        Some(Value::I32(x)) => println!("  {label:<18} {x:8}"),
        other => println!("  {label:<18} {other:?}"),
    };
    let v = world.client_read(dashboard, floor1, prototypes::TMP36);
    show("floor1 degC", v);
    let v = world.client_read(dashboard, floor2, prototypes::TMP36);
    show("floor2 degC", v);
    let v = world.client_read(dashboard, floor2, prototypes::HIH4030);
    show("floor2 %RH", v);
    let v = world.client_read(dashboard, floor3, prototypes::BMP180);
    show("floor3 Pa", v);

    // Subscribe to a pressure stream from the top floor.
    println!("== streaming floor3 pressure ==");
    let samples = world.client_stream(dashboard, floor3, prototypes::BMP180);
    for (i, s) in samples.iter().enumerate() {
        if let Value::I32(pa) = s {
            println!("  sample {i}: {pa} Pa");
        }
    }

    // Network accounting.
    let stats = world.net.stats();
    println!("== network totals ==");
    println!("  frames transmitted : {}", stats.frames_tx);
    println!("  payload bytes      : {}", stats.bytes_tx);
    println!("  permanent drops    : {}", stats.drops);
    println!("  virtual time       : {:.2} s", world.now().as_secs_f64());
    let _ = SimDuration::ZERO;
}
