//! Quickstart: plug a temperature sensor into a µPnP Thing and read it
//! remotely — the complete §5/§8 pipeline in thirty lines.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use micropnp::core::world::{SimWorld, World, WorldConfig};
use micropnp::hw::id::prototypes;
use micropnp::net::msg::Value;

fn main() {
    // A world: one manager (driver repository), one Thing, one client,
    // star topology over simulated 6LoWPAN.
    let mut world = World::new(WorldConfig::default());
    world.add_manager();
    let thing = world.add_thing();
    let client = world.add_client();
    world.star_topology();

    // It is 23.5 °C around the Thing.
    world.thing_mut(thing).runtime.hw.env.temperature_c = 23.5;

    // Plug the TMP36 in. Everything the paper describes happens now:
    // the interrupt fires, the resistor set is read as four timed pulses,
    // the 32-bit id decodes, the driver is fetched over the air from the
    // manager, `init` runs, the multicast group is joined and the
    // advertisement goes out.
    let timeline = world.plug_and_wait(thing, 0, prototypes::TMP36);
    println!("plugged TMP36:");
    println!(
        "  identification scan : {:7.1} ms",
        timeline.scan.unwrap().as_millis_f64()
    );
    println!(
        "  driver request      : {:7.1} ms",
        timeline.request_driver().unwrap().as_millis_f64()
    );
    println!(
        "  driver install      : {:7.1} ms",
        timeline.install_driver().unwrap().as_millis_f64()
    );
    println!(
        "  plug-to-advertised  : {:7.1} ms  (paper: 488.53 ms)",
        timeline.total().unwrap().as_millis_f64()
    );

    // The client discovered it from the unsolicited advertisement.
    let found = world.client(client).things_with(prototypes::TMP36.raw());
    println!("client discovered {} thing(s) with a TMP36", found.len());

    // Remote read over the µPnP protocol.
    let value = world
        .client_read(client, thing, prototypes::TMP36)
        .expect("read completes");
    match value {
        Value::F32(celsius) => println!("remote temperature read: {celsius:.2} degC"),
        other => println!("unexpected value: {other:?}"),
    }
}
