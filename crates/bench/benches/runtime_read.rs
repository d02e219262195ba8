//! The driver runtime's native-call path: one remote read, from
//! `Runtime::request` through the router, the driver's handlers and the
//! native library they signal, to the deferred completion that
//! `run_until_idle` delivers.
//!
//! One iteration serves one read on a runtime whose driver is installed
//! and initialised, with its peripheral model attached as a Thing
//! attaches it. The UART driver is left out: its read waits for a card.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use upnp_core::Catalog;
use upnp_hw::peripheral::Interconnect;
use upnp_vm::runtime::{PendingKind, Runtime};

fn bench_read(c: &mut Criterion) {
    let catalog = Catalog::with_prototypes();
    let mut g = c.benchmark_group("runtime_read");
    for entry in catalog.entries() {
        if entry.interconnect == Interconnect::Uart {
            continue;
        }
        let image = upnp_dsl::compile_source(entry.driver_source, entry.device_id.raw())
            .expect("a shipped driver compiles");
        let mut rt = Runtime::new(1);
        let slot = rt.install_driver(image, 0).expect("an empty runtime");
        assert!(catalog.attach(&mut rt, slot, entry.device_id));
        rt.run_until_idle();
        let name = entry.name.split(' ').next().unwrap_or(entry.name);
        g.bench_function(BenchmarkId::from_parameter(name.to_lowercase()), |b| {
            b.iter(|| {
                rt.request(slot, PendingKind::Read, Vec::new());
                black_box(rt.run_until_idle())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_read);
criterion_main!(benches);
