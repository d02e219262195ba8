//! §6.2: event-router throughput — "the performance of the event router
//! scales linearly in terms of number of events processed".

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use upnp_sim::CpuCost;
use upnp_vm::router::{EventRouter, RoutedEvent};

fn bench_router(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_router");
    for &n in &[1usize, 10, 100, 1000] {
        g.bench_with_input(BenchmarkId::new("post_and_drain", n), &n, |b, &n| {
            b.iter(|| {
                let mut r = EventRouter::new();
                for i in 0..n {
                    r.post(RoutedEvent {
                        slot: (i % 4) as u8,
                        event: if i % 10 == 0 { 66 } else { 2 },
                        args: Vec::new(),
                    });
                }
                let mut cost = CpuCost::ZERO;
                while let Some(ev) = r.next(&mut cost) {
                    black_box(&ev);
                }
                black_box(cost)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_router);
criterion_main!(benches);
