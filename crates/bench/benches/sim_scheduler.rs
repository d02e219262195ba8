//! The event queue under steady's shape: a 200,000-deep stream of
//! requests staggered 20 ms apart, scheduled in order ahead of time,
//! each answered by a reply that lands long before the stream's tail.
//!
//! One iteration serves one request: it pops the request, schedules its
//! reply 7 ms later (below the queue's last key, so out of order),
//! appends a fresh request at the tail (in order, keeping the depth at
//! 200,000) and pops the reply.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use upnp_sim::{Scheduler, SimDuration, SimTime};

const DEPTH: u64 = 200_000;
const STAGGER: SimDuration = SimDuration::from_millis(20);
const REPLY: SimDuration = SimDuration::from_millis(7);

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_scheduler");
    g.bench_function("in_order_200k_with_replies", |b| {
        let mut sched: Scheduler<u64> = Scheduler::with_capacity(DEPTH as usize);
        let mut tail = SimTime::ZERO;
        for i in 0..DEPTH {
            tail = SimTime::ZERO + STAGGER.saturating_mul(i);
            sched.schedule_at(tail, i);
        }
        b.iter(|| {
            let request = sched.pop().expect("the stream never runs dry");
            sched.schedule_in(REPLY, request.event);
            tail += STAGGER;
            sched.schedule_at(tail, request.event + DEPTH);
            black_box(sched.pop().expect("the reply is next"))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
