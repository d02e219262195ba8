//! Network-layer kernels: message codec, multicast address generation,
//! SMRF planning, frame-level sends and the DODAG rebuild a soak's reroot
//! storm asks for.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use upnp_net::addr;
use upnp_net::link::LinkQuality;
use upnp_net::msg::{AdvertisedPeripheral, Message, MessageBody};
use upnp_net::rpl::{Dodag, Topology};
use upnp_net::tlv::{Tlv, TlvList, TlvType};
use upnp_net::{Datagram, Network, NodeId};
use upnp_sim::{SimDuration, SimTime};

/// The soak's shape as `(node count, edges)`: node 0 is the border
/// router, node 1 its standby, nodes 2–9 eight edge caches that each head
/// a star of every eighth of 5,000 Things, and four clients sit beside the
/// router.
fn soak_shape() -> (usize, Vec<(usize, usize)>) {
    const CACHES: usize = 8;
    const THINGS: usize = 5_000;
    let first_thing = 2 + CACHES;
    let first_client = first_thing + THINGS;
    let mut edges = vec![(0, 1)];
    edges.extend((2..first_thing).map(|cache| (0, cache)));
    edges.extend((0..THINGS).map(|i| (2 + i % CACHES, first_thing + i)));
    edges.extend((first_client..first_client + 4).map(|client| (0, client)));
    (first_client + 4, edges)
}

fn bench_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_protocol");

    g.bench_function("generate_multicast_address", |b| {
        b.iter(|| black_box(addr::peripheral_group(0x2001_0db8_0000, 0xed3f_0ac1)))
    });

    let adv = Message {
        seq: 7,
        body: MessageBody::UnsolicitedAdvertisement(vec![AdvertisedPeripheral {
            peripheral: 0xad1c_be01,
            tlvs: TlvList::new([
                Tlv::text(TlvType::Name, "TMP36 temperature sensor"),
                Tlv::text(TlvType::Unit, "degC"),
                Tlv::new(TlvType::Channel, &[0]),
            ]),
        }]),
    };
    let wire = adv.encode();
    g.bench_function("encode_advertisement", |b| {
        b.iter(|| black_box(adv.encode()))
    });
    g.bench_function("decode_advertisement", |b| {
        b.iter(|| black_box(Message::decode(&wire).unwrap()))
    });

    g.bench_function("smrf_plan_64_nodes", |b| {
        // A binary tree of 64 nodes with 8 members.
        let mut topo = Topology::new(64);
        for i in 1..64 {
            topo.link(i, (i - 1) / 2, LinkQuality::PERFECT);
        }
        let dodag = Dodag::build(&topo, 0);
        let mut scratch = upnp_net::smrf::MarkScratch::new();
        b.iter(|| black_box(upnp_net::smrf::plan(&dodag, 5, 56..64, &mut scratch).unwrap()))
    });

    g.bench_function("unicast_send_3_hops", |b| {
        let mut net = Network::new(0x2001_0db8_0000, 1);
        let n: Vec<_> = (0..4).map(|_| net.add_node()).collect();
        for w in n.windows(2) {
            net.link(w[0], w[1], LinkQuality::PERFECT);
        }
        net.build_tree(n[0]);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_secs(1);
            let d = Datagram {
                src: net.addr_of(n[3]),
                dst: net.addr_of(n[0]),
                src_port: addr::MCAST_PORT,
                dst_port: addr::MCAST_PORT,
                payload: vec![0; 32].into(),
            };
            black_box(net.send(t, n[3], d));
            net.poll(SimTime::MAX)
        })
    });

    let (nodes, edges) = soak_shape();
    g.bench_function("dodag_build_5k_star", |b| {
        let mut topo = Topology::new(nodes);
        for &(a, c) in &edges {
            topo.link(a, c, LinkQuality::PERFECT);
        }
        b.iter(|| black_box(Dodag::build(&topo, 0)))
    });

    g.bench_function("reroot_after_heal", |b| {
        let mut net = Network::new(0x2001_0db8_0000, 1);
        for _ in 0..nodes {
            net.add_node();
        }
        let id = |n: usize| NodeId(n as u32);
        for &(a, c) in &edges {
            net.link(id(a), id(c), LinkQuality::PERFECT);
        }
        net.build_tree(id(0));
        // The soak's partition: cut the router's edge to a cache, heal it
        // at the quality it had, then reroot.
        b.iter(|| {
            net.unlink(id(0), id(2));
            net.link(id(0), id(2), LinkQuality::PERFECT);
            net.build_tree(id(0));
            black_box(net.dodag_parent(id(2)))
        })
    });

    g.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
