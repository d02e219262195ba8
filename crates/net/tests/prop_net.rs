//! Property tests for the network layer: codec totality/roundtrips, the
//! addressing schema and routing invariants.

use proptest::prelude::*;
use upnp_net::addr;
use upnp_net::link::{LinkDegrade, LinkQuality};
use upnp_net::msg::{Message, MessageBody, Value};
use upnp_net::rpl::{Dodag, Topology};
use upnp_net::tlv::{Tlv, TlvList, TlvType};
use upnp_net::{Datagram, Network, NodeId};
use upnp_sim::{SimDuration, SimTime};

/// Draws bytes from a property's material, cycling through it (zero
/// when it is empty).
struct Material<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Material<'_> {
    fn next(&mut self) -> u8 {
        let b = self.bytes.get(self.at % self.bytes.len().max(1)).copied();
        self.at += 1;
        b.unwrap_or(0)
    }

    fn take(&mut self, n: usize, out: &mut Vec<u8>) {
        for _ in 0..n {
            out.push(self.next());
        }
    }

    /// A count byte and that many tuples of a few bytes each.
    fn tlv_list(&mut self, out: &mut Vec<u8>) {
        let count = self.next() % 4;
        out.push(count);
        for _ in 0..count {
            out.push(self.next());
            let len = self.next() % 8;
            out.push(len);
            self.take(len as usize, out);
        }
    }

    /// A value tag (or an unknown one) and its bytes.
    fn value(&mut self, out: &mut Vec<u8>) {
        let tag = self.next() % 5;
        out.push(tag);
        match tag {
            1 | 2 => self.take(4, out),
            3 => {
                let len = self.next() % 8;
                out.push(len);
                self.take(len as usize, out);
            }
            _ => {}
        }
    }
}

/// A frame of wire type `ty` laid out field by field as a sender
/// writes it, every field, count and length drawn from `material`: most
/// frames are well-formed, and a drawn length or flag can make one not.
fn frame(ty: u8, seq: u16, material: &[u8]) -> Vec<u8> {
    let mut m = Material {
        bytes: material,
        at: 0,
    };
    let mut out = vec![ty];
    out.extend_from_slice(&seq.to_be_bytes());
    match ty {
        1 | 3 => {
            let count = m.next() % 3;
            out.push(count);
            for _ in 0..count {
                m.take(4, &mut out);
                m.tlv_list(&mut out);
            }
        }
        2 => m.tlv_list(&mut out),
        4 | 8 | 10 | 12 | 15 => m.take(4, &mut out),
        5 => {
            m.take(4, &mut out);
            let len = m.next() % 16;
            out.extend_from_slice(&u16::from(len).to_be_bytes());
            m.take(len as usize, &mut out);
        }
        6 => {}
        7 => {
            let count = m.next() % 4;
            out.push(count);
            m.take(6 * count as usize, &mut out);
        }
        9 | 17 => m.take(5, &mut out),
        11 | 14 | 16 => {
            m.take(4, &mut out);
            m.value(&mut out);
        }
        13 => m.take(20, &mut out),
        18 => m.take(8, &mut out),
        19 => {
            m.take(10, &mut out);
            let len = m.next() % 80;
            out.push(len);
            m.take(len as usize, &mut out);
        }
        20 => {
            m.take(6, &mut out);
            let flag = m.next() % 3;
            out.push(flag);
            if flag == 1 {
                let len = m.next() % 16;
                out.extend_from_slice(&u16::from(len).to_be_bytes());
                m.take(len as usize, &mut out);
            }
        }
        _ => m.take(material.len() % 8, &mut out),
    }
    out
}

proptest! {
    /// The message decoder never panics on arbitrary payloads, and a
    /// payload it accepts is the encoding of what it decoded.
    #[test]
    fn decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        if let Some(m) = Message::decode(&bytes) {
            prop_assert_eq!(m.encode(), bytes);
        }
    }

    /// Every frame the decoder accepts re-encodes to exactly its bytes:
    /// frames of every wire type (and unknown ones), laid out by field
    /// and then left whole, overwritten at one byte, cut short or
    /// extended by one.
    #[test]
    fn accepted_frames_reencode_to_their_bytes(
        ty in 0u8..22,
        seq: u16,
        material in prop::collection::vec(any::<u8>(), 0..48),
        (edit, at, byte) in (0u8..4, any::<u16>(), any::<u8>()),
    ) {
        let mut bytes = frame(ty, seq, &material);
        let at = at as usize % bytes.len();
        match edit {
            1 => bytes[at] = byte,
            2 => bytes.truncate(at),
            3 => bytes.push(byte),
            _ => {}
        }
        if let Some(m) = Message::decode(&bytes) {
            prop_assert_eq!(m.encode(), bytes, "{:?}", m);
        }
    }

    /// Scalar-bearing messages roundtrip for arbitrary field values.
    #[test]
    fn scalar_messages_roundtrip(seq: u16, peripheral: u32, v: i32) {
        for body in [
            MessageBody::Read { peripheral },
            MessageBody::DriverRequest { peripheral },
            MessageBody::Data { peripheral, value: Value::I32(v) },
            MessageBody::Write { peripheral, value: Value::F32(v as f32) },
            MessageBody::WriteAck { peripheral, ok: v % 2 == 0 },
        ] {
            let m = Message { seq, body };
            prop_assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        }
    }

    /// Byte-payload messages roundtrip for arbitrary contents.
    #[test]
    fn byte_messages_roundtrip(
        seq: u16,
        peripheral: u32,
        payload in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let m = Message {
            seq,
            body: MessageBody::DriverUpload { peripheral, image: payload.clone() },
        };
        prop_assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        let m = Message {
            seq,
            body: MessageBody::Data {
                peripheral,
                value: Value::Bytes(payload.into_iter().take(255).collect()),
            },
        };
        prop_assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    /// TLV lists roundtrip for arbitrary tuples.
    #[test]
    fn tlv_roundtrip(items in prop::collection::vec(
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..60)),
        0..10,
    )) {
        let tuples = items
            .iter()
            .map(|(tag, value)| Tlv::new(TlvType::from_tag(*tag), value));
        let list = TlvList::new(tuples.clone());
        prop_assert!(list.iter().eq(tuples));
        let mut buf = Vec::new();
        list.encode(&mut buf);
        let mut i = 0;
        let back = TlvList::decode(&buf, &mut i).unwrap();
        prop_assert_eq!(back, list);
        prop_assert_eq!(i, buf.len());
    }

    /// The multicast schema embeds and recovers prefix and peripheral for
    /// any inputs.
    #[test]
    fn schema_roundtrip(prefix in 0u64..(1u64 << 48), peripheral: u32) {
        let g = addr::peripheral_group(prefix, peripheral);
        prop_assert!(g.is_multicast());
        prop_assert_eq!(addr::peripheral_of(g), Some(peripheral));
        prop_assert_eq!(addr::prefix_of(g), Some(prefix));
    }

    /// On random connected topologies, every tree route starts and ends at
    /// the right nodes, uses only existing links and visits no node twice.
    #[test]
    fn routes_are_simple_paths(
        n in 2usize..20,
        extra_links in prop::collection::vec((0usize..20, 0usize..20), 0..15),
        src in 0usize..20,
        dst in 0usize..20,
    ) {
        let mut topo = Topology::new(n);
        // A spanning chain guarantees connectivity.
        for i in 1..n {
            topo.link(i, i - 1, LinkQuality::PERFECT);
        }
        for (a, b) in extra_links {
            let (a, b) = (a % n, b % n);
            if a != b {
                topo.link(a, b, LinkQuality::new(0.9));
            }
        }
        let dodag = Dodag::build(&topo, 0);
        let (src, dst) = (src % n, dst % n);
        let path = dodag.route(src, dst).unwrap();
        prop_assert_eq!(*path.first().unwrap(), src);
        prop_assert_eq!(*path.last().unwrap(), dst);
        for w in path.windows(2) {
            prop_assert!(topo.quality(w[0], w[1]).is_some(), "missing link {w:?}");
        }
        let unique: std::collections::HashSet<_> = path.iter().collect();
        prop_assert_eq!(unique.len(), path.len(), "route revisits a node");
    }

    /// A pair of shard slices over one global node-id space — every node
    /// present in both, each slice linking only its own members under the
    /// shared root — carries exactly the global membership, each node's
    /// in its owning slice, under arbitrary join/leave/reroot churn and
    /// sends interleaved with shard-boundary rebalancing (a node migrating
    /// between slices, both slices rebuilt and memberships replayed into
    /// the new owner).
    #[test]
    fn shard_slice_membership_survives_rebalancing(
        n in 3usize..12,
        assign_bits in any::<u16>(),
        ops in prop::collection::vec((0u8..6, 0usize..12, 0usize..12), 1..40),
    ) {
        const PREFIX: u64 = 0x2001_0db8_0000;
        let group_of = |g: usize| addr::peripheral_group(PREFIX, (g % 3) as u32);
        // Node 0 is the replicated root; the rest belong to one of two
        // shards. `owner[i]` is the current assignment.
        let mut owner: Vec<usize> = (0..n)
            .map(|i| usize::from(assign_bits & (1 << i) != 0))
            .collect();
        owner[0] = usize::MAX; // the root is in every slice
        // Global membership model: (node, group) pairs.
        let mut members: std::collections::BTreeSet<(usize, std::net::Ipv6Addr)> =
            std::collections::BTreeSet::new();

        // Builds one slice: all nodes added (so ids and addresses match
        // the global space), links only for the slice's own members, the
        // shared tree root, and the current memberships of its nodes.
        let build_slice = |shard: usize,
                           owner: &[usize],
                           members: &std::collections::BTreeSet<(usize, std::net::Ipv6Addr)>|
         -> Network {
            let mut net = Network::new(PREFIX, 0x6030 + shard as u64);
            let nodes: Vec<NodeId> = (0..n).map(|_| net.add_node()).collect();
            for i in 1..n {
                if owner[i] == shard {
                    net.link(nodes[0], nodes[i], LinkQuality::PERFECT);
                }
            }
            net.build_tree(nodes[0]);
            net.set_replicated_nodes([nodes[0]]);
            net.enable_cross_shard_capture();
            for &(node, group) in members {
                if owner[node] == shard {
                    net.join_group(NodeId(node as u32), group);
                }
            }
            net
        };

        let mut slices = [build_slice(0, &owner, &members), build_slice(1, &owner, &members)];
        let mut t = SimTime::ZERO;
        for (op, a, b) in ops {
            let (a, b) = (1 + a % (n - 1), b % 12); // a: never the root
            match op {
                0 => {
                    members.insert((a, group_of(b)));
                    slices[owner[a]].join_group(NodeId(a as u32), group_of(b));
                }
                1 => {
                    members.remove(&(a, group_of(b)));
                    slices[owner[a]].leave_group(NodeId(a as u32), group_of(b));
                }
                2 => {
                    // Rebalance: move `a` across the shard boundary and
                    // rebuild both slices, replaying memberships.
                    owner[a] = 1 - owner[a];
                    slices = [build_slice(0, &owner, &members), build_slice(1, &owner, &members)];
                }
                3 => {
                    // Reroot both slices (topology churn).
                    for s in &mut slices {
                        s.build_tree(NodeId(0));
                    }
                }
                4 => {
                    t += SimDuration::from_millis(50);
                    let d = Datagram {
                        src: slices[owner[a]].addr_of(NodeId(a as u32)),
                        dst: group_of(b),
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xcd; 16].into(),
                    };
                    slices[owner[a]].send(t, NodeId(a as u32), d);
                    // Continue the dissemination in the sibling slice, as
                    // the shard coordinator would.
                    for f in slices[owner[a]].take_cross_frames() {
                        slices[1 - owner[a]].multicast_from_root(f.at_root, f.dgram);
                    }
                }
                _ => {
                    t += SimDuration::from_millis(50);
                    let shard = owner[a];
                    let dst = slices[shard].addr_of(NodeId(((a + 1) % n) as u32));
                    let d = Datagram {
                        src: slices[shard].addr_of(NodeId(a as u32)),
                        dst,
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xef; 16].into(),
                    };
                    slices[shard].send(t, NodeId(a as u32), d);
                }
            }
            // The slices together must carry exactly the global
            // membership, each node's membership in its owning slice.
            for &(node, group) in &members {
                prop_assert!(
                    slices[owner[node]]
                        .group_members(group)
                        .any(|m| m == NodeId(node as u32)),
                    "membership lost after rebalancing"
                );
            }
        }
        for s in &mut slices {
            s.poll(SimTime::MAX);
        }
    }

    /// Multi-instance anycast (the distribution tier's addressing mode):
    /// under arbitrary instance join/leave churn, topology growth, cuts,
    /// relinks at drawn qualities and reroots, every send resolves to the
    /// *nearest live instance* by DODAG hop distance (ties to the lowest
    /// node id), and after every `build_tree`, reused or rebuilt, each
    /// node's DODAG parent is the one a fresh build over the current edge
    /// set gives.
    #[test]
    fn anycast_resolves_nearest_live_instance_under_churn(
        n in 2usize..14,
        ops in prop::collection::vec((0u8..8, 0usize..14, 0usize..14, 0usize..3), 1..40),
    ) {
        const PREFIX: u64 = 0x2001_0db8_0000;
        let mgr: std::net::Ipv6Addr = "2001:db8:aaaa::1".parse().unwrap();
        let mut net = Network::new(PREFIX, 0x6030);
        let nodes: Vec<NodeId> = (0..n).map(|_| net.add_node()).collect();
        // The edge set the oracle rebuilds from scratch.
        let mut edges = std::collections::BTreeMap::new();
        for i in 1..n {
            net.link(nodes[i], nodes[i - 1], LinkQuality::PERFECT);
            edges.insert((i - 1, i), LinkQuality::PERFECT);
        }
        net.build_tree(nodes[0]);
        // Node 0 is the always-present origin instance.
        net.set_anycast(nodes[0], mgr);
        let mut instances: std::collections::BTreeSet<usize> = [0].into();
        let mut t = SimTime::ZERO;
        for (op, a, b, q) in ops {
            let (a, b) = (a % n, b % n);
            let edge = (a.min(b), a.max(b));
            let rebuild = match op {
                0 => {
                    // An edge cache joins the tier.
                    net.set_anycast(nodes[a], mgr);
                    instances.insert(a);
                    None
                }
                1 if a != 0 => {
                    // An edge cache leaves (the origin never does).
                    net.unset_anycast(nodes[a], mgr);
                    instances.remove(&a);
                    None
                }
                2 if a != b => {
                    net.link(nodes[a], nodes[b], LinkQuality::PERFECT);
                    edges.insert(edge, LinkQuality::PERFECT);
                    Some((0, false))
                }
                3 => Some((a, false)),
                4 if a != b => {
                    // A cut; the DODAG notices at the next reroot.
                    net.unlink(nodes[a], nodes[b]);
                    edges.remove(&edge);
                    None
                }
                5 if a != b => {
                    // A relink at a drawn quality: a heal when it matches
                    // the quality the edge had.
                    let quality = LinkQuality::new([0.25, 0.5, 1.0][q]);
                    net.link(nodes[a], nodes[b], quality);
                    edges.insert(edge, quality);
                    None
                }
                _ => Some((0, true)), // a send, after re-pinning the root
            };
            let Some((root, send)) = rebuild else { continue };
            net.build_tree(nodes[root]);
            // The oracle links the edges in descending order, so its
            // neighbour lists differ from the network's.
            let mut fresh = Topology::new(n);
            for (&(u, v), &quality) in edges.iter().rev() {
                fresh.link(u, v, quality);
            }
            let dodag = Dodag::build(&fresh, root);
            for (i, &node) in nodes.iter().enumerate() {
                prop_assert_eq!(net.dodag_parent(node), dodag.parent[i].map(|p| nodes[p]));
            }
            if !send {
                continue;
            }
            // Send to the anycast address and check the delivery lands
            // on the oracle's nearest live instance.
            let expected = instances
                .iter()
                .filter_map(|&i| dodag.distance(a, i).map(|d| (d, i)))
                .min();
            t += SimDuration::from_millis(50);
            let d = Datagram {
                src: net.addr_of(nodes[a]),
                dst: mgr,
                src_port: addr::MCAST_PORT,
                dst_port: addr::MCAST_PORT,
                payload: vec![0xaa; 8].into(),
            };
            net.send(t, nodes[a], d);
            let deliveries = net.poll(SimTime::MAX);
            let Some((_, want)) = expected else {
                // Cut off from every instance, the origin included.
                prop_assert!(deliveries.is_empty(), "an unreachable sender delivers nothing");
                continue;
            };
            let route = dodag.route(a, want).expect("the oracle reached it");
            if route
                .windows(2)
                .all(|hop| edges[&(hop[0].min(hop[1]), hop[0].max(hop[1]))] == LinkQuality::PERFECT)
            {
                prop_assert_eq!(deliveries.len(), 1, "perfect links always deliver");
            }
            prop_assert!(deliveries.len() <= 1, "one send, at most one delivery");
            for delivery in &deliveries {
                prop_assert_eq!(
                    delivery.node,
                    nodes[want],
                    "must land on the nearest live instance"
                );
            }
        }
    }

    /// Ungraceful instance death (the chaos harness's cache crash): a
    /// crashed node must vanish from every anycast set it served, so
    /// every later send resolves to the next-nearest *live* instance —
    /// checked against a fresh-built DODAG oracle under arbitrary
    /// join/leave/crash/revive churn and reroots.
    #[test]
    fn instance_death_invalidates_memos_under_crash_churn(
        n in 2usize..14,
        ops in prop::collection::vec((0u8..7, 0usize..14, 0usize..14), 1..40),
    ) {
        const PREFIX: u64 = 0x2001_0db8_0000;
        let mgr: std::net::Ipv6Addr = "2001:db8:aaaa::1".parse().unwrap();
        let origin: std::net::Ipv6Addr = "2001:db8:aaaa::2".parse().unwrap();
        let mut net = Network::new(PREFIX, 0x6030);
        let nodes: Vec<NodeId> = (0..n).map(|_| net.add_node()).collect();
        let mut mirror = Topology::new(n);
        for i in 1..n {
            net.link(nodes[i], nodes[i - 1], LinkQuality::PERFECT);
            mirror.link(i, i - 1, LinkQuality::PERFECT);
        }
        net.build_tree(nodes[0]);
        // Node 0 is the origin, an instance of both tier addresses.
        net.set_anycast(nodes[0], mgr);
        net.set_anycast(nodes[0], origin);
        let mut instances: std::collections::BTreeSet<usize> = [0].into();
        let mut t = SimTime::ZERO;
        for (op, a, b) in ops {
            let (a, b) = (a % n, b % n);
            match op {
                0 => {
                    // An edge cache joins the manager tier.
                    net.set_anycast(nodes[a], mgr);
                    instances.insert(a);
                }
                1 if a != 0 => {
                    // Graceful leave.
                    net.unset_anycast(nodes[a], mgr);
                    instances.remove(&a);
                }
                2 if a != 0 => {
                    // Ungraceful crash: the process dies mid-whatever.
                    // Every anycast identity it held must go with it.
                    net.fail_node(nodes[a]);
                    instances.remove(&a);
                }
                3 => {
                    // Revive: the cache process restarts and re-joins.
                    net.set_anycast(nodes[a], mgr);
                    instances.insert(a);
                }
                4 if a != b => {
                    net.link(nodes[a], nodes[b], LinkQuality::PERFECT);
                    mirror.link(a, b, LinkQuality::PERFECT);
                    net.build_tree(nodes[0]);
                }
                5 => {
                    net.build_tree(nodes[a]);
                }
                _ => {
                    let root = 0; // re-pin so the oracle is simple
                    net.build_tree(nodes[root]);
                    let dodag = Dodag::build(&mirror, root);
                    let expected = instances
                        .iter()
                        .filter_map(|&i| dodag.distance(a, i).map(|d| (d, i)))
                        .min();
                    t += SimDuration::from_millis(50);
                    let d = Datagram {
                        src: net.addr_of(nodes[a]),
                        dst: mgr,
                        src_port: addr::MCAST_PORT,
                        dst_port: addr::MCAST_PORT,
                        payload: vec![0xaa; 8].into(),
                    };
                    net.send(t, nodes[a], d);
                    let deliveries = net.poll(SimTime::MAX);
                    let (_, want) = expected.expect("the origin never crashes");
                    prop_assert_eq!(deliveries.len(), 1, "perfect links always deliver");
                    prop_assert_eq!(
                        deliveries[0].node,
                        nodes[want],
                        "must land on the nearest instance still alive"
                    );
                }
            }
            // The origin's second identity survives every crash of others.
            prop_assert!(instances.contains(&0));
        }
    }

    /// The gray-link degrade schedule is a pure function of
    /// `(seed, directed node pair, window of the instant)`: a whole
    /// network and two arbitrarily-partitioned shard slices over the
    /// same node-id space — each holding a different subset of the
    /// links, with the degrade installed on all three — must return the
    /// same verdict for every probe, equal to evaluating the schedule
    /// standalone, and constant across instants inside one window. This
    /// is the property that makes gray soaks bit-identical under
    /// sharding: whichever shard executes a hop computes the same mode.
    #[test]
    fn gray_degrade_schedule_is_pure_across_partitions(
        n in 2usize..14,
        seed in any::<u64>(),
        assign_bits in any::<u16>(),
        probes in prop::collection::vec(
            (0usize..14, 0usize..14, 0u64..120_000),
            1..60,
        ),
    ) {
        const PREFIX: u64 = 0x2001_0db8_0000;
        let degrade = LinkDegrade::seeded(seed);
        let mut whole = Network::new(PREFIX, 0x6030);
        let mut slices = [Network::new(PREFIX, 0x6031), Network::new(PREFIX, 0x6032)];
        let nodes: Vec<NodeId> = (0..n).map(|_| whole.add_node()).collect();
        for s in &mut slices {
            for _ in 0..n {
                s.add_node();
            }
        }
        // The whole world holds the spanning chain; each slice holds
        // only the edges whose child it owns under `assign_bits`.
        for i in 1..n {
            whole.link(nodes[i], nodes[i - 1], LinkQuality::PERFECT);
            let shard = usize::from(assign_bits & (1 << i) != 0);
            slices[shard].link(nodes[i], nodes[i - 1], LinkQuality::PERFECT);
        }
        whole.set_link_degrade(Some(degrade));
        for s in &mut slices {
            s.set_link_degrade(Some(degrade));
        }
        for (a, b, millis) in probes {
            let (tx, rx) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
            let at = SimTime::ZERO + SimDuration::from_millis(millis);
            let want = degrade.mode_at(tx, rx, at);
            prop_assert_eq!(whole.degrade_mode(tx, rx, at), want);
            prop_assert_eq!(slices[0].degrade_mode(tx, rx, at), want);
            prop_assert_eq!(slices[1].degrade_mode(tx, rx, at), want);
            // Constant inside the window: re-probe at the window's
            // midpoint and at its last nanosecond.
            let w = degrade.window.as_nanos().max(1);
            let idx = at.as_nanos() / w;
            for within in [idx * w + w / 2, idx * w + w - 1] {
                let t2 = SimTime::ZERO + SimDuration::from_nanos(within);
                prop_assert_eq!(degrade.mode_at(tx, rx, t2), want);
            }
        }
    }

    /// On a hub with 2,000 neighbours, random link, relink and unlink
    /// sequences among the hub and 63 of its neighbours keep the
    /// topology in step with a reference edge map: `quality` agrees from
    /// both ends, a relink keeps both entries where they were, a new link
    /// appends to both lists, and `unlink` reports whether the edge
    /// existed and removes only that edge's two entries.
    #[test]
    fn topology_matches_a_reference_edge_map(
        ops in prop::collection::vec((any::<bool>(), 0usize..64, 0usize..64, 1u8..=100), 1..80),
    ) {
        const HUB_NEIGHBOURS: usize = 2_000;
        let mut topo = Topology::new(HUB_NEIGHBOURS + 1);
        let mut edges = std::collections::BTreeMap::new();
        for leaf in 1..=HUB_NEIGHBOURS {
            topo.link(0, leaf, LinkQuality::PERFECT);
            edges.insert((0, leaf), LinkQuality::PERFECT);
        }
        let position = |topo: &Topology, a: usize, b: usize| {
            topo.neighbours(a).iter().position(|&(n, _)| n == b)
        };
        for (link, a, b, q) in ops {
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            let (before_a, before_b) = (topo.neighbours(a).to_vec(), topo.neighbours(b).to_vec());
            if link {
                let quality = LinkQuality::new(f64::from(q) / 100.0);
                let existed = edges.insert(key, quality).is_some();
                let (at_a, at_b) = (position(&topo, a, b), position(&topo, b, a));
                topo.link(a, b, quality);
                if existed {
                    prop_assert_eq!(position(&topo, a, b), at_a, "relink moved {a}->{b}");
                    prop_assert_eq!(position(&topo, b, a), at_b, "relink moved {b}->{a}");
                } else {
                    prop_assert_eq!(position(&topo, a, b), Some(before_a.len()));
                    prop_assert_eq!(position(&topo, b, a), Some(before_b.len()));
                }
            } else {
                let existed = edges.remove(&key).is_some();
                prop_assert_eq!(topo.unlink(a, b), existed);
                let keep = |list: &[(usize, LinkQuality)], gone: usize| -> Vec<(usize, LinkQuality)> {
                    list.iter().copied().filter(|&(n, _)| n != gone).collect()
                };
                prop_assert_eq!(topo.neighbours(a), &keep(&before_a, b)[..]);
                prop_assert_eq!(topo.neighbours(b), &keep(&before_b, a)[..]);
            }
            prop_assert_eq!(topo.quality(a, b), edges.get(&key).copied());
            prop_assert_eq!(topo.quality(b, a), edges.get(&key).copied());
        }
        for a in 0..64 {
            for b in 0..64 {
                let key = (a.min(b), a.max(b));
                prop_assert_eq!(topo.quality(a, b), edges.get(&key).copied(), "{a}->{b}");
            }
        }
        let hub_edges = edges.keys().filter(|&&(lo, _)| lo == 0).count();
        prop_assert_eq!(topo.neighbours(0).len(), hub_edges);
        prop_assert!(hub_edges >= HUB_NEIGHBOURS - 63);
    }

    /// SMRF plans cover exactly the reachable members.
    #[test]
    fn smrf_covers_members(
        n in 2usize..16,
        member_bits in any::<u16>(),
        src in 0usize..16,
    ) {
        let mut topo = Topology::new(n);
        for i in 1..n {
            topo.link(i, (i - 1) / 2, LinkQuality::PERFECT);
        }
        let dodag = Dodag::build(&topo, 0);
        let src = src % n;
        let members: std::collections::BTreeSet<usize> =
            (0..n).filter(|i| member_bits & (1 << i) != 0).collect();
        let mut scratch = upnp_net::smrf::MarkScratch::new();
        let plan = upnp_net::smrf::plan(&dodag, src, members.iter().copied(), &mut scratch).unwrap();
        let planned: std::collections::BTreeSet<usize> =
            plan.member_hops.iter().map(|(m, _)| *m).collect();
        prop_assert_eq!(planned, members);
    }
}
