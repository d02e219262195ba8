//! A [`World`] partitioned across threads with deterministic merge.
//!
//! [`ShardedWorld`] cuts the fleet along DODAG subtree boundaries — the
//! natural partition for UPnP-style device management, where a Thing only
//! ever converses with the border router above it — and simulates each
//! partition on its own worker thread as a complete [`World`] over a
//! *slice* of the global network. The design goal is not "roughly the
//! same answer, faster": every fingerprint, latency percentile and joules
//! counter must be **bit-identical** to the sequential simulator at K = 1
//! and independent of K. Three properties carry that guarantee:
//!
//! 1. **Decomposed randomness.** Radio draws are keyed per
//!    `(link, hop start time)` (see [`upnp_net::Network`]), and per-Thing
//!    jitter is keyed by node id (see [`World::add_thing`]). No sequential
//!    stream couples unrelated traffic, so simulating subtrees in any
//!    order — or concurrently — produces the same numbers.
//! 2. **Replicated shared endpoints.** The manager and the clients exist
//!    in every shard. The manager's replies are a pure function of each
//!    request, so replicas cannot diverge; client replicas record the
//!    observations of their own shard, and the coordinator merges the
//!    streams in `(virtual time, shard)` order after every round.
//! 3. **Epoch-exchanged cross-shard frames.** The rare multicast whose
//!    group spans shards (a typed discovery probe) is captured when it
//!    reaches the shard's DODAG root and re-played from the root in every
//!    other shard between rounds, in `(virtual time, source shard,
//!    capture order)` — so the merged event stream is independent of
//!    thread scheduling.
//!
//! Shard counts beyond the number of root-child subtrees buy nothing (a
//! subtree is never split); star topologies therefore scale to any K,
//! while a fanout-f tree parallelises at most f ways.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use upnp_net::network::{NetStats, RootedFrame};
use upnp_net::rpl::{Dodag, Topology};
use upnp_net::{Datagram, NodeId};
use upnp_sim::SimTime;

use crate::catalog::Catalog;
use crate::client::Client;
use crate::thing::Thing;
use crate::world::{
    BuildPlan, ClientId, DistroStats, Effect, SimWorld, ThingId, World, WorldConfig, WorldOp,
};

/// Per-(shard, client) drain cursors into the replica's observation
/// vectors, so each merge only touches the new tail.
#[derive(Debug, Clone, Copy, Default)]
struct ClientCursor {
    discovered: usize,
    readings: usize,
    stream_data: usize,
    closed_streams: usize,
    write_acks: usize,
    /// Last-seen size of the replica's (insert-only) stream-group map.
    stream_groups: usize,
}

/// A fleet [`World`] sharded across `K` worker threads along DODAG
/// subtree boundaries, bit-identical to the sequential simulator (see
/// the module docs for why).
///
/// It is built whole from a [`BuildPlan`]: the plan's links fix the
/// subtree structure, which partitions the Things and caches before any
/// shard world exists.
pub struct ShardedWorld {
    shards: Vec<World>,
    /// Global thing index → (owning shard, local index in that shard).
    thing_home: Vec<(usize, usize)>,
    /// Owning shard of every node simulated in one shard only: Things
    /// and edge caches. Replicated nodes (manager, standby, clients) are
    /// absent.
    node_shard: HashMap<NodeId, usize>,
    /// Master clients: the merged observation streams, and the sequence
    /// counters request builders draw from (so wire seq numbers follow
    /// the global issue order exactly as in the sequential world).
    clients: Vec<Client>,
    cursors: Vec<Vec<ClientCursor>>,
    now: SimTime,
}

impl ShardedWorld {
    /// Builds the world `plan` describes, partitioned across (up to)
    /// `shards` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(config: WorldConfig, plan: &BuildPlan, shards: usize) -> Self {
        assert!(shards > 0, "a sharded world needs at least one shard");
        let node_shard = Self::partition(plan, shards);

        // The per-shard builds are independent, and at fleet scale each
        // one replays the full plan and allocates a full node table —
        // build them on worker threads so startup does not serialise
        // what the round loop parallelises. A shard simulates the
        // replicated nodes and the Things and caches it owns.
        let build_shard = |s: usize| {
            let mut w = World::from_plan_where(config.clone(), plan, |n| {
                node_shard.get(&n).is_none_or(|&owner| owner == s)
            });
            w.net.set_replicated_nodes(plan.replicated());
            w.net.enable_cross_shard_capture();
            w
        };
        let mut worlds: Vec<World> = Vec::with_capacity(shards);
        if shards == 1 {
            worlds.push(build_shard(0));
        } else {
            let build_shard = &build_shard;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|s| scope.spawn(move || build_shard(s)))
                    .collect();
                for h in handles {
                    worlds.push(h.join().expect("shard builder thread"));
                }
            });
        }

        // A shard numbers the Things it owns in plan order.
        let mut next = vec![0usize; shards];
        let thing_home = plan
            .things
            .iter()
            .map(|node| {
                let s = node_shard[node];
                next[s] += 1;
                (s, next[s] - 1)
            })
            .collect();
        let clients: Vec<Client> = (0..plan.clients.len())
            .map(|c| {
                let replica = worlds[0].client(ClientId(c));
                Client::new(replica.node, replica.address, config.prefix)
            })
            .collect();
        ShardedWorld {
            cursors: vec![vec![ClientCursor::default(); clients.len()]; shards],
            thing_home,
            node_shard,
            clients,
            shards: worlds,
            now: SimTime::ZERO,
        }
    }

    /// The number of shards the world runs on.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Partitions Things and edge caches into shards by DODAG subtree:
    /// every node maps to its root-child ancestor, and whole subtrees go
    /// to the shard with the fewest Things so far (deterministic greedy
    /// balance, ties to the lowest shard). A cache always lands in the
    /// shard owning its subtree, so every Thing that anycast-resolves to
    /// it is simulated on the same thread. Returns the owning shard of
    /// every Thing and cache node.
    fn partition(plan: &BuildPlan, shards: usize) -> HashMap<NodeId, usize> {
        let root = plan.manager().0 as usize;
        let mut topo = Topology::new(plan.node_count());
        for (a, b, q) in plan.links() {
            topo.link(a.0 as usize, b.0 as usize, q);
        }
        let dodag = Dodag::build(&topo, root);

        // Root-child ancestor of every node (the subtree head).
        let head_of = |node: &NodeId| -> usize {
            let mut n = node.0 as usize;
            while let Some(p) = dodag.parent[n] {
                if p == root {
                    return n;
                }
                n = p;
            }
            n // the root itself, or a detached node
        };

        // Things per subtree head, heads visited in ascending node order
        // for determinism. Cache-only subtrees participate with zero
        // weight so an empty cache still gets a deterministic owner.
        let mut head_things: HashMap<usize, Vec<NodeId>> = HashMap::new();
        for n in &plan.things {
            head_things.entry(head_of(n)).or_default().push(*n);
        }
        let mut heads: Vec<usize> = head_things
            .keys()
            .copied()
            .chain(plan.caches.iter().map(head_of))
            .collect();
        heads.sort_unstable();
        heads.dedup();

        let mut load = vec![0usize; shards];
        let mut head_shard: HashMap<usize, usize> = HashMap::new();
        let mut node_shard = HashMap::with_capacity(plan.things.len() + plan.caches.len());
        for head in heads {
            let target = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .expect(">= 1 shard");
            head_shard.insert(head, target);
            if let Some(members) = head_things.get(&head) {
                load[target] += members.len();
                node_shard.extend(members.iter().map(|&n| (n, target)));
            }
        }
        node_shard.extend(plan.caches.iter().map(|n| (*n, head_shard[&head_of(n)])));
        node_shard
    }

    /// Folds each shard replica's *new* client observations into the
    /// master clients: time-stamped streams merge in `(virtual time,
    /// shard)` order; unstamped streams (discovered peripherals, closed
    /// streams, write acks) append in shard order. Deterministic — no
    /// thread-arrival order participates.
    fn merge_clients(&mut self) {
        for c in 0..self.clients.len() {
            let id = ClientId(c);
            let mut readings = Vec::new();
            let mut stream_data = Vec::new();
            for (s, w) in self.shards.iter().enumerate() {
                let replica = w.client(id);
                let cur = &mut self.cursors[s][c];
                for item in &replica.readings[cur.readings..] {
                    readings.push((item.2, s, item.clone()));
                }
                cur.readings = replica.readings.len();
                for item in &replica.stream_data[cur.stream_data..] {
                    stream_data.push((item.2, s, item.clone()));
                }
                cur.stream_data = replica.stream_data.len();
            }
            readings.sort_by_key(|&(at, s, _)| (at, s));
            stream_data.sort_by_key(|&(at, s, _)| (at, s));
            let master = &mut self.clients[c];
            master
                .readings
                .extend(readings.into_iter().map(|(_, _, i)| i));
            master
                .stream_data
                .extend(stream_data.into_iter().map(|(_, _, i)| i));
            for (s, w) in self.shards.iter().enumerate() {
                let replica = w.client(id);
                let cur = &mut self.cursors[s][c];
                master
                    .discovered
                    .extend(replica.discovered[cur.discovered..].iter().cloned());
                cur.discovered = replica.discovered.len();
                master
                    .closed_streams
                    .extend(replica.closed_streams[cur.closed_streams..].iter().copied());
                cur.closed_streams = replica.closed_streams.len();
                master
                    .write_acks
                    .extend(replica.write_acks[cur.write_acks..].iter().copied());
                cur.write_acks = replica.write_acks.len();
                // stream_groups is insert-only, so a length cursor tells
                // whether this replica learned anything new since the
                // last round — skip the full map walk otherwise.
                if replica.stream_groups.len() > cur.stream_groups {
                    for (&g, &p) in &replica.stream_groups {
                        master.stream_groups.insert(g, p);
                    }
                    cur.stream_groups = replica.stream_groups.len();
                }
            }
        }
    }

    /// One parallel round: every shard runs its own event loop on its own
    /// thread — to idle, or (when the chaos harness pauses a wave
    /// mid-transfer) to exactly the virtual `deadline`.
    fn run_round(shards: &mut [World], until: Option<SimTime>) {
        if shards.len() == 1 {
            match until {
                None => shards[0].run_until_idle(),
                Some(deadline) => shards[0].run_until(deadline),
            }
            return;
        }
        std::thread::scope(|scope| {
            for w in shards.iter_mut() {
                scope.spawn(move || {
                    match until {
                        None => w.run_until_idle(),
                        Some(deadline) => w.run_until(deadline),
                    }
                    // Must be the closure's last act: the scope waits for
                    // closures, not for TLS destructors.
                    upnp_net::msg::flush_payload_stats();
                });
            }
        });
    }

    /// Runs rounds and exchanges cross-shard frames until quiescent —
    /// fully idle (`until: None`), or idle *up to* a virtual deadline
    /// with every shard's clock left exactly there (`until: Some`): the
    /// sharded mirror of [`SimWorld::run_until`], so fault instants mean
    /// the same thing on both simulators.
    fn run_phase(&mut self, until: Option<SimTime>) {
        loop {
            Self::run_round(&mut self.shards, until);
            self.merge_clients();

            // Epoch boundary: exchange the multicasts whose groups span
            // shards, replayed from the root in deterministic order.
            // Under a deadline every captured frame reached its root at
            // or before it, so replaying cannot leak past the pause.
            let mut frames: Vec<(usize, RootedFrame)> = Vec::new();
            for (s, w) in self.shards.iter_mut().enumerate() {
                frames.extend(w.net.take_cross_frames().into_iter().map(|f| (s, f)));
            }
            if frames.is_empty() {
                break;
            }
            frames.sort_by_key(|&(s, ref f)| (f.at_root, s));
            for (src, frame) in frames {
                for (t, w) in self.shards.iter_mut().enumerate() {
                    if t == src {
                        continue;
                    }
                    if frame.lost {
                        // The uplink died in the origin shard; this
                        // shard's members count as drops, as they would
                        // in the sequential simulator.
                        w.net.drop_from_root(&frame.dgram);
                    } else {
                        w.net
                            .multicast_from_root(frame.at_root, frame.dgram.coordination_clone());
                    }
                }
            }
        }
        self.now = match until {
            None => self
                .shards
                .iter()
                .map(|w| w.now())
                .max()
                .unwrap_or(SimTime::ZERO),
            // Every shard ran to exactly the deadline (run_until pins the
            // clock there) — so did the sequential simulator.
            Some(deadline) => deadline,
        };
    }
}

impl SimWorld for ShardedWorld {
    fn apply(&mut self, at: SimTime, op: WorldOp) -> Effect {
        match op.target().and_then(|node| self.node_shard.get(&node)) {
            Some(&s) => self.shards[s].apply(at, op),
            None => self
                .shards
                .iter_mut()
                .map(|w| w.apply(at, op))
                .fold(Effect::default(), Effect::merge),
        }
    }

    fn run_until_idle(&mut self) {
        self.run_phase(None);
    }

    fn run_until(&mut self, deadline: SimTime) {
        self.run_phase(Some(deadline));
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn catalog(&self) -> &Catalog {
        self.shards[0].catalog()
    }

    fn thing(&self, id: ThingId) -> &Thing {
        let (s, local) = self.thing_home[id.0];
        self.shards[s].thing(ThingId(local))
    }

    fn client(&self, id: ClientId) -> &Client {
        &self.clients[id.0]
    }

    fn inject(&mut self, at: SimTime, from: NodeId, dgram: Datagram) {
        // Unicasts go to the shard that simulates the destination Thing
        // or cache. Otherwise (anycast/multicast dst), a datagram sourced
        // at a Thing node runs in that Thing's shard — anycast must
        // resolve against *its* subtree's cache, as it would
        // sequentially. Everything else (client-sourced traffic) homes on
        // shard 0, whose replicas account the shared uplink.
        let owner = |node: NodeId| self.node_shard.get(&node).copied();
        let shard = self.shards[0]
            .net
            .node_by_addr(dgram.dst)
            .and_then(owner)
            .or_else(|| owner(from))
            .unwrap_or(0);
        self.shards[shard].inject(at, from, dgram);
    }

    fn client_request_read(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram {
        self.clients[client.0].read(thing, peripheral)
    }

    fn client_request_stream(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram {
        self.clients[client.0].stream(thing, peripheral)
    }

    fn dodag_parent(&self, node: NodeId) -> Option<NodeId> {
        // A Thing's or cache's subtree is fully local to its owning
        // shard, and the Dodag tie-break (lowest node id) is
        // deterministic, so the shard-local parent equals the sequential
        // one. Replicated nodes answer alike in every shard.
        let s = self.node_shard.get(&node).copied().unwrap_or(0);
        self.shards[s].dodag_parent(node)
    }

    fn manager_replicas(&self) -> u64 {
        self.shards.iter().map(|w| w.manager_replicas()).sum()
    }

    fn distro_stats(&self) -> DistroStats {
        // Caches are simulated in exactly one shard each, so their
        // counters sum without double counting; the replicated manager's
        // counters split its global load across replicas, and the sum
        // equals the sequential total.
        let mut total = DistroStats::default();
        for w in &self.shards {
            let s = w.distro_stats();
            total.cache_hits += s.cache_hits;
            total.cache_misses += s.cache_misses;
            total.cache_coalesced += s.cache_coalesced;
            total.cache_uploads += s.cache_uploads;
            total.origin_uploads += s.origin_uploads;
            total.mgr_inventory += s.mgr_inventory;
            total.mgr_removal_acks += s.mgr_removal_acks;
        }
        total
    }

    fn net_stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for w in &self.shards {
            let s = w.net.stats();
            total.frames_tx += s.frames_tx;
            total.bytes_tx += s.bytes_tx;
            total.drops += s.drops;
            total.frames_delayed += s.frames_delayed;
            total.frames_duplicated += s.frames_duplicated;
            total.frames_degraded += s.frames_degraded;
        }
        total
    }

    fn radio_energy_j(&self, node: NodeId) -> f64 {
        match self.node_shard.get(&node) {
            // A Thing's meter is charged only in its owning shard, in the
            // same causal order as the sequential simulator — bit-exact.
            Some(&s) => self.shards[s].net.radio_energy_j(node),
            // Replicated nodes (manager, clients) accrue energy in every
            // shard; the sum is order-sensitive in the last float bits
            // and is not part of any fingerprint.
            None => self.shards.iter().map(|w| w.net.radio_energy_j(node)).sum(),
        }
    }

    fn set_tracing(&mut self, enabled: bool) {
        for w in &mut self.shards {
            w.set_tracing(enabled);
        }
    }

    fn take_spans(&mut self) -> Vec<upnp_trace::Span> {
        // Every span is recorded once, in its owning shard (requests
        // resolve shard-locally; replicated managers that never see a
        // request record nothing). Concatenating and canonical-sorting
        // therefore reconstructs the sequential sequence exactly.
        let mut spans = Vec::new();
        for w in &mut self.shards {
            spans.append(&mut w.take_spans());
        }
        upnp_trace::canonical_sort(&mut spans);
        spans
    }

    fn flight_dump(&self, reason: &str) -> String {
        let mut merged = upnp_trace::FlightRecorder::new(upnp_trace::FLIGHT_RECORDER_CAPACITY);
        for w in &self.shards {
            merged.merge(w.flight_recorder());
        }
        merged.dump_json(reason)
    }
}

impl std::fmt::Debug for ShardedWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedWorld")
            .field("shards", &self.shards.len())
            .field("things", &self.thing_home.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_net::link::LinkQuality;

    fn star_world(things: usize, shards: usize) -> ShardedWorld {
        let mut plan = BuildPlan::default();
        let root = plan.add_manager();
        for _ in 0..things {
            let t = plan.add_thing();
            plan.link(root, plan.thing_node(t), LinkQuality::PERFECT);
        }
        ShardedWorld::new(WorldConfig::default(), &plan, shards)
    }

    #[test]
    fn star_partition_balances_things() {
        let w = star_world(10, 4);
        let mut load = vec![0usize; 4];
        for &(s, _) in &w.thing_home {
            load[s] += 1;
        }
        load.sort_unstable();
        assert_eq!(load, vec![2, 2, 3, 3], "greedy balance within one Thing");
    }

    #[test]
    fn tree_partition_keeps_subtrees_whole() {
        // Chain topology under two root children: two subtrees, so two
        // shards get everything regardless of the requested count.
        let mut plan = BuildPlan::default();
        let root = plan.add_manager();
        let n: Vec<NodeId> = (0..6)
            .map(|_| {
                let t = plan.add_thing();
                plan.thing_node(t)
            })
            .collect();
        // Things 0 and 1 hang off the root; 2..=3 chain under 0, 4..=5
        // chain under 1.
        for (a, b) in [(root, n[0]), (root, n[1]), (n[0], n[2])] {
            plan.link(a, b, LinkQuality::PERFECT);
        }
        for (a, b) in [(n[2], n[3]), (n[1], n[4]), (n[4], n[5])] {
            plan.link(a, b, LinkQuality::PERFECT);
        }
        let w = ShardedWorld::new(WorldConfig::default(), &plan, 8);
        let shard_of = |i: usize| w.thing_home[i].0;
        assert_eq!(shard_of(0), shard_of(2));
        assert_eq!(shard_of(0), shard_of(3));
        assert_eq!(shard_of(1), shard_of(4));
        assert_eq!(shard_of(1), shard_of(5));
        assert_ne!(shard_of(0), shard_of(1), "two subtrees spread over shards");
    }

    #[test]
    fn node_ids_match_the_sequential_world() {
        let mut seq = World::new(WorldConfig::default());
        let sm = seq.add_manager();
        let st = seq.add_thing();
        let sc = seq.add_client();

        let mut plan = BuildPlan::default();
        let m = plan.add_manager();
        let t = plan.add_thing();
        let c = plan.add_client();
        plan.link(m, plan.thing_node(t), LinkQuality::PERFECT);
        plan.link(m, plan.client_node(c), LinkQuality::PERFECT);
        let sharded = ShardedWorld::new(WorldConfig::default(), &plan, 2);
        assert_eq!(m, sm);
        assert_eq!(plan.thing_node(t), seq.thing_node(st));
        assert_eq!(plan.client_node(c), seq.client_node(sc));
        assert_eq!(sharded.thing(t).node, seq.thing_node(st));
        assert_eq!(sharded.client(c).address, seq.client(sc).address);
    }
}
