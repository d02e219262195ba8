//! The top-level simulation world: a manager, Things and clients on one
//! 6LoWPAN network, driven on a single virtual clock.
//!
//! This is the API the examples, integration tests and benchmark harness
//! use. Every actor — Thing, client, Manager replica, edge cache — answers
//! each stimulus with one [`Reply`], and every stimulus enters through one
//! function that applies the reply in one place. That seam is where the
//! plug-pipeline timelines (Table 4, §8) are stitched together and where
//! the span observer (module `spans`) runs.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv6Addr;

use upnp_distro::{CacheConfig, EdgeCache};
use upnp_hw::board::BoardTemplate;
use upnp_hw::channels::ChannelId;
use upnp_hw::components::ToleranceClass;
use upnp_hw::id::DeviceTypeId;
use upnp_hw::peripheral::PeripheralTemplate;
use upnp_net::link::{LinkChaos, LinkDegrade, LinkQuality};
use upnp_net::msg::{Message, MessageBody, Value};
use upnp_net::{Action, Datagram, Delivery, Network, NodeId, Reply};
use upnp_sim::{Scheduler, SimDuration, SimRng, SimTime};
use upnp_trace::{Span, TraceId};
use upnp_vm::runtime::RuntimeTemplate;

use crate::catalog::Catalog;
use crate::client::Client;
use crate::manager::Manager;
use crate::spans::{Actor, Tracer};
use crate::thing::{PlugTimeline, Thing};

/// A Thing handle in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThingId(pub usize);

/// A client handle in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientId(pub usize);

/// An edge-cache handle in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheId(pub usize);

/// Aggregate counters of the driver-distribution tier: the edge caches'
/// summed [`upnp_distro::CacheStats`] plus the origin Manager's load and
/// retention levels. All deterministic — they participate in the
/// scenario metrics the differential harness compares bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistroStats {
    /// Cache requests answered straight from an LRU.
    pub cache_hits: u64,
    /// Cache requests that started an upstream fetch.
    pub cache_misses: u64,
    /// Cache requests parked on an in-flight fetch (singleflight).
    pub cache_coalesced: u64,
    /// (5) driver uploads served by caches.
    pub cache_uploads: u64,
    /// Driver uploads served by the origin Manager itself: direct (5)
    /// uploads plus one per chunked fetch session.
    pub origin_uploads: u64,
    /// Things currently tracked in the Manager's bounded inventory.
    pub mgr_inventory: u64,
    /// Total (9) removal acks the Manager ever received (the retained
    /// ring is bounded; this is the monotone counter).
    pub mgr_removal_acks: u64,
}

/// World construction parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master RNG seed: everything stochastic derives from it.
    pub seed: u64,
    /// The 48-bit IPv6 prefix of the deployment.
    pub prefix: u64,
    /// Samples per stream before the Thing closes it.
    pub stream_samples: u32,
    /// Stream sampling period.
    pub stream_period: SimDuration,
}

/// Resistor tolerance of every peripheral board [`World::plug`]
/// manufactures.
const RESISTOR_TOLERANCE: ToleranceClass = ToleranceClass::PointOnePercent;

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            // The protocol port number doubles as a memorable seed.
            seed: 0x6030,
            prefix: 0x2001_0db8_0000,
            stream_samples: 5,
            stream_period: SimDuration::from_millis(500),
        }
    }
}

/// One step of a [`BuildPlan`]. Things and caches carry their node so a
/// shard can tell the ones it owns.
#[derive(Debug, Clone, Copy)]
enum Step {
    Replica,
    Thing(NodeId),
    Client,
    Cache(NodeId),
    Link(NodeId, NodeId, LinkQuality),
}

/// A world's construction as data: its nodes and links, in order, with
/// the routing tree rooted at the manager.
///
/// Node ids are assigned sequentially, exactly as [`World`] assigns
/// them, so they are known while the plan is written (topology builders
/// wire the tree with them) and both backends build bit-identical node
/// tables from one plan: [`World::from_plan`] replays it whole, and
/// [`ShardedWorld`](crate::shard::ShardedWorld) replays it once per
/// shard, simulating only the Things and caches that shard owns.
#[derive(Debug, Clone, Default)]
pub struct BuildPlan {
    steps: Vec<Step>,
    nodes: u32,
    /// Node of every Manager replica (the primary, then the standby),
    /// Thing, client and edge cache, in creation order.
    pub(crate) replicas: Vec<NodeId>,
    pub(crate) things: Vec<NodeId>,
    pub(crate) clients: Vec<NodeId>,
    pub(crate) caches: Vec<NodeId>,
}

impl BuildPlan {
    fn push(&mut self, step: impl FnOnce(NodeId) -> Step) -> NodeId {
        let node = NodeId(self.nodes);
        self.nodes += 1;
        self.steps.push(step(node));
        node
    }

    /// Adds the manager node (once: it roots the routing tree).
    pub fn add_manager(&mut self) -> NodeId {
        self.add_replica()
    }

    /// Adds a standby Manager replica (see [`World::add_standby`]).
    pub fn add_standby(&mut self) -> NodeId {
        self.add_replica()
    }

    fn add_replica(&mut self) -> NodeId {
        let node = self.push(|_| Step::Replica);
        self.replicas.push(node);
        node
    }

    /// Adds a µPnP Thing.
    pub fn add_thing(&mut self) -> ThingId {
        let node = self.push(Step::Thing);
        self.things.push(node);
        ThingId(self.things.len() - 1)
    }

    /// Adds a client.
    pub fn add_client(&mut self) -> ClientId {
        let node = self.push(|_| Step::Client);
        self.clients.push(node);
        ClientId(self.clients.len() - 1)
    }

    /// Adds an edge cache (after the manager — it needs its origin).
    pub fn add_cache(&mut self) -> CacheId {
        let node = self.push(Step::Cache);
        self.caches.push(node);
        CacheId(self.caches.len() - 1)
    }

    /// Links two nodes with the given quality.
    pub fn link(&mut self, a: NodeId, b: NodeId, quality: LinkQuality) {
        self.steps.push(Step::Link(a, b, quality));
    }

    /// The manager node: the routing-tree root.
    ///
    /// # Panics
    ///
    /// Panics if no manager was added.
    pub fn manager(&self) -> NodeId {
        *self.replicas.first().expect("plan has a manager")
    }

    /// The network node of a Thing.
    pub fn thing_node(&self, id: ThingId) -> NodeId {
        self.things[id.0]
    }

    /// The network node of a client.
    pub fn client_node(&self, id: ClientId) -> NodeId {
        self.clients[id.0]
    }

    /// The network node of an edge cache.
    pub fn cache_node(&self, id: CacheId) -> NodeId {
        self.caches[id.0]
    }

    /// Total network nodes.
    pub fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// The nodes every shard simulates: manager, standby and clients.
    pub(crate) fn replicated(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.replicas.iter().chain(&self.clients).copied()
    }

    /// Every link, in creation order.
    pub(crate) fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, LinkQuality)> + '_ {
        self.steps.iter().filter_map(|s| match *s {
            Step::Link(a, b, q) => Some((a, b, q)),
            _ => None,
        })
    }
}

/// What occupies one node of a [`World`], with the index of its actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    /// A Thing or cache another shard simulates: it keeps its id and
    /// address here, but is never linked or registered.
    Ghost,
    /// A Manager replica: 0 is the primary, 1 the hot standby.
    Replica(usize),
    Thing(usize),
    Client(usize),
    Cache(usize),
}

#[derive(Debug, Clone)]
enum WorldEvent {
    /// A deferred [`World::plug`] — lets scenarios stagger plug events in
    /// virtual time instead of front-loading them all at t=0.
    Plug {
        thing: usize,
        channel: u8,
        device: DeviceTypeId,
    },
    /// A deferred [`World::unplug`].
    Unplug { thing: usize, channel: u8 },
    /// An actor's [`Action::Timer`]: a Thing's stream tick or a cache's
    /// chunk retry.
    Timer { node: NodeId, key: u32, gen: u64 },
}

/// A stimulus that wakes an actor. Every one enters a world through one
/// function, which applies the actor's [`Reply`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Input<'a> {
    /// A datagram delivered to the actor's node.
    Datagram(&'a Datagram),
    /// An expired [`Action::Timer`].
    Timer { key: u32, gen: u64 },
    /// A Thing's board interrupt.
    Interrupt,
    /// A Thing's MCU coming back from a crash.
    Revive,
}

/// The assembled multi-node world.
///
/// The event loop is engineered so one step costs `O(work due now)`, not
/// `O(nodes)`: board interrupts are tracked in a queue instead of being
/// rediscovered by scanning every Thing, network deliveries drain into a
/// reused buffer, and a delivery finds its actor by indexing the node
/// table.
pub struct World {
    /// The network simulator.
    pub net: Network,
    /// Every node by id: what occupies it, and whether it is crashed
    /// (see [`WorldOp::Crash`]).
    nodes: Vec<(NodeKind, bool)>,
    /// The Manager replicas: the primary, then an optional hot standby —
    /// a second instance of both anycast addresses with an identical
    /// repository, so killing the primary is a deterministic anycast
    /// takeover instead of an outage.
    replicas: Vec<Manager>,
    things: Vec<Thing>,
    clients: Vec<Client>,
    caches: Vec<EdgeCache>,
    /// Parallel to `caches`: the gray-failure crawl factor (1 = full
    /// speed). A crawling cache still answers everything — both its
    /// processing legs are just stretched by the factor, the
    /// slow-but-alive failure mode a fail-stop crash can never model.
    cache_crawl: Vec<u32>,
    catalog: Catalog,
    /// Things whose board interrupt may be pending, in raise order.
    interrupts: VecDeque<usize>,
    /// Scratch buffer reused across delivery polls.
    delivery_buf: Vec<Delivery>,
    sched: Scheduler<WorldEvent>,
    now: SimTime,
    /// Per-Thing jitter streams, keyed by the Thing's *node id* rather
    /// than drawn from one sequential world stream. A Thing's sampled
    /// board, runtime seed and per-plug resistor jitter therefore depend
    /// only on `(world seed, node id, its own plug history)` — the
    /// property that lets a sharded world construct each shard's Things
    /// independently and still match the sequential simulator bit for
    /// bit.
    thing_rngs: Vec<SimRng>,
    config: WorldConfig,
    /// Fleet-invariant construction blueprints. The peripheral templates
    /// carry the real win: the per-device resistor solve (an E96 grid
    /// search, formerly the dominant per-plug cost) runs once per
    /// peripheral *type*. The board/runtime templates pin the shared
    /// structure (codec, scan policy, cost model) in one place.
    /// Instantiation draws only per-instance jitter from the world RNG —
    /// the same values, in the same order, as direct sampling, so
    /// fingerprints are preserved.
    board_template: BoardTemplate,
    runtime_template: RuntimeTemplate,
    peripheral_templates: HashMap<DeviceTypeId, PeripheralTemplate>,
    /// Virtual-clock distributed tracing. Disabled by default: every
    /// recording hook is behind a single `trace.enabled()` branch, and
    /// the only always-on work is stamping a plug's precomputed trace
    /// id (four integer folds) into its timeline.
    trace: Tracer,
    /// The anycast address Things send driver requests to.
    pub manager_anycast: Ipv6Addr,
    /// The anycast address edge caches pull chunked transfers from. Every
    /// Manager replica is an instance, so a mid-transfer primary crash
    /// fails the stop-and-wait cursor over to the standby.
    pub origin_anycast: Ipv6Addr,
}

impl World {
    /// Creates an empty world.
    pub fn new(config: WorldConfig) -> Self {
        World::with_capacity(config, 0)
    }

    /// An empty world pre-sized for `nodes` nodes, so a fleet build does
    /// not spend its time reallocating.
    fn with_capacity(config: WorldConfig, nodes: usize) -> Self {
        World {
            net: Network::with_capacity(config.prefix, config.seed ^ 0x9e37, nodes),
            nodes: Vec::with_capacity(nodes),
            replicas: Vec::new(),
            things: Vec::with_capacity(nodes),
            clients: Vec::new(),
            caches: Vec::new(),
            cache_crawl: Vec::new(),
            catalog: Catalog::with_prototypes(),
            interrupts: VecDeque::new(),
            delivery_buf: Vec::new(),
            sched: Scheduler::new(),
            now: SimTime::ZERO,
            thing_rngs: Vec::with_capacity(nodes),
            board_template: BoardTemplate::default(),
            runtime_template: RuntimeTemplate::default(),
            peripheral_templates: HashMap::new(),
            trace: Tracer::default(),
            manager_anycast: "2001:db8:aaaa::1".parse().expect("valid anycast"),
            origin_anycast: "2001:db8:aaaa::2".parse().expect("valid anycast"),
            config,
        }
    }

    /// Builds the world `plan` describes, its routing tree rooted at the
    /// manager.
    pub fn from_plan(config: WorldConfig, plan: &BuildPlan) -> World {
        World::from_plan_where(config, plan, |_| true)
    }

    /// [`World::from_plan`] simulating only the Things and caches `local`
    /// selects — one shard of a sharded world. Every other Thing or cache
    /// occupies its node slot, so ids, addresses and wire sizes line up
    /// with the whole world, but is never linked or registered: no
    /// traffic reaches it and anycast never resolves to it.
    pub(crate) fn from_plan_where(
        config: WorldConfig,
        plan: &BuildPlan,
        local: impl Fn(NodeId) -> bool,
    ) -> World {
        let mut w = World::with_capacity(config, plan.node_count());
        for &step in &plan.steps {
            match step {
                Step::Replica => {
                    w.add_replica();
                }
                Step::Client => {
                    w.add_client();
                }
                Step::Thing(node) if local(node) => {
                    w.add_thing();
                }
                Step::Cache(node) if local(node) => {
                    w.add_cache();
                }
                Step::Thing(_) | Step::Cache(_) => {
                    w.add_node(NodeKind::Ghost);
                }
                Step::Link(a, b, q) => {
                    if local(a) && local(b) {
                        w.link(a, b, q);
                    }
                }
            }
        }
        w.build_tree(plan.manager());
        w
    }

    /// Whether distributed tracing is recording.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.enabled()
    }

    /// The bounded flight-recorder window of recent spans.
    pub fn flight_recorder(&self) -> &upnp_trace::FlightRecorder {
        self.trace.recorder()
    }

    /// The decorrelated jitter stream of the Thing on `node`: a pure
    /// function of the world seed and the node id (SplitMix64-finalised),
    /// independent of how many Things were added before it.
    fn thing_stream(seed: u64, node: NodeId) -> SimRng {
        SimRng::seed(upnp_sim::splitmix64(
            seed ^ (node.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Adds a network node occupied by `kind`. Every node goes through
    /// here, so the node table and the network number nodes alike.
    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.nodes.push((kind, false));
        self.net.add_node()
    }

    fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.0 as usize].0
    }

    fn is_down(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].1
    }

    /// Adds the manager node (call once, before things).
    ///
    /// # Panics
    ///
    /// Panics if a manager already exists.
    pub fn add_manager(&mut self) -> NodeId {
        assert!(self.replicas.is_empty(), "world already has a manager");
        self.add_replica()
    }

    /// Adds a standby Manager replica: a second instance of both the
    /// manager and origin anycast addresses with an identical repository.
    /// While the primary lives it serves nothing (the primary is nearer
    /// or ties at a lower node id); when a [`WorldOp::Crash`] of the
    /// primary removes it from the anycast sets, every request — Thing
    /// driver requests and cache chunk fetches alike — deterministically
    /// re-resolves here.
    ///
    /// # Panics
    ///
    /// Panics without a primary, or if a standby already exists. Add it
    /// right after the manager so its node id ties below every cache.
    pub fn add_standby(&mut self) -> NodeId {
        assert!(!self.replicas.is_empty(), "standby needs a primary");
        assert!(self.replicas.len() < 2, "world already has a standby");
        self.add_replica()
    }

    fn add_replica(&mut self) -> NodeId {
        let node = self.add_node(NodeKind::Replica(self.replicas.len()));
        let address = self.net.addr_of(node);
        self.serve_anycast(node);
        self.replicas.push(Manager::new(
            node,
            address,
            self.manager_anycast,
            &self.catalog,
        ));
        node
    }

    /// Registers `node` as the anycast instance its role makes it: a
    /// Manager replica serves both the manager and the origin address; a
    /// cache serves the manager address, scoped to its own subtree — the
    /// scoping keeps resolution identical at every shard count (a
    /// sibling's cache may be another shard's ghost).
    fn serve_anycast(&mut self, node: NodeId) {
        match self.kind(node) {
            NodeKind::Replica(_) => {
                self.net.set_anycast(node, self.manager_anycast);
                self.net.set_anycast(node, self.origin_anycast);
            }
            NodeKind::Cache(_) => self.net.set_anycast_scoped(node, self.manager_anycast),
            _ => {}
        }
    }

    /// Adds a µPnP Thing with a realistically sampled control board
    /// (stamped from the world's board/runtime templates; only per-Thing
    /// jitter is drawn from the RNG).
    pub fn add_thing(&mut self) -> ThingId {
        let node = self.add_node(NodeKind::Thing(self.things.len()));
        let address = self.net.addr_of(node);
        let mut rng = Self::thing_stream(self.config.seed, node);
        let board = self.board_template.instantiate(&mut rng);
        let seed = rng.next_u64();
        let mut thing = Thing::new(
            node,
            address,
            board,
            self.catalog.clone(),
            self.runtime_template.instantiate(seed),
        );
        thing.stream_samples = self.config.stream_samples;
        thing.stream_period = self.config.stream_period;
        self.things.push(thing);
        self.thing_rngs.push(rng);
        ThingId(self.things.len() - 1)
    }

    /// Adds a client; it joins the all-clients group immediately.
    pub fn add_client(&mut self) -> ClientId {
        let node = self.add_node(NodeKind::Client(self.clients.len()));
        let address = self.net.addr_of(node);
        let client = Client::new(node, address, self.config.prefix);
        self.net
            .join_group(node, upnp_net::addr::all_clients_group(self.config.prefix));
        self.clients.push(client);
        ClientId(self.clients.len() - 1)
    }

    /// Adds an edge cache of the driver-distribution tier with the
    /// default [`CacheConfig`]: a node registered as an additional
    /// instance of the manager's anycast address, serving (4) driver
    /// requests from a bounded LRU and fetching misses from the manager
    /// via chunked transfer. Link it into the tree as an interior router
    /// (Things below it resolve their driver requests to it).
    ///
    /// # Panics
    ///
    /// Panics if no manager was added (the cache needs its origin).
    pub fn add_cache(&mut self) -> CacheId {
        assert!(!self.replicas.is_empty(), "a cache needs its origin");
        let node = self.add_node(NodeKind::Cache(self.caches.len()));
        let address = self.net.addr_of(node);
        // Subtree-scoped: the cache serves the requesters it routes for,
        // never a sibling subtree across the root.
        self.serve_anycast(node);
        for replica in &mut self.replicas {
            replica.register_cache(address);
        }
        // The cache pulls from the origin *anycast*, not the primary's
        // unicast address: a mid-transfer primary crash then resolves the
        // next chunk request to the standby, and the EdgeCache's
        // same-version/new-server check resumes from its cursor.
        let config = CacheConfig::default();
        self.caches
            .push(EdgeCache::new(node, address, self.origin_anycast, config));
        self.cache_crawl.push(1);
        CacheId(self.caches.len() - 1)
    }

    /// Access an edge cache (inspect its LRU and counters).
    pub fn cache(&self, id: CacheId) -> &EdgeCache {
        &self.caches[id.0]
    }

    /// The network node of an edge cache.
    pub fn cache_node(&self, id: CacheId) -> NodeId {
        self.caches[id.0].node
    }

    /// Mutable access to a Thing.
    pub fn thing_mut(&mut self, id: ThingId) -> &mut Thing {
        &mut self.things[id.0]
    }

    /// Access the manager.
    ///
    /// # Panics
    ///
    /// Panics if no manager was added.
    pub fn manager(&self) -> &Manager {
        self.replicas.first().expect("world has a manager")
    }

    /// Mutable manager access.
    pub fn manager_mut(&mut self) -> &mut Manager {
        self.replicas.first_mut().expect("world has a manager")
    }

    /// The network node of a Thing.
    pub fn thing_node(&self, id: ThingId) -> NodeId {
        self.things[id.0].node
    }

    /// The network node of a client.
    pub fn client_node(&self, id: ClientId) -> NodeId {
        self.clients[id.0].node
    }

    /// The unicast address of a Thing.
    pub fn thing_addr(&self, id: ThingId) -> Ipv6Addr {
        self.things[id.0].address
    }

    /// Links two nodes with the given quality.
    pub fn link(&mut self, a: NodeId, b: NodeId, quality: LinkQuality) {
        self.net.link(a, b, quality);
    }

    /// Builds the routing tree rooted at `root` (typically the manager).
    pub fn build_tree(&mut self, root: NodeId) {
        self.net.build_tree(root);
    }

    /// Convenience: star topology with every other node one perfect hop
    /// from the manager, tree rooted there.
    pub fn star_topology(&mut self) {
        let root = self.manager().node;
        for i in 0..self.net.len() {
            let n = NodeId(i as u32);
            if n != root {
                self.net.link(root, n, LinkQuality::PERFECT);
            }
        }
        self.net.build_tree(root);
    }

    // ---- Chaos: crashing and reviving a node ---------------------------

    /// [`WorldOp::Crash`]: marks `node` down and fails whatever runs on
    /// it. A Manager replica or a cache leaves every anycast set without
    /// a goodbye, and what is in flight to it dies with it; each follower
    /// a cache had parked on an in-flight fetch re-issues its original
    /// (4) driver request from its own node at `at`. A Thing's MCU fences
    /// its install generation, so its torn flash writes and its stream
    /// ticks from before the crash are stale.
    fn crash(&mut self, at: SimTime, node: NodeId) -> Effect {
        let (kind, down) = &mut self.nodes[node.0 as usize];
        assert!(!*down, "{kind:?} on {node:?} is already down");
        *down = true;
        let kind = *kind;
        let mut effect = Effect::default();
        match kind {
            NodeKind::Thing(i) => self.things[i].crash_mcu(),
            NodeKind::Replica(_) => {
                self.net.fail_node(node);
            }
            NodeKind::Cache(i) => {
                self.net.fail_node(node);
                let stranded = self.caches[i].crash();
                effect.followers_drained = stranded.len() as u64;
                for (peripheral, requester, seq, ctx) in stranded {
                    let Some(from) = self.net.node_by_addr(requester) else {
                        continue;
                    };
                    let body = MessageBody::DriverRequest { peripheral };
                    let mut payload = upnp_net::msg::Payload::from(Message { seq, body }.encode())
                        .with_trace(ctx);
                    // The reissue re-enters the network from the
                    // follower's own node — that is where the failover
                    // span lives.
                    if self.trace.enabled() && !ctx.is_none() {
                        payload = payload.with_trace(self.trace.failover(ctx, from, at));
                    }
                    let dgram = Datagram {
                        src: requester,
                        dst: self.manager_anycast,
                        src_port: upnp_net::addr::MCAST_PORT,
                        dst_port: upnp_net::addr::MCAST_PORT,
                        payload,
                    };
                    self.net.send(at, from, dgram);
                }
            }
            NodeKind::Ghost | NodeKind::Client(_) => panic!("{kind:?} on {node:?} cannot crash"),
        }
        effect
    }

    /// [`WorldOp::Revive`]: brings `node` back. A replica or cache
    /// re-registers its anycast instances (a cache restarts cold, from an
    /// empty LRU; a replica's repository is durable). A Thing's MCU
    /// audits the torn flash, reissues the interrupted driver requests at
    /// `at` and services any board interrupt raised while it was down.
    fn revive(&mut self, at: SimTime, node: NodeId) -> Effect {
        let (kind, down) = &mut self.nodes[node.0 as usize];
        assert!(*down, "{kind:?} on {node:?} is not down");
        *down = false;
        let NodeKind::Thing(thing) = *kind else {
            self.serve_anycast(node);
            return Effect::default();
        };
        let recovery = self.things[thing].audit_flash();
        self.feed(node, at.max(self.now), Input::Revive);
        // A plug/unplug that happened during the outage left the board
        // interrupt pending; the revived MCU services it on the next run.
        if self.things[thing].interrupt_pending() {
            self.interrupts.push_back(thing);
        }
        Effect {
            images_rejected: recovery.rejected,
            refetches: recovery.refetches,
            ..Effect::default()
        }
    }

    /// The Thing on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` holds no Thing here.
    fn thing_on(&self, node: NodeId) -> usize {
        match self.kind(node) {
            NodeKind::Thing(i) => i,
            kind => panic!("{node:?} holds {kind:?}, not a Thing"),
        }
    }

    /// Manufactures a peripheral board for `device_id` and plugs it into
    /// `channel` of the Thing. The identification interrupt fires; run the
    /// world to see the full pipeline.
    ///
    /// # Panics
    ///
    /// Panics for unknown device ids or occupied channels (test misuse).
    pub fn plug(&mut self, thing: ThingId, channel: u8, device_id: DeviceTypeId) {
        let interconnect = self
            .catalog
            .get(device_id)
            .unwrap_or_else(|| panic!("{device_id} not in catalog"))
            .interconnect;
        // The resistor solve runs once per device *type*; each plug only
        // samples this board's jitter from the Thing's own stream, so a
        // Thing's plug pipeline depends only on its own history.
        let template = self
            .peripheral_templates
            .entry(device_id)
            .or_insert_with(|| {
                PeripheralTemplate::new(device_id, interconnect)
                    .expect("catalog ids are realisable")
            });
        let board = template.instantiate(RESISTOR_TOLERANCE, &mut self.thing_rngs[thing.0]);
        self.things[thing.0]
            .board_mut()
            .plug(ChannelId(channel), board)
            .expect("channel free");
        self.interrupts.push_back(thing.0);
        // The trace id is a pure function of (seed, node, channel, plug
        // instant) — identical at every shard count. It is stamped even
        // with tracing disabled (four integer folds) so chaos recovery
        // attribution can always name the serving trace.
        let node = self.things[thing.0].node;
        let trace = TraceId::derive(
            self.config.seed,
            node.0 as u64,
            channel as u16,
            self.now.as_nanos(),
        );
        self.things[thing.0]
            .timelines
            .get_or_insert_default(device_id.raw())
            .trace_id = trace.0;
        if self.trace.enabled() {
            self.trace
                .plug(thing.0, node, device_id.raw(), trace, self.now);
        }
    }

    /// Unplugs whatever occupies `channel` of the Thing.
    pub fn unplug(&mut self, thing: ThingId, channel: u8) {
        self.things[thing.0].board_mut().unplug(ChannelId(channel));
        self.interrupts.push_back(thing.0);
    }

    /// Runs for at most `duration` of virtual time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now + duration;
        for _ in 0..10_000_000 {
            // Handle interrupts regardless of the deadline (they are
            // immediate), then events up to the deadline.
            if self.service_interrupts() {
                continue;
            }
            let Some(next) = self.next_event_time() else {
                break;
            };
            if next > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    fn next_event_time(&self) -> Option<SimTime> {
        match (self.net.next_delivery_at(), self.sched.peek_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// One step of the world loop. Returns false when idle.
    fn step(&mut self) -> bool {
        if self.service_interrupts() {
            return true;
        }
        let Some(next) = self.next_event_time() else {
            return false;
        };
        if next > self.now {
            self.now = next;
        }

        // Scheduled world events (deferred plugs, actor timers) due now.
        while matches!(self.sched.peek_time(), Some(t) if t <= self.now) {
            let entry = self.sched.pop().expect("peeked");
            match entry.event {
                WorldEvent::Plug {
                    thing,
                    channel,
                    device,
                } => self.plug(ThingId(thing), channel, device),
                WorldEvent::Unplug { thing, channel } => self.unplug(ThingId(thing), channel),
                WorldEvent::Timer { node, key, gen } => {
                    self.feed(node, self.now, Input::Timer { key, gen })
                }
            }
        }

        // Network deliveries due now, drained into the reused buffer.
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        deliveries.clear();
        self.net.poll_into(self.now, &mut deliveries);
        for d in &deliveries {
            self.feed(d.node, d.at, Input::Datagram(&d.dgram));
        }
        self.delivery_buf = deliveries;
        true
    }

    /// Services at most one pending interrupt; returns true if one was
    /// handled. Pops from the interrupt queue instead of scanning every
    /// Thing — `O(1)` per step at any fleet size.
    fn service_interrupts(&mut self) -> bool {
        while let Some(i) = self.interrupts.pop_front() {
            // A dead MCU cannot service its board interrupt; it stays
            // pending on the board and the revive re-enqueues it. A queue
            // entry may be stale: one service call handles every change
            // on the board, so a Thing plugged twice between steps is
            // fully serviced by its first entry.
            let node = self.things[i].node;
            if !self.is_down(node) && self.things[i].interrupt_pending() {
                self.feed(node, self.now, Input::Interrupt);
                return true;
            }
        }
        false
    }

    /// Feeds one stimulus at `at` to the actor on `node` and applies its
    /// reply: the one seam every actor is driven through. Nothing
    /// reaches a node while it is down — what was in flight to it dies —
    /// except that a (5) driver upload delivered to a crashed Thing is a
    /// flash write cut mid-stream, staged for the revive audit.
    fn feed(&mut self, node: NodeId, at: SimTime, input: Input<'_>) {
        let (kind, down) = self.nodes[node.0 as usize];
        if down {
            if let (NodeKind::Thing(i), Input::Datagram(d)) = (kind, input) {
                self.things[i].stage_torn_upload(&d.payload);
            }
            return;
        }
        let anycast = self.manager_anycast;
        // The instant the reply's legs start from, and the factor a
        // crawling cache (gray failure) stretches both legs by.
        let (mut reply, base, crawl) = match (kind, input) {
            (NodeKind::Thing(i), input) => {
                let thing = &mut self.things[i];
                let reply = match input {
                    Input::Datagram(d) => thing.on_datagram(at, d),
                    Input::Timer { key, gen } => thing.on_timer(at, key, gen),
                    Input::Interrupt => thing.service_interrupt(at, anycast),
                    Input::Revive => thing.revive_mcu(at, anycast),
                };
                // A Thing's legs are on its runtime clock.
                (reply, thing.runtime.now().max(self.now), 1)
            }
            (NodeKind::Replica(r), Input::Datagram(d)) => (self.replicas[r].on_datagram(d), at, 1),
            (NodeKind::Client(c), Input::Datagram(d)) => {
                (self.clients[c].on_datagram(at, d), at, 1)
            }
            (NodeKind::Cache(c), Input::Datagram(d)) => {
                (self.caches[c].on_datagram(d), at, self.cache_crawl[c])
            }
            (NodeKind::Cache(c), Input::Timer { key, gen }) => {
                (self.caches[c].on_timer(key, gen), at, self.cache_crawl[c])
            }
            (NodeKind::Ghost, _) => return,
            (kind, input) => unreachable!("{kind:?} on {node:?} takes no {input:?}"),
        };
        let ready = base + reply.process * crawl as u64;
        let send = ready + reply.send_path * crawl as u64;
        if self.trace.enabled() {
            let actor = match kind {
                NodeKind::Thing(i) => Actor::Thing(i, &self.things[i]),
                NodeKind::Replica(_) => Actor::Replica(node),
                NodeKind::Cache(_) => Actor::Cache(node),
                NodeKind::Client(_) | NodeKind::Ghost => Actor::Client,
            };
            self.trace
                .observe(actor, input, at, (ready, send), &mut reply);
        }
        self.apply(node, (ready, send), reply);
    }

    /// Applies the reply of the actor on `node`, ready at `ready` with
    /// its datagrams leaving at `send`: the one place every action takes
    /// effect. A (5) driver upload stitches its ready instant into the
    /// requesting Thing's plug timeline, one rule for origin- and
    /// cache-served uploads, so their latency rows can never drift apart.
    fn apply(&mut self, node: NodeId, (ready, send): (SimTime, SimTime), reply: Reply) {
        for action in reply.actions {
            match action {
                Action::Send(dgram) => {
                    if let Some((MessageBody::DRIVER_UPLOAD_TYPE, peripheral)) =
                        Message::header(&dgram.payload)
                    {
                        let to = self.net.node_by_addr(dgram.dst).map(|n| self.kind(n));
                        if let Some(NodeKind::Thing(i)) = to {
                            if let Some(tl) = self.things[i].timelines.get_mut(&peripheral) {
                                tl.upload_sent = Some(ready);
                            }
                        }
                    }
                    self.net.send(send, node, dgram);
                }
                Action::Join(group) => self.net.join_group(node, group),
                Action::Leave(group) => {
                    self.net.leave_group(node, group);
                }
                Action::Timer { key, gen, after } => {
                    let at = (ready + after).max(self.sched.now());
                    self.sched
                        .schedule_at(at, WorldEvent::Timer { node, key, gen });
                }
            }
        }
    }

    // ---- Synchronous conveniences for examples and tests ---------------

    /// Plugs a peripheral and runs the full pipeline to completion;
    /// returns the plug timeline.
    pub fn plug_and_wait(
        &mut self,
        thing: ThingId,
        channel: u8,
        device_id: DeviceTypeId,
    ) -> PlugTimeline {
        self.plug(thing, channel, device_id);
        self.run_until_idle();
        self.things[thing.0]
            .timelines
            .get(&device_id.raw())
            .cloned()
            .unwrap_or_default()
    }

    /// Reads a peripheral on a Thing through a client, synchronously.
    pub fn client_read(
        &mut self,
        client: ClientId,
        thing: ThingId,
        device_id: DeviceTypeId,
    ) -> Option<Value> {
        let thing_addr = self.thing_addr(thing);
        let before = self.clients[client.0].readings.len();
        let dgram = self.clients[client.0].read(thing_addr, device_id.raw());
        let node = self.clients[client.0].node;
        self.net.send(self.now, node, dgram);
        self.run_until_idle();
        self.clients[client.0]
            .readings
            .get(before)
            .map(|(_, v, _)| v.clone())
    }

    /// Writes to a peripheral through a client, synchronously; returns the
    /// acknowledgement flag.
    pub fn client_write(
        &mut self,
        client: ClientId,
        thing: ThingId,
        device_id: DeviceTypeId,
        value: Value,
    ) -> Option<bool> {
        let thing_addr = self.thing_addr(thing);
        let before = self.clients[client.0].write_acks.len();
        let dgram = self.clients[client.0].write(thing_addr, device_id.raw(), value);
        let node = self.clients[client.0].node;
        self.net.send(self.now, node, dgram);
        self.run_until_idle();
        self.clients[client.0]
            .write_acks
            .get(before)
            .map(|(_, ok)| *ok)
    }

    /// Multicasts a discovery and collects solicited advertisements.
    pub fn client_discover(&mut self, client: ClientId, device_id: DeviceTypeId) -> Vec<Ipv6Addr> {
        let dgram = self.clients[client.0].discover(device_id.raw());
        let node = self.clients[client.0].node;
        self.net.send(self.now, node, dgram);
        self.run_until_idle();
        self.clients[client.0].things_with(device_id.raw())
    }

    /// Location-filtered discovery: only Things tagged with `location`
    /// answer (§9's location-aware discovery).
    pub fn client_discover_at(
        &mut self,
        client: ClientId,
        device_id: DeviceTypeId,
        location: &str,
    ) -> Vec<Ipv6Addr> {
        let before = self.clients[client.0].discovered.len();
        let dgram = self.clients[client.0].discover_at(device_id.raw(), location);
        let node = self.clients[client.0].node;
        self.net.send(self.now, node, dgram);
        self.run_until_idle();
        let mut out: Vec<Ipv6Addr> = self.clients[client.0].discovered[before..]
            .iter()
            .filter(|d| d.solicited && d.advert.peripheral == device_id.raw())
            .map(|d| d.thing)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Sets a Thing's location tag.
    pub fn set_location(&mut self, thing: ThingId, location: &str) {
        self.things[thing.0].location = Some(location.to_string());
    }

    /// Starts a stream and runs until the Thing closes it; returns the
    /// collected samples.
    pub fn client_stream(
        &mut self,
        client: ClientId,
        thing: ThingId,
        device_id: DeviceTypeId,
    ) -> Vec<Value> {
        let thing_addr = self.thing_addr(thing);
        let before = self.clients[client.0].stream_data.len();
        let dgram = self.clients[client.0].stream(thing_addr, device_id.raw());
        let node = self.clients[client.0].node;
        self.net.send(self.now, node, dgram);
        self.run_until_idle();
        self.clients[client.0].stream_data[before..]
            .iter()
            .filter(|(p, _, _)| *p == device_id.raw())
            .map(|(_, v, _)| v.clone())
            .collect()
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("things", &self.things.len())
            .field("clients", &self.clients.len())
            .finish_non_exhaustive()
    }
}

/// One mutation of a running world, as data: a physical event at a
/// Thing (plug, unplug) or an injected fault and its repair. Every one
/// goes through [`SimWorld::apply`]. An op names the nodes it acts on by
/// [`NodeId`], the one name every backend shares, and a partitioned
/// world sends it to the part simulating the node it targets.
///
/// Plugs and unplugs are scheduled at the op's instant. Every other op
/// takes effect at once; traffic it issues (a crashed cache's failed-over
/// followers, a revived MCU's refetches) enters the network at the op's
/// instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldOp {
    /// Manufactures a peripheral board for `device` and plugs it into
    /// `channel` of the Thing on `node` (see [`World::plug`]).
    Plug {
        node: NodeId,
        channel: u8,
        device: DeviceTypeId,
    },
    /// Unplugs whatever occupies `channel` of the Thing on `node`.
    Unplug { node: NodeId, channel: u8 },
    /// Crashes what runs on a node; the node keeps forwarding frames (the
    /// router outlives the process), so pair with [`WorldOp::CutLink`]
    /// to model full node death. Panics if it is already down, or on a
    /// client.
    ///
    /// * An edge cache loses its RAM (LRU and in-flight fetches) and
    ///   leaves every anycast set without a graceful `unset_anycast`;
    ///   each follower parked on an in-flight fetch re-issues its
    ///   original (4) driver request from its own node, re-resolving to
    ///   the next-nearest live instance ([`Effect::followers_drained`]).
    /// * A Manager replica leaves both anycast sets, and deliveries
    ///   already in flight to it are dropped. Crashing the primary hands
    ///   every later request to the standby — same repository,
    ///   next-lowest node id; crashing both leaves the manager anycast
    ///   with *zero* live instances, so requests drop at resolution until
    ///   a replica returns.
    /// * A Thing's MCU dies mid-operation: its flash install generation
    ///   is fenced, and any (5) driver upload delivered while it is down
    ///   is torn mid-flash write ([`Thing::stage_torn_upload`]).
    Crash(NodeId),
    /// Revives a crashed node. A cache restarts cold: it re-registers as
    /// a manager anycast instance and serves again from an empty LRU. A
    /// replica re-registers both anycast instances; its repository was
    /// never lost — the paper's Manager is a durable server. A Thing's
    /// torn flash is audited (half-written images rejected by `verify()`,
    /// [`Effect::images_rejected`]) and a driver request is reissued
    /// end-to-end for every peripheral still waiting
    /// ([`Effect::refetches`]). Panics if the node is not down.
    Revive(NodeId),
    /// Severs the link between two nodes; [`Effect::cut`] carries the
    /// quality it had (`None` if no such link is simulated here) for the
    /// later [`WorldOp::HealLink`]. Routes keep using the severed link
    /// until a [`WorldOp::Reroot`], like a real RPL DODAG limping on a
    /// stale parent set.
    CutLink(NodeId, NodeId),
    /// Restores a severed link with the quality it had. A no-op unless
    /// both endpoints are simulated here.
    HealLink(NodeId, NodeId, LinkQuality),
    /// Reroots the DODAG at the manager — the reroot-storm primitive, and
    /// the repair step that routes around partitions.
    Reroot,
    /// Enables (or disables) seeded delay/duplicate link chaos on the
    /// delivery queue (see [`LinkChaos`]).
    LinkChaos(Option<LinkChaos>),
    /// Enables (or disables) the seeded gray-failure schedule: directed
    /// hops slowed, made lossier, or cut in windows of virtual time (see
    /// [`LinkDegrade`]).
    LinkDegrade(Option<LinkDegrade>),
    /// Sets the gray-failure crawl factor of the edge cache on `node`:
    /// both processing legs of every reply are stretched by `factor`
    /// until it is reset to one. The cache stays correct — just slow.
    /// Panics on a zero factor (a zero-speed cache is a crash).
    CacheCrawl { node: NodeId, factor: u32 },
}

impl WorldOp {
    /// The node this op acts on, if it names one. A Thing or a cache —
    /// its state, and everything in flight to it — lives in the one
    /// shard owning its subtree, so a partitioned world sends the op
    /// there. An op on a replicated node (a Manager replica) or on none
    /// reaches every shard: a subtree link exists in exactly one shard
    /// and a link between replicated nodes in all of them, so cutting or
    /// healing it everywhere covers both; and the link schedules are
    /// pure functions of (seed, edge, instant), so installing them in
    /// every shard perturbs exactly the hops the sequential world
    /// perturbs.
    pub(crate) fn target(&self) -> Option<NodeId> {
        match *self {
            WorldOp::Plug { node, .. }
            | WorldOp::Unplug { node, .. }
            | WorldOp::Crash(node)
            | WorldOp::Revive(node)
            | WorldOp::CacheCrawl { node, .. } => Some(node),
            WorldOp::CutLink(..)
            | WorldOp::HealLink(..)
            | WorldOp::Reroot
            | WorldOp::LinkChaos(_)
            | WorldOp::LinkDegrade(_) => None,
        }
    }
}

/// What an applied [`WorldOp`] did that its caller counts; most ops
/// report nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Effect {
    /// Parked singleflight followers a cache crash failed over.
    pub followers_drained: u64,
    /// Half-written driver images a revived MCU rejected.
    pub images_rejected: u64,
    /// Driver refetches a revived MCU issued.
    pub refetches: u64,
    /// The quality a cut link had, for its heal.
    pub cut: Option<LinkQuality>,
}

impl Effect {
    /// Folds the effect of the same op in another shard into this one.
    pub(crate) fn merge(self, other: Effect) -> Effect {
        Effect {
            followers_drained: self.followers_drained + other.followers_drained,
            images_rejected: self.images_rejected + other.images_rejected,
            refetches: self.refetches + other.refetches,
            cut: other.cut.or(self.cut),
        }
    }
}

/// The simulation surface the fleet harness drives: apply mutations,
/// run the event loop and read the observable outcome back.
///
/// Two implementations exist: the sequential [`World`] and the
/// thread-parallel [`ShardedWorld`](crate::shard::ShardedWorld), both
/// built from one [`BuildPlan`]. The differential test harness runs the
/// same seeded scenarios against both and asserts bit-identical
/// fingerprints and virtual metrics.
pub trait SimWorld {
    /// Applies one mutation at virtual instant `at` (see [`WorldOp`] for
    /// when each op takes effect) and reports what it did.
    fn apply(&mut self, at: SimTime, op: WorldOp) -> Effect;
    /// Runs until no interrupts, deliveries or scheduled events remain.
    fn run_until_idle(&mut self);
    /// Runs until the absolute virtual instant `deadline` (no-op if it
    /// has passed) and leaves `now` exactly there — the primitive that
    /// lets the chaos harness pause a wave mid-transfer and inject a
    /// fault at a deterministic instant.
    fn run_until(&mut self, deadline: SimTime);
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// The catalog of known peripherals.
    fn catalog(&self) -> &Catalog;
    /// Access a Thing.
    fn thing(&self, id: ThingId) -> &Thing;
    /// Access a client's observations.
    fn client(&self, id: ClientId) -> &Client;
    /// Injects a pre-built datagram from `from` at virtual time `at` —
    /// the primitive fleet workloads use to stage many requests before
    /// one run of the loop.
    fn inject(&mut self, at: SimTime, from: NodeId, dgram: Datagram);
    /// Builds a (10) read request from `client` without driving the loop.
    fn client_request_read(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram;
    /// Builds a (12) stream request from `client` without driving the
    /// loop.
    fn client_request_stream(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram;
    /// The DODAG parent of `node` — the routing edge above an arbitrary
    /// interior node, which a [`WorldOp::CutLink`] can sever to orphan
    /// its whole subtree.
    fn dodag_parent(&self, node: NodeId) -> Option<NodeId>;
    /// Manager replicas constructed (primary + standby) — the multiplier
    /// on the bounded-retention invariant; a sharded world counts each
    /// shard's replicas.
    fn manager_replicas(&self) -> u64;
    /// Aggregate distribution-tier counters (caches + origin).
    fn distro_stats(&self) -> DistroStats;
    /// Aggregate traffic statistics.
    fn net_stats(&self) -> upnp_net::network::NetStats;
    /// Radio energy consumed by `node` so far, joules.
    fn radio_energy_j(&self, node: NodeId) -> f64;
    /// Enables (or disables) virtual-clock distributed tracing. One
    /// branch per hook while disabled; enabling mid-run starts tracing
    /// plugs from the next plug instant (pipelines already in flight
    /// stay untraced).
    fn set_tracing(&mut self, enabled: bool);
    /// Drains every span recorded so far in canonical order (sorted by
    /// start, trace, kind, node) — the span set a sharded world returns
    /// is bit-identical to the sequential one at every shard count.
    fn take_spans(&mut self) -> Vec<Span>;
    /// Dumps the bounded flight-recorder window (merged across shards)
    /// as self-describing JSON — the artifact the soak gate uploads on
    /// failure.
    fn flight_dump(&self, reason: &str) -> String;
}

impl SimWorld for World {
    fn apply(&mut self, at: SimTime, op: WorldOp) -> Effect {
        let mut effect = Effect::default();
        match op {
            WorldOp::Plug {
                node,
                channel,
                device,
            } => {
                let thing = self.thing_on(node);
                self.sched.schedule_at(
                    at,
                    WorldEvent::Plug {
                        thing,
                        channel,
                        device,
                    },
                );
            }
            WorldOp::Unplug { node, channel } => {
                let thing = self.thing_on(node);
                self.sched
                    .schedule_at(at, WorldEvent::Unplug { thing, channel });
            }
            WorldOp::Crash(node) => effect = self.crash(at, node),
            WorldOp::Revive(node) => effect = self.revive(at, node),
            WorldOp::CutLink(a, b) => {
                effect.cut = self.net.link_quality(a, b);
                if effect.cut.is_some() {
                    self.net.unlink(a, b);
                }
            }
            WorldOp::HealLink(a, b, quality) => {
                if self.kind(a) != NodeKind::Ghost && self.kind(b) != NodeKind::Ghost {
                    self.net.link(a, b, quality);
                }
            }
            WorldOp::Reroot => {
                let root = self.manager().node;
                self.net.build_tree(root);
            }
            WorldOp::LinkChaos(chaos) => self.net.set_link_chaos(chaos),
            WorldOp::LinkDegrade(degrade) => self.net.set_link_degrade(degrade),
            WorldOp::CacheCrawl { node, factor } => {
                assert!(factor > 0, "crawl factor must be >= 1");
                let NodeKind::Cache(i) = self.kind(node) else {
                    panic!("{node:?} holds no cache");
                };
                self.cache_crawl[i] = factor;
            }
        }
        effect
    }

    fn run_until_idle(&mut self) {
        // Bounded by a large iteration budget: a logic bug must fail a
        // test, not hang it.
        for _ in 0..10_000_000 {
            if !self.step() {
                return;
            }
        }
        panic!("world failed to go idle (event loop runaway)");
    }

    fn run_until(&mut self, deadline: SimTime) {
        self.run_for(deadline.saturating_since(self.now));
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn thing(&self, id: ThingId) -> &Thing {
        &self.things[id.0]
    }

    fn client(&self, id: ClientId) -> &Client {
        &self.clients[id.0]
    }

    fn inject(&mut self, at: SimTime, from: NodeId, dgram: Datagram) {
        self.net.send(at, from, dgram);
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
        self.net.dodag_parent(node)
    }

    fn manager_replicas(&self) -> u64 {
        self.replicas.len() as u64
    }

    fn distro_stats(&self) -> DistroStats {
        let mut s = DistroStats::default();
        for c in &self.caches {
            s.cache_hits += c.stats.hits;
            s.cache_misses += c.stats.misses;
            s.cache_coalesced += c.stats.coalesced;
            s.cache_uploads += c.stats.uploads_served;
        }
        for m in &self.replicas {
            s.origin_uploads += m.uploads_served;
            s.mgr_inventory += m.inventory().len() as u64;
            s.mgr_removal_acks += m.removal_acks_total;
        }
        s
    }

    fn net_stats(&self) -> upnp_net::network::NetStats {
        self.net.stats()
    }

    fn radio_energy_j(&self, node: NodeId) -> f64 {
        self.net.radio_energy_j(node)
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    fn take_spans(&mut self) -> Vec<Span> {
        let mut spans = self.trace.take_spans();
        upnp_trace::canonical_sort(&mut spans);
        spans
    }

    fn flight_dump(&self, reason: &str) -> String {
        self.trace.recorder().dump_json(reason)
    }
}
