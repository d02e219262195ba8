//! The driver-distribution tier: in-network **edge caches** for the µPnP
//! Manager's repository.
//!
//! The paper's Manager (§5.3) is a single anycast-addressed server; at
//! fleet scale it serves every driver upload of a discovery wave alone.
//! This crate supplies the missing tier: [`EdgeCache`] nodes placed at
//! DODAG-interior routers, each registered as an *additional instance* of
//! the Manager's anycast address. A Thing's (4) driver request resolves
//! to the nearest instance — usually a cache one hop up its own subtree —
//! and the cache answers with the ordinary (5) driver upload, so Things
//! are oblivious to the tier's existence.
//!
//! Three mechanisms make the tier behave under load:
//!
//! * **Bounded LRU.** Each cache holds at most `capacity` compiled
//!   driver images; the least-recently-served entry is evicted when a
//!   new image lands.
//! * **Request coalescing (singleflight).** Concurrent misses for the
//!   same device type share one upstream fetch: the first miss starts
//!   it, followers park on the in-flight entry and are all answered the
//!   instant the image arrives. A flash crowd of *n* Things behind one
//!   cache costs the origin one fetch per device type, not *n*.
//! * **Chunked origin transfer with per-chunk recovery.** The cache
//!   pulls images from the origin in
//!   [`DRIVER_CHUNK_PAYLOAD`](upnp_net::msg::DRIVER_CHUNK_PAYLOAD)-sized
//!   chunks (stop-and-wait), re-requesting
//!   a chunk whose request or reply was lost — so a lost radio frame
//!   costs one chunk retry, never the whole image. Chunks carry the
//!   repository version; a mid-fetch version change restarts the
//!   transfer, and (20) invalidations (driven by the same flows as the
//!   paper's (8) removals) evict stale images, so origin updates
//!   propagate coherently.
//!
//! Two generation stamps keep the tier exactly-once under misbehaving
//! links and crashing endpoints. On the cache side, every (19) chunk is
//! matched against the stop-and-wait cursor: a delayed or duplicated
//! frame whose `chunk` is not the expected `next` is dropped on the
//! floor, so a doubled chunk can neither double-write the buffer nor
//! skew the fetch counters, and retry timers are invalidated by the
//! per-fetch `gen` token. On the Thing side, the MCU stamps every
//! install with its own generation (bumped on crash): a (5) upload that
//! arrives while the MCU is down tears mid-flash, and on revive the
//! half-written image — stamped with a dead generation — is rejected by
//! signature verification and refetched end-to-end, never stitched
//! across the crash (see `upnp_core`'s Thing revive path).
//!
//! The cache is a pure message-in/actions-out state machine over virtual
//! time, like every other actor: it owns no clock and no network. The
//! world feeds it datagrams and timer expiries through the one seam it
//! feeds every actor through, and applies the returned [`Reply`] — which
//! is exactly what keeps a sharded simulation bit-identical to a
//! sequential one: a cache lives in the one shard that owns its subtree
//! and sees the same requests in the same virtual order either way.

use std::collections::HashMap;
use std::net::Ipv6Addr;

use upnp_dsl::image::DriverImage;
use upnp_net::calib;
use upnp_net::msg::{Message, MessageBody, SeqNo};
use upnp_net::{Action, Datagram, NodeId, Reply};
use upnp_sim::{CpuCost, SimDuration};
use upnp_trace::TraceCtx;

// The delta encoding diffs on the same 64-byte grid the chunked
// transfer protocol ships, so "chunks skipped" below means chunks the
// cache never has to re-fetch. A grid mismatch would be silent drift.
const _: () = assert!(upnp_dsl::delta::CHUNK == upnp_net::msg::DRIVER_CHUNK_PAYLOAD);

/// Cap on the chunk-retry backoff exponent: the retry timer doubles per
/// consecutive timeout up to `retry_timeout << RETRY_BACKOFF_CAP`
/// (250 ms → 8 s at the default config) — long enough to sit out a
/// 10×-latency gray link, short enough that a genuinely lost chunk is
/// still re-requested within a soak epoch.
pub const RETRY_BACKOFF_CAP: u32 = 5;

/// Tuning knobs of one edge cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Maximum driver images held (LRU beyond this).
    pub capacity: usize,
    /// Base wait for a chunk before re-requesting it; doubles per
    /// consecutive timeout, capped at `retry_timeout <<`
    /// [`RETRY_BACKOFF_CAP`].
    pub retry_timeout: SimDuration,
    /// Chunk retries before a fetch is abandoned.
    pub max_retries: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 16,
            retry_timeout: SimDuration::from_millis(250),
            max_retries: 8,
        }
    }
}

/// Cumulative counters of one cache (all deterministic — they feed the
/// fleet scenario metrics and the differential harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered straight from the LRU.
    pub hits: u64,
    /// Requests that started an upstream fetch.
    pub misses: u64,
    /// Requests parked on an already in-flight fetch (singleflight
    /// followers).
    pub coalesced: u64,
    /// (5) driver uploads this cache sent to Things.
    pub uploads_served: u64,
    /// Images evicted by the LRU bound.
    pub evictions: u64,
    /// Images evicted by (8) removals / (20) invalidations.
    pub invalidations: u64,
    /// Fetches abandoned after exhausting chunk retries.
    pub failed_fetches: u64,
    /// Chunk re-requests (per-chunk loss recovery).
    pub chunk_retries: u64,
    /// Parked followers failed over to a direct origin fetch when their
    /// coalesced fetch was abandoned.
    pub failed_over: u64,
    /// Cached images upgraded in place by a (20) invalidation's delta
    /// patch (instead of evict + full re-fetch).
    pub delta_patched: u64,
    /// Delta patches rejected (checksum/structure/image validation) —
    /// each fell back to the plain eviction path.
    pub delta_rejected: u64,
    /// Chunks a delta patch did NOT have to ship or re-fetch: the
    /// patched image's total chunk count minus the chunks the delta
    /// carried, summed over successful patches.
    pub delta_chunks_skipped: u64,
}

/// One cached image.
#[derive(Debug)]
struct CacheEntry {
    version: u16,
    bytes: Vec<u8>,
    /// LRU stamp (monotonic touch counter; unique, so eviction order is
    /// deterministic regardless of map iteration order).
    stamp: u64,
}

/// An in-flight origin fetch with its parked followers.
#[derive(Debug)]
struct Fetch {
    /// Version stamped on the chunks seen so far (`None` before chunk 0
    /// arrives).
    version: Option<u16>,
    /// Total chunk count (learned from the first chunk).
    total: Option<u16>,
    /// The next chunk expected (stop-and-wait cursor).
    next: u16,
    /// Reassembly buffer.
    buf: Vec<u8>,
    /// Requests to answer on completion: `(requester, request seq,
    /// trace context)`, in arrival order. Each follower keeps its *own*
    /// context, so the upload (or failover) answering it stays causally
    /// linked to the request that parked it — not to the fetch
    /// initiator's trace.
    followers: Vec<(Ipv6Addr, SeqNo, TraceCtx)>,
    /// The server the chunks seen so far came from (`None` before the
    /// first chunk). A chunk from a *different* server at the *same*
    /// version is an origin failover: the transfer resumes from the
    /// stop-and-wait cursor instead of restarting or stalling.
    server: Option<Ipv6Addr>,
    /// Timeout count of this fetch, and the backoff level of its retry
    /// timer. Rises on every expiry; *held* (not reset) when the
    /// expected chunk arrives after a timeout, Karn-style — that
    /// arrival is ambiguous (the original reply or the retransmit), so
    /// the measured round trip cannot be trusted to shrink the timer.
    /// On a slow-but-lossless link the level therefore stops rising as
    /// soon as the timer exceeds the real round trip, and every later
    /// chunk is requested exactly once. A mid-fetch version restart is
    /// a new transfer and resets the level.
    retries: u32,
    /// Bumped on every progress step; stale timers carry an older value
    /// and are ignored.
    gen: u64,
    /// Fetch-session nonce carried by every chunk request of this fetch
    /// (retransmits included) — the origin deduplicates its
    /// fetch-session accounting by it.
    session: SeqNo,
    /// Trace context of the request that started this fetch — every
    /// chunk request (and retransmit) of the transfer is stamped with
    /// it, so the whole upstream leg hangs off the initiating miss.
    initiator: TraceCtx,
}

/// An edge node of the driver-distribution tier.
pub struct EdgeCache {
    /// This cache's network node.
    pub node: NodeId,
    /// This cache's unicast address (chunk requests originate here).
    pub address: Ipv6Addr,
    /// The origin repository's unicast address.
    pub origin: Ipv6Addr,
    config: CacheConfig,
    entries: HashMap<u32, CacheEntry>,
    inflight: HashMap<u32, Fetch>,
    /// Monotonic LRU touch counter.
    tick: u64,
    /// Monotonic fetch-generation counter (shared across fetches so a
    /// reused peripheral id can never collide with an old timer).
    fetch_gen: u64,
    /// Fetch-session nonce counter (wrapping; one per started fetch).
    session: SeqNo,
    seq: SeqNo,
    /// Cumulative counters.
    pub stats: CacheStats,
}

impl EdgeCache {
    /// Creates an empty cache on `node` fetching from `origin`.
    pub fn new(node: NodeId, address: Ipv6Addr, origin: Ipv6Addr, config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "a cache needs at least one slot");
        EdgeCache {
            node,
            address,
            origin,
            config,
            entries: HashMap::new(),
            inflight: HashMap::new(),
            tick: 0,
            fetch_gen: 0,
            session: 0,
            seq: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of images currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached version of a peripheral's image, if present.
    pub fn cached_version(&self, peripheral: u32) -> Option<u16> {
        self.entries.get(&peripheral).map(|e| e.version)
    }

    /// Number of fetches currently in flight.
    pub fn inflight_fetches(&self) -> usize {
        self.inflight.len()
    }

    fn next_seq(&mut self) -> SeqNo {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// The retry-timer duration at backoff level `retries`: the base
    /// timeout doubled per consecutive timeout, capped at
    /// [`RETRY_BACKOFF_CAP`] doublings. A fixed interval here is a live
    /// bug under gray links — a 10×-latency path makes the timer fire
    /// while the chunk is merely in flight, spraying duplicate
    /// `DriverChunkRequest`s on every single chunk of the transfer.
    fn retry_after(&self, retries: u32) -> SimDuration {
        self.config.retry_timeout * (1u64 << retries.min(RETRY_BACKOFF_CAP))
    }

    fn datagram(&self, dst: Ipv6Addr, msg: Message, ctx: TraceCtx) -> Datagram {
        Datagram {
            src: self.address,
            dst,
            src_port: upnp_net::addr::MCAST_PORT,
            dst_port: upnp_net::addr::MCAST_PORT,
            payload: upnp_net::msg::Payload::from(msg.encode()).with_trace(ctx),
        }
    }

    /// Attempts to upgrade a cached image in place from a (20) delta
    /// patch. Returns `true` when the entry now holds `version`; any
    /// failure (malformed wire form, base-checksum mismatch, or a
    /// patched image that does not re-validate) leaves the entry
    /// untouched so the caller can fall back to eviction.
    fn try_delta_patch(&mut self, peripheral: u32, version: u16, patch: &[u8]) -> bool {
        let Some(entry) = self.entries.get_mut(&peripheral) else {
            return false;
        };
        let delta = match upnp_dsl::ImageDelta::from_bytes(patch) {
            Ok(d) => d,
            Err(_) => {
                self.stats.delta_rejected += 1;
                return false;
            }
        };
        let patched = match delta.apply(&entry.bytes) {
            Ok(b) => b,
            Err(_) => {
                self.stats.delta_rejected += 1;
                return false;
            }
        };
        // The checksums only prove we rebuilt the origin's bytes; prove
        // the bytes are a well-formed, verifiable image before serving
        // them to motes.
        let valid = DriverImage::from_bytes(&patched)
            .ok()
            .is_some_and(|image| upnp_dsl::verify(&image).is_ok());
        if !valid {
            self.stats.delta_rejected += 1;
            return false;
        }
        self.stats.delta_chunks_skipped += (delta.total_chunks() - delta.chunks.len()) as u64;
        self.stats.delta_patched += 1;
        entry.bytes = patched;
        entry.version = version;
        true
    }

    fn upload(
        &self,
        dst: Ipv6Addr,
        seq: SeqNo,
        peripheral: u32,
        image: &[u8],
        ctx: TraceCtx,
    ) -> Datagram {
        self.datagram(
            dst,
            Message {
                seq,
                body: MessageBody::DriverUpload {
                    peripheral,
                    image: image.to_vec(),
                },
            },
            ctx,
        )
    }

    fn chunk_request(&mut self, peripheral: u32, chunk: u16) -> Datagram {
        let seq = self.next_seq();
        let (session, ctx) = self
            .inflight
            .get(&peripheral)
            .map(|f| (f.session, f.initiator))
            .expect("chunk requests belong to an in-flight fetch");
        self.datagram(
            self.origin,
            Message {
                seq,
                body: MessageBody::DriverChunkRequest {
                    peripheral,
                    session,
                    chunk,
                },
            },
            ctx,
        )
    }

    /// Touches the LRU stamp of a live entry.
    fn touch(&mut self, peripheral: u32) {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&peripheral) {
            e.stamp = self.tick;
        }
    }

    /// Inserts an image, evicting the least-recently-used entry when the
    /// bound is hit. Stamps are unique, so the victim is deterministic.
    fn insert(&mut self, peripheral: u32, version: u16, bytes: Vec<u8>) {
        if !self.entries.contains_key(&peripheral) && self.entries.len() >= self.config.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&p, _)| p)
                .expect("capacity > 0 implies an entry");
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        self.entries.insert(
            peripheral,
            CacheEntry {
                version,
                bytes,
                stamp: self.tick,
            },
        );
    }

    /// Handles a datagram delivered to this cache. The world applies the
    /// returned actions after the processing legs.
    pub fn on_datagram(&mut self, dgram: &Datagram) -> Reply {
        let Some(msg) = Message::decode(&dgram.payload) else {
            return Reply::default();
        };
        match msg.body {
            MessageBody::DriverRequest { peripheral } => {
                self.on_driver_request(dgram.src, msg.seq, peripheral, dgram.payload.trace())
            }
            MessageBody::DriverChunk {
                peripheral,
                version,
                chunk,
                total,
                data,
            } => self.on_chunk(dgram.src, peripheral, version, chunk, total, data),
            MessageBody::DriverRemoval { peripheral } => {
                // The paper's (8) removal, honoured at the tier: evict
                // and acknowledge with (9), like a Thing would.
                let removed = self.entries.remove(&peripheral).is_some();
                if removed {
                    self.stats.invalidations += 1;
                }
                let mut reply =
                    Reply::with_cost(calib::UDP_RECV_PATH + calib::REPO_LOOKUP).sending();
                reply.actions.push(Action::Send(self.datagram(
                    dgram.src,
                    Message {
                        seq: msg.seq,
                        body: MessageBody::DriverRemovalAck {
                            peripheral,
                            removed,
                        },
                    },
                    dgram.payload.trace(),
                )));
                reply
            }
            MessageBody::DriverInvalidate {
                peripheral,
                version,
                delta,
            } => {
                // A delta patch can upgrade a strictly-older cached copy
                // in place: apply (base checksum guards against patching
                // the wrong bytes), then re-validate the result as a
                // whole image before trusting it. Any failure falls back
                // to plain eviction — a delta is an optimisation, never
                // a correctness dependency.
                if self
                    .entries
                    .get(&peripheral)
                    .is_some_and(|e| e.version < version)
                {
                    if let Some(patch) = delta.as_deref() {
                        if self.try_delta_patch(peripheral, version, patch) {
                            return Reply::with_cost(calib::UDP_RECV_PATH + calib::REPO_LOOKUP);
                        }
                    }
                    // Evict only strictly older copies; an in-flight
                    // fetch is left alone — the origin already serves
                    // the new version, and the chunk version check
                    // restarts the transfer if it straddled the update.
                    self.entries.remove(&peripheral);
                    self.stats.invalidations += 1;
                }
                Reply::with_cost(calib::UDP_RECV_PATH + calib::REPO_LOOKUP)
            }
            _ => Reply::with_cost(calib::UDP_RECV_PATH),
        }
    }

    fn on_driver_request(
        &mut self,
        requester: Ipv6Addr,
        seq: SeqNo,
        peripheral: u32,
        ctx: TraceCtx,
    ) -> Reply {
        let mut cost = CpuCost::ZERO;
        cost += calib::UDP_RECV_PATH;
        cost += calib::REPO_LOOKUP;
        if self.entries.contains_key(&peripheral) {
            self.touch(peripheral);
            self.stats.hits += 1;
            self.stats.uploads_served += 1;
            cost += calib::UPLOAD_SETUP;
            let upload = self.upload(
                requester,
                seq,
                peripheral,
                &self.entries[&peripheral].bytes,
                ctx,
            );
            let mut reply = Reply::with_cost(cost).sending();
            reply.actions.push(Action::Send(upload));
            return reply;
        }
        if let Some(fetch) = self.inflight.get_mut(&peripheral) {
            // Singleflight: park on the in-flight fetch.
            fetch.followers.push((requester, seq, ctx));
            self.stats.coalesced += 1;
            return Reply::with_cost(cost);
        }
        // Cold miss: start the chunked fetch.
        self.stats.misses += 1;
        self.fetch_gen += 1;
        let gen = self.fetch_gen;
        self.session = self.session.wrapping_add(1);
        self.inflight.insert(
            peripheral,
            Fetch {
                version: None,
                total: None,
                next: 0,
                buf: Vec::new(),
                followers: vec![(requester, seq, ctx)],
                server: None,
                retries: 0,
                gen,
                session: self.session,
                initiator: ctx,
            },
        );
        let req = self.chunk_request(peripheral, 0);
        let mut reply = Reply::with_cost(cost).sending();
        reply.actions.push(Action::Send(req));
        reply.actions.push(Action::Timer {
            key: peripheral,
            gen,
            after: self.retry_after(0),
        });
        reply
    }

    fn on_chunk(
        &mut self,
        src: Ipv6Addr,
        peripheral: u32,
        version: u16,
        chunk: u16,
        total: u16,
        data: Vec<u8>,
    ) -> Reply {
        enum Step {
            /// No fetch / malformed / duplicate: drop on the floor (the
            /// retry timer recovers genuine losses).
            Ignore,
            /// Ask the origin for this chunk now (progress, an active
            /// restart after a mid-fetch version change, or a resume
            /// after an origin failover). `fresh_session` marks a
            /// version-change restart: the restarted transfer is a *new*
            /// fetch session, so it must carry a new nonce — reusing the
            /// stale one makes the origin's chunk-0 dedup mistake it for
            /// a retransmit of the dead session.
            Request { next: u16, fresh_session: bool },
            /// All chunks in: finalise the fetch.
            Complete,
        }
        let cost = calib::UDP_RECV_PATH;
        let step = {
            let Some(fetch) = self.inflight.get_mut(&peripheral) else {
                return Reply::with_cost(cost); // No fetch: stale chunk.
            };
            if total == 0 || chunk >= total {
                Step::Ignore // Malformed.
            } else {
                // Two distinct staleness causes, told apart by the
                // version stamp and the serving address:
                //  * new version (any server) — restart from chunk 0 so
                //    an image can never be stitched from two versions;
                //  * new server, same version — an anycast failover
                //    mid-transfer; the image bytes are identical, so the
                //    transfer *resumes* from the stop-and-wait cursor.
                let restarted = fetch.version.is_some_and(|v| v != version);
                let failover = !restarted && fetch.server.is_some_and(|s| s != src);
                if restarted {
                    fetch.version = None;
                    fetch.total = None;
                    fetch.next = 0;
                    fetch.buf.clear();
                    fetch.retries = 0;
                }
                fetch.server = Some(src);
                if chunk != fetch.next {
                    if restarted || failover {
                        Step::Request {
                            next: fetch.next,
                            fresh_session: restarted,
                        }
                    } else {
                        Step::Ignore // Duplicate/stale retransmit.
                    }
                } else {
                    fetch.version = Some(version);
                    fetch.total = Some(total);
                    fetch.buf.extend_from_slice(&data);
                    fetch.next += 1;
                    // `fetch.retries` is deliberately NOT reset: see its
                    // field docs (Karn-style backoff hold).
                    if fetch.next == total {
                        Step::Complete
                    } else {
                        Step::Request {
                            next: fetch.next,
                            fresh_session: restarted,
                        }
                    }
                }
            }
        };
        match step {
            Step::Ignore => Reply::with_cost(cost),
            Step::Request {
                next,
                fresh_session,
            } => {
                self.fetch_gen += 1;
                let gen = self.fetch_gen;
                if fresh_session {
                    self.session = self.session.wrapping_add(1);
                }
                let session = self.session;
                let fetch = self
                    .inflight
                    .get_mut(&peripheral)
                    .expect("fetch is in flight");
                fetch.gen = gen;
                if fresh_session {
                    fetch.session = session;
                }
                let level = fetch.retries;
                let req = self.chunk_request(peripheral, next);
                let mut reply = Reply::with_cost(cost).sending();
                reply.actions.push(Action::Send(req));
                reply.actions.push(Action::Timer {
                    key: peripheral,
                    gen,
                    after: self.retry_after(level),
                });
                reply
            }
            Step::Complete => {
                // Validate, cache, answer every parked follower.
                let fetch = self.inflight.remove(&peripheral).expect("in flight");
                let bytes = fetch.buf;
                let version = fetch.version.expect("chunks carried a version");
                // Defence in depth, as the Things themselves do: a
                // corrupt reassembly must not be cached, let alone
                // fanned out.
                if DriverImage::from_bytes(&bytes)
                    .ok()
                    .filter(|img| upnp_dsl::verify(img).is_ok())
                    .is_none()
                {
                    self.stats.failed_fetches += 1;
                    return Reply::with_cost(cost);
                }
                self.insert(peripheral, version, bytes.clone());
                let mut reply =
                    Reply::with_cost(cost + calib::REPO_LOOKUP + calib::UPLOAD_SETUP).sending();
                self.stats.uploads_served += fetch.followers.len() as u64;
                for (requester, seq, ctx) in fetch.followers {
                    reply.actions.push(Action::Send(
                        self.upload(requester, seq, peripheral, &bytes, ctx),
                    ));
                }
                reply
            }
        }
    }

    /// Handles a retry-timer expiry armed by a previous
    /// [`Action::Timer`]. Stale timers (the fetch progressed or
    /// finished since) are ignored via the generation token.
    pub fn on_timer(&mut self, peripheral: u32, gen: u64) -> Reply {
        let Some(fetch) = self.inflight.get_mut(&peripheral) else {
            return Reply::default();
        };
        if fetch.gen != gen {
            return Reply::default(); // Progress since armed.
        }
        if fetch.retries >= self.config.max_retries {
            // Abandon the fetch — but never strand the parked followers.
            // Each one is failed over to a direct origin fetch: the cache
            // forwards the follower's original (4) request with the
            // follower as source, so the origin's (5) upload goes
            // straight back to the Thing and the dead coalesced fetch
            // costs it one retry round, not its driver.
            let fetch = self.inflight.remove(&peripheral).expect("in flight");
            self.stats.failed_fetches += 1;
            if fetch.followers.is_empty() {
                return Reply::default();
            }
            self.stats.failed_over += fetch.followers.len() as u64;
            let mut reply = Reply::default().sending();
            for (requester, seq, ctx) in fetch.followers {
                reply.actions.push(Action::Send(Datagram {
                    src: requester,
                    dst: self.origin,
                    src_port: upnp_net::addr::MCAST_PORT,
                    dst_port: upnp_net::addr::MCAST_PORT,
                    payload: upnp_net::msg::Payload::from(
                        Message {
                            seq,
                            body: MessageBody::DriverRequest { peripheral },
                        }
                        .encode(),
                    )
                    .with_trace(ctx),
                }));
            }
            return reply;
        }
        fetch.retries += 1;
        self.fetch_gen += 1;
        fetch.gen = self.fetch_gen;
        let (gen, next, level) = (fetch.gen, fetch.next, fetch.retries);
        self.stats.chunk_retries += 1;
        let req = self.chunk_request(peripheral, next);
        let mut reply = Reply::with_cost(calib::REPO_LOOKUP).sending();
        reply.actions.push(Action::Send(req));
        reply.actions.push(Action::Timer {
            key: peripheral,
            gen,
            after: self.retry_after(level),
        });
        reply
    }

    /// An ungraceful crash: RAM is gone (cached images *and* in-flight
    /// fetches), the persistent counters survive (they model the
    /// harness's external observability, not cache RAM). Returns the
    /// followers that were parked on in-flight fetches — `(peripheral,
    /// requester, request seq, trace context)` in deterministic order
    /// (by peripheral, then arrival) — so the world can re-issue their
    /// (4) requests against the next-nearest anycast instance without
    /// severing the requests' trace lineage. `fetch_gen` keeps counting
    /// across the crash, so every pre-crash retry timer is stale by
    /// construction once the cache restarts cold.
    pub fn crash(&mut self) -> Vec<(u32, Ipv6Addr, SeqNo, TraceCtx)> {
        self.entries.clear();
        let mut fetches: Vec<(u32, Fetch)> = self.inflight.drain().collect();
        fetches.sort_by_key(|&(p, _)| p);
        fetches
            .into_iter()
            .flat_map(|(p, fetch)| {
                fetch
                    .followers
                    .into_iter()
                    .map(move |(requester, seq, ctx)| (p, requester, seq, ctx))
            })
            .collect()
    }
}

impl std::fmt::Debug for EdgeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeCache")
            .field("node", &self.node)
            .field("entries", &self.entries.len())
            .field("inflight", &self.inflight.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_net::msg::DRIVER_CHUNK_PAYLOAD;

    const ORIGIN: &str = "2001:db8::1";
    const THING_A: &str = "2001:db8::a";
    const THING_B: &str = "2001:db8::b";

    fn cache() -> EdgeCache {
        EdgeCache::new(
            NodeId(1),
            "2001:db8::c".parse().unwrap(),
            ORIGIN.parse().unwrap(),
            CacheConfig::default(),
        )
    }

    fn dgram(src: &str, body: MessageBody) -> Datagram {
        Datagram {
            src: src.parse().unwrap(),
            dst: "2001:db8::c".parse().unwrap(),
            src_port: upnp_net::addr::MCAST_PORT,
            dst_port: upnp_net::addr::MCAST_PORT,
            payload: Message { seq: 9, body }.encode().into(),
        }
    }

    /// A compiled driver image the cache will accept, as chunk bodies.
    fn image_bytes() -> Vec<u8> {
        upnp_dsl::compile_source(upnp_dsl::drivers::TMP36, 0xad1c_be01)
            .expect("driver compiles")
            .to_bytes()
    }

    fn chunks_of(bytes: &[u8], version: u16) -> Vec<MessageBody> {
        let total = bytes.len().div_ceil(DRIVER_CHUNK_PAYLOAD) as u16;
        bytes
            .chunks(DRIVER_CHUNK_PAYLOAD)
            .enumerate()
            .map(|(i, c)| MessageBody::DriverChunk {
                peripheral: 0xad1c_be01,
                version,
                chunk: i as u16,
                total,
                data: c.to_vec(),
            })
            .collect()
    }

    fn sends(reply: &Reply) -> Vec<&Datagram> {
        reply
            .actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(d) => Some(d),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn miss_fetches_chunks_then_serves_all_followers() {
        let mut c = cache();
        let p = 0xad1c_be01;
        // First request: miss, chunk 0 requested from the origin.
        let r1 = c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        let out = sends(&r1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, ORIGIN.parse::<Ipv6Addr>().unwrap());
        // Second request while the fetch is in flight: coalesced, silent.
        let r2 = c.on_datagram(&dgram(
            THING_B,
            MessageBody::DriverRequest { peripheral: p },
        ));
        assert!(sends(&r2).is_empty());
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.coalesced, 1);

        // Feed the chunks; each one advances the stop-and-wait cursor.
        let bytes = image_bytes();
        let chunks = chunks_of(&bytes, 1);
        assert!(chunks.len() >= 2, "image must span several chunks");
        let mut uploads = Vec::new();
        for body in chunks {
            let r = c.on_datagram(&dgram(ORIGIN, body));
            for d in sends(&r) {
                if let Some(Message {
                    body: MessageBody::DriverUpload { image, .. },
                    ..
                }) = Message::decode(&d.payload)
                {
                    uploads.push((d.dst, image));
                }
            }
        }
        // Both followers answered from the one fetch, bytes intact.
        assert_eq!(uploads.len(), 2);
        assert_eq!(uploads[0].0, THING_A.parse::<Ipv6Addr>().unwrap());
        assert_eq!(uploads[1].0, THING_B.parse::<Ipv6Addr>().unwrap());
        assert_eq!(uploads[0].1, bytes);
        assert_eq!(c.stats.uploads_served, 2);
        assert_eq!(c.cached_version(p), Some(1));

        // Third request: a pure hit, answered immediately.
        let r3 = c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        assert_eq!(sends(&r3).len(), 1);
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn duplicated_chunks_are_idempotent() {
        // A delay/duplicate link can hand the cache the same (19) chunk
        // twice, or echo one late. Every copy whose `chunk` is not the
        // stop-and-wait cursor must be dropped on the floor: no
        // double-write into the reassembly buffer, no extra chunk
        // requests, no stats skew — the image and the counters end
        // bit-identical to a clean transfer.
        let mut c = cache();
        let p = 0xad1c_be01;
        let r = c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        assert_eq!(sends(&r).len(), 1);

        let bytes = image_bytes();
        let chunks = chunks_of(&bytes, 1);
        assert!(chunks.len() >= 2, "image must span several chunks");
        let mut uploads = Vec::new();
        let mut requests = 0usize;
        for body in &chunks {
            let r = c.on_datagram(&dgram(ORIGIN, body.clone()));
            for d in sends(&r) {
                match Message::decode(&d.payload) {
                    Some(Message {
                        body: MessageBody::DriverUpload { image, .. },
                        ..
                    }) => uploads.push(image),
                    Some(Message {
                        body: MessageBody::DriverChunkRequest { .. },
                        ..
                    }) => requests += 1,
                    _ => {}
                }
            }
            // The doubled frame: delivered again right away, it must be
            // completely silent.
            let dup = c.on_datagram(&dgram(ORIGIN, body.clone()));
            assert!(sends(&dup).is_empty(), "duplicate chunk must be ignored");
        }
        // A late echo of the final chunk after the fetch completed is
        // just as silent (no in-flight fetch to confuse).
        let echo = c.on_datagram(&dgram(ORIGIN, chunks.last().unwrap().clone()));
        assert!(
            sends(&echo).is_empty(),
            "post-completion echo must be ignored"
        );

        assert_eq!(uploads.len(), 1, "exactly one upload served");
        assert_eq!(uploads[0], bytes, "image intact — no double-write");
        assert_eq!(requests, chunks.len() - 1, "one advance per unique chunk");
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.uploads_served, 1);
        assert_eq!(c.stats.chunk_retries, 0, "duplicates are not retries");
        assert_eq!(c.cached_version(p), Some(1));
    }

    #[test]
    fn timer_rerequests_lost_chunk_then_abandons() {
        let mut c = cache();
        let p = 0xad1c_be01;
        let r = c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        let Action::Timer { gen, .. } = r.actions[1] else {
            panic!("miss must arm the retry timer");
        };
        // The chunk request (or its reply) was lost: the timer fires and
        // re-requests chunk 0, up to max_retries times.
        let mut gen = gen;
        for i in 0..c.config.max_retries {
            let r = c.on_timer(p, gen);
            assert_eq!(sends(&r).len(), 1, "retry {i} re-requests the chunk");
            let Action::Timer { gen: g, .. } = r.actions[1] else {
                panic!("retry re-arms");
            };
            gen = g;
        }
        assert_eq!(c.stats.chunk_retries, c.config.max_retries as u64);
        // One more expiry: abandoned — but the parked follower must be
        // failed over to a direct origin fetch, not stranded forever.
        let r = c.on_timer(p, gen);
        let out = sends(&r);
        assert_eq!(out.len(), 1, "abandon fails the waiter over to the origin");
        assert_eq!(out[0].dst, ORIGIN.parse::<Ipv6Addr>().unwrap());
        assert_eq!(
            out[0].src,
            THING_A.parse::<Ipv6Addr>().unwrap(),
            "the proxied request carries the follower as source so the \
             origin's upload goes straight back to the Thing"
        );
        let Some(Message {
            seq,
            body: MessageBody::DriverRequest { peripheral },
        }) = Message::decode(&out[0].payload)
        else {
            panic!("failover must be a (4) driver request");
        };
        assert_eq!(peripheral, p);
        assert_eq!(seq, 9, "the follower's original request seq is kept");
        assert_eq!(c.stats.failed_fetches, 1);
        assert_eq!(c.stats.failed_over, 1);
        assert_eq!(c.inflight_fetches(), 0);
    }

    #[test]
    fn abandon_fails_over_every_follower_in_arrival_order() {
        let mut c = cache();
        let p = 0xad1c_be01;
        let r = c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        let Action::Timer { mut gen, .. } = r.actions[1] else {
            panic!("miss arms a timer");
        };
        c.on_datagram(&dgram(
            THING_B,
            MessageBody::DriverRequest { peripheral: p },
        ));
        for _ in 0..c.config.max_retries {
            let r = c.on_timer(p, gen);
            let Action::Timer { gen: g, .. } = r.actions[1] else {
                panic!("retry re-arms");
            };
            gen = g;
        }
        let r = c.on_timer(p, gen);
        let out = sends(&r);
        assert_eq!(out.len(), 2, "both followers failed over");
        assert_eq!(out[0].src, THING_A.parse::<Ipv6Addr>().unwrap());
        assert_eq!(out[1].src, THING_B.parse::<Ipv6Addr>().unwrap());
        assert!(out
            .iter()
            .all(|d| d.dst == ORIGIN.parse::<Ipv6Addr>().unwrap()));
        assert_eq!(c.stats.failed_over, 2);
    }

    #[test]
    fn slow_but_lossless_link_fetches_each_chunk_exactly_once() {
        // The gray-failure regression: a 10×-latency link delivers every
        // chunk, just slowly (600 ms round trip against the 250 ms base
        // timeout). A fixed-interval retry timer fires while each chunk
        // is merely in flight and re-requests every single one; the
        // exponential backoff must instead adapt within two expiries and
        // then fetch every remaining chunk exactly once, completing the
        // transfer with one fetch session and no abandon.
        let mut c = cache();
        let p = 0xad1c_be01;
        let rtt = SimDuration::from_millis(600);
        // The largest sample driver: 15 chunks, a long tail after the
        // backoff has adapted.
        let bytes = upnp_dsl::compile_source(upnp_dsl::drivers::BMP180, p)
            .expect("driver compiles")
            .to_bytes();
        let chunks = chunks_of(&bytes, 1);
        assert!(chunks.len() >= 4, "needs a tail after the adaptation");

        #[derive(Debug)]
        enum Ev {
            /// The origin's reply to a chunk request lands at the cache.
            Chunk(u16),
            /// A retry timer armed with this generation expires.
            Timer(u64),
        }
        let mut events: Vec<(SimDuration, Ev)> = Vec::new();
        let mut now = SimDuration::ZERO;
        let mut requests_per_chunk = vec![0u32; chunks.len()];
        let mut sessions = std::collections::BTreeSet::new();
        let mut uploads = 0;
        let absorb = |reply: &Reply,
                      now: SimDuration,
                      events: &mut Vec<(SimDuration, Ev)>,
                      requests_per_chunk: &mut Vec<u32>,
                      sessions: &mut std::collections::BTreeSet<SeqNo>,
                      uploads: &mut u32| {
            for a in &reply.actions {
                match a {
                    Action::Send(d) => match Message::decode(&d.payload) {
                        Some(Message {
                            body: MessageBody::DriverChunkRequest { chunk, session, .. },
                            ..
                        }) => {
                            requests_per_chunk[chunk as usize] += 1;
                            sessions.insert(session);
                            // Lossless: the origin answers every request
                            // one round trip later.
                            events.push((now + rtt, Ev::Chunk(chunk)));
                        }
                        Some(Message {
                            body: MessageBody::DriverUpload { .. },
                            ..
                        }) => *uploads += 1,
                        _ => {}
                    },
                    Action::Timer { gen, after, .. } => {
                        events.push((now + *after, Ev::Timer(*gen)));
                    }
                    Action::Join(_) | Action::Leave(_) => unreachable!("a cache joins no group"),
                }
            }
        };

        let r = c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        absorb(
            &r,
            now,
            &mut events,
            &mut requests_per_chunk,
            &mut sessions,
            &mut uploads,
        );
        while !events.is_empty() {
            // Pop the earliest event (stable on ties: chunks were pushed
            // before timers at the same instant).
            let i = (0..events.len())
                .min_by_key(|&i| events[i].0)
                .expect("non-empty");
            let (t, ev) = events.remove(i);
            now = t;
            let r = match ev {
                Ev::Chunk(i) => c.on_datagram(&dgram(ORIGIN, chunks[i as usize].clone())),
                Ev::Timer(gen) => c.on_timer(p, gen),
            };
            absorb(
                &r,
                now,
                &mut events,
                &mut requests_per_chunk,
                &mut sessions,
                &mut uploads,
            );
        }

        // The transfer completed through the slow link: one upload to
        // the one follower, image cached, nothing abandoned.
        assert_eq!(uploads, 1, "the parked follower is served");
        assert_eq!(c.cached_version(p), Some(1));
        assert_eq!(c.stats.failed_fetches, 0, "no abandon on a live link");
        assert_eq!(c.stats.failed_over, 0);
        assert_eq!(sessions.len(), 1, "one fetch session, never double-counted");
        // The backoff adapts within two expiries (250 → 500 → 1000 ms,
        // past the 600 ms round trip) and then holds, Karn-style.
        assert_eq!(
            c.stats.chunk_retries, 2,
            "exactly the two adaptation expiries, not one per chunk"
        );
        // Every chunk past the adaptation is requested exactly once —
        // the fixed-interval bug re-requested all of them.
        for (i, &n) in requests_per_chunk.iter().enumerate().skip(2) {
            assert_eq!(n, 1, "chunk {i} must be fetched exactly once, saw {n}");
        }
        assert!(requests_per_chunk[..2].iter().all(|&n| n <= 2));
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let c = cache();
        let base = c.config.retry_timeout;
        assert_eq!(c.retry_after(0), base);
        assert_eq!(c.retry_after(1), base * 2);
        assert_eq!(c.retry_after(RETRY_BACKOFF_CAP), base * 32);
        // Levels beyond the cap stop growing.
        assert_eq!(c.retry_after(RETRY_BACKOFF_CAP + 7), base * 32);
    }

    #[test]
    fn stale_timer_is_ignored_after_progress() {
        let mut c = cache();
        let p = 0xad1c_be01;
        let r = c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        let Action::Timer { gen, .. } = r.actions[1] else {
            panic!("miss arms a timer");
        };
        // Chunk 0 arrives before the timer fires.
        let bytes = image_bytes();
        c.on_datagram(&dgram(ORIGIN, chunks_of(&bytes, 1)[0].clone()));
        let r = c.on_timer(p, gen);
        assert!(r.actions.is_empty(), "stale timer must be a no-op");
        assert_eq!(c.stats.chunk_retries, 0);
    }

    #[test]
    fn version_change_mid_fetch_restarts_coherently() {
        let mut c = cache();
        let p = 0xad1c_be01;
        c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        let bytes = image_bytes();
        let v1 = chunks_of(&bytes, 1);
        let v2 = chunks_of(&bytes, 2);
        // Chunk 0 of v1, then the origin is updated: chunk 1 arrives as v2.
        c.on_datagram(&dgram(ORIGIN, v1[0].clone()));
        let r = c.on_datagram(&dgram(ORIGIN, v2[1].clone()));
        // The cache restarts: it re-requests chunk 0.
        let out = sends(&r);
        assert_eq!(out.len(), 1);
        let Some(Message {
            body: MessageBody::DriverChunkRequest { chunk, .. },
            ..
        }) = Message::decode(&out[0].payload)
        else {
            panic!("restart must re-request a chunk");
        };
        assert_eq!(chunk, 0, "restart goes back to chunk 0");
        // Replaying the full v2 transfer completes with version 2.
        for body in v2 {
            c.on_datagram(&dgram(ORIGIN, body));
        }
        assert_eq!(c.cached_version(p), Some(2));
    }

    fn chunk_request_of(d: &Datagram) -> (u16, SeqNo) {
        let Some(Message {
            body: MessageBody::DriverChunkRequest { chunk, session, .. },
            ..
        }) = Message::decode(&d.payload)
        else {
            panic!(
                "expected a chunk request, got {:?}",
                Message::decode(&d.payload)
            );
        };
        (chunk, session)
    }

    #[test]
    fn restart_after_version_change_carries_fresh_session() {
        let mut c = cache();
        let p = 0xad1c_be01;
        let r = c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        let (_, s1) = chunk_request_of(sends(&r)[0]);
        let bytes = image_bytes();
        let v1 = chunks_of(&bytes, 1);
        let v2 = chunks_of(&bytes, 2);
        c.on_datagram(&dgram(ORIGIN, v1[0].clone()));
        // Mid-fetch version change: the restart is a NEW fetch session,
        // so its chunk-0 re-request must carry a fresh nonce — replaying
        // the stale one makes the origin's dedup swallow the session.
        let r = c.on_datagram(&dgram(ORIGIN, v2[1].clone()));
        let (chunk, s2) = chunk_request_of(sends(&r)[0]);
        assert_eq!(chunk, 0, "restart goes back to chunk 0");
        assert_ne!(s2, s1, "restarted transfer must take a fresh session nonce");
    }

    #[test]
    fn failover_same_version_resumes_from_cursor() {
        const STANDBY: &str = "2001:db8::2";
        let mut c = cache();
        let p = 0xad1c_be01;
        c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        let bytes = image_bytes();
        let v1 = chunks_of(&bytes, 1);
        assert!(v1.len() >= 2, "failover test needs a mid-transfer cursor");
        // Chunk 0 arrives from the primary origin: cursor moves to 1.
        let r = c.on_datagram(&dgram(ORIGIN, v1[0].clone()));
        let (_, s1) = chunk_request_of(sends(&r)[0]);
        let Action::Timer { gen: old_gen, .. } = r.actions[1] else {
            panic!("progress re-arms the timer");
        };
        // The origin fails over: the standby replays chunk 0 at the SAME
        // version. That is not a new image — the transfer must resume
        // from the cursor (chunk 1), not restart or silently stall.
        let r = c.on_datagram(&dgram(STANDBY, v1[0].clone()));
        let out = sends(&r);
        assert_eq!(out.len(), 1, "failover resumes actively");
        let (chunk, s2) = chunk_request_of(out[0]);
        assert_eq!(chunk, 1, "resume continues at the stop-and-wait cursor");
        assert_eq!(s2, s1, "same version, same fetch session");
        // Generation-stamp path: the resume re-stamps the fetch, so the
        // timer armed before the failover is stale and must be a no-op.
        let Action::Timer { gen: new_gen, .. } = r.actions[1] else {
            panic!("resume re-arms the timer");
        };
        assert_ne!(new_gen, old_gen);
        assert!(c.on_timer(p, old_gen).actions.is_empty(), "stale timer");
        // The standby finishes the transfer.
        for body in v1.into_iter().skip(1) {
            c.on_datagram(&dgram(STANDBY, body));
        }
        assert_eq!(c.cached_version(p), Some(1));
        assert_eq!(c.stats.uploads_served, 1);
    }

    #[test]
    fn crash_drops_state_but_surfaces_parked_followers() {
        let mut c = cache();
        let p = 0xad1c_be01;
        // A warm entry and an in-flight fetch with two parked followers.
        c.insert(7, 1, image_bytes());
        let r = c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        let Action::Timer { gen, .. } = r.actions[1] else {
            panic!("miss arms a timer");
        };
        c.on_datagram(&dgram(
            THING_B,
            MessageBody::DriverRequest { peripheral: p },
        ));
        let stranded = c.crash();
        // RAM is gone; the followers are handed back in arrival order so
        // the world can re-resolve them to another anycast instance.
        assert_eq!(
            stranded,
            vec![
                (p, THING_A.parse().unwrap(), 9, TraceCtx::NONE),
                (p, THING_B.parse().unwrap(), 9, TraceCtx::NONE),
            ]
        );
        assert!(c.is_empty());
        assert_eq!(c.inflight_fetches(), 0);
        // Counters survive (external observability, not cache RAM).
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.coalesced, 1);
        // A pre-crash retry timer is stale after the cold restart.
        assert!(c.on_timer(p, gen).actions.is_empty());
        // The restarted cache serves from cold: a request is a miss.
        let r = c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        assert_eq!(sends(&r).len(), 1, "cold restart fetches again");
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn lru_bound_evicts_oldest() {
        let mut c = EdgeCache::new(
            NodeId(1),
            "2001:db8::c".parse().unwrap(),
            ORIGIN.parse().unwrap(),
            CacheConfig {
                capacity: 2,
                ..CacheConfig::default()
            },
        );
        c.insert(1, 1, image_bytes());
        c.insert(2, 1, image_bytes());
        c.touch(1); // 2 is now the least recently used.
        c.insert(3, 1, image_bytes());
        assert_eq!(c.len(), 2);
        assert!(c.cached_version(1).is_some());
        assert!(c.cached_version(2).is_none(), "LRU victim");
        assert!(c.cached_version(3).is_some());
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn removal_and_invalidation_evict() {
        let mut c = cache();
        c.insert(7, 2, image_bytes());
        // (20) with an older-or-equal version: no-op.
        c.on_datagram(&dgram(
            ORIGIN,
            MessageBody::DriverInvalidate {
                peripheral: 7,
                version: 2,
                delta: None,
            },
        ));
        assert_eq!(c.cached_version(7), Some(2));
        // (20) with a newer version: evicted.
        c.on_datagram(&dgram(
            ORIGIN,
            MessageBody::DriverInvalidate {
                peripheral: 7,
                version: 3,
                delta: None,
            },
        ));
        assert_eq!(c.cached_version(7), None);
        // (8) removal: evicted and acked.
        c.insert(8, 1, image_bytes());
        let r = c.on_datagram(&dgram(ORIGIN, MessageBody::DriverRemoval { peripheral: 8 }));
        let out = sends(&r);
        assert_eq!(out.len(), 1);
        let Some(Message {
            body: MessageBody::DriverRemovalAck { removed, .. },
            ..
        }) = Message::decode(&out[0].payload)
        else {
            panic!("removal must be acked");
        };
        assert!(removed);
        assert_eq!(c.cached_version(8), None);
        assert_eq!(c.stats.invalidations, 2);
    }

    #[test]
    fn delta_invalidation_patches_in_place() {
        let mut c = cache();
        let p = 0xad1c_be01;
        let old =
            upnp_dsl::compile_source_with(upnp_dsl::drivers::TMP36, p, upnp_dsl::OptLevel::None)
                .expect("driver compiles")
                .to_bytes();
        let new = image_bytes(); // same driver at full optimisation
        assert_ne!(old, new, "the two versions must differ for a real patch");
        c.insert(p, 1, old.clone());
        let patch = upnp_dsl::ImageDelta::diff(&old, &new);
        c.on_datagram(&dgram(
            ORIGIN,
            MessageBody::DriverInvalidate {
                peripheral: p,
                version: 2,
                delta: Some(patch.to_bytes()),
            },
        ));
        assert_eq!(c.cached_version(p), Some(2), "upgraded, not evicted");
        assert_eq!(
            c.entries[&p].bytes, new,
            "patched bytes are bit-equal to the full v2 image"
        );
        assert_eq!(c.stats.delta_patched, 1);
        assert_eq!(
            c.stats.delta_chunks_skipped,
            (patch.total_chunks() - patch.chunks.len()) as u64
        );
        assert_eq!(c.stats.invalidations, 0, "no eviction happened");
    }

    #[test]
    fn wrong_base_delta_falls_back_to_eviction() {
        let mut c = cache();
        let p = 0xad1c_be01;
        c.insert(p, 1, image_bytes());
        // A patch diffed against a different base image: the base
        // checksum cannot match the cached bytes.
        let other = upnp_dsl::compile_source(upnp_dsl::drivers::BMP180, p)
            .expect("driver compiles")
            .to_bytes();
        let patch = upnp_dsl::ImageDelta::diff(&other, &image_bytes());
        c.on_datagram(&dgram(
            ORIGIN,
            MessageBody::DriverInvalidate {
                peripheral: p,
                version: 2,
                delta: Some(patch.to_bytes()),
            },
        ));
        assert_eq!(c.cached_version(p), None, "rejected patch ⇒ plain eviction");
        assert_eq!(c.stats.delta_rejected, 1);
        assert_eq!(c.stats.invalidations, 1);
    }

    #[test]
    fn malformed_delta_wire_form_falls_back_to_eviction() {
        let mut c = cache();
        let p = 0xad1c_be01;
        c.insert(p, 1, image_bytes());
        c.on_datagram(&dgram(
            ORIGIN,
            MessageBody::DriverInvalidate {
                peripheral: p,
                version: 2,
                delta: Some(vec![0xff; 5]),
            },
        ));
        assert_eq!(c.cached_version(p), None);
        assert_eq!(c.stats.delta_rejected, 1);
        assert_eq!(c.stats.invalidations, 1);
    }

    #[test]
    fn trace_context_propagates_through_fetch_and_followers() {
        use upnp_trace::{SpanId, TraceId};

        let ctx_a = TraceCtx {
            trace: TraceId(0xaaaa),
            parent: SpanId(0xa1),
        };
        let ctx_b = TraceCtx {
            trace: TraceId(0xbbbb),
            parent: SpanId(0xb1),
        };
        let traced = |src: &str, body: MessageBody, ctx: TraceCtx| {
            let mut d = dgram(src, body);
            d.payload = d.payload.with_trace(ctx);
            d
        };
        let mut c = cache();
        let p = 0xad1c_be01;

        // Miss: the chunk request upstream carries the initiator's ctx.
        let r = c.on_datagram(&traced(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
            ctx_a,
        ));
        assert_eq!(sends(&r)[0].payload.trace(), ctx_a);
        // Follower parks with its own ctx.
        c.on_datagram(&traced(
            THING_B,
            MessageBody::DriverRequest { peripheral: p },
            ctx_b,
        ));

        // Every chunk advance (and the completion uploads) keep lineage.
        let bytes = image_bytes();
        let mut uploads = Vec::new();
        for body in chunks_of(&bytes, 1) {
            let r = c.on_datagram(&dgram(ORIGIN, body));
            for d in sends(&r) {
                match Message::decode(&d.payload).map(|m| m.body) {
                    Some(MessageBody::DriverChunkRequest { .. }) => {
                        assert_eq!(
                            d.payload.trace(),
                            ctx_a,
                            "retransfer leg keeps initiator ctx"
                        );
                    }
                    Some(MessageBody::DriverUpload { .. }) => {
                        uploads.push((d.dst, d.payload.trace()));
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(
            uploads,
            vec![
                (THING_A.parse().unwrap(), ctx_a),
                (THING_B.parse().unwrap(), ctx_b),
            ],
            "each follower's upload carries that follower's own context"
        );

        // Cache hit: the upload carries the requester's context.
        let r = c.on_datagram(&traced(
            THING_B,
            MessageBody::DriverRequest { peripheral: p },
            ctx_b,
        ));
        assert_eq!(sends(&r)[0].payload.trace(), ctx_b);
    }

    #[test]
    fn trace_context_survives_retries_and_failover() {
        use upnp_trace::{SpanId, TraceId};

        let ctx_a = TraceCtx {
            trace: TraceId(0xaaaa),
            parent: SpanId(0xa1),
        };
        let ctx_b = TraceCtx {
            trace: TraceId(0xbbbb),
            parent: SpanId(0xb1),
        };
        let traced = |src: &str, body: MessageBody, ctx: TraceCtx| {
            let mut d = dgram(src, body);
            d.payload = d.payload.with_trace(ctx);
            d
        };
        let mut c = cache();
        let p = 0xad1c_be01;
        let r = c.on_datagram(&traced(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
            ctx_a,
        ));
        let Action::Timer { mut gen, .. } = r.actions[1] else {
            panic!("miss arms a timer");
        };
        c.on_datagram(&traced(
            THING_B,
            MessageBody::DriverRequest { peripheral: p },
            ctx_b,
        ));
        // Retries re-request with the initiator's ctx.
        for _ in 0..c.config.max_retries {
            let r = c.on_timer(p, gen);
            assert_eq!(sends(&r)[0].payload.trace(), ctx_a);
            let Action::Timer { gen: g, .. } = r.actions[1] else {
                panic!("retry re-arms");
            };
            gen = g;
        }
        // Abandon: each follower's proxied failover request carries that
        // follower's own context.
        let r = c.on_timer(p, gen);
        let out = sends(&r);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].payload.trace(), ctx_a);
        assert_eq!(out[1].payload.trace(), ctx_b);
    }

    #[test]
    fn corrupt_reassembly_is_rejected_not_cached() {
        let mut c = cache();
        let p = 0xad1c_be01;
        c.on_datagram(&dgram(
            THING_A,
            MessageBody::DriverRequest { peripheral: p },
        ));
        // A single garbage chunk claiming to be the whole image.
        let r = c.on_datagram(&dgram(
            ORIGIN,
            MessageBody::DriverChunk {
                peripheral: p,
                version: 1,
                chunk: 0,
                total: 1,
                data: vec![0xff; 10],
            },
        ));
        assert!(sends(&r).is_empty(), "no upload from garbage");
        assert_eq!(c.cached_version(p), None);
        assert_eq!(c.stats.failed_fetches, 1);
    }
}
