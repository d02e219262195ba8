//! Distributed-tracing span derivation: the observer at the world's one
//! apply point.
//!
//! The protocol actors (Thing, Manager, EdgeCache) stay trace-unaware.
//! Every span is derived here from the stimulus an actor answered, the
//! [`Reply`] it answered with, and the same timeline stamps the latency
//! tables are built from. The world calls [`Tracer::observe`] on its
//! loop's own thread, just before it applies the reply, behind one
//! `enabled` branch: the disabled path never reaches this module, and
//! spans are recorded in the loop's deterministic order.

use std::collections::HashMap;

use upnp_net::msg::{Message, MessageBody};
use upnp_net::{Action, Datagram, NodeId, Reply};
use upnp_sim::SimTime;
use upnp_trace::{FlightRecorder, Span, SpanKind, TraceCtx, TraceId, TraceSink};

use crate::thing::Thing;
use crate::world::Input;

/// Trace bookkeeping for one in-flight plug→advertise pipeline: the
/// contexts later hooks parent their spans under.
#[derive(Debug, Clone, Copy)]
struct PipeTrace {
    /// Context under the plug root span (parent of the scan span).
    root: TraceCtx,
    /// Context under the scan/identify chain (parent of the resolve
    /// leg); equals `root` until the scan span is recorded.
    scan: TraceCtx,
    /// The scan span has been recorded (it is derived lazily from the
    /// timeline after the board interrupt is serviced).
    scan_recorded: bool,
}

/// The actor that answered a stimulus, as the observer sees it.
pub(crate) enum Actor<'a> {
    /// A Thing, with its index in the world.
    Thing(usize, &'a Thing),
    /// A Manager replica on its node.
    Replica(NodeId),
    /// An edge cache on its node.
    Cache(NodeId),
    /// A client: it records no span.
    Client,
}

/// A world's span recorder.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    sink: TraceSink,
    /// Pipelines being traced, keyed by `(thing index, peripheral id)`.
    /// Empty while tracing is disabled.
    pipes: HashMap<(usize, u32), PipeTrace>,
}

impl Tracer {
    /// Whether spans are recorded.
    pub(crate) fn enabled(&self) -> bool {
        self.sink.enabled
    }

    /// Starts (or stops) recording; stopping forgets the pipelines in
    /// flight.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.sink.enabled = enabled;
        if !enabled {
            self.pipes.clear();
        }
    }

    /// Drains every span recorded so far, in recording order.
    pub(crate) fn take_spans(&mut self) -> Vec<Span> {
        self.sink.take_spans()
    }

    /// The bounded window of recent spans.
    pub(crate) fn recorder(&self) -> &FlightRecorder {
        self.sink.recorder()
    }

    /// Records the root span of a plug of `peripheral` into the Thing at
    /// index `thing` on `node`, and opens its pipeline.
    pub(crate) fn plug(
        &mut self,
        thing: usize,
        node: NodeId,
        peripheral: u32,
        trace: TraceId,
        now: SimTime,
    ) {
        let ns = now.as_nanos();
        let plug = Span::new(TraceCtx::root(trace), SpanKind::Plug, node.0 as u64, ns, ns);
        self.sink.record(plug);
        let pipe = PipeTrace {
            root: plug.ctx(),
            scan: plug.ctx(),
            scan_recorded: false,
        };
        self.pipes.insert((thing, peripheral), pipe);
    }

    /// Records the failover of a (4) request under `ctx` that a crashed
    /// cache's follower reissues from its own node at `at`, and returns
    /// the context the reissue carries.
    pub(crate) fn failover(&mut self, ctx: TraceCtx, from: NodeId, at: SimTime) -> TraceCtx {
        let ns = at.as_nanos();
        let span = Span::new(ctx, SpanKind::Failover, from.0 as u64, ns, ns);
        self.sink.record(span);
        span.ctx()
    }

    /// Derives the spans of one reply before the world applies it, and
    /// re-stamps the sends whose receivers parent spans under a new one.
    /// `at` is the stimulus instant, `ready` and `send` the reply's
    /// ready and send instants.
    pub(crate) fn observe(
        &mut self,
        actor: Actor<'_>,
        input: Input<'_>,
        at: SimTime,
        (ready, send): (SimTime, SimTime),
        reply: &mut Reply,
    ) {
        match actor {
            Actor::Thing(i, thing) => {
                match input {
                    Input::Interrupt => self.scan(i, thing),
                    Input::Datagram(d) => self.verify(i, thing, d, at),
                    Input::Timer { .. } | Input::Revive => {}
                }
                for d in sends(reply) {
                    self.resolve(i, thing.node, send, d);
                }
            }
            Actor::Replica(node) => {
                // A traced (4) request served by the origin: the serve
                // span covers the processing leg.
                let Input::Datagram(request) = input else {
                    return;
                };
                let ctx = request.payload.trace();
                if ctx.is_none() {
                    return;
                }
                for d in sends(reply) {
                    if d.payload.first() == Some(&MessageBody::DRIVER_UPLOAD_TYPE) {
                        self.serve(ctx, node, (at, ready), d);
                    }
                }
            }
            Actor::Cache(node) => {
                if let Input::Datagram(request) = input {
                    self.cache_lookup(node, request, (at, ready), reply);
                }
                let from_timer = matches!(input, Input::Timer { .. });
                for d in sends(reply) {
                    self.cache_send(node, d, (at, ready, send), from_timer);
                }
            }
            Actor::Client => {}
        }
    }

    /// Records a serve span under `ctx` over `[at, ready]` and re-stamps
    /// the (5) upload `d`, so the Thing-side verify/install spans parent
    /// under it.
    fn serve(
        &mut self,
        ctx: TraceCtx,
        node: NodeId,
        (at, ready): (SimTime, SimTime),
        d: &mut Datagram,
    ) {
        let serve = Span::new(
            ctx,
            SpanKind::Serve,
            node.0 as u64,
            at.as_nanos(),
            ready.as_nanos(),
        );
        self.sink.record(serve);
        d.payload = d.payload.traced(serve.ctx());
    }

    /// Derives scan/identify spans for `thing`'s freshly serviced
    /// pipelines from its plug timelines. A driver cached locally on
    /// the Thing installs inside the same board interrupt — no network
    /// legs exist — so such pipelines are closed here too.
    fn scan(&mut self, i: usize, thing: &Thing) {
        let node = thing.node.0 as u64;
        let keys: Vec<(usize, u32)> = self.pipes.keys().filter(|k| k.0 == i).copied().collect();
        for key in keys {
            let pipe = self.pipes[&key];
            if pipe.scan_recorded {
                continue;
            }
            let Some(tl) = thing.timelines.get(&key.1) else {
                continue;
            };
            let (Some(started), Some(scan)) = (tl.scan_started, tl.scan) else {
                continue;
            };
            let scan_end = started + scan;
            let scan_span = Span::new(
                pipe.root,
                SpanKind::Scan,
                node,
                started.as_nanos(),
                scan_end.as_nanos(),
            );
            self.sink.record(scan_span);
            let end_ns = scan_end.as_nanos();
            let identify = Span::new(scan_span.ctx(), SpanKind::Identify, node, end_ns, end_ns);
            self.sink.record(identify);
            let entry = self.pipes.get_mut(&key).expect("key from map");
            entry.scan = identify.ctx();
            entry.scan_recorded = true;
            // `finished >= scan start` distinguishes a locally served
            // pipeline from a stale stamp left by an earlier plug of
            // the same device type.
            if tl.finished.is_some_and(|f| f >= started) {
                self.install(thing, key.1, identify.ctx(), scan_end);
                self.pipes.remove(&key);
            }
        }
    }

    /// Stamps an outgoing (4) driver request with its pipeline's trace
    /// context, recording the resolve span — the anycast resolution
    /// happens as the frame enters the network at `send`.
    fn resolve(&mut self, i: usize, node: NodeId, send: SimTime, d: &mut Datagram) {
        let Some((MessageBody::DRIVER_REQUEST_TYPE, peripheral)) = Message::header(&d.payload)
        else {
            return;
        };
        let Some(pipe) = self.pipes.get(&(i, peripheral)) else {
            return;
        };
        let ns = send.as_nanos();
        let resolve = Span::new(pipe.scan, SpanKind::Resolve, node.0 as u64, ns, ns);
        self.sink.record(resolve);
        d.payload = d.payload.traced(resolve.ctx());
    }

    /// Closes a traced pipeline when its (5) driver upload is delivered
    /// at `at`: a verify span (the DSL safety check) at the delivery
    /// instant, then install/join/advertise from the timeline stamps.
    fn verify(&mut self, i: usize, thing: &Thing, d: &Datagram, at: SimTime) {
        let ctx = d.payload.trace();
        if ctx.is_none() {
            return;
        }
        let Some((MessageBody::DRIVER_UPLOAD_TYPE, peripheral)) = Message::header(&d.payload)
        else {
            return;
        };
        let Some(tl) = thing.timelines.get(&peripheral) else {
            return;
        };
        if tl.upload_received != Some(at) {
            return; // A duplicate or stale upload this pipeline ignored.
        }
        let ns = at.as_nanos();
        let verify = Span::new(ctx, SpanKind::Verify, thing.node.0 as u64, ns, ns);
        self.sink.record(verify);
        if tl.finished.is_some_and(|f| f >= at) {
            self.install(thing, peripheral, ctx, at);
            self.pipes.remove(&(i, peripheral));
        }
    }

    /// Derives the install/join/advertise spans of a completed pipeline
    /// from its timeline stamps. `install_start` anchors the install
    /// span: the upload delivery instant, or the scan end for drivers
    /// served from the Thing's local store.
    fn install(
        &mut self,
        thing: &Thing,
        peripheral: u32,
        parent: TraceCtx,
        install_start: SimTime,
    ) {
        let node = thing.node.0 as u64;
        let Some(tl) = thing.timelines.get(&peripheral) else {
            return;
        };
        let (Some(installed), Some(finished)) = (tl.installed, tl.finished) else {
            return;
        };
        let install = Span::new(
            parent,
            SpanKind::Install,
            node,
            install_start.as_nanos(),
            installed.as_nanos(),
        );
        self.sink.record(install);
        if let (Some(join), Some(adv)) = (tl.join_group, tl.advertise) {
            let adv_start = finished - adv;
            let join_span = Span::new(
                install.ctx(),
                SpanKind::Join,
                node,
                (adv_start - join).as_nanos(),
                adv_start.as_nanos(),
            );
            self.sink.record(join_span);
            let advert = Span::new(
                install.ctx(),
                SpanKind::Advertise,
                node,
                adv_start.as_nanos(),
                finished.as_nanos(),
            );
            self.sink.record(advert);
        }
    }

    /// Classifies a cache's handling of a traced (4) driver request by
    /// the reply it gave: a hit answers with the upload from its LRU, a
    /// miss with the chunk request of a new upstream fetch, and a
    /// coalesce parks on the fetch in flight and sends nothing.
    fn cache_lookup(
        &mut self,
        node: NodeId,
        request: &Datagram,
        (at, ready): (SimTime, SimTime),
        reply: &Reply,
    ) {
        let ctx = request.payload.trace();
        if ctx.is_none() || request.payload.first() != Some(&MessageBody::DRIVER_REQUEST_TYPE) {
            return;
        }
        let kind = match reply.actions.first() {
            None => SpanKind::Coalesce,
            Some(Action::Send(d)) => match d.payload.first() {
                Some(&MessageBody::DRIVER_UPLOAD_TYPE) => SpanKind::CacheHit,
                Some(&MessageBody::DRIVER_CHUNK_REQUEST_TYPE) => SpanKind::CacheMiss,
                _ => return,
            },
            Some(_) => return,
        };
        let span = Span::new(ctx, kind, node.0 as u64, at.as_nanos(), ready.as_nanos());
        self.sink.record(span);
    }

    /// Records the span of a traced frame leaving a cache — the
    /// chunk-fetch/retry legs of an upstream transfer, the failover
    /// reissue of an abandoned one, and the served (5) upload, which is
    /// re-stamped so the Thing-side verify/install spans parent under
    /// the serve.
    fn cache_send(
        &mut self,
        node: NodeId,
        d: &mut Datagram,
        (at, ready, send): (SimTime, SimTime, SimTime),
        from_timer: bool,
    ) {
        let ctx = d.payload.trace();
        if ctx.is_none() {
            return;
        }
        let kind = match d.payload.first() {
            Some(&MessageBody::DRIVER_CHUNK_REQUEST_TYPE) if from_timer => SpanKind::Retry,
            Some(&MessageBody::DRIVER_CHUNK_REQUEST_TYPE) => SpanKind::ChunkFetch,
            // An abandoned transfer's proxied reissue: the cache fails
            // the parked request over to the next-nearest anycast
            // instance.
            Some(&MessageBody::DRIVER_REQUEST_TYPE) => SpanKind::Failover,
            Some(&MessageBody::DRIVER_UPLOAD_TYPE) => return self.serve(ctx, node, (at, ready), d),
            _ => return,
        };
        let ns = send.as_nanos();
        self.sink
            .record(Span::new(ctx, kind, node.0 as u64, ns, ns));
    }
}

/// The datagrams a reply sends, mutably, in order.
fn sends(reply: &mut Reply) -> impl Iterator<Item = &mut Datagram> {
    reply.actions.iter_mut().filter_map(|a| match a {
        Action::Send(d) => Some(d),
        _ => None,
    })
}
