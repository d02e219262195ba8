//! Deterministic distributed tracing for the µPnP fleet.
//!
//! The simulator's headline numbers are end-to-end latencies
//! (plug → identify → driver fetch → install), but counters and
//! histograms only say *how much* — never *why this one request was
//! slow*. This crate adds per-request causality that is itself
//! **bit-identical under sharding**, extending the repo's core thesis
//! (deterministic observability of a distributed system) from
//! aggregates down to individual spans:
//!
//! * [`TraceId`] / [`SpanId`] — identifiers derived purely from
//!   simulation facts (seed, node, port, virtual instant) by
//!   [`splitmix64`] folds, the same decomposed-keying trick that makes
//!   the shard layer's RNG streams shard-invariant. No counters, no
//!   allocation order, nothing host-dependent.
//! * [`TraceCtx`] — the two-word context carried inside network
//!   payloads across every hop of the plug pipeline, including cache
//!   hops, singleflight parking, retries and cross-shard rooted-frame
//!   exchange.
//! * [`Span`] / [`SpanKind`] — the span taxonomy of the pipeline,
//!   recorded into a [`TraceSink`] per World and merged across shards
//!   by [`canonical_sort`] (a pure function of span fields, so the
//!   merged set is identical at every shard count).
//! * [`FlightRecorder`] — a bounded ring of the most recent spans,
//!   dumped to a JSON artifact when a soak invariant or bench gate
//!   trips, so a red CI run ships the victim requests' hop-by-hop
//!   history instead of a bare counter.
//! * [`chrome_trace_json`] — Chrome trace-event / Perfetto export for
//!   `fleet --trace-out`.
//! * [`MetricsRegistry`] — the labelled-counter table that a
//!   scenario's and a soak's deterministic fields register into: what
//!   the deterministic summaries render and the bench gates compare.
//! * [`Digest`] — the shared order-sensitive fold used by every
//!   deterministic summary (previously copy-pasted per call site).
//!
//! Context carriage is always on (two machine words per payload);
//! span *recording* is gated by [`TraceSink::enabled`] so the whole
//! subsystem costs one predictable branch when disabled.

use std::collections::VecDeque;
use std::fmt;

use upnp_sim::splitmix64;

/// Order-sensitive 64-bit fold over a stream of values — the one
/// digest primitive every deterministic summary shares. Two streams
/// agree only if they contain the same values in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// Starts a digest from a domain-separating salt.
    pub fn seeded(salt: u64) -> Self {
        Digest(splitmix64(salt))
    }

    /// Folds one value into the running digest.
    pub fn fold(&mut self, v: u64) -> &mut Self {
        self.0 = splitmix64(self.0 ^ v);
        self
    }

    /// Folds every value of an iterator, in order.
    pub fn fold_all<I: IntoIterator<Item = u64>>(&mut self, vs: I) -> &mut Self {
        for v in vs {
            self.fold(v);
        }
        self
    }

    /// The folded value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

// Domain-separation salts for the id derivations. Arbitrary odd
// constants; changing one changes every id, so they are part of the
// trace format.
const TRACE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const SPAN_SALT: u64 = 0xbf58_476d_1ce4_e5b9;

/// Folds a 16-byte node address into the `u64` node key used by the
/// id derivations and span records.
pub fn node_key(addr: &[u8; 16]) -> u64 {
    let hi = u64::from_be_bytes(addr[..8].try_into().unwrap());
    let lo = u64::from_be_bytes(addr[8..].try_into().unwrap());
    let mut d = Digest::seeded(hi ^ TRACE_SALT);
    d.fold(lo);
    d.value()
}

/// Identifier of one end-to-end request (one plug's journey through
/// the pipeline). Zero is the reserved "no trace" sentinel.
///
/// Derived purely from `(fleet seed, node, port, plug instant)` —
/// facts that are bit-identical between a sequential run and any
/// sharded run — so the *same* plug gets the *same* trace id at every
/// shard count, with no coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The "no trace" sentinel carried by payloads that are not part
    /// of a traced request (beacons, DODAG maintenance, …).
    pub const NONE: TraceId = TraceId(0);

    /// Derives the trace id for a plug event.
    pub fn derive(seed: u64, node: u64, port: u16, at_ns: u64) -> Self {
        let mut d = Digest::seeded(seed ^ TRACE_SALT);
        d.fold(node).fold(port as u64).fold(at_ns);
        // Keep zero reserved for NONE: the fold landing on 0 is
        // astronomically unlikely but must not alias the sentinel.
        TraceId(if d.value() == 0 {
            TRACE_SALT
        } else {
            d.value()
        })
    }

    /// Is this the [`TraceId::NONE`] sentinel?
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifier of one span within a trace. Zero is the reserved "no
/// parent" sentinel for root spans.
///
/// Derived from `(trace, kind, node, start instant)`: virtual start
/// times are shard-invariant (the shard layer's equivalence guarantee)
/// and unique per `(trace, kind, node)`, so no occurrence counter is
/// needed and ids never depend on recording order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no parent" sentinel of root spans.
    pub const NONE: SpanId = SpanId(0);

    /// Derives the span id for one recorded span.
    pub fn derive(trace: TraceId, kind: SpanKind, node: u64, start_ns: u64) -> Self {
        let mut d = Digest::seeded(trace.0 ^ SPAN_SALT);
        d.fold(kind.code()).fold(node).fold(start_ns);
        SpanId(if d.value() == 0 { SPAN_SALT } else { d.value() })
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The trace context carried inside every network payload: which
/// request this frame belongs to and which span caused it. Two machine
/// words, `Copy`, always carried — recording is what's gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceCtx {
    /// The request this frame belongs to ([`TraceId::NONE`] if untraced).
    pub trace: TraceId,
    /// The span that caused this frame ([`SpanId::NONE`] at the root).
    pub parent: SpanId,
}

impl TraceCtx {
    /// The untraced context (what `Payload::from(bytes)` defaults to).
    pub const NONE: TraceCtx = TraceCtx {
        trace: TraceId(0),
        parent: SpanId(0),
    };

    /// A root context for a fresh trace.
    pub fn root(trace: TraceId) -> Self {
        TraceCtx {
            trace,
            parent: SpanId::NONE,
        }
    }

    /// The same trace, re-parented under `span` — what a hop stamps on
    /// the frames it causes.
    pub fn child_of(&self, span: SpanId) -> Self {
        TraceCtx {
            trace: self.trace,
            parent: span,
        }
    }

    /// Is this the untraced sentinel?
    pub fn is_none(&self) -> bool {
        self.trace.is_none()
    }
}

/// The span taxonomy of the plug pipeline. Codes and names are part of
/// the trace format (ids fold the code; exports and docs print the
/// name) — append new kinds, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Root span: peripheral plugged → driver installed and serving.
    Plug,
    /// Bus scan probing the freshly plugged peripheral.
    Scan,
    /// Peripheral identification (the three-tier ID lookup).
    Identify,
    /// Anycast resolution of the (4) driver request to a cache or
    /// Manager instance.
    Resolve,
    /// Cache hit: the edge cache served the driver from memory.
    CacheHit,
    /// Cache miss: the edge cache had to fetch from the origin.
    CacheMiss,
    /// Singleflight parking: this request coalesced onto an in-flight
    /// fetch for the same driver.
    Coalesce,
    /// One chunked stop-and-wait transfer leg (cache ← origin).
    ChunkFetch,
    /// A stop-and-wait retransmission after timeout (Karn backoff).
    Retry,
    /// A parked follower failed over to the next-nearest instance
    /// after its cache crashed or abandoned the fetch.
    Failover,
    /// The (5) driver upload serving the requester.
    Serve,
    /// Signature/FNV verification of the received image.
    Verify,
    /// VM driver installation on the MCU.
    Install,
    /// Multicast group join after install.
    Join,
    /// Service advertisement after install.
    Advertise,
}

impl SpanKind {
    /// Every kind, in code order — exports and the docs-sync test
    /// iterate this.
    pub const ALL: [SpanKind; 15] = [
        SpanKind::Plug,
        SpanKind::Scan,
        SpanKind::Identify,
        SpanKind::Resolve,
        SpanKind::CacheHit,
        SpanKind::CacheMiss,
        SpanKind::Coalesce,
        SpanKind::ChunkFetch,
        SpanKind::Retry,
        SpanKind::Failover,
        SpanKind::Serve,
        SpanKind::Verify,
        SpanKind::Install,
        SpanKind::Join,
        SpanKind::Advertise,
    ];

    /// Stable numeric code folded into span ids.
    pub fn code(&self) -> u64 {
        match self {
            SpanKind::Plug => 1,
            SpanKind::Scan => 2,
            SpanKind::Identify => 3,
            SpanKind::Resolve => 4,
            SpanKind::CacheHit => 5,
            SpanKind::CacheMiss => 6,
            SpanKind::Coalesce => 7,
            SpanKind::ChunkFetch => 8,
            SpanKind::Retry => 9,
            SpanKind::Failover => 10,
            SpanKind::Serve => 11,
            SpanKind::Verify => 12,
            SpanKind::Install => 13,
            SpanKind::Join => 14,
            SpanKind::Advertise => 15,
        }
    }

    /// Stable display name used by exports and the span-taxonomy docs.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Plug => "plug",
            SpanKind::Scan => "scan",
            SpanKind::Identify => "identify",
            SpanKind::Resolve => "resolve",
            SpanKind::CacheHit => "cache_hit",
            SpanKind::CacheMiss => "cache_miss",
            SpanKind::Coalesce => "coalesce",
            SpanKind::ChunkFetch => "chunk_fetch",
            SpanKind::Retry => "retry",
            SpanKind::Failover => "failover",
            SpanKind::Serve => "serve",
            SpanKind::Verify => "verify",
            SpanKind::Install => "install",
            SpanKind::Join => "join",
            SpanKind::Advertise => "advertise",
        }
    }
}

/// One completed span: a named interval of virtual time on one node,
/// causally linked to its parent. Every field is deterministic, so
/// span *sets* can be compared bit-for-bit across shard counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id (see [`SpanId::derive`]).
    pub id: SpanId,
    /// The request it belongs to.
    pub trace: TraceId,
    /// The causing span ([`SpanId::NONE`] at the root).
    pub parent: SpanId,
    /// What happened.
    pub kind: SpanKind,
    /// Node key (see [`node_key`]) of where it happened.
    pub node: u64,
    /// Virtual start, nanoseconds.
    pub start_ns: u64,
    /// Virtual end, nanoseconds (`>= start_ns`).
    pub end_ns: u64,
}

impl Span {
    /// Builds a span, deriving its id from the deterministic fields.
    pub fn new(ctx: TraceCtx, kind: SpanKind, node: u64, start_ns: u64, end_ns: u64) -> Self {
        Span {
            id: SpanId::derive(ctx.trace, kind, node, start_ns),
            trace: ctx.trace,
            parent: ctx.parent,
            kind,
            node,
            start_ns,
            end_ns,
        }
    }

    /// The context a hop stamps on frames this span causes.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace: self.trace,
            parent: self.id,
        }
    }

    /// Canonical ordering key: pure function of span fields, no
    /// recording order anywhere — what makes the cross-shard merge
    /// order-invariant.
    fn sort_key(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.trace.0,
            self.start_ns,
            self.kind.code(),
            self.node,
            self.id.0,
        )
    }

    /// One span as a JSON object (hand-rolled: the vendored serde
    /// stub's derive does not cover enums, and the flight-recorder
    /// format is simple enough to not need it).
    pub fn json(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"trace\":\"{}\",\"parent\":\"{}\",\
             \"kind\":\"{}\",\"node\":\"{:016x}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            self.id,
            self.trace,
            self.parent,
            self.kind.name(),
            self.node,
            self.start_ns,
            self.end_ns,
        )
    }
}

/// Sorts spans into the canonical order: by trace, then virtual start,
/// then kind code, node and id. Concatenating per-shard span vectors
/// and canonical-sorting yields the exact sequence a sequential run
/// produces, because no key depends on recording order.
pub fn canonical_sort(spans: &mut [Span]) {
    spans.sort_unstable_by_key(|s| s.sort_key());
}

/// Order-sensitive digest of a canonical span sequence — the one
/// number shard-identity checks compare.
pub fn span_digest(spans: &[Span]) -> u64 {
    let mut d = Digest::seeded(spans.len() as u64 ^ TRACE_SALT);
    for s in spans {
        d.fold(s.id.0)
            .fold(s.trace.0)
            .fold(s.parent.0)
            .fold(s.kind.code())
            .fold(s.node)
            .fold(s.start_ns)
            .fold(s.end_ns);
    }
    d.value()
}

/// Keeps only the spans belonging to the given traces (exemplar
/// extraction: the slowest-per-family recovery traces of a soak).
pub fn filter_traces(spans: &[Span], keep: &[TraceId]) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| keep.contains(&s.trace))
        .copied()
        .collect()
}

/// Bounded ring of the most recent spans — the per-World flight
/// recorder. Eviction is strictly oldest-first in push order, so the
/// surviving window is a deterministic function of the span stream.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: VecDeque<Span>,
    capacity: usize,
    evicted: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            evicted: 0,
        }
    }

    /// Records one span, evicting the oldest when full.
    pub fn push(&mut self, span: Span) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(span);
    }

    /// Spans currently held, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.ring.iter()
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Spans evicted since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Absorbs another recorder's window (cross-shard merge), keeping
    /// the union in canonical order and re-trimming to capacity from
    /// the oldest end.
    pub fn merge(&mut self, other: &FlightRecorder) {
        let mut all: Vec<Span> = self.ring.iter().chain(other.ring.iter()).copied().collect();
        canonical_sort(&mut all);
        all.dedup();
        self.evicted += other.evicted;
        while all.len() > self.capacity {
            all.remove(0);
            self.evicted += 1;
        }
        self.ring = all.into();
    }

    /// The dump artifact written when an invariant or gate trips:
    /// the reason, ring accounting, and every held span, oldest first.
    pub fn dump_json(&self, reason: &str) -> String {
        let spans: Vec<String> = self.ring.iter().map(Span::json).collect();
        format!(
            "{{\"reason\":{},\"capacity\":{},\"evicted\":{},\
             \"held\":{},\"spans\":[{}]}}",
            json_string(reason),
            self.capacity,
            self.evicted,
            self.ring.len(),
            spans.join(",")
        )
    }
}

/// Minimal JSON string escaping for hand-rolled exports.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-World span collector: context carriage is always on, recording
/// happens only while `enabled` — one predictable branch per would-be
/// span when tracing is off.
#[derive(Debug, Clone)]
pub struct TraceSink {
    /// Record spans? Flipped by `fleet --trace-out` / the soak dump
    /// path; when false, [`TraceSink::record`] is a single branch.
    pub enabled: bool,
    spans: Vec<Span>,
    recorder: FlightRecorder,
}

/// Default flight-recorder depth: enough to hold the full hop history
/// of the last few hundred requests without unbounded growth across a
/// day-scale soak.
pub const FLIGHT_RECORDER_CAPACITY: usize = 4096;

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new(false, FLIGHT_RECORDER_CAPACITY)
    }
}

impl TraceSink {
    /// A sink with the given gate and flight-recorder depth.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        TraceSink {
            enabled,
            spans: Vec::new(),
            recorder: FlightRecorder::new(capacity),
        }
    }

    /// Records a completed span (no-op while disabled).
    pub fn record(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        self.spans.push(span);
        self.recorder.push(span);
    }

    /// Spans recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// No spans recorded?
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Drains every recorded span (the cross-shard merge path).
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    /// The flight-recorder window.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Absorbs another sink (cross-shard merge): spans concatenate —
    /// the caller canonical-sorts the merged set — and the recorder
    /// windows merge canonically.
    pub fn absorb(&mut self, mut other: TraceSink) {
        self.spans.append(&mut other.spans);
        self.recorder.merge(&other.recorder);
    }
}

/// Renders spans as Chrome trace-event JSON (the Perfetto "complete
/// event" form). Node keys are mapped to compact thread ids in sorted
/// order with `thread_name` metadata, so the file is identical for
/// identical span sets — shard count never leaks into the artifact.
pub fn chrome_trace_json(spans: &[Span], process_name: &str) -> String {
    let mut sorted: Vec<Span> = spans.to_vec();
    canonical_sort(&mut sorted);
    let mut nodes: Vec<u64> = sorted.iter().map(|s| s.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let tid_of = |node: u64| nodes.binary_search(&node).unwrap() + 1;

    let mut events = Vec::with_capacity(sorted.len() + nodes.len() + 1);
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":{}}}}}",
        json_string(process_name)
    ));
    for &node in &nodes {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"node {:016x}\"}}}}",
            tid_of(node),
            node
        ));
    }
    for s in &sorted {
        // Chrome trace timestamps are microseconds; keep nanosecond
        // precision as a fixed three-decimal fraction so the text is
        // deterministic (no float formatting involved).
        let dur = s.end_ns - s.start_ns;
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"upnp\",\"ph\":\"X\",\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\
             \"args\":{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":\"{}\"}}}}",
            s.kind.name(),
            s.start_ns / 1000,
            s.start_ns % 1000,
            dur / 1000,
            dur % 1000,
            tid_of(s.node),
            s.trace,
            s.id,
            s.parent,
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// One labelled counter in the unified metrics table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Which subsystem registered it (`scenario`, `distro`, `net`, …).
    pub group: String,
    /// Counter name within the group.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// The unified metrics registry: every subsystem's counters register
/// under a group label and come back out as one canonically ordered,
/// labelled table — the bench-row replacement for three separately
/// formatted stat blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    samples: Vec<MetricSample>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers one counter under a group label.
    pub fn register(&mut self, group: &str, name: &str, value: u64) {
        self.samples.push(MetricSample {
            group: group.to_string(),
            name: name.to_string(),
            value,
        });
    }

    /// Every sample in canonical `(group, name)` order. Duplicate
    /// registrations keep the last value.
    pub fn samples(&self) -> Vec<MetricSample> {
        let mut out = self.samples.clone();
        out.sort_by(|a, b| (&a.group, &a.name).cmp(&(&b.group, &b.name)));
        out.dedup_by(|later, earlier| {
            let dup = later.group == earlier.group && later.name == earlier.name;
            if dup {
                // `dedup_by` removes `later`; keep its (more recent) value.
                earlier.value = later.value;
            }
            dup
        });
        out
    }

    /// The labelled table: one `group.name = value` line per counter,
    /// canonically ordered and aligned.
    pub fn table(&self) -> String {
        let samples = self.samples();
        let width = samples
            .iter()
            .map(|s| s.group.len() + 1 + s.name.len())
            .max()
            .unwrap_or(0);
        samples
            .iter()
            .map(|s| {
                let label = format!("{}.{}", s.group, s.name);
                format!("{label:<width$} = {}", s.value)
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The table as a JSON object of `"group.name": value` pairs, for
    /// embedding in bench rows.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .samples()
            .iter()
            .map(|s| {
                format!(
                    "{}:{}",
                    json_string(&format!("{}.{}", s.group, s.name)),
                    s.value
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// Order-sensitive digest of the canonical table.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::seeded(0x7ab1e);
        for s in self.samples() {
            d.fold_all(s.group.bytes().map(u64::from))
                .fold_all(s.name.bytes().map(u64::from))
                .fold(s.value);
        }
        d.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, kind: SpanKind, node: u64, start: u64, end: u64) -> Span {
        Span::new(TraceCtx::root(TraceId(trace)), kind, node, start, end)
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = TraceId::derive(42, 7, 1, 1_000_000);
        let b = TraceId::derive(42, 7, 1, 1_000_000);
        assert_eq!(a, b, "same facts must derive the same trace id");
        assert!(!a.is_none());
        for (seed, node, port, at) in [
            (43, 7, 1, 1_000_000u64),
            (42, 8, 1, 1_000_000),
            (42, 7, 2, 1_000_000),
            (42, 7, 1, 1_000_001),
        ] {
            assert_ne!(
                TraceId::derive(seed, node, port, at),
                a,
                "changing any derivation input must change the id"
            );
        }
    }

    #[test]
    fn span_ids_fold_every_input() {
        let t = TraceId::derive(1, 2, 3, 4);
        let base = SpanId::derive(t, SpanKind::Serve, 9, 100);
        assert_eq!(base, SpanId::derive(t, SpanKind::Serve, 9, 100));
        assert_ne!(base, SpanId::derive(t, SpanKind::Verify, 9, 100));
        assert_ne!(base, SpanId::derive(t, SpanKind::Serve, 10, 100));
        assert_ne!(base, SpanId::derive(t, SpanKind::Serve, 9, 101));
        assert_ne!(base, SpanId::derive(TraceId(5), SpanKind::Serve, 9, 100));
    }

    #[test]
    fn span_kind_codes_and_names_are_unique() {
        let mut codes: Vec<u64> = SpanKind::ALL.iter().map(SpanKind::code).collect();
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(SpanKind::name).collect();
        codes.sort_unstable();
        codes.dedup();
        names.sort_unstable();
        names.dedup();
        assert_eq!(codes.len(), SpanKind::ALL.len());
        assert_eq!(names.len(), SpanKind::ALL.len());
    }

    #[test]
    fn canonical_sort_is_order_invariant() {
        let spans = vec![
            span(3, SpanKind::Serve, 1, 50, 60),
            span(1, SpanKind::Plug, 2, 10, 90),
            span(1, SpanKind::Identify, 2, 20, 30),
            span(2, SpanKind::Retry, 3, 40, 45),
        ];
        let mut a = spans.clone();
        let mut b: Vec<Span> = spans.into_iter().rev().collect();
        canonical_sort(&mut a);
        canonical_sort(&mut b);
        assert_eq!(a, b, "sorted order must not depend on recording order");
        assert_eq!(span_digest(&a), span_digest(&b));
    }

    #[test]
    fn ring_evicts_oldest_first_deterministically() {
        let mut ring = FlightRecorder::new(4);
        for i in 0..10u64 {
            ring.push(span(1, SpanKind::Serve, i, i * 10, i * 10 + 5));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.evicted(), 6);
        let held: Vec<u64> = ring.spans().map(|s| s.node).collect();
        assert_eq!(
            held,
            vec![6, 7, 8, 9],
            "survivors are the most recent, in push order"
        );

        // A second identical stream produces an identical window.
        let mut again = FlightRecorder::new(4);
        for i in 0..10u64 {
            again.push(span(1, SpanKind::Serve, i, i * 10, i * 10 + 5));
        }
        let held2: Vec<Span> = again.spans().copied().collect();
        let held1: Vec<Span> = ring.spans().copied().collect();
        assert_eq!(held1, held2);
    }

    #[test]
    fn ring_merge_is_canonical_and_deduplicated() {
        let mut a = FlightRecorder::new(8);
        let mut b = FlightRecorder::new(8);
        let shared = span(1, SpanKind::Plug, 1, 0, 100);
        a.push(shared);
        a.push(span(1, SpanKind::Identify, 1, 10, 20));
        b.push(shared);
        b.push(span(2, SpanKind::Serve, 2, 30, 40));
        a.merge(&b);
        assert_eq!(a.len(), 3, "the shared span must not duplicate");
        let starts: Vec<u64> = a.spans().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![0, 10, 30]);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = TraceSink::new(false, 16);
        sink.record(span(1, SpanKind::Plug, 1, 0, 10));
        assert!(sink.is_empty());
        assert!(sink.recorder().is_empty());
        sink.enabled = true;
        sink.record(span(1, SpanKind::Plug, 1, 0, 10));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.recorder().len(), 1);
    }

    #[test]
    fn flight_dump_is_wellformed_json() {
        let mut ring = FlightRecorder::new(2);
        ring.push(span(1, SpanKind::Plug, 1, 0, 10));
        ring.push(span(1, SpanKind::Serve, 2, 5, 9));
        ring.push(span(1, SpanKind::Install, 3, 9, 12));
        let dump = ring.dump_json("invariant \"discovery\" violated\n");
        assert!(dump.starts_with('{') && dump.ends_with('}'));
        assert!(dump.contains("\"reason\":\"invariant \\\"discovery\\\" violated\\n\""));
        assert!(dump.contains("\"evicted\":1"));
        assert!(dump.contains("\"held\":2"));
        assert!(dump.contains("\"kind\":\"serve\""));
        let opens = dump.matches('{').count();
        let closes = dump.matches('}').count();
        assert_eq!(opens, closes, "braces must balance");
    }

    #[test]
    fn chrome_export_is_stable_and_shard_free() {
        let spans = vec![
            span(1, SpanKind::Plug, 0xdead, 1_500, 9_750),
            span(1, SpanKind::Serve, 0xbeef, 2_000, 3_000),
        ];
        let reversed: Vec<Span> = spans.iter().rev().copied().collect();
        let a = chrome_trace_json(&spans, "discovery@25000");
        let b = chrome_trace_json(&reversed, "discovery@25000");
        assert_eq!(a, b, "export must not depend on recording order");
        assert!(a.contains("\"traceEvents\":["));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ts\":1.500"));
        assert!(a.contains("\"dur\":8.250"));
        assert!(a.contains("\"name\":\"process_name\""));
        assert!(a.contains("discovery@25000"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn metrics_registry_orders_and_dedups() {
        let mut reg = MetricsRegistry::new();
        reg.register("net", "frames_sent", 10);
        reg.register("distro", "cache_hits", 3);
        reg.register("net", "frames_sent", 12);
        reg.register("net", "drops", 1);
        let samples = reg.samples();
        let labels: Vec<String> = samples
            .iter()
            .map(|s| format!("{}.{}={}", s.group, s.name, s.value))
            .collect();
        assert_eq!(
            labels,
            vec!["distro.cache_hits=3", "net.drops=1", "net.frames_sent=12"],
            "canonical order with last-registration-wins dedup"
        );
        let table = reg.table();
        assert!(table
            .lines()
            .any(|l| l.starts_with("net.frames_sent") && l.ends_with("= 12")));
        assert!(reg.json().contains("\"net.drops\":1"));

        let mut other = MetricsRegistry::new();
        other.register("net", "drops", 1);
        other.register("net", "frames_sent", 12);
        other.register("distro", "cache_hits", 3);
        assert_eq!(
            reg.digest(),
            other.digest(),
            "digest is registration-order free"
        );
    }

    #[test]
    fn digest_matches_manual_fold() {
        let mut d = Digest::seeded(7 ^ 0x4ec0);
        d.fold(1).fold(2);
        let mut h = splitmix64(7 ^ 0x4ec0);
        h = splitmix64(h ^ 1);
        h = splitmix64(h ^ 2);
        assert_eq!(d.value(), h);
    }

    #[test]
    fn filter_keeps_only_requested_traces() {
        let spans = vec![
            span(1, SpanKind::Plug, 1, 0, 10),
            span(2, SpanKind::Plug, 2, 0, 10),
            span(1, SpanKind::Serve, 3, 5, 8),
        ];
        let kept = filter_traces(&spans, &[TraceId(1)]);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|s| s.trace == TraceId(1)));
    }

    /// docs/observability.md quotes the span taxonomy and the
    /// flight-recorder depth; this test pins them to the code so the
    /// doc can't rot silently (the same pattern `crates/dsl` uses for
    /// the ISA and language docs).
    #[test]
    fn docs_stay_in_sync_with_the_code() {
        let docs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs");
        let obs =
            std::fs::read_to_string(docs.join("observability.md")).expect("docs/observability.md");
        for kind in SpanKind::ALL {
            let variant = format!("`{kind:?}`");
            assert!(
                obs.contains(&variant),
                "docs/observability.md is missing the {kind:?} taxonomy row"
            );
            let name = format!("`{}`", kind.name());
            assert!(
                obs.contains(&name),
                "docs/observability.md is missing the `{}` span name",
                kind.name()
            );
        }
        let capacity = format!("`FLIGHT_RECORDER_CAPACITY` ({FLIGHT_RECORDER_CAPACITY})");
        assert!(
            obs.contains(&capacity),
            "docs/observability.md lost the flight-recorder depth ({capacity})"
        );
    }
}
