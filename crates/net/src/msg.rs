//! The µPnP interaction protocol messages (paper §5.2, Figures 10/11).
//!
//! All messages are UDP payloads on port 6030 carrying a type byte, a
//! 16-bit sequence number "used to associate request and reply messages",
//! and a compact binary body. The seventeen message types are numbered as
//! in the paper's figures; types (18)–(20) extend the protocol with the
//! driver-distribution tier's chunked origin transfer and versioned
//! invalidation (they never touch a Thing — only caches and the origin
//! speak them).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use upnp_trace::TraceCtx;

use crate::tlv::TlvList;

/// A 16-bit message sequence number.
pub type SeqNo = u16;

/// Payload bytes carried per [`MessageBody::DriverChunk`]. Sized to fit a
/// chunk datagram in a single unfragmented 802.15.4 frame, so one lost
/// radio frame costs one chunk retry — never the whole image.
pub const DRIVER_CHUNK_PAYLOAD: usize = 64;

/// Per-thread payload counters, flushed into the process-wide totals
/// exactly once, when the thread exits. The data-plane hot path (every
/// payload allocation and every multicast fan-out share) therefore does
/// plain `Cell` arithmetic — no shared-cache-line atomics inside the
/// loops the wall-clock gates measure.
struct LocalPayloadCounters {
    allocs: Cell<u64>,
    clones: Cell<u64>,
}

impl Drop for LocalPayloadCounters {
    fn drop(&mut self) {
        PAYLOAD_ALLOCS_TOTAL.fetch_add(self.allocs.get(), Ordering::Relaxed);
        PAYLOAD_CLONES_TOTAL.fetch_add(self.clones.get(), Ordering::Relaxed);
    }
}

thread_local! {
    static PAYLOAD_LOCAL: LocalPayloadCounters = const {
        LocalPayloadCounters {
            allocs: Cell::new(0),
            clones: Cell::new(0),
        }
    };
}

// Flushed counters of threads that have exited. A sharded world's worker
// threads are scoped: they exit (and flush) before the coordinator reads
// the process totals, so [`payload_stats_process`] — globals plus the
// *calling* thread's live counters — sees every operation exactly once.
static PAYLOAD_ALLOCS_TOTAL: AtomicU64 = AtomicU64::new(0);
static PAYLOAD_CLONES_TOTAL: AtomicU64 = AtomicU64::new(0);

/// Cumulative [`Payload`] accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PayloadStats {
    /// Payloads materialised from owned bytes (each one heap allocation).
    pub allocs: u64,
    /// Cheap reference-counted shares (no bytes copied).
    pub clones: u64,
}

/// Returns the *current thread's* cumulative payload counters. Unit tests
/// take deltas around an operation to prove exact allocation behaviour
/// without interference from concurrently running tests.
pub fn payload_stats() -> PayloadStats {
    PAYLOAD_LOCAL.with(|l| PayloadStats {
        allocs: l.allocs.get(),
        clones: l.clones.get(),
    })
}

/// Flushes the calling thread's payload counters into the process-wide
/// totals and zeroes them. Worker threads that end inside a
/// `std::thread::scope` must call this as the last statement of their
/// closure: the scope only waits for the *closure* to finish, so the
/// TLS-destructor flush can still be in flight when the scope returns —
/// an intermittently lost count. After a flush, [`payload_stats`] on
/// this thread restarts from zero; [`payload_stats_process`] remains
/// exact.
pub fn flush_payload_stats() {
    PAYLOAD_LOCAL.with(|l| {
        PAYLOAD_ALLOCS_TOTAL.fetch_add(l.allocs.replace(0), Ordering::Relaxed);
        PAYLOAD_CLONES_TOTAL.fetch_add(l.clones.replace(0), Ordering::Relaxed);
    });
}

/// Returns the *process-wide* cumulative payload counters: every exited
/// thread's flushed totals plus the calling thread's live counters. The
/// fleet scenario probes call this from the coordinator after its scoped
/// worker threads have been joined (and therefore flushed), so a sharded
/// world's threads are accounted the same way as a sequential run.
pub fn payload_stats_process() -> PayloadStats {
    let local = payload_stats();
    PayloadStats {
        allocs: PAYLOAD_ALLOCS_TOTAL.load(Ordering::Relaxed) + local.allocs,
        clones: PAYLOAD_CLONES_TOTAL.load(Ordering::Relaxed) + local.clones,
    }
}

/// An immutable UDP payload backed by `Arc<[u8]>`.
///
/// Cloning is a reference-count bump, never a byte copy — multicast
/// fan-out to *m* receivers therefore allocates the payload once when the
/// message is encoded, not *m* times at delivery scheduling. `Arc` (not
/// `Rc`) so datagrams can cross shard-thread boundaries. The type keeps
/// per-thread and process-wide counters ([`payload_stats`],
/// [`payload_stats_process`]) so the zero-copy property is benchmarkable
/// and CI-gateable.
///
/// Every payload also carries a [`TraceCtx`] — two machine words naming
/// the distributed-tracing request (and causing span) the frame belongs
/// to. The context is simulator metadata, not wire bytes: it never
/// affects encoding, equality, hashing, energy or latency, and
/// untraced payloads carry [`TraceCtx::NONE`].
pub struct Payload {
    bytes: Arc<[u8]>,
    trace: TraceCtx,
}

impl Payload {
    /// Wraps owned bytes (one allocation, counted) with no trace
    /// context.
    pub fn new(bytes: Vec<u8>) -> Payload {
        PAYLOAD_LOCAL.with(|l| l.allocs.set(l.allocs.get() + 1));
        Payload {
            bytes: bytes.into(),
            trace: TraceCtx::NONE,
        }
    }

    /// The same payload stamped with a trace context (refcount share,
    /// not a byte copy, and not counted — stamping is simulator
    /// bookkeeping, not data-plane work).
    pub fn traced(&self, trace: TraceCtx) -> Payload {
        Payload {
            bytes: Arc::clone(&self.bytes),
            trace,
        }
    }

    /// Stamps a trace context onto an owned payload (in place, free).
    pub fn with_trace(mut self, trace: TraceCtx) -> Payload {
        self.trace = trace;
        self
    }

    /// The distributed-tracing context this payload carries
    /// ([`TraceCtx::NONE`] for untraced frames).
    pub fn trace(&self) -> TraceCtx {
        self.trace
    }

    /// A reference share for simulator-internal bookkeeping (cross-shard
    /// frame capture and replay), *not counted* in the payload
    /// statistics. The sequential simulator has no analogue of these
    /// coordination copies, so counting them would make the sharded
    /// counters diverge from a bit-identical simulation.
    pub fn coordination_clone(&self) -> Payload {
        Payload {
            bytes: Arc::clone(&self.bytes),
            trace: self.trace,
        }
    }
}

// Equality and hashing look at the carried bytes only: the trace
// context is out-of-band metadata, and two frames with identical wire
// bytes must stay interchangeable whether or not they were traced.
impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Payload {}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl Clone for Payload {
    fn clone(&self) -> Payload {
        PAYLOAD_LOCAL.with(|l| l.clones.set(l.clones.get() + 1));
        Payload {
            bytes: Arc::clone(&self.bytes),
            trace: self.trace,
        }
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Payload {
        Payload::new(bytes)
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({} bytes)", self.bytes.len())
    }
}

/// A value travelling in `Data`/`Write` messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// No value (acknowledgement-only).
    None,
    /// A 32-bit integer.
    I32(i32),
    /// A 32-bit float.
    F32(f32),
    /// Raw bytes (e.g. an RFID card id).
    Bytes(Vec<u8>),
}

impl Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::None => out.push(0),
            Value::I32(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Value::F32(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Value::Bytes(b) => {
                debug_assert!(b.len() <= 255);
                out.push(3);
                out.push(b.len() as u8);
                out.extend_from_slice(b);
            }
        }
    }

    fn decode(data: &[u8], i: &mut usize) -> Option<Value> {
        let tag = *data.get(*i)?;
        *i += 1;
        Some(match tag {
            0 => Value::None,
            1 => {
                let v = i32::from_be_bytes(data.get(*i..*i + 4)?.try_into().ok()?);
                *i += 4;
                Value::I32(v)
            }
            2 => {
                let v = f32::from_be_bytes(data.get(*i..*i + 4)?.try_into().ok()?);
                *i += 4;
                Value::F32(v)
            }
            3 => {
                let len = *data.get(*i)? as usize;
                *i += 1;
                let b = data.get(*i..*i + len)?.to_vec();
                *i += len;
                Value::Bytes(b)
            }
            _ => return None,
        })
    }
}

/// One advertised peripheral inside an advertisement message: "(a) the
/// type of sensor (fixed length of 4 bytes) and (b) a set of TLV-encoded
/// tuples".
#[derive(Debug, Clone, PartialEq)]
pub struct AdvertisedPeripheral {
    /// The 32-bit device-type identifier.
    pub peripheral: u32,
    /// Extra information tuples.
    pub tlvs: TlvList,
}

/// The message bodies, numbered (1)–(17) as in the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum MessageBody {
    /// (1) Unsolicited peripheral advertisement (Thing → all-clients
    /// group).
    UnsolicitedAdvertisement(Vec<AdvertisedPeripheral>),
    /// (2) Peripheral discovery (client → peripheral group).
    Discovery(TlvList),
    /// (3) Solicited peripheral advertisement (Thing → client unicast).
    SolicitedAdvertisement(Vec<AdvertisedPeripheral>),
    /// (4) Driver installation request (Thing → manager anycast).
    DriverRequest {
        /// The peripheral needing a driver.
        peripheral: u32,
    },
    /// (5) Driver upload (manager → Thing): the serialized driver image.
    DriverUpload {
        /// The peripheral the driver serves.
        peripheral: u32,
        /// The driver image bytes.
        image: Vec<u8>,
    },
    /// (6) Driver discovery (manager → Thing).
    DriverDiscovery,
    /// (7) Driver advertisement (Thing → manager): installed driver ids.
    DriverAdvertisement {
        /// Installed `(peripheral, version)` pairs.
        drivers: Vec<(u32, u16)>,
    },
    /// (8) Driver removal request (manager → Thing).
    DriverRemoval {
        /// The peripheral whose driver must go.
        peripheral: u32,
    },
    /// (9) Driver removal acknowledgement (Thing → manager).
    DriverRemovalAck {
        /// The removed peripheral.
        peripheral: u32,
        /// True if a driver was actually removed.
        removed: bool,
    },
    /// (10) Read request (client → Thing unicast).
    Read {
        /// Target peripheral.
        peripheral: u32,
    },
    /// (11) Data reply to a read.
    Data {
        /// Source peripheral.
        peripheral: u32,
        /// The value read.
        value: Value,
    },
    /// (12) Stream request (client → Thing unicast).
    Stream {
        /// Target peripheral.
        peripheral: u32,
    },
    /// (13) Established: the group the client should join for the stream.
    Established {
        /// Source peripheral.
        peripheral: u32,
        /// The 16-byte stream multicast group address.
        group: [u8; 16],
    },
    /// (14) Stream data (Thing → stream group).
    StreamData {
        /// Source peripheral.
        peripheral: u32,
        /// The streamed value.
        value: Value,
    },
    /// (15) Closed: the stream has ended (Thing → stream group).
    Closed {
        /// Source peripheral.
        peripheral: u32,
    },
    /// (16) Write request (client → Thing unicast).
    Write {
        /// Target peripheral.
        peripheral: u32,
        /// The value to write.
        value: Value,
    },
    /// (17) Write acknowledgement.
    WriteAck {
        /// Target peripheral.
        peripheral: u32,
        /// True if the driver accepted the write.
        ok: bool,
    },
    /// (18) Driver chunk request (edge cache → origin unicast): one leg
    /// of the stop-and-wait chunked transfer a cache uses to pull a
    /// driver image from the repository.
    DriverChunkRequest {
        /// The peripheral whose image is being fetched.
        peripheral: u32,
        /// Fetch-session nonce, constant across every request (and
        /// retransmit) of one fetch and different for the next — how the
        /// origin tells a retransmitted chunk 0 from a new session when
        /// accounting its load.
        session: u16,
        /// Zero-based chunk index.
        chunk: u16,
    },
    /// (19) Driver chunk (origin → edge cache): one
    /// [`DRIVER_CHUNK_PAYLOAD`]-sized slice of the serialized image.
    DriverChunk {
        /// The peripheral the image serves.
        peripheral: u32,
        /// Repository version of the image the chunk was cut from; a
        /// mid-fetch version change restarts the transfer coherently.
        version: u16,
        /// Zero-based chunk index.
        chunk: u16,
        /// Total chunks in the image.
        total: u16,
        /// The chunk bytes (the last chunk may be short).
        data: Vec<u8>,
    },
    /// (20) Driver invalidation (origin → edge cache): the repository's
    /// copy of `peripheral` is now at `version`; caches evict older
    /// copies. Driven by the same flows as the paper's (8) removals.
    DriverInvalidate {
        /// The peripheral whose cached image is stale.
        peripheral: u32,
        /// The new repository version.
        version: u16,
        /// Optional compact patch (an encoded `upnp_dsl::ImageDelta`,
        /// opaque at this layer) turning the previous version's bytes
        /// into the new image, so a cache holding the predecessor can
        /// patch in place instead of evicting and re-fetching. `None`
        /// when no predecessor exists or the delta would not be smaller
        /// than the image.
        delta: Option<Vec<u8>>,
    },
}

impl MessageBody {
    /// Wire type byte of (4) driver requests — the first payload byte,
    /// so dispatchers can pre-filter resolve traffic without a full
    /// decode.
    pub const DRIVER_REQUEST_TYPE: u8 = 4;

    /// Wire type byte of (5) driver uploads — the first payload byte, so
    /// dispatchers can pre-filter upload traffic without a full decode.
    pub const DRIVER_UPLOAD_TYPE: u8 = 5;

    /// Wire type byte of (18) chunk requests, the cache→origin fetch
    /// leg of the distribution tier.
    pub const DRIVER_CHUNK_REQUEST_TYPE: u8 = 18;

    /// The paper's message number (1–17), or 18–20 for the
    /// distribution-tier extensions.
    pub fn type_id(&self) -> u8 {
        match self {
            MessageBody::UnsolicitedAdvertisement(_) => 1,
            MessageBody::Discovery(_) => 2,
            MessageBody::SolicitedAdvertisement(_) => 3,
            MessageBody::DriverRequest { .. } => 4,
            MessageBody::DriverUpload { .. } => 5,
            MessageBody::DriverDiscovery => 6,
            MessageBody::DriverAdvertisement { .. } => 7,
            MessageBody::DriverRemoval { .. } => 8,
            MessageBody::DriverRemovalAck { .. } => 9,
            MessageBody::Read { .. } => 10,
            MessageBody::Data { .. } => 11,
            MessageBody::Stream { .. } => 12,
            MessageBody::Established { .. } => 13,
            MessageBody::StreamData { .. } => 14,
            MessageBody::Closed { .. } => 15,
            MessageBody::Write { .. } => 16,
            MessageBody::WriteAck { .. } => 17,
            MessageBody::DriverChunkRequest { .. } => 18,
            MessageBody::DriverChunk { .. } => 19,
            MessageBody::DriverInvalidate { .. } => 20,
        }
    }
}

/// A full protocol message: body plus sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Associates requests and replies (§5.2).
    pub seq: SeqNo,
    /// The typed body.
    pub body: MessageBody,
}

impl Message {
    /// Serializes to the UDP payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.push(self.body.type_id());
        out.extend_from_slice(&self.seq.to_be_bytes());
        match &self.body {
            MessageBody::UnsolicitedAdvertisement(ps) | MessageBody::SolicitedAdvertisement(ps) => {
                debug_assert!(ps.len() <= 255);
                out.push(ps.len() as u8);
                for p in ps {
                    out.extend_from_slice(&p.peripheral.to_be_bytes());
                    p.tlvs.encode(&mut out);
                }
            }
            MessageBody::Discovery(tlvs) => tlvs.encode(&mut out),
            MessageBody::DriverRequest { peripheral }
            | MessageBody::DriverRemoval { peripheral }
            | MessageBody::Read { peripheral }
            | MessageBody::Stream { peripheral }
            | MessageBody::Closed { peripheral } => {
                out.extend_from_slice(&peripheral.to_be_bytes());
            }
            MessageBody::DriverUpload { peripheral, image } => {
                out.extend_from_slice(&peripheral.to_be_bytes());
                out.extend_from_slice(&(image.len() as u16).to_be_bytes());
                out.extend_from_slice(image);
            }
            MessageBody::DriverDiscovery => {}
            MessageBody::DriverAdvertisement { drivers } => {
                debug_assert!(drivers.len() <= 255);
                out.push(drivers.len() as u8);
                for (p, v) in drivers {
                    out.extend_from_slice(&p.to_be_bytes());
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            MessageBody::DriverRemovalAck {
                peripheral,
                removed,
            } => {
                out.extend_from_slice(&peripheral.to_be_bytes());
                out.push(*removed as u8);
            }
            MessageBody::Data { peripheral, value }
            | MessageBody::StreamData { peripheral, value }
            | MessageBody::Write { peripheral, value } => {
                out.extend_from_slice(&peripheral.to_be_bytes());
                value.encode(&mut out);
            }
            MessageBody::Established { peripheral, group } => {
                out.extend_from_slice(&peripheral.to_be_bytes());
                out.extend_from_slice(group);
            }
            MessageBody::WriteAck { peripheral, ok } => {
                out.extend_from_slice(&peripheral.to_be_bytes());
                out.push(*ok as u8);
            }
            MessageBody::DriverChunkRequest {
                peripheral,
                session,
                chunk,
            } => {
                out.extend_from_slice(&peripheral.to_be_bytes());
                out.extend_from_slice(&session.to_be_bytes());
                out.extend_from_slice(&chunk.to_be_bytes());
            }
            MessageBody::DriverChunk {
                peripheral,
                version,
                chunk,
                total,
                data,
            } => {
                out.extend_from_slice(&peripheral.to_be_bytes());
                out.extend_from_slice(&version.to_be_bytes());
                out.extend_from_slice(&chunk.to_be_bytes());
                out.extend_from_slice(&total.to_be_bytes());
                debug_assert!(data.len() <= u8::MAX as usize);
                out.push(data.len() as u8);
                out.extend_from_slice(data);
            }
            MessageBody::DriverInvalidate {
                peripheral,
                version,
                delta,
            } => {
                out.extend_from_slice(&peripheral.to_be_bytes());
                out.extend_from_slice(&version.to_be_bytes());
                match delta {
                    None => out.push(0),
                    Some(patch) => {
                        debug_assert!(patch.len() <= u16::MAX as usize);
                        out.push(1);
                        out.extend_from_slice(&(patch.len() as u16).to_be_bytes());
                        out.extend_from_slice(patch);
                    }
                }
            }
        }
        out
    }

    /// The wire type byte and peripheral id of an encoded message whose
    /// body starts with one (every type but the advertisements, (2)
    /// discovery and (6) driver discovery), read without decoding the
    /// body.
    pub fn header(data: &[u8]) -> Option<(u8, u32)> {
        let ty = *data.first()?;
        if !matches!(ty, 4 | 5 | 8..=20) {
            return None;
        }
        let peripheral = u32::from_be_bytes(data.get(3..7)?.try_into().ok()?);
        Some((ty, peripheral))
    }

    /// Parses a UDP payload.
    ///
    /// Returns `None` for unknown types or truncated bodies.
    pub fn decode(data: &[u8]) -> Option<Message> {
        let ty = *data.first()?;
        let seq = u16::from_be_bytes(data.get(1..3)?.try_into().ok()?);
        let mut i = 3;
        let u32_at = |data: &[u8], i: &mut usize| -> Option<u32> {
            let v = u32::from_be_bytes(data.get(*i..*i + 4)?.try_into().ok()?);
            *i += 4;
            Some(v)
        };
        // A flag is one byte, 0 or 1: any other value would decode to a
        // message that encodes to other bytes.
        let bool_at = |data: &[u8], i: &mut usize| -> Option<bool> {
            let v = match *data.get(*i)? {
                0 => false,
                1 => true,
                _ => return None,
            };
            *i += 1;
            Some(v)
        };
        let peripherals = |data: &[u8], i: &mut usize| -> Option<Vec<AdvertisedPeripheral>> {
            let count = *data.get(*i)? as usize;
            *i += 1;
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                let peripheral = u32_at(data, i)?;
                let tlvs = TlvList::decode(data, i)?;
                out.push(AdvertisedPeripheral { peripheral, tlvs });
            }
            Some(out)
        };
        let body = match ty {
            1 => MessageBody::UnsolicitedAdvertisement(peripherals(data, &mut i)?),
            2 => MessageBody::Discovery(TlvList::decode(data, &mut i)?),
            3 => MessageBody::SolicitedAdvertisement(peripherals(data, &mut i)?),
            4 => MessageBody::DriverRequest {
                peripheral: u32_at(data, &mut i)?,
            },
            5 => {
                let peripheral = u32_at(data, &mut i)?;
                let len = u16::from_be_bytes(data.get(i..i + 2)?.try_into().ok()?) as usize;
                i += 2;
                let image = data.get(i..i + len)?.to_vec();
                i += len;
                MessageBody::DriverUpload { peripheral, image }
            }
            6 => MessageBody::DriverDiscovery,
            7 => {
                let count = *data.get(i)? as usize;
                i += 1;
                let mut drivers = Vec::with_capacity(count);
                for _ in 0..count {
                    let p = u32_at(data, &mut i)?;
                    let v = u16::from_be_bytes(data.get(i..i + 2)?.try_into().ok()?);
                    i += 2;
                    drivers.push((p, v));
                }
                MessageBody::DriverAdvertisement { drivers }
            }
            8 => MessageBody::DriverRemoval {
                peripheral: u32_at(data, &mut i)?,
            },
            9 => MessageBody::DriverRemovalAck {
                peripheral: u32_at(data, &mut i)?,
                removed: bool_at(data, &mut i)?,
            },
            10 => MessageBody::Read {
                peripheral: u32_at(data, &mut i)?,
            },
            11 => MessageBody::Data {
                peripheral: u32_at(data, &mut i)?,
                value: Value::decode(data, &mut i)?,
            },
            12 => MessageBody::Stream {
                peripheral: u32_at(data, &mut i)?,
            },
            13 => {
                let peripheral = u32_at(data, &mut i)?;
                let group: [u8; 16] = data.get(i..i + 16)?.try_into().ok()?;
                i += 16;
                MessageBody::Established { peripheral, group }
            }
            14 => MessageBody::StreamData {
                peripheral: u32_at(data, &mut i)?,
                value: Value::decode(data, &mut i)?,
            },
            15 => MessageBody::Closed {
                peripheral: u32_at(data, &mut i)?,
            },
            16 => MessageBody::Write {
                peripheral: u32_at(data, &mut i)?,
                value: Value::decode(data, &mut i)?,
            },
            17 => MessageBody::WriteAck {
                peripheral: u32_at(data, &mut i)?,
                ok: bool_at(data, &mut i)?,
            },
            18 => {
                let peripheral = u32_at(data, &mut i)?;
                let session = u16::from_be_bytes(data.get(i..i + 2)?.try_into().ok()?);
                i += 2;
                let chunk = u16::from_be_bytes(data.get(i..i + 2)?.try_into().ok()?);
                i += 2;
                MessageBody::DriverChunkRequest {
                    peripheral,
                    session,
                    chunk,
                }
            }
            19 => {
                let peripheral = u32_at(data, &mut i)?;
                let u16_at = |i: &mut usize| -> Option<u16> {
                    let v = u16::from_be_bytes(data.get(*i..*i + 2)?.try_into().ok()?);
                    *i += 2;
                    Some(v)
                };
                let version = u16_at(&mut i)?;
                let chunk = u16_at(&mut i)?;
                let total = u16_at(&mut i)?;
                let len = *data.get(i)? as usize;
                i += 1;
                let chunk_data = data.get(i..i + len)?.to_vec();
                i += len;
                MessageBody::DriverChunk {
                    peripheral,
                    version,
                    chunk,
                    total,
                    data: chunk_data,
                }
            }
            20 => {
                let peripheral = u32_at(data, &mut i)?;
                let version = u16::from_be_bytes(data.get(i..i + 2)?.try_into().ok()?);
                i += 2;
                let delta = match *data.get(i)? {
                    0 => {
                        i += 1;
                        None
                    }
                    1 => {
                        i += 1;
                        let len = u16::from_be_bytes(data.get(i..i + 2)?.try_into().ok()?) as usize;
                        i += 2;
                        let patch = data.get(i..i + len)?.to_vec();
                        i += len;
                        Some(patch)
                    }
                    _ => return None,
                };
                MessageBody::DriverInvalidate {
                    peripheral,
                    version,
                    delta,
                }
            }
            _ => return None,
        };
        if i != data.len() {
            return None; // Trailing garbage: reject.
        }
        Some(Message { seq, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlv::{Tlv, TlvType};

    fn roundtrip(body: MessageBody) {
        let msg = Message { seq: 0x1234, body };
        let wire = msg.encode();
        let back = Message::decode(&wire)
            .unwrap_or_else(|| panic!("decode failed for {:?}: {wire:?}", msg.body.type_id()));
        assert_eq!(back, msg);
    }

    #[test]
    fn header_reads_type_and_peripheral_without_the_body() {
        let upload = Message {
            seq: 7,
            body: MessageBody::DriverUpload {
                peripheral: 0xad1c_be01,
                image: vec![0xb5; 300],
            },
        }
        .encode();
        assert_eq!(
            Message::header(&upload),
            Some((MessageBody::DRIVER_UPLOAD_TYPE, 0xad1c_be01))
        );
        // Truncated and peripheral-less frames have no header.
        assert_eq!(Message::header(&upload[..6]), None);
        let discovery = Message {
            seq: 7,
            body: MessageBody::DriverDiscovery,
        };
        assert_eq!(Message::header(&discovery.encode()), None);
    }

    #[test]
    fn all_seventeen_types_roundtrip() {
        let adv = vec![AdvertisedPeripheral {
            peripheral: 0xed3f_0ac1,
            tlvs: TlvList::new([
                Tlv::text(TlvType::Name, "RFID"),
                Tlv::new(TlvType::Channel, &[1]),
            ]),
        }];
        let bodies = vec![
            MessageBody::UnsolicitedAdvertisement(adv.clone()),
            MessageBody::Discovery(TlvList::new([Tlv::text(TlvType::Location, "lab")])),
            MessageBody::SolicitedAdvertisement(adv),
            MessageBody::DriverRequest {
                peripheral: 0xad1c_be01,
            },
            MessageBody::DriverUpload {
                peripheral: 0xad1c_be01,
                image: vec![0xb5, 0x50, 1, 2, 3],
            },
            MessageBody::DriverDiscovery,
            MessageBody::DriverAdvertisement {
                drivers: vec![(0xad1c_be01, 1), (0xed3f_0ac1, 3)],
            },
            MessageBody::DriverRemoval {
                peripheral: 0xed3f_0ac1,
            },
            MessageBody::DriverRemovalAck {
                peripheral: 0xed3f_0ac1,
                removed: true,
            },
            MessageBody::Read {
                peripheral: 0xad1c_be01,
            },
            MessageBody::Data {
                peripheral: 0xad1c_be01,
                value: Value::F32(21.5),
            },
            MessageBody::Stream {
                peripheral: 0xad1c_be01,
            },
            MessageBody::Established {
                peripheral: 0xad1c_be01,
                group: [0xff; 16],
            },
            MessageBody::StreamData {
                peripheral: 0xad1c_be01,
                value: Value::I32(42),
            },
            MessageBody::Closed {
                peripheral: 0xad1c_be01,
            },
            MessageBody::Write {
                peripheral: 0xbeef_0001,
                value: Value::Bytes(vec![1, 0]),
            },
            MessageBody::WriteAck {
                peripheral: 0xbeef_0001,
                ok: true,
            },
        ];
        assert_eq!(bodies.len(), 17);
        for (idx, body) in bodies.into_iter().enumerate() {
            assert_eq!(body.type_id() as usize, idx + 1, "numbering matches paper");
            roundtrip(body);
        }
    }

    #[test]
    fn distribution_tier_extension_types_roundtrip() {
        let bodies = vec![
            MessageBody::DriverChunkRequest {
                peripheral: 0xad1c_be01,
                session: 11,
                chunk: 7,
            },
            MessageBody::DriverChunk {
                peripheral: 0xad1c_be01,
                version: 3,
                chunk: 7,
                total: 12,
                data: vec![0xb5; DRIVER_CHUNK_PAYLOAD],
            },
            MessageBody::DriverInvalidate {
                peripheral: 0xad1c_be01,
                version: 4,
                delta: Some(vec![0x10, 0x20, 0x30]),
            },
        ];
        for (idx, body) in bodies.into_iter().enumerate() {
            assert_eq!(body.type_id() as usize, idx + 18, "extension numbering");
            roundtrip(body);
        }
    }

    #[test]
    fn sequence_number_is_preserved() {
        for seq in [0u16, 1, 0xffff] {
            let m = Message {
                seq,
                body: MessageBody::DriverDiscovery,
            };
            assert_eq!(Message::decode(&m.encode()).unwrap().seq, seq);
        }
    }

    #[test]
    fn unknown_type_rejected() {
        assert!(Message::decode(&[99, 0, 0]).is_none());
        assert!(Message::decode(&[0, 0, 0]).is_none());
    }

    #[test]
    fn truncation_rejected() {
        let m = Message {
            seq: 7,
            body: MessageBody::DriverUpload {
                peripheral: 1,
                image: vec![1, 2, 3, 4, 5],
            },
        };
        let wire = m.encode();
        for cut in 1..wire.len() {
            assert!(Message::decode(&wire[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let m = Message {
            seq: 7,
            body: MessageBody::Read { peripheral: 5 },
        };
        let mut wire = m.encode();
        wire.push(0);
        assert!(Message::decode(&wire).is_none());
    }

    #[test]
    fn messages_are_compact() {
        // The efficiency claim versus XML-based UPnP: a read request is
        // 7 bytes, an advertisement with a name TLV under 30.
        let read = Message {
            seq: 1,
            body: MessageBody::Read {
                peripheral: 0xad1c_be01,
            },
        };
        assert_eq!(read.encode().len(), 7);
        let adv = Message {
            seq: 1,
            body: MessageBody::UnsolicitedAdvertisement(vec![AdvertisedPeripheral {
                peripheral: 0xad1c_be01,
                tlvs: TlvList::new([Tlv::text(TlvType::Name, "TMP36")]),
            }]),
        };
        assert!(adv.encode().len() < 30);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(Message::decode(&[]).is_none());
    }

    #[test]
    fn process_stats_cover_other_threads() {
        let before = payload_stats_process();
        std::thread::spawn(|| {
            let p = Payload::new(vec![9, 9]);
            let _q = p.clone();
        })
        .join()
        .expect("worker thread");
        let after = payload_stats_process();
        // Concurrent tests may also allocate, so assert growth, not
        // equality — the thread-local counters carry the exact checks.
        assert!(after.allocs > before.allocs);
        assert!(after.clones > before.clones);
    }

    #[test]
    fn trace_context_rides_payloads_out_of_band() {
        use upnp_trace::{SpanId, TraceId};

        let plain = Payload::new(vec![4, 0, 1]);
        assert!(plain.trace().is_none(), "untraced by default");

        let ctx = TraceCtx {
            trace: TraceId(0x1234),
            parent: SpanId(0x5678),
        };
        let before = payload_stats();
        let traced = plain.traced(ctx);
        let after = payload_stats();
        assert_eq!(before, after, "stamping is uncounted bookkeeping");
        assert_eq!(traced.trace(), ctx);
        assert_eq!(traced.clone().trace(), ctx, "clone preserves the context");
        assert_eq!(
            traced.coordination_clone().trace(),
            ctx,
            "cross-shard replay preserves the context"
        );
        // Out-of-band: the context never affects equality or hashing.
        assert_eq!(plain, traced);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |p: &Payload| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&plain), hash(&traced));
    }

    #[test]
    fn payload_clone_shares_bytes_without_allocating() {
        let before = payload_stats();
        let p = Payload::new(vec![1, 2, 3]);
        let q = p.clone();
        assert_eq!(&*p, &[1u8, 2, 3]);
        assert_eq!(p, q);
        let after = payload_stats();
        assert_eq!(after.allocs - before.allocs, 1, "one materialisation");
        assert_eq!(after.clones - before.clones, 1, "one refcount share");
    }
}
