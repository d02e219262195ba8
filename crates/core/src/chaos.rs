//! Day-scale chaos soak: deterministic, seeded fault injection over a
//! running fleet.
//!
//! The paper evaluates µPnP on a healthy testbed; the failure paths —
//! a cache dying mid-chunk-transfer, a partitioned subtree, the Manager
//! host going away — are exactly the code nobody exercises until an
//! overnight deployment does. This module drives those paths on
//! purpose, for a virtual day at a time, against either simulator
//! backend: every fault is drawn from a [`SimRng`] stream seeded by one
//! `u64` and applied at an explicit virtual instant, so a soak is as
//! reproducible as a discovery wave and the sequential and sharded
//! worlds inject byte-identical fault schedules.
//!
//! A soak is a sequence of epochs. Each epoch: a battery-churn wave
//! replugs Things (rotating their peripheral type so the driver tier
//! sees cold fetches, with depletion driven by the metered radio energy
//! of the previous epochs), the run pauses *mid-wave* at a deterministic
//! instant, faults land — cache crashes that drain parked singleflight
//! followers, root↔cache link partitions, interior-router partitions
//! that orphan whole subtrees, mid-install MCU crashes that tear driver
//! images in the flash, primary-Manager failover to the hot standby,
//! and (on blackout epochs) the standby dying too — each logged once as
//! the op that repairs it. The chaos plays out to idle, operators apply
//! the logged repairs and reroot, crashed MCUs revive and refetch,
//! a repair wave replugs anything the faults starved, and the
//! whole-soak invariants are checked: exactly-once discovery against
//! the occupancy oracle, bounded Manager retention, recovery
//! attribution, and (reported, gated by the bench layer) peak-RSS
//! flatness. The deep profile additionally runs the whole soak
//! under a seeded delay/duplicate link schedule
//! ([`upnp_net::link::LinkChaos`]), so every retry timer and
//! stop-and-wait cursor is exercised against late and doubled frames.
//!
//! The gray profile goes further: instead of severing links it
//! *degrades* them — 10× latency, halved PRR, or an asymmetric
//! one-direction cut — on a pure-function schedule
//! ([`upnp_net::link::LinkDegrade`] keyed by `(seed, directed edge,
//! window)`), and elects one cache to serve at a crawl. Gray faults are
//! the ones health checks miss, so the soak also *measures* recovery:
//! for every Thing an epoch's faults knock out, the virtual-time span
//! from fault injection to its first successful serve after the heal is
//! recorded into a per-fault-family histogram ([`RecoveryLatencies`]),
//! and the bench layer gates the per-family p99 like it gates RSS
//! flatness.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use upnp_net::link::{LinkChaos, LinkDegrade};
use upnp_net::NodeId;
use upnp_sim::{SimDuration, SimRng};
use upnp_trace::{Digest, MetricsRegistry};

use crate::fleet::{summary_line, Fleet, ScenarioMetrics};
use crate::manager::MAX_INVENTORY;
use crate::world::{SimWorld, WorldOp};

/// Shape of one chaos soak: how long, and how hostile.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed of the fault schedule (independent of the fleet seed).
    pub seed: u64,
    /// Number of epochs; each epoch spans exactly [`ChaosConfig::epoch`]
    /// of virtual time.
    pub epochs: usize,
    /// Virtual span of one epoch.
    pub epoch: SimDuration,
    /// Cache crashes injected mid-wave each epoch (dead until the heal
    /// phase; parked singleflight followers are re-resolved on crash).
    pub cache_crashes_per_epoch: usize,
    /// Root↔cache uplink partitions injected mid-wave each epoch.
    pub partitions_per_epoch: usize,
    /// Fail the primary Manager every this-many epochs (the standby
    /// takes over); `0` disables failover chaos. Requires
    /// [`crate::fleet::FleetConfig::with_standby`].
    pub failover_every: usize,
    /// Reroot storms after each heal: the DODAG is rebuilt this many
    /// times once links are restored.
    pub reroots_per_heal: usize,
    /// Floor of battery-churn replugs per epoch (random picks); Things
    /// whose metered radio energy exceeds their battery budget churn on
    /// top of this.
    pub battery_churn_per_epoch: usize,
    /// Mean battery budget, joules of radio energy per swap. Each Thing
    /// gets a seeded per-unit jitter in `[0.5, 1.5)` of this.
    pub battery_budget_j: f64,
    /// Delay from epoch start (battery deaths) to the replug wave.
    pub replug_delay: SimDuration,
    /// Interior-router partitions injected mid-wave each epoch: the
    /// routing edge above an arbitrary Thing is severed, orphaning its
    /// whole subtree until the heal restores the edge.
    pub interior_partitions_per_epoch: usize,
    /// Mid-install MCU crashes injected mid-wave each epoch: a Thing
    /// from the churn wave's early lanes — whose driver chunks are in
    /// flight — dies; uploads arriving while it is dead tear mid-flash
    /// and must be rejected and refetched end-to-end on revive.
    pub thing_crashes_per_epoch: usize,
    /// Kill the hot standby too on every this-many-th failover (the
    /// manager anycast goes completely dark; affected Things are
    /// *detected* as unserved, not counted as violations, and the
    /// repair wave must recover them once a replica returns). `0`
    /// disables blackout chaos.
    pub blackout_every: usize,
    /// Seeded delay/duplicate link misbehaviour applied for the whole
    /// soak; `None` leaves the delivery queue honest.
    pub link_chaos: Option<LinkChaos>,
    /// Gray-failure link degradation: a pure-function schedule that
    /// slows, lossies or asymmetrically cuts individual link directions
    /// instead of severing them. Suspended during each epoch's
    /// heal/repair phase so a gray cut cannot starve the repair wave;
    /// `None` leaves every link at its sampled quality.
    pub link_degrade: Option<LinkDegrade>,
    /// Slow-cache gray failure: one seeded cache pick serves every
    /// request at this multiple of its normal processing time for the
    /// whole soak — alive, coherent, and crawling. `0` disables (and
    /// skips the pick's RNG draw, so non-gray fault schedules are
    /// unshifted).
    pub cache_crawl_factor: u32,
}

impl ChaosConfig {
    /// The acceptance shape: 24 one-hour epochs (one virtual day) of
    /// crashes, partitions, periodic failover and battery churn.
    pub fn day(seed: u64) -> Self {
        ChaosConfig {
            seed,
            epochs: 24,
            epoch: SimDuration::from_secs(3600),
            cache_crashes_per_epoch: 2,
            partitions_per_epoch: 2,
            failover_every: 6,
            reroots_per_heal: 2,
            battery_churn_per_epoch: 32,
            battery_budget_j: 0.75,
            replug_delay: SimDuration::from_millis(500),
            interior_partitions_per_epoch: 0,
            thing_crashes_per_epoch: 0,
            blackout_every: 0,
            link_chaos: None,
            link_degrade: None,
            cache_crawl_factor: 0,
        }
    }

    /// [`ChaosConfig::day`] shrunk for tests: three 30-second epochs,
    /// one fault of each kind per epoch, failover every other epoch.
    pub fn smoke(seed: u64) -> Self {
        ChaosConfig {
            epochs: 3,
            epoch: SimDuration::from_secs(30),
            cache_crashes_per_epoch: 1,
            partitions_per_epoch: 1,
            failover_every: 2,
            reroots_per_heal: 1,
            battery_churn_per_epoch: 4,
            battery_budget_j: 0.25,
            replug_delay: SimDuration::from_millis(200),
            ..Self::day(seed)
        }
    }

    /// The deep-chaos acceptance shape: [`ChaosConfig::day`] plus the
    /// four deeper fault families — interior-router partitions that
    /// orphan whole subtrees, mid-install MCU crashes whose torn images
    /// must be rejected and refetched, a standby blackout on every
    /// other failover, and a seeded delay/duplicate link schedule for
    /// the whole soak.
    pub fn deep(seed: u64) -> Self {
        ChaosConfig {
            interior_partitions_per_epoch: 2,
            thing_crashes_per_epoch: 2,
            blackout_every: 2,
            link_chaos: Some(LinkChaos::seeded(seed ^ 0x0011_ca05)),
            ..Self::day(seed)
        }
    }

    /// [`ChaosConfig::smoke`] widened the same way `deep` widens `day`:
    /// one fault of each deep family per epoch, blackout on every
    /// failover, link chaos on throughout. For tests.
    pub fn deep_smoke(seed: u64) -> Self {
        ChaosConfig {
            interior_partitions_per_epoch: 1,
            thing_crashes_per_epoch: 1,
            blackout_every: 1,
            link_chaos: Some(LinkChaos::seeded(seed ^ 0x0011_ca05)),
            ..Self::smoke(seed)
        }
    }

    /// The gray-failure acceptance shape: [`ChaosConfig::deep`] plus
    /// the failures that *don't* announce themselves — links degraded
    /// to 10× latency or half their PRR, asymmetric one-direction
    /// cuts, and one cache serving at a 16× crawl. Everything the deep
    /// profile severs outright, this profile merely makes miserable,
    /// so recovery rides degraded paths instead of waiting for heals.
    pub fn gray(seed: u64) -> Self {
        ChaosConfig {
            link_degrade: Some(LinkDegrade::seeded(seed ^ 0x06a7_fade)),
            cache_crawl_factor: 16,
            ..Self::deep(seed)
        }
    }

    /// [`ChaosConfig::deep_smoke`] widened the way `gray` widens
    /// `deep`, with the degrade window shrunk to fit 30-second epochs
    /// so a short soak still crosses several schedule windows. For
    /// tests.
    pub fn gray_smoke(seed: u64) -> Self {
        ChaosConfig {
            link_degrade: Some(LinkDegrade {
                window: SimDuration::from_secs(5),
                slow_p: 0.10,
                lossy_p: 0.10,
                cut_p: 0.05,
                ..LinkDegrade::seeded(seed ^ 0x06a7_fade)
            }),
            cache_crawl_factor: 8,
            ..Self::deep_smoke(seed)
        }
    }
}

/// One fault family: the tag of each entry in an epoch's fault log, and
/// the family a knocked-out Thing's recovery is attributed to.
///
/// Declaration order is heal order: the log is stably sorted by family
/// and each logged repair applied in turn, except that MCU revives wait
/// for the reroot storm.
///
/// Attribution is a deterministic precedence over the epoch's injected
/// faults, not causal tracing: an exact match (the Thing's own MCU
/// crashed; an interior cut orphans its stale-DODAG ancestor chain)
/// wins over epoch-wide conditions (blackout, then cache crash, then
/// uplink partition, then failover). A Thing that is unserved with no
/// fault injected this epoch — lossy-link noise — is not recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FaultFamily {
    Partition,
    InteriorCut,
    CacheCrash,
    McuCrash,
    Failover,
    Blackout,
}

impl FaultFamily {
    /// Every family, in declaration order.
    const ALL: [FaultFamily; 6] = [
        FaultFamily::Partition,
        FaultFamily::InteriorCut,
        FaultFamily::CacheCrash,
        FaultFamily::McuCrash,
        FaultFamily::Failover,
        FaultFamily::Blackout,
    ];

    /// The family's stable label (the key the registry, the
    /// bench gates and the recovery exemplars all share).
    fn label(self) -> &'static str {
        match self {
            FaultFamily::Partition => "partition",
            FaultFamily::InteriorCut => "interior_cut",
            FaultFamily::CacheCrash => "cache_crash",
            FaultFamily::McuCrash => "mcu_crash",
            FaultFamily::Failover => "failover",
            FaultFamily::Blackout => "blackout",
        }
    }
}

/// The slowest observed recovery of one fault family: its label, the
/// deterministic trace id of the serving plug pipeline (see
/// [`upnp_trace::TraceId`]), and the recovery latency. These are the
/// traces `fleet --trace-out` exports as Perfetto exemplars on green
/// soaks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryExemplar {
    /// Fault-family label (see [`RecoveryLatencies::families`]).
    pub family: String,
    /// Trace id of the serve that ended the outage.
    pub trace_id: u64,
    /// Fault injection → first successful serve, nanoseconds.
    pub latency_ns: u64,
}

/// Log-scale recovery-latency buckets: upper edges at `2^i` ms for
/// `i in 0..RECOVERY_BUCKETS-1` (1 ms … ~17.5 min), final bucket open.
pub const RECOVERY_BUCKETS: usize = 21;

/// Virtual-time recovery-latency histogram for one fault family:
/// fault injection → the knocked-out Thing's first successful serve
/// after the heal. Fixed log-scale buckets (see [`RECOVERY_BUCKETS`])
/// carry counts *and* per-bucket latency sums, so shard-identity can
/// compare the full distribution bit-for-bit, not just the counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryHistogram {
    /// Recoveries recorded.
    pub count: u64,
    /// Recoveries per bucket (empty until the first record).
    pub bucket_counts: Vec<u64>,
    /// Summed latency per bucket, nanoseconds of virtual time.
    pub bucket_sums_ns: Vec<u64>,
    /// Summed latency across all buckets, nanoseconds.
    pub total_ns: u64,
    /// Slowest recovery, nanoseconds.
    pub max_ns: u64,
}

impl RecoveryHistogram {
    /// Records one injection→first-serve span.
    pub fn record(&mut self, latency: SimDuration) {
        if self.bucket_counts.is_empty() {
            self.bucket_counts = vec![0; RECOVERY_BUCKETS];
            self.bucket_sums_ns = vec![0; RECOVERY_BUCKETS];
        }
        let ns = latency.as_nanos();
        let bucket = (0..RECOVERY_BUCKETS - 1)
            .find(|&i| ns <= (1u64 << i) * 1_000_000)
            .unwrap_or(RECOVERY_BUCKETS - 1);
        self.count += 1;
        self.bucket_counts[bucket] += 1;
        self.bucket_sums_ns[bucket] += ns;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// 99th-percentile recovery latency in milliseconds, resolved to
    /// the containing bucket's upper edge (the open final bucket
    /// resolves to the observed maximum). `0.0` when empty.
    pub fn p99_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (self.count * 99).div_ceil(100);
        let mut cum = 0u64;
        for (i, &c) in self.bucket_counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return if i < RECOVERY_BUCKETS - 1 {
                    (1u64 << i) as f64
                } else {
                    self.max_ns as f64 / 1e6
                };
            }
        }
        self.max_ns as f64 / 1e6
    }

    /// Order-sensitive fold of every deterministic field — count,
    /// totals, and both per-bucket vectors — so the registry carries
    /// the full distribution as one counter instead of ~40. Uses the
    /// shared [`upnp_trace::Digest`] helper (same SplitMix64 chain the
    /// trace subsystem folds with).
    pub fn digest(&self) -> u64 {
        upnp_trace::Digest::seeded(self.count ^ 0x4ec0)
            .fold_all([self.total_ns, self.max_ns, self.bucket_counts.len() as u64])
            .fold_all(
                self.bucket_counts
                    .iter()
                    .chain(&self.bucket_sums_ns)
                    .copied(),
            )
            .value()
    }
}

/// Per-fault-family recovery-latency histograms for one soak.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryLatencies {
    /// Root↔cache uplink partitions.
    pub partition: RecoveryHistogram,
    /// Interior-router partitions (orphaned subtrees).
    pub interior_cut: RecoveryHistogram,
    /// Cache crashes.
    pub cache_crash: RecoveryHistogram,
    /// Mid-install MCU crashes.
    pub mcu_crash: RecoveryHistogram,
    /// Primary-Manager failovers.
    pub failover: RecoveryHistogram,
    /// Standby blackouts (anycast fully dark).
    pub blackout: RecoveryHistogram,
}

impl RecoveryLatencies {
    /// Every family with its stable label, in declaration order — the
    /// order the registry and the bench gates iterate.
    pub fn families(&self) -> [(&'static str, &RecoveryHistogram); 6] {
        FaultFamily::ALL.map(|f| (f.label(), self.family(f)))
    }

    fn family(&self, family: FaultFamily) -> &RecoveryHistogram {
        match family {
            FaultFamily::Partition => &self.partition,
            FaultFamily::InteriorCut => &self.interior_cut,
            FaultFamily::CacheCrash => &self.cache_crash,
            FaultFamily::McuCrash => &self.mcu_crash,
            FaultFamily::Failover => &self.failover,
            FaultFamily::Blackout => &self.blackout,
        }
    }

    fn family_mut(&mut self, family: FaultFamily) -> &mut RecoveryHistogram {
        match family {
            FaultFamily::Partition => &mut self.partition,
            FaultFamily::InteriorCut => &mut self.interior_cut,
            FaultFamily::CacheCrash => &mut self.cache_crash,
            FaultFamily::McuCrash => &mut self.mcu_crash,
            FaultFamily::Failover => &mut self.failover,
            FaultFamily::Blackout => &mut self.blackout,
        }
    }
}

/// Outcome of one chaos soak: fault counters plus invariant verdicts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SoakReport {
    /// Epochs completed.
    pub epochs: usize,
    /// Scheduler phases driven (run/pause cycles across the soak).
    pub soak_ticks: u64,
    /// Virtual time the soak spanned, milliseconds.
    pub virtual_ms: f64,
    /// Total faults injected: every cache crash, uplink partition,
    /// interior partition, MCU crash, failover and standby outage, plus
    /// reroots and battery deaths.
    pub faults_injected: u64,
    /// Cache crashes injected.
    pub cache_crashes: u64,
    /// Root↔cache uplink partitions injected (interior cuts count in
    /// `interior_partitions`).
    pub partitions: u64,
    /// Interior-router partitions injected (the routing edge above an
    /// arbitrary Thing severed, orphaning its subtree).
    pub interior_partitions: u64,
    /// Mid-install MCU crashes injected.
    pub thing_crashes: u64,
    /// Half-written driver images found in torn flash on revive and
    /// rejected by signature verification (never stitched across the
    /// crash).
    pub half_images_rejected: u64,
    /// End-to-end driver refetches reissued by revived MCUs for the
    /// installs their crash interrupted.
    pub half_image_refetches: u64,
    /// Primary-Manager failovers injected.
    pub failovers: u64,
    /// Standby blackouts injected (hot standby killed while the primary
    /// was already down — the manager anycast completely dark).
    pub standby_outages: u64,
    /// Blackout epochs in which at least one occupied Thing was
    /// *detected* unserved while both replicas were dark. A first-class
    /// observation, not a violation: the epoch's repair wave must
    /// recover every such Thing once a replica returns, and the
    /// discovery invariant still enforces that at the epoch boundary.
    pub unserved_windows: u64,
    /// Total unserved-Thing detections across blackout windows.
    pub unserved_things: u64,
    /// DODAG reroots driven during heal phases.
    pub reroots: u64,
    /// Battery deaths (unplugs) injected.
    pub battery_unplugs: u64,
    /// Battery swaps (replugs, rotated peripheral type) injected.
    pub battery_replugs: u64,
    /// Parked singleflight followers drained by cache crashes and
    /// re-resolved to the next-nearest anycast instance.
    pub followers_drained: u64,
    /// Per-epoch breakdown of `followers_drained` (one entry per epoch,
    /// in order) — lets the bench gate assert followers were actually
    /// parked when each epoch's mid-transfer crash landed.
    pub followers_drained_by_epoch: Vec<u64>,
    /// Frame deliveries the seeded link chaos delayed during the soak.
    pub frames_delayed: u64,
    /// Frame deliveries the seeded link chaos duplicated during the
    /// soak.
    pub frames_duplicated: u64,
    /// Hops carried while gray-degraded (slow or lossy) during the
    /// soak — the evidence the gray schedule actually fired.
    pub frames_degraded: u64,
    /// Per-epoch breakdown of `frames_degraded` (one entry per epoch,
    /// in order) — the bench gate fails a gray soak on any epoch with
    /// zero degraded-link deliveries.
    pub degraded_by_epoch: Vec<u64>,
    /// Per-fault-family recovery-latency histograms: fault injection →
    /// first successful serve after the heal, in virtual time.
    pub recovery: RecoveryLatencies,
    /// Per-family slowest-recovery exemplars: the actual trace ids of
    /// the serves that ended the worst outage of each family, in
    /// [`RecoveryLatencies::families`] order (families with no
    /// recoveries are absent).
    pub recovery_exemplars: Vec<RecoveryExemplar>,
    /// Recoveries whose serving trace id disagreed with the precedence
    /// heuristic's attribution: the trace that ended the outage was
    /// neither the one knocked out by the fault nor a repair-wave
    /// replug of it (must be 0).
    pub attribution_mismatches: u64,
    /// Things the repair wave had to replug after faults starved their
    /// driver fetch.
    pub repairs: u64,
    /// Epoch-end Things whose served-driver state disagreed with the
    /// occupancy oracle (must be 0).
    pub discovery_violations: u64,
    /// Epoch-end Manager-retention breaches of
    /// `MAX_INVENTORY × replicas` (must be 0).
    pub retention_violations: u64,
    /// Host peak-RSS high-water mark at soak end, kilobytes (0 where
    /// `/proc/self/status` is unavailable).
    pub peak_rss_kb: u64,
    /// Host peak-RSS high-water mark after the first epoch — the bench
    /// layer gates `peak_rss_kb` flatness against it.
    pub rss_epoch1_kb: u64,
}

impl SoakReport {
    /// Invariant breaches across the soak: discovery and retention
    /// violations plus recovery-attribution mismatches.
    pub fn violations(&self) -> u64 {
        self.discovery_violations + self.retention_violations + self.attribution_mismatches
    }

    /// Did every whole-soak invariant hold?
    pub fn invariants_held(&self) -> bool {
        self.violations() == 0
    }

    /// Everything deterministic about the soak in one comparable
    /// string: [`SoakReport::registry`] rendered as one line.
    pub fn deterministic_summary(&self) -> String {
        summary_line(&self.registry())
    }

    /// Every deterministic field, registered once: the `soak` counters,
    /// each family's `recovery` histogram (count, slowest recovery, and
    /// a digest folding every bucket count and sum) and the `exemplar`
    /// traces. Per-epoch series register one digest each; the float
    /// `virtual_ms` registers its bits.
    ///
    /// Left out: host RSS, and the retention verdict — its bound scales
    /// with the replica count, which is shard-dependent the same way
    /// `mgr_inventory` is (see [`ScenarioMetrics::registry`]);
    /// [`SoakReport::invariants_held`] still enforces it per run.
    pub fn registry(&self) -> MetricsRegistry {
        let series = |v: &[u64]| {
            Digest::seeded(v.len() as u64)
                .fold_all(v.iter().copied())
                .value()
        };
        let mut reg = MetricsRegistry::new();
        reg.register("soak", "epochs", self.epochs as u64);
        reg.register("soak", "soak_ticks", self.soak_ticks);
        reg.register("soak", "virtual_ms_bits", self.virtual_ms.to_bits());
        reg.register("soak", "faults_injected", self.faults_injected);
        reg.register("soak", "cache_crashes", self.cache_crashes);
        reg.register("soak", "partitions", self.partitions);
        reg.register("soak", "interior_partitions", self.interior_partitions);
        reg.register("soak", "thing_crashes", self.thing_crashes);
        reg.register("soak", "half_images_rejected", self.half_images_rejected);
        reg.register("soak", "half_image_refetches", self.half_image_refetches);
        reg.register("soak", "failovers", self.failovers);
        reg.register("soak", "standby_outages", self.standby_outages);
        reg.register("soak", "unserved_windows", self.unserved_windows);
        reg.register("soak", "unserved_things", self.unserved_things);
        reg.register("soak", "reroots", self.reroots);
        reg.register("soak", "battery_unplugs", self.battery_unplugs);
        reg.register("soak", "battery_replugs", self.battery_replugs);
        reg.register("soak", "followers_drained", self.followers_drained);
        let drained = series(&self.followers_drained_by_epoch);
        reg.register("soak", "followers_drained_by_epoch", drained);
        reg.register("soak", "frames_delayed", self.frames_delayed);
        reg.register("soak", "frames_duplicated", self.frames_duplicated);
        reg.register("soak", "frames_degraded", self.frames_degraded);
        reg.register("soak", "degraded_by_epoch", series(&self.degraded_by_epoch));
        reg.register(
            "soak",
            "attribution_mismatches",
            self.attribution_mismatches,
        );
        reg.register("soak", "repairs", self.repairs);
        reg.register("soak", "discovery_violations", self.discovery_violations);
        for (family, h) in self.recovery.families() {
            reg.register("recovery", &format!("{family}.count"), h.count);
            reg.register("recovery", &format!("{family}.max_ns"), h.max_ns);
            reg.register("recovery", &format!("{family}.digest"), h.digest());
        }
        for x in &self.recovery_exemplars {
            reg.register("exemplar", &format!("{}.trace_id", x.family), x.trace_id);
            reg.register(
                "exemplar",
                &format!("{}.latency_ns", x.family),
                x.latency_ns,
            );
        }
        reg
    }
}

/// Most repair-wave rounds one heal phase may run. On a PRR-0.6 link
/// the MAC's three retransmissions still lose ~2.6% of unicast frames,
/// and a lost driver request has no higher-layer retransmit, so a
/// single replug round fails a few percent of the time; four rounds
/// push the residual chance below anything a soak will ever see while
/// keeping a genuine (deterministic) starvation loud.
const REPAIR_ROUNDS: usize = 4;

/// Offset past the replug-wave base at which the run pauses and the
/// epoch's faults land. Peripheral identification takes ~240 ms after a
/// plug, so the faults drop while the replug wave's driver fetches are
/// in flight at the caches.
const FAULT_OFFSET: SimDuration = SimDuration::from_millis(250);

/// Host peak-RSS high-water mark (`VmHWM`), kilobytes; 0 off-Linux.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

impl<W: SimWorld> Fleet<W> {
    /// Runs a chaos soak over this fleet and reports what happened.
    ///
    /// Epoch 0 doubles as the initial discovery wave (every Thing
    /// plugs); later epochs churn the battery-death subset. The fault
    /// schedule depends only on `cfg.seed`, the fleet shape and metered
    /// radio energy — all deterministic — so the same soak on the
    /// sequential and sharded backends is bit-identical.
    pub fn chaos_soak(&mut self, cfg: &ChaosConfig) -> SoakReport {
        assert!(cfg.epochs > 0, "a soak needs at least one epoch");
        if cfg.failover_every > 0 {
            assert!(
                self.config.standby,
                "failover chaos needs FleetConfig::with_standby()"
            );
        }
        let root = self.plan.manager();
        let pool = self.config.device_pool.clone();
        let n = self.things.len();
        let mut rng = SimRng::seed(cfg.seed ^ 0xc4a0_50a4).fork(n as u64);
        // Battery model: every swap rotates the Thing's peripheral one
        // step through the pool (round 0 is the fleet's round-robin
        // assignment), and per-Thing budgets jitter around the mean so
        // depletion desynchronises across epochs.
        let mut plug_round = vec![0usize; n];
        let budgets: Vec<f64> = (0..n)
            .map(|_| cfg.battery_budget_j * (0.5 + rng.index(1024) as f64 / 1024.0))
            .collect();
        let mut last_swap_j = vec![0.0f64; n];

        let mut report = SoakReport::default();
        // Slowest recovery seen per fault family, as `(latency_ns,
        // serving trace id)` — folded into the report's exemplars at
        // soak end.
        let mut exemplars: HashMap<&'static str, (u64, u64)> = HashMap::new();
        let soak_start = self.world.now();
        // Link chaos covers the whole soak: every delivery — discovery
        // bursts, chunk transfers, anycast replies — runs against the
        // seeded delay/duplicate schedule. The counters are read as a
        // delta so a reused world reports only this soak's perturbations.
        let frames_before = self.world.net_stats();
        self.world
            .apply(soak_start, WorldOp::LinkChaos(cfg.link_chaos));
        // Gray failures cover the soak the same way: the degrade
        // schedule is a pure function of (seed, directed edge, window
        // index), so suspending it for a heal phase and re-enabling it
        // later resumes the exact same schedule. One seeded cache pick
        // crawls for the whole soak; the draw is gated on the factor so
        // non-gray profiles' fault schedules are unshifted.
        self.world
            .apply(soak_start, WorldOp::LinkDegrade(cfg.link_degrade));
        let crawling = if cfg.cache_crawl_factor > 0 && !self.caches.is_empty() {
            let node = self.cache_node(self.caches[rng.index(self.caches.len())]);
            let factor = cfg.cache_crawl_factor;
            self.world
                .apply(soak_start, WorldOp::CacheCrawl { node, factor });
            Some(node)
        } else {
            None
        };
        for e in 0..cfg.epochs {
            let epoch_start = self.world.now();
            let degraded_at_start = self.world.net_stats().frames_degraded;

            // Battery churn wave. Epoch 0 plugs the whole fleet (the
            // initial discovery wave); later epochs churn the seeded
            // floor picks plus every Thing whose radio spent its budget.
            let churn: Vec<usize> = if e == 0 {
                (0..n).collect()
            } else {
                let mut picked = vec![false; n];
                for _ in 0..cfg.battery_churn_per_epoch.min(n) {
                    picked[rng.index(n)] = true;
                }
                for (i, p) in picked.iter_mut().enumerate() {
                    let drawn = self.world.radio_energy_j(self.thing_node(self.things[i]));
                    if drawn - last_swap_j[i] >= budgets[i] {
                        *p = true;
                    }
                }
                (0..n).filter(|&i| picked[i]).collect()
            };
            for (j, &i) in churn.iter().enumerate() {
                let stag = self.config.stagger.saturating_mul(j as u64);
                if self.occupancy[i].is_some() {
                    self.world.apply(epoch_start + stag, self.unplug(i));
                    plug_round[i] += 1;
                    report.battery_unplugs += 1;
                }
                let device = pool[(i + plug_round[i]) % pool.len()];
                self.world
                    .apply(epoch_start + cfg.replug_delay + stag, self.plug(i, device));
                self.occupancy[i] = Some(device);
                if e > 0 {
                    report.battery_replugs += 1;
                }
                last_swap_j[i] = self.world.radio_energy_j(self.thing_node(self.things[i]));
            }

            // Inject: pause mid-wave — replugs are still fetching
            // drivers — and land the epoch's faults at that exact
            // instant. Each fault is logged once, as the op that repairs
            // it; everything after injection reads this log.
            let mid = epoch_start + cfg.replug_delay + FAULT_OFFSET;
            self.world.run_until(mid);
            report.soak_ticks += 1;
            let mut faults: Vec<(FaultFamily, WorldOp)> = Vec::new();
            let drained_before = report.followers_drained;
            if !self.caches.is_empty() {
                for _ in 0..cfg.cache_crashes_per_epoch {
                    let node = self.cache_node(self.caches[rng.index(self.caches.len())]);
                    let revive = (FaultFamily::CacheCrash, WorldOp::Revive(node));
                    if faults.contains(&revive) {
                        continue;
                    }
                    report.followers_drained += self
                        .world
                        .apply(mid, WorldOp::Crash(node))
                        .followers_drained;
                    faults.push(revive);
                }
                for _ in 0..cfg.partitions_per_epoch {
                    let node = self.cache_node(self.caches[rng.index(self.caches.len())]);
                    if let Some(quality) = self.world.apply(mid, WorldOp::CutLink(root, node)).cut {
                        let heal = WorldOp::HealLink(root, node, quality);
                        faults.push((FaultFamily::Partition, heal));
                    }
                }
            }
            report
                .followers_drained_by_epoch
                .push(report.followers_drained - drained_before);
            // Interior-router partitions: sever the routing edge above
            // an arbitrary Thing (its stale pre-cut DODAG parent),
            // orphaning the whole subtree below that edge until the
            // heal restores the sampled quality. The edge may already be
            // cut this epoch — the cut then reports no quality and the
            // draw is a deterministic no-op on both backends.
            for _ in 0..cfg.interior_partitions_per_epoch {
                let node = self.thing_node(self.things[rng.index(n)]);
                let Some(parent) = self.world.dodag_parent(node) else {
                    continue;
                };
                if let Some(quality) = self.world.apply(mid, WorldOp::CutLink(parent, node)).cut {
                    let heal = WorldOp::HealLink(parent, node, quality);
                    faults.push((FaultFamily::InteriorCut, heal));
                }
            }
            // Mid-install MCU crashes: pick Things from the churn
            // wave's early lanes — they plugged before `mid`, so their
            // driver fetch is in flight right now. A DriverUpload
            // arriving while the MCU is dead tears mid-flash; the
            // revive in the heal must reject the half-written image and
            // refetch end-to-end.
            if !churn.is_empty() {
                for _ in 0..cfg.thing_crashes_per_epoch {
                    let node = self.thing_node(self.things[churn[rng.index(churn.len().min(12))]]);
                    let revive = (FaultFamily::McuCrash, WorldOp::Revive(node));
                    if faults.contains(&revive) {
                        continue;
                    }
                    self.world.apply(mid, WorldOp::Crash(node));
                    faults.push(revive);
                }
            }
            if cfg.failover_every > 0 && (e + 1) % cfg.failover_every == 0 {
                self.world.apply(mid, WorldOp::Crash(root));
                faults.push((FaultFamily::Failover, WorldOp::Revive(root)));
                // Standby blackout: on every `blackout_every`-th failover
                // the hot standby dies too, leaving zero live instances
                // behind the manager anycast. Cache hits still serve;
                // every miss drops at anycast resolution and its Thing
                // goes unserved until the repair wave after a replica
                // returns.
                let nth_failover = (e + 1) / cfg.failover_every;
                if cfg.blackout_every > 0 && nth_failover.is_multiple_of(cfg.blackout_every) {
                    let standby = self.plan.replicas[1];
                    self.world.apply(mid, WorldOp::Crash(standby));
                    faults.push((FaultFamily::Blackout, WorldOp::Revive(standby)));
                }
            }
            let logged = |family| faults.iter().filter(|&&(f, _)| f == family).count() as u64;
            report.cache_crashes += logged(FaultFamily::CacheCrash);
            report.partitions += logged(FaultFamily::Partition);
            report.interior_partitions += logged(FaultFamily::InteriorCut);
            report.thing_crashes += logged(FaultFamily::McuCrash);
            report.failovers += logged(FaultFamily::Failover);
            report.standby_outages += logged(FaultFamily::Blackout);
            report.faults_injected += faults.len() as u64;

            // Observe: let the chaos play out against the rest of the
            // wave.
            self.world.run_until_idle();
            report.soak_ticks += 1;

            // Start the recovery clocks: while the fabric is still
            // broken (DODAG parents stale, links still cut), attribute
            // every knocked-out Thing to a fault family.
            let mut outages: Vec<(usize, FaultFamily, u64)> = Vec::new();
            for i in 0..n {
                let Some(device) = self.occupancy[i] else {
                    continue;
                };
                let thing = self.world.thing(self.things[i]);
                if thing.served_peripherals().any(|p| p == device.raw()) {
                    continue;
                }
                // The trace id of the plug the fault knocked out — the
                // stop-clock check below asserts the recovering serve
                // belongs to this trace (or to its repair-wave replug).
                let trace_before = thing
                    .timelines
                    .get(&device.raw())
                    .map_or(0, |tl| tl.trace_id);
                if let Some(family) = self.attribute(i, &faults) {
                    outages.push((i, family, trace_before));
                }
            }
            // Detect (not punish) the blackout's damage: occupied Things
            // whose driver fetch died with the anycast are first-class
            // observations the heal below must repair. Crashed MCUs are
            // excluded — their unserved state belongs to the crash
            // family.
            if logged(FaultFamily::Blackout) > 0 {
                let unserved = outages
                    .iter()
                    .filter(|&&(_, family, _)| family != FaultFamily::McuCrash)
                    .count() as u64;
                report.unserved_things += unserved;
                report.unserved_windows += u64::from(unserved > 0);
            }

            // Heal. Suspend gray degradation first: a gray cut on a
            // repair path would starve the repair wave into a spurious
            // invariant trip. The schedule is pure in absolute time, so
            // re-enabling below resumes it exactly where it would have
            // been. Then apply each logged repair, family by family:
            // links back (every healed edge gets back the exact quality
            // sampled when it was cut, so the post-heal radio is
            // bit-identical to the pre-fault radio), caches revived
            // cold, replicas restored, then a reroot storm, which keeps
            // the DODAG because every cut edge is back. Crashed MCUs
            // revive after the storm so their refetch rides the restored
            // links: each revive audits the torn flash (half-written
            // images must fail verification — never be stitched) and
            // reissues every interrupted driver request end-to-end.
            let now = self.world.now();
            self.world.apply(now, WorldOp::LinkDegrade(None));
            faults.sort_by_key(|&(family, _)| family);
            let (revives, repairs): (Vec<_>, Vec<_>) = faults
                .into_iter()
                .partition(|&(family, _)| family == FaultFamily::McuCrash);
            for (_, op) in repairs {
                self.world.apply(now, op);
            }
            for _ in 0..cfg.reroots_per_heal {
                self.world.apply(now, WorldOp::Reroot);
                report.reroots += 1;
            }
            for (_, op) in revives {
                let revived = self.world.apply(now, op);
                report.half_images_rejected += revived.images_rejected;
                report.half_image_refetches += revived.refetches;
            }

            // Repair wave: anything the faults starved (request dropped
            // in a partition, fetch died with its cache) replugs now
            // that the fabric is whole again. One round is not
            // guaranteed to stick on lossy links — the radio retries a
            // unicast frame at most three times and nothing above the
            // MAC re-sends a lost driver request — so the wave repeats,
            // bounded, until the fleet converges. A deterministic
            // failure keeps its Thing starved through every round and
            // still trips the epoch invariant below.
            let mut replugged = vec![false; n];
            for round in 0..REPAIR_ROUNDS {
                let heal_at = self.world.now();
                let mut lane = 0u64;
                let mut repaired = 0u64;
                for (i, replug) in replugged.iter_mut().enumerate() {
                    let Some(device) = self.occupancy[i] else {
                        continue;
                    };
                    let thing = self.world.thing(self.things[i]);
                    if thing.served_peripherals().any(|p| p == device.raw()) {
                        continue;
                    }
                    let at = heal_at + self.config.stagger.saturating_mul(lane);
                    self.world.apply(at, self.unplug(i));
                    self.world
                        .apply(at + self.config.stagger, self.plug(i, device));
                    *replug = true;
                    repaired += 1;
                    lane += 2;
                }
                if round > 0 && repaired == 0 {
                    break;
                }
                report.repairs += repaired;
                self.world.run_until_idle();
                report.soak_ticks += 1;
            }

            // Check the whole-soak invariants, every epoch.
            for i in 0..n {
                let mut served = self.world.thing(self.things[i]).served_peripherals();
                let ok = match self.occupancy[i] {
                    Some(device) => served.filter(|&p| p == device.raw()).count() == 1,
                    None => served.next().is_none(),
                };
                if !ok {
                    report.discovery_violations += 1;
                }
            }
            let bound = MAX_INVENTORY as u64 * self.world.manager_replicas();
            if self.world.distro_stats().mgr_inventory > bound {
                report.retention_violations += 1;
            }
            if e == 0 {
                report.rss_epoch1_kb = peak_rss_kb();
            }

            // Stop the recovery clocks: the repair waves have converged
            // (the invariant above vouches for it), and every replug
            // stamps `PlugTimeline::finished` at driver activation — the
            // first successful serve after the heal. The span from fault
            // injection (`mid`) to that stamp is the fault family's
            // recovery latency; a stamp at or before `mid` is a stale
            // timeline from an earlier wave and is skipped.
            for (i, family, trace_before) in outages {
                let Some(device) = self.occupancy[i] else {
                    continue;
                };
                let thing = self.world.thing(self.things[i]);
                let Some(tl) = thing.timelines.get(&device.raw()) else {
                    continue;
                };
                let Some(finished) = tl.finished else {
                    continue;
                };
                if finished > mid {
                    let latency = finished.saturating_since(mid);
                    report.recovery.family_mut(family).record(latency);
                    // The serve that ended the outage stamps its own
                    // trace id into the timeline at plug. It must be the
                    // knocked-out trace itself (in-place recovery: MCU
                    // refetch, cache failover, retried fetch) or the
                    // repair wave's replug of this Thing — anything else
                    // means the precedence heuristic attributed the
                    // recovery to the wrong outage.
                    let trace_now = tl.trace_id;
                    if trace_now == 0 || (trace_now != trace_before && !replugged[i]) {
                        report.attribution_mismatches += 1;
                    }
                    let slot = exemplars.entry(family.label()).or_insert((0, 0));
                    if latency.as_nanos() >= slot.0 {
                        *slot = (latency.as_nanos(), trace_now);
                    }
                }
            }

            // Resume the gray schedule for the run to the boundary (and
            // the next epoch's churn wave). No-op for non-gray profiles.
            self.world
                .apply(self.world.now(), WorldOp::LinkDegrade(cfg.link_degrade));

            // Advance to the epoch boundary so every epoch spans exactly
            // `cfg.epoch` of virtual time.
            let boundary = epoch_start + cfg.epoch;
            if boundary > self.world.now() {
                self.world.run_until(boundary);
                report.soak_ticks += 1;
            }
            report
                .degraded_by_epoch
                .push(self.world.net_stats().frames_degraded - degraded_at_start);
        }

        let end = self.world.now();
        self.world.apply(end, WorldOp::LinkChaos(None));
        self.world.apply(end, WorldOp::LinkDegrade(None));
        if let Some(node) = crawling {
            self.world
                .apply(end, WorldOp::CacheCrawl { node, factor: 1 });
        }
        let frames_after = self.world.net_stats();
        report.frames_delayed = frames_after.frames_delayed - frames_before.frames_delayed;
        report.frames_duplicated = frames_after.frames_duplicated - frames_before.frames_duplicated;
        report.frames_degraded = frames_after.frames_degraded - frames_before.frames_degraded;
        report.epochs = cfg.epochs;
        report.virtual_ms = self
            .world
            .now()
            .saturating_since(soak_start)
            .as_millis_f64();
        report.faults_injected += report.reroots + report.battery_unplugs;
        report.peak_rss_kb = peak_rss_kb();
        for family in FaultFamily::ALL {
            if let Some(&(latency_ns, trace_id)) = exemplars.get(family.label()) {
                report.recovery_exemplars.push(RecoveryExemplar {
                    family: family.label().to_string(),
                    trace_id,
                    latency_ns,
                });
            }
        }
        report
    }

    /// The fault family Thing `i`'s outage is attributed to (see
    /// [`FaultFamily`]), read from the epoch's fault log while the
    /// fabric is still broken. Exact matches come first: its own MCU
    /// crash, else an interior cut on its stale DODAG parent chain. Then
    /// the epoch-wide families by blast radius: a blackout kills every
    /// miss, a cache crash kills its fetches, an uplink partition
    /// strands a subtree's requests, a bare failover only the requests
    /// in flight at the switch. `None` in a fault-free epoch.
    fn attribute(&self, i: usize, faults: &[(FaultFamily, WorldOp)]) -> Option<FaultFamily> {
        use FaultFamily::{Blackout, CacheCrash, Failover, InteriorCut, McuCrash, Partition};
        let node = self.thing_node(self.things[i]);
        if faults.contains(&(McuCrash, WorldOp::Revive(node))) {
            return Some(McuCrash);
        }
        let cut_above = |node: NodeId| {
            faults.iter().any(|&(family, op)| {
                family == InteriorCut
                    && matches!(op, WorldOp::HealLink(_, child, _) if child == node)
            })
        };
        // Bounded walk: a (stale) DODAG parent chain is acyclic, but
        // cap it anyway so a broken oracle can't hang the soak.
        let chain = std::iter::successors(Some(node), |&node| self.world.dodag_parent(node));
        if chain.take(self.things.len() + 1).any(cut_above) {
            return Some(InteriorCut);
        }
        [Blackout, CacheCrash, Partition, Failover]
            .into_iter()
            .find(|&family| faults.iter().any(|&(f, _)| f == family))
    }

    /// Runs the chaos soak as a measured scenario — the standard
    /// [`crate::fleet::ScenarioMetrics`] row (so the benchmark's
    /// shard-identity and drift machinery covers soaks like any other
    /// scenario) paired with the [`SoakReport`]. Events are the injected
    /// faults; a soak "completes" its events only while every invariant
    /// holds.
    pub fn soak_scenario(&mut self, cfg: &ChaosConfig) -> (ScenarioMetrics, SoakReport) {
        let mut probe = self.start_scenario();
        let report = self.chaos_soak(cfg);
        let events = report.faults_injected as usize;
        let completed = events.saturating_sub(report.violations() as usize);
        let metrics = self.finish_scenario(&mut probe, "soak", events, completed, Vec::new());
        (metrics, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, FleetTopology};
    use crate::world::World;

    fn soak_config(things: usize) -> FleetConfig {
        FleetConfig::new(things)
            .with_caches(2)
            .with_standby()
            .with_seed(0x50ac)
    }

    #[test]
    fn smoke_soak_holds_every_invariant() {
        let mut fleet = Fleet::build(soak_config(12));
        let report = fleet.chaos_soak(&ChaosConfig::smoke(1));
        assert!(
            report.invariants_held(),
            "soak violated invariants: {report:?}"
        );
        assert_eq!(report.epochs, 3);
        assert!(report.cache_crashes > 0, "no cache crashes injected");
        assert!(report.partitions > 0, "no partitions injected");
        assert_eq!(report.failovers, 1, "failover_every=2 over 3 epochs");
        assert!(report.battery_replugs > 0, "no battery churn");
        assert!(report.faults_injected > 0);
        // Three 30-second epochs, pinned to the boundary.
        assert!(report.virtual_ms >= 3.0 * 30_000.0);
    }

    #[test]
    fn soak_is_reproducible() {
        let run = || {
            let mut fleet = Fleet::build(soak_config(10));
            let report = fleet.chaos_soak(&ChaosConfig::smoke(7));
            (report.deterministic_summary(), fleet.fingerprint())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mid_transfer_crash_drains_parked_followers() {
        // One cache, one device type, 1 ms-stagger flash replug: every
        // Thing behind the cache coalesces onto the same in-flight
        // chunked fetch (identification takes ~240 ms, then the fetch
        // holds followers for tens of virtual milliseconds). Pausing
        // inside that window and crashing the cache must surface the
        // parked followers so they re-resolve to the next-nearest
        // instance (the origin) — the satellite-1/2 failure path,
        // driven end-to-end by the soak.
        let mut config = soak_config(8);
        config.device_pool.truncate(1);
        config.stagger = SimDuration::from_millis(1);
        let mut fleet = Fleet::build(config);
        let chaos = ChaosConfig {
            cache_crashes_per_epoch: 1,
            partitions_per_epoch: 0,
            failover_every: 0,
            epochs: 1,
            ..ChaosConfig::smoke(3)
        };
        let report = fleet.chaos_soak(&chaos);
        assert!(
            report.followers_drained > 0,
            "crash mid-transfer must drain parked singleflight followers: {report:?}"
        );
        assert!(report.invariants_held(), "{report:?}");
    }

    #[test]
    fn failover_soak_serves_through_the_standby() {
        let mut fleet = Fleet::build(soak_config(8));
        let chaos = ChaosConfig {
            failover_every: 1,
            ..ChaosConfig::smoke(11)
        };
        let report = fleet.chaos_soak(&chaos);
        assert_eq!(report.failovers, 3, "one failover per epoch");
        assert!(report.invariants_held(), "{report:?}");
        // Both replicas answered driver fetches at some point.
        assert!(fleet.world.distro_stats().origin_uploads > 0);
    }

    #[test]
    fn soak_on_tree_topology_holds_invariants() {
        let config = soak_config(18).with_topology(FleetTopology::Tree { fanout: 3 });
        let mut fleet = Fleet::build(config);
        let report = fleet.chaos_soak(&ChaosConfig::smoke(5));
        assert!(report.invariants_held(), "{report:?}");
        assert!(report.faults_injected > 0);
    }

    #[test]
    fn deep_smoke_soak_exercises_every_family() {
        let mut fleet = Fleet::build(soak_config(12));
        let report = fleet.chaos_soak(&ChaosConfig::deep_smoke(1));
        assert!(
            report.invariants_held(),
            "deep soak violated invariants: {report:?}"
        );
        assert!(
            report.interior_partitions > 0,
            "no interior cuts: {report:?}"
        );
        assert!(report.thing_crashes > 0, "no MCU crashes: {report:?}");
        assert_eq!(report.standby_outages, 1, "blackout_every=1: {report:?}");
        assert!(
            report.frames_delayed > 0 && report.frames_duplicated > 0,
            "link chaos injected nothing: {report:?}"
        );
        assert_eq!(
            report.followers_drained_by_epoch.len(),
            report.epochs,
            "one drain entry per epoch: {report:?}"
        );
        assert_eq!(
            report.followers_drained_by_epoch.iter().sum::<u64>(),
            report.followers_drained,
            "per-epoch drains must sum to the aggregate: {report:?}"
        );
    }

    #[test]
    fn recovery_histogram_buckets_sums_and_p99() {
        let mut h = RecoveryHistogram::default();
        assert_eq!(h.p99_ms(), 0.0, "empty histogram has no p99");
        h.record(SimDuration::from_millis(1)); // bucket 0 (≤ 1 ms)
        h.record(SimDuration::from_millis(3)); // bucket 2 (≤ 4 ms)
        h.record(SimDuration::from_millis(3)); // bucket 2
        h.record(SimDuration::from_secs(40 * 60)); // past the last edge
        assert_eq!(h.count, 4);
        assert_eq!(h.bucket_counts.len(), RECOVERY_BUCKETS);
        assert_eq!(h.bucket_counts[0], 1);
        assert_eq!(h.bucket_counts[2], 2);
        assert_eq!(h.bucket_counts[RECOVERY_BUCKETS - 1], 1);
        assert_eq!(h.bucket_sums_ns[2], 2 * 3_000_000);
        assert_eq!(h.bucket_counts.iter().sum::<u64>(), h.count);
        assert_eq!(h.bucket_sums_ns.iter().sum::<u64>(), h.total_ns);
        assert_eq!(h.max_ns, 40 * 60 * 1_000_000_000);
        // p99 of four samples needs the 4th: the open overflow bucket
        // resolves to the observed maximum.
        assert_eq!(h.p99_ms(), h.max_ns as f64 / 1e6);
        // Digest covers the sums, not just the counts.
        let d = h.digest();
        h.bucket_sums_ns[2] += 1;
        h.bucket_sums_ns[0] -= 1;
        assert_ne!(h.digest(), d, "digest must fold bucket sums");
    }

    #[test]
    fn gray_smoke_soak_degrades_links_and_measures_recovery() {
        let mut fleet = Fleet::build(soak_config(12));
        let report = fleet.chaos_soak(&ChaosConfig::gray_smoke(1));
        assert!(
            report.invariants_held(),
            "gray soak violated invariants: {report:?}"
        );
        assert!(
            report.frames_degraded > 0,
            "gray schedule never degraded a hop: {report:?}"
        );
        assert_eq!(
            report.degraded_by_epoch.len(),
            report.epochs,
            "one degraded entry per epoch: {report:?}"
        );
        assert_eq!(
            report.degraded_by_epoch.iter().sum::<u64>(),
            report.frames_degraded,
            "per-epoch degraded hops must sum to the aggregate: {report:?}"
        );
        let recovered: u64 = report
            .recovery
            .families()
            .iter()
            .map(|(_, h)| h.count)
            .sum();
        assert!(
            recovered > 0,
            "a gray soak must record recovery latencies: {report:?}"
        );
        for (name, h) in report.recovery.families() {
            assert_eq!(
                h.bucket_counts.iter().sum::<u64>(),
                h.count,
                "{name}: bucket counts must sum to the count"
            );
            assert_eq!(
                h.bucket_sums_ns.iter().sum::<u64>(),
                h.total_ns,
                "{name}: bucket sums must sum to the total"
            );
            if h.count > 0 {
                assert!(h.p99_ms() > 0.0, "{name}: recorded but p99 is zero");
            }
        }
    }

    #[test]
    fn gray_soak_is_reproducible() {
        let run = || {
            let mut fleet = Fleet::build(soak_config(10));
            let report = fleet.chaos_soak(&ChaosConfig::gray_smoke(7));
            (report.deterministic_summary(), fleet.fingerprint())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gray_soak_leaves_no_degradation_behind() {
        // After a gray soak the degrade schedule and the cache crawl
        // must both be retired: a follow-up healthy wave runs at full
        // speed and degrades nothing.
        let mut fleet = Fleet::build(soak_config(8));
        fleet.chaos_soak(&ChaosConfig::gray_smoke(3));
        let degraded_after = fleet.world.net_stats().frames_degraded;
        let report = fleet.chaos_soak(&ChaosConfig::smoke(5));
        assert!(report.invariants_held(), "{report:?}");
        assert_eq!(
            fleet.world.net_stats().frames_degraded,
            degraded_after,
            "degrade schedule must not outlive its soak"
        );
        assert_eq!(report.frames_degraded, 0);
    }

    #[test]
    fn deep_soak_is_reproducible() {
        let run = || {
            let mut fleet = Fleet::build(soak_config(10));
            let report = fleet.chaos_soak(&ChaosConfig::deep_smoke(7));
            (report.deterministic_summary(), fleet.fingerprint())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn torn_half_image_is_rejected_and_refetched() {
        // Flash replug (1 ms stagger, one device type): every Thing's
        // driver fetch is in flight when the faults land at `mid`, so a
        // crashed MCU is all but guaranteed a DriverUpload arriving
        // while it is dead. The upload tears mid-flash; the revive must
        // reject the half-written image via signature verification and
        // refetch end-to-end — and the Thing must still end the epoch
        // served exactly once.
        let mut config = soak_config(8);
        config.device_pool.truncate(1);
        config.stagger = SimDuration::from_millis(1);
        let mut fleet = Fleet::build(config);
        let chaos = ChaosConfig {
            cache_crashes_per_epoch: 0,
            partitions_per_epoch: 0,
            failover_every: 0,
            thing_crashes_per_epoch: 2,
            epochs: 1,
            ..ChaosConfig::smoke(3)
        };
        let report = fleet.chaos_soak(&chaos);
        assert!(report.thing_crashes > 0, "{report:?}");
        assert!(
            report.half_images_rejected > 0,
            "a torn image must be rejected on revive: {report:?}"
        );
        assert!(
            report.half_image_refetches > 0,
            "a rejected install must be refetched end-to-end: {report:?}"
        );
        assert!(
            report.recovery.mcu_crash.count > 0,
            "a crashed MCU's recovery must land in the mcu_crash family: {report:?}"
        );
        assert!(report.invariants_held(), "{report:?}");
    }

    #[test]
    fn standby_blackout_detects_and_recovers_unserved() {
        // No caches: with both replicas dark the manager anycast has
        // zero live instances, so every in-flight driver request of the
        // blackout window dies and its Thing sits unserved until the
        // heal. The soak must *observe* that window (first-class
        // counters, not violations) and the repair wave must recover it.
        let config = FleetConfig::new(6).with_standby().with_seed(0x50ac);
        let mut fleet: Fleet<World> = Fleet::build(config);
        let chaos = ChaosConfig {
            failover_every: 1,
            blackout_every: 1,
            ..ChaosConfig::smoke(13)
        };
        let report = fleet.chaos_soak(&chaos);
        assert_eq!(report.standby_outages, 3, "blackout on every failover");
        assert!(
            report.unserved_windows >= 1,
            "a full blackout mid-wave must strand at least one Thing: {report:?}"
        );
        assert!(report.unserved_things >= report.unserved_windows);
        assert!(
            report.invariants_held(),
            "unserved Things must be recovered, not leaked: {report:?}"
        );
    }

    #[test]
    fn interior_partition_heals_with_original_quality() {
        // Regression for the heal-quality contract on the new interior
        // edges: a lossy fleet's sampled PRR must survive a cut/heal
        // round-trip exactly — healing with a resampled quality would
        // silently change the radio for the rest of the soak.
        let mut config = soak_config(10);
        config.link_prr = 0.6;
        let mut fleet: Fleet<World> = Fleet::build(config);
        let node = fleet.thing_node(fleet.things[7]);
        let parent = fleet.world.dodag_parent(node).expect("thing has a parent");
        let before = fleet.world.net.link_quality(parent, node);
        let now = fleet.world.now();
        let sampled = fleet
            .world
            .apply(now, WorldOp::CutLink(parent, node))
            .cut
            .expect("edge exists");
        assert_eq!(fleet.world.net.link_quality(parent, node), None);
        fleet
            .world
            .apply(now, WorldOp::HealLink(parent, node, sampled));
        assert_eq!(fleet.world.net.link_quality(parent, node), before);

        // And end-to-end: a deep soak over the same lossy fleet keeps
        // every invariant with interior cuts healing mid-run.
        let report = fleet.chaos_soak(&ChaosConfig::deep_smoke(17));
        assert!(report.interior_partitions > 0, "{report:?}");
        assert!(report.invariants_held(), "{report:?}");
    }

    #[test]
    fn cacheless_soak_still_churns_and_holds() {
        // Without a distribution tier there is nothing to crash or
        // partition, but battery churn and failover still apply.
        let config = FleetConfig::new(6).with_standby().with_seed(0x50ac);
        let mut fleet: Fleet<World> = Fleet::build(config);
        let report = fleet.chaos_soak(&ChaosConfig::smoke(9));
        assert_eq!(report.cache_crashes, 0);
        assert_eq!(report.partitions, 0);
        assert!(report.battery_replugs > 0);
        assert!(report.invariants_held(), "{report:?}");
    }

    /// The one list of fields no registry carries: host measurements,
    /// and the shard-dependent Manager retention level and verdict.
    const UNREGISTERED: [&str; 6] = [
        "wall_ms",
        "events_per_wall_s",
        "mgr_inventory",
        "peak_rss_kb",
        "rss_epoch1_kb",
        "retention_violations",
    ];

    /// Perturbs every numeric leaf of `value`'s serde tree in turn and
    /// returns the field names whose perturbation left `digest` alone.
    fn unregistered_fields<T: Serialize + Deserialize>(
        value: &T,
        digest: impl Fn(&T) -> u64,
    ) -> Vec<String> {
        fn leaves(v: &serde::Value, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
            match v {
                serde::Value::Int(_) | serde::Value::Number(_) => out.push(path.clone()),
                serde::Value::Array(items) => {
                    for (i, item) in items.iter().enumerate() {
                        path.push(i.to_string());
                        leaves(item, path, out);
                        path.pop();
                    }
                }
                serde::Value::Object(entries) => {
                    for (key, item) in entries {
                        path.push(key.clone());
                        leaves(item, path, out);
                        path.pop();
                    }
                }
                _ => {}
            }
        }
        let tree = value.to_value();
        let mut paths = Vec::new();
        leaves(&tree, &mut Vec::new(), &mut paths);
        let before = digest(value);
        let mut missed = Vec::new();
        for path in paths {
            let mut tampered = tree.clone();
            let leaf = path.iter().fold(&mut tampered, |v, step| match v {
                serde::Value::Array(items) => &mut items[step.parse::<usize>().unwrap()],
                serde::Value::Object(entries) => {
                    &mut entries.iter_mut().find(|(k, _)| k == step).unwrap().1
                }
                _ => unreachable!("paths end at numeric leaves"),
            });
            *leaf = match *leaf {
                serde::Value::Int(i) => serde::Value::Int(i ^ 1),
                serde::Value::Number(n) => serde::Value::Number(n + 0.5),
                _ => unreachable!("paths end at numeric leaves"),
            };
            let back = T::from_value(&tampered).expect("a perturbed leaf still parses");
            if digest(&back) == before {
                // Name the field: the innermost object key on the path.
                let field = path.iter().rev().find(|s| s.parse::<usize>().is_err());
                missed.push(field.cloned().unwrap_or_default());
            }
        }
        missed.sort();
        missed.dedup();
        missed
    }

    #[test]
    fn registries_cover_every_deterministic_field() {
        let mut fleet = Fleet::build(soak_config(12));
        let (metrics, mut report) = fleet.soak_scenario(&ChaosConfig::gray_smoke(3));
        // Fill every family's histogram and exemplar so the walk reaches
        // bucket vectors and exemplar fields whatever the smoke produced.
        for (i, family) in FaultFamily::ALL.into_iter().enumerate() {
            report
                .recovery
                .family_mut(family)
                .record(SimDuration::from_millis(3 + i as u64));
        }
        report.recovery_exemplars = FaultFamily::ALL
            .iter()
            .map(|f| RecoveryExemplar {
                family: f.label().to_string(),
                trace_id: 0x5eed,
                latency_ns: 7,
            })
            .collect();
        assert!(!report.followers_drained_by_epoch.is_empty());
        assert!(!report.degraded_by_epoch.is_empty());

        let mut missed = unregistered_fields(&metrics, |m| m.registry().digest());
        missed.extend(unregistered_fields(&report, |r| r.registry().digest()));
        missed.sort();
        let mut expected = UNREGISTERED.map(String::from).to_vec();
        expected.sort();
        assert_eq!(
            missed, expected,
            "every numeric field but the unregistered ones must move the registry digest"
        );
    }
}
