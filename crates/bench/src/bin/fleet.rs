//! Fleet-scale benchmark: discovery waves, churn storms, steady-state
//! workloads and flash crowds (through the edge-cache tier) at
//! 100/1k/5k/25k/100k nodes, with machine-readable output and a CI
//! regression gate.
//!
//! ```text
//! fleet                                  # all scenarios, full size sweep
//! fleet --nodes 100,1000                 # restrict the size sweep
//! fleet --shards 1,4                     # sequential + 4-way sharded
//! fleet --scenario discovery             # one scenario only
//! fleet --scenario soak                  # nightly chaos soak
//! fleet --scenario soak --chaos deep     # deep fault profile: interior
//!                                        #   partitions, MCU crashes,
//!                                        #   delay/duplicate links,
//!                                        #   standby blackouts
//! fleet --scenario soak --chaos gray     # gray failures on top of deep:
//!                                        #   10x-latency / half-PRR links,
//!                                        #   asymmetric cuts, a crawling
//!                                        #   cache; recovery-p99 SLOs
//! fleet --seed 42                        # reseed the whole run
//! fleet --out BENCH_fleet.json           # write the JSON report
//! fleet --gate bench/baseline.json       # exit 1 on regression
//! fleet --trace-out BENCH_trace.json     # run traced; write the span
//!                                        #   set as Chrome trace-event
//!                                        #   JSON (loads in Perfetto)
//! fleet --trace-overhead                 # gate the cost of tracing at
//!                                        #   25k-Thing discovery
//! ```
//!
//! `--trace-out` flips the deterministic tracer on for every fleet in
//! the sweep and writes the merged span set as Chrome trace-event JSON
//! (Perfetto's legacy-JSON importer loads it directly). Soak rows that
//! end green export only their *exemplar* traces — the slowest recovery
//! per fault family — so the artifact stays readable; a red soak keeps
//! everything. Traced runs also keep a bounded flight-recorder window
//! of the most recent spans: when the sharded/sequential identity check
//! or a soak gate fails, the window is dumped to `BENCH_flight.json`
//! for CI to upload next to the failure.
//!
//! When the sweep covers both a sequential (`shards = 1`) and a sharded
//! row of the same size, the run *hard-fails* unless every deterministic
//! metric — frames, virtual time, latency distribution, joules, payload
//! and cache/origin counters — and the world fingerprint are
//! bit-identical between them: the sharded simulator is only allowed to
//! be faster, never different. Flash-crowd rows (which run through the
//! edge-cache tier) additionally face absolute floors: the caches must
//! serve ≥ 90 % of driver uploads (at ≥ 1000 Things), and coalescing
//! must hold the origin to at most caches × device-types fetch sessions.
//! Chaos-soak rows (nightly profile, opt-in with `--scenario soak`)
//! hard-fail unless every whole-soak invariant
//! held — exactly-once discovery, cache coherence, bounded Manager
//! retention — and the process peak RSS stayed flat across the virtual
//! day of fault injection. `--chaos deep` widens the schedule with the
//! ISSUE-8 families (interior-router partitions, mid-install MCU
//! crashes, delay/duplicate links, standby blackouts); those rows are
//! labelled `soak-deep` and additionally hard-fail unless the families
//! left evidence — torn images rejected and refetched, blackout windows
//! detected as unserved Things and then repaired. `--chaos gray` layers
//! gray failures on top of `deep` — links degraded to 10× latency or
//! half their PRR, asymmetric one-direction cuts, one cache serving at
//! a crawl; those rows are labelled `soak-gray` and hard-fail if any
//! epoch carried zero degraded-link deliveries (the schedule silently
//! stopped firing). Every soak row embeds per-fault-family
//! recovery-latency histograms (injection → first successful serve
//! after the heal), and when a baseline is supplied their per-family
//! p99s are gated against it the same way RSS flatness is gated
//! absolutely.
//!
//! The gate checks the 1k- and 5k-node discovery wall-clocks against the
//! checked-in baseline (>25 % is a failure), and the zero-copy payload
//! allocation counters on every discovery row shared with the baseline
//! (deterministic, same 25 % threshold — a copy snuck into the data plane
//! shows up here long before it shows up in wall-clock noise).
//! Virtual-time and traffic drift on any row is reported as a warning,
//! since those are deterministic and only move when behaviour genuinely
//! changes. Every row records the process peak RSS and the host's CPU
//! count so memory and parallelism are readable from the artifact.

use std::process::ExitCode;

use serde::{Deserialize, Serialize};
use upnp_core::chaos::SoakReport;
use upnp_core::fleet::{Fleet, FleetConfig, ScenarioMetrics, ShardedFleet};
use upnp_core::world::SimWorld;
use upnp_trace::{
    chrome_trace_json, filter_traces, FlightRecorder, Span, TraceId, FLIGHT_RECORDER_CAPACITY,
};

/// The scenario the regression gates anchor on.
const GATE_SCENARIO: &str = "discovery";
/// Fleet sizes whose discovery wall-clock is gated. The 25k/100k rows are
/// swept and recorded but not wall-gated: they run tens of seconds and CI
/// runner noise at that scale would page people for nothing — their
/// allocation counters (deterministic) are gated instead.
const GATE_WALL_THINGS: &[usize] = &[1000, 5000];
/// Wall-clock regression tolerance (CI runners are noisy; virtual-time
/// metrics are checked for exact drift separately).
const GATE_FACTOR: f64 = 1.25;
/// Sharded wall-clock gate rows `(things, shards)` — checked when both
/// the current run and the baseline carry them.
const GATE_WALL_SHARDED: &[(usize, usize)] = &[(1000, 4)];
/// Edge caches fronting the origin in the flash-crowd scenario rows.
const FLASH_CACHES: usize = 8;
/// Floor on the fraction of flash-crowd driver uploads that must be
/// served by the cache tier rather than the origin (absolute gate, no
/// baseline needed — the counters are deterministic).
const FLASH_CACHE_SERVED_FLOOR: f64 = 0.90;
/// Smallest fleet the served-ratio floor applies to: below this the
/// fixed coalescing cost (caches × device types fetch sessions) is a
/// large fraction of a tiny crowd and the ratio is meaningless — the
/// absolute coalescing bound still applies at every size.
const FLASH_FLOOR_MIN_THINGS: usize = 1000;
/// Report schema version: bumped to 2 when rows gained `shards` and
/// `fingerprint` (PR 4), to 3 when they gained `peak_rss_bytes`/`cpus`
/// and the metrics gained the distribution-tier counters (PR 5), to 4
/// when they gained `faults_injected`/`soak_ticks` and the optional
/// embedded `soak` report (PR 6), to 5 when the report gained the
/// per-driver `drivers` image-size table (optimising compiler), to 6
/// when the soak report gained the deep-chaos counters (interior
/// partitions, MCU crashes with torn-image rejections, standby
/// blackouts with unserved-Thing windows, delay/duplicate link frames,
/// per-epoch follower drains) and soak rows split into `soak` /
/// `soak-deep` profiles, and to 7 when the soak report gained the
/// gray-failure counters (degraded hops, aggregate and per-epoch) and
/// per-fault-family recovery-latency histograms, and `--chaos gray`
/// rows got the `soak-gray` profile, and to 8 when rows gained
/// `trace_spans` and the unified `metrics_table` (every subsystem's
/// counters in one labelled registry), and the soak report gained
/// recovery-trace exemplars and the attribution-mismatch counter;
/// older baselines must be regenerated.
const SCHEMA: u32 = 8;
/// Fleet size for the tracing-overhead gate (`--trace-overhead`):
/// context carriage is always-on, so the discovery wave at this scale
/// is where a hidden cost would show.
const TRACE_OVERHEAD_THINGS: usize = 25_000;
/// With tracing *disabled* the wall-clock must stay within this factor
/// of the baseline's discovery row at the same size — the always-on
/// context carriage must cost ~nothing.
const TRACE_OVERHEAD_DISABLED_FACTOR: f64 = 1.05;
/// With tracing *enabled* (every span recorded) the wall-clock must
/// stay within this factor of the same reference.
const TRACE_OVERHEAD_ENABLED_FACTOR: f64 = 1.15;
/// Where the flight-recorder window lands when the identity check or a
/// soak gate fails on a traced run — CI uploads it as an artifact.
const FLIGHT_DUMP_PATH: &str = "BENCH_flight.json";
/// Edge caches fronting the origin in the chaos-soak rows.
const SOAK_CACHES: usize = FLASH_CACHES;
/// Peak-RSS flatness gate for soak rows: the process high-water mark at
/// soak end must stay within this factor of the mark after the first
/// epoch (plus a small absolute slack so tiny fleets aren't gated on
/// allocator noise). A day of fault churn must not accrete state.
const SOAK_RSS_FLAT_FACTOR: f64 = 1.5;
/// Absolute slack for the flatness gate, kilobytes.
const SOAK_RSS_FLAT_SLACK_KB: u64 = 32 * 1024;
/// Per-family p99 recovery-latency gate: a soak row's p99 (virtual
/// time, deterministic) must stay within this factor of the baseline's.
/// The histogram resolves p99 to a power-of-two bucket edge, so one
/// bucket of movement is exactly ×2 — the factor tolerates that single
/// step and fails anything beyond it.
const SOAK_RECOVERY_P99_FACTOR: f64 = 2.0;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchReport {
    schema: u32,
    seed: u64,
    /// Thing counts the sweep covered.
    sizes: Vec<usize>,
    /// Shipped-driver image sizes under the optimising compiler —
    /// deterministic compiler outputs, gated against the baseline so a
    /// pass regression (images growing back) fails CI.
    drivers: Vec<DriverSizeRow>,
    scenarios: Vec<ScenarioRow>,
}

/// One shipped driver's compiled-image footprint.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DriverSizeRow {
    /// Driver name (`upnp_dsl::drivers::ALL` key).
    name: String,
    /// Device id the image was compiled for (stable across runs).
    device_id: u32,
    /// Serialized size of the optimised image — what the (19) chunked
    /// transfer actually ships.
    image_bytes: usize,
    /// 64-byte chunks needed to ship the optimised image.
    chunks: usize,
    /// Serialized size with the optimiser off, for the ablation column.
    unopt_bytes: usize,
}

/// Compiles every shipped driver at both optimisation levels and
/// records the shipped footprint. Pure compiler output: no seed, no
/// fleet, bit-stable across hosts.
fn driver_sizes() -> Vec<DriverSizeRow> {
    upnp_dsl::drivers::ALL
        .iter()
        .enumerate()
        .map(|(i, (name, src))| {
            let device_id = i as u32 + 1;
            let full = upnp_dsl::compile_source_with(src, device_id, upnp_dsl::OptLevel::Full)
                .expect("shipped driver compiles")
                .to_bytes();
            let none = upnp_dsl::compile_source_with(src, device_id, upnp_dsl::OptLevel::None)
                .expect("shipped driver compiles")
                .to_bytes();
            DriverSizeRow {
                name: (*name).to_string(),
                device_id,
                image_bytes: full.len(),
                chunks: full.len().div_ceil(upnp_net::msg::DRIVER_CHUNK_PAYLOAD),
                unopt_bytes: none.len(),
            }
        })
        .collect()
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScenarioRow {
    /// Things in the fleet (the `nodes` field inside `metrics` also
    /// counts the manager, clients and edge caches).
    things: usize,
    /// Shard (worker thread) count: 1 is the sequential simulator.
    shards: usize,
    /// Edge caches fronting the origin (0 for the paper's single-origin
    /// deployment).
    caches: usize,
    /// Cumulative world fingerprint after this scenario — must be
    /// identical across shard counts.
    fingerprint: u64,
    /// Process peak RSS (VmHWM) after the scenario, bytes. Monotone
    /// across rows (a high-water mark) and host-dependent — recorded so
    /// the per-shard-memory bottleneck is observable from CI artifacts,
    /// never gated or compared for identity.
    peak_rss_bytes: u64,
    /// CPUs the host exposed to this run (`available_parallelism`) —
    /// lets a reader tell real multi-core sharding numbers from
    /// single-core cache-locality numbers.
    cpus: usize,
    /// Faults injected during the scenario (0 outside soak rows).
    faults_injected: u64,
    /// Scheduler run/pause phases driven (0 outside soak rows).
    soak_ticks: u64,
    /// Spans the deterministic tracer recorded during the scenario —
    /// 0 unless the run was traced (`--trace-out`). Deterministic for a
    /// given seed and identical across shard counts.
    trace_spans: u64,
    /// The unified metrics registry: every subsystem's deterministic
    /// counters (`scenario.*`, `net.*`, `payload.*`, `distro.*`) as one
    /// canonically ordered, labelled table.
    metrics_table: Vec<MetricRow>,
    /// The full chaos-soak report (`null` outside soak rows).
    soak: Option<SoakReport>,
    metrics: ScenarioMetrics,
}

/// One `group.name = value` line of the unified metrics table.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MetricRow {
    name: String,
    value: u64,
}

/// Accumulates the traced sweep's artifacts: the spans destined for the
/// Chrome-trace export, and a bounded flight-recorder window of the
/// most recent spans (dumped on identity/gate failure).
struct TraceCollector {
    /// Tracing on for this run (`--trace-out` given)?
    enabled: bool,
    /// Spans kept for the export — green soak rows contribute only
    /// their exemplar traces, everything else contributes in full.
    spans: Vec<Span>,
    recorder: FlightRecorder,
}

impl TraceCollector {
    fn new(enabled: bool) -> Self {
        TraceCollector {
            enabled,
            spans: Vec::new(),
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
        }
    }

    /// Drains the world's spans after one scenario; returns the count
    /// (the row's `trace_spans`) and the drained set.
    fn drain<W: SimWorld>(&mut self, fleet: &mut Fleet<W>) -> (u64, Vec<Span>) {
        if !self.enabled {
            return (0, Vec::new());
        }
        let spans = fleet.world.take_spans();
        for s in &spans {
            self.recorder.push(*s);
        }
        (spans.len() as u64, spans)
    }
}

/// CPUs available to this process (1 when undetectable).
fn detected_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Options {
    sizes: Vec<usize>,
    shards: Vec<usize>,
    seed: u64,
    scenario: Option<String>,
    /// Soak fault profile: `day` (PR 6's families), `deep` (adds
    /// interior partitions, MCU crashes, delay/duplicate links and
    /// standby blackouts; rows are labelled `soak-deep`), or `gray`
    /// (deep plus degraded/asymmetric links and a crawling cache; rows
    /// are labelled `soak-gray`).
    chaos: String,
    out: Option<String>,
    gate: Option<String>,
    /// Run with the deterministic tracer on and write the merged span
    /// set as Chrome trace-event JSON to this path.
    trace_out: Option<String>,
    /// Run the tracing-overhead gate (discovery at
    /// [`TRACE_OVERHEAD_THINGS`], tracing off then on).
    trace_overhead: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        sizes: vec![100, 1000, 5000, 25000, 100000],
        shards: vec![1],
        seed: 0x6030,
        scenario: None,
        chaos: "day".into(),
        out: None,
        gate: None,
        trace_out: None,
        trace_overhead: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--nodes" => {
                opts.sizes = value("--nodes")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--nodes: {e}"))?;
                if opts.sizes.is_empty() || opts.sizes.contains(&0) {
                    return Err("--nodes expects positive fleet sizes".into());
                }
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--shards: {e}"))?;
                if opts.shards.is_empty() || opts.shards.contains(&0) {
                    return Err("--shards expects positive shard counts".into());
                }
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--scenario" => {
                let s = value("--scenario")?;
                if !["discovery", "churn", "steady", "flash", "soak", "all"].contains(&s.as_str()) {
                    return Err(format!("unknown scenario `{s}`"));
                }
                opts.scenario = (s != "all").then_some(s);
            }
            "--chaos" => {
                let c = value("--chaos")?;
                if !["day", "deep", "gray"].contains(&c.as_str()) {
                    return Err(format!("unknown chaos profile `{c}` (day|deep|gray)"));
                }
                opts.chaos = c;
            }
            "--out" => opts.out = Some(value("--out")?),
            "--gate" => opts.gate = Some(value("--gate")?),
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--trace-overhead" => opts.trace_overhead = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn wants(opts: &Options, scenario: &str) -> bool {
    opts.scenario.as_deref().is_none_or(|s| s == scenario)
}

fn row(
    things: usize,
    shards: usize,
    caches: usize,
    fingerprint: u64,
    trace_spans: u64,
    metrics: ScenarioMetrics,
) -> ScenarioRow {
    print_row(things, shards, &metrics);
    let metrics_table = metrics
        .registry()
        .samples()
        .into_iter()
        .map(|s| MetricRow {
            name: format!("{}.{}", s.group, s.name),
            value: s.value,
        })
        .collect();
    ScenarioRow {
        things,
        shards,
        caches,
        fingerprint,
        peak_rss_bytes: upnp_core::chaos::peak_rss_kb() * 1024,
        cpus: detected_cpus(),
        faults_injected: 0,
        soak_ticks: 0,
        trace_spans,
        metrics_table,
        soak: None,
        metrics,
    }
}

/// Runs the selected scenarios against one fleet (sequential or sharded)
/// and appends the rows.
fn run_fleet<W: SimWorld>(
    fleet: &mut Fleet<W>,
    opts: &Options,
    things: usize,
    shards: usize,
    scenarios: &mut Vec<ScenarioRow>,
    trace: &mut TraceCollector,
) {
    // Churn and steady state run against a discovered fleet, so the
    // discovery wave always runs; it is only *reported* if selected.
    let discovery = fleet.discovery_wave();
    let (n, spans) = trace.drain(fleet);
    trace.spans.extend(spans);
    if wants(opts, "discovery") {
        scenarios.push(row(things, shards, 0, fleet.fingerprint(), n, discovery));
    }
    if wants(opts, "churn") {
        let churn = fleet.churn_storm(things / 2);
        let (n, spans) = trace.drain(fleet);
        trace.spans.extend(spans);
        scenarios.push(row(things, shards, 0, fleet.fingerprint(), n, churn));
    }
    if wants(opts, "steady") {
        let steady = fleet.steady_state(things);
        let (n, spans) = trace.drain(fleet);
        trace.spans.extend(spans);
        scenarios.push(row(things, shards, 0, fleet.fingerprint(), n, steady));
    }
}

/// Runs the chaos soak (one virtual day of seeded fault injection: cache
/// crashes mid-transfer, root↔cache partitions, primary→standby
/// failover, battery churn) on its own fleet fronted by [`SOAK_CACHES`]
/// caches and a hot-standby Manager. Nightly profile — only run when
/// `--scenario soak` is selected.
fn run_soak<W: SimWorld>(
    fleet: &mut Fleet<W>,
    opts: &Options,
    things: usize,
    shards: usize,
    scenarios: &mut Vec<ScenarioRow>,
    trace: &mut TraceCollector,
) {
    let chaos = match opts.chaos.as_str() {
        "deep" => upnp_core::chaos::ChaosConfig::deep(opts.seed),
        "gray" => upnp_core::chaos::ChaosConfig::gray(opts.seed),
        _ => upnp_core::chaos::ChaosConfig::day(opts.seed),
    };
    let deep = opts.chaos != "day";
    let gray = opts.chaos == "gray";
    let (mut metrics, report) = fleet.soak_scenario(&chaos);
    let (trace_spans, spans) = trace.drain(fleet);
    if trace.enabled {
        // Green soaks export only the exemplar traces — the slowest
        // recovery per fault family — so the Perfetto artifact stays
        // readable; a red soak keeps the whole span set for debugging.
        let keep: Vec<TraceId> = report
            .recovery_exemplars
            .iter()
            .map(|x| TraceId(x.trace_id))
            .collect();
        if report.invariants_held() && !keep.is_empty() {
            trace.spans.extend(filter_traces(&spans, &keep));
        } else {
            trace.spans.extend(spans);
        }
        for x in &report.recovery_exemplars {
            println!(
                "  exemplar: {} trace {:016x} recovered in {:.0} ms",
                x.family,
                x.trace_id,
                x.latency_ns as f64 / 1e6,
            );
        }
    }
    if deep {
        // Deep and gray rows are distinct scenarios: the fault schedule
        // (and so every deterministic counter) differs per profile, and
        // the baseline must keep each without conflating them.
        metrics.scenario = format!("soak-{}", opts.chaos);
    }
    let mut r = row(
        things,
        shards,
        SOAK_CACHES,
        fleet.fingerprint(),
        trace_spans,
        metrics,
    );
    println!(
        "  soak: {} faults over {} epochs ({} crashes, {} partitions, {} failovers, \
         {} reroots, {} battery deaths), {} followers drained, {} repairs, \
         violations d={} c={} r={}",
        report.faults_injected,
        report.epochs,
        report.cache_crashes,
        report.partitions,
        report.failovers,
        report.reroots,
        report.battery_unplugs,
        report.followers_drained,
        report.repairs,
        report.discovery_violations,
        report.coherence_violations,
        report.retention_violations,
    );
    if deep {
        println!(
            "  deep: {} interior cuts, {} MCU crashes ({} torn images rejected, \
             {} refetched), {} standby blackouts ({} unserved windows, {} Things), \
             {} frames delayed, {} duplicated",
            report.interior_partitions,
            report.thing_crashes,
            report.half_images_rejected,
            report.half_image_refetches,
            report.standby_outages,
            report.unserved_windows,
            report.unserved_things,
            report.frames_delayed,
            report.frames_duplicated,
        );
    }
    if gray {
        println!(
            "  gray: {} hops carried degraded (min/epoch {})",
            report.frames_degraded,
            report.degraded_by_epoch.iter().min().copied().unwrap_or(0),
        );
    }
    let recovered: u64 = report
        .recovery
        .families()
        .iter()
        .map(|(_, h)| h.count)
        .sum();
    if recovered > 0 {
        let p99s: Vec<String> = report
            .recovery
            .families()
            .iter()
            .filter(|(_, h)| h.count > 0)
            .map(|(name, h)| format!("{name} n={} p99={:.0}ms", h.count, h.p99_ms()))
            .collect();
        println!("  recovery: {}", p99s.join(", "));
    }
    r.faults_injected = report.faults_injected;
    r.soak_ticks = report.soak_ticks;
    r.soak = Some(report);
    scenarios.push(r);
}

/// Runs the flash-crowd scenario on its own fleet fronted by
/// [`FLASH_CACHES`] edge caches.
fn run_flash<W: SimWorld>(
    fleet: &mut Fleet<W>,
    things: usize,
    shards: usize,
    scenarios: &mut Vec<ScenarioRow>,
    trace: &mut TraceCollector,
) {
    let flash = fleet.flash_crowd();
    let (n, spans) = trace.drain(fleet);
    trace.spans.extend(spans);
    scenarios.push(row(
        things,
        shards,
        FLASH_CACHES,
        fleet.fingerprint(),
        n,
        flash,
    ));
}

/// Flips the tracer on a freshly built fleet (both backends).
fn traced<W: SimWorld>(mut fleet: Fleet<W>, on: bool) -> Fleet<W> {
    fleet.world.set_tracing(on);
    fleet
}

fn run(opts: &Options, trace: &mut TraceCollector) -> BenchReport {
    let mut scenarios = Vec::new();
    // The soak is opt-in: a day of virtual time per (size, shards) pair
    // belongs to the nightly profile, not the default sweep.
    let soak_only = opts.scenario.as_deref() == Some("soak");
    for &things in &opts.sizes {
        for &shards in &opts.shards {
            if soak_only {
                let config = FleetConfig::new(things)
                    .with_seed(opts.seed)
                    .with_caches(SOAK_CACHES)
                    .with_standby();
                if shards == 1 {
                    let mut fleet = traced(Fleet::build(config), trace.enabled);
                    run_soak(&mut fleet, opts, things, shards, &mut scenarios, trace);
                } else {
                    let mut fleet =
                        traced(ShardedFleet::build_sharded(config, shards), trace.enabled);
                    run_soak(&mut fleet, opts, things, shards, &mut scenarios, trace);
                }
                continue;
            }
            // A fresh fleet per (size, shards): scenario metrics are
            // deltas, but the build itself (indices, routing tree)
            // belongs to the configuration.
            let config = FleetConfig::new(things).with_seed(opts.seed);
            if shards == 1 {
                let mut fleet = traced(Fleet::build(config), trace.enabled);
                run_fleet(&mut fleet, opts, things, shards, &mut scenarios, trace);
            } else {
                let mut fleet = traced(ShardedFleet::build_sharded(config, shards), trace.enabled);
                run_fleet(&mut fleet, opts, things, shards, &mut scenarios, trace);
            }
            // Flash crowd runs through the edge-cache tier on a fresh
            // fleet of its own (cold caches, simultaneous cold plugs).
            if wants(opts, "flash") {
                let config = FleetConfig::new(things)
                    .with_seed(opts.seed)
                    .with_caches(FLASH_CACHES);
                if shards == 1 {
                    let mut fleet = traced(Fleet::build(config), trace.enabled);
                    run_flash(&mut fleet, things, shards, &mut scenarios, trace);
                } else {
                    let mut fleet =
                        traced(ShardedFleet::build_sharded(config, shards), trace.enabled);
                    run_flash(&mut fleet, things, shards, &mut scenarios, trace);
                }
            }
        }
    }
    let drivers = driver_sizes();
    println!("driver images (optimising compiler):");
    for d in &drivers {
        println!(
            "  {:>8} | {:>4} B shipped ({} chunks) | {:>4} B unoptimised | -{:.1}%",
            d.name,
            d.image_bytes,
            d.chunks,
            d.unopt_bytes,
            100.0 * (1.0 - d.image_bytes as f64 / d.unopt_bytes as f64),
        );
    }
    BenchReport {
        schema: SCHEMA,
        seed: opts.seed,
        sizes: opts.sizes.clone(),
        drivers,
        scenarios,
    }
}

/// The sharded simulator must be *identical* to the sequential one in
/// every deterministic column — enforced whenever one run covers both.
fn check_shard_identity(report: &BenchReport) -> Result<(), String> {
    for row in &report.scenarios {
        if row.shards == 1 {
            continue;
        }
        let Some(base) = report.scenarios.iter().find(|r| {
            r.shards == 1 && r.things == row.things && r.metrics.scenario == row.metrics.scenario
        }) else {
            eprintln!(
                "warning: {}@{} shards={} has no shards=1 sibling in this run — \
                 the sharded/sequential identity check is NOT enforced for it \
                 (include 1 in --shards to enforce)",
                row.metrics.scenario, row.things, row.shards,
            );
            continue;
        };
        let m = &row.metrics;
        let b = &base.metrics;
        // One deterministic-field list lives in ScenarioMetrics::
        // deterministic_summary (shared with the differential and
        // determinism test suites, so a new metric column is covered
        // everywhere at once); the payload counters are the only
        // deterministic fields outside it (they are process-global in
        // multi-test binaries, but exact in this single-process run).
        let identical = row.fingerprint == base.fingerprint
            && m.deterministic_summary() == b.deterministic_summary()
            && m.payload_allocs == b.payload_allocs
            && m.payload_clones == b.payload_clones;
        if !identical {
            return Err(format!(
                "{}@{} diverges between shards=1 and shards={}: \
                 fingerprint {:#018x} vs {:#018x}, \
                 payload allocs {} vs {}, clones {} vs {},\n  seq: {}\n  shd: {}",
                m.scenario,
                row.things,
                row.shards,
                base.fingerprint,
                row.fingerprint,
                b.payload_allocs,
                m.payload_allocs,
                b.payload_clones,
                m.payload_clones,
                b.deterministic_summary(),
                m.deterministic_summary(),
            ));
        }
        println!(
            "identity ok: {}@{} shards={} matches the sequential run bit for bit",
            m.scenario, row.things, row.shards,
        );
    }
    Ok(())
}

fn print_row(things: usize, shards: usize, m: &ScenarioMetrics) {
    let cache = if m.cache_uploads + m.origin_uploads > 0 {
        format!(
            " | cache {} (h{} m{} c{}) origin {}",
            m.cache_uploads, m.cache_hits, m.cache_misses, m.cache_coalesced, m.origin_uploads,
        )
    } else {
        String::new()
    };
    println!(
        "{:>9} | {:>6} things x{:<2} | {:>6} events ({:>6} ok) | wall {:>9.1} ms | virtual {:>10.1} ms | \
         p50 {:>8.2} ms  p99 {:>8.2} ms | {:>8} frames | {:>7.4} J/thing | \
         {:>8} allocs {:>8} shares{cache}",
        m.scenario,
        things,
        shards,
        m.events,
        m.completed,
        m.wall_ms,
        m.virtual_ms,
        m.latency.p50_ms,
        m.latency.p99_ms,
        m.frames_tx,
        m.joules_per_thing,
        m.payload_allocs,
        m.payload_clones,
    );
}

fn find<'a>(
    report: &'a BenchReport,
    scenario: &str,
    things: usize,
    shards: usize,
) -> Option<&'a ScenarioRow> {
    report
        .scenarios
        .iter()
        .find(|r| r.metrics.scenario == scenario && r.things == things && r.shards == shards)
}

/// Absolute gates on the flash-crowd rows of the *current* report: the
/// cache tier must serve at least [`FLASH_CACHE_SERVED_FLOOR`] of all
/// driver uploads, and coalescing must hold the origin to at most one
/// fetch session per (cache, distinct device type) pair. Deterministic
/// counters, so no baseline or tolerance is involved.
fn gate_cache_tier(current: &BenchReport) -> Result<(), String> {
    let device_pool = FleetConfig::new(1).device_pool.len() as u64;
    for row in &current.scenarios {
        if row.metrics.scenario != "flash" || row.caches == 0 {
            continue;
        }
        let m = &row.metrics;
        let total = m.cache_uploads + m.origin_uploads;
        let served = if total == 0 {
            0.0
        } else {
            m.cache_uploads as f64 / total as f64
        };
        if row.things >= FLASH_FLOOR_MIN_THINGS && served < FLASH_CACHE_SERVED_FLOOR {
            return Err(format!(
                "flash@{} shards={}: caches served {:.1}% of driver uploads \
                 ({} of {}), below the {:.0}% floor",
                row.things,
                row.shards,
                served * 100.0,
                m.cache_uploads,
                total,
                FLASH_CACHE_SERVED_FLOOR * 100.0,
            ));
        }
        let coalesce_bound = row.caches as u64 * device_pool;
        if m.origin_uploads > coalesce_bound {
            return Err(format!(
                "flash@{} shards={}: origin served {} fetch sessions, \
                 above the coalescing bound of {} (caches × device types) — \
                 singleflight is broken",
                row.things, row.shards, m.origin_uploads, coalesce_bound,
            ));
        }
        let floor = if row.things >= FLASH_FLOOR_MIN_THINGS {
            format!(
                "cache-served {:.2}% >= {:.0}%",
                served * 100.0,
                FLASH_CACHE_SERVED_FLOOR * 100.0
            )
        } else {
            format!(
                "cache-served {:.2}% (floor waived below {FLASH_FLOOR_MIN_THINGS} things)",
                served * 100.0
            )
        };
        println!(
            "gate ok: flash@{} shards={} {floor}, origin fetches {} <= {}",
            row.things, row.shards, m.origin_uploads, coalesce_bound,
        );
    }
    Ok(())
}

/// Absolute gates on the soak rows of the *current* report: every
/// whole-soak invariant must have held (exactly-once discovery, cache
/// coherence, bounded Manager retention), the per-epoch follower-drain
/// breakdown must tile the aggregate, deep-profile fault families must
/// show evidence they actually bit (blackouts strand Things, MCU
/// crashes tear images), gray rows must carry degraded-link deliveries
/// in *every* epoch (a zero epoch means the schedule silently stopped
/// firing), and the process peak RSS must stay flat across the day —
/// within [`SOAK_RSS_FLAT_FACTOR`] (plus slack) of the high-water mark
/// after the first epoch. When a baseline is supplied, each fault
/// family's p99 recovery latency (virtual time, deterministic) is
/// additionally gated within [`SOAK_RECOVERY_P99_FACTOR`] of the
/// baseline's.
fn gate_soak(current: &BenchReport, baseline: Option<&BenchReport>) -> Result<(), String> {
    for row in &current.scenarios {
        let Some(soak) = &row.soak else { continue };
        if !soak.invariants_held() {
            return Err(format!(
                "soak@{} shards={}: invariants violated \
                 (discovery {}, coherence {}, retention {}, \
                 trace-attribution mismatches {}) — a failure path regressed",
                row.things,
                row.shards,
                soak.discovery_violations,
                soak.coherence_violations,
                soak.retention_violations,
                soak.attribution_mismatches,
            ));
        }
        // Recovery-latency attribution: every stop-clock read must have
        // named the trace that actually served the recovery (satellite
        // of the tracing tentpole — also folded into invariants_held,
        // asserted separately so the failure is legible).
        if soak.attribution_mismatches > 0 {
            return Err(format!(
                "soak@{} shards={}: {} recovery-latency samples were \
                 attributed to the wrong trace",
                row.things, row.shards, soak.attribution_mismatches,
            ));
        }
        // Per-epoch follower drains must tile the aggregate exactly —
        // one entry per epoch — so the artifact can prove followers
        // were actually parked when each epoch's mid-transfer crash
        // landed, not merely that some epoch drained somebody.
        if soak.followers_drained_by_epoch.len() != soak.epochs {
            return Err(format!(
                "soak@{} shards={}: {} per-epoch drain entries for {} epochs — \
                 the per-epoch breakdown is incomplete",
                row.things,
                row.shards,
                soak.followers_drained_by_epoch.len(),
                soak.epochs,
            ));
        }
        let drained_sum: u64 = soak.followers_drained_by_epoch.iter().sum();
        if drained_sum != soak.followers_drained {
            return Err(format!(
                "soak@{} shards={}: per-epoch drains sum to {} but the aggregate \
                 says {} — the breakdown lost a crash window",
                row.things, row.shards, drained_sum, soak.followers_drained,
            ));
        }
        // Deep-profile evidence gates: when the deeper fault families
        // ran, they must have actually bitten. A blackout that strands
        // nobody or an MCU-crash schedule that never tears an image
        // means the injection silently stopped landing mid-transfer.
        if soak.standby_outages > 0 && soak.unserved_windows == 0 {
            return Err(format!(
                "soak@{} shards={}: {} standby blackouts stranded zero Things — \
                 the unserved-detection window is not observing the outage",
                row.things, row.shards, soak.standby_outages,
            ));
        }
        if soak.thing_crashes > 0
            && (soak.half_images_rejected == 0 || soak.half_image_refetches == 0)
        {
            return Err(format!(
                "soak@{} shards={}: {} MCU crashes produced {} torn-image \
                 rejections and {} refetches — mid-install crashes are no \
                 longer landing while chunks are in flight",
                row.things,
                row.shards,
                soak.thing_crashes,
                soak.half_images_rejected,
                soak.half_image_refetches,
            ));
        }
        // Gray evidence gate: the degrade schedule is probabilistic per
        // (edge, window) but an hour-long epoch crosses hundreds of
        // windows — an epoch with zero degraded deliveries means the
        // schedule is no longer reaching the hop path at all.
        if row.metrics.scenario == "soak-gray" {
            if let Some(zero) = soak.degraded_by_epoch.iter().position(|&d| d == 0) {
                return Err(format!(
                    "soak-gray@{} shards={}: epoch {} carried zero degraded-link \
                     deliveries — the gray schedule is not firing",
                    row.things, row.shards, zero,
                ));
            }
            if soak.degraded_by_epoch.len() != soak.epochs {
                return Err(format!(
                    "soak-gray@{} shards={}: {} per-epoch degraded entries for {} \
                     epochs — the per-epoch breakdown is incomplete",
                    row.things,
                    row.shards,
                    soak.degraded_by_epoch.len(),
                    soak.epochs,
                ));
            }
        }
        // Recovery-latency SLO: per-family p99 against the baseline's,
        // when both sides carry the family. A family the baseline never
        // saw recover is reported, not gated — there is no SLO to hold
        // it to until the baseline is refreshed.
        if let Some(base) = baseline
            .and_then(|b| find(b, &row.metrics.scenario, row.things, row.shards))
            .and_then(|r| r.soak.as_ref())
        {
            for ((name, cur), (_, prev)) in soak
                .recovery
                .families()
                .iter()
                .zip(base.recovery.families().iter())
            {
                if prev.count == 0 {
                    if cur.count > 0 {
                        eprintln!(
                            "warning: {}@{} shards={} family {name} recovered {} Things \
                             (p99 {:.0} ms) but the baseline has no samples — refresh \
                             bench/baseline.json to put it under the p99 gate",
                            row.metrics.scenario,
                            row.things,
                            row.shards,
                            cur.count,
                            cur.p99_ms(),
                        );
                    }
                    continue;
                }
                let limit = prev.p99_ms() * SOAK_RECOVERY_P99_FACTOR;
                if cur.p99_ms() > limit {
                    return Err(format!(
                        "{}@{} shards={}: {name} p99 recovery latency regressed: \
                         {:.0} ms > {:.0} ms (baseline {:.0} ms × {SOAK_RECOVERY_P99_FACTOR}) — \
                         recovery after a {name} fault got slower",
                        row.metrics.scenario,
                        row.things,
                        row.shards,
                        cur.p99_ms(),
                        limit,
                        prev.p99_ms(),
                    ));
                }
                println!(
                    "gate ok: {}@{} shards={} {name} p99 {:.0} ms <= {:.0} ms \
                     (baseline {:.0} ms × {SOAK_RECOVERY_P99_FACTOR})",
                    row.metrics.scenario,
                    row.things,
                    row.shards,
                    cur.p99_ms(),
                    limit,
                    prev.p99_ms(),
                );
            }
        }
        let limit =
            (soak.rss_epoch1_kb as f64 * SOAK_RSS_FLAT_FACTOR) as u64 + SOAK_RSS_FLAT_SLACK_KB;
        if soak.rss_epoch1_kb > 0 && soak.peak_rss_kb > limit {
            return Err(format!(
                "soak@{} shards={}: peak RSS {} kB grew past {} kB \
                 (epoch-1 mark {} kB × {SOAK_RSS_FLAT_FACTOR} + {SOAK_RSS_FLAT_SLACK_KB}) — \
                 a day of fault churn is accreting state",
                row.things, row.shards, soak.peak_rss_kb, limit, soak.rss_epoch1_kb,
            ));
        }
        println!(
            "gate ok: {}@{} shards={} held all invariants over {} faults \
             ({} blackouts / {} unserved windows, {} torn images rejected); \
             peak RSS {} kB within the flatness bound ({} kB)",
            row.metrics.scenario,
            row.things,
            row.shards,
            soak.faults_injected,
            soak.standby_outages,
            soak.unserved_windows,
            soak.half_images_rejected,
            soak.peak_rss_kb,
            limit,
        );
    }
    Ok(())
}

/// The tracing-overhead gate: one discovery wave at
/// [`TRACE_OVERHEAD_THINGS`] with the tracer off, one with it on.
/// Against the baseline's discovery row at the same size the untraced
/// wall must stay within [`TRACE_OVERHEAD_DISABLED_FACTOR`] (context
/// carriage is always-on and must cost ~nothing) and the traced wall
/// within [`TRACE_OVERHEAD_ENABLED_FACTOR`]. Without a baseline row
/// the traced run is gated against the untraced one from this same
/// process, using the enabled factor.
fn gate_trace_overhead(seed: u64, baseline: Option<&BenchReport>) -> Result<(), String> {
    let run_once = |traced_on: bool| -> (f64, u64) {
        let config = FleetConfig::new(TRACE_OVERHEAD_THINGS).with_seed(seed);
        let mut fleet = traced(Fleet::build(config), traced_on);
        let m = fleet.discovery_wave();
        (m.wall_ms, fleet.world.take_spans().len() as u64)
    };
    // Best of three: scheduler noise is one-sided (contention only ever
    // slows a run), so the minimum is the faithful cost estimate — and
    // comparing a best-of-3 against the baseline's single-shot wall
    // biases the absolute gates *against* false alarms.
    let measure = |traced_on: bool| -> (f64, u64) {
        (0..3)
            .map(|_| run_once(traced_on))
            .reduce(|a, b| if b.0 < a.0 { b } else { a })
            .expect("three runs")
    };
    let (disabled_ms, _) = measure(false);
    let (enabled_ms, spans) = measure(true);
    println!(
        "trace overhead: discovery@{TRACE_OVERHEAD_THINGS} wall {disabled_ms:.1} ms untraced, \
         {enabled_ms:.1} ms traced ({spans} spans)",
    );
    let base = baseline
        .and_then(|b| find(b, GATE_SCENARIO, TRACE_OVERHEAD_THINGS, 1))
        .map(|r| r.metrics.wall_ms);
    match base {
        Some(base_ms) => {
            let off_limit = base_ms * TRACE_OVERHEAD_DISABLED_FACTOR;
            if disabled_ms > off_limit {
                return Err(format!(
                    "tracing-overhead gate: untraced discovery@{TRACE_OVERHEAD_THINGS} wall \
                     {disabled_ms:.1} ms > {off_limit:.1} ms (baseline {base_ms:.1} ms × \
                     {TRACE_OVERHEAD_DISABLED_FACTOR}) — the disabled tracer is not free",
                ));
            }
            let on_limit = base_ms * TRACE_OVERHEAD_ENABLED_FACTOR;
            if enabled_ms > on_limit {
                return Err(format!(
                    "tracing-overhead gate: traced discovery@{TRACE_OVERHEAD_THINGS} wall \
                     {enabled_ms:.1} ms > {on_limit:.1} ms (baseline {base_ms:.1} ms × \
                     {TRACE_OVERHEAD_ENABLED_FACTOR}) — span recording got expensive",
                ));
            }
            println!(
                "gate ok: tracing overhead — untraced {disabled_ms:.1} <= {off_limit:.1} ms, \
                 traced {enabled_ms:.1} <= {on_limit:.1} ms (baseline {base_ms:.1} ms)",
            );
        }
        None => {
            let limit = disabled_ms * TRACE_OVERHEAD_ENABLED_FACTOR;
            if enabled_ms > limit {
                return Err(format!(
                    "tracing-overhead gate: traced discovery@{TRACE_OVERHEAD_THINGS} wall \
                     {enabled_ms:.1} ms > {limit:.1} ms (untraced {disabled_ms:.1} ms × \
                     {TRACE_OVERHEAD_ENABLED_FACTOR}) — span recording got expensive",
                ));
            }
            println!(
                "gate ok: tracing overhead — traced {enabled_ms:.1} <= {limit:.1} ms \
                 (untraced {disabled_ms:.1} ms; no baseline row to anchor the absolute gates)",
            );
        }
    }
    Ok(())
}

/// Applies the regression gates; returns an error message on failure.
fn gate(current: &BenchReport, baseline: &BenchReport) -> Result<(), String> {
    // Driver-image gates: compiler output is deterministic, so any
    // growth in shipped bytes or chunk count over the baseline is a real
    // optimiser regression — no tolerance factor.
    for d in &current.drivers {
        let Some(base) = baseline.drivers.iter().find(|b| b.name == d.name) else {
            eprintln!(
                "warning: driver `{}` has no baseline size row — \
                 refresh bench/baseline.json to gate it",
                d.name,
            );
            continue;
        };
        if d.image_bytes > base.image_bytes || d.chunks > base.chunks {
            return Err(format!(
                "driver `{}` image grew: {} bytes / {} chunks, baseline {} bytes / {} chunks — \
                 an optimiser pass regressed",
                d.name, d.image_bytes, d.chunks, base.image_bytes, base.chunks,
            ));
        }
        println!(
            "gate ok: driver {} ships {} bytes ({} chunks) <= baseline {} bytes ({} chunks)",
            d.name, d.image_bytes, d.chunks, base.image_bytes, base.chunks,
        );
    }

    // Deterministic metrics should match the baseline bit-for-bit; drift
    // means behaviour changed and the baseline wants a refresh. Warn —
    // the hard gates are wall-clock and the allocation counters.
    for row in &current.scenarios {
        if let Some(b) = find(baseline, &row.metrics.scenario, row.things, row.shards) {
            // The soak summary covers every deterministic fault and
            // unserved counter (including the deep-chaos families), so
            // schedule drift in any of them is surfaced here.
            let soak_summary = |r: &ScenarioRow| r.soak.as_ref().map(|s| s.deterministic_summary());
            if soak_summary(row) != soak_summary(b) {
                eprintln!(
                    "warning: {}@{} shards={} soak counters drifted from baseline; \
                     refresh bench/baseline.json if intentional\n  base: {:?}\n  now:  {:?}",
                    row.metrics.scenario,
                    row.things,
                    row.shards,
                    soak_summary(b),
                    soak_summary(row),
                );
            }
            if row.metrics.frames_tx != b.metrics.frames_tx
                || row.metrics.virtual_ms != b.metrics.virtual_ms
                || row.metrics.payload_allocs != b.metrics.payload_allocs
                || row.metrics.payload_clones != b.metrics.payload_clones
                || row.faults_injected != b.faults_injected
                || row.soak_ticks != b.soak_ticks
            {
                eprintln!(
                    "warning: {}@{} drifted from baseline \
                     (frames {} -> {}, virtual {:.1} -> {:.1} ms, \
                     payload allocs {} -> {}, clones {} -> {}, \
                     faults {} -> {}, soak ticks {} -> {}); \
                     refresh bench/baseline.json if intentional",
                    row.metrics.scenario,
                    row.things,
                    b.metrics.frames_tx,
                    row.metrics.frames_tx,
                    b.metrics.virtual_ms,
                    row.metrics.virtual_ms,
                    b.metrics.payload_allocs,
                    row.metrics.payload_allocs,
                    b.metrics.payload_clones,
                    row.metrics.payload_clones,
                    b.faults_injected,
                    row.faults_injected,
                    b.soak_ticks,
                    row.soak_ticks,
                );
            }
        }
    }

    // Wall-clock gates: 1k and 5k sequential discovery, plus the sharded
    // rows in GATE_WALL_SHARDED when both sides carry them. A run that
    // produced no discovery rows at all (e.g. the nightly soak-only
    // profile) skips them: there is nothing to time, and the drift
    // comparison above already covered whatever rows it did produce.
    if !current
        .scenarios
        .iter()
        .any(|r| r.metrics.scenario == GATE_SCENARIO)
    {
        println!("gate skipped: no {GATE_SCENARIO} rows in this run (scenario subset)");
        return Ok(());
    }
    let wall_rows: Vec<(usize, usize, bool)> = GATE_WALL_THINGS
        .iter()
        .map(|&t| (t, 1, true))
        .chain(GATE_WALL_SHARDED.iter().map(|&(t, k)| (t, k, false)))
        .collect();
    for (things, shards, required) in wall_rows {
        let cur = find(current, GATE_SCENARIO, things, shards);
        let base = find(baseline, GATE_SCENARIO, things, shards);
        let (cur, base) = match (cur, base, required) {
            (Some(c), Some(b), _) => (c, b),
            (_, _, false) => continue,
            _ => {
                return Err(format!(
                    "missing {GATE_SCENARIO}@{things} shards={shards} row to gate on"
                ))
            }
        };
        let limit = base.metrics.wall_ms * GATE_FACTOR;
        if cur.metrics.wall_ms > limit {
            return Err(format!(
                "{GATE_SCENARIO}@{things} shards={shards} wall-clock regressed: \
                 {:.1} ms > {:.1} ms (baseline {:.1} ms × {GATE_FACTOR})",
                cur.metrics.wall_ms, limit, base.metrics.wall_ms,
            ));
        }
        println!(
            "gate ok: {GATE_SCENARIO}@{things} shards={shards} wall {:.1} ms <= {:.1} ms \
             (baseline {:.1} ms × {GATE_FACTOR})",
            cur.metrics.wall_ms, limit, base.metrics.wall_ms,
        );
    }

    // Allocation-counter gates: every discovery row the baseline also
    // has. These are deterministic, so a failure means a copy or an
    // allocation genuinely entered the data plane.
    for row in &current.scenarios {
        if row.metrics.scenario != GATE_SCENARIO {
            continue;
        }
        let Some(base) = find(baseline, GATE_SCENARIO, row.things, row.shards) else {
            continue;
        };
        let limit = (base.metrics.payload_allocs as f64 * GATE_FACTOR).ceil() as u64;
        if row.metrics.payload_allocs > limit {
            return Err(format!(
                "{GATE_SCENARIO}@{} shards={} payload allocations regressed: {} > {} \
                 (baseline {} × {GATE_FACTOR})",
                row.things,
                row.shards,
                row.metrics.payload_allocs,
                limit,
                base.metrics.payload_allocs,
            ));
        }
        println!(
            "gate ok: {GATE_SCENARIO}@{} shards={} payload allocs {} <= {} \
             (baseline {} × {GATE_FACTOR})",
            row.things, row.shards, row.metrics.payload_allocs, limit, base.metrics.payload_allocs,
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fleet [--nodes N,N,..] [--shards K,K,..] [--seed N] \
                 [--scenario discovery|churn|steady|flash|soak|all] \
                 [--chaos day|deep|gray] [--out FILE] [--gate BASELINE] \
                 [--trace-out FILE] [--trace-overhead]"
            );
            return ExitCode::from(2);
        }
    };

    // Read the baseline (when gating) up front: the per-family p99
    // recovery SLOs and the tracing-overhead gate compare against it.
    let baseline = match &opts.gate {
        None => None,
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<BenchReport>(&s).map_err(|e| e.to_string()))
            .and_then(|b| {
                if b.schema == SCHEMA {
                    Ok(b)
                } else {
                    Err(format!(
                        "baseline schema {} != expected {SCHEMA} — regenerate it with \
                         `fleet --shards 1,4 --out {path}`",
                        b.schema,
                    ))
                }
            }) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("error: reading baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // `--trace-overhead` is a standalone mode: measure and gate the
    // tracer's cost, skip the sweep (CI runs it as its own step).
    if opts.trace_overhead {
        return match gate_trace_overhead(opts.seed, baseline.as_ref()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut trace = TraceCollector::new(opts.trace_out.is_some());
    let report = run(&opts, &mut trace);

    // Write the report *before* the identity check: a divergence is
    // exactly when the per-row artifact is needed to debug, and CI's
    // upload step runs `if: always()`.
    if let Some(path) = &opts.out {
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    // The Perfetto artifact is likewise written before any gate runs.
    if let Some(path) = &opts.trace_out {
        let json = chrome_trace_json(&trace.spans, "upnp fleet");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path} ({} spans)", trace.spans.len());
    }

    // On a traced run, a tripped identity check or soak gate dumps the
    // flight-recorder window next to the failure for CI to upload.
    let flight_dump = |reason: &str| {
        if !trace.enabled {
            return;
        }
        let dump = trace.recorder.dump_json(reason);
        match std::fs::write(FLIGHT_DUMP_PATH, dump + "\n") {
            Ok(()) => eprintln!(
                "wrote {FLIGHT_DUMP_PATH} ({} spans held, {} evicted)",
                trace.recorder.len(),
                trace.recorder.evicted(),
            ),
            Err(e) => eprintln!("error: writing {FLIGHT_DUMP_PATH}: {e}"),
        }
    };

    if let Err(e) = check_shard_identity(&report) {
        flight_dump(&e);
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    // The cache-tier floors are absolute (deterministic counters), so
    // they apply whenever flash rows were produced — no baseline needed.
    if let Err(e) = gate_cache_tier(&report) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    // Soak gates: invariant verdicts, gray evidence and RSS flatness
    // are absolute (they travel inside the rows); the recovery p99
    // SLOs engage when a baseline is present.
    if let Err(e) = gate_soak(&report, baseline.as_ref()) {
        flight_dump(&e);
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(baseline) = &baseline {
        if let Err(e) = gate(&report, baseline) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}
