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
//! of the most recent spans: when any gate fails, the window is dumped
//! to `BENCH_flight.json` for CI to upload next to the failure.
//!
//! What a row proves is deterministic lives in one place: the row's
//! registry, [`ScenarioMetrics::registry`] plus the soak's
//! [`SoakReport::registry`] (every deterministic field once, floats by
//! their bits). Every gate is one line of the [`GATES`] table — the
//! rows it reads, the metric, how it compares and the bound — walked by
//! [`gate`]. The table hard-fails when a sharded row's fingerprint or
//! registry differs from its sequential sibling's (the sharded
//! simulator may only be faster, never different); on the flash-crowd
//! floors (the caches serve ≥ 90 % of uploads at ≥ 1000 Things, the
//! origin sees at most caches × device-types fetch sessions); on the
//! soak invariants and evidence (no violations, per-epoch breakdowns
//! that tile their totals, blackouts that strand Things, MCU crashes
//! that tear images, degraded hops in every gray epoch, flat peak RSS);
//! on the peak RSS of a sequential discovery wave of a million Things
//! (at most 4 GiB); and, against a baseline, on per-family recovery
//! p99s, shipped driver sizes, the 1k/5k discovery walls, discovery
//! payload allocations and the cost of tracing. A row whose fingerprint or registry differs
//! from the baseline's is reported as drift, a warning: those fields
//! only move when behaviour genuinely changes. Every row records its own
//! peak RSS and the host's CPU count, and a row whose wall is gated
//! records the three walls it is the best of.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use serde::{Deserialize, Serialize};
use upnp_core::chaos::{RecoveryHistogram, SoakReport};
use upnp_core::fleet::{Fleet, FleetConfig, ScenarioMetrics, ShardedFleet};
use upnp_core::world::SimWorld;
use upnp_trace::{
    chrome_trace_json, filter_traces, FlightRecorder, Span, TraceId, FLIGHT_RECORDER_CAPACITY,
};

/// Wall-clock and allocation regression tolerance against the baseline
/// (CI runners are noisy; deterministic fields are compared exactly as
/// drift).
const GATE_FACTOR: f64 = 1.25;
/// Edge caches fronting the origin in the flash-crowd and soak rows.
const FLASH_CACHES: usize = 8;
/// Floor on the fraction of flash-crowd driver uploads served by the
/// cache tier rather than the origin.
const FLASH_CACHE_SERVED_FLOOR: f64 = 0.90;
/// Smallest fleet the served-ratio floor applies to: below this the
/// fixed coalescing cost (caches × device types fetch sessions) is a
/// large fraction of a tiny crowd and the ratio is meaningless — the
/// coalescing bound still applies at every size.
const FLASH_FLOOR_MIN_THINGS: usize = 1000;
/// Report schema version; 9 derives each row's registry from `metrics` and `soak`.
const SCHEMA: u32 = 9;
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
/// Where the flight-recorder window lands when a gate fails on a traced
/// run — CI uploads it as an artifact.
const FLIGHT_DUMP_PATH: &str = "BENCH_flight.json";
/// Peak-RSS flatness gate for soak rows: the process high-water mark at
/// soak end must stay within this factor of the mark after the first
/// epoch (plus a small absolute slack so tiny fleets aren't gated on
/// allocator noise). A day of fault churn must not accrete state.
const SOAK_RSS_FLAT_FACTOR: f64 = 1.5;
/// Absolute slack for the flatness gate, kilobytes.
const SOAK_RSS_FLAT_SLACK_KB: u64 = 32 * 1024;
/// Smallest sequential discovery wave whose peak RSS is gated.
const MILLION_THINGS: usize = 1_000_000;
/// Peak RSS such a wave may reach, bytes (4 GiB): what a Thing keeps
/// after discovery, at scale.
const MILLION_THING_RSS_MAX: u64 = 4 << 30;
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
    /// Process peak RSS (VmHWM) over this row alone, bytes: the mark is
    /// reset before each row (where `/proc/self/clear_refs` allows).
    /// Host-dependent — recorded so the per-shard-memory bottleneck is
    /// observable from CI artifacts, and never compared for identity.
    /// Gated only on a sequential discovery wave of a million Things.
    peak_rss_bytes: u64,
    /// CPUs the host exposed to this run (`available_parallelism`) —
    /// lets a reader tell real multi-core sharding numbers from
    /// single-core cache-locality numbers.
    cpus: usize,
    /// The walls of the three runs a wall-gated row is the best of
    /// (`metrics.wall_ms` is their minimum); `null` on single-shot rows.
    wall_samples_ms: Option<Vec<f64>>,
    /// Spans the deterministic tracer recorded during the scenario —
    /// 0 unless the run was traced (`--trace-out`). Deterministic for a
    /// given seed and identical across shard counts.
    trace_spans: u64,
    /// The full chaos-soak report (`null` outside soak rows).
    soak: Option<SoakReport>,
    metrics: ScenarioMetrics,
}

impl ScenarioRow {
    /// `scenario@things shards=K`: what rows are matched on, within a
    /// run and against the baseline.
    fn label(&self) -> String {
        let m = &self.metrics;
        format!("{}@{} shards={}", m.scenario, self.things, self.shards)
    }

    /// Everything deterministic about the row as `group.name` → value:
    /// the scenario registry, plus the soak's on soak rows.
    fn registry(&self) -> BTreeMap<String, u64> {
        let soak = self.soak.iter().map(SoakReport::registry);
        std::iter::once(self.metrics.registry())
            .chain(soak)
            .flat_map(|reg| reg.samples())
            .map(|s| (format!("{}.{}", s.group, s.name), s.value))
            .collect()
    }

    /// Every field where this row's fingerprint or registry differs from
    /// `other`'s, as `name this vs other`.
    fn differences(&self, other: &ScenarioRow) -> Vec<String> {
        let (mine, theirs) = (self.registry(), other.registry());
        let show = |v: Option<&u64>| v.map_or("-".to_string(), u64::to_string);
        let mut out: Vec<String> = mine
            .keys()
            .chain(theirs.keys())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .filter(|k| mine.get(*k) != theirs.get(*k))
            .map(|k| format!("{k} {} vs {}", show(mine.get(k)), show(theirs.get(k))))
            .collect();
        if self.fingerprint != other.fingerprint {
            let (a, b) = (self.fingerprint, other.fingerprint);
            out.insert(0, format!("fingerprint {a:#018x} vs {b:#018x}"));
        }
        out
    }
}

/// Accumulates the traced sweep's artifacts: the spans destined for the
/// Chrome-trace export, and a bounded flight-recorder window of the
/// most recent spans (dumped on gate failure).
struct TraceCollector {
    /// Tracing on for this run (`--trace-out` given)?
    enabled: bool,
    /// Spans kept for the export — green soak rows contribute only
    /// their exemplar traces, everything else contributes in full.
    spans: Vec<Span>,
    recorder: FlightRecorder,
}

impl TraceCollector {
    /// Drains the world's spans after one scenario into the export and
    /// the flight recorder; returns the count (the row's `trace_spans`).
    fn drain<W: SimWorld>(&mut self, fleet: &mut Fleet<W>) -> u64 {
        if !self.enabled {
            return 0;
        }
        let spans = fleet.world.take_spans();
        spans.iter().for_each(|s| self.recorder.push(*s));
        self.spans.extend_from_slice(&spans);
        spans.len() as u64
    }
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

/// Resets the process peak-RSS mark (VmHWM) to the current RSS, so the
/// next row's `peak_rss_bytes` (and a soak's RSS marks) cover that row
/// alone. Best effort: without `/proc/self/clear_refs` the mark stays
/// cumulative.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Wraps one scenario's outcome into a report row.
fn row<W: SimWorld>(
    trace_spans: u64,
    fleet: &Fleet<W>,
    shards: usize,
    metrics: ScenarioMetrics,
) -> ScenarioRow {
    ScenarioRow {
        things: fleet.things.len(),
        shards,
        caches: fleet.caches.len(),
        fingerprint: fleet.fingerprint(),
        peak_rss_bytes: upnp_core::chaos::peak_rss_kb() * 1024,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        wall_samples_ms: None,
        trace_spans,
        soak: None,
        metrics,
    }
}

/// `first` with the host timing of the fastest of three runs: `first`
/// and two more from `rerun`. Scheduler noise is one-sided (contention
/// only ever slows a run), so the minimum wall is the faithful cost
/// estimate. Every deterministic field is the same in all three runs;
/// the peak RSS stays `first`'s.
fn best_of_three(
    mut first: ScenarioRow,
    mut rerun: impl FnMut() -> ScenarioMetrics,
) -> ScenarioRow {
    let mut walls = vec![first.metrics.wall_ms];
    for _ in 0..2 {
        let m = rerun();
        walls.push(m.wall_ms);
        if m.wall_ms < first.metrics.wall_ms {
            first.metrics = m;
        }
    }
    first.wall_samples_ms = Some(walls);
    first
}

/// Prints a row's headline, and a soak row's registry under it.
fn print_row(r: &ScenarioRow) {
    let m = &r.metrics;
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
        r.things,
        r.shards,
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
    if let Some(soak) = &r.soak {
        for line in soak.registry().table().lines() {
            println!("  {line}");
        }
    }
}

/// Prints a row and appends it to the report.
fn push(rows: &mut Vec<ScenarioRow>, r: ScenarioRow) {
    print_row(&r);
    rows.push(r);
}

/// Runs the selected scenarios against a fleet from `build` (sequential
/// or sharded) and appends the rows. Churn and steady state run against
/// a discovered fleet, so the discovery wave always runs; it is only
/// *reported* if selected. The flash crowd and the soak run on fleets
/// of their own, fronted by edge caches. The peak-RSS mark is reset
/// before the build and before each later row.
fn run_fleet<W: SimWorld>(
    build: impl Fn() -> Fleet<W>,
    opts: &Options,
    shards: usize,
    rows: &mut Vec<ScenarioRow>,
    trace: &mut TraceCollector,
) {
    reset_peak_rss();
    let mut fleet = build();
    if opts.scenario.as_deref() == Some("soak") {
        run_soak(&mut fleet, opts, shards, rows, trace);
    } else if fleet.caches.is_empty() {
        let discovery = fleet.discovery_wave();
        let n = trace.drain(&mut fleet);
        let discovery = wants(opts, "discovery").then(|| row(n, &fleet, shards, discovery));
        let mut later = Vec::new();
        if wants(opts, "churn") {
            reset_peak_rss();
            let churn = fleet.churn_storm(fleet.things.len() / 2);
            later.push(row(trace.drain(&mut fleet), &fleet, shards, churn));
        }
        if wants(opts, "steady") {
            reset_peak_rss();
            let steady = fleet.steady_state(fleet.things.len());
            later.push(row(trace.drain(&mut fleet), &fleet, shards, steady));
        }
        // A gated wall is the best of three waves. The two reruns start
        // once this fleet is gone, so no row's peak RSS holds theirs.
        drop(fleet);
        if let Some(r) = discovery {
            let r = if wall_gated(&r) {
                best_of_three(r, || build().discovery_wave())
            } else {
                r
            };
            push(rows, r);
        }
        later.into_iter().for_each(|r| push(rows, r));
    } else {
        let flash = fleet.flash_crowd();
        push(rows, row(trace.drain(&mut fleet), &fleet, shards, flash));
    }
}

/// Runs the chaos soak (one virtual day of seeded fault injection: cache
/// crashes mid-transfer, root↔cache partitions, primary→standby
/// failover, battery churn) on its own fleet fronted by edge caches and
/// a hot-standby Manager, and prints the soak's registry. Nightly
/// profile — only run when `--scenario soak` is selected.
fn run_soak<W: SimWorld>(
    fleet: &mut Fleet<W>,
    opts: &Options,
    shards: usize,
    rows: &mut Vec<ScenarioRow>,
    trace: &mut TraceCollector,
) {
    let chaos = match opts.chaos.as_str() {
        "deep" => upnp_core::chaos::ChaosConfig::deep(opts.seed),
        "gray" => upnp_core::chaos::ChaosConfig::gray(opts.seed),
        _ => upnp_core::chaos::ChaosConfig::day(opts.seed),
    };
    let (mut metrics, report) = fleet.soak_scenario(&chaos);
    let start = trace.spans.len();
    let trace_spans = trace.drain(fleet);
    // Green soaks export only the exemplar traces — the slowest
    // recovery per fault family — so the Perfetto artifact stays
    // readable; a red soak keeps the whole span set for debugging.
    let keep: Vec<TraceId> = report
        .recovery_exemplars
        .iter()
        .map(|x| TraceId(x.trace_id))
        .collect();
    if report.invariants_held() && !keep.is_empty() {
        let kept = filter_traces(&trace.spans[start..], &keep);
        trace.spans.truncate(start);
        trace.spans.extend(kept);
    }
    if opts.chaos != "day" {
        // Deep and gray rows are distinct scenarios: the fault schedule
        // (and so every deterministic counter) differs per profile, and
        // the baseline must keep each without conflating them.
        metrics.scenario = format!("soak-{}", opts.chaos);
    }
    let mut r = row(trace_spans, fleet, shards, metrics);
    r.soak = Some(report);
    push(rows, r);
}

/// Flips the tracer on a freshly built fleet (both backends).
fn traced<W: SimWorld>(mut fleet: Fleet<W>, on: bool) -> Fleet<W> {
    fleet.world.set_tracing(on);
    fleet
}

fn run(opts: &Options, trace: &mut TraceCollector) -> BenchReport {
    let mut rows = Vec::new();
    // The soak is opt-in: a day of virtual time per (size, shards) pair
    // belongs to the nightly profile, not the default sweep.
    let soak = opts.scenario.as_deref() == Some("soak");
    let on = trace.enabled;
    for &things in &opts.sizes {
        for &shards in &opts.shards {
            // A fresh fleet per (size, shards, shape): scenario metrics
            // are deltas, but the build itself (indices, routing tree)
            // belongs to the configuration.
            let base = FleetConfig::new(things).with_seed(opts.seed);
            let configs = if soak {
                vec![base.with_caches(FLASH_CACHES).with_standby()]
            } else if wants(opts, "flash") {
                vec![base.clone(), base.with_caches(FLASH_CACHES)]
            } else {
                vec![base]
            };
            for config in configs {
                if shards == 1 {
                    let build = || traced(Fleet::build(config.clone()), on);
                    run_fleet(build, opts, shards, &mut rows, trace);
                } else {
                    let build = || traced(ShardedFleet::build_sharded(config.clone(), shards), on);
                    run_fleet(build, opts, shards, &mut rows, trace);
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
        scenarios: rows,
    }
}

/// The tracing-overhead rows: the discovery wave at
/// [`TRACE_OVERHEAD_THINGS`] with the tracer off (`trace-off`) and on
/// (`trace-on`), each the best wall of three.
fn trace_overhead(seed: u64) -> BenchReport {
    let wave = |on: bool| {
        let config = FleetConfig::new(TRACE_OVERHEAD_THINGS).with_seed(seed);
        let mut fleet = traced(Fleet::build(config), on);
        let mut m = fleet.discovery_wave();
        m.scenario = if on { "trace-on" } else { "trace-off" }.into();
        (fleet, m)
    };
    let measure = |on: bool| {
        reset_peak_rss();
        let (mut fleet, m) = wave(on);
        let spans = fleet.world.take_spans().len() as u64;
        let first = row(spans, &fleet, 1, m);
        drop(fleet);
        let r = best_of_three(first, || wave(on).1);
        print_row(&r);
        r
    };
    BenchReport {
        schema: SCHEMA,
        seed,
        sizes: vec![TRACE_OVERHEAD_THINGS],
        drivers: Vec::new(),
        scenarios: vec![measure(false), measure(true)],
    }
}

/// One row a gate reads: a scenario row, one fault family of a soak
/// row, or a shipped driver.
#[derive(Clone, Copy)]
enum Row<'a> {
    Run(&'a ScenarioRow),
    Family(&'a ScenarioRow, &'static str, &'a RecoveryHistogram),
    Driver(&'a DriverSizeRow),
}

impl<'a> Row<'a> {
    /// What the row is matched on, within a run and against the baseline.
    fn label(&self) -> String {
        match self {
            Row::Run(r) => r.label(),
            Row::Family(r, family, _) => format!("{} {family}", r.label()),
            Row::Driver(d) => format!("driver {}", d.name),
        }
    }

    /// The scenario row, if this is one.
    fn run(&self) -> Option<&'a ScenarioRow> {
        let Row::Run(r) = *self else { return None };
        Some(r)
    }

    /// Does this scenario row run `scenario`?
    fn is(&self, scenario: &str) -> bool {
        self.run().is_some_and(|r| r.metrics.scenario == scenario)
    }

    /// The soak report, for soak rows.
    fn soak_row(&self) -> Option<&'a SoakReport> {
        self.run()?.soak.as_ref()
    }

    // Views for gate values, which only read rows their gate selects.
    fn scenario(&self) -> &'a ScenarioRow {
        self.run().expect("a scenario gate")
    }
    fn metrics(&self) -> &'a ScenarioMetrics {
        &self.scenario().metrics
    }
    fn soak(&self) -> &'a SoakReport {
        self.soak_row().expect("a soak gate")
    }
}

impl BenchReport {
    /// Every row the gates can read.
    fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        let families = self
            .scenarios
            .iter()
            .filter_map(|r| Some((r, r.soak.as_ref()?)))
            .flat_map(|(r, s)| s.recovery.families().map(|(f, h)| Row::Family(r, f, h)));
        self.scenarios
            .iter()
            .map(Row::Run)
            .chain(families)
            .chain(self.drivers.iter().map(Row::Driver))
    }

    /// The row labelled `label`.
    fn find(&self, label: &str) -> Option<Row<'_>> {
        self.rows().find(|r| r.label() == label)
    }
}

/// Which rows of a run a gate reads.
enum Rows {
    /// Every row the filter accepts.
    Each(fn(&Row) -> bool),
    /// The row with this label. Once a run gated against a baseline has
    /// any row of the label's scenario, this one must exist in both.
    Required(&'static str),
}

/// Is `row`'s wall gated? Such rows are measured as the best of three.
fn wall_gated(row: &ScenarioRow) -> bool {
    let row = Row::Run(row);
    GATES.iter().any(|Gate(rows, metric, _)| {
        *metric == "wall_ms"
            && match *rows {
                Each(keep) => keep(&row),
                Required(label) => row.label() == label,
            }
    })
}

/// How a value must relate to its bound: the symbol and the test.
type Op = (&'static str, fn(f64, f64) -> bool);
const AT_MOST: Op = ("<=", |v, b| v <= b);
const AT_LEAST: Op = (">=", |v, b| v >= b);
const EQUALS: Op = ("==", |v, b| v == b);

/// What a gate checks on each row it reads.
enum Check {
    /// `value op bound`. A row without a bound (no baseline, or nothing
    /// in it to compare with) is skipped — with a warning when a
    /// baseline was given and the value is non-zero.
    Compare(fn(&Row) -> f64, Op, fn(&Bounds) -> Option<f64>),
    /// Fingerprint and registry equal the run's `shards = 1` row of the
    /// same scenario and size.
    Sequential,
}

/// What a bound may read: the row, the run it is in, and the baseline.
struct Bounds<'a> {
    row: Row<'a>,
    run: &'a BenchReport,
    baseline: Option<&'a BenchReport>,
    /// The gate's value, to read it off other rows.
    value: fn(&Row) -> f64,
}

impl Bounds<'_> {
    /// The gate's value on `report`'s row labelled `label`.
    fn at(&self, report: Option<&BenchReport>, label: &str) -> Option<f64> {
        Some((self.value)(&report?.find(label)?))
    }

    /// The gate's value on the baseline's row with this row's label.
    fn twin(&self) -> Option<f64> {
        self.at(self.baseline, &self.row.label())
    }

    /// The gate's value on the baseline's discovery wave at the
    /// tracing-overhead size: what the tracing-overhead rows answer to.
    fn discovery(&self) -> Option<f64> {
        let label = format!("discovery@{TRACE_OVERHEAD_THINGS} shards=1");
        self.at(self.baseline, &label)
    }

    /// The gate's value on this run's untraced tracing-overhead wave.
    fn untraced(&self) -> Option<f64> {
        let label = format!("trace-off@{TRACE_OVERHEAD_THINGS} shards=1");
        self.at(Some(self.run), &label)
    }
}

/// One line of the gate table: the rows it reads, the metric, and the
/// check every one of those rows must pass.
struct Gate(Rows, &'static str, Check);

use Check::{Compare, Sequential};
use Rows::{Each, Required};

/// Every gate of the benchmark, walked in order by [`gate`].
#[rustfmt::skip]
const GATES: &[Gate] = &[
    // Sharded rows reproduce their sequential sibling bit for bit.
    Gate(Each(|r| r.run().is_some_and(|r| r.shards > 1)), "registry", Sequential),
    // Flash rows: the caches serve >= 90 % of uploads (at >= 1k Things),
    // and coalescing holds the origin to caches x device types sessions.
    Gate(Each(|r| r.is("flash") && r.scenario().caches > 0
            && r.scenario().things >= FLASH_FLOOR_MIN_THINGS), "cache_served",
        Compare(|r| {
            let m = r.metrics();
            m.cache_uploads as f64 / (m.cache_uploads + m.origin_uploads).max(1) as f64
        }, AT_LEAST, |_| Some(FLASH_CACHE_SERVED_FLOOR))),
    Gate(Each(|r| r.is("flash") && r.scenario().caches > 0), "origin_uploads",
        Compare(|r| r.metrics().origin_uploads as f64, AT_MOST, |b| {
            let device_types = FleetConfig::new(1).device_pool.len();
            Some((b.row.scenario().caches * device_types) as f64)
        })),
    // Soak rows: every invariant held (exactly-once discovery, bounded
    // retention, recovery attribution) ...
    Gate(Each(|r| r.soak_row().is_some()), "violations",
        Compare(|r| r.soak().violations() as f64, AT_MOST, |_| Some(0.0))),
    Gate(Each(|r| r.soak_row().is_some()), "attribution_mismatches",
        Compare(|r| r.soak().attribution_mismatches as f64, AT_MOST, |_| Some(0.0))),
    // ... the per-epoch follower drains tile the total, one per epoch ...
    Gate(Each(|r| r.soak_row().is_some()), "followers_drained_by_epoch.sum",
        Compare(|r| r.soak().followers_drained_by_epoch.iter().sum::<u64>() as f64, EQUALS,
            |b| Some(b.row.soak().followers_drained as f64))),
    Gate(Each(|r| r.soak_row().is_some()), "followers_drained_by_epoch.len",
        Compare(|r| r.soak().followers_drained_by_epoch.len() as f64, EQUALS,
            |b| Some(b.row.soak().epochs as f64))),
    // ... the deep families bit: blackouts strand Things, MCU crashes
    // tear images that are rejected and refetched ...
    Gate(Each(|r| r.soak_row().is_some_and(|s| s.standby_outages > 0)), "unserved_windows",
        Compare(|r| r.soak().unserved_windows as f64, AT_LEAST, |_| Some(1.0))),
    Gate(Each(|r| r.soak_row().is_some_and(|s| s.thing_crashes > 0)), "half_images_rejected",
        Compare(|r| r.soak().half_images_rejected as f64, AT_LEAST, |_| Some(1.0))),
    Gate(Each(|r| r.soak_row().is_some_and(|s| s.thing_crashes > 0)), "half_image_refetches",
        Compare(|r| r.soak().half_image_refetches as f64, AT_LEAST, |_| Some(1.0))),
    // ... every gray epoch carried degraded hops, one entry per epoch ...
    Gate(Each(|r| r.is("soak-gray") && r.soak_row().is_some()), "degraded_by_epoch.min",
        Compare(|r| r.soak().degraded_by_epoch.iter().min().map_or(0.0, |&d| d as f64), AT_LEAST,
            |_| Some(1.0))),
    Gate(Each(|r| r.is("soak-gray") && r.soak_row().is_some()), "degraded_by_epoch.len",
        Compare(|r| r.soak().degraded_by_epoch.len() as f64, EQUALS,
            |b| Some(b.row.soak().epochs as f64))),
    // ... peak RSS stayed flat across the day ...
    Gate(Each(|r| r.soak_row().is_some_and(|s| s.rss_epoch1_kb > 0)), "peak_rss_kb",
        Compare(|r| r.soak().peak_rss_kb as f64, AT_MOST, |b| {
            let epoch1 = b.row.soak().rss_epoch1_kb as f64;
            Some(((epoch1 * SOAK_RSS_FLAT_FACTOR) as u64 + SOAK_RSS_FLAT_SLACK_KB) as f64)
        })),
    // ... and each fault family recovers within 2x the baseline's p99.
    Gate(Each(|r| matches!(r, Row::Family(..))), "p99_ms",
        Compare(|r| if let Row::Family(.., h) = r { h.p99_ms() } else { 0.0 }, AT_MOST,
            |b| b.twin().filter(|&p99| p99 > 0.0).map(|p99| p99 * SOAK_RECOVERY_P99_FACTOR))),
    // Shipped driver images never grow past the baseline's.
    Gate(Each(|r| matches!(r, Row::Driver(_))), "image_bytes",
        Compare(|r| if let Row::Driver(d) = r { d.image_bytes as f64 } else { 0.0 }, AT_MOST,
            |b| b.twin())),
    Gate(Each(|r| matches!(r, Row::Driver(_))), "chunks",
        Compare(|r| if let Row::Driver(d) = r { d.chunks as f64 } else { 0.0 }, AT_MOST,
            |b| b.twin())),
    // Discovery walls within 25 % of the baseline: 1k and 5k sequential
    // always, 1k at 4 shards when both sides carry it. Every row a wall
    // gate reads is the best of three runs (see `wall_gated`).
    Gate(Required("discovery@1000 shards=1"), "wall_ms",
        Compare(|r| r.metrics().wall_ms, AT_MOST, |b| b.twin().map(|w| w * GATE_FACTOR))),
    Gate(Required("discovery@5000 shards=1"), "wall_ms",
        Compare(|r| r.metrics().wall_ms, AT_MOST, |b| b.twin().map(|w| w * GATE_FACTOR))),
    Gate(Each(|r| r.label() == "discovery@1000 shards=4"), "wall_ms",
        Compare(|r| r.metrics().wall_ms, AT_MOST, |b| b.twin().map(|w| w * GATE_FACTOR))),
    // A sequential discovery wave of a million Things or more peaks
    // under 4 GiB (no baseline needed).
    Gate(Each(|r| r.is("discovery") && r.scenario().shards == 1
            && r.scenario().things >= MILLION_THINGS), "peak_rss_bytes",
        Compare(|r| r.scenario().peak_rss_bytes as f64, AT_MOST,
            |_| Some(MILLION_THING_RSS_MAX as f64))),
    // Discovery payload allocations within 25 % of the baseline.
    Gate(Each(|r| r.is("discovery")), "payload_allocs",
        Compare(|r| r.metrics().payload_allocs as f64, AT_MOST,
            |b| b.twin().map(|a| (a * GATE_FACTOR).ceil()))),
    // Tracing overhead (`--trace-overhead` rows): the untraced wave
    // within 5 % of the baseline's discovery wall, the traced within 15 %
    // (of the untraced wave when there is no baseline).
    Gate(Each(|r| r.is("trace-off")), "wall_ms",
        Compare(|r| r.metrics().wall_ms, AT_MOST,
            |b| b.discovery().map(|w| w * TRACE_OVERHEAD_DISABLED_FACTOR))),
    Gate(Each(|r| r.is("trace-on")), "wall_ms",
        Compare(|r| r.metrics().wall_ms, AT_MOST,
            |b| b.discovery().or_else(|| b.untraced()).map(|w| w * TRACE_OVERHEAD_ENABLED_FACTOR))),
];

/// Warns for every row whose fingerprint or registry drifted from the
/// baseline's row with the same label.
fn warn_drift(run: &BenchReport, baseline: &BenchReport) {
    for row in &run.scenarios {
        let twin = baseline.scenarios.iter().find(|t| t.label() == row.label());
        let drift = twin
            .map(|t| row.differences(t).join(", "))
            .unwrap_or_default();
        if !drift.is_empty() {
            eprintln!(
                "warning: {} drifted from the baseline (now vs baseline): {drift}; \
                 refresh bench/baseline.json if intentional",
                row.label(),
            );
        }
    }
}

/// Walks `gates` over `run`, printing every pass and warning; returns
/// one message per failure, naming the row, metric, value and bound.
fn gate(gates: &[Gate], run: &BenchReport, baseline: Option<&BenchReport>) -> Vec<String> {
    let mut failures = Vec::new();
    for Gate(rows, metric, check) in gates {
        let rows: Vec<Row> = match *rows {
            Each(keep) => run.rows().filter(|r| keep(r)).collect(),
            Required(label) => {
                let row = run.find(label);
                let scenario = label.split('@').next().unwrap_or(label);
                let gated = baseline.is_some() && run.rows().any(|r| r.is(scenario));
                if gated && (row.is_none() || baseline.and_then(|b| b.find(label)).is_none()) {
                    failures.push(format!(
                        "{label}: missing from the run or the baseline ({metric})"
                    ));
                }
                row.into_iter().collect()
            }
        };
        for row in rows {
            let label = row.label();
            let Compare(value, (symbol, holds), bound) = *check else {
                failures.extend(identity(row.scenario(), run));
                continue;
            };
            let v = value(&row);
            let spread = match row.run().and_then(|r| r.wall_samples_ms.as_ref()) {
                Some(walls) if *metric == "wall_ms" => format!(" (best of {walls:.1?} ms)"),
                _ => String::new(),
            };
            let bounds = Bounds {
                row,
                run,
                baseline,
                value,
            };
            match bound(&bounds) {
                Some(b) if holds(v, b) => {
                    println!("gate ok: {label}: {metric} {v} {symbol} {b}{spread}")
                }
                Some(b) => {
                    failures.push(format!("{label}: {metric} {v} breaks {symbol} {b}{spread}"))
                }
                None if baseline.is_some() && v != 0.0 => eprintln!(
                    "warning: {label}: {metric} {v} has no baseline value to gate against; \
                     refresh bench/baseline.json to gate it"
                ),
                None => {}
            }
        }
    }
    failures
}

/// The identity check: `row`'s fingerprint and registry against the
/// run's `shards = 1` row of the same scenario and size.
fn identity(row: &ScenarioRow, run: &BenchReport) -> Option<String> {
    let label = row.label();
    let seq = format!("{}@{} shards=1", row.metrics.scenario, row.things);
    let Some(seq) = run.scenarios.iter().find(|s| s.label() == seq) else {
        eprintln!(
            "warning: {label} has no shards=1 sibling in this run — the sharded/sequential \
             identity check is NOT enforced for it (include 1 in --shards to enforce)"
        );
        return None;
    };
    let d = row.differences(seq).join(", ");
    if d.is_empty() {
        println!("identity ok: {label} matches the sequential run bit for bit");
        return None;
    }
    Some(format!(
        "{label}: fingerprint and registry diverge from the shards=1 run \
         (sharded vs sequential): {d}"
    ))
}

/// Reads a baseline report, refusing any other schema.
fn load(path: &str) -> Result<BenchReport, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let b: BenchReport = serde_json::from_str(&json).map_err(|e| format!("{path}: {e}"))?;
    if b.schema != SCHEMA {
        return Err(format!(
            "{path}: schema {} != expected {SCHEMA} — regenerate it with \
             `fleet --shards 1,4 --out {path}`",
            b.schema,
        ));
    }
    Ok(b)
}

/// Writes `contents` to `path`, reporting what it wrote.
fn write(path: &str, contents: String, what: &str) -> Result<(), String> {
    std::fs::write(path, contents + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    println!("wrote {path}{what}");
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
    let mut failures = Vec::new();
    let baseline = match opts.gate.as_deref().map(load).transpose() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: baseline {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut trace = TraceCollector {
        enabled: opts.trace_out.is_some(),
        spans: Vec::new(),
        recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
    };
    // `--trace-overhead` is a standalone mode: measure the tracer's
    // cost and gate it, skip the sweep (CI runs it as its own step).
    let report = if opts.trace_overhead {
        trace_overhead(opts.seed)
    } else {
        let report = run(&opts, &mut trace);
        // Write the artifacts *before* gating: a failure is exactly when
        // they are needed to debug, and CI's upload step runs `if:
        // always()`.
        if let Some(path) = &opts.out {
            let json = serde_json::to_string_pretty(&report).expect("report serializes");
            failures.extend(write(path, json, "").err());
        }
        if let Some(path) = &opts.trace_out {
            let json = chrome_trace_json(&trace.spans, "upnp fleet");
            let what = format!(" ({} spans)", trace.spans.len());
            failures.extend(write(path, json, &what).err());
        }
        report
    };
    if let Some(baseline) = &baseline {
        warn_drift(&report, baseline);
    }
    failures.extend(gate(GATES, &report, baseline.as_ref()));
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    // On a traced run, a failed gate dumps the flight-recorder window
    // next to the failure for CI to upload.
    if trace.enabled {
        let dump = trace.recorder.dump_json(&failures.join("\n"));
        let what = format!(
            " ({} spans held, {} evicted)",
            trace.recorder.len(),
            trace.recorder.evicted()
        );
        failures.extend(write(FLIGHT_DUMP_PATH, dump, &what).err());
    }
    for f in &failures {
        eprintln!("error: {f}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> BenchReport {
        load(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench/baseline.json"
        ))
        .unwrap()
    }

    /// Breaks `metric` on every row that gates on it.
    fn tamper(metric: &str, run: &mut BenchReport) {
        for r in &mut run.scenarios {
            let m = &mut r.metrics;
            match metric {
                "registry" if r.shards > 1 => m.frames_tx += 1,
                "cache_served" => m.cache_uploads = 0,
                "origin_uploads" => m.origin_uploads += 1_000,
                "wall_ms" => m.wall_ms *= 2.0,
                "payload_allocs" => m.payload_allocs = 2 * m.payload_allocs + 1,
                _ => {}
            }
            let Some(s) = r.soak.as_mut() else { continue };
            match metric {
                "violations" => s.discovery_violations += 1,
                "attribution_mismatches" => s.attribution_mismatches += 1,
                "followers_drained_by_epoch.sum" => s.followers_drained += 1,
                "followers_drained_by_epoch.len" => s.followers_drained_by_epoch.push(0),
                "unserved_windows" => s.unserved_windows = 0,
                "half_images_rejected" => s.half_images_rejected = 0,
                "half_image_refetches" => s.half_image_refetches = 0,
                "degraded_by_epoch.min" => s.degraded_by_epoch[0] = 0,
                "degraded_by_epoch.len" => s.degraded_by_epoch.push(1),
                "peak_rss_kb" => s.peak_rss_kb = 2 * s.rss_epoch1_kb + SOAK_RSS_FLAT_SLACK_KB,
                "p99_ms" => {
                    // As many recoveries again in the open last bucket:
                    // p99 resolves to the (huge) maximum.
                    let h = &mut s.recovery.cache_crash;
                    *h.bucket_counts.last_mut().unwrap() += h.count;
                    h.count *= 2;
                    h.max_ns = 1 << 60;
                }
                _ => {}
            }
        }
        for d in &mut run.drivers {
            match metric {
                "image_bytes" => d.image_bytes += 1,
                "chunks" => d.chunks += 1,
                _ => {}
            }
        }
        if metric == "peak_rss_bytes" {
            // A million-Thing wave a byte over the bound.
            let wave = "discovery@5000 shards=1";
            let mut row = run
                .scenarios
                .iter()
                .find(|r| r.label() == wave)
                .unwrap()
                .clone();
            row.things = MILLION_THINGS;
            row.peak_rss_bytes = MILLION_THING_RSS_MAX + 1;
            run.scenarios.push(row);
        }
        if metric == "wall_ms" {
            // The tracing-overhead rows, measured as slow as the
            // (already doubled) discovery wave they answer to.
            let wave = format!("discovery@{TRACE_OVERHEAD_THINGS} shards=1");
            let wave = run.scenarios.iter().find(|r| r.label() == wave).unwrap();
            let mut rows = [wave.clone(), wave.clone()];
            rows[0].metrics.scenario = "trace-off".into();
            rows[1].metrics.scenario = "trace-on".into();
            run.scenarios.extend(rows);
        }
    }

    #[test]
    fn baseline_passes_every_gate_against_itself() {
        let b = baseline();
        assert_eq!(gate(GATES, &b, Some(&b)), Vec::<String>::new());
    }

    #[test]
    fn every_gate_fails_a_run_tampered_on_its_metric() {
        let b = baseline();
        for (i, g) in GATES.iter().enumerate() {
            let Gate(_, metric, _) = g;
            let mut run = b.clone();
            tamper(metric, &mut run);
            let failures = gate(std::slice::from_ref(g), &run, Some(&b));
            assert!(
                !failures.is_empty(),
                "gate {i} ({metric}) passed a tampered run"
            );
            for f in &failures {
                assert!(f.contains(metric), "gate {i}: `{f}` does not name {metric}");
            }
        }
    }

    #[test]
    fn required_rows_fail_when_missing() {
        let b = baseline();
        let mut run = b.clone();
        run.scenarios
            .retain(|r| r.label() != "discovery@5000 shards=1");
        let failures = gate(GATES, &run, Some(&b));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("discovery@5000 shards=1: missing"));
        assert!(failures[0].contains("wall_ms"));
    }

    #[test]
    fn identity_compares_the_soak_report() {
        let b = baseline();
        let seq = b
            .scenarios
            .iter()
            .find(|r| r.soak.is_some())
            .unwrap()
            .clone();
        let mut sharded = seq.clone();
        sharded.shards = 2;
        sharded.soak.as_mut().unwrap().repairs += 1;
        let run = BenchReport {
            scenarios: vec![seq, sharded],
            drivers: Vec::new(),
            ..b
        };
        let identity = GATES
            .iter()
            .position(|Gate(_, _, check)| matches!(check, Sequential))
            .unwrap();
        let failures = gate(&GATES[identity..=identity], &run, None);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("soak.repairs"), "{failures:?}");
    }
}
