//! The four workloads: inputs made from the seed, the timed unit of work,
//! the checks on its outputs, and the traced variant that times each
//! layer.
//!
//! A run repeats one unit of work until `--seconds` have passed. Unit
//! `k` draws its inputs from a sub-seed of (`--seed`, `k`), so one run
//! averages over many module pools and task streams; a single pool moves
//! throughput by ±15% (±25% for the layout workload), which a run-level
//! mean over dozens of pools reduces to about the run-to-run noise. A
//! fixed number of warm-up units runs first; they are checked but their
//! timings not reported, so every build times the same sub-seeds from
//! the same `k` on.

use prfpga::bitstream::{self, parser::parse_words, BitstreamSpec, EmitScratch, IcapModel};
use prfpga::fabric::{self, Device};
use prfpga::layout::{simulate_layout, DefragPolicy, LayoutConfig, LayoutReport};
use prfpga::multitask::Workload as TaskStream;
use prfpga::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use prfpga::prcost::{Engine, Metrics, PlanScratch};
use prfpga::sweep::{sweep_with_engine, SweepPlan, SweepPoint};
use prfpga::synth::prm::GenericPrm;
use prfpga::synth::PrmGenerator;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    StreamHot,
    StreamWide,
    DseCold,
    LayoutDefrag,
}

/// A workload, the size of its unit of work (tasks per pipeline or
/// layout run, generators per design-space sweep) and the number of
/// warm-up units before the timed ones, about 1.5 s of work: the host
/// runs the first second or so of a busy process measurably slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub kind: Kind,
    pub unit: u32,
    pub warmup: u32,
}

pub const ALL: [Workload; 4] = [
    Workload {
        kind: Kind::StreamHot,
        unit: 32_768,
        warmup: 12,
    },
    Workload {
        kind: Kind::StreamWide,
        unit: 8_192,
        warmup: 6,
    },
    Workload {
        kind: Kind::DseCold,
        unit: 500,
        warmup: 8,
    },
    Workload {
        kind: Kind::LayoutDefrag,
        unit: 2_000,
        warmup: 24,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::StreamHot => "stream_hot",
            Kind::StreamWide => "stream_wide",
            Kind::DseCold => "dse_cold",
            Kind::LayoutDefrag => "layout_defrag",
        }
    }

    /// The inputs of one unit, for report headers.
    pub fn describe(&self) -> String {
        match self.kind {
            Kind::StreamHot | Kind::StreamWide => {
                let c = stream_config(self, 0);
                format!(
                    "run_pipeline on {}: {} tasks, {} modules, chunk {}, {} worker, {} PRRs, \
                     interarrival {} us, exec {} us",
                    c.device,
                    c.tasks,
                    c.modules,
                    c.chunk,
                    c.workers,
                    c.prrs,
                    c.mean_interarrival_ns / 1000,
                    c.mean_exec_ns / 1000
                )
            }
            Kind::DseCold => format!(
                "sweep_with_engine on a cold Engine: {} GenericPrm::random generators \
                 (scale {}..={}) x {} devices",
                self.unit,
                DSE_SCALES.0,
                DSE_SCALES.1,
                fabric::all_devices().len()
            ),
            Kind::LayoutDefrag => format!(
                "simulate_layout on {LAYOUT_DEVICE}: generate_heavy_tailed({} tasks, {} modules, \
                 scale {}, {} us, {} us), Threshold({}), depth {}, proactive",
                self.unit,
                LAYOUT_MODULES,
                LAYOUT_SCALE,
                LAYOUT_INTERARRIVAL_NS / 1000,
                LAYOUT_EXEC_NS / 1000,
                LAYOUT_THRESHOLD,
                LAYOUT_DEPTH
            ),
        }
    }
}

const DSE_SCALES: (u32, u32) = (100, 3100);
const LAYOUT_DEVICE: &str = "xc5vlx110t";
const LAYOUT_MODULES: u32 = 24;
const LAYOUT_SCALE: u32 = 400;
const LAYOUT_INTERARRIVAL_NS: u64 = 300_000;
const LAYOUT_EXEC_NS: u64 = 400_000;
const LAYOUT_THRESHOLD: f64 = 2.0;
const LAYOUT_DEPTH: u32 = 3;
/// Runs of each unit's work on the same inputs; the fastest is reported.
/// Other processes on the host only ever slow a run down, and the
/// fastest of two filters out most of that interference.
const REPEATS: usize = 2;
/// One design point in this many is re-planned directly and compared.
const DSE_VERIFY_EVERY: usize = 100;
/// Threads the traced design-space sweep splits its grid over.
const DSE_TRACE_THREADS: usize = 2;

/// Every `per_layer` metric of `BENCHMARK.json`. A workload reports 0 for
/// a layer its path never calls.
pub const PER_LAYER: [&str; 28] = [
    "trace.unit_s",
    "trace.items",
    "trace.attributed_frac",
    "trace.overhead_frac",
    "gen.share",
    "synth.share",
    "geometry.share",
    "plan.share",
    "emit.share",
    "sim.share",
    "handoff.share",
    "layout.share",
    "defrag.share",
    "plan.hit_frac",
    "plan.feasible_frac",
    "plan.padded_per_plan",
    "plan.probes_per_plan",
    "geometry.builds",
    "emit.gib_per_s",
    "sim.reuse_frac",
    "defrag.admissions",
    "defrag.proactive",
    "defrag.relocations",
    "defrag.rejected_cost",
    "layout.admitted_frac",
    "layout.reject_frag_frac",
    "layout.icap_busy_frac",
    "layout.mean_fragmentation",
];

/// What one run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own layer timings, `name → (unit, value)`; traced
    /// runs only.
    pub detail: BTreeMap<&'static str, (&'static str, f64)>,
}

/// Output checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Timings of one untraced unit.
struct Unit {
    work: Duration,
    cpu: Duration,
    items: u64,
}

/// One traced unit: per-layer values and workload detail.
struct TracedUnit {
    layers: BTreeMap<&'static str, f64>,
    detail: Vec<(&'static str, &'static str, f64)>,
}

/// Run `workload` for `seconds`, traced or not, then check its golden
/// output digest.
pub fn execute(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut checks = Checks::default();
    let warmup = u64::from(workload.warmup);
    let (metrics, detail) = if trace {
        let units = repeat(warmup, seconds, 1, |k| {
            traced_unit(&workload, sub_seed(seed, k), &mut checks)
        });
        summarize_traced(&units)
    } else {
        let units = repeat(warmup, seconds, 2, |k| {
            unit(&workload, sub_seed(seed, k), &mut checks)
        });
        (summarize(&units), BTreeMap::new())
    };
    let digest = golden_digest(workload.kind);
    checks.check(digest == golden(workload.kind), || {
        format!(
            "{} golden digest {digest:#018x} != committed {:#018x}",
            workload.name(),
            golden(workload.kind)
        )
    });
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        detail,
    }
}

/// Call `f(0), f(1), ...`: first `warmup` times, dropping the results,
/// then until `seconds` have passed and at least `min_units` results are
/// kept.
fn repeat<T>(warmup: u64, seconds: f64, min_units: usize, mut f: impl FnMut(u64) -> T) -> Vec<T> {
    for k in 0..warmup {
        f(k);
    }
    let mut k = warmup;
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_units || start.elapsed().as_secs_f64() < seconds {
        out.push(f(k));
        k += 1;
    }
    out
}

/// The seed of unit `k` of a run seeded with `seed` (a splitmix64 step).
fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn summarize(units: &[Unit]) -> BTreeMap<&'static str, f64> {
    let items: u64 = units.iter().map(|u| u.items).sum();
    let work: Duration = units.iter().map(|u| u.work).sum();
    let cpu: Duration = units.iter().map(|u| u.cpu).sum();
    BTreeMap::from([
        ("items_per_s", items as f64 / work.as_secs_f64()),
        ("cpu_us_per_item", cpu.as_secs_f64() * 1e6 / items as f64),
        ("peak_rss_mib", peak_rss_bytes() as f64 / (1024.0 * 1024.0)),
    ])
}

/// The first unit of work of a fresh process: build unit `k`'s inputs and
/// run its work once, without repeats or checks. Returns the items done,
/// which the caller compares with `items_per_unit`.
pub fn cold_unit(w: &Workload, seed: u64, k: u64) -> u64 {
    let seed = sub_seed(seed, k);
    match w.kind {
        Kind::StreamHot | Kind::StreamWide => {
            run_pipeline(&stream_config(w, seed))
                .expect("pipeline configuration is valid")
                .tasks
        }
        Kind::DseCold => {
            let (generators, devices) = dse_inputs(w.unit, seed);
            sweep_with_engine(&Engine::new(), &generators, &devices)
                .points
                .len() as u64
        }
        Kind::LayoutDefrag => {
            let device = layout_device();
            let r = simulate_layout(
                &device,
                &layout_inputs(&device, w.unit, seed),
                &layout_config(),
            );
            u64::from(r.admitted)
                + u64::from(r.rejected_capacity)
                + u64::from(r.rejected_fragmentation)
        }
    }
}

/// Items in one unit of `w`'s work.
pub fn items_per_unit(w: &Workload) -> u64 {
    match w.kind {
        Kind::DseCold => u64::from(w.unit) * fabric::all_devices().len() as u64,
        _ => u64::from(w.unit),
    }
}

/// Median over traced units of each per-layer and detail value.
#[allow(clippy::type_complexity)]
fn summarize_traced(
    units: &[TracedUnit],
) -> (
    BTreeMap<&'static str, f64>,
    BTreeMap<&'static str, (&'static str, f64)>,
) {
    let layers = units[0]
        .layers
        .keys()
        .map(|&k| {
            let values: Vec<f64> = units.iter().map(|u| u.layers[k]).collect();
            (k, median(&values))
        })
        .collect();
    let detail = units[0]
        .detail
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| {
            let values: Vec<f64> = units.iter().map(|u| u.detail[i].2).collect();
            (name, (unit, median(&values)))
        })
        .collect();
    (layers, detail)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn unit(w: &Workload, seed: u64, checks: &mut Checks) -> Unit {
    match w.kind {
        Kind::StreamHot | Kind::StreamWide => stream_unit(w, seed, checks),
        Kind::DseCold => dse_unit(w, seed, checks),
        Kind::LayoutDefrag => layout_unit(w, seed, checks),
    }
}

fn traced_unit(w: &Workload, seed: u64, checks: &mut Checks) -> TracedUnit {
    let mut layers: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&k| (k, 0.0)).collect();
    let detail = match w.kind {
        Kind::StreamHot | Kind::StreamWide => stream_traced(w, seed, checks, &mut layers),
        Kind::DseCold => dse_traced(w, seed, checks, &mut layers),
        Kind::LayoutDefrag => layout_traced(w, seed, checks, &mut layers),
    };
    debug_assert_eq!(layers.len(), PER_LAYER.len(), "a layer name is misspelt");
    TracedUnit { layers, detail }
}

/// Run `f`, returning its result, wall time and process CPU time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration, Duration) {
    let cpu0 = cpu_time();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed();
    (out, wall, cpu_time().saturating_sub(cpu0))
}

/// Run `f` `REPEATS` times on the same inputs and keep the run with the
/// least work time (`work` reads it from the result and the wall time).
/// Returns that run's result, work and CPU time.
fn fastest<T>(
    mut f: impl FnMut() -> T,
    work: impl Fn(&T, Duration) -> Duration,
) -> (T, Duration, Duration) {
    let mut best: Option<(T, Duration, Duration)> = None;
    for _ in 0..REPEATS {
        let (out, wall, cpu) = timed(&mut f);
        let w = work(&out, wall);
        if best.as_ref().is_none_or(|b| w < b.1) {
            best = Some((out, w, cpu));
        }
    }
    best.expect("REPEATS > 0")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---------------------------------------------------------------- stream

fn stream_config(w: &Workload, seed: u64) -> PipelineConfig {
    PipelineConfig {
        device: "xc5vsx95t".to_string(),
        tasks: u64::from(w.unit),
        chunk: 4096,
        modules: if w.kind == Kind::StreamHot { 6 } else { 48 },
        prrs: 4,
        // One worker plus the producer: two busy threads.
        workers: 1,
        seed,
        // The pipeline's default 5 us saturates the ICAP about 75 times
        // over, which makes simulated waits meaningless.
        mean_interarrival_ns: 500_000,
        mean_exec_ns: 100_000,
        ..PipelineConfig::default()
    }
}

/// Check one pipeline run's outputs. The module pool is rebuilt the way
/// `run_pipeline` builds it; each module's stream is emitted twice
/// through one `EmitScratch` (a render, then a rendered-stream cache
/// hit), and both must parse with strict CRC checking and be exactly the
/// plan's Eq. 18 bytes long. The run must report one stream per
/// configured task, with total bytes between the pool's smallest and
/// largest stream times the task count.
fn check_stream(cfg: &PipelineConfig, report: &PipelineReport, checks: &mut Checks) {
    let device = fabric::device_by_name(&cfg.device).expect("pipeline device is in the database");
    let family = device.family();
    let bytes_word = u64::from(family.params().frames.bytes_word);
    let engine = Engine::new();
    let mut scratch = EmitScratch::new();
    let (mut first, mut second) = (Vec::new(), Vec::new());
    let mut plan_bytes = Vec::new();
    for m in 0..cfg.modules.max(1) {
        let prm = GenericPrm::random(cfg.seed.wrapping_add(u64::from(m) * 7919), cfg.scale);
        let synth = engine.synthesize(&prm, family);
        let plan = engine
            .plan(&synth, &device)
            .expect("pool modules are plannable");
        let spec = Arc::new(BitstreamSpec::from_plan(
            device.name(),
            &synth.module,
            plan.organization,
            &plan.window,
        ));
        bitstream::emit_arc_into(&mut scratch, &spec, &mut first).expect("pool specs are valid");
        bitstream::emit_arc_into(&mut scratch, &spec, &mut second).expect("pool specs are valid");
        let parsed = parse_words(&first, true).is_ok() && first == second;
        let bytes = first.len() as u64 * bytes_word;
        checks.check(parsed && bytes == plan.bitstream_bytes, || {
            format!(
                "{}: stream parsed and repeatable {parsed}, {bytes} B vs plan {} B",
                synth.module, plan.bitstream_bytes
            )
        });
        plan_bytes.push(plan.bitstream_bytes);
    }
    let lo = cfg.tasks * plan_bytes.iter().min().expect("pool is not empty");
    let hi = cfg.tasks * plan_bytes.iter().max().expect("pool is not empty");
    checks.check(
        report.tasks == cfg.tasks
            && report.bitstreams_emitted == cfg.tasks
            && (lo..=hi).contains(&report.bitstream_bytes),
        || {
            format!(
                "pipeline seed {}: {} tasks, {} streams, {} B; expected {} of each and {lo}..={hi} B",
                cfg.seed, report.tasks, report.bitstreams_emitted, report.bitstream_bytes, cfg.tasks
            )
        },
    );
}

fn stream_unit(w: &Workload, seed: u64, checks: &mut Checks) -> Unit {
    let cfg = stream_config(w, seed);
    let (report, work, cpu) = fastest(
        || run_pipeline(&cfg).expect("pipeline configuration is valid"),
        |r, _| Duration::from_secs_f64(r.elapsed_ms / 1e3),
    );
    check_stream(&cfg, &report, checks);
    Unit {
        work,
        cpu,
        items: report.tasks,
    }
}

/// Layer times of one ordinary `run_pipeline` call, read from the
/// per-stage histograms it records around every layer call of every
/// chunk. With one worker the worker's stage totals partition its wall
/// time, except for channel waits and chunk bookkeeping: that remainder
/// is `handoff`. The traced run is the untraced call, so tracing adds no
/// overhead of its own.
fn stream_traced(
    w: &Workload,
    seed: u64,
    checks: &mut Checks,
    m: &mut BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let cfg = stream_config(w, seed);
    let report = run_pipeline(&cfg).expect("pipeline configuration is valid");
    check_stream(&cfg, &report, checks);

    let stage = |name: &str| {
        report
            .stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e9)
    };
    let (gen, synth, plan, emit, sim) = (
        stage("pipeline:gen"),
        stage("pipeline:synth"),
        stage("pipeline:plan"),
        stage("pipeline:bitstream"),
        stage("pipeline:simulate"),
    );
    let wall = report.elapsed_ms / 1e3;
    let layers = synth + plan + emit + sim;
    let handoff = (wall - layers).max(0.0);
    let tasks = report.tasks as f64;
    m.insert("trace.unit_s", wall);
    m.insert("trace.items", tasks);
    m.insert("trace.attributed_frac", layers / wall);
    m.insert("trace.overhead_frac", 0.0);
    m.insert("gen.share", gen / wall);
    m.insert("synth.share", synth / wall);
    m.insert("plan.share", plan / wall);
    m.insert("emit.share", emit / wall);
    m.insert("sim.share", sim / wall);
    m.insert("handoff.share", handoff / wall);
    m.insert("plan.hit_frac", report.plan_hit_rate.unwrap_or(0.0));
    m.insert(
        "emit.gib_per_s",
        report.bitstream_bytes as f64 / emit / (1u64 << 30) as f64,
    );
    m.insert("sim.reuse_frac", report.reuse_hits as f64 / tasks);
    vec![
        ("emit.self_s", "s", emit),
        ("emit.ns_per_task", "ns", emit * 1e9 / tasks),
        ("plan.self_s", "s", plan),
        ("plan.ns_per_task", "ns", plan * 1e9 / tasks),
        ("sim.self_s", "s", sim),
        ("sim.ns_per_task", "ns", sim * 1e9 / tasks),
        ("synth.self_s", "s", synth),
        ("gen.self_s", "s", gen),
        ("handoff.wait_s", "s", handoff),
        (
            "sim.mean_wait_us",
            "us",
            report.total_wait_ns as f64 / tasks / 1e3,
        ),
    ]
}

// ------------------------------------------------------------------- dse

type Generators = Vec<Box<dyn PrmGenerator + Sync>>;

fn dse_inputs(generators: u32, seed: u64) -> (Generators, Vec<Device>) {
    let generators = (0..u64::from(generators))
        .map(|i| {
            let draw = sub_seed(seed, i);
            let span = u64::from(DSE_SCALES.1 - DSE_SCALES.0 + 1);
            let scale = DSE_SCALES.0 + (draw % span) as u32;
            Box::new(GenericPrm::random(draw >> 16, scale)) as Box<dyn PrmGenerator + Sync>
        })
        .collect();
    (generators, fabric::all_devices())
}

/// The sweep's summary of one plan outcome.
fn sweep_outcome(
    plan: &Result<prfpga::prcost::PrrPlan, prfpga::prcost::CostError>,
) -> Result<SweepPlan, String> {
    match plan {
        Ok(plan) => Ok(SweepPlan {
            height: plan.organization.height,
            width: plan.organization.width(),
            bitstream_bytes: plan.bitstream_bytes,
            reconfig: IcapModel::V5_DMA.transfer_time(plan.bitstream_bytes),
            ru_clb: plan.utilization.clb,
        }),
        Err(e) => Err(e.to_string()),
    }
}

/// Re-plan one design point in `DSE_VERIFY_EVERY` with direct
/// `prcost::plan_prr` and compare.
fn check_points(
    generators: &Generators,
    devices: &[Device],
    points: &[SweepPoint],
    checks: &mut Checks,
) {
    checks.check(points.len() == generators.len() * devices.len(), || {
        format!("sweep returned {} points", points.len())
    });
    for (i, point) in points.iter().enumerate().step_by(DSE_VERIFY_EVERY) {
        let (g, d) = (i / devices.len(), i % devices.len());
        let report = generators[g].synthesize(devices[d].family());
        let direct = sweep_outcome(&prfpga::prcost::plan_prr(&report, &devices[d]));
        checks.check(
            point.outcome == direct && point.device == devices[d].name(),
            || {
                format!(
                    "point {i}: sweep {:?} != plan_prr {direct:?}",
                    point.outcome
                )
            },
        );
    }
}

fn dse_unit(w: &Workload, seed: u64, checks: &mut Checks) -> Unit {
    let (generators, devices) = dse_inputs(w.unit, seed);
    let (run, work, cpu) = fastest(
        || sweep_with_engine(&Engine::new(), &generators, &devices),
        |run, _| run.elapsed,
    );
    check_points(&generators, &devices, &run.points, checks);
    Unit {
        work,
        cpu,
        items: run.points.len() as u64,
    }
}

fn dse_traced(
    w: &Workload,
    seed: u64,
    checks: &mut Checks,
    m: &mut BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let (generators, devices) = dse_inputs(w.unit, seed);
    // Alternate by seed whether the untraced sweep runs before or after
    // the traced one, so neither always runs on warmer caches.
    let sweep = || sweep_with_engine(&Engine::new(), &generators, &devices);
    let early = (seed % 2 == 0).then(sweep);

    let engine = Engine::new();
    let start = Instant::now();
    let mut geometry = Duration::ZERO;
    for d in &devices {
        let t0 = Instant::now();
        engine.geometry(d);
        geometry += t0.elapsed();
    }
    let mut synth = Duration::ZERO;
    let reports: Vec<Vec<_>> = generators
        .iter()
        .map(|g| {
            devices
                .iter()
                .map(|d| {
                    let t0 = Instant::now();
                    let r = engine.synthesize(g.as_ref(), d.family());
                    synth += t0.elapsed();
                    r
                })
                .collect()
        })
        .collect();
    let serial = start.elapsed();

    let grid: Vec<(usize, usize)> = (0..generators.len())
        .flat_map(|g| (0..devices.len()).map(move |d| (g, d)))
        .collect();
    let per_thread = grid.len().div_ceil(DSE_TRACE_THREADS);
    let (engine, reports, devices_ref) = (&engine, &reports, &devices);
    let parts: Vec<(Vec<SweepPoint>, Vec<u64>, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = grid
            .chunks(per_thread)
            .map(|part| {
                scope.spawn(move || {
                    let t0 = Instant::now();
                    let mut scratch = PlanScratch::default();
                    let mut latencies = Vec::with_capacity(part.len());
                    let points = part
                        .iter()
                        .map(|&(g, d)| {
                            let (device, report) = (&devices_ref[d], &reports[g][d]);
                            let p0 = Instant::now();
                            let plan = engine.plan_arc(report, device, &mut scratch);
                            latencies.push(p0.elapsed().as_nanos() as u64);
                            SweepPoint {
                                module: report.module.clone(),
                                device: device.name().to_string(),
                                outcome: sweep_outcome(&plan),
                            }
                        })
                        .collect();
                    (points, latencies, t0.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced sweep thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let untraced = early.unwrap_or_else(sweep);

    let mut points = Vec::with_capacity(grid.len());
    let mut latencies = Vec::with_capacity(grid.len());
    let mut thread_time = serial;
    for (p, l, t) in parts {
        points.extend(p);
        latencies.extend(l);
        thread_time += t;
    }
    checks.check(points == untraced.points, || {
        "traced sweep points differ from sweep_with_engine".to_string()
    });
    check_points(&generators, &devices, &points, checks);

    let plan: f64 = latencies.iter().sum::<u64>() as f64 / 1e9;
    latencies.sort_unstable();
    let quantile = |q: f64| latencies[((latencies.len() - 1) as f64 * q).round() as usize] as f64;
    let c = engine.snapshot().counters;
    let (geometry, synth, den) = (
        geometry.as_secs_f64(),
        synth.as_secs_f64(),
        thread_time.as_secs_f64(),
    );
    m.insert("trace.unit_s", wall.as_secs_f64());
    m.insert("trace.items", points.len() as f64);
    m.insert("trace.attributed_frac", (geometry + synth + plan) / den);
    m.insert(
        "trace.overhead_frac",
        wall.as_secs_f64() / untraced.elapsed.as_secs_f64() - 1.0,
    );
    m.insert("geometry.share", geometry / den);
    m.insert("synth.share", synth / den);
    m.insert("plan.share", plan / den);
    m.insert(
        "plan.hit_frac",
        ratio(c.plan_cache_hits as f64, c.plans as f64),
    );
    m.insert(
        "plan.feasible_frac",
        ratio(c.plans_feasible as f64, c.plans as f64),
    );
    m.insert(
        "plan.padded_per_plan",
        ratio(c.padded_fallbacks as f64, c.plans as f64),
    );
    m.insert(
        "plan.probes_per_plan",
        ratio(c.window_probes as f64, c.plans as f64),
    );
    m.insert("geometry.builds", c.geometry_builds as f64);
    vec![
        ("plan.self_s", "s", plan),
        ("plan.cold_p50_us", "us", quantile(0.50) / 1e3),
        ("plan.cold_p99_us", "us", quantile(0.99) / 1e3),
        ("plan.cold_n", "count", latencies.len() as f64),
        ("synth.self_s", "s", synth),
        (
            "synth.hit_frac",
            "frac",
            ratio(
                c.synth_cache_hits as f64,
                (c.synth_calls + c.synth_cache_hits) as f64,
            ),
        ),
        ("geometry.self_s", "s", geometry),
    ]
}

// ---------------------------------------------------------------- layout

fn layout_device() -> Device {
    fabric::device_by_name(LAYOUT_DEVICE).expect("layout device is in the database")
}

fn layout_inputs(device: &Device, tasks: u32, seed: u64) -> TaskStream {
    TaskStream::generate_heavy_tailed(
        seed,
        device.family(),
        tasks,
        LAYOUT_MODULES,
        LAYOUT_SCALE,
        LAYOUT_INTERARRIVAL_NS,
        LAYOUT_EXEC_NS,
    )
}

fn layout_config() -> LayoutConfig {
    LayoutConfig {
        policy: DefragPolicy::Threshold(LAYOUT_THRESHOLD),
        depth: LAYOUT_DEPTH,
        proactive: true,
        ..LayoutConfig::default()
    }
}

/// The report's accounting identities.
fn check_layout(r: &LayoutReport, tasks: u32, checks: &mut Checks) {
    let placed = u64::from(r.admitted)
        + u64::from(r.rejected_capacity)
        + u64::from(r.rejected_fragmentation);
    checks.check(placed == u64::from(tasks), || {
        format!("admitted + rejected = {placed}, expected {tasks}")
    });
    let logged: u64 = r.relocation_log.iter().map(|e| e.transfer_ns).sum();
    checks.check(logged == r.relocation_ns, || {
        format!("relocation_ns {} != logged {logged}", r.relocation_ns)
    });
}

fn layout_unit(w: &Workload, seed: u64, checks: &mut Checks) -> Unit {
    let device = layout_device();
    let tasks = layout_inputs(&device, w.unit, seed);
    let (report, work, cpu) = fastest(
        || simulate_layout(&device, &tasks, &layout_config()),
        |_, wall| wall,
    );
    check_layout(&report, w.unit, checks);
    Unit {
        work,
        cpu,
        items: u64::from(w.unit),
    }
}

fn layout_traced(
    w: &Workload,
    seed: u64,
    checks: &mut Checks,
    m: &mut BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let device = layout_device();
    let tasks = layout_inputs(&device, w.unit, seed);
    let rejected_cost = || Metrics::global().labeled("layout:defrag_rejected_cost");
    let cost0 = rejected_cost();
    let (r, sim, _) = timed(|| simulate_layout(&device, &tasks, &layout_config()));
    let rejected = rejected_cost() - cost0;
    let (_, never, _) = timed(|| simulate_layout(&device, &tasks, &LayoutConfig::default()));
    check_layout(&r, w.unit, checks);

    let (sim, never, n) = (sim.as_secs_f64(), never.as_secs_f64(), f64::from(w.unit));
    m.insert("trace.unit_s", sim);
    m.insert("trace.items", n);
    // One span covers the whole simulate_layout call, and it is the same
    // call the untraced run times: nothing unattributed, no overhead.
    m.insert("trace.attributed_frac", 1.0);
    m.insert("trace.overhead_frac", 0.0);
    // Estimates: the Never run follows a different trajectory.
    m.insert("layout.share", (never / sim).min(1.0));
    m.insert("defrag.share", (1.0 - never / sim).max(0.0));
    m.insert("defrag.admissions", f64::from(r.defrag_admissions));
    m.insert("defrag.proactive", f64::from(r.proactive_defrags));
    m.insert("defrag.relocations", f64::from(r.relocations));
    m.insert("defrag.rejected_cost", rejected as f64);
    m.insert("layout.admitted_frac", f64::from(r.admitted) / n);
    m.insert(
        "layout.reject_frag_frac",
        f64::from(r.rejected_fragmentation) / n,
    );
    m.insert(
        "layout.icap_busy_frac",
        ratio(r.icap_busy_ns as f64, r.makespan_ns as f64),
    );
    m.insert("layout.mean_fragmentation", r.mean_fragmentation);
    vec![
        ("layout.sim_s", "s", sim),
        ("layout.ns_per_task", "ns", sim * 1e9 / n),
        ("layout.never_sim_s", "s", never),
    ]
}

// ---------------------------------------------------------------- golden

/// Digests of each workload's outputs at the reference seed and size.
/// Simulated and planned outputs are deterministic in the seed, so a
/// change that only makes the code faster leaves these unchanged.
fn golden(kind: Kind) -> u64 {
    match kind {
        Kind::StreamHot => 0xf095_9a88_2e5d_a0dd,
        Kind::StreamWide => 0xf6d8_7c61_e561_9aa5,
        Kind::DseCold => 0x0534_8ef9_0d8e_1423,
        Kind::LayoutDefrag => 0xeaeb_6e56_33c5_bee2,
    }
}

const GOLDEN_SEED: u64 = 1;

/// FNV-1a over the words of an output record.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn u64(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }
}

pub fn golden_digest(kind: Kind) -> u64 {
    match kind {
        Kind::StreamHot | Kind::StreamWide => {
            let w = Workload {
                kind,
                unit: 8192,
                warmup: 0,
            };
            let r = run_pipeline(&stream_config(&w, GOLDEN_SEED)).expect("valid configuration");
            [
                r.tasks,
                r.bitstreams_emitted,
                r.bitstream_bytes,
                r.simulated_makespan_ns,
                r.reconfigurations,
                r.reuse_hits,
                r.total_wait_ns,
            ]
            .into_iter()
            .fold(Fnv::new(), Fnv::u64)
            .0
        }
        Kind::DseCold => {
            let (generators, devices) = dse_inputs(40, GOLDEN_SEED);
            let run = sweep_with_engine(&Engine::new(), &generators, &devices);
            run.points
                .iter()
                .fold(Fnv::new(), |h, p| {
                    let h = h.bytes(p.module.as_bytes()).bytes(p.device.as_bytes());
                    match &p.outcome {
                        Ok(s) => h
                            .u64(u64::from(s.height))
                            .u64(u64::from(s.width))
                            .u64(s.bitstream_bytes)
                            .u64(s.reconfig.as_nanos() as u64)
                            .u64(s.ru_clb.to_bits()),
                        Err(e) => h.bytes(e.as_bytes()),
                    }
                })
                .0
        }
        Kind::LayoutDefrag => {
            let device = layout_device();
            let r = simulate_layout(
                &device,
                &layout_inputs(&device, 3000, GOLDEN_SEED),
                &layout_config(),
            );
            [
                u64::from(r.admitted),
                u64::from(r.rejected_capacity),
                u64::from(r.rejected_fragmentation),
                u64::from(r.defrag_admissions),
                u64::from(r.proactive_defrags),
                u64::from(r.relocations),
                r.relocation_ns,
                r.relocated_bytes,
                r.context_bytes,
                u64::from(r.reconfigurations),
                r.reconfig_ns,
                r.icap_busy_ns,
                r.makespan_ns,
                r.total_wait_ns,
                r.total_exec_ns,
                r.peak_fragmentation.to_bits(),
                r.mean_fragmentation.to_bits(),
            ]
            .into_iter()
            .fold(Fnv::new(), Fnv::u64)
            .0
        }
    }
}

// ------------------------------------------------------------- process

/// CPU time of the whole process: every thread, live and exited, in
/// nanoseconds (`clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`). The
/// `/proc/self/stat` counters tick only every 10 ms, coarser than one
/// unit of the smaller workloads.
fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    // Linux's clock id; `timespec` is two 64-bit fields on 64-bit Linux.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const _: () = assert!(cfg!(all(target_os = "linux", target_pointer_width = "64")));
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the call's
    // duration, and the clock id is valid on Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.sec).expect("CPU time is non-negative"),
        u32::try_from(ts.nsec).expect("nanoseconds below 10^9"),
    )
}

/// Peak resident set size (`VmHWM`) of this process in bytes.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024
}
