//! End-to-end streaming pipeline: the "how fast is the whole system"
//! harness.
//!
//! Drives the full stack — synthesis (warm [`prcost::Engine`] memo) →
//! PRR planning (Fig. 1 search, memo-hit steady state) → placement
//! ([`bitstream::BitstreamSpec`] from the planned window) → arena
//! bitstream emission ([`bitstream::emit_shared`], a shared handle to the
//! worker's cached stream) → hardware multitasking simulation
//! ([`multitask::simulate_with_scratch`]) — at millions of tasks under
//! **bounded memory**: one producer thread generates fixed-size task
//! chunks into a bounded channel, worker threads own all per-chunk
//! scratch (plan scratch, emission arena, simulator scratch) and hand
//! each consumed chunk back over a second bounded channel, so the
//! producer reuses its task buffer and frees the old tasks on its own
//! thread; no buffer anywhere grows with the total task count.
//! Per-stage wall-clock histograms are recorded into the engine's
//! [`prcost::Metrics`] registry under `pipeline:*` labels; the report
//! carries them alongside tasks/sec and a peak-RSS proxy so
//! `results/BENCH_pipeline.json` captures one regression-guarding
//! whole-system number.

use bitstream::{BitstreamSpec, EmitScratch, IcapModel};
use multitask::{
    simulate_with_scratch, HwTask, ModuleId, ModuleTable, PrSystem, ReuseAware, SimScratch,
    Workload,
};
use prcost::metrics::StageSnapshot;
use prcost::{Engine, Metrics, PlanScratch, PrrRequirements, Rng};
use serde::Serialize;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use synth::prm::GenericPrm;
use synth::SynthReport;

/// Configuration for one [`run_pipeline`] call.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target device name (see `fabric::device_by_name`).
    pub device: String,
    /// Total hardware tasks to stream end to end.
    pub tasks: u64,
    /// Tasks per chunk (the streaming granule; memory is proportional to
    /// `chunk * (queue_depth + workers)`, never to `tasks`).
    pub chunk: u32,
    /// Distinct synthetic PRMs in the module pool.
    pub modules: u32,
    /// Module footprint scale passed to the PRM generator.
    pub scale: u32,
    /// PRRs in the homogeneous multitasking system.
    pub prrs: u32,
    /// Worker threads (0 = derive from available parallelism).
    pub workers: usize,
    /// Bounded-channel capacity in chunks.
    pub queue_depth: usize,
    /// Workload seed (the run is fully deterministic in it).
    pub seed: u64,
    /// Mean task inter-arrival time, nanoseconds.
    pub mean_interarrival_ns: u64,
    /// Mean task execution time, nanoseconds.
    pub mean_exec_ns: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            // The DSP-rich SX part: the default pool's DSP-heavy modules
            // still leave room for several homogeneous PRRs.
            device: "xc5vsx95t".to_string(),
            tasks: 1_000_000,
            chunk: 4096,
            modules: 6,
            scale: 300,
            prrs: 4,
            workers: 0,
            queue_depth: 4,
            seed: 0x5eed_1e55,
            mean_interarrival_ns: 5_000,
            mean_exec_ns: 100_000,
        }
    }
}

/// Outcome of one [`run_pipeline`] call.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineReport {
    /// Device the pipeline ran against.
    pub device: String,
    /// Tasks streamed end to end.
    pub tasks: u64,
    /// Tasks per chunk.
    pub chunk: u32,
    /// Distinct modules in the pool.
    pub modules: u32,
    /// Worker threads used.
    pub workers: usize,
    /// Bounded-channel capacity in chunks.
    pub queue_depth: usize,
    /// Wall-clock time for the whole run, milliseconds.
    pub elapsed_ms: f64,
    /// The headline number: tasks through all five stages per second.
    pub tasks_per_sec: f64,
    /// Partial bitstreams emitted (one per task).
    pub bitstreams_emitted: u64,
    /// Total emitted bitstream bytes.
    pub bitstream_bytes: u64,
    /// Summed simulated makespan over all chunks, nanoseconds.
    pub simulated_makespan_ns: u64,
    /// Reconfigurations performed by the simulated scheduler.
    pub reconfigurations: u64,
    /// Dispatches that reused an already-loaded module.
    pub reuse_hits: u64,
    /// Summed simulated task waiting time, nanoseconds.
    pub total_wait_ns: u64,
    /// Engine plan-memo hit rate over the run (None if no plans).
    pub plan_hit_rate: Option<f64>,
    /// Peak resident set size in bytes — **best effort**: `VmHWM` from
    /// `/proc/self/status` on Linux, `getrusage(RUSAGE_SELF)` on other
    /// 64-bit unix targets, and 0 where neither source exists. The value
    /// is process-wide high water (it includes setup and any earlier
    /// runs in the process), so treat it as an upper-bound guard, not a
    /// per-run measurement.
    pub peak_rss_bytes: u64,
    /// Active CRC kernel path chosen by `bitstream::arch` runtime
    /// dispatch (e.g. `clmul-fold`, `hw-crc32c`, `portable-folded`).
    pub crc_dispatch: String,
    /// Active payload-fill kernel path (e.g. `avx2-splitmix`).
    pub fill_dispatch: String,
    /// Logical CPUs available to the process — context for reading the
    /// worker-scaling rows (a 1-CPU host cannot scale past 1×).
    pub host_cpus: usize,
    /// Worker-scaling sweep: one row per worker count when run through
    /// [`run_pipeline_sweep`]; empty for a single [`run_pipeline`] call.
    pub worker_sweep: Vec<WorkerScalingRow>,
    /// Per-stage wall-clock histograms (`pipeline:*` labels).
    pub stages: Vec<StageSnapshot>,
}

/// One worker count's result inside a [`run_pipeline_sweep`] scaling
/// table.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerScalingRow {
    /// Worker threads for this run (after resolving `workers == 0`).
    pub workers: usize,
    /// Wall-clock time, milliseconds.
    pub elapsed_ms: f64,
    /// End-to-end throughput for this run.
    pub tasks_per_sec: f64,
    /// Throughput relative to the 1-worker row (or the first row if the
    /// sweep does not include 1).
    pub speedup_vs_one: f64,
}

/// Per-worker accumulator; merged after the scope joins.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    tasks: u64,
    bitstreams: u64,
    bitstream_bytes: u64,
    makespan_ns: u64,
    reconfigurations: u64,
    reuse_hits: u64,
    total_wait_ns: u64,
}

impl Totals {
    fn merge(&mut self, other: &Totals) {
        self.tasks += other.tasks;
        self.bitstreams += other.bitstreams;
        self.bitstream_bytes += other.bitstream_bytes;
        self.makespan_ns += other.makespan_ns;
        self.reconfigurations += other.reconfigurations;
        self.reuse_hits += other.reuse_hits;
        self.total_wait_ns += other.total_wait_ns;
    }
}

/// Exponential variate with the given mean (inverse transform).
fn exp_ns(rng: &mut Rng, mean: u64) -> u64 {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    ((-(1.0 - u).ln()) * mean as f64) as u64
}

/// The synthetic module pool: one generator per module, drawn from
/// `cfg.seed`.
fn pool_generators(cfg: &PipelineConfig) -> Vec<GenericPrm> {
    (0..cfg.modules.max(1))
        .map(|m| GenericPrm::random(cfg.seed.wrapping_add(u64::from(m) * 7919), cfg.scale))
        .collect()
}

/// The pool's module table: one name per pool module, interned in pool
/// order, so `ModuleId(i)` is pool module `i`.
fn pool_table(pool: &[SynthReport]) -> ModuleTable {
    let mut modules = ModuleTable::new();
    for (i, report) in pool.iter().enumerate() {
        let id = modules.intern(&report.module);
        assert_eq!(id, ModuleId(i as u32), "pool module names are unique");
    }
    modules
}

/// Append the next `n` tasks of the producer's stream to `tasks`, drawing
/// module choices, arrivals and execution times from `rng`. A task's
/// module id is its pool index.
fn push_chunk(
    cfg: &PipelineConfig,
    pool: &[SynthReport],
    rng: &mut Rng,
    n: u32,
    tasks: &mut Vec<HwTask>,
) {
    let mut t = 0u64;
    for id in 0..n {
        let ix = (rng.next_u64() % pool.len() as u64) as usize;
        t += exp_ns(rng, cfg.mean_interarrival_ns);
        let exec = exp_ns(rng, cfg.mean_exec_ns).max(1);
        let module = ModuleId(ix as u32);
        tasks.push(HwTask::from_report(id, module, &pool[ix], t, exec));
    }
}

/// Stream `cfg.tasks` tasks drawn from `pool` (named by `modules`, see
/// [`pool_table`]) in chunks: one producer thread generates each chunk
/// into a bounded channel, and `workers` threads fold the chunks they
/// receive into their own [`Totals`] with a per-worker consumer made by
/// `consumer`. Consumed chunks go back to the producer, which reuses
/// their task buffers.
///
/// The workers own the chunk receiver, so the last one to exit drops it:
/// if every worker panics, the producer's blocked `send` fails instead of
/// waiting forever, and the join re-raises the worker's panic here.
fn stream_chunks<C>(
    cfg: &PipelineConfig,
    pool: &[SynthReport],
    modules: &Arc<ModuleTable>,
    workers: usize,
    metrics: &Metrics,
    consumer: impl Fn() -> C + Sync,
) -> Totals
where
    C: FnMut(&Workload, &mut Totals),
{
    let chunk = cfg.chunk.max(1);
    let queue_depth = cfg.queue_depth.max(1);
    let (tx, rx) = sync_channel::<Workload>(queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    // Consumed chunks travel back to the producer. The capacity covers
    // every chunk that can be in flight, and workers only `try_send`, so
    // a full queue drops a chunk on the worker instead of blocking it.
    let (recycle_tx, recycle_rx) = sync_channel::<Workload>(queue_depth + workers);

    std::thread::scope(|scope| {
        // Producer: builds one chunk at a time; the bounded channel is
        // the only inter-stage buffer, so memory never scales with
        // `cfg.tasks`.
        let producer = scope.spawn(move || {
            let mut rng = Rng::from_raw(cfg.seed | 1);
            let mut remaining = cfg.tasks;
            while remaining > 0 {
                let n = remaining.min(u64::from(chunk)) as u32;
                remaining -= u64::from(n);
                // Reuse a consumed chunk's task buffer; its old tasks
                // are freed here, on the thread that allocated them,
                // before the `pipeline:gen` timer starts.
                let mut tasks = recycle_rx
                    .try_recv()
                    .map_or_else(|_| Vec::new(), |wl| wl.tasks);
                tasks.clear();
                let t0 = Instant::now();
                tasks.reserve(n as usize);
                push_chunk(cfg, pool, &mut rng, n, &mut tasks);
                let wl = Workload::new(tasks, Arc::clone(modules));
                metrics.record_stage("pipeline:gen", t0.elapsed());
                if tx.send(wl).is_err() {
                    break; // every worker is gone (only on panic)
                }
            }
        });

        let consumer = &consumer;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let recycle_tx = recycle_tx.clone();
                scope.spawn(move || {
                    let mut consume = consumer();
                    let mut acc = Totals::default();
                    loop {
                        let wl = match rx.lock().expect("chunk receiver lock poisoned").recv() {
                            Ok(wl) => wl,
                            Err(_) => break,
                        };
                        consume(&wl, &mut acc);
                        // Full or disconnected: the chunk is dropped here.
                        let _ = recycle_tx.try_send(wl);
                    }
                    acc
                })
            })
            .collect();
        drop(rx);

        producer
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        let mut totals = Totals::default();
        for h in handles {
            totals.merge(&h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        totals
    })
}

/// Peak resident set size in bytes, best effort: `VmHWM` where procfs
/// exists (Linux), `getrusage(2)` on other unix targets, 0 elsewhere.
fn peak_rss_bytes() -> u64 {
    let hwm = proc_vmhwm_bytes();
    if hwm > 0 {
        return hwm;
    }
    rusage_maxrss_bytes()
}

/// `VmHWM` from `/proc/self/status` in bytes, 0 if unavailable.
fn proc_vmhwm_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(all(unix, target_pointer_width = "64"))]
fn rusage_maxrss_bytes() -> u64 {
    rusage::peak_rss_bytes()
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
fn rusage_maxrss_bytes() -> u64 {
    0
}

/// Minimal `getrusage(2)` FFI for the off-Linux peak-RSS fallback. The
/// workspace vendors no `libc` crate, but std already links the system
/// C library on unix targets, so a one-function `extern "C"` import is
/// enough. Gated to 64-bit unix so the `long`-based layout below is
/// correct.
#[cfg(all(unix, target_pointer_width = "64"))]
mod rusage {
    #![allow(unsafe_code)] // SAFETY: one zero-initialized out-struct passed to getrusage(2).

    /// `struct timeval` on 64-bit unix: 16 bytes on Linux/BSD
    /// (`i64`+`i64`) and on macOS (`i64`+`i32`+padding), so
    /// `ru_maxrss`'s offset below is right on all of them.
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// Prefix of `struct rusage` through `ru_maxrss`, plus generous
    /// padding covering the 14 remaining `long` fields every unix
    /// `rusage` layout ends with.
    #[repr(C)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        ru_maxrss: i64,
        pad: [i64; 16],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;

    /// `ru_maxrss` normalized to bytes (the BSDs and Linux report
    /// kilobytes; macOS reports bytes), 0 on failure.
    pub(super) fn peak_rss_bytes() -> u64 {
        let mut ru = Rusage {
            ru_utime: Timeval { sec: 0, usec: 0 },
            ru_stime: Timeval { sec: 0, usec: 0 },
            ru_maxrss: 0,
            pad: [0; 16],
        };
        // SAFETY: `ru` outlives the call and is large enough for every
        // 64-bit unix `struct rusage` (prefix above + padding beyond
        // the 14 trailing `long`s); getrusage only writes within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        if rc != 0 || ru.ru_maxrss <= 0 {
            return 0;
        }
        let maxrss = ru.ru_maxrss as u64;
        if cfg!(target_os = "macos") {
            maxrss
        } else {
            maxrss.saturating_mul(1024)
        }
    }
}

/// Run the end-to-end streaming pipeline described in the module docs.
///
/// Deterministic in `cfg.seed` (modulo wall-clock measurements). Errors
/// if the device is unknown, a pool module cannot be planned, or the
/// homogeneous system does not fit the device.
pub fn run_pipeline(
    cfg: &PipelineConfig,
) -> Result<PipelineReport, Box<dyn std::error::Error + Send + Sync>> {
    let device = fabric::device_by_name(&cfg.device)?;
    let family = device.family();
    let engine = Engine::new();
    let metrics = engine.metrics();
    let handle = engine.intern_device(&device);

    // Setup (not part of the streamed stages): synthesize the module
    // pool, plan every module and a covering organization, and build the
    // homogeneous PR system all chunks simulate against.
    let generators = pool_generators(cfg);
    let pool: Vec<SynthReport> = generators
        .iter()
        .map(|g| engine.synthesize(g, family))
        .collect();
    let cover = SynthReport::new(
        "pipeline_cover",
        family,
        pool.iter().map(|r| r.lut_ff_pairs).max().unwrap_or(1),
        pool.iter().map(|r| r.luts).max().unwrap_or(1),
        pool.iter().map(|r| r.ffs).max().unwrap_or(1),
        pool.iter().map(|r| r.dsps).max().unwrap_or(0),
        pool.iter().map(|r| r.brams).max().unwrap_or(0),
    );
    let cover_plan = engine.plan(&cover, &device)?;
    let system = PrSystem::homogeneous(
        &device,
        cover_plan.organization,
        cfg.prrs,
        IcapModel::V5_DMA,
    )?;
    let specs: Vec<Arc<BitstreamSpec>> = pool
        .iter()
        .map(|r| {
            let plan = engine.plan(r, &device)?;
            Ok(Arc::new(BitstreamSpec::from_plan(
                device.name(),
                &r.module,
                plan.organization,
                &plan.window,
            )))
        })
        .collect::<Result<_, prcost::CostError>>()?;

    let modules = Arc::new(pool_table(&pool));

    let workers = if cfg.workers > 0 {
        cfg.workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1))
            .unwrap_or(1)
            .clamp(1, 16)
    };
    let chunk = cfg.chunk.max(1);

    let start = Instant::now();
    let bytes_word = u64::from(family.params().frames.bytes_word);
    let totals = stream_chunks(cfg, &pool, &modules, workers, metrics, || {
        let mut plan_scratch = PlanScratch::default();
        let mut emit_scratch = EmitScratch::new();
        let mut sim_scratch = SimScratch::new();
        let mut present = vec![false; pool.len()];
        let (engine, handle, system, specs, generators, pool) =
            (&engine, &handle, &system, &specs, &generators, &pool);
        move |wl: &Workload, acc: &mut Totals| {
            // A task's module id is its pool index.
            present.fill(false);
            for t in &wl.tasks {
                present[t.module.0 as usize] = true;
            }

            // Synthesis at memo-hit speed: every distinct module in the
            // chunk re-resolves through the engine's synthesis memo.
            let t0 = Instant::now();
            for (g, _) in generators.iter().zip(&present).filter(|(_, &p)| p) {
                let _ = engine.synthesize(g, family);
            }
            metrics.record_stage("pipeline:synth", t0.elapsed());

            // Planning at task rate: one warm hit per task against the
            // device resolved in setup, served from this worker's scratch
            // (no lock, refcount or shared write per task).
            let t0 = Instant::now();
            for t in &wl.tasks {
                let req = PrrRequirements::from_report(&pool[t.module.0 as usize]);
                let plan = engine.plan_on(&req, handle, &mut plan_scratch);
                debug_assert!(plan.is_ok());
            }
            metrics.record_stage("pipeline:plan", t0.elapsed());

            // Placement + arena emission at task rate: each dispatch
            // takes a shared handle to its module's partial bitstream
            // from the per-worker emission arena — a refcount bump on the
            // steady state's rendered-stream cache hits, no words copied
            // and no allocation.
            let t0 = Instant::now();
            for t in &wl.tasks {
                let words = bitstream::emit_shared(&mut emit_scratch, &specs[t.module.0 as usize])
                    .expect("pool specs are valid");
                acc.bitstreams += 1;
                acc.bitstream_bytes += words.len() as u64 * bytes_word;
            }
            metrics.record_stage("pipeline:bitstream", t0.elapsed());

            // Discrete-event simulation of the chunk on the shared PR
            // system (reuse-aware scheduling).
            let t0 = Instant::now();
            let report = simulate_with_scratch(system, wl, &ReuseAware, &mut sim_scratch);
            metrics.record_stage("pipeline:simulate", t0.elapsed());

            acc.tasks += wl.tasks.len() as u64;
            acc.makespan_ns += report.makespan_ns;
            acc.reconfigurations += u64::from(report.reconfigurations);
            acc.reuse_hits += u64::from(report.reuse_hits);
            acc.total_wait_ns += report.total_wait_ns;
        }
    });

    let elapsed = start.elapsed();
    let snapshot = engine.snapshot();
    let stages: Vec<StageSnapshot> = snapshot
        .stages
        .iter()
        .filter(|s| s.name.starts_with("pipeline:"))
        .cloned()
        .collect();

    Ok(PipelineReport {
        device: cfg.device.clone(),
        tasks: totals.tasks,
        chunk,
        modules: cfg.modules.max(1),
        workers,
        queue_depth: cfg.queue_depth.max(1),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        tasks_per_sec: totals.tasks as f64 / elapsed.as_secs_f64(),
        bitstreams_emitted: totals.bitstreams,
        bitstream_bytes: totals.bitstream_bytes,
        simulated_makespan_ns: totals.makespan_ns,
        reconfigurations: totals.reconfigurations,
        reuse_hits: totals.reuse_hits,
        total_wait_ns: totals.total_wait_ns,
        plan_hit_rate: snapshot.counters.plan_hit_rate(),
        peak_rss_bytes: peak_rss_bytes(),
        crc_dispatch: bitstream::arch::active().crc.name().to_string(),
        fill_dispatch: bitstream::arch::active().fill.name().to_string(),
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        worker_sweep: Vec::new(),
        stages,
    })
}

/// Run the pipeline once per worker count and assemble the scaling
/// table.
///
/// The returned report is the full report of the **highest-throughput**
/// run, with [`PipelineReport::worker_sweep`] holding one row per worker
/// count (speedups normalized to the 1-worker row, or the first row if
/// the sweep omits 1). Read the rows against
/// [`PipelineReport::host_cpus`]: worker counts beyond the host's CPUs
/// measure oversubscription, not scaling.
pub fn run_pipeline_sweep(
    cfg: &PipelineConfig,
    worker_counts: &[usize],
) -> Result<PipelineReport, Box<dyn std::error::Error + Send + Sync>> {
    if worker_counts.is_empty() {
        return run_pipeline(cfg);
    }
    let mut rows: Vec<WorkerScalingRow> = Vec::with_capacity(worker_counts.len());
    let mut best: Option<PipelineReport> = None;
    for &w in worker_counts {
        let run_cfg = PipelineConfig {
            workers: w,
            ..cfg.clone()
        };
        let report = run_pipeline(&run_cfg)?;
        rows.push(WorkerScalingRow {
            workers: report.workers,
            elapsed_ms: report.elapsed_ms,
            tasks_per_sec: report.tasks_per_sec,
            speedup_vs_one: 0.0,
        });
        if best
            .as_ref()
            .is_none_or(|b| report.tasks_per_sec > b.tasks_per_sec)
        {
            best = Some(report);
        }
    }
    let base = rows
        .iter()
        .find(|r| r.workers == 1)
        .map(|r| r.tasks_per_sec)
        .unwrap_or(rows[0].tasks_per_sec);
    for row in &mut rows {
        row.speedup_vs_one = if base > 0.0 {
            row.tasks_per_sec / base
        } else {
            0.0
        };
    }
    let mut report = best.expect("worker_counts is non-empty");
    report.worker_sweep = rows;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pipeline_runs_end_to_end() {
        let cfg = PipelineConfig {
            tasks: 2_000,
            chunk: 512,
            workers: 2,
            ..PipelineConfig::default()
        };
        let report = run_pipeline(&cfg).unwrap();
        assert_eq!(report.tasks, 2_000);
        assert_eq!(report.bitstreams_emitted, 2_000);
        assert!(report.bitstream_bytes > 0);
        assert!(report.tasks_per_sec > 0.0);
        assert!(report.simulated_makespan_ns > 0);
        // All five streamed stages reported histograms.
        for stage in [
            "pipeline:gen",
            "pipeline:synth",
            "pipeline:plan",
            "pipeline:bitstream",
            "pipeline:simulate",
        ] {
            let s = report
                .stages
                .iter()
                .find(|s| s.name == stage)
                .unwrap_or_else(|| panic!("missing stage {stage}"));
            assert!(s.count > 0, "{stage} recorded no samples");
        }
        // Warm engine: the plan stage runs at memo-hit speed.
        assert!(report.plan_hit_rate.unwrap() > 0.9);
    }

    #[test]
    fn sweep_builds_scaling_table_and_reports_dispatch() {
        let cfg = PipelineConfig {
            tasks: 600,
            chunk: 128,
            ..PipelineConfig::default()
        };
        let report = run_pipeline_sweep(&cfg, &[1, 2]).unwrap();
        assert_eq!(report.worker_sweep.len(), 2);
        assert_eq!(report.worker_sweep[0].workers, 1);
        assert_eq!(report.worker_sweep[1].workers, 2);
        assert!((report.worker_sweep[0].speedup_vs_one - 1.0).abs() < 1e-9);
        assert!(report.worker_sweep.iter().all(|r| r.tasks_per_sec > 0.0));
        // Dispatch paths are always reported and consistent with arch.
        assert_eq!(report.crc_dispatch, bitstream::arch::active().crc.name(),);
        assert_eq!(report.fill_dispatch, bitstream::arch::active().fill.name(),);
        assert!(report.host_cpus >= 1);
        #[cfg(target_os = "linux")]
        assert!(report.peak_rss_bytes > 0);
    }

    /// Emitted bytes are exactly Eq. 18 per task: the sum over the task
    /// stream of each module's `plan.bitstream_bytes`. Every total is the
    /// same with one worker and with two, whose consumed chunks return to
    /// the producer's recycling queue out of order.
    #[test]
    fn emitted_bytes_are_exact_and_totals_do_not_depend_on_workers() {
        let cfg = PipelineConfig {
            tasks: 3_000,
            chunk: 128,
            queue_depth: 2,
            workers: 1,
            ..PipelineConfig::default()
        };
        // Regenerate the producer's task stream, chunk by chunk.
        let device = fabric::device_by_name(&cfg.device).unwrap();
        let engine = Engine::new();
        let pool: Vec<SynthReport> = pool_generators(&cfg)
            .iter()
            .map(|g| engine.synthesize(g, device.family()))
            .collect();
        let mut rng = Rng::from_raw(cfg.seed | 1);
        let (mut remaining, mut tasks) = (cfg.tasks, Vec::new());
        while remaining > 0 {
            let n = remaining.min(u64::from(cfg.chunk)) as u32;
            remaining -= u64::from(n);
            push_chunk(&cfg, &pool, &mut rng, n, &mut tasks);
        }
        let expected: u64 = tasks
            .iter()
            .map(|t| {
                let report = &pool[t.module.0 as usize];
                engine.plan(report, &device).unwrap().bitstream_bytes
            })
            .sum();

        let totals = |r: &PipelineReport| {
            [
                r.tasks,
                r.bitstreams_emitted,
                r.bitstream_bytes,
                r.simulated_makespan_ns,
                r.reconfigurations,
                r.reuse_hits,
                r.total_wait_ns,
            ]
        };
        let one = run_pipeline(&cfg).unwrap();
        assert_eq!(one.tasks, cfg.tasks);
        assert_eq!(one.bitstream_bytes, expected);
        let two = run_pipeline(&PipelineConfig {
            workers: 2,
            ..cfg.clone()
        })
        .unwrap();
        assert_eq!(two.workers, 2);
        assert_eq!(totals(&one), totals(&two));
    }

    /// A worker panic reaches the caller instead of hanging the run. One
    /// worker and a one-chunk queue: once the worker dies, the producer
    /// blocks on a full channel, and only the worker dropping the
    /// receiver as it unwinds lets `send` fail. A watchdog turns a hang
    /// into a failure.
    #[test]
    fn worker_panic_reaches_the_caller() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cfg = PipelineConfig {
                tasks: 50_000,
                chunk: 128,
                workers: 1,
                queue_depth: 1,
                ..PipelineConfig::default()
            };
            let engine = Engine::new();
            let pool: Vec<SynthReport> = pool_generators(&cfg)
                .iter()
                .map(|g| engine.synthesize(g, fabric::Family::Virtex5))
                .collect();
            let modules = Arc::new(pool_table(&pool));
            let run = std::panic::AssertUnwindSafe(|| {
                stream_chunks(&cfg, &pool, &modules, 1, engine.metrics(), || {
                    |_: &Workload, _: &mut Totals| panic!("forced worker panic")
                })
            });
            let outcome = std::panic::catch_unwind(run)
                .map(|_| ())
                .map_err(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            let _ = done_tx.send(outcome);
        });
        let outcome = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the run hung after its worker panicked");
        assert_eq!(outcome, Err(Some("forced worker panic".to_string())));
    }

    #[test]
    fn pipeline_is_deterministic_in_seed_for_sim_outcomes() {
        let cfg = PipelineConfig {
            tasks: 1_024,
            chunk: 256,
            workers: 1,
            ..PipelineConfig::default()
        };
        let a = run_pipeline(&cfg).unwrap();
        let b = run_pipeline(&cfg).unwrap();
        assert_eq!(a.simulated_makespan_ns, b.simulated_makespan_ns);
        assert_eq!(a.reconfigurations, b.reconfigurations);
        assert_eq!(a.bitstream_bytes, b.bitstream_bytes);
    }
}
