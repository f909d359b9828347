//! Scheduler ablation harness behind `prfpga sched-ablate` and the
//! `sched_zoo` bench — one deterministic run producing every scheduler
//! × workload class and workload class × defragmentation policy cell of
//! `results/BENCH_sched.json`.
//!
//! Three tables:
//!
//! * `rows` — first-fit and reuse-aware on each workload class through
//!   the fixed-PRR `multitask` DES: completions, deadline-miss ratio,
//!   mean response, reuse rate, ICAP utilization.
//! * `admission` — the classical admission tests
//!   ([`crate::admission`]) over UUniFast task sets at rising target
//!   utilization: how many sets each test admits on this PRR pool once
//!   reconfiguration inflation is priced in.
//! * `defrag` — each workload class through the `layout` loss-system
//!   DES under Never / Threshold / Always defragmentation: admissions
//!   and relocation cost (the defrag axis is carried by the layout
//!   manager, which owns placement geometry; the PRR-pool DES has no
//!   fragmentation to repair).

use crate::admission::{response_time_admit, utilization_bound_admit, worst_reconfig_ns};
use crate::taskset::{TaskSet, TaskSetConfig};
use bitstream::IcapModel;
use fabric::{Device, Window};
use layout::{simulate_layout, DefragPolicy, LayoutConfig};
use multitask::{FirstFit, PrSystem, PrrSlot, ReuseAware, Scheduler, Workload};
use prcost::PrrOrganization;
use serde::Serialize;

/// Harness parameters. `Default` is the smoke-sized run used by CI and
/// the bench artifact; the CLI exposes the knobs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AblationConfig {
    /// Master seed: every generator derives from it, so the whole report
    /// is deterministic in it.
    pub seed: u64,
    /// Jobs per aperiodic workload class.
    pub tasks: u32,
    /// Release horizon for the periodic class (ms).
    pub horizon_ms: u64,
    /// Deadline slack factor attached to aperiodic classes
    /// (`deadline = arrival + slack × exec`).
    pub deadline_slack: f64,
    /// UUniFast task sets per utilization level in the admission table.
    pub admission_sets: u32,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            seed: 7,
            tasks: 240,
            horizon_ms: 40,
            deadline_slack: 3.0,
            admission_sets: 20,
        }
    }
}

/// One scheduler × workload-class cell of the DES table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SchedRow {
    /// Scheduler name.
    pub scheduler: String,
    /// Workload class name.
    pub class: String,
    /// Tasks offered before servability filtering.
    pub offered: u32,
    /// Tasks some PRR can host (= admissions in the loss-free DES).
    pub admitted: u32,
    /// Tasks completed.
    pub completed: u32,
    /// Fraction of completed tasks missing their deadline.
    pub deadline_miss_ratio: f64,
    /// Mean response time (ms).
    pub mean_response_ms: f64,
    /// Fraction of dispatches that reused a loaded module.
    pub reuse_rate: f64,
    /// Fraction of the makespan the ICAP spent transferring.
    pub icap_utilization: f64,
    /// Makespan (ms).
    pub makespan_ms: f64,
}

/// One utilization level of the admission table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdmissionRow {
    /// Target total utilization handed to UUniFast.
    pub target_utilization: f64,
    /// Task sets sampled at this level.
    pub tasksets: u32,
    /// Sets the partitioned Liu–Layland bound admits.
    pub ub_admitted: u32,
    /// Sets the partitioned response-time analysis admits.
    pub rta_admitted: u32,
    /// Mean reconfiguration-inflated utilization across the sets.
    pub mean_inflated_utilization: f64,
}

/// One workload-class × defrag-policy cell of the layout table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DefragRow {
    /// Workload class name.
    pub class: String,
    /// Defragmentation policy name.
    pub policy: String,
    /// Tasks admitted by the layout manager.
    pub admitted: u32,
    /// Rejections attributable to fragmentation.
    pub rejected_fragmentation: u32,
    /// Relocations performed.
    pub relocations: u32,
    /// ICAP time spent relocating (ms).
    pub relocation_ms: f64,
}

/// The full ablation artifact (`results/BENCH_sched.json`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AblationReport {
    /// Device the PRR pool lives on.
    pub device: String,
    /// PRR pool summary, one string per slot: `h×clb+dsp+bram@reconfig_us`.
    pub prrs: Vec<String>,
    /// Configuration the run used.
    pub config: AblationConfig,
    /// Worst-case single reconfiguration on the pool (ns), as used by
    /// the admission tests.
    pub worst_reconfig_ns: u64,
    /// Scheduler × class DES table.
    pub rows: Vec<SchedRow>,
    /// Admission-test table.
    pub admission: Vec<AdmissionRow>,
    /// Class × defrag-policy layout table.
    pub defrag: Vec<DefragRow>,
}

/// A heterogeneous PRR pool on `device`: two small/cheap, two medium,
/// and two tall/expensive PRRs (the reconfiguration-cost spread that
/// separates placement policies; a homogeneous pool makes every choice
/// cost the same). Every organization carries DSP and BRAM columns so
/// generated PRMs with mixed footprints stay servable — which is why
/// the harness runs on the DSP-rich xc5vsx95t, where composite
/// CLB+DSP+BRAM windows are plentiful.
fn mixed_system(device: &Device) -> PrSystem {
    let org = |height: u32, clb_cols: u32| PrrOrganization {
        family: device.family(),
        height,
        clb_cols,
        dsp_cols: 1,
        bram_cols: 1,
    };
    let specs = [(org(1, 4), 2u32), (org(1, 8), 2), (org(2, 8), 2)];
    // `Device::windows` enumerates column spans anchored at row 1, so
    // each spec gets its own row band: windows chosen column-disjoint
    // within the band, bands stacked vertically (the same trick
    // `PrSystem::homogeneous` uses).
    let mut slots: Vec<PrrSlot> = Vec::new();
    let mut row = 1u32;
    for (organization, count) in specs {
        let mut taken: Vec<Window> = Vec::new();
        let mut placed = 0;
        for mut w in device.windows(&organization.window_request()) {
            if placed == count {
                break;
            }
            if taken.iter().any(|t| t.overlaps(&w)) {
                continue;
            }
            taken.push(w.clone());
            w.row = row;
            slots.push(PrrSlot::new(slots.len() as u32, organization, w));
            placed += 1;
        }
        row += organization.height;
    }
    PrSystem::new(device, slots, IcapModel::V5_DMA).expect("mixed PRR pool must validate")
}

/// The workload classes, name → deadline-carrying workload. All derive
/// from `cfg.seed`.
fn workload_classes(cfg: &AblationConfig, device: &Device) -> Vec<(String, Workload)> {
    let family = device.family();
    let seed = cfg.seed;
    let horizon_ns = cfg.horizon_ms * 1_000_000;
    let ts_cfg = TaskSetConfig {
        n: 8,
        total_utilization: 2.5,
        scale: 250,
        ..TaskSetConfig::default()
    };
    // Interarrival 50 µs × 6 PRRs against 150 µs mean execution puts the
    // pool near ρ ≈ 0.5 before reconfiguration overhead: loaded enough
    // that deadline misses happen, idle enough that dispatches see
    // multiple candidate PRRs (a saturated queue collapses every policy
    // onto the same single-candidate trajectory).
    let periodic = TaskSet::uunifast(seed, family, &ts_cfg).release_jobs(seed ^ 0x51ed, horizon_ns);
    let poisson = Workload::generate(seed, family, cfg.tasks, 12, 250, 50_000, 150_000)
        .with_deadlines(cfg.deadline_slack);
    let bursty = Workload::generate_bursty(seed, family, cfg.tasks, 12, 250, 50_000, 150_000, 8)
        .with_deadlines(cfg.deadline_slack);
    let heavy = Workload::generate_heavy_tailed(seed, family, cfg.tasks, 12, 150, 50_000, 150_000)
        .with_deadlines(cfg.deadline_slack);
    vec![
        ("periodic".to_string(), periodic),
        ("poisson".to_string(), poisson),
        ("bursty".to_string(), bursty),
        ("heavy_tailed".to_string(), heavy),
    ]
}

/// Run the whole ablation. Deterministic in `cfg` (single-threaded DES
/// runs, seeded generators).
pub fn run_ablation(cfg: &AblationConfig) -> AblationReport {
    let device = fabric::database::device_by_name("xc5vsx95t").expect("device in database");
    let system = mixed_system(&device);
    let reconfig_ns = worst_reconfig_ns(&system);

    let classes = workload_classes(cfg, &device);
    let schedulers: [&dyn Scheduler; 2] = [&FirstFit, &ReuseAware];

    let mut rows = Vec::new();
    for (class, workload) in &classes {
        let offered = workload.tasks.len() as u32;
        let servable = system.filter_workload(workload);
        let admitted = servable.tasks.len() as u32;
        for scheduler in schedulers {
            let r = multitask::simulate(&system, &servable, scheduler);
            rows.push(SchedRow {
                scheduler: r.scheduler.to_string(),
                class: class.clone(),
                offered,
                admitted,
                completed: r.completed,
                deadline_miss_ratio: r.deadline_miss_ratio(),
                mean_response_ms: r.mean_response_ns() as f64 / 1e6,
                reuse_rate: r.reuse_rate(),
                icap_utilization: r.icap_utilization(),
                makespan_ms: r.makespan_ns as f64 / 1e6,
            });
        }
    }

    let mut admission = Vec::new();
    for target in [1.0f64, 2.0, 3.0, 4.0] {
        let mut ub = 0u32;
        let mut rta = 0u32;
        let mut inflated = 0.0f64;
        for k in 0..cfg.admission_sets {
            // Periods well above the worst reconfiguration (≈0.4 ms)
            // keep the inflation meaningful without making it fatal:
            // admission rates fall with the target instead of pinning
            // at zero.
            let ts_cfg = TaskSetConfig {
                total_utilization: target,
                scale: 250,
                min_period_ns: 4_000_000,
                max_period_ns: 40_000_000,
                ..TaskSetConfig::default()
            };
            let ts = TaskSet::uunifast(
                cfg.seed ^ (u64::from(k) << 16) ^ target.to_bits(),
                device.family(),
                &ts_cfg,
            );
            let u = utilization_bound_admit(&ts, system.prrs.len(), reconfig_ns);
            let r = response_time_admit(&ts, system.prrs.len(), reconfig_ns);
            ub += u32::from(u.admitted);
            rta += u32::from(r.admitted);
            inflated += r.inflated_utilization;
        }
        admission.push(AdmissionRow {
            target_utilization: target,
            tasksets: cfg.admission_sets,
            ub_admitted: ub,
            rta_admitted: rta,
            mean_inflated_utilization: inflated / f64::from(cfg.admission_sets.max(1)),
        });
    }

    let mut defrag = Vec::new();
    for (class, workload) in &classes {
        for (name, policy) in [
            ("never", DefragPolicy::Never),
            ("threshold_1.0", DefragPolicy::Threshold(1.0)),
            ("always", DefragPolicy::Always),
        ] {
            let r = simulate_layout(
                &device,
                workload,
                &LayoutConfig {
                    policy,
                    ..LayoutConfig::default()
                },
            );
            defrag.push(DefragRow {
                class: class.clone(),
                policy: name.to_string(),
                admitted: r.admitted,
                rejected_fragmentation: r.rejected_fragmentation,
                relocations: r.relocations,
                relocation_ms: r.relocation_ns as f64 / 1e6,
            });
        }
    }

    AblationReport {
        device: device.name().to_string(),
        prrs: system
            .prrs
            .iter()
            .map(|p| {
                format!(
                    "{}x{}+{}+{}@{}us",
                    p.organization.height,
                    p.organization.clb_cols,
                    p.organization.dsp_cols,
                    p.organization.bram_cols,
                    system.reconfig_ns(p) / 1_000
                )
            })
            .collect(),
        config: cfg.clone(),
        worst_reconfig_ns: reconfig_ns,
        rows,
        admission,
        defrag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_pool_is_heterogeneous() {
        let device = fabric::database::device_by_name("xc5vsx95t").unwrap();
        let sys = mixed_system(&device);
        assert_eq!(sys.prrs.len(), 6);
        let mut costs: Vec<u64> = sys.prrs.iter().map(|p| sys.reconfig_ns(p)).collect();
        costs.sort_unstable();
        costs.dedup();
        assert!(costs.len() >= 2, "reconfiguration costs must differ");
    }

    #[test]
    fn ablation_is_deterministic_and_covers_the_grid() {
        let cfg = AblationConfig {
            tasks: 60,
            horizon_ms: 10,
            admission_sets: 4,
            ..AblationConfig::default()
        };
        let a = run_ablation(&cfg);
        let b = run_ablation(&cfg);
        assert_eq!(a, b, "the whole report must be deterministic in seed");
        // 2 schedulers × 4 classes.
        assert_eq!(a.rows.len(), 2 * 4);
        assert_eq!(a.defrag.len(), 3 * 4);
        assert_eq!(a.admission.len(), 4);
        // Deadlines are live: someone misses somewhere at these loads.
        assert!(a.rows.iter().any(|r| r.deadline_miss_ratio > 0.0));
    }
}
