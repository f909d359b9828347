//! Ablation: PRR sizing and scheduling impact on hardware-multitasking
//! performance — the paper's motivating claim ("oversized PRRs impose
//! longer ... reconfiguration time ... and thus potentially worse
//! performance than a non-PR system") made quantitative.
//!
//! A fixed task workload runs on (a) right-sized PRRs, (b) progressively
//! oversized PRRs, and (c) different schedulers, reporting makespan, ICAP
//! busy time and reuse rates.

use bitstream::IcapModel;
use fabric::{device_by_name, Family};
use multitask::{simulate, FirstFit, PrSystem, ReuseAware, Scheduler, Workload};
use prcost::PrrOrganization;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    label: String,
    scheduler: String,
    makespan_ms: f64,
    icap_busy_ms: f64,
    reconfigs: u32,
    reuse_hits: u32,
    mean_wait_us: f64,
}

fn org(h: u32, clb: u32, dsp: u32, bram: u32) -> PrrOrganization {
    PrrOrganization {
        family: Family::Virtex5,
        height: h,
        clb_cols: clb,
        dsp_cols: dsp,
        bram_cols: bram,
    }
}

fn main() {
    let device = device_by_name("xc5vsx95t").unwrap();
    let sizes = [
        ("right-sized (H=1, 6C+1D+1B)", org(1, 6, 1, 1)),
        ("2x oversized (H=2, 6C+1D+1B)", org(2, 6, 1, 1)),
        ("4x oversized (H=4, 6C+1D+1B)", org(4, 6, 1, 1)),
        ("8x oversized (H=8, 6C+1D+1B)", org(8, 6, 1, 1)),
    ];
    let schedulers: [&dyn Scheduler; 2] = [&FirstFit, &ReuseAware];

    let base = PrSystem::homogeneous(&device, sizes[0].1, 4, IcapModel::V5_DMA).unwrap();
    // Execution-bound enough that several PRRs are often free at once
    // (so scheduler choice matters), yet with enough reconfiguration
    // traffic that PRR oversizing visibly hurts.
    let workload = base.filter_workload(&Workload::generate(
        2026,
        Family::Virtex5,
        400,
        6,
        300,
        180_000,
        600_000,
    ));
    println!(
        "workload: {} servable tasks, {} distinct modules\n",
        workload.tasks.len(),
        workload.module_count()
    );

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (label, organization) in sizes {
        let Ok(sys) = PrSystem::homogeneous(&device, organization, 4, IcapModel::V5_DMA) else {
            rows.push(vec![
                label.into(),
                "-".into(),
                "does not fit 4x".into(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
            continue;
        };
        for sched in schedulers {
            let r = simulate(&sys, &workload, sched);
            rows.push(vec![
                label.into(),
                r.scheduler.into(),
                format!("{:.3}", r.makespan_ns as f64 / 1e6),
                format!("{:.3}", r.icap_busy_ns as f64 / 1e6),
                r.reconfigurations.to_string(),
                r.reuse_hits.to_string(),
                format!("{:.1}", r.mean_wait_ns() as f64 / 1e3),
            ]);
            json.push(Row {
                label: label.into(),
                scheduler: r.scheduler.into(),
                makespan_ms: r.makespan_ns as f64 / 1e6,
                icap_busy_ms: r.icap_busy_ns as f64 / 1e6,
                reconfigs: r.reconfigurations,
                reuse_hits: r.reuse_hits,
                mean_wait_us: r.mean_wait_ns() as f64 / 1e3,
            });
        }
    }
    print!(
        "{}",
        bench::render_table(
            "Multitasking: PRR sizing x scheduler (4 PRRs, V5 ICAP/DMA)",
            &[
                "PRR sizing",
                "scheduler",
                "makespan ms",
                "ICAP busy ms",
                "reconfigs",
                "reuse",
                "mean wait us"
            ],
            &rows,
        )
    );
    println!(
        "\nExpected shape: makespan and ICAP busy time grow with PRR oversizing \
         (bitstream scales with PRR area); reuse-aware scheduling recovers part of the loss."
    );
    bench::write_json("ablation_multitask", &json);
}
