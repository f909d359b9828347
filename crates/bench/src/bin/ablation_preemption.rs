//! Ablation: preemptive hardware multitasking with context save/restore
//! (the authors' companion work \[5]\[6]) — how PRR sizing drives not just
//! reconfiguration time but *preemption latency*, and what urgent-task
//! responsiveness costs in total throughput.

use bitstream::IcapModel;
use fabric::{device_by_name, Family, Resources};
use multitask::{simulate_preemptive, HwTask, ModuleTable, PrSystem, Workload};
use prcost::{context_breakdown, PrrOrganization};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    sizing: String,
    save_us: f64,
    restore_us: f64,
    preemptions: u32,
    urgent_response_us: f64,
    makespan_ms: f64,
    context_overhead_ms: f64,
}

fn main() {
    let device = device_by_name("xc5vsx95t").unwrap();

    // Background tasks (priority 0) + sporadic urgent tasks (priority 3).
    let mut modules = ModuleTable::new();
    let background = [0, 1, 2].map(|i| modules.intern(&format!("bg{i}")));
    let urgent = modules.intern("urgent");
    let mut tasks: Vec<HwTask> = Vec::new();
    for i in 0..48u32 {
        tasks.push(HwTask {
            id: i,
            module: background[(i % 3) as usize],
            priority: 0,
            needs: Resources::new(100, 4, 2),
            arrival_ns: u64::from(i) * 150_000,
            exec_ns: 2_000_000,
            deadline_ns: None,
        });
    }
    for j in 0..12u32 {
        tasks.push(HwTask {
            id: 100 + j,
            module: urgent,
            priority: 3,
            needs: Resources::new(60, 2, 1),
            arrival_ns: 400_000 + u64::from(j) * 3_000_000,
            exec_ns: 120_000,
            deadline_ns: None,
        });
    }
    let tasks = Workload::new(tasks, modules);

    let sizes = [
        ("right-sized H=1", 1u32),
        ("2x H=2", 2),
        ("4x H=4", 4),
        ("8x H=8", 8),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (label, h) in sizes {
        let org = PrrOrganization {
            family: Family::Virtex5,
            height: h,
            clb_cols: 8,
            dsp_cols: 1,
            bram_cols: 1,
        };
        let Ok(sys) = PrSystem::homogeneous(&device, org, 2, IcapModel::V5_DMA) else {
            continue;
        };
        let ctx = context_breakdown(&org);
        let save_us = IcapModel::V5_DMA
            .transfer_time(ctx.save_bytes())
            .as_secs_f64()
            * 1e6;
        let restore_us = IcapModel::V5_DMA
            .transfer_time(ctx.restore_bytes())
            .as_secs_f64()
            * 1e6;
        let r = simulate_preemptive(&sys, &tasks);
        let us = |ns: u64| ns as f64 / 1e3;
        rows.push(vec![
            label.to_string(),
            format!("{save_us:.1}"),
            format!("{restore_us:.1}"),
            r.preemptions.to_string(),
            format!("{:.1}", us(r.urgent_mean_response_ns)),
            format!("{:.3}", r.makespan_ns as f64 / 1e6),
            format!("{:.3}", r.context_switch_ns as f64 / 1e6),
        ]);
        json.push(Row {
            sizing: label.into(),
            save_us,
            restore_us,
            preemptions: r.preemptions,
            urgent_response_us: us(r.urgent_mean_response_ns),
            makespan_ms: r.makespan_ns as f64 / 1e6,
            context_overhead_ms: r.context_switch_ns as f64 / 1e6,
        });
    }
    print!(
        "{}",
        bench::render_table(
            "Preemptive multitasking: PRR sizing vs context-switch cost (2 PRRs)",
            &[
                "PRR sizing",
                "ctx save us",
                "ctx restore us",
                "preemptions",
                "urgent resp us",
                "makespan ms",
                "ctx overhead ms",
            ],
            &rows,
        )
    );
    println!(
        "\nExpected shape: context save/restore (and hence urgent-task response) scale \
         linearly with PRR area — right-sizing the PRR via the cost models is what keeps \
         preemptive hardware multitasking responsive."
    );
    bench::write_json("ablation_preemption", &json);
}
