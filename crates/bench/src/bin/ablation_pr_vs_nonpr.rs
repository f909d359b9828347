//! Ablation: PR vs non-PR system designs — the paper's framing claim
//! ("inappropriate decisions can result in ... PR system performance that
//! is worse than a non-PR system") and its converse, quantified.
//!
//! Three designs run the same workloads on the Virtex-5 LX110T:
//!
//! * **static** — all modules resident side by side (no reconfiguration;
//!   only exists if they fit the device together);
//! * **full-reconfig** — one module at a time, full-bitstream swaps,
//!   device halted during configuration;
//! * **PR** — 4 model-planned PRRs sharing one ICAP (partial bitstreams).
//!
//! Sweeping the module population shows the crossovers: static wins when
//! everything fits; PR wins once it does not; full reconfiguration loses
//! by the full/partial bitstream ratio; and a deliberately oversized PR
//! system gives back much of PR's advantage.

use bitstream::IcapModel;
use fabric::{device_by_name, Family, Resources};
use multitask::{
    simulate, simulate_full_reconfig, simulate_static, HwTask, ModuleTable, PrSystem, ReuseAware,
    Workload,
};
use prcost::PrrOrganization;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    modules: u32,
    static_ms: Option<f64>,
    full_reconfig_ms: f64,
    pr_ms: f64,
    pr_oversized_ms: f64,
}

fn org(h: u32) -> PrrOrganization {
    PrrOrganization {
        family: Family::Virtex5,
        height: h,
        clb_cols: 8,
        dsp_cols: 1,
        bram_cols: 1,
    }
}

fn main() {
    let device = device_by_name("xc5vsx95t").unwrap();
    let full_bytes = prcost::full_bitstream_size_bytes(&device);
    let pr_sys = PrSystem::homogeneous(&device, org(1), 4, IcapModel::V5_DMA).unwrap();
    let pr_big = PrSystem::homogeneous(&device, org(4), 4, IcapModel::V5_DMA).unwrap();
    println!(
        "device {}: full bitstream {full_bytes} B ({:?}); PRR bitstream {} B ({:?})\n",
        device.name(),
        IcapModel::V5_DMA.transfer_time(full_bytes),
        pr_sys.prrs[0].bitstream_bytes,
        IcapModel::V5_DMA.transfer_time(pr_sys.prrs[0].bitstream_bytes),
    );

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for modules in [2u32, 4, 8, 16, 48, 96] {
        // 240 tasks round-robin over `modules` distinct modules; every
        // module needs 120 CLBs + 4 DSPs + 2 BRAMs (fits the PRR exactly;
        // statically, >61 such modules exceed the device's 7360 CLBs).
        let mut names = ModuleTable::new();
        let tasks: Vec<HwTask> = (0..240u32)
            .map(|i| HwTask {
                id: i,
                module: names.intern(&format!("mod{:02}", i % modules)),
                priority: 0,
                needs: Resources::new(120, 4, 2),
                arrival_ns: u64::from(i) * 20_000,
                exec_ns: 300_000,
                deadline_ns: None,
            })
            .collect();
        let wl = Workload::new(tasks, names);
        let stat = simulate_static(&device, &wl);
        let full = simulate_full_reconfig(&device, &wl, &IcapModel::V5_DMA);
        let pr = simulate(&pr_sys, &wl, &ReuseAware);
        let pr_over = simulate(&pr_big, &wl, &ReuseAware);
        let ms = |ns: u64| ns as f64 / 1e6;
        rows.push(vec![
            modules.to_string(),
            wl.tasks.len().to_string(),
            stat.as_ref()
                .map(|r| format!("{:.2}", ms(r.makespan_ns)))
                .unwrap_or_else(|| "does not fit".into()),
            format!("{:.2}", ms(full.makespan_ns)),
            format!("{:.2}", ms(pr.makespan_ns)),
            format!("{:.2}", ms(pr_over.makespan_ns)),
        ]);
        json.push(Row {
            modules,
            static_ms: stat.as_ref().map(|r| ms(r.makespan_ns)),
            full_reconfig_ms: ms(full.makespan_ns),
            pr_ms: ms(pr.makespan_ns),
            pr_oversized_ms: ms(pr_over.makespan_ns),
        });
    }
    print!(
        "{}",
        bench::render_table(
            "PR vs non-PR makespan (ms), 240-task workloads on xc5vsx95t",
            &[
                "modules",
                "tasks",
                "static",
                "full-reconfig",
                "PR (model PRRs)",
                "PR (4x oversized)"
            ],
            &rows,
        )
    );
    println!(
        "\nExpected shape: static wins while all modules fit the fabric and vanishes after; \
         PR beats full reconfiguration by roughly the full/partial bitstream ratio; \
         oversizing the PRRs surrenders much of that margin — the paper's motivating trade."
    );
    bench::write_json("ablation_pr_vs_nonpr", &json);
}
