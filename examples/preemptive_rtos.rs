//! Preemptive hardware RTOS demo: urgent hardware tasks preempt long
//! background accelerators via configuration-plane context save/restore
//! (the authors' companion FCCM'13/ARC'13 machinery).
//!
//! Run with: `cargo run --release --example preemptive_rtos`

use multitask::{simulate_preemptive, HwTask, ModuleTable};
use prfpga::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = fabric::device_by_name("xc5vsx95t")?;
    let org = PrrOrganization {
        family: device.family(),
        height: 1,
        clb_cols: 8,
        dsp_cols: 1,
        bram_cols: 1,
    };
    let system = PrSystem::homogeneous(&device, org, 2, IcapModel::V5_DMA)?;
    let ctx = prcost::context_breakdown(&org);
    println!(
        "2 PRRs of H={} W={}; bitstream write {:?}, context save {:?}, restore {:?}\n",
        org.height,
        org.width(),
        IcapModel::V5_DMA.transfer_time(system.prrs[0].bitstream_bytes),
        IcapModel::V5_DMA.transfer_time(ctx.save_bytes()),
        IcapModel::V5_DMA.transfer_time(ctx.restore_bytes()),
    );

    // Two long background FFT batches + sporadic urgent crypto requests.
    let mut modules = ModuleTable::new();
    let fft = [modules.intern("fft_batch_0"), modules.intern("fft_batch_1")];
    let aes = modules.intern("aes_urgent");
    let mut tasks: Vec<HwTask> = (0..6)
        .map(|i| HwTask {
            id: i,
            module: fft[(i % 2) as usize],
            priority: 0,
            needs: Resources::new(120, 6, 2),
            arrival_ns: u64::from(i) * 200_000,
            exec_ns: 3_000_000,
            deadline_ns: None,
        })
        .collect();
    for j in 0..5 {
        tasks.push(HwTask {
            id: 100 + j,
            module: aes,
            priority: 3,
            needs: Resources::new(60, 0, 2),
            arrival_ns: 700_000 + u64::from(j) * 2_500_000,
            exec_ns: 90_000,
            deadline_ns: None,
        });
    }
    let workload = Workload::new(tasks, modules);

    let r = simulate_preemptive(&system, &workload);
    println!(
        "completed {} of {} tasks in {:.3} ms",
        r.completed,
        workload.tasks.len(),
        r.makespan_ns as f64 / 1e6
    );
    println!(
        "preemptions: {}  (context transfers: {}, overhead {:.3} ms)",
        r.preemptions,
        r.context_transfers,
        r.context_switch_ns as f64 / 1e6
    );
    println!(
        "reconfigurations: {}  ICAP busy {:.3} ms",
        r.reconfigurations,
        r.icap_busy_ns as f64 / 1e6
    );
    println!(
        "urgent mean response: {:.1} us (vs {:.1} ms if urgent tasks had to wait out a batch)",
        r.urgent_mean_response_ns as f64 / 1e3,
        3_000_000f64 / 1e6
    );
    Ok(())
}
