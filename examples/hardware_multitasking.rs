//! Hardware multitasking: PRRs time-multiplexing a stream of hardware
//! tasks, with reconfiguration times derived from the model-predicted
//! bitstream sizes — the system-level payoff of sizing PRRs well.
//!
//! Run with: `cargo run --release --example hardware_multitasking`

use multitask::{FirstFit, ReuseAware, Scheduler};
use prfpga::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = fabric::device_by_name("xc5vsx95t")?;

    // Right-sized PRRs: enough for the workload's biggest task.
    let org = PrrOrganization {
        family: device.family(),
        height: 1,
        clb_cols: 6,
        dsp_cols: 1,
        bram_cols: 1,
    };
    let system = PrSystem::homogeneous(&device, org, 4, IcapModel::V5_DMA)?;
    println!(
        "system: 4 PRRs of H={} W={} on {}, {} B bitstream each, {:?} reconfig",
        org.height,
        org.width(),
        device.name(),
        system.prrs[0].bitstream_bytes,
        IcapModel::V5_DMA.transfer_time(system.prrs[0].bitstream_bytes),
    );

    let workload = system.filter_workload(&Workload::generate(
        42,
        device.family(),
        300,     // tasks
        8,       // distinct modules
        300,     // resource scale
        8_000,   // mean interarrival (ns)
        120_000, // mean execution (ns)
    ));
    println!(
        "workload: {} servable tasks over {} modules\n",
        workload.tasks.len(),
        workload.module_count()
    );

    println!(
        "{:>12} {:>12} {:>12} {:>10} {:>8} {:>12}",
        "scheduler", "makespan ms", "ICAP busy ms", "reconfigs", "reuse", "mean wait us"
    );
    let schedulers: [&dyn Scheduler; 2] = [&FirstFit, &ReuseAware];
    for sched in schedulers {
        let r = simulate(&system, &workload, sched);
        println!(
            "{:>12} {:>12.3} {:>12.3} {:>10} {:>8} {:>12.1}",
            r.scheduler,
            r.makespan_ns as f64 / 1e6,
            r.icap_busy_ns as f64 / 1e6,
            r.reconfigurations,
            r.reuse_hits,
            r.mean_wait_ns() as f64 / 1e3,
        );
    }

    // The cautionary tale: oversize the PRRs 4x and watch the same
    // workload slow down purely from longer reconfigurations.
    let oversized = PrrOrganization { height: 4, ..org };
    let slow_system = PrSystem::homogeneous(&device, oversized, 4, IcapModel::V5_DMA)?;
    let r_right = simulate(&system, &workload, &ReuseAware);
    let r_slow = simulate(&slow_system, &workload, &ReuseAware);
    println!(
        "\noversizing PRRs 4x: makespan {:.3} ms -> {:.3} ms ({:+.1}%), ICAP busy {:.3} -> {:.3} ms",
        r_right.makespan_ns as f64 / 1e6,
        r_slow.makespan_ns as f64 / 1e6,
        (r_slow.makespan_ns as f64 / r_right.makespan_ns as f64 - 1.0) * 100.0,
        r_right.icap_busy_ns as f64 / 1e6,
        r_slow.icap_busy_ns as f64 / 1e6,
    );
    Ok(())
}
