//! Criterion bench: hardware-multitasking simulator throughput
//! (tasks simulated per second across schedulers).

use bitstream::IcapModel;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fabric::{device_by_name, Family};
use multitask::{simulate, FirstFit, PrSystem, ReuseAware, Scheduler, Workload};
use prcost::PrrOrganization;
use std::hint::black_box;

fn bench_sim(c: &mut Criterion) {
    let device = device_by_name("xc5vsx95t").unwrap();
    let org = PrrOrganization {
        family: Family::Virtex5,
        height: 1,
        clb_cols: 6,
        dsp_cols: 1,
        bram_cols: 1,
    };
    let sys = PrSystem::homogeneous(&device, org, 4, IcapModel::V5_DMA).unwrap();
    let wl = sys.filter_workload(&Workload::generate(
        7,
        Family::Virtex5,
        1000,
        12,
        300,
        5_000,
        100_000,
    ));
    let mut g = c.benchmark_group("simulate");
    g.throughput(Throughput::Elements(wl.tasks.len() as u64));
    let schedulers: [&dyn Scheduler; 2] = [&FirstFit, &ReuseAware];
    for s in schedulers {
        g.bench_function(s.name(), |b| {
            b.iter(|| simulate(black_box(&sys), black_box(&wl), s))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
