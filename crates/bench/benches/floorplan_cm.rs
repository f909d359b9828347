//! Criterion bench: automatic multi-PRR floorplanning of the three paper
//! PRMs on the LX110T. (Parsing a configuration stream is timed by
//! `bitstream_io`.)

use criterion::{criterion_group, criterion_main, Criterion};
use fabric::database::xc5vlx110t;
use parflow::autofloorplan::{auto_floorplan, PrrSpec};
use std::hint::black_box;
use synth::PaperPrm;

fn bench_autofloorplan(c: &mut Criterion) {
    let device = xc5vlx110t();
    let specs: Vec<PrrSpec> = PaperPrm::ALL
        .iter()
        .map(|p| PrrSpec::single(p.module_name(), p.synth_report(device.family())))
        .collect();
    c.bench_function("auto_floorplan_3prrs_lx110t", |b| {
        b.iter(|| auto_floorplan(black_box(&specs), &device, 10_000).unwrap())
    });
}

criterion_group!(benches, bench_autofloorplan);
criterion_main!(benches);
