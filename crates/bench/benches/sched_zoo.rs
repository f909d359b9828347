//! Criterion bench: the scheduling subsystem — UUniFast task-set
//! generation, reconfiguration-aware admission tests, and one DES pass
//! per scheduler on the mixed PRR pool — plus the full scheduler
//! ablation artifact.
//!
//! Besides the criterion numbers, `results/BENCH_sched.json` is written
//! by running the default-config ablation ([`sched::run_ablation`]):
//! first-fit and reuse-aware × workload class, the admission table, and
//! workload class × defrag policy. The same artifact is reachable from
//! the CLI via `prfpga sched-ablate`.

use criterion::{criterion_group, Criterion};
use fabric::Family;
use sched::{
    response_time_admit, run_ablation, utilization_bound_admit, AblationConfig, TaskSet,
    TaskSetConfig,
};
use std::hint::black_box;

fn bench_sched(c: &mut Criterion) {
    let cfg = TaskSetConfig::default();

    c.bench_function("sched/uunifast_taskset", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(TaskSet::uunifast(seed, Family::Virtex5, &cfg))
        })
    });

    let ts = TaskSet::uunifast(7, Family::Virtex5, &cfg);
    c.bench_function("sched/release_jobs_40ms", |b| {
        b.iter(|| black_box(ts.release_jobs(11, 40_000_000)))
    });

    // 390 µs ≈ the worst reconfiguration on the ablation pool.
    c.bench_function("sched/admission_ub+rta", |b| {
        b.iter(|| {
            black_box(utilization_bound_admit(&ts, 6, 390_000));
            black_box(response_time_admit(&ts, 6, 390_000));
        })
    });

    // One small end-to-end ablation as the macro-benchmark; the artifact
    // below uses the default size.
    let small = AblationConfig {
        tasks: 60,
        horizon_ms: 10,
        admission_sets: 4,
        ..AblationConfig::default()
    };
    c.bench_function("sched/ablation_small", |b| {
        b.iter(|| black_box(run_ablation(&small)))
    });
}

fn emit_artifact() {
    let report = run_ablation(&AblationConfig::default());
    println!(
        "scheduler ablation on {} ({} PRRs)",
        report.device,
        report.prrs.len(),
    );
    for r in &report.rows {
        println!(
            "{:<14} {:<16} miss {:.3} resp {:>8.3} ms reuse {:.3}",
            r.class, r.scheduler, r.deadline_miss_ratio, r.mean_response_ms, r.reuse_rate,
        );
    }
    bench::write_json("BENCH_sched", &report);
}

criterion_group!(benches, bench_sched);

// A custom main instead of criterion_main! so the artifact emitter runs
// after the criterion group.
fn main() {
    benches();
    emit_artifact();
}
