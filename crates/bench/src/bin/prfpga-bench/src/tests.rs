//! Smoke tests: every workload at a tiny size through the same code the
//! benchmark runs.

use crate::harness::{judge, quartiles, Verdict};
use crate::spec::Spec;
use crate::workloads::{self, Kind, Workload, ALL, PER_LAYER};
use std::collections::BTreeSet;

fn tiny(kind: Kind) -> Workload {
    let unit = match kind {
        Kind::StreamHot | Kind::StreamWide => 5_000,
        Kind::DseCold => 12,
        Kind::LayoutDefrag => 400,
    };
    Workload {
        kind,
        unit,
        warmup: 1,
    }
}

#[test]
fn benchmark_json_matches_the_program() {
    let spec = Spec::load().unwrap();
    let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    let per_layer: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(per_layer, PER_LAYER);
    assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let spec = Spec::load().unwrap();
    // `setup_s` comes from fresh `cold` processes, not from `execute`.
    let end_to_end: BTreeSet<&str> = spec
        .end_to_end
        .iter()
        .map(|m| m.name.as_str())
        .filter(|&m| m != "setup_s")
        .collect();
    let per_layer: BTreeSet<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
    for kind in ALL.map(|w| w.kind) {
        let w = tiny(kind);
        assert_eq!(
            workloads::cold_unit(&w, 7, 0),
            workloads::items_per_unit(&w),
            "{} cold unit",
            w.name()
        );
        let run = workloads::execute(w, 7, 0.0, false);
        assert_eq!(run.failed, 0, "{}", w.name());
        assert!(run.attempted > 0);
        assert_eq!(
            run.metrics.keys().copied().collect::<BTreeSet<_>>(),
            end_to_end
        );
        for (name, v) in &run.metrics {
            assert!(v.is_finite() && *v > 0.0, "{} {name} = {v}", w.name());
        }

        let traced = workloads::execute(w, 7, 0.0, true);
        assert_eq!(traced.failed, 0, "{} traced", w.name());
        assert_eq!(
            traced.metrics.keys().copied().collect::<BTreeSet<_>>(),
            per_layer
        );
        assert!(traced.metrics.values().all(|v| v.is_finite()));
        assert!(!traced.detail.is_empty());
        if matches!(kind, Kind::StreamHot | Kind::StreamWide) {
            let attributed = traced.metrics["trace.attributed_frac"];
            assert!(attributed > 0.5 && attributed <= 1.0, "{attributed}");
            let shares: f64 = ["synth", "plan", "emit", "sim", "handoff"]
                .iter()
                .map(|l| traced.metrics[format!("{l}.share").as_str()])
                .sum();
            assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        }
    }
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
}

#[test]
fn judge_applies_the_bound_and_the_spread_rule() {
    let spec = Spec::load().unwrap();
    let rate = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "items_per_s")
        .unwrap();
    let bound = rate.bound.unwrap();
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    let scaled = |f: f64| base.map(|x| x * f);
    assert_eq!(judge(rate, &scaled(1.0), &base), Verdict::Unchanged);
    assert_eq!(
        judge(rate, &scaled(1.0 - 1.5 * bound), &base),
        Verdict::Regressed
    );
    assert_eq!(
        judge(rate, &scaled(1.0 + 1.5 * bound), &base),
        Verdict::Improved
    );
    let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
    assert_eq!(judge(rate, &noisy, &base), Verdict::Unresolved);
    // Every run better than every baseline run wins despite the spread.
    let better_noisy = [200.0, 400.0, 300.0, 210.0, 390.0];
    assert_eq!(judge(rate, &better_noisy, &base), Verdict::Improved);
}

#[test]
fn setup_changes_under_the_floor_are_unchanged() {
    let spec = Spec::load().unwrap();
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .unwrap();
    // Twice as slow, but by 0.2 ms: under the 5 ms floor.
    let base = [0.0002, 0.00021, 0.00019, 0.0002, 0.000205];
    let slower = base.map(|x| x * 2.0 + 0.00001);
    assert!(slower.iter().all(|s| base.iter().all(|b| s > b)));
    assert_eq!(judge(setup, &slower, &base), Verdict::Unchanged);
    // The same relative change on a 50 ms set-up is past the floor.
    let (base, slower) = (base.map(|x| x * 250.0), slower.map(|x| x * 250.0));
    assert_eq!(judge(setup, &slower, &base), Verdict::Regressed);
}
