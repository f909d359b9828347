//! Property tests for the batch planning engine: planning through the
//! memoized [`Engine`] must be indistinguishable — byte for byte — from
//! synthesizing and planning directly, for any subset of generators and
//! devices in any order, and the engine's metrics must stay consistent
//! when it is driven from many threads at once.

use prfpga::prelude::*;
use proptest::prelude::*;
use synth::prm::{AesEngine, FftCore, FirFilter, MipsCore, SdramController, Uart};

fn generator(index: usize) -> Box<dyn PrmGenerator + Sync> {
    match index % 6 {
        0 => Box::new(FirFilter::paper()),
        1 => Box::new(MipsCore::paper()),
        2 => Box::new(SdramController::paper()),
        3 => Box::new(Uart::standard()),
        4 => Box::new(AesEngine::standard()),
        _ => Box::new(FftCore::standard()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For a random sequence of (generator, device) evaluations, the
    /// engine's answer equals the direct `synthesize` + `plan_prr` answer
    /// on every point — plans compare equal in full, including windows
    /// and search traces, and errors agree on feasibility.
    #[test]
    fn engine_equals_direct_planning(
        picks in proptest::collection::vec((0usize..6, 0usize..13), 1..24)
    ) {
        let devices = fabric::all_devices();
        let engine = Engine::new();
        for (g, d) in picks {
            let gen = generator(g);
            let device = &devices[d % devices.len()];
            let direct_report = gen.synthesize(device.family());
            let engine_report = {
                // Engine-memoized synthesis must return the same report.
                let r = prcost::Engine::synthesize(&engine, gen.as_ref(), device.family());
                prop_assert_eq!(&r, &direct_report);
                r
            };
            let direct = plan_prr(&direct_report, device);
            let via_engine = engine.plan(&engine_report, device);
            match (direct, via_engine) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(
                    false,
                    "feasibility mismatch: direct={:?} engine={:?}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }

    /// Scratch reuse must not leak state between plans: planning the same
    /// points with one long-lived scratch equals planning each with a
    /// fresh one.
    #[test]
    fn scratch_reuse_is_stateless(
        picks in proptest::collection::vec((0usize..6, 0usize..13), 1..16)
    ) {
        let devices = fabric::all_devices();
        let engine = Engine::new();
        let mut shared = PlanScratch::default();
        for (g, d) in picks {
            let gen = generator(g);
            let device = &devices[d % devices.len()];
            let req = PrrRequirements::from_report(&gen.synthesize(device.family()));
            let geometry = engine.geometry(device);
            let reused = prcost::plan_requirements_cached(&req, device, &geometry, &mut shared);
            let fresh = prcost::plan_requirements_cached(
                &req,
                device,
                &geometry,
                &mut PlanScratch::default(),
            );
            prop_assert_eq!(reused.is_ok(), fresh.is_ok());
            if let (Ok(a), Ok(b)) = (reused, fresh) {
                prop_assert_eq!(a, b);
            }
        }
    }
}

/// Counters bumped concurrently from many threads must sum exactly: the
/// engine's snapshot accounts for every synthesis request, every plan,
/// and every window query, with hits + misses adding up.
#[test]
fn metrics_are_consistent_across_threads() {
    let devices = fabric::all_devices();
    let engine = Engine::new();
    let threads = 8;
    let per_thread = 20;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let engine = &engine;
            let devices = &devices;
            scope.spawn(move || {
                for i in 0..per_thread {
                    let gen = generator(t + i);
                    let device = &devices[(t * per_thread + i) % devices.len()];
                    let report = engine.synthesize(gen.as_ref(), device.family());
                    let _ = engine.plan(&report, device);
                }
            });
        }
    });

    let c = engine.snapshot().counters;
    let total = (threads * per_thread) as u64;
    assert_eq!(
        c.synth_calls + c.synth_cache_hits,
        total,
        "every synth request accounted"
    );
    assert_eq!(c.plans, total);
    assert_eq!(c.plans_feasible + c.plans_infeasible, c.plans);
    assert_eq!(
        c.plan_builds + c.plan_cache_hits,
        c.plans,
        "every plan either built its memo entry or hit one"
    );
    // Every plan resolves its device through the interner exactly once.
    assert_eq!(c.geometry_builds + c.geometry_cache_hits, c.plans);
    assert!(c.geometry_builds <= devices.len() as u64);
    // Each distinct (generator, family) synthesizes at most once.
    assert!(
        c.synth_calls <= 6 * 5,
        "synth calls bounded by generators x families"
    );
    assert!(c.window_probes > 0);
    // Every interned geometry carries a fixed, non-empty composition index.
    assert!(c.distinct_compositions > 0);
    assert!(c.geometry_builds <= c.distinct_compositions);
}
