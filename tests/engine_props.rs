//! Property tests for the batch planning engine: planning through the
//! memoized [`Engine`] must be indistinguishable — byte for byte — from
//! synthesizing and planning directly, for any subset of generators and
//! devices in any order; an engine's exported memo state must survive a
//! JSON persist → reload round trip; and the engine's metrics must stay
//! consistent when it is driven from many threads at once.

use prfpga::prelude::*;
use proptest::prelude::*;
use synth::prm::{AesEngine, FftCore, FirFilter, MipsCore, SdramController, Uart};
use synth::GenericPrm;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On every database device, the engine's plan for random
    /// requirements equals the direct search's, and both are
    /// `candidates_for`'s feasible candidate with the least
    /// `(bytes, PRR_size, H)`: its organization, window and bytes. When no
    /// candidate is feasible, both errors carry `candidates_for` as their
    /// trace. The ranges reach exact fits, padded fits and no fit.
    #[test]
    fn plans_are_the_least_feasible_candidate(
        lut_ff in 0u64..30_000,
        dsp in 0u64..120,
        bram in 0u64..80,
    ) {
        let engine = Engine::new();
        let mut scratch = PlanScratch::default();
        for device in fabric::all_devices() {
            let req = PrrRequirements::new(device.family(), lut_ff, lut_ff, lut_ff, dsp, bram);
            let direct = prcost::search::plan_prr_from_requirements(&req, &device);
            let via_engine = engine.plan_requirements(&req, &device, &mut scratch);
            prop_assert_eq!(&*via_engine, &direct, "{}", device.name());
            let candidates = prcost::search::candidates_for(&req, &device);
            let least = candidates
                .iter()
                .filter_map(|c| match &c.outcome {
                    prcost::search::CandidateOutcome::Feasible {
                        organization,
                        window,
                        bitstream_bytes,
                        ..
                    } => Some((
                        (*bitstream_bytes, organization.prr_size(), c.height),
                        organization,
                        window,
                    )),
                    _ => None,
                })
                .min_by_key(|(key, ..)| *key);
            match (&direct, least) {
                (Ok(plan), Some(((bytes, ..), organization, window))) => {
                    prop_assert_eq!(&plan.organization, organization);
                    prop_assert_eq!(&plan.window, window);
                    prop_assert_eq!(plan.bitstream_bytes, bytes);
                }
                (Err(prcost::CostError::NoFeasiblePlacement { device: name, trace }), None) => {
                    prop_assert_eq!(name, device.name());
                    prop_assert_eq!(&trace.device, device.name());
                    prop_assert_eq!(&trace.candidates, &candidates);
                }
                (plan, least) => prop_assert!(
                    false,
                    "{}: plan {:?}, least candidate {:?}",
                    device.name(),
                    plan,
                    least
                ),
            }
        }
    }
}

/// [`generator`]'s mix plus two oversized generics whose requirements
/// exceed every device, so their plans memoize as `Err`.
fn generator_or_oversized(index: usize) -> Box<dyn PrmGenerator + Sync> {
    match index % 8 {
        6 => Box::new(GenericPrm::random(997, 400_000)),
        7 => Box::new(GenericPrm::random(499, 900_000)),
        feasible => generator(feasible),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Persist → reload round trip: an engine's exported memo state — its
    /// devices and the keys of its plans, `Ok` and `Err` alike — survives
    /// JSON serialization exactly. The restored engine, which re-planned
    /// every key on import, re-exports the identical snapshot, serves
    /// every original point from its memo without a build, and its
    /// answers equal the originals.
    #[test]
    fn snapshot_persist_reload_round_trips(
        picks in proptest::collection::vec((0usize..8, 0usize..13), 1..20),
    ) {
        let devices = fabric::all_devices();
        let engine = Engine::new();
        let mut points = Vec::new();
        for &(g, d) in &picks {
            let device = &devices[d % devices.len()];
            let gen = generator_or_oversized(g);
            let report = engine.synthesize(gen.as_ref(), device.family());
            let result = engine.plan(&report, device);
            points.push((report, device.clone(), result));
        }

        let exported = engine.export_state();
        let json = serde_json::to_string(&exported).expect("snapshot serializes");
        let decoded: prcost::EngineSnapshot =
            serde_json::from_str(&json).expect("snapshot deserializes");
        let restored = Engine::import_state(&decoded).expect("snapshot imports");

        // Byte-identical re-export (same devices, same sorted records).
        let reexported = restored.export_state();
        let rejson = serde_json::to_string(&reexported).expect("re-export serializes");
        prop_assert_eq!(&json, &rejson);

        // Every original point is served from the restored memo.
        for (report, device, expect) in &points {
            let got = restored.plan(report, device);
            prop_assert_eq!(&got, expect);
        }
        let c = restored.snapshot().counters;
        prop_assert_eq!(c.plan_builds, 0, "the restored memo served every plan");
        prop_assert_eq!(c.plan_cache_hits, points.len() as u64);
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
