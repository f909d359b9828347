//! Cross-crate pipeline test: synthesis text round-trip -> cost models ->
//! simulated flow -> bitstream generation/parsing -> multitasking, all on
//! a non-paper PRM and a non-paper device (the portability claim).

use multitask::ReuseAware;
use prfpga::prelude::*;
use synth::prm::{AesEngine, FftCore};

#[test]
fn aes_on_kintex7_full_pipeline() {
    let device = fabric::device_by_name("xc7k325t").unwrap();

    // Synthesize and push through the XST text form (designer interface).
    let aes = AesEngine::standard();
    let report = aes.synthesize(device.family());
    let text = synth::xst::write_report(&report, device.name());
    let parsed = synth::xst::parse_report(&text).unwrap();
    assert_eq!(parsed, report);

    // Cost models.
    let eval = prfpga::evaluate_prm(&parsed, &device).unwrap();
    assert_eq!(eval.bitstream.len_bytes(), eval.plan.bitstream_bytes);
    assert!(
        eval.plan.organization.bram_cols > 0,
        "AES S-boxes land in BRAM"
    );

    // Full simulated flow in the model-predicted PRR.
    let (rep, bs) = run_flow(&aes, &device, &FlowOptions::fast(23)).unwrap();
    assert!(rep.route.routed);
    assert_eq!(bs.len_bytes(), rep.plan.bitstream_bytes);

    // The generated stream parses and carries one config write per row.
    let parsed_bs = bitstream::parse(&bs.to_bytes(), true).unwrap();
    assert!(parsed_bs.crc_ok);
    assert_eq!(parsed_bs.rows_configured(), rep.plan.organization.height);
}

#[test]
fn fft_sweep_is_monotone_in_cost() {
    let device = fabric::device_by_name("xc5vsx95t").unwrap();
    let mut last_bytes = 0u64;
    for points in [256u32, 1024, 4096] {
        let fft = FftCore::new(points, 16);
        let plan = plan_prr(&fft.synthesize(device.family()), &device).unwrap();
        assert!(
            plan.bitstream_bytes >= last_bytes,
            "{points}-point FFT bitstream shrank: {} < {last_bytes}",
            plan.bitstream_bytes
        );
        last_bytes = plan.bitstream_bytes;
    }
}

#[test]
fn multitask_uses_model_planned_prrs() {
    let device = fabric::device_by_name("xc5vsx95t").unwrap();

    // Plan a PRR for the largest of a set of modules, then build a system
    // of those PRRs and run a workload of the same modules.
    let reports: Vec<SynthReport> = (0..6)
        .map(|i| synth::prm::GenericPrm::random(i, 400).synthesize(device.family()))
        .collect();
    let shared = plan_shared_prr(&reports, &device).unwrap();
    let sys =
        PrSystem::homogeneous(&device, shared.plan.organization, 2, IcapModel::V5_DMA).unwrap();

    // Alternate between two modules so a 2-PRR system can actually hit
    // bitstream reuse (cycling more modules than PRRs never re-matches).
    let mut modules = multitask::ModuleTable::new();
    let ids = [0, 1].map(|i| modules.intern(&reports[i].module));
    let tasks: Vec<multitask::HwTask> = (0..60)
        .map(|i| {
            let m = (i % 2) as usize;
            multitask::HwTask::from_report(i, ids[m], &reports[m], u64::from(i) * 1_000, 50_000)
        })
        .collect();
    let wl = Workload::new(tasks, modules);
    let r = simulate(&sys, &wl, &ReuseAware);
    assert_eq!(
        r.completed, 60,
        "every task fits a PRR planned for the set's maximum"
    );
    assert!(r.reuse_hits > 0, "cycling modules should hit reuse");
}

#[test]
fn family_portability_all_database_devices() {
    // A modest mixed requirement (fits one DSP and one BRAM column on any
    // family) must plan on every database part — the models are
    // family-agnostic given the Table II/IV constants.
    for device in fabric::all_devices() {
        let req = PrrRequirements::new(device.family(), 200, 180, 90, 2, 2);
        let plan = prcost::search::plan_prr_from_requirements(&req, &device)
            .unwrap_or_else(|e| panic!("{}: {e}", device.name()));
        assert_eq!(plan.organization.dsp_cols, 1, "{}", device.name());
        assert_eq!(plan.organization.bram_cols, 1, "{}", device.name());
        assert_eq!(
            plan.bitstream_bytes % u64::from(device.params().frames.bytes_word),
            0
        );
    }
}
