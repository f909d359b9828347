//! Property and acceptance suites for the online layout manager.
//!
//! Three layers of ground truth:
//! * [`layout::FreeSpace`] must agree — placements, occupancy, every
//!   fragmentation metric — with the brute-force occupancy grid
//!   [`layout::NaiveFreeSpace`] under arbitrary allocate/release churn on
//!   arbitrary devices;
//! * every relocation the dynamic simulator logs must replay through the
//!   *real* `bitstream::relocate` (regenerated stream, FAR rewrite,
//!   round-trip back), and its ICAP charge must equal
//!   `IcapModel::transfer_time` over the module's Eq. 18 predicted bytes;
//! * with the layout manager disabled the fixed-PRR simulator is
//!   untouched: report-identical to the frozen seed implementation in
//!   `multitask::sim::reference`.

use bitstream::{generate, relocate, BitstreamSpec, IcapModel};
use fabric::{Device, Family, ResourceKind, Window, WindowRequest};
use layout::{simulate_layout, DefragPolicy, FreeSpace, LayoutConfig, NaiveFreeSpace};
use multitask::sim::reference::{simulate_seed, SeedPolicy};
use multitask::{simulate, BestFit, FirstFit, PrSystem, ReuseAware, Workload};
use prcost::{bitstream_size_bytes, PrrOrganization};
use proptest::prelude::*;

fn arb_device() -> impl Strategy<Value = Device> {
    (
        proptest::collection::vec(
            prop_oneof![
                6 => Just(ResourceKind::Clb),
                1 => Just(ResourceKind::Dsp),
                1 => Just(ResourceKind::Bram),
                1 => Just(ResourceKind::Iob),
                1 => Just(ResourceKind::Clk),
            ],
            1..200,
        ),
        1u32..9,
    )
        .prop_map(|(cols, rows)| Device::new("prop", Family::Virtex5, rows, cols).expect("device"))
}

/// One step of free-space churn: try to place a request, or free the
/// n-th oldest live window.
#[derive(Debug, Clone)]
enum Op {
    Place {
        clb: u32,
        dsp: u32,
        bram: u32,
        height: u32,
    },
    Free {
        slot: usize,
    },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0u32..6, 0u32..2, 0u32..2, 1u32..9).prop_map(|(clb, dsp, bram, height)| Op::Place {
                clb, dsp, bram, height,
            }),
            // Wide requests: windows that reach past column 64 and span
            // row words.
            1 => (0u32..140, 0u32..3, 0u32..3, 1u32..4).prop_map(|(clb, dsp, bram, height)| Op::Place {
                clb, dsp, bram, height,
            }),
            1 => (0usize..8).prop_map(|slot| Op::Free { slot }),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The row-bitset structure and the brute-force occupancy grid agree
    /// on every placement decision and every fragmentation metric, at
    /// every step of an arbitrary churn, on devices up to 199 columns
    /// (four words per row) and 8 rows.
    #[test]
    fn free_space_matches_naive_oracle(device in arb_device(), ops in arb_ops()) {
        let mut fast = FreeSpace::new(&device);
        let mut naive = NaiveFreeSpace::new(&device);
        let mut live: Vec<Window> = Vec::new();
        for op in ops {
            match op {
                Op::Place { clb, dsp, bram, height } => {
                    let req = WindowRequest::new(clb, dsp, bram, height);
                    let a = fast.find_window(&req);
                    let b = naive.find_window(&req);
                    prop_assert_eq!(&a, &b, "placement diverged for {:?}", req);
                    if let Some(w) = a {
                        fast.allocate(&w);
                        naive.allocate(&w);
                        live.push(w);
                    }
                }
                Op::Free { slot } => {
                    if live.is_empty() {
                        continue;
                    }
                    let w = live.remove(slot % live.len());
                    fast.release(&w);
                    naive.release(&w);
                }
            }
            prop_assert_eq!(fast.total_free_cells(), naive.total_free_cells());
            prop_assert_eq!(fast.free_cells_by_kind(), naive.free_cells_by_kind());
            prop_assert_eq!(fast.largest_free_rect(), naive.largest_free_rect());
            prop_assert_eq!(fast.fragmentation_index().to_bits(), naive.fragmentation_index().to_bits());
        }
    }
}

/// The pinned fragmentation-inducing workload of the acceptance
/// criterion: heavy-tailed module sizes on xc5vlx110t. Chosen by seed
/// sweep; regenerating it is fully deterministic. (Re-pinned from seed
/// 12 to 24 when `Rng::from_seed` gained seed mixing and the generator
/// streams changed.)
fn pinned_workload() -> (Device, Workload) {
    let device = fabric::database::xc5vlx110t();
    let workload =
        Workload::generate_heavy_tailed(24, Family::Virtex5, 200, 16, 1500, 40_000, 400_000);
    (device, workload)
}

#[test]
fn defrag_admits_strictly_more_on_heavy_tailed_workload() {
    let (device, workload) = pinned_workload();
    let never = simulate_layout(&device, &workload, &LayoutConfig::default());
    let always = simulate_layout(
        &device,
        &workload,
        &LayoutConfig {
            policy: DefragPolicy::Always,
            ..LayoutConfig::default()
        },
    );
    assert_eq!(never.relocations, 0, "Never must not move anything");
    assert!(never.rejected_fragmentation > 0, "workload must fragment");
    assert!(
        always.admitted > never.admitted,
        "defrag must admit strictly more ({} vs {})",
        always.admitted,
        never.admitted
    );
    assert!(always.relocations > 0);
    assert_eq!(always.relocation_log.len(), always.relocations as usize);
}

#[test]
fn logged_relocations_replay_through_real_bitstream_relocate() {
    let (device, workload) = pinned_workload();
    let config = LayoutConfig {
        policy: DefragPolicy::Always,
        ..LayoutConfig::default()
    };
    let report = simulate_layout(&device, &workload, &config);
    assert!(!report.relocation_log.is_empty());

    let mut charged = 0u64;
    for ev in &report.relocation_log {
        // The ICAP charge is exactly the Eq. 18–23 predicted bytes
        // through the configured port model.
        assert_eq!(ev.bytes, bitstream_size_bytes(&ev.organization));
        let transfer = config.icap.transfer_time(ev.bytes).as_nanos() as u64;
        assert_eq!(ev.transfer_ns, transfer);
        charged += transfer;

        // Regenerate the moved module's stream at its source window and
        // push it through the real relocator: the move must validate,
        // and moving back must be the byte-for-byte identity.
        let width = ev.organization.width() as usize;
        let window = |col: u32, row: u32| Window {
            start_col: col as usize,
            width: width as u32,
            row,
            height: ev.organization.height,
            columns: device.columns()[col as usize..col as usize + width].to_vec(),
        };
        let from = window(ev.from_col, ev.from_row);
        let to = window(ev.to_col, ev.to_row);
        assert!(
            bitstream::compatible(&from, &to),
            "incompatible move logged"
        );
        let spec = BitstreamSpec::from_plan(device.name(), &ev.module, ev.organization, &from);
        let bs = generate(&spec).unwrap();
        let moved = relocate(&bs, &device, &to).unwrap();
        let back = relocate(&moved, &device, &from).unwrap();
        assert_eq!(
            back.words, bs.words,
            "relocation round-trip is the identity"
        );
    }
    assert_eq!(
        report.relocation_ns, charged,
        "total relocation time must equal the summed ICAP transfers"
    );
}

#[test]
fn threshold_policy_is_bounded_by_never_and_always() {
    let (device, workload) = pinned_workload();
    let run = |policy| {
        simulate_layout(
            &device,
            &workload,
            &LayoutConfig {
                policy,
                ..LayoutConfig::default()
            },
        )
    };
    let never = run(DefragPolicy::Never);
    let threshold = run(DefragPolicy::Threshold(10.0));
    let always = run(DefragPolicy::Always);
    assert!(threshold.admitted >= never.admitted);
    assert!(always.admitted >= threshold.admitted);
}

/// With the layout manager disabled nothing in the fixed-PRR path
/// changed: the live simulator still produces reports bit-identical to
/// the frozen seed implementation, scheduler by scheduler.
#[test]
fn fixed_prr_simulator_is_untouched_when_layout_disabled() {
    let device = fabric::database::xc5vlx110t();
    let org = PrrOrganization {
        family: Family::Virtex5,
        height: 2,
        clb_cols: 6,
        dsp_cols: 1,
        bram_cols: 1,
    };
    let system = PrSystem::homogeneous(&device, org, 4, IcapModel::V5_DMA).unwrap();
    for seed in [3u64, 12, 21] {
        let workload = system.filter_workload(&Workload::generate(
            seed,
            Family::Virtex5,
            150,
            10,
            400,
            8_000,
            120_000,
        ));
        assert_eq!(
            simulate(&system, &workload, &FirstFit),
            simulate_seed(&system, &workload, SeedPolicy::FirstFit)
        );
        assert_eq!(
            simulate(&system, &workload, &BestFit),
            simulate_seed(&system, &workload, SeedPolicy::BestFit)
        );
        assert_eq!(
            simulate(&system, &workload, &ReuseAware),
            simulate_seed(&system, &workload, SeedPolicy::ReuseAware)
        );
    }
}
