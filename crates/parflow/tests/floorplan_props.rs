//! Property suite for the branch-and-bound auto-floorplanner: structural
//! invariants of every returned floorplan, and exact identity with the
//! frozen seed tree ([`parflow::autofloorplan::reference`]) whenever
//! neither search exhausts its node budget.

use fabric::device_by_name;
use parflow::autofloorplan::reference::auto_floorplan_seed;
use parflow::autofloorplan::{auto_floorplan, AutoFloorplan, AutoFloorplanError, PrrSpec};
use proptest::prelude::*;
use synth::PrmGenerator;

fn random_specs(seeds: &[u64]) -> Vec<PrrSpec> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            PrrSpec::single(
                format!("p{i}"),
                synth::prm::GenericPrm::random(s, 150 + (s as u32 % 37) * 11)
                    .synthesize(fabric::Family::Virtex5),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every returned floorplan satisfies the paper's structural
    /// invariants: PRRs never overlap, each placed window's column mix is
    /// exactly its chosen organization's, and the reported total is the
    /// sum of the per-PRR bitstream predictions.
    #[test]
    fn autofloorplan_structural_invariants(
        seeds in proptest::collection::vec(0u64..256, 1..5),
    ) {
        let device = device_by_name("xc5vsx95t").unwrap();
        let specs = random_specs(&seeds);
        let Ok(plan) = auto_floorplan(&specs, &device, 20_000) else { return Ok(()) };

        prop_assert_eq!(plan.prrs.len(), specs.len());
        for (i, a) in plan.prrs.iter().enumerate() {
            for b in &plan.prrs[i + 1..] {
                prop_assert!(!a.window.overlaps(&b.window), "{} vs {}", a.name, b.name);
            }
        }
        for p in &plan.prrs {
            let counts = p.window.column_counts();
            prop_assert_eq!(counts.clb(), u64::from(p.organization.clb_cols));
            prop_assert_eq!(counts.dsp(), u64::from(p.organization.dsp_cols));
            prop_assert_eq!(counts.bram(), u64::from(p.organization.bram_cols));
            prop_assert_eq!(p.window.height, p.organization.height);
            prop_assert_eq!(
                p.bitstream_bytes,
                prcost::bitstream_size_bytes(&p.organization)
            );
        }
        let sum: u64 = plan.prrs.iter().map(|p| p.bitstream_bytes).sum();
        prop_assert_eq!(plan.total_bitstream_bytes, sum);
        plan.to_floorplan(&device).validate(&device).unwrap();
    }

    /// The live tree returns the seed tree's floorplan — same placements,
    /// same organizations, same total — whenever neither search runs out
    /// of nodes; the node diagnostic is the only field allowed to differ.
    /// Errors must agree in kind. A search that exhausts its budget may
    /// stop on a worse incumbent, or on none, so the two are compared
    /// only when both finished.
    #[test]
    fn live_tree_matches_seed_oracle(
        seeds in proptest::collection::vec(0u64..256, 1..5),
    ) {
        const BUDGET: u64 = 20_000;
        let device = device_by_name("xc5vsx95t").unwrap();
        let specs = random_specs(&seeds);
        let live = auto_floorplan(&specs, &device, BUDGET);
        let seed = auto_floorplan_seed(&specs, &device, BUDGET);
        let exhausted = |r: &Result<AutoFloorplan, AutoFloorplanError>| match r {
            Ok(plan) => plan.nodes_explored >= BUDGET,
            Err(AutoFloorplanError::NoPlacement { nodes_explored }) => *nodes_explored >= BUDGET,
            Err(_) => false,
        };
        if exhausted(&live) || exhausted(&seed) {
            return Ok(());
        }
        match (live, seed) {
            (Ok(l), Ok(s)) => {
                prop_assert_eq!(l.prrs, s.prrs);
                prop_assert_eq!(l.total_bitstream_bytes, s.total_bitstream_bytes);
                prop_assert_eq!(l.device, s.device);
            }
            (Err(le), Err(se)) => {
                prop_assert_eq!(
                    std::mem::discriminant(&le),
                    std::mem::discriminant(&se)
                );
            }
            (l, s) => prop_assert!(false, "live {l:?} vs seed {s:?}"),
        }
    }
}
