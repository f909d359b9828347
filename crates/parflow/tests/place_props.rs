//! Equivalence suite for the incremental annealing placer, mirroring
//! `multitask/tests/sim_props.rs`: the allocation-free x16 fixed-point
//! move loop must agree *exactly* with the full-recompute cost oracle in
//! [`parflow::place::reference`] — at every accepted move, not just at the
//! end — over random netlists, windows and seeds.

use fabric::grid::SiteGrid;
use fabric::{device_by_name, Device};
use parflow::place::{place, place_audited, place_with_scratch, reference};
use parflow::{PlaceScratch, PlacerConfig};
use proptest::prelude::*;
use synth::{Netlist, PrmGenerator, SynthReport};

/// A random PRM report planned onto a PRR window of `device`, or `None`
/// when the draw is infeasible on the device.
fn planned(device: &Device, prm_seed: u64, scale: u32) -> Option<(SynthReport, prcost::PrrPlan)> {
    let report = synth::prm::GenericPrm::random(prm_seed, scale).synthesize(device.family());
    let plan = prcost::plan_prr(&report, device).ok()?;
    Some((report, plan))
}

fn cfg(seed: u64, chains: u32, moves_per_cell: u32) -> PlacerConfig {
    PlacerConfig {
        seed,
        chains,
        moves_per_cell,
        ..PlacerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The audited placer recomputes the total via
    /// `reference::total_cost_x16` after **every accepted move** and
    /// panics on divergence; surviving the run is the proof. The final
    /// reported cost must also equal the frozen full recompute of the
    /// returned assignment.
    #[test]
    fn incremental_cost_equals_reference_recompute(
        prm_seed in 0u64..1024,
        scale in 40u32..400,
        net_seed in 0u64..64,
        placer_seed in 0u64..64,
        chains in 1u32..3,
        moves_per_cell in 1u32..8,
    ) {
        let device = device_by_name("xc5vsx95t").unwrap();
        let Some((report, plan)) = planned(&device, prm_seed, scale) else { return Ok(()) };
        let netlist = Netlist::from_report(&report, net_seed).unwrap();
        let grid = SiteGrid::new(&device);
        let placement = place_audited(
            &netlist,
            &grid,
            &plan.window,
            &cfg(placer_seed, chains, moves_per_cell),
        )
        .unwrap();
        prop_assert_eq!(
            placement.hpwl,
            reference::placement_cost_x16(&netlist, &grid, &plan.window, &placement)
        );
    }

    /// Placement structure: every cell gets its own slot (no
    /// double-booking) and the placer is deterministic per seed, whether
    /// the scratch is fresh or reused across unrelated instances.
    #[test]
    fn placements_are_injective_deterministic_and_scratch_invariant(
        prm_seeds in proptest::collection::vec((0u64..1024, 40u32..300), 1..4),
        placer_seed in 0u64..64,
    ) {
        let device = device_by_name("xc6vlx75t").unwrap();
        let grid = SiteGrid::new(&device);
        let mut scratch = PlaceScratch::new();
        for (prm_seed, scale) in prm_seeds {
            let Some((report, plan)) = planned(&device, prm_seed, scale) else { continue };
            let netlist = Netlist::from_report(&report, prm_seed).unwrap();
            let config = cfg(placer_seed, 2, 4);
            let fresh = place(&netlist, &grid, &plan.window, &config).unwrap();
            // Injectivity: no two cells share a slot.
            let mut used: Vec<u32> = fresh.cell_slots.clone();
            used.sort_unstable();
            let before = used.len();
            used.dedup();
            prop_assert_eq!(used.len(), before, "cells share a slot");
            prop_assert_eq!(fresh.cell_slots.len(), netlist.cells.len());
            // Determinism and scratch-reuse invariance.
            let reused = place_with_scratch(&netlist, &grid, &plan.window, &config, &mut scratch)
                .unwrap();
            prop_assert_eq!(&fresh, &reused);
            let again = place(&netlist, &grid, &plan.window, &config).unwrap();
            prop_assert_eq!(&fresh, &again);
        }
    }

    /// With zero moves the placer returns its greedy initial placement,
    /// whose cost the chain seeds from one full scan of the net boxes:
    /// that starting total must equal the oracle's recompute.
    #[test]
    fn zero_move_placement_cost_equals_reference_recompute(
        prm_seed in 0u64..512,
        scale in 40u32..300,
    ) {
        let device = device_by_name("xc5vsx95t").unwrap();
        let Some((report, plan)) = planned(&device, prm_seed, scale) else { return Ok(()) };
        let netlist = Netlist::from_report(&report, prm_seed).unwrap();
        let grid = SiteGrid::new(&device);
        let config = cfg(7, 1, 0);
        let greedy = place(&netlist, &grid, &plan.window, &config).unwrap();
        prop_assert_eq!(
            greedy.hpwl,
            reference::placement_cost_x16(&netlist, &grid, &plan.window, &greedy)
        );
    }
}
