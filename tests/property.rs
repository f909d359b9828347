//! Property-based tests over the core invariants (proptest).

use prcost::prr::PrrOrganization as Org;
use prfpga::prelude::*;
use proptest::prelude::*;

fn arb_family() -> impl Strategy<Value = Family> {
    prop_oneof![
        Just(Family::Virtex4),
        Just(Family::Virtex5),
        Just(Family::Virtex6),
        Just(Family::Series7),
        Just(Family::Spartan6),
    ]
}

/// Arbitrary internally consistent synthesis reports, built from the pair
/// breakdown so the slice algebra holds by construction.
fn arb_report() -> impl Strategy<Value = SynthReport> {
    (
        arb_family(),
        0u64..4000,
        0u64..4000,
        0u64..4000,
        0u64..64,
        0u64..32,
    )
        .prop_map(|(family, unused_lut, fully, unused_ff, dsps, brams)| {
            SynthReport::from_breakdown(
                "prop",
                family,
                synth::report::PairBreakdown {
                    unused_lut,
                    fully_used: fully,
                    unused_ff,
                },
                dsps,
                brams,
            )
        })
}

fn arb_org() -> impl Strategy<Value = Org> {
    (arb_family(), 1u32..9, 0u32..24, 0u32..4, 0u32..4)
        .prop_filter("non-empty", |(_, _, c, d, b)| c + d + b > 0)
        .prop_map(|(family, height, clb_cols, dsp_cols, bram_cols)| Org {
            family,
            height,
            clb_cols,
            dsp_cols,
            bram_cols,
        })
}

proptest! {
    /// Every consistent report validates and round-trips its breakdown.
    #[test]
    fn report_breakdown_round_trip(report in arb_report()) {
        report.validate().unwrap();
        let b = report.breakdown().unwrap();
        prop_assert_eq!(b.pairs(), report.lut_ff_pairs);
        prop_assert_eq!(b.luts(), report.luts);
        prop_assert_eq!(b.ffs(), report.ffs);
    }

    /// XST text round-trip is lossless for arbitrary consistent reports.
    #[test]
    fn xst_round_trip(report in arb_report()) {
        let text = synth::xst::write_report(&report, "xcprop");
        let parsed = synth::xst::parse_report(&text).unwrap();
        prop_assert_eq!(parsed, report);
    }

    /// Planning invariants on every device that accepts the PRM: the PRR
    /// covers the requirements, utilizations stay in [0, 100], the placed
    /// window matches the organization, and the chosen candidate minimizes
    /// the predicted bitstream over the trace.
    #[test]
    fn plan_invariants(report in arb_report()) {
        for device in fabric::all_devices() {
            if device.family() != report.family {
                continue;
            }
            let Ok(plan) = plan_prr(&report, &device) else { continue };
            let req = &plan.requirements;
            let avail = plan.organization.available();
            prop_assert!(avail.clb() >= req.clb_req);
            prop_assert!(avail.dsp() >= req.dsp_req);
            prop_assert!(avail.bram() >= req.bram_req);
            for ru in plan.utilization.as_array() {
                prop_assert!((0.0..=100.0).contains(&ru), "RU {ru}");
            }
            let counts = plan.window.column_counts();
            prop_assert_eq!(counts.clb(), u64::from(plan.organization.clb_cols));
            prop_assert_eq!(counts.dsp(), u64::from(plan.organization.dsp_cols));
            prop_assert_eq!(counts.bram(), u64::from(plan.organization.bram_cols));
            let min_feasible = prcost::search::candidates_for(req, &device)
                .iter()
                .filter_map(|c| c.bitstream_bytes())
                .min()
                .unwrap();
            prop_assert_eq!(plan.bitstream_bytes, min_feasible);
        }
    }

    /// The Eq. 18 model equals the generator's output byte-for-byte for
    /// arbitrary organizations (placement synthesized to match).
    #[test]
    fn model_equals_generator(org in arb_org()) {
        // Build a synthetic window with the right composition.
        let mut columns = Vec::new();
        columns.extend(std::iter::repeat_n(ResourceKind::Clb, org.clb_cols as usize));
        columns.extend(std::iter::repeat_n(ResourceKind::Dsp, org.dsp_cols as usize));
        columns.extend(std::iter::repeat_n(ResourceKind::Bram, org.bram_cols as usize));
        let spec = bitstream::BitstreamSpec {
            device: "xcprop".into(),
            module: "prop".into(),
            organization: org,
            start_col: 3,
            start_row: 1,
            columns,
        };
        let bs = bitstream::generate(&spec).unwrap();
        prop_assert_eq!(bs.len_bytes(), prcost::bitstream_size_bytes(&org));

        // And the stream parses back with a valid CRC and H config rows.
        let parsed = bitstream::parser::parse_words(&bs.words, true).unwrap();
        prop_assert!(parsed.crc_ok);
        prop_assert_eq!(parsed.rows_configured(), org.height);
    }

    /// Single-bit corruption anywhere in the frame payload is detected.
    #[test]
    fn corruption_detected(org in arb_org(), flip in 0usize..10_000, bit in 0u32..32) {
        let mut columns = Vec::new();
        columns.extend(std::iter::repeat_n(ResourceKind::Clb, org.clb_cols as usize));
        columns.extend(std::iter::repeat_n(ResourceKind::Dsp, org.dsp_cols as usize));
        columns.extend(std::iter::repeat_n(ResourceKind::Bram, org.bram_cols as usize));
        let spec = bitstream::BitstreamSpec {
            device: "xcprop".into(),
            module: "prop".into(),
            organization: org,
            start_col: 0,
            start_row: 1,
            columns,
        };
        let mut bs = bitstream::generate(&spec).unwrap();
        let geom = &org.family.params().frames;
        // Pick a word strictly inside the first FDRI payload.
        let payload_start = (geom.iw + geom.far_fdri) as usize;
        let payload_len = (prcost::bits::breakdown(&org).config_words_per_row
            - u64::from(geom.far_fdri)) as usize;
        let idx = payload_start + flip % payload_len;
        bs.words[idx] ^= 1 << bit;
        let parsed = bitstream::parser::parse_words(&bs.words, false);
        // An Err is also a detection (the flip corrupted structure).
        if let Ok(p) = parsed {
            prop_assert!(!p.crc_ok, "flip at {idx} undetected");
        }
    }

    /// Bitstream size is monotone: adding a column or a row never shrinks
    /// the predicted bitstream.
    #[test]
    fn bitstream_monotonicity(org in arb_org()) {
        let base = prcost::bitstream_size_bytes(&org);
        let taller = Org { height: org.height + 1, ..org };
        prop_assert!(prcost::bitstream_size_bytes(&taller) > base);
        let wider = Org { clb_cols: org.clb_cols + 1, ..org };
        prop_assert!(prcost::bitstream_size_bytes(&wider) > base);
        let brammier = Org { bram_cols: org.bram_cols + 1, ..org };
        prop_assert!(prcost::bitstream_size_bytes(&brammier) > base);
    }

    /// Netlist round trip: materializing a report and recounting it is
    /// the identity, for arbitrary consistent reports.
    #[test]
    fn netlist_round_trip(report in arb_report(), seed in any::<u64>()) {
        let nl = synth::Netlist::from_report(&report, seed).unwrap();
        let back = nl.to_report();
        prop_assert_eq!(back.lut_ff_pairs, report.lut_ff_pairs);
        prop_assert_eq!(back.luts, report.luts);
        prop_assert_eq!(back.ffs, report.ffs);
        prop_assert_eq!(back.dsps, report.dsps);
        prop_assert_eq!(back.brams, report.brams);
    }

    /// Context save/restore costs are monotone in the PRR organization and
    /// a restore always costs at least a plain bitstream write.
    #[test]
    fn context_cost_invariants(org in arb_org()) {
        let ctx = prcost::context_breakdown(&org);
        prop_assert!(ctx.restore_bytes() >= prcost::bitstream_size_bytes(&org));
        let taller = Org { height: org.height + 1, ..org };
        let bigger = prcost::context_breakdown(&taller);
        prop_assert!(bigger.save_bytes() > ctx.save_bytes());
        prop_assert!(bigger.restore_bytes() > ctx.restore_bytes());
        // Word size follows the family (Spartan-6 = 2 bytes).
        prop_assert_eq!(
            ctx.bytes_per_word,
            u64::from(org.family.params().frames.bytes_word)
        );
    }

    /// The auto-floorplanner never overlaps PRRs and never beats the sum
    /// of each spec's individually optimal plan.
    #[test]
    fn autofloorplan_invariants(seeds in proptest::collection::vec(0u64..64, 1..4)) {
        use parflow::autofloorplan::{auto_floorplan, PrrSpec};
        let device = fabric::device_by_name("xc5vsx95t").unwrap();
        let specs: Vec<PrrSpec> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                PrrSpec::single(
                    format!("p{i}"),
                    synth::prm::GenericPrm::random(s, 200 + (s as u32) * 13)
                        .synthesize(device.family()),
                )
            })
            .collect();
        let Ok(plan) = auto_floorplan(&specs, &device, 5_000) else { return Ok(()) };
        for (i, a) in plan.prrs.iter().enumerate() {
            for b in &plan.prrs[i + 1..] {
                prop_assert!(!a.window.overlaps(&b.window));
            }
        }
        let individual: u64 = specs
            .iter()
            .filter_map(|spec| {
                let req = spec.combined_requirements()?;
                prcost::search::plan_prr_from_requirements(&req, &device)
                    .ok()
                    .map(|p| p.bitstream_bytes)
            })
            .sum();
        prop_assert!(plan.total_bitstream_bytes >= individual);
        plan.to_floorplan(&device).validate(&device).unwrap();
    }

    /// Full-device bitstreams dominate any PRR's partial bitstream on the
    /// same device family (sampled over database devices).
    #[test]
    fn full_bitstream_dominates_partials(org in arb_org()) {
        for device in fabric::all_devices() {
            if device.family() != org.family {
                continue;
            }
            let fits = u64::from(org.clb_cols) <= device.column_counts().clb()
                && u64::from(org.dsp_cols) <= device.column_counts().dsp()
                && u64::from(org.bram_cols) <= device.column_counts().bram()
                && org.height <= device.rows();
            if fits {
                prop_assert!(
                    prcost::bitstream_size_bytes(&org)
                        < prcost::full_bitstream_size_bytes(&device)
                );
            }
        }
    }
}
