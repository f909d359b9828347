//! Regenerate Fig. 1: the flow that derives a PRR size/organization from
//! the synthesis report, shown as the candidate-by-candidate search trace
//! for FIR on the Virtex-5 LX110T (the most interesting case: Eq. 4 rules
//! out H=1..3, H=4 and up are feasible, H=5 minimizes the bitstream).

use fabric::database::xc5vlx110t;
use prcost::search::{candidates_for, plan_prr, CandidateOutcome, SearchTrace};
use synth::PaperPrm;

fn main() {
    let device = xc5vlx110t();
    let report = PaperPrm::Fir.synth_report(device.family());
    let plan = plan_prr(&report, &device).unwrap();

    println!(
        "Fig. 1 — PRR search flow for {} on {}",
        report.module,
        device.name()
    );
    println!(
        "inputs: LUT_FF_req={} DSP_req={} BRAM_req={} -> CLB_req={}",
        report.lut_ff_pairs, report.dsps, report.brams, plan.requirements.clb_req
    );
    println!(
        "device: R={} rows, {} DSP column(s) (Eq. 4 applies: {})\n",
        device.rows(),
        device.dsp_column_count(),
        device.dsp_column_count() == 1
    );

    let trace = SearchTrace {
        device: device.name().to_string(),
        candidates: candidates_for(&plan.requirements, &device),
    };
    let mut rows = Vec::new();
    for c in &trace.candidates {
        let (org, window, bytes, verdict) = match &c.outcome {
            CandidateOutcome::Feasible {
                organization,
                window,
                bitstream_bytes,
                ..
            } => (
                format!(
                    "W_CLB={} W_DSP={} W_BRAM={}",
                    organization.clb_cols, organization.dsp_cols, organization.bram_cols
                ),
                format!("col {}..{}", window.start_col, window.end_col() - 1),
                bitstream_bytes.to_string(),
                if c.height == plan.organization.height {
                    "SELECTED".to_string()
                } else {
                    "feasible".to_string()
                },
            ),
            CandidateOutcome::DspRowsInsufficient { min_height } => (
                "-".into(),
                "-".into(),
                "-".into(),
                format!("infeasible: H_DSP needs H>={min_height}"),
            ),
            CandidateOutcome::NoWindow { organization } => (
                format!(
                    "W_CLB={} W_DSP={} W_BRAM={}",
                    organization.clb_cols, organization.dsp_cols, organization.bram_cols
                ),
                "-".into(),
                "-".into(),
                "infeasible: no contiguous window".to_string(),
            ),
        };
        rows.push(vec![c.height.to_string(), org, window, bytes, verdict]);
    }
    print!(
        "{}",
        bench::render_table(
            "search trace (one row per candidate H)",
            &[
                "H",
                "organization (Eqs. 2-6)",
                "placement",
                "S_bitstream (Eq. 18)",
                "verdict"
            ],
            &rows,
        )
    );
    println!(
        "\nselected: H={} W={} PRR_size={} S_bitstream={} bytes",
        plan.organization.height,
        plan.organization.width(),
        plan.organization.prr_size(),
        plan.bitstream_bytes
    );
    bench::write_json("fig1", &trace);
}
