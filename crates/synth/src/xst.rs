//! XST-style synthesis report text: writer and parser.
//!
//! The paper's methodology is "synthesize the PRM with XST, read five
//! numbers out of the report, feed them to the formulas". This module
//! reproduces that interface: [`write_report`] renders a `.syr`-style
//! *Device utilization summary* and [`parse_report`] recovers a
//! [`SynthReport`] from one, so the cost models can be driven from report
//! files exactly as a designer would drive them.

use crate::report::SynthReport;
use core::fmt;
use fabric::Family;

/// Errors from [`parse_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XstParseError {
    /// A required line was missing from the report.
    MissingField(&'static str),
    /// A count could not be parsed as an integer.
    BadCount {
        /// The field whose value was malformed.
        field: &'static str,
        /// The offending text.
        text: String,
    },
    /// The family string was not recognized.
    UnknownFamily(String),
    /// The recovered numbers violate the slice-pair algebra.
    Inconsistent(crate::report::ReportError),
}

impl fmt::Display for XstParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XstParseError::MissingField(k) => write!(f, "report is missing `{k}`"),
            XstParseError::BadCount { field, text } => {
                write!(f, "could not parse count for `{field}` from {text:?}")
            }
            XstParseError::UnknownFamily(s) => write!(f, "unknown family {s:?}"),
            XstParseError::Inconsistent(e) => write!(f, "inconsistent report: {e}"),
        }
    }
}

impl std::error::Error for XstParseError {}

/// DSP primitive name per family, as XST prints it.
fn dsp_primitive(family: Family) -> &'static str {
    match family {
        Family::Virtex4 => "DSP48s",
        Family::Virtex5 => "DSP48Es",
        Family::Virtex6 | Family::Series7 => "DSP48E1s",
        Family::Spartan6 => "DSP48A1s",
    }
}

/// Render `report` as an XST-`.syr`-style device utilization summary.
pub fn write_report(report: &SynthReport, device: &str) -> String {
    let b = report
        .breakdown()
        .expect("write_report requires an internally consistent report");
    let mut out = String::with_capacity(1024);
    out.push_str("Release 12.4 - xst M.81d (lin64)\n");
    out.push_str("Copyright (c) 1995-2010 Xilinx, Inc.  All rights reserved.\n\n");
    out.push_str(&format!("* Design            : {}\n", report.module));
    out.push_str(&format!(
        "* Family            : {}\n\n",
        report.family.name()
    ));
    out.push_str("Device utilization summary:\n");
    out.push_str("---------------------------\n\n");
    out.push_str(&format!("Selected Device : {device}\n\n"));
    out.push_str("Slice Logic Utilization:\n");
    out.push_str(&format!(
        " Number of Slice Registers:        {:>8}\n",
        report.ffs
    ));
    out.push_str(&format!(
        " Number of Slice LUTs:             {:>8}\n\n",
        report.luts
    ));
    out.push_str("Slice Logic Distribution:\n");
    out.push_str(&format!(
        " Number of LUT Flip Flop pairs used:{:>8}\n",
        report.lut_ff_pairs
    ));
    out.push_str(&format!(
        "   Number with an unused Flip Flop: {:>8}\n",
        b.unused_ff
    ));
    out.push_str(&format!(
        "   Number with an unused LUT:       {:>8}\n",
        b.unused_lut
    ));
    out.push_str(&format!(
        "   Number of fully used LUT-FF pairs:{:>7}\n\n",
        b.fully_used
    ));
    out.push_str("Specific Feature Utilization:\n");
    out.push_str(&format!(
        " Number of Block RAM/FIFO:         {:>8}\n",
        report.brams
    ));
    out.push_str(&format!(
        " Number of {}:              {:>8}\n",
        dsp_primitive(report.family),
        report.dsps
    ));
    out
}

fn grab(text: &str, key: &'static str) -> Result<u64, XstParseError> {
    for line in text.lines() {
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix(key) {
            let value = rest.trim_start_matches(':').trim();
            // Take the first whitespace-delimited token (ignores trailing
            // "out of N  P%" clauses real XST reports append).
            let token = value.split_whitespace().next().unwrap_or("");
            let digits: String = token.chars().filter(|c| c.is_ascii_digit()).collect();
            return digits.parse().map_err(|_| XstParseError::BadCount {
                field: key,
                text: value.to_string(),
            });
        }
    }
    Err(XstParseError::MissingField(key))
}

fn grab_dsps(text: &str) -> Result<u64, XstParseError> {
    for key in [
        "Number of DSP48E1s",
        "Number of DSP48Es",
        "Number of DSP48A1s",
        "Number of DSP48s",
    ] {
        for line in text.lines() {
            let trimmed = line.trim_start();
            if let Some(rest) = trimmed.strip_prefix(key) {
                let value = rest.trim_start_matches(':').trim();
                let token = value.split_whitespace().next().unwrap_or("");
                return token.parse().map_err(|_| XstParseError::BadCount {
                    field: "Number of DSP48*",
                    text: value.to_string(),
                });
            }
        }
    }
    // Reports for pure-logic designs may omit the DSP line entirely.
    Ok(0)
}

fn grab_family(text: &str) -> Result<Family, XstParseError> {
    for line in text.lines() {
        let trimmed = line.trim_start().trim_start_matches('*').trim_start();
        if let Some(rest) = trimmed.strip_prefix("Family") {
            let name = rest.trim_start().trim_start_matches(':').trim();
            return match name {
                "Virtex-4" | "virtex4" => Ok(Family::Virtex4),
                "Virtex-5" | "virtex5" => Ok(Family::Virtex5),
                "Virtex-6" | "virtex6" => Ok(Family::Virtex6),
                "7-series" | "Artix-7" | "Kintex-7" | "Virtex-7" | "Zynq-7000" => {
                    Ok(Family::Series7)
                }
                "Spartan-6" | "spartan6" => Ok(Family::Spartan6),
                other => Err(XstParseError::UnknownFamily(other.to_string())),
            };
        }
    }
    Err(XstParseError::MissingField("Family"))
}

fn grab_module(text: &str) -> String {
    for line in text.lines() {
        let trimmed = line.trim_start().trim_start_matches('*').trim_start();
        if let Some(rest) = trimmed.strip_prefix("Design") {
            return rest.trim_start().trim_start_matches(':').trim().to_string();
        }
    }
    "unknown".to_string()
}

/// Parse a `.syr`-style report back into a [`SynthReport`].
///
/// ```
/// use synth::xst::{parse_report, write_report};
/// use synth::PaperPrm;
/// use fabric::Family;
///
/// let report = PaperPrm::Fir.synth_report(Family::Virtex5);
/// let text = write_report(&report, "xc5vlx110t");
/// assert_eq!(parse_report(&text)?, report);
/// # Ok::<(), synth::xst::XstParseError>(())
/// ```
pub fn parse_report(text: &str) -> Result<SynthReport, XstParseError> {
    let family = grab_family(text)?;
    let ffs = grab(text, "Number of Slice Registers")?;
    let luts = grab(text, "Number of Slice LUTs")?;
    let pairs = grab(text, "Number of LUT Flip Flop pairs used")?;
    // Reports for designs without block RAM may omit the line; a
    // present but malformed count is still an error.
    let brams = match grab(text, "Number of Block RAM/FIFO") {
        Err(XstParseError::MissingField(_)) => 0,
        count => count?,
    };
    let dsps = grab_dsps(text)?;
    let report = SynthReport::new(grab_module(text), family, pairs, luts, ffs, dsps, brams);
    report.validate().map_err(XstParseError::Inconsistent)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::paper_synth_report;
    use crate::prm::PaperPrm;
    use crate::report::PairBreakdown;
    use proptest::prelude::*;

    #[test]
    fn round_trip_all_paper_reports() {
        for prm in PaperPrm::ALL {
            for (fam, dev) in [
                (Family::Virtex5, "xc5vlx110t"),
                (Family::Virtex6, "xc6vlx75t"),
            ] {
                let original = paper_synth_report(prm, fam).unwrap();
                let text = write_report(&original, dev);
                let parsed = parse_report(&text).unwrap();
                assert_eq!(parsed, original, "{prm:?}/{fam}");
            }
        }
    }

    #[test]
    fn writer_renders_paper_breakdown() {
        let fir = paper_synth_report(PaperPrm::Fir, Family::Virtex5).unwrap();
        let text = write_report(&fir, "xc5vlx110t");
        assert!(text.contains("Number with an unused Flip Flop:      906"));
        assert!(text.contains("Number with an unused LUT:            150"));
        assert!(text.contains("Number of fully used LUT-FF pairs:    244"));
        assert!(text.contains("Number of DSP48Es"));
    }

    #[test]
    fn parser_tolerates_out_of_clauses() {
        let text = "\
* Design : m
* Family : Virtex-5
 Number of Slice Registers:   100 out of 69120  0%
 Number of Slice LUTs:        200 out of 69120  0%
 Number of LUT Flip Flop pairs used: 250
 Number of Block RAM/FIFO:  2 out of 148  1%
 Number of DSP48Es:  4 out of 64  6%
";
        let r = parse_report(text).unwrap();
        assert_eq!(
            (r.ffs, r.luts, r.lut_ff_pairs, r.brams, r.dsps),
            (100, 200, 250, 2, 4)
        );
    }

    #[test]
    fn parser_defaults_missing_dsp_and_bram_to_zero() {
        let text = "\
* Design : m
* Family : Virtex-6
 Number of Slice Registers: 10
 Number of Slice LUTs: 20
 Number of LUT Flip Flop pairs used: 25
";
        let r = parse_report(text).unwrap();
        assert_eq!(r.dsps, 0);
        assert_eq!(r.brams, 0);
        assert_eq!(r.family, Family::Virtex6);
    }

    #[test]
    fn parser_rejects_missing_and_inconsistent() {
        assert!(matches!(
            parse_report("* Family : Virtex-5\n"),
            Err(XstParseError::MissingField(_))
        ));
        assert!(matches!(
            parse_report("nothing here"),
            Err(XstParseError::MissingField("Family"))
        ));
        let inconsistent = "\
* Family : Virtex-5
 Number of Slice Registers: 100
 Number of Slice LUTs: 100
 Number of LUT Flip Flop pairs used: 10
";
        assert!(matches!(
            parse_report(inconsistent),
            Err(XstParseError::Inconsistent(_))
        ));
        assert!(matches!(
            parse_report("* Family : Spartan-9\n"),
            Err(XstParseError::UnknownFamily(_))
        ));
    }

    #[test]
    fn parser_rejects_malformed_bram_count() {
        let text = "\
* Family : Virtex-5
 Number of Slice Registers: 10
 Number of Slice LUTs: 20
 Number of LUT Flip Flop pairs used: 25
 Number of Block RAM/FIFO: 18446744073709551616
";
        assert!(matches!(
            parse_report(text),
            Err(XstParseError::BadCount {
                field: "Number of Block RAM/FIFO",
                ..
            })
        ));
    }

    /// One line of a rendered report after mutation `kind`: kept as is
    /// (half the kinds), dropped, or with every numeric token replaced
    /// by `value`, `u64::MAX`, a count just past `u64::MAX`, or garbage.
    fn mutate_line(line: &str, kind: u8, value: u64) -> Option<String> {
        let replacement = match kind {
            0..=4 => return Some(line.to_string()),
            5 => value.to_string(),
            6 => u64::MAX.to_string(),
            7 => "18446744073709551616".to_string(),
            8 => "x".to_string(),
            _ => return None,
        };
        let tokens: Vec<&str> = line
            .split(' ')
            .map(|t| {
                if !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit()) {
                    replacement.as_str()
                } else {
                    t
                }
            })
            .collect();
        Some(tokens.join(" "))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hostile input: a rendered report whose numeric fields are
        /// replaced by arbitrary or extreme `u64`s or garbage, with some
        /// lines dropped, parses to `Ok` or `Err` and never panics.
        /// Whatever parses is a consistent report that renders and
        /// parses back to itself.
        #[test]
        fn mutated_reports_parse_without_panicking(
            pairs in (0u64..100_000, 0u64..100_000, 0u64..100_000),
            dsps in 0u64..1_000,
            brams in 0u64..1_000,
            v6 in any::<bool>(),
            edits in proptest::collection::vec((0u8..10, any::<u64>()), 32..33),
        ) {
            let family = if v6 { Family::Virtex6 } else { Family::Virtex5 };
            let breakdown = PairBreakdown {
                unused_lut: pairs.0,
                fully_used: pairs.1,
                unused_ff: pairs.2,
            };
            let report = SynthReport::from_breakdown("m", family, breakdown, dsps, brams);
            let text: Vec<String> = write_report(&report, "xc")
                .lines()
                .zip(&edits)
                .filter_map(|(line, &(kind, value))| mutate_line(line, kind, value))
                .collect();
            if let Ok(parsed) = parse_report(&text.join("\n")) {
                prop_assert!(parsed.validate().is_ok());
                let again = parse_report(&write_report(&parsed, "xc"));
                prop_assert_eq!(again, Ok(parsed));
            }
        }
    }
}
