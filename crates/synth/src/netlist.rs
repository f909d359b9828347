//! Structural netlist IR consumed by the simulated place-and-route flow.
//!
//! The IR mirrors what the cost models can see of a synthesized PRM: slice
//! LUT–FF *pair slots* (each holding a LUT, an FF, or both), DSP blocks and
//! BRAMs, plus synthetic connectivity (nets) that gives the placer a
//! wirelength objective. Connectivity is generated deterministically from a
//! seed: local chains (datapath structure) plus moderate-fanout control
//! nets.

use crate::report::SynthReport;
use fabric::Family;
use serde::{Deserialize, Serialize};

/// Kind of one netlist cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// A slice LUT–FF pair slot; `lut`/`ff` say which members are used.
    Slice {
        /// LUT member used.
        lut: bool,
        /// FF member used.
        ff: bool,
    },
    /// A DSP block.
    Dsp,
    /// A block RAM.
    Bram,
}

/// One netlist cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Cell kind.
    pub kind: CellKind,
}

/// A net: the set of cells it connects (by index into [`Netlist::cells`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    /// Connected cell indices.
    pub pins: Vec<u32>,
}

/// A synthesized PRM at structural granularity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Netlist {
    /// Module name.
    pub name: String,
    /// Target family.
    pub family: Family,
    /// All cells.
    pub cells: Vec<Cell>,
    /// All nets.
    pub nets: Vec<Net>,
}

/// Minimal deterministic RNG (a splitmix64 stream over
/// [`fabric::splitmix64`]); used only for synthetic connectivity.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(pub u64);

impl SplitMix64 {
    pub(crate) fn next_u64(&mut self) -> u64 {
        let z = fabric::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

impl Netlist {
    /// Materialize a netlist whose cell tallies equal `report`, with
    /// synthetic connectivity seeded by `seed`.
    pub fn from_report(report: &SynthReport, seed: u64) -> Result<Netlist, crate::ReportError> {
        let b = report.breakdown()?;
        let mut cells = Vec::with_capacity((b.pairs() + report.dsps + report.brams) as usize);
        for _ in 0..b.fully_used {
            cells.push(Cell {
                kind: CellKind::Slice {
                    lut: true,
                    ff: true,
                },
            });
        }
        for _ in 0..b.unused_ff {
            cells.push(Cell {
                kind: CellKind::Slice {
                    lut: true,
                    ff: false,
                },
            });
        }
        for _ in 0..b.unused_lut {
            cells.push(Cell {
                kind: CellKind::Slice {
                    lut: false,
                    ff: true,
                },
            });
        }
        for _ in 0..report.dsps {
            cells.push(Cell {
                kind: CellKind::Dsp,
            });
        }
        for _ in 0..report.brams {
            cells.push(Cell {
                kind: CellKind::Bram,
            });
        }

        let nets = synth_connectivity(cells.len() as u32, seed);
        Ok(Netlist {
            name: report.module.clone(),
            family: report.family,
            cells,
            nets,
        })
    }

    /// Recount the netlist into a synthesis report (inverse of
    /// [`from_report`](Self::from_report) up to connectivity).
    pub fn to_report(&self) -> SynthReport {
        let mut pairs = 0u64;
        let mut luts = 0u64;
        let mut ffs = 0u64;
        let mut dsps = 0u64;
        let mut brams = 0u64;
        for c in &self.cells {
            match c.kind {
                CellKind::Slice { lut, ff } => {
                    pairs += 1;
                    luts += u64::from(lut);
                    ffs += u64::from(ff);
                }
                CellKind::Dsp => dsps += 1,
                CellKind::Bram => brams += 1,
            }
        }
        SynthReport::new(
            self.name.clone(),
            self.family,
            pairs,
            luts,
            ffs,
            dsps,
            brams,
        )
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the netlist has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Chains of neighbouring cells (2-pin nets) plus one moderate-fanout net
/// per 16 cells, all deterministic in `seed`.
fn synth_connectivity(n_cells: u32, seed: u64) -> Vec<Net> {
    let mut nets = Vec::new();
    if n_cells < 2 {
        return nets;
    }
    for i in 0..n_cells - 1 {
        nets.push(Net {
            pins: vec![i, i + 1],
        });
    }
    let mut rng = SplitMix64(seed ^ 0xD1CE);
    let fanout_nets = n_cells / 16;
    for _ in 0..fanout_nets {
        let driver = rng.below(u64::from(n_cells)) as u32;
        let mut pins = vec![driver];
        let sinks = 2 + rng.below(5) as usize;
        for _ in 0..sinks {
            pins.push(rng.below(u64::from(n_cells)) as u32);
        }
        pins.sort_unstable();
        pins.dedup();
        if pins.len() >= 2 {
            nets.push(Net { pins });
        }
    }
    nets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SynthReport {
        SynthReport::new("m", Family::Virtex5, 1300, 1150, 394, 32, 6)
    }

    #[test]
    fn from_report_round_trips_counts() {
        let nl = Netlist::from_report(&report(), 7).unwrap();
        let back = nl.to_report();
        assert_eq!(back.lut_ff_pairs, 1300);
        assert_eq!(back.luts, 1150);
        assert_eq!(back.ffs, 394);
        assert_eq!(back.dsps, 32);
        assert_eq!(back.brams, 6);
        assert_eq!(nl.len(), 1300 + 32 + 6);
    }

    #[test]
    fn connectivity_is_deterministic() {
        let a = Netlist::from_report(&report(), 42).unwrap();
        let b = Netlist::from_report(&report(), 42).unwrap();
        assert_eq!(a, b);
        let c = Netlist::from_report(&report(), 43).unwrap();
        assert_ne!(a.nets, c.nets);
    }

    #[test]
    fn nets_reference_valid_cells() {
        let nl = Netlist::from_report(&report(), 1).unwrap();
        let n = nl.len() as u32;
        for net in &nl.nets {
            assert!(net.pins.len() >= 2);
            assert!(net.pins.iter().all(|&p| p < n));
        }
    }

    #[test]
    fn invalid_report_is_rejected() {
        let bad = SynthReport::new("m", Family::Virtex5, 10, 20, 30, 0, 0);
        assert!(Netlist::from_report(&bad, 0).is_err());
    }

    #[test]
    fn empty_and_single_cell_netlists() {
        let empty = SynthReport::new("e", Family::Virtex5, 0, 0, 0, 0, 0);
        let nl = Netlist::from_report(&empty, 0).unwrap();
        assert!(nl.is_empty());
        assert!(nl.nets.is_empty());

        let one = SynthReport::new("o", Family::Virtex5, 0, 0, 0, 1, 0);
        let nl = Netlist::from_report(&one, 0).unwrap();
        assert_eq!(nl.len(), 1);
        assert!(nl.nets.is_empty());
    }
}
