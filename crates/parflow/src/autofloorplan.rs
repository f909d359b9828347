//! Automatic multi-PRR floorplanning — the paper's stated future work
//! ("our future work will use our cost models as part of the floorplanning
//! stage in the PR design flow"), implemented.
//!
//! Given several PRRs (each hosting one or more time-multiplexed PRMs),
//! find non-overlapping placements for all of them simultaneously,
//! minimizing the total predicted partial bitstream bytes (and hence total
//! reconfiguration traffic). The search is branch-and-bound over each
//! PRR's cost-model candidates (all feasible heights from the Fig. 1
//! enumeration), each tried at every horizontal window and vertical
//! offset, hardest PRR first.
//!
//! Two things make the search fast (Deak & Creț and Goswami & Bhatia
//! both report that pruning plus cheap candidate evaluation is what makes
//! PR floorplanning tractable at device scale):
//!
//! * **indexed geometry** — candidate windows are probed through a
//!   [`fabric::DeviceGeometry`] composition index built once per call
//!   (`prcost::search::candidates_for_cached`), so every spec and every
//!   height is an index lookup instead of a column-list rescan;
//! * **dominance pruning** — a candidate organization whose bitstream,
//!   column span and height are all covered by another candidate can be
//!   substituted by it in any solution without raising the cost, so it is
//!   dropped before the tree is built.
//!
//! The depth-first descent itself works on precomputed column spans with
//! suffix lower bounds, and never clones a `Window`. It is serial: a
//! rayon fan-out of the first branching level with a shared atomic
//! incumbent was slower on a 2-vCPU host on the `floorplan_bb` instances
//! (4, 6 and 8 PRRs), because it expanded more nodes and paid a thread
//! spawn per call plus a shared atomic per node.
//!
//! The pre-optimization floorplanner — raw `Device::find_window` probes,
//! no dominance pruning — is frozen in [`reference`](mod@reference) as the oracle the
//! tests compare against and the benchmark baseline
//! (`results/BENCH_floorplan.json`).

use crate::floorplan::{AreaGroup, Floorplan};
use core::fmt;
use fabric::{Device, DeviceGeometry, Window};
use prcost::search::{candidates_for_cached, CandidateOutcome};
use prcost::{PlanScratch, PrrOrganization, PrrRequirements};
use serde::{Deserialize, Serialize};
use synth::SynthReport;

/// One PRR to place: a name and the PRMs that will time-multiplex it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrrSpec {
    /// PRR name (becomes the AREA_GROUP name).
    pub name: String,
    /// The PRMs sharing this PRR.
    pub reports: Vec<SynthReport>,
}

impl PrrSpec {
    /// One PRR for one PRM.
    pub fn single(name: impl Into<String>, report: SynthReport) -> Self {
        PrrSpec {
            name: name.into(),
            reports: vec![report],
        }
    }

    /// Component-wise maximum requirements over the spec's PRMs.
    pub fn combined_requirements(&self) -> Option<PrrRequirements> {
        let mut reqs = self.reports.iter().map(PrrRequirements::from_report);
        let first = reqs.next()?;
        Some(reqs.fold(first, |acc, r| acc.max(&r)))
    }
}

/// One placed PRR in the result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacedPrr {
    /// Spec name.
    pub name: String,
    /// Chosen organization.
    pub organization: PrrOrganization,
    /// Placement.
    pub window: Window,
    /// Predicted bitstream bytes.
    pub bitstream_bytes: u64,
}

/// A complete automatic floorplan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoFloorplan {
    /// Device name.
    pub device: String,
    /// Placed PRRs, in input order.
    pub prrs: Vec<PlacedPrr>,
    /// Sum of predicted bitstream bytes over all PRRs.
    pub total_bitstream_bytes: u64,
    /// Search nodes expanded (diagnostic).
    pub nodes_explored: u64,
}

impl AutoFloorplan {
    /// Render as a validated UCF-style floorplan.
    pub fn to_floorplan(&self, device: &Device) -> Floorplan {
        let mut plan = Floorplan::new(device);
        for p in &self.prrs {
            plan.push(AreaGroup::new(p.name.clone(), p.window.clone()));
        }
        plan
    }
}

/// Floorplanning failures.
#[derive(Debug, Clone, PartialEq)]
pub enum AutoFloorplanError {
    /// No PRR specs given.
    Empty,
    /// A spec has no PRMs or requires nothing.
    EmptySpec {
        /// Offending spec name.
        name: String,
    },
    /// A spec's family does not match the device.
    FamilyMismatch {
        /// Offending spec name.
        name: String,
    },
    /// No joint non-overlapping placement exists (within the node budget).
    NoPlacement {
        /// Search nodes expanded before giving up.
        nodes_explored: u64,
    },
}

impl fmt::Display for AutoFloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutoFloorplanError::Empty => write!(f, "no PRR specs to place"),
            AutoFloorplanError::EmptySpec { name } => {
                write!(f, "PRR spec `{name}` has no resource requirements")
            }
            AutoFloorplanError::FamilyMismatch { name } => {
                write!(
                    f,
                    "PRR spec `{name}` targets a different family than the device"
                )
            }
            AutoFloorplanError::NoPlacement { nodes_explored } => write!(
                f,
                "no joint non-overlapping placement found ({nodes_explored} nodes explored)"
            ),
        }
    }
}

impl std::error::Error for AutoFloorplanError {}

/// A feasible (organization, column window) option for one spec.
#[derive(Debug, Clone)]
struct Option_ {
    organization: PrrOrganization,
    window: Window,
    bitstream_bytes: u64,
}

/// Drop every option that another option *dominates*: `a` dominates `b`
/// when `a` costs no more bitstream, its column span lies inside `b`'s and
/// it is no taller. Any complete floorplan using `b` at some row stays
/// feasible — and gets no more expensive — with `a` substituted at the
/// same row, so pruned options can never be part of a *strictly* better
/// solution and the optimal total cost is preserved. (This strengthens
/// plain `(bitstream, width, height)` dominance with the span condition,
/// which is what makes the substitution argument airtight: a narrower
/// window elsewhere on the device could dodge an overlap the dominating
/// one has.) Options must arrive sorted by ascending bitstream; the
/// earliest of two mutually dominating options survives, keeping the
/// pruned set deterministic.
fn prune_dominated(options: &mut Vec<Option_>) {
    let mut keep = vec![true; options.len()];
    for j in 1..options.len() {
        let b = &options[j];
        for (i, a) in options[..j].iter().enumerate() {
            if keep[i]
                && a.bitstream_bytes <= b.bitstream_bytes
                && a.window.start_col >= b.window.start_col
                && a.window.end_col() <= b.window.end_col()
                && a.organization.height <= b.organization.height
            {
                keep[j] = false;
                break;
            }
        }
    }
    let mut it = keep.iter();
    options.retain(|_| *it.next().expect("keep mask covers options"));
}

/// Candidate options per spec, dominance-pruned and ordered hardest spec
/// first. Returns the spec order (search position -> input index) and the
/// per-position option lists.
#[allow(clippy::type_complexity)]
fn spec_options(
    specs: &[PrrSpec],
    device: &Device,
    geometry: &DeviceGeometry,
) -> Result<(Vec<usize>, Vec<Vec<Option_>>), AutoFloorplanError> {
    let mut scratch = PlanScratch::default();
    let mut per_spec: Vec<(usize, Vec<Option_>)> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let req = spec
            .combined_requirements()
            .filter(|r| !r.is_empty())
            .ok_or_else(|| AutoFloorplanError::EmptySpec {
                name: spec.name.clone(),
            })?;
        if req.family != device.family() {
            return Err(AutoFloorplanError::FamilyMismatch {
                name: spec.name.clone(),
            });
        }
        let mut options: Vec<Option_> = candidates_for_cached(&req, device, geometry, &mut scratch)
            .into_iter()
            .filter_map(|c| match c.outcome {
                CandidateOutcome::Feasible {
                    organization,
                    window,
                    bitstream_bytes,
                    ..
                } => Some(Option_ {
                    organization,
                    window,
                    bitstream_bytes,
                }),
                _ => None,
            })
            .collect();
        options.sort_by_key(|o| o.bitstream_bytes);
        prune_dominated(&mut options);
        if options.is_empty() {
            return Err(AutoFloorplanError::NoPlacement { nodes_explored: 0 });
        }
        per_spec.push((i, options));
    }

    // Hardest (most expensive cheapest-option) first.
    per_spec.sort_by_key(|(_, opts)| std::cmp::Reverse(opts[0].bitstream_bytes));
    let order: Vec<usize> = per_spec.iter().map(|(i, _)| *i).collect();
    let options: Vec<Vec<Option_>> = per_spec.into_iter().map(|(_, o)| o).collect();
    Ok((order, options))
}

/// `lb[d]` = sum over positions `d..` of each spec's cheapest option — the
/// admissible remaining-cost lower bound at depth `d`.
fn suffix_lower_bounds(options: &[Vec<Option_>]) -> Vec<u64> {
    let mut lb = vec![0u64; options.len() + 1];
    for d in (0..options.len()).rev() {
        lb[d] = lb[d + 1] + options[d].first().map_or(0, |o| o.bitstream_bytes);
    }
    lb
}

/// A chosen option per search position: `(option index, window row)`.
/// Windows are only materialized for the final assignment — the descent
/// itself works on [`OptSpan`]s, never cloning a `Window` (whose `columns`
/// `Vec` makes cloning an allocation, the seed tree's dominant per-node
/// cost).
type Assignment = Vec<(usize, u32)>;

/// The placement-relevant footprint of one option: its column interval,
/// height and cost, precomputed once per search.
#[derive(Debug, Clone, Copy)]
struct OptSpan {
    start: usize,
    end: usize,
    height: u32,
    bytes: u64,
}

/// One assigned spec on the descent stack: option choice plus its
/// occupied rectangle.
#[derive(Debug, Clone, Copy)]
struct PlacedSpan {
    oi: usize,
    row: u32,
    start: usize,
    end: usize,
    top: u32,
}

impl PlacedSpan {
    fn at(span: &OptSpan, oi: usize, row: u32) -> Self {
        PlacedSpan {
            oi,
            row,
            start: span.start,
            end: span.end,
            top: row + span.height - 1,
        }
    }

    /// Mirror of [`Window::overlaps`] on spans.
    fn clear_of(&self, start: usize, end: usize, row: u32, top: u32) -> bool {
        !(self.start < end && start < self.end && self.row <= top && row <= self.top)
    }
}

/// Per-position option footprints for the span-based descent.
fn option_spans(options: &[Vec<Option_>]) -> Vec<Vec<OptSpan>> {
    options
        .iter()
        .map(|opts| {
            opts.iter()
                .map(|o| OptSpan {
                    start: o.window.start_col,
                    end: o.window.end_col(),
                    height: o.organization.height,
                    bytes: o.bitstream_bytes,
                })
                .collect()
        })
        .collect()
}

fn extract(placed: &[PlacedSpan]) -> Assignment {
    placed.iter().map(|p| (p.oi, p.row)).collect()
}

struct Search<'a> {
    rows: u32,
    /// Option footprints per search position (sorted by bitstream).
    spans: &'a [Vec<OptSpan>],
    lb: &'a [u64],
    budget: u64,
    nodes: u64,
    best: Option<(u64, Assignment)>,
}

impl Search<'_> {
    /// Depth-first branch and bound: `placed` holds the chosen option and
    /// occupied rectangle per already-assigned spec; `cost` is their
    /// bitstream sum.
    fn descend(&mut self, depth: usize, cost: u64, placed: &mut Vec<PlacedSpan>) {
        if self.nodes >= self.budget {
            return;
        }
        self.nodes += 1;
        if let Some((best_cost, _)) = &self.best {
            if cost + self.lb[depth] >= *best_cost {
                return;
            }
        }
        if depth == self.spans.len() {
            self.best = Some((cost, extract(placed)));
            return;
        }
        // Try each option at each vertical offset.
        for oi in 0..self.spans[depth].len() {
            let span = self.spans[depth][oi];
            for row in 1..=(self.rows - span.height + 1) {
                let top = row + span.height - 1;
                if placed
                    .iter()
                    .all(|p| p.clear_of(span.start, span.end, row, top))
                {
                    placed.push(PlacedSpan::at(&span, oi, row));
                    self.descend(depth + 1, cost + span.bytes, placed);
                    placed.pop();
                }
                if self.nodes >= self.budget {
                    return;
                }
            }
        }
    }
}

/// Run the branch-and-bound over pruned `options`.
fn search(
    device: &Device,
    options: &[Vec<Option_>],
    budget: u64,
) -> (u64, Option<(u64, Assignment)>) {
    let lb = suffix_lower_bounds(options);
    let spans = option_spans(options);
    let mut search = Search {
        rows: device.rows(),
        spans: &spans,
        lb: &lb,
        budget,
        nodes: 0,
        best: None,
    };
    let mut placed = Vec::new();
    search.descend(0, 0, &mut placed);
    (search.nodes, search.best)
}

/// Reassemble a search result into input-spec order.
fn assemble(
    specs: &[PrrSpec],
    device: &Device,
    order: &[usize],
    options: &[Vec<Option_>],
    nodes: u64,
    found: Option<(u64, Assignment)>,
) -> Result<AutoFloorplan, AutoFloorplanError> {
    let Some((total, assignment)) = found else {
        return Err(AutoFloorplanError::NoPlacement {
            nodes_explored: nodes,
        });
    };
    let mut prrs: Vec<Option<PlacedPrr>> = vec![None; specs.len()];
    for (search_pos, &(oi, row)) in assignment.iter().enumerate() {
        let spec_idx = order[search_pos];
        let opt = &options[search_pos][oi];
        let mut window = opt.window.clone();
        window.row = row;
        prrs[spec_idx] = Some(PlacedPrr {
            name: specs[spec_idx].name.clone(),
            organization: opt.organization,
            window,
            bitstream_bytes: opt.bitstream_bytes,
        });
    }
    Ok(AutoFloorplan {
        device: device.name().to_string(),
        prrs: prrs
            .into_iter()
            .map(|p| p.expect("every spec assigned"))
            .collect(),
        total_bitstream_bytes: total,
        nodes_explored: nodes,
    })
}

/// Place all `specs` on `device` without overlap, minimizing total
/// predicted bitstream bytes. `node_budget` bounds the branch-and-bound
/// (10 000 nodes resolves typical 2–6-PRR problems exactly).
///
/// Whenever neither exhausts the node budget, the result's `prrs` and
/// total equal [`reference::auto_floorplan_seed`]'s (dominance pruning
/// is cost-preserving and both trees keep the first of equal-cost
/// solutions).
///
/// ```
/// use parflow::autofloorplan::{auto_floorplan, PrrSpec};
/// use fabric::database::xc5vlx110t;
/// use synth::PaperPrm;
///
/// let device = xc5vlx110t();
/// let specs: Vec<PrrSpec> = PaperPrm::ALL
///     .iter()
///     .map(|p| PrrSpec::single(p.module_name(), p.synth_report(device.family())))
///     .collect();
/// let plan = auto_floorplan(&specs, &device, 10_000).unwrap();
/// assert_eq!(plan.prrs.len(), 3);
/// plan.to_floorplan(&device).validate(&device).unwrap();
/// ```
pub fn auto_floorplan(
    specs: &[PrrSpec],
    device: &Device,
    node_budget: u64,
) -> Result<AutoFloorplan, AutoFloorplanError> {
    if specs.is_empty() {
        return Err(AutoFloorplanError::Empty);
    }
    let (order, options) = spec_options(specs, device, &DeviceGeometry::new(device))?;
    let (nodes, found) = search(device, &options, node_budget.max(1));
    assemble(specs, device, &order, &options, nodes, found)
}

pub mod reference {
    //! The seed floorplanner, frozen verbatim as the equivalence oracle
    //! and benchmark baseline.
    //!
    //! This is the exact pre-optimization implementation: candidate
    //! windows probed through raw [`Device::find_window`] rescans for
    //! every spec and height, no dominance pruning of the option lists,
    //! a per-node lower-bound sum and a `Window` clone per tried row.
    //! The live [`auto_floorplan`](super::auto_floorplan) is tested
    //! against it (`crates/parflow/tests/floorplan_props.rs`) and
    //! benchmarked against it in `crates/bench/benches/floorplan_bb.rs`;
    //! both return the same floorplan whenever neither exhausts its node
    //! budget (dominance pruning is cost-preserving).

    use super::{AutoFloorplan, AutoFloorplanError, PlacedPrr, PrrSpec};
    use fabric::{Device, Window};
    use prcost::search::{candidates_for, CandidateOutcome};
    use prcost::PrrOrganization;

    /// A feasible (organization, column window) option for one spec.
    #[derive(Debug, Clone)]
    struct Option_ {
        organization: PrrOrganization,
        window: Window,
        bitstream_bytes: u64,
    }

    struct Search<'a> {
        device: &'a Device,
        /// Options per spec (sorted by bitstream), spec order = search order.
        options: Vec<Vec<Option_>>,
        budget: u64,
        nodes: u64,
        best: Option<(u64, Vec<(usize, Window)>)>,
    }

    impl Search<'_> {
        /// Depth-first branch and bound: `placed` holds (option index,
        /// placed window) per already-assigned spec; `cost` is their
        /// bitstream sum.
        fn descend(&mut self, depth: usize, cost: u64, placed: &mut Vec<(usize, Window)>) {
            if self.nodes >= self.budget {
                return;
            }
            self.nodes += 1;
            if let Some((best_cost, _)) = &self.best {
                // Lower bound: remaining specs each cost at least their
                // cheapest option.
                let lb: u64 = self.options[depth..]
                    .iter()
                    .map(|opts| opts.first().map_or(0, |o| o.bitstream_bytes))
                    .sum();
                if cost + lb >= *best_cost {
                    return;
                }
            }
            if depth == self.options.len() {
                self.best = Some((cost, placed.clone()));
                return;
            }
            // Try each option at each vertical offset.
            let n_options = self.options[depth].len();
            for oi in 0..n_options {
                let (h, base, bytes) = {
                    let o = &self.options[depth][oi];
                    (o.organization.height, o.window.clone(), o.bitstream_bytes)
                };
                for row in 1..=(self.device.rows() - h + 1) {
                    let mut w = base.clone();
                    w.row = row;
                    if placed.iter().all(|(_, pw)| !pw.overlaps(&w)) {
                        placed.push((oi, w));
                        self.descend(depth + 1, cost + bytes, placed);
                        placed.pop();
                    }
                    if self.nodes >= self.budget {
                        return;
                    }
                }
            }
        }
    }

    /// The frozen seed floorplanner (see the module docs).
    pub fn auto_floorplan_seed(
        specs: &[PrrSpec],
        device: &Device,
        node_budget: u64,
    ) -> Result<AutoFloorplan, AutoFloorplanError> {
        if specs.is_empty() {
            return Err(AutoFloorplanError::Empty);
        }

        // Candidate options per spec.
        let mut per_spec: Vec<(usize, Vec<Option_>)> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let req = spec
                .combined_requirements()
                .filter(|r| !r.is_empty())
                .ok_or_else(|| AutoFloorplanError::EmptySpec {
                    name: spec.name.clone(),
                })?;
            if req.family != device.family() {
                return Err(AutoFloorplanError::FamilyMismatch {
                    name: spec.name.clone(),
                });
            }
            let mut options: Vec<Option_> = candidates_for(&req, device)
                .into_iter()
                .filter_map(|c| match c.outcome {
                    CandidateOutcome::Feasible {
                        organization,
                        window,
                        bitstream_bytes,
                        ..
                    } => Some(Option_ {
                        organization,
                        window,
                        bitstream_bytes,
                    }),
                    _ => None,
                })
                .collect();
            options.sort_by_key(|o| o.bitstream_bytes);
            if options.is_empty() {
                return Err(AutoFloorplanError::NoPlacement { nodes_explored: 0 });
            }
            per_spec.push((i, options));
        }

        // Hardest (most expensive cheapest-option) first.
        per_spec.sort_by_key(|(_, opts)| std::cmp::Reverse(opts[0].bitstream_bytes));
        let order: Vec<usize> = per_spec.iter().map(|(i, _)| *i).collect();
        let options: Vec<Vec<Option_>> = per_spec.into_iter().map(|(_, o)| o).collect();

        let mut search = Search {
            device,
            options,
            budget: node_budget.max(1),
            nodes: 0,
            best: None,
        };
        let mut placed = Vec::new();
        search.descend(0, 0, &mut placed);

        let Some((total, assignment)) = search.best else {
            return Err(AutoFloorplanError::NoPlacement {
                nodes_explored: search.nodes,
            });
        };

        // Reassemble in input order.
        let mut prrs: Vec<Option<PlacedPrr>> = vec![None; specs.len()];
        for (search_pos, (oi, window)) in assignment.iter().enumerate() {
            let spec_idx = order[search_pos];
            let opt = &search.options[search_pos][*oi];
            prrs[spec_idx] = Some(PlacedPrr {
                name: specs[spec_idx].name.clone(),
                organization: opt.organization,
                window: window.clone(),
                bitstream_bytes: opt.bitstream_bytes,
            });
        }
        Ok(AutoFloorplan {
            device: device.name().to_string(),
            prrs: prrs
                .into_iter()
                .map(|p| p.expect("every spec assigned"))
                .collect(),
            total_bitstream_bytes: total,
            nodes_explored: search.nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::{xc5vlx110t, xc6vlx75t};
    use fabric::Family;
    use synth::PaperPrm;

    fn paper_specs(fam: Family) -> Vec<PrrSpec> {
        PaperPrm::ALL
            .iter()
            .map(|p| PrrSpec::single(format!("prr_{}", p.module_name()), p.synth_report(fam)))
            .collect()
    }

    /// The live tree returns the frozen seed's floorplan on `specs`
    /// (everything except the node diagnostic).
    fn assert_matches_seed(specs: &[PrrSpec], device: &Device, budget: u64) {
        let live = auto_floorplan(specs, device, budget).unwrap();
        let seed = reference::auto_floorplan_seed(specs, device, budget).unwrap();
        assert_eq!(live.prrs, seed.prrs);
        assert_eq!(live.total_bitstream_bytes, seed.total_bitstream_bytes);
        assert_eq!(live.device, seed.device);
    }

    /// The marquee future-work scenario: all three paper PRMs in separate
    /// PRRs on the LX110T. FIR and MIPS both need the device's single DSP
    /// column, so the planner must stack them vertically on it.
    #[test]
    fn three_prrs_on_lx110t() {
        let device = xc5vlx110t();
        let plan = auto_floorplan(&paper_specs(Family::Virtex5), &device, 10_000).unwrap();
        assert_eq!(plan.prrs.len(), 3);
        for (i, a) in plan.prrs.iter().enumerate() {
            for b in &plan.prrs[i + 1..] {
                assert!(!a.window.overlaps(&b.window), "{} vs {}", a.name, b.name);
            }
        }
        // The result renders as a valid floorplan.
        plan.to_floorplan(&device).validate(&device).unwrap();
        // FIR and MIPS both sit on the single DSP column (disjoint rows).
        let on_dsp: Vec<&PlacedPrr> = plan
            .prrs
            .iter()
            .filter(|p| p.organization.dsp_cols > 0)
            .collect();
        assert_eq!(on_dsp.len(), 2);
        assert_ne!(on_dsp[0].window.row, on_dsp[1].window.row);
        // The serial tree's node count is deterministic.
        assert_eq!(plan.nodes_explored, 62);
        assert_matches_seed(&paper_specs(Family::Virtex5), &device, 10_000);
    }

    /// Joint placement never beats the sum of individually optimal plans,
    /// and matches it when the PRRs do not contend.
    #[test]
    fn total_cost_bounded_by_individual_optima() {
        let device = xc6vlx75t();
        let specs = paper_specs(Family::Virtex6);
        let plan = auto_floorplan(&specs, &device, 10_000).unwrap();
        let individual: u64 = PaperPrm::ALL
            .iter()
            .map(|p| {
                prcost::plan_prr(&p.synth_report(Family::Virtex6), &device)
                    .unwrap()
                    .bitstream_bytes
            })
            .sum();
        assert!(plan.total_bitstream_bytes >= individual);
        // On the LX75T (6 DSP columns, plenty of room) there is no
        // contention: the joint optimum equals the individual sum.
        assert_eq!(plan.total_bitstream_bytes, individual);
        assert_matches_seed(&specs, &device, 10_000);
    }

    #[test]
    fn shared_prr_specs_work() {
        let device = xc6vlx75t();
        let specs = vec![
            PrrSpec {
                name: "compute".into(),
                reports: vec![
                    PaperPrm::Fir.synth_report(Family::Virtex6),
                    PaperPrm::Mips.synth_report(Family::Virtex6),
                ],
            },
            PrrSpec::single("io", PaperPrm::Sdram.synth_report(Family::Virtex6)),
        ];
        let plan = auto_floorplan(&specs, &device, 10_000).unwrap();
        assert_eq!(plan.prrs.len(), 2);
        let compute = &plan.prrs[0];
        assert!(compute.organization.dsp_cols >= 2, "FIR needs 27 DSPs");
        assert!(compute.organization.bram_cols >= 1, "MIPS needs 6 BRAMs");
        assert_matches_seed(&specs, &device, 10_000);
    }

    #[test]
    fn impossible_packings_are_reported() {
        let device = xc5vlx110t();
        // Nine full-height PRRs cannot fit an 8-row device's single DSP
        // column.
        let specs: Vec<PrrSpec> = (0..9)
            .map(|i| PrrSpec::single(format!("p{i}"), PaperPrm::Fir.synth_report(Family::Virtex5)))
            .collect();
        assert!(matches!(
            auto_floorplan(&specs, &device, 50_000),
            Err(AutoFloorplanError::NoPlacement { .. })
        ));
        assert!(matches!(
            reference::auto_floorplan_seed(&specs, &device, 50_000),
            Err(AutoFloorplanError::NoPlacement { .. })
        ));
    }

    #[test]
    fn input_validation() {
        let device = xc5vlx110t();
        assert_eq!(
            auto_floorplan(&[], &device, 100),
            Err(AutoFloorplanError::Empty)
        );
        let empty = PrrSpec {
            name: "e".into(),
            reports: vec![],
        };
        assert!(matches!(
            auto_floorplan(&[empty], &device, 100),
            Err(AutoFloorplanError::EmptySpec { .. })
        ));
        let wrong_family = PrrSpec::single("w", PaperPrm::Fir.synth_report(Family::Virtex6));
        assert!(matches!(
            auto_floorplan(&[wrong_family], &device, 100),
            Err(AutoFloorplanError::FamilyMismatch { .. })
        ));
    }

    #[test]
    fn dominance_pruning_is_cost_preserving() {
        // On both paper devices the pruned searches reach the frozen
        // seed's optimum (checked spec-by-spec and jointly above); here
        // make sure pruning actually removes something on the LX110T so
        // the property is not vacuous.
        let device = xc5vlx110t();
        let specs = paper_specs(Family::Virtex5);
        let geometry = DeviceGeometry::new(&device);
        let (_, options) = spec_options(&specs, &device, &geometry).unwrap();
        let pruned: usize = options.iter().map(Vec::len).sum();
        let unpruned: usize = specs
            .iter()
            .map(|s| {
                let req = s.combined_requirements().unwrap();
                prcost::search::candidates_for(&req, &device)
                    .into_iter()
                    .filter(|c| c.bitstream_bytes().is_some())
                    .count()
            })
            .sum();
        assert!(pruned < unpruned, "{pruned} vs {unpruned}");
    }
}
