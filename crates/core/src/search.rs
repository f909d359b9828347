//! The Fig. 1 flow: search device heights for the best feasible PRR.
//!
//! For each candidate height `H` from 1 to the device's row count `R`, the
//! flow recomputes the organization (Eqs. 2–6), checks that the required
//! columns exist contiguously on the device (no IOB/CLK columns inside the
//! span), predicts the partial bitstream size (Eqs. 18–23), and finally
//! selects the candidate with the **smallest predicted bitstream**, breaking
//! ties by smaller `PRR_size` and then smaller `H`. This selection criterion
//! is the one consistent with the paper's reported Table V results — e.g.
//! FIR on the LX110T picks H=5 (bitstream 83 040 B, PRR size 15) over the
//! also-feasible H=4 (90 100 B, size 16); see `DESIGN.md` §6.

use crate::bits::bitstream_size_bytes;
use crate::error::CostError;
use crate::metrics::Metrics;
use crate::prr::{OrganizationError, PrrOrganization, Utilization};
use crate::requirements::PrrRequirements;
use fabric::{Device, DeviceGeometry, Window, WindowRequest};
use serde::{Deserialize, Serialize};
use synth::SynthReport;

/// Cap on the extra DSP columns the padded-window fallback will absorb
/// beyond the Eqs. 2–5 requirement.
///
/// DSP columns are scarce (1–12 per device in the database) and widely
/// separated by CLB columns, so a window forced to swallow many extra DSP
/// columns also swallows the CLB columns between them — which the
/// unbounded CLB-padding axis already covers. On the database devices the
/// cap changes no plan: capped and uncapped scans choose the same pad for
/// every padded organization (`row_scan_matches_full_enumeration` and
/// `padding_caps_lose_no_feasible_plan` in this module's tests), and both
/// fallbacks debug-assert that a capped miss is an uncapped miss too.
///
/// The cap stays for the direct path, `find_padded_window`, which serves
/// [`plan_prr`], [`candidates_for`] and their callers: it prices and sorts
/// every capped option, `(cap+1)²` DSP×BRAM combinations per CLB padding
/// level. The cached path's row scan applies the same caps, because both
/// paths must choose the same pad.
pub const MAX_PAD_DSP_COLS: u32 = 4;

/// Cap on the extra BRAM columns the padded-window fallback will absorb
/// beyond the Eqs. 2–5 requirement. Same reason, and the same checks, as
/// [`MAX_PAD_DSP_COLS`].
pub const MAX_PAD_BRAM_COLS: u32 = 4;

/// How a `(W_CLB, W_DSP, W_BRAM)` column composition resolves on a device.
///
/// Window existence is height-independent, and the padded-fallback winner
/// is too (the Eq. 18 bitstream is affine in `H` with height-independent
/// per-row weights, so the `(bytes, pad)` ordering of padding options —
/// ties included — is the same at every height). One resolution therefore
/// serves every candidate height that produces the same base composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompResolution {
    /// An exact-composition window exists.
    Exact,
    /// No exact window; the cheapest feasible padding is `pad` extra
    /// `[CLB, DSP, BRAM]` columns.
    Padded {
        /// Winning extra columns per kind.
        pad: [u32; 3],
    },
    /// No window exists even with padding.
    Infeasible,
}

/// Reusable per-worker scratch for the padded-window fallback and the
/// per-plan composition-resolution cache.
///
/// The direct path's fallback (`find_padded_window`) sorts every capped
/// padding option of an infeasible composition, up to ~1000 on the wider
/// devices, in a buffer kept here; reusing one scratch across plans keeps
/// that allocation-free after warm-up. The cached planning paths instead
/// record, per plan, how each distinct base composition resolved
/// (`CompResolution`), so their fallback — a row scan that makes one
/// index lookup per `(extra DSP, extra BRAM)` row, ~20 per fallback —
/// runs once per composition instead of once per height. A fresh
/// `PlanScratch::default()` is always valid — results never depend on
/// scratch contents, only allocation reuse does.
///
/// The scratch also counts the composition-index lookups its plans make
/// ([`PlanScratch::window_probe_count`]): a plain per-worker `u64`, so
/// sweep workers sharing one [`DeviceGeometry`] write no shared memory
/// per probe. The engine adds each plan's delta to its metrics once.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    options: Vec<(u64, [u32; 3], PrrOrganization)>,
    /// Per-plan composition → resolution cache (linear map: a plan touches
    /// at most `rows` distinct compositions). Cleared at plan start.
    resolutions: Vec<((u32, u32, u32), CompResolution)>,
    /// Cumulative count of padded-fallback enumerations resolved through
    /// this scratch (never reset; callers read deltas).
    padded_resolutions: u64,
    /// Cumulative count of composition-index lookups made through
    /// [`PlanScratch::probe`] (never reset; callers read deltas).
    window_probes: u64,
}

impl PlanScratch {
    /// Cumulative number of padded-fallback resolutions (full padding
    /// enumerations) performed through this scratch. Monotonic; the batch
    /// engine folds per-plan deltas into its metrics registry.
    pub fn padded_resolution_count(&self) -> u64 {
        self.padded_resolutions
    }

    /// Cumulative number of composition-index lookups (window probes)
    /// the cached planning paths made through this scratch. Monotonic;
    /// the batch engine folds per-plan deltas into its metrics registry.
    pub fn window_probe_count(&self) -> u64 {
        self.window_probes
    }

    /// Run `lookup`, one composition-index lookup, and count it as a
    /// window probe. Every index lookup of the cached search goes
    /// through here.
    fn probe<T>(&mut self, lookup: impl FnOnce() -> T) -> T {
        self.window_probes += 1;
        lookup()
    }
}

/// Outcome of evaluating one candidate height.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CandidateOutcome {
    /// A placeable PRR with its predicted bitstream size.
    Feasible {
        /// Organization at this height. When `padded_clb_cols > 0`, its
        /// `clb_cols` already includes the padding.
        organization: PrrOrganization,
        /// Leftmost placement window on the device.
        window: Window,
        /// Predicted `S_bitstream` in bytes.
        bitstream_bytes: u64,
        /// Extra `[CLB, DSP, BRAM]` columns beyond the Eqs. 2–5 counts
        /// that had to be absorbed because no exact-composition window
        /// exists on the device at this height (`[0, 0, 0]` for an exact
        /// fit). Padding is a designer-realistic fallback beyond the
        /// paper's flow, chosen to minimize the padded bitstream; it never
        /// activates for the paper's evaluation points.
        padded_cols: [u32; 3],
    },
    /// Eq. (4) case: a single-DSP-column device needs at least `min_height`
    /// rows to supply the PRM's DSPs.
    DspRowsInsufficient {
        /// Minimum feasible height.
        min_height: u32,
    },
    /// The organization is arithmetically valid but no contiguous column
    /// window with that composition exists on the device.
    NoWindow {
        /// The organization that failed to place.
        organization: PrrOrganization,
    },
}

/// One row of the Fig. 1 search trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Candidate height `H`.
    pub height: u32,
    /// What happened at this height.
    pub outcome: CandidateOutcome,
}

impl Candidate {
    /// Bitstream size if feasible.
    pub fn bitstream_bytes(&self) -> Option<u64> {
        match &self.outcome {
            CandidateOutcome::Feasible {
                bitstream_bytes, ..
            } => Some(*bitstream_bytes),
            _ => None,
        }
    }
}

/// The complete candidate-by-candidate record of one search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Device searched.
    pub device: String,
    /// One entry per height 1..=R, in order.
    pub candidates: Vec<Candidate>,
}

/// A selected PRR: the model's final answer for one PRM on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrrPlan {
    /// The requirements that were planned for.
    pub requirements: PrrRequirements,
    /// Chosen organization.
    pub organization: PrrOrganization,
    /// Physical placement (leftmost feasible window, bottom rows).
    pub window: Window,
    /// Predicted partial bitstream size in bytes (Eq. 18).
    pub bitstream_bytes: u64,
    /// Resource utilization of the PRM inside the chosen PRR.
    pub utilization: Utilization,
    /// Full search trace (Fig. 1 reproduction).
    pub trace: SearchTrace,
}

/// Plan the PRR for one synthesis report on `device`.
///
/// ```
/// use fabric::database::xc6vlx75t;
/// use synth::PaperPrm;
///
/// let device = xc6vlx75t();
/// let plan = prcost::plan_prr(&PaperPrm::Sdram.synth_report(device.family()), &device)?;
/// assert_eq!(plan.organization.height, 1);
/// assert_eq!(plan.organization.clb_cols, 2);
/// assert_eq!(plan.bitstream_bytes, 23_792);
/// # Ok::<(), prcost::CostError>(())
/// ```
pub fn plan_prr(report: &SynthReport, device: &Device) -> Result<PrrPlan, CostError> {
    let metrics = Metrics::global();
    metrics.plans.incr();
    let result = metrics.time("plan_prr", || {
        if report.family != device.family() {
            return Err(CostError::FamilyMismatch {
                report: report.family,
                device: device.family(),
            });
        }
        plan_prr_from_requirements(&PrrRequirements::from_report(report), device)
    });
    match &result {
        Ok(_) => metrics.plans_feasible.incr(),
        Err(_) => metrics.plans_infeasible.incr(),
    }
    result
}

/// [`plan_prr_from_requirements`], answered through a precomputed
/// [`DeviceGeometry`] and a reusable [`PlanScratch`].
///
/// Returns exactly what [`plan_prr_from_requirements`] returns for the
/// same inputs (the family and emptiness rejections happen in the same
/// order, the geometry's window answers are identical to
/// [`Device::find_window`]'s, and the padded-organization selection is
/// byte-for-byte preserved), but every window probe is a lock-free
/// composition-index lookup, and the planning loop is
/// **height-factored**: each distinct base composition — including its
/// padded fallback, which the per-height loop regenerates and re-sorts
/// at every infeasible height and which here is a row scan of one lookup
/// per `(extra DSP, extra BRAM)` row — resolves once per plan and is
/// reused across all heights that produce it. `geometry` must have been
/// derived from `device`.
///
/// This is the planning primitive under the memoizing engine and the
/// async planning service: both key their memos on `(requirements,
/// device)` — a plan is a pure function of exactly these inputs — so on a
/// miss they plan from the requirements they already hold. Unlike
/// [`plan_prr`], this records no global metrics — the engine owns its
/// own [`Metrics`] registry and times whole plans around this call.
pub fn plan_requirements_cached(
    req: &PrrRequirements,
    device: &Device,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
) -> Result<PrrPlan, CostError> {
    if req.family != device.family() {
        return Err(CostError::FamilyMismatch {
            report: req.family,
            device: device.family(),
        });
    }
    if req.is_empty() {
        return Err(CostError::EmptyRequirements);
    }
    scratch.resolutions.clear();
    let mut candidates = Vec::with_capacity(device.rows() as usize);
    for h in 1..=device.rows() {
        candidates.push(evaluate_height_cached(req, device, h, geometry, scratch));
    }
    select_best(req, device, candidates)
}

/// Plan the PRR for explicit requirements on `device`.
pub fn plan_prr_from_requirements(
    req: &PrrRequirements,
    device: &Device,
) -> Result<PrrPlan, CostError> {
    if req.family != device.family() {
        return Err(CostError::FamilyMismatch {
            report: req.family,
            device: device.family(),
        });
    }
    if req.is_empty() {
        return Err(CostError::EmptyRequirements);
    }

    let mut candidates = Vec::with_capacity(device.rows() as usize);
    for h in 1..=device.rows() {
        candidates.push(evaluate_height(req, device, h));
    }
    select_best(req, device, candidates)
}

/// All candidate evaluations for `req` on `device`, one per height, in
/// ascending height order — the raw material of the Fig. 1 search, also
/// consumed by the multi-PRR automatic floorplanner (`parflow`), which
/// needs every feasible organization rather than just the winner.
pub fn candidates_for(req: &PrrRequirements, device: &Device) -> Vec<Candidate> {
    if req.is_empty() || req.family != device.family() {
        return Vec::new();
    }
    (1..=device.rows())
        .map(|h| evaluate_height(req, device, h))
        .collect()
}

/// [`candidates_for`], with window probes answered through a precomputed
/// [`DeviceGeometry`] and the padded-fallback enumeration buffered in
/// `scratch`.
///
/// Returns exactly what [`candidates_for`] returns for the same inputs
/// (the geometry's window answers are identical to
/// [`Device::find_window`]'s), height-factored like
/// [`plan_requirements_cached`]:
/// each distinct base composition resolves once per call and serves every
/// height. Callers that evaluate several requirement sets against one
/// device — the multi-PRR floorplanner above all — share one geometry so
/// every probe is a lock-free index lookup instead of a column rescan.
/// `geometry` must have been derived from `device`.
pub fn candidates_for_cached(
    req: &PrrRequirements,
    device: &Device,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
) -> Vec<Candidate> {
    if req.is_empty() || req.family != device.family() {
        return Vec::new();
    }
    scratch.resolutions.clear();
    (1..=device.rows())
        .map(|h| evaluate_height_cached(req, device, h, geometry, scratch))
        .collect()
}

/// Evaluate one candidate height of the Fig. 1 flow: organization
/// (Eqs. 2–6), exact window search, and — only when no exact-composition
/// window exists — minimal CLB-column padding.
pub(crate) fn evaluate_height(req: &PrrRequirements, device: &Device, h: u32) -> Candidate {
    let finder = |r: &WindowRequest| device.find_window(r);
    evaluate_height_with(req, device, h, &finder, &mut PlanScratch::default())
}

/// [`evaluate_height`] with the window search routed through `finder`
/// ([`Device::find_window`]; tests also drive it through a
/// [`DeviceGeometry`]) and the padded-fallback enumeration buffered in
/// `scratch`.
fn evaluate_height_with(
    req: &PrrRequirements,
    device: &Device,
    h: u32,
    finder: &dyn Fn(&WindowRequest) -> Option<Window>,
    scratch: &mut PlanScratch,
) -> Candidate {
    let single_dsp = device.dsp_column_count() == 1;
    let outcome = match PrrOrganization::for_height(req, h, single_dsp) {
        Err(OrganizationError::EmptyRequirements) => {
            unreachable!("callers reject empty requirements")
        }
        Err(OrganizationError::SingleDspColumnNeedsRows { min_height }) => {
            CandidateOutcome::DspRowsInsufficient { min_height }
        }
        Ok(org) => {
            let exact = finder(&org.window_request());
            let placed = match exact {
                Some(w) => Some((org, w, [0u32; 3])),
                None => find_padded_window(&org, device, finder, scratch),
            };
            match placed {
                None => CandidateOutcome::NoWindow { organization: org },
                Some((org, window, padded_cols)) => CandidateOutcome::Feasible {
                    bitstream_bytes: bitstream_size_bytes(&org),
                    organization: org,
                    window,
                    padded_cols,
                },
            }
        }
    };
    Candidate { height: h, outcome }
}

/// [`evaluate_height`] with the window search answered from a
/// [`DeviceGeometry`] composition index and the plan's
/// composition-resolution cache: the padded fallback's row scan runs at
/// most once per distinct base composition, not once per height.
/// Byte-identical to [`evaluate_height`] — see [`CompResolution`] for why
/// the resolution is height-invariant.
fn evaluate_height_cached(
    req: &PrrRequirements,
    device: &Device,
    h: u32,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
) -> Candidate {
    let single_dsp = device.dsp_column_count() == 1;
    let outcome = match PrrOrganization::for_height(req, h, single_dsp) {
        Err(OrganizationError::EmptyRequirements) => {
            unreachable!("callers reject empty requirements")
        }
        Err(OrganizationError::SingleDspColumnNeedsRows { min_height }) => {
            CandidateOutcome::DspRowsInsufficient { min_height }
        }
        Ok(org) => match resolve_composition(&org, device, geometry, scratch) {
            CompResolution::Infeasible => CandidateOutcome::NoWindow { organization: org },
            CompResolution::Exact => {
                let window = scratch
                    .probe(|| geometry.find_window(device, &org.window_request()))
                    .expect("resolved exact composition has a window");
                CandidateOutcome::Feasible {
                    bitstream_bytes: bitstream_size_bytes(&org),
                    organization: org,
                    window,
                    padded_cols: [0; 3],
                }
            }
            CompResolution::Padded { pad } => {
                let padded = PrrOrganization {
                    clb_cols: org.clb_cols + pad[0],
                    dsp_cols: org.dsp_cols + pad[1],
                    bram_cols: org.bram_cols + pad[2],
                    ..org
                };
                let window = scratch
                    .probe(|| geometry.find_window(device, &padded.window_request()))
                    .expect("resolved padded composition has a window");
                CandidateOutcome::Feasible {
                    bitstream_bytes: bitstream_size_bytes(&padded),
                    organization: padded,
                    window,
                    padded_cols: pad,
                }
            }
        },
    };
    Candidate { height: h, outcome }
}

/// Resolve how `org`'s base composition places on `device`, consulting the
/// plan's resolution cache first. A cache miss costs one index probe
/// (exact case) plus, in the fallback case, one padded row scan; every
/// later height with the same composition is a linear-map hit.
fn resolve_composition(
    org: &PrrOrganization,
    device: &Device,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
) -> CompResolution {
    let key = (org.clb_cols, org.dsp_cols, org.bram_cols);
    if let Some((_, r)) = scratch.resolutions.iter().find(|(k, _)| *k == key) {
        return *r;
    }
    let resolution = if scratch
        .probe(|| geometry.leftmost_start(org.clb_cols, org.dsp_cols, org.bram_cols))
        .is_some()
    {
        CompResolution::Exact
    } else {
        scratch.padded_resolutions += 1;
        match find_padded_composition(org, device, geometry, scratch) {
            Some(pad) => CompResolution::Padded { pad },
            None => CompResolution::Infeasible,
        }
    };
    scratch.resolutions.push((key, resolution));
    resolution
}

/// The padded-fallback search of [`find_padded_window`], answered from
/// the composition index one `(extra DSP, extra BRAM)` row at a time.
///
/// The seed sorts the options stably by `(bytes, pad_sum)` in generation
/// order — lexicographic in `(ec, ed, eb)` — and takes the first feasible
/// one, so its winner is the feasible minimum of the key
/// `(Eq. 18 bytes, pad_sum, [ec, ed, eb])`. Along each padding axis the
/// bytes never fall and the pad sum strictly rises, so the key strictly
/// rises too. Hence, within a row `(ed, eb)`, the smallest feasible `ec`
/// is the row's best, and the geometry returns it in one lookup
/// ([`DeviceGeometry::min_clb_at_least`]); the row's `ec = 0` key bounds
/// every option of every later row in its `eb` loop, and at `eb = 0` of
/// every later row at all. Returns the winning pad counts, or None if no
/// capped padding is feasible (re-checked uncapped in debug builds, like
/// the seed path).
fn find_padded_composition(
    org: &PrrOrganization,
    device: &Device,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
) -> Option<[u32; 3]> {
    let found = find_padded_composition_with_caps(
        org,
        device,
        geometry,
        scratch,
        MAX_PAD_DSP_COLS,
        MAX_PAD_BRAM_COLS,
    );
    #[cfg(debug_assertions)]
    if found.is_none() {
        debug_assert!(
            find_padded_composition_with_caps(org, device, geometry, scratch, u32::MAX, u32::MAX)
                .is_none(),
            "padding caps hid a feasible plan for {org:?} on {}",
            device.name()
        );
    }
    found
}

/// The fallback's comparison key for padding `org` by `pad`:
/// `(Eq. 18 bytes, pad_sum, pad)`, minimal for the seed's winner.
fn pad_key(org: &PrrOrganization, pad: [u32; 3]) -> (u64, u32, [u32; 3]) {
    let padded = PrrOrganization {
        clb_cols: org.clb_cols + pad[0],
        dsp_cols: org.dsp_cols + pad[1],
        bram_cols: org.bram_cols + pad[2],
        ..*org
    };
    (bitstream_size_bytes(&padded), pad[0] + pad[1] + pad[2], pad)
}

/// [`find_padded_composition`] with explicit DSP/BRAM padding caps.
fn find_padded_composition_with_caps(
    org: &PrrOrganization,
    device: &Device,
    geometry: &DeviceGeometry,
    scratch: &mut PlanScratch,
    dsp_cap: u32,
    bram_cap: u32,
) -> Option<[u32; 3]> {
    let counts = device.column_counts();
    let max_dsp = (counts.dsp() as u32)
        .saturating_sub(org.dsp_cols)
        .min(dsp_cap);
    let max_bram = (counts.bram() as u32)
        .saturating_sub(org.bram_cols)
        .min(bram_cap);
    let mut best: Option<(u64, u32, [u32; 3])> = None;
    'scan: for ed in 0..=max_dsp {
        for eb in 0..=max_bram {
            if best.is_some_and(|b| pad_key(org, [0, ed, eb]) >= b) {
                if eb == 0 {
                    break 'scan;
                }
                break;
            }
            // Row (0, 0) starts at ec = 1: the zero padding is the exact
            // composition, which has no window.
            let Some(min_clb) = org.clb_cols.checked_add(u32::from(ed + eb == 0)) else {
                continue;
            };
            let (dsp, bram) = (org.dsp_cols + ed, org.bram_cols + eb);
            let Some(clb) = scratch.probe(|| geometry.min_clb_at_least(min_clb, dsp, bram)) else {
                continue;
            };
            let key = pad_key(org, [clb - org.clb_cols, ed, eb]);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
    }
    best.map(|(_, _, pad)| pad)
}

/// When no exact-composition window exists, absorb extra columns:
/// enumerate small paddings of each kind, order them by the padded
/// organization's predicted bitstream (the search objective), and take the
/// cheapest one with a real window. The enumeration buffer lives in
/// `scratch` so sweep workers stop allocating here after warm-up; the
/// stable sort over identical insertion order keeps results byte-for-byte
/// independent of scratch reuse. In debug builds, a capped enumeration
/// that comes up empty is re-checked uncapped to prove the
/// [`MAX_PAD_DSP_COLS`]/[`MAX_PAD_BRAM_COLS`] caps hid no feasible plan.
fn find_padded_window(
    org: &PrrOrganization,
    device: &Device,
    finder: &dyn Fn(&WindowRequest) -> Option<Window>,
    scratch: &mut PlanScratch,
) -> Option<(PrrOrganization, Window, [u32; 3])> {
    let found = find_padded_window_with_caps(
        org,
        device,
        finder,
        scratch,
        MAX_PAD_DSP_COLS,
        MAX_PAD_BRAM_COLS,
    );
    #[cfg(debug_assertions)]
    if found.is_none() {
        debug_assert!(
            find_padded_window_with_caps(org, device, finder, scratch, u32::MAX, u32::MAX)
                .is_none(),
            "padding caps hid a feasible plan for {org:?} on {}",
            device.name()
        );
    }
    found
}

/// [`find_padded_window`] with explicit DSP/BRAM padding caps. The public
/// planning paths pass [`MAX_PAD_DSP_COLS`]/[`MAX_PAD_BRAM_COLS`]; the
/// uncapped variant (`u32::MAX`, clamped by device column counts) serves
/// as the oracle proving the caps lose no feasible plan.
fn find_padded_window_with_caps(
    org: &PrrOrganization,
    device: &Device,
    finder: &dyn Fn(&WindowRequest) -> Option<Window>,
    scratch: &mut PlanScratch,
    dsp_cap: u32,
    bram_cap: u32,
) -> Option<(PrrOrganization, Window, [u32; 3])> {
    let counts = device.column_counts();
    let max_clb = (counts.clb() as u32).saturating_sub(org.clb_cols);
    let max_dsp = (counts.dsp() as u32)
        .saturating_sub(org.dsp_cols)
        .min(dsp_cap);
    let max_bram = (counts.bram() as u32)
        .saturating_sub(org.bram_cols)
        .min(bram_cap);

    let options = &mut scratch.options;
    options.clear();
    for ec in 0..=max_clb {
        for ed in 0..=max_dsp {
            for eb in 0..=max_bram {
                if ec + ed + eb == 0 {
                    continue;
                }
                let padded = PrrOrganization {
                    clb_cols: org.clb_cols + ec,
                    dsp_cols: org.dsp_cols + ed,
                    bram_cols: org.bram_cols + eb,
                    ..*org
                };
                options.push((bitstream_size_bytes(&padded), [ec, ed, eb], padded));
            }
        }
    }
    options.sort_by_key(|(bytes, pad, _)| (*bytes, pad[0] + pad[1] + pad[2]));
    for (_, pad, padded) in options.iter() {
        if let Some(w) = finder(&padded.window_request()) {
            return Some((*padded, w, *pad));
        }
    }
    None
}

/// Pick the best feasible candidate: minimum predicted bitstream, then
/// minimum `PRR_size`, then minimum height.
pub(crate) fn select_best(
    req: &PrrRequirements,
    device: &Device,
    candidates: Vec<Candidate>,
) -> Result<PrrPlan, CostError> {
    let mut best: Option<(u64, u64, u32, PrrOrganization, Window)> = None;
    for c in &candidates {
        if let CandidateOutcome::Feasible {
            organization,
            window,
            bitstream_bytes,
            ..
        } = &c.outcome
        {
            let key = (*bitstream_bytes, organization.prr_size(), c.height);
            if best
                .as_ref()
                .is_none_or(|(bb, bs, bh, ..)| key < (*bb, *bs, *bh))
            {
                best = Some((
                    *bitstream_bytes,
                    organization.prr_size(),
                    c.height,
                    *organization,
                    window.clone(),
                ));
            }
        }
    }
    let trace = SearchTrace {
        device: device.name().to_string(),
        candidates,
    };
    match best {
        None => Err(CostError::NoFeasiblePlacement {
            device: device.name().to_string(),
            trace,
        }),
        Some((bytes, _, _, org, window)) => Ok(PrrPlan {
            requirements: *req,
            utilization: org.utilization(req),
            organization: org,
            window,
            bitstream_bytes: bytes,
            trace,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::{xc5vlx110t, xc6vlx75t};
    use fabric::{ColumnKind, Family};
    use synth::PaperPrm;

    /// The headline Table V reproduction: the search must select exactly
    /// the paper's PRR organization for all six PRM/device pairs.
    #[test]
    fn table5_organizations_selected() {
        let v5 = xc5vlx110t();
        let v6 = xc6vlx75t();
        // (prm, device, H, W_CLB, W_DSP, W_BRAM)
        let cases = [
            (PaperPrm::Fir, &v5, 5, 2, 1, 0),
            (PaperPrm::Mips, &v5, 1, 17, 1, 2),
            (PaperPrm::Sdram, &v5, 1, 3, 0, 0),
            (PaperPrm::Fir, &v6, 1, 5, 2, 0),
            (PaperPrm::Mips, &v6, 1, 11, 1, 1),
            (PaperPrm::Sdram, &v6, 1, 2, 0, 0),
        ];
        for (prm, device, h, wc, wd, wb) in cases {
            let report = prm.synth_report(device.family());
            let plan = plan_prr(&report, device).unwrap();
            let o = &plan.organization;
            assert_eq!(
                (o.height, o.clb_cols, o.dsp_cols, o.bram_cols),
                (h, wc, wd, wb),
                "{prm:?} on {}",
                device.name()
            );
        }
    }

    /// FIR on the LX110T: H=4 is feasible but H=5 has the smaller
    /// bitstream; the trace must show both and the plan must pick H=5.
    #[test]
    fn fir_v5_prefers_smaller_bitstream_over_first_feasible() {
        let device = xc5vlx110t();
        let plan = plan_prr(&PaperPrm::Fir.synth_report(Family::Virtex5), &device).unwrap();
        assert_eq!(plan.organization.height, 5);

        let h4 = &plan.trace.candidates[3];
        let h5 = &plan.trace.candidates[4];
        let (b4, b5) = (h4.bitstream_bytes().unwrap(), h5.bitstream_bytes().unwrap());
        assert!(b5 < b4, "H=5 ({b5} B) beats H=4 ({b4} B)");
        assert_eq!(plan.bitstream_bytes, b5);

        // Heights 1-3 fail the Eq. 4 DSP-row constraint.
        for c in &plan.trace.candidates[..3] {
            assert!(matches!(
                c.outcome,
                CandidateOutcome::DspRowsInsufficient { min_height: 4 }
            ));
        }
    }

    #[test]
    fn trace_covers_every_height() {
        let device = xc6vlx75t();
        let plan = plan_prr(&PaperPrm::Mips.synth_report(Family::Virtex6), &device).unwrap();
        assert_eq!(plan.trace.candidates.len(), 3);
        assert_eq!(
            plan.trace
                .candidates
                .iter()
                .map(|c| c.height)
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn family_mismatch_is_rejected() {
        let device = xc6vlx75t();
        let report = PaperPrm::Fir.synth_report(Family::Virtex5);
        assert!(matches!(
            plan_prr(&report, &device),
            Err(CostError::FamilyMismatch { .. })
        ));
    }

    #[test]
    fn empty_requirements_are_rejected() {
        let device = xc5vlx110t();
        let req = PrrRequirements::new(Family::Virtex5, 0, 0, 0, 0, 0);
        assert!(matches!(
            plan_prr_from_requirements(&req, &device),
            Err(CostError::EmptyRequirements)
        ));
    }

    #[test]
    fn oversized_prm_yields_no_placement_with_trace() {
        let device = xc5vlx110t();
        // More CLBs than the whole device (8640).
        let req = PrrRequirements::new(Family::Virtex5, 100_000, 0, 0, 0, 0);
        match plan_prr_from_requirements(&req, &device) {
            Err(CostError::NoFeasiblePlacement {
                device: name,
                trace,
            }) => {
                assert_eq!(name, "xc5vlx110t");
                assert_eq!(trace.candidates.len(), 8);
                assert!(trace
                    .candidates
                    .iter()
                    .all(|c| matches!(c.outcome, CandidateOutcome::NoWindow { .. })));
            }
            other => panic!("expected NoFeasiblePlacement, got {other:?}"),
        }
    }

    /// The geometry-cached path must reproduce the direct path exactly,
    /// including when one scratch is reused across plans.
    #[test]
    fn cached_planning_matches_direct_planning() {
        let mut scratch = PlanScratch::default();
        for device in [xc5vlx110t(), xc6vlx75t()] {
            let geo = fabric::DeviceGeometry::new(&device);
            for prm in PaperPrm::ALL {
                let report = prm.synth_report(device.family());
                let direct = plan_prr(&report, &device).unwrap();
                let req = PrrRequirements::from_report(&report);
                let cached = plan_requirements_cached(&req, &device, &geo, &mut scratch).unwrap();
                assert_eq!(direct, cached, "{prm:?} on {}", device.name());
            }
        }
    }

    /// A requirement grid heavy in BRAM/DSP so that many points have no
    /// exact-composition window and exercise the padded fallback.
    fn padding_grid(family: Family) -> Vec<PrrRequirements> {
        let mut reqs = Vec::new();
        for lut_ff in [0u64, 40, 600, 2600] {
            for dsp in [0u64, 3, 9, 30] {
                for bram in [0u64, 2, 6, 20] {
                    let req = PrrRequirements::new(family, lut_ff, lut_ff, lut_ff, dsp, bram);
                    if !req.is_empty() {
                        reqs.push(req);
                    }
                }
            }
        }
        reqs
    }

    /// The DSP/BRAM padding caps must not hide any feasible plan: on every
    /// database device, every grid point either plans identically with
    /// capped and uncapped padding, or fails on both.
    #[test]
    fn padding_caps_lose_no_feasible_plan() {
        let mut scratch = PlanScratch::default();
        let mut padded_points = 0u32;
        for device in fabric::all_devices() {
            let finder = |r: &fabric::WindowRequest| device.find_window(r);
            for req in padding_grid(device.family()) {
                let single_dsp = device.dsp_column_count() == 1;
                for h in 1..=device.rows() {
                    let Ok(org) = PrrOrganization::for_height(&req, h, single_dsp) else {
                        continue;
                    };
                    if finder(&org.window_request()).is_some() {
                        continue; // exact fit: padding never consulted
                    }
                    padded_points += 1;
                    let capped = find_padded_window_with_caps(
                        &org,
                        &device,
                        &finder,
                        &mut scratch,
                        MAX_PAD_DSP_COLS,
                        MAX_PAD_BRAM_COLS,
                    );
                    let uncapped = find_padded_window_with_caps(
                        &org,
                        &device,
                        &finder,
                        &mut scratch,
                        u32::MAX,
                        u32::MAX,
                    );
                    assert_eq!(capped, uncapped, "{org:?} on {}", device.name());
                }
            }
        }
        assert!(padded_points > 100, "grid must exercise the padded path");
    }

    /// The height-factored cached path must agree with the per-height seed
    /// path on requirement points that trigger the padded fallback (the
    /// Table V points all fit exactly, so check the padding grid too).
    #[test]
    fn cached_planning_matches_direct_on_padding_grid() {
        let mut scratch = PlanScratch::default();
        for device in fabric::all_devices() {
            let geo = fabric::DeviceGeometry::new(&device);
            for req in padding_grid(device.family()) {
                let direct = plan_prr_from_requirements(&req, &device);
                let finder = |r: &fabric::WindowRequest| geo.find_window(&device, r);
                scratch.resolutions.clear();
                let mut candidates = Vec::new();
                for h in 1..=device.rows() {
                    candidates.push(evaluate_height_cached(&req, &device, h, &geo, &mut scratch));
                }
                let cached = select_best(&req, &device, candidates);
                match (&direct, &cached) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{req:?} on {}", device.name()),
                    (Err(_), Err(_)) => {}
                    _ => panic!("feasibility disagreement for {req:?} on {}", device.name()),
                }
                // The direct per-height loop driven through the geometry
                // must agree too.
                let seed_cands: Vec<Candidate> = (1..=device.rows())
                    .map(|h| evaluate_height_with(&req, &device, h, &finder, &mut scratch))
                    .collect();
                let direct_cands = candidates_for(&req, &device);
                assert_eq!(seed_cands, direct_cands, "{req:?} on {}", device.name());
            }
        }
    }

    /// The padded fallback as it was before the row scan, kept as the
    /// oracle: enumerate every `(ec, ed, eb)` padding in generation order
    /// and keep the first minimum of `(bytes, pad_sum)` over the ones
    /// whose composition is `feasible` — the winner of the seed's stable
    /// sort.
    fn full_scan_with_caps(
        org: &PrrOrganization,
        device: &Device,
        feasible: &dyn Fn(u32, u32, u32) -> bool,
        dsp_cap: u32,
        bram_cap: u32,
    ) -> Option<[u32; 3]> {
        let counts = device.column_counts();
        let max_clb = (counts.clb() as u32).saturating_sub(org.clb_cols);
        let max_dsp = (counts.dsp() as u32)
            .saturating_sub(org.dsp_cols)
            .min(dsp_cap);
        let max_bram = (counts.bram() as u32)
            .saturating_sub(org.bram_cols)
            .min(bram_cap);

        let mut best: Option<(u64, u32, [u32; 3])> = None;
        for ec in 0..=max_clb {
            for ed in 0..=max_dsp {
                for eb in 0..=max_bram {
                    if ec + ed + eb == 0 {
                        continue;
                    }
                    let (clb, dsp, bram) =
                        (org.clb_cols + ec, org.dsp_cols + ed, org.bram_cols + eb);
                    if !feasible(clb, dsp, bram) {
                        continue;
                    }
                    let padded = PrrOrganization {
                        clb_cols: clb,
                        dsp_cols: dsp,
                        bram_cols: bram,
                        ..*org
                    };
                    let key = (bitstream_size_bytes(&padded), ec + ed + eb);
                    // Strict < keeps the earliest generated option on ties,
                    // matching the seed's stable sort.
                    if best.is_none_or(|(bytes, pads, _)| key < (bytes, pads)) {
                        best = Some((key.0, key.1, [ec, ed, eb]));
                    }
                }
            }
        }
        best.map(|(_, _, pad)| pad)
    }

    /// Every achievable composition of `device`, from a brute-force walk
    /// over its IOB/CLK-free spans, as a dense `[clb][dsp][bram]` table.
    fn achievable(device: &Device) -> impl Fn(u32, u32, u32) -> bool {
        let counts = device.column_counts();
        let dims = [counts.clb(), counts.dsp(), counts.bram()].map(|n| n as usize + 1);
        let mut table = vec![false; dims[0] * dims[1] * dims[2]];
        let cols = device.columns();
        for start in 0..cols.len() {
            let mut c = [0usize; 3];
            for kind in cols[start..].iter().take_while(|k| k.allowed_in_prr()) {
                c[kind.prr_count_slot()] += 1;
                table[(c[0] * dims[1] + c[1]) * dims[2] + c[2]] = true;
            }
        }
        move |clb, dsp, bram| {
            let [c, d, b] = [clb, dsp, bram].map(|n| n as usize);
            c < dims[0] && d < dims[1] && b < dims[2] && table[(c * dims[1] + d) * dims[2] + b]
        }
    }

    /// The production `[DSP, BRAM]` padding caps, and none.
    const CAPS: [[u32; 2]; 2] = [[MAX_PAD_DSP_COLS, MAX_PAD_BRAM_COLS], [u32::MAX; 2]];

    /// The row scan and the full enumeration pick the same pad, with the
    /// production caps and uncapped, for every composition up to each
    /// kind's column count + 1 on every database device. One height per
    /// device: the winner does not depend on height (see
    /// [`CompResolution`]).
    #[test]
    fn row_scan_matches_full_enumeration() {
        let mut scratch = PlanScratch::default();
        let mut padded = 0u32;
        for device in fabric::all_devices() {
            let geo = DeviceGeometry::new(&device);
            let feasible = achievable(&device);
            let counts = device.column_counts();
            for clb in 0..=counts.clb() as u32 + 1 {
                for dsp in 0..=counts.dsp() as u32 + 1 {
                    for bram in 0..=counts.bram() as u32 + 1 {
                        let org = PrrOrganization {
                            family: device.family(),
                            height: 1,
                            clb_cols: clb,
                            dsp_cols: dsp,
                            bram_cols: bram,
                        };
                        padded += u32::from(!feasible(clb, dsp, bram));
                        for [dsp_cap, bram_cap] in CAPS {
                            assert_eq!(
                                find_padded_composition_with_caps(
                                    &org,
                                    &device,
                                    &geo,
                                    &mut scratch,
                                    dsp_cap,
                                    bram_cap
                                ),
                                full_scan_with_caps(&org, &device, &feasible, dsp_cap, bram_cap),
                                "{org:?} on {}, caps {dsp_cap}/{bram_cap}",
                                device.name()
                            );
                        }
                    }
                }
            }
        }
        assert!(padded > 10_000, "only {padded} organizations need padding");
    }

    /// A fabric whose only paddings of the base `(c0, d0, b0)` (with
    /// `c0 ≥ 2`, `d0 ≥ 1`, `b0 ≥ 1`) are `(16, 0, 0)` and `(0, 15, 1)`.
    /// On Virtex-6 and 7-series frames the two tie on `(bytes, pad_sum)`
    /// (16 CLB frames cost what 15 DSP and one BRAM column cost), so the
    /// seed's generation order decides: `(0, 15, 1)` wins uncapped, and
    /// `(16, 0, 0)` under the caps. The `noise` runs hold no BRAM, so
    /// they add no padding of the base.
    fn tie_fabric(family: Family, base: [u32; 3], noise: &[Vec<ColumnKind>]) -> Device {
        use fabric::ResourceKind::{Bram, Clb, Dsp, Iob};
        let [c0, d0, b0] = base;
        let run = |kind, n: u32| std::iter::repeat_n(kind, n as usize);
        let mut cols: Vec<ColumnKind> = Vec::new();
        // (c0 + 16, d0, b0): DSPs and BRAMs at opposite ends, so every
        // span covering the base is the whole run.
        cols.extend(run(Dsp, d0).chain(run(Clb, c0 + 16)).chain(run(Bram, b0)));
        cols.push(Iob);
        // (c0, d0 + 15, b0 + 1): the CLBs at both ends, so the same holds.
        cols.extend(
            run(Clb, 1)
                .chain(run(Bram, 1))
                .chain(run(Dsp, d0 + 15))
                .chain(run(Bram, b0))
                .chain(run(Clb, c0 - 1)),
        );
        for n in noise {
            cols.push(Iob);
            cols.extend(n.iter().filter(|&&k| k != Bram));
        }
        Device::new("tie", family, 2, cols).unwrap()
    }

    #[test]
    fn row_scan_breaks_ties_like_the_stable_sort() {
        for family in [Family::Virtex6, Family::Series7] {
            let device = tie_fabric(family, [2, 1, 1], &[]);
            let geo = DeviceGeometry::new(&device);
            let finder = |r: &WindowRequest| device.find_window(r);
            let org = PrrOrganization {
                family,
                height: 1,
                clb_cols: 2,
                dsp_cols: 1,
                bram_cols: 1,
            };
            let (a, b) = (pad_key(&org, [16, 0, 0]), pad_key(&org, [0, 15, 1]));
            assert_eq!((a.0, a.1), (b.0, b.1), "the two paddings must tie");
            let mut scratch = PlanScratch::default();
            for ([dsp_cap, bram_cap], pad) in CAPS.into_iter().zip([[16, 0, 0], [0, 15, 1]]) {
                let direct = find_padded_window_with_caps(
                    &org,
                    &device,
                    &finder,
                    &mut scratch,
                    dsp_cap,
                    bram_cap,
                );
                assert_eq!(direct.map(|(_, _, p)| p), Some(pad));
                let scan = find_padded_composition_with_caps(
                    &org,
                    &device,
                    &geo,
                    &mut scratch,
                    dsp_cap,
                    bram_cap,
                );
                assert_eq!(scan, Some(pad));
            }
        }
    }

    mod props {
        use super::*;
        use fabric::ResourceKind;
        use proptest::prelude::*;

        fn arb_columns(max: usize) -> impl Strategy<Value = Vec<ColumnKind>> {
            proptest::collection::vec(
                prop_oneof![
                    6 => Just(ResourceKind::Clb),
                    2 => Just(ResourceKind::Dsp),
                    2 => Just(ResourceKind::Bram),
                    1 => Just(ResourceKind::Iob),
                    1 => Just(ResourceKind::Clk),
                ],
                1..max,
            )
        }

        fn arb_family() -> impl Strategy<Value = Family> {
            prop_oneof![
                Just(Family::Virtex4),
                Just(Family::Virtex5),
                Just(Family::Virtex6),
                Just(Family::Series7),
                Just(Family::Spartan6),
            ]
        }

        /// A random fabric and base composition, or — one case in three —
        /// a [`tie_fabric`] with random noise and its tied base.
        fn arb_case() -> impl Strategy<Value = (Device, [u32; 3])> {
            let random = (arb_columns(60), arb_family(), 0u32..12, 0u32..4, 0u32..4).prop_map(
                |(cols, family, c, d, b)| {
                    (Device::new("prop", family, 2, cols).unwrap(), [c, d, b])
                },
            );
            let tied = (
                prop_oneof![Just(Family::Virtex6), Just(Family::Series7)],
                2u32..6,
                1u32..3,
                1u32..3,
                proptest::collection::vec(arb_columns(20), 0..3),
            )
                .prop_map(|(family, c, d, b, noise)| {
                    (tie_fabric(family, [c, d, b], &noise), [c, d, b])
                });
            prop_oneof![2 => random, 1 => tied]
        }

        proptest! {
            /// On random fabrics, ties included, the row scan picks the
            /// full enumeration's pad and the direct path's padded window,
            /// with the production caps and uncapped.
            #[test]
            fn row_scan_matches_oracles_on_random_fabrics(
                (device, [clb, dsp, bram]) in arb_case(),
            ) {
                let geo = DeviceGeometry::new(&device);
                let feasible = achievable(&device);
                let finder = |r: &WindowRequest| device.find_window(r);
                let org = PrrOrganization {
                    family: device.family(),
                    height: 1,
                    clb_cols: clb,
                    dsp_cols: dsp,
                    bram_cols: bram,
                };
                let mut scratch = PlanScratch::default();
                for [dsp_cap, bram_cap] in CAPS {
                    let scan = find_padded_composition_with_caps(
                        &org, &device, &geo, &mut scratch, dsp_cap, bram_cap,
                    );
                    let full = full_scan_with_caps(&org, &device, &feasible, dsp_cap, bram_cap);
                    let direct = find_padded_window_with_caps(
                        &org, &device, &finder, &mut scratch, dsp_cap, bram_cap,
                    );
                    prop_assert_eq!(scan, full);
                    prop_assert_eq!(scan, direct.map(|(_, _, pad)| pad));
                }
            }
        }
    }

    /// The rows `(ed, eb)` the capped row scan looks up for `org`, replayed
    /// from each row's brute-force best `ec` over [`Device::find_window`]:
    /// a row is looked up unless its `ec = 0` key already loses to the
    /// incumbent, which ends its `eb` loop (the whole scan at `eb = 0`).
    fn rows_looked_up(org: &PrrOrganization, device: &Device) -> u32 {
        let counts = device.column_counts();
        let max_clb = counts.clb() as u32;
        let max_dsp = (counts.dsp() as u32 - org.dsp_cols).min(MAX_PAD_DSP_COLS);
        let max_bram = (counts.bram() as u32 - org.bram_cols).min(MAX_PAD_BRAM_COLS);
        let mut best = None;
        let mut rows = 0;
        'scan: for ed in 0..=max_dsp {
            for eb in 0..=max_bram {
                if best.is_some_and(|b| pad_key(org, [0, ed, eb]) >= b) {
                    if eb == 0 {
                        break 'scan;
                    }
                    break;
                }
                rows += 1;
                let row_best = (u32::from(ed + eb == 0)..=max_clb - org.clb_cols).find(|&ec| {
                    let req = WindowRequest::new(
                        org.clb_cols + ec,
                        org.dsp_cols + ed,
                        org.bram_cols + eb,
                        1,
                    );
                    device.find_window(&req).is_some()
                });
                if let Some(ec) = row_best {
                    let key = pad_key(org, [ec, ed, eb]);
                    best = Some(best.map_or(key, |b: (u64, u32, [u32; 3])| b.min(key)));
                }
            }
        }
        rows
    }

    /// A cached search counts one window probe per index lookup: one per
    /// distinct base composition (its resolution), one per row the padded
    /// fallback's scan looks up, and one per feasible height (its window).
    /// Requirements rejected before the search probe nothing.
    #[test]
    fn cached_search_counts_one_probe_per_index_lookup() {
        let sdram = PrrRequirements::from_report(&PaperPrm::Sdram.synth_report(Family::Virtex6));
        // Pads two base compositions, at heights 1 and 2 (the BRAM
        // columns are isolated), and fits exactly above.
        let bram_heavy = PrrRequirements::new(Family::Virtex5, 8, 8, 8, 0, 12);
        for (device, req, padded, probes) in [
            (xc6vlx75t(), sdram, 0, 5),
            (xc5vlx110t(), bram_heavy, 2, 21),
        ] {
            let geo = fabric::DeviceGeometry::new(&device);
            let mut scratch = PlanScratch::default();
            let candidates = candidates_for_cached(&req, &device, &geo, &mut scratch);
            let mut bases = std::collections::HashSet::new();
            let mut expected = 0;
            for c in &candidates {
                let CandidateOutcome::Feasible {
                    organization: o,
                    padded_cols: pad,
                    ..
                } = &c.outcome
                else {
                    continue;
                };
                let base = PrrOrganization {
                    clb_cols: o.clb_cols - pad[0],
                    dsp_cols: o.dsp_cols - pad[1],
                    bram_cols: o.bram_cols - pad[2],
                    ..*o
                };
                if bases.insert((base.clb_cols, base.dsp_cols, base.bram_cols)) {
                    expected += 1;
                    if *pad != [0; 3] {
                        expected += rows_looked_up(&base, &device);
                    }
                }
                expected += 1;
            }
            assert!(candidates
                .iter()
                .all(|c| !matches!(c.outcome, CandidateOutcome::NoWindow { .. })));
            assert_eq!(scratch.padded_resolution_count(), padded);
            assert_eq!(scratch.window_probe_count(), u64::from(expected));
            assert_eq!(scratch.window_probe_count(), probes, "{}", device.name());
        }
        let device = xc6vlx75t();
        let geo = fabric::DeviceGeometry::new(&device);
        let mut scratch = PlanScratch::default();
        let mismatched =
            PrrRequirements::from_report(&PaperPrm::Sdram.synth_report(Family::Virtex5));
        assert!(plan_requirements_cached(&mismatched, &device, &geo, &mut scratch).is_err());
        let empty = PrrRequirements::new(device.family(), 0, 0, 0, 0, 0);
        assert!(plan_requirements_cached(&empty, &device, &geo, &mut scratch).is_err());
        assert_eq!(scratch.window_probe_count(), 0);
    }

    /// Requirements whose column counts no device can hold, at the old
    /// 21-bit key width and at the `u32` boundary, per kind, plus
    /// `u64::MAX` requirements.
    fn oversized_requirements(family: Family) -> Vec<PrrRequirements> {
        let p = family.params();
        let mut reqs = Vec::new();
        for cols in [1u64 << 21, 1 << 32] {
            for extra in [0, 1] {
                let clb = u64::from(p.clb_col) * cols + extra;
                let dsp = u64::from(p.dsp_col) * cols + extra;
                let bram = u64::from(p.bram_col) * cols + extra;
                let lut_ff = clb * u64::from(p.lut_clb);
                reqs.push(PrrRequirements::new(family, lut_ff, 0, 0, 0, 0));
                reqs.push(PrrRequirements::new(family, 8, 8, 8, dsp, 0));
                reqs.push(PrrRequirements::new(family, 8, 8, 8, 0, bram));
            }
        }
        reqs.push(PrrRequirements::new(family, u64::MAX, 0, 0, 0, 0));
        reqs.push(PrrRequirements::new(family, 8, 8, 8, u64::MAX, 0));
        reqs.push(PrrRequirements::new(family, 8, 8, 8, 0, u64::MAX));
        reqs.push(PrrRequirements::new(
            family,
            u64::MAX,
            0,
            0,
            u64::MAX,
            u64::MAX,
        ));
        reqs
    }

    /// A requirement too large for any device is `Err`, never a wrapped
    /// plan or a panic, on the direct path, the cached path and the engine,
    /// for every database device (single- and multi-DSP-column alike).
    #[test]
    fn oversized_requirements_never_place() {
        let engine = crate::Engine::new();
        let mut scratch = PlanScratch::default();
        let devices = fabric::all_devices();
        assert!(devices.iter().any(|d| d.dsp_column_count() == 1));
        assert!(devices.iter().any(|d| d.dsp_column_count() > 1));
        for device in &devices {
            let geo = DeviceGeometry::new(device);
            for req in oversized_requirements(device.family()) {
                let direct = plan_prr_from_requirements(&req, device);
                let cached = plan_requirements_cached(&req, device, &geo, &mut scratch);
                let engine = engine.plan_requirements(&req, device, &mut scratch);
                for (path, result) in [
                    ("direct", &direct),
                    ("cached", &cached),
                    ("engine", &*engine),
                ] {
                    assert!(
                        matches!(result, Err(CostError::NoFeasiblePlacement { .. })),
                        "{path} path planned {req:?} on {}: {result:?}",
                        device.name()
                    );
                }
            }
        }
    }

    /// Padded-fallback resolutions are tallied once per distinct
    /// composition, not once per height.
    #[test]
    fn padded_resolutions_are_counted_per_composition() {
        let device = xc5vlx110t();
        let geo = fabric::DeviceGeometry::new(&device);
        let mut scratch = PlanScratch::default();
        // 2 BRAM columns with minimal CLB: no exact window on the LX110T
        // (BRAM columns are isolated), so every height resolves by padding.
        let req = PrrRequirements::new(Family::Virtex5, 8, 8, 8, 0, 40);
        let before = scratch.padded_resolution_count();
        let candidates = candidates_for_cached(&req, &device, &geo, &mut scratch);
        let resolved = scratch.padded_resolution_count() - before;
        assert_eq!(candidates.len(), device.rows() as usize);
        let distinct: std::collections::HashSet<(u32, u32, u32)> = (1..=device.rows())
            .filter_map(|h| PrrOrganization::for_height(&req, h, true).ok())
            .map(|o| (o.clb_cols, o.dsp_cols, o.bram_cols))
            .collect();
        assert!(resolved >= 1);
        assert!(
            resolved <= distinct.len() as u64,
            "padded enumeration must run at most once per composition \
             ({resolved} runs for {} distinct compositions)",
            distinct.len()
        );
    }

    /// The placed window's column mix must match the organization.
    #[test]
    fn window_composition_matches_organization() {
        let device = xc5vlx110t();
        for prm in PaperPrm::ALL {
            let plan = plan_prr(&prm.synth_report(Family::Virtex5), &device).unwrap();
            let counts = plan.window.column_counts();
            assert_eq!(counts.clb(), u64::from(plan.organization.clb_cols));
            assert_eq!(counts.dsp(), u64::from(plan.organization.dsp_cols));
            assert_eq!(counts.bram(), u64::from(plan.organization.bram_cols));
            assert_eq!(plan.window.height, plan.organization.height);
        }
    }
}
