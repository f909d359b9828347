//! Simulated-annealing placement over the fabric site grid.
//!
//! Cells place onto *slots*: each CLB site offers `LUT_CLB` slice pair
//! slots, each DSP/BRAM site one slot. The objective is total net
//! half-perimeter wirelength (HPWL) in normalized fabric coordinates
//! (columns × CLB-row units), carried as **x16 fixed-point `u64`** — the
//! same scale `route.rs` uses for wirelength — so cost deltas are exactly
//! associative and the annealer can evaluate moves incrementally instead
//! of recomputing affected nets from their pins. Placement runs several
//! independent annealing chains in parallel with rayon — the canonical
//! data-parallel pattern — and returns the best chain's result.
//! Everything is deterministic in the configured seed.
//!
//! The hot path is allocation-free after warm-up: per-net bounding boxes
//! (with per-extreme pin counts, so removing a pin off a boundary knows
//! whether a rescan is needed) live in a [`PlaceScratch`] that callers can
//! carry across `place` calls, the affected-net set is deduplicated with
//! epoch stamps instead of a linear `seen` scan, and move proposals touch
//! a fixed two-slot cell array. [`reference`](mod@reference) holds the full-recompute
//! cost oracle the equivalence suite
//! (`crates/parflow/tests/place_props.rs`) checks the incremental cost
//! against at every accepted move.

use core::fmt;
use fabric::grid::SiteGrid;
use fabric::{ResourceKind, Window};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use synth::{CellKind, Netlist};

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// Not enough slots of one kind in the region.
    Insufficient {
        /// Resource kind that ran out.
        kind: ResourceKind,
        /// Slots needed.
        need: u64,
        /// Slots available in the region.
        have: u64,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::Insufficient { kind, need, have } => {
                write!(
                    f,
                    "region offers {have} {kind} slots but the netlist needs {need}"
                )
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// Annealer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacerConfig {
    /// Base RNG seed (chains derive their own seeds from it).
    pub seed: u64,
    /// Independent annealing chains run in parallel; best result wins.
    pub chains: u32,
    /// Annealing moves per cell per chain.
    pub moves_per_cell: u32,
    /// Initial temperature as a fraction of the initial mean net length.
    pub initial_temp_frac: f64,
    /// Geometric cooling factor applied every `cells` moves.
    pub cooling: f64,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            seed: 1,
            chains: 4,
            moves_per_cell: 24,
            initial_temp_frac: 0.5,
            cooling: 0.92,
        }
    }
}

impl PlacerConfig {
    /// A fast low-effort configuration for tests.
    pub fn fast(seed: u64) -> Self {
        PlacerConfig {
            seed,
            chains: 2,
            moves_per_cell: 6,
            ..PlacerConfig::default()
        }
    }
}

/// One placement slot: a position in normalized coordinates plus its kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Slot {
    pub(crate) kind: ResourceKind,
    /// Column index on the device.
    pub(crate) col: u32,
    /// Vertical position in CLB-row units (normalized across kinds).
    pub(crate) y_norm: f64,
}

impl Slot {
    /// Fixed-point vertical position for deterministic ordering.
    pub(crate) fn y_times_16(&self) -> u64 {
        (self.y_norm * 16.0) as u64
    }

    /// x16 fixed-point `(column, vertical)` position — the cost domain of
    /// the incremental annealer and of `reference::total_cost_x16`.
    pub(crate) fn pos_x16(&self) -> (u64, u64) {
        (u64::from(self.col) * 16, self.y_times_16())
    }
}

/// A completed placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Slot index per cell (into the region's slot list).
    pub cell_slots: Vec<u32>,
    /// Final total HPWL (in column/CLB-row units, scaled by 16 and
    /// truncated for determinism).
    pub hpwl: u64,
    /// Chains evaluated.
    pub chains: u32,
}

fn cell_kind(kind: CellKind) -> ResourceKind {
    match kind {
        CellKind::Slice { .. } => ResourceKind::Clb,
        CellKind::Dsp => ResourceKind::Dsp,
        CellKind::Bram => ResourceKind::Bram,
    }
}

/// Expand a window into placement slots.
pub(crate) fn slots_in_window(grid: &SiteGrid<'_>, window: &Window) -> Vec<Slot> {
    let params = grid.device().params();
    let mut slots = Vec::new();
    for site in grid.sites_in_window(window) {
        let per = params.per_column(site.kind).max(1);
        let y_norm = f64::from(site.y) * f64::from(params.clb_col) / f64::from(per);
        match site.kind {
            ResourceKind::Clb => {
                // One slice pair slot per LUT-FF pair the CLB can hold.
                for s in 0..params.lut_clb {
                    slots.push(Slot {
                        kind: ResourceKind::Clb,
                        col: site.col,
                        y_norm: y_norm + f64::from(s) / f64::from(params.lut_clb),
                    });
                }
            }
            kind => slots.push(Slot {
                kind,
                col: site.col,
                y_norm,
            }),
        }
    }
    slots
}

fn kind_pool(kind: ResourceKind) -> usize {
    match kind {
        ResourceKind::Clb => 0,
        ResourceKind::Dsp => 1,
        ResourceKind::Bram => 2,
        _ => unreachable!("only reconfigurable kinds are placed"),
    }
}

/// Per-net bounding box in x16 fixed point, with the number of pins
/// sitting on each extreme. The counts are what make removal incremental:
/// taking a pin off a boundary with other pins still on it leaves the
/// boundary where it is (decrement), while removing the last pin on a
/// boundary forces a rescan of the net's pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NetBox {
    min_c: u64,
    max_c: u64,
    min_y: u64,
    max_y: u64,
    n_min_c: u32,
    n_max_c: u32,
    n_min_y: u32,
    n_max_y: u32,
}

impl NetBox {
    /// HPWL contribution in x16 fixed point.
    fn cost(&self) -> u64 {
        (self.max_c - self.min_c) + (self.max_y - self.min_y)
    }

    /// Box over `pins` under `assignment` (full rescan). Two branchless
    /// passes — min/max, then extreme counts — beat per-pin
    /// [`NetBox::insert`] calls, and rescans are the incremental placer's
    /// hottest path (every move of a 2-pin net's endpoint lands here).
    fn scan(pins: &[u32], assignment: &[u32], pos: &[(u64, u64)]) -> NetBox {
        let mut b = NetBox {
            min_c: u64::MAX,
            max_c: 0,
            min_y: u64::MAX,
            max_y: 0,
            n_min_c: 0,
            n_max_c: 0,
            n_min_y: 0,
            n_max_y: 0,
        };
        for &p in pins {
            let (c, y) = pos[assignment[p as usize] as usize];
            b.min_c = b.min_c.min(c);
            b.max_c = b.max_c.max(c);
            b.min_y = b.min_y.min(y);
            b.max_y = b.max_y.max(y);
        }
        for &p in pins {
            let (c, y) = pos[assignment[p as usize] as usize];
            b.n_min_c += u32::from(c == b.min_c);
            b.n_max_c += u32::from(c == b.max_c);
            b.n_min_y += u32::from(y == b.min_y);
            b.n_max_y += u32::from(y == b.max_y);
        }
        b
    }

    /// Add a pin at `(c, y)`, widening extremes or bumping their counts.
    fn insert(&mut self, c: u64, y: u64) {
        match c.cmp(&self.min_c) {
            std::cmp::Ordering::Less => {
                self.min_c = c;
                self.n_min_c = 1;
            }
            std::cmp::Ordering::Equal => self.n_min_c += 1,
            std::cmp::Ordering::Greater => {}
        }
        match c.cmp(&self.max_c) {
            std::cmp::Ordering::Greater => {
                self.max_c = c;
                self.n_max_c = 1;
            }
            std::cmp::Ordering::Equal => self.n_max_c += 1,
            std::cmp::Ordering::Less => {}
        }
        match y.cmp(&self.min_y) {
            std::cmp::Ordering::Less => {
                self.min_y = y;
                self.n_min_y = 1;
            }
            std::cmp::Ordering::Equal => self.n_min_y += 1,
            std::cmp::Ordering::Greater => {}
        }
        match y.cmp(&self.max_y) {
            std::cmp::Ordering::Greater => {
                self.max_y = y;
                self.n_max_y = 1;
            }
            std::cmp::Ordering::Equal => self.n_max_y += 1,
            std::cmp::Ordering::Less => {}
        }
    }

    /// Remove a pin at `(c, y)`. Returns `false` when the removal empties
    /// an extreme (the box would have to shrink inward) — the caller must
    /// rescan the net.
    fn remove(&mut self, c: u64, y: u64) -> bool {
        if c == self.min_c {
            if self.n_min_c <= 1 {
                return false;
            }
            self.n_min_c -= 1;
        }
        if c == self.max_c {
            if self.n_max_c <= 1 {
                return false;
            }
            self.n_max_c -= 1;
        }
        if y == self.min_y {
            if self.n_min_y <= 1 {
                return false;
            }
            self.n_min_y -= 1;
        }
        if y == self.max_y {
            if self.n_max_y <= 1 {
                return false;
            }
            self.n_max_y -= 1;
        }
        true
    }
}

/// Per-chain working state, reused across `place` calls.
#[derive(Debug, Clone, Default)]
struct ChainScratch {
    /// cell -> slot
    assignment: Vec<u32>,
    /// slot -> cell (u32::MAX = empty)
    occupant: Vec<u32>,
    /// Cached per-net bounding boxes.
    boxes: Vec<NetBox>,
    /// Boxes of the affected nets as the current proposal would leave
    /// them, committed on accept.
    staged: Vec<NetBox>,
    /// Net ids touched by the current proposal, epoch-deduplicated.
    affected: Vec<u32>,
    /// `net_epoch[n] == epoch` iff net `n` is already in `affected` (its
    /// position there is `net_slot[n]`).
    net_epoch: Vec<u32>,
    net_slot: Vec<u32>,
    /// Moved-pin multiplicities per affected net: `[cell pins, other pins]`.
    moved: Vec<[u32; 2]>,
    epoch: u32,
}

/// Reusable placer working memory: slot tables, the flattened cell→net
/// index and one `ChainScratch` per annealing chain. A fresh
/// `PlaceScratch::default()` is always valid — results never depend on
/// scratch contents, only allocation reuse does. Carry one per worker
/// across `place_with_scratch` calls (mirroring `SimScratch` and
/// `PlanScratch`) to keep batch flows allocation-free after warm-up.
#[derive(Debug, Clone, Default)]
pub struct PlaceScratch {
    slots: Vec<Slot>,
    /// x16 fixed-point position per slot.
    pos: Vec<(u64, u64)>,
    kind_slots: [Vec<u32>; 3],
    /// CSR cell→net adjacency: nets of cell `c` are
    /// `net_data[net_off[c]..net_off[c + 1]]` (one entry per pin, so a
    /// cell with several pins on one net appears with multiplicity).
    net_off: Vec<u32>,
    net_data: Vec<u32>,
    chains: Vec<ChainScratch>,
}

impl PlaceScratch {
    /// New empty scratch.
    pub fn new() -> Self {
        PlaceScratch::default()
    }
}

struct Chain<'a> {
    netlist: &'a Netlist,
    pos: &'a [(u64, u64)],
    net_off: &'a [u32],
    net_data: &'a [u32],
    s: &'a mut ChainScratch,
    /// Shared deterministic stream ([`prcost::rng::Rng`]) continued from
    /// the chain's raw per-chain state — bit-compatible with the private
    /// splitmix copy this replaced, so per-seed trajectories are
    /// unchanged.
    rng: prcost::rng::Rng,
    /// Running total HPWL in x16 fixed point, maintained incrementally.
    total: u64,
}

impl Chain<'_> {
    /// Uniform draw in `[0, n)` by widening multiply — unlike
    /// `rand() % n`, this has no modulo bias (for any `n`, buckets differ
    /// by at most one part in 2⁶⁴).
    fn rand_below(&mut self, n: usize) -> usize {
        self.rng.rand_below(n)
    }

    /// Seed all net boxes and the running total from the current
    /// assignment (full scan; done once per chain).
    fn reset_boxes(&mut self) {
        self.s.boxes.clear();
        self.total = 0;
        for net in &self.netlist.nets {
            let b = NetBox::scan(&net.pins, &self.s.assignment, self.pos);
            self.total += b.cost();
            self.s.boxes.push(b);
        }
    }

    /// Register `net` as affected by the current proposal and charge one
    /// moved pin to `who` (0 = the picked cell, 1 = the displaced one).
    fn touch(&mut self, net: u32, who: usize) {
        let n = net as usize;
        if self.s.net_epoch[n] == self.s.epoch {
            self.s.moved[self.s.net_slot[n] as usize][who] += 1;
        } else {
            self.s.net_epoch[n] = self.s.epoch;
            self.s.net_slot[n] = self.s.affected.len() as u32;
            self.s.affected.push(net);
            let mut m = [0u32; 2];
            m[who] = 1;
            self.s.moved.push(m);
        }
    }

    /// Propose and maybe accept one move; returns accepted.
    ///
    /// The cost of a proposal is evaluated as an exact incremental delta:
    /// each affected net's cached box is updated by removing the moved
    /// pins' old positions and inserting the new ones (rescanning only
    /// when a boundary empties), and the per-net cost difference is
    /// accumulated in `i64`. Fixed-point arithmetic makes the delta
    /// exactly the difference of full recomputes, so `total` never
    /// drifts — `place_audited` checks this against
    /// `reference::total_cost_x16` at every accept.
    fn step(&mut self, temp: f64, kind_slots: &[Vec<u32>; 3]) -> bool {
        let n_cells = self.netlist.cells.len();
        let cell = self.rand_below(n_cells) as u32;
        let kind = cell_kind(self.netlist.cells[cell as usize].kind);
        let pool = &kind_slots[kind_pool(kind)];
        let target_slot = pool[self.rand_below(pool.len())];
        let cur_slot = self.s.assignment[cell as usize];
        if target_slot == cur_slot {
            return false;
        }
        let other = self.s.occupant[target_slot as usize];

        // Apply (swap or move) — the fixed two-cell affected set.
        self.s.assignment[cell as usize] = target_slot;
        self.s.occupant[target_slot as usize] = cell;
        if other == u32::MAX {
            self.s.occupant[cur_slot as usize] = u32::MAX;
        } else {
            self.s.assignment[other as usize] = cur_slot;
            self.s.occupant[cur_slot as usize] = other;
        }

        // Collect the affected nets (epoch-deduplicated, no allocation).
        self.s.epoch = self.s.epoch.wrapping_add(1);
        if self.s.epoch == u32::MAX {
            // About to collide with the never-touched sentinel: restamp.
            self.s.net_epoch.iter_mut().for_each(|e| *e = u32::MAX);
            self.s.epoch = 0;
        }
        self.s.affected.clear();
        self.s.moved.clear();
        self.s.staged.clear();
        let (c0, c1) = (
            self.net_off[cell as usize] as usize,
            self.net_off[cell as usize + 1] as usize,
        );
        for i in c0..c1 {
            let net = self.net_data[i];
            self.touch(net, 0);
        }
        if other != u32::MAX {
            let (o0, o1) = (
                self.net_off[other as usize] as usize,
                self.net_off[other as usize + 1] as usize,
            );
            for i in o0..o1 {
                let net = self.net_data[i];
                self.touch(net, 1);
            }
        }

        // Stage each affected net's new box and accumulate the delta.
        let (cell_old, cell_new) = (self.pos[cur_slot as usize], self.pos[target_slot as usize]);
        // The displaced cell moves the opposite way.
        let (other_old, other_new) = (cell_new, cell_old);
        let mut delta = 0i64;
        {
            let ChainScratch {
                affected,
                moved,
                staged,
                boxes,
                assignment,
                ..
            } = &mut *self.s;
            for (k, &net) in affected.iter().enumerate() {
                let old_box = boxes[net as usize];
                let pins = &self.netlist.nets[net as usize].pins;
                // Small nets rescan on virtually every move (each pin sits
                // on a boundary), so skip straight to the scan — it is as
                // cheap as one failed remove.
                let b = if pins.len() <= 3 {
                    NetBox::scan(pins, assignment, self.pos)
                } else {
                    let [m_cell, m_other] = moved[k];
                    let mut b = old_box;
                    let mut ok = true;
                    'update: {
                        for _ in 0..m_cell {
                            if !b.remove(cell_old.0, cell_old.1) {
                                ok = false;
                                break 'update;
                            }
                            b.insert(cell_new.0, cell_new.1);
                        }
                        for _ in 0..m_other {
                            if !b.remove(other_old.0, other_old.1) {
                                ok = false;
                                break 'update;
                            }
                            b.insert(other_new.0, other_new.1);
                        }
                    }
                    if ok {
                        b
                    } else {
                        NetBox::scan(pins, assignment, self.pos)
                    }
                };
                delta += b.cost() as i64 - old_box.cost() as i64;
                staged.push(b);
            }
        }

        let accept = delta <= 0 || {
            // Unclamped 53-bit uniform (not `Rng::unit`): the frozen
            // trajectory used the raw draw, and a zero here is harmless.
            let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            u < (-(delta as f64 / 16.0) / temp.max(1e-9)).exp()
        };
        if accept {
            // Commit the staged boxes and the exact delta.
            let ChainScratch {
                affected,
                staged,
                boxes,
                ..
            } = &mut *self.s;
            for (k, &net) in affected.iter().enumerate() {
                boxes[net as usize] = staged[k];
            }
            self.total = (self.total as i64 + delta) as u64;
        } else {
            // Revert the assignment; cached boxes were never touched.
            self.s.assignment[cell as usize] = cur_slot;
            self.s.occupant[cur_slot as usize] = cell;
            if other == u32::MAX {
                self.s.occupant[target_slot as usize] = u32::MAX;
            } else {
                self.s.assignment[other as usize] = target_slot;
                self.s.occupant[target_slot as usize] = other;
            }
        }
        accept
    }
}

/// Place `netlist` into `window` on `grid`.
///
/// Equivalent to [`place_with_scratch`] with a fresh [`PlaceScratch`];
/// batch callers should carry a scratch per worker instead.
pub fn place(
    netlist: &Netlist,
    grid: &SiteGrid<'_>,
    window: &Window,
    cfg: &PlacerConfig,
) -> Result<Placement, PlaceError> {
    place_with_scratch(netlist, grid, window, cfg, &mut PlaceScratch::new())
}

/// [`place`] with caller-owned working memory.
pub fn place_with_scratch(
    netlist: &Netlist,
    grid: &SiteGrid<'_>,
    window: &Window,
    cfg: &PlacerConfig,
    scratch: &mut PlaceScratch,
) -> Result<Placement, PlaceError> {
    place_impl(netlist, grid, window, cfg, scratch, false)
}

/// [`place_with_scratch`] that additionally recomputes the total cost from
/// scratch via [`reference::total_cost_x16`] after **every accepted move**
/// and panics on any divergence from the incrementally maintained total.
/// This is the equivalence harness driven by
/// `crates/parflow/tests/place_props.rs`; it is exposed (hidden) so the
/// suite exercises the exact production code path.
#[doc(hidden)]
pub fn place_audited(
    netlist: &Netlist,
    grid: &SiteGrid<'_>,
    window: &Window,
    cfg: &PlacerConfig,
) -> Result<Placement, PlaceError> {
    place_impl(netlist, grid, window, cfg, &mut PlaceScratch::new(), true)
}

fn place_impl(
    netlist: &Netlist,
    grid: &SiteGrid<'_>,
    window: &Window,
    cfg: &PlacerConfig,
    scratch: &mut PlaceScratch,
    audit: bool,
) -> Result<Placement, PlaceError> {
    scratch.slots.clear();
    scratch.slots.extend(slots_in_window(grid, window));
    let slots = &scratch.slots;
    scratch.pos.clear();
    scratch.pos.extend(slots.iter().map(Slot::pos_x16));

    // Capacity check per kind.
    for pool in &mut scratch.kind_slots {
        pool.clear();
    }
    for (i, s) in slots.iter().enumerate() {
        scratch.kind_slots[kind_pool(s.kind)].push(i as u32);
    }
    let mut need = [0u64; 3];
    for c in &netlist.cells {
        need[kind_pool(cell_kind(c.kind))] += 1;
    }
    for (pool, kind) in [
        (0, ResourceKind::Clb),
        (1, ResourceKind::Dsp),
        (2, ResourceKind::Bram),
    ] {
        if need[pool] > scratch.kind_slots[pool].len() as u64 {
            return Err(PlaceError::Insufficient {
                kind,
                need: need[pool],
                have: scratch.kind_slots[pool].len() as u64,
            });
        }
    }

    // Flattened cell -> nets adjacency (CSR), one entry per pin.
    let n_cells = netlist.cells.len();
    scratch.net_off.clear();
    scratch.net_off.resize(n_cells + 1, 0);
    for net in &netlist.nets {
        for &p in &net.pins {
            scratch.net_off[p as usize + 1] += 1;
        }
    }
    for i in 0..n_cells {
        scratch.net_off[i + 1] += scratch.net_off[i];
    }
    scratch
        .net_data
        .resize(scratch.net_off[n_cells] as usize, 0);
    {
        let mut cursor: Vec<u32> = scratch.net_off[..n_cells].to_vec();
        for (ni, net) in netlist.nets.iter().enumerate() {
            for &p in &net.pins {
                scratch.net_data[cursor[p as usize] as usize] = ni as u32;
                cursor[p as usize] += 1;
            }
        }
    }

    let n_chains = cfg.chains.max(1) as usize;
    scratch.chains.resize_with(n_chains, ChainScratch::default);

    let kind_slots = &scratch.kind_slots;
    let pos = &scratch.pos;
    let net_off = &scratch.net_off;
    let net_data = &scratch.net_data;
    let n_nets = netlist.nets.len();

    let run_chain = |chain_idx: usize, s: &mut ChainScratch| -> u64 {
        // Greedy initial placement: cells in index order into slots in
        // order (chains perturb the start by rotating slot order).
        s.assignment.clear();
        s.assignment.resize(n_cells, u32::MAX);
        s.occupant.clear();
        s.occupant.resize(slots.len(), u32::MAX);
        s.net_epoch.clear();
        s.net_epoch.resize(n_nets, u32::MAX);
        s.net_slot.clear();
        s.net_slot.resize(n_nets, 0);
        s.epoch = 0;
        let mut cursors = [0usize; 3];
        let rot = chain_idx;
        for (i, cell) in netlist.cells.iter().enumerate() {
            let pool = kind_pool(cell_kind(cell.kind));
            let list = &kind_slots[pool];
            // Find next free slot from the rotated cursor.
            let mut k = (cursors[pool] + rot) % list.len();
            let mut slot = list[k];
            while s.occupant[slot as usize] != u32::MAX {
                k = (k + 1) % list.len();
                slot = list[k];
            }
            s.assignment[i] = slot;
            s.occupant[slot as usize] = i as u32;
            cursors[pool] += 1;
        }

        let mut chain = Chain {
            netlist,
            pos,
            net_off,
            net_data,
            s,
            rng: prcost::rng::Rng::from_raw(
                cfg.seed ^ ((chain_idx as u64).wrapping_mul(0xA24B_AED4_963E_E407)),
            ),
            total: 0,
        };
        chain.reset_boxes();

        let denom = n_cells.max(1);
        let initial = chain.total as f64 / 16.0;
        let mut temp = (initial / n_nets.max(1) as f64) * cfg.initial_temp_frac + 1e-6;
        let total_moves = cfg.moves_per_cell as usize * n_cells;
        for m in 0..total_moves {
            let accepted = chain.step(temp, kind_slots);
            if audit && accepted {
                let full = reference::total_cost_x16(netlist, slots, &chain.s.assignment);
                assert_eq!(
                    chain.total, full,
                    "incremental cost diverged from full recompute at move {m}"
                );
            }
            if m % denom == denom - 1 {
                temp *= cfg.cooling;
            }
        }
        chain.total
    };

    let results: Vec<(usize, u64)> = scratch
        .chains
        .par_iter_mut()
        .enumerate()
        .map(|(idx, s)| (idx, run_chain(idx, s)))
        .collect();
    let &(best_idx, best_total) = results
        .iter()
        .min_by_key(|(idx, total)| (*total, *idx))
        .expect("at least one chain");

    Ok(Placement {
        cell_slots: scratch.chains[best_idx].assignment.clone(),
        hpwl: best_total,
        chains: cfg.chains.max(1),
    })
}

/// Compute the per-net bounding boxes of a placement, in (column, CLB-row)
/// units — consumed by the congestion router.
pub fn net_bboxes(
    netlist: &Netlist,
    grid: &SiteGrid<'_>,
    window: &Window,
    placement: &Placement,
) -> Vec<(f64, f64, f64, f64)> {
    let slots = slots_in_window(grid, window);
    netlist
        .nets
        .iter()
        .map(|net| {
            let mut min_c = f64::MAX;
            let mut max_c = f64::MIN;
            let mut min_y = f64::MAX;
            let mut max_y = f64::MIN;
            for &p in &net.pins {
                let s = &slots[placement.cell_slots[p as usize] as usize];
                min_c = min_c.min(f64::from(s.col));
                max_c = max_c.max(f64::from(s.col));
                min_y = min_y.min(s.y_norm);
                max_y = max_y.max(s.y_norm);
            }
            (min_c, max_c, min_y, max_y)
        })
        .collect()
}

pub mod reference {
    //! The fixed-point full-recompute cost oracle: `total_cost_x16`
    //! recomputes a placement's total HPWL from pins in the live placer's
    //! x16 fixed-point domain; the equivalence suite asserts the
    //! incremental total equals it at every accepted move.

    use super::{slots_in_window, Placement, Slot};
    use fabric::grid::SiteGrid;
    use fabric::Window;
    use synth::Netlist;

    /// Total HPWL of `assignment` in x16 fixed point, recomputed from
    /// every net's pins (the audit oracle for the incremental placer).
    pub(crate) fn total_cost_x16(netlist: &Netlist, slots: &[Slot], assignment: &[u32]) -> u64 {
        let mut total = 0u64;
        for net in &netlist.nets {
            let mut min_c = u64::MAX;
            let mut max_c = 0u64;
            let mut min_y = u64::MAX;
            let mut max_y = 0u64;
            for &p in &net.pins {
                let (c, y) = slots[assignment[p as usize] as usize].pos_x16();
                min_c = min_c.min(c);
                max_c = max_c.max(c);
                min_y = min_y.min(y);
                max_y = max_y.max(y);
            }
            if min_c != u64::MAX {
                total += (max_c - min_c) + (max_y - min_y);
            }
        }
        total
    }

    /// Total x16 HPWL of a finished [`Placement`] for `netlist` placed in
    /// `window` — the public face of the oracle for tests and benches.
    pub fn placement_cost_x16(
        netlist: &Netlist,
        grid: &SiteGrid<'_>,
        window: &Window,
        placement: &Placement,
    ) -> u64 {
        let slots = slots_in_window(grid, window);
        total_cost_x16(netlist, &slots, &placement.cell_slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::xc5vlx110t;
    use fabric::{Family, WindowRequest};
    use synth::{PaperPrm, SynthReport};

    fn small_netlist() -> Netlist {
        let r = SynthReport::new("t", Family::Virtex5, 120, 100, 60, 0, 1);
        Netlist::from_report(&r, 5).unwrap()
    }

    #[test]
    fn placement_is_valid_and_deterministic() {
        let device = xc5vlx110t();
        let grid = SiteGrid::new(&device);
        let w = device.find_window(&WindowRequest::new(3, 0, 1, 1)).unwrap();
        let nl = small_netlist();
        let cfg = PlacerConfig::fast(42);
        let a = place(&nl, &grid, &w, &cfg).unwrap();
        let b = place(&nl, &grid, &w, &cfg).unwrap();
        assert_eq!(a, b, "same seed, same result");

        // No slot hosts two cells.
        let mut used = a.cell_slots.clone();
        used.sort_unstable();
        let before = used.len();
        used.dedup();
        assert_eq!(used.len(), before, "slot double-booked");
    }

    #[test]
    fn scratch_reuse_is_result_invariant() {
        let device = xc5vlx110t();
        let grid = SiteGrid::new(&device);
        let w = device.find_window(&WindowRequest::new(3, 0, 1, 1)).unwrap();
        let nl = small_netlist();
        let cfg = PlacerConfig::fast(6);
        let mut scratch = PlaceScratch::new();
        let warm = place_with_scratch(&nl, &grid, &w, &cfg, &mut scratch).unwrap();
        // A second run with the now-dirty scratch must match a fresh one.
        let again = place_with_scratch(&nl, &grid, &w, &cfg, &mut scratch).unwrap();
        assert_eq!(warm, again);
        assert_eq!(warm, place(&nl, &grid, &w, &cfg).unwrap());
    }

    #[test]
    fn incremental_total_matches_full_recompute() {
        let device = xc5vlx110t();
        let grid = SiteGrid::new(&device);
        let w = device.find_window(&WindowRequest::new(3, 0, 1, 1)).unwrap();
        let nl = small_netlist();
        // `place_audited` panics internally on any divergence.
        let p = place_audited(&nl, &grid, &w, &PlacerConfig::fast(11)).unwrap();
        assert_eq!(p.hpwl, reference::placement_cost_x16(&nl, &grid, &w, &p));
    }

    #[test]
    fn annealing_improves_over_one_chain_worst_case() {
        let device = xc5vlx110t();
        let grid = SiteGrid::new(&device);
        let w = device.find_window(&WindowRequest::new(3, 0, 1, 1)).unwrap();
        let nl = small_netlist();
        let lazy = place(
            &nl,
            &grid,
            &w,
            &PlacerConfig {
                chains: 1,
                moves_per_cell: 0,
                ..PlacerConfig::fast(7)
            },
        )
        .unwrap();
        let tuned = place(&nl, &grid, &w, &PlacerConfig::fast(7)).unwrap();
        assert!(
            tuned.hpwl <= lazy.hpwl,
            "annealing must not worsen: {} vs {}",
            tuned.hpwl,
            lazy.hpwl
        );
    }

    #[test]
    fn insufficient_capacity_is_reported() {
        let device = xc5vlx110t();
        let grid = SiteGrid::new(&device);
        // 1 CLB column x 1 row = 20 CLBs x 8 slots = 160 pair slots; the
        // netlist below wants 500.
        let w = device.find_window(&WindowRequest::new(1, 0, 0, 1)).unwrap();
        let r = SynthReport::new("big", Family::Virtex5, 500, 400, 200, 0, 0);
        let nl = Netlist::from_report(&r, 1).unwrap();
        match place(&nl, &grid, &w, &PlacerConfig::fast(1)) {
            Err(PlaceError::Insufficient {
                kind: ResourceKind::Clb,
                need: 500,
                have: 160,
            }) => {}
            other => panic!("expected Insufficient, got {other:?}"),
        }
    }

    #[test]
    fn paper_prm_places_in_model_predicted_prr() {
        // SDRAM/Virtex-5 in its model PRR (H=1, W_CLB=3): 332 pair slots
        // into 480 — must place.
        let device = xc5vlx110t();
        let grid = SiteGrid::new(&device);
        let plan =
            prcost::plan_prr(&PaperPrm::Sdram.synth_report(Family::Virtex5), &device).unwrap();
        let nl = PaperPrm::Sdram.netlist(Family::Virtex5, 2);
        let p = place(&nl, &grid, &plan.window, &PlacerConfig::fast(3)).unwrap();
        assert_eq!(p.cell_slots.len(), nl.cells.len());
    }

    #[test]
    fn bboxes_cover_all_nets() {
        let device = xc5vlx110t();
        let grid = SiteGrid::new(&device);
        let w = device.find_window(&WindowRequest::new(3, 0, 1, 1)).unwrap();
        let nl = small_netlist();
        let p = place(&nl, &grid, &w, &PlacerConfig::fast(9)).unwrap();
        let bb = net_bboxes(&nl, &grid, &w, &p);
        assert_eq!(bb.len(), nl.nets.len());
        for (min_c, max_c, min_y, max_y) in bb {
            assert!(min_c <= max_c && min_y <= max_y);
            assert!(min_c >= w.start_col as f64 && max_c < w.end_col() as f64);
        }
    }
}
