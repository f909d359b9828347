//! `defrag2`: bounded-depth branch-and-bound over relocation
//! *sequences* — the multi-move defragmentation planner.
//!
//! The PR-5 planner ([`crate::defrag`]) only considers *single-step*
//! relocation sets: every target must be free before the plan runs. Van
//! der Veen et al. ("Defragmenting the Module Layout of a Partially
//! Reconfigurable Device") show the real admission wins come from
//! multi-move *schedules*, where a later move lands in cells an earlier
//! move vacated. This module searches those schedules with the same
//! machinery that made `parflow::autofloorplan` fast:
//!
//! * **incremental layout state** — [`LayoutState`] holds one copy of
//!   the [`FreeSpace`] row bitsets per plan, reset once per admit
//!   rectangle; a move (or its undo) sets the source's bits, clears the
//!   target's and XORs two hash keys, never a clone down the tree;
//! * **relocation slots once per plan** — every live allocation's
//!   compatible windows ([`FreeSpace::relocation_slots`]: the composition
//!   index's candidate starts, filtered by its exact column-kind
//!   sequence) are listed before the search. A node tests a mover's slots
//!   against the admit rectangle and the current grid; no node scans the
//!   device's columns;
//! * **Zobrist-style transposition table** — each (allocation, position)
//!   pair hashes to a derived 64-bit key; the layout hash is their XOR,
//!   so permuted move orders reaching the same layout collide in the
//!   per-rectangle visited set and are pruned. The keys are
//!   splitmix-mixed already, so the set hashes a key to itself. Pruning
//!   is exact: a layout determines which movers have moved (a moved
//!   blocker never overlaps the admit rectangle again), hence the
//!   remaining depth, and feasibility is a function of the layout alone;
//! * **exact per-module lower bounds** — an HTR relocation is the same
//!   FAR-rewritten replay at every compatible target, so one move of one
//!   module costs `IcapModel::transfer_time` over its bytes *wherever*
//!   it lands. Every blocker of an admit rectangle must move exactly
//!   once, so a rectangle's whole-sequence cost is known *before* the
//!   search: the suffix lower bound is exact, and branch-and-bound
//!   collapses to pruning entire rectangles against the incumbent plus a
//!   feasibility-only descent inside each rectangle;
//! * **one thread** — [`plan`] scans the rectangles in enumeration order
//!   on the caller's thread. On the `layout_defrag` benchmark's inputs a
//!   call takes 4–6 µs on a 2-vCPU host, while fanning the rectangles
//!   out over rayon spawned and joined two OS threads per call (112–166
//!   µs), and a round trip to one pooled worker thread costs 19–45 µs.
//!   The serial scan was faster
//!   even on the `defrag_search` bench's hand-picked hard states
//!   (2.29–2.31 ms vs 3.35–6.33 ms per 16 states in two runs), so it is
//!   the only driver, and its `nodes` diagnostic is deterministic.
//!
//! **Documented tie-break**: minimise total move cost (ns), then move
//! count, then the admit-rectangle enumeration order (candidate starts
//! ascending, base row ascending), then the first feasible sequence in
//! canonical descent order (movers by ascending allocation id, targets
//! leftmost-then-bottom). [`reference`] freezes an exhaustive
//! clone-based enumeration of the same plan space as the equivalence
//! oracle.
//!
//! Moves are always priced *preemption-aware*: a live module is
//! running, so relocating it pays context save + restore bytes
//! ([`prcost::context_breakdown`]) on top of the Eq. 18 write
//! ([`LayoutManager::move_cost`]).

use crate::defrag::RelocationMove;
use crate::free::{FreeGrid, FreeSpace, Slots, SpanRect};
use crate::manager::{counters, Allocation, LayoutManager, MoveCost};
use fabric::Window;
use prcost::{Metrics, PrrOrganization};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// Hard cap on sequence depth (the paper-scale regime; deeper searches
/// lose to the admission they were meant to enable).
pub const MAX_DEPTH: u32 = 4;

/// Multi-move search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Defrag2Config {
    /// Maximum moves per plan, clamped to [`MAX_DEPTH`]; 0 disables the
    /// search entirely.
    pub depth: u32,
    /// Deterministic per-rectangle node budget: a rectangle whose
    /// feasibility descent exceeds it is abandoned. The default is far
    /// above anything the depth-capped tree reaches on real devices.
    pub node_budget: u64,
}

impl Default for Defrag2Config {
    fn default() -> Self {
        Defrag2Config {
            depth: 3,
            node_budget: 100_000,
        }
    }
}

/// A validated, costed multi-move defragmentation plan. Unlike
/// [`crate::DefragPlan`], `moves` is an *ordered sequence*: each move's
/// target is free when its turn comes, possibly only because an earlier
/// move vacated it.
#[derive(Debug, Clone, PartialEq)]
pub struct Defrag2Plan {
    /// Relocations in execution order.
    pub moves: Vec<RelocationMove>,
    /// The window freed for the failed organization once moves complete.
    pub admit: Window,
    /// Total ICAP time of all moves, nanoseconds.
    pub total_move_ns: u64,
    /// Total bytes replayed by all moves (bitstream + context).
    pub total_move_bytes: u64,
    /// Context save + restore bytes included in `total_move_bytes`.
    pub total_context_bytes: u64,
    /// Search nodes expanded (diagnostic).
    pub nodes: u64,
}

/// splitmix64 finalizer — the repo's standard deterministic mixer.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zobrist-style key of one (allocation, position) pair: derived (not
/// tabulated) so no per-device key table is needed, deterministic across
/// runs and threads.
fn zkey(id: u64, start_col: usize, row: u32) -> u64 {
    splitmix64(
        splitmix64(splitmix64(id ^ 0xa076_1d64_78bd_642f) ^ start_col as u64) ^ u64::from(row),
    )
}

/// Zobrist keys are splitmix-mixed already, so the visited set takes
/// each key as its own hash.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("visited-set keys are u64 layout hashes")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Layout hashes already explored inside one rectangle.
type Visited = HashSet<u64, BuildHasherDefault<KeyHasher>>;

/// One allocation that must vacate a candidate admit rectangle, with its
/// relocation slots (computed once per plan).
struct Mover<'a> {
    alloc: &'a Allocation,
    cost: MoveCost,
    slots: &'a Slots,
}

/// One candidate admit rectangle with its blockers and exact sequence
/// cost (each blocker moves exactly once at a position-independent
/// price).
struct RectCand<'a> {
    admit: SpanRect,
    movers: Vec<Mover<'a>>,
    cost: u64,
}

/// Incremental search state: the free grid (copied once per rectangle,
/// then shifted move by move — never cloned down the tree) plus the XOR
/// layout hash over the movers' current positions.
struct LayoutState {
    grid: FreeGrid,
    hash: u64,
}

impl LayoutState {
    /// Reset to the live free grid and the movers' current positions.
    fn reset(&mut self, free: &FreeSpace, movers: &[Mover<'_>]) {
        self.grid.copy_from(free.grid());
        self.hash = movers.iter().fold(0, |h, m| {
            h ^ zkey(m.alloc.id, m.alloc.window.start_col, m.alloc.window.row)
        });
    }

    /// Move allocation `id` from `from` to the free, disjoint `to`: free
    /// the source cells, occupy the target's, swap the two position keys
    /// in the hash. `shift(id, to, from)` undoes it.
    fn shift(&mut self, id: u64, from: SpanRect, to: SpanRect) {
        self.grid.set(from, true);
        self.grid.set(to, false);
        self.hash ^= zkey(id, from.start, from.row) ^ zkey(id, to.start, to.row);
    }
}

/// A complete move sequence: `(mover index, target start col, target row)`
/// per move, in execution order.
type Seq = Vec<(usize, usize, u32)>;

/// Depth-first feasibility descent inside one rectangle: find the first
/// (in canonical order) sequence of single moves taking every mover out
/// of the admit rectangle. A mover's targets are its relocation slots
/// that miss the rectangle and are free in the current layout, tried in
/// slot order. The visited set prunes permuted move orders reaching the
/// same layout; a pruned layout was fully explored and failed, so
/// skipping it never changes the first success.
#[allow(clippy::too_many_arguments)]
fn descend(
    admit: &SpanRect,
    movers: &[Mover<'_>],
    state: &mut LayoutState,
    visited: &mut Visited,
    moved: u32,
    seq: &mut Seq,
    nodes: &mut u64,
    budget: u64,
) -> bool {
    if *nodes >= budget {
        return false;
    }
    *nodes += 1;
    if moved.count_ones() as usize == movers.len() {
        return true;
    }
    for (mi, mover) in movers.iter().enumerate() {
        if moved & (1 << mi) != 0 {
            continue;
        }
        let (id, from) = (mover.alloc.id, SpanRect::of(&mover.alloc.window));
        for to in mover.slots.iter() {
            if admit.overlaps(&to) || !state.grid.is_free_rect(to) {
                continue;
            }
            state.shift(id, from, to);
            seq.push((mi, to.start, to.row));
            if visited.insert(state.hash)
                && descend(
                    admit,
                    movers,
                    state,
                    visited,
                    moved | (1 << mi),
                    seq,
                    nodes,
                    budget,
                )
            {
                return true;
            }
            seq.pop();
            state.shift(id, to, from);
        }
    }
    false
}

/// Enumerate candidate admit rectangles (candidate starts ascending,
/// base rows ascending — the tie-break order) with their blockers and
/// exact sequence costs. Rectangles with more blockers than `depth` are
/// unreachable and dropped here.
fn rect_candidates<'a>(
    mgr: &'a LayoutManager,
    org: &PrrOrganization,
    depth: usize,
    slots: &'a [Slots],
) -> Vec<RectCand<'a>> {
    let free = mgr.free_space();
    let width = org.width() as usize;
    let mut rects = Vec::new();
    if width == 0 || org.height < 1 || org.height > free.rows() {
        return rects;
    }
    let allocs: Vec<&Allocation> = mgr.allocation_map().values().collect();
    let costs: Vec<MoveCost> = allocs.iter().map(|a| mgr.move_cost(a, true)).collect();
    for &start in free.candidate_starts(org.clb_cols, org.dsp_cols, org.bram_cols) {
        let start = start as usize;
        for row in 1..=free.rows() - org.height + 1 {
            let admit = SpanRect::at(start, width, row, org.height);
            let movers: Vec<Mover<'a>> = allocs
                .iter()
                .zip(&costs)
                .zip(slots)
                .filter(|((a, _), _)| admit.overlaps(&SpanRect::of(&a.window)))
                .map(|((a, &cost), slots)| Mover {
                    alloc: a,
                    cost,
                    slots,
                })
                .collect();
            if movers.len() > depth {
                continue;
            }
            let cost = movers.iter().map(|m| m.cost.transfer_ns).sum();
            rects.push(RectCand {
                admit,
                movers,
                cost,
            });
        }
    }
    rects
}

/// Run the feasibility descent for one rectangle, reusing `state` and
/// `visited` across rectangles; returns the canonical first sequence if
/// one exists.
fn solve_rect(
    free: &FreeSpace,
    rect: &RectCand<'_>,
    state: &mut LayoutState,
    visited: &mut Visited,
    budget: u64,
    nodes: &mut u64,
) -> Option<Seq> {
    state.reset(free, &rect.movers);
    visited.clear();
    let mut seq = Vec::with_capacity(rect.movers.len());
    descend(
        &rect.admit,
        &rect.movers,
        state,
        visited,
        0,
        &mut seq,
        nodes,
        budget,
    )
    .then_some(seq)
}

/// Materialise the winning rectangle + sequence into a plan.
fn materialize(
    mgr: &LayoutManager,
    rect: &RectCand<'_>,
    seq: &[(usize, usize, u32)],
    nodes: u64,
) -> Defrag2Plan {
    let columns = mgr.device().columns();
    let moves: Vec<RelocationMove> = seq
        .iter()
        .map(|&(mi, to_start, to_row)| {
            let m = &rect.movers[mi];
            let from = m.alloc.window.clone();
            let to = Window {
                start_col: to_start,
                width: from.width,
                row: to_row,
                height: from.height,
                columns: from.columns.clone(),
            };
            debug_assert!(bitstream::compatible(&from, &to));
            RelocationMove {
                id: m.alloc.id,
                from,
                to,
                bytes: m.cost.bytes,
                context_bytes: m.cost.context_bytes,
                transfer_ns: m.cost.transfer_ns,
            }
        })
        .collect();
    let admit = Window {
        start_col: rect.admit.start,
        width: (rect.admit.end - rect.admit.start) as u32,
        row: rect.admit.row,
        height: rect.admit.top - rect.admit.row + 1,
        columns: columns[rect.admit.start..rect.admit.end].to_vec(),
    };
    Defrag2Plan {
        total_move_ns: moves.iter().map(|m| m.transfer_ns).sum(),
        total_move_bytes: moves.iter().map(|m| m.bytes).sum(),
        total_context_bytes: moves.iter().map(|m| m.context_bytes).sum(),
        moves,
        admit,
        nodes,
    }
}

/// Bounded-depth multi-move search: rectangles in enumeration order,
/// incumbent pruning on `(cost, moves)`. A rectangle whose pair ties the
/// incumbent's is skipped, so the earliest such rectangle wins — the
/// documented tie-break. Plan-identical to
/// [`reference::plan_exhaustive`] (the property suite pins it).
pub fn plan(
    mgr: &LayoutManager,
    org: &PrrOrganization,
    config: &Defrag2Config,
) -> Option<Defrag2Plan> {
    let depth = config.depth.min(MAX_DEPTH) as usize;
    if config.depth == 0 {
        return None;
    }
    let free = mgr.free_space();
    let slots: Vec<Slots> = mgr
        .allocation_map()
        .values()
        .map(|a| free.relocation_slots(&a.window))
        .collect();
    let rects = rect_candidates(mgr, org, depth, &slots);
    let mut state = LayoutState {
        grid: free.grid().clone(),
        hash: 0,
    };
    let mut visited = Visited::default();
    let mut nodes = 0u64;
    let mut best: Option<(u64, usize, usize, Seq)> = None;
    for (idx, rect) in rects.iter().enumerate() {
        if let Some((bc, bm, _, _)) = &best {
            if (rect.cost, rect.movers.len()) >= (*bc, *bm) {
                continue;
            }
        }
        let solved = solve_rect(
            free,
            rect,
            &mut state,
            &mut visited,
            config.node_budget,
            &mut nodes,
        );
        if let Some(seq) = solved {
            best = Some((rect.cost, rect.movers.len(), idx, seq));
        }
    }
    best.map(|(_, _, idx, seq)| materialize(mgr, &rects[idx], &seq, nodes))
}

impl LayoutManager {
    /// Plan a bounded-depth multi-move relocation sequence freeing a
    /// window for `org`, or `None` when no sequence within
    /// `config.depth` moves exists. See the [module docs](self) for the
    /// search machinery and the documented tie-break.
    pub fn plan_defrag2(
        &self,
        org: &PrrOrganization,
        config: &Defrag2Config,
    ) -> Option<Defrag2Plan> {
        let started = Instant::now();
        let plan = plan(self, org, config);
        Metrics::global().record_stage("layout:defrag2_plan", started.elapsed());
        if plan.is_some() {
            counters::DEFRAG2_PLANS.incr();
        }
        plan
    }

    /// Execute a multi-move plan *in order*: each move's target is free
    /// at its turn (debug-asserted), possibly only because an earlier
    /// move vacated it. Bumps the `layout:*` relocation counters; ICAP
    /// time accounting is the caller's (the simulator serializes moves
    /// through the port).
    pub fn execute_defrag2(&mut self, plan: &Defrag2Plan) {
        for mv in &plan.moves {
            debug_assert!(bitstream::compatible(&mv.from, &mv.to));
            debug_assert!(
                self.free_space().is_free(
                    mv.to.start_col,
                    mv.to.width as usize,
                    mv.to.row,
                    mv.to.height
                ),
                "sequence move target not free at its turn"
            );
            self.move_allocation(mv.id, mv.to.clone());
        }
        counters::DEFRAG2_EXECUTED.incr();
        counters::RELOCATIONS.add(plan.moves.len() as u64);
        counters::RELOCATED_BYTES.add(plan.total_move_bytes);
        counters::CONTEXT_BYTES.add(plan.total_context_bytes);
    }
}

pub mod reference {
    //! Frozen exhaustive-enumeration oracle for the multi-move search —
    //! the *specification* of the plan space and tie-break, kept naive
    //! on purpose: occupancy-grid state ([`NaiveFreeSpace`]), full
    //! enumeration of every sequence (no transposition table, no lower
    //! bounds, no incumbent pruning across rectangles beyond strict
    //! improvement, no parallelism), per-sequence cost summation (it
    //! does not assume position-independent move costs — it verifies
    //! them). Do not optimize; the equivalence property suite pins
    //! [`super::plan`] against it at small depths.

    use super::{Defrag2Config, Defrag2Plan, MAX_DEPTH};
    use crate::defrag::{overlaps, RelocationMove};
    use crate::free::NaiveFreeSpace;
    use crate::manager::{Allocation, LayoutManager};
    use fabric::Window;
    use prcost::PrrOrganization;

    struct Best {
        cost: u64,
        moves: usize,
        admit: Window,
        seq: Vec<RelocationMove>,
    }

    /// Exhaustively enumerate every bounded-depth relocation sequence
    /// over every candidate admit rectangle and return the best plan
    /// under the documented tie-break (cost, then move count, then
    /// rectangle enumeration order, then first sequence in canonical
    /// descent order).
    pub fn plan_exhaustive(
        mgr: &LayoutManager,
        org: &PrrOrganization,
        config: &Defrag2Config,
    ) -> Option<Defrag2Plan> {
        let depth = config.depth.min(MAX_DEPTH) as usize;
        if config.depth == 0 {
            return None;
        }
        let device = mgr.device();
        let mut grid = NaiveFreeSpace::new(device);
        for a in mgr.allocations() {
            grid.allocate(&a.window);
        }
        let free = mgr.free_space();
        let width = org.width() as usize;
        if width == 0 || org.height < 1 || org.height > free.rows() {
            return None;
        }
        let rows = free.rows();
        let mut best: Option<Best> = None;
        for &start in free.candidate_starts(org.clb_cols, org.dsp_cols, org.bram_cols) {
            let start = start as usize;
            for row in 1..=free.rows() - org.height + 1 {
                let admit = Window {
                    start_col: start,
                    width: width as u32,
                    row,
                    height: org.height,
                    columns: device.columns()[start..start + width].to_vec(),
                };
                let movers: Vec<&Allocation> = mgr
                    .allocation_map()
                    .values()
                    .filter(|a| overlaps(&a.window, &admit))
                    .collect();
                if movers.len() > depth {
                    continue;
                }
                let mut positions: Vec<Window> = movers.iter().map(|a| a.window.clone()).collect();
                let mut moved = vec![false; movers.len()];
                let mut seq = Vec::new();
                enumerate(
                    mgr,
                    rows,
                    &admit,
                    &movers,
                    &mut grid,
                    &mut positions,
                    &mut moved,
                    &mut seq,
                    0,
                    &mut best,
                );
            }
        }
        best.map(|b| Defrag2Plan {
            total_move_ns: b.cost,
            total_move_bytes: b.seq.iter().map(|m| m.bytes).sum(),
            total_context_bytes: b.seq.iter().map(|m| m.context_bytes).sum(),
            moves: b.seq,
            admit: b.admit,
            nodes: 0,
        })
    }

    /// Recursive exhaustive sequence enumeration for one rectangle:
    /// movers by ascending allocation id, targets leftmost-then-bottom.
    #[allow(clippy::too_many_arguments)]
    fn enumerate(
        mgr: &LayoutManager,
        rows: u32,
        admit: &Window,
        movers: &[&Allocation],
        grid: &mut NaiveFreeSpace,
        positions: &mut [Window],
        moved: &mut [bool],
        seq: &mut Vec<RelocationMove>,
        cost: u64,
        best: &mut Option<Best>,
    ) {
        if moved.iter().all(|&m| m) {
            let better = best
                .as_ref()
                .is_none_or(|b| (cost, seq.len()) < (b.cost, b.moves));
            if better {
                *best = Some(Best {
                    cost,
                    moves: seq.len(),
                    admit: admit.clone(),
                    seq: seq.clone(),
                });
            }
            return;
        }
        let columns = mgr.device().columns();
        for mi in 0..movers.len() {
            if moved[mi] {
                continue;
            }
            let from = positions[mi].clone();
            let bw = from.columns.len();
            let bh = from.height;
            let mut targets = Vec::new();
            for start in 0..=columns.len().saturating_sub(bw) {
                if columns[start..start + bw] != from.columns[..] {
                    continue;
                }
                for trow in 1..=rows - bh + 1 {
                    let to = Window {
                        start_col: start,
                        width: bw as u32,
                        row: trow,
                        height: bh,
                        columns: from.columns.clone(),
                    };
                    if !grid.is_free(start, bw, trow, bh) || overlaps(&to, admit) {
                        continue;
                    }
                    targets.push(to);
                }
            }
            for to in targets {
                let mc = mgr.move_cost(movers[mi], true);
                grid.release(&from);
                grid.allocate(&to);
                positions[mi] = to.clone();
                moved[mi] = true;
                seq.push(RelocationMove {
                    id: movers[mi].id,
                    from: from.clone(),
                    to: to.clone(),
                    bytes: mc.bytes,
                    context_bytes: mc.context_bytes,
                    transfer_ns: mc.transfer_ns,
                });
                enumerate(
                    mgr,
                    rows,
                    admit,
                    movers,
                    grid,
                    positions,
                    moved,
                    seq,
                    cost + mc.transfer_ns,
                    best,
                );
                seq.pop();
                moved[mi] = false;
                positions[mi] = from.clone();
                grid.release(&to);
                grid.allocate(&from);
            }
        }
    }
}
