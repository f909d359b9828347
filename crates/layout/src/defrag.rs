//! ICAP-costed defragmentation planning.
//!
//! When an admission fails with
//! [`AllocError::Fragmentation`](crate::AllocError::Fragmentation) the planner
//! searches for a *minimal* set of relocations that frees one contiguous
//! window for the failed organization. Every move is between windows that
//! satisfy [`bitstream::compatible`] — identical height and column-kind
//! sequence, the HTR relocation condition — so the move is exactly one
//! FAR-rewritten bitstream replay, priced at
//! [`IcapModel::transfer_time`](bitstream::IcapModel::transfer_time) over
//! the module's Eq. 18–23 predicted bytes. Whether a plan *runs* is a
//! policy decision ([`DefragPolicy`]): never, only when the cost is
//! recouped by the admitted task's execution time, or always.
//!
//! Plans are single-step: every relocation target must be free *before*
//! the plan runs (no chained moves through cells another move vacates),
//! and targets are pairwise disjoint. This keeps plans short and
//! directly executable in any move order.

use crate::free::SpanRect;
use crate::manager::{counters, Allocation, LayoutManager};
use fabric::Window;
use prcost::{Metrics, PrrOrganization};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Cap on relocations per single-step plan.
pub(crate) const MAX_MOVES: usize = 4;

/// When to execute a defragmentation plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DefragPolicy {
    /// Never relocate (the no-defrag baseline).
    Never,
    /// Relocate when `cost_ns ≤ ratio × benefit_ns`. The benefit is
    /// always *remaining* execution time: for admission-failure repair
    /// that is the incoming task's execution time (none of it has run at
    /// its arrival, so remaining equals total — the PR-5 behaviour, now
    /// pinned by a regression test); for proactive defrag it is the sum
    /// of the *remaining* (not total) execution time of the live admitted
    /// tasks, since only work still outstanding can recoup the move cost.
    Threshold(f64),
    /// Relocate whenever a plan exists.
    Always,
}

impl DefragPolicy {
    /// Whether a plan (single move set or multi-move sequence) of
    /// `cost_ns` is worth `benefit_ns` of remaining execution time.
    pub fn accepts(&self, cost_ns: u64, benefit_ns: u64) -> bool {
        match self {
            DefragPolicy::Never => false,
            DefragPolicy::Always => true,
            DefragPolicy::Threshold(ratio) => cost_ns as f64 <= ratio * benefit_ns as f64,
        }
    }
}

/// One planned relocation of a live allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelocationMove {
    /// Allocation to move.
    pub id: u64,
    /// Its current window.
    pub from: Window,
    /// The compatible free window it moves to.
    pub to: Window,
    /// Total bytes pushed through the ICAP for this move: the Eq. 18
    /// partial-bitstream write, plus `context_bytes` when the move is
    /// priced preemption-aware.
    pub bytes: u64,
    /// Context save + restore bytes (the readback/`GRESTORE` machinery
    /// for relocating a *running* module). Zero for single-step plans,
    /// which price the write only.
    pub context_bytes: u64,
    /// ICAP transfer time for `bytes`, nanoseconds.
    pub transfer_ns: u64,
}

/// A validated, costed defragmentation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DefragPlan {
    /// Relocations to execute (any order; targets are pairwise disjoint
    /// and free up front).
    pub moves: Vec<RelocationMove>,
    /// The window freed for the failed organization once moves complete.
    pub admit: Window,
    /// Total ICAP time of all moves, nanoseconds.
    pub total_move_ns: u64,
    /// Total bytes replayed by all moves.
    pub total_move_bytes: u64,
}

/// Axis-aligned window overlap (shared fabric cell).
pub(crate) fn overlaps(a: &Window, b: &Window) -> bool {
    a.start_col < b.end_col()
        && b.start_col < a.end_col()
        && a.row <= b.top_row()
        && b.row <= a.top_row()
}

impl LayoutManager {
    /// Plan a minimal relocation set that frees a window for `org`, or
    /// `None` when no single-step plan with at most `MAX_MOVES` (4) moves
    /// exists. Minimality is (move count, then total ICAP time) over all
    /// candidate admit rectangles.
    pub fn plan_defrag(&self, org: &PrrOrganization) -> Option<DefragPlan> {
        let started = Instant::now();
        let free = self.free_space();
        let width = org.width() as usize;
        if width == 0 || org.height < 1 || org.height > free.rows() {
            return None;
        }
        let mut best: Option<DefragPlan> = None;
        for &start in free.candidate_starts(org.clb_cols, org.dsp_cols, org.bram_cols) {
            let start = start as usize;
            for row in 1..=free.rows() - org.height + 1 {
                let admit = Window {
                    start_col: start,
                    width: width as u32,
                    row,
                    height: org.height,
                    columns: self.device().columns()[start..start + width].to_vec(),
                };
                if let Some(plan) = self.plan_for_rect(admit) {
                    let better = best.as_ref().is_none_or(|b| {
                        (plan.moves.len(), plan.total_move_ns) < (b.moves.len(), b.total_move_ns)
                    });
                    if better {
                        best = Some(plan);
                    }
                }
            }
        }
        Metrics::global().record_stage("layout:defrag_plan", started.elapsed());
        if best.is_some() {
            counters::DEFRAG_PLANS.incr();
        }
        best
    }

    /// Try to vacate `admit` by relocating every overlapping allocation
    /// to the leftmost-then-bottom compatible window that is free, misses
    /// `admit`, and was not chosen for an earlier blocker (chosen targets
    /// are marked occupied in a private copy of the grid).
    fn plan_for_rect(&self, admit: Window) -> Option<DefragPlan> {
        let blockers: Vec<&Allocation> = self
            .allocation_map()
            .values()
            .filter(|a| overlaps(&a.window, &admit))
            .collect();
        if blockers.len() > MAX_MOVES {
            return None;
        }
        let mut grid = self.free_space().grid().clone();
        let avoid = SpanRect::of(&admit);
        let mut moves: Vec<RelocationMove> = Vec::with_capacity(blockers.len());
        for blocker in blockers {
            let from = &blocker.window;
            let target = self
                .free_space()
                .relocation_slots(from)
                .iter()
                .filter(|&t| !avoid.overlaps(&t) && grid.is_free_rect(t))
                .map(|t| Window {
                    start_col: t.start,
                    width: from.width,
                    row: t.row,
                    height: from.height,
                    columns: from.columns.clone(),
                })
                // Column-sequence equality makes this hold by
                // construction, but the plan's validity rests on the
                // bitstream layer's own rule, so ask it.
                .find(|target| bitstream::compatible(from, target))?;
            grid.set(SpanRect::of(&target), false);
            let transfer_ns = self
                .icap()
                .transfer_time(blocker.bitstream_bytes)
                .as_nanos() as u64;
            moves.push(RelocationMove {
                id: blocker.id,
                from: from.clone(),
                to: target,
                bytes: blocker.bitstream_bytes,
                context_bytes: 0,
                transfer_ns,
            });
        }
        let total_move_ns = moves.iter().map(|m| m.transfer_ns).sum();
        let total_move_bytes = moves.iter().map(|m| m.bytes).sum();
        Some(DefragPlan {
            moves,
            admit,
            total_move_ns,
            total_move_bytes,
        })
    }

    /// Execute a plan: move every allocation in the free-space map and
    /// bump the `layout:*` relocation counters. ICAP time accounting is
    /// the caller's (the simulator serializes moves through the port).
    pub fn execute_defrag(&mut self, plan: &DefragPlan) {
        for mv in &plan.moves {
            debug_assert!(bitstream::compatible(&mv.from, &mv.to));
            self.move_allocation(mv.id, mv.to.clone());
        }
        counters::DEFRAG_EXECUTED.incr();
        counters::RELOCATIONS.add(plan.moves.len() as u64);
        counters::RELOCATED_BYTES.add(plan.total_move_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::IcapModel;
    use fabric::{Device, Family, ResourceKind::*};
    use multitask::ModuleId;

    fn strip(width: u32) -> Device {
        Device::new("strip", Family::Virtex5, 1, vec![Clb; width as usize]).unwrap()
    }

    fn clb_org(cols: u32) -> PrrOrganization {
        PrrOrganization {
            family: Family::Virtex5,
            height: 1,
            clb_cols: cols,
            dsp_cols: 0,
            bram_cols: 0,
        }
    }

    #[test]
    fn single_move_plan_frees_a_window_and_prices_the_move() {
        let d = strip(8);
        let mut m = LayoutManager::new(&d, IcapModel::V5_DMA);
        let a = m.allocate(ModuleId(0), &clb_org(3)).unwrap();
        let b = m.allocate(ModuleId(1), &clb_org(2)).unwrap();
        let c = m.allocate(ModuleId(2), &clb_org(3)).unwrap();
        m.release(a);
        m.release(c);

        let org = clb_org(4);
        assert_eq!(
            m.allocate(ModuleId(3), &org),
            Err(crate::manager::AllocError::Fragmentation)
        );
        let plan = m.plan_defrag(&org).unwrap();
        assert_eq!(plan.moves.len(), 1);
        let mv = &plan.moves[0];
        assert_eq!(mv.id, b);
        assert!(bitstream::compatible(&mv.from, &mv.to));
        let bytes = m.allocation(b).unwrap().bitstream_bytes;
        assert_eq!(mv.bytes, bytes);
        assert_eq!(
            mv.transfer_ns,
            IcapModel::V5_DMA.transfer_time(bytes).as_nanos() as u64
        );
        assert_eq!(plan.total_move_ns, mv.transfer_ns);

        m.execute_defrag(&plan);
        let id = m.allocate(ModuleId(3), &org).unwrap();
        assert_eq!(m.allocation(id).unwrap().window.width, 4);
    }

    #[test]
    fn policies_gate_on_cost_versus_benefit() {
        assert!(!DefragPolicy::Never.accepts(0, u64::MAX));
        assert!(DefragPolicy::Always.accepts(u64::MAX, 0));
        let t = DefragPolicy::Threshold(0.5);
        assert!(t.accepts(49, 100));
        assert!(t.accepts(50, 100));
        assert!(!t.accepts(51, 100));
    }

    #[test]
    fn no_plan_when_blockers_have_no_compatible_home() {
        // Full strip: the only blocker of any admit rect has nowhere to
        // go, so planning fails and the failure stays a rejection.
        let d = strip(4);
        let mut m = LayoutManager::new(&d, IcapModel::V5_DMA);
        m.allocate(ModuleId(0), &clb_org(4)).unwrap();
        assert!(m.plan_defrag(&clb_org(1)).is_none());
    }
}
