//! PRR selection policies.
//!
//! The scheduler API is built for the allocation-free simulator core:
//! per-slot state is a `Copy` snapshot holding an interned [`ModuleId`]
//! (no `String` clones per dispatch), and the task's own module id is
//! passed alongside the task so reuse checks are integer compares. The
//! [`SchedContext`] argument carries the dispatch instant's global
//! state — clock, queue depth, deadline, ICAP availability and hoisted
//! per-slot reconfiguration times — so policies (the deadline-aware and
//! learned ones in particular) can price a choice without touching the
//! simulator's internals.

use crate::intern::ModuleId;
use fabric::Resources;

/// Runtime state of one PRR the scheduler can inspect.
///
/// `Copy`: the simulator refreshes a reusable snapshot buffer with these
/// per dispatch instead of allocating and cloning module names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrrState {
    /// Whether a task is currently executing (or the slot is mid-reconfig).
    pub busy: bool,
    /// Module currently configured into the PRR, if any (interned).
    pub loaded_module: Option<ModuleId>,
}

/// Read-only dispatch context passed to [`Scheduler::choose`]: everything
/// about the dispatch instant that is not a per-slot attribute.
///
/// Built fresh by the simulator for every dispatch; the slice borrows the
/// simulator's hoisted per-slot reconfiguration times, so constructing a
/// context allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct SchedContext<'a> {
    /// Current simulation time (ns).
    pub now: u64,
    /// Tasks queued *behind* the one being dispatched.
    pub queue_len: usize,
    /// The dispatching task's arrival time (ns).
    pub arrival_ns: u64,
    /// The dispatching task's execution time (ns).
    pub exec_ns: u64,
    /// The dispatching task's absolute deadline, if it has one.
    pub deadline_ns: Option<u64>,
    /// Instant the shared ICAP becomes free (≤ `now` means idle).
    pub icap_free_at: u64,
    /// Per-slot reconfiguration time through the ICAP (ns), indexed like
    /// `avail`/`states`.
    pub reconfig_ns: &'a [u64],
}

impl SchedContext<'_> {
    /// Completion time if the task is dispatched to slot `i` now: start
    /// immediately on a reuse hit, else wait for the ICAP and pay the
    /// slot's reconfiguration before executing.
    pub fn completion_on(&self, i: usize, module: ModuleId, states: &[PrrState]) -> u64 {
        let start = if states[i].loaded_module == Some(module) {
            self.now
        } else {
            self.now.max(self.icap_free_at) + self.reconfig_ns[i]
        };
        start + self.exec_ns
    }
}

/// A PRR selection policy: pick a free PRR for `task`, or `None` to wait.
///
/// `Send + Sync` so one policy can be shared across threads.
pub trait Scheduler: Send + Sync {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Choose among the indices of free, fitting PRRs. `candidates` is
    /// never empty. `needs` is the task's resource demand and `module`
    /// its interned module id — passed directly so the simulator's
    /// dispatch loop never has to touch the (cache-cold) task array.
    /// `ctx` carries the dispatch instant (clock, queue depth, deadline,
    /// ICAP state, per-slot reconfiguration times); `avail` is each
    /// slot's available resources, hoisted once per simulation so
    /// policies don't recompute column products per dispatch.
    fn choose(
        &self,
        ctx: &SchedContext<'_>,
        needs: &Resources,
        module: ModuleId,
        candidates: &[usize],
        avail: &[Resources],
        states: &[PrrState],
    ) -> usize;
}

/// First fit: lowest-id free PRR that fits.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl Scheduler for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn choose(
        &self,
        _ctx: &SchedContext<'_>,
        _needs: &Resources,
        _module: ModuleId,
        candidates: &[usize],
        _avail: &[Resources],
        _states: &[PrrState],
    ) -> usize {
        candidates[0]
    }
}

/// Best fit: the fitting PRR with the fewest spare resources (least
/// internal fragmentation), measured in CLB-equivalents.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFit;

fn spare_cost(needs: &Resources, avail: &Resources) -> u64 {
    let spare = avail.saturating_sub(needs);
    // Weight DSP/BRAM columns by their CLB-equivalent area.
    spare.clb() + spare.dsp() * 3 + spare.bram() * 5
}

impl Scheduler for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn choose(
        &self,
        _ctx: &SchedContext<'_>,
        needs: &Resources,
        _module: ModuleId,
        candidates: &[usize],
        avail: &[Resources],
        _states: &[PrrState],
    ) -> usize {
        *candidates
            .iter()
            .min_by_key(|&&i| (spare_cost(needs, &avail[i]), i))
            .expect("candidates is non-empty")
    }
}

/// Reuse aware: prefer a free PRR that already holds this task's module
/// (skipping reconfiguration entirely); fall back to best fit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReuseAware;

impl Scheduler for ReuseAware {
    fn name(&self) -> &'static str {
        "reuse-aware"
    }

    fn choose(
        &self,
        ctx: &SchedContext<'_>,
        needs: &Resources,
        module: ModuleId,
        candidates: &[usize],
        avail: &[Resources],
        states: &[PrrState],
    ) -> usize {
        if let Some(&hit) = candidates
            .iter()
            .find(|&&i| states[i].loaded_module == Some(module))
        {
            return hit;
        }
        BestFit.choose(ctx, needs, module, candidates, avail, states)
    }
}

/// Deadline aware: minimize the task's predicted completion time
/// ([`SchedContext::completion_on`] — reuse beats reconfiguration, a
/// cheap slot beats an oversized one, and a queued ICAP is priced in);
/// among equal completions, tightest fit. Tasks without deadlines are
/// scheduled the same way — earliest completion is simply the greedy
/// response-time policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadlineAware;

impl Scheduler for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline-aware"
    }

    fn choose(
        &self,
        ctx: &SchedContext<'_>,
        needs: &Resources,
        module: ModuleId,
        candidates: &[usize],
        avail: &[Resources],
        states: &[PrrState],
    ) -> usize {
        *candidates
            .iter()
            .min_by_key(|&&i| {
                (
                    ctx.completion_on(i, module, states),
                    spare_cost(needs, &avail[i]),
                    i,
                )
            })
            .expect("candidates is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Family;
    use prcost::PrrOrganization;

    /// Available resources of a 1-row, `clb_cols`-column CLB-only PRR.
    fn avail(clb_cols: u32) -> Resources {
        PrrOrganization {
            family: Family::Virtex5,
            height: 1,
            clb_cols,
            dsp_cols: 0,
            bram_cols: 0,
        }
        .available()
    }

    const M: ModuleId = ModuleId(0);
    const OTHER: ModuleId = ModuleId(1);

    fn free(loaded_module: Option<ModuleId>) -> PrrState {
        PrrState {
            busy: false,
            loaded_module,
        }
    }

    fn ctx<'a>(reconfig_ns: &'a [u64]) -> SchedContext<'a> {
        SchedContext {
            now: 0,
            queue_len: 0,
            arrival_ns: 0,
            exec_ns: 100,
            deadline_ns: None,
            icap_free_at: 0,
            reconfig_ns,
        }
    }

    #[test]
    fn first_fit_takes_lowest_index() {
        let av = vec![avail(8), avail(2)];
        let states = vec![free(None), free(None)];
        let rc = [800, 200];
        let needs = Resources::new(10, 0, 0);
        assert_eq!(
            FirstFit.choose(&ctx(&rc), &needs, M, &[0, 1], &av, &states),
            0
        );
    }

    #[test]
    fn best_fit_minimizes_spare() {
        let av = vec![avail(8), avail(2)];
        let states = vec![free(None), free(None)];
        let rc = [800, 200];
        // Task needs 30 CLBs: slot 1 (2 cols = 40 CLBs) is tighter than
        // slot 0 (8 cols = 160 CLBs).
        let needs = Resources::new(30, 0, 0);
        assert_eq!(
            BestFit.choose(&ctx(&rc), &needs, M, &[0, 1], &av, &states),
            1
        );
    }

    #[test]
    fn reuse_beats_best_fit() {
        let av = vec![avail(8), avail(2)];
        let states = vec![free(Some(M)), free(None)];
        let rc = [800, 200];
        let needs = Resources::new(30, 0, 0);
        // Best fit would pick 1; reuse-aware picks 0 (already loaded).
        assert_eq!(
            ReuseAware.choose(&ctx(&rc), &needs, M, &[0, 1], &av, &states),
            0
        );
        // Different module: falls back to best fit.
        assert_eq!(
            ReuseAware.choose(&ctx(&rc), &needs, OTHER, &[0, 1], &av, &states),
            1
        );
    }

    #[test]
    fn deadline_aware_minimizes_completion() {
        let av = vec![avail(8), avail(2)];
        let rc = [800, 200];
        // Reuse on the big slot: completes at exec (100) vs 200 + 100.
        let states = vec![free(Some(M)), free(None)];
        assert_eq!(
            DeadlineAware.choose(
                &ctx(&rc),
                &Resources::new(10, 0, 0),
                M,
                &[0, 1],
                &av,
                &states
            ),
            0
        );
        // No reuse anywhere: the cheap-to-reconfigure slot wins.
        let states = vec![free(None), free(None)];
        assert_eq!(
            DeadlineAware.choose(
                &ctx(&rc),
                &Resources::new(10, 0, 0),
                M,
                &[0, 1],
                &av,
                &states
            ),
            1
        );
        // A busy ICAP delays both equally; the cheaper slot still wins.
        let mut c = ctx(&rc);
        c.icap_free_at = 10_000;
        assert_eq!(
            DeadlineAware.choose(&c, &Resources::new(10, 0, 0), M, &[0, 1], &av, &states),
            1
        );
    }

    #[test]
    fn completion_on_prices_reuse_and_icap_wait() {
        let rc = [800, 200];
        let states = vec![free(Some(M)), free(None)];
        let mut c = ctx(&rc);
        c.now = 50;
        c.icap_free_at = 400;
        // Reuse: starts now.
        assert_eq!(c.completion_on(0, M, &states), 150);
        // Reconfig: waits for the ICAP, then pays the slot's transfer.
        assert_eq!(c.completion_on(1, M, &states), 400 + 200 + 100);
    }
}
