//! PRR selection policies.
//!
//! The scheduler API is built for the allocation-free simulator core:
//! each slot's loaded module is an interned [`ModuleId`] (no `String`
//! clones per dispatch), and the task's own module id is passed
//! alongside its resource demand, so reuse checks are integer compares.

use crate::intern::ModuleId;
use fabric::Resources;

/// A PRR selection policy: pick a free PRR for a task.
///
/// `Send + Sync` so one policy can be shared across threads.
pub trait Scheduler: Send + Sync {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Choose among the indices of free, fitting PRRs. `candidates` is
    /// never empty and ascends. `needs` is the task's resource demand and
    /// `module` its interned module id — passed directly so the
    /// simulator's dispatch loop never has to touch the (cache-cold) task
    /// array. `avail` is each slot's available resources, hoisted once per
    /// simulation, and `loaded` each slot's configured module.
    fn choose(
        &self,
        needs: &Resources,
        module: ModuleId,
        candidates: &[usize],
        avail: &[Resources],
        loaded: &[Option<ModuleId>],
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
        _needs: &Resources,
        _module: ModuleId,
        candidates: &[usize],
        _avail: &[Resources],
        _loaded: &[Option<ModuleId>],
    ) -> usize {
        candidates[0]
    }
}

/// Reuse aware: prefer a free PRR that already holds this task's module
/// (skipping reconfiguration entirely); otherwise the fitting PRR with the
/// fewest spare resources in CLB-equivalents (least internal
/// fragmentation), lowest id on ties.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReuseAware;

impl Scheduler for ReuseAware {
    fn name(&self) -> &'static str {
        "reuse-aware"
    }

    fn choose(
        &self,
        needs: &Resources,
        module: ModuleId,
        candidates: &[usize],
        avail: &[Resources],
        loaded: &[Option<ModuleId>],
    ) -> usize {
        if let Some(&hit) = candidates.iter().find(|&&i| loaded[i] == Some(module)) {
            return hit;
        }
        let spare_cost = |i: usize| {
            let spare = avail[i].saturating_sub(needs);
            // Weight DSP/BRAM columns by their CLB-equivalent area.
            spare.clb() + spare.dsp() * 3 + spare.bram() * 5
        };
        *candidates
            .iter()
            .min_by_key(|&&i| (spare_cost(i), i))
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

    #[test]
    fn first_fit_takes_lowest_index() {
        let av = vec![avail(8), avail(2)];
        let needs = Resources::new(10, 0, 0);
        assert_eq!(FirstFit.choose(&needs, M, &[0, 1], &av, &[None, None]), 0);
    }

    #[test]
    fn reuse_beats_best_fit() {
        let av = vec![avail(8), avail(2)];
        let loaded = [Some(M), None];
        let needs = Resources::new(30, 0, 0);
        // Best fit would pick 1; reuse-aware picks 0 (already loaded).
        assert_eq!(ReuseAware.choose(&needs, M, &[0, 1], &av, &loaded), 0);
        // Different module: falls back to best fit — slot 1 (2 cols = 40
        // CLBs) is tighter than slot 0 (8 cols = 160 CLBs).
        assert_eq!(ReuseAware.choose(&needs, OTHER, &[0, 1], &av, &loaded), 1);
    }
}
