//! A learned PRR-placement policy: linear Q-learning, no external ML.
//!
//! The action space at each dispatch is "which free, fitting PRR gets
//! this task"; the value of each action is approximated as `w · φ`
//! over a fixed feature vector ([`FEATURES`] dims) computed from the
//! [`SchedContext`] and per-slot state — reuse hit, slot
//! reconfiguration cost, ICAP backlog, internal fragmentation, queue
//! depth, deadline slack. Training runs ε-greedy episodes through the
//! real `multitask` simulator (an exploring [`Scheduler`] records
//! transitions behind a `Mutex`, keeping the trait's `&self`
//! signature), then replays them with one-step Q-learning updates.
//! Everything is deterministic in the training seed.
//!
//! The product of training is a [`FrozenPolicy`]: a stateless weight
//! vector whose `choose` is a pure argmax (ties to the lowest slot
//! index). Frozen policies are safe to share across threads and replay
//! byte-identically.

use multitask::{ModuleId, PrSystem, PrrState, SchedContext, Scheduler, SimReport, Workload};
use prcost::rng::Rng;
use serde::Serialize;
use std::sync::Mutex;

/// Dimensionality of the dispatch feature vector.
pub const FEATURES: usize = 8;

/// Feature vector for placing the dispatching task on slot `i`.
///
/// All components are bounded (roughly `[-1, 1]`-scaled) so fixed
/// learning rates stay stable across devices and workloads.
fn phi(
    ctx: &SchedContext<'_>,
    i: usize,
    needs: &fabric::Resources,
    module: ModuleId,
    avail: &[fabric::Resources],
    states: &[PrrState],
) -> [f64; FEATURES] {
    let ms = 1e6;
    let reuse = states[i].loaded_module == Some(module);
    let spare = avail[i].saturating_sub(needs);
    let spare_cost = (spare.clb() + spare.dsp() * 3 + spare.bram() * 5) as f64;
    let total = (avail[i].clb() + avail[i].dsp() * 3 + avail[i].bram() * 5).max(1) as f64;
    let slack = ctx.deadline_ns.map_or(0.0, |d| {
        ((d.saturating_sub(ctx.now).saturating_sub(ctx.exec_ns)) as f64 / ms).min(10.0)
    });
    [
        1.0,
        if reuse { 1.0 } else { 0.0 },
        spare_cost / total,
        (ctx.reconfig_ns[i] as f64 / ms).min(10.0),
        (ctx.icap_free_at.saturating_sub(ctx.now) as f64 / ms).min(10.0),
        (ctx.queue_len as f64 / 16.0).min(4.0),
        slack,
        (ctx.exec_ns as f64 / ms).min(10.0),
    ]
}

fn dot(w: &[f64; FEATURES], f: &[f64; FEATURES]) -> f64 {
    w.iter().zip(f).map(|(a, b)| a * b).sum()
}

/// One recorded dispatch: candidate features, the action taken, and its
/// immediate reward.
struct Step {
    feats: Vec<[f64; FEATURES]>,
    chosen: usize,
    reward: f64,
}

/// Immediate reward for dispatching to `slot`: negative predicted
/// response time (ms), with a flat penalty when the predicted
/// completion overshoots the deadline. Computable at dispatch time from
/// the context alone — the simulator's completion model is exact for
/// the chosen slot.
fn reward(ctx: &SchedContext<'_>, slot: usize, module: ModuleId, states: &[PrrState]) -> f64 {
    let done = ctx.completion_on(slot, module, states);
    let response_ms = done.saturating_sub(ctx.arrival_ns) as f64 / 1e6;
    let miss = ctx.deadline_ns.is_some_and(|d| done > d);
    -response_ms - if miss { 10.0 } else { 0.0 }
}

/// ε-greedy exploring policy used only during training. Interior
/// mutability keeps the [`Scheduler`] trait's `&self` signature;
/// training episodes run serially, so the lock is uncontended.
struct Explorer {
    weights: [f64; FEATURES],
    state: Mutex<ExplorerState>,
}

struct ExplorerState {
    rng: Rng,
    epsilon: f64,
    log: Vec<Step>,
}

impl Scheduler for Explorer {
    fn name(&self) -> &'static str {
        "explore"
    }

    fn choose(
        &self,
        ctx: &SchedContext<'_>,
        needs: &fabric::Resources,
        module: ModuleId,
        candidates: &[usize],
        avail: &[fabric::Resources],
        states: &[PrrState],
    ) -> usize {
        let feats: Vec<[f64; FEATURES]> = candidates
            .iter()
            .map(|&i| phi(ctx, i, needs, module, avail, states))
            .collect();
        let mut st = self.state.lock().expect("explorer lock");
        let chosen = if st.rng.unit() < st.epsilon {
            st.rng.rand_below(candidates.len())
        } else {
            greedy(&self.weights, &feats)
        };
        let slot = candidates[chosen];
        let r = reward(ctx, slot, module, states);
        st.log.push(Step {
            feats,
            chosen,
            reward: r,
        });
        slot
    }
}

/// Index of the argmax action (ties to the lowest index, so frozen
/// replays are order-deterministic).
fn greedy(w: &[f64; FEATURES], feats: &[[f64; FEATURES]]) -> usize {
    let mut best = 0usize;
    let mut best_q = f64::NEG_INFINITY;
    for (k, f) in feats.iter().enumerate() {
        let q = dot(w, f);
        if q > best_q {
            best_q = q;
            best = k;
        }
    }
    best
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainConfig {
    /// ε-greedy episodes per training workload.
    pub episodes: u32,
    /// Q-learning sweeps over each episode's transition log.
    pub replay_epochs: u32,
    /// Initial exploration rate (decays linearly to 0 across episodes).
    pub epsilon: f64,
    /// Learning rate (normalized per-update by the feature norm).
    pub alpha: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Training seed: exploration randomness is deterministic in it.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            episodes: 6,
            replay_epochs: 3,
            epsilon: 0.25,
            alpha: 0.05,
            gamma: 0.9,
            seed: 1,
        }
    }
}

/// A linear action-value function under training: `Q(s, a) = w · φ`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinearQ {
    weights: [f64; FEATURES],
}

impl LinearQ {
    /// Zero-initialized value function.
    pub fn new() -> Self {
        LinearQ::default()
    }

    /// Current weights.
    pub fn weights(&self) -> &[f64; FEATURES] {
        &self.weights
    }

    /// Train on `workloads` over `system`: for each episode, run every
    /// workload through the simulator under an ε-greedy exploring
    /// policy (ε decaying to zero), then replay the recorded
    /// transitions with one-step Q-learning updates,
    /// `w += α (r + γ max_a' Q(s', a') − Q(s, a)) φ`. Deterministic in
    /// `cfg.seed`: episodes run serially and all randomness flows
    /// through one seeded [`Rng`].
    pub fn train(&mut self, system: &PrSystem, workloads: &[Workload], cfg: &TrainConfig) {
        let episodes = cfg.episodes.max(1);
        for ep in 0..episodes {
            // Linear ε decay; the final episode is pure exploitation, so
            // late updates refine the greedy trajectory itself.
            let epsilon =
                cfg.epsilon * f64::from(episodes - 1 - ep) / f64::from(episodes.max(2) - 1);
            for (wi, workload) in workloads.iter().enumerate() {
                let explorer = Explorer {
                    weights: self.weights,
                    state: Mutex::new(ExplorerState {
                        rng: Rng::from_seed(
                            cfg.seed ^ (u64::from(ep) << 32) ^ (wi as u64).wrapping_mul(0x9e37),
                        ),
                        epsilon,
                        log: Vec::new(),
                    }),
                };
                multitask::simulate(system, workload, &explorer);
                let log = explorer.state.into_inner().expect("explorer lock").log;
                self.replay_updates(&log, cfg);
            }
        }
    }

    /// One-step Q-learning over a recorded trajectory. Successive
    /// dispatches form the state chain; the terminal dispatch
    /// bootstraps from 0.
    fn replay_updates(&mut self, log: &[Step], cfg: &TrainConfig) {
        for _ in 0..cfg.replay_epochs.max(1) {
            for t in 0..log.len() {
                let step = &log[t];
                let f = &step.feats[step.chosen];
                let q = dot(&self.weights, f);
                let next_max = log.get(t + 1).map_or(0.0, |n| {
                    n.feats
                        .iter()
                        .map(|nf| dot(&self.weights, nf))
                        .fold(f64::NEG_INFINITY, f64::max)
                });
                let target = step.reward + cfg.gamma * next_max;
                // Normalized gradient step keeps the update stable for
                // any feature magnitude.
                let norm = 1.0 + f.iter().map(|x| x * x).sum::<f64>();
                let delta = cfg.alpha * (target - q) / norm;
                for (w, x) in self.weights.iter_mut().zip(f) {
                    *w += delta * x;
                }
            }
        }
    }

    /// Freeze the current weights into a stateless, shareable policy.
    pub fn freeze(&self) -> FrozenPolicy {
        FrozenPolicy {
            weights: self.weights,
        }
    }
}

/// A frozen learned policy: pure `argmax w · φ` over the candidates.
///
/// Stateless and `Send + Sync` — replays are byte-identical across
/// runs and across the threads that share one policy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FrozenPolicy {
    weights: [f64; FEATURES],
}

impl FrozenPolicy {
    /// The frozen weights.
    pub fn weights(&self) -> &[f64; FEATURES] {
        &self.weights
    }

    /// Build a policy directly from weights (for tests and replays of
    /// externally stored policies).
    pub fn from_weights(weights: [f64; FEATURES]) -> Self {
        FrozenPolicy { weights }
    }

    /// Evaluate the frozen policy on a workload — a deterministic
    /// replay through the real simulator.
    pub fn replay(&self, system: &PrSystem, workload: &Workload) -> SimReport {
        multitask::simulate(system, workload, self)
    }
}

impl Scheduler for FrozenPolicy {
    fn name(&self) -> &'static str {
        "learned"
    }

    fn choose(
        &self,
        ctx: &SchedContext<'_>,
        needs: &fabric::Resources,
        module: ModuleId,
        candidates: &[usize],
        avail: &[fabric::Resources],
        states: &[PrrState],
    ) -> usize {
        let mut best = candidates[0];
        let mut best_q = f64::NEG_INFINITY;
        for &i in candidates {
            let q = dot(&self.weights, &phi(ctx, i, needs, module, avail, states));
            if q > best_q {
                best_q = q;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::IcapModel;
    use fabric::Family;

    fn small_system() -> PrSystem {
        let device = fabric::database::xc5vlx110t();
        let org = prcost::PrrOrganization {
            family: Family::Virtex5,
            height: 1,
            clb_cols: 4,
            dsp_cols: 1,
            bram_cols: 1,
        };
        PrSystem::homogeneous(&device, org, 3, IcapModel::V5_DMA).unwrap()
    }

    /// Moderately loaded (ρ ≈ 0.5 on 3 PRRs) so dispatches usually see
    /// several free candidates — the regime where exploration and the
    /// learned choice actually matter. A saturated queue dispatches one
    /// task per slot-free event with exactly one candidate, and every
    /// policy (and every seed) degenerates to the same trajectory.
    fn small_workload(seed: u64) -> Workload {
        Workload::generate(seed, Family::Virtex5, 60, 6, 250, 100_000, 150_000).with_deadlines(3.0)
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let sys = small_system();
        let w = [small_workload(1), small_workload(2)];
        let cfg = TrainConfig::default();
        let mut a = LinearQ::new();
        a.train(&sys, &w, &cfg);
        let mut b = LinearQ::new();
        b.train(&sys, &w, &cfg);
        assert_eq!(a.weights(), b.weights());
        let mut c = LinearQ::new();
        c.train(
            &sys,
            &w,
            &TrainConfig {
                seed: 2,
                ..cfg.clone()
            },
        );
        assert_ne!(a.weights(), c.weights(), "seed must matter");
    }

    #[test]
    fn training_moves_weights_and_freezes() {
        let sys = small_system();
        let w = [small_workload(3)];
        let mut q = LinearQ::new();
        q.train(&sys, &w, &TrainConfig::default());
        assert!(
            q.weights().iter().any(|&x| x != 0.0),
            "training must update weights"
        );
        let frozen = q.freeze();
        assert_eq!(frozen.weights(), q.weights());
    }

    #[test]
    fn frozen_replay_is_reproducible() {
        let sys = small_system();
        let train = [small_workload(4)];
        let eval = small_workload(5);
        let mut q = LinearQ::new();
        q.train(&sys, &train, &TrainConfig::default());
        let frozen = q.freeze();
        let a = frozen.replay(&sys, &eval);
        let b = frozen.replay(&sys, &eval);
        assert_eq!(a, b);
        assert_eq!(a.scheduler, "learned");
    }

    #[test]
    fn reuse_weighted_policy_prefers_loaded_slot() {
        // A hand-built policy that values only reuse must behave like
        // ReuseAware's hit path.
        let mut w = [0.0; FEATURES];
        w[1] = 1.0;
        let policy = FrozenPolicy::from_weights(w);
        let avail = vec![fabric::Resources::new(100, 4, 2); 2];
        let states = vec![
            PrrState {
                busy: false,
                loaded_module: None,
            },
            PrrState {
                busy: false,
                loaded_module: Some(ModuleId(7)),
            },
        ];
        let rc = [500, 500];
        let ctx = SchedContext {
            now: 0,
            queue_len: 0,
            arrival_ns: 0,
            exec_ns: 100,
            deadline_ns: None,
            icap_free_at: 0,
            reconfig_ns: &rc,
        };
        let needs = fabric::Resources::new(10, 0, 0);
        assert_eq!(
            policy.choose(&ctx, &needs, ModuleId(7), &[0, 1], &avail, &states),
            1
        );
        assert_eq!(
            policy.choose(&ctx, &needs, ModuleId(8), &[0, 1], &avail, &states),
            0
        );
    }
}
