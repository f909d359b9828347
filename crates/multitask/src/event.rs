//! The one discrete-event core the simulators run on.
//!
//! The paper prices every partial-reconfiguration operation by the bytes
//! it pushes through the device's one ICAP. An [`EventCore`] holds what
//! every discipline shares: the clock, the cursor over a workload's
//! arrival-sorted tasks, the [`IcapPort`] every bitstream write, context
//! save/restore and relocation goes through, and a min-heap of pending
//! completions. Two loops run on it: the fixed-PRR-pool loop of
//! [`crate::sim`] and `layout`'s online-placement loss system.
//!
//! Completions are invalidated lazily: a loop that moves one (a
//! preempted run, a relocated module) pushes the new time, and its
//! `live(owner, at)` test skips the old entry when it is popped. A stale
//! entry may still wake the loop at its old time, which changes
//! nothing. Ties pop in ascending owner order.

use crate::task::HwTask;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pending `(time, owner)` completions: a min-heap, reusable across runs.
pub type Completions = BinaryHeap<Reverse<(u64, u64)>>;

/// The configuration port: one transfer at a time, in request order.
#[derive(Debug, Clone, Copy, Default)]
pub struct IcapPort {
    free_at: u64,
    busy_ns: u64,
}

impl IcapPort {
    /// When a transfer requested at `now` would start.
    #[inline]
    pub fn start(&self, now: u64) -> u64 {
        now.max(self.free_at)
    }

    /// Queue an `ns`-long transfer requested at `now` behind every earlier
    /// one and return its end. Times and the busy total saturate.
    #[inline]
    pub fn transfer(&mut self, now: u64, ns: u64) -> u64 {
        self.free_at = self.start(now).saturating_add(ns);
        self.busy_ns = self.busy_ns.saturating_add(ns);
        self.free_at
    }

    /// Total transfer time so far.
    #[inline]
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

/// Which events end a loop's wait in [`EventCore::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The next arrival.
    Arrival,
    /// The next completion.
    Completion,
    /// Whichever of the two comes first.
    Either,
}

/// Clock, arrival cursor, ICAP port and completion heap of one run.
#[derive(Debug)]
pub struct EventCore<'a> {
    tasks: &'a [HwTask],
    next: usize,
    now: u64,
    /// The one configuration port every transfer goes through.
    pub icap: IcapPort,
    completions: &'a mut Completions,
}

impl<'a> EventCore<'a> {
    /// A run over arrival-sorted `tasks` at time 0, on `completions` emptied.
    pub fn new(tasks: &'a [HwTask], completions: &'a mut Completions) -> Self {
        completions.clear();
        EventCore {
            tasks,
            next: 0,
            now: 0,
            icap: IcapPort::default(),
            completions,
        }
    }

    /// The clock, ns.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The next task arriving at or before `now`, if any.
    #[inline]
    pub fn arrival(&mut self) -> Option<&'a HwTask> {
        let task = self
            .tasks
            .get(self.next)
            .filter(|t| t.arrival_ns <= self.now)?;
        self.next += 1;
        Some(task)
    }

    /// The next task, with the clock set to its arrival: the step of a
    /// loss system, which decides each task at its own instant.
    #[inline]
    pub fn next_task(&mut self) -> Option<&'a HwTask> {
        let task = self.tasks.get(self.next)?;
        self.next += 1;
        self.now = task.arrival_ns;
        Some(task)
    }

    /// `owner` completes at `at`.
    #[inline]
    pub fn schedule(&mut self, at: u64, owner: u64) {
        self.completions.push(Reverse((at, owner)));
    }

    /// Pop the earliest live completion due by `now` as `(at, owner)`.
    #[inline]
    pub fn completion(&mut self, live: impl Fn(u64, u64) -> bool) -> Option<(u64, u64)> {
        while let Some(&Reverse((at, owner))) = self.completions.peek() {
            if at > self.now {
                return None;
            }
            self.completions.pop();
            if live(owner, at) {
                return Some((at, owner));
            }
        }
        None
    }

    /// Move the clock to the next event `wake` names; `false` (clock
    /// unmoved) when there is none.
    #[inline]
    pub fn advance(&mut self, wake: Wake) -> bool {
        let arrival = self.tasks.get(self.next).map(|t| t.arrival_ns);
        let completion = self.completions.peek().map(|&Reverse((at, _))| at);
        let next = match wake {
            Wake::Arrival => arrival,
            Wake::Completion => completion,
            Wake::Either => arrival.into_iter().chain(completion).min(),
        };
        let Some(t) = next else { return false };
        self.now = t;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::ModuleId;
    use fabric::Resources;

    fn task(id: u32, arrival_ns: u64) -> HwTask {
        HwTask {
            id,
            module: ModuleId(0),
            priority: 0,
            needs: Resources::new(1, 0, 0),
            arrival_ns,
            exec_ns: 1,
            deadline_ns: None,
        }
    }

    #[test]
    fn the_port_serializes_and_saturates() {
        let mut port = IcapPort::default();
        assert_eq!(port.transfer(10, 5), 15);
        assert_eq!(port.start(12), 15, "busy until 15");
        assert_eq!(port.transfer(12, 5), 20);
        assert_eq!((port.start(19), port.start(20)), (20, 20));
        assert_eq!(port.transfer(30, u64::MAX), u64::MAX);
        assert_eq!(port.busy_ns(), u64::MAX);
    }

    #[test]
    fn stale_completions_are_skipped_and_ties_pop_by_owner() {
        let tasks = [task(0, 0), task(1, 50)];
        let mut heap = Completions::new();
        let mut core = EventCore::new(&tasks, &mut heap);
        assert_eq!(core.arrival().map(|t| t.id), Some(0));
        assert!(core.arrival().is_none(), "task 1 arrives at 50");
        // Owner 7 moved from 20 to 40; owners 3 and 9 tie at 40.
        let auth = |owner: u64| {
            [(7, 40), (3, 40), (9, 40)]
                .iter()
                .find(|e| e.0 == owner)
                .unwrap()
                .1
        };
        for (at, owner) in [(20, 7), (40, 9), (40, 7), (40, 3)] {
            core.schedule(at, owner);
        }
        let live = |owner, at| auth(owner) == at;
        assert!(core.advance(Wake::Either));
        assert_eq!(core.now(), 20, "a stale entry may wake the loop...");
        assert_eq!(core.completion(live), None, "...which finds nothing due");
        assert!(core.advance(Wake::Either));
        assert_eq!(core.now(), 40);
        let popped: Vec<_> = std::iter::from_fn(|| core.completion(live)).collect();
        assert_eq!(popped, [(40, 3), (40, 7), (40, 9)]);
        assert!(core.advance(Wake::Either));
        assert_eq!(core.now(), 50);
        assert!(!core.advance(Wake::Completion));
        assert_eq!(core.next_task().map(|t| t.id), Some(1));
        assert!(!core.advance(Wake::Either));
    }
}
