//! # `multitask` — hardware multitasking on a PR FPGA
//!
//! The paper's motivation: PRRs time-multiplex hardware tasks (PRMs), and
//! the PRR size/organization chosen at design time determines partial
//! bitstream sizes, hence reconfiguration times, hence overall system
//! performance — a badly sized PRR can make the PR system *slower than a
//! non-PR design*. This crate makes that end-to-end story executable:
//!
//! * [`task`] — hardware tasks with resource requirements, execution
//!   times, arrivals and priorities (plus deterministic workload
//!   generators). [`HwTask`] is the one task type every simulator takes:
//!   `Copy`, with its module as an interned [`ModuleId`] that resolves
//!   against the [`ModuleTable`] its [`Workload`] owns ([`intern`]).
//!   Names are interned once, where they enter (generators, the
//!   [`trace`] parser, `sched`'s task sets), and turned back into names
//!   only where output is printed.
//! * [`system`] — a PR system: one device, a static region, and a set of
//!   placed PRRs (planned by `prcost` or supplied explicitly), with the
//!   single shared ICAP the paper describes ("desynchronization releases
//!   the ICAP, which allows other PRRs to be reconfigured").
//! * [`sched`] — PRR selection policies: first-fit, best-fit (least
//!   overprovisioned PRR), reuse-aware (prefer a PRR that already holds
//!   the task's module, skipping reconfiguration entirely), and
//!   deadline-aware (minimize predicted completion using the
//!   [`SchedContext`] dispatch snapshot).
//! * [`sim`] — a discrete-event simulator producing makespan, waiting
//!   times, reconfiguration counts/time and per-PRR utilization. The core
//!   is allocation-free after setup: integer module-id compares,
//!   per-task fits bitmasks, a binary-heap event queue and a reusable
//!   [`SimScratch`], with [`simulate_batch`] fanning scenarios across
//!   rayon workers (one scratch per worker).
//! * [`preempt`] — the same tasks under preemptive priority scheduling,
//!   with ICAP-costed context save and restore.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod intern;
pub mod preempt;
pub mod sched;
pub mod sim;
pub mod system;
pub mod task;
pub mod trace;

pub use intern::{ModuleId, ModuleTable};
pub use preempt::{simulate_preemptive, PreemptReport};
pub use sched::{BestFit, DeadlineAware, FirstFit, PrrState, ReuseAware, SchedContext, Scheduler};
pub use sim::{
    simulate, simulate_batch, simulate_full_reconfig, simulate_static, simulate_with_scratch,
    Scenario, SimReport, SimScratch,
};
pub use system::{PrSystem, PrrSlot, SystemError};
pub use task::{HwTask, Workload};
pub use trace::{parse_trace, write_trace};
