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
//! * [`sched`] — PRR selection policies: first-fit (every ablation's
//!   baseline) and reuse-aware (prefer a PRR that already holds the
//!   task's module, skipping reconfiguration entirely; else the least
//!   overprovisioned PRR).
//! * [`event`] — the one discrete-event core every simulator that moves
//!   a clock runs on (`layout`'s loss system too): clock, arrival cursor,
//!   the shared ICAP port, and a lazily invalidated completion heap.
//! * [`sim`] — the fixed-PRR-pool loop on that core; its FIFO line
//!   ([`simulate`]) is allocation-free on a reusable [`SimScratch`].
//! * [`preempt`] — the same loop's priority line, with ICAP-costed
//!   context save and restore.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod intern;
pub mod preempt;
pub mod sched;
pub mod sim;
pub mod system;
pub mod task;
pub mod trace;

pub use intern::{ModuleId, ModuleTable};
pub use preempt::{simulate_preemptive, PreemptReport};
pub use sched::{FirstFit, ReuseAware, Scheduler};
pub use sim::{
    simulate, simulate_full_reconfig, simulate_static, simulate_with_scratch, SimReport, SimScratch,
};
pub use system::{PrSystem, PrrSlot, SystemError};
pub use task::{HwTask, Workload};
pub use trace::{parse_trace, write_trace};
