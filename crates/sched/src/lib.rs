//! # `sched` — real-time scheduling on PRR pools
//!
//! The paper's cost models price a PRR: its organization fixes the
//! partial bitstream size, hence the reconfiguration time every module
//! swap pays through the shared ICAP. This crate closes the loop for
//! *real-time* hardware multitasking — where those reconfiguration
//! costs decide whether deadlines hold — in two layers on top of the
//! `multitask` discrete-event simulator:
//!
//! * [`taskset`] — periodic task sets with releases, relative deadlines
//!   and release jitter. Utilizations are sampled with
//!   UUniFast(-Discard), per-job execution times vary under a truncated
//!   Weibull, and [`TaskSet::release_jobs`] expands a set into a
//!   deadline-carrying [`multitask::Workload`] the simulator runs
//!   unchanged. All generators are deterministic in their seed via the
//!   shared [`prcost::rng::Rng`].
//! * [`admission`] — classical schedulability tests adapted to PRR
//!   pools: a partitioned Liu–Layland utilization bound and a
//!   response-time analysis, both inflating every job's cost with the
//!   worst-case reconfiguration time derived from
//!   [`bitstream::IcapModel::transfer_time`].
//!
//! [`ablate`] ties the layers into one harness
//! ([`run_ablation`]) producing the `BENCH_sched.json` artifact:
//! first-fit and reuse-aware × workload class, the admission tests, and
//! workload class × defragmentation policy, with admissions,
//! deadline-miss ratios and ICAP utilization per cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablate;
pub mod admission;
pub mod taskset;

pub use ablate::{run_ablation, AblationConfig, AblationReport};
pub use admission::{
    response_time_admit, utilization_bound_admit, worst_reconfig_ns, AdmissionOutcome,
};
pub use taskset::{PeriodicTask, TaskSet, TaskSetConfig};
