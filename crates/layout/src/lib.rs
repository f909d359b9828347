//! Online layout management for hardware multitasking on a partially
//! reconfigurable fabric.
//!
//! The paper's cost models price *static* decisions: how a PRR is
//! organized (Eqs. 2–6), how many bytes its partial bitstream needs
//! (Eqs. 18–23) and how long the ICAP takes to push them. This crate
//! connects those ingredients into the *dynamic* setting the paper
//! targets — PRRs allocated and freed at runtime, the fabric
//! fragmenting — following the module-layout-defragmentation line of van
//! der Veen et al.:
//!
//! * [`FreeSpace`] — per-row column bitsets, the one free-space record,
//!   with a composition-indexed placement query and fragmentation
//!   metrics computed on demand ([`free`]);
//! * [`LayoutManager`] — allocation bookkeeping, capacity-versus-
//!   fragmentation failure classification, `layout:*` metrics
//!   ([`manager`]);
//! * [`DefragPolicy`]/[`DefragPlan`] — minimal relocation plans among
//!   `bitstream::relocate`-compatible windows, priced through
//!   [`bitstream::IcapModel::transfer_time`] ([`defrag`]);
//! * [`Defrag2Config`]/[`Defrag2Plan`] — single-threaded bounded-depth
//!   branch-and-bound over multi-move relocation *sequences*, shifting
//!   modules in a copy of the free-space bitsets, with preemption-aware
//!   pricing ([`defrag2`]);
//! * [`simulate_layout`] — the dynamic-placement loss-system simulator,
//!   sharing one serialized ICAP between configurations and relocations
//!   ([`sim`]).

pub mod defrag;
pub mod defrag2;
pub mod free;
pub mod manager;
pub mod sim;

pub use defrag::{DefragPlan, DefragPolicy, RelocationMove};
pub use defrag2::{Defrag2Config, Defrag2Plan};
pub use free::{FreeSpace, NaiveFreeSpace};
pub use manager::{AllocError, Allocation, LayoutManager, MoveCost};
pub use sim::{simulate_layout, LayoutConfig, LayoutReport, RelocationEvent};
