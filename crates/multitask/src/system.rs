//! PR system model: a device partitioned into a static region and PRRs.

use bitstream::IcapModel;
use core::fmt;
use fabric::{Device, Resources, Window};
use prcost::{bitstream_size_bytes, PrrOrganization};
use serde::{Deserialize, Serialize};

/// One placed PRR available for time-multiplexing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrrSlot {
    /// Slot id.
    pub id: u32,
    /// Organization (determines available resources and bitstream size).
    pub organization: PrrOrganization,
    /// Physical placement.
    pub window: Window,
    /// Partial bitstream size for this PRR, bytes (Eq. 18) — identical for
    /// every PRM loaded into it, since the bitstream covers the whole PRR.
    pub bitstream_bytes: u64,
}

impl PrrSlot {
    /// Build a slot, deriving the bitstream size from the organization.
    pub fn new(id: u32, organization: PrrOrganization, window: Window) -> Self {
        let bitstream_bytes = bitstream_size_bytes(&organization);
        PrrSlot {
            id,
            organization,
            window,
            bitstream_bytes,
        }
    }

    /// Resources this PRR offers.
    pub fn available(&self) -> Resources {
        self.organization.available()
    }

    /// Whether a task needing `needs` fits.
    pub fn fits(&self, needs: &Resources) -> bool {
        self.available().covers(needs)
    }
}

/// System construction errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// Two PRRs overlap on the fabric.
    Overlap {
        /// First slot id.
        a: u32,
        /// Second slot id.
        b: u32,
    },
    /// A PRR does not fit the device.
    OutOfBounds {
        /// Offending slot id.
        id: u32,
    },
    /// A PRR's window composition disagrees with its organization.
    Composition {
        /// Offending slot id.
        id: u32,
    },
    /// No PRR in the system fits a required footprint.
    NoFit,
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Overlap { a, b } => write!(f, "PRR {a} overlaps PRR {b}"),
            SystemError::OutOfBounds { id } => write!(f, "PRR {id} exceeds device bounds"),
            SystemError::Composition { id } => {
                write!(f, "PRR {id}'s window does not match its organization")
            }
            SystemError::NoFit => write!(f, "no PRR fits the requested footprint"),
        }
    }
}

impl std::error::Error for SystemError {}

/// A PR system: device + PRR pool + the single shared ICAP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrSystem {
    /// Device name.
    pub device: String,
    /// All PRRs.
    pub prrs: Vec<PrrSlot>,
    /// Configuration port model (shared: one reconfiguration at a time).
    pub icap: IcapModel,
}

impl PrSystem {
    /// Validate and build a system.
    pub fn new(device: &Device, prrs: Vec<PrrSlot>, icap: IcapModel) -> Result<Self, SystemError> {
        for slot in &prrs {
            let w = &slot.window;
            if w.end_col() > device.width() || device.check_row_span(w.row, w.height).is_err() {
                return Err(SystemError::OutOfBounds { id: slot.id });
            }
            let counts = w.column_counts();
            if counts.clb() != u64::from(slot.organization.clb_cols)
                || counts.dsp() != u64::from(slot.organization.dsp_cols)
                || counts.bram() != u64::from(slot.organization.bram_cols)
                || w.height != slot.organization.height
            {
                return Err(SystemError::Composition { id: slot.id });
            }
        }
        for (i, a) in prrs.iter().enumerate() {
            for b in &prrs[i + 1..] {
                if a.window.overlaps(&b.window) {
                    return Err(SystemError::Overlap { a: a.id, b: b.id });
                }
            }
        }
        Ok(PrSystem {
            device: device.name().to_string(),
            prrs,
            icap,
        })
    }

    /// Build a homogeneous system: `count` identical PRRs of `organization`
    /// placed left to right on non-overlapping windows.
    pub fn homogeneous(
        device: &Device,
        organization: PrrOrganization,
        count: u32,
        icap: IcapModel,
    ) -> Result<Self, SystemError> {
        let req = organization.window_request();
        let mut slots = Vec::new();
        let mut taken: Vec<Window> = Vec::new();
        for w in device.windows(&req) {
            if slots.len() as u32 == count {
                break;
            }
            if taken.iter().any(|t| t.overlaps(&w)) {
                continue;
            }
            taken.push(w.clone());
            slots.push(PrrSlot::new(slots.len() as u32, organization, w));
        }
        // Stack vertically too if the columns allow more rows.
        if (slots.len() as u32) < count && organization.height < device.rows() {
            let mut extra = Vec::new();
            for base in &slots {
                let mut row = base.window.row + organization.height;
                while row + organization.height - 1 <= device.rows()
                    && (slots.len() + extra.len()) < count as usize
                {
                    let mut w = base.window.clone();
                    w.row = row;
                    extra.push(PrrSlot::new(
                        (slots.len() + extra.len()) as u32,
                        organization,
                        w,
                    ));
                    row += organization.height;
                }
            }
            slots.extend(extra);
        }
        if (slots.len() as u32) < count {
            return Err(SystemError::NoFit);
        }
        PrSystem::new(device, slots, icap)
    }

    /// Reconfiguration time for one PRR through the shared ICAP.
    pub fn reconfig_ns(&self, slot: &PrrSlot) -> u64 {
        self.icap.transfer_time(slot.bitstream_bytes).as_nanos() as u64
    }

    /// Restrict a workload to the tasks some PRR of this system can host
    /// (sharing its module table). Useful for comparing systems on a
    /// common servable task set.
    pub fn filter_workload(&self, workload: &crate::task::Workload) -> crate::task::Workload {
        let mut tasks = Vec::with_capacity(workload.tasks.len());
        tasks.extend(
            workload
                .tasks
                .iter()
                .filter(|t| self.prrs.iter().any(|p| p.fits(&t.needs))),
        );
        workload.with_tasks(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::xc5vlx110t;
    use fabric::Family;

    fn org(h: u32, clb: u32) -> PrrOrganization {
        PrrOrganization {
            family: Family::Virtex5,
            height: h,
            clb_cols: clb,
            dsp_cols: 0,
            bram_cols: 0,
        }
    }

    #[test]
    fn homogeneous_builds_disjoint_prrs() {
        let device = xc5vlx110t();
        let sys = PrSystem::homogeneous(&device, org(1, 4), 6, IcapModel::V5_DMA).unwrap();
        assert_eq!(sys.prrs.len(), 6);
        for (i, a) in sys.prrs.iter().enumerate() {
            for b in &sys.prrs[i + 1..] {
                assert!(!a.window.overlaps(&b.window));
            }
        }
    }

    #[test]
    fn vertical_stacking_multiplies_capacity() {
        let device = xc5vlx110t();
        // 4 contiguous CLB columns exist in a handful of places; stacking
        // 8 rows high gives many more slots.
        let sys = PrSystem::homogeneous(&device, org(1, 4), 20, IcapModel::V5_DMA).unwrap();
        assert_eq!(sys.prrs.len(), 20);
    }

    #[test]
    fn impossible_count_is_rejected() {
        let device = xc5vlx110t();
        assert_eq!(
            PrSystem::homogeneous(&device, org(8, 20), 9, IcapModel::V5_DMA),
            Err(SystemError::NoFit)
        );
    }

    #[test]
    fn overlap_detection() {
        let device = xc5vlx110t();
        let w = device.find_window(&org(2, 3).window_request()).unwrap();
        let a = PrrSlot::new(0, org(2, 3), w.clone());
        let b = PrrSlot::new(1, org(2, 3), w);
        assert_eq!(
            PrSystem::new(&device, vec![a, b], IcapModel::V5_DMA),
            Err(SystemError::Overlap { a: 0, b: 1 })
        );
    }

    #[test]
    fn composition_mismatch_is_rejected() {
        let device = xc5vlx110t();
        let w = device.find_window(&org(1, 3).window_request()).unwrap();
        let slot = PrrSlot::new(0, org(1, 2), w); // org says 2 cols, window has 3
        assert_eq!(
            PrSystem::new(&device, vec![slot], IcapModel::V5_DMA),
            Err(SystemError::Composition { id: 0 })
        );
    }

    #[test]
    fn bigger_prrs_reconfigure_slower() {
        let device = xc5vlx110t();
        let small = PrrSlot::new(
            0,
            org(1, 2),
            device.find_window(&org(1, 2).window_request()).unwrap(),
        );
        let big = PrrSlot::new(
            1,
            org(2, 8),
            device.find_window(&org(2, 8).window_request()).unwrap(),
        );
        let sys = PrSystem::new(&device, vec![small.clone()], IcapModel::V5_DMA).unwrap();
        assert!(sys.reconfig_ns(&big) > sys.reconfig_ns(&small));
    }
}
