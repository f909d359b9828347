//! The online layout manager: allocation bookkeeping over [`FreeSpace`]
//! with fragmentation-aware failure classification and `layout:*`
//! observability wired into [`prcost::Metrics`].

use crate::free::FreeSpace;
use bitstream::IcapModel;
use fabric::{Device, Window, WindowRequest};
use multitask::ModuleId;
use prcost::{bitstream_size_bytes, PrrOrganization};
use std::collections::BTreeMap;

/// The crate's `layout:*` labeled counters in the global registry. Each
/// resolves its slot on first use; a bump is then one atomic add.
pub(crate) mod counters {
    use prcost::GlobalCounter;

    pub(crate) static ALLOCS: GlobalCounter = GlobalCounter::new("layout:allocs");
    pub(crate) static FAIL_CAPACITY: GlobalCounter =
        GlobalCounter::new("layout:alloc_fail_capacity");
    pub(crate) static FAIL_FRAGMENTATION: GlobalCounter =
        GlobalCounter::new("layout:alloc_fail_fragmentation");
    pub(crate) static RELEASES: GlobalCounter = GlobalCounter::new("layout:releases");
    pub(crate) static DEFRAG_PLANS: GlobalCounter = GlobalCounter::new("layout:defrag_plans");
    pub(crate) static DEFRAG_EXECUTED: GlobalCounter = GlobalCounter::new("layout:defrag_executed");
    pub(crate) static DEFRAG2_PLANS: GlobalCounter = GlobalCounter::new("layout:defrag2_plans");
    pub(crate) static DEFRAG2_EXECUTED: GlobalCounter =
        GlobalCounter::new("layout:defrag2_executed");
    pub(crate) static DEFRAG_REJECTED_COST: GlobalCounter =
        GlobalCounter::new("layout:defrag_rejected_cost");
    pub(crate) static RELOCATIONS: GlobalCounter = GlobalCounter::new("layout:relocations");
    pub(crate) static RELOCATED_BYTES: GlobalCounter = GlobalCounter::new("layout:relocated_bytes");
    pub(crate) static CONTEXT_BYTES: GlobalCounter = GlobalCounter::new("layout:context_bytes");
}

/// One live PRR placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Manager-assigned id, unique over the manager's lifetime.
    pub id: u64,
    /// Module configured in the region (shares partial bitstreams with
    /// every allocation of the same id).
    pub module: ModuleId,
    /// The Eq. 2–6 organization the region was sized for.
    pub organization: PrrOrganization,
    /// The placed window.
    pub window: Window,
    /// Eq. 18 predicted partial-bitstream bytes for the organization —
    /// what one ICAP write (placement or relocation) costs.
    pub bitstream_bytes: u64,
}

/// ICAP price of relocating one live allocation once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveCost {
    /// Total bytes through the port: the Eq. 18 partial-bitstream write,
    /// plus `context_bytes` when priced preemption-aware.
    pub bytes: u64,
    /// Context save + restore bytes (zero when the module is treated as
    /// idle — a plain write-only HTR relocation).
    pub context_bytes: u64,
    /// `IcapModel::transfer_time(bytes)` in nanoseconds.
    pub transfer_ns: u64,
}

/// Why an allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The device cannot host the organization even when empty, or the
    /// free cells remaining are insufficient.
    Capacity,
    /// Total free resources suffice but no contiguous window fits —
    /// external fragmentation; defragmentation may recover it.
    Fragmentation,
}

/// Online layout manager for one device.
#[derive(Debug)]
pub struct LayoutManager {
    device: Device,
    free: FreeSpace,
    allocations: BTreeMap<u64, Allocation>,
    next_id: u64,
    icap: IcapModel,
}

impl LayoutManager {
    /// A manager over an empty `device`; `icap` prices relocations.
    pub fn new(device: &Device, icap: IcapModel) -> Self {
        LayoutManager {
            device: device.clone(),
            free: FreeSpace::new(device),
            allocations: BTreeMap::new(),
            next_id: 0,
            icap,
        }
    }

    /// The managed device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The ICAP port model used to price relocations.
    pub fn icap(&self) -> &IcapModel {
        &self.icap
    }

    /// The live free-space map.
    pub fn free_space(&self) -> &FreeSpace {
        &self.free
    }

    /// Live allocations in id order.
    pub fn allocations(&self) -> impl Iterator<Item = &Allocation> {
        self.allocations.values()
    }

    pub(crate) fn allocation_map(&self) -> &BTreeMap<u64, Allocation> {
        &self.allocations
    }

    /// One live allocation by id.
    pub fn allocation(&self, id: u64) -> Option<&Allocation> {
        self.allocations.get(&id)
    }

    /// Current external-fragmentation index of the free space.
    pub fn fragmentation_index(&self) -> f64 {
        self.free.fragmentation_index()
    }

    /// Price one relocation of `alloc`. A `running` module pays the
    /// context save + restore bytes (the paper's companion readback /
    /// `GRESTORE` machinery, [`prcost::context_breakdown`]) on top of the
    /// Eq. 18 partial-bitstream write; an idle module pays the write
    /// only. The cost depends only on the allocation's organization —
    /// every compatible target is the same FAR-rewritten replay — which
    /// is what makes per-module move costs exact lower bounds for the
    /// multi-move search.
    pub fn move_cost(&self, alloc: &Allocation, running: bool) -> MoveCost {
        let context_bytes = if running {
            prcost::context_breakdown(&alloc.organization).total_bytes()
        } else {
            0
        };
        let bytes = alloc.bitstream_bytes + context_bytes;
        MoveCost {
            bytes,
            context_bytes,
            transfer_ns: self.icap.transfer_time(bytes).as_nanos() as u64,
        }
    }

    /// Place `module` with organization `org` (leftmost-then-bottom first
    /// fit), or classify the failure. Wires `layout:allocs` /
    /// `layout:alloc_fail_capacity` / `layout:alloc_fail_fragmentation`
    /// counters into the global metrics.
    pub fn allocate(&mut self, module: ModuleId, org: &PrrOrganization) -> Result<u64, AllocError> {
        let req = WindowRequest::new(org.clb_cols, org.dsp_cols, org.bram_cols, org.height);
        match self.free.find_window(&req) {
            Some(window) => {
                counters::ALLOCS.incr();
                Ok(self.place(module, org, window))
            }
            None => {
                let err = self.classify_failure(org);
                match err {
                    AllocError::Capacity => counters::FAIL_CAPACITY.incr(),
                    AllocError::Fragmentation => counters::FAIL_FRAGMENTATION.incr(),
                }
                Err(err)
            }
        }
    }

    /// Record a placement into `window` (assumed free and matching `org`).
    pub(crate) fn place(&mut self, module: ModuleId, org: &PrrOrganization, window: Window) -> u64 {
        self.free.allocate(&window);
        let id = self.next_id;
        self.next_id += 1;
        self.allocations.insert(
            id,
            Allocation {
                id,
                module,
                organization: *org,
                window,
                bitstream_bytes: bitstream_size_bytes(org),
            },
        );
        id
    }

    /// Move one live allocation to `target` (free-space bookkeeping only;
    /// the ICAP charge is the caller's to account).
    pub(crate) fn move_allocation(&mut self, id: u64, target: Window) {
        let alloc = self.allocations.get_mut(&id).expect("live allocation");
        self.free.release(&alloc.window);
        self.free.allocate(&target);
        alloc.window = target;
    }

    /// Free the allocation and return it.
    pub fn release(&mut self, id: u64) -> Option<Allocation> {
        let alloc = self.allocations.remove(&id)?;
        self.free.release(&alloc.window);
        counters::RELEASES.incr();
        Some(alloc)
    }

    /// Fragmentation iff the empty device could host the organization and
    /// every resource kind still has enough free cells — the window is
    /// blocked purely by the free space's *shape*.
    fn classify_failure(&self, org: &PrrOrganization) -> AllocError {
        if org.height > self.free.rows()
            || !self
                .free
                .is_achievable(org.clb_cols, org.dsp_cols, org.bram_cols)
        {
            return AllocError::Capacity;
        }
        let h = u64::from(org.height);
        let need = [
            u64::from(org.clb_cols) * h,
            u64::from(org.dsp_cols) * h,
            u64::from(org.bram_cols) * h,
        ];
        let have = self.free.free_cells_by_kind();
        if need.iter().zip(&have).all(|(n, a)| n <= a) {
            AllocError::Fragmentation
        } else {
            AllocError::Capacity
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Family, ResourceKind::*};

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
    fn failure_classification_separates_capacity_from_fragmentation() {
        let d = strip(8);
        let mut m = LayoutManager::new(&d, IcapModel::V5_DMA);
        let a = m.allocate(ModuleId(0), &clb_org(3)).unwrap();
        m.allocate(ModuleId(1), &clb_org(2)).unwrap();
        let c = m.allocate(ModuleId(2), &clb_org(3)).unwrap();
        // Full device: 4 columns is a capacity failure (only 0 free).
        assert_eq!(
            m.allocate(ModuleId(3), &clb_org(4)),
            Err(AllocError::Capacity)
        );
        m.release(a);
        m.release(c);
        // 6 cells free in runs of 3+3: enough cells, no window — that is
        // fragmentation, and a 9-column ask is still capacity.
        assert_eq!(
            m.allocate(ModuleId(3), &clb_org(4)),
            Err(AllocError::Fragmentation)
        );
        assert_eq!(
            m.allocate(ModuleId(5), &clb_org(9)),
            Err(AllocError::Capacity)
        );
        assert!(m.fragmentation_index() > 0.0);
    }

    #[test]
    fn allocations_track_bitstream_bytes() {
        let d = strip(8);
        let mut m = LayoutManager::new(&d, IcapModel::V5_DMA);
        let org = clb_org(2);
        let id = m.allocate(ModuleId(4), &org).unwrap();
        assert_eq!(
            m.allocation(id).unwrap().bitstream_bytes,
            bitstream_size_bytes(&org)
        );
        assert_eq!(m.release(id).unwrap().module, ModuleId(4));
        assert!(m.release(id).is_none());
    }
}
