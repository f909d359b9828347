//! Reconfigurable resource kinds and counted bundles of them.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Index, IndexMut, Sub};
use serde::{Deserialize, Serialize};

/// The reconfigurable resource classes distinguished by the cost models.
///
/// `Clb`, `Dsp` and `Bram` may appear inside a partially reconfigurable
/// region (PRR); `Iob` and `Clk` columns are *not* supported inside PRRs by
/// the Xilinx tools the paper targets (§III.A), so the placement search
/// treats them as blockers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Configurable logic block: a pair of slices, each with LUTs and FFs.
    Clb,
    /// Digital signal processing block (DSP48-style multiply-accumulate).
    Dsp,
    /// Block RAM (RAMB36-style dual-port memory).
    Bram,
    /// Input/output block column (never inside a PRR).
    Iob,
    /// Clock management column (never inside a PRR).
    Clk,
}

impl ResourceKind {
    /// All resource kinds, in canonical order.
    pub const ALL: [ResourceKind; 5] = [
        ResourceKind::Clb,
        ResourceKind::Dsp,
        ResourceKind::Bram,
        ResourceKind::Iob,
        ResourceKind::Clk,
    ];

    /// Resource kinds that may appear inside a PRR.
    pub const RECONFIGURABLE: [ResourceKind; 3] =
        [ResourceKind::Clb, ResourceKind::Dsp, ResourceKind::Bram];

    /// Whether a column of this kind may be included in a PRR.
    #[inline]
    pub fn allowed_in_prr(self) -> bool {
        matches!(
            self,
            ResourceKind::Clb | ResourceKind::Dsp | ResourceKind::Bram
        )
    }

    /// Index of this kind in a `[CLB, DSP, BRAM]` composition tally, as
    /// used by the window-composition index in [`crate::DeviceGeometry`].
    ///
    /// Only PRR-allowed kinds have a slot; IOB/CLK columns never appear
    /// inside a window span, so asking for their slot panics.
    #[inline]
    pub fn prr_count_slot(self) -> usize {
        match self {
            ResourceKind::Clb => 0,
            ResourceKind::Dsp => 1,
            ResourceKind::Bram => 2,
            ResourceKind::Iob | ResourceKind::Clk => {
                panic!("IOB/CLK columns are not counted in PRR compositions")
            }
        }
    }

    /// Short uppercase mnemonic used in reports and table output.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ResourceKind::Clb => "CLB",
            ResourceKind::Dsp => "DSP",
            ResourceKind::Bram => "BRAM",
            ResourceKind::Iob => "IOB",
            ResourceKind::Clk => "CLK",
        }
    }

    fn index(self) -> usize {
        match self {
            ResourceKind::Clb => 0,
            ResourceKind::Dsp => 1,
            ResourceKind::Bram => 2,
            ResourceKind::Iob => 3,
            ResourceKind::Clk => 4,
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A count of fabric resources per [`ResourceKind`].
///
/// Used both for "required" quantities (from a synthesis report) and
/// "available" quantities (from a PRR or a whole device).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Resources {
    counts: [u64; 5],
}

impl Resources {
    /// An empty (all-zero) resource bundle.
    pub const ZERO: Resources = Resources { counts: [0; 5] };

    /// Bundle with only CLB/DSP/BRAM counts (the PRR-relevant kinds).
    pub fn new(clb: u64, dsp: u64, bram: u64) -> Self {
        let mut r = Resources::ZERO;
        r[ResourceKind::Clb] = clb;
        r[ResourceKind::Dsp] = dsp;
        r[ResourceKind::Bram] = bram;
        r
    }

    /// Count for one kind.
    #[inline]
    pub fn get(&self, kind: ResourceKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Set the count for one kind, returning `self` for chaining.
    pub fn with(mut self, kind: ResourceKind, count: u64) -> Self {
        self[kind] = count;
        self
    }

    /// CLB count.
    #[inline]
    pub fn clb(&self) -> u64 {
        self.get(ResourceKind::Clb)
    }

    /// DSP count.
    #[inline]
    pub fn dsp(&self) -> u64 {
        self.get(ResourceKind::Dsp)
    }

    /// BRAM count.
    #[inline]
    pub fn bram(&self) -> u64 {
        self.get(ResourceKind::Bram)
    }

    /// True if every count is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// True if `self` covers `need` in every kind (component-wise `>=`).
    pub fn covers(&self, need: &Resources) -> bool {
        ResourceKind::ALL
            .iter()
            .all(|&k| self.get(k) >= need.get(k))
    }

    /// Component-wise maximum; used when sizing one PRR for many PRMs
    /// ("the largest W_CLB, W_DSP and W_BRAM across all associated PRMs").
    pub fn max(&self, other: &Resources) -> Resources {
        let mut out = Resources::ZERO;
        for k in ResourceKind::ALL {
            out[k] = self.get(k).max(other.get(k));
        }
        out
    }

    /// Saturating component-wise addition.
    pub fn saturating_add(&self, other: &Resources) -> Resources {
        let mut out = Resources::ZERO;
        for k in ResourceKind::ALL {
            out[k] = self.get(k).saturating_add(other.get(k));
        }
        out
    }

    /// Saturating component-wise subtraction.
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        let mut out = Resources::ZERO;
        for k in ResourceKind::ALL {
            out[k] = self.get(k).saturating_sub(other.get(k));
        }
        out
    }

    /// Iterate `(kind, count)` pairs with non-zero counts.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (ResourceKind, u64)> + '_ {
        ResourceKind::ALL
            .into_iter()
            .map(|k| (k, self.get(k)))
            .filter(|&(_, c)| c > 0)
    }

    /// Total count across all kinds (only meaningful for column tallies).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Index<ResourceKind> for Resources {
    type Output = u64;
    #[inline]
    fn index(&self, kind: ResourceKind) -> &u64 {
        &self.counts[kind.index()]
    }
}

impl IndexMut<ResourceKind> for Resources {
    #[inline]
    fn index_mut(&mut self, kind: ResourceKind) -> &mut u64 {
        &mut self.counts[kind.index()]
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        for k in ResourceKind::ALL {
            self[k] += rhs.get(k);
        }
    }
}

impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        self.saturating_sub(&rhs)
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, c) in self.iter_nonzero() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{c} {k}")?;
            first = false;
        }
        if first {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prr_allowed_kinds() {
        assert!(ResourceKind::Clb.allowed_in_prr());
        assert!(ResourceKind::Dsp.allowed_in_prr());
        assert!(ResourceKind::Bram.allowed_in_prr());
        assert!(!ResourceKind::Iob.allowed_in_prr());
        assert!(!ResourceKind::Clk.allowed_in_prr());
    }

    #[test]
    fn new_sets_only_prr_kinds() {
        let r = Resources::new(10, 2, 3);
        assert_eq!(r.clb(), 10);
        assert_eq!(r.dsp(), 2);
        assert_eq!(r.bram(), 3);
        assert_eq!(r.get(ResourceKind::Iob), 0);
        assert_eq!(r.get(ResourceKind::Clk), 0);
    }

    #[test]
    fn covers_is_componentwise() {
        let big = Resources::new(10, 2, 3);
        let small = Resources::new(10, 2, 0);
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(big.covers(&big));
    }

    #[test]
    fn max_is_componentwise() {
        let a = Resources::new(10, 0, 3);
        let b = Resources::new(4, 2, 3);
        let m = a.max(&b);
        assert_eq!(m, Resources::new(10, 2, 3));
    }

    #[test]
    fn saturating_add_stops_at_the_maximum() {
        let big = Resources::new(u64::MAX / 2 + 1, 0, 1);
        assert_eq!(big.saturating_add(&big), Resources::new(u64::MAX, 0, 2));
    }

    #[test]
    fn arithmetic_round_trip() {
        let a = Resources::new(5, 1, 2);
        let b = Resources::new(3, 1, 0);
        assert_eq!((a + b) - b, a);
        assert_eq!(
            a.saturating_sub(&Resources::new(100, 100, 100)),
            Resources::ZERO
        );
    }

    #[test]
    fn sum_of_bundles() {
        let total: Resources = (0..4).map(|i| Resources::new(i, 1, 0)).sum();
        assert_eq!(total, Resources::new(6, 4, 0));
    }

    #[test]
    fn display_skips_zeros() {
        let r = Resources::new(2, 0, 1);
        assert_eq!(r.to_string(), "2 CLB 1 BRAM");
        assert_eq!(Resources::ZERO.to_string(), "(none)");
    }
}
