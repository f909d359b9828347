//! Column windows: candidate physical footprints for a PRR.

use crate::column::ColumnKind;
use crate::family::FamilyParams;
use crate::resource::{ResourceKind, Resources};
use serde::{Deserialize, Serialize};

/// A request for a PRR footprint: how many columns of each reconfigurable
/// kind must appear in a contiguous span, over how many fabric rows.
///
/// This is the physical-feasibility query of the paper's Fig. 1 flow: given
/// `W_CLB`, `W_DSP`, `W_BRAM` and `H`, is there a place on the device where
/// those columns are contiguous (in any order, with no IOB/CLK columns)?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WindowRequest {
    /// `W_CLB`: CLB columns required.
    pub clb_cols: u32,
    /// `W_DSP`: DSP columns required.
    pub dsp_cols: u32,
    /// `W_BRAM`: BRAM columns required.
    pub bram_cols: u32,
    /// `H`: fabric rows required.
    pub height: u32,
}

impl WindowRequest {
    /// New request.
    pub fn new(clb_cols: u32, dsp_cols: u32, bram_cols: u32, height: u32) -> Self {
        WindowRequest {
            clb_cols,
            dsp_cols,
            bram_cols,
            height,
        }
    }

    /// Total window width `W = W_CLB + W_DSP + W_BRAM` (paper Eq. 6),
    /// saturating at `u32::MAX`: no device is that wide, so an oversized
    /// request still finds no window instead of overflowing.
    pub fn width(&self) -> u32 {
        self.clb_cols
            .saturating_add(self.dsp_cols)
            .saturating_add(self.bram_cols)
    }

    /// `PRR_size = H x W` (paper Eq. 7).
    pub fn prr_size(&self) -> u64 {
        u64::from(self.height) * u64::from(self.width())
    }

    /// Column counts as a [`Resources`] bundle (columns, not resources).
    pub fn column_counts(&self) -> Resources {
        Resources::new(
            u64::from(self.clb_cols),
            u64::from(self.dsp_cols),
            u64::from(self.bram_cols),
        )
    }

    /// Resources available in a window satisfying this request, per paper
    /// Eqs. (8), (11), (12): `avail = H * W_kind * kind_col`.
    pub fn available(&self, params: &FamilyParams) -> Resources {
        let h = u64::from(self.height);
        Resources::new(
            h * u64::from(self.clb_cols) * u64::from(params.clb_col),
            h * u64::from(self.dsp_cols) * u64::from(params.dsp_col),
            h * u64::from(self.bram_cols) * u64::from(params.bram_col),
        )
    }
}

/// A concrete placed window on a device: the result of a successful search.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    /// Leftmost column index (0-based) of the window.
    pub start_col: usize,
    /// Width in columns.
    pub width: u32,
    /// Bottom row of the window (1-based, paper convention).
    pub row: u32,
    /// Height in fabric rows.
    pub height: u32,
    /// The column kinds inside the window, left to right.
    pub columns: Vec<ColumnKind>,
}

impl Window {
    /// Column-kind tally of the window.
    pub fn column_counts(&self) -> Resources {
        let mut counts = Resources::ZERO;
        for &c in &self.columns {
            counts[c] += 1;
        }
        counts
    }

    /// Resources available inside the window for `params`.
    pub fn available(&self, params: &FamilyParams) -> Resources {
        let counts = self.column_counts();
        let h = u64::from(self.height);
        let mut avail = Resources::ZERO;
        for k in ResourceKind::RECONFIGURABLE {
            avail[k] = h * counts.get(k) * u64::from(params.per_column(k));
        }
        avail
    }

    /// Exclusive end column index.
    pub fn end_col(&self) -> usize {
        self.start_col + self.width as usize
    }

    /// Top row (inclusive, 1-based): `row + H - 1`.
    pub fn top_row(&self) -> u32 {
        self.row + self.height - 1
    }

    /// Whether this window overlaps `other` (both columns and rows overlap).
    pub fn overlaps(&self, other: &Window) -> bool {
        let cols = self.start_col < other.end_col() && other.start_col < self.end_col();
        let rows = self.row <= other.top_row() && other.row <= self.top_row();
        cols && rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::Family;
    use ResourceKind::*;

    #[test]
    fn width_and_size() {
        let req = WindowRequest::new(17, 1, 2, 1);
        assert_eq!(req.width(), 20);
        assert_eq!(req.prr_size(), 20);
        let req = WindowRequest::new(2, 1, 0, 5);
        assert_eq!(req.width(), 3);
        assert_eq!(req.prr_size(), 15);
    }

    #[test]
    fn available_matches_paper_fir_v5() {
        // FIR on Virtex-5: H=5, W_CLB=2, W_DSP=1 => 200 CLBs, 40 DSPs.
        let req = WindowRequest::new(2, 1, 0, 5);
        let avail = req.available(Family::Virtex5.params());
        assert_eq!(avail.clb(), 200);
        assert_eq!(avail.dsp(), 40);
        assert_eq!(avail.bram(), 0);
    }

    #[test]
    fn window_available_matches_request_available() {
        let req = WindowRequest::new(2, 1, 1, 3);
        let w = Window {
            start_col: 4,
            width: 4,
            row: 1,
            height: 3,
            columns: vec![Clb, Dsp, Clb, Bram],
        };
        assert_eq!(
            w.available(Family::Virtex6.params()),
            req.available(Family::Virtex6.params())
        );
    }

    #[test]
    fn overlap_geometry() {
        let a = Window {
            start_col: 0,
            width: 3,
            row: 1,
            height: 2,
            columns: vec![Clb; 3],
        };
        let b = Window {
            start_col: 2,
            width: 2,
            row: 2,
            height: 1,
            columns: vec![Clb; 2],
        };
        let c = Window {
            start_col: 3,
            width: 2,
            row: 1,
            height: 2,
            columns: vec![Clb; 2],
        };
        let d = Window {
            start_col: 0,
            width: 3,
            row: 3,
            height: 1,
            columns: vec![Clb; 3],
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c)); // columns disjoint
        assert!(!a.overlaps(&d)); // rows disjoint
    }

    #[test]
    fn top_row_convention() {
        let w = Window {
            start_col: 0,
            width: 1,
            row: 2,
            height: 3,
            columns: vec![Clb],
        };
        assert_eq!(w.top_row(), 4);
    }
}
