//! Site-level view of a device, used by the simulated place-and-route flow.
//!
//! Columns contain vertically stacked *sites* (one CLB, DSP or BRAM each).
//! A column of kind `k` holds `per_column(k) * rows` sites; site `y` (0-based
//! from the fabric bottom) lies in fabric row `y / per_column(k) + 1`.

use crate::device::Device;
use crate::resource::ResourceKind;
use crate::window::Window;
use serde::{Deserialize, Serialize};

/// One placeable site on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Site {
    /// Column index (0-based).
    pub col: u32,
    /// Vertical site index within the column (0-based from fabric bottom).
    pub y: u32,
    /// Site kind (Clb, Dsp or Bram).
    pub kind: ResourceKind,
}

/// Site-level grid over a [`Device`].
#[derive(Debug, Clone)]
pub struct SiteGrid<'d> {
    device: &'d Device,
}

impl<'d> SiteGrid<'d> {
    /// View `device` at site granularity.
    pub fn new(device: &'d Device) -> Self {
        SiteGrid { device }
    }

    /// The underlying device.
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// All sites of reconfigurable kinds inside a placed window.
    pub fn sites_in_window(&self, window: &Window) -> Vec<Site> {
        let params = self.device.params();
        let mut sites = Vec::new();
        for (offset, &kind) in window.columns.iter().enumerate() {
            if !kind.allowed_in_prr() {
                continue;
            }
            let per = params.per_column(kind);
            let y0 = (window.row - 1) * per;
            let y1 = window.top_row() * per;
            for y in y0..y1 {
                sites.push(Site {
                    col: (window.start_col + offset) as u32,
                    y,
                    kind,
                });
            }
        }
        sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnSpec;
    use crate::family::Family;
    use ResourceKind::*;

    fn dev() -> Device {
        Device::from_spec(
            "g",
            Family::Virtex5,
            2,
            &[
                ColumnSpec::run(Clb, 2),
                ColumnSpec::one(Dsp),
                ColumnSpec::one(Bram),
            ],
        )
        .unwrap()
    }

    #[test]
    fn window_sites_cover_rows_and_kinds() {
        let d = dev();
        let g = SiteGrid::new(&d);
        let w = Window {
            start_col: 1,
            width: 2,
            row: 2,
            height: 1,
            columns: vec![Clb, Dsp],
        };
        let sites = g.sites_in_window(&w);
        let clb_sites = sites.iter().filter(|s| s.kind == Clb).count();
        let dsp_sites = sites.iter().filter(|s| s.kind == Dsp).count();
        assert_eq!(clb_sites, 20);
        assert_eq!(dsp_sites, 8);
        // All in fabric row 2.
        assert!(sites
            .iter()
            .all(|s| s.y / d.params().per_column(s.kind) + 1 == 2));
        // Columns restricted to the window.
        assert!(sites.iter().all(|s| s.col == 1 || s.col == 2));
    }
}
