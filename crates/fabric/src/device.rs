//! Devices: a named fabric of `rows` × an ordered column layout.

use crate::column::{expand, ColumnKind, ColumnSpec};
use crate::error::FabricError;
use crate::family::{Family, FamilyParams};
use crate::resource::{ResourceKind, Resources};
use crate::window::{Window, WindowRequest};
use serde::{Deserialize, Serialize};

/// The splitmix64 finalizer: a fast, well-mixed 64→64-bit hash used
/// throughout the workspace for packed-key hashing and shard selection
/// (the same mixer the composition index's probe hasher uses).
pub fn splitmix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Most fabric rows a device may have: the frame address's row field is
/// 8 bits wide and rows are 1-based.
pub const MAX_ROWS: u32 = 255;

/// Most columns a device may have: the frame address's column field is
/// 12 bits wide and columns are 0-based.
pub const MAX_COLUMNS: usize = 4096;

/// One FPGA part: a family, a number of fabric rows, and an ordered list of
/// full-height resource columns (the Virtex-5+ two-dimensional PR layout).
///
/// Rows are 1-based (the paper searches "from the bottom of the device
/// fabric (row = 1)" and requires `r + H - 1 <= R`).
///
/// Every `Device` passed [`Device::new`]'s checks: deserializing one runs
/// them too.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Device {
    name: String,
    family: Family,
    rows: u32,
    columns: Vec<ColumnKind>,
}

/// A [`Device`]'s serialized fields, before validation.
#[derive(Deserialize)]
struct DeviceFields {
    name: String,
    family: Family,
    rows: u32,
    columns: Vec<ColumnKind>,
}

impl Deserialize for Device {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let f = DeviceFields::from_value(v)?;
        Device::new(f.name, f.family, f.rows, f.columns)
            .map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl Device {
    /// Build a device from an explicit column list.
    ///
    /// Rejects an empty fabric, and one larger than a frame address can
    /// reach ([`MAX_ROWS`] rows, [`MAX_COLUMNS`] columns).
    pub fn new(
        name: impl Into<String>,
        family: Family,
        rows: u32,
        columns: Vec<ColumnKind>,
    ) -> Result<Self, FabricError> {
        if rows == 0 || columns.is_empty() {
            return Err(FabricError::EmptyFabric);
        }
        if rows > MAX_ROWS || columns.len() > MAX_COLUMNS {
            return Err(FabricError::Unaddressable {
                rows,
                columns: columns.len(),
            });
        }
        Ok(Device {
            name: name.into(),
            family,
            rows,
            columns,
        })
    }

    /// Build a device from run-length column segments.
    pub fn from_spec(
        name: impl Into<String>,
        family: Family,
        rows: u32,
        spec: &[ColumnSpec],
    ) -> Result<Self, FabricError> {
        Device::new(name, family, rows, expand(spec))
    }

    /// Part name, e.g. `"xc5vlx110t"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Device family.
    pub fn family(&self) -> Family {
        self.family
    }

    /// Family constants (Table II + Table IV).
    pub fn params(&self) -> &'static FamilyParams {
        self.family.params()
    }

    /// Number of fabric rows `R`.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns across the device.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The ordered column layout.
    pub fn columns(&self) -> &[ColumnKind] {
        &self.columns
    }

    /// Kind of column `index` (0-based, left to right).
    pub fn column(&self, index: usize) -> Result<ColumnKind, FabricError> {
        self.columns
            .get(index)
            .copied()
            .ok_or(FabricError::ColumnOutOfRange {
                index,
                width: self.columns.len(),
            })
    }

    /// Number of columns of each kind across the whole device.
    pub fn column_counts(&self) -> Resources {
        let mut counts = Resources::ZERO;
        for &c in &self.columns {
            counts[c] += 1;
        }
        counts
    }

    /// Number of DSP columns. The paper's Eq. (4) special case applies when
    /// this is 1 (e.g. the Virtex-5 LX110T).
    pub fn dsp_column_count(&self) -> usize {
        self.columns
            .iter()
            .filter(|&&c| c == ResourceKind::Dsp)
            .count()
    }

    /// Total device resources: per-kind column count × rows × resources per
    /// column per row.
    pub fn total_resources(&self) -> Resources {
        let p = self.params();
        let cols = self.column_counts();
        let mut total = Resources::ZERO;
        for k in ResourceKind::RECONFIGURABLE {
            total[k] = cols.get(k) * u64::from(self.rows) * u64::from(p.per_column(k));
        }
        total
    }

    /// Total LUTs in the device.
    pub fn total_luts(&self) -> u64 {
        self.total_resources().clb() * u64::from(self.params().lut_clb)
    }

    /// Total flip-flops in the device.
    pub fn total_ffs(&self) -> u64 {
        self.total_resources().clb() * u64::from(self.params().ff_clb)
    }

    /// Column-kind tally of the span `[start, start + width)`.
    pub fn span_column_counts(&self, start: usize, width: usize) -> Result<Resources, FabricError> {
        let end = start + width;
        if end > self.columns.len() || width == 0 {
            return Err(FabricError::ColumnOutOfRange {
                index: end.saturating_sub(1),
                width: self.columns.len(),
            });
        }
        let mut counts = Resources::ZERO;
        for &c in &self.columns[start..end] {
            counts[c] += 1;
        }
        Ok(counts)
    }

    /// Validate that the 1-based row span `[row, row + height)` fits.
    ///
    /// `row + height - 1` is computed with checked arithmetic: adversarial
    /// inputs near `u32::MAX` report [`FabricError::RowOutOfRange`] instead
    /// of overflowing (a span that wide cannot fit any device anyway).
    pub fn check_row_span(&self, row: u32, height: u32) -> Result<(), FabricError> {
        let fits = row >= 1
            && height >= 1
            && row
                .checked_add(height - 1)
                .is_some_and(|last| last <= self.rows);
        if !fits {
            return Err(FabricError::RowOutOfRange {
                row,
                height,
                rows: self.rows,
            });
        }
        Ok(())
    }

    /// Order-sensitive 64-bit hash of the device's identity — name, row
    /// count, and the full column layout — computed by streaming the
    /// fields through a splitmix64 chain without allocating.
    ///
    /// Two devices compare equal iff they agree on exactly these fields,
    /// so equal devices always hash equal; the converse holds up to
    /// 64-bit collisions, which is why callers that intern devices by
    /// this hash (the planning engine) verify full equality behind it.
    pub fn layout_hash(&self) -> u64 {
        let mut h = splitmix64(0x6465_7669_6365_6864 ^ self.rows as u64);
        // Name bytes, 8 at a time (length folded in so "ab"+"c" differs
        // from "a"+"bc" even though chunks would align).
        h = splitmix64(h ^ self.name.len() as u64);
        for chunk in self.name.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = splitmix64(h ^ u64::from_le_bytes(word));
        }
        h = splitmix64(h ^ self.columns.len() as u64);
        for chunk in self.columns.chunks(8) {
            let mut word = [0u8; 8];
            for (i, &kind) in chunk.iter().enumerate() {
                word[i] = kind as u8;
            }
            h = splitmix64(h ^ u64::from_le_bytes(word));
        }
        h
    }

    /// Maximal runs of contiguous PRR-eligible columns (no IOB/CLK),
    /// yielded left to right as `start..end` column ranges.
    ///
    /// Every feasible window's column span lies inside exactly one of
    /// these runs — IOB/CLK columns are not supported inside PRRs
    /// (§III.A) — so the runs are the backbone of both the composition
    /// index ([`crate::DeviceGeometry`]) and runtime free-space tracking
    /// (the `layout` crate seeds its per-row free lists from them; the
    /// forbidden columns between runs are never free, which is what makes
    /// adjacency-merging on release safe).
    pub fn prr_free_runs(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let columns = &self.columns;
        let mut pos = 0usize;
        std::iter::from_fn(move || {
            while pos < columns.len() && !columns[pos].allowed_in_prr() {
                pos += 1;
            }
            if pos >= columns.len() {
                return None;
            }
            let start = pos;
            while pos < columns.len() && columns[pos].allowed_in_prr() {
                pos += 1;
            }
            Some(start..pos)
        })
    }

    /// All leftmost-first windows matching `req` (see [`WindowRequest`]).
    ///
    /// A window is a run of contiguous columns containing exactly the
    /// requested number of CLB/DSP/BRAM columns (in any order) and no
    /// IOB/CLK columns, over `req.height` contiguous rows starting at the
    /// bottom-most available row. Matches are yielded left to right by
    /// starting column.
    pub fn windows<'d>(&'d self, req: &'d WindowRequest) -> impl Iterator<Item = Window> + 'd {
        WindowIter::new(self, req)
    }

    /// Leftmost window matching `req` (the paper's Fig. 1 placement: first
    /// fit scanning from the bottom-left of the fabric), or `None`.
    pub fn find_window(&self, req: &WindowRequest) -> Option<Window> {
        self.windows(req).next()
    }

    /// Whether any window matching `req` exists.
    pub fn has_window(&self, req: &WindowRequest) -> bool {
        self.find_window(req).is_some()
    }
}

/// Sliding-window iterator over column spans matching a [`WindowRequest`].
struct WindowIter<'d> {
    device: &'d Device,
    req: &'d WindowRequest,
    start: usize,
    feasible_rows: bool,
}

impl<'d> WindowIter<'d> {
    fn new(device: &'d Device, req: &'d WindowRequest) -> Self {
        let feasible_rows = req.height >= 1 && req.height <= device.rows && req.width() >= 1;
        WindowIter {
            device,
            req,
            start: 0,
            feasible_rows,
        }
    }
}

impl Iterator for WindowIter<'_> {
    type Item = Window;

    fn next(&mut self) -> Option<Window> {
        if !self.feasible_rows {
            return None;
        }
        let width = self.req.width() as usize;
        let cols = self.device.columns();
        while self.start + width <= cols.len() {
            let start = self.start;
            self.start += 1;
            let span = &cols[start..start + width];
            if span_matches(span, self.req) {
                return Some(Window {
                    start_col: start,
                    width: width as u32,
                    row: 1,
                    height: self.req.height,
                    columns: span.to_vec(),
                });
            }
        }
        None
    }
}

fn span_matches(span: &[ColumnKind], req: &WindowRequest) -> bool {
    let mut clb = 0u32;
    let mut dsp = 0u32;
    let mut bram = 0u32;
    for &c in span {
        match c {
            ResourceKind::Clb => clb += 1,
            ResourceKind::Dsp => dsp += 1,
            ResourceKind::Bram => bram += 1,
            // IOB/CLK columns are not supported inside PRRs (§III.A).
            ResourceKind::Iob | ResourceKind::Clk => return false,
        }
    }
    clb == req.clb_cols && dsp == req.dsp_cols && bram == req.bram_cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnSpec;
    use ResourceKind::*;

    fn tiny() -> Device {
        // IOB C C B C D C C CLK C
        Device::from_spec(
            "tiny",
            Family::Virtex5,
            4,
            &[
                ColumnSpec::one(Iob),
                ColumnSpec::run(Clb, 2),
                ColumnSpec::one(Bram),
                ColumnSpec::one(Clb),
                ColumnSpec::one(Dsp),
                ColumnSpec::run(Clb, 2),
                ColumnSpec::one(Clk),
                ColumnSpec::one(Clb),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_rejects_empty() {
        assert_eq!(
            Device::new("x", Family::Virtex5, 0, vec![Clb]),
            Err(FabricError::EmptyFabric)
        );
        assert_eq!(
            Device::new("x", Family::Virtex5, 1, vec![]),
            Err(FabricError::EmptyFabric)
        );
    }

    #[test]
    fn construction_rejects_fabrics_beyond_the_frame_address() {
        assert!(Device::new("x", Family::Virtex5, MAX_ROWS, vec![Clb; MAX_COLUMNS]).is_ok());
        for (rows, columns) in [(MAX_ROWS + 1, 1), (u32::MAX, 1), (1, MAX_COLUMNS + 1)] {
            assert_eq!(
                Device::new("x", Family::Virtex5, rows, vec![Clb; columns]),
                Err(FabricError::Unaddressable { rows, columns })
            );
        }
        for d in crate::database::all_devices() {
            assert!(d.rows() <= MAX_ROWS && d.width() <= MAX_COLUMNS);
        }
    }

    #[test]
    fn column_counts_and_totals() {
        let d = tiny();
        let counts = d.column_counts();
        assert_eq!(counts.get(Clb), 6);
        assert_eq!(counts.get(Dsp), 1);
        assert_eq!(counts.get(Bram), 1);
        assert_eq!(counts.get(Iob), 1);
        assert_eq!(counts.get(Clk), 1);
        // 6 CLB cols * 4 rows * 20 CLB/col = 480; 1 DSP col * 4 * 8 = 32.
        let total = d.total_resources();
        assert_eq!(total.clb(), 480);
        assert_eq!(total.dsp(), 32);
        assert_eq!(total.bram(), 16);
        assert_eq!(d.total_luts(), 480 * 8);
        assert_eq!(d.total_ffs(), 480 * 8);
    }

    #[test]
    fn find_window_leftmost_first() {
        let d = tiny();
        // 1 CLB + 1 DSP: the only match is columns [5..7) = (Dsp at 5? no).
        // Layout indices: 0 Iob, 1 Clb, 2 Clb, 3 Bram, 4 Clb, 5 Dsp, 6 Clb,
        // 7 Clb, 8 Clk, 9 Clb.
        let req = WindowRequest::new(1, 1, 0, 2);
        let w = d.find_window(&req).expect("window exists");
        assert_eq!(w.start_col, 4);
        assert_eq!(w.columns, vec![Clb, Dsp]);
        assert_eq!(w.row, 1);
        assert_eq!(w.height, 2);
    }

    #[test]
    fn window_rejects_iob_clk() {
        let d = tiny();
        // 3 CLB contiguous exists only at [4..7)? that span is C D C -> no.
        // Actually no 3 contiguous CLB-only span exists (max run is 2).
        let req = WindowRequest::new(3, 0, 0, 1);
        assert!(d.find_window(&req).is_none());
    }

    #[test]
    fn window_any_order_inside_span() {
        let d = tiny();
        // 2 CLB + 1 BRAM: [1..4) = C C B matches.
        let req = WindowRequest::new(2, 0, 1, 1);
        let w = d.find_window(&req).unwrap();
        assert_eq!(w.start_col, 1);
    }

    #[test]
    fn window_height_must_fit_rows() {
        let d = tiny();
        let req = WindowRequest::new(1, 0, 0, 5); // device has 4 rows
        assert!(d.find_window(&req).is_none());
        let req = WindowRequest::new(1, 0, 0, 4);
        assert!(d.find_window(&req).is_some());
    }

    #[test]
    fn windows_iterates_all_matches() {
        let d = tiny();
        let req = WindowRequest::new(2, 0, 0, 1);
        let starts: Vec<usize> = d.windows(&req).map(|w| w.start_col).collect();
        assert_eq!(starts, vec![1, 6]);
    }

    #[test]
    fn span_counts_error_handling() {
        let d = tiny();
        assert!(d.span_column_counts(0, 10).is_ok());
        assert!(d.span_column_counts(5, 6).is_err());
        assert!(d.span_column_counts(0, 0).is_err());
    }

    #[test]
    fn row_span_check() {
        let d = tiny();
        assert!(d.check_row_span(1, 4).is_ok());
        assert!(d.check_row_span(2, 3).is_ok());
        assert!(d.check_row_span(2, 4).is_err());
        assert!(d.check_row_span(0, 1).is_err());
        assert!(d.check_row_span(1, 0).is_err());
    }

    #[test]
    fn row_span_check_rejects_overflowing_spans() {
        let d = tiny();
        // row + height - 1 would wrap in u32; must error, not panic/wrap.
        assert_eq!(
            d.check_row_span(u32::MAX, 2),
            Err(FabricError::RowOutOfRange {
                row: u32::MAX,
                height: 2,
                rows: 4,
            })
        );
        assert!(d.check_row_span(2, u32::MAX).is_err());
        assert!(d.check_row_span(u32::MAX, u32::MAX).is_err());
    }

    #[test]
    fn prr_free_runs_are_maximal_and_cover_all_allowed_columns() {
        let d = tiny();
        // Layout: 0 Iob, 1-2 Clb, 3 Bram, 4 Clb, 5 Dsp, 6-7 Clb, 8 Clk, 9 Clb.
        let runs: Vec<_> = d.prr_free_runs().collect();
        assert_eq!(runs, vec![1..8, 9..10]);
        for d in crate::database::all_devices() {
            let runs: Vec<_> = d.prr_free_runs().collect();
            // Disjoint, ordered, separated by at least one forbidden
            // column (maximality), non-empty, and bounded by forbidden
            // columns or the device edge on both sides.
            for w in runs.windows(2) {
                assert!(w[0].end < w[1].start, "{}: runs must not touch", d.name());
            }
            let mut covered = vec![false; d.width()];
            for r in &runs {
                assert!(!r.is_empty());
                assert!(r.start == 0 || !d.columns()[r.start - 1].allowed_in_prr());
                assert!(r.end == d.width() || !d.columns()[r.end].allowed_in_prr());
                for c in r.clone() {
                    assert!(d.columns()[c].allowed_in_prr());
                    covered[c] = true;
                }
            }
            for (c, &kind) in d.columns().iter().enumerate() {
                assert_eq!(covered[c], kind.allowed_in_prr(), "{} col {c}", d.name());
            }
        }
    }

    #[test]
    fn zero_width_request_matches_nothing() {
        let d = tiny();
        let req = WindowRequest::new(0, 0, 0, 1);
        assert!(d.find_window(&req).is_none());
    }
}
