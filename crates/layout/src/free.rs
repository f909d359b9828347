//! Runtime free-space tracking over the device grid.
//!
//! [`FreeSpace`] records free cells in one place: per-row column bitsets
//! (`FreeGrid`), where bit `c` of a row is set iff the cell in column
//! `c` is free. Forbidden (IOB/CLK) columns are never set. Allocate and
//! release clear or set the rectangle's bits, and a free test is one
//! masked compare per row word. Placement queries are answered against a
//! *composition index* built with the same run-extension walk as
//! [`fabric::DeviceGeometry`]: at construction we visit every span of
//! every maximal IOB/CLK-free run ([`Device::prr_free_runs`]) and record,
//! for each achievable composition `(W_CLB, W_DSP, W_BRAM)`, the full
//! ascending list of start columns realising it. A query then probes one
//! hash bucket and tests only the geometrically possible starts instead
//! of rescanning the column list.
//!
//! Placement policy is **leftmost, then bottom**: candidate start
//! columns are tried in ascending order, and within a start column base
//! rows ascend. [`NaiveFreeSpace`] reimplements the same policy by brute
//! force over an occupancy grid and is the equivalence oracle (and the
//! bench baseline) for every query and metric.
//!
//! Nothing else is kept up to date. Free cells, total and per resource
//! kind, are popcounts, and the largest free rectangle behind
//! [`FreeSpace::fragmentation_index`] is computed exactly when asked. Its
//! kernel ANDs the rows of every row interval and takes the longest run of
//! ones word-parallel: within a word by binary lifting over erosions
//! (about twenty word operations, no bit-by-bit scan), across words by
//! carrying the run that ends at bit 63 into the next word. The row
//! accumulator lives on the stack for rows of up to four words (256
//! columns, every database device), so a call allocates nothing.
//!
//! Relocation targets come from the same index:
//! [`FreeSpace::relocation_slots`] filters the candidate starts of a
//! module's composition by its exact column-kind sequence, and both
//! defragmentation planners test those slots against their grid instead
//! of scanning the device's columns.

use fabric::{ColumnKind, Device, Window, WindowRequest};
use std::collections::HashMap;

/// Packs a composition into one `u64` index key, 21 bits per count, or
/// `None` when a count does not fit: packing it would alias a smaller
/// composition, and no device is 2²¹ columns wide, so it is never
/// achievable.
fn comp_key(clb: u32, dsp: u32, bram: u32) -> Option<u64> {
    const LIMIT: u32 = 1 << 21;
    (clb < LIMIT && dsp < LIMIT && bram < LIMIT)
        .then(|| (u64::from(clb) << 42) | (u64::from(dsp) << 21) | u64::from(bram))
}

/// A rectangle in span form: columns `[start, end)`, rows `row..=top`
/// (no `columns` vector to clone).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanRect {
    pub start: usize,
    pub end: usize,
    pub row: u32,
    pub top: u32,
}

impl SpanRect {
    pub(crate) fn of(w: &Window) -> Self {
        SpanRect::at(w.start_col, w.width as usize, w.row, w.height)
    }

    /// The `width` × `height` rectangle with bottom-left cell `(start, row)`.
    pub(crate) fn at(start: usize, width: usize, row: u32, height: u32) -> Self {
        SpanRect {
            start,
            end: start + width,
            row,
            top: row + height - 1,
        }
    }

    pub(crate) fn overlaps(&self, o: &SpanRect) -> bool {
        self.start < o.end && o.start < self.end && self.row <= o.top && o.row <= self.top
    }
}

/// `(word, mask)` pairs covering columns `[start, end)`, `start < end`.
fn span_words(start: usize, end: usize) -> impl Iterator<Item = (usize, u64)> {
    (start / 64..end.div_ceil(64)).map(move |w| {
        let lo = start.max(w * 64) - w * 64;
        let hi = end.min(w * 64 + 64) - w * 64;
        (w, (u64::MAX >> (64 - (hi - lo))) << lo)
    })
}

/// Longest run of set bits in one word other than `u64::MAX`, by binary
/// lifting over erosions. Bit `i` of the erosion `E_k(x)` is set iff bits
/// `i..i + k` of `x` all are, so `E_{k+m}(x) = E_k(x) & (E_m(x) >> k)`:
/// five doublings give `E_1` .. `E_32`, and six steps then fix the run
/// length one bit at a time, most significant first.
#[inline]
fn word_run(x: u64) -> u64 {
    let mut e = [x; 6];
    for j in 1..6 {
        e[j] = e[j - 1] & (e[j - 1] >> (1 << (j - 1)));
    }
    let (mut at, mut len) = (u64::MAX, 0);
    for j in (0..6).rev() {
        let longer = at & (e[j] >> len);
        if longer != 0 {
            at = longer;
            len += 1 << j;
        }
    }
    len
}

/// Longest run of set bits in a row, carrying the run that ends at bit 63
/// of one word into the next.
#[inline]
fn row_run(words: &[u64]) -> u64 {
    let (mut best, mut carry) = (0, 0);
    for &x in words {
        if x == u64::MAX {
            carry += 64;
        } else {
            let joined = carry + u64::from(x.trailing_ones());
            best = best.max(joined).max(word_run(x));
            carry = u64::from(x.leading_ones());
        }
    }
    best.max(carry)
}

fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// The relocation slots of one module ([`FreeSpace::relocation_slots`]).
pub(crate) struct Slots {
    starts: Vec<u32>,
    width: usize,
    height: u32,
    rows: u32,
}

impl Slots {
    /// Every slot, leftmost then bottom.
    pub(crate) fn iter(&self) -> impl Iterator<Item = SpanRect> + '_ {
        self.starts.iter().flat_map(move |&start| {
            (1..=(self.rows + 1).saturating_sub(self.height))
                .map(move |row| SpanRect::at(start as usize, self.width, row, self.height))
        })
    }
}

/// Per-row column bitsets, `⌈width / 64⌉` words per row: bit `c % 64` of
/// word `c / 64` is set iff column `c` of that row is free. Bits past the
/// last column stay clear, so any device width works.
#[derive(Debug, Clone)]
pub(crate) struct FreeGrid {
    rows: u32,
    width: usize,
    words: usize,
    bits: Vec<u64>,
}

impl FreeGrid {
    /// Fabric row `r` (1-based).
    fn row(&self, r: u32) -> &[u64] {
        &self.bits[(r - 1) as usize * self.words..][..self.words]
    }

    /// Overwrite the cells with `other`'s, a grid of the same device.
    pub(crate) fn copy_from(&mut self, other: &FreeGrid) {
        self.bits.copy_from_slice(&other.bits);
    }

    /// Whether every cell of the rectangle is free; `false` for an empty
    /// rectangle or one that leaves the device.
    pub(crate) fn is_free(&self, start_col: usize, width: usize, row: u32, height: u32) -> bool {
        if width == 0 || height == 0 || row == 0 {
            return false;
        }
        let (Some(end), Some(top)) = (start_col.checked_add(width), row.checked_add(height - 1))
        else {
            return false;
        };
        end <= self.width
            && top <= self.rows
            && self.is_free_rect(SpanRect::at(start_col, width, row, height))
    }

    /// Whether every cell of `rect`, which lies on the device, is free.
    pub(crate) fn is_free_rect(&self, rect: SpanRect) -> bool {
        (rect.row..=rect.top).all(|r| {
            let bits = self.row(r);
            span_words(rect.start, rect.end).all(|(w, m)| bits[w] & m == m)
        })
    }

    /// Mark the rectangle's cells free or occupied. Every cell must be in
    /// the other state (debug-asserted: no double free, no double
    /// allocation).
    pub(crate) fn set(&mut self, rect: SpanRect, free: bool) {
        for r in rect.row..=rect.top {
            let base = (r - 1) as usize * self.words;
            for (w, m) in span_words(rect.start, rect.end) {
                let word = &mut self.bits[base + w];
                debug_assert_eq!(*word & m, if free { 0 } else { m }, "cells not flipped");
                if free {
                    *word |= m;
                } else {
                    *word &= !m;
                }
            }
        }
    }

    /// Free cells in the columns set in `mask` (one row's words), over
    /// every row.
    fn free_cells_in(&self, mask: &[u64]) -> u64 {
        self.bits
            .chunks_exact(self.words)
            .flat_map(|row| row.iter().zip(mask))
            .map(|(b, m)| u64::from((b & m).count_ones()))
            .sum()
    }

    /// Area of the largest all-free rectangle. For every row interval the
    /// rows are ANDed and the longest run of ones is taken; an interval
    /// whose popcount times height cannot beat the best so far is
    /// skipped, and a start row stops once no taller interval can. Rows of
    /// up to four words run on a stack accumulator whose length the
    /// compiler knows, so the word loops unroll; wider rows use a heap one.
    fn largest_free_rect(&self) -> u64 {
        match self.words {
            1 => self.largest_rect_in([0; 1]),
            2 => self.largest_rect_in([0; 2]),
            3 => self.largest_rect_in([0; 3]),
            4 => self.largest_rect_in([0; 4]),
            n => self.largest_rect_in(vec![0; n]),
        }
    }

    /// [`Self::largest_free_rect`] with `acc`, one row long, as the
    /// accumulator.
    #[inline]
    fn largest_rect_in(&self, mut acc: impl AsMut<[u64]>) -> u64 {
        let acc = acc.as_mut();
        let words = acc.len();
        let row = |r: u32| &self.bits[(r - 1) as usize * words..][..words];
        let mut best = 0u64;
        for lo in 1..=self.rows {
            acc.copy_from_slice(row(lo));
            for hi in lo..=self.rows {
                for (a, b) in acc.iter_mut().zip(row(hi)) {
                    *a &= b;
                }
                let ones = popcount(acc);
                if ones * u64::from(self.rows - lo + 1) <= best {
                    break;
                }
                let h = u64::from(hi - lo + 1);
                if ones * h > best {
                    best = best.max(row_run(acc) * h);
                }
            }
        }
        best
    }
}

/// Free-space map of one device.
#[derive(Debug, Clone)]
pub struct FreeSpace {
    columns: Vec<ColumnKind>,
    grid: FreeGrid,
    /// Composition → ascending start columns of spans realising it on the
    /// empty device (the fixed geometry; occupancy is tested per query).
    candidates: HashMap<u64, Vec<u32>>,
    /// Per resource kind slot `(CLB, DSP, BRAM)`: that kind's columns, as
    /// one row's words.
    kind_masks: [Vec<u64>; 3],
}

impl FreeSpace {
    /// An all-free map of `device`.
    pub fn new(device: &Device) -> Self {
        let columns = device.columns().to_vec();
        let mut candidates: HashMap<u64, Vec<u32>> = HashMap::new();
        for run in device.prr_free_runs() {
            for start in run.clone() {
                let mut counts = [0u32; 3];
                for &kind in &columns[start..run.end] {
                    counts[kind.prr_count_slot()] += 1;
                    if let Some(key) = comp_key(counts[0], counts[1], counts[2]) {
                        candidates.entry(key).or_default().push(start as u32);
                    }
                }
            }
        }
        let words = columns.len().div_ceil(64);
        let mut kind_masks = [vec![0u64; words], vec![0u64; words], vec![0u64; words]];
        let mut eligible = vec![0u64; words];
        for (c, kind) in columns.iter().enumerate() {
            if kind.allowed_in_prr() {
                kind_masks[kind.prr_count_slot()][c / 64] |= 1 << (c % 64);
                eligible[c / 64] |= 1 << (c % 64);
            }
        }
        let grid = FreeGrid {
            rows: device.rows(),
            width: columns.len(),
            words,
            bits: eligible.repeat(device.rows() as usize),
        };
        FreeSpace {
            columns,
            grid,
            candidates,
            kind_masks,
        }
    }

    /// The free cells as per-row bitsets, for search overlays that copy
    /// and mutate them.
    pub(crate) fn grid(&self) -> &FreeGrid {
        &self.grid
    }

    /// Fabric rows.
    pub fn rows(&self) -> u32 {
        self.grid.rows
    }

    /// Device width in columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Whether the composition exists anywhere on the (empty) device.
    pub fn is_achievable(&self, clb: u32, dsp: u32, bram: u32) -> bool {
        comp_key(clb, dsp, bram).is_some_and(|key| self.candidates.contains_key(&key))
    }

    /// Ascending start columns whose span realises the composition on the
    /// empty device (occupancy not considered).
    pub fn candidate_starts(&self, clb: u32, dsp: u32, bram: u32) -> &[u32] {
        comp_key(clb, dsp, bram)
            .and_then(|key| self.candidates.get(&key))
            .map_or(&[], Vec::as_slice)
    }

    /// Where a module occupying `window` can be relocated: every window of
    /// its height whose column kinds equal its own (the HTR relocation
    /// condition), leftmost then bottom, occupancy not considered. The
    /// starts are the composition index's candidate starts for the
    /// window's composition, filtered by the exact column-kind sequence,
    /// so no device column is scanned.
    pub(crate) fn relocation_slots(&self, window: &Window) -> Slots {
        let kinds = &window.columns;
        let mut counts = [0u32; 3];
        for kind in kinds {
            counts[kind.prr_count_slot()] += 1;
        }
        let starts = self
            .candidate_starts(counts[0], counts[1], counts[2])
            .iter()
            .copied()
            .filter(|&s| self.columns[s as usize..][..kinds.len()] == kinds[..])
            .collect();
        Slots {
            starts,
            width: kinds.len(),
            height: window.height,
            rows: self.rows(),
        }
    }

    /// Whether every cell of the rectangle is currently free; `false` for
    /// an empty rectangle or one that leaves the device.
    pub fn is_free(&self, start_col: usize, width: usize, row: u32, height: u32) -> bool {
        self.grid.is_free(start_col, width, row, height)
    }

    /// First free window satisfying `req` under the leftmost-then-bottom
    /// policy, or `None`. One composition-index probe plus occupancy
    /// checks on the candidate starts only.
    pub fn find_window(&self, req: &WindowRequest) -> Option<Window> {
        let width = req.width() as usize;
        if width == 0 || req.height < 1 || req.height > self.rows() {
            return None;
        }
        for &start in self.candidate_starts(req.clb_cols, req.dsp_cols, req.bram_cols) {
            let start = start as usize;
            for row in 1..=self.rows() - req.height + 1 {
                if self.is_free(start, width, row, req.height) {
                    return Some(Window {
                        start_col: start,
                        width: req.width(),
                        row,
                        height: req.height,
                        columns: self.columns[start..start + width].to_vec(),
                    });
                }
            }
        }
        None
    }

    /// Mark the window's cells occupied. The window must be fully free.
    pub fn allocate(&mut self, w: &Window) {
        assert!(
            self.is_free(w.start_col, w.width as usize, w.row, w.height),
            "allocate of a non-free window"
        );
        self.grid.set(SpanRect::of(w), false);
    }

    /// Return the window's cells to the free map.
    pub fn release(&mut self, w: &Window) {
        self.grid.set(SpanRect::of(w), true);
    }

    /// Free eligible cells in total.
    pub fn total_free_cells(&self) -> u64 {
        popcount(&self.grid.bits)
    }

    /// Free eligible cells per resource kind `(CLB, DSP, BRAM)`.
    pub fn free_cells_by_kind(&self) -> [u64; 3] {
        self.kind_masks
            .each_ref()
            .map(|mask| self.grid.free_cells_in(mask))
    }

    /// Area (in cells) of the largest all-free rectangle, computed from
    /// the row bitsets on every call.
    pub fn largest_free_rect(&self) -> u64 {
        self.grid.largest_free_rect()
    }

    /// External-fragmentation index: `1 − largest free rectangle / total
    /// free cells`; `0` on an empty free map (nothing to fragment).
    pub fn fragmentation_index(&self) -> f64 {
        let free = self.total_free_cells();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_rect() as f64 / free as f64
    }
}

/// Brute-force oracle for [`FreeSpace`]: an occupancy grid with the same
/// API and the same leftmost-then-bottom policy, used by the equivalence
/// property suite and as the bench baseline.
#[derive(Debug, Clone)]
pub struct NaiveFreeSpace {
    rows: u32,
    columns: Vec<ColumnKind>,
    /// `occupied[row - 1][col]`; forbidden columns are permanently true.
    occupied: Vec<Vec<bool>>,
}

impl NaiveFreeSpace {
    /// An all-free map of `device`.
    pub fn new(device: &Device) -> Self {
        let columns = device.columns().to_vec();
        let row: Vec<bool> = columns.iter().map(|k| !k.allowed_in_prr()).collect();
        NaiveFreeSpace {
            rows: device.rows(),
            columns,
            occupied: vec![row; device.rows() as usize],
        }
    }

    /// Whether every cell of the rectangle is free (and eligible).
    pub fn is_free(&self, start_col: usize, width: usize, row: u32, height: u32) -> bool {
        if width == 0 || height == 0 || row < 1 {
            return false;
        }
        let (Some(end), Some(top)) = (start_col.checked_add(width), row.checked_add(height - 1))
        else {
            return false;
        };
        if top > self.rows || end > self.columns.len() {
            return false;
        }
        (row..=top).all(|r| {
            self.occupied[(r - 1) as usize][start_col..end]
                .iter()
                .all(|&o| !o)
        })
    }

    /// Linear-scan first fit under the same leftmost-then-bottom policy.
    pub fn find_window(&self, req: &WindowRequest) -> Option<Window> {
        let width = req.width() as usize;
        if width == 0 || width > self.columns.len() || req.height < 1 || req.height > self.rows {
            return None;
        }
        for start in 0..=self.columns.len() - width {
            let mut counts = [0u32; 3];
            let span = &self.columns[start..start + width];
            if span.iter().any(|k| !k.allowed_in_prr()) {
                continue;
            }
            for &k in span {
                counts[k.prr_count_slot()] += 1;
            }
            if counts != [req.clb_cols, req.dsp_cols, req.bram_cols] {
                continue;
            }
            for row in 1..=self.rows - req.height + 1 {
                if self.is_free(start, width, row, req.height) {
                    return Some(Window {
                        start_col: start,
                        width: req.width(),
                        row,
                        height: req.height,
                        columns: span.to_vec(),
                    });
                }
            }
        }
        None
    }

    /// Mark the window's cells occupied.
    pub fn allocate(&mut self, w: &Window) {
        for r in w.row..w.row + w.height {
            for c in w.start_col..w.end_col() {
                assert!(
                    !self.occupied[(r - 1) as usize][c],
                    "allocate of occupied cell"
                );
                self.occupied[(r - 1) as usize][c] = true;
            }
        }
    }

    /// Mark the window's cells free again.
    pub fn release(&mut self, w: &Window) {
        for r in w.row..w.row + w.height {
            for c in w.start_col..w.end_col() {
                self.occupied[(r - 1) as usize][c] = false;
            }
        }
    }

    /// Free eligible cells in total.
    pub fn total_free_cells(&self) -> u64 {
        self.occupied.iter().flatten().filter(|&&o| !o).count() as u64
    }

    /// Free eligible cells per resource kind `(CLB, DSP, BRAM)`.
    pub fn free_cells_by_kind(&self) -> [u64; 3] {
        let mut by_kind = [0u64; 3];
        for row in &self.occupied {
            for (c, &o) in row.iter().enumerate() {
                if !o {
                    by_kind[self.columns[c].prr_count_slot()] += 1;
                }
            }
        }
        by_kind
    }

    /// Largest all-free rectangle by row-pair enumeration, O(rows² × width).
    pub fn largest_free_rect(&self) -> u64 {
        let rows = self.rows as usize;
        let width = self.columns.len();
        let mut best = 0u64;
        for top in 0..rows {
            let mut free_depth = vec![true; width];
            for bottom in top..rows {
                for (f, &occ) in free_depth.iter_mut().zip(&self.occupied[bottom]) {
                    *f &= !occ;
                }
                let h = (bottom - top + 1) as u64;
                let mut run = 0u64;
                for &f in &free_depth {
                    if f {
                        run += 1;
                        best = best.max(run * h);
                    } else {
                        run = 0;
                    }
                }
            }
        }
        best
    }

    /// External-fragmentation index, same definition as [`FreeSpace`].
    pub fn fragmentation_index(&self) -> f64 {
        let total = self.total_free_cells();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_rect() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Device, Family, ResourceKind::*};

    fn strip(width: u32) -> Device {
        Device::new("strip", Family::Virtex5, 1, vec![Clb; width as usize]).unwrap()
    }

    fn win(start: usize, width: usize, row: u32, height: u32) -> Window {
        Window {
            start_col: start,
            width: width as u32,
            row,
            height,
            columns: vec![Clb; width],
        }
    }

    /// Every metric of `fs` equals the oracle's.
    fn assert_matches(fs: &FreeSpace, naive: &NaiveFreeSpace) {
        assert_eq!(fs.total_free_cells(), naive.total_free_cells());
        assert_eq!(fs.free_cells_by_kind(), naive.free_cells_by_kind());
        assert_eq!(fs.largest_free_rect(), naive.largest_free_rect());
        assert_eq!(
            fs.fragmentation_index().to_bits(),
            naive.fragmentation_index().to_bits()
        );
    }

    #[test]
    fn fresh_map_is_all_free_and_unfragmented() {
        let d = fabric::database::xc5vlx110t();
        let fs = FreeSpace::new(&d);
        let naive = NaiveFreeSpace::new(&d);
        assert_matches(&fs, &naive);
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let d = strip(8);
        let mut fs = FreeSpace::new(&d);
        let a = win(0, 3, 1, 1);
        let b = win(3, 2, 1, 1);
        let c = win(5, 3, 1, 1);
        fs.allocate(&a);
        fs.allocate(&b);
        fs.allocate(&c);
        assert_eq!(fs.total_free_cells(), 0);
        fs.release(&a);
        fs.release(&c);
        // Two 3-wide holes split by b; releasing b frees the whole strip.
        assert!(fs.is_free(0, 3, 1, 1) && fs.is_free(5, 3, 1, 1));
        assert!(!fs.is_free(2, 2, 1, 1) && !fs.is_free(4, 2, 1, 1));
        assert_eq!(fs.largest_free_rect(), 3);
        assert!(fs.fragmentation_index() > 0.4);
        fs.release(&b);
        assert!(fs.is_free(0, 8, 1, 1));
        assert_eq!(fs.fragmentation_index(), 0.0);
    }

    #[test]
    fn out_of_range_rectangles_are_not_free() {
        let d = Device::new("sq", Family::Virtex5, 2, vec![Clb; 6]).unwrap();
        let fs = FreeSpace::new(&d);
        let naive = NaiveFreeSpace::new(&d);
        for (start, width, row, height) in [
            (0, 1, u32::MAX, 2),
            (0, 1, u32::MAX, 1),
            (0, 1, 2, u32::MAX),
            (0, 1, 3, 1),
            (0, 1, 0, 1),
            (5, 2, 1, 1),
            (6, 1, 1, 1),
            (0, 7, 1, 1),
            (60, 10, 1, 1),
            (64, 1, 1, 1),
            (usize::MAX, 2, 1, 1),
        ] {
            assert!(
                !fs.is_free(start, width, row, height),
                "{start} {width} {row} {height}"
            );
            assert!(
                !naive.is_free(start, width, row, height),
                "{start} {width} {row} {height}"
            );
        }
        assert!(fs.is_free(5, 1, 2, 1) && naive.is_free(5, 1, 2, 1));
        let tall = WindowRequest::new(1, 0, 0, u32::MAX);
        assert_eq!(fs.find_window(&tall), None);
        assert_eq!(naive.find_window(&tall), None);
    }

    #[test]
    fn oversized_compositions_are_not_achievable() {
        let d = Device::new("sq", Family::Virtex5, 2, vec![Clb; 6]).unwrap();
        let fs = FreeSpace::new(&d);
        assert!(fs.is_achievable(1, 0, 0));
        // The first two pack, 21 bits per count, to the key of (1, 0, 0);
        // the last is a count saturated by `PrrOrganization::for_height`.
        for (clb, dsp, bram) in [(0, 1 << 21, 0), ((1 << 22) + 1, 0, 0), (u32::MAX, 0, 0)] {
            assert!(!fs.is_achievable(clb, dsp, bram));
            assert!(fs.candidate_starts(clb, dsp, bram).is_empty());
            let req = WindowRequest::new(clb, dsp, bram, 1);
            assert_eq!(fs.find_window(&req), None);
        }
    }

    /// Longest run of set bits, one bit at a time.
    fn naive_run(words: &[u64]) -> u64 {
        let (mut best, mut run) = (0, 0);
        for c in 0..words.len() * 64 {
            run = if words[c / 64] >> (c % 64) & 1 == 1 {
                run + 1
            } else {
                0
            };
            best = best.max(run);
        }
        best
    }

    #[test]
    fn row_runs_match_a_bit_by_bit_scan() {
        // Sparse, dense and run-shaped words, full and empty ones, and
        // runs that cross word boundaries.
        let mut state = 7u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 29)
        };
        for _ in 0..20_000 {
            let words: Vec<u64> = (0..1 + next() % 4)
                .map(|_| match next() % 6 {
                    0 => 0,
                    1 => u64::MAX,
                    2 => next() & next(),
                    3 => next() | next(),
                    4 => (u64::MAX >> (next() % 64)) << (next() % 64),
                    _ => next(),
                })
                .collect();
            assert_eq!(row_run(&words), naive_run(&words), "{words:x?}");
            for &x in &words {
                if x != u64::MAX {
                    assert_eq!(word_run(x), naive_run(&[x]), "{x:#x}");
                }
            }
        }
    }

    #[test]
    fn rows_wider_than_four_words_match_the_oracle() {
        // 300 columns: five words per row, the heap-accumulator path.
        let mut cols = vec![Clb; 300];
        cols[100] = Dsp;
        cols[250] = Bram;
        let d = Device::new("wider", Family::Virtex5, 4, cols).unwrap();
        let mut fs = FreeSpace::new(&d);
        let mut naive = NaiveFreeSpace::new(&d);
        assert_matches(&fs, &naive);
        for (clb, dsp, bram, height) in [(70, 0, 0, 2), (90, 1, 0, 4), (30, 0, 0, 3), (3, 0, 1, 1)]
        {
            let req = WindowRequest::new(clb, dsp, bram, height);
            let w = fs.find_window(&req).unwrap();
            assert_eq!(Some(&w), naive.find_window(&req).as_ref(), "{req:?}");
            fs.allocate(&w);
            naive.allocate(&w);
            assert_matches(&fs, &naive);
        }
    }

    #[test]
    fn multi_word_rows_match_the_oracle() {
        // 130 columns: three words per row, the last one two bits wide.
        let mut cols = vec![Clb; 130];
        cols[64] = Dsp;
        cols[127] = Bram;
        let d = Device::new("wide", Family::Virtex5, 3, cols).unwrap();
        let mut fs = FreeSpace::new(&d);
        let mut naive = NaiveFreeSpace::new(&d);
        assert_matches(&fs, &naive);
        let mut live = Vec::new();
        for (clb, dsp, bram, height) in [
            (60, 0, 0, 3),
            (9, 1, 0, 3), // columns 60..70: straddles 63/64
            (50, 0, 0, 3),
            (9, 0, 1, 2), // columns 120..130: straddles 127/128
            (2, 0, 0, 1),
        ] {
            let req = WindowRequest::new(clb, dsp, bram, height);
            let w = fs.find_window(&req);
            assert_eq!(w, naive.find_window(&req), "{req:?}");
            let w = w.unwrap();
            fs.allocate(&w);
            naive.allocate(&w);
            live.push(w);
            assert_matches(&fs, &naive);
        }
        assert_eq!((live[1].start_col, live[1].end_col()), (60, 70));
        assert_eq!((live[3].start_col, live[3].end_col()), (120, 130));
        for i in [1, 3, 0] {
            fs.release(&live[i]);
            naive.release(&live[i]);
            assert_matches(&fs, &naive);
        }
        let req = WindowRequest::new(68, 1, 0, 2);
        assert_eq!(fs.find_window(&req), naive.find_window(&req));
    }

    #[test]
    fn find_window_is_leftmost_then_bottom() {
        let d = Device::new("sq", Family::Virtex5, 3, vec![Clb; 6]).unwrap();
        let mut fs = FreeSpace::new(&d);
        // Occupy the bottom-left 2×2 corner: a 2-wide 1-tall request must
        // land at column 0 row 3 (leftmost start wins over lower row).
        fs.allocate(&Window {
            start_col: 0,
            width: 2,
            row: 1,
            height: 2,
            columns: vec![Clb; 2],
        });
        let w = fs.find_window(&WindowRequest::new(2, 0, 0, 1)).unwrap();
        assert_eq!((w.start_col, w.row), (0, 3));
    }

    #[test]
    fn fragmentation_blocks_wide_requests() {
        let d = strip(8);
        let mut fs = FreeSpace::new(&d);
        fs.allocate(&win(3, 2, 1, 1));
        // 6 cells free but the widest span is 3.
        assert_eq!(fs.total_free_cells(), 6);
        assert!(fs.find_window(&WindowRequest::new(4, 0, 0, 1)).is_none());
        assert!(fs.find_window(&WindowRequest::new(3, 0, 0, 1)).is_some());
    }
}
