//! Composition-indexed device geometry: every window-feasibility probe is
//! a lock-free lookup against an index built once per device.
//!
//! The Fig. 1 search probes the same device with many
//! [`WindowRequest`]s: one per candidate height and, when a height has
//! no exact-composition window, one per `(extra DSP, extra BRAM)` row of
//! the padded fallback. [`Device::find_window`] answers each probe by
//! rescanning the column list and tallying every candidate span
//! (O(columns × width) per probe). The seed's geometry memoized those
//! scans behind a `Mutex`, so cold probes still rescanned and every
//! probe serialized through the lock.
//!
//! [`DeviceGeometry`] instead *enumerates the entire answer space up
//! front*. A window is a span of contiguous columns containing no IOB/CLK
//! column, so every feasible window lives inside one of the maximal
//! IOB/CLK-free **runs** of the column list. At construction we walk each
//! run once per start column, extending the span one column at a time with
//! O(1) count updates. The index is keyed by the span's `(W_DSP, W_BRAM)`
//! **mix**; each entry lists the mix's achievable `(W_CLB, leftmost
//! start)` pairs in ascending `W_CLB` order. Starts are visited in
//! ascending order across and within runs, so the first span to reach a
//! composition is exactly the leftmost match that [`Device::find_window`]
//! would find; later spans with that composition are skipped.
//!
//! A composition lookup is one hash probe plus a binary search, and
//! [`DeviceGeometry::min_clb_at_least`] answers "the fewest CLB columns
//! ≥ n that fit this mix" at the same cost, which lets the padded
//! fallback ask once per mix instead of once per CLB count. Construction
//! is O(Σ runᵢ²) span visits, each a hash probe plus a binary search: a
//! few thousand visits and 4–46 µs per database device on a 2-vCPU Xeon
//! host. The resulting table is immutable, so probes are lock-free and
//! write nothing: sweep workers share one geometry read-only. Keep it
//! that way; the planner counts probes in its per-worker scratch
//! (`prcost::PlanScratch`). One shared atomic bumped per probe here held
//! two sweep threads to 1.32× the throughput of one on a 2-vCPU host.
//!
//! A composition absent from the index has no window on the device, and
//! the zero composition `(0, 0, 0)` is never indexed (spans have width
//! ≥ 1) — both return `None`, exactly as the rescan does. The mix key
//! holds every `u32` count, so no oversized request can alias an indexed
//! mix. Results are byte-identical to [`Device::find_window`]; the
//! equivalence suite in `crates/fabric/tests/window_props.rs` checks all
//! three implementations against each other on every database device and
//! on random fabrics.

use crate::device::Device;
use crate::window::{Window, WindowRequest};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem;

/// Packs a `(W_DSP, W_BRAM)` mix into one `u64` index key, 32 bits per
/// count: every pair of `u32` counts has a key of its own.
fn mix_key(dsp: u32, bram: u32) -> u64 {
    (u64::from(dsp) << 32) | u64::from(bram)
}

/// Single-multiply hasher for the packed mix keys. Every padded-fallback
/// row and every resolved window costs one index lookup, so lookup
/// latency matters: this replaces SipHash with a splitmix64 finalizer —
/// a few ALU ops, well-mixed low bits for the table's bucket selection.
#[derive(Default)]
struct CompKeyHasher(u64);

impl Hasher for CompKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("mix keys hash as u64");
    }

    fn write_u64(&mut self, key: u64) {
        let mut x = key;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

/// A hash map keyed by packed `(W_DSP, W_BRAM)` mixes.
type MixMap<V> = HashMap<u64, V, BuildHasherDefault<CompKeyHasher>>;

/// Precomputed window-search geometry for one [`Device`]: a read-only
/// `(W_DSP, W_BRAM)` mix → `[(W_CLB, leftmost start)]` index.
#[derive(Debug)]
pub struct DeviceGeometry {
    rows: u32,
    width: usize,
    /// Packed `(W_DSP, W_BRAM)` → that mix's achievable `(W_CLB, leftmost
    /// start column)` pairs, ascending and distinct in `W_CLB`. Immutable
    /// after construction; an absent mix or `W_CLB` ⇒ no window exists.
    index: MixMap<Box<[(u32, u32)]>>,
}

impl DeviceGeometry {
    /// Build the composition index of `device`.
    ///
    /// Walks the maximal IOB/CLK-free runs ([`Device::prr_free_runs`]),
    /// then for each start column in each run extends the span rightward
    /// with O(1) incremental counts, inserting `(W_CLB, start)` into the
    /// span's mix list at its sorted place unless that `W_CLB` is already
    /// there. Starts arrive in ascending order, so the kept start of each
    /// composition is its leftmost.
    pub fn new(device: &Device) -> Self {
        let columns = device.columns();
        let mut lists: MixMap<Vec<(u32, u32)>> = MixMap::default();
        for run in device.prr_free_runs() {
            for start in run.clone() {
                let mut counts = [0u32; 3];
                for &kind in &columns[start..run.end] {
                    counts[kind.prr_count_slot()] += 1;
                    let list = lists.entry(mix_key(counts[1], counts[2])).or_default();
                    if let Err(i) = list.binary_search_by_key(&counts[0], |&(clb, _)| clb) {
                        list.insert(i, (counts[0], start as u32));
                    }
                }
            }
        }
        let index = lists
            .into_iter()
            .map(|(mix, list)| (mix, list.into_boxed_slice()))
            .collect();
        DeviceGeometry {
            rows: device.rows(),
            width: device.width(),
            index,
        }
    }

    /// Fabric rows of the underlying device.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Column count of the underlying device.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The `(W_CLB, leftmost start)` list of one `(W_DSP, W_BRAM)` mix;
    /// empty when no span has that mix.
    fn mix(&self, dsp: u32, bram: u32) -> &[(u32, u32)] {
        self.index.get(&mix_key(dsp, bram)).map_or(&[], |list| list)
    }

    /// Leftmost start column of a span containing exactly `clb`/`dsp`/
    /// `bram` columns of each kind and no IOB/CLK columns, or `None`.
    /// Lock-free: one hash probe of the read-only mix index plus a binary
    /// search of the mix's `W_CLB` list. The answer is independent of any
    /// requested height.
    pub fn leftmost_start(&self, clb: u32, dsp: u32, bram: u32) -> Option<usize> {
        let list = self.mix(dsp, bram);
        let i = list.binary_search_by_key(&clb, |&(c, _)| c).ok()?;
        Some(list[i].1 as usize)
    }

    /// Smallest `W_CLB ≥ clb` such that a span with `W_CLB` CLB, `dsp`
    /// DSP and `bram` BRAM columns (and no IOB/CLK) exists, or `None`.
    /// Same cost as [`DeviceGeometry::leftmost_start`]: one hash probe
    /// plus a `partition_point` over the mix's ascending `W_CLB` list.
    pub fn min_clb_at_least(&self, clb: u32, dsp: u32, bram: u32) -> Option<u32> {
        let list = self.mix(dsp, bram);
        list.get(list.partition_point(|&(c, _)| c < clb))
            .map(|&(c, _)| c)
    }

    /// Leftmost window matching `req` on `device`, behaviorally identical
    /// to [`Device::find_window`] but answered from the composition index.
    ///
    /// `device` must be the device this geometry was derived from (checked
    /// in debug builds by column count).
    pub fn find_window(&self, device: &Device, req: &WindowRequest) -> Option<Window> {
        debug_assert_eq!(device.width(), self.width, "geometry/device mismatch");
        if req.height < 1 || req.height > self.rows || req.width() < 1 {
            return None;
        }
        let start = self.leftmost_start(req.clb_cols, req.dsp_cols, req.bram_cols)?;
        let width = req.width() as usize;
        Some(Window {
            start_col: start,
            width: req.width(),
            row: 1,
            height: req.height,
            columns: device.columns()[start..start + width].to_vec(),
        })
    }

    /// Number of distinct achievable compositions interned for this device
    /// (the index size; fixed at construction).
    pub fn distinct_compositions(&self) -> u64 {
        self.index.values().map(|list| list.len() as u64).sum()
    }

    /// Approximate resident size of the composition index in bytes: the
    /// hash table's allocated `(mix, list)` slots plus every list's
    /// `(W_CLB, start)` pairs (excludes the table's control metadata, so
    /// treat it as a lower-bound estimate).
    pub fn index_bytes(&self) -> usize {
        self.index.capacity() * mem::size_of::<(u64, Box<[(u32, u32)]>)>()
            + self.distinct_compositions() as usize * mem::size_of::<(u32, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnSpec;
    use crate::database::all_devices;
    use crate::family::Family;
    use crate::resource::ResourceKind::*;

    fn tiny() -> Device {
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
    fn matches_device_find_window_on_tiny() {
        let d = tiny();
        let geo = DeviceGeometry::new(&d);
        for clb in 0..4 {
            for dsp in 0..2 {
                for bram in 0..2 {
                    for h in 0..6 {
                        let req = WindowRequest::new(clb, dsp, bram, h);
                        assert_eq!(
                            geo.find_window(&d, &req),
                            d.find_window(&req),
                            "req {req:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_device_find_window_on_database() {
        for d in all_devices() {
            let geo = DeviceGeometry::new(&d);
            for clb in [0, 1, 2, 5, 17] {
                for dsp in [0, 1, 2] {
                    for bram in [0, 1, 2] {
                        let req = WindowRequest::new(clb, dsp, bram, 1);
                        assert_eq!(
                            geo.find_window(&d, &req),
                            d.find_window(&req),
                            "{} {req:?}",
                            d.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn index_is_populated_and_heights_share_entries() {
        let d = tiny();
        let geo = DeviceGeometry::new(&d);
        assert!(geo.distinct_compositions() > 0);
        assert!(geo.index_bytes() > 0);
        let w1 = geo.find_window(&d, &WindowRequest::new(2, 0, 1, 1));
        let w4 = geo.find_window(&d, &WindowRequest::new(2, 0, 1, 4));
        // Different heights share one composition entry: same start column.
        assert_eq!(w1.unwrap().start_col, w4.unwrap().start_col);
    }

    #[test]
    fn infeasible_height_short_circuits() {
        let d = tiny();
        let geo = DeviceGeometry::new(&d);
        // Out-of-range heights and the zero composition have no window,
        // although the index holds a 1-CLB span for the first request.
        assert!(geo.leftmost_start(1, 0, 0).is_some());
        assert!(geo
            .find_window(&d, &WindowRequest::new(1, 0, 0, 5))
            .is_none());
        assert!(geo
            .find_window(&d, &WindowRequest::new(1, 0, 0, 0))
            .is_none());
        assert!(geo
            .find_window(&d, &WindowRequest::new(0, 0, 0, 1))
            .is_none());
    }

    #[test]
    fn oversized_counts_find_nothing() {
        let d = tiny();
        let geo = DeviceGeometry::new(&d);
        assert_eq!(geo.leftmost_start(1, 0, 0), Some(1));
        assert_eq!(geo.leftmost_start(0, 1, 0), Some(5));
        assert_eq!(geo.min_clb_at_least(0, 0, 0), Some(1));
        // Counts that overflowed a 21-bit packed field used to alias the
        // keys of (1, 0, 0) and (0, 1, 0).
        for (clb, dsp, bram) in [
            ((1 << 31) + 1, 0, 0),
            (1 << 21, 0, 0),
            (1, 1 << 21, 0),
            (0, 1, 1 << 21),
            (u32::MAX, u32::MAX, u32::MAX),
        ] {
            assert_eq!(geo.leftmost_start(clb, dsp, bram), None);
            assert_eq!(geo.min_clb_at_least(clb, dsp, bram), None);
            let req = WindowRequest::new(clb, dsp, bram, 1);
            assert_eq!(geo.find_window(&d, &req), None);
            assert_eq!(d.find_window(&req), None);
        }
        assert_eq!(geo.min_clb_at_least(u32::MAX, 0, 0), None);
    }

    #[test]
    fn index_enumerates_every_achievable_composition() {
        // Brute-force every span of every database device: each clean span's
        // composition must be indexed with the leftmost matching start, and
        // nothing else may be indexed.
        for d in all_devices() {
            let geo = DeviceGeometry::new(&d);
            let cols = d.columns();
            let mut expected: HashMap<(u32, u32, u32), u32> = HashMap::new();
            for start in 0..cols.len() {
                for end in start + 1..=cols.len() {
                    let span = &cols[start..end];
                    if span.iter().any(|k| !k.allowed_in_prr()) {
                        continue;
                    }
                    let mut c = [0u32; 3];
                    for k in span {
                        c[k.prr_count_slot()] += 1;
                    }
                    expected.entry((c[0], c[1], c[2])).or_insert(start as u32);
                }
            }
            assert_eq!(
                geo.distinct_compositions(),
                expected.len() as u64,
                "{}",
                d.name()
            );
            for (&(clb, dsp, bram), &start) in &expected {
                assert_eq!(
                    geo.leftmost_start(clb, dsp, bram),
                    Some(start as usize),
                    "{} ({clb},{dsp},{bram})",
                    d.name()
                );
            }
        }
    }
}
