//! Memoized batch planning engine on sharded concurrent memos.
//!
//! A sweep of G generators × D devices repeats two expensive inputs many
//! times: a generator's synthesis report depends only on the device
//! *family* (not the device), and a device's window-search geometry is
//! shared by every height and PRM planned on it. [`Engine`] interns both,
//! plus whole plan results, in concurrent memos designed so that a *warm*
//! lookup — the overwhelmingly common case in a repeated sweep or a
//! long-running planning service — takes no lock contention and performs
//! **zero heap allocation**:
//!
//! * **device interner** ([`crate::shard::DeviceTable`]) — each distinct
//!   device layout is interned once to a dense [`DeviceId`], pairing it
//!   with its [`DeviceGeometry`]. [`Engine::intern_device`] resolves a
//!   [`Device`] to a [`DeviceHandle`]: a streamed [`Device::layout_hash`]
//!   (no allocation, unlike the seed's `(String, u32, Vec<ColumnKind>)`
//!   key which cloned the name and the column list on *every* call), one
//!   read lock and one structural comparison. Callers that plan many
//!   points against one device resolve it once and keep the handle.
//! * **synthesis memo** — keyed by `(generator fingerprint, family)`.
//!   Fingerprints ([`PrmGenerator::fingerprint`]) hash the generator's
//!   name *and* per-family operator counts, so two differently
//!   parameterized generators that share a name can no longer serve each
//!   other's cached reports (the seed keyed on the name alone).
//! * **plan memo** — a [`Sharded`] striped map from the packed
//!   `(requirements, DeviceId)` [`PlanKey`] to
//!   `Arc<Result<PrrPlan, CostError>>`. Writers contend only within one
//!   of 64 stripes; a hit clones an `Arc`, not a whole plan with its
//!   search trace.
//!
//! [`Engine::plan_on`] plans against a resolved handle and is the only
//! memo path: a warm hit builds the packed key and makes one shard probe,
//! with no per-call device comparison. The pipeline, the sweep and the
//! async planning service ([`crate::service`]) drive it. The `&Device`
//! entry points ([`Engine::plan_arc`], [`Engine::plan`] and friends)
//! resolve their device through the interner on every call, then take
//! the same path. Every hit allocates nothing. Plans are
//! byte-identical to calling [`synthesize`](PrmGenerator) and
//! [`plan_prr`](crate::plan_prr) directly (property-tested in the
//! workspace's `engine_props` suite), and the whole memo state round-trips
//! through a versioned [`EngineSnapshot`] for persist/reload.
//!
//! Counter accounting is conserved per cache: every lookup is either a
//! build or a hit (`geometry_builds + geometry_cache_hits` equals device
//! resolutions, `synth_calls + synth_cache_hits` equals synthesis requests,
//! `plan_builds + plan_cache_hits` equals `plans`), with insertion-race
//! losers counted as hits. The multi-thread stress suite asserts these
//! identities under 16-way concurrent mixed load.

use crate::error::CostError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::requirements::PrrRequirements;
use crate::search::{plan_requirements_cached, PlanScratch, PrrPlan};
use crate::shard::{DeviceEntry, DeviceId, DeviceTable, EngineToken, PlanKey, Sharded, SynthKey};
use fabric::{Device, DeviceGeometry, Family};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use synth::{PrmGenerator, SynthReport};

/// A memoized, instrumented planning engine (see the module docs).
#[derive(Debug, Default)]
pub struct Engine {
    metrics: Metrics,
    /// Process-unique identity; stamped on every [`DeviceHandle`].
    token: EngineToken,
    devices: DeviceTable,
    synth_memo: Sharded<SynthKey, SynthReport>,
    plan_memo: Sharded<PlanKey, Arc<Result<PrrPlan, CostError>>>,
}

/// A device resolved by one [`Engine`]: its interned id and entry,
/// stamped with the engine's token.
///
/// Resolve a device once with [`Engine::intern_device`] and plan against
/// the handle with [`Engine::plan_on`]. The id and the geometry come from
/// the same interned entry, so they cannot be mismatched. Cloning bumps
/// one refcount. A handle is valid only on the engine that made it;
/// [`Engine::plan_on`] panics on any other.
#[derive(Debug, Clone)]
pub struct DeviceHandle {
    token: EngineToken,
    id: DeviceId,
    entry: Arc<DeviceEntry>,
}

impl DeviceHandle {
    /// The interned device layout.
    pub fn device(&self) -> &Device {
        &self.entry.device
    }

    /// The device's composition-indexed window geometry.
    pub fn geometry(&self) -> &Arc<DeviceGeometry> {
        &self.entry.geometry
    }

    /// The device's dense id in its engine's interner.
    pub fn id(&self) -> DeviceId {
        self.id
    }
}

impl Engine {
    /// New engine with empty caches and zeroed metrics.
    pub fn new() -> Self {
        Engine::default()
    }

    /// The engine's metrics registry (counters are live).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Resolve `device` to a handle, interning it and deriving its
    /// geometry on first sight. Warm calls are allocation-free: a
    /// streamed layout hash, one read lock, one structural comparison.
    ///
    /// Accounting: every call bumps exactly one of `geometry_builds`
    /// (this call derived and inserted the geometry) or
    /// `geometry_cache_hits` (served an existing entry, including losing
    /// an insertion race), so `builds + hits` equals device resolutions.
    pub fn intern_device(&self, device: &Device) -> DeviceHandle {
        let (id, entry) = match self.devices.lookup(device) {
            Some(hit) => {
                self.metrics.geometry_cache_hits.incr();
                hit
            }
            None => {
                let geo = self
                    .metrics
                    .time("geometry", || Arc::new(DeviceGeometry::new(device)));
                let (id, entry, inserted) = self.devices.insert(device, geo);
                if inserted {
                    self.metrics.geometry_builds.incr();
                } else {
                    self.metrics.geometry_cache_hits.incr();
                }
                (id, entry)
            }
        };
        DeviceHandle {
            token: self.token,
            id,
            entry,
        }
    }

    /// The interned geometry of `device`, deriving it on first sight.
    pub fn geometry(&self, device: &Device) -> Arc<DeviceGeometry> {
        Arc::clone(self.intern_device(device).geometry())
    }

    /// `generator`'s synthesis report for `family`, memoized on
    /// `(generator fingerprint, family)` — the fingerprint covers the
    /// generator's parameters, so same-named but differently configured
    /// generators get distinct entries.
    pub fn synthesize(&self, generator: &dyn PrmGenerator, family: Family) -> SynthReport {
        let key = SynthKey {
            fingerprint: generator.fingerprint(),
            family,
        };
        if let Some(report) = self.synth_memo.get(&key) {
            self.metrics.synth_cache_hits.incr();
            return report;
        }
        let report = self.metrics.time("synth", || generator.synthesize(family));
        // First writer wins; a losing racer's lookup counts as a hit, not
        // a vanished call, so calls + hits equals synthesis requests.
        let (stored, inserted) = self.synth_memo.insert_or_get(key, report);
        if inserted {
            self.metrics.synth_calls.incr();
        } else {
            self.metrics.synth_cache_hits.incr();
        }
        stored
    }

    /// Plan the PRR for `report` on `device` through the device interner.
    pub fn plan(&self, report: &SynthReport, device: &Device) -> Result<PrrPlan, CostError> {
        self.plan_with_scratch(report, device, &mut PlanScratch::default())
    }

    /// [`Engine::plan`] with a caller-owned [`PlanScratch`]; returns an
    /// owned plan (cloned out of the memo on a hit). Workers that can
    /// share the memoized allocation should prefer [`Engine::plan_arc`].
    pub fn plan_with_scratch(
        &self,
        report: &SynthReport,
        device: &Device,
        scratch: &mut PlanScratch,
    ) -> Result<PrrPlan, CostError> {
        self.plan_arc(report, device, scratch).as_ref().clone()
    }

    /// Plan the PRR for `report` on `device`, returning the memo's shared
    /// `Arc` directly.
    ///
    /// Resolves `device` through the interner, then takes the
    /// [`Engine::plan_on`] path. When the `(requirements, device)` point
    /// is already memoized, the call performs **zero heap allocation**:
    /// a layout-hash intern lookup, a packed-key shard probe and an `Arc`
    /// clone. Whole plan results (feasible and infeasible alike) are
    /// memoized; a repeat of a previously planned point never re-runs the
    /// Fig. 1 search. Callers that plan many points against one device
    /// should resolve it once and call [`Engine::plan_on`].
    pub fn plan_arc(
        &self,
        report: &SynthReport,
        device: &Device,
        scratch: &mut PlanScratch,
    ) -> Arc<Result<PrrPlan, CostError>> {
        self.plan_requirements(&PrrRequirements::from_report(report), device, scratch)
    }

    /// [`Engine::plan_arc`] from explicit requirements. A family mismatch
    /// between `req` and `device` is planned to (and memoized as) the
    /// same [`CostError::FamilyMismatch`] the report-level paths return.
    pub fn plan_requirements(
        &self,
        req: &PrrRequirements,
        device: &Device,
        scratch: &mut PlanScratch,
    ) -> Arc<Result<PrrPlan, CostError>> {
        // `plans` before the intern's geometry counter: the snapshot
        // reads parts before totals (see `Metrics::snapshot`).
        self.metrics.plans.incr();
        let device = self.intern_device(device);
        self.plan_resolved(req, &device, scratch)
    }

    /// Plan `req` on a device already resolved by
    /// [`Engine::intern_device`]: the packed-key shard probe, and the
    /// cached Fig. 1 search on a miss. A warm hit performs zero heap
    /// allocation and no device comparison.
    ///
    /// # Panics
    ///
    /// If `device` was resolved by another engine. Its [`DeviceId`]
    /// indexes that engine's interner, so planning it here would memoize
    /// a plan under the wrong device's key.
    pub fn plan_on(
        &self,
        req: &PrrRequirements,
        device: &DeviceHandle,
        scratch: &mut PlanScratch,
    ) -> Arc<Result<PrrPlan, CostError>> {
        assert!(
            device.token == self.token,
            "device handle for `{}` was resolved by another engine",
            device.device().name()
        );
        self.metrics.plans.incr();
        self.plan_resolved(req, device, scratch)
    }

    /// The memo path behind every plan: probe, and on a miss run the
    /// cached Fig. 1 search, tally the padded-fallback and window-probe
    /// deltas, record outcome counters, and memoize.
    fn plan_resolved(
        &self,
        req: &PrrRequirements,
        device: &DeviceHandle,
        scratch: &mut PlanScratch,
    ) -> Arc<Result<PrrPlan, CostError>> {
        let key = PlanKey::new(req, device.id);
        if let Some(hit) = self.plan_memo.get(&key) {
            self.metrics.plan_cache_hits.incr();
            self.record_outcome(&hit);
            return hit;
        }
        let padded_before = scratch.padded_resolution_count();
        let probes_before = scratch.window_probe_count();
        let result = self.metrics.time("plan", || {
            plan_requirements_cached(req, device.device(), device.geometry(), scratch)
        });
        self.metrics
            .padded_fallbacks
            .add(scratch.padded_resolution_count() - padded_before);
        self.metrics
            .window_probes
            .add(scratch.window_probe_count() - probes_before);
        self.record_outcome(&result);
        // First writer wins: a racing loser computed an identical result
        // (plans are deterministic) and shares the winner's allocation;
        // its plan counts as a hit so builds + hits == plans.
        let (stored, inserted) = self.plan_memo.insert_or_get(key, Arc::new(result));
        if inserted {
            self.metrics.plan_builds.incr();
        } else {
            self.metrics.plan_cache_hits.incr();
        }
        stored
    }

    /// Bump the per-call feasible/infeasible outcome counters.
    fn record_outcome(&self, result: &Result<PrrPlan, CostError>) {
        match result {
            Ok(_) => self.metrics.plans_feasible.incr(),
            Err(_) => self.metrics.plans_infeasible.incr(),
        }
    }

    /// Number of memoized plan points (feasible and infeasible).
    pub fn plan_memo_len(&self) -> usize {
        self.plan_memo.len()
    }

    /// Snapshot of the engine's metrics, with the distinct interned
    /// compositions folded in from the interned geometries. Window probes
    /// are already in the registry: each plan miss adds its scratch's
    /// delta once.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.counters.distinct_compositions = self
            .devices
            .entries_in_order()
            .iter()
            .map(|entry| entry.geometry.distinct_compositions())
            .sum();
        snap
    }

    /// Export the engine's memo state as a versioned, deterministic
    /// snapshot (devices in intern order, records sorted by key). Window
    /// geometries are not serialized — they are pure functions of the
    /// devices and are rebuilt on import.
    pub fn export_state(&self) -> EngineSnapshot {
        let devices: Vec<Device> = self
            .devices
            .entries_in_order()
            .iter()
            .map(|e| e.device.clone())
            .collect();
        let mut synth = Vec::new();
        self.synth_memo.for_each(|k, v| {
            synth.push(SynthRecord {
                fingerprint: k.fingerprint,
                family: k.family,
                report: v.clone(),
            });
        });
        synth.sort_by_key(|r| (r.fingerprint, r.family as u8));
        let mut plans = Vec::new();
        self.plan_memo.for_each(|k, v| {
            plans.push(PlanRecord {
                device: k.device.index() as u32,
                family: k.family,
                req: k.req,
                result: v.as_ref().clone(),
            });
        });
        plans.sort_by_key(|r| (r.device, r.family as u8, r.req));
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            devices,
            synth,
            plans,
        }
    }

    /// Rebuild an engine from an exported snapshot: re-intern every
    /// device (rebuilding its window geometry), then seed the synthesis
    /// and plan memos with the recorded entries. Lookups against the
    /// restored engine return byte-identical results to the exporting
    /// engine's. Restored entries are not replayed plans, so the plan
    /// counters start at zero; only `geometry_builds` reflects the
    /// geometry reconstruction work actually done here.
    ///
    /// Every device in a snapshot is valid: deserializing a [`Device`]
    /// runs [`Device::new`]'s checks. A device listed twice is rejected,
    /// since re-exporting would drop the repeat.
    pub fn import_state(snapshot: &EngineSnapshot) -> Result<Engine, SnapshotError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: snapshot.version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let engine = Engine::new();
        let mut ids = Vec::with_capacity(snapshot.devices.len());
        for (index, device) in snapshot.devices.iter().enumerate() {
            // Ids are dense in intern order, so a repeat of an earlier
            // device gets that device's smaller id back.
            let id = engine.intern_device(device).id();
            if id.index() != index {
                return Err(SnapshotError::DuplicateDevice {
                    index,
                    first: id.index(),
                });
            }
            ids.push(id);
        }
        for record in &snapshot.synth {
            engine.synth_memo.insert_or_get(
                SynthKey {
                    fingerprint: record.fingerprint,
                    family: record.family,
                },
                record.report.clone(),
            );
        }
        for record in &snapshot.plans {
            let id =
                *ids.get(record.device as usize)
                    .ok_or(SnapshotError::DeviceIndexOutOfRange {
                        index: record.device,
                        devices: snapshot.devices.len(),
                    })?;
            let key = PlanKey::from_parts(id, record.family, record.req);
            engine
                .plan_memo
                .insert_or_get(key, Arc::new(record.result.clone()));
        }
        Ok(engine)
    }
}

/// Version tag of [`EngineSnapshot`]; bump on any layout change so stale
/// snapshots are rejected instead of misread.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Serializable memo state of an [`Engine`]: interned devices (in
/// [`DeviceId`] order), synthesis records, and whole-plan records — `Ok`
/// and `Err` alike. Deterministic for a given memo content (records are
/// key-sorted), so equal engines export equal snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Snapshot layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Interned devices, index == [`DeviceId::index`].
    pub devices: Vec<Device>,
    /// Synthesis memo entries.
    pub synth: Vec<SynthRecord>,
    /// Plan memo entries.
    pub plans: Vec<PlanRecord>,
}

/// One synthesis-memo entry of an [`EngineSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthRecord {
    /// Generator fingerprint ([`PrmGenerator::fingerprint`]).
    pub fingerprint: u64,
    /// Family synthesized for.
    pub family: Family,
    /// The memoized report.
    pub report: SynthReport,
}

/// One plan-memo entry of an [`EngineSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRecord {
    /// Index into [`EngineSnapshot::devices`].
    pub device: u32,
    /// Requirement family.
    pub family: Family,
    /// The packed requirement numbers
    /// (`[LUT_FF_req, LUT_req, FF_req, DSP_req, BRAM_req]`).
    pub req: [u64; 5],
    /// The memoized plan outcome, `Err` plans included.
    pub result: Result<PrrPlan, CostError>,
}

/// Why an [`EngineSnapshot`] could not be imported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written by an incompatible engine revision.
    VersionMismatch {
        /// Version found in the snapshot.
        found: u32,
        /// Version this engine reads.
        supported: u32,
    },
    /// A plan record references a device index the snapshot doesn't hold.
    DeviceIndexOutOfRange {
        /// Offending device index.
        index: u32,
        /// Number of devices in the snapshot.
        devices: usize,
    },
    /// A device is listed twice; both copies would intern to one id, so
    /// plan records naming the second could not be told apart.
    DuplicateDevice {
        /// Index of the repeat in [`EngineSnapshot::devices`].
        index: usize,
        /// Index of its first occurrence.
        first: usize,
    },
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "engine snapshot version {found} is not supported (this engine reads {supported})"
            ),
            SnapshotError::DeviceIndexOutOfRange { index, devices } => write!(
                f,
                "plan record references device {index} but the snapshot holds {devices} devices"
            ),
            SnapshotError::DuplicateDevice { index, first } => {
                write!(f, "snapshot device {index} repeats device {first}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_prr;
    use fabric::database::{xc5vlx110t, xc6vlx75t};
    use synth::{GenericPrm, PaperPrm};

    /// Synthesize (memoized) and plan (memoized), as a sweep point does.
    fn evaluate(
        engine: &Engine,
        generator: &dyn PrmGenerator,
        device: &Device,
    ) -> Result<PrrPlan, CostError> {
        engine.plan(&engine.synthesize(generator, device.family()), device)
    }

    #[test]
    fn engine_plans_match_direct_plans() {
        let engine = Engine::new();
        for device in [xc5vlx110t(), xc6vlx75t()] {
            for prm in PaperPrm::ALL {
                let gen = prm.generator();
                let direct = plan_prr(&gen.synthesize(device.family()), &device).unwrap();
                let via_engine = evaluate(&engine, gen.as_ref(), &device).unwrap();
                assert_eq!(direct, via_engine, "{prm:?} on {}", device.name());
            }
        }
    }

    #[test]
    fn synthesis_is_memoized_per_family() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let gen = PaperPrm::Fir.generator();
        let a = engine.synthesize(gen.as_ref(), v5.family());
        let b = engine.synthesize(gen.as_ref(), v5.family());
        assert_eq!(a, b);
        let snap = engine.snapshot();
        assert_eq!(snap.counters.synth_calls, 1);
        assert_eq!(snap.counters.synth_cache_hits, 1);
    }

    /// Regression for the seed synth-memo keying bug: two generators that
    /// share a *name* but differ in parameters must not serve each other's
    /// cached reports (the seed engine keyed on the name alone).
    #[test]
    fn same_name_generators_do_not_share_synth_entries() {
        let small = GenericPrm::new("dsp_core", GenericPrm::random(1, 500).ops);
        let large = GenericPrm::new("dsp_core", GenericPrm::random(2, 4000).ops);
        assert_eq!(small.name(), large.name());
        assert_ne!(small.fingerprint(), large.fingerprint());

        let engine = Engine::new();
        let fam = Family::Virtex5;
        let a = engine.synthesize(&small, fam);
        let b = engine.synthesize(&large, fam);
        assert_eq!(a, small.synthesize(fam), "small PRM got its own report");
        assert_eq!(b, large.synthesize(fam), "large PRM got its own report");
        assert_ne!(a, b);
        let c = engine.snapshot().counters;
        assert_eq!(c.synth_calls, 2, "two distinct memo entries");
        assert_eq!(c.synth_cache_hits, 0);
    }

    #[test]
    fn geometry_is_interned_per_device() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let g1 = engine.geometry(&v5);
        let g2 = engine.geometry(&v5);
        assert!(Arc::ptr_eq(&g1, &g2));
        let snap = engine.snapshot();
        assert_eq!(snap.counters.geometry_builds, 1);
        assert_eq!(snap.counters.geometry_cache_hits, 1);
        // Same name, different layout: distinct intern entries.
        let twin =
            Device::new(v5.name(), v5.family(), v5.rows() + 1, v5.columns().to_vec()).unwrap();
        let g3 = engine.geometry(&twin);
        assert!(!Arc::ptr_eq(&g1, &g3));
        assert_ne!(
            engine.intern_device(&v5).id(),
            engine.intern_device(&twin).id()
        );
    }

    #[test]
    fn repeat_plans_hit_the_plan_memo() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let gen = PaperPrm::Mips.generator();
        let first = evaluate(&engine, gen.as_ref(), &v5).unwrap();
        let second = evaluate(&engine, gen.as_ref(), &v5).unwrap();
        assert_eq!(first, second);
        let c = engine.snapshot().counters;
        assert_eq!(c.plans, 2);
        assert_eq!(c.plan_cache_hits, 1);
        assert_eq!(c.plan_builds, 1);
        assert_eq!(c.plans_feasible, 2);
    }

    #[test]
    fn plan_arc_hits_share_one_allocation() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let report = PaperPrm::Fir.generator().synthesize(v5.family());
        let mut scratch = PlanScratch::default();
        let first = engine.plan_arc(&report, &v5, &mut scratch);
        let second = engine.plan_arc(&report, &v5, &mut scratch);
        assert!(Arc::ptr_eq(&first, &second), "hits return the memo's Arc");
        assert_eq!(engine.plan_memo_len(), 1);
    }

    #[test]
    fn infeasible_plans_are_memoized_too() {
        let engine = Engine::new();
        let v6 = xc6vlx75t();
        // A Virtex-5 report on a Virtex-6 device always fails.
        let report = PaperPrm::Fir
            .generator()
            .synthesize(fabric::Family::Virtex5);
        assert!(engine.plan(&report, &v6).is_err());
        assert!(engine.plan(&report, &v6).is_err());
        let c = engine.snapshot().counters;
        assert_eq!(c.plan_cache_hits, 1);
        assert_eq!(c.plan_builds, 1);
        assert_eq!(c.plans_infeasible, 2);
    }

    #[test]
    fn snapshot_folds_in_window_counters() {
        let engine = Engine::new();
        let v6 = xc6vlx75t();
        let gen = PaperPrm::Sdram.generator();
        evaluate(&engine, gen.as_ref(), &v6).unwrap();
        evaluate(&engine, gen.as_ref(), &v6).unwrap();
        let snap = engine.snapshot();
        assert!(snap.counters.window_probes > 0);
        assert!(snap.counters.distinct_compositions > 0);
        // SDRAM fits exactly at every height: no padded fallback runs.
        assert_eq!(snap.counters.padded_fallbacks, 0);
        assert_eq!(snap.counters.plans, 2);
        assert_eq!(snap.counters.plans_feasible, 2);
    }

    /// Probes are counted in each worker's scratch and added to the
    /// registry once per plan miss: a grid planned on a cold engine from
    /// four threads (released together by a barrier), each with its own
    /// scratch, reports exactly the probes a serial replay counts — no
    /// per-plan delta is lost or counted twice. The grid has no repeated
    /// point, so no two threads can race to plan the same one.
    #[test]
    fn concurrent_window_probes_equal_a_serial_replay() {
        let devices = fabric::all_devices();
        let grid: Vec<(PrrRequirements, &Device)> = (0..5u64)
            .flat_map(|i| {
                devices.iter().map(move |d| {
                    let lut_ff = 8 + 1200 * i;
                    let req =
                        PrrRequirements::new(d.family(), lut_ff, lut_ff, lut_ff, 7 * i, 5 * i);
                    (req, d)
                })
            })
            .collect();

        let serial = Engine::new();
        let mut scratch = PlanScratch::default();
        for (req, device) in &grid {
            serial.plan_requirements(req, device, &mut scratch);
        }
        let expected = serial.snapshot().counters;
        assert_eq!(expected.window_probes, scratch.window_probe_count());
        assert!(expected.padded_fallbacks > 0, "grid exercises padding");

        let engine = Engine::new();
        let parts: Vec<_> = grid.chunks(grid.len().div_ceil(4)).collect();
        let start = std::sync::Barrier::new(parts.len());
        std::thread::scope(|scope| {
            for part in parts {
                let (engine, start) = (&engine, &start);
                scope.spawn(move || {
                    let mut scratch = PlanScratch::default();
                    start.wait();
                    for (req, device) in part {
                        engine.plan_requirements(req, device, &mut scratch);
                    }
                });
            }
        });
        let c = engine.snapshot().counters;
        assert_eq!(c.plan_builds, grid.len() as u64);
        assert_eq!(c.window_probes, expected.window_probes);
        assert_eq!(c.padded_fallbacks, expected.padded_fallbacks);
    }

    #[test]
    fn plan_on_matches_direct_and_memoizes() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let handle = engine.intern_device(&v5);
        assert_eq!(handle.device(), &v5);
        assert!(Arc::ptr_eq(handle.geometry(), &engine.geometry(&v5)));
        let report = PaperPrm::Fir.generator().synthesize(v5.family());
        let req = PrrRequirements::from_report(&report);
        let mut scratch = PlanScratch::default();
        let first = engine.plan_on(&req, &handle, &mut scratch);
        assert_eq!(*first, plan_prr(&report, &v5));
        // The handle and the `&Device` path share one memo entry.
        let again = engine.plan_on(&req, &handle.clone(), &mut scratch);
        let via_device = engine.plan_arc(&report, &v5, &mut scratch);
        assert!(Arc::ptr_eq(&first, &again));
        assert!(Arc::ptr_eq(&first, &via_device));
        let c = engine.snapshot().counters;
        assert_eq!((c.plans, c.plan_builds, c.plan_cache_hits), (3, 1, 2));
        // Two explicit resolutions (the handle, `geometry`) and one per
        // `&Device` plan; `plan_on` resolves nothing.
        assert_eq!((c.geometry_builds, c.geometry_cache_hits), (1, 2));
    }

    /// A handle's id indexes the interner of the engine that made it; on
    /// another engine it would memoize a plan under the wrong device's
    /// key. `plan_on` refuses it in every build, before any counter moves.
    #[test]
    fn plan_on_rejects_a_handle_from_another_engine() {
        let (home, other) = (Engine::new(), Engine::new());
        let v6 = xc6vlx75t();
        // Both engines intern v6 as id 0: the ids alone cannot tell them apart.
        let foreign = home.intern_device(&v6);
        assert_eq!(foreign.id(), other.intern_device(&v6).id());
        let req = PrrRequirements::from_report(&PaperPrm::Sdram.synth_report(v6.family()));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.plan_on(&req, &foreign, &mut PlanScratch::default())
        }));
        let message = outcome.expect_err("a foreign handle must panic");
        let message = message.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("resolved by another engine"), "{message}");
        assert_eq!(other.snapshot().counters.plans, 0);
        assert_eq!(other.plan_memo_len(), 0);
    }

    #[test]
    fn state_round_trips_through_snapshot() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let v6 = xc6vlx75t();
        for prm in PaperPrm::ALL {
            let gen = prm.generator();
            evaluate(&engine, gen.as_ref(), &v5).unwrap();
            evaluate(&engine, gen.as_ref(), &v6).unwrap();
        }
        // One memoized Err plan, so the round trip covers both arms.
        let mismatched = PaperPrm::Fir.generator().synthesize(Family::Virtex5);
        assert!(engine.plan(&mismatched, &v6).is_err());

        let state = engine.export_state();
        assert_eq!(state.version, SNAPSHOT_VERSION);
        assert_eq!(state.devices.len(), 2);
        assert_eq!(state.plans.len(), 7);
        // JSON round trip is exact.
        let json = serde_json::to_string_pretty(&state).unwrap();
        let parsed: EngineSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, state);

        // The restored engine answers every point from its memo,
        // byte-identically, without re-planning.
        let restored = Engine::import_state(&parsed).unwrap();
        let mut scratch = PlanScratch::default();
        for prm in PaperPrm::ALL {
            for device in [&v5, &v6] {
                let report = engine.synthesize(prm.generator().as_ref(), device.family());
                let original = engine.plan_with_scratch(&report, device, &mut scratch);
                let replayed = restored.plan_with_scratch(&report, device, &mut scratch);
                assert_eq!(original, replayed, "{prm:?} on {}", device.name());
            }
        }
        assert_eq!(
            restored.plan(&mismatched, &v6),
            engine.plan(&mismatched, &v6)
        );
        let c = restored.snapshot().counters;
        assert_eq!(c.plan_builds, 0, "restored plans never re-ran the search");
        assert_eq!(c.plan_cache_hits, c.plans);
        // Exporting the restored engine reproduces the snapshot exactly.
        assert_eq!(restored.export_state(), state);
    }

    #[test]
    fn import_rejects_bad_snapshots() {
        let engine = Engine::new();
        evaluate(&engine, PaperPrm::Fir.generator().as_ref(), &xc5vlx110t()).unwrap();
        let mut state = engine.export_state();
        state.version += 1;
        assert!(matches!(
            Engine::import_state(&state),
            Err(SnapshotError::VersionMismatch { .. })
        ));
        let mut state = engine.export_state();
        state.plans[0].device = 99;
        assert!(matches!(
            Engine::import_state(&state),
            Err(SnapshotError::DeviceIndexOutOfRange { index: 99, .. })
        ));
    }

    /// Devices the bitstream layer cannot address, and a device listed
    /// twice, are refused when a snapshot is loaded: the first while its
    /// JSON is decoded, the repeat by `import_state`. A 2^32 - 1 row
    /// device once imported and then aborted the first plan, which asked
    /// for a 2^32 - 1 candidate buffer.
    #[test]
    fn loading_rejects_invalid_and_duplicate_devices() {
        let engine = Engine::new();
        evaluate(&engine, PaperPrm::Fir.generator().as_ref(), &xc5vlx110t()).unwrap();
        let json = serde_json::to_string(&engine.export_state()).unwrap();
        let load = |json: &str| -> Result<Engine, String> {
            let snapshot: EngineSnapshot = serde_json::from_str(json).map_err(|e| e.to_string())?;
            Engine::import_state(&snapshot).map_err(|e| e.to_string())
        };
        assert!(load(&json).is_ok());
        // Each edit rewrites the one device's field, and each load fails
        // on the fabric check, not on some other part of the snapshot.
        let rows = format!("\"rows\":{}", xc5vlx110t().rows());
        let columns = serde_json::to_string(xc5vlx110t().columns()).unwrap();
        let columns = format!("\"columns\":{columns}");
        assert_eq!(json.matches(&rows).count(), 1);
        assert_eq!(json.matches(&columns).count(), 1);
        for (field, bad) in [
            (&rows, "\"rows\":0"),
            (&rows, "\"rows\":256"),
            (&rows, "\"rows\":4294967295"),
            (&columns, "\"columns\":[]"),
        ] {
            let error = load(&json.replace(field.as_str(), bad)).err();
            let error = error.unwrap_or_else(|| panic!("{bad} must not load"));
            assert!(error.contains("fabric"), "{bad}: {error}");
        }

        let mut twice = engine.export_state();
        twice.devices.push(xc6vlx75t());
        twice.devices.push(xc5vlx110t());
        assert_eq!(
            Engine::import_state(&twice).err(),
            Some(SnapshotError::DuplicateDevice { index: 2, first: 0 })
        );
    }
}
