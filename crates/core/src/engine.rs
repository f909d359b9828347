//! Memoized batch planning engine on sharded concurrent memos.
//!
//! A sweep of G generators × D devices repeats two expensive inputs many
//! times: a generator's synthesis report depends only on the device
//! *family* (not the device), and a device's window-search geometry is
//! shared by every height and PRM planned on it. [`Engine`] interns both,
//! plus whole plan results, in concurrent memos designed so that a *warm*
//! lookup — the overwhelmingly common case in a repeated sweep or a
//! long-running online planner — takes no lock contention and performs
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
//!   of 64 stripes; a probe clones an `Arc`, not a whole plan. A plan
//!   holds its answer only, not its search's candidate trace, so a
//!   feasible plan owns one heap allocation besides its `Arc`: its
//!   window's columns.
//!
//! [`Engine::plan_on`] plans against a resolved handle and is the only
//! memo path. Its warm hit touches only the caller's [`PlanScratch`]: on
//! first use the scratch binds to the engine, registering a counter tally
//! that only it writes, and it keeps the plans it was served in 128
//! direct-mapped slots keyed by the packed key. A hit builds the key in
//! one pass, compares one slot and bumps the scratch's tally with plain
//! single-writer stores: no lock, no refcount, no shared write, no device
//! comparison. A slot miss probes the shared memo (and a memo miss runs
//! the search and memoizes it) and refills the slot, so the memo stays the
//! one source of truth and `plan_on` returns a borrow of the slot's `Arc`.
//! The search records into the scratch's tally as well: its time under
//! the `plan` stage and its padded-fallback and window-probe counts. So a
//! cold `plan_on` writes shared memory only in the memo: its shard locks
//! and its insert.
//! The pipeline, the sweep and `prfpga serve` drive it; threads that plan
//! concurrently each plan on a scratch of their own. The `&Device` entry
//! points ([`Engine::plan_arc`], [`Engine::plan`] and friends) resolve
//! their device through the interner on every call, then take the same
//! path and clone the `Arc`. Every hit allocates nothing. Plans are
//! byte-identical to calling [`synthesize`](PrmGenerator) and
//! [`plan_prr`](crate::plan_prr) directly (property-tested in the
//! workspace's `engine_props` suite).
//! The memo persists as a versioned [`EngineSnapshot`] of its devices and
//! plan keys; import re-plans every key, so a reloaded engine serves what
//! planning returns, not what a file claims.
//!
//! Counter accounting is conserved per cache: every lookup is either a
//! build or a hit (`geometry_builds + geometry_cache_hits` equals device
//! resolutions, `synth_calls + synth_cache_hits` equals synthesis requests,
//! `plan_builds + plan_cache_hits` equals `plans`), with insertion-race
//! losers and served slots counted as hits. The plan counters, the search
//! counts and the `plan` stage live in the scratches' tallies until
//! [`Engine::snapshot`] sums them with the registry's (see
//! [`Metrics::snapshot`]); a dropped scratch's tally is folded into the
//! registry. The multi-thread stress suite asserts these identities under
//! 16-way concurrent mixed load.

use crate::error::CostError;
use crate::metrics::{Metrics, MetricsSnapshot, PlanTally};
use crate::requirements::PrrRequirements;
use crate::search::{plan_requirements_cached, PlanScratch, PrrPlan};
use crate::shard::{
    DeviceEntry, DeviceId, DeviceTable, EngineToken, PackedKey, PlanKey, Sharded, SynthKey,
};
use fabric::{Device, DeviceGeometry, Family};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
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

/// Number of served-plan slots a [`PlanScratch`] keeps: a direct-mapped
/// table indexed by the low bits of the packed [`PlanKey`], one 64-byte
/// slot per entry (8 KiB). Two keys that share a slot evict each other,
/// and each then pays the shared memo's probe: six keys share none of 128
/// slots with probability 0.89 (0.79 at 64), and 48 keys leave about two
/// thirds alone in theirs.
const SERVED_SLOTS: usize = 128;

/// A plan the scratch was served, under its key.
type ServedPlan = Option<(PlanKey, Arc<Result<PrrPlan, CostError>>)>;

/// A [`PlanScratch`]'s tie to the engine it plans on: the engine's token,
/// the tally of the engine's counters that only this scratch writes, and
/// the plans this scratch was served. Slots key plans by [`DeviceId`]s of
/// this engine, so they never outlive the binding.
pub(crate) struct EngineBinding {
    token: EngineToken,
    tally: Arc<PlanTally>,
    served: Box<[ServedPlan; SERVED_SLOTS]>,
}

impl core::fmt::Debug for EngineBinding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EngineBinding")
            .field("token", &self.token)
            .field("tally", &self.tally)
            .field("served", &self.served.iter().flatten().count())
            .finish()
    }
}

impl PlanScratch {
    /// The binding made by this plan call's [`Engine::bind`].
    fn bound(&mut self) -> &mut EngineBinding {
        self.engine
            .as_mut()
            .expect("the plan call bound its scratch first")
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
    /// The call plans on a scratch of its own, which binds to the engine
    /// for this one plan; a caller that plans repeatedly should keep a
    /// scratch and call [`Engine::plan_with_scratch`].
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
    /// a layout-hash intern lookup, a served-slot compare (a shard probe
    /// on a slot miss) and an `Arc` clone. Whole plan results (feasible
    /// and infeasible alike) are
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
        self.bind(scratch).tally.plans.incr();
        let device = self.intern_device(device);
        Arc::clone(self.plan_resolved(req, &device, scratch))
    }

    /// Plan `req` on a device already resolved by
    /// [`Engine::intern_device`], returning the shared result from
    /// `scratch`'s served-plan slots.
    ///
    /// A warm hit whose plan this scratch was served before reads and
    /// writes only the scratch: the packed key, one slot compare and the
    /// scratch's own counter tally. It takes no lock, bumps no refcount,
    /// allocates nothing and compares no device. On a slot miss the call
    /// probes the engine's shared memo (and on a memo miss runs the
    /// cached Fig. 1 search and memoizes it), then keeps the result in the
    /// slot; the shared memo stays the one source of truth. Clone the
    /// `Arc` to keep a result past the scratch's next plan.
    ///
    /// # Panics
    ///
    /// If `device` was resolved by another engine. Its [`DeviceId`]
    /// indexes that engine's interner, so planning it here would memoize
    /// a plan under the wrong device's key.
    pub fn plan_on<'s>(
        &self,
        req: &PrrRequirements,
        device: &DeviceHandle,
        scratch: &'s mut PlanScratch,
    ) -> &'s Arc<Result<PrrPlan, CostError>> {
        assert!(
            device.token == self.token,
            "device handle for `{}` was resolved by another engine",
            device.device().name()
        );
        self.bind(scratch).tally.plans.incr();
        self.plan_resolved(req, device, scratch)
    }

    /// `scratch`'s binding to this engine, made on first use. A scratch
    /// that last planned on another engine is rebound: its slots key plans
    /// by that engine's device ids, so they go, and its tally goes to that
    /// engine's next fold.
    fn bind<'s>(&self, scratch: &'s mut PlanScratch) -> &'s mut EngineBinding {
        let binding = &mut scratch.engine;
        if binding.as_ref().is_none_or(|b| b.token != self.token) {
            *binding = Some(EngineBinding {
                token: self.token,
                tally: self.metrics.register_tally(),
                served: Box::new([const { None }; SERVED_SLOTS]),
            });
        }
        scratch.bound()
    }

    /// The memo path behind every plan, on a bound scratch whose tally
    /// already counts the plan: serve the slot, or on a slot miss take the
    /// shared memo's result into it; then count the outcome.
    fn plan_resolved<'s>(
        &self,
        req: &PrrRequirements,
        device: &DeviceHandle,
        scratch: &'s mut PlanScratch,
    ) -> &'s Arc<Result<PrrPlan, CostError>> {
        let key = PlanKey::new(req, device.id);
        let slot = key.packed() as usize % SERVED_SLOTS;
        let binding = scratch.bound();
        if matches!(&binding.served[slot], Some((served, _)) if *served == key) {
            binding.tally.plan_cache_hits.incr();
        } else {
            let plan = self.plan_shared(key, req, device, scratch);
            scratch.bound().served[slot] = Some((key, plan));
        }
        let binding = scratch.bound();
        let (_, plan) = binding.served[slot].as_ref().expect("slot filled above");
        binding.tally.outcome(plan.is_ok());
        plan
    }

    /// A slot miss: the shared memo's result for `key`, or the cached
    /// Fig. 1 search's, memoized. Counts the hit or build on the scratch's
    /// tally.
    fn plan_shared(
        &self,
        key: PlanKey,
        req: &PrrRequirements,
        device: &DeviceHandle,
        scratch: &mut PlanScratch,
    ) -> Arc<Result<PrrPlan, CostError>> {
        if let Some(hit) = self.plan_memo.get(&key) {
            scratch.bound().tally.plan_cache_hits.incr();
            return hit;
        }
        let result = self.search(req, device, scratch);
        // First writer wins: a racing loser computed an identical result
        // (plans are deterministic) and shares the winner's allocation;
        // its plan counts as a hit so builds + hits == plans.
        let (stored, inserted) = self.plan_memo.insert_or_get(key, Arc::new(result));
        let tally = &scratch.bound().tally;
        if inserted {
            tally.plan_builds.incr();
        } else {
            tally.plan_cache_hits.incr();
        }
        stored
    }

    /// The cached Fig. 1 search for `req` on `device`, on a bound
    /// scratch. Its time goes under the `plan` stage, and its
    /// padded-fallback and window-probe deltas into the scratch's tally:
    /// the search takes no lock and writes no shared memory.
    fn search(
        &self,
        req: &PrrRequirements,
        device: &DeviceHandle,
        scratch: &mut PlanScratch,
    ) -> Result<PrrPlan, CostError> {
        let padded_before = scratch.padded_resolution_count();
        let probes_before = scratch.window_probe_count();
        let start = Instant::now();
        let result = plan_requirements_cached(req, device.device(), device.geometry(), scratch);
        let elapsed = start.elapsed();
        let padded = scratch.padded_resolution_count() - padded_before;
        let probes = scratch.window_probe_count() - probes_before;
        scratch.bound().tally.searched(elapsed, padded, probes);
        result
    }

    /// Number of memoized plan points (feasible and infeasible).
    pub fn plan_memo_len(&self) -> usize {
        self.plan_memo.len()
    }

    /// Snapshot of the engine's metrics, with the distinct interned
    /// compositions folded in from the interned geometries. Window probes
    /// are already in the registry's tallies: each search adds its
    /// scratch's delta once.
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

    /// Export the engine's plan memo as a versioned, deterministic
    /// snapshot: the interned devices in intern order and the memoized
    /// plan keys, sorted. Neither plans nor window geometries are
    /// serialized: both are pure functions of what the snapshot holds,
    /// and import recomputes them.
    pub fn export_state(&self) -> EngineSnapshot {
        let devices: Vec<Device> = self
            .devices
            .entries_in_order()
            .iter()
            .map(|e| e.device.clone())
            .collect();
        let mut plans = Vec::new();
        self.plan_memo.for_each(|k, _| {
            plans.push(PlanRecord {
                device: k.device.index() as u32,
                family: k.family,
                req: k.req,
            });
        });
        plans.sort_by_key(|r| (r.device, r.family as u8, r.req));
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            devices,
            plans,
        }
    }

    /// Rebuild an engine from an exported snapshot: re-intern every
    /// device (rebuilding its window geometry), then re-plan every
    /// recorded key with the memo's own cached search and memoize the
    /// result, `Err` plans included. The restored engine therefore serves
    /// exactly what planning those keys returns, whatever else a file
    /// claims. The import serves no plan, so the plan counters start at
    /// zero; `geometry_builds`, `window_probes`, `padded_fallbacks` and
    /// the `plan` stage count the work done here.
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
        let mut handles = Vec::with_capacity(snapshot.devices.len());
        for (index, device) in snapshot.devices.iter().enumerate() {
            // Ids are dense in intern order, so a repeat of an earlier
            // device gets that device's smaller id back.
            let handle = engine.intern_device(device);
            if handle.id.index() != index {
                return Err(SnapshotError::DuplicateDevice {
                    index,
                    first: handle.id.index(),
                });
            }
            handles.push(handle);
        }
        // Bound first, so the searches count into the scratch's tally.
        let mut scratch = PlanScratch::default();
        engine.bind(&mut scratch);
        for record in &snapshot.plans {
            let device = handles.get(record.device as usize).ok_or(
                SnapshotError::DeviceIndexOutOfRange {
                    index: record.device,
                    devices: snapshot.devices.len(),
                },
            )?;
            let key = PlanKey::from_parts(device.id, record.family, record.req);
            let plan = engine.search(&key.requirements(), device, &mut scratch);
            engine.plan_memo.insert_or_get(key, Arc::new(plan));
        }
        Ok(engine)
    }
}

/// Version tag of [`EngineSnapshot`]; bump on any layout change so stale
/// snapshots are rejected instead of misread.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Serializable memo state of an [`Engine`]: interned devices (in
/// [`DeviceId`] order) and the key of every memoized plan, `Ok` and `Err`
/// alike. Deterministic for a given memo content (records are
/// key-sorted), so equal engines export equal snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Snapshot layout version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Interned devices, index == [`DeviceId::index`].
    pub devices: Vec<Device>,
    /// Plan memo keys.
    pub plans: Vec<PlanRecord>,
}

/// One plan-memo key of an [`EngineSnapshot`]; import re-plans it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRecord {
    /// Index into [`EngineSnapshot::devices`].
    pub device: u32,
    /// Requirement family.
    pub family: Family,
    /// The packed requirement numbers
    /// (`[LUT_FF_req, LUT_req, FF_req, DSP_req, BRAM_req]`).
    pub req: [u64; 5],
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
    use crate::search::plan_prr_from_requirements;
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

    /// Probes are counted in each worker's scratch and added to its tally
    /// once per search: a grid planned on a cold engine from four threads
    /// (released together by a barrier), each with its own scratch,
    /// reports exactly the probes and padded fallbacks a serial replay
    /// counts, and one `plan` stage sample per build. The grid has no
    /// repeated point, so no two threads can race to plan the same one.
    /// The counts hold while the scratches are alive (summed from their
    /// tallies) and after they drop (folded), so each tally counts once.
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
        let scratches: Vec<PlanScratch> = std::thread::scope(|scope| {
            let workers: Vec<_> = parts
                .into_iter()
                .map(|part| {
                    let (engine, start) = (&engine, &start);
                    scope.spawn(move || {
                        let mut scratch = PlanScratch::default();
                        start.wait();
                        for (req, device) in part {
                            engine.plan_requirements(req, device, &mut scratch);
                        }
                        scratch
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let check = |snap: MetricsSnapshot| {
            let c = snap.counters;
            assert_eq!(c.plan_builds, grid.len() as u64);
            assert_eq!(c.window_probes, expected.window_probes);
            assert_eq!(c.padded_fallbacks, expected.padded_fallbacks);
            let plan = snap.stages.iter().find(|s| s.name == "plan").unwrap();
            assert_eq!(plan.count, c.plan_builds);
            assert_eq!(plan.buckets.iter().sum::<u64>(), plan.count);
        };
        assert_eq!(engine.metrics().live_tallies(), 4);
        check(engine.snapshot());
        drop(scratches);
        check(engine.snapshot());
        assert_eq!(engine.metrics().live_tallies(), 0);
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
        let first = Arc::clone(engine.plan_on(&req, &handle, &mut scratch));
        assert_eq!(*first, plan_prr(&report, &v5));
        // The handle and the `&Device` path share one memo entry.
        let again = engine.plan_on(&req, &handle.clone(), &mut scratch);
        assert!(Arc::ptr_eq(&first, again));
        let via_device = engine.plan_arc(&report, &v5, &mut scratch);
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
            other
                .plan_on(&req, &foreign, &mut PlanScratch::default())
                .is_ok()
        }));
        let message = outcome.expect_err("a foreign handle must panic");
        let message = message.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("resolved by another engine"), "{message}");
        assert_eq!(other.snapshot().counters.plans, 0);
        assert_eq!(other.plan_memo_len(), 0);
    }

    /// A scratch that moves to another engine must not serve the first
    /// engine's plans. Both engines intern a different Virtex-5 part
    /// first, so `DeviceId(0)` names another device on each and one
    /// requirement keys both plans identically: a served slot that
    /// survived the rebind would hand engine B engine A's window.
    #[test]
    fn a_rebound_scratch_serves_and_counts_only_its_new_engine() {
        let (lx, sx) = (xc5vlx110t(), fabric::device_by_name("xc5vsx95t").unwrap());
        let (a, b) = (Engine::new(), Engine::new());
        let (on_a, on_b) = (a.intern_device(&lx), b.intern_device(&sx));
        assert_eq!(
            on_a.id(),
            on_b.id(),
            "both engines key their device as id 0"
        );
        let report = PaperPrm::Fir.synth_report(Family::Virtex5);
        let req = PrrRequirements::from_report(&report);
        let (expect_a, expect_b) = (plan_prr(&report, &lx), plan_prr(&report, &sx));
        assert_ne!(expect_a, expect_b, "the two parts plan FIR differently");

        let mut scratch = PlanScratch::default();
        assert_eq!(**a.plan_on(&req, &on_a, &mut scratch), expect_a);
        assert_eq!(**b.plan_on(&req, &on_b, &mut scratch), expect_b);
        assert_eq!(**b.plan_on(&req, &on_b, &mut scratch), expect_b);
        let counts = |engine: &Engine| {
            let c = engine.snapshot().counters;
            (c.plans, c.plan_builds, c.plan_cache_hits, c.plans_feasible)
        };
        assert_eq!(counts(&a), (1, 1, 0, 1), "A counts only its own plan");
        assert_eq!(
            counts(&b),
            (2, 1, 1, 2),
            "B built its own plan, then served it"
        );
        // Back on A, the slots hold B's plan under the same key: A's memo
        // answers instead, and A's first tally was folded on the way.
        assert_eq!(**a.plan_on(&req, &on_a, &mut scratch), expect_a);
        assert_eq!(counts(&a), (2, 1, 1, 2));
        assert_eq!(counts(&b), (2, 1, 1, 2));
    }

    /// Served slots are direct-mapped, so points that share a slot evict
    /// each other; an evicted point is served again from the shared memo,
    /// never from its neighbour's slot. 200 points on one scratch, twice.
    #[test]
    fn colliding_points_are_served_from_the_memo() {
        let engine = Engine::new();
        let v6 = xc6vlx75t();
        let handle = engine.intern_device(&v6);
        let reqs: Vec<PrrRequirements> = (0..200u64)
            .map(|i| PrrRequirements::new(v6.family(), 40 * i + 8, 30 * i, 30 * i, i % 7, i % 5))
            .collect();
        let mut scratch = PlanScratch::default();
        for _ in 0..2 {
            for req in &reqs {
                let served = engine.plan_on(req, &handle, &mut scratch);
                assert_eq!(
                    **served,
                    crate::search::plan_prr_from_requirements(req, &v6)
                );
            }
        }
        let c = engine.snapshot().counters;
        assert_eq!((c.plans, c.plan_builds, c.plan_cache_hits), (400, 200, 200));
    }

    /// Every `Engine::plan` call plans on a scratch of its own, which
    /// registers a tally and drops it. The counts stay exact, and each
    /// registration folds the dropped tallies, so they never pile up.
    #[test]
    fn throwaway_scratches_count_exactly_and_fold_their_tallies() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let report = PaperPrm::Mips.synth_report(v5.family());
        for _ in 0..10_000 {
            engine.plan(&report, &v5).unwrap();
        }
        assert_eq!(engine.metrics().live_tallies(), 1, "only the last call's");
        let c = engine.snapshot().counters;
        assert_eq!(
            (
                c.plans,
                c.plan_builds,
                c.plan_cache_hits,
                c.plans_feasible,
                c.plans_infeasible
            ),
            (10_000, 1, 9_999, 10_000, 0)
        );
        assert_eq!((c.geometry_builds, c.geometry_cache_hits), (1, 9_999));
        assert_eq!(engine.metrics().live_tallies(), 0, "the snapshot folded it");
        assert_eq!(engine.metrics().plans.get(), 10_000);
        assert_eq!(engine.snapshot().counters, c);
    }

    /// A clone of a bound scratch starts unbound: it registers a tally of
    /// its own and serves nothing until its first plan. Two writers on
    /// one tally would lose counts.
    #[test]
    fn a_cloned_scratch_shares_no_tally_or_slots() {
        let engine = Engine::new();
        let v5 = xc5vlx110t();
        let handle = engine.intern_device(&v5);
        let req = PrrRequirements::from_report(&PaperPrm::Fir.synth_report(v5.family()));
        let mut original = PlanScratch::default();
        engine.plan_on(&req, &handle, &mut original);
        let mut copy = original.clone();
        assert!(copy.engine.is_none(), "a clone starts unbound");
        engine.plan_on(&req, &handle, &mut copy);
        engine.plan_on(&req, &handle, &mut original);
        let tally = |scratch: &PlanScratch| Arc::clone(&scratch.engine.as_ref().unwrap().tally);
        assert!(!Arc::ptr_eq(&tally(&original), &tally(&copy)));
        assert_eq!(engine.metrics().live_tallies(), 2);
        let c = engine.snapshot().counters;
        // The copy's first plan missed its empty slots and hit the memo.
        assert_eq!((c.plans, c.plan_builds, c.plan_cache_hits), (3, 1, 2));
        drop((original, copy));
        assert_eq!(engine.snapshot().counters, c);
        assert_eq!(engine.metrics().live_tallies(), 0);
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
        assert_eq!(c.plan_builds, 0, "the restored memo served every plan");
        assert_eq!(c.plan_cache_hits, c.plans);
        // Exporting the restored engine reproduces the snapshot exactly.
        assert_eq!(restored.export_state(), state);
    }

    /// A file in the first snapshot layout, which also held synthesis
    /// reports and each key's plan, still decodes: its version refuses it.
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
        let json = serde_json::to_string(&engine.export_state()).unwrap();
        let v1 = json
            .replace("\"version\":2", "\"version\":1")
            .replace("\"plans\":[", "\"synth\":[],\"plans\":[");
        assert_ne!(v1, json);
        let error = Engine::import_state(&serde_json::from_str(&v1).unwrap()).unwrap_err();
        assert_eq!(
            error.to_string(),
            "engine snapshot version 1 is not supported (this engine reads 2)"
        );
        let mut state = engine.export_state();
        state.plans[0].device = 99;
        assert!(matches!(
            Engine::import_state(&state),
            Err(SnapshotError::DeviceIndexOutOfRange { index: 99, .. })
        ));
    }

    /// A snapshot holds plan keys only, and import re-plans each one with
    /// the memo's search: every restored plan equals direct planning of
    /// its key. Keys that no request on that device would make import as
    /// `Err` plans, not a panic: a family that does not match its device,
    /// and `u64::MAX` requirement numbers.
    #[test]
    fn import_replans_every_key_and_errs_on_hostile_keys() {
        let engine = Engine::new();
        let (v5, v6) = (xc5vlx110t(), xc6vlx75t());
        for prm in PaperPrm::ALL {
            evaluate(&engine, prm.generator().as_ref(), &v5).unwrap();
            evaluate(&engine, prm.generator().as_ref(), &v6).unwrap();
        }
        let mut state = engine.export_state();
        assert_eq!(state.devices, [v5, v6]);
        let hostile = [
            PlanRecord {
                device: 0,
                family: Family::Virtex6,
                req: [96, 72, 72, 1, 1],
            },
            PlanRecord {
                device: 1,
                family: Family::Virtex6,
                req: [u64::MAX; 5],
            },
        ];
        state.plans.extend(hostile.clone());
        let json = serde_json::to_string(&state).unwrap();
        let restored = Engine::import_state(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(restored.plan_memo_len(), state.plans.len());
        let restored_plan = |record: &PlanRecord| {
            let id = DeviceId::from_index(record.device as usize);
            let key = PlanKey::from_parts(id, record.family, record.req);
            let plan = restored.plan_memo.get(&key).expect("every key is memoized");
            let direct = plan_prr_from_requirements(
                &key.requirements(),
                &state.devices[record.device as usize],
            );
            assert_eq!(*plan, direct, "{record:?}");
            plan
        };
        for record in &state.plans {
            restored_plan(record);
        }
        assert!(matches!(
            *restored_plan(&hostile[0]),
            Err(CostError::FamilyMismatch { .. })
        ));
        assert!(restored_plan(&hostile[1]).is_err());
        let c = restored.snapshot().counters;
        assert_eq!((c.plans, c.plan_builds, c.plan_cache_hits), (0, 0, 0));
        assert_eq!(c.geometry_builds, 2);
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
