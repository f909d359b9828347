//! Dependency-free observability for the planning engine.
//!
//! A [`Metrics`] registry holds lock-free atomic counters (cache hits,
//! plan outcomes), labeled counters and per-stage wall-clock histograms
//! (log₂-bucketed, behind a `parking_lot` mutex). Counters can be bumped
//! concurrently from every worker of a parallel sweep;
//! [`Metrics::snapshot`] produces a serializable [`MetricsSnapshot`] that
//! `serde_json` exports for the CLI's `--metrics` flag and the benchmark
//! artifacts.
//!
//! A labeled counter is an atomic slot too: its label registers one
//! shared [`Counter`] on first use, and the registry's lock guards only
//! the label-to-slot map. A hot path holds the slot
//! ([`Metrics::labeled_counter`], or a [`GlobalCounter`] in a `static`)
//! and bumps it with one atomic add, without a lock or a lookup.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A monotonic event counter, safe to bump from any thread.
///
/// Increments are `Release` and reads `Acquire`: a read that sees an
/// increment also sees every counter write its thread made before it,
/// which is what keeps [`Metrics::snapshot`]'s part-before-total
/// inequalities true under the memory model. On x86-64 both orderings
/// compile to the same instructions as `Relaxed`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A labeled counter of [`Metrics::global`], meant for a `static`: the
/// label registers its slot on the first bump, and every bump is then one
/// atomic add on the slot.
#[derive(Debug)]
pub struct GlobalCounter {
    label: &'static str,
    slot: OnceLock<Arc<Counter>>,
}

impl GlobalCounter {
    /// A handle on the global labeled counter `label`.
    pub const fn new(label: &'static str) -> Self {
        GlobalCounter {
            label,
            slot: OnceLock::new(),
        }
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.slot
            .get_or_init(|| Metrics::global().labeled_counter(self.label))
            .add(n);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }
}

/// Number of log₂ nanosecond buckets (covers 1 ns .. ~18 s and beyond).
const BUCKETS: usize = 40;

/// Accumulated wall-clock statistics for one pipeline stage.
#[derive(Debug, Clone)]
struct StageStats {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// `buckets[i]` counts samples with `floor(log2(ns)) == i` (clamped).
    buckets: [u64; BUCKETS],
}

impl StageStats {
    fn new() -> Self {
        StageStats {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let bucket = (64 - ns.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Upper bound of the bucket holding the `q`-quantile sample,
    /// clamped to the observed `[min_ns, max_ns]`.
    fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (1u64 << (i + 1).min(63)).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }
}

/// A thread-safe registry of engine counters and stage timings.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Generator synthesis runs actually executed.
    pub synth_calls: Counter,
    /// Synthesis requests answered from the per-family memo.
    pub synth_cache_hits: Counter,
    /// Device geometries derived.
    pub geometry_builds: Counter,
    /// Geometry requests answered from the per-device cache.
    pub geometry_cache_hits: Counter,
    /// Padded-fallback enumerations resolved (geometry-cached planning
    /// only; one per distinct composition with no exact window).
    pub padded_fallbacks: Counter,
    /// Composition-index lookups made by geometry-cached plans. Each
    /// worker counts its lookups in its own `PlanScratch`; the engine
    /// adds one plan's total here once, after the plan.
    pub window_probes: Counter,
    /// Plans attempted.
    pub plans: Counter,
    /// Plans answered from the engine's whole-plan memo.
    pub plan_cache_hits: Counter,
    /// Plans actually computed and inserted into the memo (memo misses
    /// that won the insertion race). The engine's accounting invariant is
    /// `plan_builds + plan_cache_hits == plans`: every plan either built
    /// its memo entry or was served by someone else's.
    pub plan_builds: Counter,
    /// Plans that found a feasible PRR.
    pub plans_feasible: Counter,
    /// Plans that failed (no placement, mismatched family, ...).
    pub plans_infeasible: Counter,
    stages: Mutex<BTreeMap<&'static str, StageStats>>,
    /// Labeled counter families (`"layout:allocs"`, `"flow:jobs"`, ...):
    /// open-ended observability for subsystems whose counters are not
    /// known to this crate at compile time. Keys are `family:name`
    /// strings; unknown families must be tolerated by every snapshot
    /// consumer (see the schema-stability test). Each label maps to its
    /// shared slot; the lock guards the map, not the values.
    labeled: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl Metrics {
    /// New empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The process-wide registry used by the non-engine entry points
    /// (e.g. [`crate::plan_prr`]) so one-off planning is observable too.
    pub fn global() -> &'static Metrics {
        static GLOBAL: OnceLock<Metrics> = OnceLock::new();
        GLOBAL.get_or_init(Metrics::new)
    }

    /// Record one `elapsed` sample for `stage`.
    pub fn record_stage(&self, stage: &'static str, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.stages
            .lock()
            .entry(stage)
            .or_insert_with(StageStats::new)
            .record(ns);
    }

    /// Run `f`, recording its wall-clock time under `stage`.
    pub fn time<T>(&self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record_stage(stage, start.elapsed());
        out
    }

    /// The slot of the labeled counter `label`, registered at zero on
    /// first use. Bumping the handle is one atomic add: no lock, no
    /// lookup, and the value is the one [`Metrics::labeled`] and the
    /// snapshot read.
    pub fn labeled_counter(&self, label: &str) -> Arc<Counter> {
        let mut map = self.labeled.lock();
        if let Some(slot) = map.get(label) {
            return Arc::clone(slot);
        }
        let slot = Arc::new(Counter::new());
        map.insert(label.to_string(), Arc::clone(&slot));
        slot
    }

    /// Add `n` to the labeled counter `label` (created on first use).
    ///
    /// Labels follow the `family:name` convention (`"layout:allocs"`).
    /// This takes the map's lock to find the slot; a per-event path
    /// should hold the slot instead ([`Metrics::labeled_counter`],
    /// [`GlobalCounter`]).
    pub fn add_labeled(&self, label: &str, n: u64) {
        let mut map = self.labeled.lock();
        match map.get(label) {
            Some(slot) => slot.add(n),
            None => {
                map.insert(label.to_string(), Arc::new(Counter(AtomicU64::new(n))));
            }
        }
    }

    /// Add one to the labeled counter `label`.
    pub fn incr_labeled(&self, label: &str) {
        self.add_labeled(label, 1);
    }

    /// Current value of the labeled counter `label` (zero if never hit).
    pub fn labeled(&self, label: &str) -> u64 {
        self.labeled.lock().get(label).map_or(0, |slot| slot.get())
    }

    /// Copy of all counters, labeled counters and stages.
    ///
    /// A snapshot taken while workers are bumping counters is **not** an
    /// atomic cut of the registry — the counters are independent
    /// atomics, and no lock synchronizes them. (An earlier revision
    /// claimed a "consistent point-in-time copy"; that was never true.)
    /// What a concurrent snapshot *does* guarantee is that the engine's
    /// accounting inequalities hold in the copy:
    ///
    /// * `plans_feasible + plans_infeasible <= plans`
    /// * `plan_builds + plan_cache_hits <= plans`
    /// * `geometry_builds + geometry_cache_hits <= plans`, but only while
    ///   every device resolution comes from a plan on a `&Device`. A
    ///   [`DeviceHandle`] resolves once for any number of
    ///   [`Engine::plan_on`] plans, and [`Engine::intern_device`] and
    ///   [`Engine::geometry`] resolve with no plan behind them.
    ///
    /// This works because the engine bumps each total **before** its
    /// parts (a plan increments `plans`, then exactly one of the geometry
    /// counters if it resolves a `&Device`, then one of the build/hit and
    /// one of the outcome counters),
    /// while the snapshot reads every part **before** the totals. Part
    /// increments are `Release` and the snapshot's part reads `Acquire`
    /// (see [`Counter`]), so a part increment visible to the early read
    /// carries its thread's earlier total increment with it, and the
    /// later total read sees at least as many. The gaps, if any, are
    /// exactly the plans in flight between the reads; on a quiescent
    /// registry the first two inequalities are equalities. The stage map
    /// is internally consistent — it is copied under its lock. Labeled
    /// counters are independent atomics like the fixed ones: the label
    /// set is copied under the map's lock, and each value is one read of
    /// its slot.
    ///
    /// [`DeviceHandle`]: crate::DeviceHandle
    /// [`Engine::plan_on`]: crate::Engine::plan_on
    /// [`Engine::geometry`]: crate::Engine::geometry
    /// [`Engine::intern_device`]: crate::Engine::intern_device
    pub fn snapshot(&self) -> MetricsSnapshot {
        let labeled = self
            .labeled
            .lock()
            .iter()
            .map(|(name, slot)| LabeledCounter {
                name: name.clone(),
                value: slot.get(),
            })
            .collect();
        let stages = self
            .stages
            .lock()
            .iter()
            .map(|(name, s)| StageSnapshot {
                name: (*name).to_string(),
                count: s.count,
                total_ns: s.total_ns,
                mean_ns: s.total_ns.checked_div(s.count).unwrap_or(0),
                min_ns: if s.count == 0 { 0 } else { s.min_ns },
                max_ns: s.max_ns,
                p50_ns: s.quantile_ns(0.50),
                p90_ns: s.quantile_ns(0.90),
                p99_ns: s.quantile_ns(0.99),
                buckets: {
                    let used = s.buckets.iter().rposition(|&n| n != 0).map_or(0, |i| i + 1);
                    s.buckets[..used].to_vec()
                },
            })
            .collect();
        // Parts strictly before totals (see the doc comment): outcome,
        // build/hit and geometry splits first, `plans` last.
        let plans_feasible = self.plans_feasible.get();
        let plans_infeasible = self.plans_infeasible.get();
        let plan_cache_hits = self.plan_cache_hits.get();
        let plan_builds = self.plan_builds.get();
        let geometry_builds = self.geometry_builds.get();
        let geometry_cache_hits = self.geometry_cache_hits.get();
        let plans = self.plans.get();
        MetricsSnapshot {
            counters: CounterSnapshot {
                synth_calls: self.synth_calls.get(),
                synth_cache_hits: self.synth_cache_hits.get(),
                geometry_builds,
                geometry_cache_hits,
                window_probes: self.window_probes.get(),
                // Composition counts live in the interned geometries; a
                // bare registry reports zero and the batch engine's
                // snapshot folds the real value in.
                distinct_compositions: 0,
                padded_fallbacks: self.padded_fallbacks.get(),
                plans,
                plan_cache_hits,
                plan_builds,
                plans_feasible,
                plans_infeasible,
            },
            stages,
            labeled,
        }
    }
}

/// Point-in-time counter values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Generator synthesis runs actually executed.
    pub synth_calls: u64,
    /// Synthesis requests answered from the per-family memo.
    pub synth_cache_hits: u64,
    /// Device geometries derived.
    pub geometry_builds: u64,
    /// Geometry requests answered from the per-device cache.
    pub geometry_cache_hits: u64,
    /// Composition-index probes made by geometry-cached plans (every
    /// probe is a lock-free index lookup — there is no hit/miss split).
    pub window_probes: u64,
    /// Distinct achievable compositions interned across the geometries.
    pub distinct_compositions: u64,
    /// Padded-fallback enumerations resolved (one per distinct composition
    /// with no exact-fit window).
    pub padded_fallbacks: u64,
    /// Plans attempted.
    pub plans: u64,
    /// Plans answered from the whole-plan memo.
    pub plan_cache_hits: u64,
    /// Plans computed and inserted into the memo (`plan_builds +
    /// plan_cache_hits == plans` on a quiescent engine).
    pub plan_builds: u64,
    /// Plans with a feasible PRR.
    pub plans_feasible: u64,
    /// Plans that failed.
    pub plans_infeasible: u64,
}

impl CounterSnapshot {
    /// Synthesis memo hit rate in `[0, 1]` (`None` with no requests).
    pub fn synth_hit_rate(&self) -> Option<f64> {
        rate(
            self.synth_cache_hits,
            self.synth_calls + self.synth_cache_hits,
        )
    }

    /// Geometry cache hit rate in `[0, 1]`.
    pub fn geometry_hit_rate(&self) -> Option<f64> {
        rate(
            self.geometry_cache_hits,
            self.geometry_builds + self.geometry_cache_hits,
        )
    }

    /// Whole-plan memo hit rate in `[0, 1]`.
    pub fn plan_hit_rate(&self) -> Option<f64> {
        rate(self.plan_cache_hits, self.plans)
    }
}

fn rate(hits: u64, total: u64) -> Option<f64> {
    (total > 0).then(|| hits as f64 / total as f64)
}

/// Point-in-time statistics for one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage name (`"synth"`, `"plan"`, `"geometry"`, ...).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Summed wall-clock nanoseconds.
    pub total_ns: u64,
    /// Mean nanoseconds per sample.
    pub mean_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Median (bucket upper bound, clamped to `[min_ns, max_ns]`).
    pub p50_ns: u64,
    /// 90th percentile (bucket upper bound, clamped to `[min_ns, max_ns]`).
    pub p90_ns: u64,
    /// 99th percentile (bucket upper bound, clamped to `[min_ns, max_ns]`).
    pub p99_ns: u64,
    /// Full log₂-nanosecond histogram: `buckets[i]` counts samples with
    /// `floor(log2(ns)) == i`, trailing zero buckets trimmed. Exported so
    /// benchmark artifacts (e.g. `BENCH_pipeline.json`) carry per-stage
    /// latency distributions, not just point quantiles.
    pub buckets: Vec<u64>,
}

/// `buckets` joined the schema after snapshots already existed in the
/// wild, so it rides the same tolerance contract as
/// `MetricsSnapshot::labeled`: serialized after the original fields,
/// optional (empty) on the way back in.
impl Serialize for StageSnapshot {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("count".to_string(), self.count.to_value()),
            ("total_ns".to_string(), self.total_ns.to_value()),
            ("mean_ns".to_string(), self.mean_ns.to_value()),
            ("min_ns".to_string(), self.min_ns.to_value()),
            ("max_ns".to_string(), self.max_ns.to_value()),
            ("p50_ns".to_string(), self.p50_ns.to_value()),
            ("p90_ns".to_string(), self.p90_ns.to_value()),
            ("p99_ns".to_string(), self.p99_ns.to_value()),
            ("buckets".to_string(), self.buckets.to_value()),
        ])
    }
}

impl Deserialize for StageSnapshot {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(StageSnapshot {
            name: serde::__field(v, "name")?,
            count: serde::__field(v, "count")?,
            total_ns: serde::__field(v, "total_ns")?,
            mean_ns: serde::__field(v, "mean_ns")?,
            min_ns: serde::__field(v, "min_ns")?,
            max_ns: serde::__field(v, "max_ns")?,
            p50_ns: serde::__field(v, "p50_ns")?,
            p90_ns: serde::__field(v, "p90_ns")?,
            p99_ns: serde::__field(v, "p99_ns")?,
            buckets: serde::__field(v, "buckets").unwrap_or_default(),
        })
    }
}

/// One labeled counter value (`family:name` key).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabeledCounter {
    /// Counter label, `family:name` (`"layout:allocs"`).
    pub name: String,
    /// Point-in-time value.
    pub value: u64,
}

/// A complete exportable metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: CounterSnapshot,
    /// Per-stage wall-clock statistics, sorted by stage name.
    pub stages: Vec<StageSnapshot>,
    /// Labeled counter families, sorted by label. New families may appear
    /// in any release; consumers must ignore labels they don't know.
    pub labeled: Vec<LabeledCounter>,
}

/// `labeled` is serialized after the original fields and is optional on
/// the way back in: snapshots written before the field existed (and
/// snapshots from future producers that drop it) still deserialize, with
/// `labeled` empty. This is the schema-stability contract the layout
/// counters ride on — adding a counter family never breaks a consumer.
impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("counters".to_string(), self.counters.to_value()),
            ("stages".to_string(), self.stages.to_value()),
            ("labeled".to_string(), self.labeled.to_value()),
        ])
    }
}

impl Deserialize for MetricsSnapshot {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(MetricsSnapshot {
            counters: serde::__field(v, "counters")?,
            stages: serde::__field(v, "stages")?,
            labeled: serde::__field(v, "labeled").unwrap_or_default(),
        })
    }
}

impl MetricsSnapshot {
    /// Total recorded time of `stage` (zero if absent).
    pub fn stage_total(&self, stage: &str) -> Duration {
        self.stages
            .iter()
            .find(|s| s.name == stage)
            .map(|s| Duration::from_nanos(s.total_ns))
            .unwrap_or(Duration::ZERO)
    }

    /// Value of the labeled counter `name` (zero if absent).
    pub fn labeled_value(&self, name: &str) -> u64 {
        self.labeled
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.plans.incr();
        m.plans.add(2);
        assert_eq!(m.plans.get(), 3);
        assert_eq!(m.snapshot().counters.plans, 3);
    }

    #[test]
    fn stage_stats_are_recorded() {
        let m = Metrics::new();
        m.record_stage("plan", Duration::from_micros(10));
        m.record_stage("plan", Duration::from_micros(30));
        let snap = m.snapshot();
        let s = &snap.stages[0];
        assert_eq!(s.name, "plan");
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 40_000);
        assert_eq!(s.mean_ns, 20_000);
        assert_eq!(s.min_ns, 10_000);
        assert_eq!(s.max_ns, 30_000);
        assert!(s.p50_ns >= 10_000);
        assert_eq!(snap.stage_total("plan"), Duration::from_nanos(40_000));
        assert_eq!(snap.stage_total("absent"), Duration::ZERO);
    }

    /// Quantiles never leave the observed range, even though they are
    /// read off power-of-two bucket bounds.
    #[test]
    fn quantiles_are_clamped_to_the_observed_range() {
        let m = Metrics::new();
        m.record_stage("one", Duration::from_nanos(1_000)); // bucket bound 1024
        let snap = m.snapshot();
        let s = &snap.stages[0];
        assert_eq!((s.p50_ns, s.p90_ns, s.p99_ns), (1_000, 1_000, 1_000));

        m.record_stage("two", Duration::from_nanos(600)); // bucket bound 1024
        m.record_stage("two", Duration::from_nanos(700));
        let snap = m.snapshot();
        let s = snap.stages.iter().find(|s| s.name == "two").unwrap();
        assert_eq!((s.p50_ns, s.p99_ns), (700, 700));
        assert!(s.min_ns <= s.p50_ns && s.p99_ns <= s.max_ns);
    }

    #[test]
    fn stage_buckets_export_and_schema_tolerance() {
        let m = Metrics::new();
        m.record_stage("pipeline:plan", Duration::from_nanos(10)); // log2 → 3
        m.record_stage("pipeline:plan", Duration::from_nanos(1024)); // log2 → 10
        let snap = m.snapshot();
        let s = &snap.stages[0];
        assert_eq!(s.buckets.len(), 11, "trailing zeros trimmed");
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        // A pre-`buckets` snapshot still parses, with the field empty.
        let serde::Value::Object(mut entries) = s.to_value() else {
            panic!("stage serializes as an object");
        };
        entries.retain(|(k, _)| k != "buckets");
        let old = StageSnapshot::from_value(&serde::Value::Object(entries)).unwrap();
        assert!(old.buckets.is_empty());
        assert_eq!(old.count, s.count);
        // And the full snapshot round-trips the histogram through JSON.
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let parsed: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.stages[0].buckets, s.buckets);
    }

    #[test]
    fn time_returns_the_closure_value() {
        let m = Metrics::new();
        let v = m.time("stage", || 42);
        assert_eq!(v, 42);
        assert_eq!(m.snapshot().stages[0].count, 1);
    }

    #[test]
    fn hit_rates() {
        let c = CounterSnapshot {
            synth_calls: 1,
            synth_cache_hits: 3,
            geometry_builds: 2,
            geometry_cache_hits: 2,
            window_probes: 10,
            distinct_compositions: 120,
            padded_fallbacks: 2,
            plans: 4,
            plan_cache_hits: 1,
            plan_builds: 3,
            plans_feasible: 3,
            plans_infeasible: 1,
        };
        assert_eq!(c.synth_hit_rate(), Some(0.75));
        assert_eq!(c.geometry_hit_rate(), Some(0.5));
        assert_eq!(c.plan_hit_rate(), Some(0.25));
        let empty = CounterSnapshot {
            synth_calls: 0,
            synth_cache_hits: 0,
            geometry_builds: 0,
            geometry_cache_hits: 0,
            window_probes: 0,
            distinct_compositions: 0,
            padded_fallbacks: 0,
            plans: 0,
            plan_cache_hits: 0,
            plan_builds: 0,
            plans_feasible: 0,
            plans_infeasible: 0,
        };
        assert_eq!(empty.synth_hit_rate(), None);
    }

    #[test]
    fn snapshot_round_trips_through_value() {
        let m = Metrics::new();
        m.synth_calls.add(2);
        m.record_stage("synth", Duration::from_nanos(1234));
        m.add_labeled("layout:allocs", 7);
        let snap = m.snapshot();
        let v = snap.to_value();
        let back = MetricsSnapshot::from_value(&v).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn labeled_counters_accumulate_and_snapshot_sorted() {
        let m = Metrics::new();
        m.incr_labeled("layout:releases");
        m.add_labeled("layout:allocs", 3);
        m.incr_labeled("layout:allocs");
        m.incr_labeled("flow:jobs");
        assert_eq!(m.labeled("layout:allocs"), 4);
        assert_eq!(m.labeled("layout:missing"), 0);
        let snap = m.snapshot();
        let names: Vec<&str> = snap.labeled.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["flow:jobs", "layout:allocs", "layout:releases"]);
        assert_eq!(snap.labeled_value("layout:allocs"), 4);
        assert_eq!(snap.labeled_value("unknown:x"), 0);
    }

    /// A held slot and the by-name calls read and write one value, and a
    /// label appears in the snapshot once registered, like one first
    /// bumped by name.
    #[test]
    fn labeled_slots_share_values_with_the_by_name_calls() {
        let m = Metrics::new();
        let allocs = m.labeled_counter("layout:allocs");
        assert_eq!(m.labeled("layout:allocs"), 0);
        allocs.incr();
        m.add_labeled("layout:allocs", 2);
        allocs.add(3);
        assert_eq!(m.labeled("layout:allocs"), 6);
        assert_eq!(m.labeled_counter("layout:allocs").get(), 6);
        assert_eq!(m.snapshot().labeled_value("layout:allocs"), 6);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let slot = m.labeled_counter("layout:releases");
                std::thread::spawn(move || (0..1000).for_each(|_| slot.incr()))
            })
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(m.labeled("layout:releases"), 4000);
        let names: Vec<String> = m.snapshot().labeled.into_iter().map(|c| c.name).collect();
        assert_eq!(names, ["layout:allocs", "layout:releases"]);

        static GLOBAL: GlobalCounter = GlobalCounter::new("metrics-test:global");
        let before = Metrics::global().labeled("metrics-test:global");
        GLOBAL.incr();
        GLOBAL.add(4);
        assert_eq!(Metrics::global().labeled("metrics-test:global"), before + 5);
    }

    /// Schema stability both directions: snapshots written before the
    /// `labeled` family existed still parse (field defaults to empty), and
    /// snapshots carrying label families a consumer has never heard of
    /// parse without error — consumers select by label, never by position.
    #[test]
    fn snapshot_schema_is_stable_across_label_families() {
        let m = Metrics::new();
        m.plans.add(5);
        let snap = m.snapshot();

        // Pre-`labeled` producer: strip the field entirely.
        let serde::Value::Object(mut entries) = snap.to_value() else {
            panic!("snapshot serializes as an object");
        };
        entries.retain(|(k, _)| k != "labeled");
        let old = MetricsSnapshot::from_value(&serde::Value::Object(entries)).unwrap();
        assert_eq!(old.counters.plans, 5);
        assert!(old.labeled.is_empty());

        // Future producer: unknown label families and extra top-level
        // fields must both be tolerated.
        let m2 = Metrics::new();
        m2.add_labeled("hologram:emitters", 9);
        let serde::Value::Object(mut entries) = m2.snapshot().to_value() else {
            panic!("snapshot serializes as an object");
        };
        entries.push(("future_field".to_string(), serde::Value::UInt(1)));
        let new = MetricsSnapshot::from_value(&serde::Value::Object(entries)).unwrap();
        assert_eq!(new.labeled_value("hologram:emitters"), 9);
        assert_eq!(new.labeled_value("layout:allocs"), 0);

        // And the JSON text form round-trips the same way.
        let text = serde_json::to_string_pretty(&m2.snapshot()).unwrap();
        let parsed: MetricsSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed.labeled_value("hologram:emitters"), 9);
    }
}
