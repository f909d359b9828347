//! Sharded concurrent memo primitives for the planning engine.
//!
//! The paper's cost models are pure functions of (requirements, device
//! layout), so whole plans memoize perfectly — but a single
//! `RwLock<HashMap>` memo serializes every writer and, with owned
//! `String`/`Vec` keys, allocates on every *lookup*, hit or miss. This
//! module supplies the two pieces that make the memo concurrent and
//! allocation-free:
//!
//! * [`DeviceTable`] — interns each distinct device layout once, handing
//!   back a dense [`DeviceId`] and a shared [`DeviceGeometry`]. The hot
//!   lookup is one read-lock probe of a layout-hash table followed by a
//!   full structural equality check (hash collisions must not alias two
//!   devices), with zero allocation.
//! * [`Sharded`] — a striped hash map of [`SHARD_COUNT`] independent
//!   `RwLock<HashMap>` shards. Keys carry their own well-mixed packed
//!   `u64` ([`PackedKey`]); the top bits pick the shard and the rest feed
//!   the in-shard bucket hash (the same splitmix64 mixer the composition
//!   index uses), so concurrent writers collide only when they race on
//!   the same key's shard — 1/64th of the old contention — and readers
//!   never allocate.
//!
//! [`PlanKey`] packs a plan-memo key — the five Table I requirement
//! numbers plus the interned device — into a `Copy` value. Equality is on
//! the *full* field set; the packed hash is only a router, so a 64-bit
//! collision costs a shared shard, never a wrong plan.

use crate::requirements::PrrRequirements;
use fabric::{splitmix64, Device, DeviceGeometry, Family};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Number of independent lock stripes in a [`Sharded`] map. 64 keeps the
/// per-shard write collision probability negligible at 16 workers while
/// the whole shard array (64 `RwLock`s) still fits in a few cache lines
/// of pointers.
pub const SHARD_COUNT: usize = 64;

/// A key that can summarize itself as a well-mixed 64-bit value.
///
/// `packed()` must be deterministic and *equal keys must pack equal*;
/// distinct keys should pack distinct with overwhelming probability but
/// are allowed to collide — [`Sharded`] always verifies full key
/// equality behind the hash.
pub trait PackedKey {
    /// The well-mixed 64-bit summary.
    fn packed(&self) -> u64;
}

/// Hasher that finalizes an already-packed `u64` key with splitmix64.
/// Writing anything but a single `u64` is a logic error.
#[derive(Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("sharded-memo keys hash as a single u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = splitmix64(key);
    }
}

/// Identifier of a device layout interned in a [`DeviceTable`]: a dense
/// index, stable for the table's lifetime and across snapshot
/// persist/reload (snapshots store devices in id order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(u32);

impl DeviceId {
    /// The dense table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from a dense index (snapshot reload path; the caller
    /// must guarantee the index addresses the same device order).
    pub fn from_index(index: usize) -> Self {
        DeviceId(u32::try_from(index).expect("device table exceeds u32 ids"))
    }
}

/// Process-unique identity of one [`crate::Engine`] instance.
///
/// [`DeviceId`]s are dense per-engine indices, so a resolved device is
/// only meaningful against the engine that interned it. Every
/// [`crate::DeviceHandle`] carries its engine's token, and
/// [`crate::Engine::plan_on`] compares it with its own before planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineToken(u64);

impl Default for EngineToken {
    fn default() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        EngineToken(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// An interned device: the layout itself plus its derived geometry.
#[derive(Debug)]
pub struct DeviceEntry {
    /// The interned device layout (an owned copy; callers keep borrowing
    /// their own device, the table never hands out aliases into it).
    pub device: Device,
    /// Composition-indexed window geometry, derived once at intern time.
    pub geometry: Arc<DeviceGeometry>,
}

/// Interned entries sharing one 64-bit layout hash (more than one only
/// on a collision; equality is always verified).
type HashBucket = Vec<(DeviceId, Arc<DeviceEntry>)>;

/// Device-layout interner: layout → ([`DeviceId`], shared geometry).
///
/// Read-mostly by construction (a sweep or a request stream touches a
/// handful of devices and millions of plans), so one `RwLock` per map is
/// enough — a plan on a `&Device` takes a single uncontended read lock
/// here, a plan on a resolved [`crate::DeviceHandle`] none, and all real
/// concurrency lands on the [`Sharded`] plan memo.
#[derive(Debug, Default)]
pub struct DeviceTable {
    /// `layout_hash` → interned entries with that hash.
    by_hash: RwLock<HashMap<u64, HashBucket, BuildHasherDefault<MixHasher>>>,
    /// Dense id → entry, in intern order.
    entries: RwLock<Vec<Arc<DeviceEntry>>>,
}

impl DeviceTable {
    /// New empty table.
    pub fn new() -> Self {
        DeviceTable::default()
    }

    /// The interned entry for `device`, if it has been seen. Zero
    /// allocation: one streamed layout hash, one read-lock probe, and a
    /// structural equality check per hash candidate.
    pub fn lookup(&self, device: &Device) -> Option<(DeviceId, Arc<DeviceEntry>)> {
        let hash = device.layout_hash();
        let map = self.by_hash.read();
        let candidates = map.get(&hash)?;
        candidates
            .iter()
            .find(|(_, entry)| entry.device == *device)
            .map(|(id, entry)| (*id, Arc::clone(entry)))
    }

    /// Intern `device` with `geometry` (derived by the caller, typically
    /// under a metrics timer). Returns the entry to use and whether this
    /// call inserted it — a racing loser gets the winner's entry back, so
    /// every caller shares one geometry per layout.
    pub fn insert(
        &self,
        device: &Device,
        geometry: Arc<DeviceGeometry>,
    ) -> (DeviceId, Arc<DeviceEntry>, bool) {
        let hash = device.layout_hash();
        let mut map = self.by_hash.write();
        let candidates = map.entry(hash).or_default();
        if let Some((id, entry)) = candidates.iter().find(|(_, entry)| entry.device == *device) {
            return (*id, Arc::clone(entry), false);
        }
        let mut entries = self.entries.write();
        let id = DeviceId::from_index(entries.len());
        let entry = Arc::new(DeviceEntry {
            device: device.clone(),
            geometry,
        });
        entries.push(Arc::clone(&entry));
        candidates.push((id, Arc::clone(&entry)));
        (id, entry, true)
    }

    /// The entry interned as `id`, or `None` for a foreign id.
    pub fn get(&self, id: DeviceId) -> Option<Arc<DeviceEntry>> {
        self.entries.read().get(id.index()).map(Arc::clone)
    }

    /// Number of interned devices.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All interned entries in [`DeviceId`] order (snapshot persistence).
    pub fn entries_in_order(&self) -> Vec<Arc<DeviceEntry>> {
        self.entries.read().clone()
    }
}

/// Odd multipliers of [`PlanKey`]'s digest: one for the device and family
/// word, then one per requirement number. Odd, so each product is a
/// bijection of its field; distinct, so the fields are not
/// interchangeable in the sum.
const KEY_MULTIPLIERS: [u64; 6] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
];

/// Plan-memo key: the five Table I requirement numbers, the family, and
/// the interned device. `Copy`, allocation-free to build and hash.
/// `CLB_req` is intentionally absent: Eq. (1) derives it from
/// `LUT_FF_req` and the family, so it adds no information. The packed
/// digest is computed once at construction, in one pass: each field is
/// multiplied by its own odd constant, independently of the others, and
/// one splitmix64 finalizer mixes the sum. Shard routing, the in-shard
/// bucket hash and a plan scratch's served-plan slot all reuse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanKey {
    /// Interned device layout.
    pub device: DeviceId,
    /// Requirement family.
    pub family: Family,
    /// `[LUT_FF_req, LUT_req, FF_req, DSP_req, BRAM_req]`.
    pub req: [u64; 5],
    /// Precomputed [`PackedKey::packed`] digest of the fields above.
    packed: u64,
}

impl PlanKey {
    /// Key for planning `req` on `device`.
    pub fn new(req: &PrrRequirements, device: DeviceId) -> Self {
        PlanKey::from_parts(
            device,
            req.family,
            [
                req.lut_ff_req,
                req.lut_req,
                req.ff_req,
                req.dsp_req,
                req.bram_req,
            ],
        )
    }

    /// Key from its raw stored fields (snapshot reload path).
    pub fn from_parts(device: DeviceId, family: Family, req: [u64; 5]) -> Self {
        let head = u64::from(device.0) | (family as u64) << 32;
        let sum = req
            .iter()
            .zip(&KEY_MULTIPLIERS[1..])
            .fold(head.wrapping_mul(KEY_MULTIPLIERS[0]), |sum, (field, k)| {
                sum.wrapping_add(field.wrapping_mul(*k))
            });
        let packed = splitmix64(sum);
        PlanKey {
            device,
            family,
            req,
            packed,
        }
    }

    /// Reconstruct the requirements this key was built from (snapshot
    /// reload). Exact: the key carries every field `PrrRequirements::new`
    /// consumes, and Eq. (1) re-derives `clb_req` deterministically.
    pub fn requirements(&self) -> PrrRequirements {
        PrrRequirements::new(
            self.family,
            self.req[0],
            self.req[1],
            self.req[2],
            self.req[3],
            self.req[4],
        )
    }
}

impl PackedKey for PlanKey {
    fn packed(&self) -> u64 {
        self.packed
    }
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.packed());
    }
}

/// Synthesis-memo key: generator fingerprint × family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthKey {
    /// [`synth::PrmGenerator::fingerprint`] of the generator.
    pub fingerprint: u64,
    /// Family synthesized for.
    pub family: Family,
}

impl PackedKey for SynthKey {
    fn packed(&self) -> u64 {
        splitmix64(self.fingerprint ^ ((self.family as u64) << 56))
    }
}

impl Hash for SynthKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.packed());
    }
}

/// A striped concurrent map: [`SHARD_COUNT`] independent
/// `RwLock<HashMap>` shards routed by the key's packed hash.
///
/// Semantics are first-writer-wins ([`Sharded::insert_or_get`]), which
/// is what a deterministic memo needs: racing builders compute identical
/// values, one insert lands, everyone shares it.
#[derive(Debug)]
pub struct Sharded<K, V> {
    shards: Vec<RwLock<HashMap<K, V, BuildHasherDefault<MixHasher>>>>,
}

impl<K: PackedKey + Eq + Hash, V: Clone> Sharded<K, V> {
    /// New empty map with [`SHARD_COUNT`] shards.
    pub fn new() -> Self {
        Sharded {
            shards: (0..SHARD_COUNT).map(|_| RwLock::default()).collect(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V, BuildHasherDefault<MixHasher>>> {
        // Top bits pick the shard; the in-shard bucket hash re-mixes the
        // whole packed value, so shard and bucket selection stay
        // effectively independent.
        &self.shards[(key.packed() >> 58) as usize & (SHARD_COUNT - 1)]
    }

    /// Clone of the value under `key`, if present. One read lock on one
    /// shard; no allocation beyond what `V::clone` itself does.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).read().get(key).cloned()
    }

    /// Insert `value` unless `key` is already present; returns the stored
    /// value (the winner's, on a race) and whether this call inserted.
    pub fn insert_or_get(&self, key: K, value: V) -> (V, bool) {
        let mut shard = self.shard(&key).write();
        match shard.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (e.get().clone(), false),
            std::collections::hash_map::Entry::Vacant(v) => (v.insert(value).clone(), true),
        }
    }

    /// Total entries across all shards (point-in-time sum; shards are
    /// locked one at a time).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Visit a point-in-time copy of every entry (shard by shard, read
    /// locks only). Used by snapshot persistence; iteration order is
    /// shard order then in-shard hash order — callers needing stable
    /// output must sort.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in &self.shards {
            for (k, v) in shard.read().iter() {
                f(k, v);
            }
        }
    }
}

impl<K: PackedKey + Eq + Hash, V: Clone> Default for Sharded<K, V> {
    fn default() -> Self {
        Sharded::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::database::{xc5vlx110t, xc6vlx75t};

    #[test]
    fn device_table_interns_once_and_survives_name_collisions() {
        let table = DeviceTable::new();
        let v5 = xc5vlx110t();
        assert!(table.lookup(&v5).is_none());
        let (id1, e1, inserted1) = table.insert(&v5, Arc::new(DeviceGeometry::new(&v5)));
        assert!(inserted1);
        let (id2, e2, inserted2) = table.insert(&v5, Arc::new(DeviceGeometry::new(&v5)));
        assert!(!inserted2, "second insert must reuse the first entry");
        assert_eq!(id1, id2);
        assert!(Arc::ptr_eq(&e1, &e2));
        let (id3, _) = table.lookup(&v5).unwrap();
        assert_eq!(id1, id3);

        // Same name, different layout: must intern separately.
        let twin =
            Device::new(v5.name(), v5.family(), v5.rows() + 1, v5.columns().to_vec()).unwrap();
        let (id4, _, inserted4) = table.insert(&twin, Arc::new(DeviceGeometry::new(&twin)));
        assert!(inserted4);
        assert_ne!(id1, id4);
        assert_eq!(table.len(), 2);
        assert_eq!(table.get(id1).unwrap().device, v5);
        assert_eq!(table.get(id4).unwrap().device, twin);
        assert!(table.get(DeviceId::from_index(7)).is_none());
    }

    #[test]
    fn plan_key_round_trips_requirements() {
        let req = PrrRequirements::new(Family::Virtex5, 1303, 1201, 1140, 8, 3);
        let key = PlanKey::new(&req, DeviceId::from_index(3));
        assert_eq!(key.requirements(), req);
        // clb_req is derived, not stored: same five numbers → same key.
        assert_eq!(key, PlanKey::new(&req, DeviceId::from_index(3)));
        assert_ne!(
            key.packed(),
            PlanKey::new(&req, DeviceId::from_index(4)).packed()
        );
    }

    #[test]
    fn sharded_map_is_first_writer_wins() {
        let map: Sharded<PlanKey, u64> = Sharded::new();
        let req = PrrRequirements::new(Family::Virtex6, 10, 10, 10, 0, 0);
        let key = PlanKey::new(&req, DeviceId::from_index(0));
        assert!(map.get(&key).is_none());
        let (v, inserted) = map.insert_or_get(key, 7);
        assert!(inserted);
        assert_eq!(v, 7);
        let (v, inserted) = map.insert_or_get(key, 9);
        assert!(!inserted, "existing entry wins");
        assert_eq!(v, 7);
        assert_eq!(map.get(&key), Some(7));
        assert_eq!(map.len(), 1);
        assert!(!map.is_empty());
    }

    #[test]
    fn sharded_map_spreads_keys_across_shards() {
        let map: Sharded<PlanKey, usize> = Sharded::new();
        let mut shards_touched = std::collections::HashSet::new();
        for i in 0..512u64 {
            let req = PrrRequirements::new(Family::Virtex5, i, i, i, 0, 0);
            let key = PlanKey::new(&req, DeviceId::from_index(0));
            shards_touched.insert((key.packed() >> 58) as usize & (SHARD_COUNT - 1));
            map.insert_or_get(key, i as usize);
        }
        assert_eq!(map.len(), 512);
        assert!(
            shards_touched.len() > SHARD_COUNT / 2,
            "packed keys must spread over the stripes ({} of {SHARD_COUNT})",
            shards_touched.len()
        );
        let mut seen = 0;
        map.for_each(|_, _| seen += 1);
        assert_eq!(seen, 512);
    }

    #[test]
    fn distinct_devices_get_distinct_ids_across_table() {
        let table = DeviceTable::new();
        for d in [xc5vlx110t(), xc6vlx75t()] {
            table.insert(&d, Arc::new(DeviceGeometry::new(&d)));
        }
        assert_eq!(table.len(), 2);
        let order = table.entries_in_order();
        assert_eq!(order[0].device, xc5vlx110t());
        assert_eq!(order[1].device, xc6vlx75t());
    }
}
