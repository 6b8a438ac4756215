//! A generational slab arena assigning dense `u32` slots to stored objects.
//!
//! The engine's per-object bookkeeping used to live in `ObjectId`-keyed
//! maps; every hot-path touch paid a hash or tree lookup. The arena gives
//! each resident object a dense `u32` slot at admission, so the engine's
//! indexes ([`dense`](crate::dense)) can address per-object metadata with
//! a plain vector index. Slots are recycled through a free list, and each
//! slot carries a generation counter bumped on removal: a stale
//! [`ArenaIdx`] held across a recycle can never alias the new occupant
//! (the ABA guard the arena property tests pin down).
//!
//! External ids reach their slots through an `IdTable`: open addressing
//! with linear probing over inline `(id, slot)` pairs, whose deletions
//! shift later entries back instead of leaving tombstones. A hash map
//! whose removals leave tombstones runs out of growth room under steady
//! churn and doubles with no more live ids; this table grows only when
//! its live ids need the room.
//!
//! Serialization round-trips through exactly the same content tree as the
//! `BTreeMap<ObjectId, StoredObject>` it replaced — an id-keyed object map
//! in ascending id order — so persisted units remain byte-identical.

use std::fmt;

use serde::{Content, Deserialize, Error, Serialize};

use crate::{ObjectId, StoredObject};

/// An [`IdTable`] bucket: an id and its slot, or vacant.
#[derive(Clone, Copy)]
struct Bucket {
    id: u64,
    slot: u32,
}

impl Bucket {
    /// The slot value that marks a vacant bucket.
    const VACANT_SLOT: u32 = u32::MAX;
    const VACANT: Bucket = Bucket {
        id: 0,
        slot: Bucket::VACANT_SLOT,
    };

    fn is_vacant(self) -> bool {
        self.slot == Bucket::VACANT_SLOT
    }
}

/// The fewest buckets an [`IdTable`] allocates.
const MIN_BUCKETS: usize = 16;

/// A map from [`ObjectId`]s to arena slots, by linear probing over inline
/// `(id, slot)` buckets.
///
/// * A probe starts at the id's *home* bucket, the top bits of the id
///   times 2⁶⁴/φ (Fibonacci hashing: no per-process seed, so the layout
///   is the same in every run), and walks forward, wrapping past the
///   last bucket, to the id or a vacant bucket.
/// * Removal shifts each later entry of the probe run back into the gap
///   when the gap lies on that entry's probe path, so no tombstone is
///   left: every bucket holds a live entry or is vacant.
/// * The table keeps at most three quarters of its buckets full and
///   doubles only when an insert of a new id would pass that, so
///   removals followed by inserts never grow it.
///
/// It is never iterated: the arena's own id order comes from its slots.
/// Slot `u32::MAX` marks a vacant bucket and cannot be stored.
#[derive(Clone, Default)]
struct IdTable {
    buckets: Vec<Bucket>,
    len: usize,
}

impl fmt::Debug for IdTable {
    /// A map from ids to slots, in bucket order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.buckets.iter().filter(|bucket| !bucket.is_vacant());
        f.debug_map()
            .entries(entries.map(|bucket| (ObjectId::new(bucket.id), bucket.slot)))
            .finish()
    }
}

impl IdTable {
    /// The bucket a probe for `id` starts at, at the current number of
    /// buckets (at least one).
    fn home(&self, id: ObjectId) -> usize {
        let shift = 64 - self.buckets.len().trailing_zeros();
        (id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// The bucket holding `id`, or the vacant bucket that ends its probe.
    #[inline]
    fn probe(&self, id: ObjectId) -> (usize, Bucket) {
        let mask = self.buckets.len() - 1;
        let mut at = self.home(id);
        loop {
            let bucket = self.buckets[at];
            if bucket.is_vacant() || bucket.id == id.raw() {
                return (at, bucket);
            }
            at = (at + 1) & mask;
        }
    }

    /// The slot mapped to `id`.
    #[inline]
    fn get(&self, id: ObjectId) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let (_, bucket) = self.probe(id);
        (!bucket.is_vacant()).then_some(bucket.slot)
    }

    /// Maps `id` to `slot`, returning the slot it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is `u32::MAX`, the vacancy mark.
    fn insert(&mut self, id: ObjectId, slot: u32) -> Option<u32> {
        assert!(
            slot != Bucket::VACANT_SLOT,
            "slot u32::MAX marks a vacant bucket"
        );
        if !self.buckets.is_empty() {
            let (at, bucket) = self.probe(id);
            if !bucket.is_vacant() {
                self.buckets[at].slot = slot;
                return Some(bucket.slot);
            }
            if (self.len + 1) * 4 <= self.buckets.len() * 3 {
                self.buckets[at] = Bucket { id: id.raw(), slot };
                self.len += 1;
                return None;
            }
        }
        self.grow();
        let (at, _) = self.probe(id);
        self.buckets[at] = Bucket { id: id.raw(), slot };
        self.len += 1;
        None
    }

    /// Unmaps `id`, returning its slot. Later entries of its probe run
    /// shift back over the gap, so the run stays unbroken without a
    /// tombstone.
    fn remove(&mut self, id: ObjectId) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let (mut gap, bucket) = self.probe(id);
        if bucket.is_vacant() {
            return None;
        }
        let mask = self.buckets.len() - 1;
        let mut at = gap;
        loop {
            at = (at + 1) & mask;
            let next = self.buckets[at];
            if next.is_vacant() {
                break;
            }
            // `next` may fill the gap unless its home lies after the gap
            // on the run, i.e. its probe starts between the gap and it.
            let from_home = at.wrapping_sub(self.home(ObjectId::new(next.id))) & mask;
            if from_home >= at.wrapping_sub(gap) & mask {
                self.buckets[gap] = next;
                gap = at;
            }
        }
        self.buckets[gap] = Bucket::VACANT;
        self.len -= 1;
        Some(bucket.slot)
    }

    /// Doubles the buckets (or allocates the first ones) and re-places
    /// every entry.
    fn grow(&mut self) {
        let buckets = (self.buckets.len() * 2).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::VACANT; buckets]);
        for bucket in old.into_iter().filter(|bucket| !bucket.is_vacant()) {
            let (at, _) = self.probe(ObjectId::new(bucket.id));
            self.buckets[at] = bucket;
        }
    }
}

/// A generation-checked handle to an arena slot.
///
/// Resolving a handle after its object was removed (and even after the
/// slot was recycled for a different object) yields `None` rather than
/// the new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaIdx {
    slot: u32,
    generation: u32,
}

impl ArenaIdx {
    /// The dense slot index (valid only while the generation matches).
    pub fn slot(self) -> u32 {
        self.slot
    }

    /// The slot generation this handle was issued under.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    object: Option<StoredObject>,
}

/// A generational arena of [`StoredObject`]s with dense `u32` slots.
///
/// # Examples
///
/// ```
/// use sim_core::{ByteSize, SimTime};
/// use temporal_importance::arena::ObjectArena;
/// use temporal_importance::{ImportanceCurve, ObjectId, ObjectSpec, StoredObject};
///
/// let mut arena = ObjectArena::new();
/// let spec = ObjectSpec::new(ObjectId::new(7), ByteSize::from_mib(1), ImportanceCurve::Persistent);
/// let idx = arena.insert(StoredObject::from_spec(spec, SimTime::ZERO));
/// assert_eq!(arena.resolve(idx).unwrap().id(), ObjectId::new(7));
/// arena.remove(ObjectId::new(7));
/// assert!(arena.resolve(idx).is_none(), "stale handles never alias");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjectArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    by_id: IdTable,
    len: usize,
}

impl ObjectArena {
    /// An empty arena.
    pub fn new() -> Self {
        ObjectArena::default()
    }

    /// Number of resident objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no objects are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if an object with this id is resident.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.by_id.get(id).is_some()
    }

    /// Admits an object, assigning it a dense slot (recycled if any are
    /// free, fresh otherwise).
    ///
    /// # Panics
    ///
    /// Panics if an object with the same id is already resident; callers
    /// check [`contains`](ObjectArena::contains) first.
    pub fn insert(&mut self, object: StoredObject) -> ArenaIdx {
        let id = object.id();
        let slot = match self.free.pop() {
            Some(slot) => {
                let entry = &mut self.slots[slot as usize];
                debug_assert!(entry.object.is_none(), "free-listed slot is occupied");
                entry.object = Some(object);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("arena slot overflow");
                self.slots.push(Slot {
                    generation: 0,
                    object: Some(object),
                });
                slot
            }
        };
        // One probe covers both the duplicate check and the mapping.
        let previous = self.by_id.insert(id, slot);
        assert!(previous.is_none(), "duplicate object id {id}");
        self.len += 1;
        ArenaIdx {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// Removes an object by id, returning it.
    pub fn remove(&mut self, id: ObjectId) -> Option<StoredObject> {
        self.remove_entry(id).map(|(_, object)| object)
    }

    /// Removes an object by id, returning its slot and the object. The
    /// slot's generation is bumped so existing handles go stale before the
    /// slot is recycled.
    pub(crate) fn remove_entry(&mut self, id: ObjectId) -> Option<(u32, StoredObject)> {
        let slot = self.by_id.remove(id)?;
        let entry = &mut self.slots[slot as usize];
        let object = entry.object.take().expect("mapped slot is occupied");
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(slot);
        self.len -= 1;
        Some((slot, object))
    }

    /// The current handle for a resident id.
    pub fn lookup(&self, id: ObjectId) -> Option<ArenaIdx> {
        let slot = self.by_id.get(id)?;
        Some(ArenaIdx {
            slot,
            generation: self.slots[slot as usize].generation,
        })
    }

    /// Resolves a handle, failing if the object was removed since the
    /// handle was issued — even if the slot has been recycled.
    pub fn resolve(&self, idx: ArenaIdx) -> Option<&StoredObject> {
        let entry = self.slots.get(idx.slot as usize)?;
        if entry.generation != idx.generation {
            return None;
        }
        entry.object.as_ref()
    }

    /// Looks up a resident object by id.
    pub fn get(&self, id: ObjectId) -> Option<&StoredObject> {
        let slot = self.by_id.get(id)?;
        self.slots[slot as usize].object.as_ref()
    }

    /// The object occupying `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant — callers hold slots obtained from the
    /// live index, which is kept in lockstep with the arena.
    #[inline]
    pub(crate) fn at(&self, slot: u32) -> &StoredObject {
        self.slots[slot as usize]
            .object
            .as_ref()
            .expect("indexed slot is vacant")
    }

    /// Mutable access to the object occupying `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub(crate) fn at_mut(&mut self, slot: u32) -> &mut StoredObject {
        self.slots[slot as usize]
            .object
            .as_mut()
            .expect("indexed slot is vacant")
    }

    /// Resident objects in unspecified (slot) order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &StoredObject> {
        self.slots.iter().filter_map(|slot| slot.object.as_ref())
    }

    /// Resident objects in ascending id order — the iteration order of the
    /// `BTreeMap` this arena replaced, which ordered float accumulations
    /// and trace output depend on. Sorts on demand: O(n log n), for
    /// scan/rebuild paths only, never per-operation.
    pub fn iter(&self) -> impl Iterator<Item = &StoredObject> {
        let mut refs: Vec<&StoredObject> = self.values().collect();
        refs.sort_unstable_by_key(|object| object.id());
        refs.into_iter()
    }

    /// Occupied slots in ascending id order of their objects (the rebuild
    /// path, matching the insertion order of a fresh index).
    pub(crate) fn slots_by_id(&self) -> Vec<u32> {
        let mut slots: Vec<(ObjectId, u32)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(slot, entry)| entry.object.as_ref().map(|o| (o.id(), slot as u32)))
            .collect();
        slots.sort_unstable();
        slots.into_iter().map(|(_, slot)| slot).collect()
    }
}

impl Serialize for ObjectArena {
    fn to_content(&self) -> Content {
        // Identical to BTreeMap<ObjectId, StoredObject>: an object map
        // keyed by decimal id in ascending order.
        Content::Map(
            self.iter()
                .map(|object| (object.id().raw().to_string(), object.to_content()))
                .collect(),
        )
    }
}

impl Deserialize for ObjectArena {
    fn deserialize(content: &Content) -> Result<Self, Error> {
        let entries = match content {
            Content::Map(entries) => entries,
            other => {
                return Err(Error::custom(format!(
                    "invalid type: expected object, got {}",
                    other.kind()
                )))
            }
        };
        let mut arena = ObjectArena::new();
        for (key, value) in entries {
            key.parse::<u64>()
                .map_err(|_| Error::custom(format!("invalid object id key `{key}`")))?;
            let object = StoredObject::deserialize(value)?;
            if arena.contains(object.id()) {
                return Err(Error::custom(format!(
                    "duplicate object id {}",
                    object.id()
                )));
            }
            arena.insert(object);
        }
        Ok(arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ImportanceCurve, ObjectSpec};
    use rand::Rng;
    use sim_core::{rng, ByteSize, SimTime};
    use std::collections::BTreeMap;

    fn object(id: u64) -> StoredObject {
        let spec = ObjectSpec::new(
            ObjectId::new(id),
            ByteSize::from_mib(1),
            ImportanceCurve::Persistent,
        );
        StoredObject::from_spec(spec, SimTime::ZERO)
    }

    #[test]
    fn slots_are_dense_and_recycled() {
        let mut arena = ObjectArena::new();
        let a = arena.insert(object(10));
        let b = arena.insert(object(20));
        assert_eq!((a.slot(), b.slot()), (0, 1));
        arena.remove(ObjectId::new(10));
        let c = arena.insert(object(30));
        assert_eq!(c.slot(), 0, "freed slot is recycled");
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn stale_handles_never_alias_recycled_slots() {
        let mut arena = ObjectArena::new();
        let a = arena.insert(object(10));
        arena.remove(ObjectId::new(10));
        assert!(arena.resolve(a).is_none());
        let b = arena.insert(object(30));
        assert_eq!(b.slot(), a.slot());
        assert_ne!(b.generation(), a.generation());
        assert!(arena.resolve(a).is_none(), "stale generation rejected");
        assert_eq!(arena.resolve(b).unwrap().id(), ObjectId::new(30));
    }

    #[test]
    fn iter_is_in_id_order_regardless_of_slot_order() {
        let mut arena = ObjectArena::new();
        arena.insert(object(5));
        arena.insert(object(1));
        arena.remove(ObjectId::new(5));
        arena.insert(object(3)); // recycles slot 0
        let ids: Vec<u64> = arena.iter().map(|o| o.id().raw()).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(arena.slots_by_id(), vec![1, 0]);
    }

    #[test]
    fn serde_matches_the_btreemap_format() {
        let mut arena = ObjectArena::new();
        arena.insert(object(7));
        arena.insert(object(2));
        let mut map = BTreeMap::new();
        map.insert(ObjectId::new(7), object(7));
        map.insert(ObjectId::new(2), object(2));
        assert_eq!(arena.to_content(), map.to_content());

        let back = ObjectArena::deserialize(&arena.to_content()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(ObjectId::new(7)).unwrap().id(), ObjectId::new(7));
    }

    /// Cases for the id-table model: `DIFF_CASES` when set (the nightly
    /// deep fuzz runs 4096), else 256.
    fn id_table_cases() -> u64 {
        std::env::var("DIFF_CASES")
            .ok()
            .and_then(|cases| cases.parse().ok())
            .unwrap_or(256)
    }

    /// The buckets an `IdTable` needs for `peak` live ids: the fewest (at
    /// least 16, a power of two) that keep it at most three quarters full.
    fn buckets_for(peak: usize) -> usize {
        if peak == 0 {
            return 0;
        }
        let mut buckets = MIN_BUCKETS;
        while peak * 4 > buckets * 3 {
            buckets *= 2;
        }
        buckets
    }

    /// Replays random inserts, removals and lookups against a `BTreeMap`
    /// model. The ids are drawn from a pool of 32: eight share one home
    /// bucket at 16 buckets, eight start in the last two buckets, whose
    /// probe runs wrap past the table's end, and sixteen are random. Up to
    /// 32 live ids take the table from 16 buckets through 32 to 64, where
    /// the colliding ids still start within a few buckets of each other.
    /// After every step every pool id answers as the model does, and the
    /// table has exactly the buckets the most ids it has held need.
    #[test]
    fn id_table_matches_a_btreemap_model() {
        let (mut collided, mut wrapped) = (0, 0);
        for case in 0..id_table_cases() {
            let mut rng = rng::stream(case, "id-table-model");
            let mut sixteen = IdTable::default();
            sixteen.insert(ObjectId::new(0), 0);
            assert_eq!(sixteen.buckets.len(), 16);
            let (mut shared, mut tail) = (Vec::new(), Vec::new());
            while shared.len() < 8 || tail.len() < 8 {
                let id = ObjectId::new(rng.gen());
                match sixteen.home(id) {
                    3 if shared.len() < 8 => shared.push(id),
                    14 | 15 if tail.len() < 8 => tail.push(id),
                    _ => {}
                }
            }
            let mut pool: Vec<ObjectId> = shared.into_iter().chain(tail).collect();
            pool.extend((0..16).map(|_| ObjectId::new(rng.gen())));

            let mut table = IdTable::default();
            let mut model: BTreeMap<ObjectId, u32> = BTreeMap::new();
            let mut peak = 0;
            for step in 0..400 {
                let id = pool[rng.gen_range(0..pool.len())];
                match rng.gen_range(0u32..10) {
                    0..=4 => {
                        let slot = rng.gen_range(0..u32::MAX);
                        assert_eq!(table.insert(id, slot), model.insert(id, slot));
                    }
                    5..=7 => assert_eq!(table.remove(id), model.remove(&id)),
                    _ => assert_eq!(table.get(id), model.get(&id).copied()),
                }
                assert_eq!(table.len, model.len(), "case {case} step {step}");
                for &id in &pool {
                    let expected = model.get(&id).copied();
                    assert_eq!(table.get(id), expected, "case {case} step {step} {id}");
                }
                peak = peak.max(model.len());
                let buckets = table.buckets.len();
                assert_eq!(buckets, buckets_for(peak), "case {case} step {step}");
                if buckets > 0 {
                    let mut homes: Vec<usize> = model.keys().map(|&id| table.home(id)).collect();
                    homes.sort_unstable();
                    collided += homes.windows(2).any(|w| w[0] == w[1]) as u64;
                    // More live ids start in the last two buckets than fit
                    // there: some probe run has wrapped to the front.
                    wrapped += (homes.iter().filter(|&&h| h >= buckets - 2).count() > 2) as u64;
                }
            }
        }
        assert!(collided > 0 && wrapped > 0, "{collided} {wrapped}");
    }

    /// Churn at a steady live count never grows the table: 10k live ids,
    /// then 1M cycles that each remove a random live id and insert a new
    /// one. A table whose removals leave tombstones runs out of room under
    /// this and doubles; backward-shift deletion leaves none.
    #[test]
    fn churn_never_grows_the_id_table() {
        let mut rng = rng::stream(0, "id-table-churn");
        let mut table = IdTable::default();
        let mut live: Vec<ObjectId> = (0..10_000).map(ObjectId::new).collect();
        for (slot, &id) in live.iter().enumerate() {
            table.insert(id, slot as u32);
        }
        let buckets = table.buckets.len();
        assert_eq!(buckets, buckets_for(live.len()));
        for next in 10_000..1_010_000u64 {
            let at = rng.gen_range(0..live.len());
            assert_eq!(table.remove(live[at]), Some(at as u32));
            live[at] = ObjectId::new(next);
            assert_eq!(table.insert(live[at], at as u32), None);
        }
        assert_eq!(table.buckets.len(), buckets, "churn grew the table");
        assert_eq!(table.len, live.len());
        for (slot, &id) in live.iter().enumerate() {
            assert_eq!(table.get(id), Some(slot as u32));
        }
    }

    #[test]
    fn deserialize_rejects_bad_keys_and_duplicates() {
        let bad_key = Content::Map(vec![("x".into(), object(1).to_content())]);
        assert!(ObjectArena::deserialize(&bad_key).is_err());
        let dup = Content::Map(vec![
            ("1".into(), object(1).to_content()),
            ("1".into(), object(1).to_content()),
        ]);
        assert!(ObjectArena::deserialize(&dup).is_err());
        assert!(ObjectArena::deserialize(&Content::Null).is_err());
    }
}
