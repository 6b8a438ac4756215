//! The object model: identifiers, classes, specifications and stored state.

use std::fmt;
use std::sync::Arc;

use serde::{Content, Deserialize, Error, Serialize};
use sim_core::{ByteSize, SimDuration, SimTime};

use crate::{Importance, ImportanceCurve};

/// A unique object identifier.
///
/// Ids are plain integers; workload generators allocate them monotonically
/// via [`ObjectIdGen`] so every simulated run is reproducible.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ObjectId(u64);

impl ObjectId {
    /// Creates an id from a raw integer.
    pub const fn new(raw: u64) -> Self {
        ObjectId(raw)
    }

    /// The raw integer value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// A monotonic [`ObjectId`] allocator.
///
/// # Examples
///
/// ```
/// use temporal_importance::ObjectIdGen;
///
/// let mut ids = ObjectIdGen::new();
/// let a = ids.next_id();
/// let b = ids.next_id();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ObjectIdGen {
    next: u64,
}

impl ObjectIdGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> Self {
        ObjectIdGen::default()
    }

    /// Creates a generator starting at the given raw id, e.g. to partition
    /// id spaces between independent generators.
    pub fn starting_at(raw: u64) -> Self {
        ObjectIdGen { next: raw }
    }

    /// Allocates the next id.
    pub fn next_id(&mut self) -> ObjectId {
        let id = ObjectId(self.next);
        self.next += 1;
        id
    }
}

/// An application-defined object class tag.
///
/// The core engine never interprets classes — they exist so experiments can
/// split results by creator (e.g. university cameras vs. student uploads in
/// §5.2) without the storage layer knowing about lectures.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ObjectClass(u16);

impl ObjectClass {
    /// The default class for objects that don't care.
    pub const GENERIC: ObjectClass = ObjectClass(0);

    /// Creates a class tag from a raw integer.
    pub const fn new(raw: u16) -> Self {
        ObjectClass(raw)
    }

    /// The raw tag value.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// A request to store an object: everything the creator supplies.
///
/// The tuple `(s, t_a, L)` of §3 — size, arrival time (supplied at the
/// store call), and the lifetime annotation — plus an id and a class tag.
///
/// # Examples
///
/// ```
/// use sim_core::{ByteSize, SimDuration};
/// use temporal_importance::{Importance, ImportanceCurve, ObjectId, ObjectSpec};
///
/// let spec = ObjectSpec::new(
///     ObjectId::new(1),
///     ByteSize::from_mib(700),
///     ImportanceCurve::two_step(
///         Importance::FULL,
///         SimDuration::from_days(15),
///         SimDuration::from_days(15),
///     ),
/// );
/// assert_eq!(spec.size(), ByteSize::from_mib(700));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectSpec {
    id: ObjectId,
    size: ByteSize,
    curve: ImportanceCurve,
    class: ObjectClass,
}

impl ObjectSpec {
    /// Creates a spec with the [`ObjectClass::GENERIC`] class.
    pub fn new(id: ObjectId, size: ByteSize, curve: ImportanceCurve) -> Self {
        ObjectSpec {
            id,
            size,
            curve,
            class: ObjectClass::GENERIC,
        }
    }

    /// Sets the class tag (builder style).
    #[must_use]
    pub fn with_class(mut self, class: ObjectClass) -> Self {
        self.class = class;
        self
    }

    /// The object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The object size.
    pub fn size(&self) -> ByteSize {
        self.size
    }

    /// The lifetime annotation.
    pub fn curve(&self) -> &ImportanceCurve {
        &self.curve
    }

    /// The class tag.
    pub fn class(&self) -> ObjectClass {
        self.class
    }
}

impl From<ObjectSpec> for crate::protocol::Request {
    /// The `Put` that stores `spec`.
    fn from(spec: ObjectSpec) -> Self {
        crate::protocol::Request::Put {
            id: spec.id,
            bytes: spec.size,
            curve: spec.curve,
            class: spec.class,
        }
    }
}

/// An object resident in a [`StorageUnit`](crate::StorageUnit).
///
/// A unit's residents of one curve shape share one allocation of the
/// curve (48 B a resident instead of 80); the curve reads, compares,
/// prints and serializes as if each held its own copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredObject {
    id: ObjectId,
    size: ByteSize,
    curve: SharedCurve,
    class: ObjectClass,
    arrival: SimTime,
    annotated_at: SimTime,
}

/// A curve behind an [`Arc`], shared by every resident of its shape in a
/// unit. `Debug`, equality and serde see only the curve, so a
/// [`StoredObject`] has the same forms as when it held the curve inline.
#[derive(Clone, PartialEq)]
struct SharedCurve(Arc<ImportanceCurve>);

impl fmt::Debug for SharedCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl Serialize for SharedCurve {
    fn to_content(&self) -> Content {
        self.0.to_content()
    }
}

impl Deserialize for SharedCurve {
    fn deserialize(content: &Content) -> Result<Self, Error> {
        ImportanceCurve::deserialize(content).map(|curve| SharedCurve(Arc::new(curve)))
    }
}

impl StoredObject {
    /// The resident state a [`StorageUnit`](crate::StorageUnit) records
    /// when admitting `spec` at `now`: arrival and annotation age both
    /// start at the store instant. Public so arena tooling and property
    /// tests can mint residents without driving a whole unit.
    pub fn from_spec(spec: ObjectSpec, now: SimTime) -> Self {
        let ObjectSpec {
            id,
            size,
            curve,
            class,
        } = spec;
        StoredObject {
            id,
            size,
            curve: SharedCurve(Arc::new(curve)),
            class,
            arrival: now,
            annotated_at: now,
        }
    }

    /// As [`from_spec`](StoredObject::from_spec), holding `curve` — the
    /// unit's shared allocation of a curve equal to the spec's — in place
    /// of a copy of its own.
    pub(crate) fn sharing(spec: ObjectSpec, curve: Arc<ImportanceCurve>, now: SimTime) -> Self {
        debug_assert!(*curve == spec.curve, "a shared curve equals the spec's");
        StoredObject {
            id: spec.id,
            size: spec.size,
            curve: SharedCurve(curve),
            class: spec.class,
            arrival: now,
            annotated_at: now,
        }
    }

    /// The object id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The object size.
    pub fn size(&self) -> ByteSize {
        self.size
    }

    /// The active lifetime annotation.
    pub fn curve(&self) -> &ImportanceCurve {
        &self.curve.0
    }

    /// The class tag.
    pub fn class(&self) -> ObjectClass {
        self.class
    }

    /// When the object entered the store.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// When the active annotation was applied (equals [`arrival`] unless
    /// the object was rejuvenated).
    ///
    /// [`arrival`]: StoredObject::arrival
    pub fn annotated_at(&self) -> SimTime {
        self.annotated_at
    }

    /// Age of the active annotation at `now`.
    pub fn annotation_age(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.annotated_at)
    }

    /// The object's current importance at `now`.
    pub fn current_importance(&self, now: SimTime) -> Importance {
        self.curve().importance_at(self.annotation_age(now))
    }

    /// Remaining time until the annotation expires, if it ever does.
    pub fn remaining_lifetime(&self, now: SimTime) -> Option<SimDuration> {
        self.curve()
            .expiry()
            .map(|e| e.saturating_sub(self.annotation_age(now)))
    }

    /// True if the annotation has expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        self.curve().is_expired(self.annotation_age(now))
    }

    /// The allocation holding the curve, shared with the unit's other
    /// residents of its shape.
    pub(crate) fn shared_curve(&self) -> &Arc<ImportanceCurve> {
        &self.curve.0
    }

    /// Replaces the annotation with `curve`, applied at `now`, and hands
    /// back the allocation it held.
    pub(crate) fn rejuvenate(
        &mut self,
        curve: Arc<ImportanceCurve>,
        now: SimTime,
    ) -> Arc<ImportanceCurve> {
        self.annotated_at = now;
        std::mem::replace(&mut self.curve, SharedCurve(curve)).0
    }

    /// Holds `curve`, an allocation equal to the object's own curve, in
    /// place of the one it holds.
    pub(crate) fn share_curve(&mut self, curve: &Arc<ImportanceCurve>) {
        debug_assert!(
            **curve == *self.curve.0,
            "a shared curve equals the object's"
        );
        if !Arc::ptr_eq(&self.curve.0, curve) {
            self.curve = SharedCurve(Arc::clone(curve));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    fn spec() -> ObjectSpec {
        ObjectSpec::new(
            ObjectId::new(7),
            ByteSize::from_mib(100),
            ImportanceCurve::two_step(
                Importance::FULL,
                SimDuration::from_days(10),
                SimDuration::from_days(10),
            ),
        )
    }

    #[test]
    fn id_gen_is_monotonic() {
        let mut g = ObjectIdGen::new();
        let ids: Vec<u64> = (0..5).map(|_| g.next_id().raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        let mut g = ObjectIdGen::starting_at(100);
        assert_eq!(g.next_id(), ObjectId::new(100));
    }

    #[test]
    fn spec_accessors_and_class_builder() {
        let s = spec().with_class(ObjectClass::new(3));
        assert_eq!(s.id(), ObjectId::new(7));
        assert_eq!(s.class(), ObjectClass::new(3));
        assert_eq!(s.class().to_string(), "class#3");
        assert_eq!(s.id().to_string(), "obj#7");
    }

    #[test]
    fn stored_object_tracks_age_and_importance() {
        let arrived = SimTime::from_days(100);
        let obj = StoredObject::from_spec(spec(), arrived);
        assert_eq!(obj.arrival(), arrived);
        assert_eq!(obj.current_importance(arrived), Importance::FULL);
        let mid_wane = arrived + SimDuration::from_days(15);
        assert_eq!(obj.current_importance(mid_wane).value(), 0.5);
        assert!(obj.is_expired(arrived + SimDuration::from_days(20)));
        assert_eq!(
            obj.remaining_lifetime(arrived + SimDuration::from_days(5)),
            Some(SimDuration::from_days(15))
        );
        assert_eq!(
            obj.remaining_lifetime(arrived + SimDuration::from_days(25)),
            Some(SimDuration::ZERO)
        );
    }

    /// A resident is 48 B: its curve is one shared allocation, not 40 B
    /// inline (80 B in all).
    #[test]
    fn a_resident_holds_its_curve_by_pointer() {
        assert!(std::mem::size_of::<StoredObject>() <= 48);
    }

    /// The shared curve is invisible to `Debug`, equality and serde: all
    /// read as the layout that held the curve inline.
    #[test]
    fn forms_match_the_inline_curve_layout() {
        mod inline {
            use super::*;

            #[derive(Debug, Serialize)]
            pub struct StoredObject {
                pub id: ObjectId,
                pub size: ByteSize,
                pub curve: ImportanceCurve,
                pub class: ObjectClass,
                pub arrival: SimTime,
                pub annotated_at: SimTime,
            }
        }
        let obj = StoredObject::from_spec(
            spec().with_class(ObjectClass::new(2)),
            SimTime::from_days(3),
        );
        let flat = inline::StoredObject {
            id: obj.id(),
            size: obj.size(),
            curve: obj.curve().clone(),
            class: obj.class(),
            arrival: obj.arrival(),
            annotated_at: obj.annotated_at(),
        };
        assert_eq!(format!("{obj:?}"), format!("{flat:?}"));
        assert_eq!(format!("{obj:#?}"), format!("{flat:#?}"));
        assert_eq!(obj.to_content(), flat.to_content());
        let back = StoredObject::deserialize(&obj.to_content()).unwrap();
        assert_eq!(back, obj);
        let mut shared = back.clone();
        shared.share_curve(&Arc::new(obj.curve().clone()));
        assert_eq!(shared, obj, "equality reads the curve, not its allocation");
    }

    #[test]
    fn rejuvenation_resets_annotation_age_not_arrival() {
        let arrived = SimTime::from_days(0);
        let mut obj = StoredObject::from_spec(spec(), arrived);
        let later = SimTime::from_days(19);
        assert!(obj.current_importance(later) < Importance::FULL);
        obj.rejuvenate(
            Arc::new(ImportanceCurve::fixed_lifetime(SimDuration::from_days(30))),
            later,
        );
        assert_eq!(obj.arrival(), arrived);
        assert_eq!(obj.annotated_at(), later);
        assert_eq!(obj.current_importance(later), Importance::FULL);
        assert!(obj.is_expired(later + SimDuration::from_days(30)));
    }
}
