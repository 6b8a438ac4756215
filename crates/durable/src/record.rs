//! The durable log's record vocabulary.
//!
//! One design rule keeps recovery and compaction simple: **every
//! state-bearing record is authoritative**. [`LogRecord::Store`],
//! [`LogRecord::Annotate`], and [`LogRecord::Survivor`] each carry the
//! complete [`StoredObject`] — curve, arrival, annotation clock, class —
//! so replay is strictly latest-record-wins per id and a compactor can
//! rewrite any live object from its newest record alone, without chasing
//! a chain of deltas through older segments.
//!
//! Bookkeeping records close the loop: [`LogRecord::Dead`] tombstones
//! keep a dropped segment's kills visible to replay, and
//! [`LogRecord::Compacted`] is the *commit point* of a compaction — it
//! folds the victim segment's statistics and clock high-water marks into
//! the log so deleting the victim's file loses no accounting.
//!
//! On disk a record is the JSON text serde derives for [`LogRecord`], and
//! `serde_json::from_str` is the only decoder. The append path does not
//! go through serde's content tree: [`LogRecord::write_json`] emits the
//! same text directly, and this module's tests hold the two equal for
//! every variant and curve family — that equality is the whole
//! compatibility argument, so there is no second format to migrate.

use std::io::Write as _;

use serde::{Deserialize, Serialize};
use sim_core::{ByteSize, SimTime};
use temporal_importance::{EvictionRecord, ImportanceCurve, ObjectId, StoredObject, UnitStats};

/// A reclaimed object's identity and size — enough to replay the stats
/// and occupancy bookkeeping of an eviction without carrying the whole
/// object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Victim {
    /// The reclaimed object.
    pub id: ObjectId,
    /// Bytes it occupied.
    pub size: ByteSize,
}

impl From<&EvictionRecord> for Victim {
    fn from(record: &EvictionRecord) -> Self {
        Victim {
            id: record.id,
            size: record.size,
        }
    }
}

/// Why a store attempt was turned away. Every rejection still counts as
/// an attempt, so the log must remember them to replay [`UnitStats`]
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum RejectKind {
    /// Insufficient reclaimable importance below the incoming object's.
    Full,
    /// Larger than the unit's total capacity.
    TooLarge,
    /// An object with this id is already resident.
    Duplicate,
    /// Zero-byte spec.
    Empty,
    /// A rejection kind this version of the crate does not know —
    /// `StoreError` is non-exhaustive, and an attempt must still count.
    Other,
}

/// One entry in a segment. Serialized as self-describing JSON inside a
/// CRC-framed record (see [`frame`](crate::frame)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum LogRecord {
    /// An accepted store, with the objects it preempted.
    Store {
        /// Engine clock at the store.
        at: SimTime,
        /// The object as admitted (authoritative full state).
        object: StoredObject,
        /// Residents preempted to make room, in eviction order.
        evicted: Vec<Victim>,
    },
    /// A rejected store attempt.
    Reject {
        /// Engine clock at the attempt.
        at: SimTime,
        /// Which rejection path fired.
        kind: RejectKind,
    },
    /// An explicit removal.
    Remove {
        /// Engine clock at the removal.
        at: SimTime,
        /// The removed object.
        id: ObjectId,
        /// Bytes it occupied.
        size: ByteSize,
    },
    /// An expiry sweep. Recorded even when `expired` is empty so the
    /// sweep cadence clock survives a crash.
    Sweep {
        /// Engine clock at the sweep.
        at: SimTime,
        /// Objects reclaimed as expired.
        expired: Vec<Victim>,
    },
    /// A rejuvenation or reannotation; carries the object's complete
    /// post-annotation state so it supersedes the original `Store`.
    Annotate {
        /// Engine clock at the annotation.
        at: SimTime,
        /// The object after the annotation (authoritative full state).
        object: StoredObject,
    },
    /// A live object rewritten out of a compaction victim. Contributes
    /// nothing to statistics — the object's admission was already
    /// counted by its `Store`.
    Survivor {
        /// The object's current full state.
        object: StoredObject,
    },
    /// Tombstones re-asserting deaths whose killing records are being
    /// dropped with a compaction victim while stale full-state records
    /// of the same ids still exist in other segments.
    Dead {
        /// The ids that must stay dead on replay.
        ids: Vec<ObjectId>,
    },
    /// Commit point of a compaction: segment `seq` is now fully folded
    /// into this record and its file may be deleted. Recovery treats a
    /// segment with a surviving `Compacted` record as dropped.
    Compacted {
        /// The victim segment's sequence number.
        seq: u64,
        /// The victim's file size — bytes reclaimed on disk.
        bytes: u64,
        /// The statistics contribution of the victim's records.
        stats: UnitStats,
        /// The victim's engine-clock high-water mark.
        at: SimTime,
        /// The victim's sweep-clock high-water mark.
        sweep: SimTime,
    },
}

impl LogRecord {
    /// The engine-clock stamp this record advances, if any.
    pub fn at(&self) -> Option<SimTime> {
        match self {
            LogRecord::Store { at, .. }
            | LogRecord::Reject { at, .. }
            | LogRecord::Remove { at, .. }
            | LogRecord::Sweep { at, .. }
            | LogRecord::Annotate { at, .. }
            | LogRecord::Compacted { at, .. } => Some(*at),
            LogRecord::Survivor { .. } | LogRecord::Dead { .. } => None,
        }
    }

    /// The sweep-clock stamp this record advances, if any.
    pub fn sweep_at(&self) -> Option<SimTime> {
        match self {
            LogRecord::Sweep { at, .. } => Some(*at),
            LogRecord::Compacted { sweep, .. } => Some(*sweep),
            _ => None,
        }
    }

    /// This record's [`UnitStats`] contribution, mirroring the engine's
    /// counter discipline exactly: every store attempt (accepted or
    /// rejected) bumps `stores_attempted`; every byte leaving the unit
    /// bumps `bytes_evicted`. `Survivor` and `Dead` are compaction
    /// bookkeeping and contribute nothing; `Compacted` carries a folded
    /// segment's whole contribution verbatim.
    pub fn stats_delta(&self) -> UnitStats {
        let mut delta = UnitStats::default();
        match self {
            LogRecord::Store {
                object, evicted, ..
            } => {
                delta.stores_attempted = 1;
                delta.stores_accepted = 1;
                delta.bytes_accepted = object.size().as_bytes();
                delta.evictions_preempted = evicted.len() as u64;
                delta.bytes_evicted = evicted.iter().map(|v| v.size.as_bytes()).sum();
            }
            LogRecord::Reject { kind, .. } => {
                delta.stores_attempted = 1;
                match kind {
                    RejectKind::Full => delta.rejections_full = 1,
                    RejectKind::TooLarge => delta.rejections_too_large = 1,
                    RejectKind::Duplicate | RejectKind::Empty | RejectKind::Other => {}
                }
            }
            LogRecord::Remove { size, .. } => {
                delta.removals = 1;
                delta.bytes_evicted = size.as_bytes();
            }
            LogRecord::Sweep { expired, .. } => {
                delta.evictions_expired = expired.len() as u64;
                delta.bytes_evicted = expired.iter().map(|v| v.size.as_bytes()).sum();
            }
            LogRecord::Annotate { .. } | LogRecord::Survivor { .. } | LogRecord::Dead { .. } => {}
            LogRecord::Compacted { stats, .. } => delta = *stats,
        }
        delta
    }

    /// The full-state object this record asserts, if any.
    pub fn asserted(&self) -> Option<&StoredObject> {
        match self {
            LogRecord::Store { object, .. }
            | LogRecord::Annotate { object, .. }
            | LogRecord::Survivor { object } => Some(object),
            _ => None,
        }
    }

    /// The ids this record kills, appended to `out`.
    pub fn killed(&self, out: &mut Vec<ObjectId>) {
        match self {
            LogRecord::Store { evicted, .. } => out.extend(evicted.iter().map(|v| v.id)),
            LogRecord::Remove { id, .. } => out.push(*id),
            LogRecord::Sweep { expired, .. } => out.extend(expired.iter().map(|v| v.id)),
            LogRecord::Dead { ids } => out.extend(ids.iter().copied()),
            _ => {}
        }
    }

    /// Appends this record's JSON text to `out`: byte for byte what
    /// `serde_json::to_string(self)` returns, without building serde's
    /// content tree or an intermediate `String`. The per-mutation
    /// shapes — `Store`, `Sweep`, `Annotate`, `Survivor` over the
    /// unit-like, `Fixed` and `TwoStep` curves — are written by hand;
    /// everything rarer goes through serde itself, so a new variant or
    /// curve family is correct before it is fast.
    ///
    /// # Errors
    ///
    /// Whatever `serde_json::to_string` would refuse (a non-finite
    /// float); `out` then holds a partial record.
    pub fn write_json(&self, out: &mut Vec<u8>) -> Result<(), serde_json::Error> {
        match self {
            LogRecord::Store {
                at,
                object,
                evicted,
            } => {
                out.extend_from_slice(b"{\"Store\":{\"at\":");
                write_u64(at.as_minutes(), out);
                out.extend_from_slice(b",\"object\":");
                write_object(object, out)?;
                out.extend_from_slice(b",\"evicted\":");
                write_victims(evicted, out);
                out.extend_from_slice(b"}}");
            }
            LogRecord::Sweep { at, expired } => {
                out.extend_from_slice(b"{\"Sweep\":{\"at\":");
                write_u64(at.as_minutes(), out);
                out.extend_from_slice(b",\"expired\":");
                write_victims(expired, out);
                out.extend_from_slice(b"}}");
            }
            LogRecord::Annotate { at, object } => {
                out.extend_from_slice(b"{\"Annotate\":{\"at\":");
                write_u64(at.as_minutes(), out);
                out.extend_from_slice(b",\"object\":");
                write_object(object, out)?;
                out.extend_from_slice(b"}}");
            }
            LogRecord::Survivor { object } => {
                out.extend_from_slice(b"{\"Survivor\":{\"object\":");
                write_object(object, out)?;
                out.extend_from_slice(b"}}");
            }
            rare => write_serde(rare, out)?,
        }
        Ok(())
    }
}

/// The serde rendering of `value`, for the shapes [`LogRecord::write_json`]
/// does not write by hand.
fn write_serde<T: Serialize>(value: &T, out: &mut Vec<u8>) -> Result<(), serde_json::Error> {
    out.extend_from_slice(serde_json::to_string(value)?.as_bytes());
    Ok(())
}

fn write_object(object: &StoredObject, out: &mut Vec<u8>) -> Result<(), serde_json::Error> {
    out.extend_from_slice(b"{\"id\":");
    write_u64(object.id().raw(), out);
    out.extend_from_slice(b",\"size\":");
    write_u64(object.size().as_bytes(), out);
    out.extend_from_slice(b",\"curve\":");
    match object.curve() {
        ImportanceCurve::Persistent => out.extend_from_slice(b"\"Persistent\""),
        ImportanceCurve::Ephemeral => out.extend_from_slice(b"\"Ephemeral\""),
        ImportanceCurve::Fixed { importance, expiry } => {
            out.extend_from_slice(b"{\"Fixed\":{\"importance\":");
            write_f64(importance.value(), out)?;
            out.extend_from_slice(b",\"expiry\":");
            write_u64(expiry.as_minutes(), out);
            out.extend_from_slice(b"}}");
        }
        ImportanceCurve::TwoStep {
            importance,
            persist,
            wane,
        } => {
            out.extend_from_slice(b"{\"TwoStep\":{\"importance\":");
            write_f64(importance.value(), out)?;
            out.extend_from_slice(b",\"persist\":");
            write_u64(persist.as_minutes(), out);
            out.extend_from_slice(b",\"wane\":");
            write_u64(wane.as_minutes(), out);
            out.extend_from_slice(b"}}");
        }
        rare => write_serde(rare, out)?,
    }
    out.extend_from_slice(b",\"class\":");
    write_u64(u64::from(object.class().raw()), out);
    out.extend_from_slice(b",\"arrival\":");
    write_u64(object.arrival().as_minutes(), out);
    out.extend_from_slice(b",\"annotated_at\":");
    write_u64(object.annotated_at().as_minutes(), out);
    out.push(b'}');
    Ok(())
}

fn write_victims(victims: &[Victim], out: &mut Vec<u8>) {
    out.push(b'[');
    for (i, victim) in victims.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"id\":");
        write_u64(victim.id.raw(), out);
        out.extend_from_slice(b",\"size\":");
        write_u64(victim.size.as_bytes(), out);
        out.push(b'}');
    }
    out.push(b']');
}

/// Decimal digits of `value`, as `u64::to_string` renders them.
fn write_u64(mut value: u64, out: &mut Vec<u8>) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// serde_json's float text: integral values below 1e15 keep one
/// fractional digit (`1.0`), everything else is `f64`'s shortest
/// round-trip `Display`. A non-finite value is serde's error to report.
fn write_f64(value: f64, out: &mut Vec<u8>) -> Result<(), serde_json::Error> {
    if !value.is_finite() {
        return write_serde(&value, out);
    }
    if value == value.trunc() && value.abs() < 1e15 {
        write!(out, "{value:.1}")
    } else {
        write!(out, "{value}")
    }
    .expect("writing to a Vec cannot fail");
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use proptest::prelude::*;
    use sim_core::SimDuration;
    use temporal_importance::{Importance, ObjectClass, ObjectSpec, PiecewiseCurve, StorageUnit};

    use super::*;
    use crate::segment::parse_record;

    /// The whole compatibility argument between the hand-written writer
    /// and serde, the log's only reader: same bytes out, same record
    /// back. A segment written by either opens under the other.
    fn assert_pinned(record: &LogRecord) {
        let text = serde_json::to_string(record).expect("serde renders the record");
        let mut written = Vec::new();
        record
            .write_json(&mut written)
            .expect("the writer renders the record");
        assert_eq!(
            String::from_utf8(written).expect("JSON is UTF-8"),
            text,
            "writer and serde_json::to_string differ for {record:?}"
        );
        let parsed = parse_record(text.as_bytes(), Path::new("test")).expect("parses back");
        assert_eq!(&parsed, record);
    }

    /// A resident stored at `arrival`. `StoredObject`'s fields are its
    /// own, so one whose annotation clock differs is minted through an
    /// engine — which adds ages to times, so such a case keeps both
    /// far from `u64::MAX`.
    fn object(
        id: u64,
        size: u64,
        curve: ImportanceCurve,
        class: u16,
        arrival: u64,
        annotated_at: u64,
    ) -> StoredObject {
        let id = ObjectId::new(id);
        let spec = ObjectSpec::new(id, ByteSize::from_bytes(size), curve.clone())
            .with_class(ObjectClass::new(class));
        if annotated_at == arrival {
            return StoredObject::from_spec(spec, SimTime::from_minutes(arrival));
        }
        let mut unit = StorageUnit::builder(ByteSize::from_bytes(u64::MAX))
            .recording(false)
            .build();
        unit.store(spec, SimTime::from_minutes(arrival))
            .expect("an empty unit of maximal capacity admits it");
        unit.reannotate(id, curve, SimTime::from_minutes(annotated_at))
            .expect("the object is resident");
        let object = unit.get(id).expect("the object is resident").clone();
        assert_eq!(object.arrival(), SimTime::from_minutes(arrival));
        assert_eq!(object.annotated_at(), SimTime::from_minutes(annotated_at));
        object
    }

    fn importance(value: f64) -> Importance {
        Importance::new(value).expect("in [0, 1]")
    }

    fn days(n: u64) -> SimDuration {
        SimDuration::from_days(n)
    }

    /// Every curve family, with importances that are integral, exactly
    /// representable, and neither (1/3, 0.1, a value below 1e-5 where
    /// other float printers switch to exponents).
    fn curve_table() -> Vec<ImportanceCurve> {
        let mut curves = vec![ImportanceCurve::Persistent, ImportanceCurve::Ephemeral];
        for p in [1.0, 0.0, 0.5, 1.0 / 3.0, 0.1, 1e-7] {
            let p = importance(p);
            curves.push(ImportanceCurve::Fixed {
                importance: p,
                expiry: days(10),
            });
            curves.push(ImportanceCurve::two_step(p, days(15), days(15)));
            curves.push(
                ImportanceCurve::exp_decay(p, days(5), days(25), SimDuration::from_hours(36))
                    .expect("positive half-life"),
            );
        }
        for points in [
            vec![(days(0), Importance::FULL)],
            vec![
                (days(0), importance(0.9)),
                (days(3), importance(1.0 / 3.0)),
                (days(40), importance(0.1)),
                (days(41), Importance::ZERO),
            ],
        ] {
            curves.push(ImportanceCurve::Piecewise(
                PiecewiseCurve::new(points).expect("monotone polyline from age zero"),
            ));
        }
        curves
    }

    fn victim_lists() -> Vec<Vec<Victim>> {
        let victim = |id, size| Victim {
            id: ObjectId::new(id),
            size: ByteSize::from_bytes(size),
        };
        vec![
            vec![],
            vec![victim(u64::MAX, u64::MAX)],
            vec![victim(0, 1), victim(7, 4 << 20), victim(u64::MAX - 1, 0)],
        ]
    }

    #[test]
    fn writer_equals_serde_for_every_variant_and_curve_family() {
        for curve in curve_table() {
            let objects = [
                object(
                    u64::MAX,
                    u64::MAX,
                    curve.clone(),
                    u16::MAX,
                    u64::MAX,
                    u64::MAX,
                ),
                object(42, 3 << 20, curve.clone(), 0, 1_234_567, 7_654_321),
            ];
            for object in objects {
                for evicted in victim_lists() {
                    assert_pinned(&LogRecord::Store {
                        at: object.annotated_at(),
                        object: object.clone(),
                        evicted,
                    });
                }
                assert_pinned(&LogRecord::Annotate {
                    at: SimTime::from_minutes(u64::MAX),
                    object: object.clone(),
                });
                assert_pinned(&LogRecord::Survivor { object });
            }
        }
        for expired in victim_lists() {
            assert_pinned(&LogRecord::Sweep {
                at: SimTime::from_minutes(u64::MAX),
                expired,
            });
        }
        for kind in [
            RejectKind::Full,
            RejectKind::TooLarge,
            RejectKind::Duplicate,
            RejectKind::Empty,
            RejectKind::Other,
        ] {
            assert_pinned(&LogRecord::Reject {
                at: SimTime::ZERO,
                kind,
            });
        }
        assert_pinned(&LogRecord::Remove {
            at: SimTime::from_minutes(9),
            id: ObjectId::new(u64::MAX),
            size: ByteSize::from_bytes(u64::MAX),
        });
        for ids in [vec![], vec![0], vec![3, u64::MAX, 5]] {
            assert_pinned(&LogRecord::Dead {
                ids: ids.into_iter().map(ObjectId::new).collect(),
            });
        }
        assert_pinned(&LogRecord::Survivor {
            object: object(
                1,
                1,
                ImportanceCurve::Fixed {
                    importance: Importance::FULL,
                    expiry: SimDuration::from_minutes(u64::MAX),
                },
                1,
                0,
                0,
            ),
        });
        let mut stats = UnitStats::default();
        assert_pinned(&LogRecord::Compacted {
            seq: 0,
            bytes: 0,
            stats,
            at: SimTime::ZERO,
            sweep: SimTime::ZERO,
        });
        stats.stores_attempted = u64::MAX;
        stats.bytes_evicted = 1 << 40;
        assert_pinned(&LogRecord::Compacted {
            seq: u64::MAX,
            bytes: u64::MAX,
            stats,
            at: SimTime::from_minutes(u64::MAX),
            sweep: SimTime::from_minutes(17),
        });
    }

    #[test]
    fn a_non_finite_float_is_the_same_error_from_both() {
        let mut out = Vec::new();
        let written = write_f64(f64::NAN, &mut out).expect_err("not JSON");
        let serde = serde_json::to_string(&f64::NAN).expect_err("not JSON");
        assert_eq!(written.to_string(), serde.to_string());
    }

    fn importance_strategy() -> impl Strategy<Value = Importance> {
        prop_oneof![
            (0.0f64..=1.0).prop_map(Importance::new_clamped),
            // Quantised values, the shape real annotations have.
            (0u64..=10).prop_map(|tenths| Importance::new_clamped(tenths as f64 / 10.0)),
        ]
    }

    fn duration_strategy() -> impl Strategy<Value = SimDuration> {
        (0u64..=u64::from(u32::MAX)).prop_map(SimDuration::from_minutes)
    }

    fn curve_strategy() -> impl Strategy<Value = ImportanceCurve> {
        prop_oneof![
            Just(ImportanceCurve::Persistent),
            Just(ImportanceCurve::Ephemeral),
            (importance_strategy(), duration_strategy())
                .prop_map(|(importance, expiry)| ImportanceCurve::Fixed { importance, expiry }),
            (
                importance_strategy(),
                duration_strategy(),
                duration_strategy()
            )
                .prop_map(|(p, persist, wane)| ImportanceCurve::two_step(p, persist, wane)),
            (
                importance_strategy(),
                duration_strategy(),
                duration_strategy(),
                1u64..100_000
            )
                .prop_map(|(p, persist, wane, half_life)| {
                    ImportanceCurve::exp_decay(
                        p,
                        persist,
                        wane,
                        SimDuration::from_minutes(half_life),
                    )
                    .expect("positive half-life")
                }),
            proptest::collection::vec((1u64..100_000, 0.0f64..=1.0), 0..6).prop_map(|steps| {
                // Ages strictly increasing from zero, importances
                // non-increasing: sort the drawn values downwards.
                let mut values: Vec<f64> = steps.iter().map(|(_, v)| *v).collect();
                values.push(1.0);
                values.sort_by(|a, b| b.total_cmp(a));
                let mut age = 0;
                let mut points = vec![(SimDuration::from_minutes(age), importance(values[0]))];
                for ((gap, _), value) in steps.iter().zip(&values[1..]) {
                    age += gap;
                    points.push((SimDuration::from_minutes(age), importance(*value)));
                }
                ImportanceCurve::Piecewise(PiecewiseCurve::new(points).expect("valid polyline"))
            }),
        ]
    }

    fn object_strategy() -> impl Strategy<Value = StoredObject> {
        (
            0u64..=u64::MAX,
            1u64..=u64::MAX,
            curve_strategy(),
            0u16..=u16::MAX,
            0u64..=u64::from(u32::MAX),
            0u64..=u64::from(u32::MAX),
        )
            .prop_map(|(id, size, curve, class, arrival, later)| {
                // One draw in three was never reannotated.
                let annotated_at = arrival + if later % 3 == 0 { 0 } else { later };
                object(id, size, curve, class, arrival, annotated_at)
            })
    }

    fn victims_strategy() -> impl Strategy<Value = Vec<Victim>> {
        proptest::collection::vec(
            (0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(id, size)| Victim {
                id: ObjectId::new(id),
                size: ByteSize::from_bytes(size),
            }),
            0..5,
        )
    }

    fn time_strategy() -> impl Strategy<Value = SimTime> {
        (0u64..=u64::MAX).prop_map(SimTime::from_minutes)
    }

    fn record_strategy() -> impl Strategy<Value = LogRecord> {
        prop_oneof![
            (time_strategy(), object_strategy(), victims_strategy()).prop_map(
                |(at, object, evicted)| LogRecord::Store {
                    at,
                    object,
                    evicted
                }
            ),
            (time_strategy(), victims_strategy())
                .prop_map(|(at, expired)| LogRecord::Sweep { at, expired }),
            (time_strategy(), object_strategy())
                .prop_map(|(at, object)| LogRecord::Annotate { at, object }),
            object_strategy().prop_map(|object| LogRecord::Survivor { object }),
            (time_strategy(), 0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(at, id, size)| {
                LogRecord::Remove {
                    at,
                    id: ObjectId::new(id),
                    size: ByteSize::from_bytes(size),
                }
            }),
            proptest::collection::vec(0u64..=u64::MAX, 0..5).prop_map(|ids| LogRecord::Dead {
                ids: ids.into_iter().map(ObjectId::new).collect(),
            }),
            (
                0u64..=u64::MAX,
                0u64..=u64::MAX,
                0u64..=u64::MAX,
                time_strategy(),
                time_strategy()
            )
                .prop_map(|(seq, bytes, counter, at, sweep)| {
                    let mut stats = UnitStats::default();
                    stats.stores_accepted = counter;
                    stats.bytes_evicted = counter / 3;
                    LogRecord::Compacted {
                        seq,
                        bytes,
                        stats,
                        at,
                        sweep,
                    }
                }),
        ]
    }

    proptest! {
        #[test]
        fn writer_equals_serde_on_random_records(record in record_strategy()) {
            assert_pinned(&record);
        }
    }
}
