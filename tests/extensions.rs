//! Integration tests for the extension subsystems: trace record/replay
//! and the calendar's annotation invariants.
use proptest::prelude::*;
use temporal_reclaim::core::protocol::StoreApi;
use temporal_reclaim::core::{ObjectIdGen, ObjectSpec, StorageUnit};
use temporal_reclaim::workload::calendar::{AcademicCalendar, Creator};
use temporal_reclaim::workload::lecture::{generate, LectureConfig};
use temporal_reclaim::workload::trace;
use temporal_reclaim::{ByteSize, SimTime};
/// Replaying a recorded trace through the engine produces the same
/// outcome as running the generator directly.
#[test]
fn trace_replay_is_bit_identical() {
    let arrivals = generate(&LectureConfig::default(), 2);
    // Record and replay.
    let mut buffer = Vec::new();
    trace::write(&mut buffer, &arrivals).unwrap();
    let replayed = trace::read(buffer.as_slice()).unwrap();
    assert_eq!(arrivals, replayed);
    // Drive two identical units from the two streams.
    let run = |stream: &[temporal_reclaim::workload::Arrival]| {
        let mut unit = StorageUnit::new(ByteSize::from_gib(40));
        let mut ids = ObjectIdGen::new();
        for arrival in stream {
            let spec = ObjectSpec::new(ids.next_id(), arrival.size, arrival.curve.clone())
                .with_class(arrival.class);
            let _ = unit.call(arrival.at, spec.into());
        }
        (
            unit.stats().stores_accepted,
            unit.stats().rejections_full,
            unit.stats().evictions_preempted,
            unit.used(),
        )
    };
    assert_eq!(run(&arrivals), run(&replayed));
}
proptest! {
    /// Calendar invariant: for any in-term day, the annotation's plateau
    /// ends exactly at the term's end day and the curve validates.
    #[test]
    fn calendar_annotations_are_always_consistent(day in 0u64..(4 * 365)) {
        let calendar = AcademicCalendar::paper();
        let at = SimTime::from_days(day);
        match calendar.term_on(at) {
            Some(term) => {
                for creator in [Creator::University, Creator::Student] {
                    let curve = calendar
                        .lifetime_for(at, creator)
                        .expect("in-term day has a lifetime");
                    // Plateau ends at the term's end day.
                    let persist = calendar.persist_for(at).unwrap();
                    prop_assert_eq!(
                        (at + persist).day_of_year(),
                        term.end_day() % 365
                    );
                    // Curves are monotone by construction; expiry after persist.
                    let expiry = curve.expiry().expect("two-step curves expire");
                    prop_assert!(expiry >= persist);
                }
            }
            None => {
                prop_assert!(calendar.lifetime_for(at, Creator::University).is_none());
                prop_assert!(calendar.persist_for(at).is_none());
            }
        }
    }
}
