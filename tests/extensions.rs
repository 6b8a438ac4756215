//! Integration tests for the extension subsystems: trace record/replay,
//! the concurrent placement front-end, and the calendar's annotation
//! invariants.
use proptest::prelude::*;
use temporal_reclaim::core::{ImportanceCurve, ObjectIdGen, ObjectSpec, StorageUnit};
use temporal_reclaim::sim::rng;
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
            let _ = unit.store(spec, arrival.at);
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
/// The concurrent cluster under heavy multi-thread churn never violates
/// per-node capacity and never loses accounting.
#[test]
fn shared_cluster_preserves_capacity_invariants_under_churn() {
    let mut rand = rng::seeded(77);
    let cluster = temporal_reclaim::besteffs::Besteffs::builder(30, ByteSize::from_mib(50))
        .build_shared(&mut rand);
    std::thread::scope(|scope| {
        for t in 0..6 {
            let cluster = &cluster;
            scope.spawn(move || {
                let mut rand = rng::stream(123, &format!("churn-{t}"));
                for i in 0..200u64 {
                    let id = t as u64 * 100_000 + i;
                    let importance = 0.1 + (i % 9) as f64 * 0.1;
                    let spec = ObjectSpec::new(
                        temporal_reclaim::ObjectId::new(id),
                        ByteSize::from_mib(5 + i % 13),
                        ImportanceCurve::Fixed {
                            importance: temporal_reclaim::Importance::new_clamped(importance),
                            expiry: sim_core_duration_days(30),
                        },
                    );
                    let _ = cluster.place(spec, SimTime::ZERO, &mut rand);
                }
            });
        }
    });
    // Every node's invariant held.
    for node in 0..cluster.len() {
        cluster.with_node(temporal_reclaim::besteffs::NodeId::new(node), |unit| {
            assert!(unit.used() <= unit.capacity());
            let resident: ByteSize = unit.iter().map(|o| o.size()).sum();
            assert_eq!(resident, unit.used());
        });
    }
    let stats = cluster.stats();
    assert_eq!(stats.placed() + stats.rejected(), 6 * 200);
}
fn sim_core_duration_days(days: u64) -> temporal_reclaim::SimDuration {
    temporal_reclaim::SimDuration::from_days(days)
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
