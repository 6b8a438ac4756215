//! Property and differential tests of the churn subsystem.
//!
//! * Live-walk safety: across arbitrary fail/rejoin interleavings the
//!   overlay stays connected (edges outlive outages) and walks only ever
//!   visit live nodes.
//! * Slicing differential: replaying a churn schedule through the
//!   sim-core event loop in arbitrarily-cut `advance` slices must leave
//!   the cluster and directory in exactly the state a naive one-pass
//!   application of the same sorted events produces.

use proptest::prelude::*;
use temporal_reclaim::besteffs::churn::{AvailabilitySchedule, ChurnDriver, ChurnSchedule};
use temporal_reclaim::besteffs::{
    Besteffs, ChurnEventKind, Directory, NodeId, ObjectName, Overlay,
};
use temporal_reclaim::core::{ImportanceCurve, ObjectId, ObjectSpec};
use temporal_reclaim::sim::rng;
use temporal_reclaim::{ByteSize, SimDuration, SimTime};

const FLEET: usize = 24;

fn spec(id: u64) -> ObjectSpec {
    ObjectSpec::new(
        ObjectId::new(id),
        ByteSize::from_mib(10),
        ImportanceCurve::fixed_lifetime(SimDuration::from_days(365)),
    )
}

proptest! {
    /// Walks filtered by an arbitrary (mutating) membership mask never
    /// return a dead node and never lose overlay connectivity: a failed
    /// desktop keeps its edges for when it reboots.
    #[test]
    fn walks_only_visit_live_nodes(
        seed in 0u64..1_000,
        steps in 0usize..12,
        toggles in proptest::collection::vec(0usize..FLEET, 1..60),
    ) {
        let mut rand = rng::seeded(seed);
        let overlay = Overlay::random(FLEET, 5, &mut rand);
        let mut alive = [true; FLEET];
        for node in toggles {
            alive[node] = !alive[node];
            prop_assert!(overlay.is_connected(), "edges must survive outages");
            let Some(start) = (0..FLEET).find(|&i| alive[i]) else {
                continue;
            };
            let sample = overlay
                .sample_walks_counted(
                    NodeId::new(start),
                    4,
                    steps,
                    &mut rand,
                    |n| alive[n.index()],
                )
                .0;
            for visited in &sample {
                prop_assert!(
                    alive[visited.index()],
                    "walk returned dead {visited} (alive mask {alive:?})"
                );
            }
            let mut unique = sample.clone();
            unique.sort();
            unique.dedup();
            prop_assert_eq!(unique.len(), sample.len(), "sampled nodes must be distinct");
            if let Some(end) = overlay
                .random_walk_live_counted(
                    NodeId::new(start),
                    steps,
                    &mut rand,
                    |n| alive[n.index()],
                )
                .0
            {
                prop_assert!(alive[end.index()]);
            }
        }
    }

    /// Placements under arbitrary churn only ever land on live nodes, and
    /// every surviving directory entry stays resolvable (live node, current
    /// incarnation) because the failure path purges with the node.
    #[test]
    fn placements_land_live_and_directory_stays_current(
        seed in 0u64..1_000,
        flips in proptest::collection::vec((0usize..FLEET, 0u64..30), 1..40),
    ) {
        let mut rand = rng::stream(seed, "churn-placement");
        let mut cluster = Besteffs::builder(FLEET, ByteSize::from_mib(100)).build(&mut rand);
        let mut directory = Directory::new();
        let mut next_id = 0u64;
        let mut now = SimTime::ZERO;
        for (node, delta_hours) in flips {
            now += SimDuration::from_hours(delta_hours);
            let node = NodeId::new(node);
            if cluster.is_alive(node) {
                cluster.fail_node_purging(node, now, &mut directory);
            } else {
                cluster.rejoin_node(node);
            }
            for _ in 0..3 {
                next_id += 1;
                if let Ok(placed) = cluster.place(spec(next_id), now, &mut rand) {
                    prop_assert!(cluster.is_alive(placed.node), "placed on dead node");
                    directory.publish_on(
                        ObjectName::new(format!("obj-{next_id}")),
                        ObjectId::new(next_id),
                        placed.node,
                        cluster.incarnation(placed.node),
                    );
                }
            }
            for name in directory.names() {
                let entry = directory.latest(name).expect("non-empty history");
                prop_assert!(
                    cluster.entry_is_current(entry),
                    "stale entry survived the purge path: {name} -> {entry:?}"
                );
            }
        }
        let epoch_losses: u64 = cluster.failure_epochs().iter().map(|e| e.objects_lost).sum();
        prop_assert_eq!(epoch_losses, cluster.stats().objects_lost);
    }
}

/// Applies `schedule`'s events naively (sorted list, no event loop) up to
/// each cut, mirroring what `ChurnDriver::advance` should do.
fn naive_advance(
    events: &[temporal_reclaim::besteffs::ChurnEvent],
    applied: &mut usize,
    until: SimTime,
    cluster: &mut Besteffs,
    directory: &mut Directory,
) {
    while *applied < events.len() && events[*applied].at <= until {
        let event = events[*applied];
        *applied += 1;
        match event.kind {
            ChurnEventKind::Fail => {
                cluster.fail_node_purging(event.node, event.at, directory);
            }
            ChurnEventKind::Rejoin => {
                cluster.rejoin_node(event.node);
            }
        }
    }
}

fn directory_fingerprint(directory: &Directory) -> Vec<(String, usize, ObjectId, NodeId, u64)> {
    directory
        .names()
        .map(|name| {
            let latest = directory.latest(name).expect("non-empty history");
            (
                name.as_str().to_string(),
                directory.version_count(name),
                latest.object,
                latest.node,
                latest.incarnation,
            )
        })
        .collect()
}

/// Drives one generated scenario through the event loop (sliced at the
/// generated cut offsets) and through the naive one-pass oracle, placing
/// the same objects at every cut, and asserts identical end states.
fn run_slicing_differential(
    seed: u64,
    shape_centi: u64,
    cut_offsets: Vec<u64>,
) -> Result<(), TestCaseError> {
    let horizon = SimTime::from_days(120);
    let schedule = ChurnSchedule::generate(
        FLEET,
        horizon,
        &AvailabilitySchedule::Weibull {
            shape: shape_centi as f64 / 100.0,
            session_scale: SimDuration::from_days(10),
            downtime_scale: SimDuration::from_hours(18),
        },
        seed,
    );

    // Arbitrary, non-decreasing cut times over the horizon (plus the
    // horizon itself so both sides drain completely).
    let mut cuts: Vec<SimTime> = cut_offsets
        .iter()
        .map(|&m| SimTime::from_minutes(m % (horizon.as_minutes() + 1)))
        .collect();
    cuts.sort();
    cuts.push(horizon);

    let build = |label: &str| {
        let mut rand = rng::stream(seed, label);
        let cluster = Besteffs::builder(FLEET, ByteSize::from_mib(200)).build(&mut rand);
        (cluster, rand)
    };
    // Identical label → identical overlay and placement stream on both
    // sides; only the churn application mechanism differs.
    let (mut sliced, mut sliced_rng) = build("diff");
    let (mut naive, mut naive_rng) = build("diff");
    let mut driver = ChurnDriver::new(schedule.clone());
    let mut sliced_dir = Directory::new();
    let mut naive_dir = Directory::new();
    let mut applied = 0usize;
    let mut next_id = 0u64;

    for &cut in &cuts {
        driver.advance(cut, &mut sliced, &mut sliced_dir);
        naive_advance(
            schedule.events(),
            &mut applied,
            cut,
            &mut naive,
            &mut naive_dir,
        );
        for _ in 0..2 {
            next_id += 1;
            let a = sliced.place(spec(next_id), cut, &mut sliced_rng);
            let b = naive.place(spec(next_id), cut, &mut naive_rng);
            prop_assert_eq!(a.is_ok(), b.is_ok(), "placement outcome diverged at {cut}");
            if let (Ok(pa), Ok(pb)) = (a, b) {
                prop_assert_eq!(pa.node, pb.node, "placement node diverged at {cut}");
                sliced_dir.publish_on(
                    ObjectName::new(format!("obj-{next_id}")),
                    ObjectId::new(next_id),
                    pa.node,
                    sliced.incarnation(pa.node),
                );
                naive_dir.publish_on(
                    ObjectName::new(format!("obj-{next_id}")),
                    ObjectId::new(next_id),
                    pb.node,
                    naive.incarnation(pb.node),
                );
            }
        }
    }

    prop_assert_eq!(applied, schedule.len(), "oracle must drain the schedule");
    prop_assert_eq!(driver.pending(), 0, "driver must drain the schedule");
    prop_assert_eq!(sliced.stats(), naive.stats());
    prop_assert_eq!(sliced.failure_epochs(), naive.failure_epochs());
    for i in 0..FLEET {
        let node = NodeId::new(i);
        prop_assert_eq!(sliced.is_alive(node), naive.is_alive(node), "alive[{i}]");
        prop_assert_eq!(
            sliced.incarnation(node),
            naive.incarnation(node),
            "incarnation[{i}]"
        );
    }
    prop_assert_eq!(
        directory_fingerprint(&sliced_dir),
        directory_fingerprint(&naive_dir)
    );
    let da = sliced.importance_density(horizon);
    let db = naive.importance_density(horizon);
    prop_assert!((da - db).abs() < 1e-12, "density diverged: {da} vs {db}");
    Ok(())
}

proptest! {
    /// Event-loop slicing is invisible: advancing the churn driver at
    /// arbitrary cut points (with placements interleaved at every cut)
    /// matches a naive one-pass application of the same schedule exactly —
    /// stats, epochs, membership, incarnations, directory, and density.
    #[test]
    fn sliced_event_loop_matches_naive_application(
        seed in 0u64..10_000,
        shape_centi in 40u64..160,
        cut_offsets in proptest::collection::vec(0u64..200_000, 0..24),
    ) {
        run_slicing_differential(seed, shape_centi, cut_offsets)?;
    }
}

/// Nightly deep fuzz of the slicing differential: `DIFF_CASES=4096`
/// cranks the case count; a no-op when the env var is unset.
#[test]
fn deep_fuzz_churn_differential() {
    let Some(cases) = std::env::var("DIFF_CASES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    else {
        return;
    };
    let strategy = (
        0u64..10_000,
        40u64..160,
        proptest::collection::vec(0u64..200_000, 0..24),
    );
    proptest::test_runner::run_cases_n(
        "sliced_event_loop_matches_naive_application",
        cases,
        |rng| {
            let (seed, shape_centi, cut_offsets) = strategy.generate(rng);
            run_slicing_differential(seed, shape_centi, cut_offsets)
        },
    );
}
