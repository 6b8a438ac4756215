//! Trajectories come from the trace (DESIGN.md §3.4).
//!
//! `repro --trace` writes each experiment's event stream, and
//! `tempimp-obs series` / `verify-density` read trajectories back out of
//! it. These tests pin the two facts that chain rests on: Figure 6's table
//! is exactly what its traced `density.sample` events say, reproducibly,
//! and a label-filtered series does not depend on how other threads'
//! lines were interleaved around it.

use std::sync::Arc;

use proptest::prelude::*;
use temporal_reclaim::analysis::TimeSeries;
use temporal_reclaim::experiments::figures;
use temporal_reclaim::obs::{self, tracefile, Observer, TraceSink};
use temporal_reclaim::sim::observe::ENABLED;
use temporal_reclaim::{SimDuration, SimTime};

/// Temporal importance's `policy` code on `density.sample` events.
const TEMPORAL_IMPORTANCE: u64 = 1;

#[test]
fn fig6_table_is_the_bucket_mean_of_its_traced_density_samples() {
    let sink = Arc::new(TraceSink::new());
    if !ENABLED || !obs::set_global_observer(sink.clone()) {
        return;
    }
    let report = figures::fig6(7, 120);
    let jsonl = sink.take_jsonl();
    let events = tracefile::parse_jsonl(&jsonl).expect("the sink writes valid JSONL");

    assert_eq!(report.tables.len(), 2, "one table per capacity");
    for (name, table) in &report.tables {
        let gib: u64 = name
            .split(' ')
            .next()
            .and_then(|gib| gib.parse().ok())
            .expect("table names start with the capacity in GiB");
        let filters = [
            ("gib".to_string(), gib),
            ("policy".to_string(), TEMPORAL_IMPORTANCE),
        ];
        let daily: TimeSeries =
            tracefile::extract_series(&events, "density.sample", "density_ppm", &filters)
                .into_iter()
                .map(|(t, ppm)| (SimTime::from_minutes(t), ppm as f64 / 1e6))
                .collect();
        let monthly = daily.bucket_mean(SimDuration::from_days(30));

        let csv = table.to_csv();
        let mut rows = csv.lines();
        assert_eq!(rows.next(), Some("day,density"));
        let rows: Vec<(u64, f64)> = rows
            .map(|row| {
                let (day, density) = row.split_once(',').expect("two columns");
                (day.parse().unwrap(), density.parse().unwrap())
            })
            .collect();
        assert_eq!(rows.len(), monthly.len(), "{gib} GiB: one row per month");
        for ((day, density), (at, mean)) in rows.into_iter().zip(monthly) {
            assert_eq!(day, at.as_days());
            // The table rounds to 4 decimals (±5e-5), each sample to
            // parts-per-million (±5e-7).
            assert!(
                (density - mean).abs() <= 1.5e-4,
                "{gib} GiB, day {day}: table {density}, trace {mean}"
            );
        }
    }

    figures::fig6(7, 120);
    assert!(
        sink.take_jsonl() == jsonl,
        "a second run of fig6 must trace byte-identically"
    );
}

/// One `density.sample` line, as a single-class run emits it.
fn sample(sink: &TraceSink, t: u64, policy: u64, ppm: u64) {
    sink.event(
        SimTime::from_minutes(t),
        "density.sample",
        &[("gib", 80), ("policy", policy), ("density_ppm", ppm)],
    );
}

proptest! {
    /// What `fig3` / `fig4` traces look like: three policy runs on threads,
    /// their lines interleaved in scheduling order, together with engine
    /// events that carry no policy label.
    #[test]
    fn label_filtered_series_ignore_interleaved_events(
        ours in proptest::collection::vec((0u64..100_000, 0u64..=1_000_000), 0..40),
        others in proptest::collection::vec((0u8..2, 0u64..100_000, 0u64..3), 0..80),
        order in proptest::collection::vec(0u8..2, 0..120),
    ) {
        let mixed = TraceSink::new();
        let (mut ours_left, mut others_left) = (ours.iter(), others.iter());
        let emit_other = |&(kind, t, label): &(u8, u64, u64)| {
            if kind == 0 {
                // Another policy's run: any label but ours.
                let policy = if label == TEMPORAL_IMPORTANCE { 2 } else { label };
                sample(&mixed, t, policy, t);
            } else {
                mixed.event(SimTime::from_minutes(t), "engine.store", &[("id", label)]);
            }
        };
        for pick in order {
            if pick == 0 {
                if let Some(&(t, ppm)) = ours_left.next() {
                    sample(&mixed, t, TEMPORAL_IMPORTANCE, ppm);
                }
            } else if let Some(other) = others_left.next() {
                emit_other(other);
            }
        }
        for &(t, ppm) in ours_left {
            sample(&mixed, t, TEMPORAL_IMPORTANCE, ppm);
        }
        others_left.for_each(emit_other);

        let events = tracefile::parse_jsonl(&mixed.to_jsonl()).expect("valid JSONL");
        let filters = [("policy".to_string(), TEMPORAL_IMPORTANCE)];
        prop_assert_eq!(
            tracefile::extract_series(&events, "density.sample", "density_ppm", &filters),
            ours
        );
    }
}
