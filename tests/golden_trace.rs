//! Golden trace: the engine's structured event stream is byte-stable.
//!
//! The observability contract (DESIGN.md §3.3) promises that a
//! [`TraceSink`] attached to a seeded simulation produces a *byte
//! identical* JSONL stream on every run, on every platform, in every
//! build profile — events are keyed by simulated time (never wall-clock)
//! and carry only integer fields. This test pins that contract two ways:
//! two in-process runs must agree with each other, and both must agree
//! with the committed `tests/golden/engine_trace.jsonl`.
//!
//! The workload itself lives in [`bench_harness::golden`] so the
//! `tempimp-obs golden` subcommand replays the exact same run; on a
//! mismatch this test prints the first divergence through
//! [`obs::tracefile`] instead of dumping two multi-kilobyte strings.
//!
//! Regenerate the golden file (only after an intentional trace change)
//! with `BLESS_GOLDEN_TRACE=1 cargo test --test golden_trace`.
//!
//! Under `obs-off` the engine emits nothing, so there is no trace to pin
//! and both tests return at once.
//!
//! [`TraceSink`]: obs::TraceSink

use bench_harness::golden::trace_run;
use obs::tracefile;
use sim_core::observe::ENABLED;

/// Renders the first divergence between two traces, self-serve style:
/// the failing assertion's message tells the reader exactly which event
/// changed and how, plus the one command that re-blesses the golden.
fn explain_divergence(current: &str, golden: &str) -> String {
    match tracefile::first_divergence(current, golden) {
        Some(divergence) => format!("{divergence}"),
        None => "traces are identical".to_string(),
    }
}

#[test]
fn engine_trace_is_byte_reproducible() {
    if !ENABLED {
        return;
    }
    let first = trace_run();
    let second = trace_run();
    assert!(!first.is_empty(), "the churn burst must emit events");
    assert_eq!(first, second, "two identical runs must trace identically");

    if std::env::var_os("BLESS_GOLDEN_TRACE").is_some() {
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/engine_trace.jsonl"
            ),
            &first,
        )
        .expect("write golden trace");
        return;
    }
    let golden = include_str!("golden/engine_trace.jsonl");
    assert!(
        first == golden,
        "trace diverged from tests/golden/engine_trace.jsonl\n{}\nif the \
         change is intentional, re-bless with:\n    BLESS_GOLDEN_TRACE=1 \
         cargo test --test golden_trace",
        explain_divergence(&first, golden),
    );
}

#[test]
fn trace_lines_are_valid_shape() {
    if !ENABLED {
        return;
    }
    let trace = trace_run();
    let events = tracefile::parse_jsonl(&trace)
        .unwrap_or_else(|(line, err)| panic!("unparseable trace line {line}: {err}"));
    assert!(!events.is_empty());
    let known = [
        "engine.store",
        "engine.reject",
        "engine.breakpoint",
        "engine.evict",
    ];
    for event in &events {
        assert!(
            known.contains(&event.kind.as_str()),
            "unexpected event kind in {event}"
        );
    }
    // The churn burst must keep exercising the engine's main kinds — a
    // golden file that stops covering one of them is a regression too.
    // (`engine.reject` stays *allowed* but the preemptive policy never
    // rejects under this workload, so presence isn't required.)
    let stats = tracefile::stats(&events);
    for kind in ["engine.store", "engine.breakpoint", "engine.evict"] {
        assert!(stats.contains_key(kind), "no {kind} events in the trace");
    }
}
