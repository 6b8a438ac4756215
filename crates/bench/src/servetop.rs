//! Rendering and capture helpers behind `tempimp-obs serve-top` and
//! `bench_serve --snapshots`: turn a [`HealthSnapshot`] into a refreshing
//! per-shard text frame, and collect the worker-emitted `serve.slow`
//! trace events into a bounded slow-request log.
//!
//! Everything here is read-side only — frames are rendered from `health`
//! verb answers and observer events, never by reaching into the service —
//! so the same code renders a live service, an `obs-off` build (every
//! latency column honestly prints `n/a`), or frames replayed from a
//! `--snapshots` capture file.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use sim_core::SimTime;
use temporal_importance::protocol::{HealthSnapshot, VerbKind};

/// The form-feed separator between frames in a `--snapshots` capture
/// file; [`split_frames`] reads it back.
pub const FRAME_SEPARATOR: char = '\u{c}';

/// Splits a `--snapshots` capture into its individual frames, dropping
/// empty fragments (a trailing separator is fine).
pub fn split_frames(capture: &str) -> Vec<&str> {
    capture
        .split(FRAME_SEPARATOR)
        .map(|frame| frame.trim_matches('\n'))
        .filter(|frame| !frame.is_empty())
        .collect()
}

fn mib(bytes: u64) -> u64 {
    bytes >> 20
}

/// Renders one serve-top frame: a header line, the per-shard table, and
/// the per-verb latency block. `elapsed` is wall time since the capture
/// started; `prev` (the previous frame's snapshot and its elapsed)
/// enables the per-shard request-rate column.
///
/// Latency columns print `n/a` for verbs without samples — in an
/// `obs-off` build that is every verb, and the frame still renders.
pub fn render_frame(
    health: &HealthSnapshot,
    elapsed: Duration,
    prev: Option<(&HealthSnapshot, Duration)>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serve-top  t={:.1}s  shards={}  reqs={}  depth={}  rejected={}\n",
        elapsed.as_secs_f64(),
        health.shards.len(),
        health.total_requests(),
        health.total_queue_depth(),
        health.shards.iter().map(|s| s.rejected).sum::<u64>(),
    ));
    out.push_str(
        "shard  clock(min)  resident   used(MiB)  depth  rej       reqs  batches    req/s\n",
    );
    for shard in &health.shards {
        let rate = prev
            .and_then(|(snapshot, at)| {
                let before = snapshot.shards.iter().find(|p| p.shard == shard.shard)?;
                let dt = elapsed.checked_sub(at)?.as_secs_f64();
                (dt > 0.0).then(|| (shard.requests.saturating_sub(before.requests)) as f64 / dt)
            })
            .map(|rate| format!("{rate:>8.0}"))
            .unwrap_or_else(|| format!("{:>8}", "-"));
        out.push_str(&format!(
            "{:>5}  {:>10}  {:>8}  {:>4}/{:<5}  {:>5}  {:>3}  {:>9}  {:>7}  {rate}\n",
            shard.shard,
            shard.clock.as_minutes(),
            shard.residents,
            mib(shard.used.as_bytes()),
            mib(shard.capacity.as_bytes()),
            shard.queue_depth,
            shard.rejected,
            shard.requests,
            shard.batches,
        ));
    }
    out.push_str("per-verb latency, worst shard (ns):\n");
    out.push_str("verb       samples  qwait p50  qwait p99    svc p50    svc p99\n");
    for verb in VerbKind::ALL {
        match worst_shard(health, verb) {
            None => out.push_str(&format!("{:<9}  {:>7}\n", verb.name(), "n/a")),
            Some((samples, worst)) => out.push_str(&format!(
                "{:<9}  {samples:>7}  {:>9}  {:>9}  {:>9}  {:>9}\n",
                verb.name(),
                worst[0],
                worst[1],
                worst[2],
                worst[3],
            )),
        }
    }
    out
}

/// `verb`'s latency across every shard of `health`: the pooled sample
/// count and each quantile's maximum over the shards — queue-wait p50,
/// queue-wait p99, service p50, service p99, in nanoseconds. That is the
/// honest cross-shard aggregate of bucketed quantiles: a conservative
/// tail, never an invented average. `None` when no shard sampled `verb`
/// (every verb, under `obs-off`).
pub fn worst_shard(health: &HealthSnapshot, verb: VerbKind) -> Option<(u64, [u64; 4])> {
    let mut samples = 0u64;
    let mut worst = [0u64; 4];
    for shard in &health.shards {
        for latency in shard.latencies.iter().filter(|l| l.verb == verb) {
            samples += latency.samples;
            for (slot, value) in worst.iter_mut().zip([
                latency.queue_wait_p50_ns,
                latency.queue_wait_p99_ns,
                latency.service_p50_ns,
                latency.service_p99_ns,
            ]) {
                *slot = (*slot).max(value);
            }
        }
    }
    (samples > 0).then_some((samples, worst))
}

/// One captured slow request, decoded from a `serve.slow` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowEntry {
    /// Simulated instant the worker processed the request at.
    pub at: SimTime,
    /// The shard that served it.
    pub shard: u64,
    /// The request's verb.
    pub verb: VerbKind,
    /// The request's 1-based ordinal on its shard: `(shard, seq)` is
    /// unique within a service, and indexes the shard's recorded request
    /// log at `seq - 1`.
    pub seq: u64,
    /// Nanoseconds spent queued (enqueue → apply).
    pub queue_ns: u64,
    /// Nanoseconds spent in the engine call.
    pub service_ns: u64,
    /// Total in-service nanoseconds.
    pub total_ns: u64,
}

/// A bounded, thread-safe slow-request log: an [`Observer`] that keeps
/// the most recent `serve.slow` events and ignores every other signal.
///
/// [`Observer`]: obs::Observer
#[derive(Debug)]
pub struct SlowLog {
    entries: Mutex<VecDeque<SlowEntry>>,
    capacity: usize,
}

impl SlowLog {
    /// A log retaining the most recent `capacity` slow requests.
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog {
            entries: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
        }
    }

    /// The captured entries, oldest first.
    ///
    /// A poisoned lock is fine to read through: every mutation keeps the
    /// deque structurally valid (the panic that poisoned it happened on
    /// some other observer's stack, not mid-push), and a diagnostics log
    /// losing its tail to a worker panic would hide exactly the evidence
    /// the panic investigation needs.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    /// Renders the newest `limit` entries as table lines (newest last),
    /// or a single placeholder line when nothing was slow.
    pub fn render_tail(&self, limit: usize) -> String {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if entries.is_empty() {
            return "slow requests: none\n".to_string();
        }
        let mut out = format!(
            "slow requests (last {} of {}):\n",
            limit.min(entries.len()),
            entries.len()
        );
        for entry in entries.iter().rev().take(limit).rev() {
            out.push_str(&format!(
                "  shard {:>2}  seq {:>8}  {:<7}  queue {:>10} ns  service {:>10} ns  total {:>10} ns\n",
                entry.shard,
                entry.seq,
                entry.verb.name(),
                entry.queue_ns,
                entry.service_ns,
                entry.total_ns,
            ));
        }
        out
    }
}

impl obs::Observer for SlowLog {
    fn counter(&self, _name: &'static str, _delta: u64) {}

    fn gauge(&self, _name: &'static str, _value: u64) {}

    fn record(&self, _name: &'static str, _value: u64) {}

    fn event(&self, at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
        if kind != "serve.slow" {
            return;
        }
        let field = |name: &str| {
            fields
                .iter()
                .find(|(key, _)| *key == name)
                .map(|&(_, value)| value)
                .unwrap_or(0)
        };
        let verb = usize::try_from(field("verb"))
            .ok()
            .and_then(|code| VerbKind::ALL.get(code).copied())
            .unwrap_or(VerbKind::Stats);
        let entry = SlowEntry {
            at,
            shard: field("shard"),
            verb,
            seq: field("seq"),
            queue_ns: field("queue_ns"),
            service_ns: field("service_ns"),
            total_ns: field("total_ns"),
        };
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }
}

/// `true` when the attached observer stack would actually receive the
/// serve trace signals — `false` under `obs-off`, letting callers print
/// an upfront notice instead of a silently all-`n/a` view.
pub fn tracing_compiled_in() -> bool {
    // Obs::none() vs an attached observer differ only at runtime; the
    // feature decides whether emission exists at all.
    !cfg!(feature = "obs-off")
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Observer;
    use sim_core::ByteSize;
    use std::sync::Arc;
    use temporal_importance::protocol::{ShardHealth, VerbLatency};

    fn snapshot(requests: u64, with_latency: bool) -> HealthSnapshot {
        HealthSnapshot {
            shards: vec![ShardHealth {
                shard: 0,
                clock: SimTime::from_minutes(120),
                residents: 42,
                used: ByteSize::from_mib(64),
                capacity: ByteSize::from_mib(256),
                queue_depth: 3,
                requests,
                batches: 10,
                rejected: 1,
                latencies: if with_latency {
                    vec![VerbLatency {
                        verb: VerbKind::Put,
                        samples: 99,
                        queue_wait_p50_ns: 1_000,
                        queue_wait_p99_ns: 9_000,
                        service_p50_ns: 2_000,
                        service_p99_ns: 8_000,
                    }]
                } else {
                    Vec::new()
                },
            }],
        }
    }

    #[test]
    fn frames_render_shard_rows_and_latency_columns() {
        let frame = render_frame(&snapshot(100, true), Duration::from_secs(2), None);
        assert!(frame.contains("shards=1"));
        assert!(frame.contains("reqs=100"));
        assert!(frame.contains("depth=3"));
        assert!(frame.contains("rejected=1"));
        // The put verb has samples, every other verb prints n/a.
        assert!(frame.contains("put"));
        assert!(frame.contains("9000"));
        assert!(frame.contains("n/a"));
        // No previous frame: the rate column is a dash.
        assert!(frame.contains("-"));
    }

    #[test]
    fn inert_snapshots_render_all_latency_columns_as_na() {
        let frame = render_frame(&snapshot(0, false), Duration::ZERO, None);
        for verb in VerbKind::ALL {
            assert!(frame.contains(verb.name()));
        }
        assert_eq!(
            frame.matches("n/a").count(),
            VerbKind::ALL.len(),
            "every verb row is n/a on an inert snapshot"
        );
    }

    #[test]
    fn worst_shard_pools_samples_and_takes_each_quantile_maximum() {
        let shard = |index: u32, latencies: Vec<VerbLatency>| ShardHealth {
            shard: index,
            latencies,
            ..snapshot(0, false).shards[0].clone()
        };
        let put = |samples: u64, [qw50, qw99, sv50, sv99]: [u64; 4]| VerbLatency {
            verb: VerbKind::Put,
            samples,
            queue_wait_p50_ns: qw50,
            queue_wait_p99_ns: qw99,
            service_p50_ns: sv50,
            service_p99_ns: sv99,
        };
        let health = HealthSnapshot {
            shards: vec![
                shard(0, vec![put(12, [1, 90, 7, 8])]),
                shard(1, Vec::new()),
                shard(2, vec![put(8, [5, 20, 3, 60])]),
            ],
        };
        assert_eq!(
            worst_shard(&health, VerbKind::Put),
            Some((20, [5, 90, 7, 60]))
        );
        assert_eq!(worst_shard(&health, VerbKind::Get), None);
    }

    #[test]
    fn rates_derive_from_the_previous_frame() {
        let before = snapshot(100, false);
        let after = snapshot(300, false);
        let frame = render_frame(
            &after,
            Duration::from_secs(3),
            Some((&before, Duration::from_secs(1))),
        );
        // 200 requests over 2 seconds.
        assert!(
            frame.contains("100"),
            "rate column shows 100 req/s: {frame}"
        );
    }

    #[test]
    fn capture_files_split_back_into_frames() {
        let capture = format!("frame-one\n{FRAME_SEPARATOR}frame-two\n{FRAME_SEPARATOR}");
        let frames = split_frames(&capture);
        assert_eq!(frames, vec!["frame-one", "frame-two"]);
        assert!(split_frames("").is_empty());
    }

    #[test]
    fn slow_log_captures_only_serve_slow_and_bounds_itself() {
        let log = Arc::new(SlowLog::new(2));
        log.event(
            SimTime::ZERO,
            "serve.batch",
            &[("shard", 0), ("drained", 5)],
        );
        assert!(log.entries().is_empty());
        assert!(log.render_tail(5).contains("none"));
        for seq in 1..=3u64 {
            log.event(
                SimTime::from_minutes(seq),
                "serve.slow",
                &[
                    ("shard", 1),
                    ("verb", VerbKind::Get.code()),
                    ("seq", seq),
                    ("queue_ns", 10),
                    ("service_ns", 20),
                    ("total_ns", 30),
                ],
            );
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 2, "capacity bounds the log");
        assert_eq!(entries[0].seq, 2, "oldest entry was evicted");
        assert_eq!(entries[1].verb, VerbKind::Get);
        assert_eq!(entries[1].total_ns, 30);
        let tail = log.render_tail(1);
        assert_eq!(tail.lines().count(), 2, "header plus one entry");
        assert!(tail.contains("get"));
        assert!(tail.contains("shard  1  seq        3"));
        assert!(tail.contains("total"));
    }

    #[test]
    fn slow_log_survives_a_poisoned_lock() {
        let log = Arc::new(SlowLog::new(4));
        log.event(
            SimTime::ZERO,
            "serve.slow",
            &[("shard", 0), ("verb", VerbKind::Put.code()), ("seq", 7)],
        );
        // Poison the mutex the way a real service does: some thread
        // panics while holding it. The log must keep reading and
        // recording — a crashed worker is precisely when the slow-request
        // evidence matters most.
        let poisoner = Arc::clone(&log);
        std::thread::spawn(move || {
            let _guard = poisoner.entries.lock().unwrap();
            panic!("deliberate poison");
        })
        .join()
        .unwrap_err();
        assert!(log.entries.is_poisoned());

        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.entries()[0].seq, 7);
        assert!(log.render_tail(5).contains("put"));
        log.event(
            SimTime::from_minutes(1),
            "serve.slow",
            &[("shard", 1), ("verb", VerbKind::Get.code()), ("seq", 8)],
        );
        assert_eq!(log.entries().len(), 2, "recording continues after poison");
    }
}
