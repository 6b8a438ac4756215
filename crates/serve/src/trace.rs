//! Request-scoped latency for the serving pipeline.
//!
//! Every request enqueued into a [`Tempimpd`](crate::Tempimpd) is
//! stamped with its **enqueue** instant (client, before the channel
//! send); its worker reads the clock twice more, at **apply** (right
//! before the engine call) and **reply** (right after: the answer
//! exists, and is delivered when the rest of its batch has been applied)
//! — all three against one service-wide monotonic origin so they compare
//! across threads. From them the worker derives the two halves of every
//! request's latency:
//!
//! * **queue wait** = apply − enqueue: channel transit, time parked in
//!   the ingest queue, and head-of-line wait behind earlier jobs of the
//!   same batch. This is the honest number — a request drained early
//!   into a large batch still waits for its turn inside the batch.
//! * **service** = reply − apply: the engine call itself.
//!
//! Both are recorded per verb into worker-local log₂ histograms, the
//! one record of request latency: every reader (`serve-top`,
//! `bench_serve`, the tests) gets its quantiles from the per-shard
//! `health` answers built from them. Requests whose total latency
//! crosses the worker's slow threshold additionally emit an
//! integer-only `serve.slow` trace event through the observer seam.
//! Nothing travels back to the client with the reply.
//!
//! This module is where the crate gates on the `obs-off` feature (its
//! tests only read it), and with `sim_core::observe` one of the two
//! places in library code that do: under it, every type here collapses
//! to a unit struct and every method to an empty inline body, so the
//! serve hot path carries no atomic traffic, no `Instant` reads, and no
//! extra bytes per job. (Serve trace events carry wall-clock durations and so
//! must never feed a byte-stable artifact; the `TraceSink` ignores
//! them by construction only for spans, so keep `serve.slow` out of
//! golden traces — the golden workload never drives the serve layer.)

use temporal_importance::protocol::VerbLatency;

#[cfg(not(feature = "obs-off"))]
use obs::Histogram;
#[cfg(not(feature = "obs-off"))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;
#[cfg(not(feature = "obs-off"))]
use temporal_importance::protocol::VerbKind;

/// Nanoseconds elapsed on the trace clock anchored at `origin`.
#[cfg(not(feature = "obs-off"))]
fn since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Service-wide shared telemetry: the trace-clock origin and per-shard
/// ingest-queue counters. One per service, shared by every client and
/// worker through an `Arc`.
///
/// Queue-depth accounting conserves by construction: a client increments
/// its shard's depth *before* the channel send and undoes the increment
/// if the send fails, the worker decrements once per drained job —
/// enqueues − dequeues is exactly the number of jobs sitting in the
/// channel, and a drained service always returns to zero.
#[derive(Debug)]
pub(crate) struct Telemetry {
    #[cfg(not(feature = "obs-off"))]
    origin: Instant,
    #[cfg(not(feature = "obs-off"))]
    shards: Vec<ShardCounters>,
}

#[cfg(not(feature = "obs-off"))]
#[derive(Debug, Default)]
struct ShardCounters {
    depth: AtomicU64,
    rejected: AtomicU64,
}

impl Telemetry {
    /// Telemetry for a `shards`-wide service, with the trace origin
    /// anchored at the call.
    pub(crate) fn new(shards: u32) -> Telemetry {
        #[cfg(not(feature = "obs-off"))]
        {
            Telemetry {
                origin: Instant::now(),
                shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            }
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = shards;
            Telemetry {}
        }
    }

    /// Stamps the enqueue stage. Clients call this once per job, right
    /// before the channel send.
    pub(crate) fn stamp(&self) -> Stamps {
        #[cfg(not(feature = "obs-off"))]
        {
            Stamps {
                enqueued_ns: since(self.origin),
            }
        }
        #[cfg(feature = "obs-off")]
        {
            Stamps {}
        }
    }

    /// Counts a job into `shard`'s queue depth (call before the send).
    pub(crate) fn enqueued(&self, shard: u32) {
        #[cfg(not(feature = "obs-off"))]
        self.shards[shard as usize]
            .depth
            .fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "obs-off")]
        let _ = shard;
    }

    /// Undoes [`enqueued`](Telemetry::enqueued) after a failed send, so
    /// depth never counts a job that is not in the channel.
    pub(crate) fn enqueue_failed(&self, shard: u32) {
        #[cfg(not(feature = "obs-off"))]
        self.shards[shard as usize]
            .depth
            .fetch_sub(1, Ordering::Relaxed);
        #[cfg(feature = "obs-off")]
        let _ = shard;
    }

    /// Counts one fast-fail backpressure rejection against `shard`.
    pub(crate) fn rejected(&self, shard: u32) {
        #[cfg(not(feature = "obs-off"))]
        self.shards[shard as usize]
            .rejected
            .fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "obs-off")]
        let _ = shard;
    }

    /// Removes `n` drained jobs from `shard`'s depth and returns the
    /// remaining depth (what the worker reports as its gauge).
    pub(crate) fn drained(&self, shard: u32, n: u64) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        {
            self.shards[shard as usize]
                .depth
                .fetch_sub(n, Ordering::Relaxed)
                .saturating_sub(n)
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = (shard, n);
            0
        }
    }

    /// `shard`'s current ingest-queue depth (0 under `obs-off`).
    pub(crate) fn depth(&self, shard: u32) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        {
            self.shards[shard as usize].depth.load(Ordering::Relaxed)
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = shard;
            0
        }
    }

    /// `shard`'s lifetime backpressure-rejection count (0 under
    /// `obs-off`).
    pub(crate) fn rejected_count(&self, shard: u32) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        {
            self.shards[shard as usize].rejected.load(Ordering::Relaxed)
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = shard;
            0
        }
    }
}

/// The enqueue instant riding inside a queued `Job`. The apply and reply
/// stages are measured by the worker at completion and never stored in
/// the job.
#[derive(Debug, Default)]
pub(crate) struct Stamps {
    #[cfg(not(feature = "obs-off"))]
    enqueued_ns: u64,
}

/// A captured instant on the service trace clock, used to hand the apply
/// timestamp from [`WorkerTracing::mark`] to [`WorkerTracing::complete`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark(#[cfg(not(feature = "obs-off"))] u64);

/// Per-worker tracing state: the clock handle, the per-verb queue-wait
/// and service-time histograms behind this shard's `health` answers,
/// and the slow-request threshold.
#[derive(Debug)]
pub(crate) struct WorkerTracing {
    #[cfg(not(feature = "obs-off"))]
    origin: Instant,
    #[cfg(not(feature = "obs-off"))]
    slow_ns: u64,
    #[cfg(not(feature = "obs-off"))]
    latencies: [(Histogram, Histogram); VerbKind::ALL.len()],
}

impl WorkerTracing {
    /// Worker tracing sharing `telemetry`'s clock origin, flagging
    /// requests slower than `slow_ns` total (u64::MAX disables the slow
    /// log).
    pub(crate) fn new(telemetry: &Telemetry, slow_ns: u64) -> WorkerTracing {
        #[cfg(not(feature = "obs-off"))]
        {
            WorkerTracing {
                origin: telemetry.origin,
                slow_ns,
                latencies: std::array::from_fn(|_| (Histogram::new(), Histogram::new())),
            }
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = (telemetry, slow_ns);
            WorkerTracing {}
        }
    }

    /// Reads the trace clock once; feed the mark to
    /// [`WorkerTracing::complete`] as the apply instant.
    pub(crate) fn mark(&self) -> Mark {
        #[cfg(not(feature = "obs-off"))]
        {
            Mark(since(self.origin))
        }
        #[cfg(feature = "obs-off")]
        {
            Mark()
        }
    }

    /// Completes one request: reads the reply instant, derives queue-wait
    /// and service time from it, the stamps and the `applied` mark,
    /// records both into the local per-verb histograms, and emits the
    /// `serve.slow` event when the total crosses the threshold.
    /// `seq` is the request's 1-based ordinal on `shard`: `(shard, seq)`
    /// names it uniquely within the service, and indexes the shard's
    /// recorded log at `seq − 1`.
    // One argument per pipeline ingredient (seam, clock, identity,
    // stamps); bundling them into a struct would be built and
    // destructured at the single call site for no clarity gain.
    #[allow(unused_variables, clippy::too_many_arguments)]
    pub(crate) fn complete(
        &mut self,
        obs: &sim_core::Obs,
        now: sim_core::SimTime,
        shard: u32,
        seq: u64,
        verb: temporal_importance::protocol::VerbKind,
        stamps: Stamps,
        applied: Mark,
    ) {
        #[cfg(not(feature = "obs-off"))]
        {
            let queue_wait = applied.0.saturating_sub(stamps.enqueued_ns);
            let service = since(self.origin).saturating_sub(applied.0);
            let total = queue_wait + service;
            let slot = &mut self.latencies[verb.code() as usize];
            slot.0.record(queue_wait);
            slot.1.record(service);
            if total >= self.slow_ns {
                obs.event(
                    now,
                    "serve.slow",
                    &[
                        ("shard", u64::from(shard)),
                        ("verb", verb.code()),
                        ("seq", seq),
                        ("queue_ns", queue_wait),
                        ("service_ns", service),
                        ("total_ns", total),
                    ],
                );
            }
        }
    }

    /// The per-verb latency quantiles this worker has accumulated, for
    /// verbs with at least one sample — what the worker splices into
    /// its `health` answers. Empty under `obs-off`.
    pub(crate) fn latencies(&self) -> Vec<VerbLatency> {
        #[cfg(not(feature = "obs-off"))]
        {
            VerbKind::ALL
                .iter()
                .filter_map(|&verb| {
                    let (queue_wait, service) = &self.latencies[verb.code() as usize];
                    (queue_wait.count() > 0).then(|| VerbLatency {
                        verb,
                        samples: queue_wait.count(),
                        queue_wait_p50_ns: queue_wait.quantile(0.50),
                        queue_wait_p99_ns: queue_wait.quantile(0.99),
                        service_p50_ns: service.quantile(0.50),
                        service_p99_ns: service.quantile(0.99),
                    })
                })
                .collect()
        }
        #[cfg(feature = "obs-off")]
        {
            Vec::new()
        }
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sim_core::observe::Observer;
    use sim_core::{Obs, SimTime};
    use std::sync::{Arc, Mutex};
    use temporal_importance::protocol::VerbKind;

    type CaughtEvent = (String, Vec<(String, u64)>);

    #[derive(Debug, Default)]
    struct EventCatcher {
        events: Mutex<Vec<CaughtEvent>>,
        records: Mutex<Vec<(String, u64)>>,
    }

    impl Observer for EventCatcher {
        fn counter(&self, _: &'static str, _: u64) {}
        fn gauge(&self, _: &'static str, _: u64) {}
        fn record(&self, name: &'static str, value: u64) {
            self.records.lock().unwrap().push((name.into(), value));
        }
        fn event(&self, _: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
            self.events.lock().unwrap().push((
                kind.into(),
                fields.iter().map(|&(k, v)| (k.into(), v)).collect(),
            ));
        }
    }

    fn complete_one(tracing: &mut WorkerTracing, telemetry: &Telemetry, obs: &Obs, seq: u64) {
        let stamps = telemetry.stamp();
        let applied = tracing.mark();
        tracing.complete(obs, SimTime::ZERO, 0, seq, VerbKind::Get, stamps, applied);
    }

    #[test]
    fn completions_feed_the_local_histograms_only() {
        let catcher = Arc::new(EventCatcher::default());
        let obs = Obs::attached(catcher.clone());
        let telemetry = Telemetry::new(1);
        let mut tracing = WorkerTracing::new(&telemetry, u64::MAX);
        complete_one(&mut tracing, &telemetry, &obs, 1);
        complete_one(&mut tracing, &telemetry, &obs, 2);

        let latencies = tracing.latencies();
        assert_eq!(latencies.len(), 1, "only the get verb has samples");
        assert_eq!(latencies[0].verb, VerbKind::Get);
        assert_eq!(latencies[0].samples, 2);
        assert!(latencies[0].queue_wait_p50_ns <= latencies[0].queue_wait_p99_ns);
        assert!(latencies[0].service_p50_ns <= latencies[0].service_p99_ns);

        // Latency has one home: the seam receives no sample, and no slow
        // event at a disabled threshold.
        assert!(catcher.records.lock().unwrap().is_empty());
        assert!(catcher.events.lock().unwrap().is_empty());
    }

    #[test]
    fn slow_requests_emit_integer_only_events() {
        let catcher = Arc::new(EventCatcher::default());
        let obs = Obs::attached(catcher.clone());
        let telemetry = Telemetry::new(1);
        // Threshold zero: every request is "slow".
        let mut tracing = WorkerTracing::new(&telemetry, 0);
        complete_one(&mut tracing, &telemetry, &obs, 7);

        let events = catcher.events.lock().unwrap();
        assert_eq!(events.len(), 1);
        let (kind, fields) = &events[0];
        assert_eq!(kind, "serve.slow");
        let field = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert_eq!(field("verb"), VerbKind::Get.code());
        assert_eq!(field("seq"), 7);
        assert_eq!(field("queue_ns") + field("service_ns"), field("total_ns"));
    }

    proptest! {
        /// Queue-depth accounting conserves: after any interleaving of
        /// successful enqueues, failed enqueues (undone), and drains,
        /// the depth equals enqueues − drains, never goes negative, and
        /// returns to zero once everything drained.
        #[test]
        fn queue_depth_accounting_conserves(ops in proptest::collection::vec(0u8..3, 1..200)) {
            let telemetry = Telemetry::new(2);
            let mut model = [0u64; 2];
            for (i, op) in ops.iter().enumerate() {
                let shard = (i % 2) as u32;
                match op {
                    0 => {
                        telemetry.enqueued(shard);
                        model[shard as usize] += 1;
                    }
                    1 => {
                        // A failed send is undone immediately.
                        telemetry.enqueued(shard);
                        telemetry.enqueue_failed(shard);
                    }
                    _ => {
                        let drain = model[shard as usize].min(2);
                        if drain > 0 {
                            let after = telemetry.drained(shard, drain);
                            model[shard as usize] -= drain;
                            prop_assert_eq!(after, model[shard as usize]);
                        }
                    }
                }
                prop_assert_eq!(telemetry.depth(shard), model[shard as usize]);
            }
            for shard in 0..2u32 {
                let depth = model[shard as usize];
                if depth > 0 {
                    prop_assert_eq!(telemetry.drained(shard, depth), 0);
                }
                prop_assert_eq!(telemetry.depth(shard), 0, "drained queues return to zero");
            }
        }
    }
}
