//! Black-box tests for the serve layer's request-scoped latency and the
//! aggregating `health` verb, through the umbrella crate's public API.
//!
//! The serve crate's unit tests pin the mechanics (stamp arithmetic,
//! queue-depth conservation, histogram feeding); these tests pin the
//! end-to-end contract a reader sees: under concurrent pipelined load
//! every served request emits one slow-log event naming it by a
//! service-unique `(shard, seq)` pair, its queue-wait and service halves
//! partition its total, the per-verb histograms `health` reports count
//! every request, and once all clients drain, `health` reports empty
//! queues with request counts that add up.
//!
//! Everything tolerates `--features obs-off`: no slow events are then
//! emitted and the health snapshot carries no latency tables, which is
//! itself part of the contract (the seam compiles out, the verbs stay).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use temporal_reclaim::obs::Observer;
use temporal_reclaim::sim::observe::ENABLED;
use temporal_reclaim::tempimp::*;

const CLIENTS: u32 = 4;
const OPS_PER_CLIENT: u64 = 500;
const SHARDS: u32 = 4;

fn put(base: u64, i: u64) -> Request {
    Request::Put {
        id: ObjectId::new(base + i),
        bytes: ByteSize::from_mib(1),
        curve: ImportanceCurve::two_step(
            Importance::FULL,
            SimDuration::from_days(15),
            SimDuration::from_days(15),
        ),
        class: Default::default(),
    }
}

/// The fields of one `serve.slow` event.
#[derive(Debug, Clone, Copy)]
struct Slow {
    shard: u64,
    seq: u64,
    queue_ns: u64,
    service_ns: u64,
    total_ns: u64,
}

/// Collects every `serve.slow` event; all other signals are ignored.
#[derive(Debug, Default)]
struct SlowEvents(Mutex<Vec<Slow>>);

impl Observer for SlowEvents {
    fn counter(&self, _: &'static str, _: u64) {}
    fn gauge(&self, _: &'static str, _: u64) {}
    fn record(&self, _: &'static str, _: u64) {}
    fn event(&self, _: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
        if kind != "serve.slow" {
            return;
        }
        let field = |name: &str| {
            fields
                .iter()
                .find(|(key, _)| *key == name)
                .map(|&(_, value)| value)
                .expect("serve.slow carries every field")
        };
        self.0.lock().unwrap().push(Slow {
            shard: field("shard"),
            seq: field("seq"),
            queue_ns: field("queue_ns"),
            service_ns: field("service_ns"),
            total_ns: field("total_ns"),
        });
    }
}

/// Drives one client through a pipelined put/get/fan-out mix and returns
/// how many shard legs it was served.
fn drive(client: &mut ServeClient, index: u32) -> u64 {
    let base = u64::from(index) << 32;
    let mut legs = 0;
    let mut window = Vec::new();
    for i in 0..OPS_PER_CLIENT {
        let at = SimTime::from_minutes(i * 30);
        let request = match i % 8 {
            0..=4 => put(base, i),
            5 | 6 => Request::Get {
                id: ObjectId::new(base + i.saturating_sub(3)),
            },
            _ => Request::Stats,
        };
        legs += if matches!(request, Request::Stats) {
            u64::from(SHARDS)
        } else {
            1
        };
        window.push(client.submit(at, request).expect("live service accepts"));
        if window.len() >= 32 {
            for pending in window.drain(..) {
                pending.wait();
            }
        }
    }
    for pending in window {
        pending.wait();
    }
    legs
}

#[test]
fn stage_stamps_are_monotone_and_ids_unique_under_concurrency() {
    let events = Arc::new(SlowEvents::default());
    let service = Tempimpd::builder()
        .shards(SHARDS)
        .slow_threshold(Duration::ZERO)
        .observer(Obs::attached(events.clone()))
        .spawn();
    let prototype = service.client();

    let legs: u64 = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut client = prototype.clone();
                scope.spawn(move || drive(&mut client, c))
            })
            .collect();
        drivers.into_iter().map(|d| d.join().unwrap()).sum()
    });
    // The probe's own legs are slow events too, but its answers were
    // spliced before its latencies were recorded.
    let mut probe = prototype;
    let health = probe
        .health(SimTime::from_minutes(OPS_PER_CLIENT * 30))
        .expect("live service answers health");
    drop(probe);
    service.shutdown().expect_clean();

    let samples: u64 = health
        .shards
        .iter()
        .flat_map(|shard| &shard.latencies)
        .map(|latency| latency.samples)
        .sum();
    let events = events.0.lock().unwrap();
    if !ENABLED {
        assert_eq!(samples, 0, "obs-off health carries no latency tables");
        assert!(events.is_empty(), "obs-off emits no slow events");
        return;
    }

    assert_eq!(samples, legs, "the per-verb histograms count every leg");
    assert_eq!(
        events.len() as u64,
        legs + u64::from(SHARDS),
        "one slow event per leg served, the probe's included"
    );
    let mut named = HashSet::new();
    for event in events.iter() {
        assert!(
            named.insert((event.shard, event.seq)),
            "(shard, seq) is service-unique: {event:?}"
        );
        assert_eq!(
            event.queue_ns + event.service_ns,
            event.total_ns,
            "queue-wait and service partition the total: {event:?}"
        );
    }
}

#[test]
fn drained_service_reports_empty_queues_and_consistent_counts() {
    let service = Tempimpd::builder().shards(SHARDS).spawn();
    let mut client = service.client();

    for i in 0..200u64 {
        let response = client.call(SimTime::from_minutes(i), put(0, i));
        assert!(matches!(response, Response::Put(Ok(_))));
    }

    let health = client
        .health(SimTime::from_minutes(200))
        .expect("live service answers health");
    assert_eq!(health.shards.len() as u32, SHARDS);
    // Blocking calls: nothing can still be queued when health answers.
    assert_eq!(health.total_queue_depth(), 0, "all queues drained");
    // 200 puts + the health fan-out itself, one leg per shard.
    assert_eq!(health.total_requests(), 200 + u64::from(SHARDS));
    let residents: u64 = health.shards.iter().map(|s| s.residents).sum();
    assert_eq!(residents, 200, "every put is resident somewhere");
    for shard in &health.shards {
        assert_eq!(shard.rejected, 0, "nothing was rejected");
        assert!(shard.batches <= shard.requests);
        if !ENABLED {
            assert!(
                shard.latencies.is_empty(),
                "obs-off health carries no latency tables"
            );
        }
    }

    drop(client);
    service.shutdown().expect_clean();
}
