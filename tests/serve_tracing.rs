//! Black-box tests for the serve layer's request-scoped tracing and the
//! aggregating `health` verb, through the umbrella crate's public API.
//!
//! The serve crate's unit tests pin the mechanics (stamp arithmetic,
//! queue-depth conservation, histogram feeding); these tests pin the
//! end-to-end contract a client sees: every pipelined submission under
//! concurrent load comes back with non-decreasing stage timestamps and a
//! service-unique id, and once all clients drain, `health` reports empty
//! queues with request counts that add up.
//!
//! Everything tolerates `--features obs-off`: traces are then `None` and
//! the health snapshot carries no latency tables, which is itself part of
//! the contract (the seam compiles out, the verbs stay).

use std::sync::Mutex;

use temporal_reclaim::serve::RequestTrace;
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

/// Drives one client through a pipelined put/get/fan-out mix, collecting
/// every returned trace.
fn drive(client: &mut ServeClient, index: u32) -> Vec<RequestTrace> {
    let base = u64::from(index) << 32;
    let mut traces = Vec::new();
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
        window.push(client.submit(at, request).expect("live service accepts"));
        if window.len() >= 32 {
            for pending in window.drain(..) {
                let (_, trace) = pending.wait_traced();
                traces.extend(trace);
            }
        }
    }
    for pending in window {
        let (_, trace) = pending.wait_traced();
        traces.extend(trace);
    }
    traces
}

#[test]
fn stage_stamps_are_monotone_and_ids_unique_under_concurrency() {
    let service = Tempimpd::builder().shards(SHARDS).spawn();
    let prototype = service.client();

    let collected: Mutex<Vec<RequestTrace>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let mut client = prototype.clone();
            let collected = &collected;
            scope.spawn(move || {
                let traces = drive(&mut client, c);
                collected.lock().unwrap().extend(traces);
            });
        }
    });
    drop(prototype);
    service.shutdown().expect_clean();

    let traces = collected.into_inner().unwrap();
    if cfg!(feature = "obs-off") {
        assert!(
            traces.is_empty(),
            "obs-off submissions must not carry traces"
        );
        return;
    }

    let expected = u64::from(CLIENTS) * OPS_PER_CLIENT;
    assert_eq!(traces.len() as u64, expected, "every submission is traced");
    let mut ids: Vec<u64> = traces.iter().map(|t| t.id.raw()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len() as u64,
        expected,
        "request ids are service-unique across clients and shards"
    );
    for trace in &traces {
        // The whole pipeline shares one clock origin, so the stages of
        // any request — whichever shard served it — are comparable and
        // must be non-decreasing in submission order.
        assert!(
            trace.enqueued_ns <= trace.dequeued_ns
                && trace.dequeued_ns <= trace.applied_ns
                && trace.applied_ns <= trace.replied_ns,
            "stage stamps regressed: {trace:?}"
        );
        assert_eq!(
            trace.queue_wait_ns() + trace.service_ns(),
            trace.total_ns(),
            "queue-wait and service partition the total: {trace:?}"
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
        if cfg!(feature = "obs-off") {
            assert!(
                shard.latencies.is_empty(),
                "obs-off health carries no latency tables"
            );
        }
    }

    drop(client);
    service.shutdown().expect_clean();
}
