//! The reply path under stress, through the crate's public API.
//!
//! `mailbox.rs` checks the slot state machine against a model and
//! `service.rs` the slot lifecycle of refused requests; these tests run
//! real services and pin what a client sees: every reply reaches the
//! `Pending` it belongs to, whichever thread redeems it; connections do
//! not see each other's replies; an overloaded service answers every
//! submission exactly once; and a worker that dies leaves no waiter
//! behind.
//!
//! Everything tolerates `--features obs-off`; the dying worker, which is
//! killed through the observer seam, returns early there.

use std::sync::mpsc;

use proptest::test_runner::{run_cases_n, TestCaseError};
use proptest::{prop_assert, prop_assert_eq};
use rand::{Rng, SeedableRng};
use sim_core::observe::ENABLED;
use sim_core::{ByteSize, Obs, SimDuration, SimTime};
use tempimpd::{ServeClient, Tempimpd};
use temporal_importance::protocol::{AnnotateMode, Request, Response, StoreApi, VerbKind};
use temporal_importance::{Error, EvictionReason, ImportanceCurve, ObjectId};

fn put(id: u64) -> Request {
    put_with(
        id,
        ImportanceCurve::fixed_lifetime(SimDuration::from_days(7)),
    )
}

fn put_with(id: u64, curve: ImportanceCurve) -> Request {
    Request::Put {
        id: ObjectId::new(id),
        bytes: ByteSize::from_kib(1),
        curve,
        class: Default::default(),
    }
}

fn get(id: u64) -> Request {
    Request::Get {
        id: ObjectId::new(id),
    }
}

/// The id a keyed reply is about, if the request was applied.
fn answered_id(response: &Response) -> Option<u64> {
    match response {
        Response::Put(Ok(outcome)) => Some(outcome.id.raw()),
        Response::Get(Ok(Some(info))) => Some(info.id.raw()),
        _ => None,
    }
}

fn small_service(shards: u32) -> Tempimpd {
    Tempimpd::builder()
        .shards(shards)
        .shard_capacity(ByteSize::from_mib(256))
        .observer(Obs::none())
        .spawn()
}

/// The shape `bench_stack`'s open-loop workload uses: one thread submits
/// without ever waiting, another redeems.
#[test]
fn a_pending_is_redeemed_on_another_thread_while_its_submitter_keeps_submitting() {
    const OBJECTS: u64 = 10_000;
    let service = small_service(2);
    let client = service.client();
    let (tx, rx) = mpsc::sync_channel(512);
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut collected = 0u64;
            for (pending, id) in rx {
                let pending: tempimpd::Pending = pending;
                assert_eq!(answered_id(&pending.wait()), Some(id), "reply crossed over");
                collected += 1;
            }
            collected
        });
        for id in 0..OBJECTS {
            // Same key, same shard, FIFO: the get sees its put.
            for request in [put(id), get(id)] {
                let pending = client.submit(SimTime::ZERO, request).expect("live service");
                tx.send((pending, id)).expect("collector is running");
            }
        }
        drop(tx);
        assert_eq!(collector.join().expect("collector"), 2 * OBJECTS);
    });
    drop(client);
    service.shutdown().expect_clean();
}

#[test]
fn clones_on_two_threads_never_see_each_others_replies() {
    const OBJECTS: u64 = 5_000;
    let service = small_service(2);
    let prototype = service.client();
    std::thread::scope(|scope| {
        for thread in 0..2u64 {
            let mut client = prototype.clone();
            scope.spawn(move || {
                let base = thread << 32;
                let mut window = Vec::new();
                for i in 0..OBJECTS {
                    let id = base + i;
                    // Blocking and pipelined calls interleaved on one
                    // connection.
                    let stored = client.call(SimTime::ZERO, put(id));
                    assert_eq!(answered_id(&stored), Some(id));
                    window.push((client.submit(SimTime::ZERO, get(id)).unwrap(), id));
                    if window.len() == 64 {
                        for (pending, id) in window.drain(..) {
                            assert_eq!(answered_id(&pending.wait()), Some(id));
                        }
                    }
                }
                for (pending, id) in window {
                    assert_eq!(answered_id(&pending.wait()), Some(id));
                }
            });
        }
    });
    let mut client = prototype;
    assert_eq!(
        client.store_stats(SimTime::ZERO).unwrap().objects,
        2 * OBJECTS
    );
    drop(client);
    service.shutdown().expect_clean();
}

/// What one load thread saw, by outcome.
#[derive(Debug, Default)]
struct Outcomes {
    submitted: u64,
    /// Applied requests, counted in shard legs (a fan-out is one per
    /// shard).
    applied_legs: u64,
    applied_puts: u64,
    /// Removes that found their object.
    removed: u64,
    /// Sweeps submitted.
    sweeps: u64,
    /// Sweeps answered, applied or `QueueFull`: each exactly once.
    sweeps_resolved: u64,
    /// Records the applied sweeps answered.
    expired: u64,
    /// Legs of refused fan-outs that had already been sent: `QueueFull`
    /// on shard k means shards 0..k took theirs.
    orphaned_legs: u64,
    queue_full: u64,
}

impl Outcomes {
    fn settle(&mut self, verb: VerbKind, shards: u32, response: &Response) -> Result<(), String> {
        let fan_out = matches!(
            verb,
            VerbKind::Density | VerbKind::Stats | VerbKind::Health | VerbKind::Sweep
        );
        let failure = match response {
            Response::Put(Err(error))
            | Response::Get(Err(error))
            | Response::Advise(Err(error))
            | Response::Density(Err(error))
            | Response::Stats(Err(error))
            | Response::Health(Err(error))
            | Response::Remove(Err(error))
            | Response::Annotate(Err(error))
            | Response::Sweep(Err(error)) => Some(error),
            Response::Put(Ok(_))
            | Response::Get(Ok(_))
            | Response::Advise(Ok(_))
            | Response::Density(Ok(_))
            | Response::Stats(Ok(_))
            | Response::Health(Ok(_))
            | Response::Remove(Ok(_))
            | Response::Annotate(Ok(_))
            | Response::Sweep(Ok(_)) => None,
        };
        match failure {
            None | Some(Error::Store(_) | Error::Rejuvenate(_)) => {
                self.applied_legs += if fan_out { u64::from(shards) } else { 1 };
                self.applied_puts += u64::from(verb == VerbKind::Put);
                self.removed += u64::from(matches!(response, Response::Remove(Ok(Some(_)))));
                if let Response::Sweep(Ok(records)) = response {
                    if let Some(record) = records
                        .iter()
                        .find(|record| record.reason != EvictionReason::Expired)
                    {
                        return Err(format!("a sweep answered {record:?}"));
                    }
                    self.expired += records.len() as u64;
                }
            }
            Some(Error::QueueFull { shard }) => {
                self.queue_full += 1;
                if fan_out {
                    self.orphaned_legs += u64::from(*shard);
                }
            }
            Some(other) => return Err(format!("{verb:?} answered {other:?}")),
        }
        self.sweeps_resolved += u64::from(verb == VerbKind::Sweep);
        Ok(())
    }
}

/// One load thread: a seeded mix of keyed and whole-store requests, sent
/// blocking (`call`), fail-fast (`try_call`) or pipelined (`submit`).
fn overload(
    client: &mut ServeClient,
    seed: u64,
    thread: u64,
    ops: u64,
) -> Result<Outcomes, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ thread);
    let shards = client.shards();
    let mut outcomes = Outcomes::default();
    let mut window = Vec::new();
    for i in 0..ops {
        let id = ObjectId::new((thread << 32) + rng.gen_range(0..=i));
        let request = match rng.gen_range(0..14u32) {
            0..=4 => put((thread << 32) + i),
            // Expired on arrival: what the sweeps find.
            5 => put_with((thread << 32) + i, ImportanceCurve::Ephemeral),
            6..=8 => get(id.raw()),
            9 => Request::Remove { id },
            10 => Request::Annotate {
                id,
                curve: ImportanceCurve::fixed_lifetime(SimDuration::from_days(30)),
                mode: AnnotateMode::Raise,
            },
            11 => Request::Stats,
            12 => Request::Sweep,
            _ => Request::Density,
        };
        let verb = VerbKind::of(&request);
        outcomes.submitted += 1;
        outcomes.sweeps += u64::from(verb == VerbKind::Sweep);
        match rng.gen_range(0..3u32) {
            0 => outcomes.settle(verb, shards, &client.call(SimTime::ZERO, request))?,
            1 => outcomes.settle(verb, shards, &client.try_call(SimTime::ZERO, request))?,
            _ => match client.submit(SimTime::ZERO, request) {
                Ok(pending) => window.push((verb, pending)),
                Err(error) => outcomes.settle(verb, shards, &verb.failed(error))?,
            },
        }
        if window.len() >= 8 {
            for (verb, pending) in window.drain(..) {
                outcomes.settle(verb, shards, &pending.wait())?;
            }
        }
    }
    for (verb, pending) in window {
        outcomes.settle(verb, shards, &pending.wait())?;
    }
    Ok(outcomes)
}

/// ROADMAP item 4's overload property. Three threads keep depth-1 ingest
/// queues saturated with blocking, fail-fast and pipelined submissions;
/// every submission resolves to exactly one of applied / `QueueFull`
/// (nothing disconnects a live service), the shards processed exactly the
/// legs that were accepted, and the queue-depth telemetry returns to
/// zero.
#[test]
fn under_a_saturated_queue_every_submission_resolves_exactly_once() {
    const THREADS: u64 = 3;
    const OPS: u64 = 400;
    run_cases_n("overload", 12, |rng| {
        let seed: u64 = rng.gen();
        let service = Tempimpd::builder()
            .shards(2)
            .shard_capacity(ByteSize::from_mib(256))
            .queue_depth(1)
            .batch_max(4)
            .observer(Obs::none())
            .spawn();
        let prototype = service.client();
        let threads: Vec<Result<Outcomes, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let mut client = prototype.clone();
                    scope.spawn(move || overload(&mut client, seed, thread, OPS))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("load thread"))
                .collect()
        });
        let mut total = Outcomes::default();
        for outcomes in threads {
            let outcomes = outcomes.map_err(TestCaseError::fail)?;
            total.submitted += outcomes.submitted;
            total.applied_legs += outcomes.applied_legs;
            total.applied_puts += outcomes.applied_puts;
            total.removed += outcomes.removed;
            total.sweeps += outcomes.sweeps;
            total.sweeps_resolved += outcomes.sweeps_resolved;
            total.expired += outcomes.expired;
            total.orphaned_legs += outcomes.orphaned_legs;
            total.queue_full += outcomes.queue_full;
        }
        prop_assert_eq!(total.submitted, THREADS * OPS);

        let mut client = prototype;
        let health = client.health(SimTime::ZERO).expect("live service");
        prop_assert_eq!(health.total_queue_depth(), 0);
        if ENABLED {
            let rejected: u64 = health.shards.iter().map(|shard| shard.rejected).sum();
            prop_assert_eq!(rejected, total.queue_full);
        }
        drop(client);
        let reports = service.shutdown().expect_clean();
        let processed: u64 = reports.iter().map(|report| report.requests).sum();
        let probes = reports.len() as u64;
        prop_assert_eq!(
            processed,
            total.applied_legs + total.orphaned_legs + probes,
            "seed {seed}: {total:?}"
        );
        let attempted: u64 = reports
            .iter()
            .map(|report| report.unit.stats().stores_attempted)
            .sum();
        prop_assert_eq!(attempted, total.applied_puts, "seed {seed}: {total:?}");
        let removals: u64 = reports
            .iter()
            .map(|report| report.unit.stats().removals)
            .sum();
        prop_assert_eq!(removals, total.removed, "seed {seed}: {total:?}");
        prop_assert_eq!(
            total.sweeps_resolved,
            total.sweeps,
            "seed {seed}: {total:?}"
        );
        // The clock never leaves zero, so no cadence sweep runs: every
        // expiry is a client sweep's, though a refused fan-out's legs
        // reclaim unseen.
        let expired: u64 = reports
            .iter()
            .map(|report| report.unit.stats().evictions_expired)
            .sum();
        prop_assert!(total.expired <= expired, "seed {seed}: {total:?}");
        prop_assert!(total.applied_legs > 0 && total.expired > 0);
        Ok(())
    });
}

/// Kills a worker through the observer seam (which `obs-off` compiles
/// out): the first `engine.stores` parks the worker until the test has
/// queued more work behind it, the third panics it mid-batch.
mod dying_worker {
    use super::*;
    use sim_core::observe::Observer;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    #[derive(Debug)]
    struct Saboteur {
        stores: AtomicU64,
        parked: Mutex<mpsc::Sender<()>>,
        resume: Mutex<mpsc::Receiver<()>>,
    }

    impl Observer for Saboteur {
        fn counter(&self, name: &'static str, _: u64) {
            if name != "engine.stores" {
                return;
            }
            match self.stores.fetch_add(1, Ordering::SeqCst) {
                0 => {
                    self.parked.lock().unwrap().send(()).unwrap();
                    self.resume.lock().unwrap().recv().unwrap();
                }
                2 => panic!("sabotaged mid-batch"),
                _ => {}
            }
        }
        fn gauge(&self, _: &'static str, _: u64) {}
        fn record(&self, _: &'static str, _: u64) {}
        fn event(&self, _: SimTime, _: &'static str, _: &[(&'static str, u64)]) {}
    }

    #[test]
    fn a_worker_that_panics_mid_batch_disconnects_every_outstanding_pending() {
        if !ENABLED {
            return;
        }
        let (parked_tx, parked_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel();
        let service = Tempimpd::builder()
            .shards(1)
            .shard_capacity(ByteSize::from_mib(256))
            .queue_depth(16)
            .batch_max(4)
            .observer(Obs::attached(Arc::new(Saboteur {
                stores: AtomicU64::new(0),
                parked: Mutex::new(parked_tx),
                resume: Mutex::new(resume_rx),
            })))
            .spawn();
        let client = service.client();

        // Put 0 is a batch of one; the worker parks inside its engine
        // call. Puts 1..=10 queue up behind it.
        let first = client.submit(SimTime::ZERO, put(0)).unwrap();
        parked_rx.recv().expect("the worker reached the first put");
        let rest: Vec<_> = (1..=10)
            .map(|id| client.submit(SimTime::ZERO, put(id)).unwrap())
            .collect();
        // Resumed, the worker answers put 0, drains puts 1..=4 into the
        // next batch, applies put 1 and dies inside put 2: put 1 is
        // applied but undelivered, 3 and 4 are in the batch, 5..=10 are
        // still queued. All of them must resolve, and promptly.
        resume_tx.send(()).unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let answers: Vec<Response> = std::iter::once(first)
                .chain(rest)
                .map(|pending| pending.wait())
                .collect();
            done_tx.send(answers).unwrap();
        });
        let answers = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a Pending hung on the dead worker");
        waiter.join().expect("waiter");
        assert_eq!(
            answered_id(&answers[0]),
            Some(0),
            "answered before the panic"
        );
        for (id, answer) in answers.iter().enumerate().skip(1) {
            assert!(
                matches!(answer, Response::Put(Err(Error::Disconnected))),
                "put {id} answered {answer:?}"
            );
        }
        // New work is refused, not parked forever.
        assert!(matches!(
            client.submit(SimTime::ZERO, put(11)),
            Err(Error::Disconnected)
        ));

        drop(client);
        let report = service.shutdown();
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].message.contains("sabotaged mid-batch"));
    }
}
