//! The sharded serving front-end: worker threads, ingest queues, clients.
//!
//! A [`Tempimpd`] owns N worker threads, each running a private
//! [`ShardEngine`] fed by a bounded MPSC ingest queue. [`ServeClient`]s
//! hash every keyed request to its shard ([`ShardRouter`]), reserve a slot
//! in the connection's reply mailbox, enqueue the request with the
//! client's timestamp, and collect the answer from that slot;
//! whole-store queries (`Density`, `Stats`, `Health`) fan out to every
//! shard and aggregate in shard order. Workers drain requests in batches
//! and process each batch at a single effective instant — see
//! [`ShardEngine`] for why that keeps shards deterministically replayable
//! — then answer the whole batch at once: one lock per mailbox it
//! addresses and at most one wake-up per client (see [`crate::mailbox`]).
//! The hop back therefore costs per batch, not per request, and nothing
//! is acknowledged before every mutation of its batch has been applied
//! (journaled and flushed, on a durable shard).
//!
//! Every job additionally carries its enqueue instant (see
//! [`crate::trace`]): the worker reads the apply and reply instants and
//! derives per-verb queue-wait and service-time histograms from the
//! three, per shard, surfaced through the `health` verb. The stamp rides
//! outside the serialized [`Request`], so effective request logs and
//! replay stay byte-identical with or without tracing, and nothing rides
//! back with the reply.

use std::fmt;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sim_core::{ByteSize, Obs, SimDuration, SimTime};
use tempimp_durable::DurableConfig;
use temporal_importance::protocol::{
    aggregate, Request, Response, ShardRouter, StoreApi, VerbKind,
};
use temporal_importance::{Error, EvictionPolicy, StorageUnit};

use crate::engine::ShardEngine;
use crate::mailbox::{Mailbox, Outbox, ReplyTo};
use crate::trace::{Stamps, Telemetry, WorkerTracing};

/// How much simulated time may elapse on a shard between expired-object
/// sweeps: one cadence for every fleet (the unit tests that vary it build
/// a [`ShardEngine`] directly).
const SWEEP_EVERY: SimDuration = SimDuration::DAY;

/// One queued request: the client's timestamp, the request, its enqueue
/// stamp, and the mailbox slot its answer goes to. A job dropped
/// unanswered marks that slot lost (see [`ReplyTo`]).
struct Job {
    at: SimTime,
    request: Request,
    stamps: Stamps,
    reply_to: ReplyTo,
}

/// Configures and spawns a [`Tempimpd`]. Obtained from
/// [`Tempimpd::builder`].
#[derive(Debug, Clone)]
#[must_use = "call .spawn() to start the service"]
pub struct TempimpdBuilder {
    shards: u32,
    shard_capacity: ByteSize,
    policy: EvictionPolicy,
    queue_depth: usize,
    batch_max: usize,
    record_log: bool,
    slow_threshold: Option<Duration>,
    obs: Option<Obs>,
    durable: Option<PathBuf>,
    durable_config: DurableConfig,
}

impl TempimpdBuilder {
    /// Number of independent shards / worker threads (default 8).
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Capacity of each shard's storage unit (default 1 GiB). Total
    /// service capacity is `shards × shard_capacity`.
    pub fn shard_capacity(mut self, capacity: ByteSize) -> Self {
        self.shard_capacity = capacity;
        self
    }

    /// Eviction policy for every shard (default
    /// [`EvictionPolicy::Preemptive`], the paper's mechanism).
    pub fn policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bound of each shard's ingest queue (default 1024). A full queue is
    /// the backpressure signal: blocking sends wait, non-blocking sends
    /// fail with [`Error::QueueFull`].
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Most requests a worker drains into one batch (default 64). Every
    /// request in a batch is processed at the batch's latest timestamp,
    /// so larger batches amortize more breakpoint/expiry work. Replies
    /// are delivered when their batch completes, so this also bounds how
    /// many engine calls a finished answer can be held behind.
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max;
        self
    }

    /// When true, every worker records its effective request log and
    /// returns it in its [`ShardReport`] — the input to
    /// [`replay`](crate::replay) in the differential determinism tests
    /// (default off; the log grows with every request).
    pub fn record_log(mut self, record: bool) -> Self {
        self.record_log = record;
        self
    }

    /// Requests whose total in-service wall time (enqueue → reply)
    /// reaches `threshold` emit an integer-only `serve.slow` trace event
    /// naming the shard, the request's 1-based ordinal on it (`seq`), the
    /// verb, and the queue-wait/service split (default: no slow log). A
    /// no-op under `obs-off`.
    pub fn slow_threshold(mut self, threshold: Duration) -> Self {
        self.slow_threshold = Some(threshold);
        self
    }

    /// Attaches an explicit observer shared by all shards and clients.
    /// Without this, the service observes into [`Obs::global`].
    pub fn observer(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Backs every shard with an append-only segment log under
    /// `dir/shard-{n}` (default: volatile, in-memory shards). Spawning
    /// replays any logs already there, so a service restarted on the
    /// same directory — with the same shard count, capacity, and policy
    /// — resumes from the last persisted mutation of each shard.
    /// Reclamation on a durable shard additionally compacts the log:
    /// segments whose objects the importance engine has let die are
    /// rewritten down to their survivors and the disk space reclaimed.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable = Some(dir.into());
        self
    }

    /// Segment-log tuning (segment size, compaction trigger) for
    /// [`durable`](TempimpdBuilder::durable) shards; ignored for
    /// volatile ones.
    pub fn durable_config(mut self, config: DurableConfig) -> Self {
        self.durable_config = config;
        self
    }

    /// Spawns the worker threads and returns the running service.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `queue_depth`, or `batch_max` is zero, or if
    /// the OS refuses to spawn a thread.
    pub fn spawn(self) -> Tempimpd {
        assert!(self.shards > 0, "a service needs at least one shard");
        assert!(self.queue_depth > 0, "ingest queues need capacity");
        assert!(self.batch_max > 0, "batches must hold at least one request");
        let obs = self.obs.unwrap_or_else(Obs::global);
        let telemetry = Arc::new(Telemetry::new(self.shards));
        let slow_ns = self
            .slow_threshold
            .map(|threshold| u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(u64::MAX);
        let mut ingests = Vec::with_capacity(self.shards as usize);
        let mut workers = Vec::with_capacity(self.shards as usize);
        for shard in 0..self.shards {
            let (tx, rx) = mpsc::sync_channel(self.queue_depth);
            let worker = Worker {
                shard,
                capacity: self.shard_capacity,
                policy: self.policy,
                batch_max: self.batch_max,
                record_log: self.record_log,
                slow_ns,
                telemetry: telemetry.clone(),
                obs: obs.clone(),
                durable: self
                    .durable
                    .as_ref()
                    .map(|dir| dir.join(format!("shard-{shard}"))),
                durable_config: self.durable_config,
            };
            let handle = std::thread::Builder::new()
                .name(format!("tempimpd-shard-{shard}"))
                .spawn(move || worker.run(rx))
                .expect("spawn shard worker");
            ingests.push(tx);
            workers.push(handle);
        }
        Tempimpd {
            router: ShardRouter::new(self.shards),
            ingests,
            workers,
            telemetry,
        }
    }
}

/// What one shard worker hands back when the service shuts down.
#[derive(Debug)]
#[non_exhaustive]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// The shard's final storage unit state.
    pub unit: StorageUnit,
    /// The shard's final effective instant.
    pub final_now: SimTime,
    /// Requests the shard processed.
    pub requests: u64,
    /// Batches the shard drained.
    pub batches: u64,
    /// The effective request log, if the service was built with
    /// [`record_log`](TempimpdBuilder::record_log). Feeding this to
    /// [`replay`](crate::replay) must reproduce `unit` exactly.
    pub log: Vec<(SimTime, Request)>,
    /// Final disk occupancy of the shard's segment log; `None` for a
    /// volatile shard.
    pub disk: Option<tempimp_durable::DiskInfo>,
}

/// Per-shard worker state; `run` consumes it on the shard thread.
struct Worker {
    shard: u32,
    capacity: ByteSize,
    policy: EvictionPolicy,
    batch_max: usize,
    record_log: bool,
    slow_ns: u64,
    telemetry: Arc<Telemetry>,
    obs: Obs,
    /// This shard's segment-log directory, when the service is durable.
    durable: Option<PathBuf>,
    durable_config: DurableConfig,
}

impl Worker {
    /// Splices this worker's live telemetry into the engine's inert
    /// `health` answer: the engine contributes clock/residents/occupancy
    /// (so replay sees identical side effects), the worker contributes
    /// everything only the serving layer knows.
    fn enrich_health(
        &self,
        response: &mut Response,
        tracing: &WorkerTracing,
        requests: u64,
        batches: u64,
    ) {
        if let Response::Health(Ok(snapshot)) = response {
            if let Some(health) = snapshot.shards.first_mut() {
                health.shard = self.shard;
                health.queue_depth = self.telemetry.depth(self.shard);
                health.requests = requests;
                health.batches = batches;
                health.rejected = self.telemetry.rejected_count(self.shard);
                health.latencies = tracing.latencies();
            }
        }
    }

    fn run(self, ingest: Receiver<Job>) -> ShardReport {
        // An unopenable or corrupt segment log panics the worker thread;
        // the panic (with the underlying error) surfaces in the service's
        // [`ShutdownReport`] rather than silently serving an empty shard.
        let mut engine = match &self.durable {
            Some(dir) => ShardEngine::durable(
                dir,
                self.capacity,
                self.policy,
                SWEEP_EVERY,
                self.durable_config,
                self.obs.clone(),
            )
            .unwrap_or_else(|error| {
                panic!(
                    "opening the segment log for shard {} at {} failed: {error}",
                    self.shard,
                    dir.display()
                )
            }),
            None => ShardEngine::with_observer(
                self.capacity,
                self.policy,
                SWEEP_EVERY,
                self.obs.clone(),
            ),
        };
        let mut tracing = WorkerTracing::new(&self.telemetry, self.slow_ns);
        let mut log = Vec::new();
        let mut batch: Vec<Job> = Vec::with_capacity(self.batch_max);
        // Replies wait here until their whole batch has been applied. A
        // panic below drops it (and `batch`, and `ingest`), which marks
        // every unanswered slot lost: no client waits on a dead worker.
        let mut outbox = Outbox::with_capacity(self.batch_max);
        let mut requests = 0u64;
        let mut batches = 0u64;
        // Block for the first request of a batch, then drain greedily up
        // to batch_max. The whole batch is processed at its latest
        // timestamp: one clock advance, at most one sweep, then every
        // request applies at the same instant.
        while let Ok(first) = ingest.recv() {
            batch.push(first);
            while batch.len() < self.batch_max {
                match ingest.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
            let latest = batch
                .iter()
                .map(|job| job.at)
                .max()
                .expect("non-empty batch");
            let now = engine.observe(latest);
            let drained = batch.len() as u64;
            let depth = self.telemetry.drained(self.shard, drained);
            batches += 1;
            let mut span = self.obs.span("span.serve.shard_batch");
            span.sim_to(now);
            for job in batch.drain(..) {
                if self.record_log {
                    log.push((now, job.request.clone()));
                }
                let verb = VerbKind::of(&job.request);
                let applied = tracing.mark();
                let mut response = engine.call(now, job.request);
                requests += 1;
                if verb == VerbKind::Health {
                    self.enrich_health(&mut response, &tracing, requests, batches);
                }
                // `requests` is now this request's 1-based seq on the
                // shard, and `log[requests - 1]` its recorded entry.
                tracing.complete(
                    &self.obs, now, self.shard, requests, verb, job.stamps, applied,
                );
                outbox.push(job.reply_to, response);
            }
            // Every mutation of the batch has been applied — journaled and
            // flushed, on a durable shard — before any of it is
            // acknowledged. A client that gave up on its reply is not an
            // error: its slot is simply freed.
            outbox.deliver();
            drop(span);
            self.obs.record("serve.batch_fill", drained);
            self.obs.gauge("serve.queue_depth", depth);
        }
        let final_now = engine.now();
        let disk = engine.disk_info();
        ShardReport {
            shard: self.shard,
            unit: engine.into_unit(),
            final_now,
            requests,
            batches,
            log,
            disk,
        }
    }
}

/// A running sharded serving layer.
///
/// Hand out connections with [`client`](Tempimpd::client); when every
/// client has been dropped, [`shutdown`](Tempimpd::shutdown) joins the
/// workers and returns their final state.
///
/// # Examples
///
/// ```
/// use sim_core::{ByteSize, SimDuration, SimTime};
/// use tempimpd::Tempimpd;
/// use temporal_importance::protocol::StoreApi;
/// use temporal_importance::{ImportanceCurve, ObjectId};
///
/// let service = Tempimpd::builder()
///     .shards(2)
///     .shard_capacity(ByteSize::from_mib(256))
///     .spawn();
/// let mut client = service.client();
///
/// let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_days(7));
/// client
///     .put(ObjectId::new(1), ByteSize::from_mib(10), curve, SimTime::ZERO)
///     .unwrap();
/// let stats = client.store_stats(SimTime::ZERO).unwrap();
/// assert_eq!(stats.objects, 1);
///
/// let health = client.health(SimTime::ZERO).unwrap();
/// assert_eq!(health.shards.len(), 2);
///
/// drop(client);
/// let reports = service.shutdown().expect_clean();
/// assert_eq!(reports.len(), 2);
/// ```
#[derive(Debug)]
pub struct Tempimpd {
    router: ShardRouter,
    ingests: Vec<SyncSender<Job>>,
    workers: Vec<JoinHandle<ShardReport>>,
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("at", &self.at).finish()
    }
}

impl Tempimpd {
    /// Starts configuring a service; see [`TempimpdBuilder`].
    pub fn builder() -> TempimpdBuilder {
        TempimpdBuilder {
            shards: 8,
            shard_capacity: ByteSize::from_gib(1),
            policy: EvictionPolicy::Preemptive,
            queue_depth: 1024,
            batch_max: 64,
            record_log: false,
            slow_threshold: None,
            obs: None,
            durable: None,
            durable_config: DurableConfig::default(),
        }
    }

    /// The shard count.
    pub fn shards(&self) -> u32 {
        self.router.shards()
    }

    /// A new connection to the service, with a reply mailbox of its
    /// own. Clients are cheap to clone and `Send`, so load generators
    /// hand one to each thread.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            router: self.router,
            ingests: self.ingests.clone(),
            mailbox: Mailbox::new(),
            telemetry: self.telemetry.clone(),
        }
    }

    /// Stops the workers and returns a [`ShutdownReport`]: one
    /// [`ShardReport`] per surviving shard, in shard order, plus a
    /// [`ShardFailure`] for every worker that panicked.
    ///
    /// Workers exit when their ingest queue has no senders left, so every
    /// [`ServeClient`] must be dropped first — joining while clients are
    /// alive would wait forever.
    ///
    /// Every worker is joined even when an earlier one panicked — one
    /// poisoned shard must not discard the final state of the healthy
    /// ones (for a durable service, it must not skip their final log
    /// sync either). Callers that treat any failure as fatal use
    /// [`ShutdownReport::expect_clean`].
    pub fn shutdown(mut self) -> ShutdownReport {
        self.ingests.clear();
        let mut reports = Vec::with_capacity(self.workers.len());
        let mut failures = Vec::new();
        for (shard, worker) in self.workers.drain(..).enumerate() {
            match worker.join() {
                Ok(report) => reports.push(report),
                Err(panic) => failures.push(ShardFailure {
                    shard: shard as u32,
                    message: panic_message(panic.as_ref()),
                }),
            }
        }
        ShutdownReport { reports, failures }
    }
}

/// Best-effort text of a worker panic payload. `panic!` with a format
/// string yields a `String`, a bare literal a `&'static str`; anything
/// else (a custom `panic_any` payload) is reported opaquely.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&'static str>() {
        (*message).to_owned()
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message.clone()
    } else {
        "shard worker panicked with a non-string payload".to_owned()
    }
}

/// What [`Tempimpd::shutdown`] hands back: the final state of every
/// shard whose worker ran to completion, and what went wrong on the
/// ones that did not.
#[derive(Debug)]
#[non_exhaustive]
pub struct ShutdownReport {
    /// Reports from the workers that exited cleanly, in shard order.
    pub reports: Vec<ShardReport>,
    /// One entry per worker that panicked, in shard order.
    pub failures: Vec<ShardFailure>,
}

/// A shard worker that panicked instead of reporting final state.
#[derive(Debug)]
#[non_exhaustive]
pub struct ShardFailure {
    /// The shard index.
    pub shard: u32,
    /// The panic message, as well as it could be recovered.
    pub message: String,
}

impl ShutdownReport {
    /// True when every worker exited cleanly.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Unwraps the per-shard reports, panicking if any worker failed.
    ///
    /// # Panics
    ///
    /// Panics with every failed shard's message if the shutdown was not
    /// clean.
    pub fn expect_clean(self) -> Vec<ShardReport> {
        if !self.is_clean() {
            let detail: Vec<String> = self
                .failures
                .iter()
                .map(|failure| format!("shard {}: {}", failure.shard, failure.message))
                .collect();
            panic!(
                "{} shard worker(s) panicked — {}",
                self.failures.len(),
                detail.join("; ")
            );
        }
        self.reports
    }
}

/// A connection to a [`Tempimpd`]: implements [`StoreApi`] by enqueueing
/// requests to the owning shard and blocking on the reply.
///
/// Keyed verbs (`put`/`get`/`advise`) touch exactly one shard; `density`,
/// `stats`, and `health` fan out to all shards and aggregate in shard
/// order. The non-blocking [`try_call`](ServeClient::try_call) surfaces a
/// full ingest queue as [`Error::QueueFull`] instead of waiting.
///
/// Every connection owns one reply mailbox, which the shard workers
/// answer into; a clone is a new connection with a mailbox of its own, so
/// clones on different threads never contend for, or see, each other's
/// replies.
#[derive(Debug)]
pub struct ServeClient {
    router: ShardRouter,
    ingests: Vec<SyncSender<Job>>,
    mailbox: Arc<Mailbox>,
    telemetry: Arc<Telemetry>,
}

impl Clone for ServeClient {
    fn clone(&self) -> Self {
        ServeClient {
            router: self.router,
            ingests: self.ingests.clone(),
            mailbox: Mailbox::new(),
            telemetry: self.telemetry.clone(),
        }
    }
}

impl ServeClient {
    /// The shard count.
    pub fn shards(&self) -> u32 {
        self.router.shards()
    }

    /// Like [`StoreApi::call`], but a full ingest queue fails fast with
    /// [`Error::QueueFull`] instead of blocking — the caller's
    /// backpressure signal.
    pub fn try_call(&self, now: SimTime, request: Request) -> Response {
        self.dispatch(now, request, false)
    }

    /// Routes `request` to its shard(s) and returns without waiting for
    /// the reply. The returned [`Pending`] is the claim ticket; redeem it
    /// with [`Pending::wait`] — on this thread or any other.
    ///
    /// This is the pipelining primitive. A worker answers a whole drained
    /// batch at once, into this connection's mailbox, and wakes the
    /// client only if it is parked on one of those answers: a client that
    /// keeps a window of submissions in flight pays one wake-up per batch
    /// at most, where [`StoreApi::call`] — a batch of one — pays a round
    /// trip per request. Replies become ready in per-shard FIFO order, so
    /// per-shard effects of earlier submissions are visible to later ones
    /// regardless of when the replies are collected.
    ///
    /// Fails with [`Error::Disconnected`] if a target worker is gone.
    /// The blocking send waits while an ingest queue is full; use
    /// [`try_call`](ServeClient::try_call) for fail-fast backpressure.
    pub fn submit(&self, now: SimTime, request: Request) -> Result<Pending, Error> {
        self.submit_inner(now, request, true)
    }

    fn submit_inner(
        &self,
        now: SimTime,
        request: Request,
        blocking: bool,
    ) -> Result<Pending, Error> {
        let verb = VerbKind::of(&request);
        let slots = match request.key() {
            Some(id) => {
                let shard = self.router.route(id);
                Slots::One(self.enqueue(now, request, shard, blocking)?)
            }
            // Fan-out: every shard gets the request, each answering into
            // its own slot, kept in shard order so aggregation is
            // deterministic (float summation order never depends on
            // which worker answers first).
            None => {
                let mut slots = Vec::with_capacity(self.ingests.len());
                for shard in 0..self.ingests.len() as u32 {
                    match self.enqueue(now, request.clone(), shard, blocking) {
                        Ok(slot) => slots.push(slot),
                        Err(error) => {
                            // The legs already sent will be answered;
                            // nobody is going to collect them.
                            self.mailbox.abandon(&slots);
                            return Err(error);
                        }
                    }
                }
                Slots::FanOut(slots)
            }
        };
        Ok(Pending {
            verb,
            mailbox: self.mailbox.clone(),
            slots,
            collected: 0,
        })
    }

    /// Submits, then waits for the answer.
    fn dispatch(&self, now: SimTime, request: Request, blocking: bool) -> Response {
        let verb = VerbKind::of(&request);
        match self.submit_inner(now, request, blocking) {
            Ok(pending) => pending.wait(),
            Err(error) => verb.failed(error),
        }
    }

    /// Reserves a reply slot and sends `request` to `shard`, returning
    /// the slot. The queue-depth accounting stays conservative: the depth
    /// is incremented before the send and undone if the send fails, so it
    /// exactly counts jobs in the channel. A refused job never reached a
    /// worker, so its slot goes straight back to the mailbox.
    fn enqueue(
        &self,
        at: SimTime,
        request: Request,
        shard: u32,
        blocking: bool,
    ) -> Result<u32, Error> {
        let reply_to = self.mailbox.reserve();
        let slot = reply_to.slot();
        let job = Job {
            at,
            request,
            stamps: self.telemetry.stamp(),
            reply_to,
        };
        self.telemetry.enqueued(shard);
        let queue = &self.ingests[shard as usize];
        let sent = if blocking {
            queue
                .send(job)
                .map_err(|refused| (refused.0, Error::Disconnected))
        } else {
            queue.try_send(job).map_err(|refused| match refused {
                TrySendError::Full(job) => (job, Error::QueueFull { shard }),
                TrySendError::Disconnected(job) => (job, Error::Disconnected),
            })
        };
        sent.map(|()| slot).map_err(|(job, error)| {
            job.reply_to.release();
            self.telemetry.enqueue_failed(shard);
            if matches!(error, Error::QueueFull { .. }) {
                self.telemetry.rejected(shard);
            }
            error
        })
    }
}

/// A submitted request whose reply has not been collected yet — the
/// other half of [`ServeClient::submit`].
///
/// Holds the request's slot(s) in its connection's reply mailbox;
/// [`wait`](Pending::wait) collects the response, on whichever thread
/// holds the `Pending`. The reply becomes available when the worker has
/// finished the batch the request was drained into (at most the
/// service's `batch_max` requests), not the instant its own engine call
/// returns. Dropping a `Pending` abandons the reply — the worker still
/// processes the request (it may already have), only the answer is
/// discarded and its slot reused.
pub struct Pending {
    verb: VerbKind,
    mailbox: Arc<Mailbox>,
    slots: Slots,
    /// How many of `slots`, from the front, have been collected; the
    /// rest are abandoned on drop.
    collected: usize,
}

/// One slot for a keyed verb; one per shard, in shard order, for a
/// fan-out.
enum Slots {
    One(u32),
    FanOut(Vec<u32>),
}

impl Slots {
    fn as_slice(&self) -> &[u32] {
        match self {
            Slots::One(slot) => std::slice::from_ref(slot),
            Slots::FanOut(slots) => slots,
        }
    }
}

impl fmt::Debug for Pending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pending")
            .field("verb", &self.verb)
            .field(
                "outstanding",
                &(self.slots.as_slice().len() - self.collected),
            )
            .finish()
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.mailbox
            .abandon(&self.slots.as_slice()[self.collected..]);
    }
}

impl Pending {
    /// Blocks until the reply arrives (all shard replies, for a fan-out
    /// verb) and returns it. A worker that died before answering yields
    /// the verb's response variant carrying [`Error::Disconnected`].
    pub fn wait(mut self) -> Response {
        let verb = self.verb;
        // Returning early drops `self`, which abandons the legs not yet
        // collected.
        let lost = || verb.failed(Error::Disconnected);
        let legs = match &self.slots {
            Slots::One(_) => return self.collect_next().unwrap_or_else(lost),
            Slots::FanOut(slots) => slots.len(),
        };
        let mut responses = Vec::with_capacity(legs);
        for _ in 0..legs {
            let Some(response) = self.collect_next() else {
                return lost();
            };
            responses.push(response);
        }
        // The fan-out keeps one slot per shard, in shard order, so the
        // fold sees shards 0..N.
        aggregate(verb, responses)
    }

    /// Blocks for the next uncollected slot's reply; `None` if it is
    /// lost.
    fn collect_next(&mut self) -> Option<Response> {
        let slot = self.slots.as_slice()[self.collected];
        self.collected += 1;
        self.mailbox.take(slot)
    }
}

impl StoreApi for ServeClient {
    fn call(&mut self, now: SimTime, request: Request) -> Response {
        self.dispatch(now, request, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::observe::ENABLED;
    use temporal_importance::protocol::StoreStats;
    use temporal_importance::{Importance, ImportanceCurve, ObjectId};

    fn week_curve() -> ImportanceCurve {
        ImportanceCurve::fixed_lifetime(SimDuration::from_days(7))
    }

    fn small_service(shards: u32) -> Tempimpd {
        Tempimpd::builder()
            .shards(shards)
            .shard_capacity(ByteSize::from_mib(256))
            .record_log(true)
            .observer(Obs::none())
            .spawn()
    }

    #[test]
    fn serves_puts_gets_and_aggregate_queries() {
        let service = small_service(4);
        let mut client = service.client();
        for i in 0..100u64 {
            client
                .put(
                    ObjectId::new(i),
                    ByteSize::from_mib(1),
                    week_curve(),
                    SimTime::from_minutes(i),
                )
                .unwrap();
        }
        for i in 0..100u64 {
            let info = client
                .get_info(ObjectId::new(i), SimTime::from_minutes(100))
                .unwrap()
                .expect("object stored");
            assert_eq!(info.size, ByteSize::from_mib(1));
        }
        let advice = client
            .advise(
                ObjectId::new(1000),
                ByteSize::from_mib(1),
                Importance::FULL,
                SimTime::from_minutes(100),
            )
            .unwrap();
        assert!(advice.is_admitted());

        let stats = client.store_stats(SimTime::from_minutes(100)).unwrap();
        assert_eq!(stats.objects, 100);
        assert_eq!(stats.unit.stores_accepted, 100);
        assert_eq!(stats.capacity, ByteSize::from_gib(1));

        let density = client.density_info(SimTime::from_minutes(100)).unwrap();
        assert!(density.density > 0.0);
        assert_eq!(density.used, ByteSize::from_mib(100));

        drop(client);
        let reports = service.shutdown().expect_clean();
        assert_eq!(reports.len(), 4);
        let logged: usize = reports.iter().map(|r| r.log.len()).sum();
        // 100 puts + 100 gets + 1 advise routed once each; stats and
        // density fan out to all four shards.
        assert_eq!(logged, 201 + 2 * 4);
        let total: u64 = reports.iter().map(|r| r.requests).sum();
        assert_eq!(total, 209);
        for (shard, report) in reports.iter().enumerate() {
            assert_eq!(report.shard, shard as u32);
            assert!(report.batches <= report.requests);
        }
    }

    #[test]
    fn health_reports_live_per_shard_telemetry() {
        let service = small_service(4);
        let mut client = service.client();
        for i in 0..100u64 {
            client
                .put(
                    ObjectId::new(i),
                    ByteSize::from_mib(1),
                    week_curve(),
                    SimTime::from_minutes(i),
                )
                .unwrap();
        }
        let health = client.health(SimTime::from_minutes(100)).unwrap();
        assert_eq!(health.shards.len(), 4);
        for (index, shard) in health.shards.iter().enumerate() {
            assert_eq!(shard.shard, index as u32);
            assert_eq!(shard.clock, SimTime::from_minutes(100));
            assert_eq!(shard.capacity, ByteSize::from_mib(256));
            // The blocking health probe drained this shard's queue.
            assert_eq!(shard.queue_depth, 0);
            assert_eq!(shard.rejected, 0);
            assert!(shard.requests >= 1, "the probe itself counts");
            assert!(shard.batches >= 1);
            assert!(shard.batches <= shard.requests);
            assert!(shard.used <= shard.capacity);
        }
        assert_eq!(health.shards.iter().map(|s| s.residents).sum::<u64>(), 100);
        assert_eq!(health.total_queue_depth(), 0);
        // 100 puts + the health probe on every shard.
        assert_eq!(health.total_requests(), 104);
        if !ENABLED {
            for shard in &health.shards {
                assert!(shard.latencies.is_empty(), "obs-off health is inert");
            }
        } else {
            for shard in &health.shards {
                let puts = shard
                    .latencies
                    .iter()
                    .find(|l| l.verb == VerbKind::Put)
                    .expect("every shard served puts");
                assert!(puts.samples > 0);
                assert!(puts.queue_wait_p50_ns <= puts.queue_wait_p99_ns);
                assert!(puts.service_p50_ns <= puts.service_p99_ns);
            }
        }
        drop(client);
        service.shutdown().expect_clean();
    }

    /// `serve.batch_fill` is the only carrier of the fleet's request and
    /// batch totals on the observer side: its sum and count must be the
    /// shard reports' own.
    #[test]
    fn batch_fill_carries_the_request_and_batch_totals() {
        let registry = Arc::new(obs::MetricsRegistry::new());
        let obs = Obs::attached(registry.clone());
        if !obs.is_enabled() {
            return; // obs-off: the registry hears nothing.
        }
        let service = Tempimpd::builder()
            .shards(4)
            .shard_capacity(ByteSize::from_mib(256))
            .observer(obs)
            .spawn();
        let mut client = service.client();
        for i in 0..100u64 {
            client
                .put(
                    ObjectId::new(i),
                    ByteSize::from_mib(1),
                    week_curve(),
                    SimTime::from_minutes(i),
                )
                .unwrap();
        }
        client.health(SimTime::from_minutes(100)).unwrap();
        drop(client);
        let reports = service.shutdown().expect_clean();
        let fill = registry
            .histogram("serve.batch_fill")
            .expect("every batch records its fill");
        assert_eq!(fill.count(), reports.iter().map(|r| r.batches).sum::<u64>());
        assert_eq!(fill.sum(), reports.iter().map(|r| r.requests).sum::<u64>());
    }

    /// A `serve.slow` event names its request by `(shard, seq)`: one
    /// event per request served, and `seq` is the request's 1-based
    /// position in that shard's recorded log.
    #[test]
    fn slow_events_index_the_shard_log_by_seq() {
        /// `(shard, seq, verb)` of every `serve.slow` event.
        #[derive(Debug, Default)]
        struct SlowCatcher(std::sync::Mutex<Vec<(u64, u64, u64)>>);

        impl sim_core::observe::Observer for SlowCatcher {
            fn counter(&self, _: &'static str, _: u64) {}
            fn gauge(&self, _: &'static str, _: u64) {}
            fn record(&self, _: &'static str, _: u64) {}
            fn event(&self, _: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
                if kind == "serve.slow" {
                    let field = |name: &str| {
                        fields
                            .iter()
                            .find(|(key, _)| *key == name)
                            .map(|&(_, value)| value)
                            .expect("serve.slow carries every field")
                    };
                    self.0
                        .lock()
                        .unwrap()
                        .push((field("shard"), field("seq"), field("verb")));
                }
            }
        }

        let catcher = Arc::new(SlowCatcher::default());
        let obs = Obs::attached(catcher.clone());
        if !obs.is_enabled() {
            return; // obs-off: no slow log.
        }
        let service = Tempimpd::builder()
            .shards(2)
            .shard_capacity(ByteSize::from_mib(256))
            .record_log(true)
            .slow_threshold(Duration::ZERO)
            .observer(obs)
            .spawn();
        let client = service.client();
        let pending: Vec<Pending> = (0..60u64)
            .map(|i| {
                let request = match i % 3 {
                    0 => Request::Put {
                        id: ObjectId::new(i),
                        bytes: ByteSize::from_mib(1),
                        curve: week_curve(),
                        class: Default::default(),
                    },
                    1 => Request::Get {
                        id: ObjectId::new(i - 1),
                    },
                    _ => Request::Stats,
                };
                client.submit(SimTime::from_minutes(i), request).unwrap()
            })
            .collect();
        for pending in pending {
            pending.wait();
        }
        drop(client);
        let reports = service.shutdown().expect_clean();

        let events = catcher.0.lock().unwrap();
        assert_eq!(
            events.len() as u64,
            reports.iter().map(|r| r.requests).sum::<u64>()
        );
        let mut named = std::collections::HashSet::new();
        for &(shard, seq, verb) in events.iter() {
            assert!(named.insert((shard, seq)), "({shard}, {seq}) named twice");
            let (_, request) = &reports[shard as usize].log[seq as usize - 1];
            assert_eq!(VerbKind::of(request).code(), verb);
        }
    }

    #[test]
    fn pipelined_submissions_resolve_in_per_shard_fifo_order() {
        let service = small_service(2);
        let client = service.client();

        // Submit a whole window before collecting a single reply: puts,
        // then gets for the same keys, then a fan-out. Per-shard FIFO
        // means every get observes the put that preceded it.
        let puts: Vec<Pending> = (0..64u64)
            .map(|i| {
                client
                    .submit(
                        SimTime::from_minutes(i),
                        Request::Put {
                            id: ObjectId::new(i),
                            bytes: ByteSize::from_mib(1),
                            curve: week_curve(),
                            class: Default::default(),
                        },
                    )
                    .unwrap()
            })
            .collect();
        let gets: Vec<Pending> = (0..64u64)
            .map(|i| {
                client
                    .submit(
                        SimTime::from_minutes(64),
                        Request::Get {
                            id: ObjectId::new(i),
                        },
                    )
                    .unwrap()
            })
            .collect();
        let stats = client
            .submit(SimTime::from_minutes(64), Request::Stats)
            .unwrap();

        for pending in puts {
            assert!(matches!(pending.wait(), Response::Put(Ok(_))));
        }
        for pending in gets {
            match pending.wait() {
                Response::Get(Ok(Some(info))) => assert_eq!(info.size, ByteSize::from_mib(1)),
                other => panic!("pipelined get lost its put: {other:?}"),
            }
        }
        match stats.wait() {
            Response::Stats(Ok(stats)) => assert_eq!(stats.objects, 64),
            other => panic!("fan-out stats failed: {other:?}"),
        }

        // An abandoned submission must not wedge the worker.
        drop(
            client
                .submit(
                    SimTime::from_minutes(65),
                    Request::Get {
                        id: ObjectId::new(0),
                    },
                )
                .unwrap(),
        );
        drop(client);
        service.shutdown().expect_clean();
    }

    #[test]
    fn clients_are_cloneable_and_shareable_across_threads() {
        let service = small_service(2);
        let client = service.client();
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let mut client = client.clone();
                scope.spawn(move || {
                    for i in 0..50u64 {
                        client
                            .put(
                                ObjectId::new(worker * 1000 + i),
                                ByteSize::from_mib(1),
                                week_curve(),
                                SimTime::from_minutes(i),
                            )
                            .unwrap();
                    }
                });
            }
        });
        let mut client = client;
        let stats = client.store_stats(SimTime::from_minutes(50)).unwrap();
        assert_eq!(stats.objects, 200);
        drop(client);
        service.shutdown().expect_clean();
    }

    #[test]
    fn full_ingest_queue_surfaces_as_queue_full() {
        // A hand-built client whose single shard has a depth-1 queue and
        // no worker: the first job fills the queue, the second try_call
        // must fail fast with the backpressure error.
        let telemetry = Arc::new(Telemetry::new(1));
        let (tx, _rx) = mpsc::sync_channel::<Job>(1);
        let filler = Mailbox::new();
        tx.send(Job {
            at: SimTime::ZERO,
            request: Request::Density,
            stamps: Stamps::default(),
            reply_to: filler.reserve(),
        })
        .unwrap();
        let client = ServeClient {
            router: ShardRouter::new(1),
            ingests: vec![tx],
            mailbox: Mailbox::new(),
            telemetry: telemetry.clone(),
        };
        let response = client.try_call(
            SimTime::ZERO,
            Request::Get {
                id: ObjectId::new(1),
            },
        );
        match response {
            Response::Get(Err(Error::QueueFull { shard: 0 })) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        if ENABLED {
            // The rejection counted; the failed enqueue was undone.
            assert_eq!(telemetry.rejected_count(0), 1);
            assert_eq!(telemetry.depth(0), 0, "hand-sent job is untracked");
        }
        // A refused request gives its reply slot straight back: however
        // many are refused, the mailbox never holds more than the one.
        for i in 0..10_000u64 {
            let response = client.try_call(
                SimTime::ZERO,
                Request::Get {
                    id: ObjectId::new(i),
                },
            );
            assert!(matches!(
                response,
                Response::Get(Err(Error::QueueFull { shard: 0 }))
            ));
        }
        assert_eq!(client.mailbox.high_water(), 1);
        assert_eq!(client.mailbox.in_flight(), 0);
    }

    #[test]
    fn a_fan_out_refused_midway_abandons_the_legs_already_sent() {
        // Two hand-built shards without workers: shard 0 has room, shard
        // 1 is full, so a non-blocking fan-out fails on its second leg.
        let (tx0, rx0) = mpsc::sync_channel::<Job>(4);
        let (tx1, _rx1) = mpsc::sync_channel::<Job>(1);
        let filler = Mailbox::new();
        tx1.send(Job {
            at: SimTime::ZERO,
            request: Request::Density,
            stamps: Stamps::default(),
            reply_to: filler.reserve(),
        })
        .unwrap();
        let client = ServeClient {
            router: ShardRouter::new(2),
            ingests: vec![tx0, tx1],
            mailbox: Mailbox::new(),
            telemetry: Arc::new(Telemetry::new(2)),
        };
        match client.try_call(SimTime::ZERO, Request::Stats) {
            Response::Stats(Err(Error::QueueFull { shard: 1 })) => {}
            other => panic!("expected QueueFull on shard 1, got {other:?}"),
        }
        // Shard 0's leg is queued and nobody will collect it: its slot
        // stays reserved until shard 0's worker answers, which frees it.
        assert_eq!(client.mailbox.in_flight(), 1);
        let job = rx0.try_recv().expect("shard 0 was sent its leg");
        let mut outbox = Outbox::with_capacity(1);
        outbox.push(job.reply_to, Response::Stats(Ok(StoreStats::default())));
        outbox.deliver();
        assert_eq!(client.mailbox.in_flight(), 0);
        assert_eq!(client.mailbox.high_water(), 2);
    }

    #[test]
    fn dead_workers_surface_as_disconnected() {
        let (tx, rx) = mpsc::sync_channel::<Job>(1);
        drop(rx);
        let mut client = ServeClient {
            router: ShardRouter::new(1),
            ingests: vec![tx],
            mailbox: Mailbox::new(),
            telemetry: Arc::new(Telemetry::new(1)),
        };
        let err = client
            .put(
                ObjectId::new(1),
                ByteSize::from_mib(1),
                week_curve(),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Disconnected));
        let err = client.store_stats(SimTime::ZERO).unwrap_err();
        assert!(matches!(err, Error::Disconnected));
        let err = client.health(SimTime::ZERO).unwrap_err();
        assert!(matches!(err, Error::Disconnected));
        assert_eq!(
            client.mailbox.in_flight(),
            0,
            "refused jobs free their slots"
        );
        assert_eq!(client.mailbox.high_water(), 1);
    }

    /// A fresh scratch directory under the workspace `target/` (tests
    /// must not touch anything outside the repository).
    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/serve-test-scratch"
        ))
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale scratch");
        }
        dir
    }

    /// A service with one healthy worker and one that dies mid-flight:
    /// shutdown must still join and report the healthy shard, carrying
    /// the dead one's panic message instead of propagating the panic and
    /// discarding every later shard's final state (the old behavior).
    fn half_dead_service() -> Tempimpd {
        let healthy = std::thread::spawn(|| ShardReport {
            shard: 0,
            unit: StorageUnit::builder(ByteSize::from_mib(1)).build(),
            final_now: SimTime::from_minutes(7),
            requests: 3,
            batches: 1,
            log: Vec::new(),
            disk: None,
        });
        let dead = std::thread::spawn(|| -> ShardReport {
            panic!("segment log sync failed on the way out")
        });
        // Wait out the deliberate panic so its abort doesn't race the
        // assertions below.
        while !dead.is_finished() {
            std::thread::yield_now();
        }
        Tempimpd {
            router: ShardRouter::new(2),
            ingests: Vec::new(),
            workers: vec![healthy, dead],
            telemetry: Arc::new(Telemetry::new(2)),
        }
    }

    #[test]
    fn shutdown_survives_a_panicked_shard_and_reports_the_rest() {
        let report = half_dead_service().shutdown();
        assert!(!report.is_clean());
        assert_eq!(report.reports.len(), 1);
        assert_eq!(report.reports[0].shard, 0);
        assert_eq!(report.reports[0].final_now, SimTime::from_minutes(7));
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].shard, 1);
        assert!(
            report.failures[0]
                .message
                .contains("segment log sync failed"),
            "panic message lost: {:?}",
            report.failures[0].message
        );
    }

    #[test]
    #[should_panic(expected = "shard 1: segment log sync failed on the way out")]
    fn expect_clean_propagates_shard_panics() {
        half_dead_service().shutdown().expect_clean();
    }

    #[test]
    fn durable_service_resumes_from_its_segment_logs() {
        let dir = scratch("service-restart");
        let build = || {
            Tempimpd::builder()
                .shards(2)
                .shard_capacity(ByteSize::from_mib(256))
                .durable(&dir)
                .observer(Obs::none())
                .spawn()
        };

        let service = build();
        let mut client = service.client();
        for i in 0..50u64 {
            client
                .put(
                    ObjectId::new(i),
                    ByteSize::from_mib(1),
                    week_curve(),
                    SimTime::from_minutes(i),
                )
                .unwrap();
        }
        let before = client.store_stats(SimTime::from_minutes(50)).unwrap();
        drop(client);
        let reports = service.shutdown().expect_clean();
        for report in &reports {
            let disk = report.disk.as_ref().expect("durable shards report disk");
            assert!(disk.file_bytes > 0, "mutations reached the log");
        }

        // A second service on the same directory serves the same objects
        // without a single re-put.
        let service = build();
        let mut client = service.client();
        let after = client.store_stats(SimTime::from_minutes(50)).unwrap();
        assert_eq!(after.objects, before.objects);
        assert_eq!(after.used, before.used);
        for i in 0..50u64 {
            let info = client
                .get_info(ObjectId::new(i), SimTime::from_minutes(50))
                .unwrap()
                .expect("object survived the restart");
            assert_eq!(info.size, ByteSize::from_mib(1));
        }
        drop(client);
        service.shutdown().expect_clean();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_full_rejections_flow_back_as_store_errors() {
        let service = Tempimpd::builder()
            .shards(1)
            .shard_capacity(ByteSize::from_mib(10))
            .observer(Obs::none())
            .spawn();
        let mut client = service.client();
        client
            .put(
                ObjectId::new(1),
                ByteSize::from_mib(10),
                ImportanceCurve::Persistent,
                SimTime::ZERO,
            )
            .unwrap();
        let err = client
            .put(
                ObjectId::new(2),
                ByteSize::from_mib(10),
                ImportanceCurve::Persistent,
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Store(_)));
        drop(client);
        service.shutdown().expect_clean();
    }
}
