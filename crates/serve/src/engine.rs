//! The per-shard execution engine: one [`StorageUnit`] advanced along a
//! shard-local monotonic clock, with periodic expiry sweeps.
//!
//! This is deliberately the *only* code path that applies protocol
//! requests to a shard, shared verbatim between the live worker threads
//! of [`Tempimpd`](crate::Tempimpd) and the single-threaded
//! [`replay`] used by the differential determinism tests: a shard's final
//! state is a pure function of its effective request log, by construction.

use std::path::Path;

use sim_core::{ByteSize, Obs, SimDuration, SimTime};
use tempimp_durable::{DiskInfo, DurableConfig, DurableError, DurableUnit};
use temporal_importance::protocol::{Request, Response, StoreApi};
use temporal_importance::{EvictionPolicy, StorageUnit};

/// What actually holds a shard's objects: the in-memory engine, or the
/// same engine wrapped in a segment journal. The dispatch below is the
/// *entire* difference between a volatile and a durable shard — clock,
/// sweep cadence, batching, and replay semantics are shared.
#[derive(Debug)]
enum Backend {
    /// Volatile: state dies with the process. Boxed (like the durable
    /// variant) so the enum stays pointer-sized — a shard engine moves
    /// across threads at spawn and shutdown.
    Memory(Box<StorageUnit>),
    /// Journaled: every mutation lands in an append-only segment log
    /// and state survives process death.
    Durable(Box<DurableUnit>),
}

/// One shard's engine: storage unit + monotonic clock + sweep cadence.
///
/// # Examples
///
/// ```
/// use sim_core::{ByteSize, SimDuration, SimTime};
/// use tempimpd::ShardEngine;
/// use temporal_importance::protocol::StoreApi;
/// use temporal_importance::{EvictionPolicy, ImportanceCurve, ObjectId};
///
/// let mut shard = ShardEngine::new(
///     ByteSize::from_gib(1),
///     EvictionPolicy::Preemptive,
///     SimDuration::DAY,
/// );
/// let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_days(7));
/// shard
///     .put(ObjectId::new(1), ByteSize::from_mib(10), curve, SimTime::ZERO)
///     .unwrap();
/// assert_eq!(shard.unit().len(), 1);
/// ```
#[derive(Debug)]
pub struct ShardEngine {
    backend: Backend,
    /// The latest instant the shard has seen: requests race in from
    /// clients out of timestamp order, and a straggler applies at this
    /// instant rather than rewinding the engine.
    clock: SimTime,
    last_sweep: SimTime,
    sweep_every: SimDuration,
}

impl ShardEngine {
    /// An empty shard with the given capacity, policy, and expiry-sweep
    /// cadence.
    pub fn new(capacity: ByteSize, policy: EvictionPolicy, sweep_every: SimDuration) -> Self {
        ShardEngine::with_observer(capacity, policy, sweep_every, Obs::none())
    }

    /// [`ShardEngine::new`] with an explicit observer on the unit.
    /// Observation never feeds back into state, so observed and silent
    /// shards stay byte-identical — replay always uses a silent one.
    pub fn with_observer(
        capacity: ByteSize,
        policy: EvictionPolicy,
        sweep_every: SimDuration,
        obs: Obs,
    ) -> Self {
        let unit = StorageUnit::builder(capacity)
            .policy(policy)
            .observer(obs)
            .build();
        ShardEngine {
            backend: Backend::Memory(Box::new(unit)),
            clock: SimTime::ZERO,
            last_sweep: SimTime::ZERO,
            sweep_every,
        }
    }

    /// A durable shard backed by a segment log at `dir`: opening
    /// replays any existing segments, so the engine resumes exactly
    /// where the previous process's last persisted mutation left it —
    /// including the shard clock and sweep cadence clock, which seed
    /// from the log's recovered high-water marks.
    ///
    /// # Errors
    ///
    /// [`DurableError`] on filesystem trouble, segment corruption, or a
    /// recovered resident set this capacity/policy cannot hold.
    pub fn durable(
        dir: impl AsRef<Path>,
        capacity: ByteSize,
        policy: EvictionPolicy,
        sweep_every: SimDuration,
        config: DurableConfig,
        obs: Obs,
    ) -> Result<Self, DurableError> {
        let unit = DurableUnit::with_observer(dir, capacity, policy, config, obs)?;
        let clock = unit.clock();
        let last_sweep = unit.last_sweep();
        Ok(ShardEngine {
            backend: Backend::Durable(Box::new(unit)),
            clock,
            last_sweep,
            sweep_every,
        })
    }

    /// Folds a request timestamp into the shard clock without applying
    /// anything — workers call this once per drained batch with the
    /// latest timestamp in the batch, so every request in the batch is
    /// processed at one effective instant and breakpoint/expiry work is
    /// paid once per batch instead of once per request.
    pub fn observe(&mut self, at: SimTime) -> SimTime {
        self.clock = self.clock.max(at);
        self.clock
    }

    /// The latest effective instant this shard has processed.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The shard's storage unit.
    pub fn unit(&self) -> &StorageUnit {
        match &self.backend {
            Backend::Memory(unit) => unit,
            Backend::Durable(durable) => durable.unit(),
        }
    }

    /// Disk occupancy of the shard's segment log; `None` for a
    /// volatile shard.
    pub fn disk_info(&self) -> Option<DiskInfo> {
        match &self.backend {
            Backend::Memory(_) => None,
            Backend::Durable(durable) => Some(durable.disk_info()),
        }
    }

    /// Consumes the engine, returning the final unit state. A durable
    /// backend syncs its log to stable storage first.
    ///
    /// # Panics
    ///
    /// Panics if closing a durable backend fails — its final sync, or a
    /// journal write that failed earlier — since the shard cannot
    /// truthfully report clean state it could not persist. On a worker
    /// thread the panic surfaces through the service's shutdown report.
    pub fn into_unit(self) -> StorageUnit {
        match self.backend {
            Backend::Memory(unit) => *unit,
            Backend::Durable(durable) => durable
                .close()
                .expect("closing the shard's segment log failed"),
        }
    }

    /// Hands one request to the backend at `now`: the one place a shard
    /// meets its store, for client requests and cadence sweeps alike.
    fn apply(&mut self, now: SimTime, request: Request) -> Response {
        match &mut self.backend {
            Backend::Memory(unit) => unit.call(now, request),
            Backend::Durable(durable) => durable.call(now, request),
        }
    }
}

impl StoreApi for ShardEngine {
    /// Applies one request at `max(at, clock)` — time never moves
    /// backwards on a shard — running an expired-object sweep first
    /// whenever at least the sweep cadence has elapsed since the last one.
    /// A client's `Sweep` is that sweep: it runs in place of a due one,
    /// answers what it reclaimed, and restarts the cadence.
    ///
    /// Both the sweep decision and the effective timestamp depend only on
    /// the sequence of `(at, request)` pairs this engine has seen, which
    /// is what makes single-threaded replay of a recorded log reproduce a
    /// live shard exactly.
    fn call(&mut self, at: SimTime, request: Request) -> Response {
        let now = self.observe(at);
        if matches!(request, Request::Sweep) {
            self.last_sweep = now;
            return self.apply(now, request);
        }
        if now.saturating_since(self.last_sweep) >= self.sweep_every {
            self.last_sweep = now;
            // A journaling failure here cannot be answered to any one
            // client (the sweep belongs to no request); panic and let the
            // shutdown report surface it.
            if let Response::Sweep(Err(error)) = self.apply(now, Request::Sweep) {
                panic!("journaling a shard sweep failed: {error}");
            }
        }
        self.apply(now, request)
    }
}

/// Replays an effective request log single-threaded into a fresh shard,
/// returning the resulting engine for state comparison.
///
/// The log is what a [`Tempimpd`](crate::Tempimpd) worker records when
/// built with request logging: timestamps are the *effective* (batch-
/// coalesced, monotone) instants, in the shard's processing order. Because
/// this drives the same [`ShardEngine`] code path as the live worker, a
/// replayed shard must end up byte-identical to the live one — the
/// differential tests serialize both and compare.
pub fn replay(
    capacity: ByteSize,
    policy: EvictionPolicy,
    sweep_every: SimDuration,
    log: &[(SimTime, Request)],
) -> ShardEngine {
    let mut engine = ShardEngine::new(capacity, policy, sweep_every);
    for (at, request) in log {
        engine.call(*at, request.clone());
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::observe::{Observer, ENABLED};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use temporal_importance::{ImportanceCurve, ObjectId};

    fn ephemeral_curve() -> ImportanceCurve {
        ImportanceCurve::fixed_lifetime(SimDuration::from_days(1))
    }

    #[test]
    fn sweeps_run_on_cadence_and_free_expired_bytes() {
        let mut shard = ShardEngine::new(
            ByteSize::from_mib(100),
            EvictionPolicy::Preemptive,
            SimDuration::DAY,
        );
        shard
            .put(
                ObjectId::new(1),
                ByteSize::from_mib(10),
                ephemeral_curve(),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(shard.unit().used(), ByteSize::from_mib(10));

        // Two days later any request triggers the sweep first; the expired
        // object is reclaimed even though nothing touched it directly.
        let later = SimTime::from_days(2);
        let stats = shard.store_stats(later).unwrap();
        assert_eq!(stats.used, ByteSize::ZERO);
        assert_eq!(stats.unit.evictions_expired, 1);
        assert_eq!(shard.now(), later);
    }

    #[test]
    fn stragglers_do_not_rewind_the_shard() {
        let mut shard = ShardEngine::new(
            ByteSize::from_mib(100),
            EvictionPolicy::Preemptive,
            SimDuration::DAY,
        );
        shard
            .put(
                ObjectId::new(1),
                ByteSize::from_mib(10),
                ephemeral_curve(),
                SimTime::from_days(3),
            )
            .unwrap();
        // A straggler stamped at day 1 is processed at the shard's day-3
        // clock: the object it queries is still fresh relative to day 3.
        let info = shard
            .get_info(ObjectId::new(1), SimTime::from_days(1))
            .unwrap()
            .expect("stored");
        assert!(!info.expired);
        assert_eq!(shard.now(), SimTime::from_days(3));
    }

    /// Counts the sweeps an engine applies (each reports its harvest).
    #[derive(Debug, Default)]
    struct Sweeps(AtomicU64);

    impl Observer for Sweeps {
        fn counter(&self, _: &'static str, _: u64) {}
        fn gauge(&self, _: &'static str, _: u64) {}
        fn record(&self, name: &'static str, _: u64) {
            if name == "engine.sweep_reclaimed" {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        fn event(&self, _: SimTime, _: &'static str, _: &[(&'static str, u64)]) {}
    }

    #[test]
    fn a_client_sweep_runs_in_place_of_a_due_cadence_sweep() {
        let sweeps = Arc::new(Sweeps::default());
        let mut shard = ShardEngine::with_observer(
            ByteSize::from_mib(100),
            EvictionPolicy::Preemptive,
            SimDuration::DAY,
            Obs::attached(sweeps.clone()),
        );
        let applied = || sweeps.0.load(Ordering::Relaxed);
        for (id, hours) in [(1, 24), (2, 60)] {
            let curve = ImportanceCurve::fixed_lifetime(SimDuration::from_hours(hours));
            shard
                .put(
                    ObjectId::new(id),
                    ByteSize::from_mib(10),
                    curve,
                    SimTime::ZERO,
                )
                .unwrap();
        }

        // Two days on the cadence is due; the client's sweep is the one
        // that runs, so it answers what expired.
        let day2 = SimTime::from_days(2);
        let swept = shard.sweep(day2).unwrap();
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].id, ObjectId::new(1));
        if ENABLED {
            assert_eq!(
                applied(),
                1,
                "one sweep, not a cadence sweep and the client's"
            );
        }

        // The cadence restarts at day 2: object 2, expired at 60 hours,
        // waits for the sweep a full day later.
        let almost = day2 + SimDuration::from_hours(23);
        assert_eq!(shard.store_stats(almost).unwrap().objects, 1);
        let stats = shard.store_stats(SimTime::from_days(3)).unwrap();
        assert_eq!((stats.objects, stats.unit.evictions_expired), (0, 2));
        if ENABLED {
            assert_eq!(applied(), 2);
        }
    }
}
