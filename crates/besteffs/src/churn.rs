//! Deterministic node churn and fault injection.
//!
//! The paper's §5.3 deployment targets ~2,000 *desktops* — the churniest
//! hardware class there is — yet evaluates placement on an always-up
//! fleet. This module closes that gap with seeded availability schedules
//! that drive [`Besteffs::fail_node_purging`] / [`Besteffs::rejoin_node`]
//! transitions through the `sim-core` event loop:
//!
//! * [`AvailabilitySchedule::AlwaysOn`] — the paper's implicit model.
//! * [`AvailabilitySchedule::Diurnal`] — desktop duty cycles: each node
//!   powers off for a fixed nightly window, phase-jittered per node.
//! * [`AvailabilitySchedule::Weibull`] — heavy-tailed session/downtime
//!   lengths (shape 1 = memoryless; shape < 1 = bursty churn).
//! * [`AvailabilitySchedule::Trace`] — replay of an explicit session list.
//!
//! Everything is deterministic: the same `(seed, schedule, nodes,
//! horizon)` tuple always yields the same [`ChurnSchedule`], each node
//! draws from its own derived RNG stream (so resizing the fleet never
//! perturbs other nodes' sessions), and events at equal times apply in
//! ascending node order.

use rand::Rng;
use serde::{Deserialize, Serialize};
use sim_core::{rng, Obs, SimDuration, SimTime, Simulation};

use crate::cluster::Besteffs;
use crate::directory::Directory;
use crate::overlay::NodeId;

/// The two churn transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnEventKind {
    /// The node crashes; its objects are lost.
    Fail,
    /// The node comes back — empty, with a fresh incarnation.
    Rejoin,
}

/// One scheduled availability transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the transition fires.
    pub at: SimTime,
    /// The affected node.
    pub node: NodeId,
    /// Fail or rejoin.
    pub kind: ChurnEventKind,
}

/// A seeded availability model for a fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AvailabilitySchedule {
    /// Nodes never fail (the paper's implicit assumption).
    AlwaysOn,
    /// Desktop duty cycle: every node is off for `off` out of every 24
    /// hours, starting at a per-node hour drawn uniformly from
    /// `0..24h - off` plus minute jitter — so the fleet's outages are
    /// staggered, not synchronized.
    Diurnal {
        /// Nightly off-window length (must be shorter than a day).
        off: SimDuration,
    },
    /// Alternating up/down sessions with Weibull-distributed lengths
    /// (`x = scale · (−ln U)^(1/shape)`, minute granularity, minimum one
    /// minute). Shape 1 gives memoryless exponential sessions whose mean
    /// is the scale; shapes below 1 model the heavy-tailed bursts real
    /// desktop traces show.
    Weibull {
        /// Shape parameter `k` for both session and downtime draws.
        shape: f64,
        /// Scale parameter of up-session lengths.
        session_scale: SimDuration,
        /// Scale parameter of downtime lengths.
        downtime_scale: SimDuration,
    },
    /// Replay an explicit transition list (e.g. parsed from a real
    /// availability trace). Events are re-sorted into schedule order.
    Trace(Vec<ChurnEvent>),
}

impl AvailabilitySchedule {
    /// A memoryless schedule calibrated so each node fails with
    /// probability ≈ `daily_rate` per simulated day (sessions are
    /// exponential with mean `1/daily_rate` days), staying down for
    /// `downtime_scale` on average. `daily_rate` 0 yields [`AlwaysOn`].
    ///
    /// [`AlwaysOn`]: AvailabilitySchedule::AlwaysOn
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ daily_rate < 1`.
    pub fn daily_churn(daily_rate: f64, downtime_scale: SimDuration) -> Self {
        assert!(
            (0.0..1.0).contains(&daily_rate),
            "daily churn rate must be in [0, 1), got {daily_rate}"
        );
        if daily_rate == 0.0 {
            return AvailabilitySchedule::AlwaysOn;
        }
        let mean_minutes = SimDuration::DAY.as_minutes() as f64 / daily_rate;
        AvailabilitySchedule::Weibull {
            shape: 1.0,
            session_scale: SimDuration::from_minutes(mean_minutes as u64),
            downtime_scale,
        }
    }
}

/// A fully materialized, time-ordered transition list for one fleet.
///
/// # Examples
///
/// ```
/// use besteffs::churn::{AvailabilitySchedule, ChurnSchedule};
/// use sim_core::{SimDuration, SimTime};
///
/// let schedule = AvailabilitySchedule::daily_churn(0.05, SimDuration::from_hours(12));
/// let a = ChurnSchedule::generate(50, SimTime::from_days(365), &schedule, 7);
/// let b = ChurnSchedule::generate(50, SimTime::from_days(365), &schedule, 7);
/// assert_eq!(a.events(), b.events()); // same seed ⇒ same churn
/// assert!(!a.events().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// Materializes the transition list for `nodes` nodes over
    /// `[0, horizon]`. Each node's sessions come from an independent RNG
    /// stream derived from `seed` and the node index.
    pub fn generate(
        nodes: usize,
        horizon: SimTime,
        schedule: &AvailabilitySchedule,
        seed: u64,
    ) -> Self {
        let mut events: Vec<ChurnEvent> = Vec::new();
        match schedule {
            AvailabilitySchedule::AlwaysOn => {}
            AvailabilitySchedule::Diurnal { off } => {
                let off = *off;
                assert!(
                    off < SimDuration::DAY,
                    "diurnal off-window must be shorter than a day"
                );
                for i in 0..nodes {
                    let mut node_rng = node_stream(seed, i);
                    let latest_start = SimDuration::DAY.as_minutes() - off.as_minutes();
                    let start = node_rng.gen_range(0..latest_start.max(1));
                    push_sessions(&mut events, NodeId::new(i), horizon, {
                        let mut first = true;
                        move |_| {
                            // First "session" is the initial uptime until
                            // the node's off-hour; afterwards exactly one
                            // day separates consecutive shutdowns.
                            let up = if first {
                                first = false;
                                SimDuration::from_minutes(start)
                            } else {
                                SimDuration::DAY - off
                            };
                            (up, off)
                        }
                    });
                }
            }
            AvailabilitySchedule::Weibull {
                shape,
                session_scale,
                downtime_scale,
            } => {
                assert!(*shape > 0.0, "weibull shape must be positive");
                let (shape, up_scale, down_scale) = (
                    *shape,
                    session_scale.as_minutes() as f64,
                    downtime_scale.as_minutes() as f64,
                );
                for i in 0..nodes {
                    let mut node_rng = node_stream(seed, i);
                    push_sessions(&mut events, NodeId::new(i), horizon, move |_| {
                        let up = weibull_minutes(&mut node_rng, shape, up_scale);
                        let down = weibull_minutes(&mut node_rng, shape, down_scale);
                        (up, down)
                    });
                }
            }
            AvailabilitySchedule::Trace(trace) => {
                events.extend(trace.iter().copied().filter(|e| e.at <= horizon));
            }
        }
        // Time order with node order breaking ties keeps application
        // deterministic regardless of how per-node lists interleave.
        events.sort_by_key(|e| (e.at, e.node));
        ChurnSchedule { events }
    }

    /// The transitions, in `(time, node)` order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of scheduled transitions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the schedule never disturbs the fleet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Walks one node's alternating up/down sessions from the epoch to the
/// horizon, pushing the fail/rejoin transition pairs. `next_sessions`
/// returns `(uptime, downtime)` for each cycle.
fn push_sessions<F>(events: &mut Vec<ChurnEvent>, node: NodeId, horizon: SimTime, mut next: F)
where
    F: FnMut(usize) -> (SimDuration, SimDuration),
{
    let mut at = SimTime::ZERO;
    for cycle in 0.. {
        let (up, down) = next(cycle);
        at += up.max(SimDuration::MINUTE);
        if at > horizon {
            break;
        }
        events.push(ChurnEvent {
            at,
            node,
            kind: ChurnEventKind::Fail,
        });
        at += down.max(SimDuration::MINUTE);
        if at > horizon {
            break;
        }
        events.push(ChurnEvent {
            at,
            node,
            kind: ChurnEventKind::Rejoin,
        });
    }
}

/// The per-node RNG stream: independent of every other node and of all
/// workload/placement streams.
fn node_stream(seed: u64, node: usize) -> rand::rngs::StdRng {
    rng::seeded(rng::derive_seed(
        rng::derive_seed(seed, "churn"),
        &format!("node-{node}"),
    ))
}

/// One Weibull draw at minute granularity (inverse-CDF), at least one
/// minute so sessions always advance the clock.
fn weibull_minutes<R: Rng>(rng: &mut R, shape: f64, scale: f64) -> SimDuration {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let x = scale * (-u.ln()).powf(1.0 / shape);
    SimDuration::from_minutes((x as u64).max(1))
}

/// Per-advance accounting from [`ChurnDriver::advance`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ChurnTick {
    /// Fail transitions applied.
    pub failures: u64,
    /// Rejoin transitions applied.
    pub rejoins: u64,
    /// Objects lost across the applied failures.
    pub objects_lost: u64,
}

/// Replays a [`ChurnSchedule`] against a cluster through the `sim-core`
/// event loop, interleaving with the caller's workload clock.
///
/// # Examples
///
/// ```
/// use besteffs::churn::{AvailabilitySchedule, ChurnDriver, ChurnSchedule};
/// use besteffs::{Besteffs, Directory};
/// use sim_core::{rng, ByteSize, SimDuration, SimTime};
///
/// let mut rand = rng::seeded(3);
/// let schedule = ChurnSchedule::generate(
///     20,
///     SimTime::from_days(30),
///     &AvailabilitySchedule::daily_churn(0.2, SimDuration::from_hours(8)),
///     9,
/// );
/// let mut cluster = Besteffs::builder(20, ByteSize::from_gib(1)).build(&mut rand);
/// let mut driver = ChurnDriver::new(schedule);
/// let mut directory = Directory::new();
/// let tick = driver.advance(SimTime::from_days(30), &mut cluster, &mut directory);
/// assert_eq!(tick.failures, cluster.stats().failed_nodes);
/// ```
#[derive(Debug, Clone)]
pub struct ChurnDriver {
    sim: Simulation<(NodeId, ChurnEventKind)>,
    obs: Obs,
}

impl ChurnDriver {
    /// Loads a schedule into a fresh event loop.
    pub fn new(schedule: ChurnSchedule) -> Self {
        let mut sim = Simulation::new();
        for event in schedule.events() {
            sim.schedule(event.at, (event.node, event.kind));
        }
        ChurnDriver {
            sim,
            obs: Obs::global(),
        }
    }

    /// Transitions not yet applied.
    pub fn pending(&self) -> usize {
        self.sim.pending()
    }

    /// Applies every transition scheduled up to and including `now`:
    /// failures run the purging path (stale directory entries drop with
    /// the node), rejoins bring nodes back empty under fresh
    /// incarnations. Returns what happened.
    pub fn advance(
        &mut self,
        now: SimTime,
        cluster: &mut Besteffs,
        directory: &mut Directory,
    ) -> ChurnTick {
        let mut tick = ChurnTick::default();
        self.sim.run_until(now, |_, at, (node, kind)| match kind {
            ChurnEventKind::Fail => {
                tick.failures += 1;
                tick.objects_lost += cluster.fail_node_purging(node, at, directory);
            }
            ChurnEventKind::Rejoin => {
                if cluster.rejoin_node(node) {
                    tick.rejoins += 1;
                }
            }
        });
        self.obs.counter("churn.failures", tick.failures);
        self.obs.counter("churn.rejoins", tick.rejoins);
        self.obs.counter("churn.objects_lost", tick.objects_lost);
        tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::ByteSize;

    const HORIZON: SimTime = SimTime::from_days(365);

    #[test]
    fn always_on_schedules_nothing() {
        let s = ChurnSchedule::generate(100, HORIZON, &AvailabilitySchedule::AlwaysOn, 1);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let schedule = AvailabilitySchedule::Weibull {
            shape: 0.7,
            session_scale: SimDuration::from_days(20),
            downtime_scale: SimDuration::from_hours(10),
        };
        let a = ChurnSchedule::generate(40, HORIZON, &schedule, 5);
        let b = ChurnSchedule::generate(40, HORIZON, &schedule, 5);
        let c = ChurnSchedule::generate(40, HORIZON, &schedule, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn growing_the_fleet_keeps_existing_streams() {
        let schedule = AvailabilitySchedule::daily_churn(0.1, SimDuration::from_hours(6));
        let small = ChurnSchedule::generate(10, HORIZON, &schedule, 5);
        let large = ChurnSchedule::generate(20, HORIZON, &schedule, 5);
        let first_ten = |s: &ChurnSchedule| {
            let mut events: Vec<ChurnEvent> = s
                .events()
                .iter()
                .copied()
                .filter(|e| e.node.index() < 10)
                .collect();
            events.sort_by_key(|e| (e.node, e.at));
            events
        };
        assert_eq!(first_ten(&small), first_ten(&large));
    }

    #[test]
    fn events_alternate_per_node_and_stay_ordered() {
        let schedule = AvailabilitySchedule::Diurnal {
            off: SimDuration::from_hours(10),
        };
        let s = ChurnSchedule::generate(25, SimTime::from_days(30), &schedule, 2);
        assert!(s.events().windows(2).all(|w| w[0].at <= w[1].at));
        for node in 0..25 {
            let kinds: Vec<ChurnEventKind> = s
                .events()
                .iter()
                .filter(|e| e.node.index() == node)
                .map(|e| e.kind)
                .collect();
            assert!(!kinds.is_empty(), "diurnal node {node} never cycles");
            for (i, kind) in kinds.iter().enumerate() {
                let expected = if i % 2 == 0 {
                    ChurnEventKind::Fail
                } else {
                    ChurnEventKind::Rejoin
                };
                assert_eq!(*kind, expected, "node {node} event {i}");
            }
        }
    }

    #[test]
    fn diurnal_nodes_cycle_daily() {
        let off = SimDuration::from_hours(12);
        let s = ChurnSchedule::generate(
            8,
            SimTime::from_days(10),
            &AvailabilitySchedule::Diurnal { off },
            3,
        );
        // Consecutive failures of one node are exactly a day apart.
        for node in 0..8 {
            let fails: Vec<SimTime> = s
                .events()
                .iter()
                .filter(|e| e.node.index() == node && e.kind == ChurnEventKind::Fail)
                .map(|e| e.at)
                .collect();
            assert!(fails.len() >= 9, "node {node}: {} failures", fails.len());
            for pair in fails.windows(2) {
                assert_eq!(pair[1].saturating_since(pair[0]), SimDuration::DAY);
            }
        }
    }

    #[test]
    fn trace_replay_filters_and_orders() {
        let raw = vec![
            ChurnEvent {
                at: SimTime::from_days(400),
                node: NodeId::new(0),
                kind: ChurnEventKind::Fail,
            },
            ChurnEvent {
                at: SimTime::from_days(2),
                node: NodeId::new(1),
                kind: ChurnEventKind::Fail,
            },
            ChurnEvent {
                at: SimTime::from_days(1),
                node: NodeId::new(0),
                kind: ChurnEventKind::Fail,
            },
        ];
        let s = ChurnSchedule::generate(2, HORIZON, &AvailabilitySchedule::Trace(raw), 0);
        assert_eq!(s.len(), 2, "past-horizon events are dropped");
        assert_eq!(s.events()[0].at, SimTime::from_days(1));
        assert_eq!(s.events()[1].at, SimTime::from_days(2));
    }

    #[test]
    fn daily_churn_rate_is_roughly_calibrated() {
        // 10% daily churn over a year ⇒ ~36 failures per node on average.
        let s = ChurnSchedule::generate(
            50,
            HORIZON,
            &AvailabilitySchedule::daily_churn(0.1, SimDuration::from_hours(6)),
            11,
        );
        let failures = s
            .events()
            .iter()
            .filter(|e| e.kind == ChurnEventKind::Fail)
            .count() as f64
            / 50.0;
        assert!(
            (20.0..60.0).contains(&failures),
            "mean failures per node {failures}"
        );
    }

    #[test]
    fn driver_applies_transitions_through_the_event_loop() {
        let mut rand = rng::seeded(31);
        let mut directory = Directory::new();
        let schedule = ChurnSchedule::generate(
            30,
            SimTime::from_days(60),
            &AvailabilitySchedule::daily_churn(0.3, SimDuration::from_hours(12)),
            13,
        );
        let total_fails = schedule
            .events()
            .iter()
            .filter(|e| e.kind == ChurnEventKind::Fail)
            .count() as u64;
        let mut cluster = Besteffs::builder(30, ByteSize::from_mib(100)).build(&mut rand);
        let mut driver = ChurnDriver::new(schedule);
        assert!(driver.pending() > 0);

        // Apply in weekly slices; accounting must add up across slices.
        let mut applied = ChurnTick::default();
        for week in 1..=9u64 {
            let tick = driver.advance(SimTime::from_days(week * 7), &mut cluster, &mut directory);
            applied.failures += tick.failures;
            applied.rejoins += tick.rejoins;
        }
        assert_eq!(applied.failures, total_fails);
        assert_eq!(cluster.stats().failed_nodes, applied.failures);
        assert_eq!(cluster.stats().rejoined_nodes, applied.rejoins);
        assert_eq!(driver.pending(), 0);
        assert_eq!(
            cluster.failure_epochs().len() as u64,
            applied.failures,
            "every failure records an epoch"
        );
    }
}
