//! The indexed planner against the list-scan model on three hand-built
//! units: every answer of the engine's `StorageUnit` must be the answer of
//! `bench_harness::model::ModelUnit`, which shares none of its index.
//!
//! The engine's own unit tests of the same names check what only the
//! engine has: how many merge heads a plan evaluates, and that the index
//! is fresh after every verb. These tests check the plans themselves.

use bench_harness::model::ModelUnit;
use rand::Rng;
use sim_core::{ByteSize, SimDuration, SimTime};
use temporal_importance::protocol::{AnnotateMode, Request, StoreApi};
use temporal_importance::{
    Admission, EvictionPolicy, Importance, ImportanceCurve, ObjectId, StorageUnit,
};

fn mib(n: u64) -> ByteSize {
    ByteSize::from_mib(n)
}

fn days(n: u64) -> SimDuration {
    SimDuration::from_days(n)
}

fn imp(v: f64) -> Importance {
    Importance::new(v).unwrap()
}

fn fixed(importance: f64, expiry_days: u64) -> ImportanceCurve {
    ImportanceCurve::Fixed {
        importance: imp(importance),
        expiry: days(expiry_days),
    }
}

/// An engine unit and the model, asked the same things.
struct Pair {
    unit: StorageUnit,
    model: ModelUnit,
}

impl Pair {
    /// Both empty, of `capacity`, preemptive.
    fn new(capacity: ByteSize) -> Self {
        Pair {
            unit: StorageUnit::new(capacity),
            model: ModelUnit::new(capacity, EvictionPolicy::Preemptive),
        }
    }

    /// Sends `request` at `now` to both and requires one answer.
    fn ask(&mut self, now: SimTime, request: Request) -> String {
        let engine = format!("{:?}", self.unit.call(now, request.clone()));
        let modelled = format!("{:?}", self.model.call(now, request));
        assert_eq!(engine, modelled, "at {now}");
        engine
    }

    fn advance(&mut self, now: SimTime) {
        self.unit.advance(now);
        self.model.advance(now);
    }
}

fn put(id: u64, size: ByteSize, curve: ImportanceCurve) -> Request {
    Request::Put {
        id: ObjectId::new(id),
        bytes: size,
        curve,
        class: Default::default(),
    }
}

fn advise(size: ByteSize, incoming: Importance) -> Request {
    Request::Advise {
        id: ObjectId::new(0),
        bytes: size,
        incoming,
    }
}

/// One curve family of 500 shapes, plateaus scrambled against arrival:
/// on day 12 a probe and a store of 7 MiB at 0.7 take the model's seven
/// victims, in the model's order.
#[test]
fn a_plan_evaluates_heads_per_family_not_per_shape() {
    const OBJECTS: u64 = 500;
    let now = SimTime::from_days(12);
    let mut both = Pair::new(mib(OBJECTS));
    for i in 0..OBJECTS {
        let plateau = days(1) + SimDuration::from_hours((i * 263) % OBJECTS);
        let curve = ImportanceCurve::two_step(imp(0.6), plateau, days(30));
        let at = SimTime::from_minutes(7 * i);
        both.ask(at, put(i, mib(1), curve));
    }
    let probe = both.ask(now, advise(mib(7), imp(0.7)));
    assert!(probe.contains("victims: 7"), "{probe}");
    let stored = both.ask(now, put(OBJECTS, mib(7), fixed(0.7, 30)));
    assert!(stored.contains("Ok("), "{stored}");
}

/// A seeded churn of the benchmark's curve palette with removes, sweeps,
/// reannotations and week-long clock jumps, probed after every step:
/// every answer is the model's, and most probes plan.
#[test]
fn every_verb_leaves_the_index_fresh() {
    let mut both = Pair::new(mib(192));
    let mut rng = sim_core::rng::seeded(37);
    let (mut now, mut planned) = (SimTime::ZERO, 0);
    for step in 0..3_000u64 {
        now += match rng.gen_range(0..60u32) {
            0 => days(7),
            _ => SimDuration::from_minutes(rng.gen_range(0..400)),
        };
        let curve = match rng.gen_range(0..10u32) {
            0..=3 => ImportanceCurve::two_step(Importance::FULL, days(15), days(15)),
            4..=5 => fixed(
                0.2 * f64::from(rng.gen_range(2..=4u32)),
                10 * rng.gen_range(1..=3),
            ),
            6 => ImportanceCurve::two_step(imp(0.6), days(5), days(25)),
            7..=8 => ImportanceCurve::fixed_lifetime(days(5 * rng.gen_range(1..=3))),
            _ => ImportanceCurve::Ephemeral,
        };
        let old = ObjectId::new(step.saturating_sub(rng.gen_range(1..=40)));
        let request = match step % 25 {
            0 => Request::Sweep,
            1 => Request::Remove { id: old },
            2 => Request::Annotate {
                id: old,
                curve,
                mode: AnnotateMode::Replace,
            },
            _ => put(step, mib(1 + step % 4), curve),
        };
        both.ask(now, request);
        let (size, incoming) = (
            mib(rng.gen_range(1..=8)),
            imp(0.1 * f64::from(rng.gen_range(1..=10u32))),
        );
        planned += usize::from(both.unit.capacity() - both.unit.used() < size);
        both.ask(now, advise(size, incoming));
    }
    assert!(planned > 1_000, "only {planned} probes planned");
}

/// A zero-wane step curve reached on its expiry minute by time passing:
/// the probe finds it behind the 0.4 blocker and the sweep takes it, as
/// in the model.
#[test]
fn a_step_curve_reached_on_its_expiry_minute_is_expired() {
    let expiry_minute = SimTime::from_days(10);
    let mut both = Pair::new(mib(30));
    let step = ImportanceCurve::two_step(imp(0.5), days(10), SimDuration::ZERO);
    both.ask(SimTime::ZERO, put(1, mib(10), step));
    both.ask(SimTime::ZERO, put(2, mib(10), fixed(0.3, 30)));
    both.ask(SimTime::ZERO, put(3, mib(10), fixed(0.4, 30)));
    both.advance(SimTime::from_days(9));
    both.advance(expiry_minute);
    let probe = both
        .unit
        .advise(ObjectId::new(0), mib(20), imp(0.35), expiry_minute);
    let expected = Admission::Preempting {
        highest: imp(0.5),
        victims: 2,
        freed: mib(20),
    };
    assert_eq!(probe.unwrap(), expected);
    both.ask(expiry_minute, advise(mib(20), imp(0.35)));
    let swept = both.ask(expiry_minute, Request::Sweep);
    assert!(swept.contains("id: ObjectId(1)"), "{swept}");
}
