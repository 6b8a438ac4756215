//! One generated request log, one model, every `StoreApi` store.
//!
//! A case is a script of timestamped steps from one generator: every
//! protocol verb plus the one step only the in-process stores take
//! (`advance`), annotated with all six curve kinds,
//! under either policy, sized and keyed so that every rejection kind —
//! `Full`, `TooLarge`, `DuplicateId`, `EmptyObject` — comes up. Three
//! legs run it:
//!
//! * **Lockstep.** The indexed `StorageUnit`, `bench_harness`'s
//!   `ModelUnit` (the rule as a list scan, sharing none of the engine's
//!   accounting) and a `DurableUnit` on 1 KiB segments with
//!   auto-compaction, closed and reopened at a generated cut and again at
//!   the end. Every answer, the stats, the occupancy and the durable clocks
//!   must agree; the durable unit's serialized engine state must equal the
//!   indexed unit's, and the model's final residents must equal the
//!   indexed unit's field by field. It runs once per policy, and once
//!   more, preemptive, with curves from a quantised palette
//!   (`palette_curve`) so that many shapes share one curve family. A
//!   fourth run, `lockstep_behind_the_clock`, moves about one step in
//!   eight earlier (`backdated`), so calls land behind the clock and every
//!   store must act at `max(now, clock)`, as `StoreApi::call` states.
//! * **Served.** The protocol steps, removes, annotations and sweeps
//!   included, through one blocking client, to a
//!   1-shard and an N-shard memory `Tempimpd` and an N-shard durable one
//!   shut down and respawned at the cut. The model is `ShardRouter` over N
//!   `ShardEngine`s folded by `protocol::aggregate`; every answer must be
//!   the model's, and every shard's recorded log must replay to its unit.
//! * **Concurrent.** Pipelined clients with disjoint ids draw from the same
//!   generator; every shard replays, and `bench_stack`'s conservation laws
//!   hold.
//! * **Experiment.** The §5.1 single-class run at 80 GiB, once on a
//!   `StorageUnit` and once on a `DurableUnit`, under the two preemptive
//!   policies: evictions, refusals, density series (bit for bit) and
//!   counters must agree.
//!
//! Comparisons are exact, with three exceptions: densities of the indexed
//! unit and the model agree within 1e-9 (they sum differently); a
//! density read after a durable store has been reopened agrees within
//! 1e-12 (the rebuilt index sums in another order); a served `Health`
//! answer is compared on its engine fields only. `DIFF_CASES` sets every
//! leg's case count (default: proptest's 256).

use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bench_harness::model::{ModelUnit, Resident};
use experiments::single_class::{self, PolicyChoice, SingleClassConfig, SingleClassResult};
use proptest::test_runner::{case_count, run_cases_n};
use rand::rngs::StdRng;
use rand::Rng;
use sim_core::{ByteSize, Obs, SimDuration, SimTime};
use tempimp_durable::{DurableConfig, DurableUnit};
use tempimpd::{replay, Pending, ShardEngine, Tempimpd, TempimpdBuilder};
use temporal_importance::protocol::{
    aggregate, AnnotateMode, Request, Response, ShardRouter, StoreApi, VerbKind,
};
use temporal_importance::{
    EvictionPolicy, Importance, ImportanceCurve, ObjectClass, ObjectId, PiecewiseCurve,
    StorageUnit, UnitStats,
};

/// Every unit and shard holds 96 MiB; puts are mostly 1–23 MiB, so the
/// stores stay under preemption pressure.
const CAPACITY: ByteSize = ByteSize::from_mib(96);
const MINUTES_PER_DAY: u64 = 24 * 60;
/// Ids come from a small range so gets hit, annotations find their
/// objects and re-puts collide.
const IDS: u64 = 48;
const CLIENTS: u64 = 3;
const ORACLE_TOLERANCE: f64 = 1e-9;
const REOPENED_TOLERANCE: f64 = 1e-12;
/// What each rejection kind looks like in a `Put` answer; `Full` first.
const REJECTIONS: [&str; 4] = [
    "Store(Full",
    "Store(TooLarge",
    "Store(DuplicateId",
    "Store(EmptyObject",
];

/// One generated step: a protocol request, or the clock advance only the
/// in-process stores take.
#[derive(Debug, Clone)]
enum Op {
    Call(Request),
    Advance,
}

#[derive(Debug)]
struct Case {
    policy: EvictionPolicy,
    /// The sharded fleets' shard count.
    shards: u32,
    /// The step before which durable stores are closed and reopened.
    cut: usize,
    /// Steps at non-decreasing times, unless `backdated`.
    script: Vec<(SimTime, Op)>,
}

fn span(rng: &mut StdRng, days: u64) -> SimDuration {
    SimDuration::from_minutes(rng.gen_range(0..days * MINUTES_PER_DAY))
}

/// An annotation of one of the six curve kinds, at minute resolution
/// so breakpoints fire inside the script's horizon (zero-length waning
/// included).
fn curve(rng: &mut StdRng) -> ImportanceCurve {
    let level = Importance::new_clamped(rng.gen_range(0.0..=1.0));
    let positive = |rng: &mut StdRng| span(rng, 20) + SimDuration::from_minutes(1);
    match rng.gen_range(0..6) {
        0 => ImportanceCurve::Persistent,
        1 => ImportanceCurve::Ephemeral,
        2 => ImportanceCurve::Fixed {
            importance: level,
            expiry: span(rng, 40),
        },
        3 => ImportanceCurve::two_step(level, span(rng, 40), span(rng, 40)),
        4 => ImportanceCurve::exp_decay(level, span(rng, 40), span(rng, 40), positive(rng))
            .expect("positive half-life"),
        _ => {
            let knee = positive(rng);
            let end = knee + positive(rng);
            let low = Importance::new_clamped(level.value() * rng.gen_range(0.0..1.0));
            let points = vec![
                (SimDuration::ZERO, level),
                (knee, low),
                (end, Importance::ZERO),
            ];
            PiecewiseCurve::new(points)
                .expect("descending points")
                .into()
        }
    }
}

/// An annotation from a quantised palette: two levels, two wanes (zero
/// included) and one half-life, with a plateau drawn per object. Residents
/// then share a curve family across many plateau lengths, which `curve`'s
/// continuous draws never produce, so the indexed plan's lazy merge over a
/// family's shapes runs here. A plan that skipped a family's second shape
/// passes the other legs and fails this one within 256 cases.
fn palette_curve(rng: &mut StdRng) -> ImportanceCurve {
    let level = Importance::new_clamped([0.5, 1.0][rng.gen_range(0..2)]);
    let wane = SimDuration::from_days([0, 10][rng.gen_range(0..2)]);
    let plateau = span(rng, 40);
    match rng.gen_range(0..3) {
        0 => ImportanceCurve::Fixed {
            importance: level,
            expiry: plateau,
        },
        1 => ImportanceCurve::two_step(level, plateau, wane),
        _ => ImportanceCurve::exp_decay(level, plateau, wane, SimDuration::from_days(4))
            .expect("positive half-life"),
    }
}

/// One in sixteen sizes is empty and one outgrows the unit.
fn size(rng: &mut StdRng) -> ByteSize {
    match rng.gen_range(0..16) {
        0 => ByteSize::ZERO,
        1 => CAPACITY + ByteSize::from_mib(1),
        _ => ByteSize::from_mib(rng.gen_range(1..24)),
    }
}

/// A case of up to 99 steps, up to three days apart, on ids `base..base +
/// IDS`, annotated by `curve`.
fn generate(rng: &mut StdRng, base: u64, curve: fn(&mut StdRng) -> ImportanceCurve) -> Case {
    let mut now = SimTime::ZERO;
    let len = rng.gen_range(1..100);
    let script = (0..len)
        .map(|_| {
            now += span(rng, 3);
            let id = ObjectId::new(base + rng.gen_range(0..IDS));
            let draw = rng.gen_range(0..16);
            let op = match draw {
                0..=5 => Op::Call(Request::Put {
                    id,
                    bytes: size(rng),
                    curve: curve(rng),
                    class: ObjectClass::new(rng.gen_range(0..4)),
                }),
                6 => Op::Call(Request::Get { id }),
                7 => Op::Call(Request::Advise {
                    id,
                    bytes: size(rng),
                    incoming: Importance::new_clamped(rng.gen_range(0.0..=1.0)),
                }),
                8 => Op::Call(Request::Density),
                9 => Op::Call(Request::Stats),
                10 => Op::Call(Request::Health),
                11 => Op::Call(Request::Remove { id }),
                12 | 13 => Op::Call(Request::Annotate {
                    id,
                    curve: curve(rng),
                    mode: if draw == 12 {
                        AnnotateMode::Raise
                    } else {
                        AnnotateMode::Replace
                    },
                }),
                14 => Op::Call(Request::Sweep),
                _ => Op::Advance,
            };
            (now, op)
        })
        .collect();
    Case {
        policy: [EvictionPolicy::Preemptive, EvictionPolicy::Fifo][rng.gen_range(0..2)],
        shards: rng.gen_range(2..=4),
        cut: rng.gen_range(0..=len),
        script,
    }
}

/// `case` with about one step in eight moved up to six days earlier (not
/// before zero), behind the instants of the steps before it.
fn backdated(rng: &mut StdRng, mut case: Case) -> Case {
    for (at, _) in &mut case.script {
        if rng.gen_range(0..8) == 0 {
            let back = span(rng, 6).as_minutes();
            *at = SimTime::from_minutes(at.as_minutes().saturating_sub(back));
        }
    }
    case
}

/// The protocol steps of `case`.
fn requests(case: &Case) -> impl Iterator<Item = (SimTime, &Request)> {
    case.script.iter().filter_map(|(at, op)| match op {
        Op::Call(request) => Some((*at, request)),
        Op::Advance => None,
    })
}

/// Cases per leg: `DIFF_CASES` when set (the nightly deep fuzz runs 4096),
/// else proptest's count.
fn cases() -> u64 {
    std::env::var("DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(case_count)
}

/// A fresh scratch directory under the workspace `target/` (tests must not
/// touch anything outside the repository).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/target/store-differential-scratch"
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

/// 1 KiB segments, so a few records seal one and compaction runs often.
fn segments() -> DurableConfig {
    DurableConfig::default().segment_bytes(1024)
}

/// Everything an engine holds — residents, occupancy, policy, lifetime
/// counters — as one comparable string.
fn fingerprint(unit: &StorageUnit) -> String {
    serde_json::to_string(unit).expect("engine state serializes")
}

/// What a step answered: comparable text, and the density it carried (0
/// for none).
type Answer = (String, f64);

fn shown(value: impl Debug) -> Answer {
    (format!("{value:?}"), 0.0)
}

fn answer(response: Response) -> Answer {
    match response {
        Response::Density(Ok(info)) => (
            format!("{:?} of {:?}", info.used, info.capacity),
            info.density,
        ),
        Response::Health(Ok(health)) => shown(
            health
                .shards
                .iter()
                .map(|shard| (shard.clock, shard.residents, shard.used, shard.capacity))
                .collect::<Vec<_>>(),
        ),
        other => shown(other),
    }
}

fn check(step: usize, who: &str, got: &Answer, want: &Answer, tolerance: f64) {
    assert_eq!(got.0, want.0, "{who} answered differently at step {step}");
    assert!(
        (got.1 - want.1).abs() <= tolerance,
        "{who} read density {} against {} at step {step}",
        got.1,
        want.1
    );
}

/// Applies `op` to a bare store; `advance` is what the store does for
/// [`Op::Advance`]. The flag says whether a `DurableUnit` journals it, and
/// so whether a reopened log remembers its clock: every put and sweep
/// does, a remove that removed something and an accepted annotation.
fn apply<S: StoreApi>(
    store: &mut S,
    now: SimTime,
    op: &Op,
    advance: fn(&mut S, SimTime),
) -> (Answer, bool) {
    match op {
        Op::Call(request) => {
            let response = store.call(now, request.clone());
            let journals = matches!(
                response,
                Response::Put(_)
                    | Response::Remove(Ok(Some(_)))
                    | Response::Annotate(Ok(()))
                    | Response::Sweep(_)
            );
            (answer(response), journals)
        }
        Op::Advance => {
            advance(store, now);
            (shown(()), false)
        }
    }
}

/// The indexed unit's residents as the model lists them, in id order.
fn residents(unit: &StorageUnit) -> Vec<Resident> {
    unit.iter()
        .map(|object| Resident {
            id: object.id(),
            size: object.size(),
            class: object.class(),
            arrival: object.arrival(),
            annotated_at: object.annotated_at(),
            curve: object.curve().clone(),
        })
        .collect()
}

fn apply_durable(durable: &mut DurableUnit, now: SimTime, op: &Op) -> Answer {
    match op {
        Op::Call(request) => answer(durable.call(now, request.clone())),
        Op::Advance => {
            durable.advance(now);
            shown(())
        }
    }
}

/// How much of the lockstep leg's durable machinery its cases reached.
#[derive(Debug, Default)]
struct Reach {
    sealed: u64,
    compacted: u64,
    rejections: [bool; 4],
    preemptive: bool,
}

/// Runs the lockstep leg over the cases `draw` makes.
fn lockstep(name: &str, draw: impl Fn(&mut StdRng) -> Case) {
    let mut reach = Reach::default();
    let cases = cases();
    run_cases_n(name, cases, |rng| {
        let case = draw(rng);
        reach.preemptive |= case.policy == EvictionPolicy::Preemptive;
        run_lockstep(&case, &mut reach);
        Ok(())
    });
    eprintln!(
        "{name}: of {cases} cases {} sealed a segment and {} compacted",
        reach.sealed, reach.compacted
    );
    assert!(2 * reach.sealed > cases && 2 * reach.compacted > cases);
    // FIFO makes room by age alone, so it never answers `Full`.
    let skip = usize::from(!reach.preemptive);
    assert!(
        reach.rejections.iter().skip(skip).all(|&seen| seen),
        "{name} missed a rejection kind: {reach:?}"
    );
}

fn run_lockstep(case: &Case, reach: &mut Reach) {
    let dir = scratch("lockstep");
    let mut indexed = StorageUnit::builder(CAPACITY).policy(case.policy).build();
    let mut model = ModelUnit::new(CAPACITY, case.policy);
    let open = || DurableUnit::open(&dir, CAPACITY, case.policy, segments()).expect("open the log");
    let mut durable = open();
    // The durable clocks the model expects, live and reopened alike: the
    // latest journaled mutation and the latest sweep, all the log
    // remembers. `reached` is the clock every call has brought the stores
    // to.
    let (mut journaled, mut swept) = (SimTime::ZERO, SimTime::ZERO);
    let mut reached = SimTime::ZERO;
    let (mut sealed, mut compacted) = (false, false);
    // Reads and advances are not journaled, so a reopened log forgets the
    // clock they reached; the reopened unit is brought back to it, as a
    // restarted server that kept its own clock would.
    let mut reopen = |durable: DurableUnit, expected: &StorageUnit, clocks, reached| {
        let disk = durable.disk_info();
        sealed |= disk.segments > 1 || disk.compactions > 0;
        compacted |= disk.compactions > 0;
        let closed = durable.close().expect("close the log");
        assert_eq!(fingerprint(&closed), fingerprint(expected), "closed unit");
        let mut reopened = open();
        assert_eq!(
            fingerprint(reopened.unit()),
            fingerprint(expected),
            "reopened"
        );
        assert_eq!((reopened.clock(), reopened.last_sweep()), clocks, "clocks");
        reopened.advance(reached);
        reopened
    };
    let state = |unit: &StorageUnit| (*unit.stats(), unit.used(), unit.len());
    let model_state = |model: &ModelUnit| (*model.stats(), model.used(), model.len());
    let mut tolerance = 0.0;
    for (step, (now, op)) in case.script.iter().enumerate() {
        if step == case.cut {
            durable = reopen(durable, &indexed, (journaled, swept), reached);
            tolerance = REOPENED_TOLERANCE;
        }
        let (expected, journals) = apply(&mut indexed, *now, op, StorageUnit::advance);
        let modelled = apply(&mut model, *now, op, ModelUnit::advance).0;
        check(step, "model", &modelled, &expected, ORACLE_TOLERANCE);
        let answered = apply_durable(&mut durable, *now, op);
        check(step, "durable unit", &answered, &expected, tolerance);
        if journals {
            journaled = journaled.max(*now);
        }
        if matches!(op, Op::Call(Request::Sweep)) {
            swept = swept.max(*now);
        }
        reached = reached.max(*now);
        for (kind, seen) in REJECTIONS.iter().zip(&mut reach.rejections) {
            *seen |= expected.0.contains(kind);
        }
        assert_eq!(model_state(&model), state(&indexed), "model at step {step}");
        assert_eq!(
            state(durable.unit()),
            state(&indexed),
            "durable at step {step}"
        );
        let clocks = (durable.clock(), durable.last_sweep());
        assert_eq!(clocks, (journaled, swept), "durable clocks at step {step}");
    }
    drop(reopen(durable, &indexed, (journaled, swept), reached));
    assert_eq!(
        (model.capacity(), model.policy()),
        (indexed.capacity(), indexed.policy()),
        "final model"
    );
    assert_eq!(model.residents(), residents(&indexed), "final model");
    reach.sealed += u64::from(sealed);
    reach.compacted += u64::from(compacted);
    std::fs::remove_dir_all(&dir).expect("remove the log");
}

/// `generate`'s case under `policy`.
fn under(
    policy: EvictionPolicy,
    curve: fn(&mut StdRng) -> ImportanceCurve,
) -> impl Fn(&mut StdRng) -> Case {
    move |rng| Case {
        policy,
        ..generate(rng, 0, curve)
    }
}

#[test]
fn lockstep_preemptive() {
    lockstep(
        "lockstep_preemptive",
        under(EvictionPolicy::Preemptive, curve),
    );
}

#[test]
fn lockstep_fifo() {
    lockstep("lockstep_fifo", under(EvictionPolicy::Fifo, curve));
}

/// The preemptive lockstep leg over `palette_curve`'s annotations.
#[test]
fn lockstep_palette() {
    lockstep(
        "lockstep_palette",
        under(EvictionPolicy::Preemptive, palette_curve),
    );
}

/// The lockstep leg with calls behind the clock, under both policies.
#[test]
fn lockstep_behind_the_clock() {
    lockstep("lockstep_behind_the_clock", |rng| {
        let case = generate(rng, 0, curve);
        backdated(rng, case)
    });
}

/// A shard's recorded log must replay to `unit`, and `unit` must hold only
/// ids routed to the shard. Returns the replayed clock.
fn replays_to(
    unit: &StorageUnit,
    log: &[(SimTime, Request)],
    policy: EvictionPolicy,
    router: ShardRouter,
    shard: u32,
) -> SimTime {
    let replayed = replay(CAPACITY, policy, SimDuration::DAY, log);
    assert_eq!(
        fingerprint(replayed.unit()),
        fingerprint(unit),
        "shard {shard}: its log replays to another state"
    );
    assert!(
        unit.iter().all(|object| router.route(object.id()) == shard),
        "shard {shard} holds an id routed elsewhere"
    );
    replayed.now()
}

/// A fleet of `shards` that records its logs, with no observer.
fn fleet(shards: u32, policy: EvictionPolicy) -> TempimpdBuilder {
    Tempimpd::builder()
        .shards(shards)
        .shard_capacity(CAPACITY)
        .policy(policy)
        .record_log(true)
        .observer(Obs::none())
}

/// Sends the protocol steps of `case` through one blocking client to a
/// fleet of `shards` — a durable one shut down and respawned at the cut —
/// and through the model beside it.
fn serve(case: &Case, shards: u32, durable: bool) {
    let dir = scratch("served");
    let builder = || match durable {
        true => fleet(shards, case.policy)
            .durable(&dir)
            .durable_config(segments()),
        false => fleet(shards, case.policy),
    };
    let router = ShardRouter::new(shards);
    let mut model: Vec<ShardEngine> = (0..shards)
        .map(|_| ShardEngine::new(CAPACITY, case.policy, SimDuration::DAY))
        .collect();
    let mut logs = vec![Vec::new(); shards as usize];
    // Shuts the fleet down, checks each shard's unit against the model's
    // and keeps its recorded log.
    let mut stop = |service: Tempimpd, model: &[ShardEngine]| {
        for report in service.shutdown().expect_clean() {
            let shard = report.shard as usize;
            let unit = fingerprint(model[shard].unit());
            assert_eq!(fingerprint(&report.unit), unit, "shard {shard}");
            logs[shard].extend(report.log);
        }
    };
    let (mut service, mut tolerance) = (builder().spawn(), 0.0);
    let mut client = service.client();
    for (step, (at, op)) in case.script.iter().enumerate() {
        if durable && step == case.cut {
            drop(client);
            stop(service, &model);
            (service, tolerance) = (builder().spawn(), REOPENED_TOLERANCE);
            client = service.client();
        }
        let Op::Call(request) = op else { continue };
        let expected = match request.key() {
            Some(id) => model[router.route(id) as usize].call(*at, request.clone()),
            None => {
                let legs: Vec<Response> = model
                    .iter_mut()
                    .map(|shard| shard.call(*at, request.clone()))
                    .collect();
                aggregate(VerbKind::of(request), legs)
            }
        };
        let served = answer(client.call(*at, request.clone()));
        check(step, "service", &served, &answer(expected), tolerance);
    }
    drop(client);
    stop(service, &model);
    for (shard, (engine, log)) in (0..shards).zip(model.iter().zip(&logs)) {
        replays_to(engine.unit(), log, case.policy, router, shard);
    }
    if durable {
        std::fs::remove_dir_all(&dir).expect("remove the logs");
    }
}

#[test]
fn served() {
    run_cases_n("served", cases(), |rng| {
        let case = generate(rng, 0, curve);
        serve(&case, 1, false);
        serve(&case, case.shards, false);
        serve(&case, case.shards, true);
        Ok(())
    });
}

#[test]
fn concurrent() {
    run_cases_n("concurrent", cases(), |rng| {
        let scripts: Vec<Case> = (0..CLIENTS)
            .map(|c| generate(rng, c << 32, curve))
            .collect();
        let (policy, shards) = (scripts[0].policy, scripts[0].shards);
        let service = fleet(shards, policy).spawn();
        let prototype = service.client();
        // Each client submits its whole script before it collects a reply.
        let answers: Vec<Response> = std::thread::scope(|scope| {
            let clients: Vec<_> = scripts
                .iter()
                .map(|case| {
                    let client = prototype.clone();
                    scope.spawn(move || {
                        let submit = |(at, request): (SimTime, &Request)| {
                            client.submit(at, request.clone()).expect("live service")
                        };
                        let pending: Vec<Pending> = requests(case).map(submit).collect();
                        pending.into_iter().map(Pending::wait).collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client"))
                .collect()
        });
        drop(prototype);
        let reports = service.shutdown().expect_clean();

        // Shard requests = keyed requests + one leg per shard per fan-out.
        let (mut keyed, mut fanned) = (0, 0);
        for (_, request) in scripts.iter().flat_map(requests) {
            match request.key() {
                Some(_) => keyed += 1,
                None => fanned += 1,
            }
        }
        let legs: u64 = reports.iter().map(|report| report.requests).sum();
        assert_eq!(legs, keyed + fanned * u64::from(shards));
        // Attempted = accepted + rejected; used ≤ capacity; every shard replays.
        let puts = |ok: bool| {
            let answered = |a: &&Response| matches!(a, Response::Put(r) if r.is_ok() == ok);
            answers.iter().filter(answered).count() as u64
        };
        let router = ShardRouter::new(shards);
        let mut total = UnitStats::default();
        for report in &reports {
            total += report.unit.stats();
            assert!(report.unit.used() <= report.unit.capacity());
            let now = replays_to(&report.unit, &report.log, policy, router, report.shard);
            assert_eq!(now, report.final_now, "shard {}: clock", report.shard);
        }
        assert_eq!(total.stores_attempted, puts(true) + puts(false));
        assert_eq!(total.stores_accepted, puts(true));
        Ok(())
    });
}

/// §5.1 through the journal: the single-class experiment run on a
/// `DurableUnit` evicts, refuses, samples the density and counts exactly
/// as the in-memory run the figures draw. `NoImportance` is the
/// refusal-heavy regime, where every refusal is a journaled record too.
#[test]
fn single_class_runs_alike_through_the_journal() {
    let series = |result: &SingleClassResult| -> Vec<(SimTime, u64)> {
        let points = result.density.points();
        points.iter().map(|&(at, d)| (at, d.to_bits())).collect()
    };
    for policy in [PolicyChoice::TemporalImportance, PolicyChoice::NoImportance] {
        let config = SingleClassConfig::paper(experiments::DEFAULT_SEED, 80, policy);
        let memory = single_class::run(config);
        let dir = scratch("single-class");
        let mut durable = DurableUnit::open(
            &dir,
            config.capacity,
            policy.eviction_policy(),
            DurableConfig::default(),
        )
        .expect("open the log");
        let journaled = single_class::run_on(&mut durable, config, None);
        assert!(
            !memory.evictions.is_empty() && !memory.rejections.is_empty(),
            "{policy}: the run must preempt and refuse"
        );
        assert_eq!(journaled.evictions, memory.evictions, "{policy}: evictions");
        assert_eq!(
            journaled.rejections, memory.rejections,
            "{policy}: refusals"
        );
        assert_eq!(series(&journaled), series(&memory), "{policy}: density");
        assert_eq!(journaled.stats, memory.stats, "{policy}: stats");
        drop(durable);
        std::fs::remove_dir_all(&dir).expect("remove the log");
    }
}
