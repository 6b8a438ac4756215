//! The traced runs: the same stream driven through successive prefixes of
//! the stack, so that each layer's cost is the difference between one
//! prefix and the one before it and the rows of a chain sum to its last
//! prefix's ns/op.
//!
//! Every traced run measures the whole budget — the memory chain, the
//! durable chain and the re-driven simulation — whatever workload it was
//! asked for, because the result line has to carry every per-layer metric
//! in every run; but only the workload's own chain at full size, the
//! others at the `--check` size (see [`Chain`]), and those rows and checks
//! are printed with that size beside them (`Report::measuring_at`). The
//! workload also decides whose tracing overhead is reported.
//!
//! Every prefix is warmed up on its own store — fresh, except where the
//! durable chain recovers the log the prefix before it left — then
//! measured on that live store in [`PLAIN_WINDOWS`] plain windows (their
//! median is the prefix's ns/op) and one window, in [`TRACED_PARTS`]
//! parts, with a span around every call into the layer (per-verb and self
//! times; the ratio of the two kinds of window is the tracing overhead).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use sim_core::{Obs, SimDuration};
use tempimp_durable::{DiskInfo, DurableUnit};
use tempimpd::{ShardEngine, ShardReport};
use temporal_importance::protocol::{Request, StoreApi, VerbKind};
use temporal_importance::EvictionPolicy;

use crate::drive::{
    direct, direct_traced, pipelined, pipelined_traced, Layer, Pipe, Until, CORE_UNIT,
    DURABLE_UNIT, SERVE_ENGINE,
};
use crate::engine::{build_unit, check_unit, warm_up};
use crate::host::{alloc_counters, io_counters, AllocCounters};
use crate::report::Report;
use crate::serve::{self, durable_config, residents_per_shard, spawn_service};
use crate::spans::{NameTotals, Spans};
use crate::stats::{median, quantile};
use crate::stream::{Scale, Stream, Tally};
use crate::{health_guard, Config};

const PLAIN_WINDOWS: usize = 3;
/// The span-recording window is run in this many parts and the median
/// part reported, so that one host stall does not pass for span overhead.
const TRACED_PARTS: u64 = 3;
/// Room for every span of the longest chain (4 per pipelined request).
const SPAN_CAPACITY: usize = 1_500_000;
/// Requests per window, the same on every prefix so that prefixes of one
/// chain have answered the same requests when their replies are compared.
const WINDOW_OPS: u64 = 60_000;
/// Blocking round trips timed for `rtt_*` and `fanout_ns`.
const RTT_CALLS: u64 = 2_000;
const FANOUT_CALLS: u64 = 500;
/// Length of the open-loop phase of the traced `serve_mem_open` run.
const OPEN_LOOP_MS: u64 = 3_000;
/// The serving layer's default sweep cadence and policy, which the
/// direct `ShardEngine` prefixes must share with the service prefixes.
const SWEEP_EVERY: SimDuration = SimDuration::DAY;
const POLICY: EvictionPolicy = EvictionPolicy::Preemptive;

/// Whole-store requests a service prefix adds itself: the health guard's
/// `health` probe and the one that reads the batch counters.
const PREFIX_PROBES: u64 = 2;

type Totals = BTreeMap<&'static str, NameTotals>;

/// One measured prefix.
struct Prefix {
    /// Median plain window.
    ns_per_op: f64,
    /// The span-recording window.
    traced_ns_per_op: f64,
    /// Span totals of the span-recording window.
    totals: Totals,
    /// Replies of everything after warm-up.
    measured: Tally,
    /// Replies of the whole run.
    tally: Tally,
    /// Replies of the last third of the warm-up, which the health guard
    /// judged.
    steady: Tally,
    /// The generator, after the prefix's last request.
    stream: Stream,
}

impl Prefix {
    fn overhead_share(&self) -> f64 {
        self.traced_ns_per_op / self.ns_per_op - 1.0
    }
}

/// Allocator calls and bytes per request over a stretch of a run.
struct AllocRate {
    calls: f64,
    bytes: f64,
}

impl AllocRate {
    fn between(before: &AllocCounters, after: &AllocCounters, ops: u64) -> AllocRate {
        AllocRate {
            calls: (after.calls - before.calls) as f64 / ops as f64,
            bytes: (after.bytes - before.bytes) as f64 / ops as f64,
        }
    }
}

fn ns_per_op(took: Duration, ops: u64) -> f64 {
    took.as_nanos() as f64 / ops as f64
}

fn mean_ns(totals: &Totals, name: &str) -> f64 {
    totals.get(name).map_or(0.0, NameTotals::mean_self_ns)
}

/// The stream alone, into a sink the compiler cannot see through.
fn loadgen(seed: u64) -> f64 {
    let mut stream = Stream::new(seed, 0, 1, Scale::FULL);
    let mut windows: Vec<f64> = (0..PLAIN_WINDOWS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..WINDOW_OPS {
                std::hint::black_box(stream.next());
            }
            ns_per_op(started.elapsed(), WINDOW_OPS)
        })
        .collect();
    median(&mut windows)
}

/// Warms `store` up and measures it directly.
fn direct_prefix<S: StoreApi>(
    config: &Config,
    store: &mut S,
    residents: impl Fn(&S) -> u64,
    layer: &Layer,
    window_ops: u64,
    spans: &mut Spans,
) -> Result<Prefix, String> {
    let mut stream = Stream::new(config.seed, 0, 1, config.scale);
    let mut tally = Tally::default();
    let steady = warm_up(store, &mut stream, &mut tally, config.scale);
    health_guard(&steady, &[residents(store)], config.scale)?;
    let warm = tally;
    let mut windows: Vec<f64> = (0..PLAIN_WINDOWS)
        .map(|_| {
            let (ops, took) = direct(store, &mut stream, &mut tally, Until::Ops(window_ops), None);
            ns_per_op(took, ops)
        })
        .collect();
    let first_span = spans.len();
    let part_ops = window_ops / TRACED_PARTS;
    let mut traced: Vec<f64> = (0..TRACED_PARTS)
        .map(|_| {
            let took = direct_traced(store, &mut stream, &mut tally, part_ops, spans, layer);
            ns_per_op(took, part_ops)
        })
        .collect();
    Ok(Prefix {
        ns_per_op: median(&mut windows),
        traced_ns_per_op: median(&mut traced),
        totals: spans.totals_since(first_span),
        measured: tally.since(&warm),
        tally,
        steady,
        stream,
    })
}

/// What a service prefix measured beyond its [`Prefix`].
struct ServicePrefix {
    prefix: Prefix,
    /// Replies of what this service itself was sent: less than
    /// `prefix.tally` when it recovered a store that was already warm.
    served: Tally,
    allocs: AllocRate,
    batch_fill: f64,
    queue_full: u64,
    rtt_ns: Vec<u64>,
    fanout_ns: f64,
    open_loop: Option<serve::OpenLoop>,
    shards: Vec<ShardReport>,
}

/// Spawns a `shards`-shard service (recording its request logs), warms it
/// up through one client — unless `warm_log` says that the log under
/// `durable` is one the prefix before left warm, and where its stream
/// stopped — and measures it pipelined, then with blocking round trips,
/// then — for `serve_mem_open` — on the open-loop schedule.
fn service_prefix(
    config: &Config,
    shards: u32,
    durable: Option<&Path>,
    warm_log: Option<Prefix>,
    window_ops: u64,
    open_loop: bool,
    spans: &mut Spans,
) -> Result<ServicePrefix, String> {
    let service = spawn_service(shards, config.scale, durable, true);
    let mut client = service.client();
    let mut pipe = Pipe::default();
    // `recovered`: what the store had answered before this service had it.
    let (mut stream, mut tally, steady, recovered) = match warm_log {
        Some(before) => (before.stream, before.tally, before.steady, before.tally),
        None => {
            let mut stream = Stream::new(config.seed, 0, 1, config.scale);
            let mut tally = Tally::default();
            let steady = serve::warm_up(
                &client,
                &mut stream,
                &mut tally,
                &mut pipe,
                config.scale.warmup_ops(),
            );
            pipe.drain(&mut tally, None);
            (stream, tally, steady, Tally::default())
        }
    };
    health_guard(&steady, &residents_per_shard(&mut client)?, config.scale)?;
    let warm = tally;

    let allocs_before = alloc_counters();
    let mut windows: Vec<f64> = (0..PLAIN_WINDOWS)
        .map(|_| {
            let (_, took) = pipelined(
                &client,
                &mut stream,
                &mut tally,
                &mut pipe,
                Until::Ops(window_ops),
                None,
            );
            ns_per_op(took, window_ops)
        })
        .collect();
    pipe.drain(&mut tally, None);
    let allocs_after = alloc_counters();
    let plain_ops = PLAIN_WINDOWS as u64 * window_ops;

    let first_span = spans.len();
    let part_ops = window_ops / TRACED_PARTS;
    let mut traced: Vec<f64> = (0..TRACED_PARTS)
        .map(|_| {
            let took =
                pipelined_traced(&client, &mut stream, &mut tally, &mut pipe, part_ops, spans);
            ns_per_op(took, part_ops)
        })
        .collect();
    let totals = spans.totals_since(first_span);

    // Everything so far was pipelined: the worker's batch counters now
    // say how full the window kept its batches.
    let health = client
        .health(stream.now())
        .map_err(|error| format!("health probe failed: {error}"))?;
    let batch_fill = health.total_requests() as f64
        / health.shards.iter().map(|s| s.batches).sum::<u64>().max(1) as f64;
    let queue_full = health.shards.iter().map(|s| s.rejected).sum();

    let mut rtt_ns = Vec::new();
    for _ in 0..config.scale.shrink(RTT_CALLS) {
        let (at, request) = stream.next();
        let verb = VerbKind::of(&request);
        let started = Instant::now();
        let response = client.call(at, request);
        rtt_ns.push(started.elapsed().as_nanos() as u64);
        tally.settle(verb, &response);
    }
    rtt_ns.sort_unstable();
    let fanout_calls = config.scale.shrink(FANOUT_CALLS);
    let started = Instant::now();
    for _ in 0..fanout_calls {
        let response = client.call(stream.now(), Request::Stats);
        tally.settle(VerbKind::Stats, &response);
    }
    let fanout_ns = ns_per_op(started.elapsed(), fanout_calls);

    let open_loop = open_loop.then(|| {
        serve::open_loop(
            &client,
            &mut stream,
            Duration::from_millis(config.scale.shrink(OPEN_LOOP_MS)),
            config.deadline,
        )
    });
    if let Some(run) = &open_loop {
        tally.absorb(&run.tally);
    }

    drop(client);
    let shutdown = service.shutdown();
    if !shutdown.is_clean() {
        return Err(format!("shard workers panicked: {:?}", shutdown.failures));
    }
    Ok(ServicePrefix {
        served: tally.since(&recovered),
        prefix: Prefix {
            ns_per_op: median(&mut windows),
            traced_ns_per_op: median(&mut traced),
            totals,
            measured: tally.since(&warm),
            tally,
            steady,
            stream,
        },
        allocs: AllocRate::between(&allocs_before, &allocs_after, plain_ops),
        batch_fill,
        queue_full,
        rtt_ns,
        fanout_ns,
        open_loop,
        shards: shutdown.reports,
    })
}

/// `tempimpd::replay` of each shard's recorded log must land on the unit
/// that shard reported.
fn check_replay(report: &mut Report, what: &str, config: &Config, shards: &[ShardReport]) {
    let capacity = config.scale.shard_capacity(shards.len() as u32);
    let equal = shards.iter().all(|shard| {
        let replayed = tempimpd::replay(capacity, POLICY, SWEEP_EVERY, &shard.log);
        serde_json::to_string(replayed.unit()).ok() == serde_json::to_string(&shard.unit).ok()
    });
    report.check(
        format!("{what}: replaying each shard's recorded log reproduces the unit it reported"),
        equal,
    );
}

/// Conservation on a service prefix's shards, and its operation counts.
fn check_service(report: &mut Report, what: &str, service: &ServicePrefix) {
    serve::check_conservation(
        report,
        what,
        &service.served,
        &service.prefix.tally,
        PREFIX_PROBES,
        &service.shards,
    );
    report.absorb_counts(service.served.ops, service.served.failed);
}

/// The `StorageUnit` prefix, which both store chains start from.
struct UnitPrefix {
    prefix: Prefix,
    scale: Scale,
    residents: usize,
    evictions_per_put: f64,
    heap_bytes_per_resident: f64,
}

/// Measures a `StorageUnit` at `config`'s size, and checks that a second
/// unit driven with no spans at all answers identically.
fn unit_prefix(
    report: &mut Report,
    config: &Config,
    spans: &mut Spans,
) -> Result<UnitPrefix, String> {
    report.measuring_at(config.scale);
    let window_ops = config.scale.shrink(WINDOW_OPS);
    let mut unit = build_unit(config.scale);
    let prefix = direct_prefix(
        config,
        &mut unit,
        |unit| unit.len() as u64,
        &CORE_UNIT,
        window_ops,
        spans,
    )?;
    // A replica that never sees a span: it must answer identically, and
    // the heap it grows is the unit's alone (the first unit's run also
    // grew the span recorder).
    let heap_before = alloc_counters().live_bytes;
    let mut replica = build_unit(config.scale);
    let mut stream = Stream::new(config.seed, 0, 1, config.scale);
    let mut replica_tally = Tally::default();
    direct(
        &mut replica,
        &mut stream,
        &mut replica_tally,
        Until::Ops(prefix.tally.ops),
        None,
    );
    let replica_heap = alloc_counters().live_bytes - heap_before;
    report.check(
        "the StorageUnit prefix answers identically with and without spans",
        replica_tally == prefix.tally,
    );
    drop(replica);

    let stats = unit.stats();
    check_unit(report, &unit, &prefix.tally);
    report.absorb_counts(prefix.tally.ops + replica_tally.ops, prefix.tally.failed);
    Ok(UnitPrefix {
        scale: config.scale,
        residents: unit.len(),
        evictions_per_put: (stats.evictions_preempted + stats.evictions_expired) as f64
            / stats.stores_attempted.max(1) as f64,
        heap_bytes_per_resident: replica_heap as f64 / unit.len().max(1) as f64,
        prefix,
    })
}

/// `core.unit.*`, from one `StorageUnit` prefix.
fn report_unit(report: &mut Report, unit: &UnitPrefix, loadgen_ns: f64) {
    report.measuring_at(unit.scale);
    report.metric("core.unit.ns_per_op", unit.prefix.ns_per_op - loadgen_ns);
    for (metric, span) in [
        ("core.unit.put_ns", "core.unit.put"),
        ("core.unit.get_ns", "core.unit.get"),
        ("core.unit.advise_ns", "core.unit.advise"),
        ("core.unit.density_ns", "core.unit.density"),
        ("core.unit.stats_ns", "core.unit.stats"),
    ] {
        report.metric(metric, mean_ns(&unit.prefix.totals, span));
    }
    report.metric("core.unit.residents", unit.residents as f64);
    report.metric(
        "core.unit.put_accept_share",
        unit.prefix.measured.put_accept_share(),
    );
    report.metric(
        "core.unit.get_hit_share",
        unit.prefix.measured.get_hit_share(),
    );
    report.metric("core.unit.evictions_per_put", unit.evictions_per_put);
    report.metric(
        "core.unit.heap_bytes_per_resident",
        unit.heap_bytes_per_resident,
    );
}

fn report_dispatch(report: &mut Report, one: &ServicePrefix, engine_allocs: &AllocRate) {
    report.metric(
        "serve.dispatch.submit_ns",
        mean_ns(&one.prefix.totals, "serve.submit"),
    );
    report.metric(
        "serve.dispatch.wait_ns",
        mean_ns(&one.prefix.totals, "serve.wait"),
    );
    report.metric(
        "serve.dispatch.rtt_p50_us",
        quantile(&one.rtt_ns, 0.5) as f64 / 1e3,
    );
    report.metric(
        "serve.dispatch.rtt_p99_us",
        quantile(&one.rtt_ns, 0.99) as f64 / 1e3,
    );
    report.metric(
        "serve.dispatch.allocs_per_op",
        one.allocs.calls - engine_allocs.calls,
    );
    report.metric(
        "serve.dispatch.alloc_bytes_per_op",
        one.allocs.bytes - engine_allocs.bytes,
    );
    report.metric("serve.dispatch.batch_fill", one.batch_fill);
    report.metric("serve.dispatch.queue_full", one.queue_full as f64);
}

/// The second shard's row: `<layer>.shards.ns_per_op` and `.scaling`.
fn report_scaling(
    report: &mut Report,
    ns_per_op: &'static str,
    scaling: &'static str,
    one: &ServicePrefix,
    two: &ServicePrefix,
) {
    report.metric(ns_per_op, two.prefix.ns_per_op - one.prefix.ns_per_op);
    let shards = two.shards.len();
    if crate::host::nproc() >= shards {
        report.metric(scaling, one.prefix.ns_per_op / two.prefix.ns_per_op);
    } else {
        report.not_applicable(
            scaling,
            format!("{} cores for {shards} shards", crate::host::nproc()),
        );
    }
}

/// `StorageUnit` → `ShardEngine` → 1-shard `Tempimpd` → 2-shard `Tempimpd`,
/// the last one also on the open-loop schedule. Returns the tracing
/// overhead on the last prefix.
fn memory_chain(
    report: &mut Report,
    config: &Config,
    unit: &Prefix,
    spans: &mut Spans,
) -> Result<f64, String> {
    report.measuring_at(config.scale);
    let window_ops = config.scale.shrink(WINDOW_OPS);
    let allocs_before = alloc_counters();
    let mut engine = ShardEngine::with_observer(
        config.scale.shard_capacity(1),
        POLICY,
        SWEEP_EVERY,
        Obs::global(),
    );
    let engine_prefix = direct_prefix(
        config,
        &mut engine,
        |engine| engine.unit().len() as u64,
        &SERVE_ENGINE,
        window_ops,
        spans,
    )?;
    let engine_allocs =
        AllocRate::between(&allocs_before, &alloc_counters(), engine_prefix.tally.ops);
    report.metric(
        "serve.engine.ns_per_op",
        engine_prefix.ns_per_op - unit.ns_per_op,
    );
    report.metric(
        "serve.engine.expired_per_op",
        engine.unit().stats().evictions_expired as f64 / engine_prefix.tally.ops as f64,
    );
    check_unit(report, engine.unit(), &engine_prefix.tally);
    report.absorb_counts(engine_prefix.tally.ops, engine_prefix.tally.failed);
    drop(engine);

    let one = service_prefix(config, 1, None, None, window_ops, false, spans)?;
    report.metric(
        "serve.dispatch.ns_per_op",
        one.prefix.ns_per_op - engine_prefix.ns_per_op,
    );
    report_dispatch(report, &one, &engine_allocs);
    check_service(report, "1 memory shard", &one);
    check_replay(report, "1 memory shard", config, &one.shards);

    let two = service_prefix(config, 2, None, None, window_ops, true, spans)?;
    report_scaling(
        report,
        "serve.shards.ns_per_op",
        "serve.shards.scaling",
        &one,
        &two,
    );
    let requests: Vec<f64> = two.shards.iter().map(|s| s.requests as f64).collect();
    let mean = requests.iter().sum::<f64>() / requests.len() as f64;
    report.metric(
        "serve.shards.imbalance",
        requests.iter().copied().fold(0.0, f64::max) / mean,
    );
    report.metric("serve.shards.fanout_ns", two.fanout_ns);
    check_service(report, "2 memory shards", &two);
    check_replay(report, "2 memory shards", config, &two.shards);
    if let Some(run) = &two.open_loop {
        report.metric("loadgen.late_share", run.pacing.late_share());
        report.metric("loadgen.late_p99_us", run.pacing.late_p99_us());
        report.metric("loadgen.backlog_end", run.backlog_end as f64);
        report.metric("serve.open.p50_us", run.latency.overall(0.5) as f64 / 1e3);
        report.metric("serve.open.p99_us", run.latency.overall(0.99) as f64 / 1e3);
        let never_sent = run.scheduled - run.pacing.sent;
        report.absorb_counts(never_sent, never_sent);
    }
    report.note(format!(
        "memory chain at {}, ns/op: unit {:.0}, engine {:.0}, 1 shard {:.0}, 2 shards {:.0} \
         (1 client; its rows are their differences and sum to the last)",
        config.scale.label(),
        unit.ns_per_op,
        engine_prefix.ns_per_op,
        one.prefix.ns_per_op,
        two.prefix.ns_per_op
    ));
    Ok(two.prefix.overhead_share())
}

/// A `DurableUnit` prefix: [`direct_prefix`] plus what only the journal
/// can say.
struct DurablePrefix {
    prefix: Prefix,
    disk: DiskInfo,
    appended_per_op: f64,
    rewritten_per_op: f64,
    write_syscalls_per_op: f64,
    wchar_per_op: f64,
}

fn durable_unit_prefix(
    config: &Config,
    dir: &Path,
    window_ops: u64,
    spans: &mut Spans,
) -> Result<(DurablePrefix, DurableUnit), String> {
    let mut unit = DurableUnit::open(
        dir,
        config.scale.shard_capacity(1),
        POLICY,
        durable_config(),
    )
    .map_err(|error| format!("opening {} failed: {error}", dir.display()))?;
    // Warm-up and windows happen inside `direct_prefix`; the journal's
    // per-op figures are taken over the whole of it.
    let io_before = io_counters();
    let disk_before = unit.disk_info();
    let prefix = direct_prefix(
        config,
        &mut unit,
        |unit| unit.unit().len() as u64,
        &DURABLE_UNIT,
        window_ops,
        spans,
    )?;
    let io_after = io_counters();
    let disk = unit.disk_info();
    let appended = disk.appended_bytes - disk_before.appended_bytes;
    let rewritten = disk.rewrite_bytes - disk_before.rewrite_bytes;
    let ops = prefix.tally.ops as f64;
    Ok((
        DurablePrefix {
            prefix,
            disk,
            appended_per_op: appended as f64 / ops,
            rewritten_per_op: rewritten as f64 / ops,
            write_syscalls_per_op: (io_after.write_syscalls - io_before.write_syscalls) as f64
                / ops,
            wchar_per_op: (io_after.wchar - io_before.wchar) as f64 / ops,
        },
        unit,
    ))
}

/// `StorageUnit` → `DurableUnit` → `ShardEngine::durable` → 1 durable
/// shard → 2 durable shards. Two prefixes do not pay for a journaled
/// warm-up of their own but recover the log the one before left warm:
/// `DurableUnit` with compaction off (the compacting one's log, which is
/// reopened for `durable.open.*` anyway) and the 1-shard service (the
/// `ShardEngine`'s, which is what its one worker wraps). Returns the
/// tracing overhead on the last prefix.
fn durable_chain(
    report: &mut Report,
    config: &Config,
    unit: &Prefix,
    spans: &mut Spans,
) -> Result<f64, String> {
    report.measuring_at(config.scale);
    let window_ops = config.scale.shrink(WINDOW_OPS);
    let capacity = config.scale.shard_capacity(1);

    let unit_dir = config.scratch.join("unit");
    let (on, mut durable) = durable_unit_prefix(config, &unit_dir, window_ops, spans)?;
    report.check(
        "DurableUnit answers the stream exactly as StorageUnit does",
        on.prefix.tally == unit.tally,
    );
    report.metric(
        "durable.unit.ns_per_op",
        on.prefix.ns_per_op - unit.ns_per_op,
    );
    report.metric(
        "durable.unit.put_ns",
        mean_ns(&on.prefix.totals, "durable.unit.put"),
    );
    report.metric(
        "durable.unit.get_ns",
        mean_ns(&on.prefix.totals, "durable.unit.get"),
    );
    report.metric(
        "durable.compact.max_stall_us",
        DURABLE_UNIT
            .iter()
            .filter_map(|name| on.prefix.totals.get(name))
            .map(|totals| totals.max_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e3,
    );
    report.metric("durable.compact.count", on.disk.compactions as f64);
    report.metric("durable.compact.rewrite_bytes_per_op", on.rewritten_per_op);
    report.metric("durable.log.bytes_per_op", on.appended_per_op);
    report.metric("durable.log.segments", on.disk.segments as f64);
    report.metric(
        "durable.log.dead_share",
        on.disk.dead_bytes() as f64 / on.disk.file_bytes.max(1) as f64,
    );
    report.metric("durable.io.write_syscalls_per_op", on.write_syscalls_per_op);
    report.metric("durable.io.wchar_per_op", on.wchar_per_op);

    let residents = durable.unit().len();
    let started = Instant::now();
    durable
        .sync()
        .map_err(|error| format!("sync failed: {error}"))?;
    report.metric("durable.sync_ms", started.elapsed().as_secs_f64() * 1e3);
    let closed = durable
        .close()
        .map_err(|error| format!("close failed: {error}"))?;
    let started = Instant::now();
    let mut reopened = DurableUnit::open(
        &unit_dir,
        capacity,
        POLICY,
        durable_config().auto_compact(false),
    )
    .map_err(|error| format!("reopening {} failed: {error}", unit_dir.display()))?;
    report.metric(
        "durable.open.ns_per_resident",
        started.elapsed().as_nanos() as f64 / residents.max(1) as f64,
    );
    report.check(
        "the reopened DurableUnit serialises equal to the one that was closed",
        serde_json::to_string(reopened.unit()).ok() == serde_json::to_string(&closed).ok(),
    );
    drop(closed);
    // The same store, the stream going on, compaction now off.
    let mut stream = on.prefix.stream;
    let mut tally = on.prefix.tally;
    let mut not_compacting: Vec<f64> = (0..PLAIN_WINDOWS)
        .map(|_| {
            let (ops, took) = direct(
                &mut reopened,
                &mut stream,
                &mut tally,
                Until::Ops(window_ops),
                None,
            );
            ns_per_op(took, ops)
        })
        .collect();
    let not_compacting = median(&mut not_compacting);
    report.metric(
        "durable.compact.ns_per_op",
        on.prefix.ns_per_op - not_compacting,
    );
    report.absorb_counts(tally.ops, tally.failed);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&unit_dir);

    let one_dir = config.scratch.join("one-shard");
    let mut engine = ShardEngine::durable(
        one_dir.join("shard-0"),
        capacity,
        POLICY,
        SWEEP_EVERY,
        durable_config(),
        Obs::global(),
    )
    .map_err(|error| format!("opening the durable engine failed: {error}"))?;
    let engine_prefix = direct_prefix(
        config,
        &mut engine,
        |engine| engine.unit().len() as u64,
        &SERVE_ENGINE,
        window_ops,
        spans,
    )?;
    let engine_ns = engine_prefix.ns_per_op;
    report.metric("durable.engine.ns_per_op", engine_ns - on.prefix.ns_per_op);
    report.absorb_counts(engine_prefix.tally.ops, engine_prefix.tally.failed);
    drop(engine);

    let one = service_prefix(
        config,
        1,
        Some(&one_dir),
        Some(engine_prefix),
        window_ops,
        false,
        spans,
    )?;
    report.metric(
        "durable.dispatch.ns_per_op",
        one.prefix.ns_per_op - engine_ns,
    );
    check_service(report, "1 durable shard", &one);
    let _ = std::fs::remove_dir_all(&one_dir);

    let two_dir = config.scratch.join("two-shards");
    let two = service_prefix(config, 2, Some(&two_dir), None, window_ops, false, spans)?;
    report_scaling(
        report,
        "durable.shards.ns_per_op",
        "durable.shards.scaling",
        &one,
        &two,
    );
    check_service(report, "2 durable shards", &two);
    check_replay(report, "2 durable shards", config, &two.shards);
    let reopened = serve::reopen(&two_dir, &two.shards, config.scale)?;
    report.check(
        "each reopened shard serialises equal to its shutdown report",
        reopened.equal,
    );
    let file_bytes: u64 = two
        .shards
        .iter()
        .filter_map(|shard| shard.disk.as_ref())
        .map(|disk| disk.file_bytes)
        .sum();
    let residents: usize = two.shards.iter().map(|shard| shard.unit.len()).sum();
    report.metric(
        "durable.disk_bytes_per_resident",
        file_bytes as f64 / residents.max(1) as f64,
    );
    report.metric("durable.recovery_s", reopened.recovery.as_secs_f64());
    report.note(format!(
        "durable chain at {}, ns/op: unit {:.0}, durable unit {:.0} ({not_compacting:.0} not \
         compacting), durable engine {engine_ns:.0}, 1 durable shard {:.0}, 2 durable shards \
         {:.0} (1 client; its rows are their differences and sum to the last)",
        config.scale.label(),
        unit.ns_per_op,
        on.prefix.ns_per_op,
        one.prefix.ns_per_op,
        two.prefix.ns_per_op
    ));
    Ok(two.prefix.overhead_share())
}

/// The chains of the budget. A traced run measures its workload's own
/// chain at full size and the others at `--check` size: every metric is
/// then a measurement in every run, and no run pays for three full chains.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Chain {
    Memory,
    Durable,
    Simulation,
}

pub fn run(name: &str, config: &Config) -> Result<Report, String> {
    let own = match name {
        "engine_direct" | "serve_mem_closed" | "serve_mem_open" => Chain::Memory,
        "serve_durable_closed" => Chain::Durable,
        "sim_university" => Chain::Simulation,
        _ => unreachable!("workload names are validated when parsed"),
    };
    let small = Config {
        scale: Scale::CHECK,
        ..config.clone()
    };
    let sized = |chain: Chain| if chain == own { config } else { &small };

    let mut report = Report::default();
    let mut spans = Spans::with_capacity(SPAN_CAPACITY);
    let loadgen_ns = loadgen(config.seed);
    report.metric("loadgen.ns_per_op", loadgen_ns);
    // Both store chains start from a `StorageUnit`, each at its size.
    // `core.unit.*` is reported once: from this workload's own size where
    // its chain has a store, from the small one on `sim_university`.
    let small_unit = unit_prefix(&mut report, &small, &mut spans)?;
    let own_unit = match own {
        Chain::Simulation => None,
        _ => Some(unit_prefix(&mut report, config, &mut spans)?),
    };
    let unit = |chain: Chain| match &own_unit {
        Some(unit) if chain == own => unit,
        _ => &small_unit,
    };
    report_unit(&mut report, unit(own), loadgen_ns);
    let memory = memory_chain(
        &mut report,
        sized(Chain::Memory),
        &unit(Chain::Memory).prefix,
        &mut spans,
    )?;
    let durable = durable_chain(
        &mut report,
        sized(Chain::Durable),
        &unit(Chain::Durable).prefix,
        &mut spans,
    )?;
    report.measuring_at(sized(Chain::Simulation).scale);
    let sim = crate::sim::traced(&mut report, sized(Chain::Simulation), &mut spans)?;

    report.measuring_at(Scale::FULL);
    let unit_overhead = unit(own).prefix.overhead_share();
    report.metric(
        "trace.overhead_share",
        match own {
            Chain::Memory if name == "engine_direct" => unit_overhead,
            Chain::Memory => memory,
            Chain::Durable => durable,
            Chain::Simulation => sim,
        },
    );
    report.note(format!(
        "rows and checks marked [at {}] are of chains that are not this workload's own: read \
         them as a sign that the layer still works, never beside a full-size row of that name",
        Scale::CHECK.label()
    ));
    report.note(format!(
        "tracing overhead: StorageUnit {unit_overhead:+.3}, 2 memory shards {memory:+.3}, \
         2 durable shards {durable:+.3}, simulation {sim:+.3} (only this workload's chain is \
         at full size, the others at {})",
        Scale::CHECK.label()
    ));
    report.metric("trace.spans", spans.len() as f64);
    let dump = config.scratch.with_file_name(format!("{name}.spans.jsonl"));
    match spans.dump(&dump) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            spans.len(),
            dump.display()
        )),
        Err(error) => report.check(format!("writing {}: {error}", dump.display()), false),
    }
    Ok(report)
}
