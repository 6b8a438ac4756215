//! Closed-loop load generator for `tempimpd`, the sharded serving layer.
//!
//! N client threads each drive a [`ServeClient`] as fast as the service
//! answers (closed loop with a bounded pipeline: each client keeps at
//! most [`WINDOW`] submissions in flight and must settle the oldest
//! reply before issuing another, so total outstanding work stays
//! bounded). The workload is a configurable mix of puts, skewed
//! gets, placement probes, and the occasional fan-out aggregate, over a
//! curve mix spanning the paper's annotation families (two-step, fixed
//! plateau, fixed lifetime, ephemeral).
//!
//! Two measurements come out:
//!
//! * **Throughput** — aggregate wall-clock ns per operation, reported in
//!   the same `"case"` line shape as `BENCH_engine.json` so `bench_gate`
//!   compares a fresh run against the committed `BENCH_serve.json`
//!   baseline unchanged. `residents` carries the shard count; the
//!   `reference_ns_per_op` column (`"reference": "single_shard"`) is the
//!   same workload forced through a single shard, so `scaling` documents
//!   shard scaling — it is a reference, not an optimized rival.
//! * **Latency** — per-verb **queue-wait vs service-time** p50/p99, from
//!   the request-scoped trace stamps every job carries (see
//!   `tempimpd`'s trace module): the worker derives both halves for
//!   *every* request — pipelined submissions included, not just the
//!   every-[`PROBE_EVERY`]th blocking probe — and records them through
//!   the observer seam into a shared [`MetricsRegistry`]. The same
//!   percentiles land in the report's `"verb_latencies"` rows, which
//!   `bench_gate --require-verb-latency` checks in CI. Under
//!   `--features obs-off` the stamps compile out and the columns print
//!   `n/a`; throughput still gates.
//!
//! `--snapshots FILE` additionally samples the `health` verb during the
//! sharded run and captures rendered serve-top frames (replayable with
//! `tempimp-obs serve-top --from FILE`); `--prom FILE` writes the final
//! registry state as Prometheus exposition text.
//!
//! ```text
//! cargo run --release -p bench-harness --bin bench_serve -- \
//!     --shards 8 --clients 32 --ops 2000000 --out BENCH_serve.json
//! ```
//!
//! [`ServeClient`]: tempimpd::ServeClient

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench_harness::gate::BenchCase;
use bench_harness::servetop::{render_frame, FRAME_SEPARATOR};
use obs::MetricsRegistry;
use rand::Rng;
use sim_core::{ByteSize, Obs, SimDuration, SimTime};
use tempimpd::Tempimpd;
use temporal_importance::protocol::{HealthSnapshot, Request, Response, StoreApi, VerbKind};
use temporal_importance::{Importance, ImportanceCurve, ObjectClass, ObjectId};

const OUTPUT: &str = "BENCH_serve.json";
const SEED: u64 = 0x5e24e;
/// Key-space stride separating client ID ranges; no two clients ever
/// touch the same object, so rejections are real capacity pressure, not
/// duplicate-ID noise.
const CLIENT_STRIDE: u64 = 1 << 40;
/// Simulated minutes per operation: fast enough that a default run
/// covers months of simulated traffic, so two-step curves wane, fixed
/// lifetimes lapse, and expiry sweeps reclaim — steady-state churn
/// instead of a full store rejecting everything.
const SIM_MINUTES_PER_OP: u64 = 4;
/// Pipelined submissions each client keeps in flight; on few cores the
/// window is what amortizes cross-thread wake-ups over many requests.
const WINDOW: usize = 256;
/// Every this-many ops, a client issues a *blocking* [`StoreApi::call`]
/// instead of a pipelined submit — a liveness probe that bounds how far
/// any client can run ahead of its replies. Latency is *not* measured
/// here: every request (pipelined or blocking) carries trace stamps, and
/// the workers derive queue-wait/service for all of them.
const PROBE_EVERY: u64 = 64;

/// Request mix in percent; the remainder up to 100 is admin traffic
/// (alternating `density` / `stats` fan-outs).
#[derive(Debug, Clone, Copy)]
struct Mix {
    put: u32,
    get: u32,
    advise: u32,
}

impl Mix {
    fn admin(&self) -> u32 {
        100 - self.put - self.get - self.advise
    }
}

/// Per-client outcome counters, summed across the fleet for the sanity
/// footer (a run where every put bounces is measuring error paths, not
/// serving).
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    puts_accepted: u64,
    puts_rejected: u64,
    gets_hit: u64,
    errors: u64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.puts_accepted += other.puts_accepted;
        self.puts_rejected += other.puts_rejected;
        self.gets_hit += other.gets_hit;
        self.errors += other.errors;
    }
}

fn main() {
    let mut output = OUTPUT.to_string();
    let mut shards: u32 = 8;
    let mut clients: Option<u32> = None;
    let mut ops: u64 = 2_000_000;
    let mut skew: f64 = 2.0;
    let mut mix = Mix {
        put: 55,
        get: 35,
        advise: 8,
    };
    let mut min_mops: f64 = 0.0;
    let mut direct = false;
    let mut no_obs = false;
    let mut snapshots: Option<String> = None;
    let mut prom: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => output = args.next().expect("--out needs a path"),
            "--snapshots" => snapshots = Some(args.next().expect("--snapshots needs a path")),
            "--prom" => prom = Some(args.next().expect("--prom needs a path")),
            "--shards" => {
                shards = parse(args.next(), "--shards");
                assert!(shards > 0, "--shards needs at least one shard");
            }
            "--clients" => clients = Some(parse(args.next(), "--clients")),
            "--ops" => ops = parse(args.next(), "--ops"),
            "--skew" => skew = parse(args.next(), "--skew"),
            "--mix" => {
                let spec: String = parse(args.next(), "--mix");
                let parts: Vec<u32> = spec
                    .split(',')
                    .map(|p| {
                        p.trim()
                            .parse()
                            .expect("--mix needs PUT,GET,ADVISE percents")
                    })
                    .collect();
                assert!(parts.len() == 3, "--mix needs exactly PUT,GET,ADVISE");
                mix = Mix {
                    put: parts[0],
                    get: parts[1],
                    advise: parts[2],
                };
            }
            "--min-mops" => min_mops = parse(args.next(), "--min-mops"),
            "--direct" => direct = true,
            "--no-obs" => no_obs = true,
            other => panic!(
                "unknown argument '{other}' (expected --out PATH / --shards N / \
                 --clients N / --ops N / --skew F / --mix P,G,A / --min-mops F / \
                 --direct / --no-obs / --snapshots PATH / --prom PATH)"
            ),
        }
    }
    assert!(
        mix.put + mix.get + mix.advise <= 100,
        "--mix percentages must sum to at most 100"
    );
    assert!(
        mix.put > 0,
        "the workload needs puts to have anything to get"
    );
    // On machines with fewer cores than shards the clients mostly wait;
    // two per shard keeps every ingest queue fed without drowning the
    // scheduler in runnable threads.
    let clients = clients.unwrap_or(shards * 2);

    println!(
        "bench_serve: {shards} shards, {clients} clients, {ops} ops, skew {skew}, \
         mix {}/{}/{}/{} put/get/advise/admin",
        mix.put,
        mix.get,
        mix.advise,
        mix.admin()
    );

    if direct {
        direct_probe(ops, skew, mix);
        return;
    }

    // The sharded run under measurement, then the same pressure forced
    // through one shard (ops scaled down to keep the single worker's
    // runtime comparable) as the scaling reference column.
    let registry = Arc::new(MetricsRegistry::new());
    let sharded = run_serve(
        &registry,
        shards,
        clients,
        ops,
        skew,
        mix,
        no_obs,
        true,
        snapshots.as_deref(),
    );
    let naive_clients = clients.div_ceil(shards).max(2);
    let single = run_serve(
        &Arc::new(MetricsRegistry::new()),
        1,
        naive_clients,
        (ops / u64::from(shards)).max(50_000),
        skew,
        mix,
        no_obs,
        false,
        None,
    );

    let mops = 1e3 / sharded.ns_per_op;
    println!(
        "aggregate: {:.1} ns/op sharded ({mops:.2} M ops/s), {:.1} ns/op single-shard, \
         scaling {:.1}x",
        sharded.ns_per_op,
        single.ns_per_op,
        single.ns_per_op / sharded.ns_per_op
    );

    let case = report_case(
        "serve_mixed",
        u64::from(shards),
        sharded.ns_per_op,
        single.ns_per_op,
    );

    // The vendored serde_json exposes only typed (de)serialization, so the
    // report is rendered by hand, mirroring bench_engine.
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"tempimpd sharded serving layer, closed-loop clients\",\n");
    out.push_str("  \"command\": \"cargo run --release -p bench-harness --bin bench_serve\",\n");
    out.push_str("  \"unit\": \"ns per operation (aggregate wall time / total ops)\",\n");
    out.push_str("  \"cases\": [\n");
    let line = case.render("single_shard", Some("scaling"));
    out.push_str(&format!("    {line}\n"));
    if sharded.verb_latency_lines.is_empty() {
        out.push_str("  ]\n}\n");
    } else {
        // Queue-wait/service percentiles per verb, from the request-
        // scoped stamps (all submissions, pipelined included). Omitted
        // under obs-off / --no-obs, where no stamps exist.
        out.push_str("  ],\n");
        out.push_str("  \"verb_latencies\": [\n");
        out.push_str(&format!(
            "    {}\n",
            sharded.verb_latency_lines.join(",\n    ")
        ));
        out.push_str("  ]\n}\n");
    }
    std::fs::write(&output, out).expect("write bench report");
    println!("wrote {output}");

    if let Some(path) = prom {
        std::fs::write(&path, registry.snapshot().render_prometheus())
            .expect("write prometheus exposition");
        println!("wrote {path}");
    }

    if min_mops > 0.0 {
        assert!(
            mops >= min_mops,
            "throughput floor missed: {mops:.2} M ops/s < required {min_mops:.2} M ops/s"
        );
        println!("throughput floor ok: {mops:.2} M ops/s >= {min_mops:.2} M ops/s");
    }
}

/// Diagnostic: the same generated op stream fed straight into one
/// `ShardEngine::call` with no threads or channels, to separate engine
/// cost from transport cost.
fn direct_probe(ops: u64, skew: f64, mix: Mix) {
    use tempimpd::ShardEngine;
    use temporal_importance::protocol::StoreApi;
    use temporal_importance::EvictionPolicy;
    let mut engine = ShardEngine::new(
        ByteSize::from_mib(512),
        EvictionPolicy::Preemptive,
        SimDuration::DAY,
    );
    let mut rng = sim_core::rng::stream(SEED, "serve-client-0");
    let mut put_count = 0u64;
    let started = Instant::now();
    let mut accepted = 0u64;
    for i in 0..ops {
        let at = SimTime::from_minutes(i * SIM_MINUTES_PER_OP / 8);
        let roll = rng.gen_range(0u32..100);
        let request = if roll < mix.put || put_count == 0 {
            let id = ObjectId::new(put_count);
            put_count += 1;
            Request::Put {
                id,
                bytes: ByteSize::from_mib(1 + rng.gen_range(0u64..4)),
                curve: curve_mix(&mut rng),
                class: ObjectClass::default(),
            }
        } else if roll < mix.put + mix.get {
            Request::Get {
                id: ObjectId::new(recent_key(&mut rng, put_count, skew)),
            }
        } else if roll < mix.put + mix.get + mix.advise {
            Request::Advise {
                id: ObjectId::new(CLIENT_STRIDE / 2 + i),
                bytes: ByteSize::from_mib(2),
                incoming: Importance::new_clamped(0.9),
            }
        } else if rng.gen::<bool>() {
            Request::Density
        } else {
            Request::Stats
        };
        if matches!(engine.call(at, request), Response::Put(Ok(_))) {
            accepted += 1;
        }
    }
    let ns = started.elapsed().as_nanos() as f64 / ops as f64;
    println!(
        "direct engine: {ns:.1} ns/op, {accepted} puts accepted, {} resident",
        engine.unit().len()
    );
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a valid value"))
}

#[derive(Debug, Clone)]
struct RunResult {
    ns_per_op: f64,
    /// Rendered `"verb_latencies"` report rows (empty when tracing is
    /// compiled out, suppressed with `--no-obs`, or `report` is off).
    verb_latency_lines: Vec<String>,
}

/// One closed-loop run: spawn the service, hammer it from `clients`
/// threads until every client has issued its share of `total_ops`, then
/// shut down and report aggregate wall-ns per op. When `report` is set,
/// also prints the per-verb queue-wait/service latency table and the
/// outcome tally; `snapshots` additionally samples `health` every 250 ms
/// on a monitor thread and writes the rendered serve-top frames there.
#[allow(clippy::too_many_arguments)]
fn run_serve(
    registry: &Arc<MetricsRegistry>,
    shards: u32,
    clients: u32,
    total_ops: u64,
    skew: f64,
    mix: Mix,
    no_obs: bool,
    report: bool,
    snapshots: Option<&str>,
) -> RunResult {
    let service = Tempimpd::builder()
        .shards(shards)
        // Sized so steady-state churn preempts: ~2.5 MiB mean puts at the
        // default mix fill 512 MiB/shard well within a run.
        .shard_capacity(ByteSize::from_mib(512))
        .queue_depth(8192)
        .batch_max(512)
        .observer(if no_obs {
            Obs::none()
        } else {
            Obs::attached(registry.clone())
        })
        .spawn();
    let prototype = service.client();
    let per_client = (total_ops / u64::from(clients)).max(1);

    // The health sampler rides alongside the load: one extra client
    // polling the aggregating verb at SimTime::ZERO (which never advances
    // a shard clock), rendering a frame per sample.
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = snapshots.map(|path| {
        let mut client = service.client();
        let stop = stop.clone();
        let path = path.to_string();
        std::thread::spawn(move || {
            let started = Instant::now();
            let mut capture = String::new();
            let mut prev: Option<(HealthSnapshot, Duration)> = None;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(250));
                let Ok(health) = client.health(SimTime::ZERO) else {
                    break;
                };
                let elapsed = started.elapsed();
                capture.push_str(&render_frame(
                    &health,
                    elapsed,
                    prev.as_ref().map(|(snapshot, at)| (snapshot, *at)),
                ));
                capture.push(FRAME_SEPARATOR);
                prev = Some((health, elapsed));
            }
            std::fs::write(&path, capture).expect("write snapshots capture");
            path
        })
    });

    let started = Instant::now();
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let client = prototype.clone();
            handles.push(scope.spawn(move || drive_client(client, c, per_client, skew, mix)));
        }
        for handle in handles {
            tally.absorb(handle.join().expect("bench client panicked"));
        }
    });
    let elapsed = started.elapsed();
    if let Some(handle) = monitor {
        stop.store(true, Ordering::Relaxed);
        let path = handle.join().expect("snapshot monitor panicked");
        println!("wrote {path}");
    }
    drop(prototype);
    let reports = service.shutdown().expect_clean();

    let done = per_client * u64::from(clients);
    let ns_per_op = elapsed.as_nanos() as f64 / done as f64;

    let mut verb_latency_lines = Vec::new();
    if report {
        let requests: u64 = reports.iter().map(|r| r.requests).sum();
        let batches: u64 = reports.iter().map(|r| r.batches).sum();
        println!(
            "  {done} ops across {clients} clients in {:.2}s; {} objects resident over {} shards, \
             {:.1} requests per worker batch",
            elapsed.as_secs_f64(),
            reports.iter().map(|r| r.unit.len()).sum::<usize>(),
            reports.len(),
            requests as f64 / batches.max(1) as f64
        );
        println!(
            "  outcomes: {} puts accepted, {} rejected, {} gets hit, {} transport errors",
            tally.puts_accepted, tally.puts_rejected, tally.gets_hit, tally.errors
        );
        // Every request's queue-wait/service split, from the trace
        // stamps the workers record through the observer seam —
        // pipelined submissions included, not just blocking probes.
        for verb in VerbKind::ALL {
            let name = verb.name();
            let queue_wait = registry.histogram(verb.queue_wait_metric());
            let service_time = registry.histogram(verb.service_metric());
            match (queue_wait, service_time) {
                (Some(queue_wait), Some(service_time)) if queue_wait.count() > 0 => {
                    println!(
                        "  latency {name:<8} queue-wait p50 {:>7} ns p99 {:>9} ns | \
                         service p50 {:>7} ns p99 {:>9} ns ({} samples)",
                        queue_wait.quantile(0.5),
                        queue_wait.quantile(0.99),
                        service_time.quantile(0.5),
                        service_time.quantile(0.99),
                        queue_wait.count()
                    );
                    verb_latency_lines.push(format!(
                        "{{ \"verb\": \"{name}\", \"samples\": {}, \
                         \"queue_wait_p50_ns\": {}, \"queue_wait_p99_ns\": {}, \
                         \"service_p50_ns\": {}, \"service_p99_ns\": {} }}",
                        queue_wait.count(),
                        queue_wait.quantile(0.5),
                        queue_wait.quantile(0.99),
                        service_time.quantile(0.5),
                        service_time.quantile(0.99),
                    ));
                }
                _ => println!("  latency {name:<8} n/a (obs-off or no samples)"),
            }
        }
    }
    assert!(
        tally.errors == 0,
        "transport errors during a clean run mean a worker died"
    );

    RunResult {
        ns_per_op,
        verb_latency_lines,
    }
}

/// One client's closed loop, pipelined: keep up to [`WINDOW`] requests
/// in flight via [`ServeClient::submit`], settling the oldest reply
/// before each new submission once the window is full. The window
/// amortizes thread wake-ups across many requests while still bounding
/// outstanding work (closed loop, just with a deeper pipe). Keys live in
/// a per-client range; gets are skewed toward recently-put keys with
/// `P(offset) ~ u^skew`.
fn drive_client(
    mut client: tempimpd::ServeClient,
    index: u32,
    ops: u64,
    skew: f64,
    mix: Mix,
) -> Tally {
    let mut rng = sim_core::rng::stream(SEED, &format!("serve-client-{index}"));
    let base = u64::from(index) * CLIENT_STRIDE;
    let mut put_count: u64 = 0;
    let mut tally = Tally::default();
    let mut inflight: std::collections::VecDeque<tempimpd::Pending> =
        std::collections::VecDeque::with_capacity(WINDOW);

    for i in 0..ops {
        if inflight.len() >= WINDOW {
            let oldest = inflight.pop_front().expect("window is non-empty");
            settle(&mut tally, oldest.wait());
        }
        let at = SimTime::from_minutes(i * SIM_MINUTES_PER_OP);
        let roll = rng.gen_range(0u32..100);
        let request = if roll < mix.put || put_count == 0 {
            let id = ObjectId::new(base + put_count);
            put_count += 1;
            Request::Put {
                id,
                bytes: ByteSize::from_mib(1 + rng.gen_range(0u64..4)),
                curve: curve_mix(&mut rng),
                class: ObjectClass::default(),
            }
        } else if roll < mix.put + mix.get {
            let key = recent_key(&mut rng, put_count, skew);
            Request::Get {
                id: ObjectId::new(base + key),
            }
        } else if roll < mix.put + mix.get + mix.advise {
            Request::Advise {
                id: ObjectId::new(base + CLIENT_STRIDE / 2 + i),
                bytes: ByteSize::from_mib(2),
                incoming: Importance::new_clamped(0.9),
            }
        } else if rng.gen::<bool>() {
            Request::Density
        } else {
            Request::Stats
        };
        if i % PROBE_EVERY == 0 {
            let response = client.call(at, request);
            settle(&mut tally, response);
        } else {
            match client.submit(at, request) {
                Ok(pending) => inflight.push_back(pending),
                Err(_) => tally.errors += 1,
            }
        }
    }
    for pending in inflight {
        settle(&mut tally, pending.wait());
    }
    tally
}

/// Folds one collected reply into the tally.
fn settle(tally: &mut Tally, response: Response) {
    use temporal_importance::Error;
    match response {
        Response::Put(Ok(_)) => tally.puts_accepted += 1,
        Response::Put(Err(Error::Store(_))) => tally.puts_rejected += 1,
        Response::Get(Ok(Some(_))) => tally.gets_hit += 1,
        Response::Get(Ok(None))
        | Response::Advise(Ok(_))
        | Response::Density(Ok(_))
        | Response::Stats(Ok(_))
        | Response::Health(Ok(_)) => {}
        Response::Put(Err(_))
        | Response::Get(Err(_))
        | Response::Advise(Err(_))
        | Response::Density(Err(_))
        | Response::Stats(Err(_))
        | Response::Health(Err(_)) => tally.errors += 1,
    }
}

/// Draws a key offset from the most recent put: `offset = put_count *
/// u^skew`, so higher skew concentrates gets on the newest (still
/// resident, still important) objects.
fn recent_key<R: Rng>(rng: &mut R, put_count: u64, skew: f64) -> u64 {
    let u: f64 = rng.gen();
    let offset = ((put_count as f64) * u.powf(skew)) as u64;
    put_count - 1 - offset.min(put_count - 1)
}

/// The annotation palette: mostly two-step (the paper's Fig. 1 shape),
/// with fixed-plateau, fixed-lifetime, and ephemeral minorities so
/// admission sees the full importance spectrum and preemption has
/// victims. Deliberately a small, quantized set of templates: the
/// engine's preemption planner keeps one candidate stream per distinct
/// curve shape (that is the paper's model — annotations come from a
/// handful of site policies, not per-object free-form functions), so a
/// workload drawing continuous random curves would measure
/// shape-cardinality blowup instead of serving.
fn curve_mix<R: Rng>(rng: &mut R) -> ImportanceCurve {
    match rng.gen_range(0u32..10) {
        0..=3 => ImportanceCurve::two_step(
            Importance::FULL,
            SimDuration::from_days(15),
            SimDuration::from_days(15),
        ),
        4..=5 => ImportanceCurve::Fixed {
            importance: Importance::new_clamped(0.2 * f64::from(rng.gen_range(2u32..=4))),
            expiry: SimDuration::from_days(10 * u64::from(rng.gen_range(1u32..=3))),
        },
        6 => ImportanceCurve::two_step(
            Importance::new_clamped(0.6),
            SimDuration::from_days(5),
            SimDuration::from_days(25),
        ),
        7..=8 => ImportanceCurve::fixed_lifetime(SimDuration::from_days(
            5 * u64::from(rng.gen_range(1u32..=3)),
        )),
        _ => ImportanceCurve::Ephemeral,
    }
}

/// The gate-compatible case (and its stdout row). The memory column is
/// omitted — a serving fleet's footprint is workload-dependent. The
/// report labels the ratio `scaling` (shards vs one shard), not `speedup`
/// (indexed vs a naive oracle): the single-shard run is a reference
/// point, not a rival implementation.
fn report_case(name: &str, shards: u64, indexed_ns: f64, reference_ns: f64) -> BenchCase {
    let scaling = reference_ns / indexed_ns;
    println!(
        "{name:<14} {shards:>3} shards: sharded {indexed_ns:>9.1} ns/op, \
         single-shard {reference_ns:>9.1} ns/op, scaling {scaling:>5.1}x"
    );
    BenchCase {
        case: name.to_string(),
        residents: shards,
        indexed_ns_per_op: indexed_ns,
        reference_ns_per_op: reference_ns,
        bytes_per_resident: None,
        write_amplification: None,
    }
}
