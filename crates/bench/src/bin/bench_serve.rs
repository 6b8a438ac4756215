//! Closed-loop CI envelope for `tempimpd`, the sharded serving layer, over
//! `bench_stack`'s request stream.
//!
//! [`CLIENTS`] threads each drive a [`ServeClient`] as fast as the service
//! answers (closed loop with a bounded pipeline: each client keeps at
//! most [`WINDOW`] submissions in flight and must settle the oldest
//! reply before issuing another, so total outstanding work stays
//! bounded). Every request comes from [`Stream`] — the mix, annotation
//! palette, key ranges and get skew are `bench_stack`'s, defined once in
//! its `stream.rs` — and every reply is classified by [`Tally`]. The
//! fleet is the builder's defaults (8 shards, queue depth, batch size),
//! sized by [`Scale::shard_capacity`].
//!
//! A run warms the store with [`Scale::warmup_ops`] untimed requests,
//! releases the clients together and times `--ops` more. It aborts unless
//! the timed phase was the paper's regime — most puts admitted but not
//! all, most gets hitting, [`RESIDENTS`] objects resident (see
//! [`health_guard`]) — so the gates never time a store in collapse.
//!
//! One invocation measures the stream in [`ROUNDS`] alternating rounds,
//! each timing one run with the observer detached and then one attached
//! to a fresh [`MetricsRegistry`], every run on a fresh fleet behind the
//! health guard. It writes two rows in the `"case"` line shape of
//! `BENCH_engine.json`: `serve_mixed` and `serve_mixed_observed`, each the
//! minimum over its side's rounds (noise only adds, and alternating puts
//! both minima in the same load regime — `bench_engine`'s method), both
//! under the `residents` key [`RESIDENTS`] and both carrying the
//! unobserved ns/op as their reference column. `bench_gate` compares them
//! against the committed `BENCH_serve.json`, and `bench_gate
//! --max-obs-overhead` reads the instrumentation cost off the pair.
//!
//! Every run, observed or not, also prints per-verb **queue-wait vs
//! service-time** p50/p99 from a `health` answer taken after its timed
//! phase (see `tempimpd`'s trace module): the worker derives both halves
//! for *every* request — pipelined submissions included, not just the
//! every-[`PROBE_EVERY`]th blocking probe — into its own histograms, which
//! do not depend on the observer. The shards fold as serve-top folds
//! them, with [`worst_shard`]. With tracing compiled in, a run whose `put`
//! or `get` has no samples fails: tracing silently stopped sampling.
//! Under `--features obs-off` the stamps compile out and the columns
//! print `n/a`; throughput still gates.
//!
//! `--snapshots FILE` additionally samples the `health` verb during the
//! last observed run and captures rendered serve-top frames (replayable
//! with `tempimp-obs serve-top --from FILE`); `--prom FILE` writes the
//! last observed run's registry as Prometheus exposition text (its batch
//! signals; serve latency is the `health` answer's).
//!
//! ```text
//! cargo run --release -p bench-harness --bin bench_serve -- \
//!     --ops 2000000 --out BENCH_serve.json
//! ```
//!
//! [`ServeClient`]: tempimpd::ServeClient

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bench_harness::gate::BenchCase;
use bench_harness::servetop::{render_frame, worst_shard, FRAME_SEPARATOR};
use bench_harness::stream::{Scale, Stream, Tally};
use obs::MetricsRegistry;
use sim_core::{ByteSize, Obs, SimTime};
use tempimpd::{Pending, ServeClient, Tempimpd};
use temporal_importance::protocol::{HealthSnapshot, StoreApi, VerbKind};

const OUTPUT: &str = "BENCH_serve.json";
const SEED: u64 = 0x5e24e;
/// The builder's default shard count, spelled out because the stream's
/// capacity is split over it.
const SHARDS: u32 = 8;
/// Two clients per shard keep every ingest queue fed without drowning a
/// small machine's scheduler in runnable threads.
const CLIENTS: u32 = 16;
/// What a healthy fleet holds at full size: the stream offers ~1.25× what
/// its capacity can keep over the palette's lifetimes. Also the report's
/// `residents` key, which is why it is a constant and not the measured
/// count: `BenchCase::key` matches baseline to fresh by it.
const RESIDENTS: u64 = 160_000;
/// Pipelined submissions each client keeps in flight; on few cores the
/// window is what amortizes cross-thread wake-ups over many requests.
const WINDOW: usize = 256;
/// Every this-many ops, a client issues a *blocking* [`StoreApi::call`]
/// instead of a pipelined submit — a liveness probe that bounds how far
/// any client can run ahead of its replies. Latency is *not* measured
/// here: every request (pipelined or blocking) carries trace stamps, and
/// the workers derive queue-wait/service for all of them.
const PROBE_EVERY: u64 = 64;
/// Alternating detached/attached rounds per invocation; each row keeps
/// its side's minimum, so one background burst cannot decide the
/// obs-overhead gate.
const ROUNDS: u32 = 3;

fn main() {
    let mut output = OUTPUT.to_string();
    let mut ops: u64 = 2_000_000;
    let mut min_mops: f64 = 0.0;
    let mut snapshots: Option<String> = None;
    let mut prom: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = argv.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => output = args.next().expect("--out needs a path"),
            "--snapshots" => snapshots = Some(args.next().expect("--snapshots needs a path")),
            "--prom" => prom = Some(args.next().expect("--prom needs a path")),
            "--ops" => ops = parse(args.next(), "--ops"),
            "--min-mops" => min_mops = parse(args.next(), "--min-mops"),
            other => panic!(
                "unknown argument '{other}' (expected --out PATH / --ops N / --min-mops F / \
                 --snapshots PATH / --prom PATH)"
            ),
        }
    }

    let scale = Scale::FULL;
    let capacity = scale.shard_capacity(SHARDS);
    println!(
        "bench_serve: {SHARDS} shards of {capacity}, {CLIENTS} clients, {} warm-up + {ops} timed \
         ops of the bench_stack stream, {ROUNDS} rounds of observer detached then attached",
        scale.warmup_ops()
    );

    let run = |obs: Obs, snapshots: Option<&str>| {
        run_serve(fleet(SHARDS, capacity, obs), CLIENTS, scale, ops, snapshots)
            .unwrap_or_else(|refusal| panic!("{refusal}"))
    };
    let mut unobserved = f64::INFINITY;
    let mut observed = f64::INFINITY;
    for round in 1..=ROUNDS {
        println!("round {round} of {ROUNDS}, observer detached:");
        unobserved = unobserved.min(run(Obs::none(), None));
        println!("round {round} of {ROUNDS}, observer attached:");
        let registry = Arc::new(MetricsRegistry::new());
        let last = round == ROUNDS;
        let snapshots = snapshots.as_deref().filter(|_| last);
        observed = observed.min(run(Obs::attached(registry.clone()), snapshots));
        if let Some(path) = prom.as_deref().filter(|_| last) {
            std::fs::write(path, registry.snapshot().render_prometheus())
                .expect("write prometheus exposition");
            println!("wrote {path}");
        }
    }

    let mops = 1e3 / observed;
    println!(
        "aggregate (min of {ROUNDS} rounds a side): {unobserved:.1} ns/op unobserved, \
         {observed:.1} ns/op observed ({mops:.2} M ops/s, {:+.0}% over unobserved)",
        (observed / unobserved - 1.0) * 100.0
    );

    // The vendored serde_json exposes only typed (de)serialization, so the
    // report is rendered by hand, mirroring bench_engine.
    let mut command = String::from("cargo run --release -p bench-harness --bin bench_serve");
    if !argv.is_empty() {
        command.push_str(&format!(" -- {}", argv.join(" ")));
    }
    let rows = [
        ("serve_mixed", unobserved),
        ("serve_mixed_observed", observed),
    ]
    .map(|(case, ns_per_op)| {
        let case = BenchCase {
            case: case.to_string(),
            residents: RESIDENTS,
            indexed_ns_per_op: ns_per_op,
            reference_ns_per_op: unobserved,
            // A serving fleet's footprint is workload-dependent.
            bytes_per_resident: None,
            write_amplification: None,
        };
        case.render("unobserved", None)
    });
    let report = format!(
        "{{\n  \"benchmark\": \"tempimpd sharded serving layer, closed-loop clients on the \
         bench_stack stream\",\n  \"command\": \"{command}\",\n  \"unit\": \"ns per operation \
         (aggregate wall time / total ops)\",\n  \"cases\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    std::fs::write(&output, report).expect("write bench report");
    println!("wrote {output}");

    if min_mops > 0.0 {
        assert!(
            mops >= min_mops,
            "throughput floor missed: {mops:.2} M ops/s < required {min_mops:.2} M ops/s"
        );
        println!("throughput floor ok: {mops:.2} M ops/s >= {min_mops:.2} M ops/s");
    }
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a valid value"))
}

/// A service with the builder's default queue depth and batch size.
fn fleet(shards: u32, shard_capacity: ByteSize, obs: Obs) -> Tempimpd {
    Tempimpd::builder()
        .shards(shards)
        .shard_capacity(shard_capacity)
        .observer(obs)
        .spawn()
}

/// The workload-health guard, over the timed phase: a run whose store is
/// not saturated the way the paper's is — most puts accepted but not all,
/// most gets hitting, [`RESIDENTS`] (divided by the scale) resident at the
/// end, give or take a tenth — times something else, and is refused.
fn health_guard(timed: &Tally, residents: u64, scale: Scale) -> Result<(), String> {
    let accept = timed.put_accept_share();
    let hit = timed.get_hit_share();
    let expected = RESIDENTS / scale.0;
    if !(0.85..=0.99).contains(&accept) {
        return Err(format!(
            "workload-health guard: put_accept_share {accept:.4} outside [0.85, 0.99]"
        ));
    }
    if hit < 0.6 {
        return Err(format!(
            "workload-health guard: get_hit_share {hit:.4} below 0.6"
        ));
    }
    if residents.abs_diff(expected) * 10 > expected {
        return Err(format!(
            "workload-health guard: {residents} residents outside {expected} ± 10 %"
        ));
    }
    Ok(())
}

/// One closed-loop run on `service`: each of `clients` threads warms the
/// store with its share of the stream's warm-up, all are released
/// together, and each issues its share of `total_ops` against the clock.
/// Asks the fleet for `health`, shuts it down, prints the outcome, health
/// and latency lines, and returns aggregate wall-ns per timed op — or the
/// health guard's or [`report_latencies`]' refusal. `snapshots`
/// additionally samples `health` every 250 ms on a monitor thread and
/// writes the rendered serve-top frames there.
fn run_serve(
    service: Tempimpd,
    clients: u32,
    scale: Scale,
    total_ops: u64,
    snapshots: Option<&str>,
) -> Result<f64, String> {
    let per_client = (total_ops / u64::from(clients)).max(1);
    let warmup = scale.warmup_ops() / u64::from(clients);

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

    let warm = Barrier::new(clients as usize + 1);
    let (tally, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                let mut client = service.client();
                let warm = &warm;
                scope.spawn(move || {
                    let mut stream = Stream::new(SEED, index, clients, scale);
                    drive_client(&mut client, &mut stream, warmup);
                    warm.wait();
                    drive_client(&mut client, &mut stream, per_client)
                })
            })
            .collect();
        warm.wait();
        let started = Instant::now();
        let mut tally = Tally::default();
        for handle in handles {
            tally.absorb(&handle.join().expect("bench client panicked"));
        }
        (tally, started.elapsed())
    });
    if let Some(handle) = monitor {
        stop.store(true, Ordering::Relaxed);
        let path = handle.join().expect("snapshot monitor panicked");
        println!("wrote {path}");
    }
    // SimTime::ZERO never advances a shard clock, so the probe leaves the
    // store as the timed phase left it.
    let health = service.client().health(SimTime::ZERO);
    let reports = service.shutdown().expect_clean();

    let residents: u64 = reports.iter().map(|r| r.unit.len() as u64).sum();
    let requests: u64 = reports.iter().map(|r| r.requests).sum();
    let batches: u64 = reports.iter().map(|r| r.batches).sum();
    println!(
        "  {} ops across {clients} clients in {:.2}s after {} warm-up ops; {:.1} requests per \
         worker batch",
        tally.ops,
        elapsed.as_secs_f64(),
        warmup * u64::from(clients),
        requests as f64 / batches.max(1) as f64
    );
    println!(
        "  outcomes: {} puts accepted, {} rejected, {} gets hit, {} missed, {} failed",
        tally.puts_accepted, tally.puts_rejected, tally.gets_hit, tally.gets_miss, tally.failed
    );
    println!(
        "  health: put_accept_share {:.4}, get_hit_share {:.4}, {residents} residents over {} \
         shards",
        tally.put_accept_share(),
        tally.get_hit_share(),
        reports.len()
    );
    if tally.failed > 0 {
        return Err(format!(
            "{} failed operations: transport errors during a clean run mean a worker died",
            tally.failed
        ));
    }
    health_guard(&tally, residents, scale)?;
    let health = health.map_err(|error| format!("health after the run failed: {error}"))?;
    report_latencies(&health)?;
    Ok(elapsed.as_nanos() as f64 / tally.ops as f64)
}

/// One client's closed loop over `ops` requests of `stream`, pipelined:
/// keep up to [`WINDOW`] requests in flight via [`ServeClient::submit`],
/// settling the oldest reply before each new submission once the window
/// is full. The window amortizes thread wake-ups across many requests
/// while still bounding outstanding work (closed loop, just with a deeper
/// pipe). Returns after every reply is collected.
fn drive_client(client: &mut ServeClient, stream: &mut Stream, ops: u64) -> Tally {
    let mut tally = Tally::default();
    let mut inflight: VecDeque<(VerbKind, Pending)> = VecDeque::with_capacity(WINDOW);
    for i in 0..ops {
        if inflight.len() >= WINDOW {
            let (verb, oldest) = inflight.pop_front().expect("window is non-empty");
            tally.settle(verb, &oldest.wait());
        }
        let (at, request) = stream.next();
        let verb = VerbKind::of(&request);
        if i % PROBE_EVERY == 0 {
            tally.settle(verb, &client.call(at, request));
        } else {
            match client.submit(at, request) {
                Ok(pending) => inflight.push_back((verb, pending)),
                Err(error) => tally.settle(verb, &verb.failed(error)),
            }
        }
    }
    for (verb, pending) in inflight {
        tally.settle(verb, &pending.wait());
    }
    tally
}

/// Prints every verb's queue-wait/service split from `health`, the
/// workers' own histograms folded over the shards by [`worst_shard`] —
/// pipelined submissions included, not just blocking probes. With
/// tracing compiled in, `put` and `get` (half and a third of the stream)
/// must have samples, and no verb's p50 may exceed its p99; values are
/// not gated — absolute latency on a shared runner is noise, presence and
/// shape are not.
fn report_latencies(health: &HealthSnapshot) -> Result<(), String> {
    for verb in VerbKind::ALL {
        let name = verb.name();
        let Some((samples, [wait_p50, wait_p99, service_p50, service_p99])) =
            worst_shard(health, verb)
        else {
            println!("  latency {name:<8} n/a (obs-off or no samples)");
            if sim_core::observe::ENABLED && matches!(verb, VerbKind::Put | VerbKind::Get) {
                return Err(format!(
                    "request tracing stopped sampling: '{name}' has no latency samples"
                ));
            }
            continue;
        };
        println!(
            "  latency {name:<8} queue-wait p50 {wait_p50:>7} ns p99 {wait_p99:>9} ns | \
             service p50 {service_p50:>7} ns p99 {service_p99:>9} ns ({samples} samples, worst \
             shard)"
        );
        if wait_p50 > wait_p99 || service_p50 > service_p99 {
            return Err(format!("'{name}' latency p50 exceeds its p99"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1/50 of the CI run's operations on 1/50 of its store — from one
    /// client, so no two clocks can drift: at this scale one operation is
    /// a simulated hour, and threads a scheduling quantum apart on a small
    /// box are simulated weeks apart.
    const CHECK_OPS: u64 = 40_000;

    /// The run also passes [`report_latencies`], so `cargo test` checks
    /// that request tracing still samples `put` and `get`, with the
    /// observer detached.
    #[test]
    fn a_check_scale_run_passes_the_health_guard() {
        let scale = Scale::CHECK;
        let service = fleet(2, scale.shard_capacity(2), Obs::none());
        let ns_per_op = run_serve(service, 1, scale, CHECK_OPS, None).expect("healthy run");
        assert!(ns_per_op > 0.0);
    }

    #[test]
    fn a_starved_fleet_trips_the_guard_on_its_accept_share() {
        let scale = Scale::CHECK;
        let starved = ByteSize::from_bytes(scale.shard_capacity(2).as_bytes() / 100);
        let refusal = run_serve(fleet(2, starved, Obs::none()), 1, scale, CHECK_OPS, None)
            .expect_err("a store a hundredth the size rejects most puts");
        assert!(refusal.contains("put_accept_share"), "{refusal}");
    }
}
