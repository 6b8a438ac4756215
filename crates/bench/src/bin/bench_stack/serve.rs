//! The service workloads' end-to-end runs: `serve_mem_closed`,
//! `serve_mem_open` and `serve_durable_closed`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sim_core::SimTime;
use tempimp_durable::{DurableConfig, DurableUnit};
use tempimpd::{ServeClient, ShardReport, Tempimpd};
use temporal_importance::protocol::{StoreApi, VerbKind};
use temporal_importance::EvictionPolicy;

use crate::drive::{pipelined, Pipe, Until, SAMPLE_EVERY, WINDOW};
use crate::openloop::{pace, Pacing, BURST};
use crate::report::{Report, Timed};
use crate::stats::{median, Windowed};
use crate::stream::{Scale, Stream, Tally};
use crate::{health_guard, Config, SETUPS, WINDOWS};

/// Arrival rate of the open-loop workload. A constant, about a quarter
/// of the closed-loop capacity of the 2-core reference box, and never
/// calibrated at run time: both commits of a comparison see the same
/// schedule.
pub const OPEN_LOOP_RATE: u64 = 100_000;
/// Open-loop latency is taken per window of this many milliseconds.
const OPEN_LOOP_WINDOW_MS: u64 = 1_000;

/// Segment size of the durable workload. Pinned below the 8 MiB default:
/// on this stream the default thrashes compaction (see the README), and a
/// baseline has to be stable before it can show that getting better.
pub fn durable_config() -> DurableConfig {
    DurableConfig::default().segment_bytes(2 * 1024 * 1024)
}

/// A service with the builder's defaults (global observer, queue depth,
/// batch size) apart from shard count and capacity, volatile or journaled
/// under `dir`. Traced runs record each shard's request log for replay.
pub fn spawn_service(
    shards: u32,
    scale: Scale,
    durable: Option<&Path>,
    record_log: bool,
) -> Tempimpd {
    let builder = Tempimpd::builder()
        .shards(shards)
        .shard_capacity(scale.shard_capacity(shards))
        .record_log(record_log);
    match durable {
        Some(dir) => builder
            .durable(dir)
            .durable_config(durable_config())
            .spawn(),
        None => builder.spawn(),
    }
}

/// Warms a service up through one client: the first two thirds of the
/// client's share unobserved, the last third tallied for the health
/// guard. Returns that last third's tally.
pub fn warm_up(
    client: &ServeClient,
    stream: &mut Stream,
    tally: &mut Tally,
    pipe: &mut Pipe,
    ops: u64,
) -> Tally {
    pipelined(client, stream, tally, pipe, Until::Ops(ops - ops / 3), None);
    let before = *tally;
    pipelined(client, stream, tally, pipe, Until::Ops(ops / 3), None);
    tally.since(&before)
}

/// Whole-store requests an end-to-end run adds itself: the health guard's
/// one `health` probe.
const GUARD_PROBES: u64 = 1;

/// Residents of each shard, by the `health` verb. Sent at simulated time
/// zero, which never moves a shard's clock.
pub fn residents_per_shard(client: &mut ServeClient) -> Result<Vec<u64>, String> {
    let health = client
        .health(SimTime::ZERO)
        .map_err(|error| format!("health probe failed: {error}"))?;
    Ok(health.shards.iter().map(|shard| shard.residents).collect())
}

/// What one closed-loop run on a fresh service measured.
struct ClosedLoop {
    setup: Duration,
    tally: Tally,
    timed: Timed,
    reports: Vec<ShardReport>,
}

/// Spawns a service, warms it up from `clients` threads, then — unless
/// `window` is zero, for a set-up alone — drives it for [`WINDOWS`]
/// consecutive windows and shuts it down.
fn closed_loop(
    config: &Config,
    shards: u32,
    clients: u32,
    durable: Option<&Path>,
    window: Duration,
) -> Result<ClosedLoop, String> {
    let started = Instant::now();
    let service = spawn_service(shards, config.scale, durable, false);
    let warm = Barrier::new(clients as usize + 1);
    let go = Barrier::new(clients as usize + 1);
    let steady = Mutex::new(Tally::default());
    // When the windows start; `None` once the health guard has refused.
    let origin: OnceLock<Option<Instant>> = OnceLock::new();
    let warmup_share = config.scale.warmup_ops() / u64::from(clients);
    let windows = if window.is_zero() { 0 } else { WINDOWS };

    let (setup, guard, threads) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                let client = service.client();
                let (warm, go, steady, origin) = (&warm, &go, &steady, &origin);
                scope.spawn(move || {
                    let mut stream = Stream::new(config.seed, index, clients, config.scale);
                    let mut tally = Tally::default();
                    let mut pipe = Pipe::default();
                    let share = warm_up(&client, &mut stream, &mut tally, &mut pipe, warmup_share);
                    pipe.drain(&mut tally, None);
                    steady
                        .lock()
                        .expect("no load thread panics holding the tally")
                        .absorb(&share);
                    warm.wait();
                    go.wait();
                    let mut rates = Vec::new();
                    let mut latency = Windowed::default();
                    if let Some(origin) = *origin.get().expect("origin is set before go") {
                        for index in 0..windows {
                            let end = origin + window * (index as u32 + 1);
                            let (collected, took) = pipelined(
                                &client,
                                &mut stream,
                                &mut tally,
                                &mut pipe,
                                Until::Time(end),
                                Some(latency.window(index)),
                            );
                            rates.push(collected as f64 / took.as_secs_f64());
                        }
                        pipe.drain(&mut tally, None);
                    }
                    (tally, rates, latency)
                })
            })
            .collect();

        warm.wait();
        let setup = started.elapsed();
        let guard = residents_per_shard(&mut service.client()).and_then(|residents| {
            let steady = steady
                .lock()
                .expect("no load thread panics holding the tally");
            health_guard(&steady, &residents, config.scale)
        });
        origin
            .set(guard.is_ok().then(Instant::now))
            .expect("origin is set once");
        go.wait();
        let threads: Vec<_> = handles
            .into_iter()
            .map(|handle| handle.join().expect("load thread panicked"))
            .collect();
        (setup, guard, threads)
    });

    let shutdown = service.shutdown();
    let failures: Vec<String> = shutdown
        .failures
        .iter()
        .map(|failure| format!("shard {}: {}", failure.shard, failure.message))
        .collect();
    if !failures.is_empty() {
        return Err(format!("shard workers panicked — {}", failures.join("; ")));
    }
    guard?;

    let mut tally = Tally::default();
    let mut timed = Timed {
        ops_per_s: vec![0.0; windows],
        ..Timed::default()
    };
    for (thread_tally, rates, latency) in threads {
        tally.absorb(&thread_tally);
        for (total, rate) in timed.ops_per_s.iter_mut().zip(rates) {
            *total += rate;
        }
        timed.latency.merge(latency);
    }
    Ok(ClosedLoop {
        setup,
        tally,
        timed,
        reports: shutdown.reports,
    })
}

/// Conservation on the shards a service handed back: every request
/// submitted was processed exactly once per shard it addressed, every
/// put was either accepted or rejected, and no shard is over capacity.
/// `served` tallies what this service was sent, `lifetime` what its
/// stores have been sent since they were empty — the same, unless the
/// service recovered a log.
pub fn check_conservation(
    report: &mut Report,
    what: &str,
    served: &Tally,
    lifetime: &Tally,
    probes: u64,
    shards: &[ShardReport],
) {
    let count = shards.len() as u64;
    let requests: u64 = shards.iter().map(|shard| shard.requests).sum();
    let expected = (served.ops - served.fanouts) + (served.fanouts + probes) * count;
    report.check(
        format!("{what}: shard requests {requests} = submitted {expected} (fan-outs per shard)"),
        requests == expected,
    );
    let mut attempted = 0;
    let mut accepted = 0;
    let mut rejected = 0;
    for shard in shards {
        let stats = shard.unit.stats();
        attempted += stats.stores_attempted;
        accepted += stats.stores_accepted;
        rejected += stats.rejections();
        report.check(
            format!("{what}: shard {} used <= capacity", shard.shard),
            shard.unit.used() <= shard.unit.capacity(),
        );
    }
    report.check(
        format!("{what}: puts {attempted} = accepted {accepted} + rejected {rejected}"),
        attempted == accepted + rejected
            && accepted == lifetime.puts_accepted
            && rejected == lifetime.puts_rejected,
    );
}

/// Fills in the metrics every closed-loop workload shares.
fn report_closed_loop(report: &mut Report, run: &mut ClosedLoop) {
    report.absorb_counts(run.tally.ops, run.tally.failed);
    report.note(format!(
        "latency: submit to reply inside the {WINDOW}-deep window, 1 request in {SAMPLE_EVERY} timed"
    ));
    run.timed.report(report);
    report.note(format!(
        "core.unit.put_accept_share {:.4}  core.unit.get_hit_share {:.4}  residents {}",
        run.tally.put_accept_share(),
        run.tally.get_hit_share(),
        run.reports.iter().map(|r| r.unit.len()).sum::<usize>()
    ));
    check_conservation(
        report,
        "service",
        &run.tally,
        &run.tally,
        GUARD_PROBES,
        &run.reports,
    );
}

/// `setup_s`: the median of the measured run's set-up and of as many more
/// as make [`SETUPS`], each spawning a fresh 2-shard service, warming it
/// up and shutting it down again. They come after the timed phase, so
/// that the service it ran on is the only one `peak_rss_mib` has seen.
fn report_setups(
    report: &mut Report,
    config: &Config,
    measured: Duration,
    clients: u32,
    durable: Option<&Path>,
) -> Result<(), String> {
    let mut setups = vec![measured.as_secs_f64()];
    for _ in 1..SETUPS {
        if let Some(dir) = durable {
            // Journal from nothing; do not recover the last service's log.
            std::fs::remove_dir_all(dir)
                .map_err(|error| format!("removing {} failed: {error}", dir.display()))?;
        }
        let again = closed_loop(config, 2, clients, durable, Duration::ZERO)?;
        setups.push(again.setup.as_secs_f64());
    }
    report.metric("setup_s", median(&mut setups));
    Ok(())
}

/// `serve_mem_closed`: 2 memory shards, 2 closed-loop client threads.
pub fn mem_closed(config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut run = closed_loop(config, 2, 2, None, config.window())?;
    report.metric("peak_rss_mib", crate::host::peak_rss_mib());
    report_closed_loop(&mut report, &mut run);
    report.metric("write_amp", 1.0);
    report_setups(&mut report, config, run.setup, 2, None)?;
    Ok(report)
}

/// `serve_durable_closed`: 2 journaled shards, one closed-loop client (so
/// each shard sees a deterministic order), then shutdown and reopen.
pub fn durable_closed(config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = config.scratch.join("shards");
    let mut run = closed_loop(config, 2, 1, Some(&dir), config.window())?;
    // Read before the reopen check holds every shard's unit twice.
    report.metric("peak_rss_mib", crate::host::peak_rss_mib());
    report_closed_loop(&mut report, &mut run);
    report.note("flush policy: one flush (a write syscall) per operation; fsync on rotation and at shutdown");

    let mut appended = 0;
    let mut rewritten = 0;
    let mut file_bytes = 0;
    let mut compactions = Vec::new();
    for shard in &run.reports {
        let disk = shard
            .disk
            .as_ref()
            .ok_or("a durable shard reported no disk")?;
        appended += disk.appended_bytes;
        rewritten += disk.rewrite_bytes;
        file_bytes += disk.file_bytes;
        compactions.push(disk.compactions);
    }
    let residents: usize = run.reports.iter().map(|r| r.unit.len()).sum();
    report.metric(
        "write_amp",
        appended as f64 / (appended - rewritten).max(1) as f64,
    );
    report.note(format!("compactions per shard: {compactions:?}"));

    let reopened = reopen(&dir, &run.reports, config.scale)?;
    report.note(format!(
        "disk_bytes_per_resident {:.1} B  recovery_s {:.4} s (both shard logs, page cache warm)",
        file_bytes as f64 / residents.max(1) as f64,
        reopened.recovery.as_secs_f64()
    ));
    report.check(
        "each reopened shard serialises equal to its shutdown report",
        reopened.equal,
    );
    report_setups(&mut report, config, run.setup, 1, Some(&dir))?;
    Ok(report)
}

pub struct Reopened {
    pub recovery: Duration,
    pub equal: bool,
}

/// Reopens each shard's log with `DurableUnit::open` and compares the
/// recovered engine with what the shard reported at shutdown.
pub fn reopen(dir: &Path, shards: &[ShardReport], scale: Scale) -> Result<Reopened, String> {
    let capacity = scale.shard_capacity(shards.len() as u32);
    let started = Instant::now();
    let units: Vec<DurableUnit> = shards
        .iter()
        .map(|shard| {
            let path: PathBuf = dir.join(format!("shard-{}", shard.shard));
            DurableUnit::open(
                &path,
                capacity,
                EvictionPolicy::Preemptive,
                durable_config(),
            )
            .map_err(|error| format!("reopening {} failed: {error}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    let recovery = started.elapsed();
    let equal = units.iter().zip(shards).all(|(unit, shard)| {
        serde_json::to_string(unit.unit()).ok() == serde_json::to_string(&shard.unit).ok()
    });
    Ok(Reopened { recovery, equal })
}

/// What the open-loop phase measured.
pub struct OpenLoop {
    pub pacing: Pacing,
    pub tally: Tally,
    pub latency: Windowed,
    pub scheduled: u64,
    pub elapsed: Duration,
    /// Requests sent but not yet answered when the last one was sent.
    pub backlog_end: u64,
}

/// Sends `stream` to `client` on the fixed schedule for `duration`, one
/// thread submitting and one redeeming replies; latency runs from each
/// request's due time.
pub fn open_loop(
    client: &ServeClient,
    stream: &mut Stream,
    duration: Duration,
    deadline: Instant,
) -> OpenLoop {
    let scheduled = (duration.as_secs_f64() * OPEN_LOOP_RATE as f64) as u64;
    let per_window = OPEN_LOOP_RATE * OPEN_LOOP_WINDOW_MS / 1_000;
    // Bounded, so that a stalled collector holds the submitter back (and
    // the wait shows as lateness) instead of growing the resident set.
    let (tx, rx) = mpsc::sync_channel::<(tempimpd::Pending, VerbKind, Instant, u64)>(4 * WINDOW);
    let completed = AtomicU64::new(0);
    let mut submit_tally = Tally::default();
    let start = Instant::now() + Duration::from_millis(1);

    std::thread::scope(|scope| {
        let completed = &completed;
        let collector = scope.spawn(move || {
            let mut tally = Tally::default();
            let mut latency = Windowed::default();
            let mut last = start;
            for (pending, verb, due, index) in rx {
                let response = pending.wait();
                last = Instant::now();
                let waited = last.saturating_duration_since(due);
                latency.record((index / per_window) as usize, waited.as_nanos() as u64);
                tally.settle(verb, &response);
                completed.fetch_add(1, Ordering::Relaxed);
            }
            (tally, latency, last)
        });
        let pacing = pace(
            start,
            OPEN_LOOP_RATE,
            BURST,
            scheduled,
            deadline,
            |index, due| {
                let (at, request) = stream.next();
                let verb = VerbKind::of(&request);
                match client.submit(at, request) {
                    Ok(pending) => tx
                        .send((pending, verb, due, index))
                        .expect("the collector outlives the submitter"),
                    Err(error) => submit_tally.settle(verb, &verb.failed(error)),
                }
            },
        );
        let backlog_end = pacing.sent - completed.load(Ordering::Relaxed) - submit_tally.ops;
        drop(tx);
        let (mut tally, latency, last) = collector.join().expect("collector panicked");
        tally.absorb(&submit_tally);
        OpenLoop {
            pacing,
            tally,
            latency,
            scheduled,
            elapsed: last.saturating_duration_since(start),
            backlog_end,
        }
    })
}

/// A 2-shard memory service warmed up through one client.
struct Warm {
    service: Tempimpd,
    client: ServeClient,
    stream: Stream,
    tally: Tally,
    setup: Duration,
}

impl Warm {
    fn new(config: &Config) -> Result<Warm, String> {
        let started = Instant::now();
        let service = spawn_service(2, config.scale, None, false);
        let mut client = service.client();
        let mut stream = Stream::new(config.seed, 0, 1, config.scale);
        let mut tally = Tally::default();
        let mut pipe = Pipe::default();
        let steady = warm_up(
            &client,
            &mut stream,
            &mut tally,
            &mut pipe,
            config.scale.warmup_ops(),
        );
        pipe.drain(&mut tally, None);
        let setup = started.elapsed();
        health_guard(&steady, &residents_per_shard(&mut client)?, config.scale)?;
        Ok(Warm {
            service,
            client,
            stream,
            tally,
            setup,
        })
    }

    fn shut_down(self) -> Result<Vec<ShardReport>, String> {
        drop(self.client);
        let shards = self.service.shutdown();
        if !shards.is_clean() {
            return Err(format!("shard workers panicked: {:?}", shards.failures));
        }
        Ok(shards.reports)
    }
}

/// `serve_mem_open`: the `serve_mem_closed` service and stream, driven on
/// a fixed schedule instead of as fast as replies come back.
pub fn mem_open(config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let mut warm = Warm::new(config)?;
    let mut run = open_loop(
        &warm.client,
        &mut warm.stream,
        config.timed(),
        config.deadline,
    );
    let mut tally = warm.tally;
    let setup = warm.setup;
    let shards = warm.shut_down()?;

    report.metric("peak_rss_mib", crate::host::peak_rss_mib());
    let never_sent = run.scheduled - run.pacing.sent;
    tally.absorb(&run.tally);
    report.absorb_counts(tally.ops + never_sent, tally.failed + never_sent);
    report.metric(
        "ops_per_s",
        run.tally.ops as f64 / run.elapsed.as_secs_f64(),
    );
    report.note(
        "ungated for added wait: ops_per_s is pinned by the schedule and only shows falling \
         behind; judge lat_* below over every run of an alternating comparison",
    );
    report.note(format!(
        "open loop at {OPEN_LOOP_RATE} ops/s in bursts of {BURST} for {:.1} s: latency from due \
         time, n = {}, {} windows of {OPEN_LOOP_WINDOW_MS} ms",
        config.timed().as_secs_f64(),
        run.latency.count(),
        run.latency.per_window(0.99).len()
    ));
    report.note(format!(
        "windows: p50 {:?} ns, p99 {:?} ns",
        run.latency.per_window(0.5),
        run.latency.per_window(0.99)
    ));
    report.note(format!(
        "lat_p50_us {:.3} (all samples)  lat_p99_us {:.3} (p99 of each window, median window)",
        run.latency.overall(0.5) as f64 / 1e3,
        run.latency.median_of_windows(0.99) / 1e3
    ));
    report.note(format!(
        "loadgen.late_share {:.5}  loadgen.late_p99_us {:.1}  loadgen.backlog_end {}",
        run.pacing.late_share(),
        run.pacing.late_p99_us(),
        run.backlog_end
    ));
    report.metric("write_amp", 1.0);
    check_conservation(
        &mut report,
        "service",
        &tally,
        &tally,
        GUARD_PROBES,
        &shards,
    );
    drop(shards);

    // As in `report_setups`: after the timed phase.
    let mut setups = vec![setup.as_secs_f64()];
    for _ in 1..SETUPS {
        let again = Warm::new(config)?;
        setups.push(again.setup.as_secs_f64());
        again.shut_down()?;
    }
    report.metric("setup_s", median(&mut setups));
    Ok(report)
}
