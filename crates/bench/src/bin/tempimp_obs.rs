//! `tempimp-obs` — offline analysis of the engine's JSONL event traces.
//!
//! ```text
//! tempimp-obs stats TRACE
//! tempimp-obs diff LEFT RIGHT
//! tempimp-obs series TRACE KIND FIELD [key=value ...]
//! tempimp-obs object TRACE ID
//! tempimp-obs golden [OUT]
//! tempimp-obs verify-density TRACE FIGURE_CSV [--gib N] [--policy N]
//! tempimp-obs serve-top [--shards N] [--clients N] [--frames N]
//!                       [--interval-ms N] [--slow-ms N] [--from FILE]
//! ```
//!
//! * `stats` — per-kind event counts with first/last simulated minute.
//! * `diff` — locates the first divergence between two traces (the
//!   determinism smoke test: two runs of the same seeded workload must
//!   report zero divergence). Exits non-zero when the traces differ.
//! * `series` — extracts `(t_minutes, FIELD)` points from every `KIND`
//!   event matching the `key=value` filters, as CSV on stdout.
//! * `object` — reconstructs one object's lifecycle (store, breakpoints,
//!   eviction) from its `id` field.
//! * `golden` — replays [`bench_harness::golden`] (the exact workload
//!   pinned by `tests/golden_trace.rs`) and writes its trace.
//! * `verify-density` — recomputes Figure 6's monthly mean density from
//!   the daily parts-per-million series (either a JSONL trace's
//!   `density.sample` events or a `repro --series` CSV dump) and checks
//!   it against the figure's CSV (`results/fig6_*.csv` or a fresh
//!   `--json` dump), closing the loop trace → analysis → paper artifact.
//! * `serve-top` — a refreshing per-shard live view of a `tempimpd`
//!   service: spins one up in-process, drives it from client threads with
//!   `bench_stack`'s request stream at 1/50 size, and renders the
//!   `health` verb's aggregate (queue depth, residents, request rate,
//!   per-verb queue-wait/service percentiles) plus a slow-request log
//!   each frame. `--from FILE` instead replays the
//!   frames of a `bench_serve --snapshots` capture. Under
//!   `--features obs-off` the view still runs; every latency column
//!   honestly reads `n/a`.
//!
//! Parsing, diffing, and extraction live in [`obs::tracefile`]; frame
//! rendering and the slow-request log live in [`bench_harness::servetop`];
//! this binary is argument handling and I/O.

use std::process::ExitCode;

use bench_harness::stream::{Scale, Stream, Tally};
use obs::tracefile::{self, TraceEvent};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("series") => cmd_series(&args[1..]),
        Some("object") => cmd_object(&args[1..]),
        Some("golden") => cmd_golden(&args[1..]),
        Some("verify-density") => cmd_verify_density(&args[1..]),
        Some("serve-top") => cmd_serve_top(&args[1..]),
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: tempimp-obs stats TRACE
       tempimp-obs diff LEFT RIGHT
       tempimp-obs series TRACE KIND FIELD [key=value ...]
       tempimp-obs object TRACE ID
       tempimp-obs golden [OUT]
       tempimp-obs verify-density TRACE FIGURE_CSV [--gib N] [--policy N]
       tempimp-obs serve-top [--shards N] [--clients N] [--frames N] \\
                             [--interval-ms N] [--slow-ms N] [--from FILE]";

/// Reads and parses a trace file, mapping errors to readable messages.
fn load_trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace '{path}': {e}"))?;
    tracefile::parse_jsonl(&text).map_err(|(line, e)| format!("{path}:{line}: {e}"))
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err("stats needs exactly one TRACE argument".into());
    };
    let events = load_trace(path)?;
    println!("{} events", events.len());
    for (kind, stats) in tracefile::stats(&events) {
        println!(
            "  {kind:<24} {:>8}  first t={}m  last t={}m",
            stats.count, stats.first_t, stats.last_t
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let [left_path, right_path] = args else {
        return Err("diff needs exactly two trace arguments".into());
    };
    let left = std::fs::read_to_string(left_path)
        .map_err(|e| format!("cannot read trace '{left_path}': {e}"))?;
    let right = std::fs::read_to_string(right_path)
        .map_err(|e| format!("cannot read trace '{right_path}': {e}"))?;
    match tracefile::first_divergence(&left, &right) {
        None => {
            println!("traces are identical ({} lines)", left.lines().count());
            Ok(ExitCode::SUCCESS)
        }
        Some(divergence) => {
            println!("{divergence}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_series(args: &[String]) -> Result<ExitCode, String> {
    let [path, kind, field, filter_args @ ..] = args else {
        return Err("series needs TRACE KIND FIELD [key=value ...]".into());
    };
    let filters: Vec<(String, u64)> = filter_args
        .iter()
        .map(|pair| {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("filter '{pair}' is not key=value"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| format!("filter value in '{pair}' is not an integer"))?;
            Ok((key.to_string(), value))
        })
        .collect::<Result<_, String>>()?;
    let events = load_trace(path)?;
    let points = tracefile::extract_series(&events, kind, field, &filters);
    if points.is_empty() {
        return Err(format!("no '{kind}' events carry field '{field}'"));
    }
    println!("t_minutes,{field}");
    for (t, value) in points {
        println!("{t},{value}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_object(args: &[String]) -> Result<ExitCode, String> {
    let [path, id] = args else {
        return Err("object needs TRACE ID".into());
    };
    let id: u64 = id
        .parse()
        .map_err(|_| format!("invalid object id '{id}'"))?;
    let events = load_trace(path)?;
    let lifecycle = tracefile::object_events(&events, id);
    if lifecycle.is_empty() {
        return Err(format!("object {id} never appears in the trace"));
    }
    for event in &lifecycle {
        println!("{event}");
    }
    let born = lifecycle.first().expect("non-empty").t;
    let last = lifecycle.last().expect("non-empty").t;
    let fate = lifecycle
        .iter()
        .rev()
        .find(|e| e.kind == "engine.evict")
        .map(|e| match e.field("reason") {
            Some(0) => "preempted",
            Some(1) => "expired",
            Some(2) => "removed",
            _ => "evicted",
        })
        .unwrap_or("still resident at end of trace");
    println!(
        "object {id}: {} events over {} simulated minutes; {fate}",
        lifecycle.len(),
        last - born
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_golden(args: &[String]) -> Result<ExitCode, String> {
    let trace = bench_harness::golden::trace_run();
    if cfg!(feature = "obs-off") {
        return Err("this binary was built with obs-off; the golden trace is empty".into());
    }
    match args {
        [] => {
            print!("{trace}");
            Ok(ExitCode::SUCCESS)
        }
        [out] => {
            std::fs::write(out, &trace).map_err(|e| format!("cannot write '{out}': {e}"))?;
            eprintln!("wrote {} lines to {out}", trace.lines().count());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("golden takes at most one OUT argument".into()),
    }
}

/// Loads the daily density series, in parts-per-million, from either a
/// JSONL trace (the `density.sample` events matching `gib`/`policy`) or a
/// `repro --series` dump (`t_minutes,value` rows — the filters are baked
/// into which file was dumped).
fn load_ppm_series(path: &str, gib: u64, policy: u64) -> Result<Vec<(u64, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    if text.starts_with('{') {
        let events =
            tracefile::parse_jsonl(&text).map_err(|(line, e)| format!("{path}:{line}: {e}"))?;
        let filters = [("gib".to_string(), gib), ("policy".to_string(), policy)];
        let samples = tracefile::extract_series(&events, "density.sample", "density_ppm", &filters);
        if samples.is_empty() {
            return Err(format!(
                "no density.sample events for gib={gib} policy={policy} in '{path}'"
            ));
        }
        return Ok(samples);
    }
    let mut samples = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if index == 0 {
            if line != "t_minutes,value" {
                return Err(format!(
                    "'{path}' is neither a JSONL trace nor a series CSV (header '{line}')"
                ));
            }
            continue;
        }
        let parsed = line
            .split_once(',')
            .and_then(|(t, v)| Some((t.parse::<u64>().ok()?, v.parse::<u64>().ok()?)));
        let Some(point) = parsed else {
            return Err(format!("{path}:{}: malformed row '{line}'", index + 1));
        };
        samples.push(point);
    }
    if samples.is_empty() {
        return Err(format!("'{path}' has no data rows"));
    }
    Ok(samples)
}

/// Replays Figure 6's analysis — monthly [`bucket_mean`] over the daily
/// density series — from the trace's integer `density.sample` events and
/// compares against the figure's `day,density` CSV.
///
/// Tolerance: the CSV rounds to 4 decimals (±5e-5) and each trace sample
/// is rounded to parts-per-million (±5e-7), so agreement within 1.5e-4
/// means the trace and the figure describe the same run.
///
/// [`bucket_mean`]: analysis::TimeSeries::bucket_mean
fn cmd_verify_density(args: &[String]) -> Result<ExitCode, String> {
    let mut positional = Vec::new();
    let mut gib = 80u64;
    let mut policy = 1u64; // temporal-importance
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--gib" => {
                gib = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--gib needs an integer")?;
            }
            "--policy" => {
                policy = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--policy needs an integer")?;
            }
            other => positional.push(other.to_string()),
        }
    }
    let [trace_path, csv_path] = positional.as_slice() else {
        return Err("verify-density needs TRACE FIGURE_CSV [--gib N] [--policy N]".into());
    };

    let samples = load_ppm_series(trace_path, gib, policy)?;

    // Figure 6's pipeline: daily samples -> monthly bucket means keyed by
    // bucket start.
    let series: analysis::TimeSeries = samples
        .iter()
        .map(|&(t, ppm)| (sim_core::SimTime::from_minutes(t), ppm as f64 / 1_000_000.0))
        .collect();
    let month = sim_core::SimDuration::from_days(30);
    let expected: std::collections::BTreeMap<u64, f64> = series
        .bucket_mean(month)
        .into_iter()
        .map(|(at, mean)| (at.as_days(), mean))
        .collect();

    let csv = std::fs::read_to_string(csv_path)
        .map_err(|e| format!("cannot read figure CSV '{csv_path}': {e}"))?;
    let mut checked = 0usize;
    let mut worst: f64 = 0.0;
    for (index, line) in csv.lines().enumerate() {
        if index == 0 {
            if line != "day,density" {
                return Err(format!(
                    "'{csv_path}' is not a density figure CSV (header '{line}')"
                ));
            }
            continue;
        }
        let (day, density) = line
            .split_once(',')
            .ok_or_else(|| format!("{csv_path}:{}: malformed row '{line}'", index + 1))?;
        let day: u64 = day
            .parse()
            .map_err(|_| format!("{csv_path}:{}: bad day '{day}'", index + 1))?;
        let density: f64 = density
            .parse()
            .map_err(|_| format!("{csv_path}:{}: bad density '{density}'", index + 1))?;
        let Some(&from_trace) = expected.get(&day) else {
            return Err(format!(
                "figure CSV has day {day} but the trace's series does not"
            ));
        };
        let error = (from_trace - density).abs();
        worst = worst.max(error);
        if error > 1.5e-4 {
            println!("MISMATCH at day {day}: figure says {density:.4}, trace says {from_trace:.4}");
            return Ok(ExitCode::FAILURE);
        }
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("'{csv_path}' has no data rows"));
    }
    println!(
        "verified {checked} monthly density buckets against {} trace samples (max error {worst:.2e})",
        samples.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// `serve-top` — live per-shard telemetry view. Without `--from`, spins
/// up an in-process `tempimpd`, drives it from client threads with the
/// [`bench_harness::stream`] requests, and renders one frame per
/// `--interval-ms` from the `health` verb plus the slow-request log
/// (requests over `--slow-ms`). With `--from FILE`,
/// replays the frames of a `bench_serve --snapshots` capture instead.
fn cmd_serve_top(args: &[String]) -> Result<ExitCode, String> {
    use bench_harness::servetop::{render_frame, split_frames, tracing_compiled_in, SlowLog};
    use std::io::IsTerminal;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use temporal_importance::protocol::StoreApi;

    let mut shards: u32 = 4;
    let mut clients: Option<u32> = None;
    let mut frames: u32 = 10;
    let mut interval_ms: u64 = 500;
    let mut slow_ms: u64 = 5;
    let mut from: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or(format!("{flag} needs an integer"))
        };
        match arg.as_str() {
            "--shards" => shards = value("--shards")? as u32,
            "--clients" => clients = Some(value("--clients")? as u32),
            "--frames" => frames = value("--frames")? as u32,
            "--interval-ms" => interval_ms = value("--interval-ms")?,
            "--slow-ms" => slow_ms = value("--slow-ms")?,
            "--from" => {
                from = Some(
                    iter.next()
                        .ok_or("--from needs a capture file path")?
                        .clone(),
                );
            }
            other => return Err(format!("serve-top: unknown argument '{other}'")),
        }
    }
    if shards == 0 {
        return Err("serve-top needs at least one shard".into());
    }
    let clear_between = std::io::stdout().is_terminal();
    let clear = |out_frame: &str| {
        if clear_between {
            // Home + clear-to-end keeps scrollback usable, unlike 2J.
            print!("\x1b[H\x1b[J{out_frame}");
        } else {
            println!("{out_frame}");
        }
    };

    // Replay mode: the capture already contains rendered frames.
    if let Some(path) = from {
        let capture = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read capture '{path}': {e}"))?;
        let frames = split_frames(&capture);
        if frames.is_empty() {
            return Err(format!("'{path}' holds no serve-top frames"));
        }
        for (index, frame) in frames.iter().enumerate() {
            if index > 0 && clear_between {
                std::thread::sleep(Duration::from_millis(interval_ms));
            }
            clear(frame);
        }
        println!("replayed {} frames from {path}", frames.len());
        return Ok(ExitCode::SUCCESS);
    }

    if !tracing_compiled_in() {
        println!("note: built with obs-off — latency columns and the slow log will read n/a/none");
    }

    // Live mode: an in-process service under the bench_stack stream, sized
    // for it at 1/50. The slow log, the only observer, listens for the
    // workers' `serve.slow` events.
    let slow_log = Arc::new(SlowLog::new(64));
    let service = tempimpd::Tempimpd::builder()
        .shards(shards)
        .shard_capacity(Scale::CHECK.shard_capacity(shards))
        .slow_threshold(Duration::from_millis(slow_ms))
        .observer(sim_core::Obs::attached(slow_log.clone()))
        .spawn();
    let clients = clients.unwrap_or(shards * 2).max(1);
    let stop = Arc::new(AtomicBool::new(false));
    let mut drivers = Vec::new();
    for index in 0..clients {
        let client = service.client();
        let stop = stop.clone();
        let stream = Stream::new(experiments::DEFAULT_SEED, index, clients, Scale::CHECK);
        drivers.push(std::thread::spawn(move || {
            drive_load(client, stream, &stop)
        }));
    }

    let mut monitor = service.client();
    let started = Instant::now();
    let mut prev: Option<(tempimpd::HealthSnapshot, Duration)> = None;
    for _ in 0..frames {
        std::thread::sleep(Duration::from_millis(interval_ms));
        let health = monitor
            .health(sim_core::SimTime::ZERO)
            .map_err(|e| format!("health probe failed: {e:?}"))?;
        let elapsed = started.elapsed();
        let mut frame = render_frame(
            &health,
            elapsed,
            prev.as_ref().map(|(snapshot, at)| (snapshot, *at)),
        );
        frame.push_str(&slow_log.render_tail(8));
        clear(&frame);
        prev = Some((health, elapsed));
    }

    stop.store(true, Ordering::Relaxed);
    let mut driven = Tally::default();
    for driver in drivers {
        driven.absorb(&driver.join().expect("serve-top load thread panicked"));
    }
    drop(monitor);
    service.shutdown().expect_clean();
    println!(
        "serve-top: {frames} frames over {clients} clients, {} ops driven \
         ({:.0}% of puts accepted, {:.0}% of gets hit)",
        driven.ops,
        driven.put_accept_share() * 100.0,
        driven.get_hit_share() * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

/// One serve-top load thread: `stream`'s requests, pipelined, until the
/// view stops it. Returns what the replies added up to.
fn drive_load(
    client: tempimpd::ServeClient,
    mut stream: Stream,
    stop: &std::sync::atomic::AtomicBool,
) -> Tally {
    use std::sync::atomic::Ordering;
    use temporal_importance::protocol::VerbKind;

    const WINDOW: usize = 64;
    let mut tally = Tally::default();
    let mut inflight: std::collections::VecDeque<(VerbKind, tempimpd::Pending)> =
        std::collections::VecDeque::with_capacity(WINDOW);
    while !stop.load(Ordering::Relaxed) {
        if inflight.len() >= WINDOW {
            let (verb, oldest) = inflight.pop_front().expect("window is non-empty");
            tally.settle(verb, &oldest.wait());
        }
        let (at, request) = stream.next();
        let verb = VerbKind::of(&request);
        match client.submit(at, request) {
            Ok(pending) => inflight.push_back((verb, pending)),
            Err(_) => break,
        }
    }
    for (verb, pending) in inflight {
        tally.settle(verb, &pending.wait());
    }
    tally
}
