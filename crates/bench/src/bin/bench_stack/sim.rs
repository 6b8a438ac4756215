//! `sim_university`: the §5.3 university-wide simulation, as the
//! paper-reproduction user runs it (`figures::sec53`), plus the same
//! placement loop re-driven from here through the public `Besteffs` API so
//! that single placements can be timed.

use std::time::{Duration, Instant};

use besteffs::{Besteffs, PlacementError};
use experiments::figures;
use experiments::university::{ClassOutcome, UniversityRunConfig};
use rand::rngs::StdRng;
use sim_core::{rng, SimTime};
use temporal_importance::ObjectIdGen;
use workload::university::{UniversityCapture, UniversityConfig};
use workload::CLASS_UNIVERSITY;

use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, Windowed};
use crate::stream::Scale;
use crate::{Config, DEFAULT_SEED, SETUPS, WINDOWS};

const YEARS: u64 = 2;
/// The capacity whose run is re-driven (the pressured one of the two).
const REDRIVEN_GIB: u64 = 80;

/// `repro`'s scale-down factor for §5.3 (200 nodes); `--check` runs 10.
fn sim_scale(scale: Scale) -> usize {
    if scale == Scale::FULL {
        10
    } else {
        200
    }
}

/// The `sec53` block of the committed `repro_output.txt`.
const SEC53_AT_DEFAULT_SEED: &str = "\
== sec53 — University-wide capture on Besteffs (summary, §5.3) ==

-- cluster summary --
per-node  nodes  offered TB  capacity TB  pressure  univ accept  student accept  direct stores  mean probes  final density
--------------------------------------------------------------------------------------------------------------------------
80 GiB    200    33.8        17.2         1.97      1.000        0.912           0.856          5.2          0.725
120 GiB   200    33.8        25.8         1.31      1.000        1.000           1.000          1.1          0.549

notes:
  * 80 GiB nodes: student acceptance 0.91 stays below university 1.00 — 'the available storage to student cameras remains small'
  * same annotations, more storage → better student persistence (no parameter change needed)
  * run at 1/10 scale (courses and nodes both scaled; demand/capacity ratio preserved)
";

fn workload_config(run: &UniversityRunConfig) -> UniversityConfig {
    UniversityConfig {
        seed: run.seed,
        ..UniversityConfig::default()
    }
    .scaled_down(run.scale)
}

fn build_cluster(run: &UniversityRunConfig) -> (Besteffs, StdRng) {
    let mut rand: StdRng = rng::stream(run.seed, "university-placement");
    let cluster = Besteffs::builder(run.nodes, run.node_capacity)
        .placement(run.placement)
        .build(&mut rand);
    (cluster, rand)
}

/// What a run needs before its first placement, done once for each of
/// the two capacities: wire the cluster's overlay and generate the whole
/// capture stream. Returns (build, generate, arrivals per run).
fn set_up(seed: u64, scale: usize) -> (Duration, Duration, u64) {
    let mut build = Duration::ZERO;
    let mut generate = Duration::ZERO;
    let mut arrivals = 0;
    for capacity in [80, 120] {
        let run = UniversityRunConfig::paper(seed, capacity, scale);
        let started = Instant::now();
        std::hint::black_box(build_cluster(&run));
        build += started.elapsed();
        let started = Instant::now();
        arrivals = UniversityCapture::new(workload_config(&run), YEARS).count() as u64;
        generate += started.elapsed();
    }
    (build, generate, arrivals)
}

/// The outcome of re-driving `university::run`'s loop for one capacity.
pub struct Redriven {
    pub elapsed: Duration,
    pub arrivals: u64,
    pub placed: u64,
    pub probes: u64,
    pub place_ns: Windowed,
    pub ticks: u64,
    /// The row `sec53` renders for this capacity, cell by cell.
    pub row: Vec<String>,
}

/// `experiments::university::run`, step for step, with a clock around
/// every `place` and every density tick (and spans, when tracing).
pub fn redrive(seed: u64, scale: usize, arrivals: u64, mut spans: Option<&mut Spans>) -> Redriven {
    let run = UniversityRunConfig::paper(seed, REDRIVEN_GIB, scale);
    let started = Instant::now();
    let (mut cluster, mut rand) = build_cluster(&run);
    let mut ids = ObjectIdGen::new();
    let mut university = ClassOutcome::default();
    let mut student = ClassOutcome::default();
    let mut next_sample = SimTime::ZERO;
    let mut final_density = 0.0;
    let mut offered_bytes = 0u64;
    let mut probes = 0u64;
    let mut place_ns = Windowed::default();
    let mut ticks = 0u64;
    let per_window = arrivals.div_ceil(WINDOWS as u64).max(1);

    let mut capture = UniversityCapture::new(workload_config(&run), YEARS);
    let mut index = 0u64;
    loop {
        let asked = Instant::now();
        let Some(arrival) = capture.next() else { break };
        let generated = Instant::now();
        while next_sample <= arrival.at {
            let tick = Instant::now();
            cluster.advance(next_sample);
            let advanced = Instant::now();
            final_density = cluster.observe_density(next_sample);
            let observed = Instant::now();
            ticks += 1;
            if let Some(spans) = spans.as_deref_mut() {
                let (t0, t1, t2) = (spans.at(tick), spans.at(advanced), spans.at(observed));
                let root = spans.root("tick", t0, t2, index);
                spans.child("besteffs.advance", t0, t1, root);
                spans.child("besteffs.observe_density", t1, t2, root);
            }
            next_sample += run.sample_every;
        }
        offered_bytes += arrival.size.as_bytes();
        let (at, size, class) = (arrival.at, arrival.size, arrival.class);
        let spec = arrival.into_spec(&mut ids);
        let stats = if class == CLASS_UNIVERSITY {
            &mut university
        } else {
            &mut student
        };
        stats.offered += 1;
        let before = Instant::now();
        let outcome = cluster.place(spec, at, &mut rand);
        let after = Instant::now();
        place_ns.record(
            (index / per_window) as usize,
            (after - before).as_nanos() as u64,
        );
        match outcome {
            Ok(placed) => {
                stats.placed += 1;
                stats.bytes_placed += size.as_bytes();
                probes += placed.probed as u64;
            }
            Err(PlacementError::ClusterFull { .. }) => stats.rejected += 1,
            Err(error) => panic!("unexpected placement error: {error}"),
        }
        if let Some(spans) = spans.as_deref_mut() {
            let (t0, t1) = (spans.at(asked), spans.at(generated));
            let (t2, t3) = (spans.at(before), spans.at(after));
            let root = spans.root("op", t0, t3, index);
            spans.child("workload.university.next", t0, t1, root);
            spans.child("besteffs.place", t2, t3, root);
        }
        index += 1;
    }

    let cluster_stats = *cluster.stats();
    let placed = cluster_stats.placed;
    let capacity_bytes = cluster.capacity().as_bytes();
    let cell = |value: f64, digits: usize| format!("{value:.digits$}");
    Redriven {
        elapsed: started.elapsed(),
        arrivals: index,
        placed,
        probes,
        place_ns,
        ticks,
        row: vec![
            REDRIVEN_GIB.to_string(),
            "GiB".into(),
            run.nodes.to_string(),
            cell(offered_bytes as f64 / 1e12, 1),
            cell(capacity_bytes as f64 / 1e12, 1),
            cell(offered_bytes as f64 / capacity_bytes as f64, 2),
            cell(university.acceptance(), 3),
            cell(student.acceptance(), 3),
            cell(cluster_stats.direct_stores as f64 / placed.max(1) as f64, 3),
            cell(probes as f64 / placed.max(1) as f64, 1),
            cell(final_density, 3),
        ],
    }
}

/// Checks the re-driven run against the row `sec53` rendered, and at the
/// default seed the whole render against the committed one.
fn check_render(report: &mut Report, config: &Config, render: &str, redriven: &Redriven) {
    let rendered_row: Vec<&str> = render
        .lines()
        .find(|line| line.starts_with(&format!("{REDRIVEN_GIB} GiB")))
        .map(|line| line.split_whitespace().collect())
        .unwrap_or_default();
    report.check(
        format!("the re-driven {REDRIVEN_GIB} GiB run reproduces the row sec53 rendered"),
        rendered_row == redriven.row,
    );
    if config.seed == DEFAULT_SEED && config.scale == Scale::FULL {
        report.check(
            "sec53 renders byte-identically to the committed repro_output.txt block",
            render == SEC53_AT_DEFAULT_SEED,
        );
    }
}

pub fn run(config: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let scale = sim_scale(config.scale);
    let mut setups = Vec::new();
    let mut arrivals = 0;
    // A set-up here takes tens of milliseconds, so it is repeated more.
    for _ in 0..3 * SETUPS {
        let (build, generate, count) = set_up(config.seed, scale);
        setups.push((build + generate).as_secs_f64());
        arrivals = count;
    }

    let started = Instant::now();
    let figure = figures::sec53(config.seed, YEARS, scale);
    let sim = started.elapsed();
    let render = figure.to_string();

    let mut redriven = redrive(config.seed, scale, arrivals, None);
    check_render(&mut report, config, &render, &redriven);
    report.check(
        format!("both capacities were offered the {arrivals} generated arrivals"),
        redriven.arrivals == arrivals,
    );

    report.absorb_counts(2 * arrivals + redriven.arrivals, 0);
    report.metric("setup_s", median(&mut setups));
    report.note(format!(
        "sim_s {:.4} s for sec53(seed, {YEARS}, {scale}): two {}-node runs, {} placements",
        sim.as_secs_f64(),
        2000 / scale,
        2 * arrivals
    ));
    report.metric("ops_per_s", (2 * arrivals) as f64 / sim.as_secs_f64());
    report.note(format!(
        "latency: one `Besteffs::place` in the re-driven {REDRIVEN_GIB} GiB run, n = {}",
        redriven.place_ns.count()
    ));
    report.note(format!(
        "lat_p50_us {:.3} (all samples)  lat_p99_us {:.3} (p99 of each fifth of the run, median fifth)",
        redriven.place_ns.overall(0.5) as f64 / 1e3,
        redriven.place_ns.median_of_windows(0.99) / 1e3
    ));
    report.metric("write_amp", 1.0);
    report.metric("peak_rss_mib", crate::host::peak_rss_mib());
    Ok(report)
}

/// The traced part: the re-driven loop without and with spans. Returns
/// the tracing overhead.
pub fn traced(report: &mut Report, config: &Config, spans: &mut Spans) -> Result<f64, String> {
    let scale = sim_scale(config.scale);
    let (build, generate, arrivals) = set_up(config.seed, scale);
    let plain = redrive(config.seed, scale, arrivals, None);
    let first_span = spans.len();
    let mut with_spans = redrive(config.seed, scale, arrivals, Some(spans));
    report.check(
        "the re-driven run renders the same row traced and untraced",
        plain.row == with_spans.row,
    );
    report.absorb_counts(plain.arrivals + with_spans.arrivals, 0);

    let totals = spans.totals_since(first_span);
    let mean_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_ns() / 1e3);
    report.metric("workload.university.gen_s", generate.as_secs_f64() / 2.0);
    report.metric("besteffs.build_s", build.as_secs_f64() / 2.0);
    report.metric("besteffs.place_us", mean_us("besteffs.place"));
    report.metric(
        "besteffs.place_p99_us",
        with_spans.place_ns.median_of_windows(0.99) / 1e3,
    );
    report.metric(
        "besteffs.advance_ms",
        (mean_us("besteffs.advance") + mean_us("besteffs.observe_density")) / 1e3,
    );
    report.metric(
        "besteffs.probes_per_place",
        with_spans.probes as f64 / with_spans.placed.max(1) as f64,
    );
    report.metric(
        "besteffs.accept_share",
        with_spans.placed as f64 / with_spans.arrivals.max(1) as f64,
    );
    report.note(format!(
        "re-driven {REDRIVEN_GIB} GiB run at {}: {:.3} s untraced, {:.3} s traced, {} density ticks",
        config.scale.label(),
        plain.elapsed.as_secs_f64(),
        with_spans.elapsed.as_secs_f64(),
        with_spans.ticks
    ));
    Ok(with_spans.elapsed.as_secs_f64() / plain.elapsed.as_secs_f64() - 1.0)
}
