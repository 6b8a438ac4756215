//! One function per paper table/figure, each returning a printable
//! [`FigureReport`] with the same rows/series the paper plots.

use std::collections::BTreeMap;
use std::fmt;

use analysis::report::{fmt_f64, Table};
use analysis::{TimeConstantEstimator, TimeSeries};
use sim_core::{ByteSize, SimDuration, SimTime};
use workload::calendar::Term;
use workload::downloads::DownloadModel;
use workload::ramp::RampedArrivals;
use workload::{CLASS_STUDENT, CLASS_UNIVERSITY};

use crate::ablation::{decay_ablation, placement_ablation};
use crate::availability;
use crate::lecture::{self, LectureRunConfig};
use crate::single_class::{self, PolicyChoice, SingleClassConfig, SingleClassResult};
use crate::university::{self, UniversityRunConfig};

/// A regenerated paper artifact: tables plus interpretation notes.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Short id, e.g. `"fig3"`.
    pub id: &'static str,
    /// Human title matching the paper caption.
    pub title: String,
    /// Named tables (a figure with two subplots gets two tables).
    pub tables: Vec<(String, Table)>,
    /// Shape observations to compare against the paper.
    pub notes: Vec<String>,
}

impl fmt::Display for FigureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        for (name, table) in &self.tables {
            writeln!(f, "\n-- {name} --")?;
            f.write_str(&table.render())?;
        }
        if !self.notes.is_empty() {
            writeln!(f, "\nnotes:")?;
            for note in &self.notes {
                writeln!(f, "  * {note}")?;
            }
        }
        Ok(())
    }
}

const CAPACITIES_GIB: [u64; 2] = [80, 120];
const MONTH: SimDuration = SimDuration::from_days(30);

/// Merges several bucketed series into one table keyed by bucket start
/// (days); missing cells render as `-`.
fn merged_table(
    key_header: &str,
    columns: Vec<(String, Vec<(SimTime, f64)>)>,
    digits: usize,
) -> Table {
    let mut headers = vec![key_header.to_string()];
    headers.extend(columns.iter().map(|(name, _)| name.clone()));
    let mut table = Table::new(headers);

    let mut keys: Vec<SimTime> = columns
        .iter()
        .flat_map(|(_, points)| points.iter().map(|&(t, _)| t))
        .collect();
    keys.sort();
    keys.dedup();

    let maps: Vec<BTreeMap<SimTime, f64>> = columns
        .into_iter()
        .map(|(_, points)| points.into_iter().collect())
        .collect();

    for key in keys {
        let mut row = vec![key.as_days().to_string()];
        for map in &maps {
            row.push(
                map.get(&key)
                    .map(|v| fmt_f64(*v, digits))
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        table.row(row);
    }
    table
}

/// Figure 2: storage requirements over one year of §5.1 arrivals.
pub fn fig2(seed: u64) -> FigureReport {
    let _span = observe_figure("fig2");
    let gen = RampedArrivals::paper(seed);
    let mut sampled = TimeSeries::new();
    let mut acc = 0.0;
    for (at, size) in ramp_arrivals(seed, 365) {
        acc += size.as_gib_f64();
        sampled.push(at, acc);
    }

    let mut table = Table::new(vec!["day", "cumulative GiB", "expected GiB"]);
    for day in (30..=360).step_by(30) {
        let at = SimTime::from_days(day);
        let observed = sampled.value_at(at).unwrap_or(0.0);
        let expected = gen.expected_volume_by(at).as_gib_f64();
        table.row(vec![
            day.to_string(),
            fmt_f64(observed, 1),
            fmt_f64(expected, 1),
        ]);
    }
    let year_total = sampled.values().last().copied().unwrap_or(0.0);
    FigureReport {
        id: "fig2",
        title: "Sizes of objects offered for storage (cumulative, year 1)".into(),
        tables: vec![("storage requirement".into(), table)],
        notes: vec![
            format!("year-one demand: {year_total:.0} GiB — far beyond an 80/120 GiB disk"),
            "quarterly rate ramp 0.5 → 0.7 → 1.0 → 1.3 GB/hr is visible as increasing slope".into(),
        ],
    }
}

/// Runs the three §5.1 policy simulations in parallel (they are
/// independent).
fn policy_runs(seed: u64, days: u64, capacity_gib: u64) -> Vec<(String, SingleClassResult)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = PolicyChoice::ALL
            .into_iter()
            .map(|policy| {
                scope.spawn(move || {
                    let mut cfg = SingleClassConfig::paper(seed, capacity_gib, policy);
                    cfg.days = days;
                    (policy.label().to_string(), single_class::run(cfg))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("policy simulation panicked"))
            .collect()
    })
}

/// Figure 3: lifetimes achieved (monthly mean, days) under the three
/// policies, at 80 and 120 GiB.
pub fn fig3(seed: u64, days: u64) -> FigureReport {
    let _span = observe_figure("fig3");
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for capacity in CAPACITIES_GIB {
        let runs = policy_runs(seed, days, capacity);
        let columns: Vec<_> = runs
            .iter()
            .map(|(name, r)| (name.clone(), r.lifetime_series().bucket_mean(MONTH)))
            .collect();
        // Note the ordering the paper calls out in the Figure 3 caption.
        let means: BTreeMap<String, f64> = columns
            .iter()
            .filter_map(|(name, pts)| {
                let vals: Vec<f64> = pts.iter().map(|&(_, v)| v).collect();
                analysis::Summary::from_slice(&vals).map(|s| (name.clone(), s.mean))
            })
            .collect();
        if let (Some(no_imp), Some(temporal)) = (
            means.get(PolicyChoice::NoImportance.label()),
            means.get(PolicyChoice::TemporalImportance.label()),
        ) {
            notes.push(format!(
                "{capacity} GiB: mean lifetime no-importance {no_imp:.1} d ≥ temporal {temporal:.1} d (paper: no-importance on top)"
            ));
        }
        tables.push((
            format!("{capacity} GiB — mean lifetime achieved (days) by eviction month"),
            merged_table("day", columns, 1),
        ));
        tables.push((
            format!("{capacity} GiB — lifetime distribution (fraction of evictions)"),
            lifetime_histogram_table(&runs),
        ));
    }
    notes.push("series start once the disk first fills (~day 40), as in the paper".into());
    FigureReport {
        id: "fig3",
        title: "Lifetime achieved (measured at eviction)".into(),
        tables,
        notes,
    }
}

/// Figure 4: requests turned down because of full storage (monthly count).
pub fn fig4(seed: u64, days: u64) -> FigureReport {
    let _span = observe_figure("fig4");
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for capacity in CAPACITIES_GIB {
        let columns: Vec<_> = policy_runs(seed, days, capacity)
            .iter()
            .map(|(name, r)| (name.clone(), r.rejection_series().bucket_sum(MONTH)))
            .collect();
        let totals: Vec<(String, f64)> = columns
            .iter()
            .map(|(name, pts)| (name.clone(), pts.iter().map(|&(_, v)| v).sum()))
            .collect();
        notes.push(format!(
            "{capacity} GiB totals: {}",
            totals
                .iter()
                // `+ 0.0` normalizes the -0.0 an empty f64 sum yields.
                .map(|(n, t)| format!("{n}={:.0}", t + 0.0))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        tables.push((
            format!("{capacity} GiB — rejected requests per month"),
            merged_table("day", columns, 0),
        ));
    }
    notes.push("storage is never full for palimpsest (0 rejections)".into());
    FigureReport {
        id: "fig4",
        title: "Requests turned down because of full storage".into(),
        tables,
        notes,
    }
}

/// A 0–40-day lifetime histogram per policy, as fractions of evictions.
fn lifetime_histogram_table(runs: &[(String, SingleClassResult)]) -> Table {
    use analysis::Histogram;

    let per_policy: Vec<(String, Histogram)> = runs
        .iter()
        .map(|(name, result)| {
            let mut hist = Histogram::new(0.0, 40.0, 8).expect("valid spec");
            hist.record_all(result.lifetime_series().values());
            (name.clone(), hist)
        })
        .collect();

    let mut headers = vec!["lifetime (days)".to_string()];
    headers.extend(per_policy.iter().map(|(name, _)| name.clone()));
    let mut table = Table::new(headers);
    let bins = per_policy[0].1.counts().len();
    for bin in 0..bins {
        let (start, end) = per_policy[0].1.bin_range(bin);
        let mut row = vec![format!("{start:.0}-{end:.0}")];
        for (_, hist) in &per_policy {
            let total = hist.total().max(1) as f64;
            row.push(fmt_f64(hist.counts()[bin] as f64 / total, 3));
        }
        table.row(row);
    }
    table
}

/// The §5.1 arrival stream `(time, size)` over the first `days` — what a
/// Palimpsest time-constant estimator sees, whatever policy stores it.
fn ramp_arrivals(seed: u64, days: u64) -> Vec<(SimTime, ByteSize)> {
    let horizon = SimTime::from_days(days);
    RampedArrivals::paper(seed)
        .take_while(|arrival| arrival.at < horizon)
        .map(|arrival| (arrival.at, arrival.size))
        .collect()
}

fn time_constant_table(
    arrivals: &[(SimTime, ByteSize)],
    capacity: ByteSize,
) -> (Table, Vec<String>) {
    let mut table = Table::new(vec![
        "window",
        "windows",
        "mean tau (d)",
        "cv",
        "het ratio (4 bands)",
        "dispersion r2",
    ]);
    let mut notes = Vec::new();
    let mut cvs: BTreeMap<&str, f64> = BTreeMap::new();
    for (label, window) in [
        ("hour", SimDuration::HOUR),
        ("day", SimDuration::DAY),
        ("month", MONTH),
    ] {
        let series =
            TimeConstantEstimator::new(capacity, window).estimate(arrivals.iter().copied());
        let summary = series.summary();
        let cv = series.coefficient_of_variation().unwrap_or(f64::NAN);
        cvs.insert(label, cv);
        table.row(vec![
            label.to_string(),
            series.points.len().to_string(),
            summary.map(|s| fmt_f64(s.mean, 1)).unwrap_or("-".into()),
            fmt_f64(cv, 3),
            series
                .heteroscedasticity_ratio(4)
                .map(|r| fmt_f64(r, 1))
                .unwrap_or("-".into()),
            series
                .dispersion_rate_r2()
                .map(|r| fmt_f64(r, 3))
                .unwrap_or("-".into()),
        ]);
    }
    if let (Some(h), Some(d), Some(m)) = (cvs.get("hour"), cvs.get("day"), cvs.get("month")) {
        notes.push(format!(
            "tau coefficient of variation: hour {h:.2}, day {d:.2}, month {m:.2}"
        ));
    }
    (table, notes)
}

/// Figure 5: the Palimpsest time constant analyzed every hour/day/month.
pub fn fig5(seed: u64, days: u64) -> FigureReport {
    let _span = observe_figure("fig5");
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    let arrivals = ramp_arrivals(seed, days);
    for capacity in CAPACITIES_GIB {
        let (table, mut n) = time_constant_table(&arrivals, ByteSize::from_gib(capacity));
        notes.append(&mut n);
        tables.push((format!("{capacity} GiB — time constant estimates"), table));
    }
    notes.push(
        "day-window variance depends on the arrival rate (heteroscedasticity, §5.1.2)".into(),
    );
    FigureReport {
        id: "fig5",
        title: "Palimpsest time constant (hour/day/month analysis windows)".into(),
        tables,
        notes,
    }
}

/// Figure 6: instantaneous storage importance density over time.
pub fn fig6(seed: u64, days: u64) -> FigureReport {
    let _span = observe_figure("fig6");
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for capacity in CAPACITIES_GIB {
        let mut cfg = SingleClassConfig::paper(seed, capacity, PolicyChoice::TemporalImportance);
        cfg.days = days;
        let result = single_class::run(cfg);
        let column = result.density.bucket_mean(MONTH);
        let peak = result.density.values().iter().copied().fold(0.0, f64::max);
        notes.push(format!("{capacity} GiB: peak density {peak:.4}"));
        tables.push((
            format!("{capacity} GiB — monthly mean importance density"),
            merged_table("day", vec![("density".into(), column)], 4),
        ));
    }
    notes.push("density rises with pressure; more storage keeps it lower (scalability)".into());
    FigureReport {
        id: "fig6",
        title: "Instantaneous storage importance density".into(),
        tables,
        notes,
    }
}

/// Figure 7: CDF of stored-byte importance at an instant when the density
/// is ≈0.8369.
pub fn fig7(seed: u64, days: u64) -> FigureReport {
    let _span = observe_figure("fig7");
    let mut cfg = SingleClassConfig::paper(seed, 80, PolicyChoice::TemporalImportance);
    cfg.days = days;
    cfg.snapshot_density = Some(0.8369);
    let result = single_class::run(cfg);

    let mut tables = Vec::new();
    let mut notes = Vec::new();
    match &result.snapshot {
        Some(snap) => {
            let mut table = Table::new(vec!["importance", "cumulative byte fraction"]);
            // Downsample the CDF to ≤20 printed steps.
            let cdf = snap.byte_cdf();
            let step = (cdf.len() / 20).max(1);
            for (i, (imp, frac)) in cdf.iter().enumerate() {
                if i % step == 0 || i + 1 == cdf.len() {
                    table.row(vec![fmt_f64(imp.value(), 3), fmt_f64(*frac, 3)]);
                }
            }
            notes.push(format!("snapshot density: {:.4}", snap.density));
            notes.push(format!(
                "fraction of bytes at importance 1.0: {:.2} (paper: 0.57)",
                snap.fraction_at_full()
            ));
            if let Some(min) = snap.min_stored_importance() {
                notes.push(format!(
                    "no stored byte below importance {:.2} — objects under it cannot be stored (paper: 0.25)",
                    min.value()
                ));
            }
            tables.push(("byte-importance CDF".into(), table));
        }
        None => notes.push("no instant matched the target density band in this run".into()),
    }
    FigureReport {
        id: "fig7",
        title: "Cumulative distribution of byte importance at density ≈ 0.8369".into(),
        tables,
        notes,
    }
}

/// Table 1: lifetimes for the lecture capture system.
pub fn table1() -> FigureReport {
    let _span = observe_figure("table1");
    let mut table = Table::new(vec![
        "term",
        "term begin (doy)",
        "t_persist (days)",
        "t_wane (days)",
    ]);
    for term in Term::ALL {
        table.row(vec![
            term.name().to_string(),
            term.begin_day().to_string(),
            format!("{} - today", term.end_day()),
            term.wane().as_days().to_string(),
        ]);
    }
    FigureReport {
        id: "table1",
        title: "Lifetimes for lecture capture system".into(),
        tables: vec![("Table 1".into(), table)],
        notes: vec!["student objects: 50% importance, same persist, 14-day wane (§5.2.1)".into()],
    }
}

/// Figure 8: number of lecture downloads per day (synthetic model).
pub fn fig8(seed: u64) -> FigureReport {
    let _span = observe_figure("fig8");
    let model = DownloadModel {
        seed,
        ..DownloadModel::default()
    };
    let trace = model.generate(140);
    let mut table = Table::new(vec!["week", "downloads"]);
    for (week, chunk) in trace.chunks(7).enumerate() {
        table.row(vec![
            week.to_string(),
            chunk.iter().sum::<u64>().to_string(),
        ]);
    }
    let peak_day = (0..trace.len()).max_by_key(|&d| trace[d]).unwrap();
    FigureReport {
        id: "fig8",
        title: "Lecture downloads per day (generative stand-in for the observed trace)".into(),
        tables: vec![("weekly download totals".into(), table)],
        notes: vec![
            format!("global peak on day {peak_day} — the slashdot event (paper: 'briefly slash-dotted')"),
            "surges align with exam weeks; interest decays after the semester".into(),
        ],
    }
}

/// Figure 9: lifetimes achieved in the lecture scenario, by creator class.
pub fn fig9(seed: u64, years: u64) -> FigureReport {
    let _span = observe_figure("fig9");
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for capacity in CAPACITIES_GIB {
        let mut cfg = LectureRunConfig::paper(seed, capacity);
        cfg.years = years;
        let result = lecture::run(cfg);
        let columns = vec![
            (
                "university".to_string(),
                result.lifetime_series(CLASS_UNIVERSITY).bucket_mean(MONTH),
            ),
            (
                "student".to_string(),
                result.lifetime_series(CLASS_STUDENT).bucket_mean(MONTH),
            ),
        ];
        let uni_mean = result
            .mean_lifetime_with_rejections(CLASS_UNIVERSITY)
            .unwrap_or(0.0);
        let student_mean = result
            .mean_lifetime_with_rejections(CLASS_STUDENT)
            .unwrap_or(0.0);
        notes.push(format!(
            "{capacity} GiB: mean lifetime (rejections as 0) university {uni_mean:.0} d, student {student_mean:.0} d; student rejections {}",
            result.rejections_for(CLASS_STUDENT)
        ));
        tables.push((
            format!("{capacity} GiB — mean lifetime achieved (days) by eviction month"),
            merged_table("day", columns, 1),
        ));
        // Lifetime distributions per class.
        let mut hist_table = Table::new(vec!["lifetime (days)", "university", "student"]);
        let mut uni_hist = analysis::Histogram::new(0.0, 1000.0, 10).expect("valid spec");
        uni_hist.record_all(result.lifetime_series(CLASS_UNIVERSITY).values());
        let mut student_hist = analysis::Histogram::new(0.0, 1000.0, 10).expect("valid spec");
        student_hist.record_all(result.lifetime_series(CLASS_STUDENT).values());
        for bin in 0..10 {
            let (start, end) = uni_hist.bin_range(bin);
            hist_table.row(vec![
                format!("{start:.0}-{end:.0}"),
                fmt_f64(
                    uni_hist.counts()[bin] as f64 / uni_hist.total().max(1) as f64,
                    3,
                ),
                fmt_f64(
                    student_hist.counts()[bin] as f64 / student_hist.total().max(1) as f64,
                    3,
                ),
            ]);
        }
        tables.push((
            format!("{capacity} GiB — lifetime distribution (fraction of evictions)"),
            hist_table,
        ));
    }
    notes.push("paper: university objects reach 200–400 d; students starve at 80 GB and gain ~70 d at 120 GB".into());
    FigureReport {
        id: "fig9",
        title: "Lifetime achieved, lecture capture (two-step importance)".into(),
        tables,
        notes,
    }
}

/// Figure 10: importance at reclamation for university objects.
pub fn fig10(seed: u64, years: u64) -> FigureReport {
    let _span = observe_figure("fig10");
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for capacity in CAPACITIES_GIB {
        let mut cfg = LectureRunConfig::paper(seed, capacity);
        cfg.years = years;
        let result = lecture::run(cfg);
        let series = result.reclamation_importance_series(CLASS_UNIVERSITY);
        let column = series.bucket_mean(MONTH);
        let max = series.values().iter().copied().fold(0.0, f64::max);
        let min = series.values().iter().copied().fold(1.0, f64::min);
        notes.push(format!(
            "{capacity} GiB: university eviction importance range [{min:.2}, {max:.2}]"
        ));
        tables.push((
            format!("{capacity} GiB — mean importance at reclamation by month"),
            merged_table("day", vec![("importance".into(), column)], 3),
        ));
    }
    // Palimpsest comparison: projected importance of FIFO victims.
    let mut cfg = LectureRunConfig::paper(seed, 80);
    cfg.years = years;
    cfg.palimpsest = true;
    let fifo = lecture::run(cfg);
    let projected = lecture::palimpsest_projected_importance(&fifo);
    let fifo_max = projected.values().iter().copied().fold(0.0, f64::max);
    notes.push(format!(
        "palimpsest (80 GiB): reclaims objects with projected importance up to {fifo_max:.2} — 'such behavior is not preferable'"
    ));
    tables.push((
        "80 GiB palimpsest — mean projected importance at reclamation".into(),
        merged_table(
            "day",
            vec![("importance".into(), projected.bucket_mean(MONTH))],
            3,
        ),
    ));
    FigureReport {
        id: "fig10",
        title: "Importance at reclamation for university created objects".into(),
        tables,
        notes,
    }
}

/// Figure 11: time constant in the lecture scenario.
pub fn fig11(seed: u64, years: u64) -> FigureReport {
    let _span = observe_figure("fig11");
    let mut cfg = LectureRunConfig::paper(seed, 80);
    cfg.years = years;
    let result = lecture::run(cfg);
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for capacity in CAPACITIES_GIB {
        let (table, mut n) = time_constant_table(&result.arrivals, ByteSize::from_gib(capacity));
        notes.append(&mut n);
        tables.push((format!("{capacity} GiB — time constant estimates"), table));
    }
    notes.push("term breaks make even month-window estimates unstable (§5.2.3)".into());
    FigureReport {
        id: "fig11",
        title: "Palimpsest time constant, lecture capture scenario".into(),
        tables,
        notes,
    }
}

/// Figure 12: storage importance density in the lecture scenario.
pub fn fig12(seed: u64, years: u64) -> FigureReport {
    let _span = observe_figure("fig12");
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for capacity in CAPACITIES_GIB {
        let mut cfg = LectureRunConfig::paper(seed, capacity);
        cfg.years = years;
        let result = lecture::run(cfg);
        let column = result.density.bucket_mean(MONTH);
        let summary = result.density.summary().expect("non-empty density series");
        notes.push(format!(
            "{capacity} GiB: density mean {:.3}, peak {:.3}",
            summary.mean, summary.max
        ));
        tables.push((
            format!("{capacity} GiB — monthly mean importance density"),
            merged_table("day", vec![("density".into(), column)], 4),
        ));
    }
    notes.push("as the storage pressure eases (120 GiB), more objects are retained and the average importance density is lower".into());
    FigureReport {
        id: "fig12",
        title: "Instantaneous storage importance density, lecture scenario".into(),
        tables,
        notes,
    }
}

/// §5.3: the university-wide capture summary.
pub fn sec53(seed: u64, years: u64, scale: usize) -> FigureReport {
    let _span = observe_figure("sec53");
    let mut table = Table::new(vec![
        "per-node",
        "nodes",
        "offered TB",
        "capacity TB",
        "pressure",
        "univ accept",
        "student accept",
        "direct stores",
        "mean probes",
        "final density",
    ]);
    let mut notes = Vec::new();
    for capacity in CAPACITIES_GIB {
        let mut cfg = UniversityRunConfig::paper(seed, capacity, scale);
        cfg.years = years;
        let result = university::run(cfg);
        let final_density = result.density.values().last().copied().unwrap_or(0.0);
        let direct =
            result.cluster_stats.direct_stores as f64 / result.cluster_stats.placed.max(1) as f64;
        table.row(vec![
            format!("{capacity} GiB"),
            result.config.nodes.to_string(),
            fmt_f64(result.offered_bytes as f64 / 1e12, 1),
            fmt_f64(result.capacity_bytes as f64 / 1e12, 1),
            fmt_f64(result.pressure(), 2),
            fmt_f64(result.university.acceptance(), 3),
            fmt_f64(result.student.acceptance(), 3),
            fmt_f64(direct, 3),
            fmt_f64(result.mean_probes, 1),
            fmt_f64(final_density, 3),
        ]);
        if capacity == 80 {
            notes.push(format!(
                "80 GiB nodes: student acceptance {:.2} stays below university {:.2} — 'the available storage to student cameras remains small'",
                result.student.acceptance(),
                result.university.acceptance()
            ));
        }
    }
    notes.push(
        "same annotations, more storage → better student persistence (no parameter change needed)"
            .into(),
    );
    if scale > 1 {
        notes.push(format!(
            "run at 1/{scale} scale (courses and nodes both scaled; demand/capacity ratio preserved)"
        ));
    }
    FigureReport {
        id: "sec53",
        title: "University-wide capture on Besteffs (summary, §5.3)".into(),
        tables: vec![("cluster summary".into(), table)],
        notes,
    }
}

/// Beyond-paper: the §5.3 deployment under desktop churn.
///
/// Replays the university workload while seeded availability schedules
/// fail and rejoin nodes, at 0/1/5/10% daily churn. Reports loss rate,
/// delivered density, live fraction, and placement retry inflation.
pub fn availability(seed: u64, years: u64, scale: usize) -> FigureReport {
    let _span = observe_figure("availability");
    const DAILY_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.10];
    let mut table = Table::new(vec![
        "daily churn",
        "failures",
        "rejoins",
        "placed",
        "lost",
        "loss rate",
        "entries purged",
        "surviving names",
        "min live frac",
        "mean density",
        "mean probes",
    ]);
    let mut density_columns = Vec::new();
    let mut notes = Vec::new();
    let mut baseline_probes = 1.0;
    for rate in DAILY_RATES {
        let mut config = availability::AvailabilityRunConfig::daily_churn(seed, 80, scale, rate);
        config.base.years = years;
        let result = availability::run(config);
        table.row(vec![
            format!("{:.0}%", rate * 100.0),
            result.cluster_stats.failed_nodes.to_string(),
            result.cluster_stats.rejoined_nodes.to_string(),
            result.cluster_stats.placed.to_string(),
            result.cluster_stats.objects_lost.to_string(),
            fmt_f64(result.loss_rate(), 4),
            result.cluster_stats.directory_entries_purged.to_string(),
            result.surviving_names.to_string(),
            fmt_f64(result.min_live_fraction(), 3),
            fmt_f64(result.mean_density(), 3),
            fmt_f64(result.mean_probes, 2),
        ]);
        density_columns.push((
            format!("{:.0}%/day", rate * 100.0),
            result.density.bucket_mean(MONTH),
        ));
        if rate == 0.0 {
            baseline_probes = result.mean_probes.max(1.0);
        } else {
            notes.push(format!(
                "{:.0}% daily churn: loss rate {:.4}, probe inflation {:.2}x over the always-up baseline",
                rate * 100.0,
                result.loss_rate(),
                result.mean_probes / baseline_probes
            ));
        }
    }
    notes.push(
        "losses are proportional to resident time under memoryless churn; the directory purge            keeps surviving names consistent with resident objects at every epoch"
            .into(),
    );
    FigureReport {
        id: "availability",
        title: "Availability under churn (beyond-paper, 80 GiB nodes)".into(),
        tables: vec![
            ("churn summary".into(), table),
            (
                "monthly mean delivered density by churn level".into(),
                merged_table("day", density_columns, 4),
            ),
        ],
        notes,
    }
}

/// Decay-shape ablation (§3's open choice of wane function).
pub fn ablate_decay(seed: u64, days: u64) -> FigureReport {
    let _span = observe_figure("ablate_decay");
    let rows = decay_ablation(seed, ByteSize::from_gib(80), days);
    let mut table = Table::new(vec![
        "shape",
        "rejections",
        "evictions",
        "mean lifetime (d)",
    ]);
    for row in &rows {
        table.row(vec![
            row.shape.label().to_string(),
            row.rejections.to_string(),
            row.evictions.to_string(),
            fmt_f64(row.mean_lifetime_days, 1),
        ]);
    }
    FigureReport {
        id: "ablate-decay",
        title: "Ablation: wane shape (linear vs exponential vs step)".into(),
        tables: vec![(
            "80 GiB, §5.1 workload interleaved with a 0.5-importance competitor class".into(),
            table,
        )],
        notes: vec![
            "homogeneous workloads are shape-invariant (the engine consumes only the importance              ordering, which age determines for any monotone wane); shape matters against              competing importance levels"
                .into(),
            "exponential wane crosses the 0.5 competitor sooner than linear, so its objects              are reclaimed earlier"
                .into(),
            "the hard step never wanes below 0.5: its objects keep full lifetimes but the              shaped class starts rejecting instead"
                .into(),
        ],
    }
}

/// Placement-parameter ablation (§5.3's x and m).
pub fn ablate_placement(seed: u64) -> FigureReport {
    let _span = observe_figure("ablate_placement");
    let sweep = [(1, 1), (2, 1), (4, 1), (8, 1), (8, 3), (16, 3)];
    let rows = placement_ablation(seed, 60, &sweep);
    let mut table = Table::new(vec![
        "x (candidates)",
        "m (tries)",
        "mean victim importance",
        "rejected",
    ]);
    for row in &rows {
        table.row(vec![
            row.candidates.to_string(),
            row.tries.to_string(),
            fmt_f64(row.mean_victim_importance, 3),
            row.rejected.to_string(),
        ]);
    }
    FigureReport {
        id: "ablate-placement",
        title: "Ablation: placement sampling width (x candidates, m tries)".into(),
        tables: vec![("60-node cluster, mixed-importance fill".into(), table)],
        notes: vec!["wider sampling finds less important victims to preempt".into()],
    }
}

/// §6 extension: the sensor node's trigger-driven importance lifecycle.
pub fn sec6_sensor(seed: u64) -> FigureReport {
    let _span = observe_figure("sec6_sensor");
    use crate::sensor::{self, SensorRunConfig};
    use workload::sensor::SensorConfig;

    let base = SensorRunConfig {
        sensor: SensorConfig {
            seed,
            ..SensorConfig::default()
        },
        ..SensorRunConfig::default()
    };
    let outage_start = SimTime::from_days(5);
    let outage = SensorRunConfig {
        outage: Some((outage_start, SimDuration::from_days(3))),
        ..base.clone()
    };

    let mut table = Table::new(vec![
        "scenario",
        "captures",
        "raw lost unprocessed",
        "summaries",
        "acked",
        "lost unacked",
        "mean density",
        "peak pending",
    ]);
    let mut notes = Vec::new();
    for (label, cfg) in [("steady", base), ("3-day uplink outage", outage)] {
        let result = sensor::run(cfg);
        let density = result.density.summary().expect("sampled");
        let peak_pending = result
            .pending_summaries
            .values()
            .iter()
            .copied()
            .fold(0.0, f64::max);
        table.row(vec![
            label.to_string(),
            result.captures.to_string(),
            result.raw_lost_unprocessed.to_string(),
            result.summaries.to_string(),
            result.acked.to_string(),
            result.summaries_lost_unacked.to_string(),
            fmt_f64(density.mean, 3),
            fmt_f64(peak_pending, 0),
        ]);
        if label != "steady" {
            notes.push(format!(
                "outage: pending-summary buffer peaks at {peak_pending:.0} and drains after recovery"
            ));
        }
    }
    notes.push(
        "demand is ~3x capacity, yet zero unprocessed captures are lost — the trigger-based \
         demotion cycle keeps only in-flight data non-preemptible"
            .into(),
    );
    FigureReport {
        id: "sec6-sensor",
        title: "Extension: sensor-node trigger-driven importance (§6)".into(),
        tables: vec![("sensor node, 2 GiB, 14 days".into(), table)],
        notes,
    }
}

/// §1 extension: per-principal fairness budgets over importance-weighted
/// bytes.
pub fn fairness(seed: u64) -> FigureReport {
    let _span = observe_figure("fairness");
    use rand::Rng;
    use sim_core::rng;
    use temporal_importance::{
        FairStore, FairStoreError, Importance, ImportanceCurve, ObjectIdGen, ObjectSpec,
        PrincipalId, StorageUnit,
    };

    // Three users share a 3 GiB disk with 1 GiB weighted budgets each:
    // a greedy user annotating everything at 1.0, an honest user at 0.5,
    // and a bursty cache user at ~0.1.
    let mut store = FairStore::new(
        StorageUnit::new(ByteSize::from_gib(3)),
        ByteSize::from_gib(1),
    );
    let mut ids = ObjectIdGen::new();
    let mut rand = rng::stream(seed, "fairness-demo");
    let users = [
        (PrincipalId::new(1), "greedy (1.0)", 1.0),
        (PrincipalId::new(2), "honest (0.5)", 0.5),
        (PrincipalId::new(3), "cache (0.1)", 0.1),
    ];
    for round in 0..200u64 {
        for &(principal, _, importance) in &users {
            let spec = ObjectSpec::new(
                ids.next_id(),
                ByteSize::from_mib(rand.gen_range(16..64)),
                ImportanceCurve::Fixed {
                    importance: Importance::new_clamped(importance),
                    expiry: SimDuration::from_days(30),
                },
            );
            match store.store(principal, spec, SimTime::from_hours(round)) {
                Ok(_) => {}
                Err(FairStoreError::QuotaExceeded { .. }) => {}
                Err(_) => {}
            }
        }
    }

    let mut table = Table::new(vec![
        "user",
        "accepted",
        "quota refusals",
        "weighted charge (MiB)",
    ]);
    let mut notes = Vec::new();
    for &(principal, label, _) in &users {
        let usage = store.usage(principal);
        table.row(vec![
            label.to_string(),
            usage.accepted.to_string(),
            usage.quota_refusals.to_string(),
            fmt_f64(usage.charged as f64 / (1024.0 * 1024.0), 0),
        ]);
    }
    let greedy = store.usage(PrincipalId::new(1));
    let honest = store.usage(PrincipalId::new(2));
    notes.push(format!(
        "equal budgets: the honest 0.5-importance user stores ~{}x the objects of the greedy 1.0 user",
        (honest.accepted as f64 / greedy.accepted.max(1) as f64).round()
    ));
    notes.push(
        "charging importance-weighted bytes removes the incentive to 'request infinite lifetime' (§1)"
            .into(),
    );
    FigureReport {
        id: "fairness",
        title: "Extension: per-principal importance-weighted budgets (§1)".into(),
        tables: vec![("3 GiB disk, 1 GiB weighted budget each".into(), table)],
        notes,
    }
}

/// §5.1.2 extension: the annotation advisor closing the feedback loop.
pub fn advisor(seed: u64, days: u64) -> FigureReport {
    let _span = observe_figure("advisor");
    use temporal_importance::{Advisor, Forecast, Importance, ImportanceCurve};

    // Take the §5.1 temporal-importance run and consult the advisor at a
    // few points along the way.
    let mut cfg = SingleClassConfig::paper(seed, 80, PolicyChoice::TemporalImportance);
    cfg.days = days;
    cfg.snapshot_density = Some(0.8369);
    let result = single_class::run(cfg);
    let snapshot = result
        .snapshot
        .expect("the 0.8369 density band is crossed under pressure");
    let advisor = Advisor::from_snapshot(snapshot.clone());

    // (a) The admission boundary is size-aware: bigger objects must
    // displace deeper into the importance histogram.
    let mut thresholds = Table::new(vec!["object size", "admission threshold"]);
    for gib in [1u64, 4, 8, 16, 32, 64] {
        let size = ByteSize::from_gib(gib);
        thresholds.row(vec![
            size.to_string(),
            fmt_f64(advisor.admission_threshold_for(size).value(), 3),
        ]);
    }

    // (b) Survival forecasts for a large (8 GiB) batch at various
    // requested plateaus.
    let batch = ByteSize::from_gib(8);
    let mut forecasts = Table::new(vec![
        "requested plateau",
        "forecast",
        "expected survival (days)",
    ]);
    for plateau in [1.0, 0.8, 0.6, 0.4, 0.2] {
        let curve = ImportanceCurve::two_step(
            Importance::new_clamped(plateau),
            SimDuration::from_days(15),
            SimDuration::from_days(15),
        );
        let (verdict, survival) = match advisor.forecast(&curve, batch) {
            Forecast::Admitted { expected_survival } => (
                "admitted",
                expected_survival
                    .map(|d| fmt_f64(d.as_days_f64(), 1))
                    .unwrap_or_else(|| "full lifetime".into()),
            ),
            Forecast::Rejected { .. } => ("rejected", "-".into()),
            _ => ("unknown", "-".into()),
        };
        forecasts.row(vec![fmt_f64(plateau, 1), verdict.into(), survival]);
    }
    let suggestion = advisor.min_plateau_for(
        batch,
        SimDuration::from_days(15),
        SimDuration::from_days(15),
        SimDuration::from_days(20),
    );
    FigureReport {
        id: "advisor",
        title: "Extension: annotation advisor on the Figure 7 snapshot (§5.1.2)".into(),
        tables: vec![
            (
                format!(
                    "admission threshold by size, density {:.4}",
                    snapshot.density
                ),
                thresholds,
            ),
            ("8 GiB batch forecast by plateau".into(), forecasts),
        ],
        notes: vec![
            match suggestion {
                Some(p) => {
                    format!("to keep an 8 GiB batch for 20 days, request a plateau of at least {p}")
                }
                None => "no plateau can keep an 8 GiB batch for 20 days right now".into(),
            },
            "\"the difference between the storage density and the object importance gives some \
             indication of the object longevity\" — quantified"
                .into(),
        ],
    }
}

/// Follow-up study (§1): simultaneous different applications sharing one
/// storage unit.
pub fn mixed_apps(seed: u64, days: u64) -> FigureReport {
    let _span = observe_figure("mixed_apps");
    use crate::mixed::{self, MixedRunConfig};

    let result = mixed::run(MixedRunConfig {
        seed,
        days,
        ..MixedRunConfig::default()
    });

    let mut table = Table::new(vec![
        "application",
        "offered",
        "accepted",
        "rejected",
        "evicted",
        "mean lifetime (d)",
        "mean eviction importance",
        "final resident",
    ]);
    for app in &result.apps {
        table.row(vec![
            app.name.clone(),
            app.offered.to_string(),
            app.accepted.to_string(),
            app.rejected.to_string(),
            app.evicted.to_string(),
            fmt_f64(app.mean_lifetime_days, 1),
            fmt_f64(app.mean_eviction_importance, 3),
            app.final_resident.to_string(),
        ]);
    }
    let density_peak = result.density.values().iter().copied().fold(0.0, f64::max);
    FigureReport {
        id: "mixed-apps",
        title: "Follow-up: simultaneous applications vying for one unit (§1)".into(),
        tables: vec![("120 GiB shared unit".into(), table)],
        notes: vec![
            "archive and backup keep near-full acceptance; the ephemeral cache absorbs the pressure"
                .into(),
            "backup's fixed curve guarantees its 30 days; archive is reclaimed only after waning"
                .into(),
            format!("shared importance density peaks at {density_peak:.3}"),
        ],
    }
}

/// §5.1.2's "wake up later than necessary" risk, quantified: forecast
/// quality of the Palimpsest time constant by analysis window and history.
pub fn predictability(seed: u64, days: u64) -> FigureReport {
    let _span = observe_figure("predictability");
    use analysis::predict::rolling_mean_report;

    let arrivals = ramp_arrivals(seed, days);

    let mut table = Table::new(vec![
        "window",
        "history",
        "forecasts",
        "mean |rel err|",
        "p90 |rel err|",
        "oversleep fraction",
        "mean oversleep margin",
    ]);
    let mut notes = Vec::new();
    for (label, window) in [
        ("hour", SimDuration::HOUR),
        ("day", SimDuration::DAY),
        ("month", MONTH),
    ] {
        let series = TimeConstantEstimator::new(ByteSize::from_gib(80), window)
            .estimate(arrivals.iter().copied());
        for history in [1usize, 7, 30] {
            let Some(report) = rolling_mean_report(&series, history) else {
                continue;
            };
            table.row(vec![
                label.to_string(),
                history.to_string(),
                report.forecasts.to_string(),
                fmt_f64(report.mean_abs_rel_error, 3),
                fmt_f64(report.p90_abs_rel_error, 3),
                fmt_f64(report.oversleep_fraction, 3),
                fmt_f64(report.mean_oversleep_margin, 3),
            ]);
            if label == "day" && history == 7 {
                notes.push(format!(
                    "a day-window app with a week of history oversleeps {:.0}% of the time",
                    100.0 * report.oversleep_fraction
                ));
            }
        }
    }
    notes.push(
        "the ramping arrival rate keeps shrinking tau, so every rolling-mean forecaster \
         systematically wakes up late — the §5.1.2 failure mode"
            .into(),
    );
    FigureReport {
        id: "predictability",
        title: "Extension: Palimpsest rejuvenation-forecast risk (§5.1.2)".into(),
        tables: vec![("80 GiB, §5.1 workload".into(), table)],
        notes,
    }
}

/// Counts figure regenerations in the process-global observer (a no-op
/// unless a registry is installed; compiled out under `obs-off`). The
/// figure id doubles as the metric name, so `repro`'s per-phase report
/// shows exactly which figures ran. The returned span times the figure's
/// whole body under the same id — bind it with `let _span = ...` so it
/// drops when the figure function returns.
fn observe_figure(id: &'static str) -> sim_core::Span {
    let obs = sim_core::Obs::global();
    obs.counter("experiment.figures", 1);
    obs.counter(id, 1);
    obs.span(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Figure functions are exercised end-to-end by the integration tests
    // and the repro binary; here we keep fast smoke checks on the cheap
    // ones.

    #[test]
    fn fig2_reports_a_year_of_demand() {
        let report = fig2(1);
        assert_eq!(report.id, "fig2");
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].1.len(), 12);
        let text = report.to_string();
        assert!(text.contains("cumulative GiB"));
    }

    #[test]
    fn table1_matches_paper_constants() {
        let report = table1();
        let text = report.to_string();
        assert!(text.contains("spring"));
        assert!(text.contains("120 - today"));
        assert!(text.contains("730"));
        assert!(text.contains("850"));
    }

    #[test]
    fn fig8_renders_weeks() {
        let report = fig8(1);
        assert_eq!(report.tables[0].1.len(), 20);
        assert!(report.to_string().contains("slashdot"));
    }

    #[test]
    fn merged_table_aligns_sparse_columns() {
        let a = vec![(SimTime::from_days(0), 1.0), (SimTime::from_days(30), 2.0)];
        let b = vec![(SimTime::from_days(30), 5.0)];
        let table = merged_table("day", vec![("a".into(), a), ("b".into(), b)], 1);
        let text = table.render();
        let lines: Vec<&str> = text.lines().collect();
        // Header + rule + two data rows.
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains('-'), "missing cell must render as -");
    }
}
