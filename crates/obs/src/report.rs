//! Point-in-time metric snapshots and renderable per-phase reports.

use std::collections::BTreeMap;
use std::fmt;

/// A compact copy of one histogram's aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (zero when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Bucket-resolution median.
    pub p50: u64,
    /// Bucket-resolution 99th percentile.
    pub p99: u64,
}

/// Aggregates for one named phase span: how many times the phase ran, the
/// total wall-clock time it consumed, and how much simulated time it
/// covered while doing so.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Spans reported under this name.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans (saturating).
    pub wall_nanos: u64,
    /// Total simulated minutes those spans covered (saturating).
    pub sim_minutes: u64,
}

/// A point-in-time copy of a [`MetricsRegistry`], suitable for diffing
/// against an earlier snapshot and rendering as a [`Report`].
///
/// [`MetricsRegistry`]: crate::MetricsRegistry
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// High-watermark gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Trace-event counts by kind.
    pub events: BTreeMap<String, u64>,
    /// Phase-span aggregates by name.
    pub spans: BTreeMap<String, SpanSummary>,
}

impl Snapshot {
    /// The change since `baseline`: counters and event counts subtract;
    /// histogram counts and sums subtract while min/max/quantiles stay
    /// cumulative (bucket contents are not carried in a snapshot); gauges
    /// stay at their cumulative high watermark. Entries that did not move
    /// are dropped, so a phase report shows only what the phase touched.
    pub fn delta(&self, baseline: &Snapshot) -> Snapshot {
        let diff = |current: &BTreeMap<String, u64>, base: &BTreeMap<String, u64>| {
            current
                .iter()
                .filter_map(|(name, &value)| {
                    let moved = value - base.get(name).copied().unwrap_or(0);
                    (moved > 0).then(|| (name.clone(), moved))
                })
                .collect()
        };
        Snapshot {
            counters: diff(&self.counters, &baseline.counters),
            events: diff(&self.events, &baseline.events),
            gauges: self
                .gauges
                .iter()
                .filter(|(name, &value)| value > baseline.gauges.get(*name).copied().unwrap_or(0))
                .map(|(name, &value)| (name.clone(), value))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter_map(|(name, summary)| {
                    let base = baseline.histograms.get(name);
                    let moved = summary.count - base.map_or(0, |b| b.count);
                    (moved > 0).then(|| {
                        let mut phase = *summary;
                        phase.count = moved;
                        phase.sum -= base.map_or(0, |b| b.sum);
                        (name.clone(), phase)
                    })
                })
                .collect(),
            spans: self
                .spans
                .iter()
                .filter_map(|(name, summary)| {
                    let base = baseline.spans.get(name).copied().unwrap_or_default();
                    let moved = summary.count - base.count;
                    (moved > 0).then(|| {
                        (
                            name.clone(),
                            SpanSummary {
                                count: moved,
                                wall_nanos: summary.wall_nanos - base.wall_nanos,
                                sim_minutes: summary.sim_minutes - base.sim_minutes,
                            },
                        )
                    })
                })
                .collect(),
        }
    }

    /// True if nothing was observed (or nothing moved, for a delta).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.spans.is_empty()
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Metric names are mangled to the Prometheus alphabet (`.` and `-`
    /// become `_`) and prefixed with `tempimp_`. Counters render as
    /// `counter`, gauges as `gauge`, histograms as `summary` (bucket-
    /// resolution p50/p99 plus `_sum`/`_count`), trace-event totals as one
    /// labeled counter family, and spans as paired wall-nanos/sim-minutes
    /// counter families. Iteration order is the snapshot's `BTreeMap`
    /// order, so the text is deterministic for a given snapshot.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::new();
        for (name, value) in &self.counters {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {value}");
        }
        for (name, value) in &self.gauges {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE {metric} gauge");
            let _ = writeln!(out, "{metric} {value}");
        }
        for (name, h) in &self.histograms {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE {metric} summary");
            let _ = writeln!(out, "{metric}{{quantile=\"0.5\"}} {}", h.p50);
            let _ = writeln!(out, "{metric}{{quantile=\"0.99\"}} {}", h.p99);
            let _ = writeln!(out, "{metric}_sum {}", h.sum);
            let _ = writeln!(out, "{metric}_count {}", h.count);
        }
        if !self.events.is_empty() {
            let _ = writeln!(out, "# TYPE tempimp_events_total counter");
            for (kind, value) in &self.events {
                let _ = writeln!(out, "tempimp_events_total{{kind=\"{kind}\"}} {value}");
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "# TYPE tempimp_span_wall_nanos_total counter");
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "tempimp_span_wall_nanos_total{{span=\"{name}\"}} {}",
                    s.wall_nanos
                );
            }
            let _ = writeln!(out, "# TYPE tempimp_span_sim_minutes_total counter");
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "tempimp_span_sim_minutes_total{{span=\"{name}\"}} {}",
                    s.sim_minutes
                );
            }
        }
        out
    }
}

/// Maps a dotted metric name onto the Prometheus metric-name alphabet.
pub(crate) fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("tempimp_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// A titled snapshot rendered as an aligned, deterministic text block —
/// what `repro` prints to stderr after each experiment phase.
///
/// # Examples
///
/// ```
/// use obs::{MetricsRegistry, Report};
/// use sim_core::observe::Observer;
///
/// let registry = MetricsRegistry::new();
/// registry.counter("engine.stores", 12);
/// let report = Report::new("fig2", registry.snapshot());
/// let text = report.to_string();
/// assert!(text.contains("obs[fig2]"));
/// assert!(text.contains("engine.stores"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    title: String,
    snapshot: Snapshot,
}

impl Report {
    /// A report titled `title` over `snapshot` (typically a phase delta).
    pub fn new(title: impl Into<String>, snapshot: Snapshot) -> Self {
        Report {
            title: title.into(),
            snapshot,
        }
    }

    /// The underlying snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.snapshot.is_empty() {
            return writeln!(f, "obs[{}] nothing observed", self.title);
        }
        writeln!(f, "obs[{}]", self.title)?;
        for (name, value) in &self.snapshot.counters {
            writeln!(f, "  counter    {name:<34} {value:>14}")?;
        }
        for (name, value) in &self.snapshot.gauges {
            writeln!(f, "  gauge(max) {name:<34} {value:>14}")?;
        }
        for (name, h) in &self.snapshot.histograms {
            writeln!(
                f,
                "  histogram  {name:<34} {count:>14}  sum {sum}  min {min}  p50 {p50}  p99 {p99}  max {max}",
                count = h.count,
                sum = h.sum,
                min = h.min,
                p50 = h.p50,
                p99 = h.p99,
                max = h.max,
            )?;
        }
        for (name, value) in &self.snapshot.events {
            writeln!(f, "  events     {name:<34} {value:>14}")?;
        }
        for (name, s) in &self.snapshot.spans {
            writeln!(
                f,
                "  span       {name:<34} {count:>14}  wall_ms {wall}  sim_min {sim}",
                count = s.count,
                wall = s.wall_nanos / 1_000_000,
                sim = s.sim_minutes,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;
    use sim_core::observe::Observer;
    use sim_core::SimTime;

    #[test]
    fn delta_keeps_only_what_moved() {
        let registry = MetricsRegistry::new();
        registry.counter("stable", 5);
        registry.counter("moving", 1);
        registry.gauge("level", 10);
        registry.record("sizes", 4);
        registry.event(SimTime::ZERO, "tick", &[]);
        let before = registry.snapshot();

        registry.counter("moving", 2);
        registry.gauge("level", 3); // below the watermark: no movement
        registry.record("sizes", 8);
        registry.event(SimTime::ZERO, "tick", &[]);
        let delta = registry.snapshot().delta(&before);

        assert_eq!(delta.counters.len(), 1);
        assert_eq!(delta.counters["moving"], 2);
        assert!(delta.gauges.is_empty(), "unmoved watermark dropped");
        assert_eq!(delta.events["tick"], 1);
        let h = delta.histograms["sizes"];
        assert_eq!((h.count, h.sum), (1, 8));
        assert_eq!((h.min, h.max), (4, 8), "min/max stay cumulative");
        assert!(!delta.is_empty());
        assert!(delta.delta(&delta).is_empty());
    }

    #[test]
    fn reports_render_deterministically() {
        let registry = MetricsRegistry::new();
        registry.counter("b.second", 2);
        registry.counter("a.first", 1);
        registry.gauge("depth", 9);
        registry.record("hops", 3);
        let report = Report::new("phase", registry.snapshot());
        let text = report.to_string();
        let again = Report::new("phase", registry.snapshot()).to_string();
        assert_eq!(text, again);
        let a = text.find("a.first").unwrap();
        let b = text.find("b.second").unwrap();
        assert!(a < b, "counters render in name order:\n{text}");
        assert!(report.snapshot().counters.contains_key("a.first"));
    }

    #[test]
    fn empty_reports_say_so() {
        let report = Report::new("idle", Snapshot::default());
        assert_eq!(report.to_string(), "obs[idle] nothing observed\n");
    }

    #[test]
    fn delta_survives_u64_edge_values() {
        let registry = MetricsRegistry::new();
        // Counter pinned at the top of the range: the baseline diff is an
        // exact subtraction, not a wrap.
        registry.counter("edge.max", u64::MAX - 1);
        registry.record("edge.h", 0);
        registry.record("edge.h", u64::MAX);
        let before = registry.snapshot();

        registry.counter("edge.max", 1);
        registry.record("edge.h", u64::MAX); // sum saturates at u64::MAX
        registry.record("edge.h", 1);
        let after = registry.snapshot();
        let delta = after.delta(&before);

        assert_eq!(delta.counters["edge.max"], 1);
        let h = delta.histograms["edge.h"];
        assert_eq!(h.count, 2);
        // Both sums saturated at u64::MAX, so the phase sum collapses to
        // zero — saturation trades accuracy at the extreme for no panic.
        assert_eq!(h.sum, 0);
        assert_eq!((h.min, h.max), (0, u64::MAX), "min/max stay cumulative");

        // Zero- and one-valued metrics at the other edge.
        let registry = MetricsRegistry::new();
        registry.counter("edge.zero", 0);
        registry.gauge("edge.gauge", 0);
        let before = registry.snapshot();
        registry.counter("edge.zero", 1);
        registry.gauge("edge.gauge", 1);
        let delta = registry.snapshot().delta(&before);
        assert_eq!(delta.counters["edge.zero"], 1);
        assert_eq!(delta.gauges["edge.gauge"], 1);
        // An all-zero phase produces an empty delta even though the names
        // exist in both snapshots.
        let idle = registry.snapshot().delta(&registry.snapshot());
        assert!(idle.is_empty());
    }

    #[test]
    fn delta_histograms_at_bucket_edges() {
        let registry = MetricsRegistry::new();
        for edge in [1u64, 2, 4, (1 << 20) - 1, 1 << 20] {
            registry.record("edges", edge);
        }
        let before = registry.snapshot();
        registry.record("edges", 3);
        let delta = registry.snapshot().delta(&before);
        let h = delta.histograms["edges"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 3);
    }

    #[test]
    fn span_deltas_subtract_all_three_aggregates() {
        let registry = MetricsRegistry::new();
        registry.span("phase.a", 1_000, 60);
        let before = registry.snapshot();
        registry.span("phase.a", 2_000, 120);
        registry.span("phase.b", 500, 0);
        let delta = registry.snapshot().delta(&before);

        let a = delta.spans["phase.a"];
        assert_eq!((a.count, a.wall_nanos, a.sim_minutes), (1, 2_000, 120));
        let b = delta.spans["phase.b"];
        assert_eq!((b.count, b.wall_nanos, b.sim_minutes), (1, 500, 0));
        assert!(!delta.is_empty());
        assert!(delta.delta(&delta).is_empty());
        // Spans double-report into the histogram under the same name.
        assert_eq!(delta.histograms["phase.a"].count, 1);
        let text = Report::new("spans", delta).to_string();
        assert!(text.contains("span       phase.a"), "{text}");
        assert!(text.contains("sim_min 120"), "{text}");
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_mangled() {
        let registry = MetricsRegistry::new();
        registry.counter("engine.stores", 3);
        registry.gauge("engine.breakpoint_queue", 7);
        registry.record("engine.sweep_reclaimed", 2);
        registry.event(SimTime::ZERO, "engine.store", &[("id", 1)]);
        registry.span("span.experiment.fig2", 5_000, 60);
        let snapshot = registry.snapshot();
        let text = snapshot.render_prometheus();
        assert_eq!(text, snapshot.render_prometheus());

        assert!(
            text.contains("# TYPE tempimp_engine_stores counter"),
            "{text}"
        );
        assert!(text.contains("tempimp_engine_stores 3"), "{text}");
        assert!(text.contains("# TYPE tempimp_engine_breakpoint_queue gauge"));
        assert!(text.contains("tempimp_engine_sweep_reclaimed{quantile=\"0.5\"} 2"));
        assert!(text.contains("tempimp_engine_sweep_reclaimed_count 1"));
        assert!(text.contains("tempimp_events_total{kind=\"engine.store\"} 1"));
        assert!(text.contains("tempimp_span_wall_nanos_total{span=\"span.experiment.fig2\"} 5000"));
        assert!(text.contains("tempimp_span_sim_minutes_total{span=\"span.experiment.fig2\"} 60"));
        // Every non-comment line is `name{labels} value` over the
        // restricted alphabet.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in {line:?}"
            );
        }
        assert_eq!(Snapshot::default().render_prometheus(), "");
    }
}
