//! What a run reports: the metric tables `BENCHMARK.json` lists, the
//! correctness checks, and the one-line JSON result.

use std::collections::BTreeMap;

use crate::stats::{median, Windowed};
use crate::stream::Scale;

/// End-to-end metrics, printed by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("write_amp", "x"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed — and measured — by every traced run.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("host.nproc", "count"),
    ("host.calib_ns", "ns"),
    ("host.calib_after_ns", "ns"),
    ("loadgen.ns_per_op", "ns"),
    ("loadgen.late_share", "share"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_end", "count"),
    ("core.unit.ns_per_op", "ns"),
    ("core.unit.put_ns", "ns"),
    ("core.unit.get_ns", "ns"),
    ("core.unit.advise_ns", "ns"),
    ("core.unit.density_ns", "ns"),
    ("core.unit.stats_ns", "ns"),
    ("core.unit.residents", "count"),
    ("core.unit.put_accept_share", "share"),
    ("core.unit.get_hit_share", "share"),
    ("core.unit.evictions_per_put", "count"),
    ("core.unit.heap_bytes_per_resident", "B"),
    ("serve.engine.ns_per_op", "ns"),
    ("serve.engine.expired_per_op", "count"),
    ("serve.dispatch.ns_per_op", "ns"),
    ("serve.dispatch.submit_ns", "ns"),
    ("serve.dispatch.wait_ns", "ns"),
    ("serve.dispatch.rtt_p50_us", "us"),
    ("serve.dispatch.rtt_p99_us", "us"),
    ("serve.dispatch.allocs_per_op", "count"),
    ("serve.dispatch.alloc_bytes_per_op", "B"),
    ("serve.dispatch.batch_fill", "count"),
    ("serve.dispatch.queue_full", "count"),
    ("serve.shards.ns_per_op", "ns"),
    ("serve.shards.scaling", "x"),
    ("serve.shards.imbalance", "x"),
    ("serve.shards.fanout_ns", "ns"),
    ("serve.open.p50_us", "us"),
    ("serve.open.p99_us", "us"),
    ("durable.unit.ns_per_op", "ns"),
    ("durable.unit.put_ns", "ns"),
    ("durable.unit.get_ns", "ns"),
    ("durable.compact.ns_per_op", "ns"),
    ("durable.compact.count", "count"),
    ("durable.compact.rewrite_bytes_per_op", "B"),
    ("durable.compact.max_stall_us", "us"),
    ("durable.log.bytes_per_op", "B"),
    ("durable.log.segments", "count"),
    ("durable.log.dead_share", "share"),
    ("durable.io.write_syscalls_per_op", "count"),
    ("durable.io.wchar_per_op", "B"),
    ("durable.sync_ms", "ms"),
    ("durable.open.ns_per_resident", "ns"),
    ("durable.engine.ns_per_op", "ns"),
    ("durable.dispatch.ns_per_op", "ns"),
    ("durable.shards.ns_per_op", "ns"),
    ("durable.shards.scaling", "x"),
    ("durable.disk_bytes_per_resident", "B"),
    ("durable.recovery_s", "s"),
    ("workload.university.gen_s", "s"),
    ("besteffs.build_s", "s"),
    ("besteffs.place_us", "us"),
    ("besteffs.place_p99_us", "us"),
    ("besteffs.advance_ms", "ms"),
    ("besteffs.probes_per_place", "count"),
    ("besteffs.accept_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

/// The windows of a timed phase: throughput and latency samples of each.
#[derive(Debug, Default)]
pub struct Timed {
    pub ops_per_s: Vec<f64>,
    pub latency: Windowed,
}

impl Timed {
    /// `ops_per_s` is the median window. Latency is printed, not listed:
    /// its spread between runs of one commit on the reference box is
    /// wider than any bound a listed metric may have.
    pub fn report(&mut self, report: &mut Report) {
        report.note(format!(
            "windows: ops/s {:.0?}, p50 {:?} ns, p99 {:?} ns, n = {}",
            self.ops_per_s,
            self.latency.per_window(0.5),
            self.latency.per_window(0.99),
            self.latency.count()
        ));
        report.metric("ops_per_s", median(&mut self.ops_per_s.clone()));
        report.note(format!(
            "lat_p50_us {:.3} (all samples)  lat_p99_us {:.3} (p99 of each window, median window)",
            self.latency.overall(0.5) as f64 / 1e3,
            self.latency.median_of_windows(0.99) / 1e3
        ));
    }
}

/// Which metrics a run prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// [`END_TO_END`]: an untraced run.
    EndToEnd,
    /// [`PER_LAYER`]: a traced run.
    PerLayer,
    /// None: `--check`.
    ChecksOnly,
}

/// What a listed metric read in this run.
#[derive(Debug)]
enum Reading {
    Value(f64),
    /// Not measurable on this host, and why: printed as `n/a` and left
    /// out of the result line, so that it is never compared as a number.
    NotApplicable(String),
}

#[derive(Debug, Default)]
pub struct Report {
    /// Operations issued, warm-up included.
    pub attempted: u64,
    /// Operations that failed (see `stream::Tally`), were cut off by the
    /// watchdog, or were never sent.
    pub failed: u64,
    /// The reduced size at which what is being recorded runs (see
    /// [`Report::measuring_at`]); `None` at full size.
    reduced: Option<Scale>,
    checks: Vec<(String, bool)>,
    metrics: BTreeMap<&'static str, (Reading, Option<Scale>)>,
    lines: Vec<String>,
}

impl Report {
    /// Every check and metric recorded from here on was taken at `scale`.
    /// A traced run measures the chains that are not its workload's own at
    /// the `--check` size: their rows and checks are printed with that
    /// size beside them, because a row at 3,200 residents and one at
    /// 160,000 share a name and nothing else.
    pub fn measuring_at(&mut self, scale: Scale) {
        self.reduced = (scale != Scale::FULL).then_some(scale);
    }

    /// Records a named correctness check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        let mut name = name.into();
        if let Some(scale) = self.reduced {
            name = format!("{name} [at {}]", scale.label());
        }
        self.checks.push((name, passed));
    }

    fn record(&mut self, name: &'static str, reading: Reading) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a listed metric"
        );
        let earlier = self.metrics.insert(name, (reading, self.reduced));
        debug_assert!(earlier.is_none(), "{name} was recorded twice");
    }

    /// Records a metric listed in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.record(name, Reading::Value(value));
    }

    /// Records that a listed metric cannot be measured on this host.
    pub fn not_applicable(&mut self, name: &'static str, why: impl Into<String>) {
        self.record(name, Reading::NotApplicable(why.into()));
    }

    /// A line for the human reader: spreads, counts, context.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    pub fn absorb_counts(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, passed)| *passed)
    }

    /// A report for a run that was cut short: everything counts as failed.
    pub fn aborted(reason: &str) -> Report {
        let mut report = Report {
            attempted: 1,
            failed: 1,
            ..Report::default()
        };
        report.check(reason, false);
        report
    }

    /// Every note and check, every metric of `table` by name with its unit
    /// (`n/a` for one that is not applicable, which the result line then
    /// omits), and as the last line the JSON result.
    fn render(&self, workload: &str, table: Table) -> Vec<String> {
        let mut out = self.lines.clone();
        for (name, passed) in &self.checks {
            out.push(format!(
                "check {:<4} {name}",
                if *passed { "ok" } else { "FAIL" }
            ));
        }
        let mut correct = self.correct();
        let mut json = Vec::new();
        let rows: &[(&str, &str)] = match table {
            Table::EndToEnd => &END_TO_END,
            Table::PerLayer => &PER_LAYER,
            Table::ChecksOnly => &[],
        };
        for &(name, unit) in rows {
            let (value, reduced) = match self.metrics.get(name) {
                Some((Reading::Value(value), reduced)) if value.is_finite() => (*value, reduced),
                Some((Reading::NotApplicable(why), _)) => {
                    out.push(format!("{name:<40} {:>16} {unit}  ({why})", "n/a"));
                    continue;
                }
                _ => {
                    out.push(format!("check FAIL metric {name} was not measured"));
                    correct = false;
                    continue;
                }
            };
            out.push(match reduced {
                Some(scale) => format!("{name:<40} {value:>16.4} {unit}  [at {}]", scale.label()),
                None => format!("{name:<40} {value:>16.4} {unit}"),
            });
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let attempted = self.attempted.max(1);
        out.push(format!(
            "{workload}: {} of {attempted} operations failed (failed_share {:.6})",
            self.failed,
            self.failed as f64 / attempted as f64
        ));
        out.push(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed,
            json.join(", ")
        ));
        out
    }

    pub fn print(&self, workload: &str, table: Table) {
        for line in self.render(workload, table) {
            println!("{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end_but_write_amp() -> Report {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        report.metric("setup_s", 0.5);
        report.metric("ops_per_s", 1000.0);
        report.metric("peak_rss_mib", 64.0);
        report
    }

    #[test]
    fn a_metric_that_is_not_applicable_prints_na_and_stays_out_of_the_result() {
        let mut report = end_to_end_but_write_amp();
        report.not_applicable("write_amp", "nothing is journaled");
        let out = report.render("w", Table::EndToEnd);
        assert!(out
            .iter()
            .any(|line| line.starts_with("write_amp") && line.contains("n/a")));
        let result = out.last().expect("the result line");
        assert!(result.starts_with("{\"correct\": true"));
        assert!(!result.contains("write_amp"));
        assert!(result.contains("\"ops_per_s\": {\"value\": 1000, \"unit\": \"1/s\"}"));
    }

    #[test]
    fn a_metric_that_was_never_recorded_fails_the_run() {
        let out = end_to_end_but_write_amp().render("w", Table::EndToEnd);
        assert!(out.contains(&"check FAIL metric write_amp was not measured".to_string()));
        assert!(out
            .last()
            .expect("the result line")
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn rows_and_checks_taken_at_a_reduced_size_say_so() {
        let mut report = end_to_end_but_write_amp();
        report.measuring_at(Scale::CHECK);
        report.metric("write_amp", 1.0);
        report.check("conserved", true);
        report.measuring_at(Scale::FULL);
        report.check("conserved", true);
        let out = report.render("w", Table::EndToEnd);
        assert!(out.contains(&"check ok   conserved [at 1/50 size]".to_string()));
        assert!(out.contains(&"check ok   conserved".to_string()));
        let marked: Vec<_> = out
            .iter()
            .filter(|line| line.ends_with("[at 1/50 size]"))
            .collect();
        assert_eq!(marked.len(), 2, "the check and write_amp: {marked:?}");
        assert!(marked[1].starts_with("write_amp"));
    }
}
