//! The bench regression gate: compares a fresh `BENCH_*.json` report
//! against the committed baseline and flags regressions of the measured
//! configuration.
//!
//! This module owns the case-line schema of all three reports:
//! `bench_engine`, `bench_serve` and `bench_durable` build [`BenchCase`]
//! values and write them with [`BenchCase::render`]; [`parse_report`]
//! reads them back by plain string extraction (the vendored `serde_json`
//! is typed-only). Three columns gate: `indexed_ns_per_op` (time per
//! operation), `bytes_per_resident` (heap or disk footprint) and
//! `write_amplification` (durable reports). The reference column
//! (`reference_ns_per_op`) documents what the measurement is compared
//! against — the `ModelUnit` reference for engine reports, the run with the
//! observer detached for serve reports, the in-memory unit for durable
//! reports — but is not a performance promise. [`obs_overheads`]
//! additionally derives the instrumentation cost from the fresh report
//! alone, by comparing every `<case>_observed` row against its plain
//! `<case>` peer.

use std::fmt;

/// One measured case line of a `BENCH_*.json` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Case name (`store_churn`, `serve_mixed`, `durable_churn`, …).
    pub case: String,
    /// Resident-object count of the fixture (in serve reports, what a
    /// healthy fleet holds under the stream).
    pub residents: u64,
    /// Nanoseconds per operation on the configuration under measurement.
    pub indexed_ns_per_op: f64,
    /// Nanoseconds per operation on the reference configuration: the
    /// `ModelUnit` reference for engine reports, the same run with the
    /// observer detached for serve reports, the plain in-memory unit for
    /// durable reports.
    pub reference_ns_per_op: f64,
    /// Bytes per resident: net heap of the indexed fixture in engine
    /// reports, log file bytes in durable reports. Serve reports carry no
    /// such column (a fleet's footprint is workload-dependent).
    pub bytes_per_resident: Option<f64>,
    /// Total bytes appended over first-write bytes. Durable reports only.
    pub write_amplification: Option<f64>,
}

impl BenchCase {
    /// The `(case, residents)` identity used to match baseline to fresh.
    pub fn key(&self) -> (&str, u64) {
        (&self.case, self.residents)
    }

    /// The report line [`parse_report`] reads back. `reference` names
    /// what `reference_ns_per_op` was measured on; `ratio`, when given,
    /// labels a `reference / indexed` column (`speedup` over the
    /// reference model). Neither is parsed — they make the committed report
    /// self-describing.
    pub fn render(&self, reference: &str, ratio: Option<&str>) -> String {
        let mut line = format!(
            "{{ \"case\": \"{}\", \"residents\": {}, \"indexed_ns_per_op\": {:.1}, \
             \"reference_ns_per_op\": {:.1}, \"reference\": \"{reference}\"",
            self.case, self.residents, self.indexed_ns_per_op, self.reference_ns_per_op
        );
        if let Some(ratio) = ratio {
            let value = self.reference_ns_per_op / self.indexed_ns_per_op;
            line.push_str(&format!(", \"{ratio}\": {value:.1}"));
        }
        if let Some(bytes) = self.bytes_per_resident {
            line.push_str(&format!(", \"bytes_per_resident\": {bytes:.1}"));
        }
        if let Some(amplification) = self.write_amplification {
            line.push_str(&format!(", \"write_amplification\": {amplification:.3}"));
        }
        line.push_str(" }");
        line
    }
}

/// A detected regression of one case beyond the tolerance, on one of the
/// gated columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The offending case.
    pub case: String,
    /// Its fixture size.
    pub residents: u64,
    /// Which column regressed (`"ns/op"`, `"bytes/resident"` or
    /// `"write amplification"`).
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub fresh: f64,
    /// `fresh / baseline` (> 1 means worse).
    pub ratio: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Write amplification lives within a few hundredths of 1.
        let precision = if self.metric == WRITE_AMPLIFICATION {
            3
        } else {
            1
        };
        write!(
            f,
            "{} @ {} residents: {:.precision$} {metric} -> {:.precision$} {metric} ({:.0}% worse)",
            self.case,
            self.residents,
            self.baseline,
            self.fresh,
            (self.ratio - 1.0) * 100.0,
            metric = self.metric,
        )
    }
}

const WRITE_AMPLIFICATION: &str = "write amplification";

fn extract_str<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\": \"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

fn extract_num(line: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses every case line of a `BENCH_*.json` report.
///
/// # Errors
///
/// Returns a message naming the malformed line if any `"case"` line is
/// missing a required field, or if the report contains no cases at all.
pub fn parse_report(json: &str) -> Result<Vec<BenchCase>, String> {
    let mut cases = Vec::new();
    for line in json.lines() {
        if !line.contains("\"case\":") {
            continue;
        }
        let parsed = (|| {
            Some(BenchCase {
                case: extract_str(line, "case")?.to_string(),
                residents: extract_num(line, "residents")? as u64,
                indexed_ns_per_op: extract_num(line, "indexed_ns_per_op")?,
                reference_ns_per_op: extract_num(line, "reference_ns_per_op")?,
                bytes_per_resident: extract_num(line, "bytes_per_resident"),
                write_amplification: extract_num(line, "write_amplification"),
            })
        })();
        match parsed {
            Some(case) => cases.push(case),
            None => return Err(format!("malformed bench case line: {line}")),
        }
    }
    if cases.is_empty() {
        return Err("no bench cases found in report".to_string());
    }
    Ok(cases)
}

/// Compares fresh measurements against the baseline, on every gated
/// column.
///
/// A case's time regresses when `fresh > baseline * (1 + tolerance)`
/// **and** the absolute slowdown exceeds `min_delta_ns` (sub-100ns cases
/// on shared CI runners jitter by more than 25% from noise alone). The
/// memory column gates with the same envelope against a 64-byte floor —
/// the measurement is near-deterministic, but allocator rounding may move
/// a few bytes between runs. Write amplification is deterministic for a
/// fixed workload and gates at a fixed 5% — the bound `BENCHMARK.json`
/// puts on `write_amp` — whatever `tolerance` the timing columns get.
/// Baseline cases missing from the fresh report count as regressions —
/// the gate must not pass because a case silently disappeared. A column
/// the baseline case does not carry is not checked.
pub fn compare(
    baseline: &[BenchCase],
    fresh: &[BenchCase],
    tolerance: f64,
    min_delta_ns: f64,
) -> Vec<Regression> {
    const MIN_DELTA_BYTES: f64 = 64.0;
    const WRITE_AMPLIFICATION_TOLERANCE: f64 = 0.05;
    let mut regressions = Vec::new();
    for base in baseline {
        let new = fresh.iter().find(|c| c.key() == base.key());
        // (metric, baseline, fresh, relative tolerance, absolute floor)
        let columns = [
            (
                "ns/op",
                Some(base.indexed_ns_per_op),
                Some(new.map_or(f64::INFINITY, |c| c.indexed_ns_per_op)),
                tolerance,
                min_delta_ns,
            ),
            (
                "bytes/resident",
                base.bytes_per_resident,
                new.and_then(|c| c.bytes_per_resident),
                tolerance,
                MIN_DELTA_BYTES,
            ),
            (
                WRITE_AMPLIFICATION,
                base.write_amplification,
                new.and_then(|c| c.write_amplification),
                WRITE_AMPLIFICATION_TOLERANCE,
                0.0,
            ),
        ];
        for (metric, base_value, new_value, tolerance, floor) in columns {
            let (Some(baseline), Some(fresh)) = (base_value, new_value) else {
                continue;
            };
            let ratio = fresh / baseline;
            if ratio > 1.0 + tolerance && fresh - baseline > floor {
                regressions.push(Regression {
                    case: base.case.clone(),
                    residents: base.residents,
                    metric,
                    baseline,
                    fresh,
                    ratio,
                });
            }
        }
    }
    regressions
}

/// The measured instrumentation cost of one fixture size: a
/// `<case>_observed` row against its plain `<case>` peer.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsOverhead {
    /// Resident-object count the pair was measured at.
    pub residents: u64,
    /// Plain `<case>` ns/op.
    pub plain_ns: f64,
    /// Instrumented `<case>_observed` ns/op.
    pub observed_ns: f64,
    /// `(observed - plain) / plain` — 0.15 means 15% overhead.
    pub overhead: f64,
}

impl fmt::Display for ObsOverhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "obs overhead @ {} residents: {:.1} ns/op -> {:.1} ns/op ({:+.0}%)",
            self.residents,
            self.plain_ns,
            self.observed_ns,
            self.overhead * 100.0
        )
    }
}

/// Derives the observability overhead from one report: every
/// `<case>_observed` row with a plain `<case>` row at the same fixture
/// size (`store_churn` in engine reports, `serve_mixed` in serve reports)
/// yields one [`ObsOverhead`], ordered by resident count. A row without
/// its peer contributes nothing — the caller decides whether an empty
/// result is acceptable.
pub fn obs_overheads(cases: &[BenchCase]) -> Vec<ObsOverhead> {
    let mut out: Vec<ObsOverhead> = cases
        .iter()
        .filter_map(|observed| {
            let plain_name = observed.case.strip_suffix("_observed")?;
            let plain = cases
                .iter()
                .find(|c| c.key() == (plain_name, observed.residents))?;
            Some(ObsOverhead {
                residents: plain.residents,
                plain_ns: plain.indexed_ns_per_op,
                observed_ns: observed.indexed_ns_per_op,
                overhead: (observed.indexed_ns_per_op - plain.indexed_ns_per_op)
                    / plain.indexed_ns_per_op,
            })
        })
        .collect();
    out.sort_by_key(|o| o.residents);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "benchmark": "indexed engine vs naive scan oracle",
  "command": "cargo run --release -p bench-harness --bin bench_engine",
  "unit": "ns per operation",
  "cases": [
    { "case": "store_churn", "residents": 10000, "indexed_ns_per_op": 2000.0, "reference_ns_per_op": 900000.0, "reference": "naive_scan", "speedup": 450.0, "bytes_per_resident": 400.0 },
    { "case": "peek_admission", "residents": 10000, "indexed_ns_per_op": 800.0, "reference_ns_per_op": 800000.0, "reference": "naive_scan", "speedup": 1000.0, "bytes_per_resident": 400.0 },
    { "case": "density_sampling", "residents": 100000, "indexed_ns_per_op": 40.0, "reference_ns_per_op": 1400000.0, "reference": "naive_scan", "speedup": 35000.0, "bytes_per_resident": 380.0 },
    { "case": "store_churn_observed", "residents": 10000, "indexed_ns_per_op": 2300.0, "reference_ns_per_op": 900000.0, "reference": "naive_scan", "speedup": 391.3, "bytes_per_resident": 400.0 }
  ]
}
"#;

    fn doctored(factor: f64) -> Vec<BenchCase> {
        parse_report(REPORT)
            .unwrap()
            .into_iter()
            .map(|mut c| {
                c.indexed_ns_per_op *= factor;
                c
            })
            .collect()
    }

    #[test]
    fn parses_the_report_shape_bench_engine_emits() {
        let cases = parse_report(REPORT).unwrap();
        assert_eq!(cases.len(), 4);
        assert_eq!(cases[0].case, "store_churn");
        assert_eq!(cases[0].residents, 10_000);
        assert_eq!(cases[0].indexed_ns_per_op, 2000.0);
        assert_eq!(cases[0].reference_ns_per_op, 900_000.0);
        assert_eq!(cases[0].bytes_per_resident, Some(400.0));
        assert_eq!(cases[2].key(), ("density_sampling", 100_000));
    }

    fn case(name: &str, residents: u64, bytes: Option<f64>, wa: Option<f64>) -> BenchCase {
        BenchCase {
            case: name.to_string(),
            residents,
            indexed_ns_per_op: 376.5,
            reference_ns_per_op: 1051.5,
            bytes_per_resident: bytes,
            write_amplification: wa,
        }
    }

    #[test]
    fn rendered_lines_parse_back_for_each_bins_column_set() {
        let engine = case("store_churn", 10_000, Some(388.5), None);
        let serve = case("serve_mixed", 160_000, None, None);
        let durable = case("durable_churn", 10_000, Some(259.5), Some(1.128));
        let lines = [
            engine.render("naive_scan", Some("speedup")),
            serve.render("unobserved", None),
            durable.render("in_memory", None),
        ];
        assert_eq!(
            lines[0],
            r#"{ "case": "store_churn", "residents": 10000, "indexed_ns_per_op": 376.5, "reference_ns_per_op": 1051.5, "reference": "naive_scan", "speedup": 2.8, "bytes_per_resident": 388.5 }"#
        );
        assert!(lines[1].ends_with(r#""reference_ns_per_op": 1051.5, "reference": "unobserved" }"#));
        assert!(lines[2].ends_with(
            r#""reference": "in_memory", "bytes_per_resident": 259.5, "write_amplification": 1.128 }"#
        ));
        assert_eq!(
            parse_report(&lines.join(",\n")).unwrap(),
            [engine, serve, durable]
        );
    }

    #[test]
    fn the_legacy_reference_spelling_is_rejected() {
        let legacy = r#"{ "case": "store_churn", "residents": 10000, "indexed_ns_per_op": 2000.0, "naive_ns_per_op": 900000.0, "speedup": 450.0 }"#;
        assert!(parse_report(legacy)
            .unwrap_err()
            .starts_with("malformed bench case line"));
    }

    #[test]
    fn parses_the_committed_serve_baseline() {
        let committed = include_str!("../../../BENCH_serve.json");
        let cases = parse_report(committed).unwrap();
        let names: Vec<&str> = cases.iter().map(|c| c.case.as_str()).collect();
        assert_eq!(names, ["serve_mixed", "serve_mixed_observed"]);
        // One `residents` key, so the two rows pair; both carry the
        // unobserved run as their reference and no footprint column.
        assert_eq!(cases[0].residents, cases[1].residents);
        for case in &cases {
            assert!(case.indexed_ns_per_op > 0.0);
            assert_eq!(case.reference_ns_per_op, cases[0].indexed_ns_per_op);
            assert_eq!(case.bytes_per_resident, None);
            assert_eq!(case.write_amplification, None);
        }
        let overheads = obs_overheads(&cases);
        assert_eq!(overheads.len(), 1);
        assert_eq!(overheads[0].plain_ns, cases[0].indexed_ns_per_op);
        assert_eq!(overheads[0].observed_ns, cases[1].indexed_ns_per_op);
    }

    #[test]
    fn parses_the_committed_durable_baseline() {
        let committed = include_str!("../../../BENCH_durable.json");
        let cases = parse_report(committed).unwrap();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].key(), ("durable_append", 10_000));
        assert_eq!(cases[1].key(), ("durable_churn", 10_000));
        assert!(cases.iter().all(|c| c.bytes_per_resident.is_some()));
        assert_eq!(cases[0].write_amplification, Some(1.0));
        // ROADMAP pins churn write amplification at 1.090 or better.
        assert!(cases[1].write_amplification.is_some_and(|wa| wa <= 1.090));
    }

    #[test]
    fn parses_the_committed_baseline() {
        // The gate must keep understanding the real committed artifact.
        let committed = include_str!("../../../BENCH_engine.json");
        let cases = parse_report(committed).unwrap();
        assert_eq!(cases.len(), 8, "committed baseline has 8 cases");
        assert!(cases.iter().all(|c| c.indexed_ns_per_op > 0.0));
        assert!(
            cases
                .iter()
                .all(|c| c.bytes_per_resident.unwrap_or(0.0) > 0.0),
            "every baseline case must carry the memory column"
        );
        let overhead_sizes: Vec<u64> = obs_overheads(&cases).iter().map(|o| o.residents).collect();
        assert_eq!(
            overhead_sizes,
            [10_000, 100_000],
            "the observability-overhead pair must stay at both sizes"
        );
    }

    #[test]
    fn rejects_malformed_and_empty_reports() {
        assert!(parse_report("{}").is_err());
        assert!(parse_report("{ \"case\": \"store_churn\" }").is_err());
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = parse_report(REPORT).unwrap();
        let fresh = doctored(1.20);
        assert!(compare(&baseline, &fresh, 0.25, 50.0).is_empty());
    }

    #[test]
    fn gate_fails_against_a_doctored_slow_run() {
        let baseline = parse_report(REPORT).unwrap();
        let fresh = doctored(2.0);
        let regressions = compare(&baseline, &fresh, 0.25, 50.0);
        // density_sampling's 40 → 80 ns delta sits under the noise floor;
        // the three macro cases must all trip the gate.
        assert_eq!(regressions.len(), 3);
        assert!(regressions.iter().any(|r| r.case == "store_churn"));
        assert!(regressions.iter().any(|r| r.case == "peek_admission"));
        assert!(regressions.iter().any(|r| r.case == "store_churn_observed"));
        assert!(regressions[0].ratio > 1.9 && regressions[0].ratio < 2.1);
        assert!(regressions[0].to_string().contains("worse"));
    }

    #[test]
    fn missing_cases_are_regressions() {
        let baseline = parse_report(REPORT).unwrap();
        let fresh = vec![baseline[0].clone()];
        let regressions = compare(&baseline, &fresh, 0.25, 50.0);
        assert_eq!(regressions.len(), 3);
        assert!(regressions.iter().all(|r| r.ratio.is_infinite()));
    }

    #[test]
    fn noise_floor_ignores_tiny_absolute_deltas() {
        let baseline = parse_report(REPORT).unwrap();
        let mut fresh = baseline.clone();
        // 40 → 70 ns is +75% but only 30 ns — noise on a shared runner.
        fresh[2].indexed_ns_per_op = 70.0;
        assert!(compare(&baseline, &fresh, 0.25, 50.0).is_empty());
        // The same ratio past the floor trips.
        fresh[2].indexed_ns_per_op = 120.0;
        assert_eq!(compare(&baseline, &fresh, 0.25, 50.0).len(), 1);
    }

    #[test]
    fn memory_column_gates_with_its_own_floor() {
        let baseline = parse_report(REPORT).unwrap();
        let mut fresh = baseline.clone();
        // +15% memory: inside tolerance.
        fresh[0].bytes_per_resident = Some(460.0);
        assert!(compare(&baseline, &fresh, 0.25, 50.0).is_empty());
        // +50% memory: trips, and reports the right column.
        fresh[0].bytes_per_resident = Some(600.0);
        let regressions = compare(&baseline, &fresh, 0.25, 50.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].metric, "bytes/resident");
        assert!(regressions[0].to_string().contains("bytes/resident"));
        // A big ratio on a tiny absolute base stays under the byte floor.
        let mut tiny = baseline.clone();
        tiny[1].bytes_per_resident = Some(20.0);
        let mut tiny_fresh = tiny.clone();
        tiny_fresh[1].bytes_per_resident = Some(60.0);
        assert!(compare(&tiny, &tiny_fresh, 0.25, 50.0).is_empty());
        // Baselines without the column skip the memory check entirely.
        let mut legacy = baseline.clone();
        legacy[0].bytes_per_resident = None;
        fresh[0].bytes_per_resident = Some(10_000.0);
        assert!(compare(&legacy, &fresh, 0.25, 50.0).is_empty());
    }

    #[test]
    fn write_amplification_gates_at_five_percent() {
        let baseline = [case("durable_churn", 10_000, Some(259.5), Some(1.128))];
        let mut fresh = baseline.clone();
        // 1.128 -> 1.17 is +3.7%: inside the bound.
        fresh[0].write_amplification = Some(1.17);
        assert!(compare(&baseline, &fresh, 0.25, 100.0).is_empty());
        // 1.128 -> 1.40 trips however loose the timing tolerance is.
        fresh[0].write_amplification = Some(1.40);
        let regressions = compare(&baseline, &fresh, 10.0, 100.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].case, "durable_churn");
        assert_eq!(regressions[0].metric, "write amplification");
        assert!(regressions[0]
            .to_string()
            .contains("1.128 write amplification -> 1.400"));
    }

    #[test]
    fn obs_overhead_pairs_observed_with_plain_rows() {
        let cases = parse_report(REPORT).unwrap();
        let overheads = obs_overheads(&cases);
        assert_eq!(overheads.len(), 1);
        assert_eq!(overheads[0].residents, 10_000);
        assert!((overheads[0].overhead - 0.15).abs() < 1e-9);
        assert!(overheads[0].to_string().contains("+15%"));
        // An observed row without its plain peer contributes nothing, nor
        // does one whose peer is at another size.
        let orphan = vec![cases[3].clone()];
        assert!(obs_overheads(&orphan).is_empty());
        let other_size = [
            case("store_churn", 10_000, None, None),
            case("store_churn_observed", 100_000, None, None),
        ];
        assert!(obs_overheads(&other_size).is_empty());
        // The pairing is by suffix, whatever the case is called.
        let serve = [
            case("serve_mixed", 160_000, None, None),
            BenchCase {
                indexed_ns_per_op: 451.8,
                ..case("serve_mixed_observed", 160_000, None, None)
            },
        ];
        let overheads = obs_overheads(&serve);
        assert_eq!(overheads.len(), 1);
        assert_eq!(overheads[0].residents, 160_000);
        assert!((overheads[0].overhead - 0.2).abs() < 1e-9);
    }
}
