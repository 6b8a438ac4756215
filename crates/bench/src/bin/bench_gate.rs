//! `bench_gate` — fails CI when a `bench_engine` / `bench_serve` /
//! `bench_durable` report regresses against its committed baseline.
//!
//! Usage:
//!
//! ```text
//! bench_gate --baseline BENCH_engine.json --fresh fresh.json \
//!            [--tolerance 0.25] [--min-delta-ns 100] \
//!            [--residents N] [--max-obs-overhead 0.20]
//! ```
//!
//! Exits 0 when every case of the fresh report is within `tolerance`
//! (default 25%) of the baseline's `indexed_ns_per_op` and
//! `bytes_per_resident` and within a fixed 5% of its
//! `write_amplification`, 1 when any case regressed (or disappeared), and
//! 2 on usage or parse errors. Slowdowns whose absolute delta is below
//! `--min-delta-ns` (default 100) are treated as shared-runner noise.
//!
//! `--residents N` restricts both reports to one fixture size, matching a
//! `bench_engine --residents N` run, so a CI matrix can gate sizes in
//! parallel jobs. `--max-obs-overhead F` additionally fails the gate when
//! an instrumented row of the fresh report (`store_churn_observed`,
//! `serve_mixed_observed`) costs more than `F` (a fraction, e.g. `0.20`)
//! over its plain peer (`store_churn`, `serve_mixed`).

use std::process::ExitCode;

use bench_harness::gate::{compare, obs_overheads, parse_report};

struct Options {
    baseline: String,
    fresh: String,
    tolerance: f64,
    min_delta_ns: f64,
    residents: Option<u64>,
    max_obs_overhead: Option<f64>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        baseline: "BENCH_engine.json".to_string(),
        fresh: String::new(),
        tolerance: 0.25,
        min_delta_ns: 100.0,
        residents: None,
        max_obs_overhead: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--baseline" => options.baseline = value("--baseline")?,
            "--fresh" => options.fresh = value("--fresh")?,
            "--tolerance" => {
                let raw = value("--tolerance")?;
                options.tolerance = raw
                    .parse()
                    .map_err(|_| format!("invalid tolerance '{raw}'"))?;
            }
            "--min-delta-ns" => {
                let raw = value("--min-delta-ns")?;
                options.min_delta_ns = raw
                    .parse()
                    .map_err(|_| format!("invalid min delta '{raw}'"))?;
            }
            "--residents" => {
                let raw = value("--residents")?;
                options.residents = Some(
                    raw.parse()
                        .map_err(|_| format!("invalid resident count '{raw}'"))?,
                );
            }
            "--max-obs-overhead" => {
                let raw = value("--max-obs-overhead")?;
                options.max_obs_overhead = Some(
                    raw.parse()
                        .map_err(|_| format!("invalid obs overhead '{raw}'"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_gate --baseline BASE.json --fresh FRESH.json \
                     [--tolerance 0.25] [--min-delta-ns 100] \
                     [--residents N] [--max-obs-overhead 0.20]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if options.fresh.is_empty() {
        return Err("--fresh is required (path to the freshly measured report)".to_string());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let load = |path: &str| -> Result<_, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut cases = parse_report(&raw).map_err(|e| format!("{path}: {e}"))?;
        if let Some(residents) = options.residents {
            cases.retain(|c| c.residents == residents);
            if cases.is_empty() {
                return Err(format!("{path}: no cases at {residents} residents"));
            }
        }
        Ok(cases)
    };
    let (baseline, fresh) = match (load(&options.baseline), load(&options.fresh)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    for case in &fresh {
        let versus = baseline
            .iter()
            .find(|b| b.key() == case.key())
            .map(|b| format!("{:.1}", b.indexed_ns_per_op))
            .unwrap_or_else(|| "-".to_string());
        let memory = case
            .bytes_per_resident
            .map(|b| format!(", {b:.1} B/resident"))
            .unwrap_or_default();
        let amplification = case
            .write_amplification
            .map(|wa| format!(", WA {wa:.3}"))
            .unwrap_or_default();
        println!(
            "{:<20} {:>7} residents: {:>10.1} ns/op (baseline {versus}){memory}{amplification}",
            case.case, case.residents, case.indexed_ns_per_op
        );
    }

    let mut failed = false;
    let regressions = compare(&baseline, &fresh, options.tolerance, options.min_delta_ns);
    if regressions.is_empty() {
        println!(
            "bench gate: OK ({} cases within {:.0}% of baseline)",
            fresh.len(),
            options.tolerance * 100.0
        );
    } else {
        failed = true;
        eprintln!(
            "bench gate: {} regression(s) (time and memory tolerance {:.0}%):",
            regressions.len(),
            options.tolerance * 100.0
        );
        for regression in &regressions {
            eprintln!("  {regression}");
        }
    }

    if let Some(max) = options.max_obs_overhead {
        let overheads = obs_overheads(&fresh);
        if overheads.is_empty() {
            eprintln!("bench gate: no <case> / <case>_observed pair to check");
            return ExitCode::from(2);
        }
        for overhead in &overheads {
            println!("{overhead}");
            if overhead.overhead > max {
                failed = true;
                eprintln!(
                    "bench gate: instrumentation overhead {:.0}% exceeds the {:.0}% budget \
                     @ {} residents",
                    overhead.overhead * 100.0,
                    max * 100.0,
                    overhead.residents
                );
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
