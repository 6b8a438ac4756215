//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--seed N] [--quick] [--json DIR] [--trace DIR] [--prom FILE] [EXPERIMENT...]
//! repro --list
//! ```
//!
//! With no experiment arguments, all of them run in paper order. `--quick`
//! shortens the simulated horizons (CI-friendly); the default horizons
//! match the figures in the paper. `--json DIR` additionally dumps each
//! report's tables as CSV files into DIR. `--trace DIR` attaches an
//! [`obs::TraceSink`] and writes each experiment's event trace as
//! `DIR/<experiment>.jsonl`; `tempimp-obs series` extracts any trajectory
//! from it (density samples by `gib`/`policy`, per-node cluster density,
//! …) and `tempimp-obs verify-density` checks Figure 6 against it.
//! `--prom FILE` writes the final registry state in the Prometheus text
//! exposition format.
//!
//! A trace is byte-identical across runs when the experiment emits from
//! one thread (`fig6`, `sec53`, …). `fig3` and `fig4` run their three
//! §5.1 policy simulations on threads, so their lines interleave in
//! scheduling order; a series filtered to one run (`density.sample` with
//! `policy=…`) is still that thread's alone, so what `tempimp-obs series`
//! extracts is stable even where the file is not.
//!
//! A process-global [`obs::MetricsRegistry`] is installed at startup;
//! after each experiment the delta of engine/cluster counters goes to
//! **stderr**, so the frozen stdout (`repro_output.txt`, `results/*.csv`)
//! stays byte-identical while humans still get per-phase telemetry. The
//! trace sink only ever *reads* the same integer events, so it cannot
//! perturb stdout either.

use std::process::ExitCode;
use std::sync::Arc;

use experiments::figures::{self, FigureReport};
use experiments::DEFAULT_SEED;
use obs::{Observer, Report, TraceSink};

struct Options {
    seed: u64,
    quick: bool,
    json_dir: Option<String>,
    trace_dir: Option<String>,
    prom_file: Option<String>,
    experiments: Vec<String>,
}

/// Experiments run by default, in paper order. The list (and therefore
/// the default stdout) is frozen against the committed `repro_output.txt`;
/// beyond-paper experiments in [`EXTRA_EXPERIMENTS`] run only when named.
const ALL_EXPERIMENTS: [&str; 20] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "sec53",
    "ablate-decay",
    "ablate-placement",
    "sec6-sensor",
    "fairness",
    "advisor",
    "mixed-apps",
    "predictability",
];

/// Opt-in (beyond-paper) experiments: `repro availability` runs the churn
/// study without perturbing the frozen default output.
const EXTRA_EXPERIMENTS: [&str; 1] = ["availability"];

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let ids: Vec<String> = if options.experiments.is_empty() {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        options.experiments.clone()
    };

    // Every unit/cluster built from here on reports into this registry
    // (unless compiled with `obs-off`, in which case it stays silent).
    // With `--trace` the registry shares the stream with a trace sink
    // through a fan-out.
    let registry = Arc::new(obs::MetricsRegistry::new());
    let trace = options
        .trace_dir
        .as_ref()
        .map(|dir| (dir, Arc::new(TraceSink::new())));
    let mut sinks: Vec<Arc<dyn Observer>> = vec![registry.clone()];
    if let Some((_, sink)) = &trace {
        sinks.push(sink.clone());
    }
    let metrics = obs::set_global_observer(Arc::new(obs::Fanout::new(sinks))).then_some(registry);

    for id in &ids {
        let phase_start = metrics.as_ref().map(|m| m.snapshot());
        let report = match run_experiment(id, &options) {
            Some(report) => report,
            None => {
                eprintln!(
                    "unknown experiment '{id}'; known: {}, {}",
                    ALL_EXPERIMENTS.join(", "),
                    EXTRA_EXPERIMENTS.join(", ")
                );
                return ExitCode::FAILURE;
            }
        };
        println!("{report}");
        if let (Some(metrics), Some(baseline)) = (&metrics, phase_start) {
            let delta = metrics.snapshot().delta(&baseline);
            eprintln!("{}", Report::new(id, delta));
        }
        if let Some(dir) = &options.json_dir {
            if let Err(e) = dump_csv(dir, &report) {
                eprintln!("failed to write CSV for {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
        // Draining after each experiment leaves one trace per file.
        if let Some((dir, sink)) = &trace {
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(format!("{dir}/{id}.jsonl"), sink.take_jsonl()));
            if let Err(e) = written {
                eprintln!("failed to write trace for {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &options.prom_file {
        let text = metrics
            .as_ref()
            .map(|m| m.snapshot().render_prometheus())
            .unwrap_or_default();
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        seed: DEFAULT_SEED,
        quick: false,
        json_dir: None,
        trace_dir: None,
        prom_file: None,
        experiments: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                options.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed '{value}'"))?;
            }
            "--quick" => options.quick = true,
            "--json" => {
                options.json_dir = Some(args.next().ok_or("--json needs a directory")?);
            }
            "--trace" => {
                options.trace_dir = Some(args.next().ok_or("--trace needs a directory")?);
            }
            "--prom" => {
                options.prom_file = Some(args.next().ok_or("--prom needs a file path")?);
            }
            "--list" => {
                println!("{}", ALL_EXPERIMENTS.join("\n"));
                println!("{}", EXTRA_EXPERIMENTS.join("\n"));
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--seed N] [--quick] [--json DIR] [--trace DIR] [--prom FILE] [EXPERIMENT...]\n       repro --list"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'"));
            }
            other => options.experiments.push(other.to_string()),
        }
    }
    Ok(options)
}

fn run_experiment(id: &str, options: &Options) -> Option<FigureReport> {
    let seed = options.seed;
    // Paper-scale horizons vs CI-friendly quick ones.
    let (days, years, uni_years, scale) = if options.quick {
        (365, 3, 1, 50)
    } else {
        (730, 5, 2, 10)
    };
    Some(match id {
        "fig2" => figures::fig2(seed),
        "fig3" => figures::fig3(seed, days),
        "fig4" => figures::fig4(seed, days),
        "fig5" => figures::fig5(seed, days),
        "fig6" => figures::fig6(seed, days),
        "fig7" => figures::fig7(seed, days),
        "table1" => figures::table1(),
        "fig8" => figures::fig8(seed),
        "fig9" => figures::fig9(seed, years),
        "fig10" => figures::fig10(seed, years),
        "fig11" => figures::fig11(seed, years),
        "fig12" => figures::fig12(seed, years),
        "sec53" => figures::sec53(seed, uni_years, scale),
        "availability" => figures::availability(seed, uni_years, scale),
        "ablate-decay" => figures::ablate_decay(seed, days),
        "ablate-placement" => figures::ablate_placement(seed),
        "sec6-sensor" => figures::sec6_sensor(seed),
        "fairness" => figures::fairness(seed),
        "advisor" => figures::advisor(seed, days),
        "mixed-apps" => figures::mixed_apps(seed, days.min(365)),
        "predictability" => figures::predictability(seed, days),
        _ => return None,
    })
}

fn dump_csv(dir: &str, report: &FigureReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (index, (name, table)) in report.tables.iter().enumerate() {
        let path = format!("{dir}/{}_{index}_{}.csv", report.id, slug(name));
        std::fs::write(path, table.to_csv())?;
    }
    Ok(())
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}
