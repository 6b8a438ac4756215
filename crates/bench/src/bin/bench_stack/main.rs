//! `bench_stack`: one seeded request stream through every prefix of the
//! stack — `StorageUnit`, `ShardEngine`, a 1-shard and a 2-shard
//! `Tempimpd`, the same on durable shards, and the §5.3 simulation.
//!
//! ```text
//! bench_stack --workload NAME --seed N --seconds S --trace 0|1
//! bench_stack --check [--seed N]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one workload, `--trace 1`
//! its per-layer metrics (spans around every call into a layer, written
//! to `<target>/bench_stack/<workload>.spans.jsonl`). The last line of
//! standard output is the JSON result. `--check` runs all five workloads
//! at 1/50 size for their correctness checks and guards only. See the
//! README beside this file for what each metric and workload is for.

mod drive;
mod engine;
mod host;
mod openloop;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;
mod stream;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use report::{Report, Table};
use stream::{Scale, Tally};

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

/// Timed phases are this many equal consecutive windows on the same live
/// store; the reported value is the median window.
pub const WINDOWS: usize = 5;
/// Every workload sets up this many times, each on a fresh store, and
/// `setup_s` is the median. The timed phase runs on the first; the others
/// come after it, so that `peak_rss_mib` has seen one store only.
pub const SETUPS: usize = 3;
/// `repro`'s default seed: at this seed `sim_university` must render the
/// `sec53` block of the committed `repro_output.txt`.
pub use experiments::DEFAULT_SEED;

const WORKLOADS: [&str; 5] = [
    "engine_direct",
    "serve_mem_closed",
    "serve_mem_open",
    "serve_durable_closed",
    "sim_university",
];

/// The wall deadline of a measured run: over three times what the slowest
/// run (the traced `serve_durable_closed`, ~25 s) takes on the reference
/// box plus the longest timed phase `--seconds` allows, and inside the
/// 180 s a single run may take.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// The wall deadline of each workload under `--check`.
const CHECK_DEADLINE: Duration = Duration::from_secs(30);

/// What every workload is run with.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase at full size.
    pub seconds: u64,
    pub scale: Scale,
    /// Where this run may write: durable shard logs, span dumps.
    pub scratch: PathBuf,
    /// Past this instant the watchdog has fired; loops that can stop
    /// early do.
    pub deadline: Instant,
}

impl Config {
    /// The timed phase.
    pub fn timed(&self) -> Duration {
        Duration::from_millis(self.scale.shrink(self.seconds * 1_000))
    }

    /// One of its [`WINDOWS`] windows.
    pub fn window(&self) -> Duration {
        self.timed() / WINDOWS as u32
    }
}

/// The workload-health guard, evaluated on the last third of a warm-up:
/// a run whose store is not saturated the way the paper's is — most puts
/// accepted but not all, most gets hitting, tens of thousands of
/// residents per shard — times something else, and is refused.
pub fn health_guard(steady: &Tally, residents: &[u64], scale: Scale) -> Result<(), String> {
    let accept = steady.put_accept_share();
    let hit = steady.get_hit_share();
    let floor = scale.min_residents_per_shard();
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
    if residents.iter().any(|&count| count < floor) {
        return Err(format!(
            "workload-health guard: residents per shard {residents:?} below {floor}"
        ));
    }
    Ok(())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "invalid --seed")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "invalid --seconds")?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--check" => parsed.check = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    match &parsed.workload {
        Some(name) if !WORKLOADS.contains(&name.as_str()) => {
            Err(format!("unknown workload '{name}' (known: {WORKLOADS:?})"))
        }
        None if !parsed.check => Err(format!("--workload NAME needed (known: {WORKLOADS:?})")),
        _ => Ok(parsed),
    }
}

/// Build outputs and scratch files go under cargo's target directory,
/// which the repository ignores.
fn scratch_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("bench_stack")
}

fn run_workload(name: &str, trace: bool, config: &Config) -> Result<Report, String> {
    match (name, trace) {
        ("engine_direct", false) => engine::run(config),
        ("serve_mem_closed", false) => serve::mem_closed(config),
        ("serve_mem_open", false) => serve::mem_open(config),
        ("serve_durable_closed", false) => serve::durable_closed(config),
        ("sim_university", false) => sim::run(config),
        (_, true) => traced::run(name, config),
        _ => unreachable!("workload names are validated when parsed"),
    }
}

/// Runs one workload on its own thread under a wall deadline, bracketed
/// by the host reference kernel. On expiry the process reports every
/// operation as failed and exits instead of hanging.
fn guarded(name: &'static str, trace: bool, config: Config) -> Report {
    let calib_before = match host::calibrate_apart() {
        Ok(ns) => ns,
        Err(reason) => return Report::aborted(&reason),
    };
    let (tx, rx) = mpsc::channel();
    let deadline = config.deadline;
    let scratch = config.scratch.clone();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(run_workload(name, trace, &config));
    });
    let outcome = rx.recv_timeout(deadline.saturating_duration_since(Instant::now()));
    let mut report = match outcome {
        Ok(outcome) => {
            worker
                .join()
                .expect("workload thread exits after reporting");
            outcome.unwrap_or_else(|reason| Report::aborted(&reason))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Report::aborted("the workload thread panicked")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // The workload's threads are still running and cannot be
            // joined; report and leave.
            let report = Report::aborted(
                "watchdog: wall deadline passed, outstanding operations count as failed",
            );
            report.print(name, Table::ChecksOnly);
            let _ = std::fs::remove_dir_all(&scratch);
            std::process::exit(3);
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let calib_after = match host::calibrate_apart() {
        Ok(ns) => ns,
        Err(reason) => return Report::aborted(&reason),
    };
    let nproc = host::nproc();
    report.note(format!(
        "host.nproc {nproc}  host.calib_ns {calib_before:.2} before, {calib_after:.2} after"
    ));
    if let Some(change) = host::drift(calib_before, calib_after) {
        report.note(format!(
            "host_drift: the reference kernel moved {:+.1} % across this run; repeat it",
            change * 100.0
        ));
    }
    report.metric("host.nproc", nproc as f64);
    report.metric("host.calib_ns", calib_before);
    report.metric("host.calib_after_ns", calib_after);
    report
}

fn main() -> ExitCode {
    // How `host::calibrate_apart` runs the reference kernel.
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        println!("{}", host::calibrate());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_stack: {message}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        host::count_allocs();
    }
    let config = |name: &str, scale: Scale, budget: Duration| Config {
        seed: args.seed,
        seconds: args.seconds,
        scale,
        scratch: scratch_root().join(format!("{name}-{}", std::process::id())),
        deadline: Instant::now() + budget,
    };

    if args.check {
        let mut all_correct = true;
        let mut total = Report::default();
        for name in WORKLOADS {
            let report = guarded(name, false, config(name, Scale::CHECK, CHECK_DEADLINE));
            println!("== {name} (check, {})", Scale::CHECK.label());
            report.print(name, Table::ChecksOnly);
            all_correct &= report.correct();
            total.absorb_counts(report.attempted, report.failed);
        }
        total.check("every workload's checks and guards passed", all_correct);
        total.print("check", Table::ChecksOnly);
        return if total.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let name = WORKLOADS
        .into_iter()
        .find(|name| Some(*name) == args.workload.as_deref())
        .expect("workload names are validated when parsed");
    let report = guarded(name, args.trace, config(name, Scale::FULL, RUN_DEADLINE));
    let table = if args.trace {
        Table::PerLayer
    } else {
        Table::EndToEnd
    };
    report.print(name, table);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
