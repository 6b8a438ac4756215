//! The artifact contract: `repro`'s default run prints `repro_output.txt`
//! byte for byte, and the default set plus the opt-in `availability`
//! experiment write `results/` byte for byte. The experiments run through
//! `bench_harness::repro`, the functions the binary calls, so this checks
//! what the binary prints; under `--features obs-off` it checks that
//! build's artifacts too.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use bench_harness::repro::{dump_csv, run_experiment, ALL_EXPERIMENTS, EXTRA_EXPERIMENTS};
use experiments::DEFAULT_SEED;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Fails naming `artifact` and the first line where `actual` leaves
/// `expected`.
fn assert_same(artifact: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    let (mut want, mut got) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (w, g) => panic!(
                "{artifact} differs at line {line}:\n  committed: {}\n  generated: {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>"),
            ),
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The CSV file names in `dir` written by the experiment `id`.
fn csvs_of(dir: &Path, id: &str) -> BTreeSet<String> {
    let prefix = format!("{id}_");
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with(&prefix) && name.ends_with(".csv"))
        .collect()
}

/// Runs `ids` at the default seed and horizons, checks every CSV they
/// write against `results/`, and returns their stdout as `repro` prints
/// it.
fn run_and_check_csvs(tag: &str, ids: &[&str]) -> String {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("artifacts-{tag}"));
    if out.exists() {
        std::fs::remove_dir_all(&out).expect("clear a stale output directory");
    }
    let results = Path::new(ROOT).join("results");
    let mut stdout = String::new();
    for id in ids {
        let report = run_experiment(id, DEFAULT_SEED, false).expect("a known experiment");
        stdout.push_str(&format!("{report}\n"));
        dump_csv(&out, &report).expect("write the CSVs");
        let (written, committed) = (csvs_of(&out, id), csvs_of(&results, id));
        assert!(!written.is_empty(), "{id} wrote no CSV");
        assert_eq!(written, committed, "{id}'s CSV files");
        for name in &written {
            let artifact = format!("results/{name}");
            assert_same(
                &artifact,
                &read(&results.join(name)),
                &read(&out.join(name)),
            );
        }
    }
    std::fs::remove_dir_all(&out).expect("remove the output directory");
    stdout
}

#[test]
fn the_default_run_reproduces_stdout_and_its_csvs() {
    let stdout = run_and_check_csvs("default", &ALL_EXPERIMENTS);
    let committed = read(&Path::new(ROOT).join("repro_output.txt"));
    assert_same("repro_output.txt", &committed, &stdout);
}

#[test]
fn the_availability_run_reproduces_its_csvs() {
    run_and_check_csvs("availability", &EXTRA_EXPERIMENTS);
}

/// Every committed CSV belongs to an experiment the two runs above
/// check, so none can go stale unnoticed.
#[test]
fn every_committed_csv_is_checked() {
    let results = Path::new(ROOT).join("results");
    let checked: usize = ALL_EXPERIMENTS
        .iter()
        .chain(&EXTRA_EXPERIMENTS)
        .map(|id| csvs_of(&results, id).len())
        .sum();
    let committed = std::fs::read_dir(&results).expect("results/").count();
    assert_eq!(
        checked, committed,
        "results/ holds a CSV no experiment writes"
    );
}
