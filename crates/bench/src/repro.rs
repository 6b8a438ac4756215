//! What the `repro` binary runs: the experiment lists, one experiment by
//! name, and the CSV dump of its tables. `tests/artifacts.rs` calls the
//! same functions and compares what they return with the committed
//! `repro_output.txt` and `results/`, so the binary and the check cannot
//! drift apart.

use std::path::Path;

use experiments::figures::{self, FigureReport};

/// Experiments run by default, in paper order. The list (and therefore
/// the default stdout) is frozen against the committed `repro_output.txt`;
/// beyond-paper experiments in [`EXTRA_EXPERIMENTS`] run only when named.
pub const ALL_EXPERIMENTS: [&str; 20] = [
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
pub const EXTRA_EXPERIMENTS: [&str; 1] = ["availability"];

/// Runs the experiment named `id`, or returns `None` for an unknown name.
/// `quick` shortens the simulated horizons; the default horizons match
/// the paper's figures and the committed artifacts.
pub fn run_experiment(id: &str, seed: u64, quick: bool) -> Option<FigureReport> {
    // Paper-scale horizons vs CI-friendly quick ones.
    let (days, years, uni_years, scale) = if quick {
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

/// Writes each of `report`'s tables into `dir` as
/// `<experiment>_<index>_<table name>.csv`, creating `dir` if needed.
///
/// # Errors
///
/// Any I/O error from creating the directory or writing a file.
pub fn dump_csv(dir: impl AsRef<Path>, report: &FigureReport) -> std::io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    for (index, (name, table)) in report.tables.iter().enumerate() {
        let path = dir.join(format!("{}_{index}_{}.csv", report.id, slug(name)));
        std::fs::write(path, table.to_csv())?;
    }
    Ok(())
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}
