//! `tistore` — an interactive shell over the temporal-importance file
//! system (`tifs`), with a simulated clock.
//!
//! ```text
//! $ cargo run --bin tistore -- --capacity 1GiB
//! tistore> mkdir /videos
//! tistore> create /videos/trip.mp4 200MiB twostep:1.0:30d:30d
//! tistore> stat /videos/trip.mp4
//! tistore> advance 45d
//! tistore> density
//! tistore> advise 100MiB
//! tistore> quit
//! ```
//!
//! Reads commands from stdin (or from a file via `--script`), so it
//! doubles as a scriptable driver for demos and smoke tests.

use std::io::{BufRead, Write};

use temporal_reclaim::core::{Advisor, Forecast};
use temporal_reclaim::tifs::{EntryKind, TiFs};
use temporal_reclaim::{ByteSize, Importance, ImportanceCurve, SimDuration, SimTime};

fn main() -> std::process::ExitCode {
    let mut capacity = ByteSize::from_gib(1);
    let mut script: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--capacity" => {
                let Some(value) = args.next() else {
                    eprintln!("--capacity needs a value (e.g. 80GiB)");
                    return std::process::ExitCode::FAILURE;
                };
                match parse_size(&value) {
                    Ok(size) => capacity = size,
                    Err(e) => {
                        eprintln!("{e}");
                        return std::process::ExitCode::FAILURE;
                    }
                }
            }
            "--script" => script = args.next(),
            "--help" | "-h" => {
                println!("usage: tistore [--capacity SIZE] [--script FILE]");
                print_help();
                return std::process::ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                return std::process::ExitCode::FAILURE;
            }
        }
    }

    let mut session = Session::new(capacity);
    let interactive = script.is_none();
    let result = match script {
        Some(path) => match std::fs::File::open(&path) {
            Ok(file) => session.run(std::io::BufReader::new(file), false),
            Err(e) => {
                eprintln!("cannot open script {path}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        },
        None => {
            println!("tistore: {capacity} temporal-importance store. Type 'help'.");
            session.run(std::io::stdin().lock(), true)
        }
    };
    if result || interactive {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

struct Session {
    fs: TiFs,
    now: SimTime,
}

impl Session {
    fn new(capacity: ByteSize) -> Self {
        Session {
            fs: TiFs::new(capacity),
            now: SimTime::ZERO,
        }
    }

    /// Runs the command loop; returns true if every command succeeded.
    fn run<R: BufRead>(&mut self, reader: R, prompt: bool) -> bool {
        let mut all_ok = true;
        if prompt {
            print_prompt();
        }
        for line in reader.lines() {
            let Ok(line) = line else { break };
            let line = line.trim();
            if !line.is_empty() && !line.starts_with('#') {
                match self.execute(line) {
                    Ok(Outcome::Continue) => {}
                    Ok(Outcome::Quit) => break,
                    Err(message) => {
                        println!("error: {message}");
                        all_ok = false;
                    }
                }
            }
            if prompt {
                print_prompt();
            }
        }
        all_ok
    }

    fn execute(&mut self, line: &str) -> Result<Outcome, String> {
        let mut parts = line.split_whitespace();
        let command = parts.next().expect("non-empty line");
        let args: Vec<&str> = parts.collect();
        match (command, args.as_slice()) {
            ("help", _) => print_help(),
            ("quit" | "exit", _) => return Ok(Outcome::Quit),
            ("now", []) => println!("{} (day {})", self.now, self.now.as_days()),
            ("advance", [span]) => {
                let span = parse_duration(span)?;
                self.now += span;
                println!("advanced to {} (day {})", self.now, self.now.as_days());
            }
            ("mkdir", [path]) => {
                self.fs
                    .mkdir_all(path, self.now)
                    .map_err(|e| e.to_string())?;
            }
            ("create", [path, size, curve]) => {
                let size = parse_size(size)?;
                let curve = parse_curve(curve)?;
                let data = vec![0u8; size.as_bytes() as usize];
                self.fs
                    .create(path, data, curve, self.now)
                    .map_err(|e| e.to_string())?;
                println!("created {path} ({size})");
            }
            ("ls", [path]) => {
                for entry in self.fs.list(path, self.now).map_err(|e| e.to_string())? {
                    let marker = match entry.kind {
                        EntryKind::Directory => "/",
                        EntryKind::File => "",
                    };
                    println!("{}{marker}", entry.name);
                }
            }
            ("stat", [path]) => {
                let stat = self.fs.stat(path, self.now).map_err(|e| e.to_string())?;
                println!(
                    "{path}: {} importance {} created day {} expires {}",
                    stat.size,
                    stat.importance,
                    stat.created.as_days(),
                    stat.expires
                        .map(|t| format!("day {}", t.as_days()))
                        .unwrap_or_else(|| "never".to_string()),
                );
            }
            ("rm", [path]) => {
                self.fs.remove(path, self.now).map_err(|e| e.to_string())?;
            }
            ("rmdir", [path]) => {
                self.fs.rmdir(path, self.now).map_err(|e| e.to_string())?;
            }
            ("rejuvenate", [path, curve]) => {
                let curve = parse_curve(curve)?;
                self.fs
                    .rejuvenate(path, curve, self.now)
                    .map_err(|e| e.to_string())?;
            }
            ("demote", [path, curve]) => {
                let curve = parse_curve(curve)?;
                self.fs
                    .demote(path, curve, self.now)
                    .map_err(|e| e.to_string())?;
            }
            ("sweep", []) => {
                let n = self.fs.reclaim_expired(self.now);
                println!("reclaimed {n} expired file(s)");
            }
            ("density", []) => {
                println!(
                    "density {:.4}  used {} / {}",
                    self.fs.density(self.now),
                    self.fs.used(),
                    self.fs.capacity(),
                );
            }
            ("advise", [size]) => {
                let size = parse_size(size)?;
                let advisor = Advisor::from_snapshot(self.fs.density_snapshot(self.now));
                let threshold = advisor.admission_threshold_for(size);
                println!("a {size} file needs importance > {threshold}");
                let probe = ImportanceCurve::two_step(
                    Importance::FULL,
                    SimDuration::from_days(15),
                    SimDuration::from_days(15),
                );
                if let Forecast::Admitted {
                    expected_survival: Some(age),
                } = advisor.forecast(&probe, size)
                {
                    println!(
                        "a full-importance 15d+15d annotation would survive ~{}",
                        age
                    );
                }
            }
            _ => {
                return Err(format!(
                    "unknown or malformed command '{line}' (try 'help')"
                ))
            }
        }
        Ok(Outcome::Continue)
    }
}

enum Outcome {
    Continue,
    Quit,
}

fn print_prompt() {
    print!("tistore> ");
    let _ = std::io::stdout().flush();
}

fn print_help() {
    println!(
        "commands:\n\
         \x20 mkdir <path>                     create directories\n\
         \x20 create <path> <size> <curve>     write-once annotated file\n\
         \x20 ls <path> | stat <path>          inspect the namespace\n\
         \x20 rm <path> | rmdir <path>         remove entries\n\
         \x20 rejuvenate <path> <curve>        raise an annotation\n\
         \x20 demote <path> <curve>            trigger-demote an annotation\n\
         \x20 sweep                            reclaim expired files\n\
         \x20 density | advise <size>          storage feedback\n\
         \x20 now | advance <duration>         simulated clock\n\
         \x20 help | quit\n\
         sizes: 10KiB 5MiB 2GiB    durations: 90m 12h 30d\n\
         curves: persistent | ephemeral | fixed:<p>:<dur> | twostep:<p>:<persist>:<wane>"
    );
}

/// Parses `"200MiB"`-style sizes.
fn parse_size(text: &str) -> Result<ByteSize, String> {
    let (digits, unit) = split_number(text)?;
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("invalid size '{text}'"))?;
    match unit {
        "B" | "" => Ok(ByteSize::from_bytes(value)),
        "KiB" | "K" => Ok(ByteSize::from_kib(value)),
        "MiB" | "M" => Ok(ByteSize::from_mib(value)),
        "GiB" | "G" => Ok(ByteSize::from_gib(value)),
        "TiB" | "T" => Ok(ByteSize::from_tib(value)),
        other => Err(format!("unknown size unit '{other}'")),
    }
}

/// Parses `"30d"` / `"12h"` / `"90m"`-style durations.
fn parse_duration(text: &str) -> Result<SimDuration, String> {
    let (digits, unit) = split_number(text)?;
    let value: u64 = digits
        .parse()
        .map_err(|_| format!("invalid duration '{text}'"))?;
    match unit {
        "m" | "min" => Ok(SimDuration::from_minutes(value)),
        "h" => Ok(SimDuration::from_hours(value)),
        "d" => Ok(SimDuration::from_days(value)),
        "y" => Ok(SimDuration::from_days(value * 365)),
        other => Err(format!("unknown duration unit '{other}' (use m/h/d/y)")),
    }
}

/// Parses curve specs: `persistent`, `ephemeral`, `fixed:<p>:<dur>`,
/// `twostep:<p>:<persist>:<wane>`.
fn parse_curve(text: &str) -> Result<ImportanceCurve, String> {
    let parts: Vec<&str> = text.split(':').collect();
    match parts.as_slice() {
        ["persistent"] => Ok(ImportanceCurve::Persistent),
        ["ephemeral"] => Ok(ImportanceCurve::Ephemeral),
        ["fixed", p, expiry] => Ok(ImportanceCurve::Fixed {
            importance: parse_importance(p)?,
            expiry: parse_duration(expiry)?,
        }),
        ["twostep", p, persist, wane] => Ok(ImportanceCurve::two_step(
            parse_importance(p)?,
            parse_duration(persist)?,
            parse_duration(wane)?,
        )),
        _ => Err(format!(
            "invalid curve '{text}' (persistent | ephemeral | fixed:p:dur | twostep:p:persist:wane)"
        )),
    }
}

fn parse_importance(text: &str) -> Result<Importance, String> {
    let value: f64 = text
        .parse()
        .map_err(|_| format!("invalid importance '{text}'"))?;
    Importance::new(value).map_err(|e| e.to_string())
}

fn split_number(text: &str) -> Result<(&str, &str), String> {
    let end = text
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(text.len());
    if end == 0 {
        return Err(format!("expected a number in '{text}'"));
    }
    Ok((&text[..end], &text[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sizes() {
        assert_eq!(parse_size("10MiB").unwrap(), ByteSize::from_mib(10));
        assert_eq!(parse_size("2G").unwrap(), ByteSize::from_gib(2));
        assert_eq!(parse_size("5").unwrap(), ByteSize::from_bytes(5));
        assert!(parse_size("MiB").is_err());
        assert!(parse_size("10XB").is_err());
    }

    #[test]
    fn parses_durations() {
        assert_eq!(parse_duration("30d").unwrap(), SimDuration::from_days(30));
        assert_eq!(parse_duration("12h").unwrap(), SimDuration::from_hours(12));
        assert_eq!(parse_duration("1y").unwrap(), SimDuration::from_days(365));
        assert!(parse_duration("30w").is_err());
    }

    #[test]
    fn parses_curves() {
        assert_eq!(
            parse_curve("persistent").unwrap(),
            ImportanceCurve::Persistent
        );
        assert_eq!(
            parse_curve("ephemeral").unwrap(),
            ImportanceCurve::Ephemeral
        );
        match parse_curve("twostep:0.5:15d:15d").unwrap() {
            ImportanceCurve::TwoStep {
                importance,
                persist,
                wane,
            } => {
                assert_eq!(importance.value(), 0.5);
                assert_eq!(persist, SimDuration::from_days(15));
                assert_eq!(wane, SimDuration::from_days(15));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_curve("fixed:1.5:10d").is_err());
        assert!(parse_curve("bogus").is_err());
    }

    #[test]
    fn session_executes_a_script() {
        let mut session = Session::new(ByteSize::from_mib(10));
        let script = "\
            mkdir /videos\n\
            # a comment\n\
            create /videos/a.mp4 2MiB twostep:1.0:30d:30d\n\
            stat /videos/a.mp4\n\
            advance 45d\n\
            density\n\
            sweep\n\
            ls /videos\n";
        assert!(session.run(script.as_bytes(), false));
        assert_eq!(session.now, SimTime::from_days(45));
    }

    #[test]
    fn session_reports_errors_without_stopping() {
        let mut session = Session::new(ByteSize::from_mib(1));
        let script = "create /missing-dir/file 1MiB persistent\nmkdir /ok\n";
        // First command fails (no parent), second succeeds.
        assert!(!session.run(script.as_bytes(), false));
        assert!(session.fs.list("/ok", session.now).is_ok());
    }

    #[test]
    fn full_store_error_is_reported() {
        let mut session = Session::new(ByteSize::from_mib(2));
        let ok = session.run(
            "create /a 2MiB persistent\ncreate /b 1MiB persistent\n".as_bytes(),
            false,
        );
        assert!(!ok, "second create must fail (store full)");
    }
}
