//! Durable-backend cost measurement, emitted as `BENCH_durable.json`.
//!
//! Runs the two write paths the segment log adds on top of the in-memory
//! engine — a sustained append burst into a fresh log, and steady-state
//! churn with automatic compaction — and records nanoseconds per
//! operation for the journaled unit (`indexed_ns_per_op`, the gated
//! column) against the identical workload on the plain in-memory
//! `StorageUnit` (`reference_ns_per_op`, documentation only: the journal
//! can never be free). Each case also records `bytes_per_resident` (disk
//! bytes of the log per resident object at the end of the run — the
//! measure of how much file space the metadata journal costs) and
//! `write_amplification` (total bytes appended over first-write bytes;
//! compaction's survivor rewrites are the excess). Both disk columns are
//! deterministic: the workload is fixed, so only the timing columns see
//! runner noise. The churn case refuses to report if compaction never
//! fired or if write amplification exceeds `1 / compact_trigger`, the
//! bound the log's victim rule gives. Run from the repository root:
//!
//! ```text
//! cargo run --release -p bench-harness --bin bench_durable
//! ```
//!
//! `--out PATH` redirects the report (CI measures into a scratch file and
//! gates it against the committed baseline with `bench_gate`). Crash
//! recovery is not measured here: `tests/durable_recovery.rs` reopens
//! every crash state of a seeded workload.

use std::path::PathBuf;
use std::time::Instant;

use bench_harness::gate::BenchCase;
use bench_harness::incoming_spec;
use sim_core::{ByteSize, SimDuration, SimTime};
use tempimp_durable::{DurableConfig, DurableUnit};
use temporal_importance::{
    EvictionPolicy, Importance, ImportanceCurve, ObjectId, ObjectSpec, StorageUnit,
};

const RESIDENTS: u64 = 10_000;
/// Churn operations: each store preempts one prefilled resident, so this
/// must stay well inside the preemptible pool (see `store_churn` in
/// `bench_engine`). Fixed rather than calibrated so the disk columns are
/// deterministic run to run.
const CHURN_OPS: u64 = RESIDENTS / 2;
const REPETITIONS: u32 = 5;
const OUTPUT: &str = "BENCH_durable.json";

/// Small segments so the churn case actually rolls, seals, and compacts
/// inside the measurement window instead of living in one active file.
const SEGMENT_BYTES: u64 = 64 * 1024;

fn main() {
    let mut output = OUTPUT.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => output = args.next().expect("--out needs a path"),
            other => panic!("unknown argument '{other}' (expected --out PATH)"),
        }
    }

    let cases = [append_case(), churn_case()];

    // The vendored serde_json exposes only typed (de)serialization, so the
    // report is rendered by hand, matching the shape `bench_gate` parses.
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"durable segment-log backend vs in-memory engine\",\n");
    out.push_str("  \"command\": \"cargo run --release -p bench-harness --bin bench_durable\",\n");
    out.push_str("  \"unit\": \"ns per operation\",\n");
    out.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let line = case.render("in_memory", None);
        out.push_str(&format!("    {line}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&output, out).expect("write bench report");
    println!("wrote {output}");
}

/// A fresh scratch directory under the workspace `target/` (the bench
/// must not touch anything outside the repository).
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/bench-durable-scratch"
    ))
    .join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch");
    }
    dir
}

fn config() -> DurableConfig {
    DurableConfig::default().segment_bytes(SEGMENT_BYTES)
}

/// The prefill object family of `bench_engine`'s churn fixture: fixed
/// importance cycling through ten levels, effectively non-expiring.
fn resident_spec(id: u64) -> ObjectSpec {
    ObjectSpec::new(
        ObjectId::new(id),
        ByteSize::from_mib(10),
        ImportanceCurve::Fixed {
            importance: Importance::new_clamped(0.05 + (id % 10) as f64 * 0.1),
            expiry: SimDuration::from_days(3650),
        },
    )
}

fn report_case(
    name: &str,
    durable_ns: f64,
    memory_ns: f64,
    bytes_per_resident: f64,
    write_amplification: f64,
) -> BenchCase {
    let overhead = durable_ns / memory_ns;
    println!(
        "{name:<15} {RESIDENTS:>6} residents: durable {durable_ns:>8.1} ns/op, \
         in-memory {memory_ns:>8.1} ns/op ({overhead:>5.1}x), \
         {bytes_per_resident:>7.1} disk B/resident, WA {write_amplification:.3}"
    );
    BenchCase {
        case: name.to_string(),
        residents: RESIDENTS,
        indexed_ns_per_op: durable_ns,
        reference_ns_per_op: memory_ns,
        bytes_per_resident: Some(bytes_per_resident),
        write_amplification: Some(write_amplification),
    }
}

/// Appending `RESIDENTS` fresh stores into an empty journaled unit — the
/// pure journal write path: serialize, frame, buffered write, flush.
/// Nothing dies, so write amplification is exactly 1.
fn append_case() -> BenchCase {
    let capacity = ByteSize::from_mib(RESIDENTS * 10);
    let mut durable_ns = f64::INFINITY;
    let mut bytes_per_resident = 0.0;
    for _ in 0..REPETITIONS {
        let dir = scratch("append");
        let mut unit = DurableUnit::open(&dir, capacity, EvictionPolicy::Preemptive, config())
            .expect("open fresh log");
        let start = Instant::now();
        for id in 0..RESIDENTS {
            unit.store(resident_spec(id), SimTime::ZERO)
                .expect("append fits");
        }
        durable_ns = durable_ns.min(start.elapsed().as_nanos() as f64 / RESIDENTS as f64);
        bytes_per_resident = unit.disk_info().file_bytes as f64 / RESIDENTS as f64;
        drop(unit);
        std::fs::remove_dir_all(&dir).ok();
    }

    let mut memory_ns = f64::INFINITY;
    for _ in 0..REPETITIONS {
        let mut unit = StorageUnit::builder(capacity).recording(false).build();
        let start = Instant::now();
        for id in 0..RESIDENTS {
            unit.store(resident_spec(id), SimTime::ZERO)
                .expect("append fits");
        }
        memory_ns = memory_ns.min(start.elapsed().as_nanos() as f64 / RESIDENTS as f64);
    }
    report_case(
        "durable_append",
        durable_ns,
        memory_ns,
        bytes_per_resident,
        1.0,
    )
}

/// Steady-state churn on a full unit: every full-importance store
/// preempts one resident, each preemption leaves dead records behind,
/// and automatic compaction rewrites the emptiest sealed segments while
/// the measurement runs — reclamation as compaction, measured end to end.
fn churn_case() -> BenchCase {
    let capacity = ByteSize::from_mib(RESIDENTS * 10);
    let mut durable_ns = f64::INFINITY;
    let mut bytes_per_resident = 0.0;
    let mut write_amplification = 1.0;
    // Preempting half the pool leaves the sealed dead ratio just above a
    // quarter; a 0.25 trigger makes compaction fire repeatedly inside the
    // window (the default 0.5 would need a deeper kill fraction).
    let trigger = 0.25;
    let churn_config = config().compact_trigger(trigger);
    for _ in 0..REPETITIONS {
        let dir = scratch("churn");
        let mut unit = DurableUnit::open(&dir, capacity, EvictionPolicy::Preemptive, churn_config)
            .expect("open fresh log");
        for id in 0..RESIDENTS {
            unit.store(resident_spec(id), SimTime::ZERO)
                .expect("prefill fits");
        }
        let start = Instant::now();
        for op in 0..CHURN_OPS {
            unit.store(
                incoming_spec(RESIDENTS + op, 10),
                SimTime::from_minutes(op + 1),
            )
            .expect("churn store preempts one victim");
        }
        durable_ns = durable_ns.min(start.elapsed().as_nanos() as f64 / CHURN_OPS as f64);
        let disk = unit.disk_info();
        assert!(
            disk.compactions > 0,
            "the churn case must exercise compaction (got {} segments, 0 compactions)",
            disk.segments
        );
        bytes_per_resident = disk.file_bytes as f64 / unit.unit().len() as f64;
        write_amplification = disk.write_amplification();
        // The log folds its deadest sealed segment once `trigger` of the
        // sealed bytes are dead, which bounds what compaction rewrites.
        assert!(
            write_amplification <= 1.0 / trigger,
            "write amplification {write_amplification:.3} exceeds 1/{trigger}: \
             compaction is copying more than its trigger allows"
        );
        drop(unit);
        std::fs::remove_dir_all(&dir).ok();
    }

    let mut memory_ns = f64::INFINITY;
    for _ in 0..REPETITIONS {
        let mut unit = StorageUnit::builder(capacity).recording(false).build();
        for id in 0..RESIDENTS {
            unit.store(resident_spec(id), SimTime::ZERO)
                .expect("prefill fits");
        }
        let start = Instant::now();
        for op in 0..CHURN_OPS {
            unit.store(
                incoming_spec(RESIDENTS + op, 10),
                SimTime::from_minutes(op + 1),
            )
            .expect("churn store preempts one victim");
        }
        memory_ns = memory_ns.min(start.elapsed().as_nanos() as f64 / CHURN_OPS as f64);
    }
    report_case(
        "durable_churn",
        durable_ns,
        memory_ns,
        bytes_per_resident,
        write_amplification,
    )
}
