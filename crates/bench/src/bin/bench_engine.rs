//! Indexed-versus-naive engine comparison, emitted as `BENCH_engine.json`.
//!
//! Runs the three hot paths the indexed engine accelerates — sustained
//! store churn, admission probes, and repeated density sampling — on both
//! the incremental engine and the scan-everything oracle
//! (`StorageUnit::builder(..).naive_oracle(true)`) at 10k and
//! 100k residents, and records nanoseconds per operation plus the
//! speedup. Each case also records `bytes_per_resident`: the net heap
//! growth of building the indexed fixture divided by its population, the
//! memory side of the ID-arena data layout (gated by `bench_gate` next to
//! the time-per-op columns). Run from the repository root:
//!
//! ```text
//! cargo run --release -p bench-harness --bin bench_engine
//! ```
//!
//! `--out PATH` redirects the report (CI measures into a scratch file and
//! gates it against the committed baseline with `bench_gate`);
//! `--residents N` restricts the run to one fixture size so a CI matrix
//! can parallelize across sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench_harness::gate::BenchCase;
use bench_harness::{incoming_spec, mixed_unit, mixed_unit_naive};
use obs::{MetricsRegistry, Obs};
use sim_core::{ByteSize, SimTime};
use temporal_importance::{Importance, StorageUnit};

const RESIDENT_COUNTS: [u64; 2] = [10_000, 100_000];
const OUTPUT: &str = "BENCH_engine.json";

/// A [`System`]-delegating allocator that tallies gross bytes allocated
/// and freed, so fixture construction can be measured as net heap growth.
/// Counts request sizes (not allocator-internal overhead), which is the
/// part the engine's data layout controls.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn net_heap_bytes() -> u64 {
    ALLOCATED
        .load(Ordering::Relaxed)
        .saturating_sub(FREED.load(Ordering::Relaxed))
}

fn main() {
    let mut output = OUTPUT.to_string();
    let mut only_residents: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => output = args.next().expect("--out needs a path"),
            "--residents" => {
                let n = args.next().expect("--residents needs a count");
                only_residents = Some(n.parse().expect("--residents needs a number"));
            }
            other => panic!("unknown argument '{other}' (expected --out PATH / --residents N)"),
        }
    }

    let mut cases = Vec::new();
    for residents in RESIDENT_COUNTS {
        if only_residents.is_some_and(|only| only != residents) {
            continue;
        }
        let (plain, observed) = run_churn_pair(residents);
        cases.push(plain);
        cases.push(run_case("peek_admission", residents, peek_admission_ns));
        cases.push(run_case("density_sampling", residents, density_sampling_ns));
        cases.push(observed);
    }
    assert!(!cases.is_empty(), "--residents matched no fixture size");

    // The vendored serde_json exposes only typed (de)serialization, so the
    // report is rendered by hand.
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"indexed engine vs naive scan oracle\",\n");
    out.push_str("  \"command\": \"cargo run --release -p bench-harness --bin bench_engine\",\n");
    out.push_str("  \"unit\": \"ns per operation\",\n");
    out.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let line = case.render("naive_scan", Some("speedup"));
        out.push_str(&format!("    {line}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&output, out).expect("write bench report");
    println!("wrote {output}");
}

fn run_case(name: &str, residents: u64, measure: fn(StorageUnit, u64) -> f64) -> BenchCase {
    let capacity = ByteSize::from_mib(residents * 10);
    // The indexed number is what `bench_gate` gates on, and at 10k
    // residents a single measurement window is only a few milliseconds —
    // noisy enough on a shared runner to flap a 25% tolerance. Take the
    // minimum of five fresh-fixture repetitions: noise is strictly
    // additive, so the min is the stable estimate of the true cost.
    let mut indexed_ns = f64::INFINITY;
    let mut bytes_per_resident = 0.0;
    for repetition in 0..5 {
        let before = net_heap_bytes();
        let unit = mixed_unit(capacity, residents, 10);
        if repetition == 0 {
            // Fixture heap footprint: everything the unit retains after
            // admitting `residents` objects — arena slots, dense indexes,
            // id map — measured while nothing else is being built.
            let delta = net_heap_bytes().saturating_sub(before);
            bytes_per_resident = delta as f64 / residents as f64;
        }
        indexed_ns = indexed_ns.min(measure(unit, residents));
    }
    let naive_ns = measure(mixed_unit_naive(capacity, residents, 10), residents);
    report_case(name, residents, indexed_ns, naive_ns, bytes_per_resident)
}

/// Measures plain and instrumented churn as one interleaved pair: every
/// repetition times a plain window and an observed window back-to-back,
/// so both minima come from the same load regime and the overhead ratio
/// the obs gate checks is not skewed by a background burst that happened
/// to land on only one of two far-apart measurement phases.
fn run_churn_pair(residents: u64) -> (BenchCase, BenchCase) {
    let capacity = ByteSize::from_mib(residents * 10);
    let mut plain_ns = f64::INFINITY;
    let mut observed_ns = f64::INFINITY;
    let mut bytes_per_resident = 0.0;
    for repetition in 0..5 {
        let before = net_heap_bytes();
        let unit = mixed_unit(capacity, residents, 10);
        if repetition == 0 {
            let delta = net_heap_bytes().saturating_sub(before);
            bytes_per_resident = delta as f64 / residents as f64;
        }
        plain_ns = plain_ns.min(store_churn_ns(unit, residents));
        let unit = mixed_unit(capacity, residents, 10);
        observed_ns = observed_ns.min(store_churn_observed_ns(unit, residents));
    }
    let naive_ns = store_churn_ns(mixed_unit_naive(capacity, residents, 10), residents);
    let naive_observed_ns =
        store_churn_observed_ns(mixed_unit_naive(capacity, residents, 10), residents);
    (
        report_case(
            "store_churn",
            residents,
            plain_ns,
            naive_ns,
            bytes_per_resident,
        ),
        report_case(
            "store_churn_observed",
            residents,
            observed_ns,
            naive_observed_ns,
            bytes_per_resident,
        ),
    )
}

fn report_case(
    name: &str,
    residents: u64,
    indexed_ns: f64,
    naive_ns: f64,
    bytes_per_resident: f64,
) -> BenchCase {
    let speedup = naive_ns / indexed_ns;
    println!(
        "{name:<18} {residents:>7} residents: indexed {indexed_ns:>12.1} ns/op, \
         naive {naive_ns:>14.1} ns/op, speedup {speedup:>8.1}x, \
         {bytes_per_resident:>7.1} bytes/resident"
    );
    BenchCase {
        case: name.to_string(),
        residents,
        indexed_ns_per_op: indexed_ns,
        reference_ns_per_op: naive_ns,
        bytes_per_resident: Some(bytes_per_resident),
        write_amplification: None,
    }
}

/// Picks an iteration count that keeps the slow (naive, 100k) variants
/// inside a few seconds while giving the fast variants enough repetitions
/// to time reliably: calibrate with one operation, then target ~1s.
fn calibrated_ops(first_op_ns: f64, available: u64) -> u64 {
    let target_ns = 1e9;
    ((target_ns / first_op_ns.max(1.0)) as u64).clamp(8, available)
}

/// Sustained churn: each store of a same-sized full-importance object
/// preempts exactly one resident, so the population is stable and every
/// operation runs a full admission plan plus one eviction.
fn store_churn_ns(mut unit: StorageUnit, residents: u64) -> f64 {
    let mut next_id = residents;
    let mut minute = 0u64;
    let do_store = |unit: &mut StorageUnit, id: u64, minute: u64| {
        unit.store(incoming_spec(id, 10), SimTime::from_minutes(minute))
            .expect("churn store preempts one victim");
    };

    let start = Instant::now();
    next_id += 1;
    minute += 1;
    do_store(&mut unit, next_id, minute);
    let first = start.elapsed().as_nanos() as f64;

    // Preempting the whole fixture would leave only unpreemptible
    // full-importance residents; stay well inside the pool.
    let ops = calibrated_ops(first, residents / 2);
    let start = Instant::now();
    for _ in 0..ops {
        next_id += 1;
        minute += 1;
        do_store(&mut unit, next_id, minute);
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// `store_churn` with a [`MetricsRegistry`] attached — the sink `repro`,
/// `bench_serve` and `examples/quickstart` attach. This is the instrumented
/// cost the obs-overhead CI gate compares to the plain `store_churn` row;
/// under `obs-off` the attach compiles to nothing and this case collapses
/// to `store_churn`, which is the zero-cost claim made measurable.
fn store_churn_observed_ns(mut unit: StorageUnit, residents: u64) -> f64 {
    unit.set_observer(Obs::attached(Arc::new(MetricsRegistry::new())));
    store_churn_ns(unit, residents)
}

/// The §5.3 placement probe: plan an admission without mutating the unit.
fn peek_admission_ns(unit: StorageUnit, _residents: u64) -> f64 {
    let probe = |unit: &StorageUnit| {
        unit.peek_admission(
            ByteSize::from_mib(30),
            Importance::new_clamped(0.9),
            SimTime::ZERO,
        )
    };

    let start = Instant::now();
    let _ = probe(&unit);
    let first = start.elapsed().as_nanos() as f64;

    let ops = calibrated_ops(first, u64::MAX);
    let start = Instant::now();
    for _ in 0..ops {
        std::hint::black_box(probe(&unit));
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// The dashboard loop: advance the clock a minute and resample density.
fn density_sampling_ns(mut unit: StorageUnit, _residents: u64) -> f64 {
    let mut minute = 0u64;
    let sample = |unit: &mut StorageUnit, minute: u64| {
        let now = SimTime::from_minutes(minute);
        unit.advance(now);
        unit.importance_density(now)
    };

    let start = Instant::now();
    minute += 1;
    let _ = sample(&mut unit, minute);
    let first = start.elapsed().as_nanos() as f64;

    let ops = calibrated_ops(first, u64::MAX);
    let start = Instant::now();
    for _ in 0..ops {
        minute += 1;
        std::hint::black_box(sample(&mut unit, minute));
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}
