//! What the benchmark reads about the machine it runs on: a fixed
//! reference kernel that brackets every workload (host-drift guard),
//! the core count, peak resident memory, `/proc/self/io`, and a counting
//! global allocator that only counts in traced runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Table entries of the reference kernel: 16 Mi × 4 bytes = 64 MiB, well
/// past the last-level cache, so every step is a memory access.
const CALIB_ENTRIES: usize = 1 << 24;
const CALIB_STEPS: usize = 1_000_000;
/// Two calibrations further apart than this are reported as host drift.
pub const DRIFT_LIMIT: f64 = 0.10;

/// Nanoseconds per step of a pointer chase over a 64 MiB permutation.
///
/// The permutation is the full-period congruential map
/// `i → (a·i + c) mod 2^24` (`a ≡ 1 mod 4`, `c` odd, both fixed): one
/// cycle through every entry, pseudo-random in address, and filled
/// sequentially in milliseconds.
pub fn calibrate() -> f64 {
    const A: usize = 1_664_525;
    const C: usize = 1_013_904_223;
    let table: Vec<u32> = (0..CALIB_ENTRIES)
        .map(|i| ((A.wrapping_mul(i).wrapping_add(C)) & (CALIB_ENTRIES - 1)) as u32)
        .collect();
    let started = Instant::now();
    let mut at = 0u32;
    for _ in 0..CALIB_STEPS {
        at = table[at as usize];
    }
    let elapsed = started.elapsed();
    std::hint::black_box(at);
    elapsed.as_nanos() as f64 / CALIB_STEPS as f64
}

/// [`calibrate`] in a child process (this executable with `--calibrate`),
/// so that the table never counts towards this process's `VmHWM`: it is
/// larger than all `sim_university` holds. Readings before and after a
/// workload are both taken this way, so that they compare.
pub fn calibrate_apart() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|error| format!("no path to self: {error}"))?;
    let output = std::process::Command::new(exe)
        .arg("--calibrate")
        .output()
        .map_err(|error| format!("the reference kernel did not start: {error}"))?;
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| format!("the reference kernel printed no number ({})", output.status))
}

/// `(after − before) ÷ before`, when it is beyond [`DRIFT_LIMIT`].
pub fn drift(before_ns: f64, after_ns: f64) -> Option<f64> {
    let change = (after_ns - before_ns) / before_ns;
    (change.abs() > DRIFT_LIMIT).then_some(change)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_field(file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|line| line.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Cumulative write syscalls and bytes passed to them, from
/// `/proc/self/io`; zeros where the file is not readable.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    pub write_syscalls: u64,
    pub wchar: u64,
}

pub fn io_counters() -> IoCounters {
    IoCounters {
        write_syscalls: proc_field("/proc/self/io", "syscw:").unwrap_or(0),
        wchar: proc_field("/proc/self/io", "wchar:").unwrap_or(0),
    }
}

/// The system allocator, counting calls and bytes once [`count_allocs`]
/// has switched it on. Untraced runs pay one relaxed load per call.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Switches counting on for the rest of the process. Call before the
/// first store is built, or `live_bytes` misses what is already held.
pub fn count_allocs() {
    COUNTING.store(true, Ordering::Relaxed);
}

#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounters {
    pub calls: u64,
    pub bytes: u64,
    pub live_bytes: i64,
}

pub fn alloc_counters() -> AllocCounters {
    AllocCounters {
        calls: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
    }
}

fn counted(allocated: usize, freed: usize) {
    // Statistics only: they publish no other data, so `Relaxed`.
    if COUNTING.load(Ordering::Relaxed) {
        if allocated > 0 {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(allocated as u64, Ordering::Relaxed);
        }
        LIVE_BYTES.fetch_add(allocated as i64 - freed as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size(), 0);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size(), 0);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        counted(0, layout.size());
        // SAFETY: `ptr` and `layout` are the caller's, and this allocator
        // only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size, layout.size());
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_reported_only_beyond_the_limit() {
        assert_eq!(drift(100.0, 109.0), None);
        assert_eq!(drift(100.0, 91.0), None);
        assert!(drift(100.0, 161.0).is_some_and(|d| (d - 0.61).abs() < 1e-9));
        assert!(drift(100.0, 80.0).is_some_and(|d| d < 0.0));
    }

    #[test]
    fn the_reference_map_is_one_cycle_through_every_entry() {
        // Same multiplier and increment on a table small enough to walk.
        let size = 1usize << 12;
        let next =
            |i: usize| (1_664_525usize.wrapping_mul(i).wrapping_add(1_013_904_223)) & (size - 1);
        let mut at = 0;
        let mut steps = 0;
        loop {
            at = next(at);
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, size);
    }

    #[test]
    fn proc_fields_parse() {
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
    }
}
