//! The metrics registry: counters, high-watermark gauges, log₂ histograms.

use std::sync::{Mutex, MutexGuard, PoisonError};

use sim_core::observe::Observer;
use sim_core::SimTime;

use crate::report::{HistogramSummary, Snapshot, SpanSummary};

/// A log₂-bucketed histogram of `u64` magnitudes.
///
/// Bucket 0 holds exactly the value `0`; bucket `i ≥ 1` holds the values
/// in `[2^(i-1), 2^i)`. Sixty-five buckets therefore cover the whole `u64`
/// range: victims-per-plan, walk hops, and reclaimed-byte magnitudes all
/// land in the low buckets, but nothing ever falls off the top.
///
/// # Examples
///
/// ```
/// use obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [0, 1, 2, 3, 4] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 10);
/// assert_eq!(h.bucket_count(2), 2); // 2 and 3 share the [2, 4) bucket
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; Histogram::BUCKETS],
}

impl Histogram {
    /// Number of buckets: one for zero plus one per power of two.
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; Histogram::BUCKETS],
        }
    }

    /// The bucket index `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive `(low, high)` value range of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Histogram::BUCKETS`.
    pub fn bucket_range(index: usize) -> (u64, u64) {
        assert!(index < Histogram::BUCKETS, "bucket {index} out of range");
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or zero when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or zero when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Samples recorded in bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Histogram::BUCKETS`.
    pub fn bucket_count(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// The upper bound of the first bucket whose cumulative count reaches
    /// the quantile `q` (clamped to `[0, 1]`), tightened by the observed
    /// min/max. Zero when empty. Bucket-resolution, so at worst one power
    /// of two above the true quantile — plenty for order-of-magnitude
    /// reports, and exactly reproducible.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (_, high) = Self::bucket_range(i);
                return high.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Folds `other`'s samples into `self`. Merging is exact: the two
    /// bucket arrays add element-wise and count/sum/min/max combine, so
    /// per-thread histograms merged afterwards answer identically to one
    /// histogram that saw every sample (quantiles included — they only
    /// read buckets and the min/max clamp).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (bucket, &n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *bucket += n;
        }
    }

    /// A compact copy for [`Snapshot`]s.
    pub(crate) fn summarize(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A thread-safe registry of named metrics, usable as an [`Observer`].
///
/// Aggregation is strictly commutative — counters add, gauges keep their
/// high watermark, histograms bucket-count — so totals are deterministic
/// even when several threads (the §5.1 policy simulations, serving
/// workers) emit at once. Names are `&'static str` by design:
/// instrumentation sites name their metrics statically, and the registry
/// never allocates per event.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryCore>,
}

/// A tiny name-keyed table for `&'static str` metric names: a linear scan
/// with a pointer-equality fast path. Emission sites pass the same string
/// literal on every call, so the fat-pointer comparison short-circuits
/// without reading the name's bytes, and a process only ever uses a
/// handful of distinct names — the scan beats hashing the string on every
/// emission. The content-equality fallback keeps two call sites with
/// equal (but differently located) literals on one row.
#[derive(Debug, Default)]
struct NameTable<V> {
    entries: Vec<(&'static str, V)>,
}

impl<V: Default> NameTable<V> {
    fn entry(&mut self, name: &'static str) -> &mut V {
        let pos = self
            .entries
            .iter()
            .position(|&(k, _)| std::ptr::eq(k, name) || k == name);
        let pos = match pos {
            Some(pos) => pos,
            None => {
                self.entries.push((name, V::default()));
                self.entries.len() - 1
            }
        };
        &mut self.entries[pos].1
    }

    fn find(&self, name: &str) -> Option<&V> {
        self.entries
            .iter()
            .find(|&&(k, _)| k == name)
            .map(|(_, v)| v)
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

/// The body of a [`MetricsRegistry`], behind its mutex: linear name
/// tables with a pointer-equality fast path (see [`NameTable`]) and
/// deterministic, sorted output produced at snapshot time instead of per
/// emission.
#[derive(Debug, Default)]
struct RegistryCore {
    counters: NameTable<u64>,
    gauges: NameTable<u64>,
    histograms: NameTable<Histogram>,
    events: NameTable<u64>,
    spans: NameTable<SpanSummary>,
}

impl RegistryCore {
    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name) += delta;
    }

    fn gauge(&mut self, name: &'static str, value: u64) {
        let slot = self.gauges.entry(name);
        *slot = (*slot).max(value);
    }

    fn record(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).record(value);
    }

    fn event(&mut self, kind: &'static str) {
        *self.events.entry(kind) += 1;
    }

    fn span(&mut self, name: &'static str, wall_nanos: u64, sim_minutes: u64) {
        // Wall-clock distribution goes into the log₂ histogram like any
        // magnitude; the span table keeps the simulated-time correlation.
        self.record(name, wall_nanos);
        let summary = self.spans.entry(name);
        summary.count += 1;
        summary.wall_nanos = summary.wall_nanos.saturating_add(wall_nanos);
        summary.sim_minutes = summary.sim_minutes.saturating_add(sim_minutes);
    }

    fn counter_value(&self, name: &str) -> u64 {
        self.counters.find(name).copied().unwrap_or(0)
    }

    fn gauge_value(&self, name: &str) -> u64 {
        self.gauges.find(name).copied().unwrap_or(0)
    }

    fn histogram(&self, name: &str) -> Option<Histogram> {
        self.histograms.find(name).cloned()
    }

    fn event_count(&self, kind: &str) -> u64 {
        self.events.find(kind).copied().unwrap_or(0)
    }

    fn span_summary(&self, name: &str) -> SpanSummary {
        self.spans.find(name).copied().unwrap_or_default()
    }

    fn snapshot(&self) -> Snapshot {
        // Collecting into the snapshot's BTreeMaps restores the sorted,
        // deterministic order the insertion-ordered tables gave up.
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, &v)| (k.to_string(), v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.to_string(), h.summarize()))
                .collect(),
            events: self
                .events
                .iter()
                .map(|(k, &v)| (k.to_string(), v))
                .collect(),
            spans: self
                .spans
                .iter()
                .map(|(k, &v)| (k.to_string(), v))
                .collect(),
        }
    }
}

fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking emitter only ever leaves a metric partially bumped,
    // never structurally broken; keep counting.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Current value of a counter (zero if never bumped).
    pub fn counter_value(&self, name: &str) -> u64 {
        locked(&self.inner).counter_value(name)
    }

    /// High watermark of a gauge (zero if never set).
    pub fn gauge_value(&self, name: &str) -> u64 {
        locked(&self.inner).gauge_value(name)
    }

    /// A copy of a histogram, if any samples were recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        locked(&self.inner).histogram(name)
    }

    /// Number of trace events seen per kind (the registry counts events
    /// rather than buffering them — attach a [`TraceSink`] for bodies).
    ///
    /// [`TraceSink`]: crate::TraceSink
    pub fn event_count(&self, kind: &str) -> u64 {
        locked(&self.inner).event_count(kind)
    }

    /// Aggregates for a phase span (zero summary if never reported).
    pub fn span_summary(&self, name: &str) -> SpanSummary {
        locked(&self.inner).span_summary(name)
    }

    /// A point-in-time copy of every metric, deterministically ordered.
    pub fn snapshot(&self) -> Snapshot {
        locked(&self.inner).snapshot()
    }
}

impl Observer for MetricsRegistry {
    fn counter(&self, name: &'static str, delta: u64) {
        locked(&self.inner).counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: u64) {
        locked(&self.inner).gauge(name, value);
    }

    fn record(&self, name: &'static str, value: u64) {
        locked(&self.inner).record(name, value);
    }

    fn event(&self, _at: SimTime, kind: &'static str, _fields: &[(&'static str, u64)]) {
        locked(&self.inner).event(kind);
    }

    fn span(&self, name: &'static str, wall_nanos: u64, sim_minutes: u64) {
        locked(&self.inner).span(name, wall_nanos, sim_minutes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index((1 << 63) - 1), 63);
    }

    #[test]
    fn merged_histograms_answer_like_one_that_saw_every_sample() {
        let samples_a = [0u64, 1, 7, 512, 4096];
        let samples_b = [3u64, 900, 1 << 40, u64::MAX];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for &v in &samples_a {
            a.record(v);
            whole.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "quantile {q}");
        }
        // Merging an empty histogram changes nothing — in particular it
        // must not disturb the empty-min sentinel.
        let before = a.quantile(0.5);
        a.merge(&Histogram::new());
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.quantile(0.5), before);
        let mut empty = Histogram::new();
        empty.merge(&Histogram::new());
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn bucket_ranges_tile_the_u64_line() {
        assert_eq!(Histogram::bucket_range(0), (0, 0));
        assert_eq!(Histogram::bucket_range(1), (1, 1));
        assert_eq!(Histogram::bucket_range(2), (2, 3));
        assert_eq!(Histogram::bucket_range(64), (1 << 63, u64::MAX));
        for i in 1..Histogram::BUCKETS {
            let (low, high) = Histogram::bucket_range(i);
            assert!(low <= high);
            assert_eq!(Histogram::bucket_index(low), i);
            assert_eq!(Histogram::bucket_index(high), i);
            if i > 1 {
                let (_, prev_high) = Histogram::bucket_range(i - 1);
                assert_eq!(low, prev_high + 1, "gap below bucket {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bucket_range_rejects_out_of_range_indexes() {
        let _ = Histogram::bucket_range(Histogram::BUCKETS);
    }

    #[test]
    fn histogram_edge_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!(h.bucket_count(64), 2);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0, "empty min must not leak the sentinel");
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 lands in the [32, 64) bucket, clamped by max=100.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 63);
        assert_eq!(h.quantile(1.0), 100);
        // A single-sample histogram answers that sample for any q.
        let mut single = Histogram::new();
        single.record(42);
        assert_eq!(single.quantile(0.0), 42);
        assert_eq!(single.quantile(0.5), 42);
        assert_eq!(single.quantile(1.0), 42);
    }

    #[test]
    fn registry_aggregates_commutatively() {
        let registry = MetricsRegistry::new();
        registry.counter("c", 2);
        registry.counter("c", 3);
        registry.gauge("g", 7);
        registry.gauge("g", 4);
        registry.record("h", 5);
        registry.record("h", 9);
        registry.event(SimTime::ZERO, "store", &[("id", 1)]);
        registry.event(SimTime::from_minutes(1), "store", &[("id", 2)]);

        assert_eq!(registry.counter_value("c"), 5);
        assert_eq!(registry.gauge_value("g"), 7, "gauges keep the watermark");
        let h = registry.histogram("h").unwrap();
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (2, 14, 5, 9));
        assert_eq!(registry.event_count("store"), 2);
        assert_eq!(registry.counter_value("absent"), 0);
        assert_eq!(registry.gauge_value("absent"), 0);
        assert!(registry.histogram("absent").is_none());
    }
}
