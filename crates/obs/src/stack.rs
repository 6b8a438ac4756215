//! The single-lock composite observer.
//!
//! A full observability setup — totals, time series, and an event trace —
//! built from the individual sinks costs one mutex acquisition *per sink
//! per signal*: a [`Fanout`] over [`MetricsRegistry`], [`SeriesRecorder`],
//! and [`TraceSink`] takes three locks for every emission, plus a dynamic
//! dispatch each. On the engine's store path (~3 signals per store: a
//! counter, the store event, an evict event per victim) that
//! synchronization overhead alone dwarfs the 20% instrumentation budget
//! the CI gate enforces.
//!
//! [`ObsStack`] embeds the same three cores behind **one** mutex: each
//! signal takes a single uncontended lock and updates all three roles in
//! place. The read-side APIs of the individual sinks are mirrored here, so
//! swapping a `Fanout` for an `ObsStack` changes only construction.
//!
//! [`Fanout`]: crate::Fanout
//! [`MetricsRegistry`]: crate::MetricsRegistry
//! [`SeriesRecorder`]: crate::SeriesRecorder
//! [`TraceSink`]: crate::TraceSink

use std::sync::{Mutex, MutexGuard, PoisonError};

use sim_core::observe::Observer;
use sim_core::{SimDuration, SimTime};

use crate::registry::RegistryCore;
use crate::report::{Snapshot, SpanSummary};
use crate::series::SeriesCore;
use crate::trace::TraceCore;
use crate::Histogram;

#[derive(Debug)]
struct StackCore {
    registry: RegistryCore,
    series: SeriesCore,
    trace: TraceCore,
}

/// Registry + series recorder + trace sink behind a single lock.
///
/// Implements [`Observer`], so it attaches anywhere the individual sinks
/// do; every emission updates all three roles with one mutex acquisition.
/// The instrumented benchmarks use it as the "fully observed"
/// configuration the obs-overhead CI gate measures.
///
/// # Examples
///
/// ```
/// use obs::ObsStack;
/// use sim_core::{Obs, SimDuration, SimTime};
/// use std::sync::Arc;
///
/// let stack = Arc::new(ObsStack::new(SimDuration::DAY));
/// stack.track_counter("engine.stores");
/// let obs = Obs::attached(stack.clone());
/// obs.counter("engine.stores", 2);
/// obs.event(SimTime::from_minutes(5), "engine.store", &[("id", 7)]);
/// # #[cfg(not(feature = "obs-off"))]
/// assert_eq!(stack.counter_value("engine.stores"), 2);
/// # #[cfg(not(feature = "obs-off"))]
/// assert_eq!(
///     stack.to_jsonl(),
///     "{\"t\":5,\"kind\":\"engine.store\",\"fields\":{\"id\":7}}\n"
/// );
/// ```
#[derive(Debug)]
pub struct ObsStack {
    inner: Mutex<StackCore>,
    cadence: SimDuration,
}

fn locked(mutex: &Mutex<StackCore>) -> MutexGuard<'_, StackCore> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ObsStack {
    /// A stack whose series role samples scalars every `cadence`, with the
    /// default per-series capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn new(cadence: SimDuration) -> Self {
        ObsStack::with_capacity(cadence, 1024)
    }

    /// A stack with an explicit per-series point capacity (minimum 4).
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn with_capacity(cadence: SimDuration, capacity: usize) -> Self {
        ObsStack {
            inner: Mutex::new(StackCore {
                registry: RegistryCore::default(),
                series: SeriesCore::new(cadence, capacity),
                trace: TraceCore::default(),
            }),
            cadence,
        }
    }

    /// The series role's scalar sampling cadence.
    pub fn cadence(&self) -> SimDuration {
        self.cadence
    }

    /// Registers a counter for time-series sampling (see
    /// [`SeriesRecorder::track_counter`](crate::SeriesRecorder::track_counter)).
    pub fn track_counter(&self, name: &'static str) {
        locked(&self.inner).series.track_counter(name);
    }

    /// Registers a gauge for time-series sampling (see
    /// [`SeriesRecorder::track_gauge`](crate::SeriesRecorder::track_gauge)).
    pub fn track_gauge(&self, name: &'static str) {
        locked(&self.inner).series.track_gauge(name);
    }

    /// Registers an event kind for time-series capture (see
    /// [`SeriesRecorder::track_events`](crate::SeriesRecorder::track_events)).
    pub fn track_events(
        &self,
        kind: &'static str,
        value_field: &'static str,
        label_fields: &[&'static str],
    ) {
        locked(&self.inner)
            .series
            .track_events(kind, value_field, label_fields);
    }

    /// Advances the series sampling clock to `at` (see
    /// [`SeriesRecorder::advance_to`](crate::SeriesRecorder::advance_to)).
    pub fn advance_to(&self, at: SimTime) {
        locked(&self.inner).series.advance_to(at);
    }

    /// The registry role's current counter total (0 if never written).
    pub fn counter_value(&self, name: &str) -> u64 {
        locked(&self.inner).registry.counter_value(name)
    }

    /// The registry role's current gauge high watermark (0 if never
    /// written).
    pub fn gauge_value(&self, name: &str) -> u64 {
        locked(&self.inner).registry.gauge_value(name)
    }

    /// A copy of the registry role's histogram for `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        locked(&self.inner).registry.histogram(name)
    }

    /// How many events of `kind` the registry role has counted.
    pub fn event_count(&self, kind: &str) -> u64 {
        locked(&self.inner).registry.event_count(kind)
    }

    /// The registry role's accumulated span totals for `name`.
    pub fn span_summary(&self, name: &str) -> SpanSummary {
        locked(&self.inner).registry.span_summary(name)
    }

    /// A point-in-time [`Snapshot`] of the registry role.
    pub fn snapshot(&self) -> Snapshot {
        locked(&self.inner).registry.snapshot()
    }

    /// Names of every captured series, in lexicographic order.
    pub fn series_names(&self) -> Vec<String> {
        locked(&self.inner).series.names()
    }

    /// The captured points of a series, time-ordered.
    pub fn series(&self, name: &str) -> Option<Vec<(SimTime, u64)>> {
        locked(&self.inner).series.samples(name)
    }

    /// The captured trace as one JSONL string (same byte format as
    /// [`TraceSink::to_jsonl`](crate::TraceSink::to_jsonl)).
    pub fn to_jsonl(&self) -> String {
        locked(&self.inner).trace.render()
    }

    /// Drains the captured trace, returning it and leaving the stack's
    /// trace role empty.
    pub fn take_jsonl(&self) -> String {
        locked(&self.inner).trace.drain()
    }

    /// Number of trace events captured.
    pub fn trace_len(&self) -> usize {
        locked(&self.inner).trace.len()
    }

    /// Bounds the trace role to a flight-recorder window of at most
    /// `max_events` (minimum 1): when the window fills it is dropped and
    /// capture restarts in the same buffers, so arbitrarily long
    /// instrumented runs never grow the trace past the window. Reads
    /// ([`to_jsonl`], [`take_jsonl`]) see the current window. The default
    /// is unbounded, matching [`TraceSink`].
    ///
    /// [`to_jsonl`]: ObsStack::to_jsonl
    /// [`take_jsonl`]: ObsStack::take_jsonl
    /// [`TraceSink`]: crate::TraceSink
    pub fn limit_trace(&self, max_events: usize) {
        locked(&self.inner).trace.set_limit(max_events);
    }
}

impl Observer for ObsStack {
    fn counter(&self, name: &'static str, delta: u64) {
        let mut core = locked(&self.inner);
        core.registry.counter(name, delta);
        core.series.counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: u64) {
        let mut core = locked(&self.inner);
        core.registry.gauge(name, value);
        core.series.gauge(name, value);
    }

    fn record(&self, name: &'static str, value: u64) {
        locked(&self.inner).registry.record(name, value);
    }

    fn event(&self, at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
        let mut core = locked(&self.inner);
        core.registry.event(kind);
        core.series.event(at, kind, fields);
        core.trace.push(at, kind, fields);
    }

    fn span(&self, name: &'static str, wall_nanos: u64, sim_minutes: u64) {
        locked(&self.inner)
            .registry
            .span(name, wall_nanos, sim_minutes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fanout, MetricsRegistry, SeriesRecorder, TraceSink};
    use std::sync::Arc;

    /// Feed identical emission streams to an ObsStack and to a Fanout over
    /// the three individual sinks; every read-side view must agree.
    #[test]
    fn stack_matches_a_fanout_of_the_individual_sinks() {
        let stack = ObsStack::new(SimDuration::from_minutes(10));
        let registry = Arc::new(MetricsRegistry::new());
        let recorder = Arc::new(SeriesRecorder::new(SimDuration::from_minutes(10)));
        let trace = Arc::new(TraceSink::new());
        let fanout = Fanout::new(vec![registry.clone(), recorder.clone(), trace.clone()]);

        stack.track_counter("c");
        recorder.track_counter("c");
        stack.track_events("e", "v", &[]);
        recorder.track_events("e", "v", &[]);

        for observer in [&stack as &dyn Observer, &fanout as &dyn Observer] {
            observer.counter("c", 3);
            observer.gauge("g", 9);
            observer.record("h", 4);
            observer.event(SimTime::from_minutes(25), "e", &[("v", 7)]);
            observer.span("s", 1_000, 5);
        }
        stack.advance_to(SimTime::from_minutes(30));
        recorder.advance_to(SimTime::from_minutes(30));

        assert_eq!(stack.counter_value("c"), registry.counter_value("c"));
        assert_eq!(stack.gauge_value("g"), registry.gauge_value("g"));
        assert_eq!(
            stack.histogram("h").map(|h| h.count()),
            registry.histogram("h").map(|h| h.count())
        );
        assert_eq!(stack.event_count("e"), registry.event_count("e"));
        assert_eq!(
            stack.span_summary("s").sim_minutes,
            registry.span_summary("s").sim_minutes
        );
        assert_eq!(stack.snapshot(), registry.snapshot());
        assert_eq!(stack.series_names(), recorder.names());
        assert_eq!(stack.series("c"), recorder.series("c"));
        assert_eq!(stack.series("e.v"), recorder.series("e.v"));
        assert_eq!(stack.to_jsonl(), trace.to_jsonl());
        assert_eq!(stack.trace_len(), trace.len());
    }

    #[test]
    fn trace_role_drains_like_a_sink() {
        let stack = ObsStack::new(SimDuration::DAY);
        stack.event(SimTime::ZERO, "a", &[]);
        assert_eq!(stack.trace_len(), 1);
        assert_eq!(
            stack.take_jsonl(),
            "{\"t\":0,\"kind\":\"a\",\"fields\":{}}\n"
        );
        assert_eq!(stack.trace_len(), 0);
        assert_eq!(stack.take_jsonl(), "");
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_cadence_is_rejected() {
        let _ = ObsStack::new(SimDuration::from_minutes(0));
    }

    #[test]
    fn flight_recorder_window_wraps_without_losing_totals() {
        let stack = ObsStack::new(SimDuration::DAY);
        stack.limit_trace(4);
        for i in 0..10 {
            stack.event(SimTime::from_minutes(i), "e", &[("i", i)]);
        }
        // The window restarts each time it fills (0..4, 4..8), so only
        // the live window survives: events 8 and 9.
        assert_eq!(stack.trace_len(), 2);
        assert_eq!(
            stack.to_jsonl(),
            "{\"t\":8,\"kind\":\"e\",\"fields\":{\"i\":8}}\n\
             {\"t\":9,\"kind\":\"e\",\"fields\":{\"i\":9}}\n"
        );
        // Aggregates are unaffected by the trace window.
        assert_eq!(stack.event_count("e"), 10);
    }
}
