//! Structured event traces keyed by simulated time, plus observer fanout.

use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

use sim_core::observe::Observer;
use sim_core::SimTime;

/// Captures [`Observer::event`]s as JSON Lines keyed by [`SimTime`].
///
/// Each event becomes one line of the form
///
/// ```text
/// {"t":17,"kind":"engine.store","fields":{"id":42,"victims":1}}
/// ```
///
/// where `t` is the simulated instant in minutes. Every value is an
/// integer — the vendored `serde_json` is typed-only and floats format
/// differently across build profiles, so the sink renders by hand and the
/// byte stream is identical across runs, debug/release, and platforms, as
/// long as events arrive in a deterministic order (i.e. from one thread;
/// counters/gauges/histograms are the multi-thread-safe signals).
///
/// # Examples
///
/// ```
/// use obs::TraceSink;
/// use sim_core::{Obs, SimTime};
/// use std::sync::Arc;
///
/// let sink = Arc::new(TraceSink::new());
/// let obs = Obs::attached(sink.clone());
/// obs.event(SimTime::from_minutes(5), "engine.store", &[("id", 7)]);
/// # #[cfg(not(feature = "obs-off"))]
/// assert_eq!(
///     sink.to_jsonl(),
///     "{\"t\":5,\"kind\":\"engine.store\",\"fields\":{\"id\":7}}\n"
/// );
/// ```
#[derive(Debug, Default)]
pub struct TraceSink {
    lines: Mutex<TraceCore>,
}

/// The body of a [`TraceSink`], behind its mutex: capture is a structured
/// append (two `Vec` pushes — no formatting, no per-event allocation), and
/// the JSONL text is rendered on demand. Capture is unbounded, so a trace
/// keeps full fidelity (the golden file depends on it); long-running
/// callers bound memory by draining with [`TraceSink::take_jsonl`].
#[derive(Debug, Default)]
struct TraceCore {
    /// One `(t_minutes, kind, fields offset, fields len)` row per event.
    events: Vec<(u64, &'static str, usize, usize)>,
    /// Flat field storage shared by all captured events.
    fields: Vec<(&'static str, u64)>,
}

impl TraceCore {
    fn push(&mut self, at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
        debug_assert!(
            !kind.contains(['"', '\\']) && fields.iter().all(|(k, _)| !k.contains(['"', '\\'])),
            "event kinds and field names are static identifiers; escaping is not supported"
        );
        let start = self.fields.len();
        self.fields.extend_from_slice(fields);
        self.events
            .push((at.as_minutes(), kind, start, fields.len()));
    }

    fn render(&self) -> String {
        let mut text = String::with_capacity(self.events.len() * 48);
        for &(t, kind, start, len) in &self.events {
            write!(text, "{{\"t\":{t},\"kind\":\"{kind}\",\"fields\":{{").expect("write to String");
            for (i, (key, value)) in self.fields[start..start + len].iter().enumerate() {
                let comma = if i == 0 { "" } else { "," };
                write!(text, "{comma}\"{key}\":{value}").expect("write to String");
            }
            text.push_str("}}\n");
        }
        text
    }

    fn drain(&mut self) -> String {
        let text = self.render();
        self.events.clear();
        self.fields.clear();
        text
    }

    fn len(&self) -> usize {
        self.events.len()
    }
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// The captured trace as one JSONL string (rendered on demand; capture
    /// itself never formats).
    pub fn to_jsonl(&self) -> String {
        self.buf().render()
    }

    /// Drains the captured trace, returning it and leaving the sink empty.
    ///
    /// Long-running instrumented loops (benchmarks, the `repro` binary)
    /// use this to bound the sink's memory: take the accumulated events,
    /// write them out, and keep tracing into the same sink.
    pub fn take_jsonl(&self) -> String {
        self.buf().drain()
    }

    /// Number of events captured.
    pub fn len(&self) -> usize {
        self.buf().len()
    }

    /// True if no events were captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn buf(&self) -> std::sync::MutexGuard<'_, TraceCore> {
        self.lines.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Observer for TraceSink {
    fn counter(&self, _name: &'static str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _value: u64) {}
    fn record(&self, _name: &'static str, _value: u64) {}

    fn event(&self, at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
        self.buf().push(at, kind, fields);
    }
}

/// Forwards every emission to each of a list of observers — e.g. a
/// [`MetricsRegistry`] for totals *and* a [`TraceSink`] for the event
/// stream, behind one handle.
///
/// [`MetricsRegistry`]: crate::MetricsRegistry
pub struct Fanout {
    sinks: Vec<Arc<dyn Observer>>,
}

impl Fanout {
    /// A fanout over `sinks`, forwarded to in order.
    pub fn new(sinks: Vec<Arc<dyn Observer>>) -> Self {
        Fanout { sinks }
    }
}

impl fmt::Debug for Fanout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fanout")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Observer for Fanout {
    fn counter(&self, name: &'static str, delta: u64) {
        for sink in &self.sinks {
            sink.counter(name, delta);
        }
    }

    fn gauge(&self, name: &'static str, value: u64) {
        for sink in &self.sinks {
            sink.gauge(name, value);
        }
    }

    fn record(&self, name: &'static str, value: u64) {
        for sink in &self.sinks {
            sink.record(name, value);
        }
    }

    fn event(&self, at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
        for sink in &self.sinks {
            sink.event(at, kind, fields);
        }
    }

    fn span(&self, name: &'static str, wall_nanos: u64, sim_minutes: u64) {
        for sink in &self.sinks {
            sink.span(name, wall_nanos, sim_minutes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRegistry, SeriesRecorder};
    use sim_core::SimDuration;

    #[test]
    fn events_render_as_stable_jsonl() {
        let sink = TraceSink::new();
        sink.event(SimTime::from_minutes(3), "a", &[]);
        sink.event(SimTime::from_days(1), "b", &[("x", 1), ("y", 2)]);
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
        assert_eq!(
            sink.to_jsonl(),
            "{\"t\":3,\"kind\":\"a\",\"fields\":{}}\n\
             {\"t\":1440,\"kind\":\"b\",\"fields\":{\"x\":1,\"y\":2}}\n"
        );
    }

    #[test]
    fn non_event_signals_are_ignored() {
        let sink = TraceSink::new();
        sink.counter("c", 1);
        sink.gauge("g", 2);
        sink.record("h", 3);
        assert!(sink.is_empty());
        assert_eq!(sink.to_jsonl(), "");
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let registry = Arc::new(MetricsRegistry::new());
        let trace = Arc::new(TraceSink::new());
        // The composition `repro --series` attaches: a series recorder
        // behind the fanout, with a tracked counter and event kind.
        let recorder = Arc::new(SeriesRecorder::new(SimDuration::from_minutes(10)));
        recorder.track_counter("c");
        recorder.track_events("e", "n", &[]);
        let fanout = Fanout::new(vec![registry.clone(), trace.clone(), recorder.clone()]);
        fanout.counter("c", 4);
        fanout.gauge("g", 9);
        fanout.record("h", 2);
        fanout.event(SimTime::from_minutes(25), "e", &[("n", 1)]);
        fanout.span("s", 1_000, 5);
        recorder.advance_to(SimTime::from_minutes(30));

        assert_eq!(registry.counter_value("c"), 4);
        assert_eq!(registry.gauge_value("g"), 9);
        assert_eq!(registry.histogram("h").unwrap().count(), 1);
        assert_eq!(registry.event_count("e"), 1);
        assert_eq!(registry.span_summary("s").sim_minutes, 5);
        assert_eq!(trace.len(), 1, "spans never become trace lines");
        let minutes = |name: &str| -> Vec<(u64, u64)> {
            let points = recorder.series(name).unwrap();
            points.iter().map(|&(t, v)| (t.as_minutes(), v)).collect()
        };
        assert_eq!(minutes("c"), vec![(0, 4), (10, 4), (20, 4), (30, 4)]);
        assert_eq!(minutes("e.n"), vec![(25, 1)]);
        assert!(format!("{fanout:?}").contains("sinks: 3"));
    }

    #[test]
    fn take_drains_the_sink() {
        let sink = TraceSink::new();
        sink.event(SimTime::ZERO, "a", &[]);
        let first = sink.take_jsonl();
        assert_eq!(first, "{\"t\":0,\"kind\":\"a\",\"fields\":{}}\n");
        assert!(sink.is_empty());
        assert_eq!(sink.take_jsonl(), "");
        sink.event(SimTime::from_minutes(1), "b", &[]);
        assert_eq!(sink.len(), 1);
        assert!(sink.take_jsonl().contains("\"kind\":\"b\""));
    }
}
