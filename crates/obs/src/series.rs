//! Bounded time-series capture over the observer seam.
//!
//! A [`SeriesRecorder`] turns the flat emission stream into named
//! trajectories keyed by [`SimTime`]: registered counters and gauges are
//! sampled on a fixed [`SimDuration`] cadence grid, and registered event
//! kinds contribute one point per event (optionally split into per-label
//! series, e.g. one density trajectory per cluster node). Buffers are
//! bounded: when a series reaches its capacity it halves itself by keeping
//! every other retained point and doubling its stride, so memory stays
//! O(capacity) over arbitrarily long runs while the first and the most
//! recent sample are always preserved.
//!
//! The recorder is a pure sink — like every [`Observer`] it only
//! aggregates, never feeds back — and its simulated clock is driven by the
//! event stream itself (or explicit [`advance_to`](SeriesRecorder::advance_to)
//! calls), so attaching one cannot perturb a run.

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

use sim_core::observe::Observer;
use sim_core::{SimDuration, SimTime};

/// Default per-series point capacity.
const DEFAULT_CAPACITY: usize = 1024;

/// One bounded series buffer: a strided subsequence of everything pushed,
/// plus the most recent point, which is always retained.
#[derive(Debug, Clone)]
struct SeriesBuf {
    points: Vec<(u64, u64)>, // (minutes, value), time-ordered
    stride: u64,             // keep every stride-th incoming point
    skip: u64,               // countdown to the next kept point
    last: Option<(u64, u64)>,
}

impl SeriesBuf {
    fn new() -> Self {
        SeriesBuf {
            points: Vec::new(),
            stride: 1,
            skip: 0,
            last: None,
        }
    }

    fn push(&mut self, capacity: usize, t: u64, value: u64) {
        self.last = Some((t, value));
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        self.points.push((t, value));
        self.skip = self.stride - 1;
        if self.points.len() >= capacity {
            // Halve: retain even positions (position 0 — the first sample —
            // always survives) and double the stride.
            let mut position = 0usize;
            self.points.retain(|_| {
                let keep = position % 2 == 0;
                position += 1;
                keep
            });
            self.stride *= 2;
        }
    }

    fn samples(&self) -> Vec<(SimTime, u64)> {
        let mut out: Vec<(SimTime, u64)> = self
            .points
            .iter()
            .map(|&(t, v)| (SimTime::from_minutes(t), v))
            .collect();
        if let Some((t, v)) = self.last {
            if self.points.last().is_none_or(|&(kept, _)| kept < t) {
                out.push((SimTime::from_minutes(t), v));
            }
        }
        out
    }
}

/// A tracked scalar (counter or gauge): its running value plus a cached
/// index into the buffer table, so grid samples skip the name lookup.
#[derive(Debug, Clone)]
struct ScalarTrack {
    name: &'static str,
    value: u64,
    buf: Option<usize>,
}

/// How one event kind maps onto series. `base_name` is the precomputed
/// `kind.value_field` series name; for label-less specs `base_buf` caches
/// the buffer index so the per-event hot path is a direct vector index —
/// no allocation, no string formatting.
#[derive(Debug, Clone)]
struct EventTrack {
    kind: &'static str,
    value_field: &'static str,
    label_fields: Vec<&'static str>,
    base_name: String,
    base_buf: Option<usize>,
}

/// The lock-free body of a [`SeriesRecorder`]. Tracked names number a
/// handful per run, so registrations live in plain vectors scanned
/// linearly (mostly by pointer equality on static names) and captured
/// buffers in an append-only table addressed by cached index; name-sorted
/// views are produced at read time. [`SeriesRecorder`] wraps it in a
/// mutex.
#[derive(Debug)]
struct SeriesCore {
    cadence: u64,
    capacity: usize,
    /// Tracked counters: running totals, sampled on the cadence grid.
    counters: Vec<ScalarTrack>,
    /// Tracked gauges: latest reported level (the trajectory, not the
    /// registry's high watermark), sampled on the cadence grid.
    gauges: Vec<ScalarTrack>,
    /// Tracked event kinds.
    events: Vec<EventTrack>,
    /// Captured series, in creation order; readers sort by name.
    bufs: Vec<(String, SeriesBuf)>,
    /// Next cadence-grid instant to sample scalars at (minutes).
    next_sample: u64,
    /// Latest simulated instant seen (minutes); the grid only moves
    /// forward.
    last_seen: u64,
}

impl SeriesCore {
    fn new(cadence: SimDuration, capacity: usize) -> Self {
        assert!(
            cadence.as_minutes() > 0,
            "series cadence must be a positive duration"
        );
        SeriesCore {
            cadence: cadence.as_minutes(),
            capacity: capacity.max(4),
            counters: Vec::new(),
            gauges: Vec::new(),
            events: Vec::new(),
            bufs: Vec::new(),
            next_sample: 0,
            last_seen: 0,
        }
    }

    fn track_counter(&mut self, name: &'static str) {
        if !self.counters.iter().any(|t| t.name == name) {
            self.counters.push(ScalarTrack {
                name,
                value: 0,
                buf: None,
            });
        }
    }

    fn track_gauge(&mut self, name: &'static str) {
        if !self.gauges.iter().any(|t| t.name == name) {
            self.gauges.push(ScalarTrack {
                name,
                value: 0,
                buf: None,
            });
        }
    }

    fn track_events(
        &mut self,
        kind: &'static str,
        value_field: &'static str,
        label_fields: &[&'static str],
    ) {
        let track = EventTrack {
            kind,
            value_field,
            label_fields: label_fields.to_vec(),
            base_name: format!("{kind}.{value_field}"),
            base_buf: None,
        };
        match self.events.iter_mut().find(|t| t.kind == kind) {
            Some(existing) => *existing = track,
            None => self.events.push(track),
        }
    }

    fn buf_index(bufs: &mut Vec<(String, SeriesBuf)>, name: &str) -> usize {
        match bufs.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                bufs.push((name.to_string(), SeriesBuf::new()));
                bufs.len() - 1
            }
        }
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        if let Some(track) = self.counters.iter_mut().find(|t| t.name == name) {
            track.value = track.value.saturating_add(delta);
        }
    }

    fn gauge(&mut self, name: &'static str, value: u64) {
        if let Some(track) = self.gauges.iter_mut().find(|t| t.name == name) {
            track.value = value;
        }
    }

    fn advance_to(&mut self, at: SimTime) {
        let minutes = at.as_minutes();
        if minutes < self.last_seen {
            return;
        }
        self.last_seen = minutes;
        while self.next_sample <= minutes {
            let t = self.next_sample;
            for track in self.counters.iter_mut().chain(self.gauges.iter_mut()) {
                let i = *track
                    .buf
                    .get_or_insert_with(|| Self::buf_index(&mut self.bufs, track.name));
                self.bufs[i].1.push(self.capacity, t, track.value);
            }
            self.next_sample = t + self.cadence;
        }
    }

    fn event(&mut self, at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
        self.advance_to(at);
        let Some(track) = self.events.iter_mut().find(|t| t.kind == kind) else {
            return;
        };
        let lookup = |field: &str| fields.iter().find(|(k, _)| *k == field).map(|&(_, v)| v);
        let Some(value) = lookup(track.value_field) else {
            return;
        };
        let i = if track.label_fields.is_empty() {
            // Hot path: label-less series resolve to a cached index.
            *track
                .base_buf
                .get_or_insert_with(|| Self::buf_index(&mut self.bufs, &track.base_name))
        } else {
            let mut name = track.base_name.clone();
            let labels: Vec<String> = track
                .label_fields
                .iter()
                .filter_map(|&field| lookup(field).map(|v| format!("{field}={v}")))
                .collect();
            if !labels.is_empty() {
                name.push('{');
                name.push_str(&labels.join(","));
                name.push('}');
            }
            Self::buf_index(&mut self.bufs, &name)
        };
        self.bufs[i].1.push(self.capacity, at.as_minutes(), value);
    }

    fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.bufs.iter().map(|(n, _)| n.clone()).collect();
        names.sort_unstable();
        names
    }

    fn samples(&self, name: &str) -> Option<Vec<(SimTime, u64)>> {
        self.bufs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, buf)| buf.samples())
    }

    fn last_values(&self) -> Vec<(&str, u64)> {
        let mut out: Vec<(&str, u64)> = self
            .bufs
            .iter()
            .filter_map(|(n, buf)| buf.last.map(|(_, v)| (n.as_str(), v)))
            .collect();
        out.sort_unstable_by_key(|&(n, _)| n);
        out
    }

    fn reset(&mut self) {
        self.bufs.clear();
        self.next_sample = 0;
        self.last_seen = 0;
        for track in self.counters.iter_mut().chain(self.gauges.iter_mut()) {
            track.value = 0;
            track.buf = None;
        }
        for track in &mut self.events {
            track.base_buf = None;
        }
    }
}

/// Records named time series from the observer stream into bounded
/// buffers.
///
/// Register what to capture up front ([`track_counter`],
/// [`track_gauge`], [`track_events`]), attach the recorder — alone or
/// inside a [`Fanout`] — and read the trajectories back with
/// [`series`](SeriesRecorder::series) / [`to_csv`](SeriesRecorder::to_csv)
/// when the run completes. Under the `obs-off` feature nothing ever
/// reaches the recorder, so it simply stays empty.
///
/// [`track_counter`]: SeriesRecorder::track_counter
/// [`track_gauge`]: SeriesRecorder::track_gauge
/// [`track_events`]: SeriesRecorder::track_events
/// [`Fanout`]: crate::Fanout
///
/// # Examples
///
/// ```
/// use obs::SeriesRecorder;
/// use sim_core::{Obs, SimDuration, SimTime};
/// use std::sync::Arc;
///
/// let recorder = Arc::new(SeriesRecorder::new(SimDuration::DAY));
/// recorder.track_counter("engine.stores");
/// let obs = Obs::attached(recorder.clone());
///
/// obs.counter("engine.stores", 2);
/// obs.event(SimTime::from_days(2), "tick", &[]); // clock reaches day 2
/// # #[cfg(not(feature = "obs-off"))]
/// assert_eq!(
///     recorder.series("engine.stores").unwrap(),
///     vec![
///         (SimTime::ZERO, 2),
///         (SimTime::from_days(1), 2),
///         (SimTime::from_days(2), 2),
///     ],
/// );
/// ```
#[derive(Debug)]
pub struct SeriesRecorder {
    inner: Mutex<SeriesCore>,
    cadence: SimDuration,
}

fn locked(mutex: &Mutex<SeriesCore>) -> MutexGuard<'_, SeriesCore> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SeriesRecorder {
    /// A recorder sampling scalars every `cadence`, with the default
    /// per-series capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn new(cadence: SimDuration) -> Self {
        SeriesRecorder::with_capacity(cadence, DEFAULT_CAPACITY)
    }

    /// A recorder with an explicit per-series point capacity (minimum 4).
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn with_capacity(cadence: SimDuration, capacity: usize) -> Self {
        SeriesRecorder {
            inner: Mutex::new(SeriesCore::new(cadence, capacity)),
            cadence,
        }
    }

    /// The scalar sampling cadence.
    pub fn cadence(&self) -> SimDuration {
        self.cadence
    }

    /// Registers a counter to sample: the series tracks the running total
    /// of deltas seen since construction (or the last [`reset`]).
    ///
    /// [`reset`]: SeriesRecorder::reset
    pub fn track_counter(&self, name: &'static str) {
        locked(&self.inner).track_counter(name);
    }

    /// Registers a gauge to sample. Unlike the registry's high-watermark
    /// aggregation, the series keeps the *latest* reported level — the
    /// trajectory is the point of a series.
    pub fn track_gauge(&self, name: &'static str) {
        locked(&self.inner).track_gauge(name);
    }

    /// Registers an event kind to capture: every `kind` event contributes
    /// the point `(event time, fields[value_field])`. When `label_fields`
    /// is non-empty the stream splits into one series per observed label
    /// combination — e.g. labeling `cluster.node` by `node` yields one
    /// density trajectory per cluster node. Events missing `value_field`
    /// are ignored; missing label fields are omitted from the name.
    pub fn track_events(
        &self,
        kind: &'static str,
        value_field: &'static str,
        label_fields: &[&'static str],
    ) {
        locked(&self.inner).track_events(kind, value_field, label_fields);
    }

    /// Advances the sampling clock to `at`, recording scalar samples at
    /// every cadence-grid instant up to and including it. Event arrivals
    /// do this implicitly; call it directly at the end of a run so the
    /// grid covers the final stretch. Instants earlier than the latest one
    /// seen are ignored (the clock only moves forward — [`reset`] starts a
    /// new run).
    ///
    /// [`reset`]: SeriesRecorder::reset
    pub fn advance_to(&self, at: SimTime) {
        locked(&self.inner).advance_to(at);
    }

    /// Names of every captured series, in lexicographic order.
    pub fn names(&self) -> Vec<String> {
        locked(&self.inner).names()
    }

    /// The captured points of a series, time-ordered.
    pub fn series(&self, name: &str) -> Option<Vec<(SimTime, u64)>> {
        locked(&self.inner).samples(name)
    }

    /// One series as a `t_minutes,value` CSV table.
    pub fn to_csv(&self, name: &str) -> Option<String> {
        self.series(name).map(|points| {
            let mut out = String::from("t_minutes,value\n");
            for (at, value) in points {
                let _ = writeln!(out, "{},{value}", at.as_minutes());
            }
            out
        })
    }

    /// Every captured series as `(name, csv)` pairs, in name order.
    pub fn dump_csvs(&self) -> Vec<(String, String)> {
        self.names()
            .into_iter()
            .map(|name| {
                let csv = self.to_csv(&name).expect("name listed by names()");
                (name, csv)
            })
            .collect()
    }

    /// Renders the latest value of every series as Prometheus gauges
    /// (`tempimp_series{series="<name>"} <value>`), deterministically
    /// ordered by series name.
    pub fn render_prometheus(&self) -> String {
        let inner = locked(&self.inner);
        let last = inner.last_values();
        if last.is_empty() {
            return String::new();
        }
        let mut out = String::from("# TYPE tempimp_series gauge\n");
        for (name, value) in last {
            let _ = writeln!(out, "tempimp_series{{series=\"{name}\"}} {value}");
        }
        out
    }

    /// Drops all captured points and zeroes the scalar accumulators and
    /// the sampling clock, keeping the registrations. Call between
    /// back-to-back runs (e.g. per experiment in `repro`) so each run's
    /// series starts at `t = 0`.
    pub fn reset(&self) {
        locked(&self.inner).reset();
    }
}

impl Observer for SeriesRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        locked(&self.inner).counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: u64) {
        locked(&self.inner).gauge(name, value);
    }

    fn record(&self, _name: &'static str, _value: u64) {}

    fn event(&self, at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
        locked(&self.inner).event(at, kind, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minutes(points: &[(SimTime, u64)]) -> Vec<(u64, u64)> {
        points.iter().map(|&(t, v)| (t.as_minutes(), v)).collect()
    }

    #[test]
    fn scalars_sample_on_the_cadence_grid() {
        let recorder = SeriesRecorder::new(SimDuration::from_minutes(10));
        recorder.track_counter("c");
        recorder.track_gauge("g");
        recorder.counter("c", 5);
        recorder.gauge("g", 3);
        recorder.advance_to(SimTime::from_minutes(25));
        recorder.gauge("g", 1); // latest wins, unlike the registry
        recorder.counter("untracked", 99);
        recorder.advance_to(SimTime::from_minutes(30));

        assert_eq!(recorder.names(), vec!["c".to_string(), "g".to_string()]);
        assert_eq!(
            minutes(&recorder.series("c").unwrap()),
            vec![(0, 5), (10, 5), (20, 5), (30, 5)]
        );
        assert_eq!(
            minutes(&recorder.series("g").unwrap()),
            vec![(0, 3), (10, 3), (20, 3), (30, 1)]
        );
        assert!(recorder.series("untracked").is_none());
    }

    #[test]
    fn events_split_into_labeled_series() {
        let recorder = SeriesRecorder::new(SimDuration::DAY);
        recorder.track_events("cluster.node", "density_ppm", &["node"]);
        recorder.event(
            SimTime::from_days(1),
            "cluster.node",
            &[("node", 0), ("density_ppm", 500_000)],
        );
        recorder.event(
            SimTime::from_days(1),
            "cluster.node",
            &[("node", 1), ("density_ppm", 250_000)],
        );
        recorder.event(
            SimTime::from_days(2),
            "cluster.node",
            &[("node", 0), ("density_ppm", 750_000)],
        );
        // Value field missing: ignored.
        recorder.event(SimTime::from_days(2), "cluster.node", &[("node", 0)]);
        // Unregistered kind: ignored.
        recorder.event(SimTime::from_days(2), "other", &[("density_ppm", 1)]);

        assert_eq!(
            recorder.names(),
            vec![
                "cluster.node.density_ppm{node=0}".to_string(),
                "cluster.node.density_ppm{node=1}".to_string(),
            ]
        );
        assert_eq!(
            minutes(&recorder.series("cluster.node.density_ppm{node=0}").unwrap()),
            vec![(1440, 500_000), (2880, 750_000)]
        );
    }

    #[test]
    fn the_clock_only_moves_forward() {
        let recorder = SeriesRecorder::new(SimDuration::from_minutes(10));
        recorder.track_counter("c");
        recorder.advance_to(SimTime::from_minutes(20));
        recorder.advance_to(SimTime::from_minutes(5)); // ignored
        assert_eq!(
            minutes(&recorder.series("c").unwrap()),
            vec![(0, 0), (10, 0), (20, 0)]
        );
    }

    #[test]
    fn downsampling_bounds_memory_and_keeps_endpoints() {
        let recorder = SeriesRecorder::with_capacity(SimDuration::MINUTE, 8);
        recorder.track_counter("c");
        recorder.counter("c", 1);
        recorder.advance_to(SimTime::from_minutes(1000));
        let points = recorder.series("c").unwrap();
        assert!(points.len() <= 8, "{} points retained", points.len());
        assert_eq!(points.first().unwrap().0, SimTime::ZERO);
        assert_eq!(points.last().unwrap().0, SimTime::from_minutes(1000));
        let times: Vec<u64> = points.iter().map(|&(t, _)| t.as_minutes()).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
    }

    #[test]
    fn csv_and_prometheus_renderings() {
        let recorder = SeriesRecorder::new(SimDuration::from_minutes(10));
        recorder.track_counter("c");
        recorder.counter("c", 2);
        recorder.advance_to(SimTime::from_minutes(10));
        assert_eq!(
            recorder.to_csv("c").unwrap(),
            "t_minutes,value\n0,2\n10,2\n"
        );
        assert!(recorder.to_csv("absent").is_none());
        let dumps = recorder.dump_csvs();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].0, "c");
        assert_eq!(
            recorder.render_prometheus(),
            "# TYPE tempimp_series gauge\ntempimp_series{series=\"c\"} 2\n"
        );
        assert_eq!(
            SeriesRecorder::new(SimDuration::DAY).render_prometheus(),
            ""
        );
    }

    #[test]
    fn reset_clears_data_but_keeps_registrations() {
        let recorder = SeriesRecorder::new(SimDuration::from_minutes(10));
        recorder.track_counter("c");
        recorder.counter("c", 7);
        recorder.advance_to(SimTime::from_minutes(50));
        recorder.reset();
        assert!(recorder.names().is_empty());
        recorder.counter("c", 1);
        recorder.advance_to(SimTime::ZERO);
        assert_eq!(minutes(&recorder.series("c").unwrap()), vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_cadence_is_rejected() {
        let _ = SeriesRecorder::new(SimDuration::from_minutes(0));
    }
}
