//! Zero-cost observability hooks for the simulation substrate.
//!
//! Every layer of the workspace (engine, cluster, experiments) wants the
//! same thing from instrumentation: named counters, high-watermark gauges,
//! magnitude histograms, and a structured event stream keyed by simulated
//! time — never wall-clock, so traces stay byte-reproducible. This module
//! defines the [`Observer`] trait those layers emit into and the cheap
//! [`Obs`] handle they hold, without pulling any metrics implementation
//! into `sim-core` (the concrete registry and trace sinks live in the
//! `obs` crate, which depends on this one — not the other way round).
//!
//! # Zero cost when disabled
//!
//! With the `obs-off` cargo feature enabled, [`Obs`] compiles down to a
//! unit struct and every emission method to an empty inline body, so
//! instrumented hot paths carry no branch, no load, and no extra struct
//! bytes. Downstream crates forward the feature (`obs-off =
//! ["sim-core/obs-off"]`) rather than sprinkling their own `cfg`s. Library
//! code gates on it in two places: this module, and `tempimpd`'s `trace`
//! module, whose per-request latency stamps are not [`Obs`] signals and
//! compile out the same way. Elsewhere the feature appears only in tests,
//! doc examples and the bench tools, which read it to know what to expect.
//!
//! # Determinism contract
//!
//! Observers must never feed back into simulation state: implementations
//! only aggregate. Emission sites must never consult an RNG or branch on
//! whether an observer is attached — results with and without observation
//! are byte-identical by construction.
//!
//! # One fact, one signal
//!
//! A sink behind a lock pays that lock once per signal, so an emitter
//! says each thing once: it sends no counter or histogram whose value a
//! signal it already sends carries — an event kind the registry counts
//! (`tempimp_events_total{kind=…}`), an event field, a histogram's count
//! or sum, the sum of two counters beside it. The engine's accepted store
//! is one `engine.stores` counter (attempts: some refusals send nothing
//! else), one `engine.store` event whose `victims` field is the plan's
//! size, and one `engine.evict` event per victim whose `reason` field is
//! the preempted / expired / removed split; no counter of accepted
//! plans, histogram of plan sizes or per-reason eviction counter rides
//! beside them. A consumer that wants the repeat derives it on the read
//! side, or reads the component's own ledger (`UnitStats` through the
//! `Stats` verb).
//!
//! # Examples
//!
//! ```
//! use sim_core::observe::{Obs, Observer};
//! use sim_core::SimTime;
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! #[derive(Debug, Default)]
//! struct CountStores(AtomicU64);
//!
//! impl Observer for CountStores {
//!     fn counter(&self, name: &'static str, delta: u64) {
//!         if name == "engine.stores" {
//!             self.0.fetch_add(delta, Ordering::Relaxed);
//!         }
//!     }
//!     fn gauge(&self, _name: &'static str, _value: u64) {}
//!     fn record(&self, _name: &'static str, _value: u64) {}
//!     fn event(&self, _at: SimTime, _kind: &'static str, _fields: &[(&'static str, u64)]) {}
//! }
//!
//! let sink = Arc::new(CountStores::default());
//! let obs = Obs::attached(sink.clone());
//! obs.counter("engine.stores", 2);
//! # #[cfg(not(feature = "obs-off"))]
//! assert_eq!(sink.0.load(Ordering::Relaxed), 2);
//! ```

use std::fmt;
use std::sync::Arc;

use crate::SimTime;

/// A sink for instrumentation emitted by simulation components.
///
/// All methods take `&self`: observers are shared (usually behind an
/// [`Arc`]) between components and, where simulations or placers run
/// concurrently, between threads. Implementations must therefore be internally
/// synchronized, and — to keep multi-threaded runs deterministic — should
/// aggregate only commutatively (sums, maxima, bucket counts).
pub trait Observer: Send + Sync {
    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &'static str, delta: u64);

    /// Reports an instantaneous level for the named gauge. Aggregators
    /// should keep the high watermark: maxima are order-independent, so
    /// gauges stay deterministic even when threads race.
    fn gauge(&self, name: &'static str, value: u64);

    /// Records one sample into the named magnitude histogram.
    fn record(&self, name: &'static str, value: u64);

    /// Emits a structured trace event at simulated instant `at`.
    ///
    /// Field values are plain `u64`s (counts, byte sizes, raw ids,
    /// minutes) precisely so serialized traces cannot pick up
    /// float-formatting differences between build profiles.
    fn event(&self, at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]);

    /// Reports one completed phase span: `wall_nanos` of wall-clock time
    /// over which the simulated clock progressed `sim_minutes` minutes.
    ///
    /// Spans are the one deliberately *non-reproducible* signal — they
    /// measure the host, not the simulation — so they must never reach a
    /// byte-stable artifact. The default implementation routes the
    /// wall-clock duration into the magnitude histogram under the span's
    /// name and drops the correlation, which is exactly right for sinks
    /// like trace files that ignore [`Observer::record`].
    fn span(&self, name: &'static str, wall_nanos: u64, sim_minutes: u64) {
        let _ = sim_minutes;
        self.record(name, wall_nanos);
    }
}

#[cfg(not(feature = "obs-off"))]
static GLOBAL: std::sync::OnceLock<Arc<dyn Observer>> = std::sync::OnceLock::new();

/// Installs the process-wide default observer picked up by [`Obs::global`].
///
/// Components constructed through the builder APIs observe into the global
/// sink unless given an explicit observer, so a binary (like `repro`)
/// instruments every unit and cluster it creates with one call at startup.
/// Follows the `log::set_logger` model: first install wins. Returns
/// `false` if an observer was already installed — or always, under the
/// `obs-off` feature, where the global slot does not exist.
pub fn set_global_observer(observer: Arc<dyn Observer>) -> bool {
    #[cfg(not(feature = "obs-off"))]
    {
        GLOBAL.set(observer).is_ok()
    }
    #[cfg(feature = "obs-off")]
    {
        let _ = observer;
        false
    }
}

/// A cheap, cloneable handle to an optional [`Observer`].
///
/// This is what instrumented components store and call. A handle is either
/// attached to a sink or silent; every emission method is a no-op on a
/// silent handle, and under the `obs-off` feature the handle holds no data
/// at all and the methods compile to nothing.
#[derive(Clone, Default)]
pub struct Obs {
    #[cfg(not(feature = "obs-off"))]
    inner: Option<Arc<dyn Observer>>,
}

impl Obs {
    /// A silent handle: every emission is a no-op.
    pub fn none() -> Obs {
        Obs::default()
    }

    /// A handle attached to `observer`. Under `obs-off` the observer is
    /// dropped and the handle is silent.
    pub fn attached(observer: Arc<dyn Observer>) -> Obs {
        #[cfg(not(feature = "obs-off"))]
        {
            Obs {
                inner: Some(observer),
            }
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = observer;
            Obs {}
        }
    }

    /// A handle attached to the observer registered with
    /// [`set_global_observer`], or a silent handle if none is installed.
    /// Captures the global at call time: components built before the
    /// install stay silent.
    pub fn global() -> Obs {
        #[cfg(not(feature = "obs-off"))]
        {
            Obs {
                inner: GLOBAL.get().cloned(),
            }
        }
        #[cfg(feature = "obs-off")]
        {
            Obs {}
        }
    }

    /// True if emissions reach an observer.
    pub fn is_enabled(&self) -> bool {
        self.sink().is_some()
    }

    #[inline]
    fn sink(&self) -> Option<&Arc<dyn Observer>> {
        #[cfg(not(feature = "obs-off"))]
        {
            self.inner.as_ref()
        }
        #[cfg(feature = "obs-off")]
        {
            None
        }
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn counter(&self, name: &'static str, delta: u64) {
        if let Some(sink) = self.sink() {
            sink.counter(name, delta);
        }
    }

    /// Reports a level for the named high-watermark gauge.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: u64) {
        if let Some(sink) = self.sink() {
            sink.gauge(name, value);
        }
    }

    /// Records one sample into the named histogram.
    #[inline]
    pub fn record(&self, name: &'static str, value: u64) {
        if let Some(sink) = self.sink() {
            sink.record(name, value);
        }
    }

    /// Emits a structured trace event keyed by simulated time.
    #[inline]
    pub fn event(&self, at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
        if let Some(sink) = self.sink() {
            sink.event(at, kind, fields);
        }
    }

    /// Opens a wall-clock phase span that reports to this handle's sink
    /// when dropped (see [`Observer::span`]).
    ///
    /// The returned guard measures wall time from this call to its drop.
    /// Call [`Span::sim_to`] at convenient points inside the phase to
    /// correlate the measurement with simulated-time progress. On a silent
    /// handle (and always under `obs-off`) the guard is inert: no clock is
    /// read and nothing is emitted.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        #[cfg(not(feature = "obs-off"))]
        {
            Span {
                state: self.inner.clone().map(|sink| SpanState {
                    sink,
                    name,
                    started: std::time::Instant::now(),
                    sim_first: None,
                    sim_last: None,
                }),
            }
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = name;
            Span {}
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(not(feature = "obs-off"))]
struct SpanState {
    sink: Arc<dyn Observer>,
    name: &'static str,
    started: std::time::Instant,
    sim_first: Option<SimTime>,
    sim_last: Option<SimTime>,
}

/// A wall-clock phase measurement opened by [`Obs::span`], reported via
/// [`Observer::span`] when dropped.
///
/// Wall time is measured between construction and drop; simulated-time
/// progress is whatever interval the [`sim_to`](Span::sim_to) calls
/// covered (zero if never called). Under the `obs-off` feature the guard
/// is a unit struct and every method compiles to nothing.
#[must_use = "a span measures until dropped; binding it to _ drops it immediately"]
#[derive(Default)]
pub struct Span {
    #[cfg(not(feature = "obs-off"))]
    state: Option<SpanState>,
}

impl Span {
    /// An inert span that never reports (what a silent handle returns).
    pub fn none() -> Span {
        Span::default()
    }

    /// Marks that the phase has advanced the simulated clock to `now`.
    ///
    /// The first call anchors the start of the covered interval, the last
    /// call its end; the reported progress is the difference. Calls are
    /// cheap (two field stores), so sampling loops can call this per
    /// iteration.
    #[inline]
    pub fn sim_to(&mut self, now: SimTime) {
        #[cfg(not(feature = "obs-off"))]
        if let Some(state) = self.state.as_mut() {
            if state.sim_first.is_none() {
                state.sim_first = Some(now);
            }
            state.sim_last = Some(now);
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = now;
        }
    }

    /// True if dropping this span will report to a sink.
    pub fn is_enabled(&self) -> bool {
        #[cfg(not(feature = "obs-off"))]
        {
            self.state.is_some()
        }
        #[cfg(feature = "obs-off")]
        {
            false
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        #[cfg(not(feature = "obs-off"))]
        if let Some(state) = self.state.take() {
            let wall_nanos = u64::try_from(state.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let sim_minutes = match (state.sim_first, state.sim_last) {
                (Some(first), Some(last)) => last.saturating_since(first).as_minutes(),
                _ => 0,
            };
            state.sink.span(state.name, wall_nanos, sim_minutes);
        }
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Debug, Default)]
    struct Recorder {
        seen: Mutex<Vec<String>>,
    }

    impl Observer for Recorder {
        fn counter(&self, name: &'static str, delta: u64) {
            self.seen.lock().unwrap().push(format!("c {name} {delta}"));
        }
        fn gauge(&self, name: &'static str, value: u64) {
            self.seen.lock().unwrap().push(format!("g {name} {value}"));
        }
        fn record(&self, name: &'static str, value: u64) {
            self.seen.lock().unwrap().push(format!("h {name} {value}"));
        }
        fn event(&self, at: SimTime, kind: &'static str, fields: &[(&'static str, u64)]) {
            self.seen
                .lock()
                .unwrap()
                .push(format!("e {kind}@{} {fields:?}", at.as_minutes()));
        }
    }

    #[test]
    fn silent_handles_swallow_everything() {
        let obs = Obs::none();
        assert!(!obs.is_enabled());
        obs.counter("a", 1);
        obs.gauge("b", 2);
        obs.record("c", 3);
        obs.event(SimTime::ZERO, "d", &[("x", 4)]);
    }

    #[test]
    fn attached_handles_forward_in_order() {
        let recorder = Arc::new(Recorder::default());
        let obs = Obs::attached(recorder.clone());
        obs.counter("a", 1);
        obs.gauge("b", 2);
        obs.record("c", 3);
        obs.event(SimTime::from_minutes(7), "store", &[("victims", 2)]);

        let seen = recorder.seen.lock().unwrap();
        #[cfg(not(feature = "obs-off"))]
        {
            assert!(obs.is_enabled());
            assert_eq!(
                *seen,
                vec![
                    "c a 1".to_string(),
                    "g b 2".to_string(),
                    "h c 3".to_string(),
                    "e store@7 [(\"victims\", 2)]".to_string(),
                ]
            );
        }
        #[cfg(feature = "obs-off")]
        {
            assert!(!obs.is_enabled());
            assert!(seen.is_empty());
        }
    }

    #[test]
    fn clones_share_the_sink() {
        let recorder = Arc::new(Recorder::default());
        let obs = Obs::attached(recorder.clone());
        let copy = obs.clone();
        copy.counter("shared", 5);
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(recorder.seen.lock().unwrap().len(), 1);
    }

    #[test]
    fn debug_shows_enablement_not_contents() {
        let text = format!("{:?}", Obs::none());
        assert!(text.contains("enabled: false"), "{text}");
    }

    #[test]
    fn spans_report_on_drop_with_sim_progress() {
        let recorder = Arc::new(Recorder::default());
        let obs = Obs::attached(recorder.clone());
        {
            let mut span = obs.span("phase.test");
            span.sim_to(SimTime::from_minutes(10));
            span.sim_to(SimTime::from_minutes(25));
        }
        let seen = recorder.seen.lock().unwrap();
        #[cfg(not(feature = "obs-off"))]
        {
            // The default Observer::span routes wall nanos into record();
            // the Recorder logs it as a histogram sample.
            assert_eq!(seen.len(), 1);
            assert!(seen[0].starts_with("h phase.test "), "{:?}", seen[0]);
        }
        #[cfg(feature = "obs-off")]
        assert!(seen.is_empty());
    }

    #[test]
    fn span_overrides_see_the_correlated_progress() {
        #[derive(Debug, Default)]
        struct SpanCatcher {
            seen: Mutex<Vec<(String, u64)>>,
        }
        impl Observer for SpanCatcher {
            fn counter(&self, _: &'static str, _: u64) {}
            fn gauge(&self, _: &'static str, _: u64) {}
            fn record(&self, _: &'static str, _: u64) {}
            fn event(&self, _: SimTime, _: &'static str, _: &[(&'static str, u64)]) {}
            fn span(&self, name: &'static str, _wall_nanos: u64, sim_minutes: u64) {
                self.seen.lock().unwrap().push((name.into(), sim_minutes));
            }
        }
        let catcher = Arc::new(SpanCatcher::default());
        let obs = Obs::attached(catcher.clone());
        {
            let mut span = obs.span("phase.caught");
            span.sim_to(SimTime::from_days(1));
            span.sim_to(SimTime::from_days(3));
        }
        {
            // No sim_to calls: progress reports as zero.
            let _span = obs.span("phase.idle");
        }
        let seen = catcher.seen.lock().unwrap();
        #[cfg(not(feature = "obs-off"))]
        assert_eq!(
            *seen,
            vec![
                ("phase.caught".to_string(), 2 * 24 * 60),
                ("phase.idle".to_string(), 0),
            ]
        );
        #[cfg(feature = "obs-off")]
        assert!(seen.is_empty());
    }

    #[test]
    fn silent_spans_are_inert() {
        let mut span = Obs::none().span("phase.silent");
        assert!(!span.is_enabled());
        span.sim_to(SimTime::from_days(2));
        drop(span);
        let none = Span::none();
        assert!(!none.is_enabled());
        assert!(format!("{none:?}").contains("enabled: false"));
    }
}
