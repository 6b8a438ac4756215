//! A minimal discrete-event simulation driver.

use crate::observe::Obs;
use crate::{EventQueue, SimTime};

/// Drives an [`EventQueue`] forward, tracking the current simulated clock.
///
/// The driver enforces the fundamental discrete-event invariant: time never
/// moves backwards. Handlers may schedule new events at or after the current
/// instant.
///
/// # Examples
///
/// ```
/// use sim_core::{Simulation, SimDuration, SimTime};
///
/// #[derive(Debug)]
/// enum Event { Tick }
///
/// let mut sim = Simulation::new();
/// sim.schedule(SimTime::from_minutes(1), Event::Tick);
///
/// let mut ticks = 0;
/// sim.run(|sim, at, Event::Tick| {
///     ticks += 1;
///     if ticks < 3 {
///         sim.schedule(at + SimDuration::MINUTE, Event::Tick);
///     }
/// });
/// assert_eq!(ticks, 3);
/// assert_eq!(sim.now(), SimTime::from_minutes(3));
/// ```
#[derive(Debug, Clone)]
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    obs: Obs,
}

impl<E> Simulation<E> {
    /// Creates a simulation starting at the epoch with no pending events.
    /// Observes into the global observer (if one is installed).
    pub fn new() -> Self {
        Simulation {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            obs: Obs::global(),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock (causality violation).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event at {at} before current time {now}",
            now = self.now
        );
        self.queue.push(at, event);
        self.obs
            .gauge("sim.pending_events", self.queue.len() as u64);
    }

    /// Runs until the queue drains, invoking `handler` for each event.
    ///
    /// The handler receives the simulation (to schedule follow-up events),
    /// the event's scheduled time, and the event itself.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Simulation<E>, SimTime, E),
    {
        let mut span = self.obs.span("span.sim.run");
        while let Some((at, event)) = self.queue.pop() {
            self.now = at;
            span.sim_to(at);
            self.obs.counter("sim.events_dispatched", 1);
            handler(self, at, event);
        }
    }

    /// Runs events scheduled up to and including `deadline`, then advances
    /// the clock to `deadline`.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F)
    where
        F: FnMut(&mut Simulation<E>, SimTime, E),
    {
        let mut span = self.obs.span("span.sim.run_until");
        while let Some((at, event)) = self.queue.pop_due(deadline) {
            self.now = at;
            span.sim_to(at);
            self.obs.counter("sim.events_dispatched", 1);
            handler(self, at, event);
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Simulation::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
    }

    #[test]
    fn run_drains_in_order_and_advances_clock() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_minutes(10), Ev::B);
        sim.schedule(SimTime::from_minutes(5), Ev::A);
        let mut seen = Vec::new();
        sim.run(|_, at, ev| seen.push((at.as_minutes(), ev)));
        assert_eq!(seen, vec![(5, Ev::A), (10, Ev::B)]);
        assert_eq!(sim.now(), SimTime::from_minutes(10));
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, 0u32);
        let mut count = 0;
        sim.run(|sim, at, n| {
            count += 1;
            if n < 4 {
                sim.schedule(at + SimDuration::HOUR, n + 1);
            }
        });
        assert_eq!(count, 5);
        assert_eq!(sim.now(), SimTime::from_hours(4));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_minutes(5), Ev::A);
        sim.schedule(SimTime::from_minutes(50), Ev::B);
        let mut seen = 0;
        sim.run_until(SimTime::from_minutes(10), |_, _, _| seen += 1);
        assert_eq!(seen, 1);
        assert_eq!(sim.now(), SimTime::from_minutes(10));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_minutes(10), Ev::A);
        sim.run(|sim, _, _| {
            sim.schedule(SimTime::from_minutes(1), Ev::B);
        });
    }
}
