//! The open-loop scheduler: requests are due on a fixed schedule and are
//! sent at or after their due time, never skipped, whatever the system
//! under test is doing. Latency is taken from the due time, so a stall
//! shows in every request that was scheduled during it (no coordinated
//! omission).

use std::time::{Duration, Instant};

/// A request sent more than this after it was due counts as late.
pub const LATE_NS: u64 = 100_000;

/// Requests are due in bursts of this many: at 100,000 ops/s one burst
/// every 200 µs. A generator that paces single requests 10 µs apart has
/// to spin, and on a box with fewer cores than threads a spinning
/// generator is preempted for whole time slices — the 4 ms p99 it then
/// reports is its own. Between bursts this one sleeps.
pub const BURST: u64 = 20;
/// How long before a burst is due the generator stops sleeping and spins,
/// so that a late timer does not make the burst late.
const SPIN: Duration = Duration::from_micros(80);

/// When request `index` of a `rate_per_s` schedule starting at `start`
/// is due: with the rest of its burst, at the burst's first slot.
pub fn due(start: Instant, rate_per_s: u64, burst: u64, index: u64) -> Instant {
    let slot = u128::from(index / burst * burst);
    start + Duration::from_nanos((slot * 1_000_000_000 / u128::from(rate_per_s)) as u64)
}

/// How the generator itself kept to the schedule.
#[derive(Debug, Default)]
pub struct Pacing {
    /// Requests handed to `send`.
    pub sent: u64,
    /// Nanoseconds after its due time at which each request was sent.
    pub lateness_ns: Vec<u64>,
}

impl Pacing {
    pub fn late_share(&self) -> f64 {
        let late = self.lateness_ns.iter().filter(|&&ns| ns > LATE_NS).count();
        late as f64 / self.lateness_ns.len().max(1) as f64
    }

    /// The 99th percentile of how late requests were sent, in µs.
    pub fn late_p99_us(&self) -> f64 {
        let mut sorted = self.lateness_ns.clone();
        sorted.sort_unstable();
        if sorted.is_empty() {
            return 0.0;
        }
        crate::stats::quantile(&sorted, 0.99) as f64 / 1e3
    }
}

/// Sends requests `0..count` on the schedule, in bursts of `burst`,
/// calling `send(index, due)` for each. A `send` that blocks delays the requests behind it; they are
/// then sent back to back until the schedule is caught up. Stops early,
/// leaving the rest unsent, once `deadline` has passed.
pub fn pace(
    start: Instant,
    rate_per_s: u64,
    burst: u64,
    count: u64,
    deadline: Instant,
    mut send: impl FnMut(u64, Instant),
) -> Pacing {
    let mut pacing = Pacing {
        sent: 0,
        lateness_ns: Vec::with_capacity(count as usize),
    };
    for index in 0..count {
        let due = due(start, rate_per_s, burst, index);
        let now = loop {
            let now = Instant::now();
            if now >= due {
                break now;
            }
            match (due - now).checked_sub(SPIN) {
                Some(sleep) => std::thread::sleep(sleep),
                None => std::hint::spin_loop(),
            }
        };
        if now >= deadline {
            break;
        }
        pacing.lateness_ns.push((now - due).as_nanos() as u64);
        send(index, due);
        pacing.sent += 1;
    }
    pacing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_sink_shows_in_every_request_scheduled_during_the_stall() {
        const RATE: u64 = 10_000;
        const COUNT: u64 = 2_000;
        const STALL_AT: u64 = 500;
        let stall = Duration::from_millis(50);
        // The stall covers the due times of this many later requests.
        let covered = RATE * stall.as_millis() as u64 / 1_000;

        let start = Instant::now();
        let mut stall_end = None;
        let mut completions: Vec<(Instant, Instant)> = Vec::new();
        let pacing = pace(
            start,
            RATE,
            1,
            COUNT,
            start + Duration::from_secs(30),
            |index, due| {
                if index == STALL_AT {
                    std::thread::sleep(stall);
                    stall_end = Some(Instant::now());
                }
                completions.push((due, Instant::now()));
            },
        );
        assert_eq!(pacing.sent, COUNT);
        let stall_end = stall_end.expect("the stall happened");

        for index in STALL_AT..STALL_AT + covered - 1 {
            let (due, done) = completions[index as usize];
            assert!(due < stall_end, "request {index} was due during the stall");
            // Due-time latency carries the whole wait; timing from the
            // send instead would have read near zero for all but one.
            assert!(done - due >= stall_end - due);
            if index > STALL_AT {
                let sent_late = Duration::from_nanos(pacing.lateness_ns[index as usize]);
                assert!(sent_late >= stall_end - due - Duration::from_micros(1));
            }
        }
        assert!(pacing.late_share() >= (covered - 2) as f64 / COUNT as f64);
        // Nothing was skipped, and nothing ran ahead of its schedule.
        assert!(completions.iter().all(|(due, done)| done >= due));
    }

    #[test]
    fn a_burst_shares_the_due_time_of_its_first_slot() {
        let start = Instant::now();
        let every = Duration::from_micros(200);
        assert_eq!(due(start, 100_000, BURST, 0), start);
        assert_eq!(due(start, 100_000, BURST, BURST - 1), start);
        assert_eq!(due(start, 100_000, BURST, BURST), start + every);
        assert_eq!(due(start, 100_000, BURST, 5 * BURST + 7), start + 5 * every);
        assert_eq!(due(start, 100_000, 1, 7), start + Duration::from_micros(70));
    }

    #[test]
    fn the_deadline_leaves_the_rest_unsent() {
        let start = Instant::now();
        let pacing = pace(
            start,
            1_000,
            1,
            1_000,
            start + Duration::from_millis(20),
            |_, _| {},
        );
        assert!(pacing.sent >= 1 && pacing.sent < 1_000);
    }
}
