//! Discrete-event simulation substrate used by the temporal-importance
//! storage reclamation reproduction.
//!
//! The paper (Chandra, Gehani, Yu — ICDCS 2007, §4.3) evaluates its storage
//! abstraction with a minute-granularity simulator run over five to ten
//! simulated years. This crate provides the foundations every other crate in
//! the workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — minute-granularity simulated time with
//!   integer arithmetic (no floating-point drift over a decade of minutes),
//! * [`ByteSize`] — byte quantities with GB/MB/KB constructors and display,
//! * [`EventQueue`] — a stable priority queue of timestamped events
//!   (ties break in insertion order, which keeps runs deterministic),
//! * [`Simulation`] — a minimal driver loop around an [`EventQueue`],
//! * [`rng`] — seeded RNG constructors so every experiment is reproducible.
//!
//! # Examples
//!
//! ```
//! use sim_core::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_days(2), "later");
//! queue.push(SimTime::from_hours(1), "sooner");
//!
//! let (at, what) = queue.pop().expect("queue is non-empty");
//! assert_eq!(what, "sooner");
//! assert_eq!(at, SimTime::ZERO + SimDuration::from_hours(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bytes;
mod queue;
mod time;

pub mod driver;
pub mod fx;
pub mod observe;
pub mod rng;

pub use bytes::ByteSize;
pub use driver::Simulation;
pub use observe::{Obs, Observer, Span};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod manifest_guard {
    /// `sim-core` is the workspace's dependency-free foundation: the
    /// observability layer was deliberately designed as a trait in
    /// `observe` so that no metrics implementation leaks down here. This
    /// guard fails the build the moment someone adds a dependency, the
    /// same way a `cargo deny` bans list would.
    #[test]
    fn dependency_set_is_frozen() {
        let manifest = include_str!("../Cargo.toml");
        let deps: Vec<&str> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[dependencies]")
            .skip(1)
            .take_while(|l| !l.trim().starts_with('['))
            .filter_map(|l| l.split_once(['.', ' ', '=']).map(|(name, _)| name.trim()))
            .filter(|name| !name.is_empty() && !name.starts_with('#'))
            .collect();
        assert_eq!(
            deps,
            ["rand", "serde"],
            "sim-core must stay dependency-free beyond the vendored rand/serde; \
             put new functionality in a crate that depends on sim-core instead"
        );
    }
}
