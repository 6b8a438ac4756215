//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each paper artifact has a driver that runs the corresponding simulation
//! and a formatter that prints the series the paper plots. See DESIGN.md's
//! experiment index for the mapping, and EXPERIMENTS.md for the measured
//! results.
//!
//! | Paper artifact | Module / function |
//! |----------------|-------------------|
//! | Figure 2 (storage requirements) | [`figures::fig2`] |
//! | Figure 3 (lifetimes achieved) | [`figures::fig3`] |
//! | Figure 4 (requests turned down) | [`figures::fig4`] |
//! | Figure 5 (time constant) | [`figures::fig5`] |
//! | Figure 6 (importance density) | [`figures::fig6`] |
//! | Figure 7 (byte-importance CDF) | [`figures::fig7`] |
//! | Table 1 (lecture lifetimes) | [`figures::table1`] |
//! | Figure 8 (lecture downloads) | [`figures::fig8`] |
//! | Figure 9 (lecture lifetimes achieved) | [`figures::fig9`] |
//! | Figure 10 (importance at reclamation) | [`figures::fig10`] |
//! | Figure 11 (lecture time constant) | [`figures::fig11`] |
//! | Figure 12 (lecture importance density) | [`figures::fig12`] |
//! | §5.3 summary (university-wide) | [`figures::sec53`] |
//! | Decay-shape ablation (§3) | [`figures::ablate_decay`] |
//! | Placement-parameter ablation (§5.3) | [`figures::ablate_placement`] |
//! | Availability under churn (beyond-paper) | [`figures::availability`] |

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod ablation;
pub mod availability;
pub mod figures;
pub mod lecture;
pub mod mixed;
pub mod sensor;
pub mod single_class;
pub mod university;

pub use single_class::PolicyChoice;

use sim_core::SimTime;
use temporal_importance::protocol::{Response, StoreApi};
use temporal_importance::{Error, ObjectSpec, StoreError, StoreOutcome};

/// Offers `spec` to `store` at `now`, class and all: the outcome when the
/// store admits it, `None` when it is full for the object's importance.
///
/// # Panics
///
/// On any other answer: a driver's workload never sends an empty,
/// oversized or duplicate object, so one is a bug in the driver.
pub(crate) fn offer<S: StoreApi>(
    store: &mut S,
    spec: ObjectSpec,
    now: SimTime,
) -> Option<StoreOutcome> {
    match store.call(now, spec.into()) {
        Response::Put(Ok(outcome)) => Some(outcome),
        Response::Put(Err(Error::Store(StoreError::Full { .. }))) => None,
        other => panic!("unexpected answer to a store in a workload: {other:?}"),
    }
}

/// The default seed used by the `repro` binary and the integration tests.
pub const DEFAULT_SEED: u64 = 20070625; // ICDCS 2007 opened June 25.
