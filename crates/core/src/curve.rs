//! Temporal importance curves: `L(t)`.

use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

use crate::error::CurveError;
use crate::Importance;

/// A temporal importance function `L(age)`: monotonically non-increasing,
/// valued in `[0, 1]` (§3 of the paper).
///
/// The curve is evaluated against the object's *age* — time since the
/// annotation was applied — not wall-clock time, so an annotation is a pure
/// value that travels with the object.
///
/// The variants cover every lifetime function the paper discusses:
///
/// * [`Persistent`](ImportanceCurve::Persistent) — traditional storage,
///   `L(t) = 1`, never expires.
/// * [`Fixed`](ImportanceCurve::Fixed) — "no temporal degradation":
///   constant importance until a hard expiry (Douglis et al.'s
///   fixed-priority expiration).
/// * [`Ephemeral`](ImportanceCurve::Ephemeral) — Palimpsest / web-cache
///   degradation: importance zero from the outset, freely replaceable.
/// * [`TwoStep`](ImportanceCurve::TwoStep) — the paper's headline
///   abstraction (Fig. 1): plateau `p` for `persist`, then linear decay over
///   `wane` to zero.
/// * [`ExpDecay`](ImportanceCurve::ExpDecay) — exponential wane, for the
///   decay-shape ablation the paper gestures at ("could be linear,
///   exponential or some other function").
/// * [`Piecewise`](ImportanceCurve::Piecewise) — a general monotone
///   non-increasing polyline.
///
/// # Examples
///
/// ```
/// use sim_core::SimDuration;
/// use temporal_importance::{Importance, ImportanceCurve};
///
/// // "Definitely important for 15 days, might be for another 15, probably
/// // not after 30" (§5.1).
/// let curve = ImportanceCurve::two_step(
///     Importance::FULL,
///     SimDuration::from_days(15),
///     SimDuration::from_days(15),
/// );
/// assert_eq!(curve.importance_at(SimDuration::from_days(10)), Importance::FULL);
/// assert_eq!(curve.importance_at(SimDuration::from_days(30)), Importance::ZERO);
/// assert_eq!(curve.expiry(), Some(SimDuration::from_days(30)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ImportanceCurve {
    /// Traditional persistent storage: `L(t) = 1`, `t_expire = ∞`.
    Persistent,
    /// Constant importance until a hard expiry, zero afterwards.
    Fixed {
        /// The plateau importance.
        importance: Importance,
        /// Age at which the object expires.
        expiry: SimDuration,
    },
    /// Always importance zero — cache/Palimpsest-style data that any object
    /// may replace.
    Ephemeral,
    /// The two-piece function of Fig. 1: plateau then linear wane.
    TwoStep {
        /// Plateau importance `p`.
        importance: Importance,
        /// Plateau length `t_persist`.
        persist: SimDuration,
        /// Linear-decay length `t_wane`; expiry is `persist + wane`.
        wane: SimDuration,
    },
    /// Plateau then exponential decay with the given half-life, truncated to
    /// zero at `persist + wane` so the object still has a finite expiry.
    ExpDecay {
        /// Plateau importance `p`.
        importance: Importance,
        /// Plateau length.
        persist: SimDuration,
        /// Decay window; importance is cut to zero at `persist + wane`.
        wane: SimDuration,
        /// Half-life of the decay within the window.
        half_life: SimDuration,
    },
    /// A general monotone non-increasing polyline.
    Piecewise(PiecewiseCurve),
}

impl ImportanceCurve {
    /// Convenience constructor for the paper's two-step function.
    pub fn two_step(importance: Importance, persist: SimDuration, wane: SimDuration) -> Self {
        ImportanceCurve::TwoStep {
            importance,
            persist,
            wane,
        }
    }

    /// Convenience constructor for a fixed-expiry, full-importance curve —
    /// the paper's "lifetime policy without a temporal importance
    /// component" (`L(t) = 1`, `t_expire = expiry`).
    pub fn fixed_lifetime(expiry: SimDuration) -> Self {
        ImportanceCurve::Fixed {
            importance: Importance::FULL,
            expiry,
        }
    }

    /// Constructs an exponential-wane curve.
    ///
    /// # Errors
    ///
    /// Returns [`CurveError::ZeroHalfLife`] if `half_life` is zero.
    pub fn exp_decay(
        importance: Importance,
        persist: SimDuration,
        wane: SimDuration,
        half_life: SimDuration,
    ) -> Result<Self, CurveError> {
        if half_life.is_zero() {
            return Err(CurveError::ZeroHalfLife);
        }
        Ok(ImportanceCurve::ExpDecay {
            importance,
            persist,
            wane,
            half_life,
        })
    }

    /// The importance of an object of the given `age` under this curve.
    pub fn importance_at(&self, age: SimDuration) -> Importance {
        match self {
            ImportanceCurve::Persistent => Importance::FULL,
            ImportanceCurve::Fixed { importance, expiry } => {
                if age < *expiry {
                    *importance
                } else {
                    Importance::ZERO
                }
            }
            ImportanceCurve::Ephemeral => Importance::ZERO,
            ImportanceCurve::TwoStep {
                importance,
                persist,
                wane,
            } => {
                if age <= *persist {
                    *importance
                } else {
                    let into_wane = age - *persist;
                    if wane.is_zero() || into_wane >= *wane {
                        Importance::ZERO
                    } else {
                        let remaining = 1.0 - into_wane.ratio(*wane);
                        Importance::new_clamped(importance.value() * remaining)
                    }
                }
            }
            ImportanceCurve::ExpDecay {
                importance,
                persist,
                wane,
                half_life,
            } => {
                if age <= *persist {
                    *importance
                } else {
                    let into_wane = age - *persist;
                    if wane.is_zero() || into_wane >= *wane {
                        Importance::ZERO
                    } else {
                        let halves = into_wane.ratio(*half_life);
                        Importance::new_clamped(importance.value() * 0.5_f64.powf(halves))
                    }
                }
            }
            ImportanceCurve::Piecewise(curve) => curve.importance_at(age),
        }
    }

    /// The age at which the curve reaches zero and stays there
    /// (`t_expire`), or `None` if the object never expires.
    ///
    /// An expiry of `Some(d)` means `importance_at(age) == 0` for all
    /// `age >= d`. Note that expiry does not force deletion: "objects need
    /// not be deleted at the end of `t_expire`; rather, the system makes no
    /// guarantees on object availability after this duration" (§3).
    pub fn expiry(&self) -> Option<SimDuration> {
        match self {
            ImportanceCurve::Persistent => None,
            ImportanceCurve::Fixed { importance, expiry } => {
                if importance.is_zero() {
                    Some(SimDuration::ZERO)
                } else {
                    Some(*expiry)
                }
            }
            ImportanceCurve::Ephemeral => Some(SimDuration::ZERO),
            ImportanceCurve::TwoStep {
                importance,
                persist,
                wane,
            }
            | ImportanceCurve::ExpDecay {
                importance,
                persist,
                wane,
                ..
            } => {
                if importance.is_zero() {
                    Some(SimDuration::ZERO)
                } else {
                    Some(*persist + *wane)
                }
            }
            ImportanceCurve::Piecewise(curve) => curve.expiry(),
        }
    }

    /// The importance at age zero.
    pub fn initial_importance(&self) -> Importance {
        self.importance_at(SimDuration::ZERO)
    }

    /// True if an object of the given age has expired under this curve.
    pub fn is_expired(&self, age: SimDuration) -> bool {
        match self.expiry() {
            Some(e) => age >= e,
            None => false,
        }
    }

    /// The analytic piece of the curve active at `age`: its closed form and
    /// the age at which the next piece begins. Segments are half-open
    /// `[start, next)`; `next` is always strictly greater than `age`.
    ///
    /// This is the breakpoint-iteration primitive of the incremental
    /// reclamation engine: it lets the engine schedule one queue event per
    /// breakpoint instead of re-evaluating every curve on every query.
    ///
    /// The forms agree with [`importance_at`](Self::importance_at) at every
    /// age within the segment up to floating-point evaluation order; at ages
    /// where the curve is discontinuous (a hard expiry step) the segment
    /// holding `age` carries the value `importance_at(age)` returns.
    pub(crate) fn segment_at(&self, age: SimDuration) -> CurveSegment {
        match self {
            ImportanceCurve::Persistent => CurveSegment::constant(1.0, None),
            ImportanceCurve::Fixed { importance, expiry } => {
                if importance.is_zero() || age >= *expiry {
                    CurveSegment::constant(0.0, None)
                } else {
                    CurveSegment::constant(importance.value(), Some(*expiry))
                }
            }
            ImportanceCurve::Ephemeral => CurveSegment::constant(0.0, None),
            ImportanceCurve::TwoStep {
                importance,
                persist,
                wane,
            } => {
                if importance.is_zero() {
                    return CurveSegment::constant(0.0, None);
                }
                let expiry = *persist + *wane;
                if age <= *persist {
                    // The plateau holds through `persist` inclusive. At
                    // age == persist with a positive wane the wane segment
                    // evaluates to the plateau value, so hand over to it
                    // immediately (keeping `next > age`). With a zero wane
                    // the curve steps to zero one minute after the plateau,
                    // but it expires at `persist` itself: that minute is a
                    // breakpoint of its own.
                    if age == *persist && !wane.is_zero() {
                        CurveSegment {
                            form: SegmentForm::Linear {
                                a0: *persist,
                                v0: importance.value(),
                                a1: expiry,
                                v1: 0.0,
                            },
                            next: Some(expiry),
                        }
                    } else {
                        let next = if wane.is_zero() && age == *persist {
                            *persist + SimDuration::MINUTE
                        } else {
                            *persist
                        };
                        CurveSegment::constant(importance.value(), Some(next))
                    }
                } else if age < expiry {
                    CurveSegment {
                        form: SegmentForm::Linear {
                            a0: *persist,
                            v0: importance.value(),
                            a1: expiry,
                            v1: 0.0,
                        },
                        next: Some(expiry),
                    }
                } else {
                    CurveSegment::constant(0.0, None)
                }
            }
            ImportanceCurve::ExpDecay {
                importance,
                persist,
                wane,
                half_life,
            } => {
                if importance.is_zero() {
                    return CurveSegment::constant(0.0, None);
                }
                let expiry = *persist + *wane;
                if age <= *persist {
                    if age == *persist && !wane.is_zero() {
                        CurveSegment {
                            form: SegmentForm::Exp {
                                start: *persist,
                                peak: importance.value(),
                                half_life: *half_life,
                            },
                            next: Some(expiry),
                        }
                    } else {
                        let next = if wane.is_zero() && age == *persist {
                            *persist + SimDuration::MINUTE
                        } else {
                            *persist
                        };
                        CurveSegment::constant(importance.value(), Some(next))
                    }
                } else if age < expiry {
                    CurveSegment {
                        form: SegmentForm::Exp {
                            start: *persist,
                            peak: importance.value(),
                            half_life: *half_life,
                        },
                        next: Some(expiry),
                    }
                } else {
                    CurveSegment::constant(0.0, None)
                }
            }
            ImportanceCurve::Piecewise(curve) => curve.segment_at(age),
        }
    }
}

/// One analytic piece of an [`ImportanceCurve`], as returned by
/// [`ImportanceCurve::segment_at`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CurveSegment {
    /// The closed form over the segment.
    pub form: SegmentForm,
    /// First age strictly greater than the queried age at which the form
    /// changes, or `None` if this form holds forever.
    pub next: Option<SimDuration>,
}

impl CurveSegment {
    fn constant(value: f64, next: Option<SimDuration>) -> Self {
        CurveSegment {
            form: SegmentForm::Constant(value),
            next,
        }
    }
}

/// The closed form of a [`CurveSegment`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SegmentForm {
    /// `value(age) = c`.
    Constant(f64),
    /// Linear between `(a0, v0)` and `(a1, v1)`:
    /// `value(age) = v0 + (v1 - v0) · (age - a0) / (a1 - a0)`.
    Linear {
        /// Segment start age.
        a0: SimDuration,
        /// Value at `a0`.
        v0: f64,
        /// Segment end age (`a1 > a0`).
        a1: SimDuration,
        /// Value at `a1`.
        v1: f64,
    },
    /// Exponential decay: `value(age) = peak · 0.5^((age - start) / half_life)`.
    Exp {
        /// Age the decay starts from (value `peak` there).
        start: SimDuration,
        /// Value at `start`.
        peak: f64,
        /// Decay half-life (non-zero by construction).
        half_life: SimDuration,
    },
}

impl SegmentForm {
    /// Evaluates the form at an age (which should lie within the segment).
    pub(crate) fn value_at(&self, age: SimDuration) -> f64 {
        match *self {
            SegmentForm::Constant(c) => c,
            SegmentForm::Linear { a0, v0, a1, v1 } => {
                let frac = age.saturating_sub(a0).ratio(a1 - a0);
                v0 + (v1 - v0) * frac
            }
            SegmentForm::Exp {
                start,
                peak,
                half_life,
            } => {
                let halves = age.saturating_sub(start).ratio(half_life);
                peak * 0.5_f64.powf(halves)
            }
        }
    }
}

/// A general monotone non-increasing polyline curve.
///
/// Points are `(age, importance)` pairs; importance is linearly
/// interpolated between consecutive points and constant after the last one.
///
/// # Examples
///
/// ```
/// use sim_core::SimDuration;
/// use temporal_importance::{Importance, PiecewiseCurve};
///
/// let curve = PiecewiseCurve::new(vec![
///     (SimDuration::ZERO, Importance::FULL),
///     (SimDuration::from_days(10), Importance::new(0.5)?),
///     (SimDuration::from_days(20), Importance::ZERO),
/// ])?;
/// assert_eq!(curve.importance_at(SimDuration::from_days(5)).value(), 0.75);
/// assert_eq!(curve.expiry(), Some(SimDuration::from_days(20)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(
    try_from = "Vec<(SimDuration, Importance)>",
    into = "Vec<(SimDuration, Importance)>"
)]
pub struct PiecewiseCurve {
    points: Vec<(SimDuration, Importance)>,
}

impl PiecewiseCurve {
    /// Builds a validated piecewise curve.
    ///
    /// # Errors
    ///
    /// Returns a [`CurveError`] if `points` is empty, does not start at age
    /// zero, has non-strictly-increasing ages, or has importance values
    /// that increase with age.
    pub fn new(points: Vec<(SimDuration, Importance)>) -> Result<Self, CurveError> {
        if points.is_empty() {
            return Err(CurveError::Empty);
        }
        if points[0].0 != SimDuration::ZERO {
            return Err(CurveError::MissingOrigin);
        }
        for (i, window) in points.windows(2).enumerate() {
            if window[1].0 <= window[0].0 {
                return Err(CurveError::NonIncreasingAges { index: i + 1 });
            }
            if window[1].1 > window[0].1 {
                return Err(CurveError::IncreasingImportance { index: i + 1 });
            }
        }
        Ok(PiecewiseCurve { points })
    }

    /// The validated control points.
    pub fn points(&self) -> &[(SimDuration, Importance)] {
        &self.points
    }

    /// Importance at the given age (linear interpolation, constant tail).
    pub fn importance_at(&self, age: SimDuration) -> Importance {
        let points = &self.points;
        let last = points.len() - 1;
        if age >= points[last].0 {
            return points[last].1;
        }
        // Find the segment containing `age`. `age < points[last].0` and
        // `age >= points[0].0 == 0`, so a containing segment exists.
        let idx = match points.binary_search_by(|(a, _)| a.cmp(&age)) {
            Ok(i) => return points[i].1,
            Err(i) => i - 1,
        };
        let (a0, i0) = points[idx];
        let (a1, i1) = points[idx + 1];
        let frac = (age - a0).ratio(a1 - a0);
        Importance::new_clamped(i0.value() + (i1.value() - i0.value()) * frac)
    }

    /// The analytic piece active at `age` (see
    /// [`ImportanceCurve::segment_at`]).
    pub(crate) fn segment_at(&self, age: SimDuration) -> CurveSegment {
        let points = &self.points;
        let last = points.len() - 1;
        if age >= points[last].0 {
            return CurveSegment::constant(points[last].1.value(), None);
        }
        let idx = match points.binary_search_by(|(a, _)| a.cmp(&age)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let (a0, i0) = points[idx];
        let (a1, i1) = points[idx + 1];
        if i0 == i1 {
            CurveSegment::constant(i0.value(), Some(a1))
        } else {
            CurveSegment {
                form: SegmentForm::Linear {
                    a0,
                    v0: i0.value(),
                    a1,
                    v1: i1.value(),
                },
                next: Some(a1),
            }
        }
    }

    /// The age at which the curve first reaches zero and stays there, or
    /// `None` if its final value is positive (never expires).
    pub fn expiry(&self) -> Option<SimDuration> {
        let last = *self.points.last().expect("validated non-empty");
        if !last.1.is_zero() {
            return None;
        }
        // Walk back to the first point where the curve hits zero; the
        // segment entering it determines the exact crossing age.
        let mut expiry = last.0;
        for window in self.points.windows(2).rev() {
            let (a0, i0) = window[0];
            let (a1, i1) = window[1];
            if !i1.is_zero() {
                break;
            }
            if i0.is_zero() {
                expiry = a0;
            } else {
                // Linear segment from positive i0 down to 0 at a1.
                expiry = a1;
                break;
            }
        }
        Some(expiry)
    }
}

impl TryFrom<Vec<(SimDuration, Importance)>> for PiecewiseCurve {
    type Error = CurveError;

    fn try_from(points: Vec<(SimDuration, Importance)>) -> Result<Self, Self::Error> {
        PiecewiseCurve::new(points)
    }
}

/// The serialized form is the point list itself — the shape
/// deserialization validates through `TryFrom`, so a curve round-trips.
impl From<PiecewiseCurve> for Vec<(SimDuration, Importance)> {
    fn from(curve: PiecewiseCurve) -> Self {
        curve.points
    }
}

impl From<PiecewiseCurve> for ImportanceCurve {
    fn from(curve: PiecewiseCurve) -> Self {
        ImportanceCurve::Piecewise(curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn days(d: u64) -> SimDuration {
        SimDuration::from_days(d)
    }

    fn imp(v: f64) -> Importance {
        Importance::new(v).unwrap()
    }

    /// A piecewise curve serializes as the point list its `TryFrom`
    /// deserializer validates, so it survives a journal round trip.
    #[test]
    fn piecewise_round_trips_through_json() {
        let curve = ImportanceCurve::Piecewise(
            PiecewiseCurve::new(vec![
                (days(0), imp(0.9)),
                (days(3), imp(0.25)),
                (days(40), Importance::ZERO),
            ])
            .unwrap(),
        );
        let text = serde_json::to_string(&curve).unwrap();
        assert_eq!(text, r#"{"Piecewise":[[0,0.9],[4320,0.25],[57600,0.0]]}"#);
        assert_eq!(
            serde_json::from_str::<ImportanceCurve>(&text).unwrap(),
            curve
        );
        // Validation still runs on the way in.
        assert!(serde_json::from_str::<ImportanceCurve>(r#"{"Piecewise":[[5,0.9]]}"#).is_err());
    }

    #[test]
    fn persistent_never_expires() {
        let c = ImportanceCurve::Persistent;
        assert_eq!(
            c.importance_at(SimDuration::from_days(100_000)),
            Importance::FULL
        );
        assert_eq!(c.expiry(), None);
        assert!(!c.is_expired(SimDuration::from_days(100_000)));
    }

    #[test]
    fn ephemeral_is_born_expired() {
        let c = ImportanceCurve::Ephemeral;
        assert_eq!(c.importance_at(SimDuration::ZERO), Importance::ZERO);
        assert_eq!(c.expiry(), Some(SimDuration::ZERO));
        assert!(c.is_expired(SimDuration::ZERO));
    }

    #[test]
    fn fixed_steps_to_zero_at_expiry() {
        let c = ImportanceCurve::fixed_lifetime(days(30));
        assert_eq!(c.importance_at(days(29)), Importance::FULL);
        assert_eq!(c.importance_at(days(30)), Importance::ZERO);
        assert_eq!(c.expiry(), Some(days(30)));
        assert_eq!(c.initial_importance(), Importance::FULL);
    }

    #[test]
    fn two_step_matches_figure_1() {
        let c = ImportanceCurve::two_step(imp(0.8), days(10), days(20));
        // Plateau.
        assert_eq!(c.importance_at(SimDuration::ZERO), imp(0.8));
        assert_eq!(c.importance_at(days(10)), imp(0.8));
        // Mid-wane: halfway through the wane, half the plateau left.
        let mid = c.importance_at(days(20));
        assert!((mid.value() - 0.4).abs() < 1e-12, "got {mid}");
        // Expired.
        assert_eq!(c.importance_at(days(30)), Importance::ZERO);
        assert_eq!(c.expiry(), Some(days(30)));
    }

    #[test]
    fn two_step_with_zero_wane_is_a_step() {
        let c = ImportanceCurve::two_step(Importance::FULL, days(5), SimDuration::ZERO);
        assert_eq!(c.importance_at(days(5)), Importance::FULL);
        assert_eq!(
            c.importance_at(days(5) + SimDuration::MINUTE),
            Importance::ZERO
        );
        assert_eq!(c.expiry(), Some(days(5)));
    }

    #[test]
    fn two_step_with_zero_plateau_importance_expires_immediately() {
        let c = ImportanceCurve::two_step(Importance::ZERO, days(5), days(5));
        assert_eq!(c.expiry(), Some(SimDuration::ZERO));
        assert!(c.is_expired(SimDuration::ZERO));
    }

    #[test]
    fn two_step_monotone_over_dense_samples() {
        let c = ImportanceCurve::two_step(imp(0.9), days(7), days(21));
        let mut prev = Importance::FULL;
        for m in 0..(28 * 24 * 60) {
            let now = c.importance_at(SimDuration::from_minutes(m * 60));
            assert!(now <= prev, "curve increased at minute {m}");
            prev = now;
        }
    }

    #[test]
    fn exp_decay_halves_per_half_life() {
        let c = ImportanceCurve::exp_decay(Importance::FULL, days(0), days(40), days(10)).unwrap();
        let at10 = c.importance_at(days(10)).value();
        let at20 = c.importance_at(days(20)).value();
        assert!((at10 - 0.5).abs() < 1e-12);
        assert!((at20 - 0.25).abs() < 1e-12);
        assert_eq!(c.importance_at(days(40)), Importance::ZERO);
        assert_eq!(c.expiry(), Some(days(40)));
    }

    #[test]
    fn exp_decay_rejects_zero_half_life() {
        assert_eq!(
            ImportanceCurve::exp_decay(Importance::FULL, days(1), days(1), SimDuration::ZERO),
            Err(CurveError::ZeroHalfLife)
        );
    }

    #[test]
    fn piecewise_validation_catches_bad_inputs() {
        assert_eq!(PiecewiseCurve::new(vec![]), Err(CurveError::Empty));
        assert_eq!(
            PiecewiseCurve::new(vec![(days(1), Importance::FULL)]),
            Err(CurveError::MissingOrigin)
        );
        assert_eq!(
            PiecewiseCurve::new(vec![
                (SimDuration::ZERO, Importance::FULL),
                (SimDuration::ZERO, Importance::ZERO),
            ]),
            Err(CurveError::NonIncreasingAges { index: 1 })
        );
        assert_eq!(
            PiecewiseCurve::new(vec![(SimDuration::ZERO, imp(0.5)), (days(1), imp(0.9)),]),
            Err(CurveError::IncreasingImportance { index: 1 })
        );
    }

    #[test]
    fn piecewise_interpolates_linearly() {
        let c = PiecewiseCurve::new(vec![
            (SimDuration::ZERO, Importance::FULL),
            (days(10), imp(0.5)),
            (days(20), Importance::ZERO),
        ])
        .unwrap();
        assert_eq!(c.importance_at(days(5)).value(), 0.75);
        assert_eq!(c.importance_at(days(10)).value(), 0.5);
        assert_eq!(c.importance_at(days(15)).value(), 0.25);
        assert_eq!(c.importance_at(days(25)), Importance::ZERO);
    }

    #[test]
    fn piecewise_constant_tail_never_expires_when_positive() {
        let c = PiecewiseCurve::new(vec![
            (SimDuration::ZERO, Importance::FULL),
            (days(10), imp(0.3)),
        ])
        .unwrap();
        assert_eq!(c.importance_at(days(1000)), imp(0.3));
        assert_eq!(c.expiry(), None);
    }

    #[test]
    fn piecewise_expiry_finds_zero_crossing() {
        // Reaches zero at day 20 via a linear segment, stays zero after.
        let c = PiecewiseCurve::new(vec![
            (SimDuration::ZERO, Importance::FULL),
            (days(20), Importance::ZERO),
            (days(30), Importance::ZERO),
        ])
        .unwrap();
        assert_eq!(c.expiry(), Some(days(20)));

        // Immediately zero everywhere.
        let c = PiecewiseCurve::new(vec![
            (SimDuration::ZERO, Importance::ZERO),
            (days(30), Importance::ZERO),
        ])
        .unwrap();
        assert_eq!(c.expiry(), Some(SimDuration::ZERO));
    }

    #[test]
    fn two_step_equivalences_from_section_3() {
        // "can represent the no temporal degradation policy if t_expire = t_c"
        let fixed_like = ImportanceCurve::two_step(Importance::FULL, days(30), SimDuration::ZERO);
        let fixed = ImportanceCurve::fixed_lifetime(days(30));
        for d in [0u64, 15, 29, 31] {
            assert_eq!(
                fixed_like.importance_at(days(d)) == Importance::ZERO,
                fixed.importance_at(days(d)) == Importance::ZERO,
            );
        }
        // "can also represent the cache like degradation if t_expire = 0"
        let cache_like =
            ImportanceCurve::two_step(Importance::FULL, SimDuration::ZERO, SimDuration::ZERO);
        assert_eq!(cache_like.expiry(), Some(SimDuration::ZERO));
    }
}
