//! Error types for the temporal-importance core library.

use std::error::Error as StdError;
use std::fmt;

use sim_core::ByteSize;

use crate::{Importance, ObjectId};

/// The consolidated error hierarchy for the whole workspace.
///
/// Every [`StoreApi`](crate::protocol::StoreApi) verb answers with it.
/// The engine's refusals keep their precise types inside it
/// ([`Error::Store`] holds a [`StoreError`], [`Error::Rejuvenate`] a
/// [`RejuvenateError`]), so callers who match on variants lose nothing.
/// Sibling crates fold their own error types in through
/// [`Error::External`] (besteffs placement, workload traces, tifs), so
/// `?` converts end to end.
///
/// # Examples
///
/// ```
/// use sim_core::{ByteSize, SimTime};
/// use temporal_importance::protocol::StoreApi;
/// use temporal_importance::{Error, ImportanceCurve, ObjectId, StorageUnit, StoreError};
///
/// fn fill(unit: &mut StorageUnit) -> Result<(), Error> {
///     let curve = ImportanceCurve::Persistent;
///     unit.put(ObjectId::new(1), ByteSize::from_mib(10), curve, SimTime::ZERO)?;
///     Ok(())
/// }
///
/// let mut unit = StorageUnit::new(ByteSize::from_mib(100));
/// assert!(fill(&mut unit).is_ok());
/// assert!(matches!(
///     fill(&mut unit),
///     Err(Error::Store(StoreError::DuplicateId(_)))
/// ));
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An importance value outside `[0, 1]`.
    Importance(ImportanceError),
    /// An invalid importance-curve specification.
    Curve(CurveError),
    /// A store request the unit could not satisfy.
    Store(StoreError),
    /// A failed rejuvenation request.
    Rejuvenate(RejuvenateError),
    /// An error from a crate layered on top of this one (placement,
    /// workload parsing, filesystem), carried without this crate having to
    /// know its type.
    External(Box<dyn StdError + Send + Sync + 'static>),
    /// A shard's bounded ingest queue was full — the backpressure signal
    /// of the serving layer. Retry later or slow down.
    QueueFull {
        /// The shard whose queue rejected the request.
        shard: u32,
    },
    /// The serving layer's worker threads are gone: the request channel or
    /// the response channel was closed mid-request.
    Disconnected,
}

impl Error {
    /// Wraps an error from a higher layer. Sibling crates use this in
    /// their `From` impls; applications can call it directly.
    pub fn external(error: impl StdError + Send + Sync + 'static) -> Self {
        Error::External(Box::new(error))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Importance(e) => e.fmt(f),
            Error::Curve(e) => e.fmt(f),
            Error::Store(e) => e.fmt(f),
            Error::Rejuvenate(e) => e.fmt(f),
            Error::External(e) => e.fmt(f),
            Error::QueueFull { shard } => {
                write!(f, "shard {shard} ingest queue is full")
            }
            Error::Disconnected => write!(f, "serving layer disconnected"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Importance(e) => Some(e),
            Error::Curve(e) => Some(e),
            Error::Store(e) => Some(e),
            Error::Rejuvenate(e) => Some(e),
            Error::External(e) => Some(e.as_ref()),
            Error::QueueFull { .. } | Error::Disconnected => None,
        }
    }
}

impl From<ImportanceError> for Error {
    fn from(e: ImportanceError) -> Self {
        Error::Importance(e)
    }
}

impl From<CurveError> for Error {
    fn from(e: CurveError) -> Self {
        Error::Curve(e)
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

impl From<RejuvenateError> for Error {
    fn from(e: RejuvenateError) -> Self {
        Error::Rejuvenate(e)
    }
}

/// Externally persisted unit state that cannot be reassembled into a
/// consistent [`StorageUnit`](crate::StorageUnit).
///
/// Returned by [`StorageUnitBuilder::restore`]; durable backends hit these
/// when a log replay produces contradictory state (which means the log —
/// not the unit — is corrupt).
///
/// [`StorageUnitBuilder::restore`]: crate::StorageUnitBuilder::restore
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// Two live objects carried the same id.
    DuplicateId(ObjectId),
    /// The live objects sum past the unit's capacity.
    OverCapacity {
        /// Bytes the restored objects occupy.
        used: ByteSize,
        /// The unit's configured capacity.
        capacity: ByteSize,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::DuplicateId(id) => {
                write!(f, "restored state holds object {} twice", id.raw())
            }
            RestoreError::OverCapacity { used, capacity } => {
                write!(
                    f,
                    "restored objects occupy {used}, over the {capacity} capacity"
                )
            }
        }
    }
}

impl StdError for RestoreError {}

impl From<RestoreError> for Error {
    fn from(e: RestoreError) -> Self {
        Error::external(e)
    }
}

/// An importance value outside the valid `[0, 1]` range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImportanceError {
    /// The offending value.
    pub(crate) value: f64,
}

impl fmt::Display for ImportanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "importance must be a finite value in [0, 1], got {}",
            self.value
        )
    }
}

impl StdError for ImportanceError {}

/// An invalid importance-curve specification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CurveError {
    /// A piecewise curve had no points.
    Empty,
    /// A piecewise curve's first point was not at age zero.
    MissingOrigin,
    /// Point ages were not strictly increasing.
    NonIncreasingAges {
        /// Index of the offending point.
        index: usize,
    },
    /// Importance values increased with age, violating the paper's
    /// requirement that curves be monotonically non-increasing (§3).
    IncreasingImportance {
        /// Index of the offending point.
        index: usize,
    },
    /// An exponential decay curve had a zero-length half life.
    ZeroHalfLife,
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveError::Empty => write!(f, "piecewise curve needs at least one point"),
            CurveError::MissingOrigin => {
                write!(f, "piecewise curve must start at age zero")
            }
            CurveError::NonIncreasingAges { index } => {
                write!(
                    f,
                    "piecewise curve ages must strictly increase (point {index})"
                )
            }
            CurveError::IncreasingImportance { index } => write!(
                f,
                "importance curves must be monotonically non-increasing (point {index})"
            ),
            CurveError::ZeroHalfLife => write!(f, "exponential decay half-life must be positive"),
        }
    }
}

impl StdError for CurveError {}

/// A store request that the unit could not satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The storage is *full* for this object: even after preempting every
    /// strictly-less-important object there is not enough room.
    ///
    /// `blocking` is the lowest current importance among objects that could
    /// not be preempted — the signal the paper feeds back to content
    /// creators ("objects with importance less than 0.25 cannot be stored",
    /// §5.1.2).
    Full {
        /// Bytes the object needs.
        required: ByteSize,
        /// Bytes reclaimable for it (free space + preemptible bytes).
        reclaimable: ByteSize,
        /// Lowest importance among non-preemptible objects, if any.
        blocking: Option<Importance>,
    },
    /// The object is larger than the unit's total capacity.
    TooLarge {
        /// Bytes the object needs.
        size: ByteSize,
        /// The unit's capacity.
        capacity: ByteSize,
    },
    /// An object with this id is already stored.
    DuplicateId(ObjectId),
    /// The object declared a zero size, which the store rejects to keep
    /// accounting meaningful.
    EmptyObject(ObjectId),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Full {
                required,
                reclaimable,
                blocking,
            } => {
                write!(
                    f,
                    "storage full for this importance level: need {required}, reclaimable {reclaimable}"
                )?;
                if let Some(b) = blocking {
                    write!(f, ", blocked by importance {b}")?;
                }
                Ok(())
            }
            StoreError::TooLarge { size, capacity } => {
                write!(f, "object of {size} exceeds unit capacity {capacity}")
            }
            StoreError::DuplicateId(id) => write!(f, "object {id} is already stored"),
            StoreError::EmptyObject(id) => write!(f, "object {id} has zero size"),
        }
    }
}

impl StdError for StoreError {}

/// A failed re-annotation (rejuvenation) request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejuvenateError {
    /// No stored object has this id.
    NotFound(ObjectId),
    /// The replacement curve would *lower* the object's current importance.
    ///
    /// Rejuvenation exists so users can raise importance via "active
    /// intervention" (§3); lowering happens naturally through decay, and a
    /// silent drop would let a caller bypass preemption accounting.
    WouldLowerImportance {
        /// Importance under the existing annotation.
        current: Importance,
        /// Importance the replacement curve would start at.
        proposed: Importance,
    },
}

impl fmt::Display for RejuvenateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejuvenateError::NotFound(id) => write!(f, "object {id} is not stored here"),
            RejuvenateError::WouldLowerImportance { current, proposed } => write!(
                f,
                "rejuvenation cannot lower importance (current {current}, proposed {proposed})"
            ),
        }
    }
}

impl StdError for RejuvenateError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_error<E: StdError + Send + Sync + 'static>() {}

    #[test]
    fn error_types_are_well_behaved() {
        assert_error::<ImportanceError>();
        assert_error::<CurveError>();
        assert_error::<StoreError>();
        assert_error::<RejuvenateError>();
        assert_error::<Error>();
    }

    #[test]
    fn umbrella_error_preserves_message_and_source() {
        let store = StoreError::DuplicateId(ObjectId::new(7));
        let wrapped = Error::from(store.clone());
        assert_eq!(wrapped.to_string(), store.to_string());
        assert!(wrapped.source().is_some(), "source chain must survive");

        let external = Error::external(CurveError::ZeroHalfLife);
        assert!(matches!(external, Error::External(_)));
        assert_eq!(external.to_string(), CurveError::ZeroHalfLife.to_string());
        assert!(external
            .source()
            .unwrap()
            .downcast_ref::<CurveError>()
            .is_some());
    }

    #[test]
    fn service_variants_are_sourceless_and_descriptive() {
        let full = Error::QueueFull { shard: 7 };
        assert_eq!(full.to_string(), "shard 7 ingest queue is full");
        assert!(full.source().is_none());

        let gone = Error::Disconnected;
        assert_eq!(gone.to_string(), "serving layer disconnected");
        assert!(gone.source().is_none());
    }

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = StoreError::TooLarge {
            size: ByteSize::from_gib(2),
            capacity: ByteSize::from_gib(1),
        };
        let msg = e.to_string();
        assert!(msg.starts_with("object"));
        assert!(msg.contains("2.00 GiB"));

        let e = StoreError::Full {
            required: ByteSize::from_mib(10),
            reclaimable: ByteSize::from_mib(5),
            blocking: Some(Importance::new(0.25).unwrap()),
        };
        assert!(e.to_string().contains("0.2500"));
    }
}
