//! Failures of the durable layer.

use std::error::Error as StdError;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use temporal_importance::{Error, RestoreError};

/// A durable-layer failure: filesystem trouble, segment damage, or an
/// inconsistent recovered state.
#[derive(Debug)]
#[non_exhaustive]
pub enum DurableError {
    /// An I/O operation on a log file or directory failed.
    Io {
        /// The path the operation targeted.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A segment holds bytes that cannot be what the writer wrote: a
    /// torn sealed segment, a checksummed record that fails to parse,
    /// or a live id with no surviving full-state record.
    Corrupt {
        /// The damaged segment file.
        segment: PathBuf,
        /// What recovery found.
        detail: String,
    },
    /// Replayed state violates an engine invariant (duplicate resident
    /// id or recovered residents exceeding capacity) — the log and the
    /// engine configuration disagree.
    Restore(RestoreError),
    /// A journal write failed, so the engine may hold a mutation the log
    /// never saw; the unit refuses every call from then on. Carries the
    /// failure that poisoned it.
    Poisoned(Arc<DurableError>),
}

impl DurableError {
    pub(crate) fn io(path: &Path, source: io::Error) -> DurableError {
        DurableError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { path, source } => {
                write!(f, "durable log I/O failed at {}: {source}", path.display())
            }
            DurableError::Corrupt { segment, detail } => {
                write!(f, "segment {} is corrupt: {detail}", segment.display())
            }
            DurableError::Restore(e) => write!(f, "recovered state rejected: {e}"),
            DurableError::Poisoned(cause) => {
                write!(
                    f,
                    "durable unit refuses calls after a journal failure: {cause}"
                )
            }
        }
    }
}

impl StdError for DurableError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            DurableError::Corrupt { .. } => None,
            DurableError::Restore(e) => Some(e),
            DurableError::Poisoned(cause) => Some(cause.as_ref()),
        }
    }
}

impl From<RestoreError> for DurableError {
    fn from(e: RestoreError) -> Self {
        DurableError::Restore(e)
    }
}

impl From<DurableError> for Error {
    fn from(e: DurableError) -> Self {
        Error::external(e)
    }
}
