//! File-system error type.

use std::error::Error;
use std::fmt;

use temporal_importance::{RejuvenateError, StoreError};

/// Errors returned by [`TiFs`](crate::TiFs) operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum FsError {
    /// No entry at the path (possibly because the storage reclaimed it —
    /// a temporal-importance file system makes no guarantees after
    /// `t_expire`).
    NotFound {
        /// The missing path.
        path: String,
    },
    /// The path (or one of its ancestors) is a file, not a directory.
    NotADirectory {
        /// The offending path.
        path: String,
    },
    /// The path names a directory where a file was expected.
    IsADirectory {
        /// The offending path.
        path: String,
    },
    /// An entry already exists at the path (files are write-once).
    AlreadyExists {
        /// The occupied path.
        path: String,
    },
    /// The directory is not empty and cannot be removed.
    NotEmpty {
        /// The non-empty directory.
        path: String,
    },
    /// The path is malformed.
    InvalidPath {
        /// The malformed path.
        path: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// The reclamation engine refused the write (e.g. the storage is full
    /// for the file's importance level).
    Storage(StoreError),
    /// A re-annotation was refused.
    Annotation(RejuvenateError),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound { path } => write!(f, "no such file or directory: {path}"),
            FsError::NotADirectory { path } => write!(f, "not a directory: {path}"),
            FsError::IsADirectory { path } => write!(f, "is a directory: {path}"),
            FsError::AlreadyExists { path } => write!(f, "already exists: {path}"),
            FsError::NotEmpty { path } => write!(f, "directory not empty: {path}"),
            FsError::InvalidPath { path, reason } => {
                write!(f, "invalid path {path:?}: {reason}")
            }
            FsError::Storage(e) => write!(f, "storage refused the operation: {e}"),
            FsError::Annotation(e) => write!(f, "annotation refused: {e}"),
        }
    }
}

impl Error for FsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FsError::Storage(e) => Some(e),
            FsError::Annotation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FsError> for temporal_importance::Error {
    fn from(e: FsError) -> Self {
        temporal_importance::Error::external(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = FsError::NotFound {
            path: "/x".to_string(),
        };
        assert!(e.to_string().contains("/x"));
        let e = FsError::InvalidPath {
            path: "bad".to_string(),
            reason: "paths must be absolute",
        };
        assert!(e.to_string().contains("absolute"));
    }

    #[test]
    fn error_is_well_behaved() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<FsError>();
    }
}
