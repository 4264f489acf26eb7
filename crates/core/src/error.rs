//! Error type for mechanism compilation and answering.

use lrm_dp::DpError;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Errors surfaced by mechanism compilation, query answering, or the
/// strategy store.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// An invalid configuration or argument.
    InvalidArgument(String),
    /// The database vector does not match the workload's domain size.
    DomainMismatch {
        /// Domain size the mechanism was compiled for.
        expected: usize,
        /// Length of the supplied database vector.
        got: usize,
    },
    /// A numerical routine failed.
    Numerical(String),
    /// A differential-privacy primitive rejected its parameters.
    Dp(DpError),
    /// An I/O operation on a persisted strategy failed.
    Io {
        /// The file the operation targeted.
        path: PathBuf,
        /// The underlying I/O error (shared so `CoreError` stays `Clone`).
        source: Arc<std::io::Error>,
    },
    /// An iterative compile was abandoned because its cooperative
    /// deadline ([`lrm_opt::deadline`]) expired; the caller should fall
    /// back to a non-iterative strategy at the same ε.
    DeadlineExceeded,
}

impl CoreError {
    /// Wraps an `std::io::Error` with the path it occurred on.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        CoreError::Io {
            path: path.into(),
            source: Arc::new(source),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            CoreError::DomainMismatch { expected, got } => write!(
                f,
                "database has {got} counts but the workload covers {expected}"
            ),
            CoreError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            CoreError::Dp(e) => write!(f, "privacy parameter rejected: {e}"),
            CoreError::Io { path, source } => {
                write!(f, "I/O failure on {}: {source}", path.display())
            }
            CoreError::DeadlineExceeded => {
                write!(f, "compile abandoned: cooperative deadline expired")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Dp(e) => Some(e),
            CoreError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

// `std::io::Error` is neither `Clone` nor `PartialEq`; compare `Io` by path
// and error kind so the enum as a whole stays comparable in tests.
impl PartialEq for CoreError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CoreError::InvalidArgument(a), CoreError::InvalidArgument(b)) => a == b,
            (
                CoreError::DomainMismatch {
                    expected: e1,
                    got: g1,
                },
                CoreError::DomainMismatch {
                    expected: e2,
                    got: g2,
                },
            ) => e1 == e2 && g1 == g2,
            (CoreError::Numerical(a), CoreError::Numerical(b)) => a == b,
            (CoreError::Dp(a), CoreError::Dp(b)) => a == b,
            (
                CoreError::Io {
                    path: p1,
                    source: s1,
                },
                CoreError::Io {
                    path: p2,
                    source: s2,
                },
            ) => p1 == p2 && s1.kind() == s2.kind(),
            (CoreError::DeadlineExceeded, CoreError::DeadlineExceeded) => true,
            _ => false,
        }
    }
}

impl From<lrm_linalg::LinalgError> for CoreError {
    fn from(e: lrm_linalg::LinalgError) -> Self {
        CoreError::Numerical(e.to_string())
    }
}

impl From<DpError> for CoreError {
    fn from(e: DpError) -> Self {
        CoreError::Dp(e)
    }
}

impl From<lrm_workload::WorkloadError> for CoreError {
    fn from(e: lrm_workload::WorkloadError) -> Self {
        use lrm_workload::WorkloadError;
        match e {
            WorkloadError::DomainMismatch { expected, got } => {
                CoreError::DomainMismatch { expected, got }
            }
            other => CoreError::InvalidArgument(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn io_variant_carries_path_and_source() {
        let e = CoreError::io(
            "/tmp/strategy.lrmd",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        let s = e.to_string();
        assert!(
            s.contains("/tmp/strategy.lrmd") && s.contains("gone"),
            "{s}"
        );
        let src = e.source().expect("has a source");
        assert!(src.to_string().contains("gone"));
    }

    #[test]
    fn workload_errors_convert() {
        use lrm_workload::WorkloadError;
        let e = CoreError::from(WorkloadError::DomainMismatch {
            expected: 8,
            got: 7,
        });
        assert_eq!(
            e,
            CoreError::DomainMismatch {
                expected: 8,
                got: 7
            }
        );
        let e2 = CoreError::from(WorkloadError::NonFinite);
        assert!(matches!(e2, CoreError::InvalidArgument(_)));
    }

    #[test]
    fn dp_errors_convert_with_source() {
        let e = CoreError::from(DpError::NonPositiveEpsilon(-1.0));
        assert_eq!(e, CoreError::Dp(DpError::NonPositiveEpsilon(-1.0)));
        assert!(e.source().is_some());
    }

    #[test]
    fn io_equality_is_by_path_and_kind() {
        let not_found =
            || CoreError::io("/a", std::io::Error::new(std::io::ErrorKind::NotFound, "x"));
        let denied = CoreError::io(
            "/a",
            std::io::Error::new(std::io::ErrorKind::PermissionDenied, "x"),
        );
        assert_eq!(not_found(), not_found());
        assert_ne!(not_found(), denied);
    }
}
