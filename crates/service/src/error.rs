//! Typed errors of the counting service.
//!
//! Every way a job can fail to be served is a [`ServiceError`] variant:
//! admission control (a full queue is a *reply*, not unbounded growth),
//! lifecycle (submitting to or waiting on a shut-down service), invalid
//! precision targets, and the underlying counting errors of `sgc-core`.

use sgc_core::SgcError;

/// Reasons a job submission or wait cannot produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The bounded work queue is at capacity. The service sheds load by
    /// rejecting at admission instead of queueing without bound; callers
    /// should back off and resubmit.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The service has been shut down: either the submission arrived after
    /// [`shutdown`](crate::Service::shutdown), or the service was dropped
    /// while the job was still queued.
    ShuttingDown,
    /// A precision target was supplied with a non-positive (or non-finite)
    /// relative half-width, or a confidence level outside `(0, 1)`.
    InvalidPrecision {
        /// The requested relative half-width target.
        target: f64,
        /// The requested confidence level.
        confidence: f64,
    },
    /// The job was cancelled before any trials completed, so there is no
    /// partial estimate to report. (A job cancelled *after* at least one
    /// chunk ran completes successfully with
    /// [`StopReason::Cancelled`](crate::StopReason::Cancelled) instead.)
    Cancelled,
    /// The job's worker disappeared without producing a result (a panic in
    /// the counting code). The service keeps serving other jobs.
    WorkerLost,
    /// The counting engine rejected the job (unplannable query, zero trial
    /// budget, …).
    Count(SgcError),
    /// A versioned job referenced a graph version the service does not
    /// hold (never applied here, or from another graph's chain).
    UnknownVersion {
        /// The raw version id that failed to resolve.
        version: u64,
    },
    /// An edge delta could not be applied to the current head snapshot
    /// (deleting an absent edge, inserting an existing one, a vertex out
    /// of range, …). The graph is unchanged.
    Delta {
        /// Human-readable rejection reason from the snapshot layer.
        reason: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "work queue is full ({capacity} jobs); resubmit later")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::InvalidPrecision { target, confidence } => write!(
                f,
                "invalid precision target (relative half-width {target}, confidence \
                 {confidence}): the target must be positive and finite, the confidence in (0, 1)"
            ),
            ServiceError::Cancelled => {
                write!(f, "job cancelled before any trials completed")
            }
            ServiceError::WorkerLost => {
                write!(f, "the worker processing this job terminated unexpectedly")
            }
            ServiceError::Count(e) => write!(f, "counting failed: {e}"),
            ServiceError::UnknownVersion { version } => {
                write!(f, "unknown graph version v{version:016x}")
            }
            ServiceError::Delta { reason } => write!(f, "delta rejected: {reason}"),
        }
    }
}

impl From<sgc_dyn::DynError> for ServiceError {
    fn from(e: sgc_dyn::DynError) -> Self {
        match e {
            sgc_dyn::DynError::UnknownVersion(v) => ServiceError::UnknownVersion {
                version: v.as_u64(),
            },
            sgc_dyn::DynError::Delta(d) => ServiceError::Delta {
                reason: d.to_string(),
            },
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Count(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SgcError> for ServiceError {
    fn from(e: SgcError) -> Self {
        ServiceError::Count(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(ServiceError::QueueFull { capacity: 8 }
            .to_string()
            .contains('8'));
        assert!(ServiceError::ShuttingDown.to_string().contains("shut"));
        assert!(ServiceError::InvalidPrecision {
            target: -0.1,
            confidence: 0.95
        }
        .to_string()
        .contains("-0.1"));
        assert!(ServiceError::WorkerLost.to_string().contains("worker"));
        assert!(ServiceError::from(SgcError::ZeroTrials)
            .to_string()
            .contains("trial"));
    }

    #[test]
    fn count_errors_convert_and_expose_a_source() {
        let err = ServiceError::from(SgcError::ZeroTrials);
        assert_eq!(err, ServiceError::Count(SgcError::ZeroTrials));
        assert!(std::error::Error::source(&err).is_some());
        assert!(std::error::Error::source(&ServiceError::ShuttingDown).is_none());
    }
}
