//! The typed error surface of the resilience layer.

use std::fmt;

/// Everything the resilience layer can report: watchdog trips, divergence,
/// corrupted checkpoints or input data, IO failures and resume-state
/// mismatches.
///
/// All payloads are strings or integers so the type stays `Eq` and can ride
/// inside `EngineError` without giving up equality-based test assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceError {
    /// The run was stopped at an iteration boundary: an injected abort
    /// ([`RunGuard::abort_at_iteration`](crate::RunGuard::abort_at_iteration))
    /// fired.
    Cancelled {
        /// Iteration boundary at which the cancellation was observed.
        iteration: u64,
    },
    /// The run guard's deadline elapsed.
    DeadlineExceeded {
        /// Iteration boundary at which the deadline was observed.
        iteration: u64,
        /// Elapsed run time in milliseconds when the guard tripped.
        elapsed_millis: u64,
    },
    /// A training metric went non-finite or the score distribution collapsed.
    Diverged {
        /// Iteration at which divergence was detected.
        iteration: u64,
        /// What diverged (e.g. `"train_nll is not finite"`).
        reason: String,
    },
    /// Stored bytes failed their structural or checksum validation: a
    /// checkpoint, a spill file, or an input shard a fit reads.
    Corrupt {
        /// What is damaged, and how.
        what: String,
    },
    /// An IO operation on checkpoint storage failed.
    Io {
        /// The operation (`"write"`, `"read"`, `"list"`, …).
        op: String,
        /// The underlying error, stringified.
        detail: String,
    },
    /// A resume payload does not match the trainer or configuration that is
    /// trying to consume it.
    Mismatch {
        /// Why the payload cannot be resumed from.
        reason: String,
    },
}

impl ResilienceError {
    /// Convenience constructor for [`ResilienceError::Io`].
    pub fn io(op: &str, detail: impl fmt::Display) -> Self {
        ResilienceError::Io {
            op: op.to_string(),
            detail: detail.to_string(),
        }
    }

    /// Convenience constructor for [`ResilienceError::Corrupt`].
    pub fn corrupt(what: impl Into<String>) -> Self {
        ResilienceError::Corrupt { what: what.into() }
    }

    /// True for the two watchdog outcomes ([`ResilienceError::Cancelled`],
    /// [`ResilienceError::DeadlineExceeded`]) that mean "the run was stopped
    /// on purpose and can be resumed from its checkpoints".
    pub fn is_interruption(&self) -> bool {
        matches!(
            self,
            ResilienceError::Cancelled { .. } | ResilienceError::DeadlineExceeded { .. }
        )
    }
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::Cancelled { iteration } => {
                write!(f, "training cancelled at iteration {iteration}")
            }
            ResilienceError::DeadlineExceeded {
                iteration,
                elapsed_millis,
            } => write!(
                f,
                "training deadline exceeded at iteration {iteration} after {elapsed_millis} ms"
            ),
            ResilienceError::Diverged { iteration, reason } => {
                write!(f, "training diverged at iteration {iteration}: {reason}")
            }
            ResilienceError::Corrupt { what } => write!(f, "corrupt data: {what}"),
            ResilienceError::Io { op, detail } => write!(f, "checkpoint {op} failed: {detail}"),
            ResilienceError::Mismatch { reason } => {
                write!(f, "checkpoint does not match this trainer: {reason}")
            }
        }
    }
}

impl std::error::Error for ResilienceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_single_line_and_specific() {
        let cases: Vec<ResilienceError> = vec![
            ResilienceError::Cancelled { iteration: 3 },
            ResilienceError::DeadlineExceeded {
                iteration: 4,
                elapsed_millis: 1500,
            },
            ResilienceError::Diverged {
                iteration: 7,
                reason: "loss is NaN".into(),
            },
            ResilienceError::corrupt("checksum mismatch"),
            ResilienceError::io("write", "disk full"),
            ResilienceError::Mismatch {
                reason: "kind lda-gibbs != lstm".into(),
            },
        ];
        for e in cases {
            let s = e.to_string();
            assert!(!s.contains('\n'), "{s:?}");
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn interruption_classification() {
        assert!(ResilienceError::Cancelled { iteration: 0 }.is_interruption());
        assert!(ResilienceError::DeadlineExceeded {
            iteration: 0,
            elapsed_millis: 1
        }
        .is_interruption());
        assert!(!ResilienceError::corrupt("x").is_interruption());
        assert!(!ResilienceError::Diverged {
            iteration: 0,
            reason: "x".into()
        }
        .is_interruption());
    }
}
