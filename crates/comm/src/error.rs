//! Typed communication failures and runtime tuning.
//!
//! The failure taxonomy separates what a caller *can do* about a fault:
//!
//! * [`CommError::Timeout`] — a peer is stalled or a message was lost;
//!   retry, then poison the epoch and roll back.
//! * [`CommError::Corrupt`] — framing CRC mismatch; the payload must not
//!   be integrated into the solution. Abort the epoch.
//! * [`CommError::EpochAborted`] — another rank already poisoned the
//!   epoch; unwind out of the current collective without blocking.
//! * [`CommError::TypeMismatch`] / [`CommError::Protocol`] — a logic bug
//!   in the exchange pattern, surfaced as data instead of a panic.
//! * [`CommError::RankUnreachable`] / [`CommError::PendingOverflow`] —
//!   hard runtime failures (peer gone, backpressure limit blown).

use std::fmt;
use std::time::Duration;

/// Copyable discriminant of a [`CommError`], for embedding in `Copy`
/// fault types (e.g. `rbx-core`'s `StepFault`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommErrorKind {
    /// A receive deadline expired (message lost or peer stalled).
    Timeout,
    /// A payload arrived with the wrong type.
    TypeMismatch,
    /// CRC-64 framing check failed: the payload was corrupted in flight.
    Corrupt,
    /// The communication epoch was poisoned by some rank; the current
    /// collective was abandoned cleanly.
    EpochAborted,
    /// The peer's endpoint has shut down.
    RankUnreachable,
    /// The bounded pending-message buffer overflowed (backpressure).
    PendingOverflow,
    /// An exchange-protocol invariant was violated (length mismatch,
    /// malformed frame header, …).
    Protocol,
}

impl CommErrorKind {
    /// Short machine token used in telemetry labels.
    pub fn token(&self) -> &'static str {
        match self {
            CommErrorKind::Timeout => "timeout",
            CommErrorKind::TypeMismatch => "type_mismatch",
            CommErrorKind::Corrupt => "corrupt",
            CommErrorKind::EpochAborted => "epoch_aborted",
            CommErrorKind::RankUnreachable => "rank_unreachable",
            CommErrorKind::PendingOverflow => "pending_overflow",
            CommErrorKind::Protocol => "protocol",
        }
    }
}

impl fmt::Display for CommErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A typed communication failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// No matching message arrived within the deadline (after the
    /// configured number of retries).
    Timeout {
        /// Peer rank the receive was matching.
        src: usize,
        /// Message tag the receive was matching.
        tag: u64,
        /// Total time waited across all attempts.
        waited: Duration,
        /// Retry attempts consumed (0 = single attempt).
        retries: u32,
    },
    /// A payload of the wrong type arrived where another was required.
    TypeMismatch {
        /// The payload kind the caller required.
        expected: &'static str,
        /// The payload kind that actually arrived.
        got: &'static str,
    },
    /// CRC-64 framing detected payload corruption.
    Corrupt {
        /// Peer rank the frame came from.
        src: usize,
        /// Message tag of the corrupted frame.
        tag: u64,
        /// What exactly failed (crc mismatch, truncated frame, …).
        detail: String,
    },
    /// The epoch was poisoned; the reason string describes the original
    /// fault on the poisoning rank.
    EpochAborted {
        /// Epoch that was abandoned.
        epoch: u64,
        /// Human-readable description of the originating fault.
        reason: String,
    },
    /// The peer's channel endpoint is gone (rank finished or died).
    RankUnreachable {
        /// The unreachable rank.
        rank: usize,
    },
    /// The bounded pending buffer hit its limit while holding unmatched
    /// messages.
    PendingOverflow {
        /// Messages buffered when the limit was hit.
        buffered: usize,
        /// The configured limit.
        limit: usize,
    },
    /// Exchange-protocol violation (length mismatch, malformed frame, …).
    Protocol {
        /// Description of the violated invariant.
        detail: String,
    },
}

impl CommError {
    /// The copyable discriminant.
    pub fn kind(&self) -> CommErrorKind {
        match self {
            CommError::Timeout { .. } => CommErrorKind::Timeout,
            CommError::TypeMismatch { .. } => CommErrorKind::TypeMismatch,
            CommError::Corrupt { .. } => CommErrorKind::Corrupt,
            CommError::EpochAborted { .. } => CommErrorKind::EpochAborted,
            CommError::RankUnreachable { .. } => CommErrorKind::RankUnreachable,
            CommError::PendingOverflow { .. } => CommErrorKind::PendingOverflow,
            CommError::Protocol { .. } => CommErrorKind::Protocol,
        }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout {
                src,
                tag,
                waited,
                retries,
            } => write!(
                f,
                "recv from rank {src} tag {tag} timed out after {:.3}s ({retries} retries)",
                waited.as_secs_f64()
            ),
            CommError::TypeMismatch { expected, got } => {
                write!(f, "expected {expected} payload, got {got}")
            }
            CommError::Corrupt { src, tag, detail } => {
                write!(f, "corrupt frame from rank {src} tag {tag}: {detail}")
            }
            CommError::EpochAborted { epoch, reason } => {
                write!(f, "epoch {epoch} aborted: {reason}")
            }
            CommError::RankUnreachable { rank } => write!(f, "rank {rank} unreachable"),
            CommError::PendingOverflow { buffered, limit } => write!(
                f,
                "pending-message buffer overflow ({buffered} buffered, limit {limit})"
            ),
            CommError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Tunables for the hardened receive path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommTuning {
    /// Deadline for a single receive attempt.
    pub recv_timeout: Duration,
    /// Extra receive attempts after the first times out.
    pub retries: u32,
    /// Each retry's deadline is the previous one times this factor.
    pub backoff: f64,
    /// Poll slice for deadline-sliced blocking receives; bounds how long a
    /// rank can go without noticing a poisoned epoch.
    pub poll: Duration,
    /// Maximum unmatched messages buffered per rank before the runtime
    /// reports [`CommError::PendingOverflow`].
    pub pending_limit: usize,
}

impl Default for CommTuning {
    fn default() -> Self {
        Self {
            recv_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: 2.0,
            poll: Duration::from_millis(1),
            pending_limit: 1 << 16,
        }
    }
}

impl CommTuning {
    /// Total wall-clock budget a fully retried receive can consume.
    pub fn total_recv_budget(&self) -> Duration {
        let mut total = self.recv_timeout.as_secs_f64();
        let mut cur = total;
        for _ in 0..self.retries {
            cur *= self.backoff;
            total += cur;
        }
        Duration::from_secs_f64(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_tokens_round_trip() {
        let e = CommError::Timeout {
            src: 1,
            tag: 7,
            waited: Duration::from_millis(50),
            retries: 2,
        };
        assert_eq!(e.kind(), CommErrorKind::Timeout);
        assert_eq!(e.kind().token(), "timeout");
        let c = CommError::Corrupt {
            src: 0,
            tag: 3,
            detail: "crc mismatch".into(),
        };
        assert_eq!(c.kind(), CommErrorKind::Corrupt);
        assert!(c.to_string().contains("crc mismatch"));
    }

    #[test]
    fn retry_budget_compounds_backoff() {
        let t = CommTuning {
            recv_timeout: Duration::from_secs(1),
            retries: 2,
            backoff: 2.0,
            ..Default::default()
        };
        // 1 + 2 + 4 seconds.
        assert!((t.total_recv_budget().as_secs_f64() - 7.0).abs() < 1e-9);
    }
}
