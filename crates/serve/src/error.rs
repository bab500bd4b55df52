//! Typed error and terminal-state model for the serving stack.
//!
//! A production serving system never panics on traffic: bad input, memory
//! pressure, and faults are runtime *states*, not bugs. Every request
//! submitted to the stack reaches exactly one [`Terminal`] state, and every
//! fallible operation surfaces a [`ServeError`] instead of asserting.

use serde::{Deserialize, Serialize};

/// Why a request was refused admission to the serving queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The prompt contained no tokens.
    EmptyPrompt,
    /// Nothing to generate (`max_new == 0`).
    ZeroDecodeTokens,
    /// The request's maximum KV footprint exceeds the entire block pool:
    /// it could never finish even running alone, so it is rejected up
    /// front instead of stalling the scheduler later.
    ExceedsKvPool {
        /// Blocks the request would need at its final context length.
        needed_blocks: usize,
        /// Blocks in the whole pool.
        total_blocks: usize,
    },
    /// Load shedding: the queue was at its depth watermark, so the newest
    /// submission is dropped to protect tail latency of admitted work.
    QueueFull {
        /// Queue depth observed at submission.
        depth: usize,
        /// Configured shed watermark.
        limit: usize,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::EmptyPrompt => write!(f, "empty prompt"),
            RejectReason::ZeroDecodeTokens => write!(f, "zero decode tokens requested"),
            RejectReason::ExceedsKvPool {
                needed_blocks,
                total_blocks,
            } => write!(
                f,
                "request needs {needed_blocks} KV blocks but the pool holds {total_blocks}"
            ),
            RejectReason::QueueFull { depth, limit } => {
                write!(f, "queue full (depth {depth} >= shed limit {limit})")
            }
        }
    }
}

/// Errors surfaced by the serving stack instead of panics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeError {
    /// A constructor was handed an unusable configuration.
    InvalidConfig(&'static str),
    /// A submission was refused (see [`RejectReason`]).
    Rejected(RejectReason),
    /// The request id is unknown or already terminal.
    UnknownRequest(usize),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ServeError::Rejected(reason) => write!(f, "request rejected: {reason}"),
            ServeError::UnknownRequest(id) => {
                write!(f, "unknown or already-terminal request {id}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RejectReason> for ServeError {
    fn from(reason: RejectReason) -> Self {
        ServeError::Rejected(reason)
    }
}

/// The exactly-once terminal state of a request.
///
/// Every submission accepted by the engine ends in precisely one of these
/// states; the chaos tests assert the exactly-once property under
/// randomized fault schedules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Terminal {
    /// All requested tokens were generated.
    Completed,
    /// Refused at submission (never queued).
    Rejected(RejectReason),
    /// Cancelled by the client via `cancel(id)`.
    Cancelled,
    /// The per-request step budget elapsed before completion.
    DeadlineExceeded,
    /// An injected or runtime fault killed the request.
    Failed {
        /// Human-readable failure cause.
        reason: String,
    },
}

impl Terminal {
    /// Whether the request finished with its full generation.
    pub fn is_completed(&self) -> bool {
        matches!(self, Terminal::Completed)
    }
}

impl std::fmt::Display for Terminal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Terminal::Completed => write!(f, "completed"),
            Terminal::Rejected(reason) => write!(f, "rejected: {reason}"),
            Terminal::Cancelled => write!(f, "cancelled"),
            Terminal::DeadlineExceeded => write!(f, "deadline exceeded"),
            Terminal::Failed { reason } => write!(f, "failed: {reason}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let r = RejectReason::ExceedsKvPool {
            needed_blocks: 9,
            total_blocks: 4,
        };
        assert!(r.to_string().contains("9 KV blocks"));
        assert!(ServeError::from(r).to_string().contains("rejected"));
        assert!(Terminal::Rejected(r).to_string().contains("rejected"));
        assert!(!Terminal::Rejected(r).is_completed());
        assert!(Terminal::Completed.is_completed());
    }
}
