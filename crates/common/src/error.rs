//! Error types shared across the engine.

use crate::ids::{Lsn, PageId, Rid, TxnId};
use std::fmt;

/// Engine-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Engine-wide error type.
///
/// Variants are deliberately coarse at subsystem boundaries: callers almost
/// always either propagate, retry (for `Deadlock`/`WouldBlock`), or surface a
/// user-visible condition (`UniqueViolation`, `NotFound`).
#[derive(Debug)]
pub enum Error {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A conditional lock or latch request could not be granted immediately.
    /// Never escapes the index manager: it drives the "release latches and
    /// re-request unconditionally" path from §2.2 of the paper.
    WouldBlock,
    /// The lock manager chose this transaction as a deadlock victim.
    Deadlock { txn: TxnId },
    /// Unique-index key-value violation (paper §2.4: commit-duration S lock on
    /// the found key makes the error condition repeatable).
    UniqueViolation,
    /// Requested key / record does not exist.
    NotFound,
    /// A page image failed structural validation (bad type, torn write, ...).
    CorruptPage { page: PageId, reason: String },
    /// A log record failed to decode at the given LSN.
    CorruptLog { lsn: Lsn, reason: String },
    /// The buffer pool has no evictable frame.
    BufferPoolFull,
    /// A record was not where the caller said it was.
    BadRid { rid: Rid },
    /// The transaction is not in a state that allows the operation
    /// (e.g. operating on a committed transaction handle).
    BadTxnState { txn: TxnId, state: &'static str },
    /// Attempt to insert a payload that cannot fit even on an empty page.
    TooLarge { len: usize, max: usize },
    /// Internal invariant violation; indicates a bug, carries context.
    Internal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::WouldBlock => write!(f, "conditional request would block"),
            Error::Deadlock { txn } => write!(f, "deadlock: {txn} chosen as victim"),
            Error::UniqueViolation => write!(f, "unique key violation"),
            Error::NotFound => write!(f, "not found"),
            Error::CorruptPage { page, reason } => write!(f, "corrupt page {page}: {reason}"),
            Error::CorruptLog { lsn, reason } => write!(f, "corrupt log record at {lsn}: {reason}"),
            Error::BufferPoolFull => write!(f, "buffer pool full: no evictable frame"),
            Error::BadRid { rid } => write!(f, "no record at {rid}"),
            Error::BadTxnState { txn, state } => {
                write!(f, "operation invalid for {txn} in state {state}")
            }
            Error::TooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds page capacity {max}")
            }
            Error::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// True if the operation may succeed when retried after the conflicting
    /// transaction finishes (deadlock victims are retried by workload drivers).
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::Deadlock { .. } | Error::WouldBlock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PageId;

    #[test]
    fn display_mentions_context() {
        let e = Error::CorruptPage {
            page: PageId(4),
            reason: "bad type byte".into(),
        };
        let s = e.to_string();
        assert!(s.contains("P4") && s.contains("bad type byte"));
    }

    #[test]
    fn io_error_is_source() {
        use std::error::Error as _;
        let e = Error::from(std::io::Error::other("x"));
        assert!(e.source().is_some());
    }

    #[test]
    fn retryable_classification() {
        assert!(Error::Deadlock { txn: TxnId(1) }.is_retryable());
        assert!(Error::WouldBlock.is_retryable());
        assert!(!Error::NotFound.is_retryable());
        assert!(!Error::UniqueViolation.is_retryable());
    }
}
