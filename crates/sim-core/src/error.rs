//! Typed errors for the fallible I/O paths of the simulation.
//!
//! The stack is infallible on the happy path — a request submitted to a
//! healthy device always completes. Faults injected by `sim-fault` (and
//! any future failure model) surface through these types instead of
//! panicking, so error propagation can be simulated and asserted on:
//! device → block layer → file system → fsync caller.

use std::fmt;

use crate::ids::RequestId;

/// Why an I/O operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoErrorKind {
    /// The device reported a transient error (medium error, command
    /// timeout); the data did not reach the platter.
    TransientDevice,
    /// A multi-block write was torn: only a prefix became durable. The
    /// device reports failure, but part of the write may be on media.
    TornWrite,
    /// Power was cut while the operation was in flight.
    PowerCut,
    /// The journal aborted (a log or commit-record write failed); the
    /// file system refuses further synchronizing operations, as ext4
    /// does after `jbd2` aborts.
    JournalAborted,
}

impl IoErrorKind {
    /// Short stable name (metrics keys, reports).
    pub(crate) fn name(self) -> &'static str {
        match self {
            IoErrorKind::TransientDevice => "transient-device",
            IoErrorKind::TornWrite => "torn-write",
            IoErrorKind::PowerCut => "power-cut",
            IoErrorKind::JournalAborted => "journal-aborted",
        }
    }
}

/// A failed I/O operation, optionally tied to the block request that
/// caused it (an fsync failure caused by a lost journal write carries the
/// journal request's id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoError {
    /// What went wrong.
    pub kind: IoErrorKind,
    /// The originating block request, when one exists.
    pub req: Option<RequestId>,
}

impl IoError {
    /// An error of `kind` with no originating request.
    pub fn new(kind: IoErrorKind) -> Self {
        IoError { kind, req: None }
    }

    /// An error of `kind` caused by request `req`.
    pub fn for_request(kind: IoErrorKind, req: RequestId) -> Self {
        IoError {
            kind,
            req: Some(req),
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.req {
            Some(r) => write!(f, "io error: {} (request {})", self.kind.name(), r.raw()),
            None => write!(f, "io error: {}", self.kind.name()),
        }
    }
}

impl std::error::Error for IoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_request() {
        let e = IoError::new(IoErrorKind::TransientDevice);
        assert_eq!(e.to_string(), "io error: transient-device");
        let e = IoError::for_request(IoErrorKind::TornWrite, RequestId(7));
        assert!(e.to_string().contains("torn-write"));
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn kinds_have_distinct_names() {
        let kinds = [
            IoErrorKind::TransientDevice,
            IoErrorKind::TornWrite,
            IoErrorKind::PowerCut,
            IoErrorKind::JournalAborted,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
