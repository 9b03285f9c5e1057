//! Errors of the session engine, plus their structured wire form.

use std::fmt;

use fairank_core::cancel::CancelReason;
use fairank_core::quantify::SearchStats;
use fairank_core::CoreError;
use fairank_data::DataError;
use fairank_marketplace::MarketError;
use serde::{Deserialize, Serialize};

/// Errors produced by sessions, commands and reports.
#[derive(Debug)]
pub enum SessionError {
    /// A referenced dataset is not registered in the session.
    UnknownDataset(String),
    /// A referenced scoring function is not registered in the session.
    UnknownFunction(String),
    /// A referenced panel does not exist.
    UnknownPanel(usize),
    /// A referenced tree node does not exist in the panel.
    UnknownNode { panel: usize, node: usize },
    /// A name is already taken.
    NameTaken(String),
    /// A dataset name is unusable as a session file stem (path separators,
    /// `..` or other traversal material).
    InvalidName(String),
    /// A command failed to parse.
    Command(String),
    /// A request asked for more than a request bound allows (rows, bins,
    /// rounds, search size, plan cells); `what` names the value.
    LimitExceeded { what: String, max: u64 },
    /// An invariant of the execution machinery broke (an executor lost a
    /// cell, a reduce saw a foreign payload, a worker panicked).
    Internal(String),
    /// An error bubbled up from the core crate.
    Core(CoreError),
    /// A cooperative cancellation (deadline, client disconnect, shutdown)
    /// aborted the request's compute; carries the partial search counters.
    Cancelled {
        reason: CancelReason,
        stats: SearchStats,
    },
    /// An error bubbled up from the dataset substrate.
    Data(DataError),
    /// An error bubbled up from the anonymization substrate.
    Anon(fairank_anonymize::AnonError),
    /// An error bubbled up from the marketplace substrate.
    Market(MarketError),
    /// JSON export failed.
    Json(String),
    /// IO failure (export to file).
    Io(std::io::Error),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownDataset(name) => write!(f, "unknown dataset {name:?}"),
            SessionError::UnknownFunction(name) => write!(f, "unknown function {name:?}"),
            SessionError::UnknownPanel(id) => write!(f, "unknown panel #{id}"),
            SessionError::UnknownNode { panel, node } => {
                write!(f, "panel #{panel} has no node {node}")
            }
            SessionError::NameTaken(name) => write!(f, "name {name:?} is already in use"),
            SessionError::InvalidName(name) => write!(
                f,
                "dataset name {name:?} cannot be used as a session file name \
                 (path separators and '..' are not allowed)"
            ),
            SessionError::Command(msg) => write!(f, "command error: {msg}"),
            SessionError::LimitExceeded { what, max } => {
                write!(f, "limit exceeded: {what} (max {max})")
            }
            SessionError::Internal(msg) => write!(f, "internal error: {msg}"),
            SessionError::Core(e) => write!(f, "{e}"),
            SessionError::Cancelled { reason, stats } => write!(
                f,
                "request aborted: {reason} \
                 (partial progress: {} nodes evaluated, {} splits, {} EMD calls)",
                stats.nodes_evaluated, stats.splits_performed, stats.emd_calls
            ),
            SessionError::Data(e) => write!(f, "{e}"),
            SessionError::Anon(e) => write!(f, "{e}"),
            SessionError::Market(e) => write!(f, "{e}"),
            SessionError::Json(msg) => write!(f, "JSON error: {msg}"),
            SessionError::Io(e) => write!(f, "IO error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<CoreError> for SessionError {
    fn from(e: CoreError) -> Self {
        match e {
            // Cancellation is operational, not analytical: it surfaces under
            // its own wire kinds (`deadline_exceeded` / `shutting_down` /
            // `cancelled`) instead of the generic `core`.
            CoreError::Cancelled { reason, stats } => {
                SessionError::Cancelled { reason, stats }
            }
            other => SessionError::Core(other),
        }
    }
}
impl From<DataError> for SessionError {
    fn from(e: DataError) -> Self {
        SessionError::Data(e)
    }
}
impl From<fairank_anonymize::AnonError> for SessionError {
    fn from(e: fairank_anonymize::AnonError) -> Self {
        SessionError::Anon(e)
    }
}
impl From<MarketError> for SessionError {
    fn from(e: MarketError) -> Self {
        SessionError::Market(e)
    }
}
impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> Self {
        SessionError::Io(e)
    }
}

impl SessionError {
    /// The stable machine-readable error kind used on the wire. Kinds name
    /// *classes* of failure; `message` carries the human specifics.
    pub fn kind(&self) -> &'static str {
        match self {
            SessionError::UnknownDataset(_) => "unknown_dataset",
            SessionError::UnknownFunction(_) => "unknown_function",
            SessionError::UnknownPanel(_) => "unknown_panel",
            SessionError::UnknownNode { .. } => "unknown_node",
            SessionError::NameTaken(_) => "name_taken",
            SessionError::InvalidName(_) => "invalid_name",
            SessionError::Command(_) => "command",
            SessionError::LimitExceeded { .. } => "limit_exceeded",
            SessionError::Internal(_) => "internal",
            SessionError::Core(_) => "core",
            SessionError::Cancelled { reason, .. } => match reason {
                CancelReason::Deadline => "deadline_exceeded",
                CancelReason::Disconnected => "cancelled",
                CancelReason::Shutdown => "shutting_down",
            },
            SessionError::Data(_) => "data",
            SessionError::Anon(_) => "anonymize",
            SessionError::Market(_) => "market",
            SessionError::Json(_) => "json",
            SessionError::Io(_) => "io",
        }
    }
}

/// The structured wire form of a [`SessionError`]: a stable `kind` tag for
/// programmatic handling plus the human `message` the REPL prints.
///
/// The optional fields ride along only when meaningful; absent fields
/// deserialize as `None`, so old clients and old replies interoperate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Stable machine-readable error class (see [`SessionError::kind`]).
    pub kind: String,
    /// Human-readable description (the error's `Display` text).
    pub message: String,
    /// Partial search counters when a cancellation cut compute short.
    pub partial: Option<SearchStats>,
    /// Suggested client back-off (milliseconds) on transient refusals
    /// (`overloaded`).
    pub retry_after_ms: Option<u64>,
}

impl ErrorResponse {
    /// A plain structured error with no optional payload.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> Self {
        ErrorResponse {
            kind: kind.into(),
            message: message.into(),
            partial: None,
            retry_after_ms: None,
        }
    }
}

impl From<&SessionError> for ErrorResponse {
    fn from(e: &SessionError) -> Self {
        let partial = match e {
            SessionError::Cancelled { stats, .. } => Some(*stats),
            _ => None,
        };
        ErrorResponse {
            kind: e.kind().to_string(),
            message: e.to_string(),
            partial,
            retry_after_ms: None,
        }
    }
}

impl From<SessionError> for ErrorResponse {
    fn from(e: SessionError) -> Self {
        ErrorResponse::from(&e)
    }
}

impl fmt::Display for ErrorResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.message, self.kind)
    }
}

/// Convenience alias for this crate.
pub type Result<T> = std::result::Result<T, SessionError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SessionError::UnknownDataset("d".into()).to_string().contains("d"));
        assert!(SessionError::UnknownFunction("f".into()).to_string().contains("f"));
        assert!(SessionError::UnknownPanel(3).to_string().contains("#3"));
        assert!(SessionError::UnknownNode { panel: 1, node: 9 }
            .to_string()
            .contains("node 9"));
        assert!(SessionError::NameTaken("x".into()).to_string().contains("in use"));
        assert!(SessionError::InvalidName("../x".into())
            .to_string()
            .contains("not allowed"));
        assert!(SessionError::Command("bad".into()).to_string().contains("bad"));
        assert!(SessionError::Json("eof".into()).to_string().contains("eof"));
    }

    #[test]
    fn error_kinds_are_stable_and_distinct() {
        let cases = [
            (SessionError::UnknownDataset("d".into()), "unknown_dataset"),
            (SessionError::UnknownFunction("f".into()), "unknown_function"),
            (SessionError::UnknownPanel(1), "unknown_panel"),
            (SessionError::UnknownNode { panel: 0, node: 1 }, "unknown_node"),
            (SessionError::NameTaken("x".into()), "name_taken"),
            (SessionError::InvalidName("../x".into()), "invalid_name"),
            (SessionError::Command("bad".into()), "command"),
            (
                SessionError::LimitExceeded {
                    what: "bins=2000".into(),
                    max: 1_000,
                },
                "limit_exceeded",
            ),
            (SessionError::Json("eof".into()), "json"),
        ];
        let mut kinds: Vec<&str> = cases.iter().map(|(err, _)| err.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), cases.len(), "kinds are distinct");
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
        }
    }

    #[test]
    fn cancellation_kinds_are_stable() {
        let cases = [
            (CancelReason::Deadline, "deadline_exceeded"),
            (CancelReason::Disconnected, "cancelled"),
            (CancelReason::Shutdown, "shutting_down"),
        ];
        for (reason, kind) in cases {
            let err = SessionError::Cancelled {
                reason,
                stats: SearchStats::default(),
            };
            assert_eq!(err.kind(), kind);
            assert!(err.to_string().contains("partial progress"));
        }
    }

    #[test]
    fn cancelled_error_response_carries_partial_stats() {
        let stats = SearchStats {
            nodes_evaluated: 7,
            emd_calls: 41,
            ..Default::default()
        };
        let wire: ErrorResponse = SessionError::Cancelled {
            reason: CancelReason::Deadline,
            stats,
        }
        .into();
        assert_eq!(wire.kind, "deadline_exceeded");
        assert_eq!(wire.partial, Some(stats));
        let json = serde_json::to_string(&wire).unwrap();
        let back: ErrorResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(wire, back);
    }

    #[test]
    fn error_response_without_optional_fields_still_parses() {
        // A reply in the pre-cancellation wire format: no optional keys.
        let back: ErrorResponse =
            serde_json::from_str(r#"{"kind":"core","message":"x"}"#).unwrap();
        assert_eq!(back.kind, "core");
        assert_eq!(back.partial, None);
        assert_eq!(back.retry_after_ms, None);
    }

    #[test]
    fn error_response_round_trips() {
        let wire: ErrorResponse = SessionError::UnknownPanel(7).into();
        assert_eq!(wire.kind, "unknown_panel");
        assert!(wire.message.contains("#7"));
        let json = serde_json::to_string(&wire).unwrap();
        let back: ErrorResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(wire, back);
        assert!(wire.to_string().contains("unknown_panel"));
    }
}
