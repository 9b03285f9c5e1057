//! # fairank-session
//!
//! The interactive exploration engine of FaiRank — everything the paper's
//! Figure 1 architecture and Figure 3 interface do, as a headless,
//! deterministic library:
//!
//! * [`config::Configuration`] — the *Configuration box*: which dataset,
//!   which scoring function (or ranking), which filter, which fairness
//!   criterion.
//! * [`panel::Panel`] — one quantification result: the partitioning tree,
//!   its unfairness, per-node statistics (the *General* and *Node* boxes).
//! * [`session::Session`] — the multi-panel workspace: register datasets
//!   and functions, run quantifications, compare panels side by side.
//! * [`command`] — the textual command language driving the CLI REPL, and
//!   [`command::apply`], the typed entry point every front end shares.
//! * [`response`] — the structured request/response layer: every command
//!   yields a serde-serializable [`response::Response`] payload.
//! * [`present`] — the only place responses become human text;
//!   `render(&apply(..)?)` reproduces the classic REPL transcript byte for
//!   byte.
//! * [`render`] — panel-handle conveniences over [`present`] (ASCII
//!   partitioning trees and histogram sparklines).
//! * [`report`] — the three §4 demonstration scenarios as reports:
//!   auditor, job owner, end user.
//! * [`export`] — JSON export of panels and reports.
//! * [`market`] — the bounded memo of generated marketplace presets.
//!
//! The paper's web UI is substituted by this engine plus the `fairank`
//! REPL and the `fairank-service` JSON-lines server; see DESIGN.md for the
//! substitution rationale.

pub mod cellcache;
pub mod command;
pub mod config;
pub mod error;
pub mod export;
pub mod market;
pub mod panel;
pub mod persist;
pub mod plan;
pub mod present;
pub mod render;
pub mod report;
pub mod response;
pub mod session;

pub use cellcache::{CacheStats, CellCache};
pub use command::{apply, execute, Command};
pub use config::Configuration;
pub use fairank_data::store::{DatasetHandle, DatasetStore, StoreStats};
pub use error::{ErrorResponse, Result, SessionError};
pub use market::MarketCache;
pub use panel::Panel;
pub use plan::{CellStat, Plan, ScenarioReport, ScenarioSpec};
pub use response::Response;
pub use session::Session;
