//! # fairank-service
//!
//! The serving layer over the typed session API: where `fairank-session`
//! is one auditor exploring one workspace, this crate multiplexes many
//! concurrent clients over many named sessions — the shape production
//! fairness-measurement services take (fairness quantified as a *service*
//! queried over many rankings, not a single-user REPL).
//!
//! * [`registry`] — the concurrent session store: named [`Session`]s
//!   behind `RwLock<HashMap<_, Arc<Mutex<_>>>>`, with create / attach /
//!   detach / evict, per-entry last-use tracking, and idle-TTL expiry
//!   (`serve --session-ttl`).
//! * [`sched`] — per-key fair queueing ([`sched::FairQueue`]): bounded
//!   FIFOs per session drained round-robin, where consumers that may not
//!   run metered (compute) items skip them; the scheduling core of the
//!   worker pool.
//! * [`pool`] — the one executor: every wire request is one job on its
//!   queue, keyed by session. Compute-class jobs run only on the
//!   `--workers` compute threads, independent of connection count; light
//!   jobs also run on [`pool::LIGHT_THREADS`] threads that never take
//!   compute. A scenario plan queues its cells as compute jobs, so an
//!   N-cell grid saturates every compute thread without starving other
//!   sessions.
//! * [`protocol`] — the JSON-lines wire format: one request per line
//!   (`{"session": .., "command": ..}` — or `{"session": .., "scenario":
//!   <spec>}` for structured scenario plans), one reply per line
//!   (`{"ok": Response}` / `{"err": {"kind", "message"}}`). Commands use
//!   the *exact* REPL syntax (`Command::parse`), so any transcript that
//!   works in the CLI works over the wire. Scenario requests may set
//!   `"stream": true` to receive one `{"chunk": CellStat}` line per
//!   finished cell before the final reply. Oversized request lines are
//!   refused with the structured `request_too_large` kind before the
//!   connection closes.
//! * [`eventloop`] — the TCP front end: a readiness-based event
//!   loop (vendored `polling` shim: epoll on Linux, `poll(2)` fallback)
//!   drives every connection's read-accumulate → dispatch → write-drain
//!   state machine on one thread, which also admits each request; the
//!   worker pool executes them. Client disconnects are readiness events
//!   (EOF), so abandoned compute is cancelled as soon as the peer goes.
//! * [`server`] — configuration, the server lifecycle (spawn, stop,
//!   graceful drain), and the dispatch semantics every request runs:
//!   admission where the request arrives, then one pool job; registry
//!   admin (`sessions` / `evict`) is answered at admission behind
//!   `serve --admin`. The wire replies are pinned by the
//!   golden transcript in `tests/wire_golden.rs`.
//!
//! [`Session`]: fairank_session::Session

pub mod eventloop;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod sched;
pub mod server;

pub use pool::{JobClass, PoolFull, WorkerPool};
pub use protocol::{Frame, Reply, Request, DEFAULT_SESSION};
pub use registry::{RegistryError, SessionLease, SessionRegistry};
pub use server::{
    dispatch, dispatch_with, ChunkSink, DispatchPolicy, RequestContext, Server,
    ServerConfig, ServerHandle, MAX_REQUEST_BYTES, RETRY_AFTER_MS,
};
