//! The serving configuration, the server lifecycle, and the dispatch
//! semantics.
//!
//! [`Server::run`] serves through the readiness-based [`crate::eventloop`]:
//! one IO thread multiplexes every connection, so 1k idle clients cost 1k
//! registered sockets instead of 1k parked threads, and a client
//! disconnect is a readiness event. Each request is admitted where it
//! arrives and then runs as one job on the [`WorkerPool`], which also
//! governs the CPU budget; [`dispatch_with`] runs the same admission and
//! job and waits for the reply. [`ServerHandle`] stops or gracefully
//! drains a spawned server.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fairank_core::cancel::{CancelReason, CancelToken, RunBudget};
use fairank_session::command::{apply_with_budget, Command};
use fairank_session::plan::{self, ExecutedPlan};
use fairank_session::{ErrorResponse, Response};

use crate::pool::{ComputePermit, JobClass, PoolFull, Spawner, WorkerPool};
use crate::protocol::{Reply, Request};
use crate::registry::{InFlightGuard, SessionLease, SessionRegistry};

/// Hard cap on one request line. A client that streams bytes without a
/// newline is cut off here instead of growing the read buffer without
/// bound; 1 MiB comfortably fits any real command (they are REPL lines).
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Compute-class requests that run at once (0 = size to the host).
    /// The pool runs [`crate::pool::LIGHT_THREADS`] more threads for light
    /// commands.
    pub workers: usize,
    /// New compute requests are refused with `overloaded` once `workers +
    /// queue_depth` are in flight, queued or running (0 = twice the
    /// worker count).
    pub queue_depth: usize,
    /// Allow wire clients to run commands that touch the server's
    /// filesystem (`load`, `save`, `open`, `export`, `scenario
    /// <spec.json>`). Off by default: a reachable port must not hand out
    /// file read/write on the host.
    pub allow_fs_commands: bool,
    /// Allow wire clients to run registry-admin commands (`sessions`,
    /// `evict <name>`). Off by default.
    pub admin: bool,
    /// Evict sessions idle for at least this long. A dedicated sweeper
    /// thread wakes periodically (at most every [`sweep_interval`]), so
    /// idle sessions expire even on a server that never accepts another
    /// connection. `None` (the default) keeps sessions forever.
    pub session_ttl: Option<std::time::Duration>,
    /// Per-request compute deadline. A request still running when it
    /// expires is cancelled cooperatively and answered with the structured
    /// `deadline_exceeded` error (carrying partial search counters).
    /// `None` (the default) lets requests run unbounded.
    pub request_timeout: Option<std::time::Duration>,
    /// Maximum compute-class requests one session may have in flight at
    /// once; extra requests are refused with `overloaded` instead of
    /// queueing unboundedly behind the session's mutex. 0 = unlimited.
    pub session_inflight_cap: usize,
    /// Entries the shared cell cache (repeated `quantify` requests and
    /// grid cells) may hold before LRU eviction (`serve --cell-cache-cap`).
    /// 0 disables caching entirely.
    pub cell_cache_cap: usize,
    /// Pending pool jobs one session may hold before its further requests
    /// are refused with `overloaded` (`serve --session-queue-cap`).
    /// 0 = unbounded per session (`queue_depth` still binds compute).
    pub session_queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_depth: 0,
            allow_fs_commands: false,
            admin: false,
            session_ttl: None,
            request_timeout: None,
            session_inflight_cap: 0,
            cell_cache_cap: fairank_session::CellCache::DEFAULT_CAP,
            session_queue_cap: 0,
        }
    }
}

/// Shared run-state of a serving server: the stop and drain flags, the
/// global shutdown cancel token every request's budget carries, and the
/// in-flight request count. Connections are owned by the event loop's IO
/// thread, whose teardown closes them all.
#[derive(Debug, Default)]
pub(crate) struct ServeState {
    pub(crate) stop: AtomicBool,
    pub(crate) draining: AtomicBool,
    pub(crate) shutdown_token: CancelToken,
    pub(crate) active_requests: AtomicUsize,
}

/// A running multi-session FaiRank server.
#[derive(Debug)]
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) policy: DispatchPolicy,
    session_ttl: Option<std::time::Duration>,
    pub(crate) request_timeout: Option<std::time::Duration>,
    pub(crate) session_inflight_cap: usize,
    pub(crate) state: Arc<ServeState>,
}

/// Handle to a server running on a background thread (see
/// [`Server::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port) and prepares
    /// the registry and worker pool. Nothing is served until [`Server::run`]
    /// or [`Server::spawn`].
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let workers = if config.workers == 0 {
            WorkerPool::default_workers()
        } else {
            config.workers
        };
        let depth = if config.queue_depth == 0 {
            workers * 2
        } else {
            config.queue_depth
        };
        Ok(Server {
            listener,
            registry: Arc::new(SessionRegistry::with_cell_cache_cap(config.cell_cache_cap)),
            pool: Arc::new(WorkerPool::with_caps(workers, depth, config.session_queue_cap)),
            policy: DispatchPolicy {
                allow_fs_commands: config.allow_fs_commands,
                admin: config.admin,
            },
            session_ttl: config.session_ttl,
            request_timeout: config.request_timeout,
            session_inflight_cap: config.session_inflight_cap,
            state: Arc::new(ServeState::default()),
        })
    }

    /// The bound address (the actual port when 0 was requested).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared session registry (for in-process inspection/eviction).
    pub fn registry(&self) -> Arc<SessionRegistry> {
        Arc::clone(&self.registry)
    }

    /// Serves connections through the event loop on the calling thread
    /// until stopped.
    pub fn run(self) {
        // Idle-session TTL: a dedicated sweeper thread, NOT a pass on the
        // accept loop. Sweeping only on accept meant a quiet server (no new
        // connections) never expired anything — sessions pinned their
        // memory until the next client happened to connect.
        let sweeper = self.session_ttl.map(|ttl| {
            spawn_ttl_sweeper(Arc::clone(&self.registry), Arc::clone(&self.state), ttl)
        });
        if let Err(e) = crate::eventloop::run(&self) {
            // Registration with the OS poller failed at startup; there is
            // nothing to serve with. (Mid-loop per-connection errors are
            // handled by dropping the one connection, not surfaced here.)
            eprintln!("fairank serve: event loop failed: {e}");
            self.state.stop.store(true, Ordering::SeqCst);
        }
        if let Some(thread) = sweeper {
            let _ = thread.join();
        }
    }

    /// Serves on a background thread, returning a [`ServerHandle`] for the
    /// address and shutdown.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let thread = std::thread::Builder::new()
            .name("fairank-server".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            state,
            thread: Some(thread),
        })
    }
}

impl ServerHandle {
    /// The address the server accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting new connections and joins the serve thread.
    /// In-flight compute is cancelled cooperatively (clients receive the
    /// structured `shutting_down` error) rather than drained. Dropping
    /// the handle does the same.
    pub fn stop(self) {}

    /// Graceful shutdown: refuse new connections and new requests, let
    /// in-flight requests finish for up to `drain`, then cancel whatever
    /// is still running (those clients receive `shutting_down`), and join
    /// the serve thread — whose teardown closes every connection and joins
    /// the worker pool and the TTL sweeper.
    pub fn shutdown(self, drain: Duration) {
        // Phase 1: refuse new work everywhere. `draining` turns both new
        // connections (accept) and new requests on live connections
        // (dispatch) into structured `shutting_down` replies. The serve
        // loop itself keeps running through the drain — the event loop
        // must stay live to flush in-flight replies — so `stop` is not
        // raised until phase 4.
        self.state.draining.store(true, Ordering::SeqCst);
        // Phase 2: drain — wait for in-flight requests to finish.
        let deadline = Instant::now() + drain;
        while self.state.active_requests.load(Ordering::SeqCst) > 0
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Phase 3: whatever outlived the drain window is cancelled
        // cooperatively; searches notice within one budget-poll stride
        // and return `shutting_down` with partial stats.
        self.state.shutdown_token.cancel(CancelReason::Shutdown);
        let forced = Instant::now() + Duration::from_secs(10);
        while self.state.active_requests.load(Ordering::SeqCst) > 0
            && Instant::now() < forced
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Phase 4: dropping the handle stops the serve loop and joins it.
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.shutdown_token.cancel(CancelReason::Shutdown);
        self.state.stop.store(true, Ordering::SeqCst);
        // Wake the poller with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Time between idle-session sweeps for a given TTL: half the TTL (so a
/// session overstays by at most ~50%), clamped to `[5 ms, 1 s]` — the floor
/// keeps tiny test TTLs from spinning, the ceiling bounds how stale the
/// sweep can get on long TTLs.
pub fn sweep_interval(ttl: std::time::Duration) -> std::time::Duration {
    (ttl / 2).clamp(
        std::time::Duration::from_millis(5),
        std::time::Duration::from_secs(1),
    )
}

/// Spawns the idle-session sweeper: wakes every [`sweep_interval`], evicts
/// sessions idle past `ttl`, and exits promptly when the server stops (it
/// sleeps in short ticks so server shutdown never waits a full interval).
fn spawn_ttl_sweeper(
    registry: Arc<SessionRegistry>,
    state: Arc<ServeState>,
    ttl: std::time::Duration,
) -> JoinHandle<()> {
    let interval = sweep_interval(ttl);
    std::thread::Builder::new()
        .name("fairank-ttl-sweeper".into())
        .spawn(move || {
            let tick = interval.min(std::time::Duration::from_millis(10));
            let mut since_sweep = std::time::Duration::ZERO;
            while !state.stop.load(Ordering::SeqCst) {
                std::thread::sleep(tick);
                since_sweep += tick;
                if since_sweep >= interval {
                    registry.evict_idle(ttl);
                    since_sweep = std::time::Duration::ZERO;
                }
            }
        })
        .expect("sweeper thread spawns")
}

/// What a wire client is allowed to run (see [`ServerConfig`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchPolicy {
    /// Permit `load`/`save`/`open`/`export`/`scenario <file>` from the
    /// wire.
    pub allow_fs_commands: bool,
    /// Permit registry-admin commands (`sessions`, `evict`) from the wire.
    pub admin: bool,
}

fn forbidden(message: &str) -> Reply {
    Reply::err(ErrorResponse::new("forbidden", message))
}

/// Where a streamed scenario reply delivers per-cell statistics: a
/// callback the connection layer injects, invoked from pool threads the
/// moment each plan cell finishes — before the plan's reduce assembles
/// the final report. The connection layer turns each emission into one
/// `{"chunk": CellStat}` wire line.
#[derive(Clone)]
pub struct ChunkSink(Arc<dyn Fn(&fairank_session::CellStat) + Send + Sync>);

impl ChunkSink {
    /// Wraps a delivery callback. The callback runs on pool worker
    /// threads, possibly concurrently for cells finishing together — it
    /// must serialize its own output (one whole line at a time).
    pub fn new(deliver: impl Fn(&fairank_session::CellStat) + Send + Sync + 'static) -> Self {
        ChunkSink(Arc::new(deliver))
    }

    /// Delivers one finished cell's statistics.
    pub fn emit(&self, stat: &fairank_session::CellStat) {
        (self.0)(stat);
    }
}

impl std::fmt::Debug for ChunkSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChunkSink(..)")
    }
}

/// Per-request operational context threaded from the connection layer
/// into [`dispatch_with`]: the cancellation scope compute must poll, plus
/// the admission limits in force.
#[derive(Debug, Clone, Default)]
pub struct RequestContext {
    /// Cancellation scope (request deadline, disconnect token, global
    /// shutdown token). Compute-class commands poll it cooperatively.
    pub budget: RunBudget,
    /// Per-session in-flight cap (0 = unlimited).
    pub session_inflight_cap: usize,
    /// Set while the server drains: all requests are refused with the
    /// structured `shutting_down` error.
    pub draining: bool,
    /// Present when the client opted into chunked scenario replies
    /// (`"stream": true`): each finished cell's stats are emitted here
    /// before the terminal reply. `None` (the default) streams nothing.
    pub chunk_sink: Option<ChunkSink>,
}

/// The back-off hint attached to `overloaded` refusals. A constant (not
/// measured) hint: long enough that a retry storm cannot re-saturate the
/// queue instantly, short enough that a drained queue is refilled fast.
pub const RETRY_AFTER_MS: u64 = 100;

/// Where an admitted request's reply goes: called once, on the pool
/// thread that decides the reply. Dropped uncalled only when the pool
/// closes under the request.
pub(crate) type Deliver = Box<dyn FnOnce(Reply) + Send>;

/// Replaces a poisoned session with a fresh one and reports it. The next
/// request under the name gets a clean, working session.
fn quarantine(registry: &SessionRegistry, session_name: &str) -> Reply {
    registry.replace_poisoned(session_name);
    Reply::session_poisoned(session_name)
}

/// Executes one parsed request against the registry and waits for its
/// reply. This is the whole request semantics — the TCP layer only adds
/// line framing (and the per-request context) around it, and runs the
/// same `submit` without waiting. The default-context form is
/// [`dispatch`].
pub fn dispatch_with(
    registry: &SessionRegistry,
    pool: &WorkerPool,
    request: Request,
    policy: DispatchPolicy,
    ctx: &RequestContext,
) -> Reply {
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    let deliver: Deliver = Box::new(move |reply| {
        let _ = tx.send(reply);
    });
    match submit(registry, pool, request, policy, ctx, deliver) {
        Some(reply) => reply,
        None => rx.recv().unwrap_or_else(|_| Reply::shutting_down()),
    }
}

/// Admits one request where it arrives and queues its execution as one
/// pool job under the session's key. Admission parses the command,
/// applies the filesystem/admin policy, answers admin commands, leases
/// the session (quarantining a poisoned one), takes a compute-class
/// request's in-flight slot (`--session-cap`) and classifies the job;
/// the pool refuses it when its queue is full. Returns the reply when
/// admission decides it — `deliver` is then never called; otherwise
/// `None`, and `deliver` receives the reply from the pool.
pub(crate) fn submit(
    registry: &SessionRegistry,
    pool: &WorkerPool,
    request: Request,
    policy: DispatchPolicy,
    ctx: &RequestContext,
    deliver: Deliver,
) -> Option<Reply> {
    if ctx.draining {
        return Some(Reply::shutting_down());
    }
    let session_name = request.session_name().to_string();
    // A structured scenario spec takes precedence over the command string.
    let command = match request.scenario {
        Some(spec) => Command::RunScenario {
            spec: Box::new(spec),
        },
        None => match Command::parse(request.command_text()) {
            Ok(command) => command,
            Err(e) => return Some(Reply::from_result(Err(e))),
        },
    };
    if command.touches_filesystem() && !policy.allow_fs_commands {
        return Some(forbidden(
            "filesystem commands (load/save/open/export/scenario <file>) are \
             disabled on this server (start it with --allow-fs to permit them)",
        ));
    }
    // Registry admin never reaches a session: it operates on the registry
    // itself, and only over an `--admin` server.
    if command.is_registry_admin() {
        if !policy.admin {
            return Some(forbidden(
                "registry admin commands (sessions/evict) are disabled on this \
                 server (start it with --admin to permit them)",
            ));
        }
        return Some(match command {
            Command::Sessions => Reply::ok(Response::SessionList(registry_stats_view(registry))),
            Command::Evict { name } => match registry.evict(&name) {
                Ok(()) => Reply::ok(Response::SessionEvicted { name }),
                Err(e) => Reply::err(ErrorResponse::new("unknown_session", e.to_string())),
            },
            _ => unreachable!("is_registry_admin covers exactly these commands"),
        });
    }
    let lease = registry.lease(&session_name);
    // A session poisoned by an earlier panic is quarantined up front: the
    // half-mutated state is discarded, this request gets the structured
    // `session_poisoned` report, and the next one a fresh session.
    if lease.is_poisoned() {
        return Some(quarantine(registry, &session_name));
    }
    let is_scenario = matches!(
        command,
        Command::RunScenario { .. } | Command::RunScenarioFile { .. }
    );
    // Compute-class requests (heavy commands and scenario plans) count
    // against the session's in-flight cap; the slot is freed when the
    // reply is decided, on every path out.
    let slot = if is_scenario || command.is_compute_heavy() {
        match lease.try_admit(ctx.session_inflight_cap) {
            Some(guard) => Some(guard),
            None => {
                return Some(Reply::overloaded(
                    format!(
                        "session {session_name:?} already has {} request(s) in \
                         flight (cap {})",
                        lease.in_flight(),
                        ctx.session_inflight_cap
                    ),
                    RETRY_AFTER_MS,
                ))
            }
        }
    } else {
        None
    };
    // A scenario job only compiles the plan and queues its cells as
    // compute jobs, so it is light itself and not bounded by the compute
    // depth.
    let class = if command.is_compute_heavy() && !is_scenario {
        JobClass::Compute
    } else {
        JobClass::Light
    };
    let job = Admitted {
        registry: registry.clone(),
        lease,
        session: session_name.clone(),
        budget: ctx.budget.clone(),
        chunk_sink: ctx.chunk_sink.clone(),
        slot,
        permit: None,
        deliver,
    };
    let spawner = pool.spawner();
    let queued = pool.submit_with_permit(&session_name, class, move |permit| {
        let job = Admitted { permit, ..job };
        if is_scenario {
            run_scenario(job, command, &spawner);
        } else {
            execute(job, command);
        }
    });
    match queued {
        Ok(()) => None,
        // Structured backpressure instead of queueing without bound.
        Err(PoolFull) => Some(Reply::overloaded(
            match class {
                JobClass::Compute => {
                    "server is at capacity (all workers busy, queue full)".to_string()
                }
                JobClass::Light => format!("request queue is full for session {session_name:?}"),
            },
            RETRY_AFTER_MS,
        )),
    }
}

/// An admitted request on its way through the pool: what its execution
/// needs, and where its reply goes.
struct Admitted {
    registry: SessionRegistry,
    lease: SessionLease,
    session: String,
    budget: RunBudget,
    chunk_sink: Option<ChunkSink>,
    /// The session's in-flight slot, held until the reply is decided.
    slot: Option<InFlightGuard>,
    /// A compute request's pool permit, held until the reply is decided.
    permit: Option<ComputePermit>,
    deliver: Deliver,
}

impl Admitted {
    /// Frees the in-flight slot and permit, then delivers the reply, so a
    /// client's next request never finds this one still counted.
    fn reply(self, reply: Reply) {
        let Admitted {
            slot,
            permit,
            deliver,
            ..
        } = self;
        drop((slot, permit));
        deliver(reply);
    }

    /// The reply for a session found poisoned, or poisoned by a panic
    /// while this request held its lock.
    fn quarantine(self) {
        let reply = quarantine(&self.registry, &self.session);
        self.reply(reply);
    }
}

/// Runs one non-scenario command under the session lock, panic-contained.
fn execute(job: Admitted, command: Command) {
    let budget = job.budget.clone();
    match catch_unwind(AssertUnwindSafe(|| {
        let mut session = job.lease.handle().lock().ok()?;
        Some(apply_with_budget(&mut session, command, budget))
    })) {
        Ok(Some(result)) => job.reply(Reply::from_result(result)),
        Ok(None) => job.quarantine(),
        // The command panicked. If it held the session lock, the state is
        // suspect — quarantine it; otherwise the session stays
        // serviceable.
        Err(_) if job.lease.is_poisoned() => job.quarantine(),
        Err(_) => job.reply(Reply::err(ErrorResponse::new(
            "internal",
            "command panicked while executing",
        ))),
    }
}

/// Compiles a scenario command against the session and queues its cells
/// as compute jobs under the session's key, so the grid runs as wide as
/// the compute threads allow. The job returns once the cells are queued; the cell
/// that records the last result runs the reduce and delivers the reply.
///
/// The session lock is held only around compile and the reduce, never
/// while cells run: a heavy command for the same session takes the lock
/// for its whole run, and interleaved commands proceed between the
/// phases; panel ids are assigned at reduce time against the
/// then-current session, exactly as two users typing concurrently would
/// see.
///
/// Both lock-holding phases run panic-contained, and a lock found
/// poisoned — or poisoned right there by a panicking compile or reduce
/// (the reduce commits panels via `Session::commit_panel`, which can
/// panic mid-mutation) — quarantines the session instead of serving its
/// half-mutated state.
fn run_scenario(job: Admitted, command: Command, spawner: &Spawner) {
    let spec = match command {
        Command::RunScenario { spec } => *spec,
        // Only reachable under `--allow-fs`.
        Command::RunScenarioFile { path } => {
            let parsed = std::fs::read_to_string(&path)
                .map_err(fairank_session::SessionError::from)
                .and_then(|text| {
                    serde_json::from_str(&text).map_err(|e| {
                        fairank_session::SessionError::Json(format!("spec {path}: {e}"))
                    })
                });
            match parsed {
                Ok(spec) => spec,
                Err(e) => return job.reply(Reply::from_result(Err(e))),
            }
        }
        _ => unreachable!("admission matched scenario commands"),
    };
    // The request's cancellation scope rides into every cell: a grid
    // hitting its deadline aborts all in-flight cells cooperatively.
    let compiled = catch_unwind(AssertUnwindSafe(|| {
        let session = job.lease.handle().lock().ok()?;
        Some(plan::compile(&session, &spec).map(|plan| plan.with_run_budget(&job.budget)))
    }));
    let (cells, executed) = match compiled {
        Ok(Some(Ok(plan))) => plan.into_cells(),
        Ok(Some(Err(e))) => return job.reply(Reply::from_result(Err(e))),
        Ok(None) | Err(_) => return job.quarantine(),
    };
    if cells.is_empty() {
        return finish_scenario(job, executed);
    }
    let sink = job.chunk_sink.clone();
    let session = job.session.clone();
    let pending = Arc::new(Mutex::new(Some((executed, job))));
    for cell in cells {
        let (sink, pending) = (sink.clone(), Arc::clone(&pending));
        spawner.spawn_compute(&session, move |permit| {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let result = cell.execute();
                // Streaming: ship the finished cell's stats before it
                // counts as done, so every chunk precedes the reply.
                if let (Some(sink), Ok(cell_result)) = (&sink, &result) {
                    sink.emit(cell_result.stat());
                }
                result
            }))
            .unwrap_or_else(|_| {
                Err(fairank_session::SessionError::Internal(
                    "a scenario cell panicked while executing".into(),
                ))
            });
            // The cell's compute is done; the reduce below is not compute.
            drop(permit);
            let complete = {
                let mut pending = pending.lock().unwrap_or_else(PoisonError::into_inner);
                let done = pending
                    .as_mut()
                    .is_some_and(|(executed, _)| executed.record(result));
                if done {
                    pending.take()
                } else {
                    None
                }
            };
            if let Some((executed, job)) = complete {
                finish_scenario(job, executed);
            }
        });
    }
}

/// Reduces a scenario's cell results under the session lock and delivers
/// the reply.
fn finish_scenario(job: Admitted, executed: ExecutedPlan) {
    match catch_unwind(AssertUnwindSafe(|| {
        let mut session = job.lease.handle().lock().ok()?;
        Some(executed.finish(Some(&mut session)))
    })) {
        Ok(Some(result)) => job.reply(Reply::from_result(result.map(Response::Scenario))),
        Ok(None) | Err(_) => job.quarantine(),
    }
}

/// Snapshot of the registry for the `sessions` admin reply: the live
/// session names plus the shared dataset-store and cell-cache counters.
fn registry_stats_view(registry: &SessionRegistry) -> fairank_session::response::RegistryStatsView {
    let store = registry.store().stats();
    let cache = registry.cell_cache().stats();
    fairank_session::response::RegistryStatsView {
        sessions: registry.names(),
        store_datasets: store.datasets as u64,
        store_bytes: store.bytes as u64,
        cell_cache_entries: cache.entries,
        cell_cache_hits: cache.hits,
        cell_cache_misses: cache.misses,
        cell_cache_evictions: cache.evictions,
    }
}

/// [`dispatch_with`] under the default context: no deadline, no caps, not
/// draining — the semantics embedded callers and tests relied on before
/// operational limits existed.
pub fn dispatch(
    registry: &SessionRegistry,
    pool: &WorkerPool,
    request: Request,
    policy: DispatchPolicy,
) -> Reply {
    dispatch_with(registry, pool, request, policy, &RequestContext::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_setup() -> (SessionRegistry, WorkerPool) {
        (SessionRegistry::new(), WorkerPool::new(2, 4))
    }

    const OPEN: DispatchPolicy = DispatchPolicy {
        allow_fs_commands: true,
        admin: false,
    };
    const LOCKED: DispatchPolicy = DispatchPolicy {
        allow_fs_commands: false,
        admin: false,
    };
    const ADMIN: DispatchPolicy = DispatchPolicy {
        allow_fs_commands: false,
        admin: true,
    };

    #[test]
    fn dispatch_routes_to_named_sessions() {
        let (registry, pool) = test_setup();
        let reply = dispatch(
            &registry,
            &pool,
            Request::in_session("a", "generate pop biased n=40 seed=1"),
            LOCKED,
        );
        assert!(reply.is_ok());
        // The dataset exists in `a`, not in `b`.
        let reply = dispatch(&registry, &pool, Request::in_session("a", "datasets"), LOCKED);
        match reply.into_result().unwrap() {
            Response::DatasetList(entries) => assert_eq!(entries.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        let reply = dispatch(&registry, &pool, Request::in_session("b", "datasets"), LOCKED);
        match reply.into_result().unwrap() {
            Response::DatasetList(entries) => assert!(entries.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(registry.names(), vec!["a", "b"]);
    }

    #[test]
    fn dispatch_reports_structured_errors() {
        let (registry, pool) = test_setup();
        let reply = dispatch(&registry, &pool, Request::new("show 7"), LOCKED);
        let err = reply.into_result().unwrap_err();
        assert_eq!(err.kind, "unknown_panel");
        let reply = dispatch(&registry, &pool, Request::new("bogus"), LOCKED);
        assert_eq!(reply.into_result().unwrap_err().kind, "command");
    }

    #[test]
    fn filesystem_commands_are_refused_unless_allowed() {
        let (registry, pool) = test_setup();
        for line in [
            "load d /etc/passwd",
            "save /tmp/exfil",
            "open /tmp/exfil",
            "export 0 /tmp/exfil.json",
        ] {
            let parsed = Command::parse(line).unwrap();
            assert!(parsed.touches_filesystem(), "{line}");
            let reply = dispatch(&registry, &pool, Request::new(line), LOCKED);
            assert_eq!(
                reply.into_result().unwrap_err().kind,
                "forbidden",
                "{line} must be refused"
            );
        }
        // No session state was touched by refused commands.
        assert!(registry.is_empty() || registry.names() == vec!["default"]);
        // The same command under an open policy reaches the session layer
        // (and fails there for its own reasons, not with `forbidden`).
        let reply = dispatch(&registry, &pool, Request::new("export 0 /tmp/x.json"), OPEN);
        assert_eq!(reply.into_result().unwrap_err().kind, "unknown_panel");
    }

    #[test]
    fn heavy_commands_run_on_the_pool() {
        let (registry, pool) = test_setup();
        for line in [
            "generate pop biased n=60 seed=2",
            "define f rating*1.0",
        ] {
            assert!(dispatch(&registry, &pool, Request::new(line), LOCKED).is_ok());
        }
        // `quantify` is compute-heavy: is_compute_heavy gates the pool path.
        assert!(Command::parse("quantify pop f").unwrap().is_compute_heavy());
        assert!(!Command::parse("panels").unwrap().is_compute_heavy());
        let reply = dispatch(&registry, &pool, Request::new("quantify pop f"), LOCKED);
        match reply.into_result().unwrap() {
            Response::PanelCreated(view) => {
                assert_eq!(view.id, 0);
                assert!(view.unfairness > 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stream_reaudits_run_on_the_pool() {
        let (registry, pool) = test_setup();
        // `stream` is compute-heavy, so it rides the generic pool path and
        // gets the per-request budget stamped like any other search.
        assert!(Command::parse("stream taskrabbit errands")
            .unwrap()
            .is_compute_heavy());
        let reply = dispatch(
            &registry,
            &pool,
            Request::new("stream taskrabbit errands n=80 seed=3 rounds=2 stream-seed=9"),
            LOCKED,
        );
        match reply.into_result().unwrap() {
            Response::Stream(view) => {
                assert_eq!(view.outcome.job_id, "errands");
                assert_eq!(view.outcome.rounds.len(), 3); // round 0 + 2 churn rounds
                assert!(view.outcome.total_reused_histograms() > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A stream scenario compiles per-criterion cells onto the pool.
        let reply = dispatch(
            &registry,
            &pool,
            Request::new(
                "scenario stream taskrabbit errands n=80 seed=3 rounds=2 stream-seed=9 \
                 aggs=mean,max",
            ),
            LOCKED,
        );
        match reply.into_result().unwrap() {
            Response::Scenario(report) => {
                assert_eq!(report.perspective, "stream");
                assert_eq!(report.cells.len(), 2);
                assert!(report.cells.iter().all(|c| c.delta_reused_histograms > 0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn registry_admin_is_gated_by_policy() {
        let (registry, pool) = test_setup();
        registry.attach_or_create("a");
        registry.attach_or_create("b");
        // Without --admin: forbidden, nothing evicted.
        for line in ["sessions", "evict a"] {
            let reply = dispatch(&registry, &pool, Request::new(line), LOCKED);
            assert_eq!(reply.into_result().unwrap_err().kind, "forbidden", "{line}");
        }
        assert_eq!(registry.len(), 2);
        // With --admin: list and evict operate on the registry.
        let reply = dispatch(&registry, &pool, Request::new("sessions"), ADMIN);
        match reply.into_result().unwrap() {
            Response::SessionList(view) => {
                assert_eq!(view.sessions, vec!["a", "b"]);
                // Nothing loaded or quantified yet: the shared store and
                // cell cache report empty.
                assert_eq!(view.store_datasets, 0);
                assert_eq!(view.cell_cache_entries, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let reply = dispatch(&registry, &pool, Request::new("evict a"), ADMIN);
        match reply.into_result().unwrap() {
            Response::SessionEvicted { name } => assert_eq!(name, "a"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(registry.names(), vec!["b"]);
        let reply = dispatch(&registry, &pool, Request::new("evict ghost"), ADMIN);
        assert_eq!(reply.into_result().unwrap_err().kind, "unknown_session");
        // Admin commands never create a session as a side effect.
        assert_eq!(registry.names(), vec!["b"]);
    }

    #[test]
    fn scenario_requests_fan_cells_across_the_pool() {
        let (registry, pool) = test_setup();
        for line in [
            "generate pop biased n=60 seed=2",
            "define f rating*1.0",
            "define g rating*0.5+language_test*0.5",
        ] {
            assert!(dispatch(&registry, &pool, Request::new(line), LOCKED).is_ok());
        }
        // Command-string form.
        let reply = dispatch(
            &registry,
            &pool,
            Request::new("scenario grid pop f,g aggs=mean,max"),
            LOCKED,
        );
        let response = reply.into_result().unwrap();
        let Response::Scenario(report) = &response else {
            panic!("expected Scenario, got {response:?}");
        };
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.perspective, "grid");
        // Panels were committed into the session behind the wire.
        let reply = dispatch(&registry, &pool, Request::new("panels"), LOCKED);
        match reply.into_result().unwrap() {
            Response::PanelList(entries) => assert_eq!(entries.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        // Structured-spec form (no command string at all).
        let spec = fairank_session::ScenarioSpec::new(
            fairank_session::plan::Perspective::Grid {
                datasets: vec!["pop".into()],
                functions: vec!["f".into()],
                filter: None,
            },
        );
        let reply = dispatch(
            &registry,
            &pool,
            Request::scenario(crate::protocol::DEFAULT_SESSION, spec),
            LOCKED,
        );
        let Response::Scenario(report) = reply.into_result().unwrap() else {
            panic!("expected Scenario");
        };
        assert_eq!(report.cells.len(), 1);
        // A scenario spec file is a filesystem command: refused by default.
        let reply = dispatch(
            &registry,
            &pool,
            Request::new("scenario /tmp/spec.json"),
            LOCKED,
        );
        assert_eq!(reply.into_result().unwrap_err().kind, "forbidden");
    }

    #[test]
    fn concurrent_scenario_and_heavy_command_on_one_worker_do_not_deadlock() {
        // Regression: the scenario path must not hold the session lock
        // while blocking on pool results. With a single worker, a heavy
        // command for the same session runs as a pool job that starts by
        // taking that lock — if the scenario's dispatcher thread held it,
        // the lone worker would block forever and the queued cells would
        // never run.
        let registry = Arc::new(SessionRegistry::new());
        // Queue deep enough that the heavy command's (non-blocking)
        // admission is never refused while the scenario floods the pool —
        // this test is about lock ordering, not backpressure.
        let pool = Arc::new(WorkerPool::new(1, 8));
        for line in ["generate pop biased n=60 seed=2", "define f rating*1.0"] {
            assert!(dispatch(&registry, &pool, Request::new(line), LOCKED).is_ok());
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for line in ["scenario grid pop f aggs=mean,max,min", "quantify pop f"] {
            let registry = Arc::clone(&registry);
            let pool = Arc::clone(&pool);
            let done = done_tx.clone();
            std::thread::spawn(move || {
                let reply = dispatch(&registry, &pool, Request::new(line), LOCKED);
                done.send((line, reply.is_ok())).unwrap();
            });
        }
        for _ in 0..2 {
            let (line, ok) = done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a request wedged: scenario fan-out deadlocked the pool");
            assert!(ok, "{line} failed");
        }
        // All four panels (3 scenario cells + 1 quantify) landed.
        let reply = dispatch(&registry, &pool, Request::new("panels"), LOCKED);
        match reply.into_result().unwrap() {
            Response::PanelList(entries) => assert_eq!(entries.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scenario_plans_are_admitted_while_the_compute_depth_is_full() {
        // Depth 1, the compute thread busy with one compute job and the
        // depth filled by another: a new quantify is refused, but a grid
        // (whose cells are follow-up work of an admitted request) is not.
        let registry = SessionRegistry::new();
        let pool = WorkerPool::new(1, 1);
        for line in ["generate pop biased n=60 seed=2", "define f rating*1.0"] {
            assert!(dispatch(&registry, &pool, Request::new(line), LOCKED).is_ok());
        }
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.submit("parked", JobClass::Compute, move || {
            let _ = started_tx.send(());
            let _ = release_rx.recv();
        })
        .unwrap();
        started_rx.recv().unwrap();
        pool.submit("pending", JobClass::Compute, || {}).unwrap();

        let refused = dispatch(&registry, &pool, Request::new("quantify pop f"), LOCKED);
        assert_eq!(refused.into_result().unwrap_err().kind, "overloaded");
        std::thread::scope(|scope| {
            let grid = scope.spawn(|| {
                let grid = Request::new("scenario grid pop f aggs=mean,max");
                dispatch(&registry, &pool, grid, LOCKED)
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            release_tx.send(()).unwrap();
            let Response::Scenario(report) = grid.join().unwrap().into_result().unwrap() else {
                panic!("expected Scenario");
            };
            assert_eq!(report.cells.len(), 2);
        });
    }

    #[test]
    fn server_binds_ephemeral_and_stops() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        let handle = server.spawn().unwrap();
        assert_eq!(handle.addr(), addr);
        handle.stop(); // must not hang
    }
}
