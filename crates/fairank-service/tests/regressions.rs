//! Regression tests for the serving-tier bug fixes:
//!
//! 1. A panic inside a scenario cell commit used to be papered over with
//!    `unwrap_or_else(PoisonError::into_inner)`, serving later requests a
//!    half-mutated session. The scenario path now routes through the
//!    registry's poison quarantine: the caller gets `session_poisoned`
//!    and the next attach gets a fresh session.
//! 2. The TTL sweeper (and admin `evict`) racing an in-flight request:
//!    eviction between lease acquisition and the post-compute commit must
//!    neither resurrect the evicted entry nor double-drop it.
//! 3. A request line nested 50,000 levels deep recursed the JSON parser
//!    into a stack overflow, aborting the whole server. Nesting is now
//!    capped and refused with a structured `protocol` error.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

#[cfg(debug_assertions)]
use fairank_core::fault;
use fairank_service::{Reply, Request, Server, ServerConfig, ServerHandle, SessionRegistry};
use fairank_session::Response;

/// Disarms every fault point when dropped, so a panicking assertion in
/// one test cannot leave the mask armed for the rest of the process.
#[cfg(debug_assertions)]
struct FaultScope;

#[cfg(debug_assertions)]
impl FaultScope {
    fn arm(point: &str) -> FaultScope {
        fault::enable(point);
        FaultScope
    }
}

#[cfg(debug_assertions)]
impl Drop for FaultScope {
    fn drop(&mut self) {
        fault::clear();
    }
}

/// One live client connection speaking the JSON-lines protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect to server");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, request: &Request) -> Option<Reply> {
        let line = serde_json::to_string(request).expect("serialize request");
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .ok()?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(serde_json::from_str(reply.trim()).expect("reply parses")),
        }
    }

    /// Sends a command to a named session and unwraps the success payload.
    fn command(&mut self, session: &str, command: &str) -> Response {
        self.send(&Request::in_session(session, command))
            .expect("server replied")
            .into_result()
            .unwrap_or_else(|e| panic!("{command:?} failed: {e}"))
    }
}

fn start_server_with(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

fn plain_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 4,
        ..ServerConfig::default()
    }
}

// ------------------------------------------------- 1. poison quarantine

/// A panic while committing a scenario cell poisons the session mutex.
/// The old code swallowed the poison (`PoisonError::into_inner`) and kept
/// serving the half-mutated session; the fix quarantines it: the caller
/// gets the structured `session_poisoned` error and the *next* attach
/// under the same name gets a fresh, empty session.
#[test]
#[cfg(debug_assertions)]
fn scenario_commit_panic_quarantines_the_session() {
    let handle = start_server_with(plain_config());
    let mut client = Client::connect(&handle);
    client.command("audit", "generate pop biased n=80 seed=3");
    client.command("audit", "define f rating*1.0");

    // Panic fires inside `Session::commit_panel` while the scenario's
    // finish phase holds the session lock — exactly the half-mutated
    // state the quarantine exists for.
    {
        let _fault = FaultScope::arm(fault::COMMIT_PANIC);
        let err = client
            .send(&Request::in_session("audit", "scenario grid pop f aggs=mean,max"))
            .expect("server replied despite the panic")
            .into_result()
            .expect_err("poisoned session must not return a report");
        assert_eq!(err.kind, "session_poisoned");
    }

    // The next attach under the name sees a fresh session: no datasets,
    // no functions, no half-committed panels.
    let mut next = Client::connect(&handle);
    match next.command("audit", "datasets") {
        Response::DatasetList(entries) => assert!(
            entries.is_empty(),
            "quarantine must swap in a fresh session, found {entries:?}"
        ),
        other => panic!("expected DatasetList, got {other:?}"),
    }
    match next.command("audit", "panels") {
        Response::PanelList(entries) => assert!(entries.is_empty()),
        other => panic!("expected PanelList, got {other:?}"),
    }

    // And the fresh session is fully serviceable end to end.
    next.command("audit", "generate pop biased n=80 seed=3");
    next.command("audit", "define f rating*1.0");
    let Response::Scenario(report) = next.command("audit", "scenario grid pop f aggs=mean,max")
    else {
        panic!("expected Scenario");
    };
    assert_eq!(report.cells.len(), 2);
    handle.stop();
}

// ------------------------------------------- 2. TTL-sweeper/evict race

/// Eviction (TTL sweep or admin `evict`) between lease acquisition and
/// the request's post-compute use of the handle: the in-flight request
/// must finish against the leased entry, the name must stay evicted (no
/// resurrection), and a later attach must get a *fresh* session — while
/// dropping the old lease afterwards must not double-drop anything.
#[test]
fn eviction_racing_an_in_flight_request_neither_resurrects_nor_double_drops() {
    let registry = SessionRegistry::new();

    // Request thread: acquires the lease... (window opens)
    let lease = registry.lease("racer");
    let first_handle = std::sync::Arc::clone(lease.handle());

    // ...sweeper fires in the window before `try_admit` — nothing is in
    // flight yet, so the entry is fair game and gets evicted.
    assert_eq!(registry.evict_idle(Duration::ZERO), vec!["racer"]);
    assert!(registry.is_empty());

    // The request proceeds against its (now anonymous) lease: admission
    // and the session lock still work, backed by the Arc it holds.
    let admitted = lease.try_admit(1).expect("admit against evicted entry");
    {
        let session = lease.handle().lock().expect("evicted session still locks");
        drop(session);
    }
    drop(admitted);

    // No resurrection: finishing the request must not have re-registered
    // the name.
    assert!(registry.is_empty(), "evicted session resurrected");

    // A later attach under the same name is a brand-new entry, not the
    // evicted one.
    let fresh = registry.lease("racer");
    assert!(
        !std::sync::Arc::ptr_eq(&first_handle, fresh.handle()),
        "attach after eviction handed back the evicted session"
    );

    // Dropping the stale lease (and its clone) after the fresh one exists
    // is a plain refcount release — no double-drop, no panic.
    drop(lease);
    drop(first_handle);
    assert_eq!(registry.names(), vec!["racer"]);
}

/// The sweeper must never evict a session with admitted in-flight work,
/// no matter how stale its attach clock looks.
#[test]
fn ttl_sweep_skips_sessions_with_in_flight_requests() {
    let registry = SessionRegistry::new();
    let lease = registry.lease("busy");
    let admitted = lease.try_admit(0).expect("unlimited cap admits");

    // In flight: a zero-TTL sweep (every session is "idle enough") must
    // still leave the busy session alone.
    assert!(registry.evict_idle(Duration::ZERO).is_empty());
    assert_eq!(registry.names(), vec!["busy"]);

    // Slot released: the very next sweep evicts it.
    drop(admitted);
    assert_eq!(registry.evict_idle(Duration::ZERO), vec!["busy"]);
    assert!(registry.is_empty());
}

/// Admin `evict` over the wire racing a long compute: the long request
/// still answers correctly even though its session name was evicted
/// mid-flight, and the name maps to a fresh session afterwards.
#[test]
fn wire_evict_during_a_request_still_answers_the_request() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            admin: true,
            ..plain_config()
        },
    )
    .expect("bind ephemeral port");
    let registry = server.registry();
    let handle = server.spawn().expect("spawn server");

    let mut worker = Client::connect(&handle);
    // A compute slow enough (transport EMD at a high bin count) that the
    // evict demonstrably lands while it holds the session.
    worker.command("victim", "generate pop biased n=1500 seed=7");
    worker.command("victim", "define f rating*0.7+language_test*0.3");

    worker
        .writer
        .write_all(
            serde_json::to_string(&Request::in_session(
                "victim",
                "quantify pop f emd=transport bins=32",
            ))
            .unwrap()
            .as_bytes(),
        )
        .and_then(|()| worker.writer.write_all(b"\n"))
        .expect("send quantify");

    // Wait (in-process, via the shared registry) until the quantify has
    // been admitted against its lease, so the evict below provably races
    // an in-flight request rather than an idle session.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while registry.lease("victim").in_flight() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "quantify never reached in-flight admission"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut admin = Client::connect(&handle);
    let evicted = admin
        .send(&Request::in_session("ops", "evict victim"))
        .expect("admin replied");
    assert!(matches!(
        evicted.into_result(),
        Ok(Response::SessionEvicted { .. })
    ));

    // The in-flight quantify still completes against its leased session.
    let mut reply = String::new();
    worker
        .reader
        .read_line(&mut reply)
        .expect("read quantify reply");
    let reply: Reply = serde_json::from_str(reply.trim()).expect("reply parses");
    match reply.into_result() {
        Ok(Response::PanelCreated(view)) => assert_eq!(view.individuals, 1500),
        other => panic!("expected PanelCreated, got {other:?}"),
    }

    // The name now maps to a fresh session: the old dataset is gone.
    let mut next = Client::connect(&handle);
    match next.command("victim", "datasets") {
        Response::DatasetList(entries) => assert!(entries.is_empty()),
        other => panic!("expected DatasetList, got {other:?}"),
    }
    handle.stop();
}

// ------------------------------------------------ 3. unbounded nesting

#[test]
fn deeply_nested_request_gets_a_protocol_error_and_the_server_lives() {
    let handle = start_server_with(plain_config());
    let mut client = Client::connect(&handle);
    let line = format!("{{\"command\":{}\n", "[".repeat(50_000));
    client.writer.write_all(line.as_bytes()).expect("send");
    let mut reply = String::new();
    client.reader.read_line(&mut reply).expect("server replied");
    let reply: Reply = serde_json::from_str(reply.trim()).expect("reply parses");
    let err = reply.into_result().expect_err("a 50k-deep line is not a request");
    assert_eq!(err.kind, "protocol");
    assert!(err.message.contains("nesting"), "{}", err.message);
    // Same connection, same server: still answering.
    let help = client.send(&Request::new("help")).expect("server still up");
    assert!(help.into_result().is_ok());
}
