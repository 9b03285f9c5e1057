//! Chaos and operational-limit tests: deadlines, disconnects, overload,
//! poisoning, graceful shutdown, and the fault-injection points — all
//! exercised over real sockets against a live server.
//!
//! The fault mask (`fairank_core::fault`) is process-global, so every
//! test in this binary runs under one lock: a torn-write fault armed by
//! one test must never leak into another's reply path.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

#[cfg(debug_assertions)]
use fairank_core::fault;
use fairank_service::{Reply, Request, Server, ServerConfig, ServerHandle, RETRY_AFTER_MS};
use fairank_session::Response;

/// Serializes the whole binary: fault points are process-global state.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

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

/// A search slow enough that one quantify takes seconds compared to the
/// cancellation latency (one event-loop wakeup + one budget stride):
/// the transportation-solver EMD backend at a high bin count. The
/// default 1-D backends are too fast to cancel meaningfully at any
/// dataset size a test should generate; the profile split keeps the
/// uncancelled baseline at roughly 2–4 s in both builds.
#[cfg(debug_assertions)]
const HEAVY_N: usize = 1_500;
#[cfg(debug_assertions)]
const HEAVY_BINS: usize = 32;
#[cfg(not(debug_assertions))]
const HEAVY_N: usize = 4_000;
#[cfg(not(debug_assertions))]
const HEAVY_BINS: usize = 64;

/// The heavy quantify command line (see [`HEAVY_N`]/[`HEAVY_BINS`]).
fn heavy_quantify() -> String {
    format!("quantify pop f emd=transport bins={HEAVY_BINS}")
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

    /// Writes one request line without waiting for the reply.
    fn send_line(&mut self, request: &Request) {
        let line = serde_json::to_string(request).expect("serialize request");
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send request");
    }

    /// Reads one reply line; `None` on EOF. Panics if the line is not a
    /// well-formed wire envelope — chaos tests treat any malformed reply
    /// as a failure, so the parse is strict everywhere.
    fn read_reply(&mut self) -> Option<Reply> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(
                serde_json::from_str(line.trim()).expect("reply parses as the wire envelope"),
            ),
            Err(_) => None,
        }
    }

    fn send(&mut self, request: &Request) -> Reply {
        self.send_line(request);
        self.read_reply().expect("server replied")
    }

    /// Sends a command to a named session and unwraps the success payload.
    fn command(&mut self, session: &str, command: &str) -> Response {
        self.send(&Request::in_session(session, command))
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

/// Loads the heavy dataset + function into `session` on an open client.
fn setup_heavy(client: &mut Client, session: &str) {
    client.command(session, &format!("generate pop biased n={HEAVY_N} seed=7"));
    client.command(session, "define f rating*0.7+language_test*0.3");
}

/// How long an *uncancelled* quantify of the heavy shape takes on this
/// machine and profile — measured once per process against a throwaway
/// server, so the cancellation tests assert relative speedups instead of
/// hard-coding machine-dependent wall-clock bounds.
fn heavy_baseline() -> Duration {
    static BASELINE: OnceLock<Duration> = OnceLock::new();
    *BASELINE.get_or_init(|| {
        let handle = start_server_with(plain_config());
        let mut client = Client::connect(&handle);
        setup_heavy(&mut client, "baseline");
        let start = Instant::now();
        match client.command("baseline", &heavy_quantify()) {
            Response::PanelCreated(_) => {}
            other => panic!("expected PanelCreated, got {other:?}"),
        }
        let elapsed = start.elapsed();
        handle.stop();
        elapsed
    })
}

/// A machine so fast the heavy shape completes near-instantly makes the
/// "cancelled well before completion" assertions meaningless; skip them
/// there rather than flake.
fn baseline_or_skip(test: &str) -> Option<Duration> {
    let baseline = heavy_baseline();
    if baseline < Duration::from_millis(300) {
        eprintln!(
            "{test}: heavy quantify finishes in {baseline:?}; too fast for a \
             meaningful cancellation-latency assertion, skipping"
        );
        return None;
    }
    Some(baseline)
}

#[test]
fn deadline_exceeded_carries_partial_stats_and_frees_the_worker() {
    let _guard = serialized();
    let Some(baseline) = baseline_or_skip("deadline test") else {
        return;
    };

    // Same shape, but the server enforces a deadline far below the
    // uncancelled runtime.
    let handle = start_server_with(ServerConfig {
        request_timeout: Some(Duration::from_millis(100)),
        ..plain_config()
    });
    let mut client = Client::connect(&handle);
    setup_heavy(&mut client, "slow");

    let start = Instant::now();
    let reply = client.send(&Request::in_session("slow", heavy_quantify()));
    let elapsed = start.elapsed();
    let err = reply.into_result().expect_err("deadline must trip");
    assert_eq!(err.kind, "deadline_exceeded");
    let partial = err
        .partial
        .expect("a deadline reply carries the partial search counters");
    // The search ran for ~100 ms before cancelling: it did real work.
    assert!(
        partial.nodes_evaluated + partial.emd_calls + partial.histograms_built > 0,
        "partial stats are all zero: {partial:?}"
    );
    // "Well before uncancelled completion": the reply must beat the
    // uncancelled runtime by a wide margin, not just the deadline + noise.
    assert!(
        elapsed < baseline / 2,
        "deadline reply took {elapsed:?}, baseline is {baseline:?}"
    );

    // The worker the deadline freed serves the next request immediately —
    // same connection, same session, no lingering lock or slot.
    let start = Instant::now();
    match client.command("slow", "datasets") {
        Response::DatasetList(entries) => assert_eq!(entries.len(), 1),
        other => panic!("expected DatasetList, got {other:?}"),
    }
    assert!(
        start.elapsed() < baseline / 2,
        "post-deadline request was not served promptly: {:?}",
        start.elapsed()
    );
    handle.stop();
}

#[test]
fn client_disconnect_mid_request_releases_the_session_promptly() {
    let _guard = serialized();
    let Some(baseline) = baseline_or_skip("disconnect test") else {
        return;
    };

    let handle = start_server_with(plain_config());
    let mut doomed = Client::connect(&handle);
    setup_heavy(&mut doomed, "abandoned");

    // Fire the heavy quantify, give the search a moment to take the
    // session lock and a worker, then vanish without reading the reply.
    doomed.send_line(&Request::in_session("abandoned", heavy_quantify()));
    std::thread::sleep(Duration::from_millis(250));
    let _ = doomed.writer.shutdown(std::net::Shutdown::Both);
    drop(doomed);

    // The event loop sees the EOF and cancels the orphaned search, which
    // releases the session mutex and the worker slot. A new client
    // touching the SAME session (a light command still needs the session
    // lock) must be served long before the abandoned search would have
    // finished.
    let start = Instant::now();
    let mut next = Client::connect(&handle);
    match next.command("abandoned", "datasets") {
        Response::DatasetList(entries) => assert_eq!(entries.len(), 1),
        other => panic!("expected DatasetList, got {other:?}"),
    }
    let recovery = start.elapsed();
    assert!(
        recovery < baseline / 2,
        "session stayed locked for {recovery:?} after the client vanished \
         (uncancelled search takes {baseline:?})"
    );
    handle.stop();
}

#[test]
fn graceful_shutdown_with_inflight_work_does_not_hang() {
    let _guard = serialized();
    if baseline_or_skip("shutdown test").is_none() {
        return;
    }

    let handle = start_server_with(plain_config());
    let mut client = Client::connect(&handle);
    setup_heavy(&mut client, "draining");
    client.send_line(&Request::in_session("draining", heavy_quantify()));

    // Read the in-flight request's fate on a helper thread: the drain
    // window (50 ms) is far below the search time, so phase 3 cancels it
    // and the client sees `shutting_down` — or EOF if the socket close
    // races the reply write. Both are acceptable; a hang is not.
    let reader = std::thread::spawn(move || {
        let reply = client.read_reply();
        if let Some(reply) = reply {
            let err = reply.into_result().expect_err("cancelled, not completed");
            assert_eq!(err.kind, "shutting_down");
        }
    });

    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    handle.shutdown(Duration::from_millis(50));
    let elapsed = start.elapsed();
    // Cooperative cancellation bounds the shutdown: drain window + one
    // budget-poll stride + joins, nowhere near the uncancelled runtime of
    // the in-flight search (and nowhere near the 10 s forced-wait cap).
    assert!(
        elapsed < Duration::from_secs(8),
        "shutdown took {elapsed:?} with one in-flight request"
    );
    reader.join().expect("in-flight client observed the shutdown");
}

#[test]
fn shutdown_and_stop_close_idle_connections() {
    let _guard = serialized();
    for graceful in [true, false] {
        let handle = start_server_with(plain_config());
        // Two clients that each finished one request and then went quiet:
        // nothing in flight, nothing buffered, the peer still connected.
        let mut idle: Vec<Client> = (0..2).map(|_| Client::connect(&handle)).collect();
        for client in &mut idle {
            assert!(matches!(client.command("idle", "help"), Response::Help));
            let timeout = Some(Duration::from_secs(2));
            client.reader.get_ref().set_read_timeout(timeout).expect("set read timeout");
        }
        if graceful {
            handle.shutdown(Duration::from_millis(50));
        } else {
            handle.stop();
        }
        // Once the call returns, the server has released every socket:
        // each client reads EOF instead of waiting on a quiet connection.
        let returned = Instant::now();
        for (i, client) in idle.iter_mut().enumerate() {
            let mut rest = Vec::new();
            let read = client.reader.read_to_end(&mut rest);
            assert!(read.is_ok() && rest.is_empty(), "client {i}: {read:?}, {rest:?}");
        }
        assert!(
            returned.elapsed() < Duration::from_secs(2),
            "idle clients saw EOF {:?} after {} returned",
            returned.elapsed(),
            if graceful { "shutdown" } else { "stop" }
        );
    }
}

#[test]
fn load_smoke_64_connections_zero_malformed_replies() {
    let _guard = serialized();
    const CLIENTS: usize = 64;

    // 64 connections vs 4 workers and a shallow queue: the server may
    // refuse (structured `overloaded`), but every reply must parse and
    // carry a known kind — no torn lines, no hangs, no worker loss.
    let handle = start_server_with(ServerConfig {
        workers: 4,
        queue_depth: 4,
        ..ServerConfig::default()
    });

    let latencies: Vec<Vec<Duration>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let handle = &handle;
                scope.spawn(move || {
                    let mut client = Client::connect(handle);
                    let session = format!("load-{i}");
                    let mut latencies = Vec::new();
                    let mut timed = |client: &mut Client, line: &str| {
                        let start = Instant::now();
                        let reply = client.send(&Request::in_session(&session, line));
                        latencies.push(start.elapsed());
                        reply
                    };
                    for line in [
                        "generate pop biased n=150 seed=3",
                        "define f rating*0.6+language_test*0.4",
                    ] {
                        let reply = timed(&mut client, line);
                        assert!(reply.is_ok(), "setup {line:?} failed");
                    }
                    // The compute-class request is the one admission may
                    // refuse; success and structured refusal are both
                    // legitimate under a 16× connection storm.
                    match timed(&mut client, "quantify pop f").into_result() {
                        Ok(Response::PanelCreated(view)) => assert!(view.unfairness > 0.0),
                        Ok(other) => panic!("expected PanelCreated, got {other:?}"),
                        Err(e) => {
                            assert_eq!(e.kind, "overloaded", "unexpected refusal: {e}");
                            assert!(
                                e.retry_after_ms.is_some(),
                                "overloaded reply must carry the back-off hint"
                            );
                        }
                    }
                    // The connection stays serviceable afterwards.
                    let reply = timed(&mut client, "help");
                    assert!(reply.is_ok(), "post-storm help failed");
                    latencies
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Bounded tail latency: nothing queued unboundedly or deadlocked.
    let mut all: Vec<Duration> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(all.len(), CLIENTS * 4);
    let p99 = all[all.len() * 99 / 100];
    assert!(
        p99 < Duration::from_secs(30),
        "p99 reply latency {p99:?} under the connection storm"
    );
    handle.stop();
}

#[test]
fn overloaded_sessions_refuse_with_retry_hint() {
    let _guard = serialized();
    // The occupying search must still be running when the second request
    // lands; skip on machines where it finishes near-instantly.
    if baseline_or_skip("session-cap test").is_none() {
        return;
    }

    // Cap one session to a single in-flight compute request, occupy that
    // slot with a slow search, and watch the second request bounce with
    // the structured hint instead of queueing behind the session mutex.
    let handle = start_server_with(ServerConfig {
        session_inflight_cap: 1,
        ..plain_config()
    });
    let mut first = Client::connect(&handle);
    setup_heavy(&mut first, "capped");
    first.send_line(&Request::in_session("capped", heavy_quantify()));
    std::thread::sleep(Duration::from_millis(100));

    let mut second = Client::connect(&handle);
    let err = second
        .send(&Request::in_session("capped", heavy_quantify()))
        .into_result()
        .expect_err("second in-flight request must be refused");
    assert_eq!(err.kind, "overloaded");
    assert!(err.retry_after_ms.is_some());

    // The occupant finishes normally; its slot frees for a retry.
    let reply = first.read_reply().expect("first request completes");
    assert!(reply.is_ok(), "occupant failed: {reply:?}");
    let retry = second.send(&Request::in_session("capped", heavy_quantify()));
    assert!(retry.is_ok(), "retry after the slot freed failed: {retry:?}");
    handle.stop();
}

#[test]
fn light_requests_are_not_queued_behind_waiting_compute() {
    let _guard = serialized();
    let Some(baseline) = baseline_or_skip("light-request test") else {
        return;
    };

    // Two workers, four heavy quantifies on four sessions: two run and
    // two wait for a worker. A light command from a fifth session must
    // not wait behind them.
    let handle = start_server_with(plain_config());
    let mut heavy: Vec<Client> = (0..4)
        .map(|i| {
            let mut client = Client::connect(&handle);
            setup_heavy(&mut client, &format!("heavy-{i}"));
            client
        })
        .collect();
    for (i, client) in heavy.iter_mut().enumerate() {
        client.send_line(&Request::in_session(format!("heavy-{i}"), heavy_quantify()));
    }
    std::thread::sleep(Duration::from_millis(100));

    let mut light = Client::connect(&handle);
    let start = Instant::now();
    assert!(matches!(light.command("light", "help"), Response::Help));
    let waited = start.elapsed();
    assert!(
        waited < baseline / 4,
        "help waited {waited:?} behind queued compute (one heavy quantify takes {baseline:?})"
    );
    handle.stop();
}

#[test]
fn queue_depth_refuses_compute_over_the_wire() {
    let _guard = serialized();
    // The occupying searches must still be running when the refused one
    // lands; skip on machines where they finish near-instantly.
    if baseline_or_skip("queue-depth test").is_none() {
        return;
    }

    // One worker and a queue of one: heavy A runs, heavy B waits, and
    // heavy C finds the server at capacity.
    let handle = start_server_with(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let mut clients: Vec<(Client, &str)> = ["a", "b", "c"]
        .into_iter()
        .map(|session| {
            let mut client = Client::connect(&handle);
            setup_heavy(&mut client, session);
            (client, session)
        })
        .collect();
    for (client, session) in &mut clients[..2] {
        client.send_line(&Request::in_session(*session, heavy_quantify()));
        std::thread::sleep(Duration::from_millis(100));
    }
    let (refused, session) = &mut clients[2];
    let err = refused
        .send(&Request::in_session(*session, heavy_quantify()))
        .into_result()
        .expect_err("a compute request beyond the queue depth must be refused");
    assert_eq!(err.kind, "overloaded");
    assert_eq!(err.retry_after_ms, Some(RETRY_AFTER_MS));

    // Light work is still answered, and both admitted searches complete.
    assert!(matches!(refused.command(session, "help"), Response::Help));
    for (client, session) in &mut clients[..2] {
        match client.read_reply().map(Reply::into_result) {
            Some(Ok(Response::PanelCreated(_))) => {}
            other => panic!("heavy {session} did not complete: {other:?}"),
        }
    }
    handle.stop();
}

#[cfg(debug_assertions)]
#[test]
fn emd_panic_quarantines_the_session_and_the_server_survives() {
    let _guard = serialized();
    let handle = start_server_with(plain_config());
    let mut client = Client::connect(&handle);
    client.command("victim", "generate pop biased n=200 seed=5");
    client.command("victim", "define f rating*1.0");

    // The injected panic fires inside the EMD evaluation on a pool
    // worker, while the job holds the session mutex: the state is
    // suspect, so the dispatch layer quarantines the session and says so.
    let err = {
        let _fault = FaultScope::arm(fault::EMD_PANIC);
        client
            .send(&Request::in_session("victim", "quantify pop f"))
            .into_result()
            .expect_err("injected panic must surface as an error")
    };
    assert_eq!(err.kind, "session_poisoned");
    assert!(err.message.contains("victim"));

    // Same name, fresh session: the half-mutated state is gone, and the
    // full pipeline works again once the fault is disarmed.
    match client.command("victim", "datasets") {
        Response::DatasetList(entries) => {
            assert!(entries.is_empty(), "quarantine must discard old state")
        }
        other => panic!("expected DatasetList, got {other:?}"),
    }
    client.command("victim", "generate pop biased n=200 seed=5");
    client.command("victim", "define f rating*1.0");
    match client.command("victim", "quantify pop f") {
        Response::PanelCreated(view) => assert!(view.unfairness > 0.0),
        other => panic!("expected PanelCreated, got {other:?}"),
    }
    handle.stop();
}

#[cfg(debug_assertions)]
#[test]
fn slow_cells_trip_the_deadline_inside_scenario_plans() {
    let _guard = serialized();

    // Every plan cell sleeps 40 ms under SLOW_CELL; a 20 ms request
    // deadline therefore trips inside the fan-out, and the cancellation
    // must propagate out of the pool as the structured deadline error.
    let handle = start_server_with(ServerConfig {
        request_timeout: Some(Duration::from_millis(20)),
        ..plain_config()
    });
    let mut client = Client::connect(&handle);
    client.command("grid", "generate pop biased n=100 seed=5");
    client.command("grid", "define f rating*1.0");
    client.command("grid", "define g rating*0.6+language_test*0.4");

    let err = {
        let _fault = FaultScope::arm(fault::SLOW_CELL);
        client
            .send(&Request::in_session(
                "grid",
                "scenario grid pop f,g aggs=mean,max,min",
            ))
            .into_result()
            .expect_err("slow cells must blow the deadline")
    };
    assert_eq!(err.kind, "deadline_exceeded");
    handle.stop();

    // Fault disarmed: the identical plan completes on an undeadlined
    // server — the injection, not the plan, was what blew the budget.
    let handle = start_server_with(plain_config());
    let mut client = Client::connect(&handle);
    client.command("grid", "generate pop biased n=100 seed=5");
    client.command("grid", "define f rating*1.0");
    client.command("grid", "define g rating*0.6+language_test*0.4");
    match client.command("grid", "scenario grid pop f,g aggs=mean,max,min") {
        Response::Scenario(report) => assert_eq!(report.cells.len(), 6),
        other => panic!("expected Scenario, got {other:?}"),
    }
    handle.stop();
}

#[cfg(debug_assertions)]
#[test]
fn dropped_connections_leave_the_server_healthy() {
    let _guard = serialized();
    let handle = start_server_with(plain_config());

    {
        let _fault = FaultScope::arm(fault::DROP_CONN);
        let mut client = Client::connect(&handle);
        client.send_line(&Request::new("help"));
        // The server vanishes without a reply: EOF, not a torn line.
        assert!(client.read_reply().is_none(), "drop-conn must not reply");
    }

    let mut fresh = Client::connect(&handle);
    assert!(matches!(fresh.command("ok", "help"), Response::Help));
    handle.stop();
}

#[cfg(debug_assertions)]
#[test]
fn torn_writes_produce_unparseable_lines_and_the_server_survives() {
    let _guard = serialized();
    let handle = start_server_with(plain_config());

    {
        let _fault = FaultScope::arm(fault::TORN_WRITE);
        let mut client = Client::connect(&handle);
        client.send_line(&Request::new("help"));
        // Half a reply, then the connection cuts: the bytes must NOT
        // parse as the wire envelope — a client that "succeeds" on a
        // torn line has a framing bug.
        let mut torn = String::new();
        client
            .reader
            .read_to_string(&mut torn)
            .expect("drain the torn connection");
        assert!(!torn.is_empty(), "torn write sent nothing at all");
        assert!(!torn.ends_with('\n'), "torn reply must be unterminated");
        assert!(
            serde_json::from_str::<Reply>(torn.trim()).is_err(),
            "half a reply must not parse: {torn:?}"
        );
    }

    let mut fresh = Client::connect(&handle);
    assert!(matches!(fresh.command("ok", "help"), Response::Help));
    handle.stop();
}

#[cfg(debug_assertions)]
#[test]
fn repeated_fault_storms_never_degrade_the_server() {
    let _guard = serialized();
    let handle = start_server_with(plain_config());

    // Seed a small session once; the storm re-creates it whenever a
    // panic round quarantines it.
    let seed_session = |client: &mut Client| {
        client.command("storm", "generate pop biased n=120 seed=2");
        client.command("storm", "define f rating*1.0");
    };
    let mut control = Client::connect(&handle);
    seed_session(&mut control);

    for round in 0..25 {
        match round % 3 {
            0 => {
                // Panic round: quantify under EMD_PANIC; the reply is the
                // quarantine report and the session needs reseeding.
                let _fault = FaultScope::arm(fault::EMD_PANIC);
                let result = control
                    .send(&Request::in_session("storm", "quantify pop f"))
                    .into_result();
                let Err(err) = result else {
                    panic!("round {round}: injected panic must surface as an error");
                };
                assert_eq!(err.kind, "session_poisoned", "round {round}");
                drop(_fault);
                seed_session(&mut control);
            }
            1 => {
                // Drop round: a throwaway connection dies without a reply.
                let _fault = FaultScope::arm(fault::DROP_CONN);
                let mut doomed = Client::connect(&handle);
                doomed.send_line(&Request::new("help"));
                assert!(doomed.read_reply().is_none(), "round {round}");
            }
            _ => {
                // Torn round: a throwaway connection gets half a line.
                let _fault = FaultScope::arm(fault::TORN_WRITE);
                let mut doomed = Client::connect(&handle);
                doomed.send_line(&Request::new("help"));
                let mut torn = String::new();
                let _ = doomed.reader.read_to_string(&mut torn);
                assert!(
                    serde_json::from_str::<Reply>(torn.trim()).is_err(),
                    "round {round}: torn line parsed"
                );
            }
        }
        // Health probe after every injection: faults disarmed, a fresh
        // connection and the storm session both serve normally.
        let mut probe = Client::connect(&handle);
        assert!(
            matches!(probe.command("probe", "help"), Response::Help),
            "round {round}: server unhealthy after fault"
        );
    }

    // After 25 rounds of panics, drops, and torn writes: the full
    // pipeline still works end to end.
    match control.command("storm", "quantify pop f") {
        Response::PanelCreated(view) => assert!(view.unfairness > 0.0),
        other => panic!("expected PanelCreated, got {other:?}"),
    }
    handle.stop();
}
