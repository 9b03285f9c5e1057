//! End-to-end tests of the JSON-lines TCP server: real sockets, real
//! threads, structured (non-string-scraped) responses.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use fairank_service::{Reply, Request, Server, ServerConfig, ServerHandle};
use fairank_session::Response;

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

    fn send_raw(&mut self, line: &str) -> Reply {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        serde_json::from_str(reply.trim()).expect("reply parses as the wire envelope")
    }

    fn send(&mut self, request: &Request) -> Reply {
        self.send_raw(&serde_json::to_string(request).expect("serialize request"))
    }

    /// Sends a command to a named session and unwraps the success payload.
    fn command(&mut self, session: &str, command: &str) -> Response {
        self.send(&Request::in_session(session, command))
            .into_result()
            .unwrap_or_else(|e| panic!("{command:?} failed: {e}"))
    }
}

fn start_server() -> ServerHandle {
    start_server_with(ServerConfig {
        workers: 2,
        queue_depth: 4,
        ..ServerConfig::default()
    })
}

fn start_server_with(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

#[test]
fn concurrent_clients_quantify_in_distinct_sessions() {
    let handle = start_server();
    const CLIENTS: usize = 5;

    let unfairness: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let handle = &handle;
                scope.spawn(move || {
                    let mut client = Client::connect(handle);
                    let session = format!("client-{i}");
                    client.command(&session, "generate pop biased n=150 seed=9");
                    client.command(&session, "define f rating*0.7+language_test*0.3");
                    match client.command(&session, "quantify pop f") {
                        Response::PanelCreated(view) => {
                            // Structured access, no string scraping: each
                            // client owns its session, so its first panel
                            // is #0 and the tree rides along.
                            assert_eq!(view.id, 0, "session {session}");
                            assert!(view.num_partitions >= 1);
                            assert_eq!(view.nodes.len(), view.tree_nodes);
                            assert_eq!(view.individuals, 150);
                            view.unfairness
                        }
                        other => panic!("expected PanelCreated, got {other:?}"),
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Identical seeds through independent sessions: identical results.
    assert_eq!(unfairness.len(), CLIENTS);
    for u in &unfairness {
        assert!(*u > 0.0);
        assert_eq!(u, &unfairness[0]);
    }
    handle.stop();
}

#[test]
fn concurrent_clients_share_one_session() {
    let handle = start_server();

    // One client sets the shared state up.
    let mut setup = Client::connect(&handle);
    setup.command("shared", "generate pop biased n=100 seed=3");
    setup.command("shared", "define f rating*1.0");

    // Four clients quantify into the same session at once; the per-session
    // mutex serializes them, so panel ids are a permutation of 0..4.
    let mut ids: Vec<usize> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let handle = &handle;
                scope.spawn(move || {
                    let mut client = Client::connect(handle);
                    match client.command("shared", "quantify pop f") {
                        Response::PanelCreated(view) => view.id,
                        other => panic!("expected PanelCreated, got {other:?}"),
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3]);

    // The shared session saw every panel.
    match setup.command("shared", "panels") {
        Response::PanelList(entries) => assert_eq!(entries.len(), 4),
        other => panic!("expected PanelList, got {other:?}"),
    }
    handle.stop();
}

#[test]
fn errors_and_malformed_lines_are_structured() {
    let handle = start_server();
    let mut client = Client::connect(&handle);

    // Session error: stable kind, human message.
    let reply = client.send(&Request::new("show 42"));
    let err = reply.into_result().unwrap_err();
    assert_eq!(err.kind, "unknown_panel");
    assert!(err.message.contains("#42"));

    // Parse error in the command language.
    let reply = client.send(&Request::new("frobnicate"));
    assert_eq!(reply.into_result().unwrap_err().kind, "command");

    // A line that is not JSON at all: protocol error, connection survives.
    let reply = client.send_raw("this is not json");
    assert_eq!(reply.into_result().unwrap_err().kind, "protocol");
    let reply = client.send(&Request::new("help"));
    assert!(matches!(reply.into_result().unwrap(), Response::Help));

    // Filesystem commands are forbidden from the wire by default.
    for line in ["load d /etc/passwd", "save /tmp/exfil", "export 0 /tmp/x.json"] {
        let reply = client.send(&Request::new(line));
        assert_eq!(reply.into_result().unwrap_err().kind, "forbidden", "{line}");
    }
    handle.stop();
}

#[test]
fn quit_ends_the_connection_but_not_the_session() {
    let handle = start_server();

    let mut first = Client::connect(&handle);
    first.command("sticky", "generate pop biased n=50 seed=1");
    let reply = first.send(&Request::in_session("sticky", "quit"));
    assert!(matches!(reply.into_result().unwrap(), Response::Quit));
    // The server closed this connection after the quit reply.
    let mut line = String::new();
    assert_eq!(first.reader.read_line(&mut line).unwrap(), 0);

    // The session itself survives for the next client.
    let mut second = Client::connect(&handle);
    match second.command("sticky", "datasets") {
        Response::DatasetList(entries) => {
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].name, "pop");
        }
        other => panic!("expected DatasetList, got {other:?}"),
    }
    handle.stop();
}

#[test]
fn scenario_plan_runs_as_one_wire_request() {
    let handle = start_server();
    let mut client = Client::connect(&handle);
    client.command("plans", "generate pop biased n=100 seed=5");
    client.command("plans", "define f rating*1.0");
    client.command("plans", "define g rating*0.6+language_test*0.4");

    // The whole grid — 2 functions × 3 aggregators — is one request; the
    // server fans the 6 cells across its worker pool.
    let response = client.command("plans", "scenario grid pop f,g aggs=mean,max,min");
    let Response::Scenario(report) = &response else {
        panic!("expected Scenario, got {response:?}");
    };
    assert_eq!(report.perspective, "grid");
    assert_eq!(report.cells.len(), 6);
    assert!(report.cells.iter().all(|c| c.unfairness.is_some()));

    // The committed panels are visible to subsequent commands.
    match client.command("plans", "panels") {
        Response::PanelList(entries) => assert_eq!(entries.len(), 6),
        other => panic!("expected PanelList, got {other:?}"),
    }

    // The structured-spec request form carries the plan as JSON, not as a
    // command string.
    let spec = fairank_session::ScenarioSpec::new(
        fairank_session::plan::Perspective::EndUser {
            market: fairank_session::plan::MarketSpec {
                preset: "taskrabbit".into(),
                n: 60,
                seed: 3,
            },
            groups: vec!["gender=Female".into()],
        },
    );
    let reply = client.send(&Request::scenario("plans", spec));
    let Response::Scenario(report) = reply.into_result().unwrap() else {
        panic!("expected Scenario");
    };
    assert_eq!(report.perspective, "end-user");
    assert!(!report.cells.is_empty());
    handle.stop();
}

#[test]
fn admin_commands_require_the_admin_flag() {
    // Plain server: sessions/evict are refused.
    let handle = start_server();
    let mut client = Client::connect(&handle);
    client.command("alpha", "help");
    let reply = client.send(&Request::new("sessions"));
    assert_eq!(reply.into_result().unwrap_err().kind, "forbidden");
    let reply = client.send(&Request::new("evict alpha"));
    assert_eq!(reply.into_result().unwrap_err().kind, "forbidden");
    handle.stop();

    // Admin server: the registry is listable and evictable over the wire.
    let handle = start_server_with(ServerConfig {
        workers: 2,
        queue_depth: 4,
        admin: true,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle);
    client.command("alpha", "generate pop biased n=30 seed=1");
    client.command("beta", "help");
    // Admin commands operate on the registry without creating a session
    // for the requesting name.
    match client.command("any", "sessions") {
        Response::SessionList(view) => {
            assert_eq!(view.sessions, vec!["alpha", "beta"]);
            // `alpha` generated one dataset into the shared store.
            assert_eq!(view.store_datasets, 1);
            assert!(view.store_bytes > 0);
        }
        other => panic!("expected SessionList, got {other:?}"),
    }
    match client.command("any", "evict alpha") {
        Response::SessionEvicted { name } => assert_eq!(name, "alpha"),
        other => panic!("expected SessionEvicted, got {other:?}"),
    }
    // Evicted: a new attach under the name is a fresh session.
    match client.command("alpha", "datasets") {
        Response::DatasetList(entries) => assert!(entries.is_empty()),
        other => panic!("expected DatasetList, got {other:?}"),
    }
    let reply = client.send(&Request::in_session("any", "evict ghost"));
    assert_eq!(reply.into_result().unwrap_err().kind, "unknown_session");
    handle.stop();
}

#[test]
fn idle_sessions_expire_after_the_ttl_without_new_connections() {
    // Regression: the TTL sweep used to run only on the accept loop, so a
    // quiet server (no further connections) never expired anything. The
    // dedicated sweeper thread must evict the idle session on its own —
    // this test opens ONE connection, lets it go idle, and watches the
    // registry in-process; no second connection ever arrives.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_depth: 4,
            admin: true,
            session_ttl: Some(std::time::Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let registry = server.registry();
    let handle = server.spawn().expect("spawn server");

    {
        let mut early = Client::connect(&handle);
        early.command("stale", "generate pop biased n=30 seed=1");
        assert_eq!(registry.names(), vec!["stale"]);
    }
    // No new connection from here on. The sweeper alone must notice the
    // idle session; poll well past TTL + sweep interval before failing.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !registry.is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "stale session survived the TTL on a quiet server: {:?}",
            registry.names()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    handle.stop();
}

#[test]
fn oversized_request_lines_get_a_structured_refusal() {
    use fairank_service::MAX_REQUEST_BYTES;

    let handle = start_server();
    let mut client = Client::connect(&handle);
    // Exactly the cap, no newline: the server must reply once with the
    // `request_too_large` kind, then close — not silently drop the line.
    let oversized = vec![b'a'; MAX_REQUEST_BYTES as usize];
    client.writer.write_all(&oversized).expect("send oversized line");
    client.writer.flush().expect("flush oversized line");
    let mut reply = String::new();
    client
        .reader
        .read_line(&mut reply)
        .expect("read the refusal");
    let reply: Reply = serde_json::from_str(reply.trim()).expect("refusal parses");
    let err = reply.into_result().unwrap_err();
    assert_eq!(err.kind, "request_too_large");
    assert!(err.message.contains(&MAX_REQUEST_BYTES.to_string()));
    // The connection is closed afterwards.
    let mut rest = String::new();
    assert_eq!(client.reader.read_line(&mut rest).unwrap(), 0);

    // A fresh connection still serves normally.
    let mut fresh = Client::connect(&handle);
    assert!(matches!(
        fresh.command("ok", "help"),
        Response::Help
    ));
    handle.stop();
}

#[test]
fn rendered_transcript_matches_local_rendering() {
    // A remote client can reproduce the exact REPL text from the wire
    // payload alone: render(response) over the deserialized Response.
    let handle = start_server();
    let mut client = Client::connect(&handle);
    client.command("render", "generate pop biased n=80 seed=7");
    client.command("render", "define f rating*1.0");
    let response = client.command("render", "quantify pop f");
    let remote_text = fairank_session::present::render(&response);
    assert!(remote_text.starts_with("panel #0: unfairness "));
    assert!(remote_text.contains("ALL"));
    assert!(remote_text.contains("μ="));
    handle.stop();
}

/// The `sessions` admin counters of the shared cell cache: `(hits, misses)`.
fn cell_cache_counters(client: &mut Client) -> (u64, u64) {
    match client.command("admin", "sessions") {
        Response::SessionList(view) => (view.cell_cache_hits, view.cell_cache_misses),
        other => panic!("expected SessionList, got {other:?}"),
    }
}

/// Sets a session up and runs one `quantify`, returning its panel view.
fn quantify_in(client: &mut Client, session: &str) -> fairank_session::response::PanelView {
    client.command(session, "generate pop biased n=300 seed=4");
    client.command(session, "define f rating*0.7+language_test*0.3");
    match client.command(session, "quantify pop f agg=max bins=8") {
        Response::PanelCreated(view) => view,
        other => panic!("expected PanelCreated, got {other:?}"),
    }
}

#[test]
fn a_repeated_quantify_in_another_session_is_served_from_the_cell_cache() {
    let handle = start_server_with(ServerConfig {
        admin: true,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle);
    let before = cell_cache_counters(&mut client);
    let computed = quantify_in(&mut client, "first");
    let after_compute = cell_cache_counters(&mut client);
    let served = quantify_in(&mut client, "second");
    let after_serve = cell_cache_counters(&mut client);

    assert!(!computed.from_cache);
    assert!(served.from_cache, "the second session's quantify must hit");
    assert_eq!(
        after_compute,
        (before.0, before.1 + 1),
        "the first quantify misses once"
    );
    assert_eq!(
        after_serve,
        (after_compute.0 + 1, after_compute.1),
        "the second hits once"
    );
    // Everything but the flag and the wall-clock is bit-identical, nodes
    // included (f64 fields compared by bit pattern).
    let mut expected = computed.clone();
    (expected.from_cache, expected.elapsed_us) = (true, served.elapsed_us);
    assert_eq!(served, expected);
    assert_eq!(served.unfairness.to_bits(), computed.unfairness.to_bits());
    for (s, c) in served.nodes.iter().zip(&computed.nodes) {
        let bits = |n: &fairank_session::response::NodeView| {
            [n.mean_score, n.min_score, n.max_score].map(f64::to_bits)
        };
        assert_eq!(bits(s), bits(c));
        assert_eq!(
            s.divergence_vs_siblings.map(f64::to_bits),
            c.divergence_vs_siblings.map(f64::to_bits)
        );
    }
    handle.stop();

    // With the cache disabled the same requests compute every time.
    let handle = start_server_with(ServerConfig {
        cell_cache_cap: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle);
    assert!(!quantify_in(&mut client, "first").from_cache);
    assert!(!quantify_in(&mut client, "second").from_cache);
    handle.stop();
}
