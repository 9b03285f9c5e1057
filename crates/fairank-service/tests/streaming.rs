//! Streaming (chunked) scenario replies over real sockets: one
//! `{"chunk": CellStat}` line per cell as it completes, terminated by the
//! ordinary reply envelope — byte-compatible with non-streamed serving.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use fairank_service::{Frame, Request, Server, ServerConfig, ServerHandle};
use fairank_session::{CellStat, Response, ScenarioReport};

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

    fn send_line(&mut self, request: &Request) {
        let line = serde_json::to_string(request).expect("serialize request");
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send request");
    }

    /// Reads one wire line and parses it as a [`Frame`] (chunk or
    /// terminal reply). `None` on EOF.
    fn read_frame(&mut self) -> Option<Frame> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(serde_json::from_str(line.trim()).expect("frame parses")),
            Err(_) => None,
        }
    }

    /// Sends a request and collects frames until the terminal reply:
    /// every mid-stream chunk plus the final decoded response.
    fn send_collect(&mut self, request: &Request) -> (Vec<CellStat>, Response) {
        self.send_line(request);
        let mut chunks = Vec::new();
        loop {
            match self.read_frame().expect("server replied") {
                Frame::chunk(stat) => chunks.push(stat),
                frame => {
                    let response = frame
                        .into_reply()
                        .expect("terminal frame")
                        .into_result()
                        .unwrap_or_else(|e| panic!("request failed: {e}"));
                    return (chunks, response);
                }
            }
        }
    }

    /// Sends a command to a named session and unwraps the success payload.
    fn command(&mut self, session: &str, command: &str) -> Response {
        let (chunks, response) = self.send_collect(&Request::in_session(session, command));
        assert!(
            chunks.is_empty(),
            "non-streamed request produced {} chunks",
            chunks.len()
        );
        response
    }
}

/// A fresh server with the shared cell cache disabled, so two runs of the
/// same grid report identical (all-zero) cache counters and the streamed
/// vs non-streamed reports can be compared bit-for-bit.
fn start_server() -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_depth: 8,
            cell_cache_cap: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .spawn()
    .expect("spawn server")
}

/// Loads the deterministic grid fixture into `session`.
fn setup_grid(client: &mut Client, session: &str) {
    client.command(session, "generate pop biased n=100 seed=5");
    client.command(session, "define f rating*1.0");
    client.command(session, "define g rating*0.6+language_test*0.4");
}

const GRID: &str = "scenario grid pop f,g aggs=mean,max,min";

/// The report with every wall-clock field zeroed — the only fields that
/// legitimately differ between two runs of the same deterministic plan.
fn normalized(report: &ScenarioReport) -> ScenarioReport {
    let mut report = report.clone();
    report.total_elapsed_us = 0;
    for cell in &mut report.cells {
        cell.elapsed_us = 0;
    }
    report
}

fn run_streamed(handle: &ServerHandle, session: &str) -> (Vec<CellStat>, ScenarioReport) {
    let mut client = Client::connect(handle);
    setup_grid(&mut client, session);
    let (chunks, response) =
        client.send_collect(&Request::in_session(session, GRID).with_stream());
    let Response::Scenario(report) = response else {
        panic!("expected Scenario, got {response:?}");
    };
    (chunks, report)
}

#[test]
fn streamed_grid_yields_one_chunk_per_cell_then_the_full_report() {
    let handle = start_server();
    let (chunks, report) = run_streamed(&handle, "stream");

    // 2 functions × 3 aggregators: six cells, six chunks.
    assert_eq!(report.cells.len(), 6);
    assert_eq!(chunks.len(), report.cells.len());

    // Each chunk is the exact CellStat that lands in the final report —
    // same counters, same elapsed, same unfairness. Chunks arrive in
    // completion order (the pool races cells), so match by label.
    let mut chunks = chunks;
    chunks.sort_by(|a, b| a.label.cmp(&b.label));
    let mut cells = report.cells.clone();
    cells.sort_by(|a, b| a.label.cmp(&b.label));
    assert_eq!(chunks, cells);
    handle.stop();
}

#[test]
fn streamed_report_is_bit_identical_to_the_unstreamed_report() {
    // Same deterministic grid against two fresh servers: the streamed
    // run's terminal report serializes byte-for-byte like the plain one
    // once wall-clock fields are zeroed.
    let streamed_handle = start_server();
    let (_, streamed) = run_streamed(&streamed_handle, "bitwise");
    streamed_handle.stop();

    let plain_handle = start_server();
    let mut client = Client::connect(&plain_handle);
    setup_grid(&mut client, "bitwise");
    let Response::Scenario(plain) = client.command("bitwise", GRID) else {
        panic!("expected Scenario");
    };
    plain_handle.stop();

    let streamed_json =
        serde_json::to_string(&normalized(&streamed)).expect("serialize streamed report");
    let plain_json = serde_json::to_string(&normalized(&plain)).expect("serialize plain report");
    assert_eq!(streamed_json, plain_json);
}

#[test]
fn stream_flag_on_plain_commands_is_harmless() {
    // `stream: true` on a command that has nothing to stream produces the
    // ordinary single terminal reply — no spurious chunk lines.
    let handle = start_server();
    let mut client = Client::connect(&handle);
    let (chunks, response) = client.send_collect(&Request::new("help").with_stream());
    assert!(chunks.is_empty());
    assert!(matches!(response, Response::Help));
    handle.stop();
}

#[test]
fn mid_stream_disconnect_leaves_server_and_session_healthy() {
    let handle = start_server();

    // Start a streamed grid, read at most one frame, then vanish without
    // draining the rest: the server must drop the remaining chunks (and
    // the terminal reply) on the floor, not wedge or crash.
    {
        let mut client = Client::connect(&handle);
        setup_grid(&mut client, "dropout");
        client.send_line(&Request::in_session("dropout", GRID).with_stream());
        let _ = client.read_frame();
        // Connection dropped here (client goes out of scope mid-stream).
    }

    // A fresh client still gets full service, and the half-streamed
    // session is still attachable and serviceable — the abandoned run
    // must not have poisoned it.
    let mut fresh = Client::connect(&handle);
    assert!(matches!(fresh.command("probe", "help"), Response::Help));
    let Response::Scenario(report) = fresh.command("dropout", GRID) else {
        panic!("expected Scenario after mid-stream disconnect");
    };
    assert_eq!(report.cells.len(), 6);
    assert!(report.cells.iter().all(|c| c.unfairness.is_some()));
    handle.stop();
}
