//! End-to-end smoke test of `fairank serve`: spawn the real binary on an
//! ephemeral port, drive a scripted quantification over TCP, and assert
//! the reply is structured (parsed from the wire envelope, not scraped
//! from rendered text).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use fairank_service::{Reply, Request};
use fairank_session::Response;

struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `fairank serve --addr 127.0.0.1:0` and returns the child plus
/// the actual address parsed from its `listening on <addr>` banner.
fn spawn_server() -> (ServeGuard, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fairank"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    (ServeGuard(child), addr)
}

fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &Request,
) -> Reply {
    let line = serde_json::to_string(request).expect("serialize request");
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .expect("send request");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    serde_json::from_str(reply.trim()).expect("reply parses")
}

#[test]
fn serve_mode_answers_scripted_quantify_with_structured_response() {
    let (_guard, addr) = spawn_server();
    let stream = TcpStream::connect(&addr).expect("connect to served port");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    for setup in [
        "generate pop biased n=100 seed=11",
        "define f rating*0.7+language_test*0.3",
    ] {
        let reply = roundtrip(&mut reader, &mut writer, &Request::in_session("smoke", setup));
        assert!(reply.is_ok(), "{setup:?} failed: {reply:?}");
    }

    let reply = roundtrip(
        &mut reader,
        &mut writer,
        &Request::in_session("smoke", "quantify pop f bins=8"),
    );
    match reply.into_result().expect("quantify succeeds") {
        Response::PanelCreated(view) => {
            assert_eq!(view.id, 0);
            assert!(view.unfairness > 0.0);
            assert!(view.num_partitions >= 1);
            assert_eq!(view.individuals, 100);
            // The tree came through as data: every leaf histogram has the
            // requested number of bins.
            assert!(view
                .nodes
                .iter()
                .filter(|n| n.is_leaf)
                .all(|n| n.histogram.len() == 8));
        }
        other => panic!("expected PanelCreated, got {other:?}"),
    }

    // Errors are structured too.
    let reply = roundtrip(
        &mut reader,
        &mut writer,
        &Request::in_session("smoke", "show 9"),
    );
    assert_eq!(reply.into_result().unwrap_err().kind, "unknown_panel");
}

/// One wire line that asks for a 40,000 × 40,000 grid (1.6 billion cells,
/// ~180 GB of configurations) is refused with `limit_exceeded`, and the
/// server still answers the next request.
#[test]
fn oversized_grid_request_is_refused_and_the_server_keeps_serving() {
    let (_guard, addr) = spawn_server();
    let stream = TcpStream::connect(&addr).expect("connect to served port");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("set read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let names = |prefix: &str| vec![prefix; 40_000].join(",");
    let grid = format!("scenario grid {} {}", names("a"), names("f"));
    for command in [grid.as_str(), "help"] {
        let line = serde_json::to_string(&Request::in_session("a", command)).unwrap();
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .expect("send request");
    }
    let mut replies = Vec::new();
    for _ in 0..2 {
        let mut reply = String::new();
        let read = reader.read_line(&mut reply).expect("read reply");
        assert!(read > 0, "server closed the connection after {replies:?}");
        replies.push(reply.trim().to_string());
    }
    let refusal: Reply = serde_json::from_str(&replies[0]).expect("reply parses");
    let err = refusal.into_result().expect_err("the grid is refused");
    assert_eq!(err.kind, "limit_exceeded", "{}", err.message);
    assert_eq!(replies[1], r#"{"ok":"Help"}"#);
}

#[test]
fn connect_mode_renders_the_classic_transcript() {
    let (_guard, addr) = spawn_server();
    let mut client = Command::new(env!("CARGO_BIN_EXE_fairank"))
        .args(["connect", &addr, "--session", "remote"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("client spawns");
    client
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(
            b"generate pop biased n=80 seed=4\n\
              define f rating*1.0\n\
              quantify pop f\n\
              node 0 0\n\
              quit\n",
        )
        .expect("write stdin");
    let output = client.wait_with_output().expect("client exits");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The remote transcript is the same text the local REPL prints.
    assert!(stdout.contains("generated pop = biased(n=80, seed=4)"));
    assert!(stdout.contains("panel #0"));
    assert!(stdout.contains("Node [0] ALL"));
}

/// Runs `fairank serve --addr 127.0.0.1:0 <args>`, requires it to exit 2
/// within 10 s instead of serving, and returns its stderr.
fn serve_refusal(args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fairank"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while child.try_wait().expect("poll child").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve {args:?} started serving instead of refusing the flags");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect output");
    assert_eq!(output.status.code(), Some(2), "serve {args:?} exit status");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn serve_mode_rejects_bad_flags() {
    assert!(serve_refusal(&["--workers", "many"]).contains("--workers"));
    assert!(serve_refusal(&["--workers"]).contains("--workers needs a value"));
    // Flags `serve` does not document (a removed one, a typo) are refused
    // by name, not dropped in favour of a default.
    for (args, flag) in [
        (&["--threaded"][..], "--threaded"),
        (&["--worker", "4"][..], "--worker"),
        (&["--dispatchers", "3"][..], "--dispatchers"),
    ] {
        let stderr = serve_refusal(args);
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "stderr for {args:?} must name {flag}: {stderr}"
        );
        assert!(stderr.contains("usage: fairank serve"), "{stderr}");
    }
}

#[test]
fn serve_mode_rejects_bad_request_timeouts() {
    for bad in ["soon", "0ms", "-5s"] {
        let output = Command::new(env!("CARGO_BIN_EXE_fairank"))
            .args(["serve", "--request-timeout", bad])
            .output()
            .expect("binary runs");
        assert!(!output.status.success(), "timeout {bad:?} must be rejected");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("--request-timeout"),
            "stderr names the bad flag for {bad:?}"
        );
    }
}

#[test]
fn help_documents_the_operational_flags() {
    let serve = Command::new(env!("CARGO_BIN_EXE_fairank"))
        .args(["serve", "--help"])
        .output()
        .expect("binary runs");
    assert!(serve.status.success());
    let text = String::from_utf8_lossy(&serve.stdout);
    for flag in ["--queue-depth", "--session-cap", "--request-timeout", "--session-ttl"] {
        assert!(text.contains(flag), "serve --help must document {flag}");
    }
    assert!(!text.contains("--dispatchers"), "{text}");
    // The request bounds, read from the command table.
    assert!(text.contains("limit_exceeded"), "{text}");
    for (bound, max) in [("histogram bins", "1000"), ("scenario plan cells", "4096")] {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(bound))
            .unwrap_or_else(|| panic!("serve --help lists the {bound} bound: {text}"));
        assert!(line.contains(max), "{line}");
    }

    let connect = Command::new(env!("CARGO_BIN_EXE_fairank"))
        .args(["connect", "--help"])
        .output()
        .expect("binary runs");
    assert!(connect.status.success());
    let text = String::from_utf8_lossy(&connect.stdout);
    assert!(text.contains("--retries"), "connect --help must document --retries");
}

/// A quantify that outlives the configured deadline by a wide margin in
/// the profile the binary under test was built with: the transportation
/// EMD backend at a high bin count (seconds; the 1-D backends finish in
/// tens of milliseconds at any reasonable dataset size).
#[cfg(debug_assertions)]
const DEADLINE_N: usize = 1_500;
#[cfg(debug_assertions)]
const DEADLINE_BINS: usize = 32;
#[cfg(not(debug_assertions))]
const DEADLINE_N: usize = 4_000;
#[cfg(not(debug_assertions))]
const DEADLINE_BINS: usize = 64;

#[test]
fn served_request_timeout_produces_structured_deadline_replies() {
    // The real binary with a real deadline flag: an over-budget quantify
    // must come back as `deadline_exceeded` (with the partial counters),
    // and the connection must keep serving afterwards.
    let mut child = Command::new(env!("CARGO_BIN_EXE_fairank"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--request-timeout",
            "80ms",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    let _guard = ServeGuard(child);

    let stream = TcpStream::connect(&addr).expect("connect to served port");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for setup in [
        format!("generate pop biased n={DEADLINE_N} seed=7"),
        "define f rating*0.7+language_test*0.3".to_string(),
    ] {
        let reply = roundtrip(&mut reader, &mut writer, &Request::in_session("d", &setup));
        assert!(reply.is_ok(), "{setup:?} failed: {reply:?}");
    }
    let reply = roundtrip(
        &mut reader,
        &mut writer,
        &Request::in_session(
            "d",
            format!("quantify pop f emd=transport bins={DEADLINE_BINS}"),
        ),
    );
    let err = reply.into_result().expect_err("deadline must trip");
    assert_eq!(err.kind, "deadline_exceeded");
    assert!(err.partial.is_some(), "deadline reply carries partial stats");

    // The worker is free again: a light command answers immediately.
    let reply = roundtrip(&mut reader, &mut writer, &Request::in_session("d", "help"));
    assert!(reply.is_ok(), "post-deadline request failed: {reply:?}");
}
