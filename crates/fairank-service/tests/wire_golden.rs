//! The wire contract, pinned: a scripted session (plain commands, a
//! quantify, plain and streamed scenario grids) replayed over a real
//! socket must reproduce the committed transcript
//! `tests/golden/wire_transcript.jsonl` line for line.
//!
//! The transcript holds each request line as sent, followed by its reply
//! lines. Two things are normalized so the lines are deterministic: every
//! `elapsed_us` / `total_elapsed_us` wall-clock field reads 0, and a
//! streamed request's chunk lines are sorted (cells complete in pool
//! order, which is not part of the wire contract) ahead of the terminal
//! reply. The server runs with the cell cache off, so no reply depends on
//! what an earlier request left cached.
//!
//! On a mismatch the actual transcript is written under the cargo target
//! tmpdir and the test fails naming the first differing line. The
//! committed file is never rewritten by the test; a deliberate wire change
//! updates it by hand, in the same change, for review.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use fairank_service::{Request, Server, ServerConfig, ServerHandle};
use serde::value::Value;

const GOLDEN: &str = include_str!("golden/wire_transcript.jsonl");

/// The scripted session the transcript records.
fn script() -> Vec<Request> {
    let s = "equiv";
    vec![
        Request::new("help"),
        Request::in_session(s, "generate pop biased n=120 seed=9"),
        Request::in_session(s, "define f rating*0.7+language_test*0.3"),
        Request::in_session(s, "quantify pop f"),
        Request::in_session(s, "panels"),
        Request::in_session(s, "scenario grid pop f aggs=mean,max"),
        Request::in_session(s, "scenario grid pop f aggs=mean,max").with_stream(),
        Request::in_session(s, "datasets"),
    ]
}

/// Zeroes every wall-clock field in a reply's JSON tree.
fn normalize(value: &mut Value) {
    match value {
        Value::Map(entries) => {
            for (key, nested) in entries.iter_mut() {
                if key == "elapsed_us" || key == "total_elapsed_us" {
                    *nested = Value::U64(0);
                } else {
                    normalize(nested);
                }
            }
        }
        Value::Seq(items) => items.iter_mut().for_each(normalize),
        _ => {}
    }
}

/// Replays [`script`] on one connection and returns the normalized
/// transcript: each request line, then its reply lines.
fn transcript(handle: &ServerHandle) -> Vec<String> {
    let stream = TcpStream::connect(handle.addr()).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut lines = Vec::new();
    for request in script() {
        let sent = serde_json::to_string(&request).expect("serialize request");
        writer
            .write_all(sent.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .expect("send request");
        lines.push(sent);
        let mut replies = Vec::new();
        loop {
            let mut reply = String::new();
            let read = reader.read_line(&mut reply).expect("read reply");
            assert!(read > 0, "server closed the connection mid-script");
            let mut value: Value =
                serde_json::parse_value_str(reply.trim()).expect("reply parses");
            normalize(&mut value);
            replies.push(serde_json::value_to_string(&value));
            let chunk = value.as_map().is_some_and(|e| e.iter().any(|(k, _)| k == "chunk"));
            if !chunk {
                break;
            }
        }
        let terminal = replies.pop().expect("at least the terminal line");
        replies.sort();
        lines.extend(replies);
        lines.push(terminal);
    }
    lines
}

#[test]
fn replies_match_the_golden_transcript() {
    let handle = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            cell_cache_cap: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .spawn()
    .expect("spawn server");
    let actual = transcript(&handle);
    handle.stop();

    let expected: Vec<&str> = GOLDEN.lines().collect();
    if actual == expected {
        return;
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wire_transcript.actual.jsonl");
    let mut text = actual.join("\n");
    text.push('\n');
    std::fs::write(&out, text).expect("write actual transcript");
    let line = actual
        .iter()
        .zip(&expected)
        .position(|(got, want)| *got != *want)
        .unwrap_or(actual.len().min(expected.len()));
    panic!(
        "wire transcript differs from tests/golden/wire_transcript.jsonl at line {} \
         ({} actual lines, {} expected)\n  expected: {}\n  actual:   {}\n\
         full actual transcript: {}",
        line + 1,
        actual.len(),
        expected.len(),
        expected.get(line).copied().unwrap_or("<end of file>"),
        actual.get(line).map_or("<end of transcript>", String::as_str),
        out.display()
    );
}
