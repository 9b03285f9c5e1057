//! BENCH — event-loop serving tier under concurrent-connection load.
//!
//! Two claims of the readiness-based server are measured and gated:
//!
//! 1. **Connection scale** — one event-loop thread (plus the worker
//!    pool) sustains ≥1k *simultaneously open, actively used* client
//!    connections without per-connection threads, with bounded p99
//!    request latency.
//! 2. **Reply integrity** — across the whole load run, zero malformed
//!    reply lines and zero dropped replies: every request gets exactly
//!    one well-formed terminal reply.
//!
//! The third serving claim, wire equivalence, is not measured here: the
//! tier-1 test `fairank-service/tests/wire_golden.rs` replays a scripted
//! session (commands, a quantify, plain and streamed scenario grids) and
//! requires the committed golden transcript line for line.
//!
//! Usage: `exp_bench_serve [--smoke] [--out PATH]`
//!
//! `--smoke` (or `FAIRANK_BENCH_SMOKE=1`) shrinks the connection count so
//! CI can run the emitter in seconds and upload the JSON as an artifact.
//! The 1k-connection floor and the latency bound are asserted only at the
//! full shape; integrity is deterministic and asserted at both shapes.
//! The committed `BENCH_serve.json` records the real numbers and CI's
//! relative gate catches regressions against it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fairank_bench::{header, row};
use fairank_service::{Server, ServerConfig, ServerHandle};
use serde::Serialize;

/// The emitted measurements.
#[derive(Debug, Serialize)]
struct BenchReport {
    experiment: String,
    smoke: bool,
    /// Simultaneously open client connections during the load phase.
    connections: u64,
    /// Request rounds over every connection (after one warmup round).
    rounds: u64,
    /// Total requests sent during the measured load phase.
    requests_total: u64,
    /// Compute permits of the worker pool serving the load.
    workers: u64,
    /// Measured load-phase throughput, replies per second.
    throughput_rps: f64,
    /// Request latency percentiles over the load phase, milliseconds.
    /// Requests are pipelined per client thread, so tail latencies
    /// include queue wait — the operationally honest number.
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    latency_max_ms: f64,
    /// Reply lines that failed to parse as the wire envelope (gated: 0).
    malformed_replies: u64,
    /// Requests that never got a reply line back (gated: 0).
    dropped_replies: u64,
}

/// Nearest-rank percentile over an unsorted sample.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn start_server(workers: usize) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .spawn()
    .expect("spawn server")
}

/// One open client connection with a line-buffered reader.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Conn {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("set client nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set client read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads one reply line. `Ok(None)` = EOF / timeout (a dropped reply).
    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line),
        }
    }
}

/// Per-thread tallies from the load phase.
#[derive(Default)]
struct LoadTally {
    latencies_ms: Vec<f64>,
    malformed: u64,
    dropped: u64,
}

/// Drives `conns` connections for `rounds` pipelined request rounds:
/// each round writes one request on every connection, then drains one
/// reply per connection, recording send-to-read latency.
fn drive(conns: &mut [Conn], rounds: usize, payload: &str) -> LoadTally {
    let mut tally = LoadTally::default();
    let mut sent: Vec<Option<Instant>> = vec![None; conns.len()];
    for _ in 0..rounds {
        for (conn, slot) in conns.iter_mut().zip(sent.iter_mut()) {
            *slot = conn.send(payload).ok().map(|()| Instant::now());
        }
        for (conn, slot) in conns.iter_mut().zip(sent.iter_mut()) {
            let Some(at) = slot.take() else {
                tally.dropped += 1;
                continue;
            };
            match conn.read_line() {
                Some(line) => {
                    tally
                        .latencies_ms
                        .push(at.elapsed().as_secs_f64() * 1e3);
                    if serde_json::from_str::<fairank_service::Reply>(line.trim()).is_err() {
                        tally.malformed += 1;
                    }
                }
                None => tally.dropped += 1,
            }
        }
    }
    tally
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("FAIRANK_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_serve.json")
        .to_string();

    // (connections, client threads, measured rounds)
    let (connections, client_threads, rounds) = if smoke {
        (64, 4, 5)
    } else {
        (1_000, 8, 10)
    };
    let workers = 4;

    header(
        "BENCH",
        "event-loop serving tier: connection scale, reply integrity (emits BENCH_serve.json)",
    );
    println!(
        "shape: {connections} connections x {rounds} rounds over {client_threads} client threads, {workers} workers"
    );

    // ---- load phase: the event loop under concurrent connections ----
    let handle = start_server(workers);
    let per_thread = connections / client_threads;
    let mut groups: Vec<Vec<Conn>> = (0..client_threads)
        .map(|_| (0..per_thread).map(|_| Conn::open(&handle)).collect())
        .collect();

    // Warmup round (connection registration, allocator warm paths).
    for group in &mut groups {
        drive(group, 1, "{\"line\": \"help\"}");
    }

    let t = Instant::now();
    let tallies: Vec<LoadTally> = std::thread::scope(|scope| {
        let threads: Vec<_> = groups
            .iter_mut()
            .map(|group| scope.spawn(move || drive(group, rounds, "{\"line\": \"help\"}")))
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let load_elapsed = t.elapsed().as_secs_f64();
    drop(groups);

    let requests_total = (per_thread * client_threads * rounds) as u64;
    let latencies: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.latencies_ms.iter().copied())
        .collect();
    let malformed: u64 = tallies.iter().map(|t| t.malformed).sum();
    let dropped: u64 = tallies.iter().map(|t| t.dropped).sum();
    let throughput = latencies.len() as f64 / load_elapsed;
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let max = latencies.iter().copied().fold(0.0f64, f64::max);

    handle.stop();

    let widths = [22, 14, 14, 14];
    row(
        &[
            "metric".into(),
            "value".into(),
            "".into(),
            "".into(),
        ],
        &widths,
    );
    row(
        &[
            "throughput".into(),
            format!("{throughput:.0} req/s"),
            format!("({requests_total} requests)"),
            format!("({connections} conns)"),
        ],
        &widths,
    );
    row(
        &[
            "latency p50/p99/max".into(),
            format!("{p50:.2} ms"),
            format!("{p99:.2} ms"),
            format!("{max:.2} ms"),
        ],
        &widths,
    );
    row(
        &[
            "integrity".into(),
            format!("{malformed} malformed"),
            format!("{dropped} dropped"),
            "".into(),
        ],
        &widths,
    );

    // Integrity is deterministic — gate at both shapes.
    assert_eq!(malformed, 0, "malformed reply lines under load");
    assert_eq!(dropped, 0, "dropped replies under load");
    if !smoke {
        assert!(
            connections >= 1_000,
            "full shape must exercise >= 1k concurrent connections"
        );
        // Requests are pipelined per round, so a reply's latency includes
        // waiting behind its round's queue — the bound is a whole-round
        // ceiling, generous enough for a shared single-core runner while
        // still catching an event loop that degrades to per-connection
        // rescans (quadratic wakeups blow straight through it).
        assert!(
            p99 < 5_000.0,
            "p99 request latency {p99:.0} ms exceeds the 5 s bound at \
             {connections} connections"
        );
    }

    let report = BenchReport {
        experiment: "serve".into(),
        smoke,
        connections: connections as u64,
        rounds: rounds as u64,
        requests_total,
        workers: workers as u64,
        throughput_rps: throughput,
        latency_p50_ms: p50,
        latency_p99_ms: p99,
        latency_max_ms: max,
        malformed_replies: malformed,
        dropped_replies: dropped,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("write report");
    println!("\nwrote {out_path}");
}
