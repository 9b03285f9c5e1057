//! `serve` — the event-loop serving tier under concurrent-connection load.
//!
//! Two claims of the readiness-based server are measured and gated:
//!
//! 1. **Connection scale** — one event-loop thread (plus the worker
//!    pool) sustains ≥1k *simultaneously open, actively used* client
//!    connections without per-connection threads, with bounded p99
//!    request latency: at most 3× the baseline's p99 and, at the full
//!    shape, under 5 s.
//! 2. **Reply integrity** — across the whole load run, zero malformed
//!    reply lines and zero dropped replies: every request gets exactly
//!    one well-formed terminal reply.
//!
//! The third serving claim, wire equivalence, is not measured here: the
//! tier-1 test `fairank-service/tests/wire_golden.rs` replays a scripted
//! session (commands, a quantify, plain and streamed scenario grids) and
//! requires the committed golden transcript line for line.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fairank_bench::{percentile, BenchRecord, Bound};
use fairank_service::{Server, ServerConfig, ServerHandle};

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
                    tally.latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
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

pub fn run(smoke: bool) -> Vec<BenchRecord> {
    // (connections, client threads, measured rounds)
    let (connections, client_threads, rounds) = if smoke { (64, 4, 5) } else { (1_000, 8, 10) };
    let workers = 4;

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

    let workload = format!("c{connections}_t{client_threads}_r{rounds}_w{workers}");
    let requests = latencies.len();
    let record = |metric: &str, unit: &str, value: f64, samples: usize| {
        BenchRecord::new("serve", &workload, metric, unit, value, samples as u64)
    };
    let full_shape_only = |bound| if smoke { Vec::new() } else { vec![bound] };
    // Requests are pipelined per round, so a reply's latency includes
    // waiting behind its round's queue. The 5 s ceiling is generous for a
    // shared runner; the 3x relative bound catches an event loop that
    // degrades to per-connection rescans (quadratic wakeups multiply the
    // tail), not wall-clock noise.
    vec![
        record("connections", "count", connections as f64, 1)
            .bounded(full_shape_only(Bound::AtLeast(1_000.0))),
        record("requests_total", "count", requests_total as f64, 1).exact(),
        record("throughput_rps", "1/s", throughput, requests),
        record("latency_p50_ms", "ms", p50, requests),
        record("latency_p99_ms", "ms", p99, requests).bounded(
            [
                vec![Bound::AtMostBaselineTimes(3.0)],
                full_shape_only(Bound::Below(5_000.0)),
            ]
            .concat(),
        ),
        record("latency_max_ms", "ms", max, requests),
        record("malformed_replies", "count", malformed as f64, 1).bounded(vec![Bound::AtMost(0.0)]),
        record("dropped_replies", "count", dropped as f64, 1).bounded(vec![Bound::AtMost(0.0)]),
    ]
}
