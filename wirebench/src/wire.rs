//! The wire run: a real `fairank serve` child process driven by two
//! closed-loop analysts, one connection each.
//!
//! A run sets the server up several times (spawn, then every analyst's
//! first preload) and keeps the last one for measurement. The measured
//! phase is a series of epochs: in each, both analysts run one session's
//! cycles; between epochs, outside the measured time, they evict that
//! session and preload the next. Server CPU is read from
//! `/proc/<pid>/stat` at epoch edges, so it covers exactly the measured
//! requests.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use fairank_service::Request;

use crate::check::{scan_panel, summarize, Observed, Oracle, Received, Summary};
use crate::workload::{advance, Analyst, Class, Op, Scale, SessionCtx, Workload, CELL_CACHE_CAP};

/// The pinned server flags.
pub fn server_args() -> Vec<String> {
    [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "2",
        "--admin",
        "--cell-cache-cap",
        &CELL_CACHE_CAP.to_string(),
    ]
    .map(String::from)
    .to_vec()
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux ABI).
const USER_HZ: f64 = 100.0;

/// A `fairank serve` child process. Dropping it kills the process and
/// waits for it to end.
pub struct ServerProcess {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Starts the server and waits for its `listening on <addr>` line.
    pub fn spawn(binary: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(binary)
            .args(server_args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerProcess {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("server did not start: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("unexpected server greeting {line:?}"))?;
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// User plus system CPU the server has used, in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        process_cpu_ms(&self.child.id().to_string())
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The reply lines of one request and when they arrived.
pub struct Exchange {
    pub lines: Vec<String>,
    /// Send to the first reply line (a chunk for streamed grids).
    pub first_line: Duration,
    /// Send to the terminal reply line.
    pub total: Duration,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads lines up to its terminal reply.
    pub fn exchange(&mut self, request: &Request) -> std::io::Result<Exchange> {
        let mut line = serde_json::to_string(request).expect("requests serialize");
        line.push('\n');
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        let mut lines = Vec::new();
        let mut first_line = None;
        loop {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            first_line.get_or_insert_with(|| start.elapsed());
            let chunk = reply.starts_with("{\"chunk\"");
            lines.push(reply);
            if !chunk {
                break;
            }
        }
        Ok(Exchange {
            lines,
            first_line: first_line.unwrap_or_default(),
            total: start.elapsed(),
        })
    }
}

/// Latency samples of the measured requests, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub compute: Vec<f64>,
    pub light: Vec<f64>,
    /// Send to first line: of streamed grids where the workload has them,
    /// else of every compute request (its only line is the terminal one).
    pub first_line: Vec<f64>,
    /// Terminal replies to measured requests.
    pub replies: usize,
}

impl Samples {
    fn merge(&mut self, other: Samples) {
        self.compute.extend(other.compute);
        self.light.extend(other.light);
        self.first_line.extend(other.first_line);
        self.replies += other.replies;
    }
}

/// CPU (user + system) a process has used, in milliseconds, from
/// `/proc/<pid>/stat`.
fn process_cpu_ms(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name start at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 1e3 / USER_HZ
}

/// One analyst and its connection.
pub struct Client {
    pub analyst: Analyst,
    conn: Conn,
    ctx: SessionCtx,
    /// Requests of the current server instance, in order.
    pub observed: Vec<Observed>,
    pub samples: Samples,
    /// Set when the connection failed; the run then stops.
    dropped: bool,
}

impl Client {
    fn new(analyst: Analyst, addr: SocketAddr) -> Result<Client, String> {
        Ok(Client {
            analyst,
            conn: Conn::open(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?,
            ctx: SessionCtx::default(),
            observed: Vec::new(),
            samples: Samples::default(),
            dropped: false,
        })
    }

    fn send(&mut self, op: Op, measured: bool) {
        let request = op.request(&self.analyst.session(), &self.ctx);
        let command = request.command_text().to_string();
        let reply = match self.conn.exchange(&request) {
            Ok(exchange) => {
                if measured {
                    self.record(&op, &exchange);
                }
                match op {
                    Op::Quantify { .. } => Received::Raw(exchange.lines),
                    _ => Received::Summarized(summarize(&op, &exchange.lines)),
                }
            }
            Err(e) => {
                self.dropped = true;
                Received::Summarized(Err(format!("no reply: {e}")))
            }
        };
        let created = match &reply {
            Received::Summarized(result) => {
                result.as_ref().map(Summary::created).unwrap_or_default()
            }
            Received::Raw(lines) => lines
                .last()
                .and_then(|l| scan_panel(l))
                .into_iter()
                .collect(),
        };
        advance(&mut self.ctx, &op, &created);
        self.observed.push(Observed { op, command, reply });
    }

    fn record(&mut self, op: &Op, exchange: &Exchange) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.samples.replies += 1;
        match op.class() {
            Class::Compute => self.samples.compute.push(ms(exchange.total)),
            Class::Light => self.samples.light.push(ms(exchange.total)),
            Class::Other => {}
        }
        let streams = matches!(op, Op::Grid { streamed: true, .. });
        let workload_streams = self.analyst.workload() == Workload::GridExplore;
        if streams || (!workload_streams && op.class() == Class::Compute) {
            self.samples.first_line.push(ms(exchange.first_line));
        }
    }

    fn preload(&mut self) {
        for op in self.analyst.start_session() {
            self.send(op, false);
        }
    }

    fn run_session(&mut self) {
        while !self.analyst.session_done() && !self.dropped {
            for op in self.analyst.next_cycle() {
                self.send(op, true);
            }
        }
    }

    fn rotate_session(&mut self) {
        let evict = self.analyst.end_session();
        self.send(evict, false);
        self.preload();
    }
}

/// Runs `f` on both clients at once, one thread each.
fn both(clients: &mut [Client; 2], f: impl Fn(&mut Client) + Sync) {
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let f = &f;
            scope.spawn(move || f(client));
        }
    });
}

/// Everything a wire run measured.
pub struct WireRun {
    /// Spawn-to-preloaded times of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Summed duration of the measured epochs.
    pub measured_s: f64,
    /// Server CPU over the measured epochs.
    pub cpu_ms: f64,
    /// CPU the client process used over the measured epochs.
    pub client_cpu_ms: f64,
    /// The samples of each epoch (both analysts' sessions, start to end).
    pub epochs: Vec<Samples>,
    pub peak_rss_mb: f64,
    /// Requests sent, set-ups and session rotations included.
    pub attempted: usize,
    /// Each analyst's requests, one list per server instance.
    pub observed: Vec<Vec<Observed>>,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs `workload` against fresh servers started from `binary`.
pub fn run(binary: &Path, workload: Workload, seed: u64, seconds: f64) -> Result<WireRun, String> {
    let mut setup_s = Vec::new();
    let mut observed = Vec::new();
    let mut attempted = 0;
    let mut live: Option<(ServerProcess, [Client; 2])> = None;
    for _ in 0..SETUPS {
        // The previous instance is killed before the next one starts; its
        // replies still go to the check.
        if let Some((server, clients)) = live.take() {
            drop(server);
            observed.extend(clients.map(|d| d.observed));
        }
        let started = Instant::now();
        let server = ServerProcess::spawn(binary)?;
        let [a, b] = Analyst::pair(workload, seed, Scale::full());
        let mut clients = [
            Client::new(a, server.addr())?,
            Client::new(b, server.addr())?,
        ];
        both(&mut clients, |client| {
            client.preload();
            for op in client.analyst.warmup() {
                client.send(op, false);
            }
        });
        setup_s.push(started.elapsed().as_secs_f64());
        live = Some((server, clients));
    }
    let (server, mut clients) = live.expect("at least one set-up");
    let phase = Instant::now();
    let mut epochs = Vec::new();
    let mut measured_s = 0.0;
    let mut cpu_ms = 0.0;
    let mut client_cpu_ms = 0.0;
    loop {
        let cpu_before = server.cpu_ms();
        let client_before = process_cpu_ms("self");
        let started = Instant::now();
        both(&mut clients, Client::run_session);
        measured_s += started.elapsed().as_secs_f64();
        cpu_ms += server.cpu_ms() - cpu_before;
        client_cpu_ms += process_cpu_ms("self") - client_before;
        let mut epoch = Samples::default();
        for client in &mut clients {
            epoch.merge(std::mem::take(&mut client.samples));
        }
        epochs.push(epoch);
        if measured_s >= seconds || clients.iter().any(|d| d.dropped) {
            break;
        }
        both(&mut clients, Client::rotate_session);
    }
    let peak_rss_mb = server.peak_rss_mb();
    eprintln!(
        "wirebench: {} epochs, {measured_s:.1} s measured of {:.1} s",
        epochs.len(),
        phase.elapsed().as_secs_f64()
    );
    drop(server);
    for client in clients {
        observed.push(client.observed);
    }
    for list in &observed {
        attempted += list.len();
    }
    Ok(WireRun {
        setup_s,
        measured_s,
        cpu_ms,
        client_cpu_ms,
        epochs,
        peak_rss_mb,
        attempted,
        observed,
    })
}

/// Checks every observed reply against in-process references, on two
/// threads (lists alternate between them, so each analyst's lists share
/// one thread's memo). Returns the number of failed requests.
pub fn check(observed: &[Vec<Observed>]) -> usize {
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2)
            .map(|thread| {
                scope.spawn(move || {
                    let mut oracle = Oracle::default();
                    observed
                        .iter()
                        .skip(thread)
                        .step_by(2)
                        .map(|list| oracle.check(list))
                        .sum::<usize>()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("checker thread panicked"))
            .sum()
    })
}
