//! `fairank` — the interactive front end over the FaiRank session engine.
//!
//! This binary is the reproduction's stand-in for the paper's web interface
//! (Figure 3): the same Configuration/General/Node interactions, driven by
//! the command language of `fairank_session::command`. Since the typed-API
//! redesign it is a thin renderer over `apply` — every mode runs commands
//! through the same structured [`Response`] layer the server ships as JSON.
//!
//! Modes:
//! * **REPL** (default): `fairank` and type `help`, or pipe a script.
//! * **Script**: `fairank script.frk` runs a command file (`#` comments).
//! * **Demo**: a `demo` argument preloads the paper's Table 1 dataset and
//!   scoring function as `table1` / `paper-f`.
//! * **Serve**: `fairank serve --addr 127.0.0.1:4915` exposes the
//!   multi-session JSON-lines server of `fairank-service`.
//! * **Connect**: `fairank connect 127.0.0.1:4915 [--session name]` is a
//!   remote REPL: commands go over the wire, structured replies render
//!   locally to the exact same text.
//!
//! ```text
//! printf 'generate pop biased\ndefine f rating*1.0\nquantify pop f\n' | fairank
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use fairank_service::{Frame, Request, Server, ServerConfig};
use fairank_session::command::{apply, Command};
use fairank_session::{present, Response, Session};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_mode(&args[1..]),
        Some("connect") => return connect_mode(&args[1..]),
        _ => {}
    }

    // REPL and script output goes through one locked handle. A reader that
    // closes the pipe early (`fairank script.frk | head -1`) ends the run
    // quietly instead of panicking in `println!`.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if let Err(e) = run_local(&args, &mut out) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("output error: {e}");
            std::process::exit(1);
        }
    }
}

/// The local modes (REPL, script, demo) over one in-process session,
/// writing to `out`. Only an output error is returned; command errors are
/// reported on stderr (script mode exits 1 on the first).
fn run_local(args: &[String], out: &mut impl Write) -> std::io::Result<()> {
    let mut session = Session::new();
    if args.iter().any(|a| a == "demo") {
        session
            .add_dataset("table1", fairank_data::paper::table1_dataset())
            .expect("fresh session");
        session
            .add_function("paper-f", fairank_data::paper::table1_scoring())
            .expect("fresh session");
        writeln!(
            out,
            "demo mode: dataset `table1` and function `paper-f` preloaded"
        )?;
    }

    // Script mode: any non-"demo" argument is a command file, executed
    // line by line (lines starting with `#` are comments).
    let scripts: Vec<&String> = args.iter().filter(|a| *a != "demo").collect();
    if !scripts.is_empty() {
        for path in scripts {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read script {path}: {e}");
                    std::process::exit(1);
                }
            };
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                writeln!(out, "fairank> {line}")?;
                match Command::parse(line).and_then(|c| apply(&mut session, c)) {
                    Ok(Response::Quit) => return Ok(()),
                    Ok(response) => writeln!(out, "{}", present::render(&response))?,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        return Ok(());
    }

    let stdin = std::io::stdin();
    writeln!(out, "FaiRank — fairness of ranking explorer (type `help`)")?;
    loop {
        write!(out, "fairank> ")?;
        out.flush()?;
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Command::parse(line).and_then(|c| apply(&mut session, c)) {
            Ok(Response::Quit) => break,
            Ok(response) => writeln!(out, "{}", present::render(&response))?,
            Err(e) => eprintln!("error: {e}"),
        }
    }
    Ok(())
}

/// Reads the value following `--<key>` in an argument list.
fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses a duration flag value: `50ms`, `2s`, or a bare number of
/// milliseconds (`250`).
fn parse_duration(raw: &str) -> Option<std::time::Duration> {
    if let Some(ms) = raw.strip_suffix("ms") {
        ms.trim().parse::<u64>().ok().map(std::time::Duration::from_millis)
    } else if let Some(secs) = raw.strip_suffix('s') {
        secs.trim().parse::<u64>().ok().map(std::time::Duration::from_secs)
    } else {
        raw.parse::<u64>().ok().map(std::time::Duration::from_millis)
    }
}

/// The `serve` flags: name, value name (empty for a switch) and help. The
/// usage text and the argument check both read this list.
#[rustfmt::skip]
const SERVE_FLAGS: &[(&str, &str, &str)] = &[
    ("--addr", "host:port", "bind address (default 127.0.0.1:4915; port 0 = ephemeral)"),
    ("--workers", "n", "compute requests that run at once; two more threads serve
                       light commands (default: host cores - 1)"),
    ("--queue-depth", "n", "compute requests that may wait beyond the running ones:
                       once workers + n are in flight (queued or running),
                       new ones are refused with the structured `overloaded`
                       error (default: 2x workers)"),
    ("--session-cap", "n", "max in-flight compute requests per session; extras are
                       refused with `overloaded` (default: unlimited)"),
    ("--session-queue-cap", "n", "pending jobs one session may hold in the worker pool's
                       fair queue before refusal with `overloaded`;
                       bounds how far one session can crowd the backlog
                       (default: unlimited per session)"),
    ("--cell-cache-cap", "n", "entries the shared cell cache (repeated `quantify` and
                       scenario-grid cells) holds before LRU eviction
                       (default: 4096; 0 = disabled)"),
    ("--request-timeout", "dur", "per-request compute deadline, e.g. 500ms or 2s (bare
                       number = milliseconds); expired requests return the
                       structured `deadline_exceeded` error with partial stats"),
    ("--session-ttl", "secs", "evict sessions idle longer than this"),
    ("--allow-fs", "", "permit load/save/open/export/scenario-file from the wire"),
    ("--admin", "", "permit registry admin (sessions/evict) from the wire"),
    ("--help", "", "print this text"),
];

/// The `serve` usage text: every flag of [`SERVE_FLAGS`], then the request
/// bounds of the command table.
fn serve_usage() -> String {
    let mut out = String::from("usage: fairank serve [flags]\n\n");
    for (flag, value, help) in SERVE_FLAGS {
        out.push_str(&format!("  {:<19}  {help}\n", format!("{flag} {value}")));
    }
    format!("{out}\n{}", fairank_session::command::bounds_text())
}

/// Exits 2 with the usage text on the first argument that is neither a
/// documented `serve` flag nor the value after a value-taking one: a
/// typo'd flag must not be silently dropped in favour of a default.
fn check_serve_args(args: &[String]) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match SERVE_FLAGS.iter().find(|(flag, _, _)| flag == arg) {
            Some((_, "", _)) => continue,
            Some(_) if rest.next().is_some() => continue,
            Some(_) => eprintln!("{arg} needs a value\n{}", serve_usage()),
            None => eprintln!("unknown flag {arg}\n{}", serve_usage()),
        }
        std::process::exit(2);
    }
}

/// `fairank serve` — the multi-session JSON-lines server. `--addr` with
/// port 0 picks an ephemeral port; the actual address is printed as
/// `listening on <addr>`. See [`SERVE_FLAGS`] for the operational-limit
/// flags (`--queue-depth`, `--session-cap`, `--request-timeout`) and the
/// structured errors they map to.
fn serve_mode(args: &[String]) {
    if args.iter().any(|a| a == "--help") {
        print!("{}", serve_usage());
        return;
    }
    check_serve_args(args);
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:4915");
    // A count flag's value, or `default` when the flag is absent.
    let count = |flag: &str, default: usize| -> usize {
        flag_value(args, flag).map_or(default, |raw| {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("{flag} must be a number, got {raw:?}");
                std::process::exit(2);
            })
        })
    };
    let request_timeout = flag_value(args, "--request-timeout").map(|raw| {
        match parse_duration(raw) {
            Some(d) if !d.is_zero() => d,
            _ => {
                eprintln!(
                    "--request-timeout must be a duration like 500ms or 2s, got {raw:?}"
                );
                std::process::exit(2);
            }
        }
    });
    let session_ttl = flag_value(args, "--session-ttl").map(|raw| {
        match raw.parse::<u64>() {
            Ok(secs) if secs > 0 => std::time::Duration::from_secs(secs),
            _ => {
                eprintln!("--session-ttl must be a positive number of seconds, got {raw:?}");
                std::process::exit(2);
            }
        }
    });
    let config = ServerConfig {
        workers: count("--workers", 0),
        queue_depth: count("--queue-depth", 0),
        allow_fs_commands: args.iter().any(|a| a == "--allow-fs"),
        admin: args.iter().any(|a| a == "--admin"),
        session_ttl,
        request_timeout,
        session_inflight_cap: count("--session-cap", 0),
        cell_cache_cap: count("--cell-cache-cap", fairank_session::CellCache::DEFAULT_CAP),
        session_queue_cap: count("--session-queue-cap", 0),
    };
    let server = match Server::bind(addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let local = server.local_addr().expect("bound listener has an address");
    println!("listening on {local}");
    std::io::stdout().flush().ok();
    server.run();
}

const CONNECT_USAGE: &str = "usage: fairank connect <host:port> [--session name] \
[--retries n] [--stream]

  --session name   session to attach to (default \"default\")
  --retries n      bounded retries on the server's `overloaded` refusal,
                   with exponential backoff + jitter, honoring the reply's
                   retry_after_ms hint (default 5; 0 disables retrying)
  --stream         request chunked scenario replies: each plan cell's stats
                   render the moment the cell finishes, ahead of the final
                   report (non-scenario commands are unaffected)";

/// How many times connect mode re-sends a request refused with
/// `overloaded` before surfacing the error.
const DEFAULT_CONNECT_RETRIES: u32 = 5;

/// The backoff before retry attempt `attempt` (0-based): the server's
/// `retry_after_ms` hint (or 50 ms) doubled per attempt, capped at 2 s,
/// plus up to 50% uniform jitter so synchronized clients don't re-stampede
/// the queue in lockstep.
fn retry_backoff(
    attempt: u32,
    hint_ms: Option<u64>,
    rng: &mut rand::rngs::StdRng,
) -> std::time::Duration {
    use rand::Rng;
    let base = hint_ms.unwrap_or(50).max(1);
    let scaled = base.saturating_mul(1u64 << attempt.min(16)).min(2_000);
    let jitter = rng.gen_range(0..=scaled / 2);
    std::time::Duration::from_millis(scaled + jitter)
}

/// One line of streamed scenario progress: the cell's label, measured
/// unfairness (when the cell quantifies), and wall-clock.
fn render_chunk(stat: &fairank_session::CellStat) -> String {
    match stat.unfairness {
        Some(u) => format!(
            "  … {} — unfairness {:.4} ({} µs)",
            stat.label, u, stat.elapsed_us
        ),
        None => format!("  … {} ({} µs)", stat.label, stat.elapsed_us),
    }
}

/// `fairank connect <addr> [--session name] [--retries n] [--stream]` — a
/// remote REPL: each input line becomes one wire request; structured
/// replies render locally. Transient `overloaded` refusals are retried
/// with exponential backoff + jitter (bounded; see `--retries`). Under
/// `--stream`, scenario requests opt into chunked replies and each cell's
/// stats render as the server finishes it.
fn connect_mode(args: &[String]) {
    if args.iter().any(|a| a == "--help") {
        println!("{CONNECT_USAGE}");
        return;
    }
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{CONNECT_USAGE}");
        std::process::exit(2);
    };
    let session = flag_value(args, "--session").unwrap_or(fairank_service::DEFAULT_SESSION);
    let stream_replies = args.iter().any(|a| a == "--stream");
    let retries = flag_value(args, "--retries")
        .map(|raw| match raw.parse::<u32>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--retries must be a number, got {raw:?}");
                std::process::exit(2);
            }
        })
        .unwrap_or(DEFAULT_CONNECT_RETRIES);
    let stream = match TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let stdin = std::io::stdin();
    // Jitter source for retry backoff: seeded from the wall clock so
    // concurrent clients desynchronize (determinism is worthless here —
    // lockstep retries are exactly the failure mode jitter prevents).
    let clock_seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x5eed)
        ^ u64::from(std::process::id());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(clock_seed);
    println!("connected to {addr} (session {session:?}; type `help`, `quit` to leave)");
    'repl: loop {
        print!("fairank> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut request = Request::in_session(session, line);
        if stream_replies {
            request = request.with_stream();
        }
        let payload = serde_json::to_string(&request).expect("request serializes");
        let mut attempt: u32 = 0;
        'attempt: loop {
            if writer
                .write_all(payload.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .is_err()
            {
                eprintln!("connection lost");
                std::process::exit(1);
            }
            // One request can produce many frames: any number of
            // mid-stream `{"chunk": ..}` lines, then the terminal reply.
            loop {
                let mut reply_line = String::new();
                match reader.read_line(&mut reply_line) {
                    Ok(0) => {
                        eprintln!("server closed the connection");
                        break 'repl;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("connection error: {e}");
                        std::process::exit(1);
                    }
                }
                let reply = match serde_json::from_str::<Frame>(reply_line.trim()) {
                    Ok(Frame::chunk(stat)) => {
                        println!("{}", render_chunk(&stat));
                        continue;
                    }
                    Ok(frame) => frame.into_reply().expect("non-chunk frames are terminal"),
                    Err(e) => {
                        eprintln!("malformed reply: {e}");
                        break 'attempt;
                    }
                };
                match reply.into_result() {
                    Ok(Response::Quit) => break 'repl,
                    Ok(response) => println!("{}", present::render(&response)),
                    // Transient refusal: the server is at capacity. Back
                    // off (honoring its retry_after_ms hint) and re-send
                    // the same request, a bounded number of times.
                    Err(e) if e.kind == "overloaded" && attempt < retries => {
                        let pause = retry_backoff(attempt, e.retry_after_ms, &mut rng);
                        attempt += 1;
                        eprintln!(
                            "server overloaded; retry {attempt}/{retries} in {} ms",
                            pause.as_millis()
                        );
                        std::thread::sleep(pause);
                        continue 'attempt;
                    }
                    Err(e) => eprintln!("error: {}", e.message),
                }
                break 'attempt;
            }
        }
    }
}
