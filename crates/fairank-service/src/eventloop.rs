//! The readiness-based serving front end: one IO thread multiplexes every
//! connection through the vendored [`polling`] shim (epoll on Linux,
//! `poll(2)` elsewhere).
//!
//! The loop spends exactly one thread on IO regardless of connection
//! count. Each connection is a small state machine:
//!
//! ```text
//! read-accumulate ──(complete line)──▶ dispatch ──(completion)──▶ write-drain
//!        ▲                                                             │
//!        └──────────────────(reply flushed, next pipelined line)◀──────┘
//! ```
//!
//! * **read-accumulate** — readable sockets are drained into a per
//!   connection buffer; a newline completes a request line. EOF or a read
//!   error here *is* the disconnect signal: the in-flight request's cancel
//!   token fires with [`CancelReason::Disconnected`].
//! * **dispatch** — a parsed request passes admission right here on the
//!   IO thread ([`submit`]: parse, policy, session lease, caps), so a
//!   refusal is written back at once; an admitted request becomes one job
//!   on the server's [`WorkerPool`](crate::pool::WorkerPool), queued
//!   fairly under its session. One request per connection is in flight at
//!   a time; pipelined lines wait buffered.
//! * **write-drain** — completions (and streamed `{"chunk": ..}` lines)
//!   come back from pool threads over a channel, are serialized into the
//!   connection's write buffer, and drain as the socket accepts them; the
//!   sending thread wakes the poller through its notify pipe.
//!
//! The loop spawns no thread of its own. It exits when the server's stop
//! flag rises; a draining server refuses new connections and new requests
//! with structured `shutting_down` replies while still flushing in-flight
//! work. The IO thread owns every connection, so its teardown closes them
//! all — idle ones included.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

use polling::{Event, Poller};

use fairank_core::cancel::{CancelReason, CancelToken, RunBudget};
use fairank_core::fault;
use fairank_session::Response;

use crate::protocol::{Frame, Reply, Request};
use crate::server::{submit, ChunkSink, Deliver, RequestContext, Server, MAX_REQUEST_BYTES};

/// The poller key under which the accept listener registers. One below
/// `usize::MAX`, which the shim reserves for its notify pipe.
const LISTENER_KEY: usize = usize::MAX - 1;

/// How long one `wait` may block. The poller is woken early by socket
/// readiness and completion notifies; the tick only bounds how stale the
/// stop/draining flags can get on a totally idle server.
const TICK: Duration = Duration::from_millis(100);

/// Socket read granularity.
const READ_CHUNK: usize = 16 * 1024;

/// Stop reading a connection whose unconsumed buffer reaches this size
/// (a heavily pipelining client); read interest is dropped until the
/// buffered lines drain, and TCP backpressure holds the rest. Twice the
/// request cap: one maximal in-progress line plus buffered whole lines.
const READ_HIGH_WATER: u64 = 2 * MAX_REQUEST_BYTES;

/// What pool threads send back to the IO thread.
enum Completion {
    /// A streamed cell-stat line (already serialized), mid-request.
    Chunk { conn: usize, line: String },
    /// The request's terminal reply.
    Reply { conn: usize, reply: Reply },
}

/// Per-connection state machine.
struct Conn {
    key: usize,
    stream: TcpStream,
    /// Bytes read but not yet consumed as request lines.
    read_buf: Vec<u8>,
    /// Serialized reply bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// The in-flight request's cancel token (at most one per connection).
    inflight: Option<CancelToken>,
    /// The peer closed its write half (EOF seen).
    peer_eof: bool,
    /// Close once `write_buf` drains (quit, refusals, torn writes).
    close_after_drain: bool,
    /// Interest last registered with the poller, to skip no-op modifies.
    interest: (bool, bool),
    /// Whether the fd is currently registered with the poller. Interest
    /// `(false, false)` deregisters entirely — the epoll backend always
    /// arms `EPOLLRDHUP`/`EPOLLHUP`, so a merely-muted half-closed peer
    /// would otherwise ring the level-triggered bell every tick for the
    /// whole life of its in-flight request.
    registered: bool,
}

impl Conn {
    fn new(key: usize, stream: TcpStream) -> Conn {
        Conn {
            key,
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            inflight: None,
            peer_eof: false,
            close_after_drain: false,
            interest: (true, false),
            registered: false,
        }
    }

    /// Serializes one reply line into the write buffer.
    fn queue_reply(&mut self, reply: &Reply) {
        if let Ok(text) = serde_json::to_string(reply) {
            self.write_buf.extend_from_slice(text.as_bytes());
            self.write_buf.push(b'\n');
        }
    }
}

/// What one round of socket reads produced.
enum ReadEnd {
    /// Drained to `WouldBlock`; the peer is still there.
    Open,
    /// EOF: the peer closed its write half (buffered bytes retained).
    Eof,
    /// Hard error: the connection is gone.
    Dead,
}

/// Reads everything currently available into the connection's buffer.
fn fill_read_buf(conn: &mut Conn) -> ReadEnd {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return ReadEnd::Eof,
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadEnd::Open,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadEnd::Dead,
        }
    }
}

/// Writes as much buffered output as the socket accepts right now.
fn flush_write(conn: &mut Conn) -> std::io::Result<()> {
    while !conn.write_buf.is_empty() {
        match conn.stream.write(&conn.write_buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.write_buf.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes one reply line on a blocking socket, ignoring write failures
/// (the connection is being refused either way).
fn send_reply(writer: &mut TcpStream, reply: &Reply) {
    if let Ok(text) = serde_json::to_string(reply) {
        let _ = writer
            .write_all(text.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
    }
}

/// Extracts the next complete line (newline included) from the buffer.
fn take_line(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    let end = buf.iter().position(|&b| b == b'\n')?;
    let rest = buf.split_off(end + 1);
    Some(std::mem::replace(buf, rest))
}

/// Runs the event loop on the calling thread until the server's stop flag
/// rises. Errors are startup-only (poller creation / listener
/// registration); per-connection failures drop that connection.
pub(crate) fn run(server: &Server) -> std::io::Result<()> {
    server.listener.set_nonblocking(true)?;
    let poller = Arc::new(Poller::new()?);
    poller.add(&server.listener, Event::readable(LISTENER_KEY))?;

    let (completions, rx) = std::sync::mpsc::channel::<Completion>();
    let mut lp = EventLoop {
        server,
        poller: Arc::clone(&poller),
        completions,
        conns: HashMap::new(),
        next_key: 0,
    };
    let mut events: Vec<Event> = Vec::new();
    while !server.state.stop.load(Ordering::SeqCst) {
        let _ = poller.wait(&mut events, Some(TICK))?;
        for completion in rx.try_iter() {
            lp.apply_completion(completion);
        }
        // `wait` hands back its own buffer; take it so event handling can
        // borrow `lp` mutably.
        let batch = std::mem::take(&mut events);
        for event in &batch {
            if event.key == LISTENER_KEY {
                lp.accept_ready();
            } else {
                lp.conn_event(event.key, event.readable, event.writable);
            }
        }
        events = batch;
    }

    // Teardown: release every connection, cancelling its in-flight
    // request. The pool drains what it already accepted when the server
    // drops it; those completions have nowhere to go and are dropped.
    for (_, conn) in lp.conns.drain() {
        let _ = poller.delete(&conn.stream);
        if let Some(token) = conn.inflight {
            token.cancel(CancelReason::Disconnected);
        }
    }
    let _ = poller.delete(&server.listener);
    Ok(())
}

struct EventLoop<'a> {
    server: &'a Server,
    poller: Arc<Poller>,
    /// Cloned into every admitted request's reply and chunk callbacks.
    completions: Sender<Completion>,
    conns: HashMap<usize, Conn>,
    next_key: usize,
}

impl EventLoop<'_> {
    fn alloc_key(&mut self) -> usize {
        // Monotonic, never reused: a stale completion can never be
        // delivered to a different connection that inherited the key.
        let key = self.next_key;
        self.next_key = self.next_key.wrapping_add(1);
        if self.next_key >= LISTENER_KEY {
            self.next_key = 0;
        }
        key
    }

    /// Accepts every connection currently pending on the listener.
    fn accept_ready(&mut self) {
        loop {
            match self.server.listener.accept() {
                Ok((mut stream, _)) => {
                    if self.server.state.stop.load(Ordering::SeqCst) {
                        return; // shutting down; the wake-up connection lands here
                    }
                    if self.server.state.draining.load(Ordering::SeqCst) {
                        // A draining server refuses new connections with a
                        // structured reason instead of a silent close. The
                        // reply is one short line into an empty socket
                        // buffer; the blocking-write window is nil.
                        let _ = stream.set_nonblocking(false);
                        send_reply(&mut stream, &Reply::shutting_down());
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Request/reply lines are small; without this Nagle's
                    // algorithm + delayed ACK adds ~40 ms to every reply.
                    let _ = stream.set_nodelay(true);
                    let key = self.alloc_key();
                    let mut conn = Conn::new(key, stream);
                    match self.poller.add(&conn.stream, Event::readable(key)) {
                        Ok(()) => {
                            conn.registered = true;
                            self.conns.insert(key, conn);
                        }
                        Err(_) => self.drop_conn(conn),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Handles readiness on one connection.
    fn conn_event(&mut self, key: usize, readable: bool, writable: bool) {
        let Some(mut conn) = self.conns.remove(&key) else {
            return; // already closed this tick
        };
        let mut alive = true;
        if readable && !conn.peer_eof {
            match fill_read_buf(&mut conn) {
                ReadEnd::Open => {}
                ReadEnd::Eof => {
                    conn.peer_eof = true;
                    // Disconnect detection, the event-loop way: EOF is a
                    // readiness event, and an abandoned in-flight request
                    // stops burning workers via its cancel token.
                    if let Some(token) = &conn.inflight {
                        token.cancel(CancelReason::Disconnected);
                    }
                }
                ReadEnd::Dead => alive = false,
            }
        }
        if alive {
            self.process_lines(&mut conn);
        }
        let _ = writable; // settle() always attempts the flush
        self.settle(conn, alive);
    }

    /// Applies one pool completion to its connection.
    fn apply_completion(&mut self, completion: Completion) {
        match completion {
            Completion::Chunk { conn: key, line } => {
                let Some(mut conn) = self.conns.remove(&key) else {
                    return; // client vanished mid-stream
                };
                conn.write_buf.extend_from_slice(line.as_bytes());
                conn.write_buf.push(b'\n');
                self.settle(conn, true);
            }
            Completion::Reply { conn: key, reply } => {
                let Some(mut conn) = self.conns.remove(&key) else {
                    return;
                };
                conn.inflight = None;
                // Fault injection (debug builds only; `fault::active` is a
                // constant `false` in release, so the branches compile
                // away).
                if fault::active(fault::DROP_CONN) {
                    self.drop_conn(conn); // vanish without a reply
                    return;
                }
                if fault::active(fault::TORN_WRITE) {
                    if let Ok(text) = serde_json::to_string(&reply) {
                        let half = text.len() / 2;
                        conn.write_buf.extend_from_slice(&text.as_bytes()[..half]);
                    }
                    conn.close_after_drain = true;
                    self.settle(conn, true);
                    return;
                }
                if matches!(reply, Reply::ok(Response::Quit)) {
                    // `quit` ends the connection, not the server.
                    conn.close_after_drain = true;
                }
                conn.queue_reply(&reply);
                if !conn.close_after_drain {
                    // The reply is decided; a pipelined next request may
                    // dispatch now.
                    self.process_lines(&mut conn);
                }
                self.settle(conn, true);
            }
        }
    }

    /// Consumes complete request lines while the connection has no request
    /// in flight, enqueueing at most one for dispatch.
    fn process_lines(&mut self, conn: &mut Conn) {
        while conn.inflight.is_none() && !conn.close_after_drain {
            match take_line(&mut conn.read_buf) {
                Some(line) => {
                    if line.len() as u64 > MAX_REQUEST_BYTES {
                        conn.queue_reply(&Reply::request_too_large(MAX_REQUEST_BYTES));
                        conn.close_after_drain = true;
                        return;
                    }
                    self.handle_line(conn, &line);
                }
                None => {
                    if conn.read_buf.len() as u64 >= MAX_REQUEST_BYTES {
                        // A line still growing past the cap: refuse now,
                        // close once the refusal drains (the rest of the
                        // line cannot be resynchronized).
                        conn.queue_reply(&Reply::request_too_large(MAX_REQUEST_BYTES));
                        conn.close_after_drain = true;
                        conn.read_buf.clear();
                    } else if conn.peer_eof && !conn.read_buf.is_empty() {
                        // EOF mid-line: process the unterminated trailing
                        // request as if the peer had terminated it.
                        let line = std::mem::take(&mut conn.read_buf);
                        self.handle_line(conn, &line);
                    }
                    return;
                }
            }
        }
    }

    /// Parses one request line and submits it to the pool (or answers
    /// it straight from the IO thread for protocol errors and requests
    /// that admission answers or refuses).
    fn handle_line(&mut self, conn: &mut Conn, raw: &[u8]) {
        let Ok(text) = std::str::from_utf8(raw) else {
            conn.queue_reply(&Reply::protocol_error("request line is not valid UTF-8"));
            conn.close_after_drain = true;
            return;
        };
        let line = text.trim();
        if line.is_empty() {
            return;
        }
        let request = match serde_json::from_str::<Request>(line) {
            Ok(request) => request,
            Err(e) => {
                conn.queue_reply(&Reply::protocol_error(format!("malformed request: {e}")));
                return;
            }
        };
        // Assemble the request's cancellation scope: deadline (when
        // configured), a per-request token the EOF path fires, and the
        // server's shutdown token.
        let token = CancelToken::new();
        let mut budget = RunBudget::unlimited()
            .with_token(token.clone())
            .with_token(self.server.state.shutdown_token.clone());
        if let Some(timeout) = self.server.request_timeout {
            budget = budget.with_timeout(timeout);
        }
        let key = conn.key;
        let chunk_sink = request.wants_stream().then(|| {
            // Chunks ride the same channel as the terminal reply, and a
            // cell sends its chunk before it counts as finished, so every
            // chunk lands before the final line.
            let tx = self.completions.clone();
            let poller = Arc::clone(&self.poller);
            ChunkSink::new(move |stat| {
                if let Ok(line) = serde_json::to_string(&Frame::chunk(stat.clone())) {
                    if tx.send(Completion::Chunk { conn: key, line }).is_ok() {
                        let _ = poller.notify();
                    }
                }
            })
        });
        let ctx = RequestContext {
            budget,
            session_inflight_cap: self.server.session_inflight_cap,
            draining: self.server.state.draining.load(Ordering::SeqCst),
            chunk_sink,
        };
        let deliver: Deliver = {
            let tx = self.completions.clone();
            let poller = Arc::clone(&self.poller);
            let state = Arc::clone(&self.server.state);
            Box::new(move |reply| {
                if tx.send(Completion::Reply { conn: key, reply }).is_ok() {
                    let _ = poller.notify();
                }
                state.active_requests.fetch_sub(1, Ordering::SeqCst);
            })
        };
        let server = self.server;
        server.state.active_requests.fetch_add(1, Ordering::SeqCst);
        match submit(
            &server.registry,
            &server.pool,
            request,
            server.policy,
            &ctx,
            deliver,
        ) {
            None => {
                if conn.peer_eof {
                    // The peer already hung up; don't let the request
                    // burn compute nobody will read.
                    token.cancel(CancelReason::Disconnected);
                }
                conn.inflight = Some(token);
            }
            // Answered or refused at admission (structured backpressure
            // included): the connection stays up.
            Some(reply) => {
                server.state.active_requests.fetch_sub(1, Ordering::SeqCst);
                conn.queue_reply(&reply);
            }
        }
    }

    /// Common epilogue: opportunistically flush, decide whether the
    /// connection lives on, and (re)register poller interest.
    fn settle(&mut self, mut conn: Conn, mut alive: bool) {
        if alive && !conn.write_buf.is_empty() && flush_write(&mut conn).is_err() {
            alive = false;
        }
        if alive && conn.write_buf.is_empty() {
            if conn.close_after_drain {
                alive = false;
            } else if conn.peer_eof && conn.inflight.is_none() {
                // Nothing buffered, nothing running, peer gone: done.
                // (Any trailing unterminated line was handled when EOF
                // was observed.)
                alive = false;
            }
        }
        if !alive {
            self.drop_conn(conn);
            return;
        }
        let interest = (
            !conn.peer_eof && (conn.read_buf.len() as u64) < READ_HIGH_WATER,
            !conn.write_buf.is_empty(),
        );
        let event = Event {
            key: conn.key,
            readable: interest.0,
            writable: interest.1,
        };
        let ok = match (conn.registered, interest) {
            // Nothing to hear: deregister so the always-armed hangup
            // bits can't ring the level-triggered bell every tick.
            (true, (false, false)) => {
                conn.registered = false;
                self.poller.delete(&conn.stream).is_ok()
            }
            (false, (false, false)) => true,
            (false, _) => {
                conn.registered = true;
                conn.interest = interest;
                self.poller.add(&conn.stream, event).is_ok()
            }
            (true, _) if interest != conn.interest => {
                conn.interest = interest;
                self.poller.modify(&conn.stream, event).is_ok()
            }
            (true, _) => true,
        };
        if !ok {
            self.drop_conn(conn);
            return;
        }
        self.conns.insert(conn.key, conn);
    }

    /// Releases a connection: poller registration and any in-flight
    /// compute (cancelled as disconnected).
    fn drop_conn(&mut self, conn: Conn) {
        let _ = self.poller.delete(&conn.stream);
        if let Some(token) = conn.inflight {
            token.cancel(CancelReason::Disconnected);
        }
    }
}
