//! The readiness-based connection engine behind [`Server`]: one
//! acceptor thread plus N event-loop workers, each owning a set of
//! **non-blocking** connections it multiplexes with `vendor/poll`
//! (raw `ppoll`, no libc). Replaces the thread-per-connection model —
//! and its 100 ms `set_read_timeout` idle spin — with true readiness
//! wakeups: an idle connection costs zero syscalls until bytes arrive
//! or the peer hangs up.
//!
//! ## Buffer ownership and data flow
//!
//! ```text
//! acceptor ──(stream+slot)──▶ worker intake ──▶ Conn {
//!     read:  kernel ─▶ LineScanner (bounded, incremental) ─▶ pending queue
//!     serve: pending ─▶ Backend::submit_map ─▶ scheduler / shard queues
//!     done:  completions channel ─(ConnSink wake)─▶ write buffer
//!     write: write buffer ─▶ kernel, drained on POLLOUT readiness
//! }
//! ```
//!
//! Every buffer is owned by exactly one connection and only touched by
//! the worker that owns that connection, so a half-written line can
//! never interleave into another connection's stream. Backpressure
//! points, in order: the per-connection pending queue (reads pause at
//! [`MAX_PENDING`] parsed lines), the write buffer (reads pause and no
//! further pending request is started above `max_write_buffer`), and
//! the backend's bounded queues (a full queue sheds the request with a
//! typed `overloaded` error instead of stalling the worker).
//!
//! Responses stay strictly serialized per connection: one request's
//! items and `map_done` are fully emitted before the next pending line
//! is served, exactly like the old one-thread-per-connection loop.
//!
//! ## Disconnects
//!
//! A peer that closes its read side mid-batch surfaces as a write
//! error (or `POLLERR`); the worker then flips the connection's shared
//! cancellation flag so the scheduler skips its still-queued jobs
//! (counted in `stats` as `cancelled_items`) and drops the connection
//! state. A peer that merely shuts down its *write* side (EOF on read)
//! still receives every in-flight response before the close.
//!
//! [`Server`]: crate::Server

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hatt_trace::{now_ns, TraceCtx, Tracer};

use crate::error::ServiceError;
use crate::metrics::{ConnectionSlot, Metrics};
use crate::proto::{
    ItemError, ItemPayload, MapDone, MapItem, MapRequest, RequestLine, StatsReply, TraceDumpReply,
    TraceDumpRequest,
};

/// Parsed-but-unserved lines a connection may queue before its reads
/// pause (resumed as the queue drains).
const MAX_PENDING: usize = 64;

/// Most bytes one connection may consume per readiness cycle, so a
/// blasting peer cannot monopolize its worker's loop.
const READ_QUANTUM: usize = 256 << 10;

/// What serves requests behind the reactor: the local scheduler
/// ([`Server::bind`]) or the consistent-hash shard router
/// ([`Server::bind_router`]). Submissions must **never block** — they
/// run on an event-loop worker.
///
/// [`Server::bind`]: crate::Server::bind
/// [`Server::bind_router`]: crate::Server::bind_router
pub(crate) trait Backend: Send + Sync + 'static {
    /// The shared counters the reactor layers its own onto.
    fn metrics(&self) -> &Arc<Metrics>;
    /// The span collector (disabled unless the server traces).
    fn tracer(&self) -> &Tracer;
    /// Starts serving a batch request; one [`MapItem`] per item will
    /// arrive through `sink`. Returns how many items to await. `trace`
    /// is the request's context parented on its root span; the backend
    /// nests its own spans (queue wait, forward hop, …) beneath it. The
    /// backend owns the request: its Hamiltonians move into the queued
    /// work, never copied. The one submission method: a `map_delta`
    /// line arrives here as the `map_request` it names.
    fn submit_map(
        &self,
        req: MapRequest,
        sink: &ConnSink,
        trace: Option<TraceCtx>,
    ) -> Result<usize, ServiceError>;
    /// Adds the fields this backend owns to a `stats` reply whose shared
    /// fields [`Metrics::stats_reply`] filled (answered inline — must
    /// not block on I/O).
    fn stats(&self, reply: &mut StatsReply);
    /// Answers a span-tree dump from the collector (answered inline).
    fn trace_dump(&self, req: &TraceDumpRequest) -> TraceDumpReply {
        let tracer = self.tracer();
        TraceDumpReply::from_spans(
            &req.id,
            tracer.is_enabled(),
            &tracer.snapshot(),
            req.max_traces,
        )
    }
    /// Pre-teardown hook, called once after every worker has drained:
    /// join internal threads, flush persistent tiers.
    fn drain(&self);
}

/// Reactor sizing, shared by acceptor and workers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReactorLimits {
    pub(crate) max_line_bytes: usize,
    pub(crate) max_connections: usize,
    /// Above this many buffered response bytes a connection stops
    /// reading and stops starting new pending requests — the slow
    /// reader's cost stays on the slow reader.
    pub(crate) max_write_buffer: usize,
    /// How long shutdown waits for in-flight responses to flush before
    /// abandoning unresponsive peers.
    pub(crate) drain_grace: Duration,
}

/// Completion path into an event-loop worker: the scheduler (or a shard
/// forwarder) pushes finished items here; each push wakes the owning
/// worker. Cloned into every job of the connection's in-flight request.
#[derive(Debug, Clone)]
pub(crate) struct ConnSink {
    id: u64,
    tx: Sender<(u64, MapItem)>,
    waker: Arc<poll::Waker>,
    cancelled: Arc<AtomicBool>,
}

impl ConnSink {
    /// The sink of a fresh connection owned by `worker`.
    pub(crate) fn new(worker: &WorkerShared) -> ConnSink {
        // One counter for every event loop: the id is also the
        // connection's fairness bucket in the scheduler, so connections
        // on different loops must never share one. Id 0 is the waker's
        // poll slot.
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        ConnSink {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            tx: worker.completions_tx.clone(),
            waker: Arc::clone(&worker.waker),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The owning connection's id, unique within the process.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Delivers one completed item (dropped silently when the
    /// connection is already gone) and wakes the owning worker.
    pub(crate) fn send(&self, item: MapItem) {
        if self.cancelled.load(Ordering::Relaxed) {
            return;
        }
        let _ = self.tx.send((self.id, item));
        self.waker.wake();
    }

    /// Whether the owning connection hung up — the scheduler's cue to
    /// skip this job without running it.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Marks the owning connection as gone: queued work is skipped and
    /// late items are dropped.
    pub(crate) fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }
}

/// One complete scan result of the incremental line scanner.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Scanned {
    /// A complete line within the size cap (terminator stripped).
    Line(String),
    /// A line that exceeded the cap; its bytes were discarded as they
    /// streamed in, never buffered.
    Oversize,
    /// A complete line that is not UTF-8, which JSON exchanged between
    /// systems must be (RFC 8259 §8.1): the message it is refused with.
    /// Decoding it lossily would rewrite it, its id included, and serve
    /// a request the client never sent.
    NotUtf8(String),
}

/// The bounded incremental line scanner: feed it arbitrary chunks, get
/// complete lines out. The non-blocking successor of the old
/// `read_line_bounded` — same cap semantics (an over-long line is
/// streamed to the bin and reported as [`Scanned::Oversize`]), but
/// driven by readiness instead of blocking reads.
#[derive(Debug)]
pub(crate) struct LineScanner {
    buf: Vec<u8>,
    discarding: bool,
    max: usize,
}

impl LineScanner {
    pub(crate) fn new(max: usize) -> LineScanner {
        LineScanner {
            buf: Vec::new(),
            discarding: false,
            max,
        }
    }

    /// Consumes one chunk, appending every completed line to `out`.
    pub(crate) fn push(&mut self, mut chunk: &[u8], out: &mut Vec<Scanned>) {
        while let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            let (head, rest) = chunk.split_at(pos);
            chunk = &rest[1..];
            if self.discarding || self.buf.len() + head.len() > self.max {
                self.discarding = false;
                self.buf.clear();
                out.push(Scanned::Oversize);
                continue;
            }
            self.buf.extend_from_slice(head);
            if self.buf.last() == Some(&b'\r') {
                self.buf.pop();
            }
            out.push(match std::str::from_utf8(&self.buf) {
                Ok(line) => Scanned::Line(line.to_owned()),
                Err(e) => Scanned::NotUtf8(format!("request line is not UTF-8: {e}")),
            });
            self.buf.clear();
        }
        if !self.discarding {
            if self.buf.len() + chunk.len() > self.max {
                self.discarding = true;
                self.buf.clear();
            } else {
                self.buf.extend_from_slice(chunk);
            }
        }
    }
}

/// The per-connection outbound buffer, drained on write readiness. One
/// owner, one stream — lines are appended whole, so partial writes can
/// only ever split *this* connection's bytes, never another's.
#[derive(Debug, Default)]
struct WriteBuf {
    buf: VecDeque<u8>,
}

impl WriteBuf {
    fn push_line(&mut self, line: &str) {
        self.buf.extend(line.as_bytes());
        self.buf.push_back(b'\n');
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes as much as the socket takes right now. `Ok(())` on
    /// progress or `WouldBlock`; a real error marks the peer dead.
    fn flush_into(&mut self, mut stream: &TcpStream) -> std::io::Result<()> {
        while !self.buf.is_empty() {
            let (head, _) = self.buf.as_slices();
            match stream.write(head) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ))
                }
                Ok(n) => drop(self.buf.drain(..n)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The trace identity one traced request carries through the reactor.
/// The root span's ID is allocated at parse time (children reference it
/// before it completes) and recorded when the `map_done` line buffers.
#[derive(Clone, Copy)]
struct ReqTrace {
    trace_id: u64,
    /// The request's root span (parent of every server-side span).
    root_span: u64,
    /// What the root span itself parents onto: 0, or the forwarding
    /// router's hop span when the context arrived over the wire.
    root_parent: u64,
    /// Parse start — where the root span begins.
    started_ns: u64,
    /// Parse end — where the pending-queue wait begins.
    parsed_ns: u64,
}

impl ReqTrace {
    /// The context server-side children record under.
    fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            parent_span: self.root_span,
        }
    }
}

/// A parsed line waiting its serialized turn on one connection.
enum Pending {
    Request(Box<RequestLine>, Option<ReqTrace>),
    /// A line that failed to parse (the error message).
    Invalid(String),
    /// A line that blew the length cap.
    Oversize,
}

/// The response stream currently being emitted on one connection.
struct Inflight {
    id: String,
    expected: usize,
    received: usize,
    errors: usize,
    trace: Option<ReqTrace>,
}

/// One connection owned by an event-loop worker.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    /// RAII connection-count claim; released whenever the conn drops.
    _slot: ConnectionSlot,
    sink: ConnSink,
    scanner: LineScanner,
    pending: VecDeque<Pending>,
    inflight: Option<Inflight>,
    wbuf: WriteBuf,
    /// Peer sent EOF: serve what's queued, then close.
    read_closed: bool,
    /// Transport is broken: cancel queued work and drop.
    dead: bool,
    /// When the worker adopted this connection — the start of the
    /// retroactive `accept` span.
    accepted_ns: u64,
    /// Whether the `accept` span was already emitted (once per
    /// connection, under its first traced request).
    accept_traced: bool,
    /// Armed when a traced response finishes buffering: `(trace,
    /// buffered_ns)`; the `write.drain` span is recorded once the write
    /// buffer empties.
    drain_trace: Option<(ReqTrace, u64)>,
}

impl Conn {
    fn wants_read(&self, limits: &ReactorLimits) -> bool {
        !self.read_closed
            && !self.dead
            && self.pending.len() < MAX_PENDING
            && self.wbuf.len() < limits.max_write_buffer
    }

    fn has_work(&self) -> bool {
        self.inflight.is_some() || !self.pending.is_empty() || !self.wbuf.is_empty()
    }
}

/// The handle the acceptor (and `Server::shutdown`) uses to reach one
/// event-loop worker.
#[derive(Debug)]
pub(crate) struct WorkerShared {
    pub(crate) waker: Arc<poll::Waker>,
    completions_tx: Sender<(u64, MapItem)>,
    intake: Mutex<Vec<(TcpStream, ConnectionSlot)>>,
}

impl WorkerShared {
    fn lock_intake(&self) -> std::sync::MutexGuard<'_, Vec<(TcpStream, ConnectionSlot)>> {
        self.intake.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hands a fresh connection to this worker and wakes it.
    pub(crate) fn adopt(&self, stream: TcpStream, slot: ConnectionSlot) {
        self.lock_intake().push((stream, slot));
        self.waker.wake();
    }
}

/// A worker's shared handle plus the private completions receiver its
/// event loop owns.
pub(crate) type WorkerPair = (Arc<WorkerShared>, Receiver<(u64, MapItem)>);

/// Builds one worker's shared handle plus the private completions
/// receiver its event loop owns.
pub(crate) fn worker_pair() -> std::io::Result<WorkerPair> {
    let (tx, rx) = std::sync::mpsc::channel();
    let shared = Arc::new(WorkerShared {
        waker: Arc::new(poll::Waker::new()?),
        completions_tx: tx,
        intake: Mutex::new(Vec::new()),
    });
    Ok((shared, rx))
}

/// One event-loop worker: multiplexes its connections until `stop` is
/// observed and the drain completes (or the grace period expires).
pub(crate) fn event_loop(
    shared: &WorkerShared,
    completions: &Receiver<(u64, MapItem)>,
    backend: &Arc<dyn Backend>,
    limits: ReactorLimits,
    stop: &AtomicBool,
) {
    let metrics = Arc::clone(backend.metrics());
    let tracer = backend.tracer().clone();
    let mut conns: Vec<Conn> = Vec::new();
    let mut tokens: Vec<u64> = Vec::new();
    let mut pollfds: Vec<(RawFd, poll::Interest)> = Vec::new();
    let mut readiness: Vec<poll::Readiness> = Vec::new();
    let mut scanned: Vec<Scanned> = Vec::new();
    let mut deadline: Option<Instant> = None;

    loop {
        let draining = deadline.is_some();

        // Build the poll set: the waker first, then every connection.
        // Hangup/error readiness is reported even for empty interest,
        // so paused or write-only connections still notice dying peers.
        pollfds.clear();
        tokens.clear();
        pollfds.push((shared.waker.fd(), poll::Interest::READABLE));
        tokens.push(0);
        for conn in &conns {
            pollfds.push((
                conn.fd,
                poll::Interest {
                    readable: !draining && conn.wants_read(&limits),
                    writable: !conn.wbuf.is_empty(),
                },
            ));
            tokens.push(conn.sink.id);
        }

        let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if poll::wait(&pollfds, timeout, &mut readiness).is_err() {
            // EINVAL-class failures are not actionable per-iteration;
            // back off instead of spinning.
            std::thread::sleep(Duration::from_millis(10));
            readiness.clear();
            readiness.resize(pollfds.len(), poll::Readiness::default());
        }
        metrics.wakeups.fetch_add(1, Ordering::Relaxed);

        if readiness.first().is_some_and(poll::Readiness::any) {
            shared.waker.drain();
        }

        // Adopt connections the acceptor handed over. During a drain,
        // late arrivals are closed immediately (accept raced the stop).
        for (stream, slot) in shared.lock_intake().drain(..) {
            if stop.load(Ordering::SeqCst) {
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Responses are batched per readiness cycle already; don't
            // let Nagle delay a small batch further.
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            conns.push(Conn {
                stream,
                fd,
                _slot: slot,
                sink: ConnSink::new(shared),
                scanner: LineScanner::new(limits.max_line_bytes),
                pending: VecDeque::new(),
                inflight: None,
                wbuf: WriteBuf::default(),
                read_closed: false,
                dead: false,
                accepted_ns: if tracer.is_enabled() { now_ns() } else { 0 },
                accept_traced: false,
                drain_trace: None,
            });
        }

        // Deliver completed items into their connections' write buffers.
        while let Ok((token, item)) = completions.try_recv() {
            if let Some(conn) = conns.iter_mut().find(|c| c.sink.id == token) {
                on_item(conn, item, &tracer);
            }
        }

        // Socket readiness: reads first (they can enqueue work), then
        // writes flush whatever this cycle produced.
        for (i, r) in readiness.iter().enumerate().skip(1) {
            if !r.any() {
                continue;
            }
            let token = tokens[i];
            let Some(conn) = conns.iter_mut().find(|c| c.sink.id == token) else {
                continue;
            };
            if r.readable || r.hangup || r.error {
                do_read(conn, &metrics, &tracer, &mut scanned);
            }
        }

        // Observe a freshly-signalled stop: no new requests; answer
        // parsed-but-unserved lines with typed `shutting_down` errors,
        // then let in-flight responses finish and flush under the
        // grace deadline.
        if stop.load(Ordering::SeqCst) && deadline.is_none() {
            deadline = Some(Instant::now() + limits.drain_grace);
            for conn in &mut conns {
                reject_pending_for_shutdown(conn);
            }
        }

        for conn in &mut conns {
            serve_pending(conn, backend, &limits, &metrics, &tracer);
            if !conn.wbuf.is_empty() && conn.wbuf.flush_into(&conn.stream).is_err() {
                conn.dead = true;
            }
            // A traced response whose bytes all reached the kernel
            // closes its `write.drain` span.
            if conn.wbuf.is_empty() {
                if let Some((t, buffered_ns)) = conn.drain_trace.take() {
                    tracer.record_span(t.ctx(), "write.drain", buffered_ns, now_ns());
                }
            }
            // The flush may have made room to start the next request.
            serve_pending(conn, backend, &limits, &metrics, &tracer);
        }

        // Reap: broken transports cancel their queued work; cleanly
        // closed peers leave once everything owed them was written.
        conns.retain(|conn| {
            if conn.dead {
                conn.sink.cancel();
                return false;
            }
            if conn.read_closed && !conn.has_work() {
                return false;
            }
            true
        });

        if let Some(d) = deadline {
            let expired = Instant::now() >= d;
            if expired {
                // Whoever hasn't taken their bytes by now isn't going
                // to; cancel what remains so the scheduler drains fast.
                for conn in &conns {
                    conn.sink.cancel();
                }
            }
            if expired || conns.iter().all(|c| !c.has_work()) {
                return;
            }
        }
    }
}

/// Builds the trace identity of one freshly parsed request: continues
/// the caller's context when the line carried `trace_ctx`, otherwise
/// roots a fresh trace (the daemon runs `--trace`). Emits the
/// retroactive `accept` (first traced request per connection) and
/// `frame.parse` spans as a side effect.
fn request_trace(
    conn: &mut Conn,
    req: &RequestLine,
    tracer: &Tracer,
    parse_start: u64,
) -> Option<ReqTrace> {
    if !tracer.is_enabled() {
        return None;
    }
    let incoming = match req {
        RequestLine::Map(r) => r.trace,
        RequestLine::Delta(r) => r.trace,
        // Probe verbs are answered inline; tracing them would only
        // drown the mapping spans the dump exists to expose.
        RequestLine::Stats(_) | RequestLine::TraceDump(_) => return None,
    };
    let ctx_in = incoming.or_else(|| tracer.new_trace())?;
    let root_span = tracer.alloc_span_id();
    let parsed_ns = now_ns();
    let trace = ReqTrace {
        trace_id: ctx_in.trace_id,
        root_span,
        root_parent: ctx_in.parent_span,
        started_ns: parse_start,
        parsed_ns,
    };
    if !conn.accept_traced {
        conn.accept_traced = true;
        tracer.record_span(trace.ctx(), "accept", conn.accepted_ns, parse_start);
    }
    tracer.record_span(trace.ctx(), "frame.parse", parse_start, parsed_ns);
    Some(trace)
}

/// Reads until `WouldBlock` (or the per-cycle quantum), feeding the
/// scanner and queueing parsed lines.
fn do_read(conn: &mut Conn, metrics: &Metrics, tracer: &Tracer, scanned: &mut Vec<Scanned>) {
    if conn.read_closed || conn.dead {
        // Still consume readiness on a half-closed socket: an error here
        // (RST) is how we learn the peer is fully gone.
        let mut probe = [0u8; 64];
        match (&conn.stream).read(&mut probe) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => conn.dead = true,
        }
        return;
    }
    let mut chunk = [0u8; 16 << 10];
    let mut consumed = 0usize;
    loop {
        if conn.pending.len() >= MAX_PENDING || consumed >= READ_QUANTUM {
            break;
        }
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                consumed += n;
                scanned.clear();
                conn.scanner.push(&chunk[..n], scanned);
                for entry in scanned.drain(..) {
                    match entry {
                        Scanned::Oversize => {
                            metrics.oversize_lines.fetch_add(1, Ordering::Relaxed);
                            conn.pending.push_back(Pending::Oversize);
                        }
                        Scanned::NotUtf8(message) => {
                            conn.pending.push_back(Pending::Invalid(message));
                        }
                        Scanned::Line(line) => {
                            if line.trim().is_empty() {
                                continue;
                            }
                            let parse_start = if tracer.is_enabled() { now_ns() } else { 0 };
                            match RequestLine::from_line(&line) {
                                Ok(req) => {
                                    let trace = request_trace(conn, &req, tracer, parse_start);
                                    conn.pending
                                        .push_back(Pending::Request(Box::new(req), trace));
                                }
                                Err(e) => conn.pending.push_back(Pending::Invalid(e.to_string())),
                            }
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Folds one completed item into its connection's response stream.
fn on_item(conn: &mut Conn, item: MapItem, tracer: &Tracer) {
    let Some(inflight) = conn.inflight.as_mut() else {
        // A completion for a request this connection no longer tracks
        // (cancelled then re-registered token is impossible — tokens
        // are unique — so this is a late item after an error reply).
        return;
    };
    inflight.received += 1;
    if !item.is_ok() {
        inflight.errors += 1;
    }
    conn.wbuf.push_line(&item.to_line());
    if inflight.received >= inflight.expected {
        on_done(conn, tracer);
    }
}

/// Closes the in-flight response: buffers its `map_done` line and its
/// root span.
fn on_done(conn: &mut Conn, tracer: &Tracer) {
    let Some(inflight) = conn.inflight.take() else {
        return;
    };
    let done = MapDone {
        id: inflight.id,
        items: inflight.received,
        errors: inflight.errors,
    };
    conn.wbuf.push_line(&done.to_line());
    close_root_span(conn, tracer, inflight.trace);
}

/// Emits a request-level error reply (one typed item + `map_done`).
fn error_reply(conn: &mut Conn, id: &str, error: ItemError) {
    let item = MapItem {
        id: id.to_string(),
        index: None,
        payload: ItemPayload::Err(error),
    };
    conn.wbuf.push_line(&item.to_line());
    let done = MapDone {
        id: id.to_string(),
        items: 1,
        errors: 1,
    };
    conn.wbuf.push_line(&done.to_line());
}

/// Closes the pending-queue-wait span of a request about to be served.
fn observe_queue_wait(tracer: &Tracer, trace: Option<ReqTrace>) -> Option<ReqTrace> {
    if let Some(t) = trace {
        tracer.record_span(t.ctx(), "queue.wait", t.parsed_ns, now_ns());
    }
    trace
}

/// Starts as many pending lines as the serialization and backpressure
/// rules allow (responses stay strictly in request order).
fn serve_pending(
    conn: &mut Conn,
    backend: &Arc<dyn Backend>,
    limits: &ReactorLimits,
    metrics: &Metrics,
    tracer: &Tracer,
) {
    while conn.inflight.is_none() && conn.wbuf.len() < limits.max_write_buffer && !conn.dead {
        let Some(next) = conn.pending.pop_front() else {
            return;
        };
        match next {
            Pending::Oversize => error_reply(
                conn,
                "",
                ItemError::invalid_request(format!(
                    "request line exceeds the {} byte limit",
                    limits.max_line_bytes
                )),
            ),
            Pending::Invalid(message) => {
                error_reply(conn, "", ItemError::invalid_request(message));
            }
            Pending::Request(line, trace) => match *line {
                RequestLine::Stats(req) => {
                    metrics.verb_stats.fetch_add(1, Ordering::Relaxed);
                    let mut reply = metrics.stats_reply(&req.id, limits.max_connections, tracer);
                    backend.stats(&mut reply);
                    conn.wbuf.push_line(&reply.to_line());
                }
                RequestLine::TraceDump(req) => {
                    metrics.verb_trace_dump.fetch_add(1, Ordering::Relaxed);
                    let reply = backend.trace_dump(&req);
                    conn.wbuf.push_line(&reply.to_line());
                }
                RequestLine::Map(req) => {
                    let trace = observe_queue_wait(tracer, trace);
                    let id = req.id.clone();
                    let submitted = backend.submit_map(req, &conn.sink, trace.map(|t| t.ctx()));
                    start_response(conn, id, &metrics.verb_map, submitted, trace, tracer);
                }
                // An edit is served as the `map_request` it names; one
                // whose delta does not apply is answered right here.
                RequestLine::Delta(req) => {
                    let trace = observe_queue_wait(tracer, trace);
                    match req.into_map_request() {
                        Ok(req) => {
                            let id = req.id.clone();
                            let submitted =
                                backend.submit_map(req, &conn.sink, trace.map(|t| t.ctx()));
                            start_response(conn, id, &metrics.verb_delta, submitted, trace, tracer);
                        }
                        Err(item) => {
                            let id = item.id.clone();
                            start_response(conn, id, &metrics.verb_delta, Ok(1), trace, tracer);
                            on_item(conn, *item, tracer);
                        }
                    }
                }
            },
        }
    }
}

/// Puts a submitted request in flight (counting it under its verb), or
/// answers a refused one with a single typed error.
fn start_response(
    conn: &mut Conn,
    id: String,
    verb_counter: &AtomicU64,
    submitted: Result<usize, ServiceError>,
    trace: Option<ReqTrace>,
    tracer: &Tracer,
) {
    match submitted {
        Ok(expected) => {
            verb_counter.fetch_add(1, Ordering::Relaxed);
            conn.inflight = Some(Inflight {
                id,
                expected,
                received: 0,
                errors: 0,
                trace,
            });
            if expected == 0 {
                on_done(conn, tracer);
            }
        }
        Err(e) => {
            error_reply(
                conn,
                &id,
                ItemError {
                    code: e.code().to_string(),
                    message: e.to_string(),
                },
            );
            close_root_span(conn, tracer, trace);
        }
    }
}

/// Records the root `request` span of a fully buffered response and
/// arms the `write.drain` span for the flush path.
fn close_root_span(conn: &mut Conn, tracer: &Tracer, trace: Option<ReqTrace>) {
    if let Some(t) = trace {
        let buffered_ns = now_ns();
        tracer.record_span_id(
            t.root_span,
            TraceCtx {
                trace_id: t.trace_id,
                parent_span: t.root_parent,
            },
            "request",
            t.started_ns,
            buffered_ns,
        );
        conn.drain_trace = Some((t, buffered_ns));
    }
}

/// Answers every not-yet-started pending line with a typed
/// `shutting_down` reply — a stopping server refuses new work loudly
/// instead of silently dropping parsed requests.
fn reject_pending_for_shutdown(conn: &mut Conn) {
    let e = ServiceError::ShuttingDown;
    while let Some(next) = conn.pending.pop_front() {
        let id = match &next {
            Pending::Request(line, _) => match line.as_ref() {
                RequestLine::Map(req) => req.id.clone(),
                RequestLine::Delta(req) => req.id.clone(),
                RequestLine::Stats(req) => req.id.clone(),
                RequestLine::TraceDump(req) => req.id.clone(),
            },
            _ => String::new(),
        };
        error_reply(
            conn,
            &id,
            ItemError {
                code: e.code().to_string(),
                message: e.to_string(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(scanner: &mut LineScanner, chunks: &[&[u8]]) -> Vec<Scanned> {
        let mut out = Vec::new();
        for chunk in chunks {
            scanner.push(chunk, &mut out);
        }
        out
    }

    #[test]
    fn scanner_reassembles_lines_split_across_chunks() {
        let mut s = LineScanner::new(64);
        let out = lines(&mut s, &[b"hel", b"lo\nwor", b"ld\r\n", b"tail"]);
        assert_eq!(
            out,
            [Scanned::Line("hello".into()), Scanned::Line("world".into())]
        );
        // The unterminated tail stays buffered until its newline.
        let out = lines(&mut s, &[b"!\n"]);
        assert_eq!(out, [Scanned::Line("tail!".into())]);
    }

    #[test]
    fn scanner_discards_oversize_lines_without_buffering_them() {
        let mut s = LineScanner::new(8);
        // 30 bytes streamed in small chunks: must never be accumulated.
        let out = lines(&mut s, &[b"0123456789", b"0123456789", b"0123456789\nok\n"]);
        assert_eq!(out, [Scanned::Oversize, Scanned::Line("ok".into())]);
        assert!(s.buf.capacity() <= 16, "oversize bytes were buffered");
    }

    #[test]
    fn scanner_boundary_is_exact() {
        let mut s = LineScanner::new(4);
        let out = lines(&mut s, &[b"abcd\nabcde\nab\n"]);
        assert_eq!(
            out,
            [
                Scanned::Line("abcd".into()),
                Scanned::Oversize,
                Scanned::Line("ab".into())
            ]
        );
    }

    #[test]
    fn write_buf_appends_whole_lines() {
        let mut w = WriteBuf::default();
        w.push_line("abc");
        w.push_line("de");
        assert_eq!(w.len(), 7);
        let bytes: Vec<u8> = w.buf.iter().copied().collect();
        assert_eq!(bytes, b"abc\nde\n");
        assert!(!w.is_empty());
    }
}
