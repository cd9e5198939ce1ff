//! The `hattd` JSON-lines-over-TCP server: one [`MapRequest`] per
//! line in, one [`MapItem`] line **per batch item as it completes**
//! out, closed by a [`MapDone`] line. A [`StatsRequest`] line is
//! answered with a single [`StatsReply`] line.
//!
//! The server is std-only and **readiness-based**: one accept thread
//! hands each connection to one of a small set of event-loop workers
//! (see [`crate::reactor`]), which own their connections as
//! non-blocking sockets multiplexed with `vendor/poll`. No thread ever
//! blocks on one peer's socket — an idle connection costs zero
//! syscalls until bytes arrive, and a slow reader only fills its own
//! write buffer. All connections share one scheduler (and through it
//! one [`Mapper`] + structure cache); in router mode
//! ([`Server::bind_router`]) they instead share a consistent-hash
//! shard router.
//!
//! ## Hardening
//!
//! * **Bounded request lines.** A line is scanned through a fixed-size
//!   window ([`ServerConfig::max_line_bytes`], default 4 MiB); an
//!   over-long line is discarded as it streams in — never buffered —
//!   and answered with a typed `invalid_request` item, after which the
//!   connection keeps working.
//! * **Connection limit.** At most [`ServerConfig::max_connections`]
//!   connections are served at once; a connection beyond the cap gets a
//!   single typed `overloaded` line and is closed.
//! * **Slow-reader isolation.** Responses queue in a per-connection
//!   write buffer drained on write readiness; above
//!   [`ServerConfig::max_write_buffer`] the connection stops reading
//!   and starting new requests until the peer catches up. Other
//!   connections are unaffected.
//! * **Coalesced writes.** Response lines accumulate in the write
//!   buffer and reach the kernel once per readiness cycle instead of
//!   one flush per item — items still *stream* (each cycle flushes
//!   whatever is ready), but a large batch no longer costs one
//!   syscall-pair per line.
//! * **Disconnect cancellation.** A peer that hangs up mid-batch has
//!   its still-queued jobs skipped (counted as `cancelled_items` in
//!   `stats`); a half-written line dies with its own connection and
//!   can never interleave into another connection's stream.
//! * **Graceful drain.** Shutdown stops accepting, answers
//!   parsed-but-unstarted requests with typed `shutting_down` errors,
//!   lets in-flight batches finish and flush under a grace period,
//!   then tears down the backend and flushes the mapper's persistent
//!   store.
//!
//! # Examples
//!
//! ```
//! use hatt_core::Mapper;
//! use hatt_fermion::MajoranaSum;
//! use hatt_service::{client, MapRequest, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", Mapper::new(), ServerConfig::default())?;
//! let req = MapRequest::new("r", vec![MajoranaSum::uniform_singles(2)]);
//! let reply = client::request(server.local_addr(), &req)?;
//! assert_eq!(reply.done.items, 1);
//! assert!(reply.items[0].is_ok());
//!
//! let stats = client::stats(server.local_addr(), "probe")?;
//! assert_eq!(stats.requests, 1);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`MapRequest`]: crate::MapRequest
//! [`StatsRequest`]: crate::StatsRequest
//! [`StatsReply`]: crate::StatsReply

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hatt_core::Mapper;
use hatt_trace::Tracer;

use crate::error::ServiceError;
use crate::metrics::{ConnectionSlot, Metrics};
use crate::proto::{write_line, ItemError, ItemPayload, MapDone, MapItem};
use crate::reactor::{event_loop, worker_pair, Backend, ReactorLimits, WorkerShared};
use crate::router::RouterBackend;
use crate::scheduler::{Scheduler, SchedulerConfig};

/// How long shutdown waits for in-flight responses to flush before
/// abandoning peers that stopped taking their bytes.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Server sizing and hardening knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Scheduler sizing.
    pub scheduler: SchedulerConfig,
    /// Longest accepted request line in bytes (default 4 MiB). Longer
    /// lines are discarded as they stream in — the server never buffers
    /// more than its internal read window — and answered with a typed
    /// `invalid_request` item; the connection stays usable.
    pub max_line_bytes: usize,
    /// Concurrent connections served at once (default 256). A
    /// connection beyond the cap receives one typed `overloaded` item
    /// plus `map_done` and is closed without entering an event loop.
    pub max_connections: usize,
    /// Event-loop worker threads (default `0` = automatic: the
    /// available parallelism, capped at 4 — connection multiplexing is
    /// I/O-bound; the mapping work has its own worker pool).
    pub event_workers: usize,
    /// Buffered response bytes per connection above which the
    /// connection stops reading new requests until the peer drains its
    /// responses (default 8 MiB) — the slow-reader backpressure knob.
    pub max_write_buffer: usize,
    /// Enables the in-process tracing collector (`hattd --trace`).
    /// Every `map`/`map_delta` request then records a span tree —
    /// accept, frame parse, queue wait, cache probe/construction,
    /// write drain — retrievable with the `trace_dump` verb and
    /// summarised in `stats`. Off by default: a disabled tracer costs
    /// one branch per instrumentation point.
    pub trace: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            scheduler: SchedulerConfig::default(),
            max_line_bytes: 4 << 20,
            max_connections: 256,
            event_workers: 0,
            max_write_buffer: 8 << 20,
            trace: false,
        }
    }
}

impl ServerConfig {
    fn reactor_limits(&self) -> ReactorLimits {
        ReactorLimits {
            max_line_bytes: self.max_line_bytes.max(1),
            max_connections: self.max_connections.max(1),
            max_write_buffer: self.max_write_buffer.max(1),
            drain_grace: DRAIN_GRACE,
        }
    }

    fn effective_event_workers(&self) -> usize {
        if self.event_workers > 0 {
            return self.event_workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(4)
    }

    fn tracer(&self) -> Tracer {
        if self.trace {
            Tracer::enabled(hatt_trace::DEFAULT_CAPACITY)
        } else {
            Tracer::disabled()
        }
    }
}

/// A running `hattd` server. Dropping (or calling
/// [`Server::shutdown`]) stops accepting, drains in-flight requests,
/// joins every worker thread and flushes the mapper's persistent
/// store (when one is configured).
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    worker_shared: Vec<Arc<WorkerShared>>,
    backend: Option<Arc<dyn Backend>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("event_workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds and starts serving on `addr` (use port `0` for an
    /// ephemeral port; read it back with [`Server::local_addr`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        mapper: Mapper,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let scheduler = Scheduler::new(mapper, config.scheduler.clone(), config.tracer())?;
        Self::bind_with(addr, Arc::new(scheduler), &config)
    }

    /// Binds a **shard router**: instead of mapping locally, every
    /// request item is forwarded to the shard daemon that owns the
    /// item's canonical structure key on a consistent-hash ring (the
    /// `router` module); a `map_delta` edit is routed by its post-delta
    /// structure. The wire protocol is identical to a single
    /// daemon's — clients cannot tell the difference, except for the
    /// populated `shards` section in `stats`.
    pub fn bind_router(
        addr: impl ToSocketAddrs,
        shard_addrs: &[String],
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        if shard_addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router mode needs at least one shard address",
            ));
        }
        let router = RouterBackend::new(
            shard_addrs,
            config.scheduler.queue_capacity.max(1),
            config.tracer(),
        )?;
        Self::bind_with(addr, Arc::new(router), &config)
    }

    fn bind_with(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn Backend>,
        config: &ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let limits = config.reactor_limits();
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        let mut worker_shared = Vec::new();
        for i in 0..config.effective_event_workers() {
            let (shared, completions) = worker_pair()?;
            let handle = {
                let shared = Arc::clone(&shared);
                let backend = Arc::clone(&backend);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("hattd-loop-{i}"))
                    .spawn(move || event_loop(&shared, &completions, &backend, limits, &stop))?
            };
            workers.push(handle);
            worker_shared.push(shared);
        }
        let accept = {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(backend.metrics());
            let worker_shared = worker_shared.clone();
            std::thread::Builder::new()
                .name("hattd-accept".into())
                .spawn(move || accept_loop(&listener, &stop, &metrics, &worker_shared, limits))?
        };
        Ok(Server {
            local_addr,
            stop,
            accept: Some(accept),
            workers,
            worker_shared,
            backend: Some(backend),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks the calling thread until the server shuts down — the
    /// daemon (`hattd`) foreground mode.
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting connections, drains in-flight requests, joins
    /// every worker thread and flushes the persistent store.
    pub fn shutdown(self) {
        drop(self);
    }

    fn signal_stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Wake every event loop so it observes the stop flag, then let
        // each drain: pending lines are answered with `shutting_down`,
        // in-flight batches finish (the backend is still alive here)
        // and their bytes flush, bounded by the grace period.
        for shared in &self.worker_shared {
            shared.waker.wake();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Only now tear the backend down: join the scheduler's workers
        // (or the shard forwarders) and flush the persistent tier.
        if let Some(backend) = self.backend.take() {
            backend.drain();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.signal_stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    metrics: &Arc<Metrics>,
    workers: &[Arc<WorkerShared>],
    limits: ReactorLimits,
) {
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let Some(slot) = ConnectionSlot::claim(metrics, limits.max_connections) else {
                    reject_overloaded(stream);
                    continue;
                };
                // Round-robin across workers: connection counts stay
                // balanced without shared state between loops.
                workers[next % workers.len()].adopt(stream, slot);
                next = next.wrapping_add(1);
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // Back off instead of busy-spinning: persistent accept
                // errors (fd exhaustion, EMFILE) would otherwise peg a
                // core while contributing nothing.
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Answers an over-limit connection with one typed `overloaded` line
/// plus `map_done`, then closes it. Runs on the accept thread (the
/// rejected stream never reaches an event loop); the write timeout
/// keeps a non-reading peer from stalling accepts.
fn reject_overloaded(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let e = ServiceError::Overloaded;
    let item = MapItem {
        id: String::new(),
        index: None,
        payload: ItemPayload::Err(ItemError {
            code: e.code().to_string(),
            message: "connection limit reached; retry later".to_string(),
        }),
    };
    let done = MapDone {
        id: String::new(),
        items: 1,
        errors: 1,
    };
    let lines = format!("{}\n{}", item.to_line(), done.to_line());
    let _ = write_line(&mut stream, lines);
}
