//! The consistent-hash shard router behind `hattd --route`: a reactor
//! front-end (same event loop as the local server) whose backend fans
//! each request item out to the shard that owns the item's canonical
//! structure key, instead of a local scheduler. A `map_delta` edit
//! reaches the backend as the `map_request` it names, so it is routed,
//! cached and stored by its post-delta structure like any item.
//!
//! ## Why hash the structure key
//!
//! The `MappingCache` and the persistent store are already
//! content-addressed by the coefficient-independent FNV-1a structure
//! key of a Hamiltonian (the paper's observation that the HATT tree
//! depends only on the *support structure*). Routing on the same key
//! means every structure has exactly one owning shard, so shard caches
//! partition the keyspace instead of duplicating it — adding a shard
//! grows aggregate cache capacity nearly linearly, and the consistent
//! ring keeps most keys on their old owner when the shard set changes.
//!
//! ## Data flow and backpressure
//!
//! ```text
//! client ──▶ router reactor (a map_delta becomes its map_request)
//!   ──(group items by ring owner)──▶ per-shard bounded queue
//!   ──▶ forwarder thread (persistent connection, one retry on
//!   transport error) ──▶ shard hattd ──▶ items stream back, indices
//!   translated to the client's, into the client's ConnSink
//! ```
//!
//! A full shard queue **sheds** that shard's slice of the request with
//! typed `overloaded` items (the other shards' slices proceed); a
//! shard that stays unreachable after a reconnect answers its slice
//! with typed `io` items and is marked unhealthy in `stats` until a
//! forward succeeds again. The router never blocks an event-loop
//! worker on a shard.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hatt_core::structure_key;
use hatt_fermion::MajoranaSum;
use hatt_store::fnv1a64;
use hatt_trace::{now_ns, TraceCtx, Tracer};

use crate::error::ServiceError;
use crate::metrics::Metrics;
use crate::proto::{
    write_line, ItemError, ItemPayload, MapItem, MapRequest, ResponseLine, ShardStats, StatsReply,
};
use crate::reactor::{Backend, ConnSink};

/// Virtual points per shard on the ring: enough to keep the keyspace
/// split within a few percent of even for small shard counts.
const RING_REPLICAS: usize = 64;

/// A consistent-hash ring over shard indices: `owner(key)` is the
/// first ring point at or after `key` (wrapping), so re-labelling or
/// resizing the shard set moves only the keys between affected points.
/// Points are placed by the same FNV-1a as the structure key, applied
/// to the shard labels.
#[derive(Debug)]
pub(crate) struct HashRing {
    /// `(point, shard index)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    pub(crate) fn new(labels: &[String]) -> HashRing {
        let mut points: Vec<(u64, usize)> = labels
            .iter()
            .enumerate()
            .flat_map(|(shard, label)| {
                (0..RING_REPLICAS).map(move |replica| {
                    let bytes = label
                        .bytes()
                        .chain(std::iter::once(b'#'))
                        .chain((replica as u64).to_le_bytes());
                    (fnv1a64(bytes), shard)
                })
            })
            .collect();
        points.sort_unstable();
        HashRing { points }
    }

    /// The shard owning `key`.
    pub(crate) fn owner(&self, key: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[i % self.points.len()].1
    }
}

/// One unit of forwarding work: a slice of a request bound for one
/// shard.
struct ShardJob {
    sub: MapRequest,
    /// `orig[i]` is the client-side index of the sub-request's item `i`.
    orig: Vec<usize>,
    sink: ConnSink,
    /// The originating request's trace context (parent = the router's
    /// root request span). The forwarder mints a `route.forward` span
    /// under it and stamps *that* span as the sub-request's `trace_ctx`
    /// parent, linking the shard's span tree into the router's.
    trace: Option<TraceCtx>,
}

/// The bounded job queue in front of one forwarder thread.
struct ShardQueue {
    state: Mutex<(VecDeque<ShardJob>, bool)>,
    not_empty: Condvar,
    capacity: usize,
}

impl ShardQueue {
    fn new(capacity: usize) -> ShardQueue {
        ShardQueue {
            state: Mutex::new((VecDeque::new(), false)),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (VecDeque<ShardJob>, bool)> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Non-blocking (event-loop safe): `Err` hands the job back when
    /// the queue is full or shutting down — the caller sheds it.
    #[allow(clippy::result_large_err)] // Err returns the job to the caller by design
    fn try_push(&self, job: ShardJob) -> Result<(), ShardJob> {
        let mut state = self.lock();
        if state.1 || state.0.len() >= self.capacity {
            return Err(job);
        }
        state.0.push_back(job);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once shut down *and* drained
    /// (already-accepted work is always forwarded or answered).
    fn pop(&self) -> Option<ShardJob> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn len(&self) -> usize {
        self.lock().0.len()
    }

    fn shutdown(&self) {
        self.lock().1 = true;
        self.not_empty.notify_all();
    }
}

/// Health and traffic counters of one shard, surfaced in `stats`.
#[derive(Debug, Default)]
struct ShardCounters {
    /// False after a forward failed (reconnect included); true again
    /// after the next success. Fresh shards start healthy.
    unhealthy: AtomicBool,
    forwarded: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
}

struct Shard {
    addr: String,
    queue: Arc<ShardQueue>,
    counters: Arc<ShardCounters>,
    forwarder: Mutex<Option<JoinHandle<()>>>,
}

/// The router backend: groups request items by ring owner, enqueues
/// per-shard sub-requests, and reports per-shard health.
pub(crate) struct RouterBackend {
    shards: Vec<Shard>,
    ring: HashRing,
    metrics: Arc<Metrics>,
    tracer: Tracer,
}

impl RouterBackend {
    /// Spawns one forwarder per shard address. `shard_queue` bounds
    /// each shard's accepted-but-not-forwarded backlog (requests
    /// beyond it are shed with typed `overloaded` items).
    pub(crate) fn new(
        shard_addrs: &[String],
        shard_queue: usize,
        tracer: Tracer,
    ) -> std::io::Result<RouterBackend> {
        let metrics = Arc::new(Metrics::default());
        let mut shards = Vec::with_capacity(shard_addrs.len());
        for addr in shard_addrs {
            let queue = Arc::new(ShardQueue::new(shard_queue));
            let counters = Arc::new(ShardCounters::default());
            let forwarder = {
                let addr = addr.clone();
                let queue = Arc::clone(&queue);
                let counters = Arc::clone(&counters);
                let metrics = Arc::clone(&metrics);
                let tracer = tracer.clone();
                std::thread::Builder::new()
                    .name(format!("hattd-fwd-{addr}"))
                    .spawn(move || forwarder_loop(&addr, &queue, &counters, &metrics, &tracer))?
            };
            shards.push(Shard {
                addr: addr.clone(),
                queue,
                counters,
                forwarder: Mutex::new(Some(forwarder)),
            });
        }
        Ok(RouterBackend {
            ring: HashRing::new(shard_addrs),
            shards,
            metrics,
            tracer,
        })
    }

    /// Sheds a job the shard's queue refused: every client index it
    /// carries gets a typed `overloaded` item immediately.
    fn shed(&self, shard: &Shard, job: &ShardJob) {
        shard
            .counters
            .shed
            .fetch_add(job.orig.len() as u64, Ordering::Relaxed);
        let e = ServiceError::Overloaded;
        for &index in &job.orig {
            job.sink.send(MapItem {
                id: job.sub.id.clone(),
                index: Some(index),
                payload: ItemPayload::Err(ItemError {
                    code: e.code().to_string(),
                    message: format!("shard {} queue is full; retry later", shard.addr),
                }),
            });
        }
    }
}

impl Backend for RouterBackend {
    fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn submit_map(
        &self,
        req: MapRequest,
        sink: &ConnSink,
        trace: Option<TraceCtx>,
    ) -> Result<usize, ServiceError> {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let items = req.hamiltonians.len();
        // Move each item into its owning shard's slice, preserving order.
        let hash_start = trace.map(|_| now_ns()).unwrap_or_default();
        let mut slices: Vec<(Vec<usize>, Vec<MajoranaSum>)> =
            (0..self.shards.len()).map(|_| Default::default()).collect();
        for (index, h) in req.hamiltonians.into_iter().enumerate() {
            let slice = &mut slices[self.ring.owner(structure_key(&h))];
            slice.0.push(index);
            slice.1.push(h);
        }
        if let Some(ctx) = trace {
            self.tracer
                .record_span(ctx, "route.hash", hash_start, now_ns());
        }
        for (shard, (orig, hamiltonians)) in self.shards.iter().zip(slices) {
            if orig.is_empty() {
                continue;
            }
            let sub = MapRequest {
                id: req.id.clone(),
                options: req.options,
                n_modes: req.n_modes,
                hamiltonians,
                trace: None,
            };
            let job = ShardJob {
                sub,
                orig,
                sink: sink.clone(),
                trace,
            };
            if let Err(job) = shard.queue.try_push(job) {
                self.shed(shard, &job);
            }
        }
        Ok(items)
    }

    /// Constructions, caches and latency histograms live on the shards
    /// (probe them directly); the router adds only its queue depth and
    /// per-shard health.
    fn stats(&self, reply: &mut StatsReply) {
        reply.queue_depth = self.shards.iter().map(|s| s.queue.len()).sum();
        reply.shards = self
            .shards
            .iter()
            .map(|s| ShardStats {
                addr: s.addr.clone(),
                healthy: !s.counters.unhealthy.load(Ordering::Relaxed),
                queue_depth: s.queue.len(),
                forwarded: s.counters.forwarded.load(Ordering::Relaxed),
                errors: s.counters.errors.load(Ordering::Relaxed),
                shed: s.counters.shed.load(Ordering::Relaxed),
            })
            .collect();
    }

    fn drain(&self) {
        for shard in &self.shards {
            shard.queue.shutdown();
        }
        for shard in &self.shards {
            let handle = shard
                .forwarder
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

/// One shard's persistent connection: buffered reads, and one write
/// per request line.
struct ShardConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn connect(addr: &str) -> std::io::Result<ShardConn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // A wedged shard must not pin the forwarder (and the router's
    // drain) forever; a timeout surfaces as a transport error and the
    // job is answered with typed items.
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    Ok(ShardConn {
        reader: BufReader::new(stream.try_clone()?),
        writer: stream,
    })
}

/// The per-shard forwarder: pops jobs, relays them over a persistent
/// connection (reconnecting once per job on transport errors), and
/// translates item indices back to the client's.
fn forwarder_loop(
    addr: &str,
    queue: &ShardQueue,
    counters: &ShardCounters,
    metrics: &Metrics,
    tracer: &Tracer,
) {
    let mut conn: Option<ShardConn> = None;
    while let Some(mut job) = queue.pop() {
        if job.sink.is_cancelled() {
            // The client hung up while the job sat in the queue: skip
            // the round trip entirely.
            metrics
                .items_cancelled
                .fetch_add(job.orig.len() as u64, Ordering::Relaxed);
            continue;
        }
        // The forward-hop span id is minted *before* the sub-request is
        // serialized so the shard's root span can parent on it — the
        // cross-process seam of a trace.
        let forward = job.trace.filter(|_| tracer.is_enabled()).map(|ctx| {
            let span_id = tracer.alloc_span_id();
            job.sub.trace = Some(TraceCtx {
                trace_id: ctx.trace_id,
                parent_span: span_id,
            });
            (ctx, span_id, now_ns())
        });
        // `answered` survives the retry so a mid-response reconnect
        // never double-sends an index (the shard's cache makes the
        // replayed sub-request cheap).
        let mut answered = vec![false; job.orig.len()];
        let mut outcome = Err(ServiceError::Protocol("never attempted".into()));
        for attempt in 0..2 {
            let retry_start = if attempt > 0 { now_ns() } else { 0 };
            let result = (|| {
                let io = match conn.as_mut() {
                    Some(io) => io,
                    None => conn.insert(connect(addr).map_err(ServiceError::Io)?),
                };
                forward_once(io, &job, &mut answered, counters)
            })();
            if attempt > 0 {
                if let Some((ctx, span_id, _)) = forward {
                    tracer.record_span(ctx.child_of(span_id), "route.retry", retry_start, now_ns());
                }
            }
            match result {
                Ok(()) => {
                    outcome = Ok(());
                    break;
                }
                Err(e) => {
                    // Transport is suspect: retry on a fresh connection.
                    conn = None;
                    outcome = Err(e);
                }
            }
        }
        if let Some((ctx, span_id, start)) = forward {
            tracer.record_span_id(span_id, ctx, "route.forward", start, now_ns());
        }
        match outcome {
            Ok(()) => counters.unhealthy.store(false, Ordering::Relaxed),
            Err(e) => {
                counters.unhealthy.store(true, Ordering::Relaxed);
                counters.errors.fetch_add(1, Ordering::Relaxed);
                let error = ItemError {
                    code: e.code().to_string(),
                    message: format!("shard {addr} unavailable: {e}"),
                };
                for (&index, done) in job.orig.iter().zip(&answered) {
                    if !done {
                        job.sink.send(MapItem {
                            id: job.sub.id.clone(),
                            index: Some(index),
                            payload: ItemPayload::Err(error.clone()),
                        });
                    }
                }
            }
        }
    }
}

/// Relays one job over an established connection: writes the
/// sub-request line, streams items back (translating indices), and
/// covers any index the shard never answered with a typed error.
fn forward_once(
    io: &mut ShardConn,
    job: &ShardJob,
    answered: &mut [bool],
    counters: &ShardCounters,
) -> Result<(), ServiceError> {
    write_line(&mut io.writer, job.sub.to_line())?;
    let mut request_error: Option<ItemError> = None;
    let mut line = String::new();
    loop {
        line.clear();
        if io.reader.read_line(&mut line)? == 0 {
            return Err(ServiceError::Protocol(
                "shard closed the connection mid-response".into(),
            ));
        }
        if line.trim().is_empty() {
            continue;
        }
        match ResponseLine::from_line(line.trim_end())? {
            ResponseLine::Item(mut item) => match item.index {
                Some(i) if i < answered.len() && !answered[i] => {
                    answered[i] = true;
                    item.index = job.orig.get(i).copied();
                    counters.forwarded.fetch_add(1, Ordering::Relaxed);
                    job.sink.send(item);
                }
                // Request-level (index-less) errors from the shard are
                // remembered and fanned to every unanswered index below.
                _ => {
                    if let ItemPayload::Err(e) = item.payload {
                        request_error = Some(e);
                    }
                }
            },
            ResponseLine::Done(_) => break,
        }
    }
    let fallback = request_error.unwrap_or_else(|| ItemError {
        code: "internal".to_string(),
        message: "shard response did not cover this item".to_string(),
    });
    for (&index, done) in job.orig.iter().zip(answered.iter_mut()) {
        if !*done {
            *done = true;
            job.sink.send(MapItem {
                id: job.sub.id.clone(),
                index: Some(index),
                payload: ItemPayload::Err(fallback.clone()),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn ring_assignment_is_deterministic_and_total() {
        let a = HashRing::new(&labels(3));
        let b = HashRing::new(&labels(3));
        for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let owner = a.owner(key);
            assert!(owner < 3);
            assert_eq!(owner, b.owner(key), "same labels, same ring");
        }
    }

    #[test]
    fn ring_spreads_structure_keys_across_shards() {
        let ring = HashRing::new(&labels(2));
        let mut counts = [0usize; 2];
        for n in 2..40 {
            counts[ring.owner(structure_key(&MajoranaSum::uniform_singles(n)))] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "both shards should own some of the workload: {counts:?}"
        );
    }

    #[test]
    fn ring_growth_moves_only_a_fraction_of_keys() {
        let two = HashRing::new(&labels(2));
        let three = HashRing::new(&labels(3));
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let moved = keys
            .iter()
            .filter(|&&k| {
                let before = two.owner(k);
                let after = three.owner(k);
                after != before && after != 2
            })
            .count();
        // Consistent hashing: keys either stay put or move to the new
        // shard; cross-migration between surviving shards stays small.
        assert!(
            moved * 10 < keys.len(),
            "{moved} of {} keys migrated between surviving shards",
            keys.len()
        );
    }

    /// The ring hash and the structure key are the workspace's one
    /// FNV-1a. Stored records are addressed by the structure key and
    /// perfbench's fixed shard placement depends on the ring hash, so
    /// these literals must never drift.
    #[test]
    fn structure_keys_and_ring_placement_are_stable() {
        let ring = HashRing::new(&["127.0.1.1:29411".to_string(), "127.0.1.2:29411".to_string()]);
        assert_eq!(
            ring.points[..4],
            [
                (0x02d9_1be9_7ad1_b92e, 1),
                (0x0485_73bf_11f9_2aed, 1),
                (0x0514_0214_f2fe_daf8, 0),
                (0x06c0_59ea_8a26_4cb7, 0),
            ]
        );
        let mut pair = MajoranaSum::new(2);
        pair.add(hatt_pauli::Complex64::ONE, &[0, 1]);
        pair.add(hatt_pauli::Complex64::real(0.5), &[0, 1, 2, 3]);
        let singles = structure_key(&MajoranaSum::uniform_singles(3));
        let pair = structure_key(&pair);
        assert_eq!(singles, 0x3861_2014_6978_b441);
        assert_eq!(pair, 0xb009_5f2f_303a_0862);
        assert_eq!((ring.owner(singles), ring.owner(pair)), (1, 0));
    }

    #[test]
    fn shard_queue_bounds_and_drains() {
        let q = ShardQueue::new(2);
        let (worker, _completions) = crate::reactor::worker_pair().expect("pair");
        let mk = || ShardJob {
            sub: MapRequest::new("r", vec![]),
            orig: vec![],
            sink: ConnSink::new(&worker),
            trace: None,
        };
        assert!(q.try_push(mk()).is_ok());
        assert!(q.try_push(mk()).is_ok());
        assert!(q.try_push(mk()).is_err(), "third job must be shed");
        assert_eq!(q.len(), 2);
        q.shutdown();
        assert!(q.try_push(mk()).is_err(), "no work after shutdown");
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert!(q.pop().is_none(), "drained and shut down");
    }
}
