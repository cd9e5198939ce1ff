//! The bounded-queue request scheduler behind [`Server::bind`]: queues
//! the items of every map request (a `map_delta` line arrives as the
//! `map_request` it names), fans them onto
//! `vendor/parallel` scoped workers through the shared [`Mapper`]
//! cache, and streams one [`MapItem`] per item **as it completes** into
//! the requesting connection's [`ConnSink`].
//!
//! ## Design
//!
//! * **Bounded queue, never blocking.** Submissions run on an
//!   event-loop worker, which must not stall every connection it owns
//!   on one full queue: a request whose items do not all fit is shed
//!   whole with [`ServiceError::Overloaded`].
//! * **Per-connection fairness.** Jobs are queued under their
//!   connection's id and the dispatcher drains connections
//!   round-robin, one job each per turn — a chatty client with a huge
//!   batch cannot monopolize the queue ahead of a small request from
//!   another connection.
//! * **Fan-out.** A single dispatcher thread drains the queue in
//!   batches and runs each batch through [`parallel::par_map_with`] —
//!   the same scoped-thread fan-out the construction engine itself
//!   uses — with the per-job thread budget split evenly so a batch
//!   never oversubscribes the host.
//! * **Shared cache.** Every job probes the mapper's structure-keyed
//!   [`MappingCache`](hatt_core::MappingCache), so repeated structures
//!   across requests and connections dedupe onto one construction.
//! * **Typed failures.** A job that fails maps to an error
//!   [`MapItem`] (`empty_hamiltonian`, `mode_mismatch`, …) — one bad
//!   item never poisons its batch, and no panic is reachable from
//!   request data.
//!
//! [`Server::bind`]: crate::Server::bind

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hatt_core::{HattError, HattMapping, HattOptions, Mapper};
use hatt_fermion::MajoranaSum;
use hatt_mappings::FermionMapping;
use hatt_pauli::{PauliString, COEFF_EPS};
use hatt_trace::{now_ns, TraceCtx, Tracer};

use crate::error::ServiceError;
use crate::metrics::Metrics;
use crate::proto::{ItemError, ItemPayload, MapItem, MapRequest, StatsReply, TierStats};
use crate::reactor::{Backend, ConnSink};

/// Scheduler sizing.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Concurrent mapping workers per dispatched batch (default:
    /// [`parallel::max_threads`], i.e. `HATT_THREADS` or the hardware
    /// count).
    pub workers: usize,
    /// Maximum queued (not yet dispatched) jobs. A request whose items
    /// do not all fit is shed whole with a typed `overloaded` error.
    pub queue_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: parallel::max_threads(),
            queue_capacity: 256,
        }
    }
}

/// The trace identity a traced job carries through the queue: the
/// request's context (parented on its root span) plus the enqueue
/// timestamp, so dispatch can emit the `sched.wait` span retroactively.
struct JobTrace {
    ctx: TraceCtx,
    enqueued_ns: u64,
}

/// One queued unit of work: a single item of some request.
struct Job {
    id: String,
    options: HattOptions,
    /// The item's position in its request.
    index: usize,
    h: MajoranaSum,
    /// The request's mode pin, if any.
    expected_modes: Option<usize>,
    sink: ConnSink,
    trace: Option<JobTrace>,
}

/// A queue of jobs bucketed by connection id, drained round-robin: each
/// drain turn takes one job from the least-recently-served non-empty
/// connection. The turn order is the `rotation` (first arrival), never
/// the ids' values; `BTreeMap` (not a hash map) keeps lookups
/// deterministic.
struct FairQueue<T> {
    queues: BTreeMap<u64, VecDeque<T>>,
    /// Non-empty connections in service order; a connection re-joins at
    /// the back after each served job.
    rotation: VecDeque<u64>,
    len: usize,
}

impl<T> Default for FairQueue<T> {
    fn default() -> Self {
        FairQueue {
            queues: BTreeMap::new(),
            rotation: VecDeque::new(),
            len: 0,
        }
    }
}

impl<T> FairQueue<T> {
    fn push(&mut self, conn: u64, item: T) {
        let queue = self.queues.entry(conn).or_default();
        if queue.is_empty() {
            self.rotation.push_back(conn);
        }
        queue.push_back(item);
        self.len += 1;
    }

    /// Removes up to `max` items, one per connection per rotation turn.
    fn drain(&mut self, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        while out.len() < max {
            let Some(conn) = self.rotation.pop_front() else {
                break;
            };
            let Some(queue) = self.queues.get_mut(&conn) else {
                continue;
            };
            if let Some(item) = queue.pop_front() {
                out.push(item);
                self.len -= 1;
            }
            if queue.is_empty() {
                self.queues.remove(&conn);
            } else {
                self.rotation.push_back(conn);
            }
        }
        out
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

struct QueueState {
    jobs: FairQueue<Job>,
    shutdown: bool,
}

struct Shared {
    mapper: Mapper,
    metrics: Arc<Metrics>,
    tracer: Tracer,
    workers: usize,
    capacity: usize,
    state: Mutex<QueueState>,
    not_empty: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The bounded-queue scheduler (see the module docs for the design):
/// the backend of a single daemon, owning its [`Mapper`].
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts a scheduler over `mapper`; traced jobs record their queue
    /// wait and dispatch under the request's trace in `tracer`.
    ///
    /// # Errors
    ///
    /// Fails when the dispatcher thread cannot be spawned (resource
    /// exhaustion).
    pub(crate) fn new(
        mapper: Mapper,
        config: SchedulerConfig,
        tracer: Tracer,
    ) -> std::io::Result<Scheduler> {
        let shared = Arc::new(Shared {
            mapper,
            metrics: Arc::new(Metrics::default()),
            tracer,
            workers: config.workers.max(1),
            capacity: config.queue_capacity.max(1),
            state: Mutex::new(QueueState {
                jobs: FairQueue::default(),
                shutdown: false,
            }),
            not_empty: Condvar::new(),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hatt-sched".into())
                .spawn(move || dispatch_loop(&shared))?
        };
        Ok(Scheduler {
            shared,
            dispatcher: Mutex::new(Some(dispatcher)),
        })
    }

    /// Signals shutdown and joins the dispatcher: every already-queued
    /// job is still dispatched and answered first. Idempotent; [`Drop`]
    /// calls it too.
    fn shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.not_empty.notify_all();
        let handle = self
            .dispatcher
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Jobs currently queued (not yet dispatched).
    fn queue_len(&self) -> usize {
        self.shared.lock().jobs.len()
    }
}

impl Backend for Scheduler {
    fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Queues the request's items under its connection's fairness
    /// bucket, or sheds the whole request when they do not all fit.
    fn submit_map(
        &self,
        req: MapRequest,
        sink: &ConnSink,
        trace: Option<TraceCtx>,
    ) -> Result<usize, ServiceError> {
        let options = req.options.unwrap_or(*self.shared.mapper.options());
        let enqueued_ns = trace.map(|_| now_ns()).unwrap_or_default();
        let n = req.hamiltonians.len();
        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        if state.jobs.len() + n > self.shared.capacity {
            return Err(ServiceError::Overloaded);
        }
        for (index, h) in req.hamiltonians.into_iter().enumerate() {
            state.jobs.push(
                sink.id(),
                Job {
                    id: req.id.clone(),
                    options,
                    index,
                    h,
                    expected_modes: req.n_modes,
                    sink: sink.clone(),
                    trace: trace.map(|ctx| JobTrace { ctx, enqueued_ns }),
                },
            );
        }
        self.shared.not_empty.notify_all();
        self.shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    fn stats(&self, reply: &mut StatsReply) {
        let mapper = &self.shared.mapper;
        let cache = mapper.cache();
        reply.queue_depth = self.queue_len();
        reply.constructions = cache.constructions();
        reply.cache = TierStats {
            hits: cache.hits(),
            misses: cache.misses(),
            entries: cache.len(),
        };
        reply.store = mapper.store_stats();
        reply.policies = self.shared.metrics.policy_latencies();
    }

    fn drain(&self) {
        self.shutdown();
        // Everything that will ever be written through this server has
        // been; make the store tier durable.
        let _ = self.shared.mapper.sync_store();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dispatcher: drain a batch, fan it out, repeat. Exits once
/// shutdown is signalled *and* the queue is drained (submitted work is
/// always answered).
fn dispatch_loop(shared: &Shared) {
    loop {
        let batch: Vec<Job> = {
            let mut state = shared.lock();
            loop {
                if !state.jobs.is_empty() {
                    break;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
            // Dispatch up to 2× the worker count per round: enough to
            // keep every worker busy while leaving later arrivals the
            // chance to ride the next (soon) round. The drain itself is
            // round-robin across clients, so a round mixes every waiting
            // connection instead of exhausting the chattiest one first.
            let take = state.jobs.len().min(shared.workers * 2);
            state.jobs.drain(take)
        };
        // Disconnect cancellation: a job whose connection hung up is
        // dead weight — skip the construction entirely. The check sits
        // here (per dispatch round, not only at enqueue) so a client
        // dropping mid-batch stops burning workers within one round.
        let (batch, cancelled): (Vec<Job>, Vec<Job>) =
            batch.into_iter().partition(|job| !job.sink.is_cancelled());
        if !cancelled.is_empty() {
            shared
                .metrics
                .items_cancelled
                .fetch_add(cancelled.len() as u64, Ordering::Relaxed);
        }
        if batch.is_empty() {
            continue;
        }
        // Split the thread budget so one round never oversubscribes:
        // concurrent jobs are peers, exactly like `Mapper::map_batch`.
        let inner_threads = (shared.workers / batch.len().min(shared.workers)).max(1);
        parallel::par_map_with(shared.workers, &batch, |job| {
            let start = Instant::now();
            // A traced job emits its queue wait retroactively and runs
            // under a dispatch scope, so every span the construction
            // layer emits (cache probe, store I/O, selection steps)
            // nests beneath this request's tree.
            let item = match &job.trace {
                Some(t) => {
                    shared
                        .tracer
                        .record_span(t.ctx, "sched.wait", t.enqueued_ns, now_ns());
                    shared.tracer.scope(t.ctx, "sched.dispatch", || {
                        run_job(&shared.mapper, job, inner_threads)
                    })
                }
                None => run_job(&shared.mapper, job, inner_threads),
            };
            shared
                .metrics
                .observe_latency(&job.options.policy.to_string(), start.elapsed());
            job.sink.send(item);
        });
    }
}

/// Runs one job to a response item. Infallible by construction: every
/// failure mode becomes a typed error payload.
fn run_job(mapper: &Mapper, job: &Job, inner_threads: usize) -> MapItem {
    let options = HattOptions {
        threads: Some(inner_threads),
        ..job.options
    };
    let result = check_modes(&job.h, job.expected_modes)
        .and_then(|()| mapper.cache().try_get_or_build(&job.h, &options));
    let payload = match result {
        Ok(mapping) => {
            let pauli_weight = served_weight(&mapping, &job.h);
            ItemPayload::Ok {
                mapping,
                pauli_weight,
            }
        }
        Err(e) => ItemPayload::Err(ItemError::from_hatt(&e)),
    };
    MapItem {
        id: job.id.clone(),
        index: Some(job.index),
        payload,
    }
}

/// `mapping.map_majorana_sum(h).weight()` for the `h` the mapping was
/// built or replayed for, read from the construction's settled weights
/// instead of mapping every term. A valid tree maps distinct Majorana
/// monomials to distinct Pauli strings, so no terms merge and the
/// settled weights already sum the mapped ones. Only pruning differs:
/// `MajoranaSum` keeps terms down to `MAJORANA_EPS`, the mapped sum
/// drops those at or below [`COEFF_EPS`], so their weights come off.
fn served_weight(mapping: &HattMapping, h: &MajoranaSum) -> usize {
    let pruned: usize = h
        .iter()
        .filter(|(_, coeff)| coeff.is_zero(COEFF_EPS))
        .map(|(support, _)| {
            let mut product = PauliString::identity(mapping.n_qubits());
            for &k in support {
                product.mul_assign_right(mapping.majorana(k as usize));
            }
            product.weight()
        })
        .sum();
    mapping.stats().total_weight() - pruned
}

fn check_modes(h: &MajoranaSum, expected_modes: Option<usize>) -> Result<(), HattError> {
    match expected_modes {
        Some(expected) if h.n_modes() != expected => Err(HattError::ModeMismatch {
            expected,
            got: h.n_modes(),
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::Receiver;
    use std::time::Duration;

    use hatt_fermion::HamiltonianDelta;
    use hatt_pauli::Complex64;

    use crate::proto::MapDeltaRequest;
    use crate::reactor::worker_pair;

    fn start(config: SchedulerConfig) -> Scheduler {
        Scheduler::new(Mapper::new(), config, Tracer::disabled()).expect("scheduler")
    }

    fn one_worker() -> SchedulerConfig {
        SchedulerConfig {
            workers: 1,
            queue_capacity: 256,
        }
    }

    /// Receives `n` items, each tagged with `sink`'s connection, sorted
    /// by index.
    fn collect(completions: &Receiver<(u64, MapItem)>, sink: &ConnSink, n: usize) -> Vec<MapItem> {
        let mut items: Vec<MapItem> = (0..n)
            .map(|_| {
                let (conn, item) = completions
                    .recv_timeout(Duration::from_secs(60))
                    .expect("item");
                assert_eq!(conn, sink.id(), "completion routed to its connection");
                item
            })
            .collect();
        items.sort_by_key(|i| i.index);
        items
    }

    #[test]
    fn maps_a_batch_and_streams_every_item() {
        let scheduler = start(SchedulerConfig::default());
        let (worker, completions) = worker_pair().expect("worker");
        let sink = ConnSink::new(&worker);
        let hams: Vec<MajoranaSum> = (2..6).map(MajoranaSum::uniform_singles).collect();
        let expected = scheduler
            .submit_map(MapRequest::new("r", hams.clone()), &sink, None)
            .unwrap();
        assert_eq!(expected, hams.len());
        let items = collect(&completions, &sink, hams.len());
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.index, Some(i));
            assert_eq!(item.id, "r");
            let expect = Mapper::new().map(&hams[i]).unwrap();
            assert_eq!(item.mapping().unwrap().tree(), expect.tree());
        }
    }

    #[test]
    fn bad_items_fail_individually_not_the_batch() {
        let scheduler = start(SchedulerConfig::default());
        let (worker, completions) = worker_pair().expect("worker");
        let sink = ConnSink::new(&worker);
        let mut pinned = MapRequest::new(
            "r",
            vec![
                MajoranaSum::uniform_singles(3),
                MajoranaSum::new(0),
                MajoranaSum::uniform_singles(2),
            ],
        );
        pinned.n_modes = Some(3);
        scheduler.submit_map(pinned, &sink, None).unwrap();
        let items = collect(&completions, &sink, 3);
        assert!(items[0].is_ok());
        assert_eq!(items[1].error().unwrap().code, "mode_mismatch");
        assert_eq!(items[2].error().unwrap().code, "mode_mismatch");
        // Without the pin, the zero-mode item gets its own typed error.
        let unpinned = MapRequest::new(
            "r2",
            vec![MajoranaSum::new(0), MajoranaSum::uniform_singles(2)],
        );
        scheduler.submit_map(unpinned, &sink, None).unwrap();
        let items = collect(&completions, &sink, 2);
        assert_eq!(items[0].error().unwrap().code, "empty_hamiltonian");
        assert!(items[1].is_ok());
    }

    #[test]
    fn requests_share_the_mapper_cache() {
        let scheduler = start(SchedulerConfig::default());
        let (worker, completions) = worker_pair().expect("worker");
        let sink = ConnSink::new(&worker);
        let mut h = MajoranaSum::new(2);
        h.add(Complex64::ONE, &[0, 1]);
        h.add(Complex64::ONE, &[2, 3]);
        let a = MapRequest::new("a", vec![h.clone()]);
        scheduler.submit_map(a, &sink, None).unwrap();
        let _ = collect(&completions, &sink, 1);
        let b = MapRequest::new("b", vec![h.scaled(2.0)]);
        scheduler.submit_map(b, &sink, None).unwrap();
        let _ = collect(&completions, &sink, 1);
        assert_eq!(
            scheduler.shared.mapper.cache().hits(),
            1,
            "second request replayed"
        );
    }

    #[test]
    fn fair_queue_interleaves_clients_round_robin() {
        let mut q = FairQueue::default();
        let (a, b, c) = (0, 1, 2);
        for i in 0..6 {
            q.push(a, format!("a{i}"));
        }
        q.push(b, "b0".to_string());
        q.push(b, "b1".to_string());
        q.push(c, "c0".to_string());
        assert_eq!(q.len(), 9);
        // One job per client per turn, in arrival order of the clients.
        assert_eq!(q.drain(6), ["a0", "b0", "c0", "a1", "b1", "a2"]);
        // Only client a remains; the drain degenerates to FIFO.
        assert_eq!(q.drain(10), ["a3", "a4", "a5"]);
        assert!(q.is_empty());
        assert!(q.drain(4).is_empty());
    }

    #[test]
    fn fair_queue_late_client_overtakes_a_deep_backlog() {
        let mut q = FairQueue::default();
        let (a, b) = (7, 3);
        for i in 0..100 {
            q.push(a, (0usize, i));
        }
        // b arrives after a's whole backlog, with a single job.
        q.push(b, (1usize, 0));
        let batch = q.drain(4);
        assert_eq!(batch, [(0, 0), (1, 0), (0, 1), (0, 2)]);
        // b's lone job rode the first round instead of waiting out all
        // 100 of a's — the fairness property the service test pins
        // end to end.
    }

    #[test]
    fn submissions_under_one_client_share_a_turn() {
        let mut q = FairQueue::default();
        q.push(0, "r1-0");
        q.push(0, "r1-1");
        q.push(0, "r2-0");
        q.push(1, "other");
        // Both of client 0's requests pool into one rotation slot.
        assert_eq!(q.drain(3), ["r1-0", "other", "r1-1"]);
    }

    #[test]
    fn a_request_that_does_not_fit_is_shed_whole() {
        // One-slot queue: a multi-item request cannot fit atomically.
        let scheduler = start(SchedulerConfig {
            workers: 1,
            queue_capacity: 1,
        });
        let (worker, _completions) = worker_pair().expect("worker");
        let big = MapRequest::new(
            "big",
            (0..64).map(|_| MajoranaSum::uniform_singles(2)).collect(),
        );
        match scheduler.submit_map(big, &ConnSink::new(&worker), None) {
            Err(ServiceError::Overloaded) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(scheduler.queue_len(), 0, "no item of a shed request queued");
    }

    #[test]
    fn a_hung_up_connection_has_every_queued_item_cancelled_exactly() {
        let scheduler = start(one_worker());
        let (worker, completions) = worker_pair().expect("worker");
        let gone = ConnSink::new(&worker);
        gone.cancel();
        let dead = MapRequest::new("gone", (4..10).map(MajoranaSum::uniform_singles).collect());
        assert_eq!(scheduler.submit_map(dead, &gone, None).unwrap(), 6);
        // A live request queued behind the dead one still maps in full.
        let live = ConnSink::new(&worker);
        let hams: Vec<MajoranaSum> = (2..4).map(MajoranaSum::uniform_singles).collect();
        let req = MapRequest::new("live", hams);
        assert_eq!(scheduler.submit_map(req, &live, None).unwrap(), 2);
        let items = collect(&completions, &live, 2);
        assert!(items.iter().all(MapItem::is_ok), "{items:?}");
        // After the drain every dead item has been dispatched: each was
        // skipped, none was answered and none constructed.
        scheduler.drain();
        assert!(
            completions.try_recv().is_err(),
            "no completion for the dead"
        );
        let metrics = &scheduler.shared.metrics;
        assert_eq!(metrics.items_cancelled.load(Ordering::SeqCst), 6);
        assert_eq!(scheduler.shared.mapper.cache().constructions(), 2);
    }

    #[test]
    fn drain_answers_every_queued_item_then_refuses_new_work() {
        let scheduler = start(one_worker());
        let (worker, completions) = worker_pair().expect("worker");
        let sink = ConnSink::new(&worker);
        let hams: Vec<MajoranaSum> = (2..10).map(MajoranaSum::uniform_singles).collect();
        let req = MapRequest::new("r", hams);
        assert_eq!(scheduler.submit_map(req, &sink, None).unwrap(), 8);
        scheduler.drain();
        let mut indices: Vec<Option<usize>> = completions
            .try_iter()
            .map(|(conn, item)| {
                assert_eq!(conn, sink.id());
                item.index
            })
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..8).map(Some).collect::<Vec<_>>());
        let late = MapRequest::new("late", vec![MajoranaSum::uniform_singles(2)]);
        match scheduler.submit_map(late, &sink, None) {
            Err(ServiceError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }

    /// Faint magnitudes: `MajoranaSum` keeps them (above
    /// `MAJORANA_EPS` = 1e-12), the mapped sum prunes all but the last
    /// (at or below `COEFF_EPS` = 1e-10).
    const FAINT: [f64; 5] = [1.5e-12, 3e-11, 9.9e-11, 1e-10, 1.01e-10];

    /// A redrawn coefficient, each case a third of the time: a `FAINT`
    /// magnitude or `coeff` under a random unit phase, or `coeff` as is.
    fn draw(rng: &mut rand::rngs::StdRng, coeff: Complex64) -> Complex64 {
        use rand::Rng;
        let phase = [Complex64::ONE, Complex64::I, -Complex64::ONE, -Complex64::I];
        match rng.gen_range(0..3) {
            0 => Complex64::real(FAINT[rng.gen_range(0..FAINT.len())]) * phase[rng.gen_range(0..4)],
            1 => coeff * phase[rng.gen_range(0..4)],
            _ => coeff,
        }
    }

    /// `h` with every coefficient redrawn: the same structure.
    fn redrawn(rng: &mut rand::rngs::StdRng, h: &MajoranaSum) -> MajoranaSum {
        let mut out = MajoranaSum::new(h.n_modes());
        for (support, coeff) in h.iter() {
            out.add(draw(rng, coeff), support);
        }
        out
    }

    fn assert_served(tag: &str, item: &MapItem, h: &MajoranaSum) {
        let ItemPayload::Ok {
            mapping,
            pauli_weight,
        } = &item.payload
        else {
            panic!("{tag}: {item:?}");
        };
        assert_eq!(
            *pauli_weight,
            mapping.map_majorana_sum(h).weight(),
            "{tag}: served weight"
        );
    }

    /// The served `pauli_weight` (the settled weights less the pruned
    /// terms) against mapping every term: random Hamiltonians with faint
    /// coefficients, every policy and variant, and each path an item
    /// takes: a cold build, a cache replay, a session edit and a store
    /// hit.
    #[test]
    fn served_pauli_weight_is_the_mapped_weight_on_every_path() {
        use hatt_core::Variant;
        use hatt_mappings::SelectionPolicy;
        use rand::SeedableRng;

        let store = std::env::temp_dir().join(format!(
            "hatt-served-weight-test-{}.store",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&store);
        let cached = start(one_worker());
        // No memory tier: every repeated structure is a store hit.
        let stored = Mapper::builder()
            .cache_capacity(0)
            .store_path(&store)
            .build()
            .unwrap();
        let stored = Scheduler::new(stored, one_worker(), Tracer::disabled()).unwrap();
        let (worker, completions) = worker_pair().expect("worker");
        let sink = ConnSink::new(&worker);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xfa17);
        let policies = [
            SelectionPolicy::Greedy,
            SelectionPolicy::Vanilla,
            SelectionPolicy::Lookahead { width: 3 },
            SelectionPolicy::Beam { width: 3 },
            SelectionPolicy::Restarts,
        ];
        let mut runs = 0;
        for seed in 0..3u64 {
            let n = 4 + 2 * seed as usize;
            let op = hatt_fermion::models::random_hermitian(n, 2 * n, n, seed);
            let h = redrawn(&mut rng, &MajoranaSum::from_fermion(&op));
            for variant in [Variant::Unopt, Variant::Paired, Variant::Cached] {
                for policy in policies {
                    let options = Some(HattOptions {
                        variant,
                        policy,
                        ..Default::default()
                    });
                    let tag = format!("n={n} {variant:?} {policy}");
                    let replayed = redrawn(&mut rng, &h);
                    for scheduler in [&cached, &stored] {
                        let mut req = MapRequest::new(&tag, vec![h.clone(), replayed.clone()]);
                        req.options = options;
                        scheduler.submit_map(req, &sink, None).unwrap();
                        let items = collect(&completions, &sink, 2);
                        assert_served(&format!("{tag} cold"), &items[0], &h);
                        assert_served(&format!("{tag} repeat"), &items[1], &replayed);
                    }
                    // Drop one term and add a faint one.
                    let (support, coeff) = h.iter().find(|(s, _)| !s.is_empty()).unwrap();
                    let mut delta = HamiltonianDelta::new(n);
                    delta.push_remove(coeff, support).unwrap();
                    let faint: Vec<u32> = (0..2 * n as u32).step_by(3).take(4).collect();
                    if h.coefficient_of(&faint).is_zero(1e-12) {
                        delta.push_add(Complex64::real(FAINT[1]), &faint).unwrap();
                    }
                    let next = delta.apply(&h).unwrap();
                    let mut req = MapDeltaRequest::new(&tag, h.clone(), delta);
                    req.options = options;
                    let req = req.into_map_request().unwrap();
                    cached.submit_map(req, &sink, None).unwrap();
                    let items = collect(&completions, &sink, 1);
                    assert_served(&format!("{tag} remap"), &items[0], &next);
                    runs += 1;
                }
            }
        }
        // Each repeat was served by the path it was meant to take, and
        // each edit was built: a cold build and an edit per run.
        let cache = cached.shared.mapper.cache();
        assert_eq!(cache.hits(), runs, "cache replays");
        assert_eq!(cache.constructions(), 2 * runs, "cold builds and edits");
        let tier = stored.shared.mapper.cache().store_stats().unwrap();
        assert_eq!(tier.hits, runs, "store hits");
        drop(stored);
        let _ = std::fs::remove_file(&store);
    }
}
