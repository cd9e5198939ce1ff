//! The bounded-queue request scheduler behind [`Server::bind`]: queues
//! the items of every map request (a `map_delta` line arrives as the
//! `map_request` it names), runs them on a pool of long-lived workers
//! through the shared [`Mapper`] cache, and streams one [`MapItem`] per
//! item **as it completes** into the requesting connection's
//! [`ConnSink`].
//!
//! ## Design
//!
//! * **Bounded queue, never blocking.** Submissions run on an
//!   event-loop worker, which must not stall every connection it owns
//!   on one full queue: a request whose items do not all fit the free
//!   room is shed whole with [`ServiceError::Overloaded`], and one with
//!   more items than the capacity is refused for good with
//!   [`ServiceError::TooLarge`].
//! * **Per-connection fairness.** Jobs are queued under their
//!   connection's id in the one [`WorkQueue`], which pops connections
//!   round-robin, one job each per turn — a chatty client with a huge
//!   batch cannot monopolize the queue ahead of a small request from
//!   another connection.
//! * **A pool of workers.** [`SchedulerConfig::workers`] long-lived
//!   threads each pop one job, skip it if its connection hung up, and
//!   run it, so a cheap job never waits for a slow build while a worker
//!   is free. A job takes `workers / running` threads for its own
//!   construction, counting itself: a lone job keeps the whole budget,
//!   a full pool gives each job one thread.
//! * **Shared cache.** Every job probes the mapper's structure-keyed
//!   [`MappingCache`](hatt_core::MappingCache), so repeated structures
//!   across requests and connections dedupe onto one construction.
//! * **Typed failures.** A job that fails maps to an error
//!   [`MapItem`] (`empty_hamiltonian`, `mode_mismatch`, …) — one bad
//!   item never poisons its request, and no panic is reachable from
//!   request data.
//!
//! [`Server::bind`]: crate::Server::bind

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
use crate::queue::WorkQueue;
use crate::reactor::{Backend, ConnSink};

/// Scheduler sizing.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Long-lived mapping workers, which also bound the threads the
    /// running jobs share (default: [`parallel::max_threads`], i.e.
    /// `HATT_THREADS` or the hardware count).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs. A request whose items do
    /// not all fit is shed whole with a typed `overloaded` error; one
    /// with more items than this is refused with `invalid_request`.
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
/// timestamp, so its worker can emit the `sched.wait` span
/// retroactively.
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

struct Shared {
    mapper: Mapper,
    metrics: Arc<Metrics>,
    tracer: Tracer,
    workers: usize,
    queue: WorkQueue<Job>,
    /// Jobs running now; each takes `workers / running` threads.
    running: AtomicUsize,
}

/// The bounded-queue scheduler (see the module docs for the design):
/// the backend of a single daemon, owning its [`Mapper`].
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts a scheduler over `mapper`; traced jobs record their queue
    /// wait and dispatch under the request's trace in `tracer`.
    ///
    /// # Errors
    ///
    /// Fails when a worker thread cannot be spawned (resource
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
            queue: WorkQueue::new(config.queue_capacity),
            running: AtomicUsize::new(0),
        });
        let workers = (0..shared.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hatt-sched-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()
            // The workers already spawned exit on the closed, empty queue.
            .inspect_err(|_| shared.queue.close())?;
        Ok(Scheduler {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Closes the queue and joins the workers: every already-queued
    /// job is still run and answered first. Idempotent; [`Drop`] calls
    /// it too.
    fn shutdown(&self) {
        self.shared.queue.close();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in workers {
            let _ = handle.join();
        }
    }

    /// Jobs currently queued (not yet popped by a worker).
    fn queue_len(&self) -> usize {
        self.shared.queue.len()
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
    /// bucket, or refuses the whole request when they do not all fit.
    fn submit_map(
        &self,
        req: MapRequest,
        sink: &ConnSink,
        trace: Option<TraceCtx>,
    ) -> Result<usize, ServiceError> {
        let options = req.options.unwrap_or(*self.shared.mapper.options());
        let enqueued_ns = trace.map(|_| now_ns()).unwrap_or_default();
        let n = req.hamiltonians.len();
        let jobs = req
            .hamiltonians
            .into_iter()
            .enumerate()
            .map(|(index, h)| Job {
                id: req.id.clone(),
                options,
                index,
                h,
                expected_modes: req.n_modes,
                sink: sink.clone(),
                trace: trace.map(|ctx| JobTrace { ctx, enqueued_ns }),
            })
            .collect();
        self.shared
            .queue
            .try_push(sink.id(), jobs)
            .map_err(|(e, _)| e)?;
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

/// One pool worker: pops jobs until the queue is closed and drained,
/// and runs each whose connection is still there.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        // Disconnect cancellation: a job whose connection hung up is
        // dead weight, so its construction is skipped entirely.
        if job.sink.is_cancelled() {
            shared
                .metrics
                .items_cancelled
                .fetch_add(1, Ordering::Relaxed);
            continue;
        }
        // Split the thread budget among the jobs running now: a lone
        // job keeps all of it, a full pool gives each job one thread.
        let running = shared.running.fetch_add(1, Ordering::Relaxed) + 1;
        let inner_threads = (shared.workers / running).max(1);
        let start = Instant::now();
        // A traced job emits its queue wait retroactively and runs
        // under a dispatch scope, so every span the construction layer
        // emits (cache probe, store I/O, selection steps) nests beneath
        // this request's tree.
        let item = match &job.trace {
            Some(t) => {
                shared
                    .tracer
                    .record_span(t.ctx, "sched.wait", t.enqueued_ns, now_ns());
                shared.tracer.scope(t.ctx, "sched.dispatch", || {
                    run_job(&shared.mapper, &job, inner_threads)
                })
            }
            None => run_job(&shared.mapper, &job, inner_threads),
        };
        shared.running.fetch_sub(1, Ordering::Relaxed);
        shared
            .metrics
            .observe_latency(&job.options.policy.to_string(), start.elapsed());
        job.sink.send(item);
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
    fn a_request_that_does_not_fit_is_shed_whole() {
        // One-slot queue: a 64-item request can never fit, so it is
        // refused for good rather than shed as `overloaded`.
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
            Err(e @ ServiceError::TooLarge { .. }) => {
                assert_eq!(e.code(), "invalid_request");
                let message = e.to_string();
                assert!(
                    message.contains("64 items") && message.contains("capacity of 1"),
                    "{message}"
                );
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(scheduler.queue_len(), 0, "no item of a shed request queued");
        let requests = scheduler.shared.metrics.requests.load(Ordering::SeqCst);
        assert_eq!(requests, 0, "a refused request is not counted");
    }

    /// A cheap job submitted while a slow build runs is served by the
    /// other worker instead of waiting for the build.
    #[test]
    fn a_slow_build_does_not_hold_a_cheap_job_behind_it() {
        use hatt_core::Variant;

        let scheduler = start(SchedulerConfig {
            workers: 2,
            queue_capacity: 256,
        });
        let (worker, completions) = worker_pair().expect("worker");
        let (slow, fast) = (ConnSink::new(&worker), ConnSink::new(&worker));
        let mut build = MapRequest::new("slow", vec![MajoranaSum::uniform_singles(48)]);
        build.options = Some(HattOptions {
            variant: Variant::Unopt,
            ..HattOptions::default()
        });
        scheduler.submit_map(build, &slow, None).unwrap();
        // Once a worker has popped the slow job, queue the cheap one.
        while scheduler.queue_len() > 0 {
            std::thread::yield_now();
        }
        let cheap = MapRequest::new("fast", vec![MajoranaSum::uniform_singles(3)]);
        scheduler.submit_map(cheap, &fast, None).unwrap();
        let order: Vec<u64> = (0..2)
            .map(|_| {
                let (conn, item) = completions
                    .recv_timeout(Duration::from_secs(60))
                    .expect("item");
                assert!(item.is_ok(), "{item:?}");
                conn
            })
            .collect();
        assert_eq!(
            order,
            [fast.id(), slow.id()],
            "the cheap item waited for the slow build"
        );
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
