//! The one bounded work queue of the service: the scheduler's pool
//! workers pop its jobs, and each router shard's forwarder pops its own.
//!
//! * **All-or-none, never blocking.** Pushes run on an event-loop
//!   worker, which must not stall every connection it owns on one full
//!   queue: [`WorkQueue::try_push`] queues all of a request's jobs or
//!   none of them, and hands refused jobs back with the reason.
//! * **Round robin by connection.** Jobs are queued under their
//!   connection's id, and each pop takes one job from the connection
//!   served least recently, so a chatty client's backlog cannot hold a
//!   small request from another connection behind it. The turn order is
//!   first arrival, never the ids' values.
//! * **One wake per job.** A push wakes at most one blocked consumer
//!   per job it queued, never every consumer.
//! * **Close, then drain.** After [`WorkQueue::close`] every push is
//!   refused, and [`WorkQueue::pop`] returns each accepted job before it
//!   returns `None`.

use std::collections::{BTreeMap, VecDeque};

// Under `--cfg interleave` the lock and condvar come from the
// instrumented `vendor/interleave` shims, so the explorer can enumerate
// every schedule of push, pop and close (`interleave_models` below).
// Outside a model the shims pass through to `std`.
#[cfg(interleave)]
use interleave::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(interleave))]
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::error::ServiceError;

/// A bounded multi-consumer queue of jobs keyed by connection id (see
/// the module docs).
pub(crate) struct WorkQueue<T> {
    state: Mutex<State<T>>,
    /// Signalled once per queued job a blocked consumer can take, and
    /// for every consumer on close.
    ready: Condvar,
    capacity: usize,
}

struct State<T> {
    /// Each connection's queued jobs, oldest first. A `BTreeMap` (not a
    /// hash map) keeps lookups deterministic.
    queues: BTreeMap<u64, VecDeque<T>>,
    /// Connections with queued jobs, in service order: a connection
    /// re-joins at the back after each pop.
    rotation: VecDeque<u64>,
    len: usize,
    /// Consumers blocked in `pop`; a push of `n` jobs wakes at most
    /// `n` of them.
    idle: usize,
    closed: bool,
}

impl<T> State<T> {
    /// Takes one job from the connection at the front of the rotation.
    fn pop_next(&mut self) -> Option<T> {
        let conn = self.rotation.pop_front()?;
        let queue = self.queues.get_mut(&conn)?;
        let job = queue.pop_front()?;
        if queue.is_empty() {
            self.queues.remove(&conn);
        } else {
            self.rotation.push_back(conn);
        }
        self.len -= 1;
        Some(job)
    }
}

impl<T> WorkQueue<T> {
    /// An open, empty queue holding at most `capacity` jobs (at least 1).
    pub(crate) fn new(capacity: usize) -> WorkQueue<T> {
        WorkQueue {
            state: Mutex::new(State {
                queues: BTreeMap::new(),
                rotation: VecDeque::new(),
                len: 0,
                idle: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues every job of `jobs` under connection `conn`, or none. A
    /// refusal hands all of them back with its reason:
    /// [`ServiceError::ShuttingDown`] once closed,
    /// [`ServiceError::TooLarge`] when they outnumber the capacity (they
    /// can never fit), and [`ServiceError::Overloaded`] when they
    /// outnumber the free room. Never blocks.
    pub(crate) fn try_push(&self, conn: u64, jobs: Vec<T>) -> Result<(), (ServiceError, Vec<T>)> {
        let n = jobs.len();
        let mut state = self.lock();
        if state.closed {
            return Err((ServiceError::ShuttingDown, jobs));
        }
        if n > self.capacity {
            let capacity = self.capacity;
            return Err((ServiceError::TooLarge { items: n, capacity }, jobs));
        }
        if state.len + n > self.capacity {
            return Err((ServiceError::Overloaded, jobs));
        }
        if n == 0 {
            return Ok(());
        }
        let State {
            queues, rotation, ..
        } = &mut *state;
        let queue = queues.entry(conn).or_default();
        if queue.is_empty() {
            rotation.push_back(conn);
        }
        queue.extend(jobs);
        state.len += n;
        let wake = n.min(state.idle);
        drop(state);
        for _ in 0..wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Blocks for the next job in round-robin order; `None` once the
    /// queue is closed *and* empty.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.pop_next() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state.idle += 1;
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
            state.idle -= 1;
        }
    }

    /// Jobs queued and not yet popped.
    pub(crate) fn len(&self) -> usize {
        self.lock().len
    }

    /// Refuses every later push and wakes every blocked consumer; the
    /// jobs already queued are still popped. Idempotent.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops up to `max` jobs from a closed queue.
    fn drain<T>(q: &WorkQueue<T>, max: usize) -> Vec<T> {
        q.close();
        std::iter::from_fn(|| q.pop()).take(max).collect()
    }

    #[test]
    fn fair_queue_interleaves_clients_round_robin() {
        let q = WorkQueue::new(16);
        let (a, b, c) = (0, 1, 2);
        q.try_push(a, (0..6).map(|i| format!("a{i}")).collect())
            .unwrap();
        q.try_push(b, vec!["b0".to_string(), "b1".to_string()])
            .unwrap();
        q.try_push(c, vec!["c0".to_string()]).unwrap();
        assert_eq!(q.len(), 9);
        // One job per client per turn, in arrival order of the clients.
        assert_eq!(drain(&q, 6), ["a0", "b0", "c0", "a1", "b1", "a2"]);
        // Only client a remains; the drain degenerates to FIFO.
        assert_eq!(drain(&q, 10), ["a3", "a4", "a5"]);
        assert_eq!(q.len(), 0);
        assert!(drain(&q, 4).is_empty());
    }

    #[test]
    fn fair_queue_late_client_overtakes_a_deep_backlog() {
        let q = WorkQueue::new(128);
        let (a, b) = (7, 3);
        q.try_push(a, (0..100).map(|i| (0usize, i)).collect())
            .unwrap();
        // b arrives after a's whole backlog, with a single job.
        q.try_push(b, vec![(1usize, 0)]).unwrap();
        let batch = drain(&q, 4);
        assert_eq!(batch, [(0, 0), (1, 0), (0, 1), (0, 2)]);
        // b's lone job was popped second instead of waiting out all
        // 100 of a's — the fairness property the service test pins
        // end to end.
    }

    #[test]
    fn submissions_under_one_client_share_a_turn() {
        let q = WorkQueue::new(8);
        q.try_push(0, vec!["r1-0", "r1-1"]).unwrap();
        q.try_push(0, vec!["r2-0"]).unwrap();
        q.try_push(1, vec!["other"]).unwrap();
        // Both of client 0's requests pool into one rotation slot.
        assert_eq!(drain(&q, 3), ["r1-0", "other", "r1-1"]);
    }

    #[test]
    fn admission_is_all_or_none_and_refusals_return_every_job() {
        let q = WorkQueue::new(4);
        q.try_push(1, vec![10, 11, 12]).unwrap();
        // Fits the capacity but not the free room: shed whole.
        match q.try_push(2, vec![20, 21]) {
            Err((ServiceError::Overloaded, jobs)) => assert_eq!(jobs, [20, 21]),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(q.len(), 3, "no job of a shed push is queued");
        // More jobs than the capacity can never fit.
        match q.try_push(2, vec![30, 31, 32, 33, 34]) {
            Err((ServiceError::TooLarge { items, capacity }, jobs)) => {
                assert_eq!((items, capacity), (5, 4));
                assert_eq!(jobs, [30, 31, 32, 33, 34]);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(q.len(), 3);
        // Exactly the free room is accepted.
        q.try_push(2, vec![40]).unwrap();
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&q, 8), [10, 40, 11, 12]);
    }

    #[test]
    fn a_closed_queue_pops_every_accepted_job_then_none_and_refuses_pushes() {
        let q = WorkQueue::new(2);
        q.try_push(1, vec!["a"]).unwrap();
        q.try_push(2, vec!["b"]).unwrap();
        q.close();
        match q.try_push(3, vec!["late"]) {
            Err((e @ ServiceError::ShuttingDown, jobs)) => {
                assert_eq!(e.code(), "shutting_down");
                assert_eq!(jobs, ["late"]);
            }
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None, "closed and drained");
        assert_eq!(q.pop(), None);
    }
}

/// Exhaustive interleaving models of the queue, compiled only under
/// `RUSTFLAGS="--cfg interleave"` (the CI `interleave` job). Each
/// [`interleave::model`] re-runs its body under every schedule of the
/// queue's lock and condvar operations, over 2–3 threads.
#[cfg(all(test, interleave))]
mod interleave_models {
    use std::sync::Arc;

    use interleave::thread;

    use super::*;

    /// Pops until `None`; on `None` the queue must be closed and empty.
    fn pop_all(q: &WorkQueue<u32>) -> Vec<u32> {
        let mut popped = Vec::new();
        while let Some(job) = q.pop() {
            popped.push(job);
        }
        let state = q.lock();
        assert!(state.closed && state.len == 0, "None before close");
        popped
    }

    /// Pushes `jobs`, returning the accepted ones; a refusal must hand
    /// back every job.
    fn push(q: &WorkQueue<u32>, conn: u64, jobs: Vec<u32>) -> Vec<u32> {
        match q.try_push(conn, jobs.clone()) {
            Ok(()) => jobs,
            Err((_, back)) => {
                assert_eq!(back, jobs, "a refused push returns all its jobs");
                Vec::new()
            }
        }
    }

    #[test]
    fn every_accepted_job_is_popped_once_under_every_schedule() {
        // Two producers race for a capacity of 2 and the main thread's
        // close races the spawned producer; the consumer pops until
        // `None`.
        let report = interleave::model(|| {
            let q = Arc::new(WorkQueue::new(2));
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || pop_all(&q))
            };
            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || push(&q, 2, vec![20]))
            };
            let mut accepted = push(&q, 1, vec![10, 11]);
            q.close();
            accepted.extend(producer.join().unwrap());
            let mut popped = consumer.join().unwrap();
            popped.sort_unstable();
            accepted.sort_unstable();
            assert_eq!(popped, accepted, "each accepted job popped exactly once");
        });
        assert!(report.iterations > 1, "explored {}", report.iterations);
    }

    #[test]
    fn close_wakes_a_blocked_pop_under_every_schedule() {
        let report = interleave::model(|| {
            let q = Arc::new(WorkQueue::<u32>::new(1));
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.pop())
            };
            q.close();
            assert_eq!(consumer.join().unwrap(), None);
        });
        assert!(report.iterations > 1, "explored {}", report.iterations);
    }

    #[test]
    fn each_pushed_job_wakes_a_blocked_consumer_under_every_schedule() {
        // Two one-shot consumers and two one-job pushes, with no close
        // to wake anyone: a push that woke no blocked consumer would
        // leave one parked forever, which the explorer reports as a
        // deadlock.
        let report = interleave::model(|| {
            let q = Arc::new(WorkQueue::new(2));
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || q.pop())
                })
                .collect();
            q.try_push(1, vec![10]).unwrap();
            q.try_push(2, vec![20]).unwrap();
            let mut popped: Vec<u32> = consumers
                .into_iter()
                .filter_map(|c| c.join().unwrap())
                .collect();
            popped.sort_unstable();
            assert_eq!(popped, [10, 20]);
        });
        assert!(report.iterations > 1, "explored {}", report.iterations);
    }
}
