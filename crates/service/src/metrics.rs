//! Hand-rolled, std-only service observability: the counters and
//! per-policy latency histograms behind the `stats` request verb.
//!
//! No external metrics crate (the container is offline); the histogram
//! is a fixed set of cumulative-friendly duration buckets chosen to
//! bracket real mapping latencies — sub-millisecond cache hits up to
//! multi-second cold beam constructions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hatt_trace::Tracer;

use crate::proto::{
    LatencyBucket, PolicyLatency, StatsReply, TierStats, TraceSummary, VerbCounters,
};

/// Upper bounds (nanoseconds) of the finite histogram buckets; one
/// overflow bucket follows. 100µs..10s in decades.
const BUCKET_BOUNDS_NS: [u64; 6] = [
    100_000,        // 100 µs
    1_000_000,      // 1 ms
    10_000_000,     // 10 ms
    100_000_000,    // 100 ms
    1_000_000_000,  // 1 s
    10_000_000_000, // 10 s
];

/// One latency histogram: counts per bucket plus totals for averages.
#[derive(Debug, Default)]
struct Histogram {
    /// `counts[i]` = observations ≤ `BUCKET_BOUNDS_NS[i]` (and above the
    /// previous bound); the last slot is the overflow bucket.
    counts: [u64; BUCKET_BOUNDS_NS.len() + 1],
    /// Total observations.
    count: u64,
    /// Sum of observed nanoseconds (saturating).
    total_ns: u64,
}

impl Histogram {
    fn observe(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let slot = BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }
}

/// Shared service counters. One instance lives in the server's backend
/// (the object every connection already shares); the reactor layers its
/// connection-level counters onto the same struct so the `stats` verb
/// has a single source.
#[derive(Debug)]
pub(crate) struct Metrics {
    /// When this daemon's metrics were created — the uptime epoch the
    /// `stats` verb reports against.
    started: Instant,
    /// `map_request` lines accepted by the reactor (parse failures and
    /// overload rejections excluded).
    pub(crate) verb_map: AtomicU64,
    /// `map_delta` lines accepted by the reactor, each submitted as the
    /// `map_request` it names or answered with its `delta` error.
    pub(crate) verb_delta: AtomicU64,
    /// `stats_request` lines answered.
    pub(crate) verb_stats: AtomicU64,
    /// `trace_dump_request` lines answered.
    pub(crate) verb_trace_dump: AtomicU64,
    /// Handler threads currently serving a connection.
    pub(crate) connections_active: AtomicUsize,
    /// Connections turned away at the connection limit.
    pub(crate) connections_rejected: AtomicU64,
    /// Request lines discarded for exceeding `max_line_bytes`.
    pub(crate) oversize_lines: AtomicU64,
    /// Map requests accepted by the backend (scheduler or shard queues).
    pub(crate) requests: AtomicU64,
    /// Queued items skipped because their connection hung up before
    /// they were dispatched — work the disconnect cancellation saved.
    pub(crate) items_cancelled: AtomicU64,
    /// Event-loop poll returns across every reactor worker. Near-idle
    /// servers should barely move this — the counter the idle-churn
    /// regression test watches.
    pub(crate) wakeups: AtomicU64,
    /// Per-policy job latency (policy string → histogram). A `BTreeMap`
    /// so the `stats` reply lists policies in a deterministic order.
    latencies: Mutex<BTreeMap<String, Histogram>>,
}

// Manual because `Instant` has no `Default`: the epoch is "now".
impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            verb_map: AtomicU64::new(0),
            verb_delta: AtomicU64::new(0),
            verb_stats: AtomicU64::new(0),
            verb_trace_dump: AtomicU64::new(0),
            connections_active: AtomicUsize::new(0),
            connections_rejected: AtomicU64::new(0),
            oversize_lines: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            items_cancelled: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            latencies: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Metrics {
    /// The `stats` reply with every field both backends share filled
    /// in; the backend then adds what it owns ([`Backend::stats`]).
    ///
    /// [`Backend::stats`]: crate::reactor::Backend::stats
    pub(crate) fn stats_reply(
        &self,
        id: &str,
        connection_limit: usize,
        tracer: &Tracer,
    ) -> StatsReply {
        StatsReply {
            id: id.to_string(),
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            verbs: VerbCounters {
                map: self.verb_map.load(Ordering::Relaxed),
                map_delta: self.verb_delta.load(Ordering::Relaxed),
                stats: self.verb_stats.load(Ordering::Relaxed),
                trace_dump: self.verb_trace_dump.load(Ordering::Relaxed),
            },
            trace: tracer.is_enabled().then(|| TraceSummary {
                capacity: tracer.capacity(),
                recorded: tracer.spans_recorded(),
                dropped: tracer.spans_dropped(),
            }),
            queue_depth: 0,
            connections: self.connections_active.load(Ordering::SeqCst),
            connection_limit,
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            oversize_lines: self.oversize_lines.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            constructions: 0,
            remaps: 0,
            cancelled_items: self.items_cancelled.load(Ordering::Relaxed),
            event_loop_wakeups: self.wakeups.load(Ordering::Relaxed),
            cache: TierStats::default(),
            store: None,
            policies: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// Records one job's wall-clock latency under its policy label.
    pub(crate) fn observe_latency(&self, policy: &str, elapsed: Duration) {
        let mut map = self.lock();
        map.entry(policy.to_string()).or_default().observe(elapsed);
    }

    /// Snapshot of every policy histogram as its wire value
    /// (deterministic order).
    pub(crate) fn policy_latencies(&self) -> Vec<PolicyLatency> {
        self.lock()
            .iter()
            .map(|(policy, h)| PolicyLatency {
                policy: policy.clone(),
                count: h.count,
                total_ns: h.total_ns,
                buckets: h
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(i, &count)| LatencyBucket {
                        le_ns: BUCKET_BOUNDS_NS.get(i).copied(),
                        count,
                    })
                    .collect(),
            })
            .collect()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Histogram>> {
        self.latencies.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// RAII claim of one connection slot: increments the active count on
/// claim, decrements on drop (however the handler exits — return, error
/// or unwind), so the connection limit cannot leak slots. Owns its
/// `Arc<Metrics>` so the claim can travel into the handler thread.
#[derive(Debug)]
pub(crate) struct ConnectionSlot {
    metrics: Arc<Metrics>,
}

impl ConnectionSlot {
    /// Tries to claim a slot under `limit`; `None` means the server is
    /// at its connection cap and the connection must be rejected.
    pub(crate) fn claim(metrics: &Arc<Metrics>, limit: usize) -> Option<Self> {
        let claimed = metrics
            .connections_active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |active| {
                (active < limit).then_some(active + 1)
            })
            .is_ok();
        if claimed {
            Some(ConnectionSlot {
                metrics: Arc::clone(metrics),
            })
        } else {
            metrics.connections_rejected.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.metrics
            .connections_active
            .fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_totals() {
        let mut h = Histogram::default();
        h.observe(Duration::from_micros(50)); // ≤ 100µs
        h.observe(Duration::from_micros(500)); // ≤ 1ms
        h.observe(Duration::from_millis(50)); // ≤ 100ms
        h.observe(Duration::from_secs(60)); // overflow
        assert_eq!(h.counts, [1, 1, 0, 1, 0, 0, 1]);
        assert_eq!(h.count, 4);
        assert_eq!(
            h.total_ns,
            50_000 + 500_000 + 50_000_000 + 60_000_000_000u64
        );
    }

    #[test]
    fn connection_slots_enforce_the_limit_and_release_on_drop() {
        let metrics = Arc::new(Metrics::default());
        let a = ConnectionSlot::claim(&metrics, 2).expect("slot 1");
        let _b = ConnectionSlot::claim(&metrics, 2).expect("slot 2");
        assert!(ConnectionSlot::claim(&metrics, 2).is_none(), "at cap");
        assert_eq!(metrics.connections_rejected.load(Ordering::SeqCst), 1);
        drop(a);
        assert!(ConnectionSlot::claim(&metrics, 2).is_some(), "slot freed");
    }

    #[test]
    fn latency_snapshot_is_deterministically_ordered() {
        let metrics = Metrics::default();
        metrics.observe_latency("restarts", Duration::from_millis(2));
        metrics.observe_latency("greedy", Duration::from_micros(10));
        metrics.observe_latency("greedy", Duration::from_micros(20));
        let snap = metrics.policy_latencies();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].policy, "greedy");
        assert_eq!(snap[0].count, 2);
        assert_eq!(snap[1].policy, "restarts");
    }
}
