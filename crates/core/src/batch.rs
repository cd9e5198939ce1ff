//! Batched construction: [`Mapper::map_batch`](crate::Mapper::map_batch)
//! maps a slice of Hamiltonians concurrently, consulting a
//! structure-keyed [`MappingCache`] so repeated structures skip the
//! selection work entirely.
//!
//! ## Why structure, not value
//!
//! The HATT construction never looks at a coefficient: the
//! [`TermEngine`](hatt_mappings::TermEngine) is built from each term's
//! Majorana *support* (its canonical index set), and every selection,
//! tie-break and reduce is a pure function of those supports. Two
//! Hamiltonians with the same term supports therefore build the *same
//! tree*, whatever their coefficients — which is exactly the common case
//! for a service sweeping molecular geometries or coupling constants:
//! the integrals change every query, the term structure almost never.
//!
//! The cache key is the canonical hash ([`structure_key`]) of the term
//! multiset `(n_modes, {sorted index sets})`. [`MajoranaSum`] already
//! canonicalizes on insert (terms are sorted, squares cancelled,
//! duplicates merged, stored in a `BTreeMap`), so the key is invariant
//! under term reordering and duplicate-term insertion by construction —
//! `crates/core/tests/cache_props.rs` pins both. The hash is only the
//! fast path: every hit is confirmed by comparing the **full** structure
//! (and the construction options), so distinct structures can never
//! alias through a 64-bit collision.
//!
//! ## What a hit returns
//!
//! A hit replays the cached merge sequence against the *new* operator
//! (no candidate selection, just `N` reduces), so
//! the returned [`HattMapping`] carries exact per-step settled weights
//! for the new Hamiltonian and the tree is re-validated against it in
//! the process: replay re-attaches every internal node and re-reduces
//! the new engine, which would panic on any structural mismatch.
//!
//! Probes also dedupe **in flight**: a structure is claimed at first
//! probe, so when a concurrent batch contains the same structure many
//! times, exactly one worker constructs it and the rest block briefly
//! on its slot and replay — the cache never builds the same structure
//! twice, even within one batch.
//!
//! ## Eviction
//!
//! A cache built with [`MappingCache::with_capacity`] bounds the number
//! of stored constructions with LRU eviction (probing an entry marks it
//! used; the least-recently-used *resolved* entry is evicted first —
//! in-flight constructions are never evicted). The default
//! [`MappingCache::new`] stays unbounded, preserving the pre-eviction
//! behaviour; capacity `0` disables caching (and with it the in-flight
//! dedup) entirely, which the perf harness uses to keep timing loops
//! honest. Evicting never changes results: a re-probed structure simply
//! reconstructs, and construction is a pure function of structure.
//!
//! # Examples
//!
//! ```
//! use hatt_core::Mapper;
//! use hatt_fermion::MajoranaSum;
//! use hatt_mappings::FermionMapping;
//! use hatt_pauli::Complex64;
//!
//! // Two Hamiltonians with identical structure, different coefficients.
//! let mut a = MajoranaSum::new(2);
//! a.add(Complex64::ONE, &[0, 1]);
//! a.add(Complex64::ONE, &[2, 3]);
//! let mut b = MajoranaSum::new(2);
//! b.add(Complex64::real(0.25), &[0, 1]);
//! b.add(Complex64::real(4.0), &[2, 3]);
//!
//! let mapper = Mapper::new(); // owns an unbounded MappingCache
//! let maps = mapper.map_batch(&[a, b])?;
//! assert_eq!(maps.len(), 2);
//! // Output order matches input order; same structure → same tree.
//! assert_eq!(maps[0].tree(), maps[1].tree());
//! assert_eq!(mapper.cache().hits(), 1);
//! assert_eq!(mapper.cache().misses(), 1);
//! # Ok::<(), hatt_core::HattError>(())
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// Under `--cfg interleave` (the model-checking CI job) the slot and
// cache locks come from the instrumented `vendor/interleave` shims, so
// the explorer can enumerate every schedule of the in-flight-dedup
// protocol (`interleave_models` below). The shims pass through to
// `std` when no model is active, so ordinary tests are unaffected even
// in an interleave build.
#[cfg(interleave)]
use interleave::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(interleave))]
use std::sync::{Condvar, Mutex, MutexGuard};

use hatt_fermion::MajoranaSum;
use hatt_mappings::{NodeId, TernaryTree};
use hatt_store::fnv1a64;
// A free no-op unless the calling thread is inside a `Tracer::scope`
// (the service's dispatch loop installs one per traced request): the
// cache tiers report where a request's time went without any plumbing
// through these signatures.
use hatt_trace::span;

use crate::algorithm::{hatt_replay, hatt_with_impl, HattMapping, HattOptions};
use crate::error::HattError;
use crate::store::{StoreTier, StoreTierStats};

/// The canonical structure of a Hamiltonian: mode count plus every
/// term's support, in the deterministic (sorted) order [`MajoranaSum`]
/// stores them. Coefficients are deliberately excluded — see the
/// [module docs](self).
///
/// The supports are stored flat, each prefixed by its length, in one
/// allocation: 4 bytes per term plus 4 per index. A cache entry keeps
/// its structure as the collision guard, so this is most of an entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Structure {
    pub(crate) n_modes: usize,
    n_terms: usize,
    supports: Vec<u32>,
}

impl Structure {
    pub(crate) fn of(h: &MajoranaSum) -> Self {
        let mut supports = Vec::new();
        for (support, _) in h.iter() {
            // A support holds distinct Majorana indices below
            // `2·n_modes`, so its length fits the `u32` prefix.
            supports.push(support.len() as u32);
            supports.extend_from_slice(support);
        }
        Structure {
            n_modes: h.n_modes(),
            n_terms: h.n_terms(),
            supports,
        }
    }

    /// Every term's support, in order.
    pub(crate) fn terms(&self) -> impl Iterator<Item = &[u32]> {
        let mut rest = self.supports.as_slice();
        std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            let term = tail.get(..len as usize)?;
            rest = tail.get(len as usize..)?;
            Some(term)
        })
    }

    /// FNV-1a over the structure as little-endian `u64` words, with
    /// per-term length prefixes so term boundaries cannot alias
    /// (`{0,1},{2}` vs `{0},{1,2}`).
    pub(crate) fn hash(&self) -> u64 {
        let words = [self.n_modes as u64, self.n_terms as u64]
            .into_iter()
            .chain(self.supports.iter().map(|&word| u64::from(word)));
        fnv1a64(words.flat_map(u64::to_le_bytes))
    }
}

/// The canonical structure hash of a Hamiltonian — the [`MappingCache`]
/// fast-path key. Invariant under term reordering and duplicate-term
/// insertion (both are canonicalized away by [`MajoranaSum::add`]);
/// independent of coefficients and of process/run (plain FNV-1a, no
/// randomized state).
///
/// # Examples
///
/// ```
/// use hatt_core::structure_key;
/// use hatt_fermion::MajoranaSum;
/// use hatt_pauli::Complex64;
///
/// let mut a = MajoranaSum::new(2);
/// a.add(Complex64::ONE, &[0, 1]);
/// a.add(Complex64::ONE, &[2, 3]);
/// let mut b = MajoranaSum::new(2);
/// b.add(Complex64::real(2.0), &[2, 3]); // different order, coefficients
/// b.add(Complex64::real(0.5), &[1, 0]); // and index permutation
/// assert_eq!(structure_key(&a), structure_key(&b));
/// ```
pub fn structure_key(h: &MajoranaSum) -> u64 {
    Structure::of(h).hash()
}

/// The merge sequence that rebuilds `tree` bottom-up: each internal
/// node's `[X, Y, Z]` children in qubit (attach) order. Children always
/// have smaller node ids than their parent, so replaying in this order
/// is valid.
#[allow(clippy::expect_used)]
pub(crate) fn merge_sequence(tree: &TernaryTree) -> Vec<[NodeId; 3]> {
    (0..tree.n_modes())
        .map(|q| {
            tree.children(tree.internal_of(q))
                // hatt-lint: allow(panic) -- internal_of(q) returns an internal node, which always has children
                .expect("internal nodes have children")
        })
        .collect()
}

/// The lifecycle of one cached construction. A structure is *claimed*
/// at first probe (state `Pending`), so concurrent workers mapping the
/// same structure dedupe the work: one owner constructs, followers
/// block on the slot and replay — "repeated structures skip
/// construction" holds even inside a single concurrent batch.
#[derive(Debug)]
enum SlotState {
    /// The claiming worker is still constructing.
    Pending,
    /// The winning merge sequence is available.
    Ready(Vec<[NodeId; 3]>),
    /// The owner unwound without filling the slot; followers fall back
    /// to their own construction (and presumably hit the same panic).
    Failed,
}

#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fill(&self, seq: Vec<[NodeId; 3]>) {
        *self.lock() = SlotState::Ready(seq);
        self.ready.notify_all();
    }

    /// Marks the slot failed — but only while still pending, so the
    /// owner's unwind guard cannot clobber a filled slot.
    fn fail(&self) {
        let mut state = self.lock();
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Failed;
            self.ready.notify_all();
        }
    }

    /// Blocks until the owner resolves the slot; `None` means the owner
    /// failed and the caller should construct for itself.
    fn wait(&self) -> Option<Vec<[NodeId; 3]>> {
        let mut state = self.lock();
        loop {
            match &*state {
                SlotState::Pending => {
                    state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                SlotState::Ready(seq) => return Some(seq.clone()),
                SlotState::Failed => return None,
            }
        }
    }
}

/// One cache entry: the full structure + options (collision guard), the
/// shared construction slot, and the LRU clock stamp of its last probe.
#[derive(Debug)]
struct CacheEntry {
    options: HattOptions,
    structure: Structure,
    slot: Arc<Slot>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Hash buckets; every probe compares the full structure + options.
    /// A `BTreeMap` so eviction scans the buckets in a deterministic
    /// (ascending-hash) order — no `HashMap` iteration anywhere on the
    /// result path (`hatt-lint`'s determinism rule pins this).
    buckets: BTreeMap<u64, Vec<CacheEntry>>,
    /// LRU bound: `None` = unbounded, `Some(0)` = caching disabled.
    capacity: Option<usize>,
    /// Monotonic probe clock stamping `CacheEntry::last_used`.
    tick: u64,
    entries: usize,
    hits: u64,
    misses: u64,
}

impl CacheInner {
    /// Finds or claims the entry for `(structure, options)`: returns the
    /// slot plus whether the caller just became its owner (and must
    /// construct and fill it). Runs under the cache lock, so exactly one
    /// prober per structure ever owns. A bounded cache evicts its
    /// least-recently-used resolved entry when the insert overflows; a
    /// disabled cache (capacity 0) keeps nothing, so every probe owns a
    /// fresh slot that no other probe can find.
    fn probe(
        &mut self,
        hash: u64,
        structure: &Structure,
        options: &HattOptions,
    ) -> (Arc<Slot>, bool) {
        if self.capacity == Some(0) {
            self.misses += 1;
            return (Slot::new(), true);
        }
        let tick = self.tick;
        self.tick += 1;
        let bucket = self.buckets.entry(hash).or_default();
        if let Some(entry) = bucket
            .iter_mut()
            .find(|e| e.options == *options && e.structure == *structure)
        {
            entry.last_used = tick;
            self.hits += 1;
            return (Arc::clone(&entry.slot), false);
        }
        self.misses += 1;
        let slot = Slot::new();
        bucket.push(CacheEntry {
            options: *options,
            structure: structure.clone(),
            slot: Arc::clone(&slot),
            last_used: tick,
        });
        self.entries += 1;
        self.evict_to_capacity();
        (slot, true)
    }

    /// Evicts least-recently-used *resolved* entries until the bound
    /// holds. Pending entries (a worker is constructing; followers may
    /// be blocked on the slot) are never evicted, so the cache can
    /// transiently exceed its bound by the number of in-flight
    /// constructions.
    fn evict_to_capacity(&mut self) {
        let Some(cap) = self.capacity else { return };
        while self.entries > cap {
            let mut victim: Option<(u64, u64)> = None; // (last_used, hash)
            for (&hash, bucket) in &self.buckets {
                for e in bucket {
                    if matches!(*e.slot.lock(), SlotState::Pending) {
                        continue;
                    }
                    if victim.is_none_or(|(lu, _)| e.last_used < lu) {
                        victim = Some((e.last_used, hash));
                    }
                }
            }
            let Some((lu, hash)) = victim else {
                break; // everything in flight; nothing evictable yet
            };
            if let Some(bucket) = self.buckets.get_mut(&hash) {
                let before = bucket.len();
                bucket.retain(|e| e.last_used != lu);
                self.entries -= before - bucket.len();
                // Drop emptied buckets too: a bounded cache in a
                // long-running service must not leak one map key per
                // structure ever seen.
                if bucket.is_empty() {
                    self.buckets.remove(&hash);
                }
            }
        }
    }
}

/// Cleans up after an owner that unwinds before filling its slot: the
/// slot is marked `Failed` so blocked followers never deadlock, and the
/// entry is **removed** from the cache so the *next* probe of that
/// structure claims a fresh slot and retries the construction — a
/// one-off panic must not poison the structure forever (nor inflate the
/// hit counter with probes that then do full uncached work).
struct FailOnUnwind<'a> {
    cache: &'a MappingCache,
    hash: u64,
    slot: &'a Arc<Slot>,
}

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        self.slot.fail();
        let inner = &mut *self.cache.lock();
        if let Some(bucket) = inner.buckets.get_mut(&self.hash) {
            let before = bucket.len();
            bucket.retain(|e| !Arc::ptr_eq(&e.slot, self.slot));
            inner.entries -= before - bucket.len();
            if bucket.is_empty() {
                inner.buckets.remove(&self.hash);
            }
        }
    }
}

/// A thread-safe cache of HATT constructions keyed by Hamiltonian
/// *structure* (see the [module docs](self)). A
/// [`Mapper`](crate::Mapper) owns one; share the mapper across batches
/// to carry warm entries between calls.
///
/// [`MappingCache::new`] is unbounded; [`MappingCache::with_capacity`]
/// bounds the entry count with LRU eviction — the service
/// configuration. An entry holds the merge sequence, `24·N` bytes, and
/// the structure it guards against collisions, 4 bytes per term plus 4
/// per Majorana index.
///
/// A cache may additionally carry a **persistent second tier** (see
/// [`MapperBuilder::store_path`](crate::MapperBuilder::store_path)): an
/// in-memory miss then consults the on-disk store before constructing,
/// and every fresh construction is written through — so a structure
/// computed once is never computed again, across restarts. Store hits
/// replay exactly like in-memory hits (bit-identical, zero selection
/// work) and count toward [`MappingCache::hits`] *of the store tier*,
/// reported separately via the mapper's store stats.
#[derive(Debug, Default)]
pub struct MappingCache {
    inner: Mutex<CacheInner>,
    /// The optional on-disk tier. Store I/O happens *outside* the cache
    /// lock (only the slot owner for a structure touches the store, so
    /// disk latency never blocks probes of other structures).
    store: Option<StoreTier>,
    /// Real constructions run (selection work actually done): misses of
    /// *both* tiers that returned a mapping, session edits included. The
    /// persistence smoke test pins this at zero for a fully warm-started
    /// daemon.
    constructions: AtomicU64,
}

impl MappingCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to `capacity` entries with LRU eviction.
    /// `capacity == 0` disables caching (and in-flight dedup) entirely:
    /// every map is a fresh construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use hatt_core::{HattOptions, MappingCache};
    /// use hatt_fermion::MajoranaSum;
    ///
    /// let cache = MappingCache::with_capacity(1);
    /// let opts = HattOptions::default();
    /// let a = MajoranaSum::uniform_singles(2);
    /// let b = MajoranaSum::uniform_singles(3);
    /// let first = cache.try_get_or_build(&a, &opts)?;
    /// cache.try_get_or_build(&b, &opts)?; // evicts `a`'s entry
    /// assert_eq!(cache.len(), 1);
    /// // Evict-then-recompute is invisible in the results.
    /// let again = cache.try_get_or_build(&a, &opts)?;
    /// assert_eq!(again.tree(), first.tree());
    /// # Ok::<(), hatt_core::HattError>(())
    /// ```
    pub fn with_capacity(capacity: usize) -> Self {
        MappingCache {
            inner: Mutex::new(CacheInner {
                capacity: Some(capacity),
                ..Default::default()
            }),
            store: None,
            constructions: AtomicU64::new(0),
        }
    }

    /// Attaches the persistent tier (build-time only: the cache is not
    /// yet shared).
    pub(crate) fn set_store(&mut self, tier: StoreTier) {
        self.store = Some(tier);
    }

    /// The persistent tier, when one is attached.
    pub(crate) fn store(&self) -> Option<&StoreTier> {
        self.store.as_ref()
    }

    /// Counters and sizes of the persistent tier (`None` when the cache
    /// is memory-only).
    pub fn store_stats(&self) -> Option<StoreTierStats> {
        self.store.as_ref().map(StoreTier::stats)
    }

    /// Real constructions run — probes that missed *every* tier and did
    /// the full selection work, whether they came from `map`, a batch
    /// or a session edit ([`Mapper::remap`](crate::Mapper::remap)).
    /// Only a pass that returns a mapping counts: input the construction
    /// refuses (no modes, an invalid policy) counts nothing.
    /// `misses() - constructions()` is the work the store tier saved.
    pub fn constructions(&self) -> u64 {
        self.constructions.load(Ordering::Relaxed)
    }

    /// Runs a real construction (both tiers missed), counting it once it
    /// returns a mapping.
    fn construct(&self, h: &MajoranaSum, options: &HattOptions) -> Result<HattMapping, HattError> {
        let mapping = span("construct", || hatt_with_impl(h, options))?;
        self.constructions.fetch_add(1, Ordering::Relaxed);
        Ok(mapping)
    }

    /// The configured entry bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.lock().capacity
    }

    /// Number of cached constructions.
    pub fn len(&self) -> usize {
        self.lock().entries
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probes that found the structure already claimed or built (their
    /// construction work was skipped or deduplicated).
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Probes that claimed a fresh structure (and ran a construction).
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Maps one Hamiltonian through the cache: on a structure hit the
    /// cached merge sequence is replayed against `h` (no selection
    /// work); on a miss a full construction runs and fills the entry.
    /// Concurrent probes of the *same* structure dedupe — the first
    /// claims and constructs, the rest block until the sequence is
    /// ready, then replay. Either way the result is bit-identical to an
    /// uncached construction — construction is a pure function of
    /// structure, which is what makes the cache sound.
    ///
    /// Invalid input (zero modes) comes back as a typed [`HattError`];
    /// the claimed entry is removed again so the structure is not
    /// poisoned.
    pub fn try_get_or_build(
        &self,
        h: &MajoranaSum,
        options: &HattOptions,
    ) -> Result<HattMapping, HattError> {
        // The worker cap changes scheduling, never results: normalize it
        // out of the cache identity.
        let norm = HattOptions {
            threads: None,
            ..*options
        };
        let structure = Structure::of(h);
        let hash = structure.hash();
        let (slot, owner) = span("cache.probe", || self.lock().probe(hash, &structure, &norm));
        if owner {
            let guard = FailOnUnwind {
                cache: self,
                hash,
                slot: &slot,
            };
            // Second tier: a record on disk skips the construction.
            // Only the slot owner reaches the store, so concurrent
            // probes of one structure cost one disk read — and store
            // I/O runs outside the cache lock.
            if let Some(seq) = self
                .store
                .as_ref()
                .and_then(|tier| span("store.load", || tier.load(&structure, &norm)))
            {
                let mapping = span("cache.replay", || hatt_replay(h, options, &seq));
                slot.fill(seq);
                std::mem::forget(guard);
                return Ok(mapping);
            }
            // On an error, dropping the guard fails the slot and
            // removes the entry, exactly as an unwind would.
            let mapping = self.construct(h, options)?;
            // Write-through before publishing the slot, so a follower
            // observing `Ready` implies the record is (best-effort) on
            // its way to disk.
            if let Some(tier) = &self.store {
                span("store.save", || tier.save(&structure, &norm, &mapping));
            }
            slot.fill(merge_sequence(mapping.tree()));
            // fill() resolved the slot, so the guard's cleanup must not
            // run — the entry stays cached.
            std::mem::forget(guard);
            Ok(mapping)
        } else {
            match slot.wait() {
                Some(seq) => Ok(span("cache.replay", || hatt_replay(h, options, &seq))),
                // The owner failed; reproduce its outcome independently.
                None => self.construct(h, options),
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The batch engine behind [`crate::Mapper::map_batch`]: maps every
/// Hamiltonian in `hs`, fanning out over scoped worker threads (worker
/// count from [`HattOptions::workers`]) and deduplicating construction
/// work through `cache`. Results come back **in input order**,
/// bit-identical to mapping each element sequentially
/// (`tests/parallel_determinism.rs` pins this).
///
/// The batch level owns the fan-out and splits the worker budget by the
/// number of **distinct structures** (duplicates dedupe onto one
/// in-flight construction, so only distinct structures can make
/// progress concurrently): a batch of `D ≥ workers` distinct structures
/// runs its per-element constructions with `threads = 1` (the batch
/// uses `workers` threads total, not `workers × portfolio members`),
/// while a duplicate-heavy or small batch hands the surplus down — a
/// batch of 24 copies of one Hamiltonian at 8 workers gives its single
/// real construction all 8 threads, never silently running it
/// sequentially.
///
/// A failing element aborts the batch with
/// [`HattError::BatchItem`] naming the first failing input index.
pub(crate) fn map_many_impl(
    hs: &[MajoranaSum],
    options: &HattOptions,
    cache: &MappingCache,
) -> Result<Vec<HattMapping>, HattError> {
    let workers = options.workers();
    // Only distinct structures can construct concurrently (duplicates
    // block on the in-flight slot), so surplus budget is divided by the
    // distinct count, not the batch size, and flows down into the
    // element constructions. Thread counts never affect results, so a
    // hash collision under-counting `distinct` is a scheduling nit, not
    // a correctness issue.
    let distinct = {
        let mut keys: Vec<u64> = hs.iter().map(structure_key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    };
    let inner = HattOptions {
        threads: Some((workers / distinct.max(1)).max(1)),
        ..*options
    };
    // Scoped fan-out workers do not inherit the caller's thread-local
    // trace scope; a captured handle re-enters it per item so tier
    // spans (cache.probe, construct, …) stay in the request's trace.
    let scope = hatt_trace::capture();
    let results = parallel::par_map_with(workers, hs, |h| match &scope {
        Some(handle) => handle.scope("batch.item", || cache.try_get_or_build(h, &inner)),
        None => cache.try_get_or_build(h, &inner),
    });
    results
        .into_iter()
        .enumerate()
        .map(|(index, r)| r.map_err(|e| e.at_index(index)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mapper;
    use hatt_mappings::{validate, FermionMapping, SelectionPolicy};
    use hatt_pauli::Complex64;

    fn ham(terms: &[&[u32]]) -> MajoranaSum {
        let modes = terms
            .iter()
            .flat_map(|t| t.iter())
            .max()
            .map_or(1, |&m| m as usize / 2 + 1);
        let mut h = MajoranaSum::new(modes);
        for (i, t) in terms.iter().enumerate() {
            h.add(Complex64::real(1.0 + i as f64), t);
        }
        h
    }

    #[test]
    fn structure_hash_separates_term_boundaries() {
        // Same flattened index stream, different term split.
        let a = ham(&[&[0, 1], &[2]]);
        let b = ham(&[&[0], &[1, 2]]);
        assert_ne!(structure_key(&a), structure_key(&b));
        // Same supports, different n_modes.
        let mut wide = MajoranaSum::new(4);
        wide.add(Complex64::ONE, &[0, 1]);
        let narrow = ham(&[&[0, 1]]);
        assert_ne!(structure_key(&wide), structure_key(&narrow));
    }

    #[test]
    fn structure_terms_are_the_supports_in_order() {
        let h = ham(&[&[0, 1], &[0, 1, 2, 3], &[2, 5], &[1, 3, 4, 6], &[6, 7]]);
        let structure = Structure::of(&h);
        let supports: Vec<&[u32]> = h.iter().map(|(support, _)| support).collect();
        assert_eq!(supports.len(), 5);
        assert!(structure.terms().eq(supports));
    }

    #[test]
    fn full_key_comparison_disambiguates_forced_hash_collisions() {
        // Force two *different* structures into the same bucket: the
        // full-key comparison, not the hash, must decide hits.
        let a = Structure::of(&ham(&[&[0, 1]]));
        let b = Structure::of(&ham(&[&[2, 3]]));
        let opts = HattOptions::default();
        let mut inner = CacheInner::default();
        let (slot_a, owner_a) = inner.probe(42, &a, &opts);
        assert!(owner_a);
        slot_a.fill(vec![[0, 1, 2]]);
        let (slot_b, owner_b) = inner.probe(42, &b, &opts);
        assert!(owner_b, "same hash, different structure → distinct entry");
        slot_b.fill(vec![[2, 3, 4]]);
        assert_eq!(inner.entries, 2);
        let (again, owner) = inner.probe(42, &a, &opts);
        assert!(!owner);
        assert_eq!(again.wait(), Some(vec![[0, 1, 2]]));
        let (again, owner) = inner.probe(42, &b, &opts);
        assert!(!owner);
        assert_eq!(again.wait(), Some(vec![[2, 3, 4]]));
        let c = Structure::of(&ham(&[&[4, 5]]));
        let (_, owner_c) = inner.probe(42, &c, &opts);
        assert!(owner_c, "third structure must not alias the bucket");
        assert_eq!((inner.hits, inner.misses), (2, 3));
    }

    #[test]
    fn failed_owner_does_not_wedge_followers() {
        // A construction that fails (zero modes) must mark its slot
        // failed so later probes re-raise instead of deadlocking.
        let h = MajoranaSum::new(0);
        let cache = MappingCache::new();
        let opts = HattOptions::default();
        for attempt in 0..2 {
            let r = cache.try_get_or_build(&h, &opts);
            assert_eq!(
                r.unwrap_err(),
                HattError::EmptyHamiltonian,
                "attempt {attempt}: must fail, not hang"
            );
        }
        // The failed entry is removed each time, so the structure is not
        // poisoned: both attempts were fresh claims, nothing is cached.
        assert_eq!(cache.len(), 0, "failed entries must be evicted");
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn cache_identity_includes_options_but_not_threads() {
        let h = ham(&[&[0, 1], &[2, 3], &[0, 1, 2, 3]]);
        let cache = MappingCache::new();
        let greedy = HattOptions::default();
        let _ = cache.try_get_or_build(&h, &greedy).unwrap();
        // Different policy → different entry (a beam tree may differ).
        let beam = HattOptions::with_policy(SelectionPolicy::Beam { width: 4 });
        let _ = cache.try_get_or_build(&h, &beam).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
        // Same policy, different worker cap → hit (threads normalized).
        let greedy_4t = HattOptions {
            threads: Some(4),
            ..greedy
        };
        let m = cache.try_get_or_build(&h, &greedy_4t).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(m.tree(), hatt_with_impl(&h, &greedy).unwrap().tree());
    }

    #[test]
    fn hit_replays_exact_stats_for_the_new_operator() {
        let a = ham(&[&[0, 1], &[2, 3], &[4, 5], &[2, 3, 4, 5]]);
        let mut b = a.clone();
        // Same structure, different coefficients.
        b.add(Complex64::real(0.125), &[2, 3]);
        let cache = MappingCache::new();
        let opts = HattOptions::default();
        let _ = cache.try_get_or_build(&a, &opts).unwrap();
        let hit = cache.try_get_or_build(&b, &opts).unwrap();
        let fresh = hatt_with_impl(&b, &opts).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(hit.tree(), fresh.tree());
        assert_eq!(hit.stats().total_weight(), fresh.stats().total_weight());
        // The replay evaluates no candidates — selection was skipped.
        assert_eq!(hit.stats().total_candidates(), 0);
        assert!(validate(&hit).is_valid());
    }

    #[test]
    fn map_many_matches_sequential_in_input_order() {
        let hs: Vec<MajoranaSum> = vec![
            ham(&[&[0, 1], &[2, 3]]),
            ham(&[&[0, 3], &[1, 2], &[0, 1, 2, 3]]),
            ham(&[&[0, 1], &[2, 3]]), // repeat of the first structure
        ];
        for workers in [1, 2, 4] {
            let opts = HattOptions {
                threads: Some(workers),
                ..Default::default()
            };
            let maps = Mapper::with_options(opts).map_batch(&hs).unwrap();
            assert_eq!(maps.len(), hs.len());
            for (h, m) in hs.iter().zip(&maps) {
                let solo = hatt_with_impl(h, &HattOptions::default()).unwrap();
                assert_eq!(m.tree(), solo.tree(), "workers = {workers}");
                assert_eq!(m.majorana(0), solo.majorana(0));
            }
        }
    }

    #[test]
    fn lru_eviction_bounds_entries_and_preserves_results() {
        let cache = MappingCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let opts = HattOptions::default();
        let hams: Vec<MajoranaSum> = vec![
            ham(&[&[0, 1], &[2, 3]]),
            ham(&[&[0, 2], &[1, 3]]),
            ham(&[&[0, 3], &[1, 2]]),
        ];
        let fresh: Vec<_> = hams
            .iter()
            .map(|h| cache.try_get_or_build(h, &opts).unwrap())
            .collect();
        // Three distinct structures through a 2-entry cache: the first
        // (least recently used) was evicted.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 3);
        // Re-probing the evicted structure recomputes — identically.
        let again = cache.try_get_or_build(&hams[0], &opts).unwrap();
        assert_eq!(again.tree(), fresh[0].tree());
        assert_eq!(
            again.stats().total_weight(),
            fresh[0].stats().total_weight()
        );
        assert_eq!(cache.misses(), 4, "evicted entry is a fresh miss");
        assert_eq!(cache.len(), 2, "bound still holds");
        // The survivors are still warm.
        let warm = cache.try_get_or_build(&hams[2], &opts).unwrap();
        assert_eq!(warm.tree(), fresh[2].tree());
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn lru_eviction_respects_recency_of_probes() {
        let cache = MappingCache::with_capacity(2);
        let opts = HattOptions::default();
        let a = ham(&[&[0, 1], &[2, 3]]);
        let b = ham(&[&[0, 2], &[1, 3]]);
        let c = ham(&[&[0, 3], &[1, 2]]);
        let _ = cache.try_get_or_build(&a, &opts).unwrap();
        let _ = cache.try_get_or_build(&b, &opts).unwrap();
        // Touch `a` so `b` becomes the LRU entry, then insert `c`.
        let _ = cache.try_get_or_build(&a, &opts).unwrap();
        let _ = cache.try_get_or_build(&c, &opts).unwrap();
        assert_eq!(cache.len(), 2);
        // `a` must still be warm (hit), `b` must be gone (miss).
        let before = cache.hits();
        let _ = cache.try_get_or_build(&a, &opts).unwrap();
        assert_eq!(cache.hits(), before + 1, "recently-used entry survived");
        let misses = cache.misses();
        let _ = cache.try_get_or_build(&b, &opts).unwrap();
        assert_eq!(cache.misses(), misses + 1, "LRU entry was evicted");
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = MappingCache::new();
        assert_eq!(cache.capacity(), None);
        let opts = HattOptions::default();
        for k in 0..6u32 {
            let mut h = MajoranaSum::new(4);
            h.add(Complex64::ONE, &[0, 1]);
            h.add(Complex64::ONE, &[k % 8, (k + 1) % 8]);
            let _ = cache.try_get_or_build(&h, &opts);
        }
        assert!(cache.len() >= 5, "distinct structures all retained");
    }

    #[test]
    fn shared_cache_carries_hits_across_batches() {
        let hs = vec![ham(&[&[0, 1], &[2, 3]]); 3];
        let mapper = Mapper::with_options(HattOptions::with_threads(2));
        let cache = mapper.cache();
        let _ = mapper.map_batch(&hs).unwrap();
        assert_eq!(cache.len(), 1);
        // In-flight dedup makes this deterministic even concurrently:
        // exactly one probe claims the structure, the other two follow.
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        let _ = mapper.map_batch(&hs).unwrap();
        assert_eq!(cache.hits(), 2 + 3, "second batch is all hits");
        assert_eq!(cache.len(), 1);
    }
}

/// Exhaustive interleaving models of the slot protocol, compiled only
/// under `RUSTFLAGS="--cfg interleave"` (the CI `interleave` job).
/// Each [`interleave::model`] re-runs its body under *every* schedule
/// of the instrumented lock/condvar operations, so the invariants here
/// hold against the full schedule tree of 2–3 threads, not one run.
#[cfg(all(test, interleave))]
mod interleave_models {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use hatt_mappings::FermionMapping;
    use interleave::thread;

    use super::*;

    fn tiny() -> MajoranaSum {
        MajoranaSum::uniform_singles(2)
    }

    /// `threads: Some(1)` keeps each construction inline on its model
    /// thread — the schedule space stays the protocol's, not the
    /// engine's.
    fn seq() -> HattOptions {
        HattOptions {
            threads: Some(1),
            ..Default::default()
        }
    }

    #[test]
    fn owner_constructs_and_followers_replay_under_every_schedule() {
        let report = interleave::model(|| {
            let cache = Arc::new(MappingCache::new());
            let expect = hatt_with_impl(&tiny(), &seq()).unwrap();
            let other = {
                let cache = Arc::clone(&cache);
                thread::spawn(move || cache.try_get_or_build(&tiny(), &seq()).unwrap())
            };
            let mine = cache.try_get_or_build(&tiny(), &seq()).unwrap();
            let theirs = other.join().unwrap();
            assert_eq!(mine.tree(), expect.tree());
            assert_eq!(theirs.tree(), expect.tree());
            // Whichever thread probed first owns; the other deduped
            // onto its slot — in every schedule.
            assert_eq!(cache.len(), 1);
            assert_eq!((cache.hits(), cache.misses()), (1, 1));
        });
        assert!(report.iterations > 1, "explored {}", report.iterations);
    }

    #[test]
    fn fail_guard_unblocks_followers_and_removes_the_entry() {
        interleave::model(|| {
            let cache = MappingCache::new();
            let structure = Structure::of(&tiny());
            let hash = structure.hash();
            let norm = HattOptions {
                threads: None,
                ..seq()
            };
            let (slot, owner) = cache.lock().probe(hash, &structure, &norm);
            assert!(owner);
            let follower = {
                let slot = Arc::clone(&slot);
                thread::spawn(move || slot.wait())
            };
            // The owner unwinds before filling: the guard must fail
            // the slot (so the follower never deadlocks) and remove
            // the claimed entry (so the structure is not poisoned).
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                let _guard = FailOnUnwind {
                    cache: &cache,
                    hash,
                    slot: &slot,
                };
                panic!("construction blew up");
            }));
            assert!(unwound.is_err());
            let observed = follower.join().unwrap();
            assert!(observed.is_none(), "follower observes the failure");
            assert_eq!(cache.len(), 0, "failed entry is removed");
            let (_fresh, owner_again) = cache.lock().probe(hash, &structure, &norm);
            assert!(owner_again, "the next probe re-claims and retries");
        });
    }

    #[test]
    fn lru_eviction_under_contention_stays_bounded_and_correct() {
        interleave::model(|| {
            let cache = Arc::new(MappingCache::with_capacity(1));
            let big = MajoranaSum::uniform_singles(3);
            let other = {
                let (cache, big) = (Arc::clone(&cache), big.clone());
                thread::spawn(move || cache.try_get_or_build(&big, &seq()).unwrap())
            };
            let a = cache.try_get_or_build(&tiny(), &seq()).unwrap();
            let b = other.join().unwrap();
            assert_eq!(a.tree(), hatt_with_impl(&tiny(), &seq()).unwrap().tree());
            assert_eq!(b.tree(), hatt_with_impl(&big, &seq()).unwrap().tree());
            // In-flight entries are never evicted, so the bound may be
            // exceeded by the number of concurrent constructions...
            assert!(cache.len() <= 2, "overshoot is bounded by in-flight count");
            // ...but the next insert, with everything resolved, evicts
            // back down to capacity.
            let c = cache
                .try_get_or_build(&MajoranaSum::uniform_singles(4), &seq())
                .unwrap();
            assert_eq!(c.n_modes(), 4);
            assert_eq!(cache.len(), 1, "resolved entries evict to the bound");
        });
    }

    #[test]
    fn disabled_cache_constructs_every_probe_under_every_schedule() {
        // Capacity 0: each probe owns a slot the cache does not keep,
        // so two concurrent maps of one structure never dedupe.
        let report = interleave::model(|| {
            let cache = Arc::new(MappingCache::with_capacity(0));
            let other = {
                let cache = Arc::clone(&cache);
                thread::spawn(move || cache.try_get_or_build(&tiny(), &seq()).unwrap())
            };
            let mine = cache.try_get_or_build(&tiny(), &seq()).unwrap();
            let theirs = other.join().unwrap();
            assert_eq!(mine.tree(), theirs.tree());
            assert_eq!(cache.constructions(), 2, "both threads construct");
            assert_eq!((cache.hits(), cache.misses()), (0, 2));
            assert_eq!(cache.len(), 0);
        });
        assert!(report.iterations > 1, "explored {}", report.iterations);
    }

    #[test]
    fn map_many_dedupes_in_flight_under_every_schedule() {
        // Two duplicate items on two workers keeps the exhaustive
        // schedule tree tractable (three threads × the full
        // queue/cache/slot protocol blows past the iteration bound)
        // while still covering the full stack: fan-out, probe race,
        // owner construct, follower wait/replay.
        let report = interleave::model(|| {
            let cache = MappingCache::new();
            let hs = vec![tiny(), tiny()];
            let opts = HattOptions {
                threads: Some(2),
                ..Default::default()
            };
            let got = map_many_impl(&hs, &opts, &cache).unwrap();
            assert_eq!(got.len(), 2);
            assert_eq!(got[0].tree(), got[1].tree());
            // However the two workers interleave, exactly one probe
            // claims the structure and constructs; the other follows
            // its slot (in flight or after the fill).
            assert_eq!((cache.hits(), cache.misses()), (1, 1));
            assert_eq!(cache.len(), 1);
        });
        assert!(report.iterations > 1, "explored {}", report.iterations);
    }
}
