//! The configured, reusable mapping handle — the public API of the
//! HATT engine.
//!
//! A [`Mapper`] bundles construction options (variant, selection
//! policy, worker cap) with an owned structure-keyed
//! [`MappingCache`], behind `Send + Sync` so one handle can serve a
//! whole process (the `hatt-service` daemon shares one `Mapper` across
//! every connection). All methods return `Result<_, HattError>` — no
//! panic is reachable from malformed input.
//!
//! # Examples
//!
//! ```
//! use hatt_core::Mapper;
//! use hatt_fermion::models::FermiHubbard;
//! use hatt_mappings::{validate, FermionMapping, SelectionPolicy};
//!
//! let mapper = Mapper::builder()
//!     .policy(SelectionPolicy::quality())
//!     .cache_capacity(64)
//!     .build()?;
//! let mapping = mapper.map_fermion(&FermiHubbard::new(2, 2).hamiltonian())?;
//! assert!(validate(&mapping).vacuum_preserving);
//! # Ok::<(), hatt_core::HattError>(())
//! ```

use std::path::PathBuf;

use hatt_fermion::{FermionOperator, HamiltonianDelta, MajoranaSum};
use hatt_mappings::SelectionPolicy;
use hatt_pauli::PauliSum;

use crate::algorithm::{HattMapping, HattOptions, Variant};
use crate::batch::{map_many_impl, MappingCache};
use crate::error::HattError;
use crate::store::{StoreTier, StoreTierStats};
use hatt_mappings::FermionMapping as _;

/// A configured, reusable, thread-safe fermion-to-qubit mapping handle.
///
/// Build one with [`Mapper::builder`] (or [`Mapper::new`] for the
/// defaults), then call [`Mapper::map`] / [`Mapper::map_fermion`] /
/// [`Mapper::map_batch`] as often as needed. The handle owns a
/// [`MappingCache`], so repeated term *structures* — the service sweep
/// workload — skip the selection work after the first call;
/// results are bit-identical either way (a hit replays the cached merge
/// sequence against the new operator).
///
/// # Examples
///
/// ```
/// use hatt_core::Mapper;
/// use hatt_fermion::MajoranaSum;
/// use hatt_pauli::Complex64;
///
/// let mut h = MajoranaSum::new(2);
/// h.add(Complex64::ONE, &[0, 1]);
/// h.add(Complex64::ONE, &[0, 1, 2, 3]);
///
/// let mapper = Mapper::new();
/// let a = mapper.map(&h)?;                  // cold: full construction
/// let b = mapper.map(&h.scaled(2.0))?;      // warm: same structure, replayed
/// assert_eq!(a.tree(), b.tree());
/// assert_eq!(mapper.cache().hits(), 1);
/// # Ok::<(), hatt_core::HattError>(())
/// ```
#[derive(Debug)]
pub struct Mapper {
    options: HattOptions,
    cache: MappingCache,
}

// One handle is shared across service worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mapper>();
};

impl Default for Mapper {
    fn default() -> Self {
        Mapper::new()
    }
}

impl Mapper {
    /// A mapper with default options (Algorithm 3, greedy policy,
    /// automatic workers) and an unbounded cache.
    pub fn new() -> Mapper {
        Mapper::with_options(HattOptions::default())
    }

    /// Starts a [`MapperBuilder`] with the default configuration.
    pub fn builder() -> MapperBuilder {
        MapperBuilder::default()
    }

    /// A mapper from pre-validated [`HattOptions`] (every `HattOptions`
    /// value is valid by construction, so this cannot fail) and an
    /// unbounded cache. [`Mapper::builder`] also configures the cache
    /// and the store tier.
    pub fn with_options(options: HattOptions) -> Mapper {
        Mapper {
            options,
            cache: MappingCache::new(),
        }
    }

    /// The options every construction of this handle runs with.
    pub fn options(&self) -> &HattOptions {
        &self.options
    }

    /// The handle's structure-keyed construction cache.
    pub fn cache(&self) -> &MappingCache {
        &self.cache
    }

    /// Counters and sizes of the persistent store tier — `None` unless
    /// the handle was built with
    /// [`MapperBuilder::store_path`].
    pub fn store_stats(&self) -> Option<StoreTierStats> {
        self.cache.store_stats()
    }

    /// Flushes the persistent store tier to stable storage (a no-op for
    /// a memory-only mapper). The daemon calls this on graceful drain;
    /// ordinary write-throughs are OS-buffered.
    pub fn sync_store(&self) -> Result<(), HattError> {
        match self.cache.store() {
            Some(tier) => tier.sync(),
            None => Ok(()),
        }
    }

    /// Maps one Majorana Hamiltonian.
    ///
    /// # Errors
    ///
    /// [`HattError::EmptyHamiltonian`] when `h` has zero modes.
    pub fn map(&self, h: &MajoranaSum) -> Result<HattMapping, HattError> {
        self.cache.try_get_or_build(h, &self.options)
    }

    /// Maps the Hamiltonian obtained by applying `delta` to `prev` —
    /// the entry point for workloads that evolve a Hamiltonian term by
    /// term (adaptive ansatz growth, geometry scans that add/drop
    /// interactions).
    ///
    /// The result is **bit-identical** to
    /// `self.map(&delta.apply(prev)?)` — same tree, same per-step
    /// settled weights (`tests/remap_differential.rs` pins this). A
    /// post-delta structure already in either cache tier is replayed.
    /// Otherwise, when `prev`'s tree is still cached (either tier) and
    /// the options are a single-pass greedy policy on a paired variant,
    /// the build runs as a remap: the same pass as a cold build, which
    /// scores each candidate once per construction, counted in
    /// [`MappingCache::remaps`] instead of
    /// [`MappingCache::constructions`], with `prev`'s structure recorded
    /// as the store record's lineage.
    ///
    /// # Errors
    ///
    /// [`HattError::Delta`] when `delta` does not apply cleanly to
    /// `prev` (removing an absent term, adding a present one, mode
    /// mismatch); [`HattError::EmptyHamiltonian`] when `prev` has zero
    /// modes.
    ///
    /// # Examples
    ///
    /// ```
    /// use hatt_core::Mapper;
    /// use hatt_fermion::{HamiltonianDelta, MajoranaSum};
    /// use hatt_pauli::Complex64;
    ///
    /// let mut h = MajoranaSum::new(2);
    /// h.add(Complex64::ONE, &[0, 1]);
    /// h.add(Complex64::ONE, &[2, 3]);
    ///
    /// let mapper = Mapper::new();
    /// let _ = mapper.map(&h)?; // warm the cache
    ///
    /// let mut delta = HamiltonianDelta::new(2);
    /// delta.push_add(Complex64::real(0.5), &[0, 1, 2, 3])?;
    /// let remapped = mapper.remap(&h, &delta)?;
    ///
    /// // Bit-identical to mapping the post-delta Hamiltonian fresh.
    /// let fresh = mapper.map(&delta.apply(&h)?)?;
    /// assert_eq!(remapped.tree(), fresh.tree());
    /// assert_eq!(mapper.cache().remaps(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn remap(
        &self,
        prev: &MajoranaSum,
        delta: &HamiltonianDelta,
    ) -> Result<HattMapping, HattError> {
        self.cache.try_remap_or_build(prev, delta, &self.options)
    }

    /// Maps a second-quantized operator (preprocesses to Majorana form
    /// first; the constant term is irrelevant to the construction and is
    /// kept in place).
    pub fn map_fermion(&self, op: &FermionOperator) -> Result<HattMapping, HattError> {
        self.map(&MajoranaSum::from_fermion(op))
    }

    /// Maps a whole batch concurrently (scoped worker threads, shared
    /// cache with in-flight dedup). Results come back in input order,
    /// bit-identical to mapping each element on its own.
    ///
    /// # Errors
    ///
    /// [`HattError::BatchItem`] naming the first failing input index.
    pub fn map_batch(&self, hs: &[MajoranaSum]) -> Result<Vec<HattMapping>, HattError> {
        map_many_impl(hs, &self.options, &self.cache)
    }

    /// Maps `h` and applies the mapping to it, returning the mapped
    /// qubit Hamiltonian alongside.
    pub fn compile(&self, h: &MajoranaSum) -> Result<(HattMapping, PauliSum), HattError> {
        let mapping = self.map(h)?;
        let hq = mapping.map_majorana_sum(h);
        Ok((mapping, hq))
    }
}

/// Builder for [`Mapper`] — the place configuration errors surface as
/// typed [`HattError`]s instead of panics.
///
/// # Examples
///
/// ```
/// use hatt_core::{HattError, Mapper, Variant};
///
/// let mapper = Mapper::builder()
///     .variant(Variant::Cached)
///     .policy_str("beam:8")
///     .threads(2)
///     .cache_capacity(128)
///     .build()?;
/// assert_eq!(mapper.options().workers(), 2);
///
/// assert!(matches!(
///     Mapper::builder().policy_str("warp:9").build(),
///     Err(HattError::InvalidPolicy(_))
/// ));
/// assert!(matches!(
///     Mapper::builder().threads(0).build(),
///     Err(HattError::InvalidThreads)
/// ));
/// # Ok::<(), HattError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MapperBuilder {
    variant: Variant,
    policy: SelectionPolicy,
    policy_str: Option<String>,
    naive_weight: bool,
    threads: Option<usize>,
    cache_capacity: Option<usize>,
    store_path: Option<PathBuf>,
}

impl MapperBuilder {
    /// Selects the algorithm variant (default: [`Variant::Cached`],
    /// Algorithm 3).
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the triple-selection policy (default:
    /// [`SelectionPolicy::Greedy`]).
    pub fn policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self.policy_str = None;
        self
    }

    /// Selects the policy from its compact string form
    /// (`greedy | vanilla | restarts | lookahead:<w> | beam:<w>`).
    /// Parsing happens at [`MapperBuilder::build`], surfacing
    /// [`HattError::InvalidPolicy`].
    pub fn policy_str(mut self, policy: impl Into<String>) -> Self {
        self.policy_str = Some(policy.into());
        self
    }

    /// Uses the paper's per-term weight scan instead of the block-bitset
    /// kernel (ablation; identical results, slower).
    pub fn naive_weight(mut self, naive: bool) -> Self {
        self.naive_weight = naive;
        self
    }

    /// Caps the worker threads of the parallel execution paths. Zero is
    /// rejected at build time; leaving it unset defers to `HATT_THREADS`
    /// / the hardware count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Bounds the mapper's construction cache to `capacity` entries
    /// (LRU). Unset = unbounded; `0` disables caching.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Attaches a persistent on-disk store tier at `path`: the mapper
    /// warm-starts from any records already there, consults the file
    /// after every in-memory miss, and writes every fresh construction
    /// through — so a structure computed once is never computed again,
    /// across restarts and across processes sharing the file's host.
    /// Results are bit-identical with or without the store (a disk hit
    /// replays the stored merge sequence against the incoming
    /// operator, exactly like an in-memory hit).
    ///
    /// The log is created if absent; opening it fails the build with
    /// [`HattError::Store`]. I/O problems *after* open never fail a
    /// mapping — they degrade to misses and dropped write-throughs,
    /// visible in [`Mapper::store_stats`].
    pub fn store_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.store_path = Some(path.into());
        self
    }

    /// Validates the configuration and builds the handle.
    pub fn build(self) -> Result<Mapper, HattError> {
        let policy = match &self.policy_str {
            Some(s) => s.parse::<SelectionPolicy>()?,
            None => self.policy,
        };
        if self.threads == Some(0) {
            return Err(HattError::InvalidThreads);
        }
        let options = HattOptions {
            variant: self.variant,
            naive_weight: self.naive_weight,
            policy,
            threads: self.threads,
        };
        let mut cache = match self.cache_capacity {
            Some(cap) => MappingCache::with_capacity(cap),
            None => MappingCache::new(),
        };
        if let Some(path) = &self.store_path {
            cache.set_store(StoreTier::open(path)?);
        }
        Ok(Mapper { options, cache })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::hatt_with_impl;
    use hatt_mappings::validate;
    use hatt_pauli::Complex64;

    fn paper_example() -> MajoranaSum {
        let mut hf = FermionOperator::new(3);
        hf.add_one_body(Complex64::ONE, 0, 0);
        hf.add_two_body(Complex64::real(2.0), 1, 2, 1, 2);
        let mut m = MajoranaSum::from_fermion(&hf);
        let _ = m.take_identity();
        m
    }

    #[test]
    fn mapper_matches_direct_construction() {
        let h = paper_example();
        let mapper = Mapper::new();
        let m = mapper.map(&h).unwrap();
        let direct = hatt_with_impl(&h, &HattOptions::default()).unwrap();
        assert_eq!(m.tree(), direct.tree());
        assert_eq!(m.stats().total_weight(), 5);
        assert!(validate(&m).is_valid());
    }

    #[test]
    fn zero_modes_is_a_typed_error_everywhere() {
        let mapper = Mapper::new();
        let empty = MajoranaSum::new(0);
        assert_eq!(mapper.map(&empty).unwrap_err(), HattError::EmptyHamiltonian);
        assert_eq!(
            mapper.compile(&empty).unwrap_err(),
            HattError::EmptyHamiltonian
        );
        let batch = vec![paper_example(), empty];
        match mapper.map_batch(&batch) {
            Err(HattError::BatchItem { index, source }) => {
                assert_eq!(index, 1);
                assert_eq!(*source, HattError::EmptyHamiltonian);
            }
            other => panic!("expected BatchItem, got {other:?}"),
        }
    }

    #[test]
    fn builder_validates_policy_and_threads() {
        assert!(matches!(
            Mapper::builder().policy_str("beam:0").build(),
            Err(HattError::InvalidPolicy(_))
        ));
        assert!(matches!(
            Mapper::builder().threads(0).build(),
            Err(HattError::InvalidThreads)
        ));
        let m = Mapper::builder()
            .policy_str("lookahead:4")
            .threads(1)
            .build()
            .unwrap();
        assert_eq!(m.options().policy, SelectionPolicy::Lookahead { width: 4 });
        assert_eq!(m.options().workers(), 1);
    }

    #[test]
    fn typed_policy_overrides_earlier_string_and_vice_versa() {
        let m = Mapper::builder()
            .policy_str("beam:8")
            .policy(SelectionPolicy::Greedy)
            .build()
            .unwrap();
        assert_eq!(m.options().policy, SelectionPolicy::Greedy);
        let m = Mapper::builder()
            .policy(SelectionPolicy::Greedy)
            .policy_str("beam:8")
            .build()
            .unwrap();
        assert_eq!(m.options().policy, SelectionPolicy::Beam { width: 8 });
    }

    #[test]
    fn handle_caches_across_calls_and_batches() {
        let h = paper_example();
        let mapper = Mapper::new();
        let a = mapper.map(&h).unwrap();
        let b = mapper.map(&h.scaled(3.0)).unwrap();
        assert_eq!(a.tree(), b.tree());
        assert_eq!((mapper.cache().hits(), mapper.cache().misses()), (1, 1));
        let batch = vec![h.clone(), h.scaled(0.5)];
        let maps = mapper.map_batch(&batch).unwrap();
        assert_eq!(maps[0].tree(), a.tree());
        assert_eq!(maps[1].tree(), a.tree());
        assert_eq!(mapper.cache().hits(), 3, "batch reuses the warm entry");
    }

    #[test]
    fn cache_capacity_zero_disables_caching() {
        let h = paper_example();
        let mapper = Mapper::builder().cache_capacity(0).build().unwrap();
        let a = mapper.map(&h).unwrap();
        let b = mapper.map(&h).unwrap();
        assert_eq!(a.tree(), b.tree());
        assert_eq!(mapper.cache().len(), 0);
        assert_eq!(mapper.cache().hits(), 0, "never a hit when disabled");
        assert_eq!(mapper.cache().misses(), 2);
        // Both runs did full selection work (no replay).
        assert!(b.stats().total_candidates() > 0);
    }

    #[test]
    fn map_fermion_and_compile_agree_with_map() {
        let mut hf = FermionOperator::new(2);
        hf.add_hopping(Complex64::real(0.7), 0, 1);
        let mapper = Mapper::new();
        let via_fermion = mapper.map_fermion(&hf).unwrap();
        let h = MajoranaSum::from_fermion(&hf);
        let (via_compile, hq) = mapper.compile(&h).unwrap();
        assert_eq!(via_fermion.tree(), via_compile.tree());
        assert_eq!(hq.weight(), via_compile.stats().total_weight());
    }
}
