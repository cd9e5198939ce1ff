//! The Hamiltonian-Adaptive Ternary Tree construction — Algorithms 1, 2
//! and 3 of the paper.
//!
//! All three variants share the bottom-up skeleton: start from the
//! `2N + 1` free leaves (the node set `U`), and for `N` iterations pick
//! three current roots, attach a new parent (settling one qubit), and
//! reduce the Hamiltonian. They differ in *how the triple is selected*:
//!
//! * [`Variant::Unopt`] — Algorithm 1: free choice over all `C(|U|, 3)`
//!   triples, minimizing the settled weight. `O(N⁴)` total; does **not**
//!   preserve the vacuum state.
//! * [`Variant::Paired`] — Algorithm 2: only `(O_X, O_Z)` are free; `O_Y`
//!   is derived by walking down to `descZ(O_X)`, picking its partner
//!   leaf, and walking back up to the node set. Preserves the vacuum
//!   state; traversals make it `O(N⁴)` worst case.
//! * [`Variant::Cached`] — Algorithm 3 (the default): Algorithm 2 with
//!   the `mdown : O → descZ(O)` and `mup : descZ(O) → O` maps replacing
//!   both traversals with O(1) lookups, for `O(N³)` total. Its greedy
//!   pass also keeps a per-construction score table, so each candidate
//!   is scored once per construction rather than once per step, and
//!   each pair row's first minimum, so a step reads the new parent's
//!   column and the rows a merge disturbed rather than every candidate
//!   (see [`ScoreTable`]). On sparse inputs the table fills a whole row,
//!   or the new parent's column, in one walk over each term's live
//!   roots (the paper's per-term symbol sets); dense inputs, and every
//!   pass that scores entry by entry, go through the engine's pair
//!   memo.
//!
//! Orthogonally to the variant, a [`SelectionPolicy`] decides *which* of
//! the candidate triples wins each step:
//!
//! * [`SelectionPolicy::Greedy`] (default) — minimum [`TripleScore`]
//!   (amortized key, then post-reduce residual, then node index); one
//!   pass, each candidate scored once per construction.
//! * [`SelectionPolicy::Lookahead`] — the best-`width` shortlist is
//!   re-ranked by simulating each candidate and adding the best
//!   amortized key the next step could then achieve.
//! * [`SelectionPolicy::Beam`] — the `width` best merge-sequence
//!   prefixes survive each step (the whole construction runs as a
//!   beam). `Beam { width: 1 }` coincides with `Greedy`.
//!
//! The lookahead simulation and the beam always use the Algorithm 3 maps
//! for operator pairing, whatever the variant — pairing is
//! variant-independent (Algorithms 2 and 3 build identical trees), so
//! this changes no result, only bounds the simulation cost.
//!
//! ## Threading
//!
//! Two execution paths fan out over scoped worker threads (worker count
//! from [`HattOptions::workers`], i.e. `HATT_THREADS` or the hardware
//! count): the [`SelectionPolicy::Restarts`] portfolio runs its members
//! concurrently, and a multi-state beam scans its states concurrently.
//! Both reduce their results in a fixed order (member index / state
//! index), so parallel output is **bit-identical** to sequential — see
//! `docs/ARCHITECTURE.md` ("Threading model") and
//! `tests/parallel_determinism.rs`. Batch workloads go through
//! [`Mapper::map_batch`](crate::Mapper::map_batch), which additionally
//! caches constructions by Hamiltonian structure.
//!
//! # Examples
//!
//! Stronger policies can only improve the objective; the `Restarts`
//! portfolio additionally never loses to Jordan-Wigner (it contains a
//! JW-structured restart):
//!
//! ```
//! use hatt_core::Mapper;
//! use hatt_fermion::models::FermiHubbard;
//! use hatt_fermion::MajoranaSum;
//! use hatt_mappings::{jordan_wigner, FermionMapping, SelectionPolicy};
//!
//! let h = MajoranaSum::from_fermion(&FermiHubbard::new(2, 2).hamiltonian());
//! let mapper = Mapper::builder()
//!     .policy(SelectionPolicy::quality())
//!     .build()?;
//! let w_hatt = mapper.map(&h)?.map_majorana_sum(&h).weight();
//! let w_jw = jordan_wigner(8).map_majorana_sum(&h).weight();
//! assert!(w_hatt <= w_jw);
//! # Ok::<(), hatt_core::HattError>(())
//! ```

use std::cmp::Ordering;
use std::time::Instant;

use hatt_fermion::MajoranaSum;
use hatt_mappings::{
    select_free_triple, Blend, FermionMapping, NodeId, PortfolioMember, SelectionPolicy,
    TermEngine, TernaryTree, TernaryTreeBuilder, TreeMapping, TripleCounts, TripleScore,
};
use hatt_pauli::PauliString;

use crate::error::HattError;
use crate::stats::{ConstructionStats, IterationStats};

// The threaded portfolio and the batch layer move these across scoped
// worker threads; keep them plain owned data.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MajoranaSum>();
    assert_send_sync::<HattMapping>();
    assert_send_sync::<HattOptions>();
};

/// Which of the paper's algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Variant {
    /// Algorithm 1: free triple selection, `O(N⁴)`, no vacuum guarantee.
    Unopt,
    /// Algorithm 2: operator pairing with literal tree traversals.
    Paired,
    /// Algorithm 3: operator pairing with O(1) cached maps (default).
    /// Under [`SelectionPolicy::Greedy`] and [`SelectionPolicy::Vanilla`]
    /// (and the restarts portfolio's greedy members) each candidate is
    /// also scored once per construction through a score table; the
    /// tree is the one [`Variant::Paired`] builds.
    #[default]
    Cached,
}

impl Variant {
    /// Short display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Unopt => "HATT (unopt)",
            Variant::Paired => "HATT (paired, uncached)",
            Variant::Cached => "HATT",
        }
    }

    /// Short machine-readable key (`unopt` / `paired` / `cached`) — the
    /// form the wire format and perf artifacts use.
    pub fn key(self) -> &'static str {
        match self {
            Variant::Unopt => "unopt",
            Variant::Paired => "paired",
            Variant::Cached => "cached",
        }
    }

    /// Parses a [`Variant::key`] back (`None` for anything else).
    pub fn from_key(s: &str) -> Option<Variant> {
        match s {
            "unopt" => Some(Variant::Unopt),
            "paired" => Some(Variant::Paired),
            "cached" => Some(Variant::Cached),
            _ => None,
        }
    }
}

/// Construction options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HattOptions {
    /// Algorithm variant.
    pub variant: Variant,
    /// Use the paper's per-term weight scan instead of the block-bitset
    /// kernel (ablation; identical results, slower).
    pub naive_weight: bool,
    /// How to choose among candidate triples (tie-breaking, lookahead or
    /// beam search). [`SelectionPolicy::Greedy`] preserves the O(1)
    /// memoized fast path.
    pub policy: SelectionPolicy,
    /// Worker-thread cap for the parallel execution paths (the
    /// [`SelectionPolicy::Restarts`] member fan-out and the beam's
    /// per-state candidate scans). `None` defers to the `HATT_THREADS`
    /// environment variable / hardware count via
    /// [`parallel::max_threads`]; `Some(1)` forces the fully sequential
    /// engine. **Never affects results** — parallel output is
    /// bit-identical to sequential (pinned by
    /// `tests/parallel_determinism.rs`), only wall time changes.
    pub threads: Option<usize>,
}

impl HattOptions {
    /// Default options with an explicit selection policy.
    pub fn with_policy(policy: SelectionPolicy) -> Self {
        HattOptions {
            policy,
            ..Default::default()
        }
    }

    /// Default options with an explicit worker-thread cap.
    pub fn with_threads(threads: usize) -> Self {
        HattOptions {
            threads: Some(threads),
            ..Default::default()
        }
    }

    /// The resolved worker count this construction may use
    /// (`threads`, else `HATT_THREADS`, else the hardware count).
    pub fn workers(&self) -> usize {
        self.threads
            .map(|t| t.max(1))
            .unwrap_or_else(parallel::max_threads)
    }
}

/// The result of a HATT construction: a tree-backed fermion-to-qubit
/// mapping plus instrumentation.
///
/// # Examples
///
/// ```
/// use hatt_core::Mapper;
/// use hatt_fermion::{FermionOperator, MajoranaSum};
/// use hatt_mappings::{validate, FermionMapping};
/// use hatt_pauli::Complex64;
///
/// // The paper's Equation (3) Hamiltonian.
/// let mut hf = FermionOperator::new(3);
/// hf.add_one_body(Complex64::ONE, 0, 0);
/// hf.add_two_body(Complex64::real(2.0), 1, 2, 1, 2);
/// let h = MajoranaSum::from_fermion(&hf);
///
/// let mapping = Mapper::new().map(&h)?;
/// let report = validate(&mapping);
/// assert!(report.is_valid());
/// assert!(report.vacuum_preserving);
/// assert_eq!(mapping.stats().total_weight(), 5); // 1 + 2 + 2, as in §IV-B
/// # Ok::<(), hatt_core::HattError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HattMapping {
    mapping: TreeMapping,
    stats: ConstructionStats,
    options: HattOptions,
}

impl HattMapping {
    /// Reassembles a mapping from its parts — the wire decoder's
    /// constructor (`crate::wire`).
    pub(crate) fn from_parts(
        mapping: TreeMapping,
        stats: ConstructionStats,
        options: HattOptions,
    ) -> Self {
        HattMapping {
            mapping,
            stats,
            options,
        }
    }

    /// The underlying ternary tree.
    pub fn tree(&self) -> &TernaryTree {
        self.mapping.tree()
    }

    /// Construction statistics (Figure 12 / Table VI instrumentation).
    pub fn stats(&self) -> &ConstructionStats {
        &self.stats
    }

    /// The options the mapping was built with.
    pub fn options(&self) -> &HattOptions {
        &self.options
    }

    /// Access to the inner [`TreeMapping`].
    pub fn as_tree_mapping(&self) -> &TreeMapping {
        &self.mapping
    }
}

impl FermionMapping for HattMapping {
    fn n_modes(&self) -> usize {
        self.mapping.n_modes()
    }

    fn majorana(&self, k: usize) -> &PauliString {
        self.mapping.majorana(k)
    }

    fn name(&self) -> &str {
        self.options.variant.label()
    }
}

/// The construction entry point behind [`crate::Mapper::map`]:
/// validates the input and the policy, then runs the policy.
pub(crate) fn hatt_with_impl(
    h: &MajoranaSum,
    options: &HattOptions,
) -> Result<HattMapping, HattError> {
    if h.n_modes() == 0 {
        return Err(HattError::EmptyHamiltonian);
    }
    check_policy(options.policy)?;
    match options.policy {
        SelectionPolicy::Beam { width } => hatt_beam(h, options, width, Blend::UNIT),
        SelectionPolicy::Restarts => hatt_restarts(h, options),
        _ => hatt_single(h, options, options.policy.blend()),
    }
}

/// Refuses a policy whose text form does not parse back: a `lookahead`
/// or `beam` width outside 1 to 64. A mapping built under it could be
/// neither stored nor sent, since store records and `map_item` lines
/// carry the policy as text.
pub(crate) fn check_policy(policy: SelectionPolicy) -> Result<(), HattError> {
    let _: SelectionPolicy = policy.to_string().parse()?;
    Ok(())
}

/// One policy-driven greedy/lookahead construction pass under `blend`:
/// Algorithm 1 for [`Variant::Unopt`], Algorithms 2/3 otherwise, one
/// qubit settled per step. A [`Variant::Cached`] greedy pass selects
/// through a [`ScoreTable`]; every other pass scans all candidates each
/// step.
fn hatt_single(
    h: &MajoranaSum,
    options: &HattOptions,
    blend: Blend,
) -> Result<HattMapping, HattError> {
    let n = h.n_modes();
    let start = Instant::now();
    let mut engine = TermEngine::new(h);
    let mut builder = TernaryTreeBuilder::new(n);
    let mut state = PairingState::new(n);
    let mut table = ScoreTable::for_pass(&engine, options);
    let mut iterations = Vec::with_capacity(n);
    // The node set `U`, ascending: each attach drops the three children
    // and appends the parent, whose id is the largest yet.
    let mut u: Vec<NodeId> = (0..2 * n + 1).collect();

    for qubit in 0..n {
        let mut iter_stats = IterationStats {
            qubit,
            ..Default::default()
        };
        let next_parent: NodeId = 2 * n + 1 + qubit;
        // `construct.step` times one qubit's candidate selection — the
        // per-step profiling hook behind the fig12 kernel analysis. A
        // free no-op outside a tracing scope.
        let selection = hatt_trace::span("construct.step", || -> Result<Selection, HattError> {
            let walk = match options.variant {
                Variant::Unopt => {
                    let sel = select_free_triple(
                        &mut engine,
                        &u,
                        options.policy,
                        blend,
                        options.naive_weight,
                        next_parent,
                    );
                    iter_stats.candidates = sel.candidates;
                    return Ok(Selection {
                        children: sel.children,
                        weight: sel.score.weight,
                    });
                }
                Variant::Paired => Some(&builder),
                Variant::Cached => None,
            };
            if let Some(table) = &mut table {
                return table.select(&mut engine, &u, options, blend, &mut iter_stats, &state);
            }
            select_paired(
                &mut engine,
                walk,
                &u,
                n,
                options,
                blend,
                next_parent,
                &mut iter_stats,
                &mut state,
            )
        })?;
        let [ox, oy, oz] = selection.children;
        iter_stats.settled_weight = selection.weight;
        let parent = builder.attach([ox, oy, oz]);
        debug_assert_eq!(parent, next_parent);
        engine.reduce(parent, ox, oy, oz);
        state.record_attach(parent, oz);
        if let Some(table) = &mut table {
            // `parent` inherits `descZ(O_Z)`, so the root that paired
            // with `O_Z` now pairs with `parent`.
            table.attach(&engine, parent, [ox, oy, oz], state.mdown[parent]);
        }
        u.retain(|v| ![ox, oy, oz].contains(v));
        u.push(parent);
        iterations.push(iter_stats);
    }

    Ok(assemble(options, &engine, builder, iterations, start))
}

/// Packages a finished construction: the tree under the identity leaf
/// assignment, plus the stats of the engine that selected it.
fn assemble(
    options: &HattOptions,
    engine: &TermEngine,
    builder: TernaryTreeBuilder,
    iterations: Vec<IterationStats>,
    start: Instant,
) -> HattMapping {
    let (memo_hits, memo_misses) = engine.memo_stats();
    let stats = ConstructionStats {
        iterations,
        n_terms: engine.n_terms(),
        elapsed: start.elapsed(),
        memo_hits,
        memo_misses,
    };
    HattMapping {
        mapping: TreeMapping::with_identity_assignment(options.variant.label(), builder.finish()),
        stats,
        options: *options,
    }
}

/// A chosen `[X, Y, Z]` child triple and its settled weight.
struct Selection {
    children: [NodeId; 3],
    weight: usize,
}

fn counts_of(
    engine: &mut TermEngine,
    options: &HattOptions,
    [a, b, c]: [NodeId; 3],
) -> TripleCounts {
    if options.naive_weight {
        engine.counts_of_triple_naive(a, b, c)
    } else {
        engine.counts_of_triple_memo(a, b, c)
    }
}

fn score_of(
    engine: &mut TermEngine,
    options: &HattOptions,
    blend: Blend,
    children: [NodeId; 3],
) -> TripleScore {
    counts_of(engine, options, children).score(blend)
}

/// Above this many tree nodes (`3N + 1`) a [`Variant::Cached`] greedy
/// pass keeps no [`ScoreTable`] and scans every candidate each step, as
/// the other passes do. The table holds `N·(3N + 1)` entries of 12
/// bytes: 347 KB at N = 98, 2.4 MB at N = 256 and 16.8 MB at the limit
/// (N = 682), where the engine's pairwise memo, bounded at the same node
/// count, is ~25 MB.
const SCORE_TABLE_NODE_LIMIT: usize = 2048;

/// A [`ScoreTable`] fills by walking live roots when a leaf row's
/// expected walk is at most this many root visits per column of the
/// row (see [`walks_live_roots`]). Fixed by timing both fills on the
/// paper's Table I, neutrino and Hubbard cases, the N = 256 pair,
/// random Hamiltonians and 98-mode Hubbard edits. Every input at or
/// below 1.6 visits per column built faster walked; from 2.2 up most
/// random Hamiltonians and the neutrino models from 4x2F built slower.
/// The estimate sees only the leaves, and on dense inputs the parents
/// collect terms, so later walks cost more than the first.
const WALK_VISITS_PER_COLUMN: u128 = 2;

/// A table entry no candidate has filled yet. No real entry can equal
/// it: the three counts of one triple sum to at most the term count,
/// which fits a `u32`.
const UNSCORED: [u32; 3] = [u32::MAX; 3];

/// The per-construction score table of a [`Variant::Cached`] greedy
/// pass: the membership counts of each candidate scored so far, so
/// that each candidate is scored once per construction instead of once
/// per step, and each row's first minimum, so that a step reads only
/// the entries that can move it.
///
/// A candidate is an X/Y pair of roots plus a Z root. The row is the
/// pair, named by its free leaves `(2m, 2m + 1)` (row `m`), the column
/// is Z. An entry stays valid while its row names the same two roots
/// and its column is a root, because a root's incidence never changes
/// while it is a root. Each attach keeps every other entry a later step
/// reads: the merged pair's row and the merged roots' columns are never
/// read again, the new parent's column starts empty, and only the row
/// whose partner root was the merged `O_Z` now names a different pair
/// (the parent inherits `descZ(O_Z)`). That row is cleared.
///
/// # Row minima
///
/// Each row caches its first minimum `(score, Z)`. The invariant: `Z`
/// is the first live column (ascending node id) with the row's minimum
/// score, every live column before it scores strictly worse, and every
/// live column after it scores no better. An attach removes three
/// columns and adds one, the new parent, whose id is the largest yet.
/// Each step visits every row and restores the invariant:
///
/// 1. A row without a minimum (step 0, or emptied by an attach) is
///    filled and scanned in full.
/// 2. Any other row first scores the newest column, the parent attached
///    on the previous step: the one column the row has not seen.
/// 3. If the cached `Z` is still a root, the newest column replaces it
///    only when strictly better.
/// 4. If `Z` merged away, the row's scan resumes just after `Z` and
///    stops at the first column whose score orders equal to the old
///    minimum: nothing can beat it, and every column before `Z` scored
///    worse. Only when no column ties is the rest of the row read; the
///    newest column then wins only if strictly better.
///
/// Ties compare with [`Ord::cmp`], which orders by `(key, residual)`;
/// the derived `==` also compares the reported weight. Rule 2 scores
/// the same entry the full visit would score on the same step, so the
/// scored set, and each step's `candidates`, do not change.
///
/// # Filling entries
///
/// An entry is `(n₁, n₂, n₃)`, from `S = |X| + |Y| + |Z|`,
/// `P = |X∩Y| + |X∩Z| + |Y∩Z|` and `n₃ = |X∩Y∩Z|` by the identities of
/// [`TermEngine::counts_of_triple_memo`]. Rules 1 and 2 fill in one of
/// two ways, chosen once per construction from the input's shape:
///
/// * *Entry by entry*: each entry costs three pair-memo lookups (a
///   bitset pass on a miss). Dense inputs, where a Majorana sits in a
///   large share of the terms, fill this way.
/// * *Walking live roots* ([`LiveRoots`]): each term keeps the roots
///   its symbol set still holds. Rule 1 fills a whole row `(X, Y)` in
///   one walk over the terms of `X ∪ Y`, accumulating `|X∩Z| + |Y∩Z|`
///   and `|X∩Y∩Z|` for every `Z` in those terms' lists; every other
///   column shares no term with `X` or `Y`, so its entry follows from
///   `|X∩Y|` and the popcounts. Rule 2 fills the newest column of every
///   row in one walk over the new parent's terms: each other live root
///   in a term's list adds 1 to its row, and a row with both roots in
///   the list also gains 1 in `|X∩Y∩P|`. `|X∩Y|` is kept per row from
///   its rule 1 walk, which lasts as long as the row's pair.
///
/// The walk costs a few root visits per term a row touches, against a
/// fixed per-entry cost, so it pays only where each Majorana sits in
/// few terms. [`walks_live_roots`] estimates a leaf row's walk as
/// `2 × (terms per Majorana) × (mean support)` root visits and walks
/// when that is at most [`WALK_VISITS_PER_COLUMN`] times the row's
/// `2N − 1` columns. Lattice models, the singles chain and Fig. 12's
/// dense shape from N ≈ 128 walk; Table I molecules score entry by
/// entry. Both fills write the same counts, so the choice moves no
/// tree, merge sequence, `candidates` count or settled weight; a walked
/// construction never touches the pair memo, so its `memo_hits` and
/// `memo_misses` read 0.
struct ScoreTable {
    /// Mode count `N`: the table has `N` rows of `3N + 1` columns.
    n: usize,
    /// `(n₁, n₂, n₃)` per entry, [`UNSCORED`] where not yet scored.
    counts: Vec<[u32; 3]>,
    /// Each row's first minimum `(score, Z)`, `None` before the row's
    /// first full scan.
    row_min: Vec<Option<(TripleScore, NodeId)>>,
    /// The live-root lists of a walked fill, `None` when the table
    /// fills entry by entry.
    live: Option<LiveRoots>,
}

#[cfg(test)]
thread_local! {
    /// Entries [`ScoreTable::select`] has read on this thread (scored
    /// or not): the read-bound test's counter.
    static TABLE_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Overrides [`walks_live_roots`] for tables made on this thread:
    /// `Some(true)` walks, `Some(false)` fills entry by entry, so the
    /// differential tests run both fills on every input.
    static FORCE_WALK: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

impl ScoreTable {
    /// The table for one construction pass, or `None` when the pass
    /// scans in full: the [`Variant::Paired`] and [`Variant::Unopt`]
    /// references, the lookahead (its shortlist wants every visit) and
    /// trees over [`SCORE_TABLE_NODE_LIMIT`] nodes. The
    /// [`HattOptions::naive_weight`] ablation keeps its per-term scan
    /// for every entry.
    fn for_pass(engine: &TermEngine, options: &HattOptions) -> Option<ScoreTable> {
        let n = engine.n_modes();
        let n_nodes = 3 * n + 1;
        let tabled = options.variant == Variant::Cached
            && !matches!(options.policy, SelectionPolicy::Lookahead { .. })
            && n_nodes <= SCORE_TABLE_NODE_LIMIT;
        tabled.then(|| {
            let walked = walks_live_roots(engine);
            #[cfg(test)]
            let walked = FORCE_WALK.with(|f| f.get()).unwrap_or(walked);
            ScoreTable {
                n,
                counts: vec![UNSCORED; n * n_nodes],
                row_min: vec![None; n],
                live: (walked && !options.naive_weight).then(|| LiveRoots::new(engine)),
            }
        })
    }

    /// Algorithm 3 greedy selection over the node set `u`: the same
    /// winner as the full scan of [`select_paired`], with each candidate
    /// scored only the first time any step visits it.
    ///
    /// The full scan meets every candidate twice per step, once from
    /// each root of its X/Y pair as `O_X`. This pass takes each pair
    /// once, from its smaller root (first in the ascending `u`), and
    /// each row's first minimum over Z ascending: that is the first
    /// visit of the row's best candidate in the full scan. The repeat
    /// visits carry the same scores, so under the strict-`<` first-wins
    /// rule over the row minima, in that row order, both passes elect
    /// the same triple.
    fn select(
        &mut self,
        engine: &mut TermEngine,
        u: &[NodeId],
        options: &HattOptions,
        blend: Blend,
        stats: &mut IterationStats,
        state: &PairingState,
    ) -> Result<Selection, HattError> {
        let stride = 3 * self.n + 1;
        // Node ids grow with each attach, so the parent attached on the
        // previous step is the last of the ascending `u` (read only by
        // rows scanned on an earlier step).
        let newest = u.last().copied().unwrap_or_default();
        if let Some(live) = &mut self.live {
            if newest > 2 * self.n {
                live.walk_column(engine, state, newest);
            }
        }
        let mut best: Option<(TripleScore, [NodeId; 3])> = None;
        for &ox in u {
            let x_leaf = state.mdown[ox];
            if x_leaf == 2 * self.n {
                continue; // O_2N never pairs (paper §IV-B)
            }
            let oy = state.mup[x_leaf ^ 1];
            if oy < ox {
                continue; // this pair was walked from `oy`
            }
            debug_assert!(u.contains(&oy), "derived O_Y must be a current root");
            // The even leaf sits on the X branch (Algorithm 2 line 15).
            let [x, y] = if x_leaf % 2 == 0 { [ox, oy] } else { [oy, ox] };
            let m = x_leaf / 2;
            let row = m * stride;
            if let Some(live) = &mut self.live {
                let entries = &mut self.counts[row..row + stride];
                match self.row_min[m] {
                    None => live.fill_row(engine, entries, m, [x, y], u, stats),
                    Some(_) => live.fill_newest(engine, entries, m, [x, y], newest, stats),
                }
            }
            let counts = &mut self.counts;
            let mut read = |oz: NodeId| {
                #[cfg(test)]
                TABLE_READS.with(|r| r.set(r.get() + 1));
                let entry = &mut counts[row + oz];
                if *entry == UNSCORED {
                    stats.candidates += 1;
                    let c = counts_of(engine, options, [x, y, oz]);
                    *entry = [c.n1, c.n2, c.n3].map(|k| k as u32);
                }
                let [n1, n2, n3] = entry.map(|k| k as usize);
                TripleCounts { n1, n2, n3 }.score(blend)
            };
            let row_min = &mut self.row_min[m];
            let min = match *row_min {
                // Rule 1.
                None => first_min(u.iter().filter(|&&oz| oz != ox && oz != oy), &mut read),
                Some(old) => {
                    debug_assert!(newest != ox && newest != oy, "a re-paired row is cleared");
                    let fresh = (read(newest), newest); // rule 2
                    let kept = if u.binary_search(&old.1).is_ok() {
                        Some(old) // rule 3
                    } else {
                        let columns = |oz: &&NodeId| ![ox, oy, newest].contains(*oz);
                        resume_after(u, old, columns, &mut read) // rule 4
                    };
                    match kept {
                        Some(kept) if fresh.0 >= kept.0 => Some(kept),
                        _ => Some(fresh),
                    }
                }
            };
            *row_min = min;
            if let Some((score, oz)) = min {
                if best.as_ref().is_none_or(|b| score < b.0) {
                    best = Some((score, [x, y, oz]));
                }
            }
        }
        // Infallible for the reason given in `select_paired`.
        debug_assert!(best.is_some(), "paired selection must find a candidate");
        let (score, children) = best.ok_or(HattError::Internal(
            "paired selection found no candidate although |U| >= 3",
        ))?;
        Ok(Selection {
            children,
            weight: score.weight,
        })
    }

    /// Records the attach of `parent` over `children`, after the engine
    /// has reduced it: empties the row of the pair owning free leaf
    /// `repaired`, entries and minimum (a no-op for the never-pairing
    /// `O_2N`, which has no row), and moves the live roots of a walked
    /// fill from the children to the parent.
    fn attach(
        &mut self,
        engine: &TermEngine,
        parent: NodeId,
        children: [NodeId; 3],
        repaired: NodeId,
    ) {
        let stride = 3 * self.n + 1;
        let row = repaired / 2 * stride;
        if let Some(entries) = self.counts.get_mut(row..row + stride) {
            entries.fill(UNSCORED);
        }
        if let Some(min) = self.row_min.get_mut(repaired / 2) {
            *min = None;
        }
        if let Some(live) = &mut self.live {
            live.attach(engine, parent, children);
        }
    }
}

/// Whether a [`ScoreTable`] over `engine` fills by walking live roots.
///
/// A leaf row walks the terms of its two Majoranas and, in each term,
/// the term's live roots: about `2 × (terms per Majorana) × (mean
/// support)` visits, where the entry-by-entry fill pays once per column.
/// Both estimates come from counts the engine keeps: the leaves'
/// incidence counts sum to the total support `I`, so the walk is
/// `2·(I/2N)·(I/T)` over `2N − 1` columns.
fn walks_live_roots(engine: &TermEngine) -> bool {
    let n = engine.n_modes() as u128;
    let incidences: u128 = (0..2 * engine.n_modes())
        .map(|leaf| engine.node_count(leaf) as u128)
        .sum();
    let terms = engine.n_terms() as u128;
    // 2·(I/2N)·(I/T) ≤ K·(2N − 1), multiplied through by 2N·T / 2.
    incidences * incidences <= WALK_VISITS_PER_COLUMN * (2 * n - 1) * n * terms
}

/// Each term's live roots: the current roots whose symbol the term
/// holds, the per-term symbol sets of the paper's Algorithm 1. A
/// walked [`ScoreTable`] fills its rows and new columns from them.
///
/// Term `t` holds root `r` exactly when `t` is in `r`'s incidence, so a
/// list changes only when its term meets an attach: the three children
/// leave, and the parent joins when the term holds an odd number of
/// them. A list therefore never outgrows its term's support, which
/// sizes its slot.
struct LiveRoots {
    /// Term `t`'s list is `roots[start[t]..start[t] + len[t]]`, in a slot
    /// of `start[t + 1] − start[t]`, the term's support. The total
    /// support `I` fits a `u32`: the gate walks only when
    /// `I² ≤ 2·(2N − 1)·N·T`, with `N` bounded by the table and `T` by the
    /// engine.
    start: Vec<u32>,
    len: Vec<u32>,
    roots: Vec<u32>,
    /// `|X∩Y|` of each row's pair, from the row's rule 1 walk.
    pair: Vec<u32>,
    /// Rule 1's sums per column `Z`: `[|X∩Z| + |Y∩Z|, |X∩Y∩Z|]`, zero
    /// between walks.
    by_column: Vec<[u32; 2]>,
    /// Rule 2's sums per row for the newest parent `P`:
    /// `[|X∩P| + |Y∩P|, |X∩Y∩P|]`.
    by_row: Vec<[u32; 2]>,
}

impl LiveRoots {
    /// The lists of the `2N + 1` free leaves, from the engine's leaf
    /// incidences (so terms keep the engine's numbering).
    fn new(engine: &TermEngine) -> LiveRoots {
        let n = engine.n_modes();
        let terms = engine.n_terms();
        let leaves = 0..2 * n + 1;
        let mut start = vec![0u32; terms + 1];
        for leaf in leaves.clone() {
            for t in engine.incidence(leaf).iter_ones() {
                start[t + 1] += 1;
            }
        }
        for t in 0..terms {
            start[t + 1] += start[t];
        }
        let mut len = vec![0u32; terms];
        let mut roots = vec![0u32; start[terms] as usize];
        for leaf in leaves {
            for t in engine.incidence(leaf).iter_ones() {
                roots[(start[t] + len[t]) as usize] = leaf as u32;
                len[t] += 1;
            }
        }
        LiveRoots {
            start,
            len,
            roots,
            pair: vec![0; n],
            by_column: vec![[0; 2]; 3 * n + 1],
            by_row: vec![[0; 2]; n],
        }
    }

    /// Moves each affected term's list from the three `children` to
    /// `parent`, whose incidence the engine already holds.
    fn attach(&mut self, engine: &TermEngine, parent: NodeId, children: [NodeId; 3]) {
        for child in children {
            for t in engine.incidence(child).iter_ones() {
                let s = self.start[t] as usize;
                let len = &mut self.len[t];
                let list = &mut self.roots[s..s + *len as usize];
                if let Some(i) = list.iter().position(|&r| r as usize == child) {
                    list.swap(i, list.len() - 1);
                    *len -= 1;
                }
            }
        }
        for t in engine.incidence(parent).iter_ones() {
            self.roots[(self.start[t] + self.len[t]) as usize] = parent as u32;
            self.len[t] += 1;
        }
    }

    /// Rule 2's walk: the sums of every row against the newest parent
    /// `p`, from one pass over `p`'s terms.
    fn walk_column(&mut self, engine: &TermEngine, state: &PairingState, p: NodeId) {
        let o_2n = 2 * self.pair.len();
        self.by_row.fill([0; 2]);
        for t in engine.incidence(p).iter_ones() {
            let s = self.start[t] as usize;
            for &r in &self.roots[s..s + self.len[t] as usize] {
                let (r, leaf) = (r as usize, state.mdown[r as usize]);
                if r == p || leaf == o_2n {
                    continue; // `p` itself, or `O_2N`, which has no row
                }
                let sums = &mut self.by_row[leaf / 2];
                sums[0] += 1;
                // An X root (even leaf) counts the triple intersection
                // once for its row.
                if leaf % 2 == 0 && engine.incidence(state.mup[leaf + 1]).get(t) {
                    sums[1] += 1;
                }
            }
        }
    }

    /// Rule 1 by walking: fills every unscored column of row `row`,
    /// pair `[x, y]`, over the roots `u`.
    fn fill_row(
        &mut self,
        engine: &TermEngine,
        entries: &mut [[u32; 3]],
        row: usize,
        [x, y]: [NodeId; 2],
        u: &[NodeId],
        stats: &mut IterationStats,
    ) {
        let (in_x, in_y) = (engine.incidence(x), engine.incidence(y));
        let mut xy = 0;
        for t in in_x.iter_ones() {
            let both = u32::from(in_y.get(t));
            xy += both;
            let s = self.start[t] as usize;
            for &z in &self.roots[s..s + self.len[t] as usize] {
                let sums = &mut self.by_column[z as usize];
                sums[0] += 1 + both;
                sums[1] += both;
            }
        }
        for t in in_y.iter_ones().filter(|&t| !in_x.get(t)) {
            let s = self.start[t] as usize;
            for &z in &self.roots[s..s + self.len[t] as usize] {
                self.by_column[z as usize][0] += 1;
            }
        }
        self.pair[row] = xy;
        let sxy = engine.node_count(x) + engine.node_count(y);
        for &z in u {
            // Taking every root's sums also zeroes those `x` and `y`
            // gathered from their own lists.
            let [pz, n3] = std::mem::take(&mut self.by_column[z]).map(|k| k as usize);
            if z != x && z != y {
                let (s, pairs) = (sxy + engine.node_count(z), xy as usize + pz);
                fill_entry(engine, &mut entries[z], [x, y, z], s, pairs, n3, stats);
            }
        }
    }

    /// Rule 2 by walking: fills row `row`'s newest column from
    /// [`LiveRoots::walk_column`]'s sums.
    fn fill_newest(
        &self,
        engine: &TermEngine,
        entries: &mut [[u32; 3]],
        row: usize,
        [x, y]: [NodeId; 2],
        p: NodeId,
        stats: &mut IterationStats,
    ) {
        let [pp, n3] = self.by_row[row].map(|k| k as usize);
        let s = engine.node_count(x) + engine.node_count(y) + engine.node_count(p);
        let pairs = self.pair[row] as usize + pp;
        fill_entry(engine, &mut entries[p], [x, y, p], s, pairs, n3, stats);
    }
}

/// Writes a walked entry, if still [`UNSCORED`], from `S`, `P` and `n₃`
/// (see [`ScoreTable`]), counting it as a scored candidate. Test builds
/// check each entry against the per-term scan of `triple`.
#[cfg_attr(not(test), allow(unused_variables))]
fn fill_entry(
    engine: &TermEngine,
    entry: &mut [u32; 3],
    triple: [NodeId; 3],
    s: usize,
    p: usize,
    n3: usize,
    stats: &mut IterationStats,
) {
    if *entry != UNSCORED {
        return;
    }
    stats.candidates += 1;
    *entry = [s + 3 * n3 - 2 * p, p - 3 * n3, n3].map(|k| k as u32);
    #[cfg(test)]
    {
        let [a, b, c] = triple;
        let naive = engine.counts_of_triple_naive(a, b, c);
        assert_eq!(
            *entry,
            [naive.n1, naive.n2, naive.n3].map(|k| k as u32),
            "walked entry {triple:?}"
        );
    }
}

/// The first minimum of `columns` under `score`: the earliest column
/// with the least score, `None` when there are no columns.
fn first_min<'a>(
    columns: impl Iterator<Item = &'a NodeId>,
    score: &mut impl FnMut(NodeId) -> TripleScore,
) -> Option<(TripleScore, NodeId)> {
    let mut min: Option<(TripleScore, NodeId)> = None;
    for &oz in columns {
        let s = score(oz);
        if min.is_none_or(|m| s < m.0) {
            min = Some((s, oz));
        }
    }
    min
}

/// Rule 4 of [`ScoreTable`]: the first minimum of the `columns` of `u`
/// once the old minimum `(score, z)` has merged away. The first column
/// after `z` whose score ties it is that minimum; without a tie, every
/// column scores worse, and the columns before `z` are read to find it.
fn resume_after(
    u: &[NodeId],
    (score, z): (TripleScore, NodeId),
    columns: impl Fn(&&NodeId) -> bool,
    read: &mut impl FnMut(NodeId) -> TripleScore,
) -> Option<(TripleScore, NodeId)> {
    let (before, after) = u.split_at(u.partition_point(|&v| v < z));
    let mut after_min: Option<(TripleScore, NodeId)> = None;
    for &oz in after.iter().filter(&columns) {
        let s = read(oz);
        if s.cmp(&score) == Ordering::Equal {
            return Some((s, oz));
        }
        if after_min.is_none_or(|m| s < m.0) {
            after_min = Some((s, oz));
        }
    }
    match (first_min(before.iter().filter(&columns), read), after_min) {
        (Some(b), Some(a)) if a.0 < b.0 => Some(a),
        (Some(b), _) => Some(b),
        (None, a) => a,
    }
}

/// Algorithm 2/3 selection: the best paired candidate of the node set
/// `u` under the policy, scanning every candidate. `walk` selects how
/// pairs are derived (see [`for_each_paired_candidate`]); the maps in
/// `state` are kept current either way, so the lookahead simulation can
/// use them.
#[allow(clippy::too_many_arguments)]
fn select_paired(
    engine: &mut TermEngine,
    walk: Option<&TernaryTreeBuilder>,
    u: &[NodeId],
    n: usize,
    options: &HattOptions,
    blend: Blend,
    next_parent: NodeId,
    stats: &mut IterationStats,
    state: &mut PairingState,
) -> Result<Selection, HattError> {
    let width = match options.policy {
        SelectionPolicy::Lookahead { width } => width,
        _ => 0,
    };
    let mut shortlist: Vec<(TripleScore, [NodeId; 3])> = Vec::new();
    let mut best: Option<(TripleScore, [NodeId; 3])> = None;
    let steps = for_each_paired_candidate(state, walk, u, n, |children| {
        stats.candidates += 1;
        let score = score_of(engine, options, blend, children);
        if best.as_ref().is_none_or(|b| score < b.0) {
            best = Some((score, children));
        }
        if width > 0 {
            offer(&mut shortlist, width, score, children);
        }
    });
    stats.traversal_steps += steps;
    // Infallible for every reachable input: `n >= 1` guarantees `|U| >=
    // 3`, and a node set of three or more current roots always admits a
    // paired candidate (the one leaf that never pairs, `O_2N`, excludes
    // at most one `O_X` choice). Kept on the `Result` path anyway so the
    // invariant can never become a user-facing panic.
    debug_assert!(best.is_some(), "paired selection must find a candidate");
    let (score, children) = best.ok_or(HattError::Internal(
        "paired selection found no candidate although |U| >= 3",
    ))?;
    let (score, children) = if width > 0 && u.len() > 3 {
        rank_paired_by_lookahead(
            engine,
            u,
            n,
            options,
            blend,
            next_parent,
            stats,
            state,
            shortlist,
        )
    } else {
        (score, children)
    };
    Ok(Selection {
        children,
        weight: score.weight,
    })
}

/// Re-ranks the shortlisted paired candidates by
/// `amortized key + best next-step key` (ties: residual, then shortlist
/// order), simulating each candidate's reduce and map update and undoing
/// both before returning.
#[allow(clippy::too_many_arguments)]
fn rank_paired_by_lookahead(
    engine: &mut TermEngine,
    u: &[NodeId],
    n: usize,
    options: &HattOptions,
    blend: Blend,
    next_parent: NodeId,
    stats: &mut IterationStats,
    state: &mut PairingState,
    shortlist: Vec<(TripleScore, [NodeId; 3])>,
) -> (TripleScore, [NodeId; 3]) {
    let saved = engine.incidence(next_parent).clone();
    let mut best_idx = 0usize;
    let mut best_key = (i64::MAX, usize::MAX);
    for (idx, &(score, children)) in shortlist.iter().enumerate() {
        let [ox, oy, oz] = children;
        engine.reduce(next_parent, ox, oy, oz);
        let undo = state.record_attach(next_parent, oz);
        let next_u: Vec<NodeId> = u
            .iter()
            .copied()
            .filter(|v| !children.contains(v))
            .chain(std::iter::once(next_parent))
            .collect();
        let mut next_best = 0i64;
        if next_u.len() >= 3 {
            next_best = i64::MAX;
            for_each_paired_candidate(state, None, &next_u, n, |next| {
                stats.candidates += 1;
                let s = score_of(engine, options, blend, next);
                next_best = next_best.min(s.key);
            });
            debug_assert_ne!(next_best, i64::MAX, "paired candidates must exist");
        }
        state.undo_attach(undo);
        engine.set_incidence(next_parent, saved.clone());
        let key = (score.key + next_best, score.residual);
        if key < best_key {
            best_key = key;
            best_idx = idx;
        }
    }
    shortlist[best_idx]
}

/// Enumerates the paired candidates of the node set `u` (Algorithms 2
/// and 3): every free `(O_X, O_Z)`, with `O_Y` derived by pairing
/// `descZ(O_X)` with its partner leaf and walking back up to `u`.
/// Yields ordered `[X, Y, Z]` children and returns the traversal steps
/// walked.
///
/// With `walk = None`, `descZ` and `traverse_up` are O(1) lookups in
/// the Algorithm 3 maps. With the partial tree in `walk`, they walk it
/// literally, exactly as Algorithm 2's pseudocode does. Both derive the
/// same candidates in the same order.
fn for_each_paired_candidate(
    state: &PairingState,
    walk: Option<&TernaryTreeBuilder>,
    u: &[NodeId],
    n: usize,
    mut visit: impl FnMut([NodeId; 3]),
) -> u64 {
    let mut steps = 0;
    for &ox in u {
        for &oz in u {
            if oz == ox {
                continue;
            }
            // descZ(O_X): the only unpaired leaf of O_X's subtree.
            let x_leaf = match walk {
                None => state.mdown[ox],
                Some(builder) => {
                    let (leaf, walked) = walk_desc_z(builder, ox);
                    steps += walked;
                    leaf
                }
            };
            if x_leaf == 2 * n {
                continue; // O_2N never pairs (paper §IV-B)
            }
            // Partner leaf: even x pairs with x+1, odd with x−1.
            let (y_leaf, swapped) = if x_leaf % 2 == 0 {
                (x_leaf + 1, false)
            } else {
                (x_leaf - 1, true)
            };
            // traverse_up(O_y, U).
            let oy = match walk {
                None => state.mup[y_leaf],
                Some(builder) => {
                    let (root, walked) = walk_up(builder, y_leaf);
                    steps += walked;
                    root
                }
            };
            if oy == oz || oy == ox {
                continue; // O_Y collides with the chosen Z child
            }
            debug_assert!(u.contains(&oy), "derived O_Y must be a current root");
            // Ensure the even leaf sits on the X branch so the pair
            // carries (X, Y) and not (Y, X) (Algorithm 2 line 15).
            visit(if swapped { [oy, ox, oz] } else { [ox, oy, oz] });
        }
    }
    steps
}

/// Bounded best-`k` insert ordered by score then insertion order.
/// Duplicate candidates are dropped: the paired enumeration visits each
/// unordered pair once from each partner (as `O_X`), yielding the same
/// ordered children twice — without the check those duplicates would
/// halve the effective shortlist/beam width and double the lookahead
/// simulation work.
fn offer(
    shortlist: &mut Vec<(TripleScore, [NodeId; 3])>,
    width: usize,
    score: TripleScore,
    children: [NodeId; 3],
) {
    if shortlist.len() == width && score >= shortlist[width - 1].0 {
        return;
    }
    if shortlist.iter().any(|&(_, ch)| ch == children) {
        return;
    }
    let pos = shortlist.partition_point(|&(s, _)| s <= score);
    shortlist.insert(pos, (score, children));
    shortlist.truncate(width);
}

fn walk_desc_z(builder: &TernaryTreeBuilder, node: NodeId) -> (NodeId, u64) {
    let mut steps = 0;
    let mut v = node;
    while let Some(c) = builder.child_z(v) {
        v = c;
        steps += 1;
    }
    (v, steps)
}

fn walk_up(builder: &TernaryTreeBuilder, node: NodeId) -> (NodeId, u64) {
    let mut steps = 0;
    let mut v = node;
    while let Some(p) = builder.parent_of(v) {
        v = p;
        steps += 1;
    }
    (v, steps)
}

/// The `mdown` / `mup` maps of Algorithm 3.
#[derive(Debug, Clone)]
struct PairingState {
    /// `O → descZ(O)` for current roots.
    mdown: Vec<NodeId>,
    /// `descZ(O) → O`: the current root owning each unpaired leaf.
    mup: Vec<NodeId>,
}

/// Saved map entries to reverse one [`PairingState::record_attach`].
struct PairingUndo {
    parent: NodeId,
    zdesc: NodeId,
    old_mdown: NodeId,
    old_mup: NodeId,
}

impl PairingState {
    fn new(n: usize) -> Self {
        let n_nodes = 3 * n + 1;
        let n_leaves = 2 * n + 1;
        PairingState {
            mdown: (0..n_nodes).collect(),
            mup: (0..n_leaves).collect(),
        }
    }

    /// Algorithm 3 lines 8–11: after attaching `parent` over
    /// `(O_X, O_Y, O_Z)`, the parent's Z-descendant is `descZ(O_Z)`.
    /// Returns the overwritten entries so a simulation can undo itself.
    fn record_attach(&mut self, parent: NodeId, oz: NodeId) -> PairingUndo {
        let zdesc = self.mdown[oz];
        let undo = PairingUndo {
            parent,
            zdesc,
            old_mdown: self.mdown[parent],
            old_mup: self.mup[zdesc],
        };
        self.mdown[parent] = zdesc;
        self.mup[zdesc] = parent;
        undo
    }

    /// Reverses a simulated [`PairingState::record_attach`].
    fn undo_attach(&mut self, undo: PairingUndo) {
        self.mdown[undo.parent] = undo.old_mdown;
        self.mup[undo.zdesc] = undo.old_mup;
    }
}

/// One beam-pool entry: `(total key, residual, state idx, local rank,
/// (score, children))`. Local rank preserves candidate-enumeration
/// order among ties, so `Beam { width: 1 }` reproduces the greedy
/// first-wins choice.
type BeamEntry = (i64, usize, usize, usize, (TripleScore, [NodeId; 3]));

/// One surviving merge-sequence prefix of the beam search.
#[derive(Debug, Clone)]
struct BeamState {
    engine: TermEngine,
    u: Vec<NodeId>,
    pairing: PairingState,
    seq: Vec<[NodeId; 3]>,
    step_weights: Vec<usize>,
    /// Accumulated true weight (the objective reported in stats).
    acc_weight: usize,
    /// Accumulated amortized key (what the beam ranks by).
    acc_key: i64,
}

/// One beam state's scan result: its best-`width` local shortlist plus
/// the number of candidates evaluated.
type BeamScan = (Vec<(TripleScore, [NodeId; 3])>, u64);

/// One beam state's candidate scan for the next step. Touches only the
/// state's own engine/memo, so scans of distinct states are
/// embarrassingly parallel (see [`hatt_beam`]).
fn scan_beam_state(
    st: &mut BeamState,
    options: &HattOptions,
    blend: Blend,
    width: usize,
    n: usize,
) -> BeamScan {
    let mut local: Vec<(TripleScore, [NodeId; 3])> = Vec::new();
    let mut candidates = 0u64;
    match options.variant {
        Variant::Unopt => {
            let u = &st.u;
            for ai in 0..u.len() {
                for bi in (ai + 1)..u.len() {
                    for ci in (bi + 1)..u.len() {
                        candidates += 1;
                        let children = [u[ai], u[bi], u[ci]];
                        let score = score_of(&mut st.engine, options, blend, children);
                        offer(&mut local, width, score, children);
                    }
                }
            }
        }
        Variant::Paired | Variant::Cached => {
            for_each_paired_candidate(&st.pairing, None, &st.u, n, |children| {
                candidates += 1;
                let score = score_of(&mut st.engine, options, blend, children);
                offer(&mut local, width, score, children);
            });
        }
    }
    (local, candidates)
}

/// Below this many free nodes a beam step's candidate scan stays on the
/// calling thread: the quadratic scan is only microseconds there and the
/// fork/join would cost more than it saves.
const PAR_BEAM_MIN_FREE_NODES: usize = 16;

/// Beam-search construction: keep the `width` best partial merge
/// sequences per step, ranked by accumulated amortized key then the
/// candidate's residual. `width = 1` coincides with the greedy policy.
/// Pairing uses the Algorithm 3 maps for every variant (the pairing
/// constraint itself is variant-independent), so `Paired`/`Cached` beams
/// preserve the vacuum state and `Unopt` beams search the free-triple
/// space.
///
/// With more than one worker available, each step's per-state candidate
/// scans fan out over scoped threads (each state owns its engine, so the
/// scans share nothing); the surviving pool is then merged and ranked on
/// the calling thread in state order, keeping results bit-identical to
/// the sequential schedule.
fn hatt_beam(
    h: &MajoranaSum,
    options: &HattOptions,
    width: usize,
    blend: Blend,
) -> Result<HattMapping, HattError> {
    let n = h.n_modes();
    let start = Instant::now();
    let workers = options.workers();
    let mut states = vec![BeamState {
        engine: TermEngine::new(h),
        u: (0..2 * n + 1).collect(),
        pairing: PairingState::new(n),
        seq: Vec::with_capacity(n),
        step_weights: Vec::with_capacity(n),
        acc_weight: 0,
        acc_key: 0,
    }];
    let mut iterations = Vec::with_capacity(n);

    for qubit in 0..n {
        let next_parent: NodeId = 2 * n + 1 + qubit;
        let mut iter_stats = IterationStats {
            qubit,
            ..Default::default()
        };
        let par_scan =
            workers > 1 && states.len() > 1 && states[0].u.len() >= PAR_BEAM_MIN_FREE_NODES;
        let scans: Vec<BeamScan> = if par_scan {
            parallel::par_map_mut_with(workers, &mut states, |_, st| {
                scan_beam_state(st, options, blend, width, n)
            })
        } else {
            states
                .iter_mut()
                .map(|st| scan_beam_state(st, options, blend, width, n))
                .collect()
        };
        let mut pool: Vec<BeamEntry> = Vec::new();
        for (si, (local, candidates)) in scans.into_iter().enumerate() {
            iter_stats.candidates += candidates;
            for (rank, (score, children)) in local.into_iter().enumerate() {
                pool.push((
                    states[si].acc_key + score.key,
                    score.residual,
                    si,
                    rank,
                    (score, children),
                ));
            }
        }
        pool.sort_unstable_by_key(|&(total, residual, si, rank, _)| (total, residual, si, rank));
        pool.truncate(width);
        // Infallible: every surviving state scans the same non-empty
        // paired candidate space, so the pool can only be empty if the
        // beam itself is — and it starts with one state.
        debug_assert!(!pool.is_empty(), "beam must always have a candidate");
        if pool.is_empty() {
            return Err(HattError::Internal("beam step produced no candidates"));
        }

        let mut next_states = Vec::with_capacity(pool.len());
        for &(total_key, _residual, si, _rank, (score, children)) in &pool {
            let mut st = states[si].clone();
            let [ox, oy, oz] = children;
            st.engine.reduce(next_parent, ox, oy, oz);
            let _ = st.pairing.record_attach(next_parent, oz);
            st.u.retain(|v| !children.contains(v));
            st.u.push(next_parent);
            st.step_weights.push(score.weight);
            st.acc_weight += score.weight;
            st.acc_key = total_key;
            st.seq.push(children);
            next_states.push(st);
        }
        states = next_states;
        iterations.push(iter_stats);
    }

    // The final ranking is by *true* accumulated weight: the amortized
    // key guided the search, the objective decides the winner.
    let best = states
        .into_iter()
        .min_by_key(|st| st.acc_weight)
        // Infallible: the pool-emptiness guard above keeps ≥ 1 state
        // alive through every step.
        .ok_or(HattError::Internal("beam ended with no surviving state"))?;
    for (it, &w) in iterations.iter_mut().zip(&best.step_weights) {
        it.settled_weight = w;
    }
    let mut builder = TernaryTreeBuilder::new(n);
    for &triple in &best.seq {
        builder.attach(triple);
    }
    Ok(assemble(options, &best.engine, builder, iterations, start))
}

/// The merge sequence whose tree is the Jordan-Wigner caterpillar
/// (bottom-up: deepest internal node first, leaf pairs `(2m, 2m+1)` on
/// the X/Y branches, the growing chain on Z). Under the identity leaf
/// assignment this reproduces the JW strings up to qubit relabeling, so
/// replaying it scores exactly the Jordan-Wigner Pauli weight.
fn jw_sequence(n: usize) -> Vec<[NodeId; 3]> {
    let mut seq = Vec::with_capacity(n);
    seq.push([2 * n - 2, 2 * n - 1, 2 * n]);
    for j in 1..n {
        let m = n - 1 - j;
        seq.push([2 * m, 2 * m + 1, 2 * n + j]);
    }
    seq
}

/// Replays a fixed merge sequence, recording per-step weights (no
/// candidate evaluations — `stats.candidates` stays 0). Besides the JW
/// portfolio member, this is the mapping-cache hit path (`crate::batch`):
/// replaying a cached sequence against a new same-structure Hamiltonian
/// skips all selection work yet yields exact per-step stats.
pub(crate) fn hatt_replay(
    h: &MajoranaSum,
    options: &HattOptions,
    seq: &[[NodeId; 3]],
) -> HattMapping {
    let n = h.n_modes();
    let start = Instant::now();
    let mut engine = TermEngine::new(h);
    let mut builder = TernaryTreeBuilder::new(n);
    let mut iterations = Vec::with_capacity(n);
    for (qubit, &[a, b, c]) in seq.iter().enumerate() {
        let settled_weight = engine.weight_of_triple(a, b, c);
        let parent = builder.attach([a, b, c]);
        engine.reduce(parent, a, b, c);
        iterations.push(IterationStats {
            qubit,
            settled_weight,
            ..Default::default()
        });
    }
    assemble(options, &engine, builder, iterations, start)
}

/// Runs one [`PortfolioMember`] of the restarts portfolio as a complete,
/// independent construction — the unit of work the threaded portfolio
/// fans out.
fn run_portfolio_member(
    h: &MajoranaSum,
    options: &HattOptions,
    member: PortfolioMember,
) -> Result<HattMapping, HattError> {
    match member {
        PortfolioMember::Greedy(blend) => hatt_single(
            h,
            &HattOptions {
                policy: SelectionPolicy::Greedy,
                ..*options
            },
            blend,
        ),
        PortfolioMember::Beam { width } => hatt_beam(
            h,
            &HattOptions {
                policy: SelectionPolicy::Beam { width },
                ..*options
            },
            width,
            Blend::UNIT,
        ),
        PortfolioMember::JwCaterpillar => Ok(hatt_replay(h, options, &jw_sequence(h.n_modes()))),
    }
}

/// The bounded multi-restart portfolio behind
/// [`SelectionPolicy::Restarts`]: the members named by
/// [`SelectionPolicy::restarts_members`] (greedy passes at
/// `λ ∈ {½, 1, 2}`, one `Beam { width: 8 }` pass at `λ = 1`, and the
/// Jordan-Wigner merge sequence). The best final tree (by total settled
/// weight; earlier member on ties) wins. The JW member makes "HATT never
/// loses to Jordan-Wigner" hold by construction; in practice one of the
/// adaptive members usually beats it outright.
///
/// The members are fully independent constructions, so they run on
/// scoped worker threads (up to [`HattOptions::workers`]). Results come
/// back in member order and the winner rule ties-breaks by member index,
/// so the output is bit-identical to the sequential loop regardless of
/// scheduling — `tests/parallel_determinism.rs` pins exactly this.
///
/// The beam member keeps the *full* thread budget for its own per-state
/// scans, which transiently oversubscribes the host while the greedy
/// members are still running. That is deliberate: each greedy pass is
/// roughly an eighth of the beam's work, so the contention window is
/// short, while capping the beam at `workers − 4` would idle most cores
/// for the long beam-only tail that dominates wall time. (The batch
/// layer is different — concurrent *constructions* are peers there, so
/// it does divide the budget; see `crate::batch`.)
fn hatt_restarts(h: &MajoranaSum, options: &HattOptions) -> Result<HattMapping, HattError> {
    let start = Instant::now();
    let members = SelectionPolicy::restarts_members();
    let candidates = parallel::par_map_with(options.workers(), &members, |&member| {
        run_portfolio_member(h, options, member)
    });
    let mut best: Option<HattMapping> = None;
    for m in candidates {
        let m = m?;
        let better = best
            .as_ref()
            .is_none_or(|b| m.stats.total_weight() < b.stats.total_weight());
        if better {
            best = Some(m);
        }
    }
    // Infallible: `restarts_members()` is a non-empty const array.
    debug_assert!(best.is_some(), "portfolio is non-empty");
    let mut best = best.ok_or(HattError::Internal("restart portfolio ran no members"))?;
    best.stats.elapsed = start.elapsed();
    best.options = *options;
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatt_fermion::FermionOperator;
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

    fn opts(variant: Variant) -> HattOptions {
        HattOptions {
            variant,
            ..Default::default()
        }
    }

    fn build(h: &MajoranaSum, options: &HattOptions) -> HattMapping {
        hatt_with_impl(h, options).unwrap()
    }

    fn build_default(h: &MajoranaSum) -> HattMapping {
        build(h, &HattOptions::default())
    }

    #[test]
    fn paper_walkthrough_weights() {
        // §III-C / §IV-B: step weights 1, 2, 2.
        let mapping = build_default(&paper_example());
        let weights: Vec<usize> = mapping
            .stats()
            .iterations
            .iter()
            .map(|it| it.settled_weight)
            .collect();
        assert_eq!(weights[0], 1, "first step should settle weight 1");
        assert_eq!(mapping.stats().total_weight(), 5);
    }

    #[test]
    fn paper_first_step_picks_o0_o1_o6() {
        // The paper's first iteration groups O0, O1, O6 under qubit 0.
        let mapping = build_default(&paper_example());
        let tree = mapping.tree();
        let q0 = tree.internal_of(0);
        let mut ch = tree.children(q0).unwrap().to_vec();
        ch.sort_unstable();
        assert_eq!(ch, vec![0, 1, 6]);
    }

    #[test]
    fn all_variants_are_valid() {
        let h = paper_example();
        for variant in [Variant::Unopt, Variant::Paired, Variant::Cached] {
            let m = build(&h, &opts(variant));
            let report = validate(&m);
            assert!(report.is_valid(), "{variant:?} invalid: {report:?}");
            if variant != Variant::Unopt {
                assert!(
                    report.vacuum_preserving,
                    "{variant:?} must preserve the vacuum"
                );
            }
        }
    }

    #[test]
    fn all_policies_are_valid_and_vacuum_preserving() {
        for seed in 0..3 {
            let op = hatt_fermion::models::random_hermitian(5, 6, 5, seed);
            let h = MajoranaSum::from_fermion(&op);
            let greedy_w = build_default(&h).stats().total_weight();
            for policy in [
                SelectionPolicy::Greedy,
                SelectionPolicy::Lookahead { width: 6 },
                SelectionPolicy::Beam { width: 4 },
            ] {
                let m = build(&h, &HattOptions::with_policy(policy));
                let report = validate(&m);
                assert!(report.is_valid(), "{policy}/{seed}: {report:?}");
                assert!(report.vacuum_preserving, "{policy}/{seed}: vacuum");
                // Objective still equals the mapped weight.
                assert_eq!(
                    m.stats().total_weight(),
                    m.map_majorana_sum(&h).weight(),
                    "{policy}/{seed}: objective drift"
                );
                // Smarter policies must not lose to plain greedy.
                assert!(
                    m.stats().total_weight() <= greedy_w,
                    "{policy}/{seed}: worse than greedy"
                );
            }
        }
    }

    #[test]
    fn beam_width_one_matches_greedy() {
        for seed in 0..3 {
            let op = hatt_fermion::models::random_hermitian(5, 6, 5, seed);
            let h = MajoranaSum::from_fermion(&op);
            let greedy = build_default(&h);
            let beam = build(
                &h,
                &HattOptions::with_policy(SelectionPolicy::Beam { width: 1 }),
            );
            assert_eq!(greedy.tree(), beam.tree(), "seed {seed}");
        }
    }

    #[test]
    fn cached_and_paired_agree_exactly() {
        for seed in 0..4 {
            let op = hatt_fermion::models::random_hermitian(5, 6, 5, seed);
            let h = MajoranaSum::from_fermion(&op);
            let a = build(&h, &opts(Variant::Paired));
            let b = build(&h, &opts(Variant::Cached));
            for k in 0..2 * h.n_modes() {
                assert_eq!(a.majorana(k), b.majorana(k), "seed {seed}, M{k}");
            }
            // The cache removes all traversal work.
            assert_eq!(b.stats().total_traversal_steps(), 0);
            assert!(a.stats().total_traversal_steps() > 0);
        }
    }

    #[test]
    fn naive_weight_ablation_matches() {
        let h = paper_example();
        let fast = build(&h, &opts(Variant::Cached));
        let slow = build(
            &h,
            &HattOptions {
                variant: Variant::Cached,
                naive_weight: true,
                policy: SelectionPolicy::Greedy,
                ..Default::default()
            },
        );
        for k in 0..6 {
            assert_eq!(fast.majorana(k), slow.majorana(k));
        }
    }

    #[test]
    fn objective_equals_mapped_weight() {
        let h = paper_example();
        let mapping = build_default(&h);
        let hq = mapping.map_majorana_sum(&h);
        assert_eq!(hq.weight(), mapping.stats().total_weight());
        assert!(hq.is_hermitian(1e-10));
    }

    #[test]
    fn single_mode_gives_xy() {
        let h = MajoranaSum::uniform_singles(1);
        let m = build_default(&h);
        assert_eq!(m.majorana(0).to_string(), "X");
        assert_eq!(m.majorana(1).to_string(), "Y");
        assert!(validate(&m).vacuum_preserving);
    }

    #[test]
    fn vacuum_preserved_on_random_hamiltonians() {
        for seed in 0..6 {
            let op = hatt_fermion::models::random_hermitian(6, 8, 6, seed);
            let h = MajoranaSum::from_fermion(&op);
            let m = build_default(&h);
            let report = validate(&m);
            assert!(report.is_valid(), "seed {seed}: {report:?}");
            assert!(report.vacuum_preserving, "seed {seed} breaks vacuum");
        }
    }

    #[test]
    fn unopt_candidate_counts_are_cubic_per_step() {
        // Step 0 of an N-mode system evaluates C(2N+1, 3) triples.
        let h = MajoranaSum::uniform_singles(4);
        let m = build(&h, &opts(Variant::Unopt));
        let first = &m.stats().iterations[0];
        assert_eq!(first.candidates, 9 * 8 * 7 / 6);
    }

    #[test]
    fn cached_pass_scores_each_candidate_once_per_construction() {
        use crate::batch::merge_sequence;

        for seed in 0..4 {
            let op = hatt_fermion::models::random_hermitian(6, 8, 6, seed);
            let h = MajoranaSum::from_fermion(&op);
            let n = h.n_modes();
            let m = build_default(&h);
            let seq = merge_sequence(m.tree());
            let its = &m.stats().iterations;
            // Step 0: the N leaf pairs, each against the 2N − 1 other
            // leaves as Z.
            assert_eq!(its[0].candidates, (n * (2 * n - 1)) as u64, "seed {seed}");
            // Later steps: only candidates containing the new parent
            // (as Z, against every other pair) or the root re-paired
            // with it (its pair against every other root as Z).
            let mut builder = TernaryTreeBuilder::new(n);
            let mut state = PairingState::new(n);
            for (step, &[x, y, z]) in seq.iter().enumerate() {
                let parent = builder.attach([x, y, z]);
                state.record_attach(parent, z);
                let Some(it) = its.get(step + 1) else { break };
                let u = builder.roots();
                let pairs = u.iter().filter(|&&r| state.mdown[r] < 2 * n).count() / 2;
                let repaired = state.mdown[parent] < 2 * n;
                let expect = if repaired {
                    (pairs - 1) + (u.len() - 2)
                } else {
                    pairs
                };
                assert_eq!(
                    it.candidates,
                    expect as u64,
                    "seed {seed} step {}",
                    step + 1
                );
            }
        }
    }

    /// The row minima keep a table pass sub-cubic in entries read: a
    /// pass that read every live entry on every step would read about
    /// `⅔·N³` (~65·N² at N = 98).
    #[test]
    fn table_pass_reads_at_most_ten_entries_per_mode_squared() {
        use hatt_fermion::models::FermiHubbard;

        let hubbard = |periodic| {
            let mut model = FermiHubbard::new(7, 7);
            model.periodic = periodic;
            let mut h = MajoranaSum::from_fermion(&model.hamiltonian());
            let _ = h.take_identity();
            (format!("hubbard 7x7 periodic={periodic}"), h)
        };
        let roster = [
            hubbard(false),
            hubbard(true),
            ("uniform singles".into(), MajoranaSum::uniform_singles(128)),
        ];
        for (name, h) in roster {
            let n = h.n_modes() as u64;
            TABLE_READS.with(|r| r.set(0));
            build_default(&h);
            let reads = TABLE_READS.with(|r| r.get());
            assert!(reads > 0, "{name}: the pass read no table entries");
            assert!(
                reads <= 10 * n * n,
                "{name} (N = {n}): {reads} entries read, {:.1}·N²",
                reads as f64 / (n * n) as f64
            );
        }
    }

    #[test]
    fn beats_or_matches_balanced_tree_on_benchmarks() {
        use hatt_fermion::models::FermiHubbard;
        use hatt_mappings::balanced_ternary_tree;
        let op = FermiHubbard::new(2, 2).hamiltonian();
        let h = MajoranaSum::from_fermion(&op);
        let hatt_w = build_default(&h).map_majorana_sum(&h).weight();
        let btt_w = balanced_ternary_tree(8).map_majorana_sum(&h).weight();
        assert!(
            hatt_w <= btt_w,
            "HATT ({hatt_w}) should not lose to BTT ({btt_w}) on Hubbard 2x2"
        );
    }

    #[test]
    fn zero_modes_rejected() {
        let h = MajoranaSum::new(0);
        let err = hatt_with_impl(&h, &HattOptions::default()).unwrap_err();
        assert_eq!(err, HattError::EmptyHamiltonian);
    }

    /// Direct differential check of `Mapper::remap`; the full randomized
    /// suite (policies × threads × socket) lives in
    /// `tests/remap_differential.rs`.
    #[test]
    fn remap_kernel_matches_fresh_construction_bit_identically() {
        use crate::Mapper;
        use hatt_fermion::HamiltonianDelta;

        for variant in [Variant::Paired, Variant::Cached] {
            for seed in 0..4 {
                let op = hatt_fermion::models::random_hermitian(6, 8, 6, seed);
                let mut h = MajoranaSum::from_fermion(&op);
                let _ = h.take_identity();
                let options = opts(variant);
                let mapper = Mapper::with_options(options);
                mapper.map(&h).unwrap();

                // Remove one existing term, add one absent term.
                let (victim, coeff) = h.iter().next().map(|(i, c)| (i.to_vec(), c)).unwrap();
                let mut delta = HamiltonianDelta::new(h.n_modes());
                delta.push_remove(coeff, &victim).unwrap();
                let extra: Vec<u32> = (0..4).map(|k| (2 * k) as u32).collect();
                if h.coefficient_of(&extra).is_zero(1e-12) {
                    delta.push_add(Complex64::real(0.375), &extra).unwrap();
                }
                let next = delta.apply(&h).unwrap();

                let fresh = hatt_with_impl(&next, &options).unwrap();
                let remap = mapper.remap(&h, &delta).unwrap();
                assert_eq!(remap.tree(), fresh.tree(), "{variant:?}/{seed}");
                for (a, b) in remap
                    .stats()
                    .iterations
                    .iter()
                    .zip(&fresh.stats().iterations)
                {
                    assert_eq!(
                        a.settled_weight, b.settled_weight,
                        "{variant:?}/{seed} step {}",
                        a.qubit
                    );
                }
                assert_eq!(remap.stats().n_terms, fresh.stats().n_terms);
            }
        }
    }
}

/// The [`ScoreTable`] pass against the literal Algorithm 2 scan of
/// [`Variant::Paired`]: same tree, merge sequence and per-step settled
/// weights under every blend a table pass runs with, on random and
/// tie-heavy Hamiltonians and along seeded remap chains. Every input
/// runs under both fills, walked and entry by entry, whichever the
/// shape gate picks; they must also agree on each step's `candidates`
/// and on the table reads, and every walked entry is checked against
/// the per-term scan as it is written.
#[cfg(test)]
mod table_differential {
    use super::*;
    use crate::batch::{merge_sequence, MappingCache};
    use hatt_fermion::HamiltonianDelta;
    use hatt_pauli::Complex64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `Vanilla`'s blend and the restarts portfolio's three.
    const BLENDS: [Blend; 4] = [Blend::PAPER, Blend::HALF, Blend::UNIT, Blend::DOUBLE];

    /// `len` distinct Majorana indices of an `n`-mode system.
    fn support(rng: &mut StdRng, n: usize, len: usize) -> Vec<u32> {
        let mut s: Vec<u32> = Vec::with_capacity(len);
        while s.len() < len.min(2 * n) {
            let i = rng.gen_range(0..2 * n as u32);
            if !s.contains(&i) {
                s.push(i);
            }
        }
        s
    }

    fn sum_of(n: usize, supports: &[Vec<u32>]) -> MajoranaSum {
        let mut h = MajoranaSum::new(n);
        for (k, s) in supports.iter().enumerate() {
            h.add(Complex64::real(1.0 + k as f64), s);
        }
        h
    }

    /// A random Hamiltonian on `seed + 2` modes.
    fn random(seed: u64) -> MajoranaSum {
        let n = 2 + seed as usize;
        let op = hatt_fermion::models::random_hermitian(n, 2 * n, n, seed);
        let mut h = MajoranaSum::from_fermion(&op);
        let _ = h.take_identity();
        h
    }

    /// The roster: random Hamiltonians plus the tie-heavy shapes
    /// (uniform singles, a small pool of supports drawn with repeats,
    /// one term, all-quartic) and supports of 1, 3, 6 and 8 Majoranas,
    /// whose live-root lists run past 4.
    fn roster() -> Vec<(String, MajoranaSum)> {
        let mut rng = StdRng::seed_from_u64(0x7ab1e);
        let mut cases = Vec::new();
        for n in [1, 2, 3, 5, 8, 13, 24] {
            cases.push((format!("singles/{n}"), MajoranaSum::uniform_singles(n)));
        }
        for seed in 0..16 {
            cases.push((format!("random/{seed}"), random(seed)));
        }
        for n in [3, 6, 11, 20] {
            let pool: Vec<Vec<u32>> = (0..3).map(|_| support(&mut rng, n, 2)).collect();
            let picks: Vec<Vec<u32>> = (0..4 * n)
                .map(|_| pool[rng.gen_range(0..3)].clone())
                .collect();
            cases.push((format!("duplicates/{n}"), sum_of(n, &picks)));
            cases.push((
                format!("one-term/{n}"),
                sum_of(n, &[support(&mut rng, n, 4)]),
            ));
            let quartic: Vec<Vec<u32>> = (0..2 * n).map(|_| support(&mut rng, n, 4)).collect();
            cases.push((format!("quartic/{n}"), sum_of(n, &quartic)));
        }
        for n in [4, 7, 12] {
            let mixed: Vec<Vec<u32>> = (0..3 * n)
                .map(|_| {
                    let len = [1, 3, 6, 8][rng.gen_range(0..4)];
                    support(&mut rng, n, len)
                })
                .collect();
            cases.push((format!("mixed/{n}"), sum_of(n, &mixed)));
        }
        cases
    }

    /// Runs `build` with the table's fill forced: walked or entry by
    /// entry.
    fn forced<T>(walked: bool, build: impl FnOnce() -> T) -> T {
        FORCE_WALK.with(|f| f.set(Some(walked)));
        let built = build();
        FORCE_WALK.with(|f| f.set(None));
        built
    }

    /// The table pass under both fills, checked against each other: the
    /// same per-step `candidates` and table reads, and no pair-memo
    /// traffic in the walked pass. Returns the walked pass.
    fn both_fills(tag: &str, build: impl Fn() -> HattMapping) -> HattMapping {
        let run = |walked| {
            TABLE_READS.with(|r| r.set(0));
            let m = forced(walked, &build);
            (m, TABLE_READS.with(|r| r.get()))
        };
        let (walk, walk_reads) = run(true);
        let (entry, entry_reads) = run(false);
        assert_same(tag, &walk, &entry);
        let candidates = |m: &HattMapping| -> Vec<u64> {
            m.stats()
                .iterations
                .iter()
                .map(|it| it.candidates)
                .collect()
        };
        assert_eq!(candidates(&walk), candidates(&entry), "{tag}: candidates");
        assert_eq!(walk_reads, entry_reads, "{tag}: table reads");
        let memo = |m: &HattMapping| (m.stats().memo_hits, m.stats().memo_misses);
        assert_eq!(
            memo(&walk),
            (0, 0),
            "{tag}: a walked pass used the pair memo"
        );
        walk
    }

    fn options(variant: Variant, policy: SelectionPolicy) -> HattOptions {
        HattOptions {
            variant,
            policy,
            ..Default::default()
        }
    }

    fn assert_same(tag: &str, table: &HattMapping, scan: &HattMapping) {
        assert_eq!(table.tree(), scan.tree(), "{tag}: tree");
        assert_eq!(
            merge_sequence(table.tree()),
            merge_sequence(scan.tree()),
            "{tag}: merge sequence"
        );
        let weights = |m: &HattMapping| -> Vec<usize> {
            m.stats()
                .iterations
                .iter()
                .map(|it| it.settled_weight)
                .collect()
        };
        assert_eq!(weights(table), weights(scan), "{tag}: settled weights");
    }

    /// Two wider members on which each build resumes hundreds of rows
    /// whose minimum merged away (rule 4 of [`ScoreTable`]): the
    /// tie-heavy singles chain, where most resumes stop at a tie, and a
    /// random Hamiltonian, where most read the rest of the row. The
    /// remap chains skip them, which would cost seconds in debug builds.
    fn wide_roster() -> Vec<(String, MajoranaSum)> {
        vec![
            ("singles/48".into(), MajoranaSum::uniform_singles(48)),
            ("random/38".into(), random(38)),
        ]
    }

    #[test]
    fn table_pass_equals_the_paired_scan_under_every_blend() {
        for (name, h) in roster().into_iter().chain(wide_roster()) {
            for blend in BLENDS {
                let greedy = SelectionPolicy::Greedy;
                let tag = format!("{name} λ={}/{}", blend.num, blend.den);
                let table = both_fills(&tag, || {
                    hatt_single(&h, &options(Variant::Cached, greedy), blend).unwrap()
                });
                let scan = hatt_single(&h, &options(Variant::Paired, greedy), blend).unwrap();
                assert_same(&tag, &table, &scan);
                // The table pass did score through the table.
                let scored = |m: &HattMapping| m.stats().total_candidates();
                assert!(scored(&table) <= scored(&scan), "{tag}: candidates");
            }
        }
    }

    /// A random edit of `h`: drop one term, add one absent support, or
    /// both.
    fn random_delta(rng: &mut StdRng, h: &MajoranaSum) -> HamiltonianDelta {
        let n = h.n_modes();
        let mut delta = HamiltonianDelta::new(n);
        let kind = rng.gen_range(0..3);
        if kind != 1 && h.n_terms() > 1 {
            let k = rng.gen_range(0..h.n_terms());
            let (support, coeff) = h.iter().nth(k).map(|(s, c)| (s.to_vec(), c)).unwrap();
            delta.push_remove(coeff, &support).unwrap();
        }
        if kind != 0 {
            let len = [1, 2, 4][rng.gen_range(0..3)];
            let added = support(rng, n, len);
            if h.coefficient_of(&added).is_zero(1e-12) {
                delta.push_add(Complex64::real(0.5), &added).unwrap();
            }
        }
        delta
    }

    #[test]
    fn table_remap_chains_equal_the_paired_scan() {
        for policy in [SelectionPolicy::Greedy, SelectionPolicy::Vanilla] {
            for (seed, (name, base)) in roster().into_iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed as u64);
                let table_opts = options(Variant::Cached, policy);
                let scan_opts = options(Variant::Paired, policy);
                let caches = [MappingCache::new(), MappingCache::new()];
                for (walked, cache) in [true, false].into_iter().zip(&caches) {
                    forced(walked, || {
                        cache.try_get_or_build(&base, &table_opts).unwrap()
                    });
                }
                let mut h = base;
                for step in 0..6 {
                    let delta = random_delta(&mut rng, &h);
                    let next = delta.apply(&h).unwrap();
                    let tag = format!("{name} {policy} step {step}");
                    let [walk, entry] = [true, false].map(|walked| {
                        let cache = &caches[usize::from(!walked)];
                        forced(walked, || {
                            cache.try_get_or_build(&next, &table_opts).unwrap()
                        })
                    });
                    let scan = hatt_with_impl(&next, &scan_opts).unwrap();
                    assert_same(&tag, &walk, &scan);
                    assert_same(&tag, &entry, &scan);
                    h = next;
                }
            }
        }
    }

    /// The session workload's shape: edits of a 98-mode Hubbard 7x7
    /// lattice, whose builds the shape gate walks. Both fills must
    /// match the `Paired` scan on the base and on each edit.
    #[test]
    fn both_fills_equal_the_paired_scan_along_a_98_mode_hubbard_edit_chain() {
        use hatt_fermion::models::FermiHubbard;

        let mut h = MajoranaSum::from_fermion(&FermiHubbard::new(7, 7).hamiltonian());
        let _ = h.take_identity();
        let greedy = options(Variant::Cached, SelectionPolicy::Greedy);
        let scan_opts = options(Variant::Paired, SelectionPolicy::Greedy);
        let mut rng = StdRng::seed_from_u64(98);
        for step in 0..EDITS_98 {
            let tag = format!("hubbard 7x7 edit {step}");
            let table = both_fills(&tag, || hatt_with_impl(&h, &greedy).unwrap());
            assert_same(&tag, &table, &hatt_with_impl(&h, &scan_opts).unwrap());
            h = random_delta(&mut rng, &h).apply(&h).unwrap();
        }
    }

    /// Builds of the 98-mode chain: the base and its edits. The `Paired`
    /// scan at N = 98 costs seconds per build without optimizations, so
    /// debug builds check the base and one edit.
    const EDITS_98: usize = if cfg!(debug_assertions) { 2 } else { 6 };
}
