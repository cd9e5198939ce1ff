//! The term-incidence engine: the weight-evaluation kernel behind the
//! HATT construction and the exhaustive/annealing tree searches.
//!
//! The paper's Algorithm 1 keeps, for every Hamiltonian term, the multiset
//! of node symbols it currently contains (`S_a S_b …`), and evaluates the
//! Pauli weight a candidate parent triple settles on one qubit. Because a
//! symbol appearing twice cancels (`S² ∝ I`), a term is fully described by
//! the *set* of symbols with odd multiplicity. This engine stores the
//! transpose — for each tree node a bitset over terms in which its symbol
//! appears — so that the weight of a candidate triple `(a, b, c)` on a
//! qubit is three popcounts:
//!
//! * a term gets letter `I` when it contains none of `a, b, c` — or all
//!   three (`X·Y·Z = i·I`, the cancellation the paper exploits);
//! * otherwise exactly 1 or 2 appear, the per-qubit letter is
//!   non-identity, and the term contributes weight 1.
//!
//! ```text
//!     weight(a,b,c) = T − popcount(¬A ∧ ¬B ∧ ¬C) − popcount(A ∧ B ∧ C)
//! ```
//!
//! The reduce step of the paper (`S_X, S_Y, S_Z → S_parent ⊗ {X,Y,Z}`)
//! becomes `incidence(parent) = A ⊕ B ⊕ C` (the parent symbol survives in
//! a term iff an odd number of the children appeared). This is an
//! implementation optimization over the per-term scan described in the
//! paper — same asymptotics in `N`, a ~64× constant-factor win — and the
//! per-term scan is kept as [`TermEngine::weight_of_triple_naive`] for the
//! ablation benchmark.
//!
//! ## The incremental selection kernel
//!
//! By inclusion–exclusion the triple-intersection terms cancel:
//!
//! ```text
//!     weight(a,b,c) = |A ∪ B ∪ C| − |A ∩ B ∩ C|
//!                   = |A| + |B| + |C| − |A∩B| − |A∩C| − |B∩C|
//! ```
//!
//! so a candidate's weight only needs per-node popcounts and *pairwise*
//! intersection counts. The engine maintains the popcounts eagerly and a
//! pairwise-count memo invalidated per node (each `reduce` /
//! [`TermEngine::set_incidence`] bumps that node's epoch, so only pairs
//! touching the mutated node are recomputed). Inside a selection loop
//! evaluating `Ω(|U|²)` candidates over `|U|` stable nodes, every
//! evaluation after the first visit of a pair is O(1) instead of
//! O(T/64). [`TermEngine::weight_of_triple_memo`] is the memoized
//! entry point; the allocation-free one-pass kernel stays available as
//! [`TermEngine::weight_of_triple`].
//!
//! The memo serves the passes that score candidate by candidate: the
//! `Paired` and `Unopt` scans, the lookahead, the beam, and the score
//! table of `hatt-core`'s default pass on dense inputs. On sparse
//! inputs that table fills whole rows and columns by walking each
//! term's live roots instead (from [`TermEngine::incidence`] and
//! [`TermEngine::node_count`]) and leaves the memo unallocated, so
//! [`TermEngine::memo_stats`] reads `(0, 0)`.
//!
//! ## Threading
//!
//! A `TermEngine` is plain owned data (bitsets, popcounts, the memo
//! tables), so it is `Send` — asserted below — and the parallel beam
//! search in `hatt-core` relies on that: every surviving beam state owns
//! its engine, and per-step candidate scans run on scoped worker threads
//! with exclusive `&mut` access. Nothing in the engine is shared between
//! threads; cross-thread determinism is inherited from the engine being
//! a pure function of its construction and mutation history.

use hatt_fermion::MajoranaSum;
use hatt_pauli::Bits;

use crate::policy::TripleCounts;
use crate::tree::NodeId;

// The parallel construction engine moves owned engines and trees across
// scoped worker threads (see the module docs' Threading section).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TermEngine>();
    assert_send_sync::<crate::tree::TernaryTree>();
    assert_send_sync::<crate::tree::TreeMapping>();
};

/// Per-node term-incidence bitsets for a Majorana Hamiltonian being
/// compiled onto a ternary tree.
///
/// # Examples
///
/// ```
/// use hatt_fermion::MajoranaSum;
/// use hatt_mappings::TermEngine;
/// use hatt_pauli::Complex64;
///
/// // H = M0 M1 + M2 M3 on 2 modes (leaves 0..=4, internals 5, 6).
/// let mut h = MajoranaSum::new(2);
/// h.add(Complex64::ONE, &[0, 1]);
/// h.add(Complex64::ONE, &[2, 3]);
/// let engine = TermEngine::new(&h);
///
/// // Grouping (0, 1, 4): term M0M1 sees two of the triple (XY = iZ,
/// // weight 1); term M2M3 sees none (I, weight 0).
/// assert_eq!(engine.weight_of_triple(0, 1, 4), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TermEngine {
    n_modes: usize,
    n_terms: usize,
    incidence: Vec<Bits>,
    /// Popcount of each node's incidence, maintained on every mutation.
    count: Vec<u32>,
    /// Per-node mutation epoch; a memo entry is valid only while both of
    /// its nodes' epochs are unchanged. (A stale hit would need 2³²
    /// mutations of one node between two reads of the same pair —
    /// unreachable in practice.)
    epoch: Vec<u32>,
    /// Lazily allocated pairwise-intersection memo.
    memo: Option<PairMemo>,
    /// Scratch buffer for allocation-free `reduce`.
    scratch: Bits,
}

/// Above this node count the pairwise memo (an upper-triangular
/// `n_nodes·(n_nodes+1)/2` table, 12 bytes per entry) is not allocated
/// and the memoized path falls back to the direct kernel. 2048 nodes
/// ≈ 25 MB, covering N ≈ 680 modes.
const PAIR_MEMO_NODE_LIMIT: usize = 2048;

#[derive(Debug, Clone, Copy, Default)]
struct PairEntry {
    /// Epoch of the lower node id at computation time (0 = never valid,
    /// node epochs start at 1).
    epoch_lo: u32,
    /// Epoch of the higher node id at computation time.
    epoch_hi: u32,
    count: u32,
}

#[derive(Debug, Clone)]
struct PairMemo {
    n_nodes: usize,
    entries: Vec<PairEntry>,
    hits: u64,
    misses: u64,
}

impl TermEngine {
    /// Builds the engine from a preprocessed Hamiltonian. Constant terms
    /// (empty monomials) are ignored; every other monomial becomes one
    /// term regardless of coefficient, matching the paper's weight
    /// objective.
    pub fn new(h: &MajoranaSum) -> Self {
        let n_modes = h.n_modes();
        let n_nodes = 3 * n_modes + 1;
        let monomials: Vec<&[u32]> = h
            .iter()
            .map(|(idx, _)| idx)
            .filter(|idx| !idx.is_empty())
            .collect();
        let n_terms = monomials.len();
        assert!(
            u32::try_from(n_terms).is_ok(),
            "term count {n_terms} exceeds the engine's u32 counters"
        );
        let mut incidence = vec![Bits::zeros(n_terms); n_nodes];
        for (t, idx) in monomials.iter().enumerate() {
            for &k in *idx {
                incidence[k as usize].set(t, true);
            }
        }
        let count = incidence.iter().map(|b| b.count_ones() as u32).collect();
        TermEngine {
            n_modes,
            n_terms,
            incidence,
            count,
            epoch: vec![1; n_nodes],
            memo: None,
            scratch: Bits::zeros(n_terms),
        }
    }

    /// Number of modes of the underlying Hamiltonian.
    #[inline]
    pub fn n_modes(&self) -> usize {
        self.n_modes
    }

    /// Number of (non-constant) Hamiltonian terms.
    #[inline]
    pub fn n_terms(&self) -> usize {
        self.n_terms
    }

    /// The incidence bitset of a node (terms currently containing its
    /// symbol).
    #[inline]
    pub fn incidence(&self, node: NodeId) -> &Bits {
        &self.incidence[node]
    }

    /// Pauli weight settled on one qubit if `(a, b, c)` become the
    /// `X, Y, Z` children of a new parent (symmetric in the triple).
    ///
    /// One fused word-level pass over the three incidence bitsets; see
    /// [`TermEngine::weight_of_triple_memo`] for the O(1) amortized
    /// variant used by the selection loops.
    pub fn weight_of_triple(&self, a: NodeId, b: NodeId, c: NodeId) -> usize {
        let (none, all) =
            Bits::triple_none_all(&self.incidence[a], &self.incidence[b], &self.incidence[c]);
        self.n_terms - none - all
    }

    /// Memoized weight evaluation via the pairwise identity
    /// `w = |A| + |B| + |C| − |A∩B| − |A∩C| − |B∩C|` (the module docs
    /// derive it). Returns exactly the same value as
    /// [`TermEngine::weight_of_triple`]; after the first visit of each
    /// pair the evaluation is O(1) until one of its nodes is mutated by
    /// [`TermEngine::reduce`] / [`TermEngine::set_incidence`].
    pub fn weight_of_triple_memo(&mut self, a: NodeId, b: NodeId, c: NodeId) -> usize {
        if !self.ensure_memo() {
            return self.weight_of_triple(a, b, c);
        }
        let singles = self.count[a] as usize + self.count[b] as usize + self.count[c] as usize;
        singles - self.pair_count(a, b) - self.pair_count(a, c) - self.pair_count(b, c)
    }

    /// Popcount of `incidence(a) ∩ incidence(b)`, memoized per node-pair
    /// and invalidated when either node mutates.
    pub fn pair_count(&mut self, a: NodeId, b: NodeId) -> usize {
        if !self.ensure_memo() {
            return self.incidence[a].and_count(&self.incidence[b]);
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (elo, ehi) = (self.epoch[lo], self.epoch[hi]);
        #[allow(clippy::expect_used)]
        // hatt-lint: allow(panic) -- ensure_memo() returning true guarantees the memo is populated
        let memo = self.memo.as_mut().expect("memo just ensured");
        // Upper-triangular (diagonal included) row-major slot: row `lo`
        // starts after the Σ_{k<lo}(n_nodes − k) = lo·(2n − lo + 1)/2
        // earlier entries.
        let slot = lo * (2 * memo.n_nodes - lo + 1) / 2 + (hi - lo);
        let entry = &mut memo.entries[slot];
        if entry.epoch_lo == elo && entry.epoch_hi == ehi {
            memo.hits += 1;
            return entry.count as usize;
        }
        let count = self.incidence[lo].and_count(&self.incidence[hi]);
        *entry = PairEntry {
            epoch_lo: elo,
            epoch_hi: ehi,
            count: count as u32,
        };
        memo.misses += 1;
        count
    }

    /// Number of terms with *odd* membership in the triple — the popcount
    /// of the parent's post-reduce incidence `A ⊕ B ⊕ C`, i.e. the terms
    /// that will keep paying weight on ancestor qubits. One fused
    /// word-level pass.
    pub fn residual_of_triple(&self, a: NodeId, b: NodeId, c: NodeId) -> usize {
        Bits::xor3_count(&self.incidence[a], &self.incidence[b], &self.incidence[c])
    }

    /// The per-candidate membership counts `(n₁, n₂, n₃)` of a triple,
    /// sharing the memoized pairwise counts with
    /// [`TermEngine::weight_of_triple_memo`].
    ///
    /// Let `S = |A| + |B| + |C|`, `P = |A∩B| + |A∩C| + |B∩C|` and
    /// `n₃ = |A∩B∩C|`. With `n_k` the number of terms containing exactly
    /// `k` of the triple, `S = n₁ + 2n₂ + 3n₃` and `P = n₂ + 3n₃`, so
    /// `n₂ = P − 3n₃` and `n₁ = S − 2P + 3n₃`. Only `n₃` can need a
    /// bitset pass — and only when every pairwise intersection is
    /// non-empty (`n₃ ≤ min` of the three), so on sparse workloads the
    /// whole evaluation stays O(1) amortized.
    pub fn counts_of_triple_memo(&mut self, a: NodeId, b: NodeId, c: NodeId) -> TripleCounts {
        if self.memo.is_none() && self.incidence.len() > PAIR_MEMO_NODE_LIMIT {
            // Word-level fallback (not the per-bit scan): two fused
            // passes recover all three counts.
            let n3 = Bits::and3_count(&self.incidence[a], &self.incidence[b], &self.incidence[c]);
            let n1 = self.residual_of_triple(a, b, c) - n3;
            let n2 = self.weight_of_triple(a, b, c) - n1;
            return TripleCounts { n1, n2, n3 };
        }
        let s = self.count[a] as usize + self.count[b] as usize + self.count[c] as usize;
        let (pab, pac, pbc) = (
            self.pair_count(a, b),
            self.pair_count(a, c),
            self.pair_count(b, c),
        );
        let p = pab + pac + pbc;
        let n3 = if pab.min(pac).min(pbc) == 0 {
            0
        } else {
            Bits::and3_count(&self.incidence[a], &self.incidence[b], &self.incidence[c])
        };
        TripleCounts {
            n1: s + 3 * n3 - 2 * p,
            n2: p - 3 * n3,
            n3,
        }
    }

    /// [`TermEngine::counts_of_triple_memo`] via the paper's per-term
    /// scan — the ablation path; must agree with the memoized kernel.
    pub fn counts_of_triple_naive(&self, a: NodeId, b: NodeId, c: NodeId) -> TripleCounts {
        let mut counts = TripleCounts::default();
        for t in 0..self.n_terms {
            let k = usize::from(self.incidence[a].get(t))
                + usize::from(self.incidence[b].get(t))
                + usize::from(self.incidence[c].get(t));
            match k {
                1 => counts.n1 += 1,
                2 => counts.n2 += 1,
                3 => counts.n3 += 1,
                _ => {}
            }
        }
        counts
    }

    /// `(hits, misses)` of the pairwise memo so far — instrumentation for
    /// the perf harness; `(0, 0)` before the memo is first used.
    pub fn memo_stats(&self) -> (u64, u64) {
        self.memo.as_ref().map_or((0, 0), |m| (m.hits, m.misses))
    }

    /// Number of terms currently containing `node`'s symbol (maintained
    /// popcount of its incidence bitset).
    #[inline]
    pub fn node_count(&self, node: NodeId) -> usize {
        self.count[node] as usize
    }

    /// Allocates the pairwise memo on first use; `false` when the node
    /// count exceeds [`PAIR_MEMO_NODE_LIMIT`] and memoization is skipped.
    fn ensure_memo(&mut self) -> bool {
        if self.memo.is_some() {
            return true;
        }
        let n_nodes = self.incidence.len();
        if n_nodes > PAIR_MEMO_NODE_LIMIT {
            return false;
        }
        self.memo = Some(PairMemo {
            n_nodes,
            entries: vec![PairEntry::default(); n_nodes * (n_nodes + 1) / 2],
            hits: 0,
            misses: 0,
        });
        true
    }

    /// The paper's per-term weight evaluation (scan every term, count
    /// triple membership). Kept for the ablation benchmark; must agree
    /// with [`Self::weight_of_triple`].
    pub fn weight_of_triple_naive(&self, a: NodeId, b: NodeId, c: NodeId) -> usize {
        let mut w = 0;
        for t in 0..self.n_terms {
            let k = usize::from(self.incidence[a].get(t))
                + usize::from(self.incidence[b].get(t))
                + usize::from(self.incidence[c].get(t));
            if k == 1 || k == 2 {
                w += 1;
            }
        }
        w
    }

    /// Applies the paper's `reduce` step: the parent symbol replaces the
    /// children (`incidence(parent) = A ⊕ B ⊕ C`), settling the parent's
    /// qubit for every term. Allocation-free (scratch buffer + fused
    /// three-way XOR); invalidates only the parent's memoized pairs.
    pub fn reduce(&mut self, parent: NodeId, a: NodeId, b: NodeId, c: NodeId) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.copy_from(&self.incidence[a]);
        scratch.xor3_assign(&self.incidence[b], &self.incidence[c]);
        std::mem::swap(&mut self.incidence[parent], &mut scratch);
        self.scratch = scratch;
        self.touch(parent);
    }

    /// Restores a node's incidence (used by backtracking searches).
    pub fn set_incidence(&mut self, node: NodeId, bits: Bits) {
        self.incidence[node] = bits;
        self.touch(node);
    }

    /// Recomputes a node's maintained popcount and bumps its epoch,
    /// invalidating every memoized pair involving it.
    fn touch(&mut self, node: NodeId) {
        self.count[node] = self.incidence[node].count_ones() as u32;
        self.epoch[node] = self.epoch[node].wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatt_pauli::Complex64;

    /// The paper's running example, Equation (3):
    /// `H_Q = 0.5i·S0S1 − 0.5i·S2S3 − 0.5i·S4S5 + 0.5·S2S3S4S5`.
    fn paper_example() -> MajoranaSum {
        let mut h = MajoranaSum::new(3);
        h.add(Complex64::new(0.0, 0.5), &[0, 1]);
        h.add(Complex64::new(0.0, -0.5), &[2, 3]);
        h.add(Complex64::new(0.0, -0.5), &[4, 5]);
        h.add(Complex64::real(0.5), &[2, 3, 4, 5]);
        h
    }

    #[test]
    fn paper_first_iteration_weights() {
        let engine = TermEngine::new(&paper_example());
        assert_eq!(engine.n_terms(), 4);
        // The paper picks O0, O1, O6 in the first step: total weight 1.
        assert_eq!(engine.weight_of_triple(0, 1, 6), 1);
        // A bad pick, e.g. (O0, O2, O4): S0S1 has one member (w1),
        // S2S3 has one (w1), S4S5 has one (w1), S2S3S4S5 has two (w1) = 4.
        assert_eq!(engine.weight_of_triple(0, 2, 4), 4);
        // (O2, O3, O4): S2S3 two members (w1), S4S5 one (w1),
        // S2S3S4S5 three members → XYZ = iI, weight 0! Total 2.
        assert_eq!(engine.weight_of_triple(2, 3, 4), 2);
    }

    #[test]
    fn paper_second_iteration_after_reduce() {
        let mut engine = TermEngine::new(&paper_example());
        // Step 0: O7 ← (O0, O1, O6).
        engine.reduce(7, 0, 1, 6);
        // S0S1 reduces to {} (even count of members), so O7 absent;
        // the other terms keep their symbols.
        assert_eq!(engine.incidence(7).count_ones(), 0);
        // Step 1: the paper picks O2, O3, O7 → weight 2
        // (S2'S3' → XY (1), S4'S5' → II (0), S2'S3'S4'S5' → XY (1)).
        assert_eq!(engine.weight_of_triple(2, 3, 7), 2);
    }

    #[test]
    fn naive_and_bitset_weights_agree() {
        let engine = TermEngine::new(&paper_example());
        for a in 0..7 {
            for b in 0..7 {
                for c in 0..7 {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    assert_eq!(
                        engine.weight_of_triple(a, b, c),
                        engine.weight_of_triple_naive(a, b, c),
                        "mismatch at ({a},{b},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn xor_reduce_tracks_odd_membership() {
        let mut h = MajoranaSum::new(2);
        h.add(Complex64::ONE, &[0, 1, 2]);
        let mut engine = TermEngine::new(&h);
        // Parent of (0, 1, 3): term contains 0 and 1 → even → absent.
        engine.reduce(5, 0, 1, 3);
        assert_eq!(engine.incidence(5).count_ones(), 0);
        // Parent of (0, 2, 4): term contains 0 and 2 → even → absent…
        // but reduce(6, 2, 3, 4) with only node 2 present → odd → present.
        engine.reduce(6, 2, 3, 4);
        assert_eq!(engine.incidence(6).count_ones(), 1);
    }

    #[test]
    fn memo_weight_matches_direct_kernel() {
        let mut engine = TermEngine::new(&paper_example());
        for a in 0..7 {
            for b in 0..7 {
                for c in 0..7 {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    assert_eq!(
                        engine.weight_of_triple(a, b, c),
                        engine.weight_of_triple_memo(a, b, c),
                        "memo mismatch at ({a},{b},{c})"
                    );
                }
            }
        }
        let (hits, misses) = engine.memo_stats();
        assert!(hits > 0, "repeated pairs must hit the memo");
        assert!(misses > 0);
    }

    #[test]
    fn memo_invalidates_on_reduce_and_set_incidence() {
        let mut engine = TermEngine::new(&paper_example());
        // Warm the memo on pairs involving node 7 (all-zero incidence):
        // only S0S1 contributes, via its single member O0 or O1.
        assert_eq!(engine.weight_of_triple_memo(0, 1, 7), 1);
        // O7 ← (O2, O3, O4): odd membership in S4S5 (one of the triple)
        // and in S2S3S4S5 (three of the triple), so O7 now sits in those
        // two terms and the same triple gains weight 2.
        engine.reduce(7, 2, 3, 4);
        assert_eq!(engine.node_count(7), 2);
        assert_eq!(engine.weight_of_triple_memo(0, 1, 7), 3);
        assert_eq!(
            engine.weight_of_triple_memo(0, 1, 7),
            engine.weight_of_triple(0, 1, 7)
        );
        // Backtracking path: restore an arbitrary incidence and re-check.
        let restored = Bits::from_indices(engine.n_terms(), &[0, 3]);
        engine.set_incidence(7, restored);
        assert_eq!(engine.node_count(7), 2);
        assert_eq!(
            engine.weight_of_triple_memo(0, 1, 7),
            engine.weight_of_triple(0, 1, 7)
        );
    }

    #[test]
    fn maintained_counts_track_incidence() {
        let mut engine = TermEngine::new(&paper_example());
        for node in 0..7 {
            assert_eq!(engine.node_count(node), engine.incidence(node).count_ones());
        }
        engine.reduce(7, 2, 3, 4);
        assert_eq!(engine.node_count(7), engine.incidence(7).count_ones());
    }

    #[test]
    fn pair_count_matches_and_count() {
        let mut engine = TermEngine::new(&paper_example());
        for a in 0..7 {
            for b in 0..7 {
                let direct = engine.incidence(a).and_count(engine.incidence(b));
                assert_eq!(engine.pair_count(a, b), direct);
                // Second read must hit the memo and agree.
                assert_eq!(engine.pair_count(b, a), direct);
            }
        }
    }

    #[test]
    fn counts_match_direct_kernels() {
        let mut engine = TermEngine::new(&paper_example());
        for a in 0..7 {
            for b in 0..7 {
                for c in 0..7 {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    let counts = engine.counts_of_triple_memo(a, b, c);
                    assert_eq!(
                        counts,
                        engine.counts_of_triple_naive(a, b, c),
                        "memo/naive count mismatch at ({a},{b},{c})"
                    );
                    assert_eq!(
                        counts.weight(),
                        engine.weight_of_triple(a, b, c),
                        "weight mismatch at ({a},{b},{c})"
                    );
                    assert_eq!(
                        counts.residual(),
                        engine.residual_of_triple(a, b, c),
                        "residual mismatch at ({a},{b},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn residual_counts_odd_membership() {
        let engine = TermEngine::new(&paper_example());
        // Triple (2, 3, 4): S2S3 contributes 0 (two members, even),
        // S4S5 contributes 1 (one member), S2S3S4S5 contributes 1
        // (three members) → residual 2.
        assert_eq!(engine.residual_of_triple(2, 3, 4), 2);
        // Triple (0, 1, 6): S0S1 has both members → even → residual 0.
        assert_eq!(engine.residual_of_triple(0, 1, 6), 0);
    }

    #[test]
    fn counts_survive_reduce() {
        let mut engine = TermEngine::new(&paper_example());
        let before = engine.counts_of_triple_memo(2, 3, 7);
        engine.reduce(7, 0, 1, 6);
        let after = engine.counts_of_triple_memo(2, 3, 7);
        // Node 7 stays empty after this reduce, so the counts are stable…
        assert_eq!(before, after);
        // …and still match the direct kernels.
        assert_eq!(after.weight(), engine.weight_of_triple(2, 3, 7));
        assert_eq!(after.residual(), engine.residual_of_triple(2, 3, 7));
    }

    #[test]
    fn constant_terms_are_ignored() {
        let mut h = MajoranaSum::new(1);
        h.add(Complex64::real(2.0), &[]);
        h.add(Complex64::ONE, &[0]);
        let engine = TermEngine::new(&h);
        assert_eq!(engine.n_terms(), 1);
    }

    #[test]
    fn empty_hamiltonian_gives_zero_weights() {
        let h = MajoranaSum::new(2);
        let engine = TermEngine::new(&h);
        assert_eq!(engine.n_terms(), 0);
        assert_eq!(engine.weight_of_triple(0, 1, 2), 0);
    }

    #[test]
    fn many_terms_cross_block_boundaries() {
        // 130 terms × one Majorana each forces multi-block bitsets.
        let mut h = MajoranaSum::new(65);
        for t in 0..130 {
            h.add(Complex64::ONE, &[t as u32]);
        }
        let engine = TermEngine::new(&h);
        assert_eq!(engine.n_terms(), 130);
        // Triple (0, 1, 2): three terms each contain exactly one → 3.
        assert_eq!(engine.weight_of_triple(0, 1, 2), 3);
        assert_eq!(
            engine.weight_of_triple_naive(0, 1, 2),
            engine.weight_of_triple(0, 1, 2)
        );
    }
}
