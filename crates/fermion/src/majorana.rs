//! Majorana-operator sums: the *preprocessed* Hamiltonian form consumed by
//! fermion-to-qubit mapping algorithms.
//!
//! Every fermionic Hamiltonian is rewritten over the 2N Majorana operators
//!
//! ```text
//!     a†_j = (M_2j − i·M_2j+1)/2        a_j = (M_2j + i·M_2j+1)/2
//! ```
//!
//! with `M_i M_j = −M_j M_i` for `i ≠ j` and `M_i² = 1`. A
//! [`MajoranaSum`] stores each monomial as a *sorted set* of Majorana
//! indices with an exact complex coefficient (the anticommutation sign of
//! sorting is folded in), merging duplicates — this is the
//! `preprocess(H_F)` step of the paper's Algorithm 1.

use std::collections::BTreeMap;
use std::fmt;

use hatt_pauli::Complex64;

use crate::ladder::{FermionOperator, LadderOp};

/// Magnitude below which Majorana coefficients are dropped.
pub const MAJORANA_EPS: f64 = 1e-12;

/// A weighted sum of canonical Majorana monomials.
///
/// # Examples
///
/// The paper's Equation (3): `H_F = a†0a0 + 2·a†1a†2a1a2` preprocesses to
/// `0.5i·M0M1 − 0.5i·M2M3 − 0.5i·M4M5 + 0.5·M2M3M4M5` (plus a constant).
///
/// ```
/// use hatt_fermion::{FermionOperator, MajoranaSum};
/// use hatt_pauli::Complex64;
///
/// let mut h = FermionOperator::new(3);
/// h.add_one_body(Complex64::ONE, 0, 0);
/// h.add_two_body(Complex64::real(2.0), 1, 2, 1, 2);
///
/// let mut m = MajoranaSum::from_fermion(&h);
/// m.take_identity();
/// assert_eq!(m.n_terms(), 4);
/// assert!(m.coefficient_of(&[0, 1]).approx_eq(Complex64::new(0.0, 0.5), 1e-12));
/// assert!(m.coefficient_of(&[2, 3, 4, 5]).approx_eq(Complex64::real(0.5), 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MajoranaSum {
    n_modes: usize,
    terms: BTreeMap<Vec<u32>, Complex64>,
}

/// Sorts a Majorana index sequence, returning the anticommutation sign and
/// the canonical (sorted, pair-cancelled) index set.
pub(crate) fn canonicalize(mut seq: Vec<u32>) -> (f64, Vec<u32>) {
    // Insertion sort, counting inversions (each adjacent swap of distinct
    // Majoranas contributes a factor −1).
    let mut swaps = 0usize;
    for i in 1..seq.len() {
        let mut j = i;
        while j > 0 && seq[j - 1] > seq[j] {
            seq.swap(j - 1, j);
            swaps += 1;
            j -= 1;
        }
    }
    // Cancel adjacent equal pairs (M² = 1); they are adjacent after sorting.
    let mut out = Vec::with_capacity(seq.len());
    let mut i = 0;
    while i < seq.len() {
        if i + 1 < seq.len() && seq[i] == seq[i + 1] {
            i += 2;
        } else {
            out.push(seq[i]);
            i += 1;
        }
    }
    let sign = if swaps % 2 == 0 { 1.0 } else { -1.0 };
    (sign, out)
}

impl MajoranaSum {
    /// Creates an empty sum over `n_modes` fermionic modes (Majorana
    /// indices `0..2·n_modes`).
    pub fn new(n_modes: usize) -> Self {
        MajoranaSum {
            n_modes,
            terms: BTreeMap::new(),
        }
    }

    /// Number of fermionic modes `N`.
    #[inline]
    pub fn n_modes(&self) -> usize {
        self.n_modes
    }

    /// Number of Majorana operators, `2N`.
    #[inline]
    pub fn n_majoranas(&self) -> usize {
        2 * self.n_modes
    }

    /// Number of stored monomials (including any identity term).
    #[inline]
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` when no terms are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Adds `coeff · M_{i1} M_{i2} …` where the indices may appear in any
    /// order and with repetitions; the term is canonicalized (sorted,
    /// squares cancelled, sign folded into the coefficient) and merged.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= 2·n_modes`.
    pub fn add(&mut self, coeff: Complex64, indices: &[u32]) {
        for &i in indices {
            assert!(
                (i as usize) < 2 * self.n_modes,
                "Majorana index {i} out of range 0..{}",
                2 * self.n_modes
            );
        }
        let (sign, key) = canonicalize(indices.to_vec());
        let entry = self.terms.entry(key).or_insert(Complex64::ZERO);
        *entry += coeff * sign;
        if entry.is_zero(MAJORANA_EPS) {
            let (_, key) = canonicalize(indices.to_vec());
            self.terms.remove(&key);
        }
    }

    /// The sum that [`add`]ing `terms` in order builds, made in one bulk
    /// pass. Every support must be canonical (strictly ascending indices
    /// below `2·n_modes`) and the supports strictly ascending from term
    /// to term, so no two terms merge.
    ///
    /// [`add`]: MajoranaSum::add
    pub(crate) fn from_canonical_terms(n_modes: usize, terms: Vec<(Vec<u32>, Complex64)>) -> Self {
        MajoranaSum {
            n_modes,
            terms: terms
                .into_iter()
                // What `add` keeps of a fresh term: `ZERO + c`, so a -0.0
                // component reads 0.0, and nothing when that is zero.
                .map(|(support, c)| (support, Complex64::ZERO + c))
                .filter(|(_, c)| !c.is_zero(MAJORANA_EPS))
                .collect(),
        }
    }

    /// Converts a second-quantized operator by expanding every ladder
    /// operator into its Majorana pair.
    pub fn from_fermion(op: &FermionOperator) -> Self {
        let mut sum = MajoranaSum::new(op.n_modes());
        let mut scratch: Vec<u32> = Vec::new();
        for (coeff, ops) in op.iter() {
            let k = ops.len();
            // Each ladder operator contributes (M_2j ∓ i·M_2j+1)/2; iterate
            // over all 2^k choices of which half to take.
            for mask in 0..(1u64 << k) {
                scratch.clear();
                let mut c = coeff;
                for (idx, &LadderOp { mode, dagger }) in ops.iter().enumerate() {
                    let odd = (mask >> idx) & 1 == 1;
                    if odd {
                        scratch.push((2 * mode + 1) as u32);
                        c = if dagger { -c.mul_i() } else { c.mul_i() };
                    } else {
                        scratch.push((2 * mode) as u32);
                    }
                    c = c * 0.5;
                }
                sum.add(c, &scratch);
            }
        }
        sum
    }

    /// Builds `H_F = Σ_i M_i` over all `2N` Majorana operators — the
    /// workload used by the paper's Figure 12 scalability study.
    pub fn uniform_singles(n_modes: usize) -> Self {
        let mut sum = MajoranaSum::new(n_modes);
        for i in 0..2 * n_modes as u32 {
            sum.add(Complex64::ONE, &[i]);
        }
        sum
    }

    /// Coefficient of a canonical monomial (zero when absent).
    pub fn coefficient_of(&self, indices: &[u32]) -> Complex64 {
        let (sign, key) = canonicalize(indices.to_vec());
        self.terms
            .get(&key)
            .map(|&c| c * sign)
            .unwrap_or(Complex64::ZERO)
    }

    /// Removes and returns the identity (empty-monomial) coefficient.
    pub fn take_identity(&mut self) -> Complex64 {
        self.terms.remove(&Vec::new()).unwrap_or(Complex64::ZERO)
    }

    /// Removes a whole monomial (the indices may appear in any order and
    /// with repetitions), returning its coefficient with the
    /// canonicalization sign folded in — the exact value [`add`] of the
    /// same index sequence would have to receive to recreate the term.
    /// Returns `None` when the canonical monomial is absent.
    ///
    /// [`add`]: MajoranaSum::add
    pub fn remove_term(&mut self, indices: &[u32]) -> Option<Complex64> {
        let (sign, key) = canonicalize(indices.to_vec());
        self.terms.remove(&key).map(|c| c * sign)
    }

    /// Drops terms with `|c| <= eps`.
    pub fn prune(&mut self, eps: f64) {
        self.terms.retain(|_, c| !c.is_zero(eps));
    }

    /// A copy with every coefficient multiplied by `factor` — one step
    /// of a coupling/geometry sweep. With `factor != 0` the term
    /// *structure* is preserved exactly, which is what makes sweeps the
    /// ideal workload for the structure-keyed mapping cache
    /// (`hatt-core`'s `Mapper::map_batch`).
    ///
    /// # Panics
    ///
    /// Panics when `factor == 0` (every term would vanish, silently
    /// changing the structure).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor != 0.0, "scaling by zero destroys the structure");
        MajoranaSum {
            n_modes: self.n_modes,
            terms: self
                .terms
                .iter()
                .map(|(k, &c)| (k.clone(), c * factor))
                .collect(),
        }
    }

    /// Iterator over `(index set, coefficient)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], Complex64)> + '_ {
        self.terms.iter().map(|(k, &c)| (k.as_slice(), c))
    }

    /// Returns `true` when every monomial has an even number of Majorana
    /// factors (fermion-parity conservation).
    pub fn is_parity_conserving(&self) -> bool {
        self.terms.keys().all(|k| k.len() % 2 == 0)
    }

    /// Returns `true` when the operator is Hermitian within `eps`.
    ///
    /// A sorted monomial of `k` Majoranas satisfies
    /// `(M_{i1}…M_{ik})† = (−1)^{k(k−1)/2} M_{i1}…M_{ik}`, so Hermiticity
    /// requires `conj(c)·(−1)^{k(k−1)/2} = c` per term.
    pub fn is_hermitian(&self, eps: f64) -> bool {
        self.terms.iter().all(|(k, c)| {
            let sign = if (k.len() * k.len().saturating_sub(1) / 2) % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            (c.conj() * sign).approx_eq(*c, eps)
        })
    }

    /// Largest monomial size (number of Majorana factors).
    pub fn max_degree(&self) -> usize {
        self.terms.keys().map(|k| k.len()).max().unwrap_or(0)
    }
}

impl fmt::Display for MajoranaSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (k, c)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "({c})·")?;
            if k.is_empty() {
                write!(f, "1")?;
            }
            for idx in k {
                write!(f, "M{idx}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_sorts_with_sign() {
        assert_eq!(canonicalize(vec![1, 0]), (-1.0, vec![0, 1]));
        assert_eq!(canonicalize(vec![0, 1]), (1.0, vec![0, 1]));
        assert_eq!(canonicalize(vec![2, 1, 0]), (-1.0, vec![0, 1, 2]));
        assert_eq!(canonicalize(vec![1, 1]), (1.0, vec![]));
        // M1 M0 M1 = -M0 M1 M1 = -M0
        assert_eq!(canonicalize(vec![1, 0, 1]), (-1.0, vec![0]));
    }

    #[test]
    fn number_operator_expansion() {
        // a†0 a0 = 1/2 + (i/2) M0 M1
        let mut h = FermionOperator::new(1);
        h.add_one_body(Complex64::ONE, 0, 0);
        let m = MajoranaSum::from_fermion(&h);
        assert!(m.coefficient_of(&[]).approx_eq(Complex64::real(0.5), 1e-12));
        assert!(m
            .coefficient_of(&[0, 1])
            .approx_eq(Complex64::new(0.0, 0.5), 1e-12));
        assert_eq!(m.n_terms(), 2);
    }

    #[test]
    fn paper_equation_3_preprocessing() {
        // H_F = a†0a0 + 2 a†1a†2a1a2
        //     ↦ 0.5i·M0M1 − 0.5i·M2M3 − 0.5i·M4M5 + 0.5·M2M3M4M5 + const.
        let mut h = FermionOperator::new(3);
        h.add_one_body(Complex64::ONE, 0, 0);
        h.add_two_body(Complex64::real(2.0), 1, 2, 1, 2);
        let mut m = MajoranaSum::from_fermion(&h);
        let _ = m.take_identity();
        let i_half = Complex64::new(0.0, 0.5);
        assert!(m.coefficient_of(&[0, 1]).approx_eq(i_half, 1e-12));
        assert!(m.coefficient_of(&[2, 3]).approx_eq(-i_half, 1e-12));
        assert!(m.coefficient_of(&[4, 5]).approx_eq(-i_half, 1e-12));
        assert!(m
            .coefficient_of(&[2, 3, 4, 5])
            .approx_eq(Complex64::real(0.5), 1e-12));
        assert_eq!(m.n_terms(), 4);
        assert!(m.is_hermitian(1e-12));
        assert!(m.is_parity_conserving());
    }

    #[test]
    fn hopping_is_hermitian() {
        let mut h = FermionOperator::new(2);
        h.add_hopping(Complex64::new(0.3, 0.7), 0, 1);
        let m = MajoranaSum::from_fermion(&h);
        assert!(m.is_hermitian(1e-12));
        assert!(m.is_parity_conserving());
    }

    #[test]
    fn anti_hermitian_detected() {
        let mut h = FermionOperator::new(2);
        // a†0 a1 alone is not Hermitian.
        h.add_one_body(Complex64::ONE, 0, 1);
        let m = MajoranaSum::from_fermion(&h);
        assert!(!m.is_hermitian(1e-12));
    }

    #[test]
    fn uniform_singles_has_2n_terms() {
        let m = MajoranaSum::uniform_singles(5);
        assert_eq!(m.n_terms(), 10);
        assert_eq!(m.max_degree(), 1);
        assert!(!m.is_parity_conserving());
    }

    #[test]
    fn add_merges_and_cancels() {
        let mut m = MajoranaSum::new(2);
        m.add(Complex64::ONE, &[0, 1]);
        m.add(Complex64::ONE, &[1, 0]); // = -M0M1, cancels
        assert!(m.is_empty());
        m.add(Complex64::ONE, &[2, 3, 2]); // M2M3M2 = -M3
        assert!(m.coefficient_of(&[3]).approx_eq(-Complex64::ONE, 1e-12));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_bounds_checked() {
        let mut m = MajoranaSum::new(1);
        m.add(Complex64::ONE, &[2]);
    }

    #[test]
    fn anticommutator_identity_check() {
        // {a_p, a†_q} = δ_pq  ⇔  a_p a†_q + a†_q a_p − δ_pq = 0.
        for (p, q) in [(0usize, 0usize), (0, 1)] {
            let mut h = FermionOperator::new(2);
            h.add_term(
                Complex64::ONE,
                vec![LadderOp::annihilate(p), LadderOp::create(q)],
            );
            h.add_term(
                Complex64::ONE,
                vec![LadderOp::create(q), LadderOp::annihilate(p)],
            );
            if p == q {
                h.add_term(-Complex64::ONE, vec![]);
            }
            let m = MajoranaSum::from_fermion(&h);
            assert!(m.is_empty(), "anticommutator failed for p={p}, q={q}: {m}");
        }
    }

    #[test]
    fn scaled_preserves_structure() {
        let mut m = MajoranaSum::new(2);
        m.add(Complex64::ONE, &[0, 1]);
        m.add(Complex64::new(0.0, -0.5), &[2, 3]);
        let s = m.scaled(4.0);
        assert_eq!(s.n_terms(), 2);
        assert!(s
            .coefficient_of(&[0, 1])
            .approx_eq(Complex64::real(4.0), 1e-12));
        assert!(s
            .coefficient_of(&[2, 3])
            .approx_eq(Complex64::new(0.0, -2.0), 1e-12));
        let keys_a: Vec<Vec<u32>> = m.iter().map(|(k, _)| k.to_vec()).collect();
        let keys_b: Vec<Vec<u32>> = s.iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(keys_a, keys_b);
    }

    #[test]
    #[should_panic(expected = "destroys the structure")]
    fn scaled_rejects_zero() {
        let _ = MajoranaSum::uniform_singles(1).scaled(0.0);
    }

    #[test]
    fn display_smoke() {
        let mut m = MajoranaSum::new(1);
        assert_eq!(m.to_string(), "0");
        m.add(Complex64::ONE, &[0, 1]);
        assert!(m.to_string().contains("M0M1"));
    }
}
