//! Construction instrumentation: per-iteration candidate counts, settled
//! weights and timings, powering the paper's Figure 12 scalability study
//! and Table VI weight comparison.
//!
//! # Examples
//!
//! Every HATT construction carries its stats; the per-step settled
//! weights sum to the mapped Hamiltonian's Pauli weight:
//!
//! ```
//! use hatt_core::Mapper;
//! use hatt_fermion::MajoranaSum;
//! use hatt_mappings::FermionMapping;
//! use hatt_pauli::Complex64;
//!
//! let mut h = MajoranaSum::new(2);
//! h.add(Complex64::ONE, &[0, 3]);
//! let m = Mapper::new().map(&h)?;
//! assert_eq!(m.stats().iterations.len(), 2);
//! assert_eq!(m.stats().total_weight(), m.map_majorana_sum(&h).weight());
//! # Ok::<(), hatt_core::HattError>(())
//! ```

use std::time::Duration;

/// Statistics of one construction iteration (one qubit settled).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IterationStats {
    /// The qubit settled in this iteration.
    pub qubit: usize,
    /// Number of candidate triples scored in this step. The cached
    /// variant's greedy pass scores each candidate once per
    /// construction, so after the first step it counts only the
    /// candidates the previous merge created; the other passes score
    /// every candidate they visit.
    pub candidates: u64,
    /// Number of tree-traversal steps performed while pairing (walking
    /// `descZ` / `traverse_up`); 0 for the cached variant, which replaces
    /// them with O(1) map lookups.
    pub traversal_steps: u64,
    /// Hamiltonian Pauli weight settled on this qubit by the chosen
    /// selection.
    pub settled_weight: usize,
}

/// Statistics of a complete HATT construction.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConstructionStats {
    /// Per-iteration records, in construction order (qubit 0 first).
    pub iterations: Vec<IterationStats>,
    /// Number of (non-constant) Hamiltonian terms seen by the algorithm.
    pub n_terms: usize,
    /// Total wall-clock construction time.
    pub elapsed: Duration,
    /// Pairwise-intersection memo hits inside the selection kernel
    /// (0 when the naive ablation path was used, and on sparse inputs,
    /// whose default score table fills by walking live roots).
    pub memo_hits: u64,
    /// Pairwise-intersection memo misses (fresh popcounts computed).
    pub memo_misses: u64,
}

impl ConstructionStats {
    /// Total settled weight — the algorithm's objective value
    /// (equals the mapped Hamiltonian's Pauli weight before term merging).
    pub fn total_weight(&self) -> usize {
        self.iterations.iter().map(|it| it.settled_weight).sum()
    }

    /// Total candidate triples scored across all iterations.
    pub fn total_candidates(&self) -> u64 {
        self.iterations.iter().map(|it| it.candidates).sum()
    }

    /// Total tree-traversal steps across all iterations.
    pub fn total_traversal_steps(&self) -> u64 {
        self.iterations.iter().map(|it| it.traversal_steps).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_iterations() {
        let stats = ConstructionStats {
            iterations: vec![
                IterationStats {
                    qubit: 0,
                    candidates: 10,
                    traversal_steps: 4,
                    settled_weight: 1,
                },
                IterationStats {
                    qubit: 1,
                    candidates: 3,
                    traversal_steps: 0,
                    settled_weight: 2,
                },
            ],
            n_terms: 4,
            elapsed: Duration::from_millis(1),
            memo_hits: 7,
            memo_misses: 2,
        };
        assert_eq!(stats.total_weight(), 3);
        assert_eq!(stats.total_candidates(), 13);
        assert_eq!(stats.total_traversal_steps(), 4);
        assert_eq!(stats.memo_hits, 7);
    }

    #[test]
    fn default_is_empty() {
        let stats = ConstructionStats::default();
        assert_eq!(stats.total_weight(), 0);
        assert_eq!(stats.total_candidates(), 0);
    }
}
