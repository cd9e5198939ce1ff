//! Property tests for the HATT construction: structural tree invariants,
//! pairing guarantees, and greedy-objective consistency on random
//! Hamiltonians.

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hatt_core::{HattOptions, Mapper, Variant};
/// One construction through the `Mapper` handle (a fresh handle per
/// call, so every construction is cold).
fn hatt_with(h: &hatt_fermion::MajoranaSum, opts: &HattOptions) -> hatt_core::HattMapping {
    Mapper::with_options(*opts)
        .map(h)
        .expect("valid Hamiltonian")
}

use hatt_fermion::models::random_hermitian;
use hatt_fermion::MajoranaSum;
use hatt_mappings::{validate, Branch, FermionMapping};
use proptest::prelude::*;

fn random_majorana_sum(n: usize, one: usize, two: usize, seed: u64) -> MajoranaSum {
    let mut h = MajoranaSum::from_fermion(&random_hermitian(n, one, two, seed));
    let _ = h.take_identity();
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trees_are_complete_and_correctly_sized(
        n in 2usize..9,
        seed in 0u64..300,
    ) {
        let h = random_majorana_sum(n, 4, 3, seed);
        let m = hatt_with(&h, &HattOptions::default());
        let tree = m.tree();
        prop_assert_eq!(tree.n_modes(), n);
        prop_assert_eq!(tree.n_leaves(), 2 * n + 1);
        // Every internal node has exactly three children, every non-root
        // node has a parent consistent with its parent's child table.
        for node in 0..tree.n_nodes() {
            if tree.is_leaf(node) {
                prop_assert!(tree.children(node).is_none());
            } else {
                let ch = tree.children(node).expect("internal children");
                for (slot, &c) in ch.iter().enumerate() {
                    let (p, b) = tree.parent(c).expect("child has parent");
                    prop_assert_eq!(p, node);
                    prop_assert_eq!(b, Branch::ALL[slot]);
                }
            }
        }
        prop_assert!(tree.parent(tree.root()).is_none());
    }

    #[test]
    fn discarded_leaf_is_z_descendant_of_root(
        n in 2usize..9,
        seed in 0u64..300,
    ) {
        // Algorithm 2 discards S_2N; the construction must leave leaf 2N
        // as the unpaired Z-descendant of the root.
        let h = random_majorana_sum(n, 4, 3, seed);
        let m = hatt_with(&h, &HattOptions { variant: Variant::Cached, naive_weight: false, ..Default::default() });
        let tree = m.tree();
        prop_assert_eq!(tree.desc_z(tree.root()), 2 * n);
    }

    #[test]
    fn per_iteration_weights_are_monotone_in_information(
        n in 2usize..8,
        seed in 0u64..200,
    ) {
        // Each iteration settles a nonnegative weight bounded by the term
        // count, and the total equals the sum of the iterations.
        let h = random_majorana_sum(n, 5, 3, seed);
        let m = hatt_with(&h, &HattOptions::default());
        let stats = m.stats();
        prop_assert_eq!(stats.iterations.len(), n);
        for it in &stats.iterations {
            prop_assert!(it.settled_weight <= stats.n_terms);
        }
        let total: usize = stats.iterations.iter().map(|i| i.settled_weight).sum();
        prop_assert_eq!(total, stats.total_weight());
    }

    #[test]
    fn unopt_objective_never_exceeds_btt_weight_by_much(
        n in 2usize..7,
        seed in 0u64..100,
    ) {
        // Greedy adaptivity should not catastrophically lose to the
        // non-adaptive balanced tree (sanity envelope: within 2×).
        use hatt_mappings::balanced_ternary_tree;
        let h = random_majorana_sum(n, 5, 3, seed);
        let hatt_w = hatt_with(&h, &HattOptions::default())
            .map_majorana_sum(&h)
            .weight();
        let btt_w = balanced_ternary_tree(n).map_majorana_sum(&h).weight();
        prop_assert!(
            hatt_w <= 2 * btt_w.max(1),
            "HATT {hatt_w} vs BTT {btt_w}"
        );
    }

    #[test]
    fn mapped_hamiltonians_are_hermitian(
        n in 2usize..8,
        seed in 0u64..200,
    ) {
        let h = random_majorana_sum(n, 5, 4, seed);
        for variant in [Variant::Unopt, Variant::Paired, Variant::Cached] {
            let m = hatt_with(&h, &HattOptions { variant, naive_weight: false, ..Default::default() });
            let hq = m.map_majorana_sum(&h);
            prop_assert!(hq.is_hermitian(1e-8), "{variant:?} broke Hermiticity");
        }
    }

    #[test]
    fn construction_is_deterministic(
        n in 2usize..7,
        seed in 0u64..100,
    ) {
        let h = random_majorana_sum(n, 4, 3, seed);
        let a = hatt_with(&h, &HattOptions::default());
        let b = hatt_with(&h, &HattOptions::default());
        for k in 0..2 * n {
            prop_assert_eq!(a.majorana(k), b.majorana(k));
        }
    }

    #[test]
    fn all_variants_remain_valid_under_duplicate_heavy_hamiltonians(
        n in 2usize..6,
        seed in 0u64..50,
    ) {
        // Hamiltonians with very few distinct terms create massive ties in
        // the greedy selection; validity must survive arbitrary tie-breaks.
        let mut h = MajoranaSum::new(n);
        h.add(hatt_pauli::Complex64::ONE, &[0, 1]);
        if seed % 2 == 0 {
            h.add(hatt_pauli::Complex64::ONE, &[0, (2 * n - 1) as u32]);
        }
        for variant in [Variant::Unopt, Variant::Cached] {
            let m = hatt_with(&h, &HattOptions { variant, naive_weight: false, ..Default::default() });
            prop_assert!(validate(&m).is_valid(), "{variant:?} invalid");
        }
    }
}
