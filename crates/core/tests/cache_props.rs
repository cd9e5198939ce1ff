//! Property tests for the structure-keyed mapping cache
//! (`hatt_core::batch`): the canonical key must be a pure function of
//! the term *structure* (never of insertion order, duplicate inserts or
//! coefficients), and a cache hit must be indistinguishable from a
//! fresh construction on the new operator.

use hatt_core::{structure_key, HattOptions, Mapper, MappingCache};
use hatt_fermion::models::random_hermitian;
use hatt_fermion::MajoranaSum;
use hatt_mappings::{validate, FermionMapping};
use hatt_pauli::Complex64;
use proptest::prelude::*;

fn random_majorana_sum(n: usize, seed: u64) -> MajoranaSum {
    let mut h = MajoranaSum::from_fermion(&random_hermitian(n, 5, 4, seed));
    let _ = h.take_identity();
    h
}

/// Re-adds the terms of `h` rotated by `rot`, splitting every
/// coefficient into two duplicate inserts (`c/2 + c/2`) — the two
/// canonicalization paths the key must be blind to.
fn reinsert_rotated_with_duplicates(h: &MajoranaSum, rot: usize) -> MajoranaSum {
    let terms: Vec<(Vec<u32>, Complex64)> = h.iter().map(|(i, c)| (i.to_vec(), c)).collect();
    let mut out = MajoranaSum::new(h.n_modes());
    let k = terms.len().max(1);
    for j in 0..terms.len() {
        let (idx, c) = &terms[(j + rot) % k];
        let half = *c * 0.5;
        out.add(half, idx);
        out.add(half, idx);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn key_is_invariant_under_reordering_and_duplicate_insertion(
        n in 2usize..7,
        seed in 0u64..200,
        rot in 1usize..13,
    ) {
        let h = random_majorana_sum(n, seed);
        let rebuilt = reinsert_rotated_with_duplicates(&h, rot);
        prop_assert_eq!(rebuilt.n_terms(), h.n_terms(), "structure drifted");
        prop_assert_eq!(structure_key(&rebuilt), structure_key(&h));
        // Coefficients are not part of the key either.
        prop_assert_eq!(structure_key(&h.scaled(3.25)), structure_key(&h));
    }

    #[test]
    fn keys_of_distinct_structures_differ(
        n in 2usize..7,
        seed in 0u64..200,
    ) {
        // Not a collision-freeness proof (64-bit hashes collide
        // somewhere), but random distinct structures must not collide in
        // practice — and the cache would survive even if they did, via
        // the full-key comparison exercised below and unit-tested with a
        // forced collision in `batch::tests`.
        let h = random_majorana_sum(n, seed);
        let other = random_majorana_sum(n, seed + 1000);
        let distinct = {
            let a: Vec<Vec<u32>> = h.iter().map(|(i, _)| i.to_vec()).collect();
            let b: Vec<Vec<u32>> = other.iter().map(|(i, _)| i.to_vec()).collect();
            a != b
        };
        if distinct {
            prop_assert_ne!(structure_key(&h), structure_key(&other));
        }
    }

    #[test]
    fn cache_hit_matches_fresh_construction_on_the_new_operator(
        n in 2usize..7,
        seed in 0u64..200,
        factor in 1u32..9,
    ) {
        let warm = random_majorana_sum(n, seed);
        // Same structure, different coefficients: the service case.
        let query = warm.scaled(f64::from(factor) * 0.5);
        let opts = HattOptions::default();
        let cache = MappingCache::new();
        let _ = cache.try_get_or_build(&warm, &opts).unwrap();
        let hit = cache.try_get_or_build(&query, &opts).unwrap();
        prop_assert_eq!(cache.hits(), 1, "second lookup must hit");

        let fresh = Mapper::with_options(opts).map(&query).unwrap();
        prop_assert_eq!(hit.tree(), fresh.tree(), "hit tree drifted");
        prop_assert_eq!(
            hit.stats().total_weight(),
            fresh.stats().total_weight(),
            "hit weight drifted"
        );
        prop_assert_eq!(
            hit.stats().total_weight(),
            hit.map_majorana_sum(&query).weight(),
            "hit stats disagree with the mapped operator"
        );
        let report = validate(&hit);
        prop_assert!(report.is_valid(), "hit mapping invalid: {:?}", report);
        prop_assert!(report.vacuum_preserving, "hit mapping broke vacuum");
    }

    #[test]
    fn map_many_is_order_preserving_and_cache_oblivious(
        n in 2usize..6,
        seed in 0u64..100,
        workers in 1usize..5,
    ) {
        // A batch with deliberate structure repeats, mapped with and
        // without cache sharing: outputs must equal the element-wise
        // sequential constructions, in input order.
        let a = random_majorana_sum(n, seed);
        let b = random_majorana_sum(n, seed + 500);
        let batch = vec![a.clone(), b.clone(), a.scaled(2.0), b.scaled(0.25), a.clone()];
        let opts = HattOptions { threads: Some(workers), ..Default::default() };
        let maps = Mapper::with_options(opts).map_batch(&batch).unwrap();
        prop_assert_eq!(maps.len(), batch.len());
        for (i, (h, m)) in batch.iter().zip(&maps).enumerate() {
            let solo = Mapper::new().map(h).unwrap();
            prop_assert_eq!(m.tree(), solo.tree(), "slot {} tree drifted", i);
            prop_assert_eq!(
                m.stats().total_weight(),
                solo.stats().total_weight(),
                "slot {} weight drifted", i
            );
        }
    }
}
