//! Property tests for selection-policy determinism and input-permutation
//! invariance.
//!
//! Two different invariances are asserted, matching what the
//! construction actually guarantees:
//!
//! * **Term-order invariance (strict).** The tree and every per-step
//!   weight are identical no matter in which order the Hamiltonian's
//!   terms were added: `MajoranaSum` canonicalizes term storage, and the
//!   engine's tie-breaking depends only on the canonical term set. This
//!   guards any future refactor that would make the greedy sensitive to
//!   insertion order.
//! * **Mode-relabeling robustness (weaker, by design).** Relabeling
//!   modes permutes node indices, and the deterministic final tie-break
//!   *is* the node index — so the constructed tree (and, on tie-heavy
//!   inputs, even the total weight) may legitimately differ between
//!   labelings. What must survive any relabeling: validity, vacuum
//!   preservation, and the quality portfolio's never-worse-than-JW
//!   guarantee (JW is evaluated in the *same* labeling).

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hatt_core::{HattOptions, Mapper};
/// One construction through the `Mapper` handle (a fresh handle per
/// call, so every construction is cold).
fn hatt_with(h: &hatt_fermion::MajoranaSum, opts: &HattOptions) -> hatt_core::HattMapping {
    Mapper::with_options(*opts)
        .map(h)
        .expect("valid Hamiltonian")
}

use hatt_fermion::models::random_hermitian;
use hatt_fermion::MajoranaSum;
use hatt_mappings::{jordan_wigner, validate, FermionMapping, SelectionPolicy};
use proptest::prelude::*;

/// Every public selection policy, small widths to keep the suite fast.
fn policies() -> Vec<SelectionPolicy> {
    vec![
        SelectionPolicy::Greedy,
        SelectionPolicy::Vanilla,
        SelectionPolicy::Lookahead { width: 4 },
        SelectionPolicy::Beam { width: 4 },
        SelectionPolicy::Restarts,
    ]
}

fn random_majorana_sum(n: usize, seed: u64) -> MajoranaSum {
    let mut h = MajoranaSum::from_fermion(&random_hermitian(n, 5, 4, seed));
    let _ = h.take_identity();
    h
}

/// Re-adds the terms of `h` in an order driven by `rot` (a rotation of
/// the canonical order — enough to exercise insertion-order dependence).
fn reinsert_rotated(h: &MajoranaSum, rot: usize) -> MajoranaSum {
    let terms: Vec<(Vec<u32>, _)> = h.iter().map(|(i, c)| (i.to_vec(), c)).collect();
    let mut out = MajoranaSum::new(h.n_modes());
    let k = terms.len().max(1);
    for j in 0..terms.len() {
        let (idx, c) = &terms[(j + rot) % k];
        out.add(*c, idx);
    }
    out
}

/// Relabels mode `m` to `perm[m]` (Majorana `2m + b → 2·perm[m] + b`).
fn permute_modes(h: &MajoranaSum, perm: &[usize]) -> MajoranaSum {
    let mut out = MajoranaSum::new(h.n_modes());
    for (idx, c) in h.iter() {
        let mapped: Vec<u32> = idx
            .iter()
            .map(|&k| 2 * perm[(k / 2) as usize] as u32 + k % 2)
            .collect();
        out.add(c, &mapped);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn construction_is_invariant_under_term_insertion_order(
        n in 2usize..7,
        seed in 0u64..200,
        rot in 1usize..13,
    ) {
        let h = random_majorana_sum(n, seed);
        let h_rot = reinsert_rotated(&h, rot);
        for policy in policies() {
            let a = hatt_with(&h, &HattOptions::with_policy(policy));
            let b = hatt_with(&h_rot, &HattOptions::with_policy(policy));
            prop_assert_eq!(a.tree(), b.tree(), "{} tree changed", policy);
            prop_assert_eq!(
                a.stats().total_weight(),
                b.stats().total_weight(),
                "{} weight changed", policy
            );
        }
    }

    #[test]
    fn construction_is_deterministic_per_policy(
        n in 2usize..7,
        seed in 0u64..200,
    ) {
        let h = random_majorana_sum(n, seed);
        for policy in policies() {
            let a = hatt_with(&h, &HattOptions::with_policy(policy));
            let b = hatt_with(&h, &HattOptions::with_policy(policy));
            prop_assert_eq!(a.tree(), b.tree(), "{} non-deterministic", policy);
        }
    }

    #[test]
    fn mode_relabeling_preserves_validity_and_jw_dominance(
        n in 2usize..7,
        seed in 0u64..200,
        shift in 1usize..6,
    ) {
        let h = random_majorana_sum(n, seed);
        let perm: Vec<usize> = (0..n).map(|m| (m + shift) % n).collect();
        let hp = permute_modes(&h, &perm);
        let w_jw = jordan_wigner(n).map_majorana_sum(&hp).weight();
        for policy in policies() {
            let m = hatt_with(&hp, &HattOptions::with_policy(policy));
            let report = validate(&m);
            prop_assert!(report.is_valid(), "{}: invalid after relabeling", policy);
            prop_assert!(
                report.vacuum_preserving,
                "{}: vacuum broken after relabeling", policy
            );
            prop_assert_eq!(
                m.stats().total_weight(),
                m.map_majorana_sum(&hp).weight(),
                "{}: objective drifted", policy
            );
            if policy == SelectionPolicy::Restarts {
                prop_assert!(
                    m.stats().total_weight() <= w_jw,
                    "restarts lost to JW ({} > {w_jw}) under relabeling",
                    m.stats().total_weight()
                );
            }
        }
    }
}
