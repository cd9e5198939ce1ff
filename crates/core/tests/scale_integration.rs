//! Integration tests at the N = 32 scale: on a synthetic molecule and a
//! collective-neutrino model, Algorithm 2 (`Paired`) and Algorithm 3
//! (`Cached`) must produce *identical* trees — the mdown/mup caches are a
//! pure speedup — and every variant must pass the full validator
//! (Majorana algebra ⇒ isospectral mapped Hamiltonian, plus vacuum
//! preservation for the paired variants).

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

use hatt_fermion::models::{MolecularIntegrals, NeutrinoModel};
use hatt_fermion::MajoranaSum;
use hatt_mappings::{validate, FermionMapping};

fn preprocess(op: &hatt_fermion::FermionOperator) -> MajoranaSum {
    let mut m = MajoranaSum::from_fermion(op);
    let _ = m.take_identity();
    m.prune(1e-10);
    m
}

/// The two 32-mode workloads: a synthetic 16-orbital molecule (Table I
/// family) and the 8×2F neutrino model (Table III family).
fn workloads() -> Vec<(&'static str, MajoranaSum)> {
    vec![
        (
            "molecule synthetic-16",
            preprocess(&MolecularIntegrals::synthetic(16, 11).to_fermion_operator()),
        ),
        (
            "neutrino 8x2F",
            preprocess(&NeutrinoModel::new(8, 2).hamiltonian()),
        ),
    ]
}

fn build(h: &MajoranaSum, variant: Variant) -> hatt_core::HattMapping {
    hatt_with(
        h,
        &HattOptions {
            variant,
            naive_weight: false,
            ..Default::default()
        },
    )
}

#[test]
fn paired_and_cached_agree_exactly_at_n32() {
    for (name, h) in workloads() {
        assert_eq!(h.n_modes(), 32, "{name} must have 32 modes");
        let paired = build(&h, Variant::Paired);
        let cached = build(&h, Variant::Cached);
        // Same tree, node for node.
        assert_eq!(
            paired.tree(),
            cached.tree(),
            "{name}: Algorithm 3 cache changed the constructed tree"
        );
        // Same Majorana strings (the mapping itself).
        for k in 0..2 * h.n_modes() {
            assert_eq!(paired.majorana(k), cached.majorana(k), "{name}, M{k}");
        }
        // Same objective trajectory, iteration by iteration.
        let weights = |m: &hatt_core::HattMapping| -> Vec<usize> {
            m.stats()
                .iterations
                .iter()
                .map(|it| it.settled_weight)
                .collect()
        };
        assert_eq!(weights(&paired), weights(&cached), "{name}: weights");
        // The cache is a pure speedup: it removes every traversal step.
        assert_eq!(cached.stats().total_traversal_steps(), 0, "{name}");
        assert!(paired.stats().total_traversal_steps() > 0, "{name}");
        // The memoized selection kernel must be doing the heavy lifting.
        assert!(
            cached.stats().memo_hits > cached.stats().memo_misses,
            "{name}: memo should mostly hit ({} hits / {} misses)",
            cached.stats().memo_hits,
            cached.stats().memo_misses
        );
    }
}

#[test]
fn hatt_savings_vs_jw_are_non_negative_at_n32() {
    // The tentpole guarantee at scale: on the 32-mode neutrino model both
    // the default greedy (amortized objective) and the quality portfolio
    // save Pauli weight over Jordan-Wigner — `neutrino_scaling` reports
    // the same quantity as a signed percentage.
    use hatt_mappings::{jordan_wigner, SelectionPolicy};
    let h = preprocess(&NeutrinoModel::new(8, 2).hamiltonian());
    assert_eq!(h.n_modes(), 32);
    let w_jw = jordan_wigner(32).map_majorana_sum(&h).weight();
    for policy in [SelectionPolicy::Greedy, SelectionPolicy::quality()] {
        let m = hatt_with(&h, &HattOptions::with_policy(policy));
        let w = m.map_majorana_sum(&h).weight();
        assert!(
            w <= w_jw,
            "neutrino 8x2F/{policy}: HATT ({w}) must not lose to JW ({w_jw})"
        );
    }
}

#[test]
fn all_variants_validate_at_n32() {
    for (name, h) in workloads() {
        for variant in [Variant::Unopt, Variant::Paired, Variant::Cached] {
            let m = build(&h, variant);
            let report = validate(&m);
            assert!(
                report.is_valid(),
                "{name}/{variant:?}: invalid mapping: {report:?}"
            );
            if variant != Variant::Unopt {
                assert!(
                    report.vacuum_preserving,
                    "{name}/{variant:?} must preserve the vacuum"
                );
            }
            // The settled-weight objective equals the mapped weight.
            let hq = m.map_majorana_sum(&h);
            assert_eq!(
                m.stats().total_weight(),
                hq.weight(),
                "{name}/{variant:?}: objective drifted from mapped weight"
            );
            assert_eq!(hq.n_qubits(), 32, "{name}/{variant:?}: qubit count");
        }
    }
}
