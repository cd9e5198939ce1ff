//! Physics-preservation integration tests: every fermion-to-qubit mapping
//! of the same Hamiltonian must produce an *isospectral* qubit
//! Hamiltonian — the strongest cross-mapping correctness check available.

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hatt::core::{HattOptions, Mapper, Variant};
use hatt::fermion::models::{random_hermitian, FermiHubbard, MolecularIntegrals};
use hatt::fermion::{FermionOperator, MajoranaSum};
use hatt::mappings::{
    balanced_ternary_tree, bravyi_kitaev, exhaustive_optimal, jordan_wigner, parity, FermionMapping,
};
use hatt::sim::spectrum;

fn spectra_match(a: &[f64], b: &[f64], eps: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < eps)
}

fn all_mappings(h: &MajoranaSum) -> Vec<Box<dyn FermionMapping>> {
    let n = h.n_modes();
    vec![
        Box::new(jordan_wigner(n)),
        Box::new(parity(n)),
        Box::new(bravyi_kitaev(n)),
        Box::new(balanced_ternary_tree(n)),
        Box::new(exhaustive_optimal(h).0),
        Box::new(hatt_with(
            h,
            &HattOptions {
                variant: Variant::Unopt,
                naive_weight: false,
                ..Default::default()
            },
        )),
        Box::new(hatt_with(
            h,
            &HattOptions {
                variant: Variant::Cached,
                naive_weight: false,
                ..Default::default()
            },
        )),
    ]
}

fn check_isospectral(op: &FermionOperator, label: &str) {
    let h = MajoranaSum::from_fermion(op);
    let mappings = all_mappings(&h);
    let reference = spectrum(&mappings[0].map_majorana_sum(&h));
    for m in &mappings[1..] {
        let s = spectrum(&m.map_majorana_sum(&h));
        assert!(
            spectra_match(&reference, &s, 1e-7),
            "{label}: {} spectrum deviates from JW\nJW:  {:?}\n{}: {:?}",
            m.name(),
            &reference[..4.min(reference.len())],
            m.name(),
            &s[..4.min(s.len())]
        );
    }
}

/// One construction through the `Mapper` handle (a fresh handle per
/// call, so every construction is cold).
fn hatt_with(h: &MajoranaSum, opts: &HattOptions) -> hatt::core::HattMapping {
    Mapper::with_options(*opts)
        .map(h)
        .expect("valid Hamiltonian")
}

#[test]
fn h2_molecule_is_isospectral_across_mappings() {
    let op = MolecularIntegrals::h2_sto3g().to_fermion_operator();
    check_isospectral(&op, "H2/STO-3G");
}

#[test]
fn hubbard_1x3_is_isospectral_across_mappings() {
    // 6 modes → 64-dimensional spectra.
    let op = FermiHubbard::new(1, 3).hamiltonian();
    check_isospectral(&op, "Hubbard 1x3");
}

#[test]
fn random_hamiltonians_are_isospectral_across_mappings() {
    for seed in 0..3 {
        let op = random_hermitian(4, 5, 3, seed);
        check_isospectral(&op, &format!("random seed {seed}"));
    }
}

#[test]
fn h2_ground_energy_matches_published_value() {
    // FCI electronic energy of H2/STO-3G at 0.7414 Å ≈ −1.8516 Ha
    // (the paper's Fig. 11 quotes −1.857 at its geometry).
    let op = MolecularIntegrals::h2_sto3g().to_fermion_operator();
    let h = MajoranaSum::from_fermion(&op);
    for m in all_mappings(&h) {
        let hq = m.map_majorana_sum(&h);
        let eigs = spectrum(&hq);
        assert!(
            (eigs[0] + 1.8516).abs() < 2e-3,
            "{}: ground energy {} differs from −1.8516",
            m.name(),
            eigs[0]
        );
    }
}
