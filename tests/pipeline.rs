//! End-to-end pipeline integration tests: fermionic model → mapping →
//! Trotter circuit → optimization → simulation, with energy conservation
//! and golden-weight regression pins.

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hatt::circuit::{optimize, trotter_circuit, TermOrder};
use hatt::core::{HattOptions, Mapper, Variant};
use hatt::fermion::models::{FermiHubbard, MolecularIntegrals, NeutrinoModel};
use hatt::fermion::MajoranaSum;
use hatt::mappings::{
    balanced_ternary_tree, bravyi_kitaev, jordan_wigner, validate, FermionMapping,
};
use hatt::sim::{ground_state, StateVector};

/// One construction through the `Mapper` handle (a fresh handle per
/// call, so every construction is cold).
fn hatt_with(h: &MajoranaSum, opts: &HattOptions) -> hatt::core::HattMapping {
    Mapper::with_options(*opts)
        .map(h)
        .expect("valid Hamiltonian")
}

/// Default-options construction (the old `hatt` free function).
fn hatt(h: &MajoranaSum) -> hatt::core::HattMapping {
    hatt_with(h, &HattOptions::default())
}

#[test]
fn ideal_trotter_circuit_approximately_conserves_energy() {
    // e^{-iHt} commutes with H, so on the exact ground state the ideal
    // circuit changes the energy only by the Trotter error.
    let op = MolecularIntegrals::h2_sto3g().to_fermion_operator();
    let h = MajoranaSum::from_fermion(&op);
    let mapping = hatt(&h);
    let hq = mapping.map_majorana_sum(&h);
    let (e0, psi0) = ground_state(&hq);
    for steps in [1usize, 4] {
        let circ = optimize(&trotter_circuit(&hq, 1.0, steps, TermOrder::Lexicographic));
        let mut psi = psi0.clone();
        psi.apply_circuit(&circ);
        let e = psi.expectation(&hq);
        assert!(
            (e - e0).abs() < 0.02,
            "energy drifted from {e0} to {e} with {steps} Trotter steps"
        );
    }
}

#[test]
fn trotter_error_shrinks_with_more_steps() {
    let op = FermiHubbard::new(1, 2).hamiltonian();
    let h = MajoranaSum::from_fermion(&op);
    let mapping = jordan_wigner(4);
    let hq = mapping.map_majorana_sum(&h);
    // Reference: exact evolution via many fine steps.
    let mut reference = StateVector::zero_state(4);
    // Start from a superposition so the test is not trivial.
    let mut prep = hatt::circuit::Circuit::new(4);
    prep.h(0).cnot(0, 1).h(2);
    reference.apply_circuit(&prep);
    let start = reference.clone();
    let fine = trotter_circuit(&hq, 0.6, 64, TermOrder::Given);
    reference.apply_circuit(&fine);

    let mut err_coarse = None;
    for steps in [1usize, 8] {
        let circ = trotter_circuit(&hq, 0.6, steps, TermOrder::Given);
        let mut psi = start.clone();
        psi.apply_circuit(&circ);
        let infidelity = 1.0 - psi.fidelity(&reference);
        if let Some(prev) = err_coarse {
            assert!(
                infidelity < prev,
                "Trotter error did not shrink: {prev} → {infidelity}"
            );
        }
        err_coarse = Some(infidelity);
    }
}

#[test]
fn hatt_is_valid_and_vacuum_preserving_on_all_model_families() {
    let cases: Vec<MajoranaSum> = vec![
        MajoranaSum::from_fermion(&MolecularIntegrals::h2_sto3g().to_fermion_operator()),
        MajoranaSum::from_fermion(&FermiHubbard::new(2, 2).hamiltonian()),
        MajoranaSum::from_fermion(&NeutrinoModel::new(2, 2).hamiltonian()),
    ];
    for h in &cases {
        let m = hatt(h);
        let report = validate(&m);
        assert!(report.is_valid(), "{:?}", report);
        assert!(report.vacuum_preserving);
    }
}

#[test]
fn golden_pauli_weights_are_stable() {
    // Regression pins: refactors must not silently change mapping output.
    // Paper Table I (H2): JW 32, BK 34, BTT 36, HATT 32.
    let h2 = {
        let mut m =
            MajoranaSum::from_fermion(&MolecularIntegrals::h2_sto3g().to_fermion_operator());
        let _ = m.take_identity();
        m
    };
    let weight = |m: &dyn FermionMapping, h: &MajoranaSum| {
        let mut hq = m.map_majorana_sum(h);
        let _ = hq.take_identity();
        hq.weight()
    };
    assert_eq!(weight(&jordan_wigner(4), &h2), 32);
    assert_eq!(weight(&bravyi_kitaev(4), &h2), 34);
    assert_eq!(weight(&balanced_ternary_tree(4), &h2), 36);
    assert_eq!(weight(&hatt(&h2), &h2), 32);

    // Paper Table II (Hubbard 2×2): JW 80, BK 80, HATT 76 — the
    // amortized default objective beats the paper's HATT here (56,
    // which is the Fermihedral optimum).
    let hub = {
        let mut m = MajoranaSum::from_fermion(&FermiHubbard::new(2, 2).hamiltonian());
        let _ = m.take_identity();
        m
    };
    assert_eq!(weight(&jordan_wigner(8), &hub), 80);
    assert_eq!(weight(&bravyi_kitaev(8), &hub), 80);
    assert_eq!(weight(&balanced_ternary_tree(8), &hub), 84);
    assert_eq!(weight(&hatt(&hub), &hub), 56);
}

#[test]
fn unopt_and_optimized_hatt_agree_closely_on_weight() {
    // Table VI behaviour: the vacuum/caching optimizations cost ≲ 10%
    // weight on small benchmarks (paper reports ~0.43% on average).
    let cases: Vec<MajoranaSum> = vec![
        MajoranaSum::from_fermion(&FermiHubbard::new(2, 2).hamiltonian()),
        MajoranaSum::from_fermion(&FermiHubbard::new(2, 3).hamiltonian()),
        MajoranaSum::from_fermion(&MolecularIntegrals::h2_sto3g().to_fermion_operator()),
    ];
    for h in &cases {
        let unopt = hatt_with(
            h,
            &HattOptions {
                variant: Variant::Unopt,
                naive_weight: false,
                ..Default::default()
            },
        );
        let opt = hatt_with(
            h,
            &HattOptions {
                variant: Variant::Cached,
                naive_weight: false,
                ..Default::default()
            },
        );
        let wu = unopt.map_majorana_sum(h).weight() as f64;
        let wo = opt.map_majorana_sum(h).weight() as f64;
        assert!(
            (wo - wu).abs() / wu < 0.10,
            "unopt {wu} vs optimized {wo} diverged"
        );
    }
}
