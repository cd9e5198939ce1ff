//! Pins the selection loop's work counters, not just its results.
//!
//! Results alone cannot catch a selection loop that does more work than
//! it should: a `Cached` pass whose score table stopped keeping scores
//! still builds the same tree. These tests pin the exact per-step
//! `candidates` and `traversal_steps` of cold builds under every variant
//! and the lookahead policy, and the candidate totals of a remap against
//! the fresh build it equals. The `Paired`, `Unopt` and `lookahead:4`
//! rows are the reference scans, which score every candidate each step.

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hatt_core::{HattMapping, HattOptions, IterationStats, Mapper, Variant};
use hatt_fermion::models::FermiHubbard;
use hatt_fermion::{FermionOperator, HamiltonianDelta, MajoranaSum};
use hatt_mappings::SelectionPolicy;
use hatt_pauli::Complex64;

/// The paper's Equation (3) Hamiltonian.
fn paper_example() -> MajoranaSum {
    let mut hf = FermionOperator::new(3);
    hf.add_one_body(Complex64::ONE, 0, 0);
    hf.add_two_body(Complex64::real(2.0), 1, 2, 1, 2);
    let mut h = MajoranaSum::from_fermion(&hf);
    let _ = h.take_identity();
    h
}

fn hubbard(nx: usize, ny: usize) -> MajoranaSum {
    let mut h = MajoranaSum::from_fermion(&FermiHubbard::new(nx, ny).hamiltonian());
    let _ = h.take_identity();
    h
}

fn variant(variant: Variant) -> HattOptions {
    HattOptions {
        variant,
        ..Default::default()
    }
}

/// One cold construction (a fresh handle, so nothing is replayed).
fn build(h: &MajoranaSum, options: HattOptions) -> HattMapping {
    Mapper::with_options(options).map(h).unwrap()
}

/// One counter of every construction step, in step order.
fn per_step<T>(m: &HattMapping, counter: impl Fn(&IterationStats) -> T) -> Vec<T> {
    m.stats().iterations.iter().map(counter).collect()
}

/// `(options label, options, per-step candidates, per-step traversal
/// steps)` for one Hamiltonian.
type CounterRow = (&'static str, HattOptions, &'static [u64], &'static [u64]);

fn assert_cold_counters(name: &str, h: &MajoranaSum, rows: &[CounterRow]) {
    for &(label, options, expect_candidates, expect_steps) in rows {
        let m = build(h, options);
        let candidates = per_step(&m, |it| it.candidates);
        assert_eq!(candidates, expect_candidates, "{name}/{label}");
        let steps = per_step(&m, |it| it.traversal_steps);
        assert_eq!(steps, expect_steps, "{name}/{label}");
    }
}

#[test]
fn cold_build_counters_on_the_paper_example() {
    let lookahead = HattOptions::with_policy(SelectionPolicy::Lookahead { width: 4 });
    assert_cold_counters(
        "Eq. (3)",
        &paper_example(),
        &[
            ("cached", variant(Variant::Cached), &[15, 2, 1], &[0, 0, 0]),
            ("paired", variant(Variant::Paired), &[30, 12, 2], &[0, 4, 4]),
            ("unopt", variant(Variant::Unopt), &[35, 10, 1], &[0, 0, 0]),
            ("lookahead:4", lookahead, &[78, 20, 2], &[0, 0, 0]),
        ],
    );
}

#[test]
fn cold_build_counters_on_hubbard_2x2() {
    let lookahead = HattOptions::with_policy(SelectionPolicy::Lookahead { width: 4 });
    assert_cold_counters(
        "Hubbard 2x2",
        &hubbard(2, 2),
        &[
            (
                "cached",
                variant(Variant::Cached),
                &[120, 7, 6, 5, 4, 3, 2, 1],
                &[0; 8],
            ),
            (
                "paired",
                variant(Variant::Paired),
                &[240, 182, 132, 90, 56, 30, 12, 2],
                &[0, 14, 24, 30, 32, 30, 24, 14],
            ),
            (
                "unopt",
                variant(Variant::Unopt),
                &[680, 455, 286, 165, 84, 35, 10, 1],
                &[0; 8],
            ),
            (
                "lookahead:4",
                lookahead,
                &[968, 710, 492, 314, 176, 78, 20, 2],
                &[0; 8],
            ),
        ],
    );
}

/// Hubbard 3x3 and the single-term delta that removes its 4th term.
fn remap_case() -> (MajoranaSum, HamiltonianDelta) {
    let h = hubbard(3, 3);
    let (victim, coeff) = h.iter().nth(3).map(|(i, c)| (i.to_vec(), c)).unwrap();
    let mut delta = HamiltonianDelta::new(h.n_modes());
    delta.push_remove(coeff, &victim).unwrap();
    (h, delta)
}

/// Remaps `delta` from a warm handle and builds the post-delta
/// Hamiltonian cold; returns `(remap, fresh)`.
fn remap_and_fresh(options: HattOptions) -> (HattMapping, HattMapping) {
    let (h, delta) = remap_case();
    let mapper = Mapper::with_options(options);
    mapper.map(&h).unwrap();
    let remap = mapper.remap(&h, &delta).unwrap();
    assert_eq!(mapper.cache().remaps(), 1, "served by the remap path");
    let fresh = build(&delta.apply(&h).unwrap(), options);
    assert_eq!(remap.tree(), fresh.tree());
    let weights = |m: &HattMapping| per_step(m, |it| it.settled_weight);
    assert_eq!(weights(&remap), weights(&fresh));
    (remap, fresh)
}

#[test]
fn remap_scores_each_candidate_once_like_a_fresh_build() {
    let (remap, fresh) = remap_and_fresh(variant(Variant::Cached));
    assert_eq!(fresh.stats().total_candidates(), 881);
    assert_eq!(remap.stats().total_candidates(), 881);
}

#[test]
fn paired_remap_walks_the_tree_like_a_fresh_build() {
    let (remap, fresh) = remap_and_fresh(variant(Variant::Paired));
    assert_eq!(fresh.stats().total_candidates(), 8094);
    assert_eq!(remap.stats().total_candidates(), 8094);
    assert_eq!(fresh.stats().total_traversal_steps(), 2406);
    let steps = |m: &HattMapping| per_step(m, |it| it.traversal_steps);
    assert_eq!(steps(&remap), steps(&fresh));
}
