//! Parallel-determinism harness: the threaded construction engine must
//! be **bit-identical** to the sequential one.
//!
//! Two code paths fan out over scoped worker threads (see
//! `docs/ARCHITECTURE.md`, "Threading model"): the `restarts` portfolio
//! members and the beam's per-state candidate scans. Both reduce their
//! results in a fixed order, so thread count must never change a tree,
//! a settled weight, or a downstream circuit metric. This suite pins
//! that on every Table I molecule and every neutrino model the golden
//! suite covers, at worker counts 1, 2 and 4.
//!
//! Worker counts are injected through `HattOptions::threads` — the same
//! code path the `HATT_THREADS` environment variable feeds (see
//! `vendor/parallel`); the env route itself is covered by the CI test
//! matrix, which runs this whole suite once under `HATT_THREADS=1` and
//! once at the hardware default. Mutating the variable *here* would race
//! against the concurrent test harness.

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hatt_bench::{evaluate_mapping, preprocess};
use hatt_core::{HattMapping, HattOptions, Mapper};
use hatt_fermion::models::{molecule_catalog, NeutrinoModel};
use hatt_fermion::MajoranaSum;
use hatt_mappings::SelectionPolicy;

/// The golden roster: every Table I molecule and the neutrino models up
/// to 20 modes (the exact set `tests/golden.rs` pins weights for).
fn roster() -> Vec<(String, MajoranaSum)> {
    let mut cases = Vec::new();
    for spec in molecule_catalog() {
        cases.push((spec.name.to_string(), preprocess(&spec.hamiltonian())));
    }
    for (sites, flavors) in [(2, 2), (3, 2), (4, 2), (3, 3), (5, 2)] {
        let model = NeutrinoModel::new(sites, flavors);
        cases.push((
            format!("neutrino {}", model.label()),
            preprocess(&model.hamiltonian()),
        ));
    }
    cases
}

/// One cold construction (a fresh handle, so nothing is replayed).
fn hatt_with(h: &MajoranaSum, options: &HattOptions) -> HattMapping {
    Mapper::with_options(*options).map(h).unwrap()
}

fn restarts_with_threads(workers: usize) -> HattOptions {
    HattOptions {
        policy: SelectionPolicy::Restarts,
        threads: Some(workers),
        ..Default::default()
    }
}

/// Per-step settled weights — the full construction trace, not just the
/// total, so a reshuffled-but-same-total schedule still fails.
fn step_weights(m: &HattMapping) -> Vec<usize> {
    m.stats()
        .iterations
        .iter()
        .map(|it| it.settled_weight)
        .collect()
}

#[test]
fn threaded_restarts_is_bit_identical_to_sequential() {
    // Circuit compilation (Trotter → optimize → metrics) is only run for
    // the small/medium cases: it is strictly downstream of the tree, so
    // tree identity implies metric identity, but asserting CNOT/depth
    // directly on those cases guards the whole pipeline cheaply.
    const METRICS_MAX_MODES: usize = 12;
    for (name, h) in roster() {
        let seq = hatt_with(&h, &restarts_with_threads(1));
        let seq_metrics =
            (h.n_modes() <= METRICS_MAX_MODES).then(|| evaluate_mapping(&seq, &h, 0.0).metrics);
        for workers in [2, 4] {
            let par = hatt_with(&h, &restarts_with_threads(workers));
            assert_eq!(
                par.tree(),
                seq.tree(),
                "{name}: tree differs at {workers} workers"
            );
            assert_eq!(
                par.stats().total_weight(),
                seq.stats().total_weight(),
                "{name}: total weight differs at {workers} workers"
            );
            assert_eq!(
                step_weights(&par),
                step_weights(&seq),
                "{name}: per-step weights differ at {workers} workers"
            );
            if let Some(expect) = &seq_metrics {
                let got = evaluate_mapping(&par, &h, 0.0).metrics;
                assert_eq!(
                    (got.cnot, got.depth, got.single_qubit),
                    (expect.cnot, expect.depth, expect.single_qubit),
                    "{name}: circuit metrics differ at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn map_many_matches_per_element_construction_in_input_order() {
    // The full roster plus a duplicate-structure tail (a rescaled copy
    // of the first Hamiltonian), so the batch exercises cache hits too.
    let mut batch: Vec<MajoranaSum> = roster().into_iter().map(|(_, h)| h).collect();
    let repeat = batch[0].scaled(1.75);
    batch.push(repeat);

    let expect: Vec<_> = batch
        .iter()
        .map(|h| hatt_with(h, &HattOptions::default()))
        .collect();
    for workers in [1, 2, 4] {
        let opts = HattOptions {
            threads: Some(workers),
            ..Default::default()
        };
        let got = Mapper::with_options(opts).map_batch(&batch).unwrap();
        assert_eq!(got.len(), batch.len());
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(
                g.tree(),
                e.tree(),
                "batch slot {i}: tree differs at {workers} workers (order or determinism broken)"
            );
            assert_eq!(
                g.stats().total_weight(),
                e.stats().total_weight(),
                "batch slot {i}: weight differs at {workers} workers"
            );
        }
    }
}

#[test]
fn map_many_under_restarts_hits_the_cache_and_stays_identical() {
    // The quality policy through the batch path: three same-structure
    // neutrino Hamiltonians — one construction, two replays, all three
    // bit-identical to the direct restarts run.
    let h = preprocess(&NeutrinoModel::new(3, 2).hamiltonian());
    let batch = vec![h.clone(), h.scaled(2.0), h.scaled(0.5)];
    let mapper = Mapper::with_options(HattOptions {
        policy: SelectionPolicy::Restarts,
        threads: Some(4),
        ..Default::default()
    });
    let cache = mapper.cache();
    let maps = mapper.map_batch(&batch).unwrap();
    let direct = hatt_with(&h, &HattOptions::with_policy(SelectionPolicy::Restarts));
    for (i, m) in maps.iter().enumerate() {
        assert_eq!(m.tree(), direct.tree(), "slot {i} tree drifted");
        assert_eq!(m.stats().total_weight(), direct.stats().total_weight());
    }
    assert_eq!(cache.len(), 1, "one structure, one entry");
    // In-flight dedup: one worker claims the structure and constructs,
    // the other two block on the slot and replay — deterministically 2
    // hits even though all three run concurrently.
    assert_eq!((cache.hits(), cache.misses()), (2, 1));
}

#[test]
fn worker_resolution_prefers_explicit_threads() {
    assert_eq!(HattOptions::with_threads(3).workers(), 3);
    assert_eq!(
        HattOptions {
            threads: Some(0),
            ..Default::default()
        }
        .workers(),
        1,
        "a zero cap clamps to one worker"
    );
    assert!(HattOptions::default().workers() >= 1);
}
