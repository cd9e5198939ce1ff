//! Persistence-tier integration: a `Mapper` built with
//! `MapperBuilder::store_path` must warm-start from disk — a fresh
//! process (modelled by a fresh handle) serving a previously mapped
//! structure out of the store with **zero** constructions and a tree
//! bit-identical to in-memory construction — and a damaged store file
//! must degrade to cache misses, never to errors. A session edit
//! (`Mapper::remap`) probes the store for its own structure only, so a
//! parent record, intact, damaged or torn, changes neither its counters
//! nor its result.

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use hatt_core::{HattError, HattOptions, Mapper};
use hatt_fermion::models::random_hermitian;
use hatt_fermion::{HamiltonianDelta, MajoranaSum};
use hatt_mappings::SelectionPolicy;
use hatt_pauli::Complex64;

/// A unique throwaway store path (the container has no tempfile crate).
fn store_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "hatt-store-test-{}-{}.store",
        std::process::id(),
        tag
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn workload() -> Vec<MajoranaSum> {
    let mut hams: Vec<MajoranaSum> = (2..6).map(MajoranaSum::uniform_singles).collect();
    for seed in [11, 17] {
        let mut h = MajoranaSum::from_fermion(&random_hermitian(4, 5, 4, seed));
        let _ = h.take_identity();
        hams.push(h);
    }
    hams
}

#[test]
fn warm_start_is_bit_identical_and_construction_free() {
    let path = store_path("warm");
    let hams = workload();

    // Pass 1: cold — everything constructs and writes through.
    let cold = Mapper::builder().store_path(&path).build().unwrap();
    let cold_maps: Vec<_> = hams.iter().map(|h| cold.map(h).unwrap()).collect();
    assert_eq!(cold.cache().constructions(), hams.len() as u64);
    let stats = cold.store_stats().unwrap();
    assert_eq!(stats.writes, hams.len() as u64);
    assert_eq!(stats.write_errors, 0);
    drop(cold);

    // Pass 2: a fresh handle on the same file — all store hits, no
    // selection work, trees bit-identical. Coefficients are rescaled to
    // prove the store keys on structure alone.
    let warm = Mapper::builder().store_path(&path).build().unwrap();
    for (h, cold_mapping) in hams.iter().zip(&cold_maps) {
        let warm_mapping = warm.map(&h.scaled(1.75)).unwrap();
        assert_eq!(warm_mapping.tree(), cold_mapping.tree());
    }
    assert_eq!(warm.cache().constructions(), 0, "store replay only");
    let stats = warm.store_stats().unwrap();
    assert_eq!(stats.hits, hams.len() as u64);
    assert_eq!(stats.misses, 0);

    // And the store never changed what gets computed: a store-less
    // mapper agrees bit for bit.
    let reference = Mapper::new();
    for (h, cold_mapping) in hams.iter().zip(&cold_maps) {
        assert_eq!(reference.map(h).unwrap().tree(), cold_mapping.tree());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_damaged_store_degrades_to_misses_not_errors() {
    let path = store_path("damage");
    let hams = workload();
    {
        let mapper = Mapper::builder().store_path(&path).build().unwrap();
        for h in &hams {
            mapper.map(h).unwrap();
        }
        mapper.sync_store().unwrap();
    }

    // Vandalize the middle of the file: flip a byte well inside the
    // record stream.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&path, &bytes).unwrap();

    // The damaged records are skipped on load; every mapping still
    // succeeds (reconstructed where the store lost it) and matches the
    // store-less reference.
    let mapper = Mapper::builder().store_path(&path).build().unwrap();
    let reference = Mapper::new();
    for h in &hams {
        assert_eq!(
            mapper.map(h).unwrap().tree(),
            reference.map(h).unwrap().tree()
        );
    }
    let stats = mapper.store_stats().unwrap();
    assert!(
        stats.misses > 0,
        "the flipped byte should have cost at least one record"
    );
    let _ = std::fs::remove_file(&path);
}

/// A single-term insertion on a structure whose terms are all Majorana
/// pairs — always applicable.
fn quad_delta(n_modes: usize) -> HamiltonianDelta {
    let mut delta = HamiltonianDelta::new(n_modes);
    delta.push_add(Complex64::real(0.5), &[0, 1, 2, 3]).unwrap();
    delta
}

#[test]
fn an_edit_reads_only_its_own_structure_from_the_store() {
    let path = store_path("edit-probe");
    let base = MajoranaSum::uniform_singles(4);
    let delta = quad_delta(4);
    let next = delta.apply(&base).unwrap();

    // Process 1 maps the base and exits; only the parent record is on
    // disk.
    {
        let mapper = Mapper::builder().store_path(&path).build().unwrap();
        mapper.map(&base).unwrap();
        mapper.sync_store().unwrap();
    }

    // Process 2 edits the base: one probe for the post-delta
    // structure, which misses, then a construction written through.
    // The parent's record is never read.
    let mapper = Mapper::builder().store_path(&path).build().unwrap();
    let edited = mapper.remap(&base, &delta).unwrap();
    let stats = mapper.store_stats().unwrap();
    assert_eq!((stats.hits, stats.misses, stats.writes), (0, 1, 1));
    assert_eq!(mapper.cache().constructions(), 1);
    let fresh = Mapper::new().map(&next).unwrap();
    assert_eq!(edited.tree(), fresh.tree());
    assert_eq!(edited.stats().total_weight(), fresh.stats().total_weight());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_damaged_parent_record_degrades_remap_to_a_cold_construct() {
    let path = store_path("remap-damage");
    let base = MajoranaSum::uniform_singles(4);
    let delta = quad_delta(4);
    let next = delta.apply(&base).unwrap();
    {
        let mapper = Mapper::builder().store_path(&path).build().unwrap();
        mapper.map(&base).unwrap();
        mapper.sync_store().unwrap();
    }

    // Vandalize the lone parent record.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&path, &bytes).unwrap();

    // The remap request still succeeds: it constructs, and the output
    // is bit-identical to a store-less fresh build.
    let mapper = Mapper::builder().store_path(&path).build().unwrap();
    let incremental = mapper.remap(&base, &delta).unwrap();
    assert_eq!(mapper.cache().constructions(), 1);
    let fresh = Mapper::new().map(&next).unwrap();
    assert_eq!(incremental.tree(), fresh.tree());
    assert_eq!(
        incremental.stats().total_weight(),
        fresh.stats().total_weight()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_torn_parent_record_degrades_remap_to_a_cold_construct() {
    let path = store_path("remap-torn");
    let base = MajoranaSum::uniform_singles(4);
    let delta = quad_delta(4);
    let next = delta.apply(&base).unwrap();
    {
        let mapper = Mapper::builder().store_path(&path).build().unwrap();
        mapper.map(&base).unwrap();
        mapper.sync_store().unwrap();
    }

    // A torn write: the process died mid-append, leaving a truncated
    // tail.
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.len() > 16);
    std::fs::write(&path, &bytes[..bytes.len() - 16]).unwrap();

    let mapper = Mapper::builder().store_path(&path).build().unwrap();
    let incremental = mapper.remap(&base, &delta).unwrap();
    assert_eq!(mapper.cache().constructions(), 1);
    let fresh = Mapper::new().map(&next).unwrap();
    assert_eq!(incremental.tree(), fresh.tree());

    // The edit's construction wrote through, so a fresh handle serving
    // the same edit hits the store.
    mapper.sync_store().unwrap();
    drop(mapper);
    let healed = Mapper::builder().store_path(&path).build().unwrap();
    let again = healed.remap(&base, &quad_delta(4)).unwrap();
    assert_eq!(again.tree(), fresh.tree());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn the_store_keys_on_options_not_just_structure() {
    let path = store_path("options");
    let h = MajoranaSum::uniform_singles(4);

    let greedy = Mapper::builder().store_path(&path).build().unwrap();
    let greedy_map = greedy.map(&h).unwrap();
    drop(greedy);

    // Same structure, different selection policy: must be a store miss
    // and a fresh construction under the new policy.
    let restarts = Mapper::builder()
        .policy(SelectionPolicy::Restarts)
        .store_path(&path)
        .build()
        .unwrap();
    let restarts_map = restarts.map(&h).unwrap();
    assert_eq!(restarts.cache().constructions(), 1);
    let stats = restarts.store_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (0, 1));

    let reference = Mapper::builder()
        .policy(SelectionPolicy::Restarts)
        .build()
        .unwrap();
    assert_eq!(restarts_map.tree(), reference.map(&h).unwrap().tree());
    // Both entries coexist now: each policy warm-starts independently.
    drop(restarts);
    let warm = Mapper::builder().store_path(&path).build().unwrap();
    assert_eq!(warm.map(&h).unwrap().tree(), greedy_map.tree());
    assert_eq!(warm.cache().constructions(), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn the_store_serves_repeats_even_with_the_memory_cache_disabled() {
    let path = store_path("nocache");
    let h = MajoranaSum::uniform_singles(5);

    let mapper = Mapper::builder()
        .cache_capacity(0)
        .store_path(&path)
        .build()
        .unwrap();
    let first = mapper.map(&h).unwrap();
    let second = mapper.map(&h.scaled(0.5)).unwrap();
    assert_eq!(first.tree(), second.tree());
    assert_eq!(
        mapper.cache().constructions(),
        1,
        "second map must replay from the store despite cache_capacity(0)"
    );
    let stats = mapper.store_stats().unwrap();
    assert_eq!((stats.hits, stats.writes), (1, 1));
    let _ = std::fs::remove_file(&path);
}

/// Store records and `map_item` lines carry the policy as text, and the
/// text form names widths 1 to 64 only. A typed policy outside that
/// range is refused before it can build, so it never writes a record
/// that no reader could load.
#[test]
fn a_policy_width_its_text_cannot_name_is_refused_and_never_stored() {
    let h = MajoranaSum::uniform_singles(3);
    let unwritable = [
        SelectionPolicy::Beam { width: 65 },
        SelectionPolicy::Beam { width: 0 },
        SelectionPolicy::Lookahead { width: 0 },
        SelectionPolicy::Lookahead { width: 65 },
    ];
    for policy in unwritable {
        let path = store_path("unwritable");
        let built = Mapper::builder().policy(policy).store_path(&path).build();
        assert!(
            matches!(built, Err(HattError::InvalidPolicy(_))),
            "{policy:?}: {built:?}"
        );
        assert!(
            !path.exists(),
            "{policy:?}: a refused builder opened its store"
        );
        let unchecked = Mapper::with_options(HattOptions::with_policy(policy));
        assert!(
            matches!(unchecked.map(&h), Err(HattError::InvalidPolicy(_))),
            "{policy:?}: with_options built"
        );
        assert_eq!(
            unchecked.cache().constructions(),
            0,
            "{policy:?}: a refused build counted"
        );
    }

    // A store-backed handle asked to build under such a policy writes
    // nothing, and still stores its own constructions.
    let path = store_path("unwritable-tier");
    let mapper = Mapper::builder().store_path(&path).build().unwrap();
    let beam = HattOptions::with_policy(SelectionPolicy::Beam { width: 65 });
    assert!(matches!(
        mapper.cache().try_get_or_build(&h, &beam),
        Err(HattError::InvalidPolicy(_))
    ));
    let stats = mapper.store_stats().unwrap();
    assert_eq!((stats.writes, stats.entries), (0, 0));
    assert_eq!(mapper.cache().constructions(), 0);
    mapper.map(&h).unwrap();
    assert_eq!(mapper.store_stats().unwrap().writes, 1);
    assert_eq!(mapper.cache().constructions(), 1);
    let _ = std::fs::remove_file(&path);

    // Every width the text form names round-trips and builds.
    for width in 1..=64 {
        for policy in [
            SelectionPolicy::Beam { width },
            SelectionPolicy::Lookahead { width },
        ] {
            assert_eq!(policy.to_string().parse(), Ok(policy));
            let mapper = Mapper::builder().policy(policy).build().unwrap();
            assert_eq!(mapper.options().policy, policy);
        }
    }
}
