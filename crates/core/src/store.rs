//! The persistent second cache tier: HATT constructions stored on disk,
//! content-addressed by Hamiltonian structure.
//!
//! [`StoreTier`] wraps a [`hatt_store::Store`] (append-only
//! checksummed log) with the mapping-specific codec: the record key is
//! the canonical FNV-1a structure hash plus the construction-options
//! discriminant, and the value is a `hatt-wire/1` `store_record`
//! envelope carrying the *full* structure (the 64-bit hash is only the
//! address — a collision is caught by comparing structures, exactly as
//! the in-memory cache does) and the standard `hatt_mapping` payload
//! (no new serialization format).
//!
//! A store hit is replayed against the incoming operator through the
//! same merge-sequence path as an in-memory hit, so warm-starting from
//! disk is bit-identical to a fresh construction and does zero
//! selection work. Store failures never fail a mapping: a read problem
//! degrades to a miss (construct as usual), a write problem is counted
//! and dropped — persistence is an accelerator, not a dependency.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hatt_mappings::NodeId;
use hatt_pauli::json::Json;
use hatt_pauli::wire::{as_arr, as_obj, as_usize, envelope, field, open_envelope, WireError};

use crate::algorithm::{HattMapping, HattOptions};
use crate::batch::{merge_sequence, Structure};
use crate::error::HattError;
use crate::wire::{decode_hatt_mapping_payload, hatt_mapping_payload};

const KIND: &str = "store_record";

/// Counters and sizes of a mapper's persistent store tier, surfaced
/// through [`Mapper::store_stats`](crate::Mapper::store_stats) and the
/// `hattd` `stats` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreTierStats {
    /// Probes answered from disk (each one skipped a construction).
    pub hits: u64,
    /// Probes that found no usable record on disk.
    pub misses: u64,
    /// Records written through after a construction.
    pub writes: u64,
    /// Writes dropped on I/O errors (persistence is best-effort).
    pub write_errors: u64,
    /// Live records in the store.
    pub entries: usize,
    /// On-disk log size in bytes.
    pub file_bytes: u64,
}

/// The disk tier under a [`MappingCache`](crate::MappingCache):
/// consulted after an in-memory miss, written through after a
/// construction.
#[derive(Debug)]
pub(crate) struct StoreTier {
    store: Mutex<hatt_store::Store>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
}

impl StoreTier {
    /// Opens (creating if absent) the store log at `path`, warm-starting
    /// its index from disk.
    pub(crate) fn open(path: &Path) -> Result<StoreTier, HattError> {
        let store = hatt_store::Store::open(path)
            .map_err(|e| HattError::Store(format!("open {}: {e}", path.display())))?;
        Ok(StoreTier {
            store: Mutex::new(store),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        })
    }

    /// The record key: 8-byte LE structure hash plus the options
    /// discriminant (a different variant/policy builds a different
    /// tree, so it must address a different record; worker caps are
    /// already normalized out by the caller).
    fn key(structure: &Structure, options: &HattOptions) -> Vec<u8> {
        let mut key = structure.hash().to_le_bytes().to_vec();
        key.extend_from_slice(
            format!(
                "|{}|{}|{}",
                options.variant.key(),
                options.policy,
                options.naive_weight
            )
            .as_bytes(),
        );
        key
    }

    /// Looks up the merge sequence for `(structure, options)`. Any
    /// failure — no record, I/O error, malformed document, structure or
    /// options mismatch — reads as a miss; the caller constructs.
    pub(crate) fn load(
        &self,
        structure: &Structure,
        options: &HattOptions,
    ) -> Option<Vec<[NodeId; 3]>> {
        let key = Self::key(structure, options);
        let bytes = self.lock().get(&key).ok().flatten();
        let seq = bytes.and_then(|b| decode_record(&b, structure, options).ok());
        match &seq {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        seq
    }

    /// Writes a freshly constructed mapping through to disk.
    /// Best-effort: an I/O error is counted and dropped, never
    /// propagated into the mapping result.
    pub(crate) fn save(&self, structure: &Structure, options: &HattOptions, mapping: &HattMapping) {
        let key = Self::key(structure, options);
        let value = encode_record(structure, mapping).render();
        match self.lock().put(&key, value.as_bytes()) {
            Ok(()) => self.writes.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.write_errors.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Flushes the log to stable storage (the daemon calls this on
    /// drain; ordinary writes are OS-buffered).
    pub(crate) fn sync(&self) -> Result<(), HattError> {
        self.lock()
            .sync()
            .map_err(|e| HattError::Store(format!("sync: {e}")))
    }

    /// Current counters and sizes.
    pub(crate) fn stats(&self) -> StoreTierStats {
        let disk = self.lock().stats();
        StoreTierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            entries: disk.entries,
            file_bytes: disk.file_bytes,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, hatt_store::Store> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The `store_record` document: the full structure (collision guard)
/// next to the standard `hatt_mapping` payload.
fn encode_record(structure: &Structure, mapping: &HattMapping) -> Json {
    let terms = structure
        .terms()
        .map(|t| Json::Arr(t.iter().map(|&i| Json::int(u64::from(i))).collect()))
        .collect();
    let payload = vec![
        (
            "structure".into(),
            Json::Obj(vec![
                ("n_modes".into(), Json::int(structure.n_modes as u64)),
                ("terms".into(), Json::Arr(terms)),
            ]),
        ),
        ("mapping".into(), hatt_mapping_payload(mapping)),
    ];
    envelope(KIND, Json::Obj(payload))
}

/// Decodes and *verifies* a stored record: the embedded structure must
/// equal the probe's (so a 64-bit hash collision can never alias two
/// structures through disk) and the mapping's options must match the
/// probe's discriminant. Returns the merge sequence to replay. Other
/// payload members are ignored, so records written with the retired
/// `lineage` member still load.
fn decode_record(
    bytes: &[u8],
    expect: &Structure,
    options: &HattOptions,
) -> Result<Vec<[NodeId; 3]>, WireError> {
    const CTX: &str = "store_record payload";
    let text = std::str::from_utf8(bytes)
        .map_err(|_| WireError::schema(CTX, "record is not UTF-8 JSON"))?;
    let doc = Json::parse(text).map_err(|e| WireError::schema(CTX, format!("{e}")))?;
    let payload = as_obj(open_envelope(&doc, KIND)?, CTX)?;

    const SCTX: &str = "store_record structure";
    let sp = as_obj(field(payload, "structure", CTX)?, SCTX)?;
    let n_modes = as_usize(field(sp, "n_modes", SCTX)?, SCTX)?;
    let mut terms: Vec<Vec<u32>> = Vec::new();
    for term in as_arr(field(sp, "terms", SCTX)?, SCTX)? {
        let mut support = Vec::new();
        for idx in as_arr(term, SCTX)? {
            let idx = as_usize(idx, SCTX)?;
            support.push(
                u32::try_from(idx)
                    .map_err(|_| WireError::schema(SCTX, "term index out of range"))?,
            );
        }
        terms.push(support);
    }
    if n_modes != expect.n_modes || !expect.terms().eq(terms.iter().map(Vec::as_slice)) {
        // A different structure landed on this address (hash collision
        // or a damaged record that still checksums): never alias.
        return Err(WireError::schema(SCTX, "stored structure differs"));
    }

    let mapping = decode_hatt_mapping_payload(field(payload, "mapping", CTX)?)?;
    let stored = mapping.options();
    if stored.variant != options.variant
        || stored.policy != options.policy
        || stored.naive_weight != options.naive_weight
    {
        return Err(WireError::schema(CTX, "stored options differ"));
    }
    Ok(merge_sequence(mapping.tree()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::hatt_with_impl;
    use hatt_fermion::MajoranaSum;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "hatt-core-store-test-{}-{tag}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn record_round_trips_to_the_same_merge_sequence() {
        let h = MajoranaSum::uniform_singles(4);
        let options = HattOptions::default();
        let structure = Structure::of(&h);
        let mapping = hatt_with_impl(&h, &options).unwrap();
        let doc = encode_record(&structure, &mapping).render();
        let seq = decode_record(doc.as_bytes(), &structure, &options).unwrap();
        assert_eq!(seq, merge_sequence(mapping.tree()));
    }

    #[test]
    fn a_record_with_a_retired_lineage_member_still_decodes() {
        let h = MajoranaSum::uniform_singles(4);
        let options = HattOptions::default();
        let structure = Structure::of(&h);
        let mapping = hatt_with_impl(&h, &options).unwrap();
        let bare = encode_record(&structure, &mapping).render();
        assert!(!bare.contains("lineage"));
        // Older daemons wrote the parent's structure hash after the
        // mapping, as the payload's last member.
        let head = bare.strip_suffix("}}").unwrap();
        let old = [head, r#","lineage":"ffffffffffffffff"}}"#].concat();
        assert_eq!(
            decode_record(old.as_bytes(), &structure, &options).unwrap(),
            decode_record(bare.as_bytes(), &structure, &options).unwrap()
        );
    }

    #[test]
    fn mismatched_structure_or_options_is_rejected() {
        let h = MajoranaSum::uniform_singles(4);
        let options = HattOptions::default();
        let structure = Structure::of(&h);
        let mapping = hatt_with_impl(&h, &options).unwrap();
        let doc = encode_record(&structure, &mapping).render();
        // Same address, different structure: the collision guard.
        let other = Structure::of(&MajoranaSum::uniform_singles(5));
        assert!(decode_record(doc.as_bytes(), &other, &options).is_err());
        // Same structure, different options discriminant.
        let naive = HattOptions {
            naive_weight: true,
            ..options
        };
        assert!(decode_record(doc.as_bytes(), &structure, &naive).is_err());
        // Garbage bytes.
        assert!(decode_record(b"not json", &structure, &options).is_err());
    }

    #[test]
    fn a_record_does_not_decode_for_the_same_indices_split_differently() {
        let mut pairs = MajoranaSum::new(2);
        pairs.add(hatt_pauli::Complex64::ONE, &[0, 1]);
        pairs.add(hatt_pauli::Complex64::ONE, &[2, 3]);
        let mut quartic = MajoranaSum::new(2);
        quartic.add(hatt_pauli::Complex64::ONE, &[0, 1, 2, 3]);
        let options = HattOptions::default();
        let mapping = hatt_with_impl(&pairs, &options).unwrap();
        let doc = encode_record(&Structure::of(&pairs), &mapping).render();
        assert!(decode_record(doc.as_bytes(), &Structure::of(&pairs), &options).is_ok());
        assert!(decode_record(doc.as_bytes(), &Structure::of(&quartic), &options).is_err());
    }

    #[test]
    fn tier_load_save_round_trip_and_counters() {
        let path = scratch("tier");
        let tier = StoreTier::open(&path).unwrap();
        let h = MajoranaSum::uniform_singles(3);
        let options = HattOptions::default();
        let structure = Structure::of(&h);
        assert!(tier.load(&structure, &options).is_none());
        let mapping = hatt_with_impl(&h, &options).unwrap();
        tier.save(&structure, &options, &mapping);
        let seq = tier.load(&structure, &options).unwrap();
        assert_eq!(seq, merge_sequence(mapping.tree()));
        let stats = tier.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.file_bytes > 0);
        tier.sync().unwrap();
        // A fresh tier warm-starts from the same log.
        drop(tier);
        let tier = StoreTier::open(&path).unwrap();
        assert_eq!(tier.load(&structure, &options), Some(seq));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keys_separate_options_discriminants() {
        let h = MajoranaSum::uniform_singles(3);
        let structure = Structure::of(&h);
        let greedy = HattOptions::default();
        let naive = HattOptions {
            naive_weight: true,
            ..greedy
        };
        assert_ne!(
            StoreTier::key(&structure, &greedy),
            StoreTier::key(&structure, &naive)
        );
    }
}
