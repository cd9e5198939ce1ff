//! # hatt-store
//!
//! An on-disk, content-addressed record store: the persistence layer
//! under the HATT mapping cache (`hatt-core` keys it by the canonical
//! FNV-1a structure hash and stores `hatt-wire/1` mapping documents as
//! values; this crate knows nothing about either — keys and values are
//! opaque bytes).
//!
//! ## Design
//!
//! * **Append-only log + in-memory index.** One file holds framed
//!   records; an in-memory `BTreeMap` maps each key to the offset of
//!   its latest record. Re-putting a key appends a fresh record and
//!   marks the old one dead — the log is never patched in place, so a
//!   crash can only ever tear the *tail*.
//! * **Corruption detection.** Every record is framed as
//!   `magic | key_len | val_len | fnv64(key ‖ value)`; a record whose
//!   frame or checksum does not verify is skipped on load (the scanner
//!   re-synchronizes on the next magic marker), and [`Store::get`]
//!   re-verifies the checksum on every read, so a bit-flip after open
//!   degrades to a miss, never to a wrong value.
//! * **Crash-safe compaction.** When dead bytes outgrow live bytes
//!   (past a floor), the live records are rewritten to a temp file
//!   which is fsynced and atomically renamed over the log — a crash
//!   mid-compaction leaves either the old log or the new one, never a
//!   mix. A stale temp file found at open is discarded.
//!
//! # Examples
//!
//! ```
//! use hatt_store::Store;
//!
//! let path = std::env::temp_dir().join(format!(
//!     "hatt-store-doc-{}-{}.log",
//!     std::process::id(),
//!     line!()
//! ));
//! # let _ = std::fs::remove_file(&path);
//! let mut store = Store::open(&path)?;
//! store.put(b"key-1", b"value-1")?;
//! assert_eq!(store.get(b"key-1")?, Some(b"value-1".to_vec()));
//! drop(store);
//!
//! // Reopening warm-starts from the log.
//! let mut store = Store::open(&path)?;
//! assert_eq!(store.len(), 1);
//! assert_eq!(store.get(b"key-1")?, Some(b"value-1".to_vec()));
//! # std::fs::remove_file(&path)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame marker opening every record.
const MAGIC: [u8; 4] = *b"HATS";
/// Bytes of `magic | key_len(u32) | val_len(u32) | checksum(u64)`.
const HEADER_LEN: usize = 4 + 4 + 4 + 8;
/// Sanity cap on key length (corrupt length fields must not trigger
/// huge allocations).
const MAX_KEY_LEN: u32 = 1 << 20;
/// Sanity cap on value length.
const MAX_VAL_LEN: u32 = 1 << 28;
/// Default floor under which auto-compaction never triggers.
const DEFAULT_COMPACT_MIN_BYTES: u64 = 64 * 1024;

/// 64-bit FNV-1a over a byte stream: the record checksum here, the
/// mapping cache's structure key in `hatt-core`, and the shard ring's
/// points in `hatt-service`. It has no per-process state, so every
/// process and run computes the same value, which is what makes it
/// usable for keys and checksums that outlive the process.
///
/// # Examples
///
/// ```
/// assert_eq!(hatt_store::fnv1a64(*b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(hatt_store::fnv1a64(*b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.into_iter().fold(OFFSET, |acc, byte| {
        (acc ^ u64::from(byte)).wrapping_mul(PRIME)
    })
}

/// The checksum stored with a record: FNV-1a over `key ‖ value`.
fn record_checksum(key: &[u8], value: &[u8]) -> u64 {
    fnv1a64(key.iter().chain(value).copied())
}

/// Index entry: where the latest record of a key lives.
#[derive(Debug, Clone, Copy)]
struct Located {
    /// Offset of the value bytes inside the log file.
    val_offset: u64,
    /// Value length.
    val_len: u32,
    /// Checksum over `key ‖ value`, re-verified on every read.
    checksum: u64,
    /// Whole-record length (header + key + value), for dead-byte
    /// accounting when the record is superseded.
    record_len: u64,
}

/// Counters describing the health of a store (surfaced through the
/// `hattd` stats verb).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live (indexed) records.
    pub entries: usize,
    /// Total log file size in bytes.
    pub file_bytes: u64,
    /// Bytes of superseded or corrupt regions awaiting compaction.
    pub dead_bytes: u64,
    /// Records dropped for failing frame or checksum verification
    /// (at open or on read).
    pub corrupt_records: u64,
    /// Compaction passes run over the lifetime of this handle.
    pub compactions: u64,
}

/// An append-only, checksummed, content-addressed record store.
///
/// Not internally synchronized: methods take `&mut self`. Wrap it in a
/// `Mutex` to share (as `hatt-core`'s store tier does). See the
/// [crate docs](self) for the file format and crash-safety story.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    file: File,
    index: BTreeMap<Vec<u8>, Located>,
    file_len: u64,
    dead_bytes: u64,
    corrupt_records: u64,
    compactions: u64,
    compact_min_bytes: u64,
}

impl Store {
    /// Opens (creating if absent) the log at `path`, scanning it into
    /// the in-memory index. Records that fail frame or checksum
    /// verification are skipped — the scanner re-synchronizes on the
    /// next magic marker, so a torn tail never hides records appended
    /// after it. A stale compaction temp file is removed.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Store> {
        let path = path.as_ref().to_path_buf();
        // A crash mid-compaction may leave the temp file behind; the
        // rename never happened, so the log itself is intact.
        let _ = std::fs::remove_file(tmp_path(&path));
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let bytes = std::fs::read(&path)?;
        let mut store = Store {
            path,
            file,
            index: BTreeMap::new(),
            file_len: bytes.len() as u64,
            dead_bytes: 0,
            corrupt_records: 0,
            compactions: 0,
            compact_min_bytes: DEFAULT_COMPACT_MIN_BYTES,
        };
        store.scan(&bytes);
        Ok(store)
    }

    /// Scans the raw log into the index (open-time warm start).
    fn scan(&mut self, bytes: &[u8]) {
        let mut offset = 0usize;
        while offset < bytes.len() {
            match parse_record(bytes, offset) {
                Ok(Some((key, located))) => {
                    let next = offset as u64 + located.record_len;
                    if let Some(old) = self.index.insert(key.to_vec(), located) {
                        self.dead_bytes += old.record_len;
                    }
                    offset = next as usize;
                }
                Ok(None) => {
                    // A header or body running past EOF — either a
                    // torn tail, or a corrupt length field inflating
                    // the record over later intact ones. Resync on the
                    // next magic marker before giving up.
                    self.corrupt_records += 1;
                    match find_magic(bytes, offset + 1) {
                        Some(next) => {
                            self.dead_bytes += (next - offset) as u64;
                            offset = next;
                        }
                        None => {
                            self.dead_bytes += (bytes.len() - offset) as u64;
                            break;
                        }
                    }
                }
                Err(skip_to) => {
                    // Bad frame or checksum: drop the region up to the
                    // next magic marker and keep scanning — records
                    // appended after a torn write stay reachable.
                    self.corrupt_records += 1;
                    match skip_to {
                        Some(next) => {
                            self.dead_bytes += (next - offset) as u64;
                            offset = next;
                        }
                        None => {
                            self.dead_bytes += (bytes.len() - offset) as u64;
                            break;
                        }
                    }
                }
            }
        }
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no live records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` has a live record (no I/O).
    pub fn contains(&self, key: &[u8]) -> bool {
        self.index.contains_key(key)
    }

    /// Health counters for observability.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.index.len(),
            file_bytes: self.file_len,
            dead_bytes: self.dead_bytes,
            corrupt_records: self.corrupt_records,
            compactions: self.compactions,
        }
    }

    /// Sets the dead-byte floor below which auto-compaction does not
    /// trigger (mainly for tests; the default is 64 KiB).
    pub fn set_compact_min_bytes(&mut self, bytes: u64) {
        self.compact_min_bytes = bytes;
    }

    /// Reads the latest value of `key`, re-verifying its checksum. A
    /// record that no longer verifies (the file was damaged after
    /// open) is dropped from the index and reads as a miss.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        let Some(located) = self.index.get(key).copied() else {
            return Ok(None);
        };
        let mut value = vec![0u8; located.val_len as usize];
        self.file.seek(SeekFrom::Start(located.val_offset))?;
        match self.file.read_exact(&mut value) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                // The file shrank under us — treat as corruption.
                self.drop_corrupt(key, located);
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
        if record_checksum(key, &value) != located.checksum {
            self.drop_corrupt(key, located);
            return Ok(None);
        }
        Ok(Some(value))
    }

    fn drop_corrupt(&mut self, key: &[u8], located: Located) {
        self.index.remove(key);
        self.corrupt_records += 1;
        self.dead_bytes += located.record_len;
    }

    /// Appends (or supersedes) the record for `key`. The write goes to
    /// the end of the log; the previous record of the key, if any,
    /// becomes dead bytes. May trigger a compaction pass when dead
    /// bytes outgrow live bytes (see [`Store::compact`]).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        if key.len() as u64 > u64::from(MAX_KEY_LEN) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "store key exceeds the 1 MiB cap",
            ));
        }
        if value.len() as u64 > u64::from(MAX_VAL_LEN) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "store value exceeds the 256 MiB cap",
            ));
        }
        let checksum = record_checksum(key, value);
        let mut record = Vec::with_capacity(HEADER_LEN + key.len() + value.len());
        record.extend_from_slice(&MAGIC);
        record.extend_from_slice(&(key.len() as u32).to_le_bytes());
        record.extend_from_slice(&(value.len() as u32).to_le_bytes());
        record.extend_from_slice(&checksum.to_le_bytes());
        record.extend_from_slice(key);
        record.extend_from_slice(value);
        // One write_all: the OS may still tear it mid-crash, but the
        // checksum makes any tear detectable (and skippable) at open.
        self.file.write_all(&record)?;
        let located = Located {
            val_offset: self.file_len + (HEADER_LEN + key.len()) as u64,
            val_len: value.len() as u32,
            checksum,
            record_len: record.len() as u64,
        };
        self.file_len += record.len() as u64;
        if let Some(old) = self.index.insert(key.to_vec(), located) {
            self.dead_bytes += old.record_len;
        }
        self.maybe_compact()
    }

    /// Flushes the log to stable storage (`fsync`). Appends are
    /// OS-buffered otherwise; the daemon calls this on drain.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// Runs a compaction if dead bytes exceed both the floor and the
    /// live bytes — the pass is `O(live)`, so this policy bounds the
    /// file at roughly 2× the live payload while keeping compaction
    /// amortized.
    fn maybe_compact(&mut self) -> io::Result<()> {
        let live = self.file_len.saturating_sub(self.dead_bytes);
        if self.dead_bytes >= self.compact_min_bytes && self.dead_bytes > live {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites the log to contain exactly the live records, dropping
    /// dead and corrupt regions. Crash-safe: the new log is written to
    /// a temp file, fsynced, then atomically renamed over the old one —
    /// an interrupted pass leaves the old log untouched.
    pub fn compact(&mut self) -> io::Result<()> {
        let tmp = tmp_path(&self.path);
        let mut out = File::create(&tmp)?;
        let mut new_index = BTreeMap::new();
        let mut new_len = 0u64;
        // BTreeMap order keeps the rewritten log deterministic.
        let keys: Vec<Vec<u8>> = self.index.keys().cloned().collect();
        for key in keys {
            let Some(value) = self.get(&key)? else {
                continue; // verified-corrupt under us; drop it
            };
            let checksum = record_checksum(&key, &value);
            let mut record = Vec::with_capacity(HEADER_LEN + key.len() + value.len());
            record.extend_from_slice(&MAGIC);
            record.extend_from_slice(&(key.len() as u32).to_le_bytes());
            record.extend_from_slice(&(value.len() as u32).to_le_bytes());
            record.extend_from_slice(&checksum.to_le_bytes());
            record.extend_from_slice(&key);
            record.extend_from_slice(&value);
            out.write_all(&record)?;
            new_index.insert(
                key.clone(),
                Located {
                    val_offset: new_len + (HEADER_LEN + key.len()) as u64,
                    val_len: value.len() as u32,
                    checksum,
                    record_len: record.len() as u64,
                },
            );
            new_len += record.len() as u64;
        }
        out.sync_all()?;
        drop(out);
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        self.index = new_index;
        self.file_len = new_len;
        self.dead_bytes = 0;
        self.compactions += 1;
        Ok(())
    }
}

/// The compaction temp file sitting next to the log.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Parses the record at `offset`. `Ok(Some(..))` is a verified record;
/// `Ok(None)` means the record runs past EOF (torn tail — nothing after
/// it can be whole); `Err(skip_to)` is a bad frame or checksum with the
/// offset of the next magic marker to resume at (`None`: no marker
/// left).
#[allow(clippy::type_complexity)]
fn parse_record(bytes: &[u8], offset: usize) -> Result<Option<(&[u8], Located)>, Option<usize>> {
    let remaining = &bytes[offset..];
    if remaining.len() < HEADER_LEN {
        return Ok(None);
    }
    if remaining[..4] != MAGIC {
        return Err(find_magic(bytes, offset + 1));
    }
    let key_len = u32::from_le_bytes([remaining[4], remaining[5], remaining[6], remaining[7]]);
    let val_len = u32::from_le_bytes([remaining[8], remaining[9], remaining[10], remaining[11]]);
    let mut checksum = [0u8; 8];
    checksum.copy_from_slice(&remaining[12..20]);
    let checksum = u64::from_le_bytes(checksum);
    if key_len > MAX_KEY_LEN || val_len > MAX_VAL_LEN {
        // A corrupt length field: resync rather than trusting it.
        return Err(find_magic(bytes, offset + 1));
    }
    let record_len = HEADER_LEN + key_len as usize + val_len as usize;
    if remaining.len() < record_len {
        return Ok(None);
    }
    let key = &remaining[HEADER_LEN..HEADER_LEN + key_len as usize];
    let value = &remaining[HEADER_LEN + key_len as usize..record_len];
    if record_checksum(key, value) != checksum {
        return Err(find_magic(bytes, offset + 1));
    }
    Ok(Some((
        key,
        Located {
            val_offset: (offset + HEADER_LEN + key_len as usize) as u64,
            val_len,
            checksum,
            record_len: record_len as u64,
        },
    )))
}

/// Finds the next magic marker at or after `from`.
fn find_magic(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len().saturating_sub(MAGIC.len() - 1)).find(|&i| bytes[i..i + 4] == MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique temp path per test (tests run concurrently).
    fn scratch(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("hatt-store-test-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tmp_path(&path));
        path
    }

    /// Every stored record is verified against this checksum on load,
    /// so a drift in the hash would turn each one into a miss.
    #[test]
    fn record_checksum_is_stable() {
        let path = scratch("checksum");
        let mut store = Store::open(&path).unwrap();
        store.put(b"structure-key", b"hatt-wire/1 value").unwrap();
        drop(store);
        let bytes = std::fs::read(&path).unwrap();
        let checksum = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().unwrap());
        assert_eq!(checksum, 0x38a0_af55_9e69_8abe);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let path = scratch("roundtrip");
        let mut store = Store::open(&path).unwrap();
        assert!(store.is_empty());
        store.put(b"a", b"alpha").unwrap();
        store.put(b"b", b"beta").unwrap();
        assert_eq!(store.get(b"a").unwrap(), Some(b"alpha".to_vec()));
        assert_eq!(store.get(b"missing").unwrap(), None);
        drop(store);
        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(b"b").unwrap(), Some(b"beta".to_vec()));
        assert_eq!(store.stats().corrupt_records, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overwrite_keeps_latest_and_counts_dead_bytes() {
        let path = scratch("overwrite");
        let mut store = Store::open(&path).unwrap();
        store.put(b"k", b"old").unwrap();
        store.put(b"k", b"new").unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(b"k").unwrap(), Some(b"new".to_vec()));
        assert!(store.stats().dead_bytes > 0);
        drop(store);
        // The scanner also supersedes on load.
        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.get(b"k").unwrap(), Some(b"new".to_vec()));
        assert!(store.stats().dead_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_at_every_byte_recovers_the_intact_prefix() {
        let path = scratch("truncate");
        let mut store = Store::open(&path).unwrap();
        store.put(b"first", b"one").unwrap();
        let first_end = store.stats().file_bytes;
        store.put(b"second", b"two").unwrap();
        store.sync().unwrap();
        drop(store);
        let full = std::fs::read(&path).unwrap();
        // Simulate a crash mid-append at every possible tear point of
        // the second record: the first record must always survive.
        for cut in first_end as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut store = Store::open(&path).unwrap();
            assert_eq!(
                store.get(b"first").unwrap(),
                Some(b"one".to_vec()),
                "cut at {cut}"
            );
            if cut < full.len() {
                assert_eq!(store.get(b"second").unwrap(), None, "cut at {cut}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flips_are_detected_and_skipped() {
        let path = scratch("bitflip");
        let mut store = Store::open(&path).unwrap();
        store.put(b"alpha", b"payload-alpha").unwrap();
        store.put(b"beta", b"payload-beta").unwrap();
        store.sync().unwrap();
        drop(store);
        let clean = std::fs::read(&path).unwrap();
        // Flip every byte of the log in turn: the damaged record must
        // read as absent (or, if the flip is in a key byte, under a
        // different key) and the *other* record must stay readable.
        for i in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[i] ^= 0x40;
            std::fs::write(&path, &damaged).unwrap();
            let mut store = Store::open(&path).unwrap();
            let a = store.get(b"alpha").unwrap();
            let b = store.get(b"beta").unwrap();
            assert!(
                a == Some(b"payload-alpha".to_vec()) || a.is_none(),
                "byte {i}: corrupt alpha surfaced"
            );
            assert!(
                b == Some(b"payload-beta".to_vec()) || b.is_none(),
                "byte {i}: corrupt beta surfaced"
            );
            assert!(
                a.is_some() || b.is_some(),
                "byte {i}: single flip killed both records"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appends_after_a_torn_tail_are_recovered() {
        let path = scratch("torn-then-append");
        let mut store = Store::open(&path).unwrap();
        store.put(b"good", b"kept").unwrap();
        let keep = store.stats().file_bytes;
        store.put(b"torn", b"this record will be cut").unwrap();
        drop(store);
        let full = std::fs::read(&path).unwrap();
        // Tear the tail record in half, then append a new record after
        // the garbage — the scanner must resync and find it.
        std::fs::write(&path, &full[..keep as usize + 9]).unwrap();
        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.get(b"torn").unwrap(), None);
        store.put(b"after", b"found-me").unwrap();
        drop(store);
        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.get(b"good").unwrap(), Some(b"kept".to_vec()));
        assert_eq!(store.get(b"after").unwrap(), Some(b"found-me".to_vec()));
        assert!(store.stats().corrupt_records >= 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_drops_dead_bytes_and_preserves_records() {
        let path = scratch("compact");
        let mut store = Store::open(&path).unwrap();
        for round in 0..10u8 {
            store.put(b"churn", &[round; 32]).unwrap();
        }
        store.put(b"stable", b"still-here").unwrap();
        let before = store.stats();
        assert!(before.dead_bytes > 0);
        store.compact().unwrap();
        let after = store.stats();
        assert_eq!(after.dead_bytes, 0);
        assert_eq!(after.entries, 2);
        assert!(after.file_bytes < before.file_bytes);
        assert_eq!(after.compactions, 1);
        assert_eq!(store.get(b"churn").unwrap(), Some(vec![9u8; 32]));
        assert_eq!(store.get(b"stable").unwrap(), Some(b"still-here".to_vec()));
        // The compacted log reopens clean.
        drop(store);
        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().dead_bytes, 0);
        assert_eq!(store.get(b"churn").unwrap(), Some(vec![9u8; 32]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn auto_compaction_triggers_once_dead_outgrows_live() {
        let path = scratch("auto-compact");
        let mut store = Store::open(&path).unwrap();
        store.set_compact_min_bytes(1);
        for round in 0..50u8 {
            store.put(b"hot", &[round; 64]).unwrap();
        }
        let stats = store.stats();
        assert!(stats.compactions >= 1, "auto-compaction never ran");
        assert!(
            stats.file_bytes <= 4 * (HEADER_LEN as u64 + 3 + 64),
            "log kept growing: {stats:?}"
        );
        assert_eq!(store.get(b"hot").unwrap(), Some(vec![49u8; 64]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_compaction_tmp_is_ignored_and_removed() {
        let path = scratch("stale-tmp");
        let mut store = Store::open(&path).unwrap();
        store.put(b"k", b"v").unwrap();
        drop(store);
        // A crash between writing the temp file and the rename.
        std::fs::write(tmp_path(&path), b"half-written garbage").unwrap();
        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.get(b"k").unwrap(), Some(b"v".to_vec()));
        assert!(!tmp_path(&path).exists(), "stale tmp must be removed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversize_keys_and_values_are_rejected() {
        let path = scratch("oversize");
        let mut store = Store::open(&path).unwrap();
        let big_key = vec![0u8; MAX_KEY_LEN as usize + 1];
        assert!(store.put(&big_key, b"v").is_err());
        assert_eq!(store.len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn get_detects_damage_introduced_after_open() {
        let path = scratch("late-damage");
        let mut store = Store::open(&path).unwrap();
        store.put(b"k", b"value-bytes").unwrap();
        store.sync().unwrap();
        // Damage the value region behind the open handle's back.
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 3] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        // The open handle still re-verifies the checksum per read.
        let fresh = Store::open(&path).unwrap();
        assert_eq!(fresh.len(), 0, "scanner rejects the damaged record");
        assert_eq!(store.get(b"k").unwrap(), None, "read-time verification");
        assert!(store.stats().corrupt_records >= 1);
        let _ = std::fs::remove_file(&path);
    }
}
