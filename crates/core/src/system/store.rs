//! Persistent, content-addressed storage for captured control schedules.
//!
//! A [`ControlSchedule`] is expensive to
//! produce (one full cycle-accurate simulation) and cheap to use (~40x
//! replay), but until this module it died with the process. The
//! [`ScheduleStore`] persists schedules to disk in a versioned,
//! checksummed format so a restarted `smache serve --store <dir>` (or a
//! fresh `run_batch` sweep) **warm-starts**: previously captured
//! specs replay straight from disk, no recapture.
//!
//! Design contract, in order of importance:
//!
//! 1. **Byte-identity.** A schedule loaded from disk replays bit-exact
//!    with the in-memory capture it was saved from. A v2 entry encodes
//!    what the schedule holds, verbatim: the gather pattern in run form
//!    ([`GatherRuns`]: per run its first element, row and mask), the
//!    run-length [`ControlTrace`] and the canonical-JSON report template.
//!    Decode revalidates every structural invariant (runs that ascend from
//!    element 0 and cover the grid, rows of at most 64 slots that stay in
//!    the extended grid, trace totals vs template stats) before handing a
//!    schedule out.
//! 2. **Corruption is a typed miss, never a wrong answer.** Every entry
//!    carries a checksum over all of its other bytes
//!    ([`checksum128`], folded a word at a time); any single bit flip,
//!    truncation or version skew surfaces as a [`StoreError`] and the
//!    caller recaptures. There is no code path from a damaged file to a
//!    silently divergent replay.
//! 3. **v1 still reads.** A v1 entry (per-element CSR gather table, one
//!    trace byte per cycle, byte-serial
//!    [`fingerprint128`](smache_sim::hash::fingerprint128) checksum) and a
//!    v1 pack decode to the same schedule a v2 entry would; saving it again
//!    writes v2. Schedule keys do not depend on the format.
//! 4. **Atomic publishes.** Writers publish via write-temp-then-rename in
//!    the same directory, so concurrent readers (other serve workers,
//!    other processes sharing the directory) never observe a half-written
//!    entry.
//! 5. **Bounded disk usage.** The store is an LRU over on-disk bytes:
//!    saves evict the least-recently-used entries until the byte budget
//!    holds (budget `0` means unbounded).
//!
//! Entries are named `<keyhi><keylo>.sched` — 32 hex digits of the
//! caller's 128-bit content address — so a store directory can be listed,
//! diffed, rsync'd or packed ([`ScheduleStore::export_pack`] /
//! [`ScheduleStore::import_pack`]) between hosts. See
//! `docs/DEPLOYMENT.md` for the operator-facing guide.
//!
//! ```
//! use smache::arch::kernel::AverageKernel;
//! use smache::system::store::ScheduleStore;
//! use smache::SmacheBuilder;
//! use smache_stencil::GridSpec;
//!
//! let dir = std::env::temp_dir().join(format!("smache-doc-store-{}", std::process::id()));
//! let mut store = ScheduleStore::open(&dir, 0).expect("open store");
//!
//! // Capture once ...
//! let mut sys = SmacheBuilder::new(GridSpec::d2(8, 8).unwrap()).build().unwrap();
//! let input: Vec<u64> = (0..64).collect();
//! let (_, schedule) = sys.run_captured(&input, 2).expect("capture");
//! store.save(schedule.key(), &schedule).expect("save");
//!
//! // ... replay from disk ever after (also across process restarts).
//! let loaded = store.load(schedule.key()).expect("load").expect("hit");
//! let fresh: Vec<u64> = (0..64).rev().collect();
//! assert_eq!(
//!     loaded.replay(&AverageKernel, &fresh).unwrap().output,
//!     schedule.replay(&AverageKernel, &fresh).unwrap().output,
//! );
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use smache_sim::hash::{checksum128, fingerprint128_split};
use smache_sim::{ControlTrace, CycleRecord, GatherRuns, GatherTable, Json, SlotSource};

use crate::system::replay::ControlSchedule;
use crate::system::report::RunReport;

/// On-disk format version written into every entry and pack header.
/// Decoders read this version and v1, and refuse any other with
/// [`StoreError::UnsupportedVersion`] instead of guessing.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Magic prefix of a single schedule entry.
const ENTRY_MAGIC: &[u8; 8] = b"SMSCHED1";
/// Magic prefix of a portable pack (many entries in one file).
const PACK_MAGIC: &[u8; 8] = b"SMSCPACK";

/// Fixed entry header: magic(8) version(4) reserved(4) key(16) len(8)
/// checksum(16).
const HEADER_LEN: usize = 56;
/// Offset of the checksum field — the only bytes the checksum excludes.
const CHECKSUM_OFFSET: usize = 40;
/// Bytes of one slot source in a v1 entry: a tag byte and a `u64` value.
const SOURCE_BYTES: usize = 9;
/// Bytes of one trace pair in a v2 entry: the record and a `u32` repeat.
const PAIR_BYTES: usize = 5;

/// Why a store operation failed. Every way an entry can be damaged —
/// foreign file, future format, truncation, bit flip, structural rot —
/// maps to its own variant so callers (and tests) can tell them apart,
/// and every one of them is recoverable by recapturing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// What the store was doing (`open`, `read`, `write`, `rename`).
        op: &'static str,
        /// The path involved.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// The entry does not start with the store magic — not a schedule
    /// entry at all (or its first bytes were damaged).
    BadMagic,
    /// The entry was written by a format version this build does not
    /// read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this build understands.
        supported: u32,
    },
    /// The entry is shorter or longer than its header claims.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The checksum over the entry's bytes does not match — some bit
    /// between header and payload flipped.
    ChecksumMismatch,
    /// The header's key is not the key the entry was looked up under.
    KeyMismatch {
        /// Key the caller asked for.
        expected: (u64, u64),
        /// Key recorded in the entry header.
        found: (u64, u64),
    },
    /// The payload passed its checksum but violates a structural
    /// invariant (CSR shape, grid-index bounds, template consistency).
    Malformed {
        /// Which invariant broke.
        detail: String,
    },
}

impl StoreError {
    /// Short machine-friendly label (stats, log lines, test assertions).
    pub fn label(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "io",
            StoreError::BadMagic => "bad_magic",
            StoreError::UnsupportedVersion { .. } => "unsupported_version",
            StoreError::Truncated { .. } => "truncated",
            StoreError::ChecksumMismatch => "checksum_mismatch",
            StoreError::KeyMismatch { .. } => "key_mismatch",
            StoreError::Malformed { .. } => "malformed",
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, detail } => {
                write!(f, "store {op} failed for {path}: {detail}")
            }
            StoreError::BadMagic => write!(f, "not a schedule entry (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "entry format v{found} is not one this build reads (v1 to v{supported})"
            ),
            StoreError::Truncated { expected, actual } => {
                write!(
                    f,
                    "entry truncated: header promises {expected} bytes, file has {actual}"
                )
            }
            StoreError::ChecksumMismatch => write!(f, "entry checksum mismatch (bit rot?)"),
            StoreError::KeyMismatch { expected, found } => write!(
                f,
                "entry key {:016x}{:016x} does not match requested {:016x}{:016x}",
                found.0, found.1, expected.0, expected.1
            ),
            StoreError::Malformed { detail } => write!(f, "entry malformed: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Running totals a [`ScheduleStore`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads that found and validated an entry.
    pub hits: u64,
    /// Loads that found no entry.
    pub misses: u64,
    /// Entries saved (including overwrites).
    pub writes: u64,
    /// Damaged entries discarded by [`ScheduleStore::load_or_evict`].
    pub corrupt_discarded: u64,
    /// Entries evicted to hold the byte budget.
    pub evictions: u64,
}

/// Metadata of one stored entry, as listed by [`ScheduleStore::ls`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryInfo {
    /// The 128-bit content address the entry is stored under.
    pub key: (u64, u64),
    /// On-disk size of the entry in bytes.
    pub bytes: u64,
    /// The entry's format version (1 or [`STORE_FORMAT_VERSION`]).
    pub version: u32,
    /// Kernel the schedule was captured with.
    pub kernel: String,
    /// Grid elements per instance.
    pub elements: usize,
    /// Work-instances the schedule covers.
    pub instances: u64,
    /// Recorded control-plane cycles.
    pub cycles: u64,
}

/// Outcome of [`ScheduleStore::import_pack`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportSummary {
    /// Entries written into the store.
    pub imported: usize,
    /// Entries that replaced an existing key.
    pub replaced: usize,
}

struct IndexEntry {
    bytes: u64,
    last_used: u64,
}

/// A directory of persisted control schedules, keyed by 128-bit content
/// address, with checksummed entries, atomic publishes and an LRU disk
/// byte budget. See the [module docs](self) for the full contract.
///
/// The store itself is single-threaded (`&mut self` throughout);
/// concurrent users wrap it in a `Mutex` (as `smache serve` does) or open
/// one handle each — the on-disk format is safe for concurrent readers
/// and writers across processes because publishes are atomic renames.
pub struct ScheduleStore {
    dir: PathBuf,
    budget: u64,
    bytes: u64,
    tick: u64,
    index: BTreeMap<(u64, u64), IndexEntry>,
    stats: StoreStats,
}

impl ScheduleStore {
    /// Opens (creating if needed) the store rooted at `dir` with an LRU
    /// disk budget of `budget` bytes (`0` = unbounded). Existing entries
    /// are indexed by file modification time so LRU order survives a
    /// restart; stale leftover temp files from crashed writers are removed.
    pub fn open(dir: impl AsRef<Path>, budget: u64) -> Result<ScheduleStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("open", &dir, e))?;

        let mut found: Vec<((u64, u64), u64, SystemTime)> = Vec::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| io_err("open", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("open", &dir, e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                // A writer died mid-publish; the rename never happened,
                // so the debris is invisible to readers. Only *stale*
                // debris, though: a fresh temp file may be a live writer
                // an instant from its rename, and deleting it under them
                // fails their publish. Crashed-writer leftovers are old
                // by the time anything reopens the store.
                let age = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|mtime| SystemTime::now().duration_since(mtime).ok());
                if age.is_some_and(|age| age > Duration::from_secs(60)) {
                    std::fs::remove_file(&path).ok();
                }
                continue;
            }
            let Some(key) = parse_entry_name(&name) else {
                continue; // foreign file: leave it alone, don't index it
            };
            let meta = entry.metadata().map_err(|e| io_err("open", &path, e))?;
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            found.push((key, meta.len(), mtime));
        }
        // Oldest first, so ticks reconstruct the LRU order.
        found.sort_by(|a, b| a.2.cmp(&b.2).then(a.0.cmp(&b.0)));

        let mut store = ScheduleStore {
            dir,
            budget,
            bytes: 0,
            tick: 0,
            index: BTreeMap::new(),
            stats: StoreStats::default(),
        };
        for (key, bytes, _) in found {
            store.tick += 1;
            store.bytes += bytes;
            store.index.insert(
                key,
                IndexEntry {
                    bytes,
                    last_used: store.tick,
                },
            );
        }
        store.evict_to_budget();
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The LRU disk budget in bytes (`0` = unbounded).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes of entries currently indexed.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the store indexes no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True when `key` is indexed (does not touch the disk).
    pub fn contains(&self, key: (u64, u64)) -> bool {
        self.index.contains_key(&key)
    }

    /// The running hit/miss/write/eviction totals.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    fn entry_path(&self, key: (u64, u64)) -> PathBuf {
        self.dir.join(format!("{:016x}{:016x}.sched", key.0, key.1))
    }

    /// Persists `schedule` under `key` (atomically: write temp, then
    /// rename), then evicts LRU entries until the byte budget holds.
    ///
    /// The storage key is the *caller's* content address — `smache serve`
    /// keys by the canonical request spec, the batch path by
    /// [`schedule_key`](crate::system::schedule_key) — and need not equal
    /// [`ControlSchedule::key`], which is preserved inside the payload.
    pub fn save(&mut self, key: (u64, u64), schedule: &ControlSchedule) -> Result<(), StoreError> {
        let bytes = encode_entry(key, schedule);
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!(
            "{:016x}{:016x}.{}.tmp",
            key.0,
            key.1,
            std::process::id()
        ));
        std::fs::write(&tmp, &bytes).map_err(|e| io_err("write", &tmp, e))?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            std::fs::remove_file(&tmp).ok();
            return Err(io_err("rename", &path, e));
        }

        self.tick += 1;
        let new_len = bytes.len() as u64;
        if let Some(old) = self.index.insert(
            key,
            IndexEntry {
                bytes: new_len,
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += new_len;
        self.stats.writes += 1;
        self.evict_to_budget();
        Ok(())
    }

    /// Loads and validates the entry under `key`. Returns `Ok(None)` when
    /// no entry exists; any damage (magic, version, truncation, checksum,
    /// key, structure) is a typed [`StoreError`]. The file is left in
    /// place — use [`ScheduleStore::load_or_evict`] to discard damaged
    /// entries.
    pub fn load(&mut self, key: (u64, u64)) -> Result<Option<Arc<ControlSchedule>>, StoreError> {
        let path = self.entry_path(key);
        let mut file = match std::fs::File::open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                // Another process may have evicted it under us.
                if let Some(old) = self.index.remove(&key) {
                    self.bytes -= old.bytes;
                }
                self.stats.misses += 1;
                return Ok(None);
            }
            Err(e) => return Err(io_err("read", &path, e)),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read", &path, e))?;
        let (stored_key, schedule) = decode_entry(&bytes)?;
        if stored_key != key {
            return Err(StoreError::KeyMismatch {
                expected: key,
                found: stored_key,
            });
        }

        self.tick += 1;
        let entry = self.index.entry(key).or_insert(IndexEntry {
            bytes: 0,
            last_used: 0,
        });
        self.bytes = self.bytes - entry.bytes + bytes.len() as u64;
        entry.bytes = bytes.len() as u64;
        entry.last_used = self.tick;
        self.stats.hits += 1;
        // Best-effort mtime touch so LRU recency survives a restart.
        file.set_modified(SystemTime::now()).ok();
        Ok(Some(Arc::new(schedule)))
    }

    /// Like [`ScheduleStore::load`], but a damaged entry is **deleted**
    /// before the typed error is returned — the serve path's "a bad entry
    /// is skipped and recaptured" contract. I/O errors do not delete.
    pub fn load_or_evict(
        &mut self,
        key: (u64, u64),
    ) -> Result<Option<Arc<ControlSchedule>>, StoreError> {
        match self.load(key) {
            Err(e) if !matches!(e, StoreError::Io { .. }) => {
                self.remove(key);
                self.stats.corrupt_discarded += 1;
                Err(e)
            }
            other => other,
        }
    }

    /// Removes the entry under `key` (file and index). Missing files are
    /// fine — eviction races between processes are expected.
    pub fn remove(&mut self, key: (u64, u64)) {
        std::fs::remove_file(self.entry_path(key)).ok();
        if let Some(old) = self.index.remove(&key) {
            self.bytes -= old.bytes;
        }
    }

    fn evict_to_budget(&mut self) {
        if self.budget == 0 {
            return;
        }
        while self.bytes > self.budget && !self.index.is_empty() {
            let victim = self
                .index
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty index");
            self.remove(victim);
            self.stats.evictions += 1;
        }
    }

    /// Lists every indexed entry with its decoded metadata — or the typed
    /// error describing why it would not load. Never fails as a whole: a
    /// store with one rotten entry still lists the other entries.
    pub fn ls(&self) -> Vec<(PathBuf, Result<EntryInfo, StoreError>)> {
        self.index
            .keys()
            .map(|&key| {
                let path = self.entry_path(key);
                let info = std::fs::read(&path)
                    .map_err(|e| io_err("read", &path, e))
                    .and_then(|bytes| {
                        let len = bytes.len() as u64;
                        let (stored_key, schedule) = decode_entry(&bytes)?;
                        if stored_key != key {
                            return Err(StoreError::KeyMismatch {
                                expected: key,
                                found: stored_key,
                            });
                        }
                        Ok(EntryInfo {
                            key,
                            bytes: len,
                            version: header_version(&bytes),
                            kernel: schedule.kernel_name().to_string(),
                            elements: schedule.len(),
                            instances: schedule.instances(),
                            cycles: schedule.trace().len() as u64,
                        })
                    });
                (path, info)
            })
            .collect()
    }

    /// Fully validates every entry (checksum, structure, key). Returns
    /// the sound entries' metadata and the damaged ones with their typed
    /// errors.
    pub fn verify(&self) -> (Vec<EntryInfo>, Vec<(PathBuf, StoreError)>) {
        let mut ok = Vec::new();
        let mut bad = Vec::new();
        for (path, info) in self.ls() {
            match info {
                Ok(info) => ok.push(info),
                Err(e) => bad.push((path, e)),
            }
        }
        (ok, bad)
    }

    /// Serialises every sound entry into one portable pack (for shipping
    /// a store between hosts). Damaged entries are skipped — a pack is
    /// always importable. Entries travel as they are stored, so a pack
    /// may mix v1 and v2 entries.
    pub fn export_pack(&self) -> Result<Vec<u8>, StoreError> {
        let mut entries: Vec<Vec<u8>> = Vec::new();
        for &key in self.index.keys() {
            let path = self.entry_path(key);
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            if decode_entry(&bytes).is_ok_and(|(k, _)| k == key) {
                entries.push(bytes);
            }
        }
        let mut pack = Vec::new();
        pack.extend_from_slice(PACK_MAGIC);
        pack.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
        pack.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for entry in &entries {
            pack.extend_from_slice(&(entry.len() as u64).to_le_bytes());
            pack.extend_from_slice(entry);
        }
        Ok(pack)
    }

    /// Imports a pack written by [`ScheduleStore::export_pack`], of this
    /// version or v1. Every entry is fully validated (checksum and
    /// structure) before it is published, and published as v2; the first
    /// damaged entry aborts the import with its typed error, leaving
    /// already-imported entries in place.
    pub fn import_pack(&mut self, pack: &[u8]) -> Result<ImportSummary, StoreError> {
        let mut cur = Cursor::new(pack);
        let magic = cur.take(8)?;
        if magic != PACK_MAGIC {
            return Err(StoreError::BadMagic);
        }
        check_version(cur.read_u32()?)?;
        let count = cur.read_u64()? as usize;
        let mut summary = ImportSummary::default();
        for _ in 0..count {
            let len = cur.read_u64()? as usize;
            let bytes = cur.take(len)?;
            let (key, schedule) = decode_entry(bytes)?;
            if self.contains(key) {
                summary.replaced += 1;
            }
            self.save(key, &schedule)?;
            summary.imported += 1;
        }
        if !cur.at_end() {
            return Err(malformed("trailing bytes after the pack's last entry"));
        }
        Ok(summary)
    }
}

/// Parses `<32 hex digits>.sched` back into its key.
fn parse_entry_name(name: &str) -> Option<(u64, u64)> {
    let hex = name.strip_suffix(".sched")?;
    if hex.len() != 32 {
        return None;
    }
    let hi = u64::from_str_radix(&hex[..16], 16).ok()?;
    let lo = u64::from_str_radix(&hex[16..], 16).ok()?;
    Some((hi, lo))
}

// --- entry wire format ----------------------------------------------------

/// Refuses a format version this build does not read.
fn check_version(version: u32) -> Result<u32, StoreError> {
    if version == 1 || version == STORE_FORMAT_VERSION {
        Ok(version)
    } else {
        Err(StoreError::UnsupportedVersion {
            found: version,
            supported: STORE_FORMAT_VERSION,
        })
    }
}

/// The format version in the header of an entry that decoded.
fn header_version(entry: &[u8]) -> u32 {
    u32::from_le_bytes(entry[8..12].try_into().expect("a decoded header"))
}

/// Encodes one schedule as a self-contained, checksummed v2 entry.
///
/// After the header: the schedule key, the kernel name and latency, the
/// element and instance counts; the run-form gather (arity, constants,
/// then per run its first element, mask and first row); the trace's
/// (record, repeat) pairs; the report template.
pub fn encode_entry(key: (u64, u64), schedule: &ControlSchedule) -> Vec<u8> {
    let name = schedule.kernel_name().as_bytes();
    let gather = schedule.gather();
    let arity = gather.arity();
    let pairs = schedule.trace().runs();
    let template = schedule.template().to_json().compact();
    // The entry is written once, into a buffer of its exact size: the
    // header (checksum patched in last), then the payload.
    let payload_len = 16
        + 4
        + name.len()
        + 3 * 8
        + 4
        + 8
        + gather.consts().len() * 8
        + 8
        + gather.len() * (4 + 8 + 4 * arity)
        + 8
        + pairs.len() * PAIR_BYTES
        + 8
        + template.len();
    let mut entry = Vec::with_capacity(HEADER_LEN + payload_len);
    entry.extend_from_slice(ENTRY_MAGIC);
    entry.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    entry.extend_from_slice(&0u32.to_le_bytes()); // reserved
    entry.extend_from_slice(&key.0.to_le_bytes());
    entry.extend_from_slice(&key.1.to_le_bytes());
    entry.extend_from_slice(&(payload_len as u64).to_le_bytes());
    debug_assert_eq!(entry.len(), CHECKSUM_OFFSET);
    entry.resize(HEADER_LEN, 0);

    let sched_key = schedule.key();
    entry.extend_from_slice(&sched_key.0.to_le_bytes());
    entry.extend_from_slice(&sched_key.1.to_le_bytes());
    entry.extend_from_slice(&(name.len() as u32).to_le_bytes());
    entry.extend_from_slice(name);
    entry.extend_from_slice(&schedule.kernel_latency().to_le_bytes());
    entry.extend_from_slice(&(schedule.len() as u64).to_le_bytes());
    entry.extend_from_slice(&schedule.instances().to_le_bytes());

    entry.extend_from_slice(&(arity as u32).to_le_bytes());
    entry.extend_from_slice(&(gather.consts().len() as u64).to_le_bytes());
    for c in gather.consts() {
        entry.extend_from_slice(&c.to_le_bytes());
    }
    entry.extend_from_slice(&(gather.len() as u64).to_le_bytes());
    for (i, run) in gather.iter().enumerate() {
        let (row, mask) = gather.first_row(i);
        entry.extend_from_slice(&(run.start as u32).to_le_bytes());
        entry.extend_from_slice(&mask.to_le_bytes());
        for r in row {
            entry.extend_from_slice(&r.to_le_bytes());
        }
    }

    entry.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for &(record, repeat) in pairs {
        entry.push(record.0);
        entry.extend_from_slice(&repeat.to_le_bytes());
    }

    entry.extend_from_slice(&(template.len() as u64).to_le_bytes());
    entry.extend_from_slice(template.as_bytes());
    debug_assert_eq!(entry.len(), HEADER_LEN + payload_len);

    let checksum = checksum128(&entry[..CHECKSUM_OFFSET], &entry[HEADER_LEN..]);
    entry[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.0.to_le_bytes());
    entry[CHECKSUM_OFFSET + 8..HEADER_LEN].copy_from_slice(&checksum.1.to_le_bytes());
    entry
}

/// Decodes and fully validates one entry of either version, returning the
/// storage key from its header and the reconstructed schedule.
///
/// Validation order matters for typed errors: magic, then version, then
/// length, then checksum, then structure — so a foreign file says
/// [`StoreError::BadMagic`], an unknown format says
/// [`StoreError::UnsupportedVersion`], and any bit flip anywhere else
/// says [`StoreError::ChecksumMismatch`] (or sharper). The checksum
/// covers every entry byte but its own field: [`checksum128`] in v2, the
/// byte-serial [`fingerprint128_split`] in v1.
pub fn decode_entry(bytes: &[u8]) -> Result<((u64, u64), ControlSchedule), StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: HEADER_LEN,
            actual: bytes.len(),
        });
    }
    if &bytes[..8] != ENTRY_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut cur = Cursor::new(&bytes[8..]);
    let version = check_version(cur.read_u32()?)?;
    let _reserved = cur.read_u32()?;
    let key = (cur.read_u64()?, cur.read_u64()?);
    let payload_len = cur.read_u64()? as usize;
    let expected_len = HEADER_LEN
        .checked_add(payload_len)
        .ok_or(StoreError::Malformed {
            detail: "payload length overflows".into(),
        })?;
    if bytes.len() != expected_len {
        return Err(StoreError::Truncated {
            expected: expected_len,
            actual: bytes.len(),
        });
    }
    let stored_checksum = (cur.read_u64()?, cur.read_u64()?);
    let (head, payload) = (&bytes[..CHECKSUM_OFFSET], &bytes[HEADER_LEN..]);
    let checksum = if version == 1 {
        fingerprint128_split(head, payload)
    } else {
        checksum128(head, payload)
    };
    if checksum != stored_checksum {
        return Err(StoreError::ChecksumMismatch);
    }
    Ok((key, decode_payload(version, &mut Cursor::new(payload))?))
}

fn malformed(detail: impl Into<String>) -> StoreError {
    StoreError::Malformed {
        detail: detail.into(),
    }
}

fn decode_payload(version: u32, cur: &mut Cursor) -> Result<ControlSchedule, StoreError> {
    let sched_key = (cur.read_u64()?, cur.read_u64()?);
    let name_len = cur.read_u32()? as usize;
    let kernel_name = String::from_utf8(cur.take(name_len)?.to_vec())
        .map_err(|_| malformed("kernel name is not UTF-8"))?;
    let kernel_latency = cur.read_u64()?;
    let n = cur.read_u64()? as usize;
    let instances = cur.read_u64()?;

    let (gather, trace) = if version == 1 {
        decode_v1_body(cur, n)?
    } else {
        decode_v2_body(cur, n)?
    };

    let template_len = cur.read_u64()? as usize;
    let template_text = std::str::from_utf8(cur.take(template_len)?)
        .map_err(|_| malformed("report template is not UTF-8"))?;
    if !cur.at_end() {
        return Err(malformed("trailing bytes after the report template"));
    }
    let template_doc =
        Json::parse(template_text).map_err(|e| malformed(format!("template JSON: {e}")))?;
    let template = RunReport::from_json(&template_doc)
        .map_err(|e| malformed(format!("report template: {e}")))?;
    if !template.output.is_empty() {
        return Err(malformed("report template must carry no output"));
    }

    let totals = trace.totals();
    if totals.cycles != template.stats.cycles
        || totals.stall_cycles != template.stats.stall_cycles
        || totals.transfers != template.stats.transfers
        || totals.warmup_cycles != template.warmup_cycles
    {
        return Err(malformed(format!(
            "trace totals {totals:?} disagree with template stats {:?} (warmup {})",
            template.stats, template.warmup_cycles
        )));
    }

    Ok(ControlSchedule::from_parts(
        sched_key,
        n,
        instances,
        kernel_name,
        kernel_latency,
        gather,
        trace,
        template,
    ))
}

/// The v2 gather and trace: the run form and the (record, repeat) pairs.
fn decode_v2_body(cur: &mut Cursor, n: usize) -> Result<(GatherRuns, ControlTrace), StoreError> {
    let arity = cur.read_u32()? as usize;
    if arity > GatherTable::MAX_ARITY {
        return Err(malformed(format!(
            "gather arity {arity} exceeds {}",
            GatherTable::MAX_ARITY
        )));
    }
    let consts_len = cur.read_u64()? as usize;
    cur.ensure(consts_len.saturating_mul(8))?;
    let consts = (0..consts_len)
        .map(|_| cur.read_u64())
        .collect::<Result<Vec<_>, _>>()?;
    let runs_len = cur.read_u64()? as usize;
    cur.ensure(runs_len.saturating_mul(4 + 8 + 4 * arity))?;
    let mut starts = Vec::with_capacity(runs_len);
    let mut masks = Vec::with_capacity(runs_len);
    let mut rows = Vec::with_capacity(runs_len * arity);
    for _ in 0..runs_len {
        starts.push(cur.read_u32()?);
        masks.push(cur.read_u64()?);
        for _ in 0..arity {
            rows.push(cur.read_u32()?);
        }
    }
    let gather =
        GatherRuns::from_parts(n, arity, consts, starts, rows, masks).map_err(malformed)?;

    let pairs_len = cur.read_u64()? as usize;
    cur.ensure(pairs_len.saturating_mul(PAIR_BYTES))?;
    let mut pairs = Vec::with_capacity(pairs_len);
    for _ in 0..pairs_len {
        let pair = cur.take(PAIR_BYTES)?;
        let repeat = u32::from_le_bytes(pair[1..].try_into().expect("4 repeat bytes"));
        if repeat == 0 {
            return Err(malformed("a trace pair repeats zero times"));
        }
        pairs.push((CycleRecord(pair[0]), repeat));
    }
    Ok((gather, ControlTrace::from_runs(pairs)))
}

/// The v1 gather and trace: a per-element CSR table of un-lowered slot
/// sources and masks, lowered and cut into runs here, and one record byte
/// per cycle.
fn decode_v1_body(cur: &mut Cursor, n: usize) -> Result<(GatherRuns, ControlTrace), StoreError> {
    let starts_len = cur.read_u64()? as usize;
    cur.ensure(starts_len.saturating_mul(4))?;
    let starts = (0..starts_len)
        .map(|_| cur.read_u32())
        .collect::<Result<Vec<_>, _>>()?;
    let sources_len = cur.read_u64()? as usize;

    // Structural invariants replay relies on without rechecking. The row
    // structure is checked first, so the slot sources lower as they are
    // read.
    if Some(starts.len()) != n.checked_add(1) {
        return Err(malformed(format!(
            "CSR starts has {} rows for {n} elements",
            starts.len()
        )));
    }
    if starts.first() != Some(&0) {
        return Err(malformed("CSR starts must begin at 0"));
    }
    if starts.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed("CSR starts must be monotonic"));
    }
    if starts.last().map(|&s| s as usize) != Some(sources_len) {
        return Err(malformed("CSR sentinel does not cover the source table"));
    }
    // Replay reads fixed-arity rows: every element must have as many
    // slots as the first.
    let arity = starts.get(1).map_or(0, |&s| s as usize);
    if let Some(e) = starts
        .windows(2)
        .position(|w| (w[1] - w[0]) as usize != arity)
    {
        return Err(malformed(format!(
            "ragged gather rows: element {e} has {} slots, element 0 has {arity}",
            starts[e + 1] - starts[e]
        )));
    }
    cur.ensure(sources_len.saturating_mul(SOURCE_BYTES))?;
    let mut rows = GatherTable::builder(n, arity).map_err(malformed)?;
    rows.reserve(sources_len);
    for _ in 0..sources_len {
        let source = cur.take(SOURCE_BYTES)?;
        let value = u64::from_le_bytes(source[1..].try_into().expect("8 value bytes"));
        rows.push(match source[0] {
            0 => SlotSource::Grid(
                u32::try_from(value).map_err(|_| malformed("grid index exceeds u32 range"))?,
            ),
            1 => SlotSource::Const(value),
            2 => SlotSource::Hole,
            t => return Err(malformed(format!("unknown slot-source tag {t}"))),
        })
        .map_err(malformed)?;
    }
    let masks_len = cur.read_u64()? as usize;
    if masks_len != n {
        return Err(malformed(format!(
            "mask table covers {masks_len} elements, header says {n}"
        )));
    }
    cur.ensure(masks_len.saturating_mul(8))?;
    let masks = (0..masks_len)
        .map(|_| cur.read_u64())
        .collect::<Result<Vec<_>, _>>()?;
    let gather = rows.finish(masks).map_err(malformed)?.to_runs();

    let records_len = cur.read_u64()? as usize;
    let mut trace = ControlTrace::new();
    for &b in cur.take(records_len)? {
        trace.record(CycleRecord(b));
    }
    trace.shrink_to_fit();
    Ok((gather, trace))
}

/// A bounds-checked little-endian reader over a byte slice; every overrun
/// is a typed [`StoreError::Truncated`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// Checks that `len` more bytes remain, returning where they end.
    fn ensure(&self, len: usize) -> Result<usize, StoreError> {
        let end = self.pos.checked_add(len).ok_or(StoreError::Truncated {
            expected: usize::MAX,
            actual: self.bytes.len(),
        })?;
        if end > self.bytes.len() {
            return Err(StoreError::Truncated {
                expected: end,
                actual: self.bytes.len(),
            });
        }
        Ok(end)
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], StoreError> {
        let end = self.ensure(len)?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn read_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn read_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::kernel::AverageKernel;
    use crate::builder::SmacheBuilder;
    use smache_stencil::GridSpec;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smache-store-ut-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn captured(side: usize, instances: u64) -> Arc<ControlSchedule> {
        let mut sys = SmacheBuilder::new(GridSpec::d2(side, side).expect("grid"))
            .build()
            .expect("build");
        let input: Vec<u64> = (0..(side * side) as u64).map(|i| i * 7 + 3).collect();
        let (_, schedule) = sys.run_captured(&input, instances).expect("capture");
        schedule
    }

    #[test]
    fn encode_decode_round_trips_byte_identically() {
        let schedule = captured(8, 2);
        let key = schedule.key();
        let bytes = encode_entry(key, &schedule);
        let (stored_key, decoded) = decode_entry(&bytes).expect("decode");
        assert_eq!(stored_key, key);
        assert_eq!(decoded.key(), schedule.key());
        assert_eq!(decoded.len(), schedule.len());
        assert_eq!(decoded.instances(), schedule.instances());
        assert_eq!(decoded.kernel_name(), schedule.kernel_name());
        // Re-encoding the decoded schedule reproduces the exact bytes.
        assert_eq!(encode_entry(key, &decoded), bytes);
    }

    #[test]
    fn decoded_schedule_replays_bit_exactly() {
        let schedule = captured(8, 3);
        let bytes = encode_entry(schedule.key(), &schedule);
        let (_, decoded) = decode_entry(&bytes).expect("decode");
        let fresh: Vec<u64> = (0..64u64).map(|i| (i * 131 + 17) % 9001).collect();
        let from_mem = schedule.replay(&AverageKernel, &fresh).expect("mem replay");
        let from_disk = decoded.replay(&AverageKernel, &fresh).expect("disk replay");
        assert_eq!(from_mem.to_json().compact(), from_disk.to_json().compact());
    }

    #[test]
    fn typed_errors_for_each_damage_class() {
        let schedule = captured(8, 1);
        let key = schedule.key();
        let good = encode_entry(key, &schedule);

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(decode_entry(&bad_magic).unwrap_err().label(), "bad_magic");

        // A future version with a recomputed (valid) checksum must say
        // "unsupported version", not "checksum".
        let mut future = good.clone();
        future[8..12].copy_from_slice(&3u32.to_le_bytes());
        let cs = checksum128(&future[..CHECKSUM_OFFSET], &future[HEADER_LEN..]);
        future[40..48].copy_from_slice(&cs.0.to_le_bytes());
        future[48..56].copy_from_slice(&cs.1.to_le_bytes());
        assert_eq!(
            decode_entry(&future).unwrap_err(),
            StoreError::UnsupportedVersion {
                found: 3,
                supported: STORE_FORMAT_VERSION
            }
        );

        let truncated = &good[..good.len() - 1];
        assert_eq!(decode_entry(truncated).unwrap_err().label(), "truncated");
        assert_eq!(decode_entry(&good[..10]).unwrap_err().label(), "truncated");

        let mut flipped = good.clone();
        let mid = HEADER_LEN + (good.len() - HEADER_LEN) / 2;
        flipped[mid] ^= 0x01;
        assert_eq!(
            decode_entry(&flipped).unwrap_err().label(),
            "checksum_mismatch"
        );

        // A bit flip inside the checksum field itself is also a mismatch.
        let mut cs_flip = good.clone();
        cs_flip[CHECKSUM_OFFSET] ^= 0x80;
        assert_eq!(
            decode_entry(&cs_flip).unwrap_err().label(),
            "checksum_mismatch"
        );
    }

    #[test]
    fn save_load_round_trips_through_the_filesystem() {
        let dir = temp_dir("roundtrip");
        let mut store = ScheduleStore::open(&dir, 0).expect("open");
        let schedule = captured(8, 2);
        store.save(schedule.key(), &schedule).expect("save");
        assert_eq!(store.len(), 1);
        assert!(store.contains(schedule.key()));

        let loaded = store.load(schedule.key()).expect("load").expect("hit");
        assert_eq!(loaded.len(), schedule.len());
        assert!(store.load((1, 2)).expect("miss is ok").is_none());
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().misses, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_indexes_existing_entries() {
        let dir = temp_dir("reopen");
        let schedule = captured(8, 1);
        {
            let mut store = ScheduleStore::open(&dir, 0).expect("open");
            store.save(schedule.key(), &schedule).expect("save");
        }
        let mut store = ScheduleStore::open(&dir, 0).expect("reopen");
        assert_eq!(store.len(), 1);
        assert!(store.load(schedule.key()).expect("load").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_evict_discards_damaged_entries() {
        let dir = temp_dir("evictbad");
        let schedule = captured(8, 1);
        let key = schedule.key();
        let mut store = ScheduleStore::open(&dir, 0).expect("open");
        store.save(key, &schedule).expect("save");

        let path = store.entry_path(key);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).expect("corrupt");

        let err = store.load_or_evict(key).unwrap_err();
        assert_eq!(err.label(), "checksum_mismatch");
        assert!(!path.exists(), "damaged entry is deleted");
        assert_eq!(store.stats().corrupt_discarded, 1);
        // The next lookup is a clean miss — the caller recaptures.
        assert!(store.load_or_evict(key).expect("miss").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_holds_the_byte_budget_in_lru_order() {
        let dir = temp_dir("budget");
        let schedules: Vec<_> = (0..3).map(|i| captured(6 + i, 1)).collect();
        let one = encode_entry(schedules[0].key(), &schedules[0]).len() as u64;
        // Room for roughly two entries (the later ones are a bit larger).
        let mut store = ScheduleStore::open(&dir, one * 5 / 2).expect("open");
        for s in &schedules {
            store.save(s.key(), s).expect("save");
        }
        assert!(store.bytes() <= store.budget(), "budget holds");
        assert!(store.stats().evictions >= 1);
        assert!(
            !store.contains(schedules[0].key()),
            "oldest entry is the victim"
        );
        assert!(store.contains(schedules[2].key()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_import_pack_round_trips() {
        let dir_a = temp_dir("pack-a");
        let dir_b = temp_dir("pack-b");
        let mut a = ScheduleStore::open(&dir_a, 0).expect("open a");
        let s1 = captured(6, 1);
        let s2 = captured(8, 2);
        a.save(s1.key(), &s1).expect("save 1");
        a.save(s2.key(), &s2).expect("save 2");

        let pack = a.export_pack().expect("pack");
        let mut b = ScheduleStore::open(&dir_b, 0).expect("open b");
        let summary = b.import_pack(&pack).expect("import");
        assert_eq!(summary.imported, 2);
        assert_eq!(summary.replaced, 0);
        assert!(b.load(s1.key()).expect("load").is_some());
        assert!(b.load(s2.key()).expect("load").is_some());

        // A flipped pack entry aborts with a typed error.
        let mut rotten = pack.clone();
        let last = rotten.len() - 1;
        rotten[last] ^= 0x10;
        assert!(b.import_pack(&rotten).is_err());
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn ls_and_verify_report_soundness() {
        let dir = temp_dir("lsverify");
        let mut store = ScheduleStore::open(&dir, 0).expect("open");
        let schedule = captured(8, 2);
        store.save(schedule.key(), &schedule).expect("save");
        let listing = store.ls();
        assert_eq!(listing.len(), 1);
        let info = listing[0].1.as_ref().expect("sound entry");
        assert_eq!(info.kernel, "average");
        assert_eq!(info.elements, 64);
        assert_eq!(info.instances, 2);
        assert_eq!(info.version, STORE_FORMAT_VERSION);
        let (ok, bad) = store.verify();
        assert_eq!((ok, bad.len()), (vec![info.clone()], 0));

        // Rot the entry on disk: verify finds it, ls reports it.
        let path = store.entry_path(schedule.key());
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[HEADER_LEN + 3] ^= 0x02;
        std::fs::write(&path, &bytes).expect("write");
        let (ok, bad) = store.verify();
        assert_eq!((ok.len(), bad.len()), (0, 1));
        assert_eq!(bad[0].1.label(), "checksum_mismatch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entry_names_parse_back_to_keys() {
        assert_eq!(
            parse_entry_name("00000000000000ff000000000000a0b1.sched"),
            Some((0xff, 0xa0b1))
        );
        assert_eq!(parse_entry_name("short.sched"), None);
        assert_eq!(parse_entry_name("README.md"), None);
    }
}
