//! Lifecycle properties of the persistent schedule store, exercised the
//! way deployments exercise it: multiple handles on one directory,
//! byte-budget pressure, on-disk damage, and concurrent readers racing a
//! writer. Unit tests in `smache::system::store` pin the wire format;
//! these tests pin the operational contract described in
//! `docs/DEPLOYMENT.md`:
//!
//! - the LRU byte budget holds on disk, not just in the index;
//! - damaged entries are discarded and recaptured, never served;
//! - atomic publishes mean a reader never observes a half-written entry.

use smache::arch::kernel::AverageKernel;
use smache::system::store::encode_entry;
use smache::system::{ControlSchedule, RunEngine, ScheduleStore};
use smache::SmacheBuilder;
use smache_stencil::{BoundarySpec, GridSpec, StencilShape};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn seeded(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(seed | 1).wrapping_add(seed >> 7) % 100_000)
        .collect()
}

/// Captures one schedule for an `h`×`w` four-point problem.
fn capture(h: usize, w: usize) -> Arc<ControlSchedule> {
    let grid = GridSpec::d2(h, w).expect("grid");
    let n = grid.len();
    let mut sys = SmacheBuilder::new(grid)
        .shape(StencilShape::four_point_2d())
        .boundaries(BoundarySpec::paper_case())
        .build()
        .expect("build");
    let (_, schedule) = sys.run_captured(&seeded(n, 1), 2).expect("capture");
    schedule
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("smache-store-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// On-disk usage honours the byte budget in LRU order: oldest-used
/// entries leave, the most recently used survive, and actual directory
/// contents agree with the index.
#[test]
fn eviction_holds_the_byte_budget_on_disk() {
    let dir = tmp_dir("evict");
    let schedule = capture(8, 8);
    let entry_bytes = encode_entry((0, 0), &schedule).len() as u64;

    // Room for two entries and spare change — never three.
    let budget = entry_bytes * 5 / 2;
    let mut store = ScheduleStore::open(&dir, budget).expect("open");
    for key in 0..4u64 {
        store.save((key, key), &schedule).expect("save");
        assert!(store.bytes() <= budget, "budget held after save {key}");
    }
    assert_eq!(store.len(), 2, "budget admits exactly two entries");
    assert!(!store.contains((0, 0)), "oldest entry evicted");
    assert!(!store.contains((1, 1)), "second-oldest entry evicted");
    assert!(store.contains((2, 2)) && store.contains((3, 3)));
    assert_eq!(store.stats().evictions, 2);

    // The directory itself agrees — eviction is real disk space.
    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    assert!(
        on_disk <= budget,
        "{on_disk} bytes on disk > budget {budget}"
    );

    // A load refreshes recency: (2,2) touched, so (3,3) goes next.
    store.load((2, 2)).expect("load").expect("present");
    store.save((4, 4), &schedule).expect("save");
    assert!(store.contains((2, 2)), "recently loaded entry survives");
    assert!(!store.contains((3, 3)), "stale entry evicted instead");

    std::fs::remove_dir_all(&dir).ok();
}

/// Damage on disk is contained: `load_or_evict` surfaces the typed error
/// once, deletes the poisoned file and counts the discard; afterwards the
/// key reads as absent and can immediately be recaptured — the other
/// entries are untouched.
#[test]
fn damaged_entries_are_discarded_and_recapturable() {
    let dir = tmp_dir("damage");
    let schedule = capture(8, 8);
    let mut store = ScheduleStore::open(&dir, 0).expect("open");
    store.save((1, 1), &schedule).expect("save");
    store.save((2, 2), &schedule).expect("save");
    drop(store);

    // Flip one payload byte of entry (1,1) on disk.
    let victim = dir.join(format!("{:016x}{:016x}.sched", 1u64, 1u64));
    let mut bytes = std::fs::read(&victim).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).expect("rewrite entry");

    let mut store = ScheduleStore::open(&dir, 0).expect("reopen");
    assert!(store.load((1, 1)).is_err(), "plain load surfaces the error");
    assert!(victim.exists(), "plain load leaves the file in place");
    let err = store
        .load_or_evict((1, 1))
        .expect_err("damage surfaces once as a typed error");
    assert_eq!(err.label(), "checksum_mismatch");
    assert_eq!(store.stats().corrupt_discarded, 1);
    assert!(!victim.exists(), "damaged file deleted");
    assert!(
        store
            .load_or_evict((1, 1))
            .expect("now a clean miss")
            .is_none(),
        "discarded key reads as absent"
    );

    // The healthy sibling still loads and replays.
    let healthy = store.load_or_evict((2, 2)).expect("load").expect("present");
    let input = seeded(64, 9);
    let report = healthy.replay(&AverageKernel, &input).expect("replay");
    assert_eq!(report.engine, RunEngine::Replay);

    // Recapture re-publishes under the damaged key.
    store.save((1, 1), &schedule).expect("resave");
    assert!(store.load((1, 1)).expect("load").is_some());

    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent workers over one directory: a writer republishing entries
/// while readers load them must never produce a decode error — publishes
/// are atomic renames, so a reader sees the old entry, the new entry, or
/// no entry, never a torn one. Readers keep reading until the writer is
/// done, so each also reads the published entries at least once.
#[test]
fn concurrent_readers_never_observe_half_written_entries() {
    let dir = tmp_dir("race");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let schedule = capture(8, 8);
    let keys: Vec<(u64, u64)> = (0..4u64).map(|k| (k, k ^ 0xabc)).collect();
    let written = Arc::new(AtomicBool::new(false));

    let writer = {
        let dir = dir.clone();
        let keys = keys.clone();
        let schedule = Arc::clone(&schedule);
        let written = Arc::clone(&written);
        std::thread::spawn(move || {
            let mut store = ScheduleStore::open(&dir, 0).expect("writer open");
            for round in 0..20 {
                for &key in &keys {
                    store.save(key, &schedule).expect("save");
                }
                let _ = round;
            }
            written.store(true, Ordering::SeqCst);
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let dir = dir.clone();
            let keys = keys.clone();
            let written = Arc::clone(&written);
            std::thread::spawn(move || {
                let mut loaded = 0u64;
                let mut rounds = 0;
                loop {
                    // Check the writer's flag before the round, so the
                    // last round starts after every publish.
                    let done = written.load(Ordering::SeqCst);
                    rounds += 1;
                    // A fresh handle each round re-scans the directory,
                    // like a new worker process joining the fleet.
                    let mut store = ScheduleStore::open(&dir, 0).expect("reader open");
                    for &key in &keys {
                        match store.load(key) {
                            Ok(Some(s)) => {
                                assert_eq!(s.len(), 64);
                                loaded += 1;
                            }
                            Ok(None) => {}
                            Err(e) => panic!("reader saw a torn entry: {e}"),
                        }
                    }
                    if done && rounds >= 15 {
                        break;
                    }
                }
                loaded
            })
        })
        .collect();

    writer.join().expect("writer");
    let total: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total > 0, "readers observed at least one published entry");

    std::fs::remove_dir_all(&dir).ok();
}

/// Same-second publishes leave identical mtimes, so restart-time LRU
/// reconstruction cannot order entries by age alone; the tie breaks by
/// key. Two simulated restarts of the same over-budget directory must
/// therefore evict the *same* victims — deployments that share a store
/// across workers rely on every reopen converging on one survivor set.
#[test]
fn restart_eviction_is_deterministic_when_mtimes_tie() {
    use std::time::{Duration, SystemTime};

    let schedule = capture(8, 8);
    let entry_bytes = encode_entry((0, 0), &schedule).len() as u64;
    // Room for two entries and spare change — never three.
    let budget = entry_bytes * 5 / 2;

    let survivors = |tag: &str| -> Vec<(u64, u64)> {
        let dir = tmp_dir(tag);
        {
            // Publish five entries unbounded, in scrambled order so any
            // surviving insertion-order signal would differ from key order.
            let mut store = ScheduleStore::open(&dir, 0).expect("open unbounded");
            for key in [(3u64, 3u64), (0, 0), (4, 4), (1, 1), (2, 2)] {
                store.save(key, &schedule).expect("save");
            }
        }
        // Squash every mtime to one timestamp: five same-second publishes.
        let stamp = SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000);
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let path = entry.expect("entry").path();
            let file = std::fs::File::options()
                .write(true)
                .open(&path)
                .expect("open entry");
            file.set_modified(stamp).expect("set mtime");
        }
        // Simulated restart under byte-budget pressure: open() evicts.
        let store = ScheduleStore::open(&dir, budget).expect("reopen");
        let kept: Vec<(u64, u64)> = (0..5u64)
            .map(|k| (k, k))
            .filter(|&k| store.contains(k))
            .collect();
        let on_disk = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter(|e| {
                e.as_ref()
                    .is_ok_and(|e| e.file_name().to_string_lossy().ends_with(".sched"))
            })
            .count();
        assert_eq!(on_disk, kept.len(), "index and directory agree");
        std::fs::remove_dir_all(&dir).ok();
        kept
    };

    let first = survivors("tie-a");
    let second = survivors("tie-b");
    assert_eq!(
        first, second,
        "restarts with tied mtimes must pick identical eviction victims"
    );
    assert_eq!(
        first,
        vec![(3, 3), (4, 4)],
        "the tie breaks by key order: highest keys rank most-recently-used"
    );
}
