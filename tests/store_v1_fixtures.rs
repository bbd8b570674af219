//! Store format v1 still reads.
//!
//! `tests/fixtures/` holds a v1 schedule entry and a two-entry v1 pack,
//! written by the v1 store before the run-form format existed:
//!
//! * `v1_paper_8x8.sched` — the 8×8 paper case, average kernel, two
//!   instances;
//! * `v1_pack.smscpack` — that entry plus a 6×7 nine-point mirror grid
//!   with the max kernel under a latency-only chaos plan (storms, chaos
//!   seed 5), three instances.
//!
//! The current reader must open both, list and verify them as v1, replay
//! them bit-exactly against full simulation (report bytes included), hold
//! the same schedule a fresh capture seals, and write v2 when they are
//! saved again. The keys the v1 store filed them under are the keys this
//! build derives for the same specs.

use std::path::{Path, PathBuf};

use smache::arch::kernel::{AverageKernel, Kernel, MaxKernel};
use smache::system::store::decode_entry;
use smache::system::{
    ControlSchedule, RunEngine, RunReport, ScheduleStore, SmacheSystem, STORE_FORMAT_VERSION,
};
use smache::SmacheBuilder;
use smache_mem::{ChaosProfile, FaultPlan};
use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// The paper-case entry's key, as the v1 store filed it.
const PAPER_KEY: (u64, u64) = (0x9461_9f6b_ccc7_d846, 0xb2dd_93d6_a2ed_0e4b);
/// The nine-point chaos entry's key, as the v1 store filed it.
const NINE_KEY: (u64, u64) = (0xa9b6_807d_94b4_def1, 0x3d3c_a3c6_e93b_6503);

/// One fixture spec: its engine, kernel, instance count and key.
struct Spec {
    build: fn() -> SmacheSystem,
    kernel: fn() -> Box<dyn Kernel>,
    instances: u64,
    key: (u64, u64),
}

fn paper() -> SmacheSystem {
    SmacheBuilder::new(GridSpec::d2(8, 8).expect("grid"))
        .build()
        .expect("build")
}

fn nine_point_chaos() -> SmacheSystem {
    let mirror = BoundarySpec::new(&[AxisBoundaries::both(Boundary::Mirror); 2]).expect("2D");
    SmacheBuilder::new(GridSpec::d2(6, 7).expect("grid"))
        .shape(StencilShape::nine_point_2d())
        .boundaries(mirror)
        .kernel(Box::new(MaxKernel))
        .fault_plan(FaultPlan::new(5, ChaosProfile::storms()))
        .build()
        .expect("build")
}

const SPECS: [Spec; 2] = [
    Spec {
        build: paper,
        kernel: || Box::new(AverageKernel),
        instances: 2,
        key: PAPER_KEY,
    },
    Spec {
        build: nine_point_chaos,
        kernel: || Box::new(MaxKernel),
        instances: 3,
        key: NINE_KEY,
    },
];

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(Path::new(FIXTURES).join(name)).expect("fixture present")
}

fn temp_store(tag: &str) -> (PathBuf, ScheduleStore) {
    let dir = std::env::temp_dir().join(format!("smache-v1-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ScheduleStore::open(&dir, 0).expect("open");
    (dir, store)
}

fn entry_path(dir: &Path, key: (u64, u64)) -> PathBuf {
    dir.join(format!("{:016x}{:016x}.sched", key.0, key.1))
}

fn version_of(entry: &[u8]) -> u32 {
    u32::from_le_bytes(entry[8..12].try_into().expect("header"))
}

/// The report bytes of `report` as replay writes them.
fn replay_bytes(report: &RunReport) -> String {
    let mut report = report.clone();
    report.engine = RunEngine::Replay;
    report.to_json().compact()
}

/// Replays `schedule` over three fresh inputs and demands everything a
/// full simulation of each reports — output, cycles, DRAM traffic, every
/// field and the report bytes — and that the schedule holds what a fresh
/// capture of the spec seals.
fn assert_replays_like_full_sim(spec: &Spec, schedule: &ControlSchedule) {
    let mut engine = (spec.build)();
    let n = engine.plan().grid.len();
    assert_eq!(
        smache_sim::hash::fingerprint128(engine.schedule_key_text(spec.instances).as_bytes()),
        spec.key,
        "the key a v1 store filed is the key this build derives"
    );
    let (_, fresh) = engine
        .run_captured(&smache::spec::seeded_input(n, 1), spec.instances)
        .expect("capture");
    assert_eq!(schedule.key(), fresh.key());
    assert_eq!(schedule.gather(), fresh.gather());
    assert_eq!(schedule.trace(), fresh.trace());
    assert_eq!(
        schedule.template().to_json().compact(),
        fresh.template().to_json().compact()
    );
    for seed in 2..5 {
        let input = smache::spec::seeded_input(n, seed);
        let replayed = schedule
            .replay((spec.kernel)().as_ref(), &input)
            .expect("replays");
        let full = (spec.build)().run(&input, spec.instances).expect("runs");
        assert_eq!(replayed.engine, RunEngine::Replay);
        assert_eq!(replayed.output, full.output, "seed {seed}");
        assert_eq!(replayed.stats, full.stats, "seed {seed}");
        assert_eq!(replayed.metrics.dram, full.metrics.dram, "seed {seed}");
        assert_eq!(
            replayed.to_json().compact(),
            replay_bytes(&full),
            "seed {seed}"
        );
    }
}

#[test]
fn v1_entry_lists_verifies_replays_and_resaves_as_v2() {
    let bytes = fixture("v1_paper_8x8.sched");
    assert_eq!(version_of(&bytes), 1);
    let (dir, _) = temp_store("entry");
    std::fs::write(entry_path(&dir, PAPER_KEY), &bytes).expect("place fixture");
    let mut store = ScheduleStore::open(&dir, 0).expect("reopen");

    let listing = store.ls();
    assert_eq!(listing.len(), 1);
    let info = listing[0].1.as_ref().expect("sound v1 entry");
    assert_eq!((info.key, info.version), (PAPER_KEY, 1));
    assert_eq!((info.elements, info.instances), (64, 2));
    let (ok, bad) = store.verify();
    assert!(bad.is_empty());
    assert_eq!(ok.iter().map(|e| e.version).collect::<Vec<_>>(), [1]);

    let loaded = store.load(PAPER_KEY).expect("load").expect("hit");
    assert_replays_like_full_sim(&SPECS[0], &loaded);

    // Saving it again writes the current format, which is smaller and
    // decodes to the same schedule.
    store.save(PAPER_KEY, &loaded).expect("save");
    let resaved = std::fs::read(entry_path(&dir, PAPER_KEY)).expect("read");
    assert_eq!(version_of(&resaved), STORE_FORMAT_VERSION);
    assert!(resaved.len() < bytes.len());
    let (ok, _) = store.verify();
    assert_eq!(ok[0].version, STORE_FORMAT_VERSION);
    let (_, decoded) = decode_entry(&resaved).expect("v2 decodes");
    assert_eq!(decoded.gather(), loaded.gather());
    assert_eq!(decoded.trace(), loaded.trace());
    let reloaded = store.load(PAPER_KEY).expect("load").expect("hit");
    assert_replays_like_full_sim(&SPECS[0], &reloaded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_pack_imports_as_v2_entries_that_replay_bit_exactly() {
    let pack = fixture("v1_pack.smscpack");
    assert_eq!(&pack[..8], b"SMSCPACK");
    assert_eq!(u32::from_le_bytes(pack[8..12].try_into().unwrap()), 1);
    let (dir, mut store) = temp_store("pack");
    let summary = store.import_pack(&pack).expect("imports");
    assert_eq!((summary.imported, summary.replaced), (2, 0));
    let (ok, bad) = store.verify();
    assert!(bad.is_empty());
    assert_eq!(ok.len(), 2);
    assert!(ok.iter().all(|e| e.version == STORE_FORMAT_VERSION));
    for spec in &SPECS {
        let loaded = store.load(spec.key).expect("load").expect("hit");
        assert_replays_like_full_sim(spec, &loaded);
    }
    std::fs::remove_dir_all(&dir).ok();
}
