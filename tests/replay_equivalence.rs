//! Schedule replay ≡ full simulation — and clean, typed refusals.
//!
//! The positive half pins the tentpole guarantee: a [`ControlSchedule`]
//! captured from one full cycle-accurate run reproduces **bit-exact**
//! outputs, cycle counts and report metrics for fresh inputs of the same
//! spec — across the nine boundary cases of the 11×11 validation grid and
//! across randomised specs (grids, shapes, boundaries, kernels, hybrid
//! modes, instance counts).
//!
//! The negative half pins the safety property: whenever the control plane
//! stops being data-independent (corrupting fault plans, stall fuzzing,
//! tracing, telemetry, result taps), capture *refuses* with a typed
//! [`ReplayUnsupported`] reason and the auto mode falls back to the full
//! simulation — never a silently divergent replay. Latency-only fault
//! plans are the deliberate exception: their chaos draws are a pure
//! function of (chaos-seed, cycle), so they capture and replay across
//! data seeds.

use proptest::prelude::*;
use smache::arch::kernel::{AverageKernel, Kernel, MaxKernel, SumKernel, WeightedKernel};
use smache::system::batch::{BatchJob, BatchOptions};
use smache::system::store::{decode_entry, encode_entry};
use smache::system::{
    ControlSchedule, ReplayMode, RunEngine, ScheduleStore, SmacheSystem, STORE_FORMAT_VERSION,
};
use smache::{CoreError, HybridMode, SmacheBuilder};
use smache_mem::{ChaosProfile, FaultPlan};
use smache_sim::{ReplayUnsupported, SlotSource};
use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};
use std::sync::Arc;

const W: usize = 11;

fn paper_system() -> SmacheSystem {
    SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .shape(StencilShape::four_point_2d())
        .boundaries(BoundarySpec::paper_case())
        .build()
        .expect("build")
}

fn seeded(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(seed | 1).wrapping_add(seed >> 7) % 100_000)
        .collect()
}

/// The nine-case validation grid: one capture serves many seeds, each
/// replay bit-exact with its own full simulation.
#[test]
fn nine_case_grid_replays_bit_exactly() {
    let mut capture_sys = paper_system();
    let (captured, schedule) = capture_sys
        .run_captured(&seeded(W * W, 0), 3)
        .expect("capture");
    assert_eq!(captured.engine, RunEngine::FullSim);
    assert_eq!(schedule.len(), W * W);

    for seed in 1..=4u64 {
        let input = seeded(W * W, seed);
        let replayed = schedule.replay(&AverageKernel, &input).expect("replay");
        let mut full_sys = paper_system();
        let full = full_sys.run(&input, 3).expect("run");
        assert_eq!(replayed.output, full.output, "seed {seed}: outputs");
        assert_eq!(replayed.stats, full.stats, "seed {seed}: cycle stats");
        assert_eq!(
            replayed.metrics.cycles, full.metrics.cycles,
            "seed {seed}: metrics cycles"
        );
        assert_eq!(
            replayed.warmup_cycles, full.warmup_cycles,
            "seed {seed}: warm-up"
        );
        assert_eq!(
            replayed.metrics.dram, full.metrics.dram,
            "seed {seed}: DRAM traffic"
        );
        assert_eq!(replayed.engine, RunEngine::Replay);

        // The lane-batched engine agrees with the per-lane one, element
        // for element, over the same nine-case grid.
        let batched = schedule
            .replay_lanes(&AverageKernel, &[input.as_slice()])
            .expect("lanes");
        assert_eq!(batched[0].output, replayed.output, "seed {seed}: lanes");
        assert_eq!(batched[0].stats, replayed.stats, "seed {seed}: lanes");
    }
}

/// A wide DRAM bus runs several lanes per cycle; its schedules replay
/// like any other: two lanes over the nine-case grid (static buffers on
/// both BRAM ports) and four lanes over an open 32×32 grid. Each replay
/// equals its own full simulation in output, cycles and report bytes.
#[test]
fn wide_bus_schedules_replay_bit_exactly() {
    for (side, bounds, lanes) in [
        (W, BoundarySpec::paper_case(), 2usize),
        (32, BoundarySpec::all_open(2).expect("bounds"), 4),
    ] {
        let system = || {
            let mut config = smache::system::SystemConfig::default();
            config.dram.bus_words = lanes;
            SmacheBuilder::new(GridSpec::d2(side, side).expect("grid"))
                .boundaries(bounds.clone())
                .system_config(config)
                .build()
                .expect("build")
        };
        let n = side * side;
        let (_, schedule) = system().run_captured(&seeded(n, 0), 3).expect("capture");
        for seed in 1..=3u64 {
            let input = seeded(n, seed);
            let replayed = schedule.replay(&AverageKernel, &input).expect("replay");
            let mut full = system().run(&input, 3).expect("run");
            assert_eq!(full.metrics.name, format!("Smache-x{lanes}"));
            assert_eq!(replayed.output, full.output, "{lanes} lanes, seed {seed}");
            assert_eq!(replayed.metrics.cycles, full.metrics.cycles);
            full.engine = RunEngine::Replay;
            assert_eq!(
                replayed.to_json().compact(),
                full.to_json().compact(),
                "{lanes} lanes, seed {seed}: report bytes"
            );
        }
    }
}

/// The batched sweep path: the unified `run_batch` in auto mode captures
/// once, lane-batch-replays the rest, and agrees with full simulation
/// lane for lane — at every lane-block size.
#[test]
fn batch_replay_matches_batch_full_sim() {
    let jobs = |n: u64| -> Vec<BatchJob> {
        let kernel: smache::system::KernelFactory = Arc::new(|| Box::new(AverageKernel));
        (0..n)
            .map(|s| {
                BatchJob::new(
                    SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
                        .boundaries(BoundarySpec::paper_case())
                        .plan()
                        .expect("plan"),
                    Arc::clone(&kernel),
                    seeded(W * W, s),
                    2,
                )
            })
            .collect()
    };
    let full = SmacheSystem::run_batch(
        jobs(6),
        BatchOptions::new().threads(3).replay(ReplayMode::Off),
    );
    for lane_block in [1, 2, 16] {
        let fast = SmacheSystem::run_batch(
            jobs(6),
            BatchOptions::new().threads(3).lane_block(lane_block),
        );
        assert_eq!(full.aggregate, fast.aggregate, "block {lane_block}");
        let mut replayed = 0;
        for (a, b) in full.lanes.iter().zip(&fast.lanes) {
            let (a, b) = (a.as_ref().expect("full"), b.as_ref().expect("fast"));
            assert_eq!(a.output, b.output);
            assert_eq!(a.stats, b.stats);
            if b.engine == RunEngine::Replay {
                replayed += 1;
            }
        }
        assert_eq!(replayed, 5, "one capture lane, five replayed lanes");
    }
}

fn arb_boundary() -> impl Strategy<Value = Boundary> {
    prop_oneof![
        Just(Boundary::Open),
        Just(Boundary::Circular),
        Just(Boundary::Mirror),
        (0u64..1000).prop_map(Boundary::Constant),
    ]
}

fn arb_bounds() -> impl Strategy<Value = BoundarySpec> {
    (
        arb_boundary(),
        arb_boundary(),
        arb_boundary(),
        arb_boundary(),
    )
        .prop_map(|(rl, rh, cl, ch)| {
            BoundarySpec::new(&[
                AxisBoundaries { low: rl, high: rh },
                AxisBoundaries { low: cl, high: ch },
            ])
            .expect("two axes")
        })
}

fn arb_shape() -> impl Strategy<Value = StencilShape> {
    prop_oneof![
        Just(StencilShape::four_point_2d()),
        Just(StencilShape::five_point_2d()),
        Just(StencilShape::nine_point_2d()),
    ]
}

fn kernel_of(id: usize) -> Box<dyn Kernel> {
    match id {
        0 => Box::new(AverageKernel),
        1 => Box::new(SumKernel),
        2 => Box::new(MaxKernel),
        // Distinct weight per shape point: a slot-order mistake in the
        // lowered gather rows changes the result.
        _ => Box::new(WeightedKernel::new("positional", (1..=9).collect()).expect("weights")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised specs: capture on one input, replay a second input, and
    /// the replay must match that second input's full simulation exactly —
    /// outputs, cycle counts and report metrics.
    #[test]
    fn replay_equals_full_sim_on_random_specs(
        h in 4usize..10,
        w in 4usize..10,
        bounds in arb_bounds(),
        shape in arb_shape(),
        kernel_id in 0usize..4,
        hybrid_h in any::<bool>(),
        instances in 1u64..4,
        seed in any::<u64>(),
    ) {
        let grid = GridSpec::d2(h, w).expect("grid");
        let n = grid.len();
        let hybrid = if hybrid_h { HybridMode::default() } else { HybridMode::CaseR };
        let builder = || SmacheBuilder::new(grid.clone())
            .shape(shape.clone())
            .boundaries(bounds.clone())
            .hybrid(hybrid)
            .kernel(kernel_of(kernel_id));

        let mut capture_sys = builder().build().expect("build");
        let (_, schedule) = capture_sys
            .run_captured(&seeded(n, seed), instances)
            .expect("capture");

        let fresh = seeded(n, seed.wrapping_add(0x9E37_79B9));
        let replayed = schedule
            .replay(kernel_of(kernel_id).as_ref(), &fresh)
            .expect("replay");
        let mut full_sys = builder().build().expect("build");
        let full = full_sys.run(&fresh, instances).expect("run");

        prop_assert_eq!(&replayed.output, &full.output);
        prop_assert_eq!(replayed.stats, full.stats);
        prop_assert_eq!(replayed.metrics.cycles, full.metrics.cycles);
        prop_assert_eq!(replayed.warmup_cycles, full.warmup_cycles);
        prop_assert_eq!(replayed.engine, RunEngine::Replay);

        // The structure-of-arrays engine agrees with both, lane for lane.
        let second = seeded(n, seed.wrapping_mul(0x2545_F491));
        let lanes = schedule
            .replay_lanes(kernel_of(kernel_id).as_ref(), &[&fresh, &second])
            .expect("replay_lanes");
        prop_assert_eq!(&lanes[0].output, &full.output);
        prop_assert_eq!(lanes[0].stats, full.stats);
        let single = schedule
            .replay(kernel_of(kernel_id).as_ref(), &second)
            .expect("replay");
        prop_assert_eq!(&lanes[1].output, &single.output);
    }
}

/// Every data-dependent control-plane feature refuses capture with its
/// own typed reason — no silent divergence possible. Latency-only chaos
/// is *not* on that list any more: it captures (covered below).
#[test]
fn capture_refuses_each_ineligible_feature() {
    let input = seeded(W * W, 1);

    // Corrupting plans: the fault's effect depends on the data it hits.
    let mut corrupting = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .fault_plan(FaultPlan::new(9, ChaosProfile::flip(30)))
        .build()
        .expect("build");
    assert!(matches!(
        corrupting.run_captured(&input, 1),
        Err(CoreError::ReplayRefused(ReplayUnsupported::FaultPlan))
    ));

    let mut fuzzed = paper_system();
    fuzzed.set_stall_schedule(Box::new(|c| c % 3 == 0));
    assert!(matches!(
        fuzzed.run_captured(&input, 1),
        Err(CoreError::ReplayRefused(ReplayUnsupported::StallSchedule))
    ));

    let mut telemetered = paper_system();
    telemetered.attach_telemetry(smache_sim::TelemetryConfig::default());
    assert!(matches!(
        telemetered.run_captured(&input, 1),
        Err(CoreError::ReplayRefused(ReplayUnsupported::Telemetry))
    ));

    let mut tapped = paper_system();
    tapped.set_result_tap(Box::new(|_| {}));
    assert!(matches!(
        tapped.run_captured(&input, 1),
        Err(CoreError::ReplayRefused(ReplayUnsupported::ResultTap))
    ));
}

fn chaotic_jobs(n: u64, chaos_seed: u64, profile: ChaosProfile) -> Vec<BatchJob> {
    let kernel: smache::system::KernelFactory = Arc::new(|| Box::new(AverageKernel));
    (0..n)
        .map(|s| {
            BatchJob::new(
                SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
                    .plan()
                    .expect("plan"),
                Arc::clone(&kernel),
                seeded(W * W, s),
                2,
            )
            .with_config(smache::system::smache_system::SystemConfig {
                fault_plan: FaultPlan::new(chaos_seed, profile),
                ..Default::default()
            })
        })
        .collect()
}

/// Latency-only chaos captures and replays: even under forced replay every
/// lane succeeds, bit-exact with the chaotic full simulation — one capture
/// per (spec, chaos-seed), replayed across the data seeds.
#[test]
fn latency_only_chaos_replays_bit_exactly_across_data_seeds() {
    let full = SmacheSystem::run_batch(
        chaotic_jobs(8, 5, ChaosProfile::heavy()),
        BatchOptions::new().threads(2).replay(ReplayMode::Off),
    );
    let forced = SmacheSystem::run_batch(
        chaotic_jobs(8, 5, ChaosProfile::heavy()),
        BatchOptions::new().threads(2).replay(ReplayMode::On),
    );
    assert_eq!(forced.succeeded(), 8);
    let mut replayed = 0;
    for (a, b) in full.lanes.iter().zip(&forced.lanes) {
        let (a, b) = (a.as_ref().expect("full"), b.as_ref().expect("forced"));
        assert_eq!(a.output, b.output, "chaos replay stays bit-exact");
        assert_eq!(a.stats, b.stats, "chaotic cycle accounting replays too");
        if b.engine == RunEngine::Replay {
            replayed += 1;
        }
    }
    assert_eq!(replayed, 7, "one capture lane, seven replayed lanes");

    // A different chaos seed is a different schedule: nothing is shared,
    // and the runs come out different (storms land elsewhere).
    let other = SmacheSystem::run_batch(
        chaotic_jobs(2, 6, ChaosProfile::heavy()),
        BatchOptions::new().replay(ReplayMode::On),
    );
    assert_eq!(other.succeeded(), 2);
    let (a, b) = (
        forced.lanes[0].as_ref().expect("ok"),
        other.lanes[0].as_ref().expect("ok"),
    );
    assert_ne!(a.stats.stall_cycles, b.stats.stall_cycles, "distinct chaos");
}

/// Corrupting chaos still refuses forced replay with typed provenance;
/// auto mode falls back to the full simulation and reproduces its result
/// exactly (here: the typed FaultDetected diagnosis of the bit flip).
#[test]
fn corrupting_chaos_refuses_with_typed_provenance() {
    let forced = SmacheSystem::run_batch(
        chaotic_jobs(3, 5, ChaosProfile::flip(30)),
        BatchOptions::new().threads(2).replay(ReplayMode::On),
    );
    assert_eq!(forced.succeeded(), 0);
    for lane in &forced.lanes {
        match lane {
            Err(CoreError::ReplayRefused(r)) => assert_eq!(r.label(), "fault_plan"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    let auto = SmacheSystem::run_batch(
        chaotic_jobs(3, 5, ChaosProfile::flip(30)),
        BatchOptions::new().threads(2),
    );
    let full = SmacheSystem::run_batch(
        chaotic_jobs(3, 5, ChaosProfile::flip(30)),
        BatchOptions::new().threads(2).replay(ReplayMode::Off),
    );
    for (a, f) in auto.lanes.iter().zip(&full.lanes) {
        match (a, f) {
            (Ok(a), Ok(f)) => assert_eq!(a.output, f.output),
            (Err(a), Err(f)) => assert_eq!(a.to_string(), f.to_string()),
            _ => panic!("auto fallback diverged from the full simulation"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos-replay equivalence: for any latency-only profile and chaos
    /// seed, a schedule captured under the plan replays fresh data seeds
    /// bit-exactly against the chaotic full simulation — outputs, cycle
    /// stats and fault accounting alike.
    #[test]
    fn latency_only_chaos_replay_equals_full_sim(
        profile_id in 0usize..4,
        chaos_seed in any::<u64>(),
        data_seed in any::<u64>(),
    ) {
        let profile = [
            ChaosProfile::jitter(),
            ChaosProfile::storms(),
            ChaosProfile::drain(),
            ChaosProfile::heavy(),
        ][profile_id];
        let builder = || SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
            .fault_plan(FaultPlan::new(chaos_seed, profile));

        let mut capture_sys = builder().build().expect("build");
        let (_, schedule) = capture_sys
            .run_captured(&seeded(W * W, data_seed), 2)
            .expect("latency-only chaos must capture");

        let fresh = seeded(W * W, data_seed.wrapping_add(0x9E37_79B9));
        let replayed = schedule.replay(&AverageKernel, &fresh).expect("replay");
        let mut full_sys = builder().build().expect("build");
        let full = full_sys.run(&fresh, 2).expect("run");

        prop_assert_eq!(&replayed.output, &full.output);
        prop_assert_eq!(replayed.stats, full.stats);
        prop_assert_eq!(replayed.metrics.faults, full.metrics.faults);
        prop_assert_eq!(replayed.engine, RunEngine::Replay);
    }
}

/// The byte-identity contract of the persistent store: a schedule saved
/// to disk and loaded back by a fresh [`ScheduleStore`] handle replays
/// bit-exactly against both the in-memory capture and a full simulation.
#[test]
fn stored_schedule_round_trips_bit_exactly() {
    let dir = std::env::temp_dir().join(format!("smache-replay-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut sys = paper_system();
    let (_, schedule) = sys.run_captured(&seeded(W * W, 0), 3).expect("capture");
    let key = (0xfeed_u64, 0xbeef_u64);

    let mut store = ScheduleStore::open(&dir, 0).expect("open");
    store.save(key, &schedule).expect("save");
    drop(store);

    // A fresh handle (fresh process, in spirit) must see the same bytes.
    let mut store = ScheduleStore::open(&dir, 0).expect("reopen");
    let loaded = store.load(key).expect("load").expect("present");

    for seed in 1..=3u64 {
        let input = seeded(W * W, seed);
        let from_disk = loaded.replay(&AverageKernel, &input).expect("disk replay");
        let from_memory = schedule.replay(&AverageKernel, &input).expect("mem replay");
        let mut full_sys = paper_system();
        let full = full_sys.run(&input, 3).expect("run");
        assert_eq!(from_disk.output, from_memory.output, "seed {seed}");
        assert_eq!(from_disk.output, full.output, "seed {seed}");
        assert_eq!(from_disk.stats, full.stats, "seed {seed}");
        assert_eq!(from_disk.metrics.dram, full.metrics.dram, "seed {seed}");
        assert_eq!(from_disk.engine, RunEngine::Replay);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The paper-case schedule the store tests encode, captured once per
/// process.
fn stored_schedule() -> &'static ControlSchedule {
    use std::sync::OnceLock;
    static SCHEDULE: OnceLock<Arc<ControlSchedule>> = OnceLock::new();
    SCHEDULE.get_or_init(|| {
        let mut sys = paper_system();
        let (_, schedule) = sys.run_captured(&seeded(W * W, 0), 2).expect("capture");
        schedule
    })
}

/// One canonical encoded (current format) store entry.
fn encoded_entry() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| encode_entry((1, 2), stored_schedule()))
}

const HEADER_LEN: usize = 56;
const CHECKSUM_OFFSET: usize = 40;

/// `stored_schedule`'s gather as a v1 entry holds it: CSR row starts,
/// `(tag, value)` slot sources and per-element masks.
fn v1_gather(schedule: &ControlSchedule) -> (Vec<u32>, Vec<(u8, u64)>, Vec<u64>) {
    let gather = schedule.gather();
    let (n, arity) = (schedule.len(), gather.arity());
    let starts = (0..=n).map(|e| (e * arity) as u32).collect();
    let sources = (0..n)
        .flat_map(|e| gather.slots(e))
        .map(|s| match s {
            SlotSource::Grid(i) => (0, i as u64),
            SlotSource::Const(v) => (1, v),
            SlotSource::Hole => (2, 0),
        })
        .collect();
    let masks = (0..n).map(|e| gather.mask(e)).collect();
    (starts, sources, masks)
}

/// A v1 entry of `stored_schedule` under key (1, 2), laid out as the v1
/// writer laid it out — header, then key, kernel, counts, the CSR gather
/// (`starts`, `(tag, value)` sources, `masks`), one record byte per cycle
/// and the template — sealed with the byte-serial `fingerprint128`.
fn v1_entry(starts: &[u32], sources: &[(u8, u64)], masks: &[u64]) -> Vec<u8> {
    let schedule = stored_schedule();
    let mut body = Vec::new();
    body.extend_from_slice(&schedule.key().0.to_le_bytes());
    body.extend_from_slice(&schedule.key().1.to_le_bytes());
    let name = schedule.kernel_name().as_bytes();
    body.extend_from_slice(&(name.len() as u32).to_le_bytes());
    body.extend_from_slice(name);
    body.extend_from_slice(&schedule.kernel_latency().to_le_bytes());
    body.extend_from_slice(&(schedule.len() as u64).to_le_bytes());
    body.extend_from_slice(&schedule.instances().to_le_bytes());
    body.extend_from_slice(&(starts.len() as u64).to_le_bytes());
    starts
        .iter()
        .for_each(|s| body.extend_from_slice(&s.to_le_bytes()));
    body.extend_from_slice(&(sources.len() as u64).to_le_bytes());
    for &(tag, value) in sources {
        body.push(tag);
        body.extend_from_slice(&value.to_le_bytes());
    }
    body.extend_from_slice(&(masks.len() as u64).to_le_bytes());
    masks
        .iter()
        .for_each(|m| body.extend_from_slice(&m.to_le_bytes()));
    let records: Vec<u8> = schedule
        .trace()
        .runs()
        .iter()
        .flat_map(|&(r, n)| std::iter::repeat_n(r.0, n as usize))
        .collect();
    body.extend_from_slice(&(records.len() as u64).to_le_bytes());
    body.extend_from_slice(&records);
    let template = schedule.template().to_json().compact();
    body.extend_from_slice(&(template.len() as u64).to_le_bytes());
    body.extend_from_slice(template.as_bytes());

    let mut out = b"SMSCHED1".to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&1u64.to_le_bytes());
    out.extend_from_slice(&2u64.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    let mut covered = out.clone();
    covered.extend_from_slice(&body);
    let (hi, lo) = smache_sim::hash::fingerprint128(&covered);
    out.extend_from_slice(&hi.to_le_bytes());
    out.extend_from_slice(&lo.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// `stored_schedule` as a v1 entry.
fn v1_encoded_entry() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (starts, sources, masks) = v1_gather(stored_schedule());
        v1_entry(&starts, &sources, &masks)
    })
}

/// A pack of `entries` under pack format `version`.
fn pack_of(version: u32, entries: &[&[u8]]) -> Vec<u8> {
    let mut pack = b"SMSCPACK".to_vec();
    pack.extend_from_slice(&version.to_le_bytes());
    pack.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for entry in entries {
        pack.extend_from_slice(&(entry.len() as u64).to_le_bytes());
        pack.extend_from_slice(entry);
    }
    pack
}

/// A pack mixing the v1 and the v2 entry of `stored_schedule` (under
/// keys (1, 2) and (3, 4)).
fn mixed_pack() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let v2 = encode_entry((3, 4), stored_schedule());
        pack_of(STORE_FORMAT_VERSION, &[v1_encoded_entry(), &v2])
    })
}

/// Re-seals `entry` (either version) after its header or payload was
/// edited: the payload length and the checksum of its version.
fn reseal(mut entry: Vec<u8>) -> Vec<u8> {
    let len = (entry.len() - HEADER_LEN) as u64;
    entry[32..40].copy_from_slice(&len.to_le_bytes());
    let (head, payload) = (&entry[..CHECKSUM_OFFSET], &entry[HEADER_LEN..]);
    let (hi, lo) = if entry[8] == 1 {
        smache_sim::hash::fingerprint128_split(head, payload)
    } else {
        smache_sim::hash::checksum128(head, payload)
    };
    entry[40..48].copy_from_slice(&hi.to_le_bytes());
    entry[48..56].copy_from_slice(&lo.to_le_bytes());
    entry
}

/// Asserts two schedules hold the same thing: key, counts, kernel, run
/// form, trace and template.
fn assert_same_schedule(a: &ControlSchedule, b: &ControlSchedule) {
    assert_eq!(a.key(), b.key());
    assert_eq!(a.len(), b.len());
    assert_eq!(a.instances(), b.instances());
    assert_eq!(a.kernel_name(), b.kernel_name());
    assert_eq!(a.kernel_latency(), b.kernel_latency());
    assert_eq!(a.gather(), b.gather());
    assert_eq!(a.trace(), b.trace());
    assert_eq!(
        a.template().to_json().compact(),
        b.template().to_json().compact()
    );
}

/// Encoding and decoding give back the sealed schedule, and a v1 entry of
/// it decodes to the same schedule.
#[test]
fn encode_decode_equals_the_sealed_schedule_in_both_versions() {
    let schedule = stored_schedule();
    let (key, decoded) = decode_entry(encoded_entry()).expect("v2 decodes");
    assert_eq!(key, (1, 2));
    assert_same_schedule(&decoded, schedule);
    assert_eq!(encoded_entry()[8..12], STORE_FORMAT_VERSION.to_le_bytes());
    let (key, from_v1) = decode_entry(v1_encoded_entry()).expect("v1 decodes");
    assert_eq!(key, (1, 2));
    assert_same_schedule(&from_v1, schedule);
    // Re-encoding either writes the current format, byte for byte.
    assert_eq!(encode_entry(key, &from_v1), encoded_entry());
    // The run form is far smaller than the v1 entry.
    assert!(encoded_entry().len() * 3 < v1_encoded_entry().len());

    // A version no build wrote refuses as such, checksum intact.
    for version in [0u32, 3] {
        let mut future = encoded_entry().to_vec();
        future[8..12].copy_from_slice(&version.to_le_bytes());
        let future = reseal(future);
        assert_eq!(
            decode_entry(&future).unwrap_err().label(),
            "unsupported_version"
        );
        let pack = pack_of(version, &[encoded_entry()]);
        let dir = std::env::temp_dir().join(format!(
            "smache-pack-version-{version}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut store = ScheduleStore::open(&dir, 0).expect("open");
        assert_eq!(
            store.import_pack(&pack).unwrap_err().label(),
            "unsupported_version"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A v2 entry whose run form or trace breaks an invariant replay relies
/// on is a typed `malformed` error, checksum intact.
#[test]
fn broken_run_forms_and_traces_are_malformed() {
    let entry = encoded_entry();
    let payload = HEADER_LEN;
    let name_len = u32::from_le_bytes(entry[payload + 16..payload + 20].try_into().unwrap());
    let arity_at = payload + 20 + name_len as usize + 24;
    let arity = u32::from_le_bytes(entry[arity_at..arity_at + 4].try_into().unwrap()) as usize;
    let consts = u64::from_le_bytes(entry[arity_at + 4..arity_at + 12].try_into().unwrap());
    let runs_at = arity_at + 12 + 8 * consts as usize;
    let runs = u64::from_le_bytes(entry[runs_at..runs_at + 8].try_into().unwrap()) as usize;
    let run_at = |i: usize| runs_at + 8 + i * (12 + 4 * arity);
    let start = |i: usize| u32::from_le_bytes(entry[run_at(i)..run_at(i) + 4].try_into().unwrap());
    // A run of at least two elements: its grid rows may not start on the
    // grid's last row.
    let long = (0..runs - 1)
        .find(|&i| start(i + 1) - start(i) >= 2)
        .expect("a long run");
    let first_row_at = run_at(long) + 12;
    let pairs_at = run_at(runs);
    let edit = |at: usize, bytes: &[u8]| {
        let mut e = entry.to_vec();
        e[at..at + bytes.len()].copy_from_slice(bytes);
        decode_entry(&reseal(e)).unwrap_err()
    };
    let grid = (W * W) as u32;
    for (what, at, bytes) in [
        (
            "past the grid",
            first_row_at,
            (grid - 1).to_le_bytes().to_vec(),
        ),
        (
            "beyond the hole row",
            first_row_at,
            (grid + 9).to_le_bytes().to_vec(),
        ),
        (
            "start at element 0",
            runs_at + 8,
            1u32.to_le_bytes().to_vec(),
        ),
        ("arity 65", arity_at, 65u32.to_le_bytes().to_vec()),
        (
            "repeats zero times",
            pairs_at + 8 + 1,
            0u32.to_le_bytes().to_vec(),
        ),
        (
            "trace totals",
            pairs_at + 8 + 1,
            7u32.to_le_bytes().to_vec(),
        ),
    ] {
        let err = edit(at, &bytes);
        assert_eq!(err.label(), "malformed", "{what}: {err}");
        assert!(err.to_string().contains(what), "{what}: {err}");
    }
}

/// A fresh store directory for one proptest case.
fn pack_store(tag: &str) -> ScheduleStore {
    let dir = std::env::temp_dir().join(format!("smache-pack-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ScheduleStore::open(&dir, 0).expect("open")
}

/// Every typed class a damaged entry or pack may read as.
const DAMAGE_LABELS: [&str; 5] = [
    "bad_magic",
    "unsupported_version",
    "truncated",
    "checksum_mismatch",
    "malformed",
];

/// A sound mixed pack imports both entries, each published as v2.
#[test]
fn mixed_packs_import_as_current_entries() {
    let mut store = pack_store("mixed");
    let summary = store.import_pack(mixed_pack()).expect("imports");
    assert_eq!((summary.imported, summary.replaced), (2, 0));
    let (ok, bad) = store.verify();
    assert!(bad.is_empty());
    assert_eq!(ok.len(), 2);
    assert!(ok.iter().all(|e| e.version == STORE_FORMAT_VERSION));
    for key in [(1, 2), (3, 4)] {
        let loaded = store.load(key).expect("load").expect("hit");
        assert_same_schedule(&loaded, stored_schedule());
    }
    // A count that undercounts the entries leaves bytes no entry reads.
    let mut short = mixed_pack().to_vec();
    short[12..20].copy_from_slice(&1u64.to_le_bytes());
    let err = store.import_pack(&short).unwrap_err();
    assert_eq!(err.label(), "malformed", "{err}");
    std::fs::remove_dir_all(store.dir()).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corruption safety: ANY single bit flip anywhere in a stored entry
    /// of either version — header, payload or checksum — decodes to a
    /// typed [`StoreError`], never to a plausible-but-wrong schedule.
    #[test]
    fn any_single_bit_flip_yields_a_typed_error(
        v1 in any::<bool>(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let pristine = if v1 { v1_encoded_entry() } else { encoded_entry() };
        prop_assert!(decode_entry(pristine).is_ok());

        let mut bytes = pristine.to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let err = decode_entry(&bytes).expect_err("flipped entry must not decode");
        prop_assert!(
            DAMAGE_LABELS.contains(&err.label()),
            "unexpected error class {} at byte {pos} bit {bit}", err.label()
        );
    }

    /// Truncation safety: an entry of either version cut short anywhere
    /// decodes to a typed error.
    #[test]
    fn any_truncation_yields_a_typed_error(v1 in any::<bool>(), cut in any::<usize>()) {
        let pristine = if v1 { v1_encoded_entry() } else { encoded_entry() };
        let cut = cut % pristine.len();
        let err = decode_entry(&pristine[..cut])
            .expect_err("truncated entry must not decode");
        prop_assert!(
            ["truncated", "bad_magic", "checksum_mismatch"].contains(&err.label()),
            "unexpected error class {} at cut {cut}", err.label()
        );
    }

    /// A mixed v1/v2 pack with one bit flipped, or cut short, fails its
    /// import with a typed error — never a panic, never a clean import.
    #[test]
    fn damaged_mixed_packs_fail_with_a_typed_error(
        pos in any::<usize>(),
        bit in 0u8..8,
        truncate in any::<bool>(),
    ) {
        let pristine = mixed_pack();
        let mut bytes = pristine.to_vec();
        let pos = pos % bytes.len();
        if truncate {
            bytes.truncate(pos);
        } else {
            bytes[pos] ^= 1 << bit;
        }
        let mut store = pack_store("damaged");
        let err = store.import_pack(&bytes).expect_err("damaged pack must not import");
        prop_assert!(
            DAMAGE_LABELS.contains(&err.label()),
            "unexpected error class {} at byte {pos} (truncate {truncate})", err.label()
        );
        std::fs::remove_dir_all(store.dir()).ok();
    }
}

/// Gather tables replay cannot lower to fixed-arity rows are typed
/// `malformed` errors when a v1 entry loads: ragged rows and rows wider
/// than a `u64` kernel mask.
#[test]
fn unlowerable_gather_tables_are_malformed() {
    let (starts, sources, masks) = uniform_gather(4);
    assert!(decode_entry(&v1_entry(&starts, &sources, &masks)).is_ok());

    // Element 0 has 3 slots, element 1 has 5: same total, ragged rows.
    let mut ragged = starts.clone();
    ragged[1] = 3;
    let err = decode_entry(&v1_entry(&ragged, &sources, &masks)).unwrap_err();
    assert_eq!(err.label(), "malformed");
    assert!(err.to_string().contains("ragged"), "{err}");

    let (starts, sources, masks) = uniform_gather(65);
    let err = decode_entry(&v1_entry(&starts, &sources, &masks)).unwrap_err();
    assert_eq!(err.label(), "malformed");
    assert!(err.to_string().contains("arity 65"), "{err}");
    let (starts, sources, masks) = uniform_gather(64);
    assert!(decode_entry(&v1_entry(&starts, &sources, &masks)).is_ok());

    // A grid index outside the grid is malformed too.
    let (starts, mut sources, masks) = uniform_gather(4);
    sources[7] = (0, (W * W) as u64);
    let err = decode_entry(&v1_entry(&starts, &sources, &masks)).unwrap_err();
    assert_eq!(err.label(), "malformed");
}

/// A hand-made uniform table of `arity`-slot rows, every slot `Grid(0)`.
fn uniform_gather(arity: usize) -> (Vec<u32>, Vec<(u8, u64)>, Vec<u64>) {
    let n = W * W;
    let starts = (0..=n).map(|e| (e * arity) as u32).collect();
    (starts, vec![(0, 0); n * arity], vec![1; n])
}

/// `Const(0)` and `Hole` both read a zero, but a constant counts in the
/// kernel and a hole does not: they must survive the store as distinct
/// sources — from a v1 entry into the run form, and through a v2 entry —
/// and replay differently.
#[test]
fn const_zero_and_hole_round_trip_as_distinct_sources() {
    let n = W * W;
    let starts: Vec<u32> = (0..=n).map(|e| (e * 4) as u32).collect();
    // Slots: self, Const(0), Hole, Const(7); the hole is masked out.
    let sources: Vec<(u8, u64)> = (0..n)
        .flat_map(|e| [(0, e as u64), (1, 0), (2, 0), (1, 7)])
        .collect();
    let bytes = v1_entry(&starts, &sources, &vec![0b1011; n]);
    let (key, from_v1) = decode_entry(&bytes).expect("decode");
    let v2 = encode_entry(key, &from_v1);
    let (_, schedule) = decode_entry(&v2).expect("decode v2");
    assert_same_schedule(&schedule, &from_v1);
    assert_eq!(encode_entry(key, &schedule), v2);
    assert_eq!(
        schedule.gather().slots(5).collect::<Vec<_>>(),
        [
            SlotSource::Grid(5),
            SlotSource::Const(0),
            SlotSource::Hole,
            SlotSource::Const(7),
        ]
    );
    // Two instances of out[e] = (cur[e] + 0 + 7) / 3, on both loops.
    let input = seeded(n, 3);
    let expect: Vec<u64> = input.iter().map(|&v| ((v + 7) / 3 + 7) / 3).collect();
    let single = schedule.replay(&AverageKernel, &input).expect("replay");
    assert_eq!(single.output, expect);
    let lanes = schedule
        .replay_lanes(&AverageKernel, &[&input, &input])
        .expect("lanes");
    assert_eq!(lanes[1].output, expect);
}

/// A schedule refuses inputs and kernels it was not captured for, with
/// typed reasons a caller can fall back on.
#[test]
fn schedule_refuses_mismatched_requests() {
    let mut sys = paper_system();
    let (_, schedule) = sys.run_captured(&seeded(W * W, 0), 1).expect("capture");
    assert!(matches!(
        schedule.replay(&AverageKernel, &seeded(64, 0)),
        Err(ReplayUnsupported::InputLength {
            expected: 121,
            actual: 64
        })
    ));
    assert!(matches!(
        schedule.replay(&MaxKernel, &seeded(W * W, 0)),
        Err(ReplayUnsupported::KernelMismatch { .. })
    ));
}
