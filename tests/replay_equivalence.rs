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
use smache::system::{ReplayMode, RunEngine, SmacheSystem};
use smache::{CoreError, HybridMode, SmacheBuilder};
use smache_mem::{ChaosProfile, FaultPlan};
use smache_sim::ReplayUnsupported;
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
    use smache::system::ScheduleStore;
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

/// One canonical encoded store entry, captured once per process.
fn encoded_entry() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut sys = paper_system();
        let (_, schedule) = sys.run_captured(&seeded(W * W, 0), 2).expect("capture");
        smache::system::store::encode_entry((1, 2), &schedule)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corruption safety: ANY single bit flip anywhere in a stored entry
    /// — header, payload or checksum — decodes to a typed [`StoreError`],
    /// never to a plausible-but-wrong schedule.
    #[test]
    fn any_single_bit_flip_yields_a_typed_error(
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let pristine = encoded_entry();
        prop_assert!(smache::system::store::decode_entry(pristine).is_ok());

        let mut bytes = pristine.to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let err = smache::system::store::decode_entry(&bytes)
            .expect_err("flipped entry must not decode");
        prop_assert!(
            ["bad_magic", "unsupported_version", "truncated", "checksum_mismatch", "malformed"]
                .contains(&err.label()),
            "unexpected error class {} at byte {pos} bit {bit}", err.label()
        );
    }

    /// Truncation safety: an entry cut short anywhere decodes to a typed
    /// error.
    #[test]
    fn any_truncation_yields_a_typed_error(cut in any::<usize>()) {
        let pristine = encoded_entry();
        let cut = cut % pristine.len();
        let err = smache::system::store::decode_entry(&pristine[..cut])
            .expect_err("truncated entry must not decode");
        prop_assert!(
            ["truncated", "bad_magic", "checksum_mismatch"].contains(&err.label()),
            "unexpected error class {} at cut {cut}", err.label()
        );
    }
}

/// `encoded_entry` with its gather section replaced by a hand-made CSR
/// table — `starts`, `(tag, value)` slot sources, `masks` — and the header
/// re-sealed (payload length and checksum), so only the decoder's
/// structural checks stand between the entry and a schedule.
fn with_gather(starts: &[u32], sources: &[(u8, u64)], masks: &[u64]) -> Vec<u8> {
    const HEADER_LEN: usize = 56;
    const CHECKSUM_OFFSET: usize = 40;
    let entry = encoded_entry();
    let payload = &entry[HEADER_LEN..];
    let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    // key, kernel name, latency, n, instances — then the gather section.
    let name_len = u32::from_le_bytes(payload[16..20].try_into().unwrap()) as usize;
    let gather_at = 20 + name_len + 24;
    let mut end = gather_at;
    end += 8 + 4 * u64_at(end) as usize;
    end += 8 + 9 * u64_at(end) as usize;
    end += 8 + 8 * u64_at(end) as usize;

    let mut body = payload[..gather_at].to_vec();
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
    body.extend_from_slice(&payload[end..]);

    let mut out = entry[..CHECKSUM_OFFSET].to_vec();
    out[32..40].copy_from_slice(&(body.len() as u64).to_le_bytes());
    let mut covered = out.clone();
    covered.extend_from_slice(&body);
    let (hi, lo) = smache_sim::hash::fingerprint128(&covered);
    out.extend_from_slice(&hi.to_le_bytes());
    out.extend_from_slice(&lo.to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// A hand-made uniform table of `arity`-slot rows, every slot `Grid(0)`.
fn uniform_gather(arity: usize) -> (Vec<u32>, Vec<(u8, u64)>, Vec<u64>) {
    let n = W * W;
    let starts = (0..=n).map(|e| (e * arity) as u32).collect();
    (starts, vec![(0, 0); n * arity], vec![1; n])
}

/// Gather tables replay cannot lower to fixed-arity rows are typed
/// `malformed` errors at load: ragged rows and rows wider than a `u64`
/// kernel mask.
#[test]
fn unlowerable_gather_tables_are_malformed() {
    use smache::system::store::decode_entry;
    let (starts, sources, masks) = uniform_gather(4);
    assert!(decode_entry(&with_gather(&starts, &sources, &masks)).is_ok());

    // Element 0 has 3 slots, element 1 has 5: same total, ragged rows.
    let mut ragged = starts.clone();
    ragged[1] = 3;
    let err = decode_entry(&with_gather(&ragged, &sources, &masks)).unwrap_err();
    assert_eq!(err.label(), "malformed");
    assert!(err.to_string().contains("ragged"), "{err}");

    let (starts, sources, masks) = uniform_gather(65);
    let err = decode_entry(&with_gather(&starts, &sources, &masks)).unwrap_err();
    assert_eq!(err.label(), "malformed");
    assert!(err.to_string().contains("arity 65"), "{err}");
    let (starts, sources, masks) = uniform_gather(64);
    assert!(decode_entry(&with_gather(&starts, &sources, &masks)).is_ok());

    // A grid index outside the grid is malformed too.
    let (starts, mut sources, masks) = uniform_gather(4);
    sources[7] = (0, (W * W) as u64);
    let err = decode_entry(&with_gather(&starts, &sources, &masks)).unwrap_err();
    assert_eq!(err.label(), "malformed");
}

/// `Const(0)` and `Hole` both read a zero, but a constant counts in the
/// kernel and a hole does not: they must survive the store as distinct
/// sources, re-encode to the same bytes, and replay differently.
#[test]
fn const_zero_and_hole_round_trip_as_distinct_sources() {
    use smache::system::store::{decode_entry, encode_entry};
    use smache_sim::SlotSource;
    let n = W * W;
    let starts: Vec<u32> = (0..=n).map(|e| (e * 4) as u32).collect();
    // Slots: self, Const(0), Hole, Const(7); the hole is masked out.
    let sources: Vec<(u8, u64)> = (0..n)
        .flat_map(|e| [(0, e as u64), (1, 0), (2, 0), (1, 7)])
        .collect();
    let bytes = with_gather(&starts, &sources, &vec![0b1011; n]);
    let (key, schedule) = decode_entry(&bytes).expect("decode");
    assert_eq!(
        schedule.gather().slots(5).collect::<Vec<_>>(),
        [
            SlotSource::Grid(5),
            SlotSource::Const(0),
            SlotSource::Hole,
            SlotSource::Const(7),
        ]
    );
    assert_eq!(encode_entry(key, &schedule), bytes);

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
