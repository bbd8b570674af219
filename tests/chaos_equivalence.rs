//! The chaos harness contract, end to end:
//!
//! 1. **Absorption** — for hundreds of random *latency-only* fault plans
//!    (DRAM jitter, stall storms, FIFO slow-drain, fuzzed downstream
//!    `ready`), the streamed output is bit-exact against the golden
//!    functional model. Faults may only cost cycles, never correctness.
//! 2. **Detection** — every *data-corrupting* plan (single-bit DRAM read
//!    flips, dropped/duplicated stream beats) surfaces as a typed
//!    [`CoreError::FaultDetected`] carrying cycle, FSM-phase and component
//!    provenance. Zero silent corruptions.

use proptest::prelude::*;
use smache::prelude::*;
use smache::system::axi::{AxiSmache, StallFuzzSink, StallFuzzSource};
use smache_sim::{Beat, Simulator, StreamLink};

const W: usize = 11;
/// Narrow DRAM reads per single-instance run on the paper grid: 22-word
/// warm-up prefetch + 121 streamed elements.
const READS_PER_INSTANCE: u64 = 143;

/// Deterministic pseudo-random input grid (self-contained, no rand crate).
fn grid_input(seed: u64) -> Vec<Word> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..(W * W))
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % (1 << 20)
        })
        .collect()
}

fn paper_golden(input: &[Word], instances: u64) -> Vec<Word> {
    golden_run(
        &GridSpec::d2(W, W).expect("grid"),
        &BoundarySpec::paper_case(),
        &StencilShape::four_point_2d(),
        &AverageKernel,
        input,
        instances,
    )
    .expect("golden")
}

/// One of the latency-only profile shapes, indexed for proptest.
fn latency_profile(which: u8) -> ChaosProfile {
    match which % 4 {
        0 => ChaosProfile::jitter(),
        1 => ChaosProfile::storms(),
        2 => ChaosProfile::drain(),
        _ => ChaosProfile::heavy(),
    }
}

/// Runs the paper system under `plan` through the AXI boundary with a
/// ready-fuzzing consumer. Returns the streamed words.
fn run_fuzzed(plan: FaultPlan, input: &[Word], instances: u64) -> Vec<Word> {
    let mut sim = Simulator::new();
    let system = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .fault_plan(plan)
        .build()
        .expect("system");
    let link = StreamLink::new(sim.ctx(), "results");
    let axi = AxiSmache::new(system, link.clone(), input, instances).expect("arm");
    sim.add(Box::new(axi));
    let (sink, buf, probe) = StallFuzzSink::new("fuzz-consumer", link, plan, (W * W) as u64);
    sim.add(Box::new(sink));

    let expect = (W * W) as u64 * instances;
    sim.run_until(400_000, "fuzzed stream completion", |_| {
        buf.borrow().len() as u64 == expect
    })
    .expect("latency-only chaos must not wedge the pipeline");
    assert!(
        probe.borrow().violation.is_none(),
        "a correct producer never trips the sequence checker"
    );
    let out: Vec<Word> = buf.borrow().iter().map(|b| b.data).collect();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// 200 random latency-only fault plans: output always bit-exact
    /// against the golden model.
    #[test]
    fn latency_only_plans_are_absorbed(
        seed in any::<u64>(),
        which in 0u8..4,
        input_seed in 0u64..1_000,
        instances in 1u64..3,
    ) {
        let plan = FaultPlan::new(seed, latency_profile(which));
        let input = grid_input(input_seed);
        let golden = paper_golden(&input, instances);

        let out = run_fuzzed(plan, &input, instances);
        let last = &out[out.len() - W * W..];
        prop_assert_eq!(last, &golden[..], "output must be golden");
    }
}

/// Every single-bit DRAM flip plan is *detected*: the run fails with a
/// typed diagnostic naming the DRAM, the bit, the cycle and the FSM phase
/// — and never returns corrupted output as if it were fine.
#[test]
fn every_bit_flip_plan_is_detected_with_provenance() {
    let input = grid_input(3);
    let golden = paper_golden(&input, 1);
    let mut detected = 0u32;
    for seed in 0..40u64 {
        // Spread the flip target over the whole read schedule, warm-up
        // prefetch included.
        let k = (seed * 7 + 1) % READS_PER_INSTANCE;
        let plan = FaultPlan::new(seed, ChaosProfile::flip(k));
        let mut system = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
            .fault_plan(plan)
            .build()
            .expect("system");
        match system.run(&input, 1) {
            Err(CoreError::FaultDetected(d)) => {
                assert_eq!(d.component, "mem.dram", "seed {seed}");
                assert!(d.cycle > 0, "seed {seed}");
                assert!(d.detail < 32, "flipped bit position, seed {seed}");
                assert!(
                    d.phase == "FSM-1 warm-up" || d.phase == "FSM-2/3 streaming",
                    "seed {seed}: phase {}",
                    d.phase
                );
                detected += 1;
            }
            Err(other) => panic!("seed {seed}: wrong error {other}"),
            Ok(report) => panic!(
                "seed {seed}: silent corruption — run succeeded (output {} golden)",
                if report.output == golden { "==" } else { "!=" }
            ),
        }
    }
    assert_eq!(detected, 40, "all flip plans detected, zero silent");
}

/// Dropped and duplicated beats on the stream are caught by the fuzz sink's
/// sequence checker with AXI provenance.
#[test]
fn stream_drop_and_dup_plans_are_detected() {
    for seed in 0..10u64 {
        for corrupt in [
            ChaosProfile {
                drop_beat: Some(seed * 3 % 40),
                ..ChaosProfile::storms()
            },
            ChaosProfile {
                dup_beat: Some(seed * 5 % 40),
                ..ChaosProfile::storms()
            },
        ] {
            let plan = FaultPlan::new(seed, corrupt);
            let mut sim = Simulator::new();
            let link = StreamLink::new(sim.ctx(), "fuzzed");
            let items: Vec<Beat> = (0..48u64)
                .map(|i| Beat {
                    data: i * 11 + 1,
                    index: i % 24,
                    instance: i / 24,
                })
                .collect();
            let n = items.len() + usize::from(corrupt.dup_beat.is_some())
                - usize::from(corrupt.drop_beat.is_some());
            let source = StallFuzzSource::new("src", link.clone(), plan, items);
            let (sink, buf, probe) = StallFuzzSink::new("dst", link, plan, 24);
            sim.add(Box::new(source));
            sim.add(Box::new(sink));
            sim.run_until(20_000, "drained", |_| buf.borrow().len() == n)
                .expect("drains");
            let err = probe
                .borrow()
                .error()
                .unwrap_or_else(|| panic!("seed {seed}: corruption went undetected"));
            match err {
                CoreError::FaultDetected(d) => {
                    assert_eq!(d.component, "axi.stream", "seed {seed}");
                    assert_eq!(d.phase, "AXI stream", "seed {seed}");
                }
                other => panic!("seed {seed}: wrong error {other}"),
            }
        }
    }
}

/// The reproducibility contract: the same plan and input give the same
/// cycle count, fault counters and output on every run.
#[test]
fn same_plan_same_schedule() {
    let input = grid_input(9);
    let plan = FaultPlan::new(0xDEAD_BEEF, ChaosProfile::heavy());
    let run = |_: u32| {
        let mut system = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
            .fault_plan(plan)
            .build()
            .expect("system");
        system.run(&input, 2).expect("latency-only")
    };
    let a = run(0);
    let b = run(1);
    assert_eq!(a.metrics.cycles, b.metrics.cycles);
    assert_eq!(a.metrics.faults, b.metrics.faults);
    assert_eq!(a.fault_events, b.fault_events);
    assert_eq!(a.output, b.output);
}
