//! The settle loop against known answers.
//!
//! The simulator has one scheduler: every delta pass evaluates every
//! module until a full pass changes no wire, then every module commits
//! once. These tests pin what that loop must produce:
//!
//! 1. the paper's full system driven through [`AxiSmache`], covering all
//!    nine boundary cases of the 11×11 validation grid, under randomised
//!    inputs and back-pressure schedules, matches the golden model;
//! 2. randomised combinational adder chains, registered in shuffled
//!    order, settle to their analytically known sum every cycle;
//! 3. a self-feeding inverter is reported as a combinational loop
//!    instead of hanging the simulator.

use proptest::prelude::*;
use smache::arch::kernel::AverageKernel;
use smache::functional::golden::golden_run;
use smache::system::axi::AxiSmache;
use smache::SmacheBuilder;
use smache_sim::{Module, SimCtx, Simulator, StreamLink, StreamSink, Wire};
use smache_stencil::{BoundarySpec, Case2d, CaseCounts, GridSpec, StencilShape};

const W: usize = 11;

/// Deterministic pseudo-random input grid (kept free of the rand crate so
/// the test is self-contained).
fn grid_input(seed: u64) -> Vec<u64> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..(W * W))
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % (1 << 20)
        })
        .collect()
}

/// Runs the paper's 11×11 system through [`AxiSmache`] with a consumer
/// that stalls once every `stall_period` cycles (0 = never). Returns the
/// collected output words.
fn run_axi(input: &[u64], instances: u64, stall_period: u64, stall_phase: u64) -> Vec<u64> {
    let mut sim = Simulator::new();
    let system = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .shape(StencilShape::four_point_2d())
        .boundaries(BoundarySpec::paper_case())
        .build()
        .expect("system");
    let link = StreamLink::new(sim.ctx(), "results");
    let axi = AxiSmache::new(system, link.clone(), input, instances).expect("arm");
    sim.add(Box::new(axi));
    let (sink, buf) = if stall_period == 0 {
        StreamSink::new("consumer", link)
    } else {
        StreamSink::with_stalls("consumer", link, stall_period, stall_phase)
    };
    sim.add(Box::new(sink));

    let expect = (W * W) as u64 * instances;
    sim.run_until(100_000, "stream completion", |_| {
        buf.borrow().len() as u64 == expect
    })
    .expect("pipeline completes");
    let out: Vec<u64> = buf.borrow().iter().map(|b| b.data).collect();
    out
}

/// The reference result: golden functional model, last instance's output.
fn golden(input: &[u64], instances: u64) -> Vec<u64> {
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

#[test]
fn nine_cases_match_the_golden_model() {
    // The validation grid exhibits all nine boundary cases; a full-system
    // run therefore exercises every case.
    let counts = CaseCounts::for_grid(&GridSpec::d2(W, W).expect("grid")).expect("2d");
    assert_eq!(counts.distinct_cases(), 9);

    let input: Vec<u64> = (0..(W * W) as u64).collect();
    let out = run_axi(&input, 2, 3, 0);
    let last = &out[out.len() - W * W..];
    assert_eq!(
        last,
        golden(&input, 2),
        "output must match the golden model"
    );

    // Spot-check one representative of each of the nine cases in the final
    // instance's output (order of delivery is row-major, like the grid).
    for (case, r, c) in [
        (Case2d::NorthWest, 0usize, 0usize),
        (Case2d::North, 0, 5),
        (Case2d::NorthEast, 0, 10),
        (Case2d::West, 5, 0),
        (Case2d::Interior, 5, 5),
        (Case2d::East, 5, 10),
        (Case2d::SouthWest, 10, 0),
        (Case2d::South, 10, 5),
        (Case2d::SouthEast, 10, 10),
    ] {
        assert_eq!(Case2d::classify(r, c, W, W).expect("in grid"), case);
        assert_eq!(last[r * W + c], golden(&input, 2)[r * W + c], "{case:?}");
    }
}

proptest! {
    /// Random inputs, instance counts and back-pressure schedules: the last
    /// instance streamed out always matches the golden model.
    #[test]
    fn axi_pipeline_equivalent_under_random_stalls(
        seed in 0u64..1_000,
        instances in 1u64..3,
        stall_period in 0u64..5,
        stall_phase in 0u64..5,
    ) {
        // Period 1 would stall on every cycle and never drain the stream;
        // fold it into the "never stalls" case.
        let stall_period = if stall_period == 1 { 0 } else { stall_period };
        let input = grid_input(seed);
        let out = run_axi(&input, instances, stall_period, stall_phase);
        let last = &out[out.len() - W * W..];
        prop_assert_eq!(last, &golden(&input, instances)[..]);
    }
}

// ---------------------------------------------------------------------------
// Randomised combinational chains in shuffled registration order.
// ---------------------------------------------------------------------------

/// `out = in + addend`: one combinational stage.
struct Adder {
    name: String,
    input: Wire<u64>,
    out: Wire<u64>,
    addend: u64,
}

impl Module for Adder {
    fn name(&self) -> &str {
        &self.name
    }
    fn eval(&mut self, _cycle: u64) {
        self.out.drive(self.input.get() + self.addend);
    }
    fn commit(&mut self, _cycle: u64) {}
}

/// Root of the chain: drives the head wire from a per-cycle counter, the
/// way a register bank feeds a combinational cloud.
struct Driver {
    head: Wire<u64>,
    scale: u64,
}

impl Module for Driver {
    fn name(&self) -> &str {
        "driver"
    }
    fn eval(&mut self, cycle: u64) {
        self.head.drive(cycle * self.scale);
    }
    fn commit(&mut self, _cycle: u64) {}
}

/// Builds an adder chain of `depth` stages over fresh wires, registering
/// stages in an order shuffled by `order_seed`. Returns the tail wire.
fn build_chain(
    sim: &mut Simulator,
    ctx: &SimCtx,
    depth: usize,
    addends: &[u64],
    order_seed: u64,
) -> Wire<u64> {
    let wires: Vec<Wire<u64>> = (0..=depth)
        .map(|i| ctx.wire(&format!("w{i}"), 0u64))
        .collect();
    sim.add(Box::new(Driver {
        head: wires[0].clone(),
        scale: 3,
    }));

    // A deterministic shuffle of the stage registration order.
    let mut order: Vec<usize> = (0..depth).collect();
    let mut x = order_seed
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add(1);
    for i in (1..depth).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }

    for &i in &order {
        sim.add(Box::new(Adder {
            name: format!("stage{i}"),
            input: wires[i].clone(),
            out: wires[i + 1].clone(),
            addend: addends[i],
        }));
    }
    wires[depth].clone()
}

proptest! {
    /// Chains of combinational stages, registered in random order, settle
    /// to the analytically known sum.
    #[test]
    fn shuffled_chain_settles_to_the_known_sum(
        depth in 1usize..12,
        order_seed in 0u64..1_000,
        addends in proptest::collection::vec(0u64..100, 12),
    ) {
        let mut sim = Simulator::new();
        let ctx = sim.ctx().clone();
        let tail = build_chain(&mut sim, &ctx, depth, &addends, order_seed);
        for _ in 0..4 {
            sim.step().expect("chain settles");
        }
        let expected = 3 * 3 + addends[..depth].iter().sum::<u64>();
        prop_assert_eq!(tail.get(), expected);
    }
}

#[test]
fn combinational_loop_detected_in_both_modes() {
    // An inverter whose output feeds its own input flips on every delta
    // pass and never settles; the settle loop must report the
    // combinational loop rather than hang. (Two cross-coupled inverters
    // would be bistable — they *settle* — so the self-loop is the real
    // divergence case.) The name predates the removal of the second
    // scheduler mode; the one remaining loop is checked here.
    struct Not {
        wire: Wire<u64>,
    }
    impl Module for Not {
        fn name(&self) -> &str {
            "not"
        }
        fn eval(&mut self, _cycle: u64) {
            self.wire.drive(1 - self.wire.get().min(1));
        }
        fn commit(&mut self, _cycle: u64) {}
    }
    let mut sim = Simulator::new();
    let ctx = sim.ctx().clone();
    let a = ctx.wire("a", 0u64);
    sim.add(Box::new(Not { wire: a }));
    let err = sim.step().expect_err("ring oscillator cannot settle");
    let msg = format!("{err}").to_lowercase();
    assert!(
        msg.contains("loop") || msg.contains("settle"),
        "unexpected error: {msg}"
    );
}
