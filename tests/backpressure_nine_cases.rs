//! Golden-equivalence regression *under back-pressure*, pinned per
//! boundary case, plus the drain cycles of the AXI boundary.
//!
//! The 11×11 validation grid exhibits all nine 2D boundary cases (four
//! corners, four edges, interior). For a matrix of stall schedules — both
//! periodic consumer stalls and seeded chaos stall storms — each case's
//! representative element must equal the golden functional model, and the
//! stream must drain on a pinned cycle. This is the "correct under any
//! stall pattern" claim of the paper's stall-signal integration, sliced by
//! boundary case so a regression names the case it broke.

use smache::prelude::*;
use smache::system::axi::{AxiSmache, StallFuzzSink};
use smache_sim::{Simulator, StreamLink, StreamSink};
use smache_stencil::Case2d;

const W: usize = 11;

/// One representative element per boundary case, `(case, row, col)`.
const REPRESENTATIVES: [(Case2d, usize, usize); 9] = [
    (Case2d::NorthWest, 0, 0),
    (Case2d::North, 0, 5),
    (Case2d::NorthEast, 0, 10),
    (Case2d::West, 5, 0),
    (Case2d::Interior, 5, 5),
    (Case2d::East, 5, 10),
    (Case2d::SouthWest, 10, 0),
    (Case2d::South, 10, 5),
    (Case2d::SouthEast, 10, 10),
];

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

fn paper_system(w: usize) -> SmacheSystem {
    SmacheBuilder::new(GridSpec::d2(w, w).expect("grid"))
        .build()
        .expect("system")
}

/// Runs the `w`×`w` paper case through the AXI boundary with a consumer
/// that stalls on cycle `phase` of every `period` (0 = never).
/// Returns the streamed words and the drain cycle.
fn run_axi(w: usize, input: &[Word], instances: u64, period: u64, phase: u64) -> (Vec<Word>, u64) {
    let mut sim = Simulator::new();
    let link = StreamLink::new(sim.ctx(), "results");
    let axi = AxiSmache::new(paper_system(w), link.clone(), input, instances).expect("arm");
    sim.add(Box::new(axi));
    let (sink, buf) = if period == 0 {
        StreamSink::new("consumer", link)
    } else {
        StreamSink::with_stalls("consumer", link, period, phase)
    };
    sim.add(Box::new(sink));
    let expect = (w * w) as u64 * instances;
    let done = sim
        .run_until(200_000, "stalled stream", |_| {
            buf.borrow().len() as u64 == expect
        })
        .expect("completes");
    let out: Vec<Word> = buf.borrow().iter().map(|b| b.data).collect();
    (out, done)
}

/// Runs the 11×11 paper case with a consumer that stalls on cycle
/// `period / 2` of every `period` (0 = never).
fn run_periodic(input: &[Word], instances: u64, period: u64) -> (Vec<Word>, u64) {
    run_axi(W, input, instances, period, period / 2)
}

/// Runs with a seeded chaos consumer (stall storms on `ready`).
fn run_stormy(input: &[Word], instances: u64, seed: u64) -> (Vec<Word>, u64) {
    let mut sim = Simulator::new();
    let link = StreamLink::new(sim.ctx(), "results");
    let axi = AxiSmache::new(paper_system(W), link.clone(), input, instances).expect("arm");
    sim.add(Box::new(axi));
    let plan = FaultPlan::new(seed, ChaosProfile::storms());
    let (sink, buf, probe) = StallFuzzSink::new("consumer", link, plan, (W * W) as u64);
    sim.add(Box::new(sink));
    let expect = (W * W) as u64 * instances;
    let done = sim
        .run_until(400_000, "stormy stream", |_| {
            buf.borrow().len() as u64 == expect
        })
        .expect("completes");
    assert!(probe.borrow().violation.is_none());
    let out: Vec<Word> = buf.borrow().iter().map(|b| b.data).collect();
    (out, done)
}

/// Asserts per-case equality of the final instance against the golden
/// model, naming the boundary case on failure.
fn assert_nine_cases(tag: &str, out: &[Word], golden: &[Word]) {
    let last = &out[out.len() - W * W..];
    for (case, r, c) in REPRESENTATIVES {
        assert_eq!(Case2d::classify(r, c, W, W).expect("in grid"), case);
        assert_eq!(
            last[r * W + c],
            golden[r * W + c],
            "{tag}: boundary case {case:?} at ({r},{c})"
        );
    }
    // And the whole grid, not just the representatives.
    assert_eq!(last, golden, "{tag}: full grid");
}

#[test]
fn nine_cases_under_periodic_backpressure() {
    let input: Vec<Word> = (0..(W * W) as u64).map(|i| i * 5 + 3).collect();
    let golden = paper_golden(&input, 2);
    for (period, drain) in [(0u64, 315u64), (2, 555), (3, 435), (7, 355)] {
        let (out, done) = run_periodic(&input, 2, period);
        assert_eq!(done, drain, "period {period}: drain cycle");
        assert_nine_cases(&format!("period {period}"), &out, &golden);
    }
}

#[test]
fn nine_cases_under_chaos_storms() {
    let input: Vec<Word> = (0..(W * W) as u64).map(|i| i * 9 + 1).collect();
    let golden = paper_golden(&input, 2);
    for (seed, drain) in [(1u64, 382u64), (17, 380), (4096, 336)] {
        let (out, done) = run_stormy(&input, 2, seed);
        assert_eq!(done, drain, "seed {seed}: drain cycle");
        assert_nine_cases(&format!("storm seed {seed}"), &out, &golden);
    }
}

/// The AXI boundary's drain cycles on the paper case, with a free-running
/// consumer and with one that stalls on the first cycle of every three.
#[test]
fn axi_drain_cycles_are_pinned() {
    for (w, instances, period, drain) in [
        (64usize, 4u64, 0u64, 16_817u64),
        (64, 4, 3, 25_007),
        (11, 100, 3, 19_838),
    ] {
        let input: Vec<Word> = (0..(w * w) as u64).collect();
        let (out, done) = run_axi(w, &input, instances, period, 0);
        assert_eq!(out.len() as u64, (w * w) as u64 * instances);
        assert_eq!(
            done, drain,
            "{w}x{w}, {instances} instance(s), stall period {period}"
        );
    }
}

#[test]
fn backpressure_only_costs_cycles_never_beats() {
    let input: Vec<Word> = (0..(W * W) as u64).collect();
    let (free, free_done) = run_periodic(&input, 1, 0);
    let (slow, slow_done) = run_periodic(&input, 1, 2);
    assert_eq!(free, slow, "stalls must not change the data");
    assert!(
        slow_done > free_done,
        "stalling every other cycle must cost time ({slow_done} vs {free_done})"
    );
}
