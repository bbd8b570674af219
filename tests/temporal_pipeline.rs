//! Tentpole acceptance for the temporal-blocking pipeline: a
//! [`TemporalPipeline`] with T chained stages must be **bit-exact**
//! against T sequential single-step [`SmacheSystem`] runs —
//!
//! * across the paper's nine-boundary-case 11×11 grid,
//! * across ≥16 random specs (grid, boundaries, shape, depth, channels),
//! * when the pipeline is clocked externally as a [`smache_sim::Module`],
//! * and a captured pipelined [`ControlSchedule`] must replay fresh data
//!   bit-exactly against full simulation.

use std::cell::RefCell;
use std::rc::Rc;

use smache::prelude::*;
use smache_sim::Simulator;

/// Self-contained xorshift step (no rand crate in tier-1 tests).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn rand_input(n: usize, seed: u64) -> Vec<Word> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..n).map(|_| xorshift(&mut s) % (1 << 20)).collect()
}

/// `steps` sequential single-step [`SmacheSystem`] runs, each feeding the
/// previous step's output back in — the reference the pipeline must match.
fn sequential_single_steps(
    grid: &GridSpec,
    bounds: &BoundarySpec,
    shape: &StencilShape,
    input: &[Word],
    steps: u64,
) -> Vec<Word> {
    let mut state = input.to_vec();
    for step in 0..steps {
        let mut system = SmacheBuilder::new(grid.clone())
            .shape(shape.clone())
            .boundaries(bounds.clone())
            .hybrid(HybridMode::default())
            .build()
            .expect("single-step system");
        state = system
            .run(&state, 1)
            .unwrap_or_else(|e| panic!("sequential step {step}: {e}"))
            .output;
    }
    state
}

fn pipeline_for(
    grid: &GridSpec,
    bounds: &BoundarySpec,
    shape: &StencilShape,
    config: PipelineConfig,
) -> TemporalPipeline {
    let plan = SmacheBuilder::new(grid.clone())
        .shape(shape.clone())
        .boundaries(bounds.clone())
        .hybrid(HybridMode::default())
        .plan()
        .expect("plan");
    TemporalPipeline::new(plan, Box::new(AverageKernel), config).expect("pipeline")
}

#[test]
fn t_stages_match_t_sequential_single_steps_on_the_nine_case_grid() {
    let grid = GridSpec::d2(11, 11).expect("grid");
    let bounds = BoundarySpec::paper_case();
    let shape = StencilShape::four_point_2d();
    let input: Vec<Word> = (0..grid.len() as Word).collect();

    for depth in [2usize, 3, 4] {
        for passes in [1u64, 2] {
            let steps = depth as u64 * passes;
            let reference = sequential_single_steps(&grid, &bounds, &shape, &input, steps);
            let golden =
                golden_run(&grid, &bounds, &shape, &AverageKernel, &input, steps).expect("golden");
            assert_eq!(
                reference, golden,
                "sequential reference must itself match golden (steps {steps})"
            );

            let mut pipe = pipeline_for(
                &grid,
                &bounds,
                &shape,
                PipelineConfig {
                    depth,
                    ..Default::default()
                },
            );
            let report = pipe.run(&input, passes).expect("pipeline run");
            assert_eq!(
                report.output, reference,
                "depth {depth} x {passes} pass(es) diverged from {steps} sequential steps"
            );
        }
    }
}

#[test]
fn sixteen_random_specs_match_the_sequential_reference() {
    const KINDS: [Boundary; 4] = [
        Boundary::Open,
        Boundary::Circular,
        Boundary::Mirror,
        Boundary::Constant(9),
    ];
    let mut seed = 0x5eed_cafe_u64;
    for case in 0..16u32 {
        let h = 4 + (xorshift(&mut seed) % 8) as usize;
        let w = 4 + (xorshift(&mut seed) % 8) as usize;
        let grid = GridSpec::d2(h, w).expect("grid");
        let bounds = BoundarySpec::new(&[
            AxisBoundaries {
                low: KINDS[(xorshift(&mut seed) % 4) as usize],
                high: KINDS[(xorshift(&mut seed) % 4) as usize],
            },
            AxisBoundaries {
                low: KINDS[(xorshift(&mut seed) % 4) as usize],
                high: KINDS[(xorshift(&mut seed) % 4) as usize],
            },
        ])
        .expect("bounds");
        let shape = match xorshift(&mut seed) % 3 {
            0 => StencilShape::four_point_2d(),
            1 => StencilShape::five_point_2d(),
            _ => StencilShape::nine_point_2d(),
        };
        let depth = 2 + (xorshift(&mut seed) % 3) as usize;
        let passes = 1 + xorshift(&mut seed) % 2;
        let channels = 1 + (xorshift(&mut seed) % 4) as usize;
        let input = rand_input(grid.len(), seed);

        let steps = depth as u64 * passes;
        let reference = sequential_single_steps(&grid, &bounds, &shape, &input, steps);
        let mut pipe = pipeline_for(
            &grid,
            &bounds,
            &shape,
            PipelineConfig {
                depth,
                channels,
                ..Default::default()
            },
        );
        let report = pipe
            .run(&input, passes)
            .unwrap_or_else(|e| panic!("case {case} ({h}x{w}, depth {depth}): {e}"));
        assert_eq!(
            report.output, reference,
            "case {case}: {h}x{w} {bounds:?} depth {depth} x {passes} pass(es), \
             {channels} channel(s) diverged from the sequential reference"
        );
    }
}

/// Wraps an armed [`TemporalPipeline`] as a [`smache_sim::Module`]: one
/// [`TemporalPipeline::step`] per simulator commit, so the whole
/// pipeline advances under the simulator's clock.
struct PipeModule {
    inner: Rc<RefCell<PipeState>>,
}

struct PipeState {
    pipe: TemporalPipeline,
    error: Option<CoreError>,
}

impl smache_sim::Module for PipeModule {
    fn name(&self) -> &str {
        "temporal-pipeline"
    }

    fn eval(&mut self, _cycle: u64) {}

    fn commit(&mut self, _cycle: u64) {
        let mut st = self.inner.borrow_mut();
        if st.error.is_some() || st.pipe.finished() {
            return;
        }
        if let Err(e) = st.pipe.step() {
            st.error = Some(e);
        }
    }
}

/// Arms a pipeline, clocks it to completion inside a [`Simulator`], and
/// returns the output grid plus the drain cycle.
fn run_in_simulator(config: PipelineConfig, input: &[Word], passes: u64) -> (Vec<Word>, u64) {
    let grid = GridSpec::d2(11, 11).expect("grid");
    let bounds = BoundarySpec::paper_case();
    let shape = StencilShape::four_point_2d();
    let mut pipe = pipeline_for(&grid, &bounds, &shape, config);
    pipe.arm(input, passes).expect("arm");

    let inner = Rc::new(RefCell::new(PipeState { pipe, error: None }));
    let mut sim = Simulator::new();
    sim.add(Box::new(PipeModule {
        inner: Rc::clone(&inner),
    }));
    let probe = Rc::clone(&inner);
    let done_at = sim
        .run_until(400_000, "externally clocked pipeline drain", move |_| {
            let st = probe.borrow();
            st.pipe.finished() || st.error.is_some()
        })
        .expect("pipeline must drain under the simulator clock");

    let mut st = inner.borrow_mut();
    if let Some(e) = st.error.take() {
        panic!("pipeline fault under the simulator clock: {e}");
    }
    let output = st.pipe.armed_output().expect("armed output");
    (output, done_at)
}

#[test]
fn the_simulator_clocks_the_pipeline_like_a_direct_run() {
    let grid = GridSpec::d2(11, 11).expect("grid");
    let bounds = BoundarySpec::paper_case();
    let shape = StencilShape::four_point_2d();
    let input = rand_input(grid.len(), 0xabad_1dea);

    for (depth, channels, passes) in [(2usize, 1usize, 2u64), (4, 2, 1), (3, 4, 2)] {
        let config = PipelineConfig {
            depth,
            channels,
            ..Default::default()
        };
        let steps = depth as u64 * passes;
        let reference = sequential_single_steps(&grid, &bounds, &shape, &input, steps);

        let (out, drain) = run_in_simulator(config, &input, passes);
        assert_eq!(
            out, reference,
            "externally clocked pipeline diverged from {steps} sequential steps"
        );

        // The internally clocked run (TemporalPipeline::run) agrees too,
        // on the output and on the drain cycle.
        let mut pipe = pipeline_for(&grid, &bounds, &shape, config);
        let report = pipe.run(&input, passes).expect("direct run");
        assert_eq!(report.output, out, "direct run diverged");
        assert_eq!(
            report.metrics.cycles, drain,
            "drain cycle (depth {depth}, {channels} ch)"
        );
    }
}

#[test]
fn captured_pipelined_schedule_replays_fresh_data_bit_exactly() {
    let grid = GridSpec::d2(11, 11).expect("grid");
    let bounds = BoundarySpec::paper_case();
    let shape = StencilShape::four_point_2d();
    let config = PipelineConfig {
        depth: 3,
        channels: 2,
        ..Default::default()
    };
    let input = rand_input(grid.len(), 1);
    let passes = 2;

    let mut pipe = pipeline_for(&grid, &bounds, &shape, config);
    let (report, schedule) = pipe.run_captured(&input, passes).expect("capture");
    let replayed = schedule.replay(&AverageKernel, &input).expect("replay");
    assert_eq!(
        replayed.output, report.output,
        "replay of the captured input diverged from full simulation"
    );

    // Fresh data through the captured control plane vs full simulation.
    let fresh = rand_input(grid.len(), 2);
    let mut pipe2 = pipeline_for(&grid, &bounds, &shape, config);
    let full = pipe2.run(&fresh, passes).expect("full sim");
    let replayed_fresh = schedule
        .replay(&AverageKernel, &fresh)
        .expect("replay fresh");
    assert_eq!(
        replayed_fresh.output, full.output,
        "replaying fresh data through the pipelined schedule diverged"
    );
    assert_eq!(
        full.output,
        sequential_single_steps(&grid, &bounds, &shape, &fresh, 6),
        "full pipelined sim diverged from 6 sequential steps"
    );
}
