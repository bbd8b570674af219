//! Oracle for the lowered source rows and the runs replay cuts them into.
//!
//! An engine lowers its plan's per-element sources once
//! ([`SourceRows::lower`]) and its controllers gather from the rows.
//! [`BufferPlan::sources_for`] stays the reference: for every element and
//! slot, the decoded row must equal it exactly — tap position, static
//! bank, slot and port, constant and hole — and a plan the reference
//! refuses must not lower.
//!
//! A sealed schedule keeps the rows in run form ([`GatherTable::to_runs`]):
//! per run its first element, row and mask. The runs must cover every
//! element once, each element must read what its run's first element reads
//! (one grid row on per element, the same constant or hole), no two
//! neighbouring runs may merge below the cap, every element must decode
//! from its run to what `sources_for` gives, and replay at 1, 2, 3 and 16
//! lanes must equal the full simulation and the golden model.

use std::ops::Range;

use proptest::prelude::*;
use smache::arch::kernel::{AverageKernel, Kernel, MaxKernel, WeightedKernel};
use smache::arch::SourceRows;
use smache::config::{Algorithm1, BufferPlan, PlanStrategy, SourceRef};
use smache::functional::golden::golden_run;
use smache::system::{SmacheSystem, SystemConfig};
use smache::SmacheBuilder;
use smache_sim::{GatherRuns, GatherTable, SlotSource};
use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};

/// Checks `rows` against `sources_for` on every element and slot of `plan`.
fn assert_rows_match(plan: &BufferPlan, rows: &SourceRows, case: &str) {
    let mut reference = Vec::new();
    for e in 0..plan.grid.len() {
        plan.sources_for(e, &mut reference).expect("reference");
        assert_eq!(reference.len(), plan.shape.len(), "{case}: element {e}");
        for (p, want) in reference.iter().enumerate() {
            assert_eq!(rows.source(e, p), *want, "{case}: element {e} slot {p}");
        }
    }
}

/// Lowers `plan` and checks it; a plan the reference refuses for some
/// element must not lower. Returns whether the plan lowered.
fn check_plan(plan: &BufferPlan, case: &str) -> bool {
    match SourceRows::lower(plan) {
        Ok(rows) => {
            assert_rows_match(plan, &rows, case);
            true
        }
        Err(err) => {
            let mut scratch = Vec::new();
            let refused = (0..plan.grid.len()).any(|e| plan.sources_for(e, &mut scratch).is_err());
            assert!(
                refused,
                "{case}: lowering refused ({err}) a plan the reference serves"
            );
            false
        }
    }
}

/// Builds the engine at `lanes` (when it takes the plan) and checks the
/// rows its stages gather from.
fn check_engine(plan: &BufferPlan, lanes: usize, case: &str) {
    let mut config = SystemConfig::default();
    config.dram.bus_words = lanes;
    if let Ok(sys) = SmacheSystem::new(plan.clone(), Box::new(AverageKernel), config) {
        assert_rows_match(plan, sys.source_rows(), &format!("{case} lanes={lanes}"));
    }
}

/// True when element `e` reads what the run starting at element `s`
/// reads, `e − s` elements on: the same mask, grid index `g + (e − s)`
/// wherever `s` reads grid index `g`, and the same constant or hole
/// elsewhere.
fn follows(table: &GatherTable, s: usize, e: usize) -> bool {
    table.row(e).1 == table.row(s).1
        && (0..table.arity()).all(|p| match (table.source(s, p), table.source(e, p)) {
            (SlotSource::Grid(g), SlotSource::Grid(r)) => r as usize == g as usize + (e - s),
            (SlotSource::Grid(_), _) => false,
            (first, other) => first == other,
        })
}

/// Checks `table`'s run form `cut`: its runs cover `0..n` exactly once
/// and in order, each element follows its run's first element,
/// neighbouring runs cannot merge unless the first is at the cap, and
/// `longest` is the longest.
fn assert_runs_partition(table: &GatherTable, cut: &GatherRuns, case: &str) {
    let runs: Vec<Range<usize>> = cut.iter().collect();
    assert_eq!(runs.len(), cut.len(), "{case}");
    let mut next = 0;
    for run in &runs {
        assert_eq!(run.start, next, "{case}: runs leave a gap or overlap");
        assert!(
            !run.is_empty() && run.len() <= GatherTable::MAX_RUN,
            "{case}: {run:?}"
        );
        for e in run.clone() {
            assert!(
                follows(table, run.start, e),
                "{case}: element {e} breaks {run:?}"
            );
        }
        next = run.end;
    }
    assert_eq!(next, table.len(), "{case}: runs stop short");
    for pair in runs.windows(2) {
        assert!(
            pair[0].len() == GatherTable::MAX_RUN || !follows(table, pair[0].start, pair[1].start),
            "{case}: {:?} and {:?} could merge",
            pair[0],
            pair[1]
        );
    }
    let longest = runs.iter().map(|r| r.len()).max().unwrap_or(0);
    assert_eq!(cut.longest(), longest, "{case}");
}

/// Checks that every element of `plan` decodes from its run in `cut` to
/// what `sources_for` gives: the grid index a tap or static read reads,
/// the constant, or a hole, and a mask bit set for every present slot.
fn assert_runs_decode(plan: &BufferPlan, cut: &GatherRuns, case: &str) {
    let mut reference = Vec::new();
    for e in 0..plan.grid.len() {
        plan.sources_for(e, &mut reference).expect("reference");
        let mut mask = 0u64;
        for (p, source) in reference.iter().enumerate() {
            let want = match *source {
                None => SlotSource::Hole,
                Some(SourceRef::Constant(v)) => SlotSource::Const(v),
                Some(SourceRef::Tap { pos }) => {
                    SlotSource::Grid((e + plan.lookahead + 1 - pos) as u32)
                }
                Some(SourceRef::Static { buffer, slot, .. }) => {
                    let bank = &plan.static_buffers[buffer];
                    SlotSource::Grid(if plan.statics_are_regions {
                        (bank.region_start + slot) as u32
                    } else {
                        (e as i64 + bank.offset) as u32
                    })
                }
            };
            if source.is_some() {
                mask |= 1 << p;
            }
            assert_eq!(cut.source(e, p), want, "{case}: element {e} slot {p}");
        }
        assert_eq!(cut.mask(e), mask, "{case}: element {e} mask");
    }
}

/// Instances each replay check runs: odd, so the replay buffers end
/// swapped.
const REPLAY_INSTANCES: u64 = 3;

/// Captures `plan` with `kernel` on a one-lane engine and replays 16
/// seeded inputs at 1, 2, 3 and 16 lanes: every lane must equal
/// `golden_run`, and the first two lanes a full simulation too (the
/// capture run's, and one more).
fn check_replay(plan: &BufferPlan, kernel: &dyn Fn() -> Box<dyn Kernel>, case: &str) {
    let Ok(mut sys) = SmacheSystem::new(plan.clone(), kernel(), SystemConfig::default()) else {
        return;
    };
    let n = plan.grid.len();
    let inputs: Vec<Vec<u64>> = (0..16).map(|s| smache::spec::seeded_input(n, s)).collect();
    let (captured, schedule) = sys
        .run_captured(&inputs[0], REPLAY_INSTANCES)
        .unwrap_or_else(|e| panic!("{case}: capture refused: {e}"));
    assert_runs_partition(sys.source_rows().gather(), schedule.gather(), case);
    assert_runs_decode(plan, schedule.gather(), case);
    let k = kernel();
    let golden: Vec<Vec<u64>> = inputs
        .iter()
        .map(|input| {
            golden_run(
                &plan.grid,
                &plan.bounds,
                &plan.shape,
                k.as_ref(),
                input,
                REPLAY_INSTANCES,
            )
            .expect("golden")
        })
        .collect();
    let full = [
        captured.output,
        SmacheSystem::new(plan.clone(), kernel(), SystemConfig::default())
            .and_then(|mut sys| sys.run(&inputs[1], REPLAY_INSTANCES))
            .expect("full simulation")
            .output,
    ];
    let views: Vec<&[u64]> = inputs.iter().map(Vec::as_slice).collect();
    for lanes in [1, 2, 3, 16] {
        let reports = schedule
            .replay_lanes(k.as_ref(), &views[..lanes])
            .unwrap_or_else(|e| panic!("{case}: replay refused: {e}"));
        assert_eq!(reports.len(), lanes, "{case}");
        for (l, report) in reports.iter().enumerate() {
            let what = format!("{case} kernel={} lanes={lanes} lane {l}", k.name());
            assert_eq!(report.output, golden[l], "{what}: golden");
            if let Some(full) = full.get(l) {
                assert_eq!(&report.output, full, "{what}: full simulation");
            }
        }
    }
}

fn average() -> Box<dyn Kernel> {
    Box::new(AverageKernel)
}

/// Kernels whose `apply_lanes` is the trait's default, which reads every
/// slot's words — masked hole slots included — for `plan`'s arity.
fn default_lane_kernels(plan: &BufferPlan) -> [Box<dyn Fn() -> Box<dyn Kernel>>; 2] {
    let arity = plan.shape.len() as u64;
    [
        Box::new(|| Box::new(MaxKernel)),
        Box::new(move || {
            Box::new(WeightedKernel::new("weighted", (1..=arity).collect()).expect("weights"))
        }),
    ]
}

const KINDS: [Boundary; 4] = [
    Boundary::Open,
    Boundary::Circular,
    Boundary::Mirror,
    Boundary::Constant(77),
];

fn shapes_2d() -> Vec<StencilShape> {
    vec![
        StencilShape::four_point_2d(),
        StencilShape::five_point_2d(),
        StencilShape::nine_point_2d(),
        StencilShape::cross_2d(3).expect("cross"),
    ]
}

/// Every row-axis × column-axis boundary kind (the nine open / circular /
/// mirror cases plus constants) × the four 2D shapes × region dedupe off
/// and on, at one and two lanes; each plan's runs and replay too, with
/// the default-lane kernels on constant boundaries without dedupe.
#[test]
fn boundary_matrix_rows_equal_the_reference() {
    let mut lowered = 0;
    for shape in shapes_2d() {
        for rows_kind in KINDS {
            for cols_kind in KINDS {
                let bounds = BoundarySpec::new(&[
                    AxisBoundaries::both(rows_kind),
                    AxisBoundaries::both(cols_kind),
                ])
                .expect("2D");
                for dedupe in [false, true] {
                    let case =
                        format!("{shape:?} rows={rows_kind:?} cols={cols_kind:?} dedupe={dedupe}");
                    let plan = SmacheBuilder::new(GridSpec::d2(11, 13).expect("grid"))
                        .shape(shape.clone())
                        .boundaries(bounds.clone())
                        .dedupe_static_regions(dedupe)
                        .plan()
                        .expect("plan");
                    if check_plan(&plan, &case) {
                        lowered += 1;
                        for lanes in [1, 2] {
                            check_engine(&plan, lanes, &case);
                        }
                        check_replay(&plan, &average, &case);
                        let constant = |b| matches!(b, Boundary::Constant(_));
                        if !dedupe && (constant(rows_kind) || constant(cols_kind)) {
                            for kernel in default_lane_kernels(&plan) {
                                check_replay(&plan, &kernel, &case);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(lowered >= 100, "only {lowered} of 128 plans lowered");
}

#[test]
fn three_d_seven_point_rows_equal_the_reference() {
    for kind in KINDS {
        for dedupe in [false, true] {
            let bounds = BoundarySpec::new(&[
                AxisBoundaries::both(kind),
                AxisBoundaries::both(Boundary::Open),
                AxisBoundaries::both(Boundary::Circular),
            ])
            .expect("3D");
            let plan = SmacheBuilder::new(GridSpec::d3(4, 5, 6).expect("grid"))
                .shape(StencilShape::seven_point_3d())
                .boundaries(bounds)
                .dedupe_static_regions(dedupe)
                .plan()
                .expect("plan");
            let case = format!("3D {kind:?} dedupe={dedupe}");
            assert!(check_plan(&plan, &case), "{case}");
            check_engine(&plan, 1, &case);
        }
    }
}

/// A per-range greedy plan on a tall torus keeps two one-word buffers per
/// row: more static banks than a tag byte names, so banks sharing a tag
/// are told apart by which one serves the slot.
#[test]
fn plans_with_more_banks_than_tags_equal_the_reference() {
    let plan = SmacheBuilder::new(GridSpec::d2(140, 16).expect("grid"))
        .boundaries(BoundarySpec::all_circular(2).expect("torus"))
        .strategy(PlanStrategy::PerRange(Algorithm1::Greedy))
        .plan()
        .expect("plan");
    assert!(
        plan.static_buffers.len() > 254,
        "{} banks",
        plan.static_buffers.len()
    );
    assert!(check_plan(&plan, "greedy torus"));
    check_engine(&plan, 1, "greedy torus");
}

/// A 4×700 grid: its interior rows are longer than the run cap, so
/// runs stop at the cap and the next run picks up where it stopped.
#[test]
fn runs_stop_at_the_cap_on_long_rows() {
    let plan = SmacheBuilder::new(GridSpec::d2(4, 700).expect("grid"))
        .plan()
        .expect("plan");
    assert!(check_plan(&plan, "4x700"));
    let rows = SourceRows::lower(&plan).expect("lowers");
    let runs = rows.gather().to_runs();
    assert_eq!(runs.longest(), GatherTable::MAX_RUN);
    let capped = runs
        .iter()
        .filter(|r| r.len() == GatherTable::MAX_RUN)
        .count();
    assert!(capped >= 2, "{capped} runs at the cap");
    check_replay(&plan, &average, "4x700");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_plans_lower_to_the_reference(
        h in 3usize..14,
        w in 3usize..14,
        bounds in arb_bounds(),
        shape in 0usize..4,
        strategy in 0usize..3,
        dedupe in any::<bool>(),
    ) {
        let strategy = [
            PlanStrategy::GlobalWindow,
            PlanStrategy::PerRange(Algorithm1::Greedy),
            PlanStrategy::PerRange(Algorithm1::Exact),
        ][strategy];
        let plan = SmacheBuilder::new(GridSpec::d2(h, w).expect("grid"))
            .shape(shapes_2d().swap_remove(shape))
            .boundaries(bounds)
            .strategy(strategy)
            .dedupe_static_regions(dedupe)
            .plan();
        if let Ok(plan) = plan {
            let case = format!("{h}x{w} {:?} {strategy:?} dedupe={dedupe}", plan.bounds);
            if check_plan(&plan, &case) {
                check_engine(&plan, 1, &case);
                check_engine(&plan, 2, &case);
                check_replay(&plan, &average, &case);
            }
        }
    }
}
