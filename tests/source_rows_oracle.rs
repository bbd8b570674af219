//! Oracle for the lowered source rows.
//!
//! An engine lowers its plan's per-element sources once
//! ([`SourceRows::lower`]) and its controllers gather from the rows.
//! [`BufferPlan::sources_for`] stays the reference: for every element and
//! slot, the decoded row must equal it exactly — tap position, static
//! bank, slot and port, constant and hole — and a plan the reference
//! refuses must not lower.

use proptest::prelude::*;
use smache::arch::kernel::AverageKernel;
use smache::arch::SourceRows;
use smache::config::{Algorithm1, BufferPlan, PlanStrategy};
use smache::system::{SmacheSystem, SystemConfig};
use smache::SmacheBuilder;
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
/// and on, at one and two lanes.
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
            }
        }
    }
}
