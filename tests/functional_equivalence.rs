//! Property test: the three fidelity levels agree bit-for-bit.
//!
//! golden software reference ≡ untimed functional model ≡ cycle-accurate
//! simulated hardware, across random grids, shapes, boundary conditions,
//! kernels and instance counts.

use proptest::prelude::*;
use smache::arch::kernel::{AverageKernel, Kernel, MaxKernel, SumKernel};
use smache::functional::golden::golden_run;
use smache::functional::model::FunctionalSmache;
use smache::{HybridMode, SmacheBuilder};
use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};

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
        Just(StencilShape::cross_2d(2).expect("k=2")),
    ]
}

fn arb_kernel() -> impl Strategy<Value = usize> {
    0usize..4
}

fn kernel_of(id: usize, shape_len: usize) -> Box<dyn Kernel> {
    match id {
        0 => Box::new(AverageKernel),
        1 => Box::new(SumKernel),
        2 => Box::new(MaxKernel),
        _ => {
            // A positional weight ramp, renormalised over present points.
            let weights: Vec<u64> = (0..shape_len as u64).map(|p| p + 1).collect();
            Box::new(smache::arch::kernel::WeightedKernel::new("ramp", weights).expect("weights"))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn golden_functional_and_cycle_accurate_agree(
        h in 4usize..10,
        w in 4usize..10,
        bounds in arb_bounds(),
        shape in arb_shape(),
        kernel_id in arb_kernel(),
        hybrid_h in any::<bool>(),
        instances in 1u64..4,
        seed in any::<u64>(),
    ) {
        let grid = GridSpec::d2(h, w).expect("valid grid");
        let n = grid.len();
        let input: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(seed | 1).wrapping_add(seed >> 32) % 100_000)
            .collect();

        let shape_len = shape.len();
        let golden = golden_run(&grid, &bounds, &shape, kernel_of(kernel_id, shape_len).as_ref(),
                                &input, instances).expect("golden");

        let hybrid = if hybrid_h { HybridMode::default() } else { HybridMode::CaseR };
        let builder = || SmacheBuilder::new(grid.clone())
            .shape(shape.clone())
            .boundaries(bounds.clone())
            .hybrid(hybrid)
            .kernel(kernel_of(kernel_id, shape_len));

        // Untimed functional model.
        let plan = builder().plan().expect("plan");
        let mut functional = FunctionalSmache::new(plan.clone());
        let f_out = functional.run(kernel_of(kernel_id, shape_len).as_ref(), &input, instances)
            .expect("functional run");
        prop_assert_eq!(&f_out, &golden, "functional model diverged from golden");

        // Cycle-accurate system.
        let mut system = builder().build().expect("system");
        let report = system.run(&input, instances).expect("cycle-accurate run");
        prop_assert_eq!(&report.output, &golden, "cycle-accurate diverged from golden");

        // Two lanes behind a two-word bus (two lanes fit the dual-port
        // static banks).
        let mut config = smache::system::smache_system::SystemConfig::default();
        config.dram.bus_words = 2;
        let mut multilane = smache::SmacheSystem::new(plan, kernel_of(kernel_id, shape_len), config)
            .expect("multilane system");
        let m = multilane.run(&input, instances).expect("multilane run");
        prop_assert_eq!(&m.output, &golden, "multilane diverged from golden");
    }
}
