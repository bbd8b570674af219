//! The closed-form cycle model against the cycle engine, at every geometry
//! the engine takes.
//!
//! [`CycleModel::predict`] is checked against full simulation over grids
//! from 8² to 64², four-, five- and nine-point shapes, every boundary kind
//! on both axes, `P` ∈ {1, 2, 4, 8} lanes, depth `T` ∈ 1..=4, `C` ∈ 1..=4
//! channels and `cmd_gap` ∈ {1, 2}. The stated bound: within 1 % of the
//! simulated cycles for the paper case's single step (its 11/16/32/64²
//! runs are `cost::cycles`'s unit tests), within 6 % for every other
//! geometry, with the same Fmax; a geometry the engine refuses the model
//! refuses with the engine's own error. The baseline design's model
//! is checked against the live baseline simulation.

use smache::cost::CycleModel;
use smache::prelude::*;
use smache_baseline::{BaselineConfig, BaselineSystem};
use smache_mem::DramConfig;

/// The bound for every geometry but the paper case's single step.
const BOUND: f64 = 0.06;

fn bounds(rows: Boundary, cols: Boundary) -> BoundarySpec {
    BoundarySpec::new(&[AxisBoundaries::both(rows), AxisBoundaries::both(cols)])
        .expect("2-D bounds")
}

fn geometry(lanes: usize, depth: usize, channels: usize, cmd_gap: u64) -> PipelineConfig {
    let mut config = PipelineConfig {
        depth,
        channels,
        cmd_gap,
        ..PipelineConfig::default()
    };
    config.system.dram.bus_words = lanes;
    config
}

/// Simulates `passes` passes and returns the model's relative error, or
/// `None` when the engine refuses the geometry (the model must refuse it
/// with the same error).
fn error(plan: &BufferPlan, config: PipelineConfig, passes: u64) -> Option<f64> {
    let predicted = CycleModel.predict(plan, &config, AverageKernel.latency(), passes);
    let mut system = match SmacheSystem::new(plan.clone(), Box::new(AverageKernel), config) {
        Ok(system) => system,
        Err(refusal) => {
            assert_eq!(predicted, Err(refusal), "{config:?}");
            return None;
        }
    };
    let predicted = predicted.expect("the engine runs it, so the model covers it");
    let input: Vec<Word> = (0..plan.grid.len() as Word).map(|i| i * 7 + 3).collect();
    let measured = system.run(&input, passes).expect("run").metrics;
    assert_eq!(predicted.fmax_mhz, measured.fmax_mhz, "{config:?}");
    let err = predicted.cycles.abs_diff(measured.cycles) as f64 / measured.cycles as f64;
    Some(err)
}

/// Every row of the table the unified model was checked against: single
/// steps, a wide bus, and pipelines with and without static buffers.
#[test]
fn measured_geometries_within_bound() {
    let nine_mirror = bounds(Boundary::Mirror, Boundary::Open);
    let open = || BoundarySpec::all_open(2).expect("bounds");
    let rows = [
        (
            64,
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            geometry(1, 1, 1, 1),
            5,
        ),
        (
            40,
            StencilShape::nine_point_2d(),
            nine_mirror.clone(),
            geometry(1, 1, 1, 1),
            4,
        ),
        (
            32,
            StencilShape::four_point_2d(),
            open(),
            geometry(4, 1, 1, 1),
            4,
        ),
        (
            24,
            StencilShape::four_point_2d(),
            open(),
            geometry(1, 4, 1, 1),
            2,
        ),
        (
            24,
            StencilShape::four_point_2d(),
            open(),
            geometry(1, 4, 4, 1),
            2,
        ),
        (
            16,
            StencilShape::five_point_2d(),
            open(),
            geometry(1, 2, 2, 1),
            4,
        ),
        (
            40,
            StencilShape::nine_point_2d(),
            nine_mirror,
            geometry(1, 2, 2, 1),
            2,
        ),
        (
            11,
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            geometry(1, 2, 1, 1),
            4,
        ),
        (
            11,
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            geometry(1, 4, 2, 1),
            2,
        ),
    ];
    for (dim, shape, bounds, config, passes) in rows {
        let plan = SmacheBuilder::new(GridSpec::d2(dim, dim).expect("grid"))
            .shape(shape)
            .boundaries(bounds)
            .plan()
            .expect("plan");
        let err = error(&plan, config, passes).expect("runs");
        assert!(err <= BOUND, "{dim}x{dim} {config:?}: error {err:.4}");
    }
}

/// A deterministic sample of the full product: each (grid, shape,
/// boundary pair) takes the next four geometries of the list, so every
/// lane count, depth, channel count and gap meets every boundary kind.
#[test]
fn sampled_sweep_within_bound() {
    let kinds = [
        Boundary::Open,
        Boundary::Circular,
        Boundary::Mirror,
        Boundary::Constant(9),
    ];
    let shapes = [
        StencilShape::four_point_2d(),
        StencilShape::five_point_2d(),
        StencilShape::nine_point_2d(),
    ];
    let mut geometries: Vec<PipelineConfig> =
        [2, 4, 8].iter().map(|&p| geometry(p, 1, 1, 1)).collect();
    for depth in 1..=4 {
        for channels in 1..=4 {
            for cmd_gap in [1, 2] {
                geometries.push(geometry(1, depth, channels, cmd_gap));
            }
        }
    }
    let (mut next, mut runs, mut refused, mut worst) = (0usize, 0, 0, 0.0f64);
    for dim in [8usize, 11, 16, 24, 32] {
        for shape in &shapes {
            for rows in kinds {
                for cols in kinds {
                    let plan = SmacheBuilder::new(GridSpec::d2(dim, dim).expect("grid"))
                        .shape(shape.clone())
                        .boundaries(bounds(rows, cols))
                        .plan()
                        .expect("plan");
                    for _ in 0..4 {
                        let config = geometries[next % geometries.len()];
                        next += 1;
                        match error(&plan, config, 2) {
                            Some(err) => {
                                assert!(
                                    err <= BOUND,
                                    "{dim}x{dim} {rows:?}/{cols:?} {config:?}: error {err:.4}"
                                );
                                worst = worst.max(err);
                                runs += 1;
                            }
                            None => refused += 1,
                        }
                    }
                }
            }
        }
    }
    assert!(runs >= 800 && refused > 0, "{runs} runs, {refused} refused");
    // The bound has headroom: the sample's worst case sits well inside it.
    assert!(worst <= 0.05, "worst error {worst:.4}");
}

/// Larger grids and instance counts on a few geometries each.
#[test]
fn larger_grids_within_bound() {
    let wrap = BoundarySpec::all_circular(2).expect("bounds");
    for (dim, config, passes) in [
        (24, geometry(1, 3, 2, 2), 3),
        (32, geometry(2, 1, 1, 1), 6),
        (32, geometry(1, 2, 1, 2), 2),
        (40, geometry(1, 1, 3, 2), 3),
        (64, geometry(1, 2, 4, 1), 2),
    ] {
        for bounds in [BoundarySpec::paper_case(), wrap.clone()] {
            let plan = SmacheBuilder::new(GridSpec::d2(dim, dim).expect("grid"))
                .boundaries(bounds)
                .plan()
                .expect("plan");
            if let Some(err) = error(&plan, config, passes) {
                assert!(err <= BOUND, "{dim}x{dim} {config:?}: error {err:.4}");
            }
        }
    }
}

/// The baseline model against the live baseline on the paper's
/// 11×11×100 workload.
#[test]
fn baseline_prediction_tracks_simulation() {
    let grid = GridSpec::d2(11, 11).expect("grid");
    let plan = SmacheBuilder::new(grid.clone()).plan().expect("plan");
    let avg_reads = CycleModel.avg_reads(&plan);
    assert!((avg_reads - 462.0 / 121.0).abs() < 1e-9);
    let predicted = CycleModel.baseline(121, avg_reads, 0.0, &DramConfig::default(), 100);
    let mut baseline = BaselineSystem::new(
        grid,
        plan.shape.clone(),
        plan.bounds.clone(),
        Box::new(AverageKernel),
        BaselineConfig::default(),
    )
    .expect("baseline");
    let input: Vec<Word> = (0..121).collect();
    let measured = baseline.run(&input, 100).expect("run").metrics.cycles;
    let err = predicted.cycles.abs_diff(measured) as f64 / measured as f64;
    assert!(
        err < 0.06,
        "predicted {} vs measured {measured}",
        predicted.cycles
    );
}
