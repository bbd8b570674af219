//! Temporal blocking: several time steps per DRAM pass.
//!
//! The paper cites multi-time-step streaming (its refs [2], [4]) as
//! complementary to Smache; this example composes both — a temporal
//! pipeline of Smache stages computing a 12-step heat diffusion in 12, 6, 3
//! and 2 DRAM passes, showing the traffic/resource trade.
//!
//! ```text
//! cargo run --example temporal_blocking --release
//! ```

use smache::arch::kernel::AverageKernel;
use smache::functional::golden::golden_run;
use smache::{PipelineConfig, SmacheBuilder, TemporalPipeline};
use smache_bench::report::Table;
use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

const DIM: usize = 48;
const STEPS: u64 = 12;

fn main() {
    let grid = GridSpec::d2(DIM, DIM).expect("grid");
    let bounds = BoundarySpec::all_open(2).expect("bounds");
    let shape = StencilShape::four_point_2d();

    // A hot stripe diffusing across the plate.
    let mut input = vec![0u64; DIM * DIM];
    for r in 0..DIM {
        for c in DIM / 2 - 2..DIM / 2 + 2 {
            input[r * DIM + c] = 900_000;
        }
    }

    let golden = golden_run(&grid, &bounds, &shape, &AverageKernel, &input, STEPS).expect("golden");

    println!("== {DIM}x{DIM} heat diffusion, {STEPS} time steps ==\n");
    let mut t = Table::new(vec![
        "pipeline depth",
        "DRAM passes",
        "cycles",
        "DRAM traffic (KB)",
        "on-chip memory (bits)",
    ]);
    for depth in [1usize, 2, 4, 6] {
        let plan = SmacheBuilder::new(grid.clone())
            .shape(shape.clone())
            .boundaries(bounds.clone())
            .plan()
            .expect("plan");
        let mut sys = TemporalPipeline::new(
            plan,
            Box::new(AverageKernel),
            PipelineConfig {
                depth,
                ..Default::default()
            },
        )
        .expect("pipeline");
        let passes = STEPS / depth as u64;
        let report = sys.run(&input, passes).expect("run");
        assert_eq!(
            report.output, golden,
            "depth {depth} must match golden physics"
        );
        t.row(vec![
            depth.to_string(),
            passes.to_string(),
            report.metrics.cycles.to_string(),
            format!("{:.1}", report.metrics.traffic_kb()),
            report.metrics.resources.total_memory_bits().to_string(),
        ]);
    }
    println!("{t}");
    println!("every row verified bit-identical to the golden {STEPS}-step reference;");
    println!("deeper pipelines trade on-chip buffering for DRAM passes (refs [2],[4]");
    println!("of the paper, composed with the Smache stream buffer).");
}
