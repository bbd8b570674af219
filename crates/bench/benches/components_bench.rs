//! Criterion micro-benchmarks of the Smache components.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smache::arch::kernel::AverageKernel;
use smache::arch::stream_buffer::StreamBuffer;
use smache::config::{Algorithm1, PlanStrategy};
use smache::functional::golden::golden_run;
use smache::functional::model::FunctionalSmache;
use smache::{HybridMode, SmacheBuilder};
use smache_mem::{Dram, DramConfig};
use smache_stencil::GridSpec;

/// Stream-buffer shift throughput: Case-R registers vs Case-H hybrid.
fn stream_buffer_shift(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_buffer_shift_64x64");
    for (label, hybrid) in [
        ("case_r", HybridMode::CaseR),
        ("case_h", HybridMode::default()),
    ] {
        let plan = SmacheBuilder::new(GridSpec::d2(64, 64).expect("valid"))
            .hybrid(hybrid)
            .plan()
            .expect("plan");
        group.bench_function(label, |b| {
            b.iter_batched(
                || StreamBuffer::from_plan(&plan, 1).expect("buffer"),
                |mut sb| {
                    for w in 0..4096u64 {
                        sb.stage_shift(w);
                        sb.tick().expect("tick");
                    }
                    sb.pushed()
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Planning strategies over the paper problem.
fn planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("planning_64x64");
    for (label, strategy) in [
        (
            "per_range_greedy",
            PlanStrategy::PerRange(Algorithm1::Greedy),
        ),
        ("per_range_exact", PlanStrategy::PerRange(Algorithm1::Exact)),
        ("global_window", PlanStrategy::GlobalWindow),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                SmacheBuilder::new(GridSpec::d2(64, 64).expect("valid"))
                    .strategy(strategy)
                    .plan()
                    .expect("plan")
                    .capacity
            })
        });
    }
    group.finish();
}

/// The verification stack: golden vs functional vs cycle-accurate, same
/// workload — shows what each level of fidelity costs.
fn fidelity_stack(c: &mut Criterion) {
    let dims = 32usize;
    let builder = || SmacheBuilder::new(GridSpec::d2(dims, dims).expect("valid"));
    let plan = builder().plan().expect("plan");
    let input: Vec<u64> = (0..(dims * dims) as u64).collect();
    let instances = 4u64;

    let mut group = c.benchmark_group("fidelity_32x32_4inst");
    group.bench_function("golden", |b| {
        b.iter(|| {
            golden_run(
                &plan.grid,
                &plan.bounds,
                &plan.shape,
                &AverageKernel,
                &input,
                instances,
            )
            .expect("golden")
            .len()
        })
    });
    group.bench_function("functional", |b| {
        b.iter(|| {
            let mut f = FunctionalSmache::new(plan.clone());
            f.run(&AverageKernel, &input, instances)
                .expect("functional")
                .len()
        })
    });
    group.bench_function("cycle_accurate", |b| {
        b.iter(|| {
            let mut sys = builder().build().expect("system");
            sys.run(&input, instances).expect("run").metrics.cycles
        })
    });
    group.finish();
}

/// DRAM model throughput: sequential stream vs random same-bank thrash.
fn dram_patterns(c: &mut Criterion) {
    let cfg = DramConfig::default();
    let words = cfg.row_words * cfg.num_banks * 8;
    let mut group = c.benchmark_group("dram_4096_reads");
    for (label, stride) in [
        ("sequential", 1usize),
        ("row_thrash", cfg.row_words * cfg.num_banks),
    ] {
        group.bench_with_input(BenchmarkId::new("pattern", label), &stride, |b, &stride| {
            b.iter(|| {
                let mut dram = Dram::new(words, cfg).expect("dram");
                let mut issued = 0usize;
                let mut addr = 0usize;
                while issued < 4096 {
                    dram.hold_read(addr % words).expect("in range");
                    if dram.tick().read_accepted.is_some() {
                        issued += 1;
                        addr += stride;
                    }
                }
                dram.cycle()
            })
        });
    }
    group.finish();
}

/// Range analysis: the signature fast path vs the naive per-element scan.
fn range_analysis(c: &mut Criterion) {
    use smache_stencil::{split_ranges, split_ranges_naive, BoundarySpec, StencilShape};
    let grid = GridSpec::d2(256, 256).expect("valid");
    let bounds = BoundarySpec::paper_case();
    let shape = StencilShape::four_point_2d();
    let mut group = c.benchmark_group("split_ranges_256x256");
    group.sample_size(10);
    group.bench_function("signature_fast_path", |b| {
        b.iter(|| split_ranges(&grid, &bounds, &shape).expect("split").len())
    });
    group.bench_function("naive_reference", |b| {
        b.iter(|| {
            split_ranges_naive(&grid, &bounds, &shape)
                .expect("split")
                .len()
        })
    });
    group.finish();
}

/// Parallel compositions: four lanes behind a four-word bus and a 4-deep
/// temporal pipeline against the single-lane reference on the same physics.
fn compositions(c: &mut Criterion) {
    use smache::arch::kernel::AverageKernel;
    use smache::system::smache_system::SystemConfig;
    use smache::{PipelineConfig, SmacheSystem, TemporalPipeline};
    use smache_stencil::BoundarySpec;

    let grid = GridSpec::d2(32, 32).expect("valid");
    let bounds = BoundarySpec::all_open(2).expect("bounds");
    let plan = || {
        SmacheBuilder::new(grid.clone())
            .boundaries(bounds.clone())
            .plan()
            .expect("plan")
    };
    let input: Vec<u64> = (0..1024).collect();

    let mut group = c.benchmark_group("compositions_32x32_8steps");
    group.sample_size(10);
    let lanes = |lanes| {
        let mut config = SystemConfig::default();
        config.dram.bus_words = lanes;
        SmacheSystem::new(plan(), Box::new(AverageKernel), config).expect("system")
    };
    group.bench_function("single_lane_8_passes", |b| {
        b.iter(|| lanes(1).run(&input, 8).expect("run").metrics.cycles)
    });
    group.bench_function("four_lanes_8_passes", |b| {
        b.iter(|| lanes(4).run(&input, 8).expect("run").metrics.cycles)
    });
    group.bench_function("pipeline4_2_passes", |b| {
        b.iter(|| {
            let config = PipelineConfig {
                depth: 4,
                ..Default::default()
            };
            let mut sys =
                TemporalPipeline::new(plan(), Box::new(AverageKernel), config).expect("system");
            sys.run(&input, 2).expect("run").metrics.cycles
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    stream_buffer_shift,
    planning,
    fidelity_stack,
    dram_patterns,
    range_analysis,
    compositions
);
criterion_main!(benches);
