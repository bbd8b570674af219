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
                || StreamBuffer::from_plan(&plan).expect("buffer"),
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

/// Parallel compositions: multilane and a 4-deep temporal pipeline against
/// the single-lane reference on the same physics.
fn compositions(c: &mut Criterion) {
    use smache::arch::kernel::AverageKernel;
    use smache::system::multilane::MultilaneSystem;
    use smache::system::smache_system::SystemConfig;
    use smache::{PipelineConfig, TemporalPipeline};
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
    group.bench_function("single_lane_8_passes", |b| {
        b.iter(|| {
            let mut sys =
                MultilaneSystem::new(plan(), Box::new(AverageKernel), 1, SystemConfig::default())
                    .expect("system");
            sys.run(&input, 8).expect("run").metrics.cycles
        })
    });
    group.bench_function("four_lanes_8_passes", |b| {
        b.iter(|| {
            let mut sys =
                MultilaneSystem::new(plan(), Box::new(AverageKernel), 4, SystemConfig::default())
                    .expect("system");
            sys.run(&input, 8).expect("run").metrics.cycles
        })
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

/// Event-driven vs brute-force scheduling on the two workloads that bound
/// the scheduler's win: a deep combinational ripple registered in the
/// worst possible order (naive loop needs one full pass per stage), and
/// the AXI-wrapped paper system (two sequential modules, where the win is
/// only the redundant confirmation pass).
fn scheduler(c: &mut Criterion) {
    use smache::system::axi::AxiSmache;
    use smache_sim::{Module, Sensitivity, SimMode, Simulator, StreamLink, StreamSink, Wire};

    struct Driver {
        head: Wire<u64>,
    }
    impl Module for Driver {
        fn name(&self) -> &str {
            "driver"
        }
        fn eval(&mut self, cycle: u64) {
            self.head.drive(cycle);
        }
        fn commit(&mut self, _cycle: u64) {}
        fn sensitivity(&self) -> Option<Sensitivity> {
            Some(Sensitivity::sequential(vec![], vec![self.head.id()]))
        }
    }
    struct Stage {
        name: String,
        input: Wire<u64>,
        out: Wire<u64>,
    }
    impl Module for Stage {
        fn name(&self) -> &str {
            &self.name
        }
        fn eval(&mut self, _cycle: u64) {
            self.out.drive(self.input.get() + 1);
        }
        fn commit(&mut self, _cycle: u64) {}
        fn sensitivity(&self) -> Option<Sensitivity> {
            Some(Sensitivity::combinational(
                vec![self.input.id()],
                vec![self.out.id()],
            ))
        }
    }

    const DEPTH: usize = 32;
    let build_chain = |mode: SimMode| {
        let mut sim = Simulator::with_mode(mode);
        let ctx = sim.ctx().clone();
        let wires: Vec<Wire<u64>> = (0..=DEPTH).map(|i| ctx.wire(&format!("w{i}"), 0)).collect();
        // Deepest stage first: the naive loop propagates one stage per
        // delta pass, so every cycle costs DEPTH+1 full passes.
        for i in (0..DEPTH).rev() {
            sim.add(Box::new(Stage {
                name: format!("s{i}"),
                input: wires[i].clone(),
                out: wires[i + 1].clone(),
            }));
        }
        sim.add(Box::new(Driver {
            head: wires[0].clone(),
        }));
        (sim, wires[DEPTH].clone())
    };

    let mut group = c.benchmark_group("scheduler_chain32_1k_cycles");
    for (label, mode) in [
        ("event_driven", SimMode::EventDriven),
        ("naive", SimMode::Naive),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let (mut sim, tail) = build_chain(mode);
                sim.run(1_000).expect("settles");
                tail.get()
            })
        });
    }
    group.finish();

    let input: Vec<u64> = (0..121).collect();
    let mut group = c.benchmark_group("scheduler_axi_11x11");
    group.sample_size(10);
    for (label, mode) in [
        ("event_driven", SimMode::EventDriven),
        ("naive", SimMode::Naive),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut sim = Simulator::with_mode(mode);
                let system = SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
                    .build()
                    .expect("system");
                let link = StreamLink::new(sim.ctx(), "results");
                let axi = AxiSmache::new(system, link.clone(), &input, 1).expect("arm");
                sim.add(Box::new(axi));
                let (sink, buf) = StreamSink::new("consumer", link);
                sim.add(Box::new(sink));
                sim.run_until(100_000, "drain", |_| buf.borrow().len() == 121)
                    .expect("completes")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    stream_buffer_shift,
    planning,
    fidelity_stack,
    dram_patterns,
    range_analysis,
    compositions,
    scheduler
);
criterion_main!(benches);
