//! Ablation studies motivated by §III of the paper.
//!
//! 1. **Hybrid stretch threshold** — sweeping `min_bram_stretch` walks the
//!    register↔BRAM trade-off between Case-R and Case-H.
//! 2. **Grid-size scaling** — how the baseline/Smache cycle and traffic
//!    gaps grow with the grid (the baseline hits the DRAM row-miss cliff
//!    once rows no longer share DRAM rows).
//! 3. **Planning strategies** — paper's per-range Algorithm 1 (greedy and
//!    exact) vs the global window search.
//! 4. **Baseline pipelining depth** — how forgiving the comparison is to a
//!    smarter baseline.
//! 5. **DRAM row-miss penalty** — sensitivity of the speed-up to memory
//!    timing on a bank-conflicting grid.
//! 6. **Double buffering** — the paper's transparent swap vs re-prefetching
//!    the static buffers every instance.
//! 7. **Lane scaling** — spatial parallelism throughput (P-lane Smache).
//!
//! ```text
//! cargo run -p smache-bench --bin ablations --release
//! ```

use smache::cost::{CostEstimate, SynthesisModel};
use smache::{Algorithm1, HybridMode, PlanStrategy, SmacheBuilder};
use smache_baseline::BaselineConfig;
use smache_bench::report::Table;
use smache_bench::workloads::paper_problem;
use smache_mem::DramConfig;
use smache_stencil::GridSpec;

fn main() {
    hybrid_threshold_sweep();
    grid_size_scaling();
    strategy_comparison();
    baseline_pipelining();
    row_miss_sensitivity();
    double_buffering();
    lane_scaling();
}

/// Ablation 1: the register↔BRAM continuum.
fn hybrid_threshold_sweep() {
    println!("== Ablation 1: hybrid stretch threshold (1024x1024 plan) ==");
    let mut t = Table::new(vec!["mode", "Rsm bits", "Bsm bits", "Rtotal", "Btotal"]);
    let mut modes: Vec<(String, HybridMode)> = vec![("Case-R".into(), HybridMode::CaseR)];
    for thr in [3usize, 8, 64, 512, 1024] {
        modes.push((
            format!("Case-H(min={thr})"),
            HybridMode::CaseH {
                min_bram_stretch: thr,
            },
        ));
    }
    for (label, hybrid) in modes {
        let plan = SmacheBuilder::new(GridSpec::d2(1024, 1024).expect("valid"))
            .hybrid(hybrid)
            .plan()
            .expect("plan");
        let m = SynthesisModel.memory(&plan);
        t.row(vec![
            label,
            m.r_stream.to_string(),
            m.b_stream.to_string(),
            m.r_total().to_string(),
            m.b_total().to_string(),
        ]);
    }
    println!("{t}");
}

/// Ablation 2: scaling of the baseline/Smache gap with grid size.
fn grid_size_scaling() {
    println!("== Ablation 2: grid-size scaling (4 instances each) ==");
    let sizes: Vec<usize> = vec![11, 16, 32, 64, 128];
    let rows = smache_sim::run_batch(sizes, 8, |dim| {
        let workload = paper_problem(dim, dim, 4);
        let input = workload.ramp_input();
        let mut sm = workload.smache(HybridMode::default());
        let mut bl = workload.baseline(BaselineConfig::default());
        let rs = sm.run(&input, 4).expect("smache");
        let rb = bl.run(&input, 4).expect("baseline");
        assert_eq!(rs.output, rb.output);
        (
            dim,
            rb.metrics.cycles as f64 / rs.metrics.cycles as f64,
            rb.metrics.traffic_kb() / rs.metrics.traffic_kb(),
            rb.metrics.exec_us() / rs.metrics.exec_us(),
        )
    });
    let mut t = Table::new(vec!["grid", "cycle ratio", "traffic ratio", "speed-up"]);
    for (dim, cyc, traffic, speedup) in rows {
        t.row(vec![
            format!("{dim}x{dim}"),
            format!("{cyc:.2}x"),
            format!("{traffic:.2}x"),
            format!("{speedup:.2}x"),
        ]);
    }
    println!("{t}");
}

/// Ablation 3: planning strategy comparison (formal-model words).
fn strategy_comparison() {
    println!("== Ablation 3: planning strategies (buffer words) ==");
    let mut t = Table::new(vec![
        "problem",
        "strategy",
        "stream words",
        "static words",
        "total bits",
    ]);
    for (h, w) in [(11usize, 11usize), (64, 64), (8, 512)] {
        for (label, strategy) in [
            (
                "per-range greedy",
                PlanStrategy::PerRange(Algorithm1::Greedy),
            ),
            ("per-range exact", PlanStrategy::PerRange(Algorithm1::Exact)),
            ("global window", PlanStrategy::GlobalWindow),
        ] {
            let plan = SmacheBuilder::new(GridSpec::d2(h, w).expect("valid"))
                .strategy(strategy)
                .plan()
                .expect("plan");
            t.row(vec![
                format!("{h}x{w}"),
                label.to_string(),
                (plan.lookahead + plan.lookback + 1).to_string(),
                plan.static_words().to_string(),
                CostEstimate.total_bits(&plan).to_string(),
            ]);
        }
    }
    println!("{t}");
}

/// Ablation 4: baseline in-flight depth.
fn baseline_pipelining() {
    println!("== Ablation 4: baseline gather pipelining (11x11, 20 instances) ==");
    let workload = paper_problem(11, 11, 20);
    let input = workload.ramp_input();
    let depths: Vec<usize> = vec![1, 2, 4, 8];
    let rows = smache_sim::run_batch(depths, 4, |d| {
        let mut bl = workload.baseline(BaselineConfig {
            max_inflight_elements: d,
            ..BaselineConfig::default()
        });
        let r = bl.run(&input, 20).expect("baseline");
        (d, r.metrics.cycles)
    });
    let mut t = Table::new(vec!["in-flight elements", "cycles", "cycles/point"]);
    for (d, cycles) in rows {
        t.row(vec![
            d.to_string(),
            cycles.to_string(),
            format!("{:.2}", cycles as f64 / (121.0 * 20.0)),
        ]);
    }
    println!("{t}");
}

/// Ablation 5: DRAM row-miss penalty sensitivity.
///
/// Uses an 8×2048 grid: a 2048-word row stride is a whole multiple of
/// `row_words × num_banks`, so every north/south neighbour read lands in
/// the *same bank* as the centre row and thrashes its open row — the
/// pathological random-access regime the paper's introduction warns about.
/// Smache turns the same accesses into pure streaming, so the gap scales
/// with the penalty.
fn row_miss_sensitivity() {
    println!("== Ablation 5: DRAM row-miss penalty (8x2048 bank-conflict grid, 2 instances) ==");
    let penalties: Vec<u64> = vec![0, 2, 6, 12, 24];
    let rows = smache_sim::run_batch(penalties, 8, |p| {
        let workload = paper_problem(8, 2048, 2);
        let input = workload.ramp_input();
        let dram = DramConfig {
            row_miss_penalty: p,
            ..DramConfig::default()
        };
        let mut sm = workload.smache_with(
            HybridMode::default(),
            smache::system::smache_system::SystemConfig {
                dram,
                ..Default::default()
            },
        );
        let mut bl = workload.baseline(BaselineConfig {
            dram,
            ..BaselineConfig::default()
        });
        let rs = sm.run(&input, 2).expect("smache");
        let rb = bl.run(&input, 2).expect("baseline");
        (p, rb.metrics.cycles as f64 / rs.metrics.cycles as f64)
    });
    let mut t = Table::new(vec![
        "row-miss penalty (cycles)",
        "baseline/smache cycle ratio",
    ]);
    for (p, ratio) in rows {
        t.row(vec![p.to_string(), format!("{ratio:.2}x")]);
    }
    println!("{t}");
}

/// Ablation 7: spatial parallelism — P-lane Smache throughput.
fn lane_scaling() {
    use smache::arch::kernel::AverageKernel;
    println!("== Ablation 7: lane scaling (64x64 open boundaries, 4 instances) ==");
    let grid = GridSpec::d2(64, 64).expect("valid");
    let bounds = smache_stencil::BoundarySpec::all_open(2).expect("bounds");
    let input: Vec<u64> = (0..4096u64).collect();
    let lanes_list: Vec<usize> = vec![1, 2, 4, 8];
    let rows = smache_sim::run_batch(lanes_list, 4, |lanes| {
        let plan = SmacheBuilder::new(grid.clone())
            .boundaries(bounds.clone())
            .plan()
            .expect("plan");
        let mut config = smache::system::smache_system::SystemConfig::default();
        config.dram.bus_words = lanes;
        let mut sys =
            smache::SmacheSystem::new(plan, Box::new(AverageKernel), config).expect("system");
        let r = sys.run(&input, 4).expect("run");
        (
            lanes,
            r.metrics.cycles,
            r.metrics.fmax_mhz,
            r.metrics.exec_us(),
        )
    });
    let mut t = Table::new(vec!["lanes", "cycles", "Fmax (MHz)", "exec time (us)"]);
    let base = rows[0].3;
    for (lanes, cycles, fmax, us) in rows {
        t.row(vec![
            format!("{lanes} ({:.2}x)", base / us),
            cycles.to_string(),
            format!("{fmax:.1}"),
            format!("{us:.1}"),
        ]);
    }
    println!("{t}");
}

/// Ablation 6: the paper's transparent double buffering vs re-prefetching
/// the static buffers at every instance boundary.
fn double_buffering() {
    println!("== Ablation 6: static-buffer double buffering (20 instances) ==");
    let mut t = Table::new(vec![
        "grid",
        "with double buffering",
        "re-prefetch per instance",
        "overhead",
    ]);
    for dim in [11usize, 32, 64] {
        let workload = paper_problem(dim, dim, 20);
        let input = workload.ramp_input();
        let mut db = workload.smache(HybridMode::default());
        let with_db = db.run(&input, 20).expect("smache").metrics.cycles;
        let mut nodb = workload.smache_with(
            HybridMode::default(),
            smache::system::smache_system::SystemConfig {
                double_buffering: false,
                ..Default::default()
            },
        );
        let without = nodb.run(&input, 20).expect("smache").metrics.cycles;
        t.row(vec![
            format!("{dim}x{dim}"),
            with_db.to_string(),
            without.to_string(),
            format!("+{:.1}%", 100.0 * (without as f64 / with_db as f64 - 1.0)),
        ]);
    }
    println!("{t}");
}
