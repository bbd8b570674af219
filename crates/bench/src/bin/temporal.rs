//! Temporal-blocking sweep: DRAM traffic vs pipeline depth, cycles vs
//! channel count.
//!
//! Runs the paper's 11×11 workload for a fixed number of grid updates
//! through [`TemporalPipeline`](smache::TemporalPipeline)s of increasing
//! depth (T chained Smache stages → the same updates in `updates / T`
//! DRAM passes), then through a fixed-depth pipeline over an increasing
//! number of DRAM channels with a throttled per-channel command rate.
//! Every run is verified bit-exact against the golden reference, and the
//! summary lands in `BENCH_temporal.json` (path overridable with
//! `--json PATH`):
//!
//! ```text
//! cargo run -p smache-bench --bin temporal --release -- --instances 8
//! ```
//!
//! The artefact's two claims, asserted before the file is written:
//!
//! * **traffic falls with T** — deeper pipelines keep intermediate
//!   timesteps on chip, so DRAM traffic drops ~T× (warm-up refetches are
//!   the remainder);
//! * **cycles fall with channels** — with the per-channel command rate
//!   throttled (`cmd_gap`), interleaving reads round-robin across C
//!   channels restores the issue rate.

use smache::arch::kernel::AverageKernel;
use smache::functional::golden::golden_run;
use smache::system::smache_system::SystemConfig;
use smache::HybridMode;
use smache::PipelineConfig;
use smache_bench::flags::arg_value;
use smache_bench::json::Json;
use smache_bench::report::Table;
use smache_bench::workloads::paper_problem;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let updates: u64 = arg_value(&args, "--instances")
        .map(|v| v.parse().expect("--instances wants a number"))
        .unwrap_or(8);
    let path = arg_value(&args, "--json").unwrap_or_else(|| "BENCH_temporal.json".into());

    let workload = paper_problem(11, 11, updates);
    let input = workload.ramp_input();
    let n = workload.grid.len() as u64;
    let golden = golden_run(
        &workload.grid,
        &workload.bounds,
        &workload.shape,
        &AverageKernel,
        &input,
        updates,
    )
    .expect("golden");

    // --- Depth sweep: traffic falls with T --------------------------------
    println!("== Temporal sweep: 11x11, {updates} grid update(s) ==\n");
    let depths: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&d| updates.is_multiple_of(d as u64))
        .collect();
    let mut t = Table::new(vec![
        "Depth",
        "Passes",
        "Cycles",
        "Traffic (KB)",
        "Traffic ratio",
        "BRAM bits",
    ]);
    let mut depth_rows = Vec::new();
    let mut traffic = Vec::new();
    for &depth in &depths {
        let passes = updates / depth as u64;
        // Every depth re-prefetches at each pass, depth 1 included, so the
        // traffic ratio counts passes alone.
        let mut pipe = workload.pipeline(
            HybridMode::default(),
            PipelineConfig {
                depth,
                system: SystemConfig {
                    double_buffering: false,
                    ..SystemConfig::default()
                },
                ..Default::default()
            },
        );
        let report = pipe.run(&input, passes).expect("pipeline run");
        assert_eq!(report.output, golden, "depth {depth}: output mismatch");
        let kb = report.metrics.traffic_kb();
        t.row(vec![
            depth.to_string(),
            passes.to_string(),
            report.metrics.cycles.to_string(),
            format!("{kb:.1}"),
            format!("{:.3}", kb / traffic.first().copied().unwrap_or(kb)),
            report.metrics.resources.bram_bits.to_string(),
        ]);
        depth_rows.push(Json::obj(vec![
            ("depth", Json::Int(depth as i64)),
            ("passes", Json::Int(passes as i64)),
            ("cycles", Json::Int(report.metrics.cycles as i64)),
            ("traffic_kb", Json::Num(kb)),
            ("transfers", Json::Int(report.stats.transfers as i64)),
            (
                "bram_bits",
                Json::Int(report.metrics.resources.bram_bits as i64),
            ),
            ("output_matches_golden", Json::Bool(true)),
        ]));
        traffic.push(kb);
    }
    println!("{t}");
    for pair in traffic.windows(2) {
        assert!(
            pair[1] < pair[0],
            "DRAM traffic must fall as the pipeline deepens: {traffic:?}"
        );
    }
    println!("DRAM traffic falls monotonically with depth\n");

    // --- Channel sweep: cycles fall with C under a command-rate limit -----
    let depth = *depths.last().expect("at least depth 1");
    let cmd_gap = 4u64;
    let passes = updates / depth as u64;
    println!("== Channel sweep: depth {depth}, per-channel command gap {cmd_gap} cycle(s) ==");
    let mut t = Table::new(vec!["Channels", "Cycles", "Cycles/cell", "Speed-up"]);
    let mut channel_rows = Vec::new();
    let mut cycles = Vec::new();
    for channels in [1usize, 2, 4] {
        let mut pipe = workload.pipeline(
            HybridMode::default(),
            PipelineConfig {
                depth,
                channels,
                cmd_gap,
                system: SystemConfig::default(),
                ..Default::default()
            },
        );
        let report = pipe.run(&input, passes).expect("pipeline run");
        assert_eq!(
            report.output, golden,
            "{channels} channels: output mismatch"
        );
        let per_cell = report.metrics.cycles as f64 / (n * updates) as f64;
        t.row(vec![
            channels.to_string(),
            report.metrics.cycles.to_string(),
            format!("{per_cell:.3}"),
            format!(
                "{:.2}x",
                cycles.first().copied().unwrap_or(report.metrics.cycles) as f64
                    / report.metrics.cycles as f64
            ),
        ]);
        channel_rows.push(Json::obj(vec![
            ("channels", Json::Int(channels as i64)),
            ("cycles", Json::Int(report.metrics.cycles as i64)),
            ("cycles_per_cell", Json::Num(per_cell)),
            ("output_matches_golden", Json::Bool(true)),
        ]));
        cycles.push(report.metrics.cycles);
    }
    println!("{t}");
    for pair in cycles.windows(2) {
        assert!(
            pair[1] < pair[0],
            "cycles must fall as channels multiply under a command-rate limit: {cycles:?}"
        );
    }
    println!("cycles/cell improves monotonically with channel count");
    println!("every run verified bit-exact against the golden reference\n");

    let doc = Json::obj(vec![
        ("artefact", Json::str("temporal_sweep")),
        ("grid", Json::str("11x11")),
        ("updates", Json::Int(updates as i64)),
        ("depth_sweep", Json::Arr(depth_rows)),
        ("channel_cmd_gap", Json::Int(cmd_gap as i64)),
        ("channel_sweep_depth", Json::Int(depth as i64)),
        ("channel_sweep", Json::Arr(channel_rows)),
    ]);
    std::fs::write(&path, doc.pretty()).expect("write json");
    println!("wrote {path}");
}
