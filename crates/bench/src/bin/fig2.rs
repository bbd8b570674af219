//! Regenerates **Fig. 2** of the paper: baseline vs Smache on the 11×11
//! 4-point-stencil workload with circular top/bottom boundaries, 100
//! work-instances.
//!
//! ```text
//! cargo run -p smache-bench --bin fig2 --release
//! ```
//!
//! With `--sweep N` the comparison instead runs over `N` random input
//! seeds and writes a machine-readable summary to `BENCH_fig2.json`
//! (path overridable with `--json PATH`). The sweep takes the shared
//! batch flag group (`--jobs`, `--replay`, `--store`, `--store-mb`,
//! `--lane-block`) — see [`smache_bench::flags`]:
//!
//! ```text
//! cargo run -p smache-bench --bin fig2 --release -- --sweep 8 --jobs 4
//! ```
//!
//! `--store DIR` points the sweep at a persistent schedule store: the
//! capture lane is skipped entirely when the store already holds the
//! spec's schedule, and a fresh capture is written back for next time
//! (see `docs/DEPLOYMENT.md`).

use std::time::Instant;

use smache::arch::kernel::AverageKernel;
use smache::functional::golden::golden_run;
use smache::system::metrics::DesignMetrics;
use smache::system::SmacheSystem;
use smache::HybridMode;
use smache_baseline::BaselineConfig;
use smache_bench::flags::{arg_value, pipeline_args, BatchFlags};
use smache_bench::json::Json;
use smache_bench::report::{bar, Table};
use smache_bench::workloads::{paper_problem, PaperWorkload};

/// `--chaos-seed`/`--chaos-profile` as a fault plan (inactive when absent).
fn chaos_plan(args: &[String]) -> smache_mem::FaultPlan {
    let profile = arg_value(args, "--chaos-profile")
        .map(|name| {
            smache_mem::ChaosProfile::from_name(&name)
                .expect("--chaos-profile wants off|jitter|storms|drain|heavy|flip:<k>")
        })
        .unwrap_or_else(smache_mem::ChaosProfile::none);
    let seed: u64 = arg_value(args, "--chaos-seed")
        .map(|v| v.parse().expect("--chaos-seed wants a number"))
        .unwrap_or(0);
    smache_mem::FaultPlan::new(seed, profile)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chaos = chaos_plan(&args);
    if let Some(sweep) = arg_value(&args, "--sweep") {
        let seeds: u64 = sweep.parse().expect("--sweep wants a seed count");
        let path = arg_value(&args, "--json").unwrap_or_else(|| "BENCH_fig2.json".into());
        let flags = BatchFlags::parse(&args, 1);
        run_sweep(seeds, flags, &path, chaos);
        return;
    }

    let workload = paper_problem(11, 11, 100);
    let input = workload.ramp_input();

    // --- Run both designs -------------------------------------------------
    let mut baseline = workload.baseline(BaselineConfig::default());
    let base_report = baseline
        .run(&input, workload.instances)
        .expect("baseline run");

    let mut smache = workload.smache_with(
        HybridMode::default(),
        smache::system::smache_system::SystemConfig {
            fault_plan: chaos,
            ..Default::default()
        },
    );
    let trace_fmt = arg_value(&args, "--trace");
    if let Some(fmt) = &trace_fmt {
        assert!(
            ["vcd", "chrome", "ascii"].contains(&fmt.as_str()),
            "--trace wants vcd|chrome|ascii"
        );
        smache.attach_telemetry(smache_sim::TelemetryConfig::default());
    }
    let sm_report = smache.run(&input, workload.instances).expect("smache run");
    if let Some(fmt) = &trace_fmt {
        let artifact = smache
            .export_trace(fmt, "smache")
            .expect("validated trace format");
        let ext = if fmt == "chrome" {
            "json"
        } else {
            fmt.as_str()
        };
        let out_path =
            arg_value(&args, "--trace-out").unwrap_or_else(|| format!("BENCH_fig2_trace.{ext}"));
        std::fs::write(&out_path, &artifact).expect("write trace artifact");
        println!("trace ({fmt}): {} bytes -> {out_path}\n", artifact.len());
    }

    // --- Validate both against the golden reference ----------------------
    let golden = golden_run(
        &workload.grid,
        &workload.bounds,
        &workload.shape,
        &AverageKernel,
        &input,
        workload.instances,
    )
    .expect("golden");
    assert_eq!(base_report.output, golden, "baseline output mismatch");
    assert_eq!(sm_report.output, golden, "smache output mismatch");
    println!("outputs verified against golden reference (both designs bit-identical)\n");

    // --- Absolute metrics (the table embedded in Fig. 2) ------------------
    println!("== Fig. 2: absolute metrics (this reproduction) ==");
    println!("{}", DesignMetrics::table_header());
    println!("{}", base_report.metrics.table_row());
    println!("{}", sm_report.metrics.table_row());
    println!();

    println!("== Fig. 2: paper-reported values ==");
    let mut paper = Table::new(vec![
        "Design",
        "Cycle-count",
        "Freq(MHz)",
        "DRAM-traffic(KB)",
        "Exec-time(us)",
        "Perf(MOPS)",
    ]);
    paper.row(vec![
        "Baseline", "64001", "372.9", "236.3", "171.6", "282.01",
    ]);
    paper.row(vec!["Smache", "14039", "235.3", "95.5", "59.7", "811.21"]);
    println!("{paper}");

    // --- Normalised chart (the bars of Fig. 2) ---------------------------
    let norm = sm_report.metrics.normalised_against(&base_report.metrics);
    println!("== Fig. 2: Smache normalised against baseline (bars) ==");
    let rows: Vec<(&str, f64, f64)> = vec![
        ("Cycle-count", norm.cycles, 14039.0 / 64001.0),
        ("Freq (MHz)", norm.fmax, 235.3 / 372.9),
        ("DRAM traffic", norm.traffic, 95.5 / 236.3),
        ("Sim exec time", norm.exec_time, 59.7 / 171.6),
        ("Perf (MOPS)", norm.mops, 811.21 / 282.01),
    ];
    let max = rows.iter().map(|r| r.1.max(r.2)).fold(1.0_f64, f64::max);
    let mut t = Table::new(vec!["Metric", "ours", "paper", "ours (bar)"]);
    for (name, ours, paper) in &rows {
        t.row(vec![
            name.to_string(),
            format!("{ours:.3}"),
            format!("{paper:.3}"),
            bar(*ours, max, 30),
        ]);
    }
    println!("{t}");
    println!(
        "overall simulated speed-up: {:.2}x (paper: {:.2}x)\n",
        norm.speedup(),
        171.6 / 59.7
    );

    // --- Temporal pipeline (beyond the paper) ------------------------------
    // With `--timesteps T [--channels C]`, chain T Smache stages so the
    // same `instances` grid updates take `instances / T` DRAM passes —
    // bit-exact with the single-step run, at a fraction of the traffic.
    if let Some((depth, channels)) = pipeline_args(&args) {
        assert_eq!(
            workload.instances % depth as u64,
            0,
            "--timesteps must divide the instance count ({})",
            workload.instances
        );
        let passes = workload.instances / depth as u64;
        let mut pipe = workload.pipeline(
            HybridMode::default(),
            smache::PipelineConfig {
                depth,
                channels,
                system: smache::system::smache_system::SystemConfig {
                    fault_plan: chaos,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let pipe_report = pipe.run(&input, passes).expect("pipeline run");
        assert_eq!(
            pipe_report.output, golden,
            "temporal pipeline output mismatch"
        );
        println!(
            "== Temporal pipeline: {depth} stage(s) x {passes} pass(es), {channels} channel(s) =="
        );
        println!("{}", DesignMetrics::table_header());
        println!("{}", sm_report.metrics.table_row());
        println!("{}", pipe_report.metrics.table_row());
        println!(
            "traffic vs single-step Smache: {:.2}x; output bit-exact with golden\n",
            pipe_report.metrics.traffic_kb() / sm_report.metrics.traffic_kb()
        );
    }

    // --- §IV resource prose ------------------------------------------------
    println!("== §IV resource comparison ==");
    let mut r = Table::new(vec!["Design", "ALMs", "Registers", "BRAM bits"]);
    let br = &base_report.metrics.resources;
    let sr = &sm_report.metrics.resources;
    r.row(vec![
        "Baseline (ours)".to_string(),
        br.alms.to_string(),
        br.registers.to_string(),
        br.bram_bits.to_string(),
    ]);
    r.row::<String>(vec![
        "Baseline (paper)".into(),
        "79".into(),
        "262".into(),
        "0".into(),
    ]);
    // The paper's prose quotes the Case-R build (998 buffer/controller
    // registers + ~90 kernel registers = 1088; 1.5K BRAM bits).
    let case_r = workload.smache(HybridMode::CaseR);
    let rr = case_r.resources();
    r.row(vec![
        "Smache-r (ours)".to_string(),
        rr.alms.to_string(),
        rr.registers.to_string(),
        rr.bram_bits.to_string(),
    ]);
    r.row::<String>(vec![
        "Smache-r (paper)".into(),
        "520".into(),
        "1088".into(),
        "1536".into(),
    ]);
    r.row(vec![
        "Smache-h (ours)".to_string(),
        sr.alms.to_string(),
        sr.registers.to_string(),
        sr.bram_bits.to_string(),
    ]);
    println!("{r}");
}

/// Multi-seed sweep: Smache lanes batched through
/// [`SmacheSystem::run_batch`] (capture the control schedule once, replay
/// it lane-batched for the other seeds — latency-only chaos replays too,
/// keyed on its chaos seed, while corrupting plans fall back to full
/// simulation per lane under the default auto mode), baseline lanes
/// through `smache_sim::run_batch`, outputs cross-checked per seed, summary
/// written as JSON.
fn run_sweep(seeds: u64, mut flags: BatchFlags, json_path: &str, chaos: smache_mem::FaultPlan) {
    let workload = paper_problem(11, 11, 100);
    let jobs = flags.jobs;
    println!(
        "== Fig. 2 sweep: {seeds} seeds x {} instances, {jobs} job(s) ==",
        workload.instances
    );

    let config = smache::system::smache_system::SystemConfig {
        fault_plan: chaos,
        ..Default::default()
    };
    let smache_jobs: Vec<_> = workload
        .batch_jobs(0..seeds, HybridMode::default())
        .into_iter()
        .map(|j| j.with_config(config))
        .collect();
    let t0 = Instant::now();
    let batch = SmacheSystem::run_batch(smache_jobs, flags.options());
    let smache_wall = t0.elapsed();
    if let Some(store) = &flags.store {
        let s = store.stats();
        println!(
            "schedule store {}: {} hits, {} writes, {} entries",
            store.dir().display(),
            s.hits,
            s.writes,
            store.len()
        );
    }
    let replayed = batch
        .lanes
        .iter()
        .flatten()
        .filter(|l| l.engine == smache::system::RunEngine::Replay)
        .count();
    println!("schedule replay served {replayed}/{seeds} lanes");

    let lanes: Vec<(u64, &PaperWorkload)> = (0..seeds).map(|s| (s, &workload)).collect();
    let t0 = Instant::now();
    let base_reports = smache_sim::run_batch(lanes, jobs, |(seed, w)| {
        let mut baseline = w.baseline(BaselineConfig::default());
        baseline.run(&w.input(seed), w.instances).expect("baseline")
    });
    let base_wall = t0.elapsed();

    let mut rows = Vec::new();
    let mut t = Table::new(vec![
        "Seed",
        "Smache cycles",
        "Baseline cycles",
        "Cycle ratio",
        "Outputs",
    ]);
    for (seed, (lane, base)) in batch.lanes.iter().zip(&base_reports).enumerate() {
        let lane = lane.as_ref().expect("smache lane");
        let matches = lane.output == base.output;
        assert!(matches, "seed {seed}: smache and baseline outputs differ");
        let ratio = lane.metrics.cycles as f64 / base.metrics.cycles as f64;
        t.row(vec![
            seed.to_string(),
            lane.metrics.cycles.to_string(),
            base.metrics.cycles.to_string(),
            format!("{ratio:.3}"),
            "identical".to_string(),
        ]);
        rows.push(Json::obj(vec![
            ("seed", Json::Int(seed as i64)),
            ("smache_cycles", Json::Int(lane.metrics.cycles as i64)),
            ("baseline_cycles", Json::Int(base.metrics.cycles as i64)),
            ("cycle_ratio", Json::Num(ratio)),
            ("outputs_match", Json::Bool(matches)),
            ("transfers", Json::Int(lane.stats.transfers as i64)),
            ("engine", Json::str(lane.engine.label())),
        ]));
    }
    println!("{t}");
    println!(
        "wall-clock: smache lanes {:.1} ms, baseline lanes {:.1} ms ({jobs} job(s))",
        smache_wall.as_secs_f64() * 1e3,
        base_wall.as_secs_f64() * 1e3,
    );
    println!("aggregate (smache lanes): {}", batch.aggregate);

    let doc = Json::obj(vec![
        ("artefact", Json::str("fig2_sweep")),
        ("grid", Json::str("11x11")),
        ("instances", Json::Int(workload.instances as i64)),
        ("seeds", Json::Int(seeds as i64)),
        ("jobs", Json::Int(jobs as i64)),
        ("smache_wall_ms", Json::Num(smache_wall.as_secs_f64() * 1e3)),
        ("baseline_wall_ms", Json::Num(base_wall.as_secs_f64() * 1e3)),
        (
            "aggregate",
            Json::obj(vec![
                ("cycles", Json::Int(batch.aggregate.cycles as i64)),
                ("transfers", Json::Int(batch.aggregate.transfers as i64)),
                ("idle_cycles", Json::Int(batch.aggregate.idle_cycles as i64)),
                ("throughput", Json::Num(batch.aggregate.throughput())),
            ]),
        ),
        ("lanes", Json::Arr(rows)),
    ]);
    std::fs::write(json_path, doc.pretty()).expect("write sweep summary");
    println!("sweep summary written to {json_path}");
}
