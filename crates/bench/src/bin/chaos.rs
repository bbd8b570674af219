//! Chaos resilience sweep: throughput degradation vs injected stall
//! fraction.
//!
//! Runs the paper's 11×11 workload under a ladder of stall-storm
//! intensities (plus the jitter/drain/heavy latency-only profiles),
//! verifies each run stays bit-exact against the golden reference, and
//! reports how the injected stall fraction degrades throughput. Writes a
//! machine-readable summary to `BENCH_chaos.json` (path overridable with
//! `--json PATH`).
//!
//! ```text
//! cargo run -p smache-bench --bin chaos --release -- --chaos-seed 7
//! ```
//!
//! With `--sweep N` the binary instead runs a **chaos-replay sweep**: one
//! latency-only profile (`--profile`, default `heavy`) at a fixed chaos
//! seed is swept across `N` data seeds through
//! [`SmacheSystem::run_batch`] — the chaotic control plane is captured
//! once and replayed for the other lanes. Every lane is verified
//! bit-exact against a replay-off run *and* against the golden
//! reference, and engine labels are reported. The sweep takes the shared
//! batch flag group (`--jobs`, `--replay`, `--store`, `--store-mb`,
//! `--lane-block`) — see [`smache_bench::flags`]:
//!
//! ```text
//! cargo run -p smache-bench --bin chaos --release -- --sweep 8 --chaos-seed 7
//! ```

use smache::arch::kernel::AverageKernel;
use smache::functional::golden::golden_run;
use smache::system::smache_system::SystemConfig;
use smache::system::{RunEngine, SmacheSystem};
use smache::HybridMode;
use smache_bench::flags::{arg_value, pipeline_args, BatchFlags};
use smache_bench::json::Json;
use smache_bench::report::{bar, Table};
use smache_bench::workloads::paper_problem;
use smache_mem::{ChaosProfile, FaultPlan};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = arg_value(&args, "--chaos-seed")
        .map(|v| v.parse().expect("--chaos-seed wants a number"))
        .unwrap_or(7);
    let instances: u64 = arg_value(&args, "--instances")
        .map(|v| v.parse().expect("--instances wants a number"))
        .unwrap_or(50);
    let path = arg_value(&args, "--json").unwrap_or_else(|| "BENCH_chaos.json".into());
    if let Some(sweep) = arg_value(&args, "--sweep") {
        let data_seeds: u64 = sweep.parse().expect("--sweep wants a seed count");
        let profile_name = arg_value(&args, "--profile").unwrap_or_else(|| "heavy".into());
        let profile = ChaosProfile::from_name(&profile_name)
            .expect("--profile wants off|jitter|storms|drain|heavy|flip:<k>");
        assert!(
            profile.is_latency_only(),
            "--sweep verifies outputs against the golden reference, so it wants a \
             latency-only profile (off|jitter|storms|drain|heavy)"
        );
        let flags = BatchFlags::parse(&args, 1);
        run_replay_sweep(
            data_seeds,
            seed,
            &profile_name,
            profile,
            instances,
            flags,
            &path,
        );
        return;
    }
    let trace_fmt = arg_value(&args, "--trace");
    if let Some(fmt) = &trace_fmt {
        assert!(
            ["vcd", "chrome", "ascii"].contains(&fmt.as_str()),
            "--trace wants vcd|chrome|ascii"
        );
    }
    let trace_out = arg_value(&args, "--trace-out");
    // `--timesteps T [--channels C]`: run the ladder through the temporal
    // pipeline instead of the single-step system — chaos is absorbed (and
    // attributed per channel) exactly the same way.
    let (depth, channels) = pipeline_args(&args).unwrap_or((1, 1));
    assert_eq!(
        instances % depth as u64,
        0,
        "--timesteps must divide --instances ({instances})"
    );

    let workload = paper_problem(11, 11, instances);
    let input = workload.ramp_input();
    let golden = golden_run(
        &workload.grid,
        &workload.bounds,
        &workload.shape,
        &AverageKernel,
        &input,
        instances,
    )
    .expect("golden");

    // The sweep: a storm-probability ladder, then the named latency-only
    // profiles for context.
    let mut points: Vec<(String, ChaosProfile)> = [0.0, 0.02, 0.05, 0.1, 0.2]
        .into_iter()
        .map(|p| {
            (
                format!("storms p={p}"),
                ChaosProfile {
                    stall_storm_prob: p,
                    stall_storm_max: 12,
                    ..ChaosProfile::none()
                },
            )
        })
        .collect();
    points.push(("jitter".into(), ChaosProfile::jitter()));
    points.push(("drain".into(), ChaosProfile::drain()));
    points.push(("heavy".into(), ChaosProfile::heavy()));

    let mut baseline_cycles = 0u64;
    let mut rows = Vec::new();
    let mut t = Table::new(vec![
        "Profile",
        "Cycles",
        "Stall frac",
        "Storm cycles",
        "Slowdown",
        "Throughput",
    ]);
    println!("== Chaos sweep: 11x11, {instances} instance(s), seed {seed} ==\n");
    let n_points = points.len();
    for (point_ix, (label, profile)) in points.iter().enumerate() {
        let plan = FaultPlan::new(seed, *profile);
        let config = SystemConfig {
            fault_plan: plan,
            ..SystemConfig::default()
        };
        let mut system = workload.pipeline(
            HybridMode::default(),
            smache::PipelineConfig {
                depth,
                channels,
                system: config,
                ..Default::default()
            },
        );
        // Counters (stall attribution per fault kind) are always recorded;
        // the per-cycle probe event stream only when a trace was requested.
        system.attach_telemetry(smache_sim::TelemetryConfig::default());
        if trace_fmt.is_none() {
            if let Some(tel) = system.telemetry_mut() {
                tel.probes.set_enabled(false);
            }
        }
        let report = system
            .run(&input, instances / depth as u64)
            .expect("latency-only chaos must be absorbed");
        push_point(
            label,
            &report,
            &golden,
            &mut baseline_cycles,
            &mut t,
            &mut rows,
        );
        if let (Some(fmt), true) = (&trace_fmt, point_ix + 1 == n_points) {
            let artifact = system
                .export_trace(fmt, "smache")
                .expect("validated trace format");
            let ext = if *fmt == "chrome" {
                "json"
            } else {
                fmt.as_str()
            };
            let out_path = trace_out
                .clone()
                .unwrap_or_else(|| format!("BENCH_chaos_trace.{ext}"));
            std::fs::write(&out_path, &artifact).expect("write trace artifact");
            println!(
                "trace ({fmt}, profile `{label}`): {} bytes -> {out_path}",
                artifact.len()
            );
        }
    }
    println!("{t}");
    println!("every run verified bit-exact against the golden reference");

    let doc = Json::obj(vec![
        ("artefact", Json::str("chaos_sweep")),
        ("grid", Json::str("11x11")),
        ("instances", Json::Int(instances as i64)),
        ("chaos_seed", Json::Int(seed as i64)),
        ("baseline_cycles", Json::Int(baseline_cycles as i64)),
        ("points", Json::Arr(rows)),
    ]);
    std::fs::write(&path, doc.pretty()).expect("write json");
    println!("wrote {path}");
}

/// One ladder point: golden check, slowdown vs the clean first point, a
/// table row and a JSON row (with the telemetry stall attribution). The
/// single-step system and the temporal pipeline report identically.
fn push_point(
    label: &str,
    report: &smache::system::RunReport,
    golden: &[u64],
    baseline_cycles: &mut u64,
    t: &mut Table,
    rows: &mut Vec<Json>,
) {
    assert_eq!(report.output, golden, "{label}: chaos corrupted the output");
    if *baseline_cycles == 0 {
        *baseline_cycles = report.metrics.cycles;
    }
    let slowdown = report.metrics.cycles as f64 / *baseline_cycles as f64;
    let throughput = 1.0 / slowdown;
    t.row(vec![
        label.to_string(),
        report.metrics.cycles.to_string(),
        format!("{:.3}", report.stall_fraction()),
        report.metrics.faults.storm_cycles.to_string(),
        format!("{slowdown:.3}x"),
        bar(throughput, 1.0, 28),
    ]);
    let tel = report.telemetry.as_ref().expect("telemetry attached");
    let counters_obj = |pairs: Vec<(String, u64)>| {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(name, v)| (name, Json::Int(v as i64)))
                .collect(),
        )
    };
    rows.push(Json::obj(vec![
        ("profile", Json::str(label)),
        ("cycles", Json::Int(report.metrics.cycles as i64)),
        ("stall_fraction", Json::Num(report.stall_fraction())),
        (
            "storm_cycles",
            Json::Int(report.metrics.faults.storm_cycles as i64),
        ),
        (
            "jitter_events",
            Json::Int(report.metrics.faults.jitter_events as i64),
        ),
        (
            "slow_drain_cycles",
            Json::Int(report.metrics.faults.slow_drain_cycles as i64),
        ),
        ("slowdown", Json::Num(slowdown)),
        ("output_matches_golden", Json::Bool(true)),
        (
            "telemetry",
            Json::obj(vec![
                // Per-fault-kind stall attribution (cycles the datapath
                // froze, keyed by cause) straight from the counters.
                ("stall_attribution", counters_obj(tel.with_prefix("stall"))),
                ("chaos_counters", counters_obj(tel.with_prefix("chaos"))),
                ("fsm2_residency", counters_obj(tel.residency("fsm2"))),
            ]),
        ),
    ]));
}

/// The chaos-replay sweep (`--sweep N`): a fixed `(chaos_seed, profile)`
/// fault plan across `N` data seeds, replay vs full simulation, every
/// lane golden-verified.
fn run_replay_sweep(
    data_seeds: u64,
    chaos_seed: u64,
    profile_name: &str,
    profile: ChaosProfile,
    instances: u64,
    mut flags: BatchFlags,
    json_path: &str,
) {
    use std::time::Instant;

    use smache::system::{BatchOptions, ReplayMode};

    let workload = paper_problem(11, 11, instances);
    let config = SystemConfig {
        fault_plan: FaultPlan::new(chaos_seed, profile),
        ..SystemConfig::default()
    };
    let make_jobs = || -> Vec<_> {
        workload
            .batch_jobs(0..data_seeds, HybridMode::default())
            .into_iter()
            .map(|j| j.with_config(config))
            .collect()
    };
    println!(
        "== chaos-replay sweep: profile `{profile_name}`, chaos seed {chaos_seed}, \
         {data_seeds} data seeds x {instances} instance(s), {} job(s) ==\n",
        flags.jobs
    );

    let t0 = Instant::now();
    let full = SmacheSystem::run_batch(
        make_jobs(),
        BatchOptions::new()
            .threads(flags.jobs)
            .replay(ReplayMode::Off),
    );
    let full_wall = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let fast = SmacheSystem::run_batch(make_jobs(), flags.options());
    let fast_wall = t0.elapsed().as_secs_f64() * 1e3;

    let mut rows = Vec::new();
    let mut t = Table::new(vec!["Seed", "Engine", "Cycles", "Storm cycles", "Outputs"]);
    let mut replayed = 0usize;
    for (seed, (a, b)) in full.lanes.iter().zip(&fast.lanes).enumerate() {
        let (a, b) = (
            a.as_ref().expect("full lane"),
            b.as_ref().expect("fast lane"),
        );
        assert_eq!(a.output, b.output, "seed {seed}: replay diverged");
        assert_eq!(a.stats, b.stats, "seed {seed}: cycle accounting diverged");
        let golden = golden_run(
            &workload.grid,
            &workload.bounds,
            &workload.shape,
            &AverageKernel,
            &workload.input(seed as u64),
            instances,
        )
        .expect("golden");
        assert_eq!(b.output, golden, "seed {seed}: chaos corrupted the output");
        if b.engine == RunEngine::Replay {
            replayed += 1;
        }
        t.row(vec![
            seed.to_string(),
            b.engine.label().to_string(),
            b.metrics.cycles.to_string(),
            b.metrics.faults.storm_cycles.to_string(),
            "identical".to_string(),
        ]);
        rows.push(Json::obj(vec![
            ("seed", Json::Int(seed as i64)),
            ("engine", Json::str(b.engine.label())),
            ("cycles", Json::Int(b.metrics.cycles as i64)),
            (
                "storm_cycles",
                Json::Int(b.metrics.faults.storm_cycles as i64),
            ),
            ("output_matches_golden", Json::Bool(true)),
            ("matches_full_sim", Json::Bool(true)),
        ]));
    }
    println!("{t}");
    println!(
        "full {full_wall:.1} ms, replay {fast_wall:.1} ms ({:.2}x); \
         {replayed}/{data_seeds} lanes served by replay, all bit-exact vs full sim and golden",
        full_wall / fast_wall
    );

    let doc = Json::obj(vec![
        ("artefact", Json::str("chaos_replay_sweep")),
        ("grid", Json::str("11x11")),
        ("instances", Json::Int(instances as i64)),
        ("profile", Json::str(profile_name)),
        ("chaos_seed", Json::Int(chaos_seed as i64)),
        ("data_seeds", Json::Int(data_seeds as i64)),
        ("full_ms", Json::Num(full_wall)),
        ("replay_ms", Json::Num(fast_wall)),
        ("speedup", Json::Num(full_wall / fast_wall)),
        ("replayed_lanes", Json::Int(replayed as i64)),
        ("lanes", Json::Arr(rows)),
    ]);
    std::fs::write(json_path, doc.pretty()).expect("write json");
    println!("wrote {json_path}");
}
