//! Benchmarks **control-schedule replay** against full simulation and
//! writes the machine-readable summary to `BENCH_replay.json` (path
//! overridable with `--json PATH`):
//!
//! ```text
//! cargo run -p smache-bench --bin replay --release -- --jobs 4
//! ```
//!
//! Takes the shared batch flag group (`--jobs`, `--replay`, `--store`,
//! `--store-mb`, `--lane-block`) — see [`smache_bench::flags`].
//!
//! Four measurements, all on the paper workload (11×11 four-point
//! stencil, 100 work-instances):
//!
//! 1. **Capture overhead**: one full simulation with the per-cycle
//!    control recorder attached vs a plain run.
//! 2. **Batch speedup** at 1/8/64 lanes:
//!    [`SmacheSystem::run_batch`] with replay off (every lane simulates)
//!    vs replay on (capture once, replay the rest lane-batched), each
//!    side the median of five calls.
//! 3. **Chaos replay**: a latency-only fault plan (fixed chaos seed)
//!    swept across 8 data seeds — the chaotic control plane is captured
//!    once and replayed for the other lanes.
//! 4. **Bit-exactness**: every replayed lane's output fingerprint must
//!    equal the full simulation's — asserted, not sampled.
//! 5. **Replay loops**: nanoseconds per cell update of
//!    `ControlSchedule::replay` (one lane) and `replay_lanes` (1 and 16
//!    lanes) on the four specs of the benchmark's seed sweep, each the
//!    minimum of 60 timed calls after capture. `replay` is the one-lane
//!    call of the same run loop, so `single` and `lanes1` time one path
//!    through two entry points.

use std::collections::BTreeMap;
use std::time::Instant;

use smache::arch::kernel::AverageKernel;
use smache::system::batch::{BatchJob, BatchOptions};
use smache::system::smache_system::SystemConfig;
use smache::system::{BatchReport, ReplayMode, RunEngine, SmacheSystem};
use smache::{HybridMode, ProblemSpec};
use smache_bench::flags::{arg_value, BatchFlags};
use smache_bench::json::Json;
use smache_bench::workloads::paper_problem;
use smache_mem::{ChaosProfile, FaultPlan};
use smache_sim::hash::fingerprint128;

fn fp(output: &[u64]) -> (u64, u64) {
    let mut bytes = Vec::with_capacity(output.len() * 8);
    for w in output {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fingerprint128(&bytes)
}

/// Asserts the replayed batch is bit-identical to the full one, lane by
/// lane, and returns how many lanes the replay engine served.
fn assert_bit_exact(full: &BatchReport, fast: &BatchReport) -> usize {
    let mut replayed_lanes = 0usize;
    for (a, b) in full.lanes.iter().zip(&fast.lanes) {
        let (a, b) = (a.as_ref().expect("full"), b.as_ref().expect("fast"));
        assert_eq!(fp(&a.output), fp(&b.output), "lane fingerprints differ");
        assert_eq!(a.stats, b.stats, "lane cycle accounting differs");
        if b.engine == RunEngine::Replay {
            replayed_lanes += 1;
        }
    }
    assert_eq!(full.aggregate, fast.aggregate, "aggregates differ");
    replayed_lanes
}

/// Fastest of `reps` calls of `f`, in seconds.
fn min_time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Median wall time of `reps` calls of `f`, in milliseconds, and the
/// last call's result.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    (times[reps / 2], last.expect("at least one call"))
}

/// A seed-sweep spec: label, spec words, grid updates, and the
/// latency-only chaos profile it runs under (chaos seed 7), if any.
type SweepSpec = (
    &'static str,
    &'static [(&'static str, &'static str)],
    u64,
    Option<&'static str>,
);

/// Section 5: one row per seed-sweep spec — captured once, then timed
/// through both replay entry points.
fn loop_rows() -> Vec<Json> {
    const REPS: usize = 60;
    const LANES: usize = 16;
    let specs: [SweepSpec; 4] = [
        ("paper-11x11", &[("grid", "11x11")], 4, None),
        (
            "nine-40x40",
            &[("grid", "40x40"), ("shape", "nine"), ("rows", "mirror")],
            2,
            None,
        ),
        (
            "pipe-16x16-t2c2",
            &[
                ("grid", "16x16"),
                ("shape", "five"),
                ("timesteps", "2"),
                ("channels", "2"),
            ],
            2,
            None,
        ),
        ("chaos-16x16", &[("grid", "16x16")], 4, Some("jitter")),
    ];
    println!("== replay loops: ns per cell update, min of {REPS} calls ==");
    println!("  spec                single   lanes x1   lanes x{LANES}");
    let mut rows = Vec::new();
    for (label, words, instances, chaos) in specs {
        let words: BTreeMap<String, String> = words
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let spec = ProblemSpec::from_source(&words).expect("valid spec");
        let fault_plan = chaos.map_or_else(FaultPlan::default, |name| {
            FaultPlan::new(7, ChaosProfile::from_name(name).expect("profile"))
        });
        let n = spec.grid.len();
        let inputs: Vec<Vec<u64>> = (0..LANES as u64)
            .map(|s| smache::spec::seeded_input(n, s))
            .collect();
        let passes = spec
            .passes(instances)
            .expect("sweep specs run whole passes");
        let (_, schedule) = spec
            .builder()
            .fault_plan(fault_plan)
            .build()
            .and_then(|mut engine| engine.run_captured(&inputs[0], passes))
            .expect("sweep specs capture");
        let views: Vec<&[u64]> = inputs.iter().map(Vec::as_slice).collect();
        let cell_updates = (n as u64 * instances) as f64;
        let ns = |secs: f64, lanes: usize| secs * 1e9 / (cell_updates * lanes as f64);
        let single = ns(
            min_time(REPS, || schedule.replay(&AverageKernel, &inputs[0])),
            1,
        );
        let lanes1 = ns(
            min_time(REPS, || schedule.replay_lanes(&AverageKernel, &views[..1])),
            1,
        );
        let lanes16 = ns(
            min_time(REPS, || schedule.replay_lanes(&AverageKernel, &views)),
            LANES,
        );
        println!("  {label:<16} {single:8.2}   {lanes1:8.2}   {lanes16:8.2}");
        rows.push(Json::obj(vec![
            ("spec", Json::str(label)),
            ("cell_updates", Json::Int(cell_updates as i64)),
            ("single_ns_per_cell", Json::Num(single)),
            ("lanes1_ns_per_cell", Json::Num(lanes1)),
            ("lanes16_ns_per_cell", Json::Num(lanes16)),
        ]));
    }
    println!();
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BatchFlags::parse(&args, 4);
    let json_path = arg_value(&args, "--json").unwrap_or_else(|| "BENCH_replay.json".into());

    let workload = paper_problem(11, 11, 100);
    let input = workload.ramp_input();

    // --- 1. Capture overhead ---------------------------------------------
    let t0 = Instant::now();
    let mut plain_sys = workload.smache(HybridMode::default());
    let plain = plain_sys.run(&input, workload.instances).expect("run");
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let mut capture_sys = workload.smache(HybridMode::default());
    let (captured, schedule) = capture_sys
        .run_captured(&input, workload.instances)
        .expect("capture");
    let capture_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(captured.output, plain.output, "capture changed the run");

    let t0 = Instant::now();
    let replayed = schedule
        .replay(&smache::arch::kernel::AverageKernel, &input)
        .expect("replay");
    let replay_one_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(replayed.output, plain.output, "replay diverged");

    println!(
        "== capture overhead (11x11 x {} instances) ==",
        workload.instances
    );
    println!("  full sim            {full_ms:8.2} ms");
    println!(
        "  capturing sim       {capture_ms:8.2} ms ({:+.0}% overhead)",
        (capture_ms / full_ms - 1.0) * 100.0
    );
    println!(
        "  single replay       {replay_one_ms:8.2} ms ({:.1}x vs full sim)",
        full_ms / replay_one_ms
    );
    println!(
        "  schedule size       {:8} bytes ({} recorded cycles)\n",
        schedule.approx_bytes(),
        schedule.trace().len()
    );

    // --- 2./4. Batch speedup + bit-exactness -----------------------------
    let make_jobs =
        |lanes: u64| -> Vec<BatchJob> { workload.batch_jobs(0..lanes, HybridMode::default()) };

    const BATCH_REPS: usize = 5;
    let mut batch_rows = Vec::new();
    println!(
        "== batch sweep: full sim vs lane-batched schedule replay ({} job(s), lane block {}, median of {BATCH_REPS}) ==",
        flags.jobs, flags.lane_block
    );
    println!("  lanes      full(ms)    replay(ms)   speedup   replayed");
    for lanes in [1u64, 8, 64] {
        let (full_wall, full) = median_ms(BATCH_REPS, || {
            SmacheSystem::run_batch(
                make_jobs(lanes),
                BatchOptions::new()
                    .threads(flags.jobs)
                    .replay(ReplayMode::Off),
            )
        });
        let (fast_wall, fast) = median_ms(BATCH_REPS, || {
            SmacheSystem::run_batch(make_jobs(lanes), flags.options())
        });

        let replayed_lanes = assert_bit_exact(&full, &fast);
        let speedup = full_wall / fast_wall;
        println!(
            "  {lanes:>5}    {full_wall:9.2}    {fast_wall:9.2}   {speedup:6.2}x   {replayed_lanes}/{lanes}"
        );
        batch_rows.push(Json::obj(vec![
            ("lanes", Json::Int(lanes as i64)),
            ("full_ms", Json::Num(full_wall)),
            ("replay_ms", Json::Num(fast_wall)),
            ("speedup", Json::Num(speedup)),
            ("replayed_lanes", Json::Int(replayed_lanes as i64)),
            ("fingerprints_match", Json::Bool(true)),
        ]));
    }
    println!("  (fingerprints and cycle stats asserted bit-identical per lane)\n");

    // --- 3. Chaos replay: latency-only plan across data seeds ------------
    const CHAOS_SEED: u64 = 7;
    const CHAOS_LANES: u64 = 8;
    let chaos_config = SystemConfig {
        fault_plan: FaultPlan::new(CHAOS_SEED, ChaosProfile::storms()),
        ..SystemConfig::default()
    };
    let chaos_jobs = || -> Vec<BatchJob> {
        workload
            .batch_jobs(0..CHAOS_LANES, HybridMode::default())
            .into_iter()
            .map(|j| j.with_config(chaos_config))
            .collect()
    };
    let t0 = Instant::now();
    let chaos_full = SmacheSystem::run_batch(
        chaos_jobs(),
        BatchOptions::new()
            .threads(flags.jobs)
            .replay(ReplayMode::Off),
    );
    let chaos_full_wall = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    // Forced `on`: a refusal would error a lane, so success proves the
    // chaotic control plane genuinely replayed.
    let chaos_fast = SmacheSystem::run_batch(
        chaos_jobs(),
        BatchOptions::new()
            .threads(flags.jobs)
            .replay(ReplayMode::On)
            .lane_block(flags.lane_block),
    );
    let chaos_fast_wall = t0.elapsed().as_secs_f64() * 1e3;
    let chaos_replayed = assert_bit_exact(&chaos_full, &chaos_fast);
    assert!(
        chaos_replayed >= 1,
        "the chaotic sweep must serve lanes by replay"
    );
    let chaos_speedup = chaos_full_wall / chaos_fast_wall;
    println!(
        "== chaos replay: storms profile, chaos seed {CHAOS_SEED}, {CHAOS_LANES} data seeds =="
    );
    println!(
        "  full {chaos_full_wall:9.2} ms   replay {chaos_fast_wall:9.2} ms   \
         {chaos_speedup:5.2}x   {chaos_replayed}/{CHAOS_LANES} replayed (bit-exact)\n"
    );

    // --- 5. Replay loops on the seed-sweep specs --------------------------
    let loops = loop_rows();

    let doc = Json::obj(vec![
        ("artefact", Json::str("replay")),
        ("grid", Json::str("11x11")),
        ("instances", Json::Int(workload.instances as i64)),
        ("jobs", Json::Int(flags.jobs as i64)),
        ("lane_block", Json::Int(flags.lane_block as i64)),
        (
            "capture",
            Json::obj(vec![
                ("full_ms", Json::Num(full_ms)),
                ("capture_ms", Json::Num(capture_ms)),
                ("overhead_ratio", Json::Num(capture_ms / full_ms)),
                ("replay_one_ms", Json::Num(replay_one_ms)),
                ("schedule_bytes", Json::Int(schedule.approx_bytes() as i64)),
                ("trace_cycles", Json::Int(schedule.trace().len() as i64)),
            ]),
        ),
        ("batches", Json::Arr(batch_rows)),
        (
            "chaos",
            Json::obj(vec![
                ("profile", Json::str("storms")),
                ("chaos_seed", Json::Int(CHAOS_SEED as i64)),
                ("lanes", Json::Int(CHAOS_LANES as i64)),
                ("full_ms", Json::Num(chaos_full_wall)),
                ("replay_ms", Json::Num(chaos_fast_wall)),
                ("speedup", Json::Num(chaos_speedup)),
                ("replayed_lanes", Json::Int(chaos_replayed as i64)),
                ("fingerprints_match", Json::Bool(true)),
            ]),
        ),
        ("loops", Json::Arr(loops)),
    ]);
    std::fs::write(&json_path, doc.pretty()).expect("write replay summary");
    println!("replay summary written to {json_path}");
}
