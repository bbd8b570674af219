//! The CLI commands. Each command writes its report into a `String` so it
//! is unit-testable; `main` prints it.

use std::fmt::Write as _;
use std::sync::Arc;

use smache::arch::kernel::AverageKernel;
use smache::arch::kernel::Kernel as _;
use smache::cost::{CostEstimate, CycleModel, FreqModel, SynthesisModel};
use smache::functional::golden::golden_run;
use smache::spec::seeded_input;
use smache::system::{CaptureOutcome, ControlSchedule, DesignMetrics, ReplayMode, RunReport};
use smache_baseline::{BaselineConfig, BaselineSystem};
use smache_codegen::{lint_verilog, VerilogGen};

use crate::args::{ArgError, Args};
use crate::spec::{spec_from_args, ProblemSpec};

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems.
    Args(ArgError),
    /// Library errors.
    Core(smache::CoreError),
    /// I/O problems (codegen output).
    Io(std::io::Error),
    /// Unknown command word.
    UnknownCommand(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}` (try `smache help`)")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}
impl From<smache::CoreError> for CliError {
    fn from(e: smache::CoreError) -> Self {
        CliError::Core(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

const VALUED: &[&str] = &[
    "grid",
    "shape",
    "rows",
    "cols",
    "bounds",
    "hybrid",
    "strategy",
    "statics",
    "word-bits",
    "timesteps",
    "channels",
    "instances",
    "seed",
    "design",
    "out",
    "budget-bits",
    "lanes",
    "batch",
    "jobs",
    "chaos-seed",
    "chaos-profile",
    "replay",
    "lane-block",
    "schedule-cache-kb",
    "trace",
    "trace-out",
    "top",
    "listen",
    "workers",
    "queue",
    "cache-kb",
    "deadline-ms",
    "max-conns",
    "buffer-pool-kb",
    "conn-idle-ms",
    "to",
    "json",
    "store",
    "store-mb",
    "from",
];
const FLAGS: &[&str] = &["verify", "quiet", "analyze", "adaptive"];

/// Usage text.
pub fn usage() -> String {
    "\
smache — Smart-Cache architecture explorer (paper reproduction)

USAGE:
  smache <command> [options]

COMMANDS:
  plan       analyse a problem and print the buffer plan
  cost       print estimated vs synthesised on-chip memory (Table I style)
  predict    closed-form cycle/time prediction (no simulation)
  simulate   run the cycle-accurate system (and optionally the baseline)
  trace      run with telemetry and export/analyse the probe trace
  codegen    generate Verilog for the configured instance
  serve      run the job server (newline-delimited JSON over a socket)
  call       send one JSON request to a running server
  schedules  inspect or ship a persistent schedule store
  help       this text

PROBLEM OPTIONS (all commands):
  --grid HxW | N | DxHxW   grid size                [11x11]
  --shape four|five|nine|seven|<k>                  [four]
  --rows / --cols open|circular|mirror|const:<v>    [circular / open]
  --bounds <word>          boundary for 1D/3D grids [open]
  --hybrid r|h|h:<thr>     stream-buffer style      [h]
  --strategy global|greedy|exact                    [global]
  --statics bram|reg       static-buffer placement  [bram]
  --word-bits N            logical word width       [32]
  --timesteps T            temporal pipeline depth: chain T Smache stages
                           so T grid updates cost one DRAM pass [1]
  --channels C             independent DRAM channels feeding the
                           pipeline (word-interleaved address map) [1]

SIMULATE OPTIONS:
  --instances N            work-instances           [100]
  --seed S                 input generator seed     [1]
  --design smache|baseline|both                     [smache]
  --lanes P                multi-lane Smache (P elements/cycle) [1]
  --batch N                run N seeds (seed, seed+1, ...) as a batch [off]
  --jobs J                 worker threads for --batch             [1]
  --chaos-profile P        off|jitter|storms|drain|heavy|flip:<k> [off]
  --chaos-seed S           fault-injection seed     [0]
  --replay auto|on|off     control-schedule replay: capture the control
                           plane once, stream data through it (bit-exact;
                           latency-only chaos replays too, keyed on its
                           chaos seed — auto falls back when bit flips,
                           stall fuzzing or tracing make the control
                           plane data-dependent)  [auto]
  --store DIR              with --batch: persistent schedule store — load
                           captured schedules from DIR and write new
                           captures back (see docs/DEPLOYMENT.md) [off]
  --lane-block N           with --batch: lanes replayed per structure-of-
                           arrays block (one gather decode per block) [16]
  --verify                 check against the golden reference
  --trace FMT              export a probe trace (vcd|chrome|ascii); needs
                           --trace-out, single-system runs only
  --trace-out PATH         file the trace artifact is written to

TRACE OPTIONS (plus the problem/simulate options above):
  --instances N            work-instances           [1]
  --trace FMT              vcd|chrome|ascii         [vcd]
  --trace-out PATH         write the artifact here (else print it)
  --analyze                print the bottleneck report (stall attribution,
                           FSM state residency, occupancy histograms)
  --top K                  stall causes listed by --analyze [5]

CODEGEN OPTIONS:
  --out DIR                output directory         [smache_rtl]

SERVE OPTIONS (see docs/SERVING.md for the protocol):
  --listen ADDR            unix:<path> | tcp:<host>:<port> [tcp:127.0.0.1:7227]
  --workers N              worker threads           [2]
  --queue N                admission-queue capacity [32]
  --cache-kb KB            result-cache byte budget [4096]
  --schedule-cache-kb KB   schedule-cache byte budget (second-level
                           cache of captured control schedules) [4096]
  --store DIR              persistent schedule store: warm-start the
                           schedule cache from DIR and write new captures
                           back (third level; see docs/DEPLOYMENT.md) [off]
  --store-mb MB            store disk byte budget, LRU-evicted [64]
  --deadline-ms MS         default per-request deadline [none]
  --max-conns N            open connections the reactor holds; further
                           accepts get a typed error [1024]
  --adaptive               drive the admission limit with an AIMD
                           controller (deadline misses shrink it,
                           on-time completions regrow it) [off]
  --buffer-pool-kb KB      recycled connection-buffer pool budget [1024]
  --conn-idle-ms MS        close connections idle this long with no job
                           in flight (typed `idle_timeout`) [off]

CALL OPTIONS:
  --to ADDR                server address (unix:... | tcp:...)
  --json TEXT              the request, e.g. '{\"cmd\":\"stats\"}'

SCHEDULES ACTIONS (smache schedules <action> --store DIR):
  ls                       list entries (key, kernel, size, cycles)
  verify                   checksum + structural check of every entry
  export                   write every sound entry to a pack (--out FILE)
  import                   import a pack written by export (--from FILE)
  --store DIR              the store directory (required)
  --store-mb MB            byte budget applied on open (0 = unbounded) [0]
  --out FILE               export: pack file to write
  --from FILE              import: pack file to read
"
    .to_string()
}

/// Entry point: parses `raw` and runs the command, returning the report.
pub fn run(raw: &[String]) -> Result<String, CliError> {
    // `schedules <action>` takes a positional action word, which the flag
    // parser would reject; peel it off before parsing the options.
    if raw.first().map(String::as_str) == Some("schedules") {
        let action = match raw.get(1).map(String::as_str) {
            Some(a) if !a.starts_with("--") => a.to_string(),
            _ => {
                return Err(ArgError::BadValue {
                    key: "schedules".into(),
                    value: raw.get(1).cloned().unwrap_or_else(|| "(none)".into()),
                    expected: "an action: ls|verify|export|import".into(),
                }
                .into())
            }
        };
        let mut rest: Vec<String> = vec!["schedules".into()];
        rest.extend_from_slice(&raw[2..]);
        let args = Args::parse(&rest, VALUED, FLAGS)?;
        return cmd_schedules(&action, &args);
    }
    let args = Args::parse(raw, VALUED, FLAGS)?;
    match args.command.as_str() {
        "plan" => cmd_plan(&args),
        "cost" => cmd_cost(&args),
        "predict" => cmd_predict(&args),
        "simulate" | "sim" => cmd_simulate(&args),
        "trace" => cmd_trace(&args),
        "codegen" => cmd_codegen(&args),
        "serve" => cmd_serve(&args),
        "call" => cmd_call(&args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn cmd_plan(args: &Args) -> Result<String, CliError> {
    let spec = spec_from_args(args)?;
    let mut builder = spec.builder();
    if let Some(b) = args.get("budget-bits") {
        let bits: u64 = b.parse().map_err(|_| ArgError::BadValue {
            key: "budget-bits".into(),
            value: b.into(),
            expected: "bits".into(),
        })?;
        builder = builder.on_chip_budget_bits(bits);
    }
    let plan = builder.plan()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "problem: grid {:?}, {} stencil points, {} stencil cases",
        plan.grid.dims(),
        plan.shape.len(),
        plan.n_cases
    );
    let _ = writeln!(
        out,
        "stream buffer: {} words (lookahead {}, lookback {}, mode {})",
        plan.capacity,
        plan.lookahead,
        plan.lookback,
        plan.hybrid.label()
    );
    let _ = writeln!(
        out,
        "taps at window positions {:?} (centre {})",
        plan.taps,
        plan.centre_pos()
    );
    if plan.static_buffers.is_empty() {
        let _ = writeln!(out, "static buffers: none needed");
    } else {
        for b in &plan.static_buffers {
            let _ = writeln!(out,
                "static buffer {}: {} words, offset {:+}, contents = grid[{}..{}], serves elements {}..{}",
                b.name, b.len, b.offset, b.region_start, b.region_start + b.len,
                b.range_start, b.range_start + b.len);
        }
    }
    let _ = writeln!(
        out,
        "formal-model cost: {} words (stream window + statics)",
        plan.model_words()
    );
    let _ = writeln!(
        out,
        "estimated Fmax: {:.1} MHz",
        FreqModel.smache_fmax(&plan)
    );
    Ok(out)
}

fn cmd_cost(args: &Args) -> Result<String, CliError> {
    let spec = spec_from_args(args)?;
    let plan = spec.builder().plan()?;
    let est = CostEstimate.memory(&plan);
    let act = SynthesisModel.memory(&plan);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "", "Rsc", "Bsc", "Rsm", "Bsm", "Rtotal", "Btotal"
    );
    for (tag, m) in [("Estimate", est), ("Actual", act)] {
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            tag,
            m.r_static,
            m.b_static,
            m.r_stream,
            m.b_stream,
            m.r_total(),
            m.b_total()
        );
    }
    let _ = writeln!(
        out,
        "\ntotal estimate: {} bits on-chip",
        CostEstimate.total_bits(&plan)
    );
    Ok(out)
}

fn cmd_predict(args: &Args) -> Result<String, CliError> {
    let spec = spec_from_args(args)?;
    let instances: u64 = args.get_num("instances", 100)?;
    let plan = spec.builder().plan()?;
    let dram = smache_mem::DramConfig::default();
    let kernel = smache::arch::kernel::AverageKernel;

    let sm = CycleModel.smache(&plan, &dram, kernel.latency(), instances);
    let avg_reads = CycleModel.avg_reads(&plan);
    let bl = CycleModel.baseline(plan.grid.len() as u64, avg_reads, 0.0, &dram, instances);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "closed-form prediction, {instances} work-instances (no simulation):"
    );
    let _ = writeln!(
        out,
        "  smache:   {:>12} cycles @ {:>6.1} MHz = {:>10.1} us (warm-up {})",
        sm.cycles,
        sm.fmax_mhz,
        sm.exec_us(),
        sm.warmup_cycles
    );
    let _ = writeln!(
        out,
        "  baseline: {:>12} cycles @ {:>6.1} MHz = {:>10.1} us ({:.2} reads/point)",
        bl.cycles,
        bl.fmax_mhz,
        bl.exec_us(),
        avg_reads
    );
    let _ = writeln!(
        out,
        "  predicted speed-up: {:.2}x",
        bl.exec_us() / sm.exec_us()
    );
    Ok(out)
}

/// Parses `--chaos-seed`/`--chaos-profile` into a [`smache_mem::FaultPlan`].
fn chaos_plan(args: &Args) -> Result<smache_mem::FaultPlan, CliError> {
    let name = args.get_or("chaos-profile", "off");
    let profile = smache_mem::ChaosProfile::from_name(name).ok_or_else(|| ArgError::BadValue {
        key: "chaos-profile".into(),
        value: name.into(),
        expected: "off|jitter|storms|drain|heavy|flip:<k>".into(),
    })?;
    let seed: u64 = args.get_num("chaos-seed", 0)?;
    Ok(smache_mem::FaultPlan::new(seed, profile))
}

/// Validates `--trace` against the known exporter formats.
fn trace_format<'a>(args: &'a Args, default: &'a str) -> Result<&'a str, CliError> {
    let fmt = args.get_or("trace", default);
    if ["vcd", "chrome", "ascii"].contains(&fmt) {
        Ok(fmt)
    } else {
        Err(ArgError::BadValue {
            key: "trace".into(),
            value: fmt.into(),
            expected: "vcd|chrome|ascii".into(),
        }
        .into())
    }
}

/// Exports the system's probe trace, self-checks it, and either writes it
/// to `--trace-out` or returns it for inline printing.
fn export_trace(
    system: &smache::system::SmacheSystem,
    fmt: &str,
    args: &Args,
    out: &mut String,
) -> Result<(), CliError> {
    let artifact = system
        .export_trace(fmt, "smache")
        .expect("telemetry attached and format validated");
    let check = match fmt {
        "vcd" => smache_sim::telemetry::vcd_self_check(&artifact),
        "chrome" => smache_sim::telemetry::chrome_self_check(&artifact),
        _ => Ok(()),
    };
    if let Err(e) = check {
        return Err(smache::CoreError::Config(format!("{fmt} self-check failed: {e}")).into());
    }
    let tel = system.telemetry().expect("telemetry attached");
    let events = tel.probes.events().count();
    let dropped = tel.probes.dropped();
    match args.get("trace-out") {
        Some(path) => {
            std::fs::write(path, &artifact)?;
            let _ = writeln!(
                out,
                "trace: wrote {} bytes of {fmt} ({} probes, {events} events, {dropped} dropped) to {path}",
                artifact.len(),
                tel.probes.probe_count(),
            );
        }
        None => out.push_str(&artifact),
    }
    Ok(())
}

/// `trace`: run the cycle-accurate system with telemetry attached, export
/// the probe trace, and optionally print the bottleneck analysis.
fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let spec = spec_from_args(args)?;
    if spec.pipelined() {
        return Err(ArgError::BadValue {
            key: "timesteps".into(),
            value: format!("{} (channels {})", spec.timesteps, spec.channels),
            expected: "a single-stage spec (`trace` drives the single-step system; \
                       pipelined runs go through `simulate`)"
                .into(),
        }
        .into());
    }
    let instances: u64 = args.get_num("instances", 1)?;
    let seed: u64 = args.get_num("seed", 1)?;
    let top: usize = args.get_num("top", 5)?;
    let fmt = trace_format(args, "vcd")?;
    let chaos = chaos_plan(args)?;

    let input = seeded_input(spec.grid.len(), seed);

    let mut system = spec
        .builder()
        .fault_plan(chaos)
        .telemetry(smache_sim::TelemetryConfig::default())
        .build()?;
    let report = system.run(&input, instances)?;

    let mut out = String::new();
    export_trace(&system, fmt, args, &mut out)?;
    if args.flag("analyze") {
        let _ = writeln!(
            out,
            "run: {} cycles, {} beats, stall fraction {:.3}",
            report.stats.cycles,
            report.stats.transfers,
            report.stall_fraction()
        );
        let _ = writeln!(
            out,
            "dram: row hit rate {:.3} ({} hits / {} misses)",
            report.metrics.dram_row_hit_rate(),
            report.metrics.dram.row_hits,
            report.metrics.dram.row_misses
        );
        out.push_str(&report.render_analysis(top));
    }
    Ok(out)
}

/// Parses `--replay auto|on|off` (default `auto`).
fn replay_mode(args: &Args) -> Result<ReplayMode, CliError> {
    let v = args.get_or("replay", "auto");
    match ReplayMode::from_label(v) {
        Some(mode) => Ok(mode),
        None => Err(ArgError::BadValue {
            key: "replay".into(),
            value: v.into(),
            expected: "auto|on|off".into(),
        }
        .into()),
    }
}

/// The shared batch flag group —
/// `--jobs/--replay/--store/--store-mb/--lane-block` — parsed here exactly
/// as the bench bins (`fig2`, `chaos`, `replay`) parse it and as the serve
/// request schema mirrors it (`jobs`/`replay`/`lane-block` request keys).
struct BatchFlags {
    jobs: usize,
    mode: ReplayMode,
    store: Option<smache::system::ScheduleStore>,
    lane_block: usize,
}

fn batch_flags(args: &Args) -> Result<BatchFlags, CliError> {
    Ok(BatchFlags {
        jobs: args.get_num("jobs", 1)?,
        mode: replay_mode(args)?,
        store: match args.get("store") {
            Some(_) => Some(open_store(args, 0)?),
            None => None,
        },
        lane_block: args.get_num("lane-block", smache::system::DEFAULT_LANE_BLOCK)?,
    })
}

/// Hex fingerprint of an output grid, printed so replay and full-sim runs
/// can be compared for bit-exactness from the command line.
fn output_fp(output: &[u64]) -> String {
    let mut bytes = Vec::with_capacity(output.len() * 8);
    for w in output {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let (hi, lo) = smache_sim::hash::fingerprint128(&bytes);
    format!("{hi:016x}{lo:016x}")
}

/// The golden reference output when `--verify` is set.
fn golden_output(
    args: &Args,
    spec: &ProblemSpec,
    input: &[u64],
    instances: u64,
) -> Result<Option<Vec<u64>>, CliError> {
    if !args.flag("verify") {
        return Ok(None);
    }
    Ok(Some(golden_run(
        &spec.grid,
        &spec.bounds,
        &spec.shape,
        &AverageKernel,
        input,
        instances,
    )?))
}

/// Checks a run's output against the golden grid. A difference is a
/// [`smache::CoreError::Mismatch`] naming the first differing element and
/// both of its words.
fn check_golden(output: &[u64], golden: &[u64]) -> Result<(), smache::CoreError> {
    if output.len() != golden.len() {
        return Err(smache::CoreError::Config(format!(
            "output holds {} words, the golden grid {}",
            output.len(),
            golden.len()
        )));
    }
    match output.iter().zip(golden).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(index) => Err(smache::CoreError::Mismatch {
            index,
            expected: golden[index],
            actual: output[index],
        }),
    }
}

/// Runs one engine under the `--replay` policy. A captured schedule is
/// replayed over the same input, so `engine=replay` prints the replay
/// path's own output; a fallback names its typed reason.
fn run_with_replay<E>(
    mode: ReplayMode,
    engine: &mut E,
    input: &[u64],
    run: impl FnOnce(&mut E) -> smache::CoreResult<RunReport>,
    capture: impl FnOnce(&mut E) -> smache::CoreResult<(RunReport, Arc<ControlSchedule>)>,
) -> Result<(RunReport, String), CliError> {
    Ok(match mode.capture_or_run(engine, run, capture)? {
        CaptureOutcome::FullSim(report) => (report, "engine=full_sim".into()),
        CaptureOutcome::Captured(_, schedule) => (
            schedule
                .replay(&AverageKernel, input)
                .map_err(smache::CoreError::ReplayRefused)?,
            "engine=replay".into(),
        ),
        CaptureOutcome::Fallback(report, why) => {
            (report, format!("engine=full_sim fallback={}", why.label()))
        }
    })
}

/// Prints one Smache run — metrics, warm-up, the engine note with the
/// output fingerprint, chaos counters — and checks it against `golden`.
fn print_smache_run(
    out: &mut String,
    metrics: &DesignMetrics,
    output: &[u64],
    warmup: u64,
    engine_note: &str,
    chaos: &smache_mem::FaultPlan,
    golden: Option<&[u64]>,
) -> Result<(), CliError> {
    let _ = writeln!(out, "{metrics}");
    let _ = writeln!(
        out,
        "  warm-up {warmup} cycles; resources: {}",
        metrics.resources
    );
    let _ = writeln!(out, "  {engine_note} fp={}", output_fp(output));
    if chaos.is_active() {
        let _ = writeln!(out, "  chaos (seed {}): {}", chaos.seed, metrics.faults);
    }
    if let Some(golden) = golden {
        check_golden(output, golden)?;
        let _ = writeln!(out, "  verified against golden reference");
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let spec = spec_from_args(args)?;
    let instances: u64 = args.get_num("instances", 100)?;
    let seed: u64 = args.get_num("seed", 1)?;
    if spec.pipelined() {
        return cmd_simulate_pipeline(args, &spec, instances, seed);
    }
    let design = args.get_or("design", "smache");
    if !["smache", "baseline", "both"].contains(&design) {
        return Err(ArgError::BadValue {
            key: "design".into(),
            value: design.into(),
            expected: "smache|baseline|both".into(),
        }
        .into());
    }

    let chaos = chaos_plan(args)?;

    let batch: u64 = args.get_num("batch", 0)?;
    let lanes: usize = args.get_num("lanes", 1)?;
    let trace_fmt: Option<&str> = match args.get("trace") {
        Some(_) => Some(trace_format(args, "vcd")?),
        None => None,
    };
    if trace_fmt.is_some() {
        if batch > 0 || lanes > 1 || design == "baseline" {
            return Err(ArgError::BadValue {
                key: "trace".into(),
                value: args.get_or("trace", "vcd").into(),
                expected: "a single-system smache run (no --batch, --lanes or --design baseline)"
                    .into(),
            }
            .into());
        }
        if args.get("trace-out").is_none() {
            return Err(ArgError::MissingValue(
                "trace-out (simulate prints metrics; the trace goes to a file)".into(),
            )
            .into());
        }
    }
    if batch > 0 {
        return cmd_simulate_batch(args, &spec, instances, seed, batch);
    }

    let input = seeded_input(spec.grid.len(), seed);
    let golden = golden_output(args, &spec, &input, instances)?;

    let mode = replay_mode(args)?;
    let mut out = String::new();
    if design == "smache" || design == "both" {
        if lanes > 1 {
            if mode == ReplayMode::On {
                return Err(smache::CoreError::Config(
                    "--replay on does not support --lanes (multilane runs full sim)".into(),
                )
                .into());
            }
            let plan = spec.builder().plan()?;
            let config = smache::system::smache_system::SystemConfig {
                fault_plan: chaos,
                ..Default::default()
            };
            let mut system = smache::system::multilane::MultilaneSystem::new(
                plan,
                Box::new(AverageKernel),
                lanes,
                config,
            )?;
            let report = system.run(&input, instances)?;
            print_smache_run(
                &mut out,
                &report.metrics,
                &report.output,
                0,
                "engine=full_sim",
                &chaos,
                golden.as_deref(),
            )?;
        } else {
            let mut builder = spec.builder().fault_plan(chaos);
            if trace_fmt.is_some() {
                builder = builder.telemetry(smache_sim::TelemetryConfig::default());
            }
            let mut system = builder.build()?;
            let (report, engine_note) = run_with_replay(
                mode,
                &mut system,
                &input,
                |s| s.run(&input, instances),
                |s| s.run_captured(&input, instances),
            )?;
            if let Some(fmt) = trace_fmt {
                export_trace(&system, fmt, args, &mut out)?;
            }
            print_smache_run(
                &mut out,
                &report.metrics,
                &report.output,
                report.warmup_cycles,
                &engine_note,
                &chaos,
                golden.as_deref(),
            )?;
        }
    }
    if design == "baseline" || design == "both" {
        let mut baseline = BaselineSystem::new(
            spec.grid.clone(),
            spec.shape.clone(),
            spec.bounds.clone(),
            Box::new(AverageKernel),
            BaselineConfig::default(),
        )?;
        let report = baseline.run(&input, instances)?;
        let _ = writeln!(out, "{}", report.metrics);
        let _ = writeln!(out, "  resources: {}", report.metrics.resources);
        if let Some(golden) = &golden {
            check_golden(&report.output, golden)?;
            let _ = writeln!(out, "  verified against golden reference");
        }
    }
    Ok(out)
}

/// `simulate` for a pipelined spec (`--timesteps`/`--channels`): the
/// temporal pipeline advances `timesteps` grid updates per DRAM pass, so
/// `--instances` must be a multiple of the depth. Verification and replay
/// work exactly as for the single-step system; `--batch`, `--lanes`,
/// `--trace` and non-Smache designs are single-step-only.
fn cmd_simulate_pipeline(
    args: &Args,
    spec: &ProblemSpec,
    instances: u64,
    seed: u64,
) -> Result<String, CliError> {
    let depth = spec.timesteps.max(1);
    for (key, unsupported) in [
        ("batch", args.get("batch").is_some()),
        ("lanes", args.get_num::<usize>("lanes", 1)? > 1),
        ("trace", args.get("trace").is_some()),
        ("design", args.get_or("design", "smache") != "smache"),
    ] {
        if unsupported {
            return Err(ArgError::BadValue {
                key: key.into(),
                value: args.get_or(key, "").into(),
                expected: "a single-step spec (pipelined --timesteps/--channels runs \
                           the Smache temporal pipeline only)"
                    .into(),
            }
            .into());
        }
    }
    if !instances.is_multiple_of(depth) {
        return Err(ArgError::BadValue {
            key: "instances".into(),
            value: instances.to_string(),
            expected: format!("a multiple of --timesteps {depth} (each DRAM pass advances the grid {depth} updates)"),
        }
        .into());
    }
    let passes = instances / depth;

    let chaos = chaos_plan(args)?;
    let mode = replay_mode(args)?;
    let plan = spec.builder().plan()?;
    let config = smache::PipelineConfig {
        depth: depth as usize,
        channels: spec.channels,
        system: smache::system::smache_system::SystemConfig {
            fault_plan: chaos,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut pipe = smache::TemporalPipeline::new(plan, Box::new(AverageKernel), config)?;
    let input = seeded_input(spec.grid.len(), seed);
    let (report, engine_note) = run_with_replay(
        mode,
        &mut pipe,
        &input,
        |p| p.run(&input, passes),
        |p| p.run_captured(&input, passes),
    )?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "pipeline: {depth} stage(s) x {passes} pass(es) = {instances} timestep(s), {} channel(s)",
        spec.channels
    );
    let golden = golden_output(args, spec, &input, instances)?;
    print_smache_run(
        &mut out,
        &report.metrics,
        &report.output,
        report.warmup_cycles,
        &engine_note,
        &chaos,
        golden.as_deref(),
    )?;
    Ok(out)
}

/// `simulate --batch N [--jobs J]`: N seeded runs of the Smache design
/// sharded across J worker threads, reported per lane plus in aggregate.
fn cmd_simulate_batch(
    args: &Args,
    spec: &ProblemSpec,
    instances: u64,
    seed: u64,
    batch: u64,
) -> Result<String, CliError> {
    let BatchFlags {
        jobs,
        mode,
        mut store,
        lane_block,
    } = batch_flags(args)?;
    let chaos = chaos_plan(args)?;
    let config = smache::system::smache_system::SystemConfig {
        fault_plan: chaos,
        ..Default::default()
    };
    let plan = spec.builder().plan()?;
    let inputs: Vec<Vec<u64>> = (0..batch)
        .map(|lane| seeded_input(spec.grid.len(), seed + lane))
        .collect();
    let kernel: smache::system::KernelFactory = Arc::new(|| Box::new(AverageKernel));
    let lanes: Vec<smache::system::batch::BatchJob> = inputs
        .iter()
        .map(|input| {
            smache::system::batch::BatchJob::new(
                plan.clone(),
                Arc::clone(&kernel),
                input.clone(),
                instances,
            )
            .with_config(config)
        })
        .collect();

    let mut options = smache::system::BatchOptions::new()
        .threads(jobs)
        .replay(mode)
        .lane_block(lane_block);
    if let Some(store) = store.as_mut() {
        options = options.store(store);
    }
    let start = std::time::Instant::now();
    let report = smache::system::SmacheSystem::run_batch(lanes, options);
    let wall = start.elapsed();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "batch: {batch} lane(s) x {instances} instance(s), {jobs} job(s), replay {}",
        mode.label()
    );
    if let Some(store) = &store {
        let s = store.stats();
        let _ = writeln!(
            out,
            "store: {} hits, {} writes, {} entries ({} bytes) in {}",
            s.hits,
            s.writes,
            store.len(),
            store.bytes(),
            store.dir().display()
        );
    }
    for (lane, (result, input)) in report.lanes.iter().zip(&inputs).enumerate() {
        let lane_report = result.as_ref().map_err(|e| CliError::Core(e.clone()))?;
        let _ = writeln!(
            out,
            "  seed {:>4}: {:>8} cycles, {:>6} beats, engine={}",
            seed + lane as u64,
            lane_report.metrics.cycles,
            lane_report.stats.transfers,
            lane_report.engine.label()
        );
        if chaos.is_active() {
            let _ = writeln!(out, "    chaos: {}", lane_report.metrics.faults);
        }
        if let Some(golden) = golden_output(args, spec, input, instances)? {
            check_golden(&lane_report.output, &golden)?;
        }
    }
    if args.flag("verify") {
        let _ = writeln!(out, "  all lanes verified against golden reference");
    }
    let _ = writeln!(
        out,
        "aggregate: {} ({:.1} ms wall-clock)",
        report.aggregate,
        wall.as_secs_f64() * 1e3
    );
    Ok(out)
}

fn cmd_codegen(args: &Args) -> Result<String, CliError> {
    let spec = spec_from_args(args)?;
    let out_dir = args.get_or("out", "smache_rtl");
    let plan = spec.builder().plan()?;
    let design = VerilogGen::new(&plan).generate()?;
    let mut out = String::new();
    for (name, src) in &design.files {
        let issues = lint_verilog(src);
        if !issues.is_empty() {
            return Err(
                smache::CoreError::Config(format!("{name} lints dirty: {issues:?}")).into(),
            );
        }
        let _ = writeln!(out, "{name}: {} lines", src.lines().count());
    }
    design.write_to_dir(std::path::Path::new(out_dir))?;
    let _ = writeln!(out, "wrote {} files to {out_dir}/", design.files.len());
    Ok(out)
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let addr = args.get_or("listen", "tcp:127.0.0.1:7227");
    let listen = smache_serve::Listen::parse(addr).map_err(|_| ArgError::BadValue {
        key: "listen".into(),
        value: addr.into(),
        expected: "unix:<path> or tcp:<host>:<port>".into(),
    })?;
    let config = smache_serve::ServeConfig {
        listen,
        workers: args.get_num("workers", 2usize)?,
        queue_cap: args.get_num("queue", 32usize)?,
        cache_bytes: args.get_num("cache-kb", 4096usize)? * 1024,
        schedule_cache_bytes: args.get_num("schedule-cache-kb", 4096usize)? * 1024,
        store_dir: args.get("store").map(std::path::PathBuf::from),
        store_bytes: args.get_num("store-mb", 64u64)? * 1024 * 1024,
        default_deadline_ms: match args.get("deadline-ms") {
            None => None,
            Some(v) => Some(v.parse().map_err(|_| ArgError::BadValue {
                key: "deadline-ms".into(),
                value: v.into(),
                expected: "milliseconds".into(),
            })?),
        },
        max_conns: args.get_num("max-conns", 1024usize)?,
        adaptive: args.flag("adaptive"),
        buffer_pool_bytes: args.get_num("buffer-pool-kb", 1024usize)? * 1024,
        conn_idle_ms: match args.get("conn-idle-ms") {
            None => None,
            Some(v) => Some(v.parse().map_err(|_| ArgError::BadValue {
                key: "conn-idle-ms".into(),
                value: v.into(),
                expected: "milliseconds".into(),
            })?),
        },
    };
    let handle = smache_serve::start(config)?;
    let bound = handle.addr().to_string();
    // The report string only exists after the drain; announce readiness
    // (and the actual port when `tcp:...:0` was requested) immediately.
    eprintln!("smache serve: listening on {bound}");
    handle.join();
    Ok(format!("smache serve: drained and exited ({bound})\n"))
}

/// Opens the `--store DIR` schedule store (budget from `--store-mb`,
/// defaulting to `default_mb`). Store errors surface as I/O errors.
fn open_store(args: &Args, default_mb: u64) -> Result<smache::system::ScheduleStore, CliError> {
    let dir = args
        .get("store")
        .ok_or_else(|| ArgError::MissingValue("store".into()))?;
    let budget = args.get_num("store-mb", default_mb)? * 1024 * 1024;
    smache::system::ScheduleStore::open(std::path::Path::new(dir), budget)
        .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))
}

/// `schedules ls|verify|export|import`: administer a persistent schedule
/// store without a running server (see docs/DEPLOYMENT.md).
fn cmd_schedules(action: &str, args: &Args) -> Result<String, CliError> {
    if !["ls", "verify", "export", "import"].contains(&action) {
        return Err(CliError::UnknownCommand(format!("schedules {action}")));
    }
    let mut store = open_store(args, 0)?;
    let mut out = String::new();
    match action {
        "ls" => {
            for (path, info) in store.ls() {
                match info {
                    Ok(e) => {
                        let _ = writeln!(
                            out,
                            "{:016x}{:016x}  {:>8} B  kernel={} elements={} instances={} cycles={}",
                            e.key.0, e.key.1, e.bytes, e.kernel, e.elements, e.instances, e.cycles
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "{}: DAMAGED ({e})", path.display());
                    }
                }
            }
            let _ = writeln!(
                out,
                "{} entries, {} bytes in {}",
                store.len(),
                store.bytes(),
                store.dir().display()
            );
        }
        "verify" => {
            let (ok, bad) = store.verify();
            for (path, e) in &bad {
                let _ = writeln!(out, "{}: {} ({e})", path.display(), e.label());
            }
            let _ = writeln!(out, "verified: {ok} sound, {} damaged", bad.len());
            if !bad.is_empty() {
                return Err(CliError::Io(std::io::Error::other(format!(
                    "{} damaged entries\n{out}",
                    bad.len()
                ))));
            }
        }
        "export" => {
            let path = args
                .get("out")
                .ok_or_else(|| ArgError::MissingValue("out".into()))?;
            let pack = store
                .export_pack()
                .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
            std::fs::write(path, &pack)?;
            let _ = writeln!(
                out,
                "exported {} entries ({} bytes) to {path}",
                store.len(),
                pack.len()
            );
        }
        "import" => {
            let path = args
                .get("from")
                .ok_or_else(|| ArgError::MissingValue("from".into()))?;
            let pack = std::fs::read(path)?;
            let summary = store
                .import_pack(&pack)
                .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
            let _ = writeln!(
                out,
                "imported {} entries ({} replaced) into {}",
                summary.imported,
                summary.replaced,
                store.dir().display()
            );
        }
        _ => unreachable!("action validated above"),
    }
    Ok(out)
}

fn cmd_call(args: &Args) -> Result<String, CliError> {
    let to = args
        .get("to")
        .ok_or_else(|| ArgError::MissingValue("to".into()))?;
    let text = args
        .get("json")
        .ok_or_else(|| ArgError::MissingValue("json".into()))?;
    let request = smache_sim::Json::parse(text).map_err(|e| ArgError::BadValue {
        key: "json".into(),
        value: text.into(),
        expected: format!("valid JSON ({e})"),
    })?;
    let mut client = smache_serve::Client::connect(to)?;
    Ok(client.call(&request)?.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(s: &str) -> Result<String, CliError> {
        let raw: Vec<String> = s.split_whitespace().map(String::from).collect();
        run(&raw)
    }

    /// Like [`run_str`] but for arguments that contain spaces (JSON).
    fn run_str_with(argv: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        run(&raw)
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("simulate"));
    }

    #[test]
    fn plan_defaults_describe_paper_case() {
        let out = run_str("plan").unwrap();
        assert!(out.contains("25 words"), "{out}");
        assert!(out.contains("static buffer B"));
        assert!(out.contains("static buffer T"));
        assert!(out.contains("9 stencil cases"));
    }

    #[test]
    fn predict_reports_both_designs() {
        let out = run_str("predict --grid 11x11 --instances 100").unwrap();
        assert!(out.contains("smache:"), "{out}");
        assert!(out.contains("baseline:"));
        assert!(out.contains("speed-up"));
        // The closed-form numbers land in the Fig. 2 regime.
        assert!(out.contains("1394") || out.contains("1395"), "{out}");
    }

    #[test]
    fn cost_prints_table1_row() {
        let out = run_str("cost --grid 1024x1024 --hybrid h").unwrap();
        assert!(out.contains("131072"), "{out}");
        assert!(out.contains("65280"));
        assert!(out.contains("196736"));
    }

    #[test]
    fn simulate_verifies_both_designs() {
        let out = run_str("simulate --grid 8x8 --instances 3 --design both --verify").unwrap();
        assert_eq!(
            out.matches("verified against golden reference").count(),
            2,
            "{out}"
        );
        assert!(out.contains("Baseline"));
        assert!(out.contains("Smache"));
    }

    #[test]
    fn simulate_smache_only_default() {
        let out = run_str("simulate --grid 8x8 --instances 2").unwrap();
        assert!(out.contains("Smache"));
        assert!(!out.contains("Baseline"));
    }

    #[test]
    fn batched_simulation_verifies_every_lane() {
        let out = run_str("simulate --grid 8x8 --instances 2 --batch 3 --jobs 2 --verify").unwrap();
        assert!(out.contains("batch: 3 lane(s)"), "{out}");
        assert_eq!(out.matches("seed ").count(), 3, "{out}");
        assert!(out.contains("all lanes verified"), "{out}");
        assert!(out.contains("aggregate:"), "{out}");
    }

    #[test]
    fn batched_simulation_matches_serial_cycles() {
        // The same seed run alone and as batch lane 0 must report the same
        // cycle count — batching may not perturb the simulation.
        let solo = run_str("simulate --grid 8x8 --instances 2 --seed 9").unwrap();
        let batch = run_str("simulate --grid 8x8 --instances 2 --seed 9 --batch 2").unwrap();
        let solo_cycles: String = solo
            .split(" cycles")
            .next()
            .and_then(|s| s.split_whitespace().last())
            .unwrap()
            .to_string();
        assert!(batch.contains(&format!("{solo_cycles} cycles")), "{batch}");
    }

    #[test]
    fn chaos_heavy_still_verifies_against_golden() {
        let out = run_str(
            "simulate --grid 8x8 --instances 2 --chaos-seed 7 --chaos-profile heavy --verify",
        )
        .unwrap();
        assert!(out.contains("verified against golden reference"), "{out}");
        assert!(out.contains("chaos (seed 7)"), "{out}");
    }

    #[test]
    fn golden_mismatch_names_the_first_differing_word() {
        let golden = [5, 6, 7, 8];
        assert!(check_golden(&golden, &golden).is_ok());
        match check_golden(&[5, 6, 9, 0], &golden) {
            Err(smache::CoreError::Mismatch {
                index,
                expected,
                actual,
            }) => assert_eq!((index, expected, actual), (2, 7, 9)),
            other => panic!("expected a mismatch, got {other:?}"),
        }
        assert!(matches!(
            check_golden(&[5, 6, 7], &golden),
            Err(smache::CoreError::Config(_))
        ));
    }

    #[test]
    fn chaos_bit_flip_is_a_detected_fault_not_a_mismatch() {
        let err = run_str("simulate --grid 8x8 --instances 1 --chaos-profile flip:5 --verify")
            .unwrap_err();
        assert!(
            matches!(err, CliError::Core(smache::CoreError::FaultDetected(_))),
            "{err}"
        );
    }

    #[test]
    fn chaos_profile_name_is_validated() {
        assert!(matches!(
            run_str("simulate --chaos-profile frobnicate"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn chaos_batch_reports_per_lane_counters() {
        let out =
            run_str("simulate --grid 8x8 --instances 1 --batch 2 --chaos-profile jitter --verify")
                .unwrap();
        assert!(out.contains("chaos:"), "{out}");
        assert!(out.contains("all lanes verified"), "{out}");
    }

    #[test]
    fn chaos_batch_replays_latency_only_plans() {
        // Latency-only chaos is captured once (keyed on the chaos seed)
        // and replayed across the data seeds — engine says so, and every
        // lane still matches the golden reference.
        let out = run_str(
            "simulate --grid 8x8 --instances 2 --batch 3 --chaos-profile storms \
             --chaos-seed 7 --replay on --verify",
        )
        .unwrap();
        assert_eq!(out.matches("engine=replay").count(), 2, "{out}");
        assert!(out.contains("all lanes verified"), "{out}");

        // A corrupting plan still refuses forced replay, loudly.
        let err = run_str(
            "simulate --grid 8x8 --instances 1 --batch 2 --chaos-profile flip:4 --replay on",
        )
        .unwrap_err();
        assert!(format!("{err}").contains("fault-injection plan"), "{err}");
    }

    #[test]
    fn lane_block_sizes_report_identical_results() {
        fn per_lane(s: &str) -> Vec<&str> {
            s.lines().filter(|l| l.contains("seed")).collect()
        }
        let a = run_str("simulate --grid 8x8 --instances 2 --batch 5 --lane-block 2").unwrap();
        let b = run_str("simulate --grid 8x8 --instances 2 --batch 5 --lane-block 64").unwrap();
        assert_eq!(per_lane(&a), per_lane(&b), "lane blocking is invisible");
        assert_eq!(a.matches("engine=replay").count(), 4, "{a}");
    }

    #[test]
    fn pipelined_simulate_replays_and_verifies() {
        let out = run_str("simulate --grid 8x8 --timesteps 4 --channels 2 --instances 8 --verify")
            .unwrap();
        assert!(out.contains("pipeline: 4 stage(s) x 2 pass(es)"), "{out}");
        assert!(out.contains("Smache-pipe4x2"), "{out}");
        assert!(out.contains("engine=replay"), "{out}");
        assert!(out.contains("verified against golden reference"), "{out}");
    }

    #[test]
    fn pipelined_simulate_full_sim_matches_replay_fingerprint() {
        let fp = |s: &str| {
            s.lines()
                .find(|l| l.contains("fp="))
                .and_then(|l| l.split("fp=").nth(1))
                .unwrap()
                .to_string()
        };
        let sim = run_str("simulate --grid 8x8 --timesteps 2 --instances 4 --replay off").unwrap();
        let rep = run_str("simulate --grid 8x8 --timesteps 2 --instances 4 --replay on").unwrap();
        assert!(sim.contains("engine=full_sim"), "{sim}");
        assert!(rep.contains("engine=replay"), "{rep}");
        assert_eq!(fp(&sim), fp(&rep), "replay is bit-exact");
    }

    #[test]
    fn pipelined_simulate_validates_its_flags() {
        // Timesteps must divide the instance count.
        assert!(matches!(
            run_str("simulate --grid 8x8 --timesteps 3 --instances 8"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        // Batch, lanes, trace and other designs are single-step-only.
        for argv in [
            "simulate --grid 8x8 --timesteps 2 --instances 4 --batch 2",
            "simulate --grid 8x8 --timesteps 2 --instances 4 --lanes 2",
            "simulate --grid 8x8 --timesteps 2 --instances 4 --trace vcd",
            "simulate --grid 8x8 --timesteps 2 --instances 4 --design both",
            "trace --grid 8x8 --timesteps 2",
        ] {
            assert!(
                matches!(
                    run_str(argv),
                    Err(CliError::Args(ArgError::BadValue { .. }))
                ),
                "{argv}"
            );
        }
    }

    #[test]
    fn pipelined_chaos_verifies_or_faults() {
        // Latency-only chaos: absorbed, replayed, still golden.
        let out = run_str(
            "simulate --grid 8x8 --timesteps 2 --channels 2 --instances 4 \
             --chaos-profile storms --chaos-seed 7 --verify",
        )
        .unwrap();
        assert!(out.contains("engine=replay"), "{out}");
        assert!(out.contains("verified against golden reference"), "{out}");
        // Corrupting chaos: refused capture, auto falls back, fault surfaces.
        let err = run_str("simulate --grid 8x8 --timesteps 2 --instances 2 --chaos-profile flip:5")
            .unwrap_err();
        assert!(
            matches!(err, CliError::Core(smache::CoreError::FaultDetected(_))),
            "{err}"
        );
    }

    #[test]
    fn multilane_simulation_verifies() {
        let out = run_str("simulate --grid 8x8 --instances 3 --lanes 2 --verify").unwrap();
        assert!(out.contains("Smache-x2"), "{out}");
        assert!(out.contains("verified against golden reference"));
    }

    #[test]
    fn trace_ascii_inline_renders_probes() {
        let out = run_str("trace --grid 8x8 --instances 1 --trace ascii").unwrap();
        assert!(out.contains("ctrl.phase"), "{out}");
        assert!(out.contains("sys.stall"), "{out}");
    }

    #[test]
    fn trace_vcd_inline_passes_self_check() {
        let out = run_str("trace --grid 8x8 --trace=vcd").unwrap();
        assert!(out.starts_with("$date"), "{out}");
        smache_sim::telemetry::vcd_self_check(&out).expect("well-formed VCD");
    }

    #[test]
    fn trace_chrome_inline_passes_self_check() {
        let out = run_str("trace --grid 8x8 --trace chrome").unwrap();
        smache_sim::telemetry::chrome_self_check(&out).expect("well-formed JSON");
    }

    #[test]
    fn trace_analyze_reports_residency_and_stalls() {
        let out =
            run_str("trace --grid 8x8 --instances 2 --trace ascii --analyze --top 3").unwrap();
        assert!(out.contains("top stall contributors"), "{out}");
        assert!(out.contains("fsm1 state residency"), "{out}");
        assert!(out.contains("row hit rate"), "{out}");
    }

    #[test]
    fn trace_format_is_validated() {
        assert!(matches!(
            run_str("trace --grid 8x8 --trace gtkw"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn trace_out_writes_artifact_file() {
        let path = std::env::temp_dir().join("smache_cli_trace_test.vcd");
        let out = run_str(&format!(
            "trace --grid 8x8 --trace vcd --trace-out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("trace: wrote"), "{out}");
        let artifact = std::fs::read_to_string(&path).unwrap();
        smache_sim::telemetry::vcd_self_check(&artifact).expect("well-formed VCD");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_trace_requires_out_and_single_system() {
        assert!(matches!(
            run_str("simulate --grid 8x8 --instances 1 --trace vcd"),
            Err(CliError::Args(ArgError::MissingValue(_)))
        ));
        assert!(matches!(
            run_str("simulate --grid 8x8 --trace vcd --trace-out /tmp/x.vcd --lanes 2"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        assert!(matches!(
            run_str("simulate --grid 8x8 --trace vcd --trace-out /tmp/x.vcd --batch 2"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn simulate_with_trace_writes_artifact_and_metrics() {
        let path = std::env::temp_dir().join("smache_cli_sim_trace_test.json");
        let out = run_str(&format!(
            "simulate --grid 8x8 --instances 1 --trace chrome --trace-out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("trace: wrote"), "{out}");
        assert!(out.contains("Smache"), "{out}");
        let artifact = std::fs::read_to_string(&path).unwrap();
        smache_sim::telemetry::chrome_self_check(&artifact).expect("well-formed JSON");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_trace_off_is_bit_identical() {
        // Attaching no telemetry must not change the reported cycle count
        // vs a traced run of the same seed (cycles are in both outputs).
        let plain = run_str("simulate --grid 8x8 --instances 2 --seed 5").unwrap();
        let path = std::env::temp_dir().join("smache_cli_identity_test.vcd");
        let traced = run_str(&format!(
            "simulate --grid 8x8 --instances 2 --seed 5 --trace vcd --trace-out {}",
            path.display()
        ))
        .unwrap();
        std::fs::remove_file(&path).ok();
        let cycles = |s: &str| {
            s.lines()
                .find(|l| l.contains("cycles @"))
                .map(String::from)
                .unwrap()
        };
        assert_eq!(cycles(&plain), cycles(&traced));
    }

    #[test]
    fn codegen_writes_files() {
        let dir = std::env::temp_dir().join("smache_cli_codegen_test");
        let out = run_str(&format!("codegen --grid 8x8 --out {}", dir.display())).unwrap();
        assert!(out.contains("smache_top.v"));
        assert!(dir.join("smache_top.v").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_and_bad_options() {
        assert!(matches!(
            run_str("frobnicate"),
            Err(CliError::UnknownCommand(_))
        ));
        assert!(matches!(run_str("plan --nope 1"), Err(CliError::Args(_))));
        assert!(matches!(
            run_str("simulate --design weird"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn budget_flows_to_planner() {
        let err = run_str("plan --budget-bits 10").unwrap_err();
        assert!(matches!(
            err,
            CliError::Core(smache::CoreError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn one_dimensional_problem() {
        let out = run_str("plan --grid 64 --shape 2 --bounds circular").unwrap();
        assert!(out.contains("stream buffer"), "{out}");
    }

    #[test]
    fn three_dimensional_problem() {
        let out = run_str("plan --grid 4x6x8 --shape seven --bounds circular").unwrap();
        assert!(out.contains("static buffer"), "{out}");
    }

    #[test]
    fn serve_and_call_round_trip_over_a_unix_socket() {
        let sock = std::env::temp_dir().join(format!("smache-cli-{}.sock", std::process::id()));
        let addr = format!("unix:{}", sock.display());
        let server = {
            let argv = format!("serve --listen {addr} --workers 1 --queue 4");
            std::thread::spawn(move || run_str(&argv))
        };
        // Wait for the socket to appear.
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let call = |json: &str| {
            run_str_with(&["call", "--to", &addr, "--json", json]).expect("call succeeds")
        };
        let first = call(r#"{"cmd":"simulate","spec":{"grid":"8x8"},"seed":1}"#);
        assert!(first.contains("\"status\": \"ok\""), "{first}");
        assert!(first.contains("\"cached\": false"), "{first}");
        let second = call(r#"{"cmd":"simulate","spec":{"grid":"8X8"},"seed":1}"#);
        assert!(second.contains("\"cached\": true"), "{second}");
        let stats = call(r#"{"cmd":"stats"}"#);
        assert!(stats.contains("serve.cache.hits"), "{stats}");
        let bye = call(r#"{"cmd":"shutdown"}"#);
        assert!(bye.contains("\"draining\": true"), "{bye}");
        let report = server.join().unwrap().unwrap();
        assert!(report.contains("drained and exited"), "{report}");
        assert!(!sock.exists(), "socket file cleaned up");
    }

    #[test]
    fn batch_store_warm_starts_and_schedules_admin_round_trips() {
        let dir = std::env::temp_dir().join(format!("smache-cli-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let d = dir.display();

        // Cold batch captures and persists one schedule; the warm batch
        // (different seeds, same spec) loads it back.
        let cold = run_str(&format!(
            "simulate --grid 8x8 --instances 2 --batch 2 --store {d}"
        ))
        .unwrap();
        assert!(
            cold.contains("store: 0 hits, 1 writes, 1 entries"),
            "{cold}"
        );
        let warm = run_str(&format!(
            "simulate --grid 8x8 --instances 2 --batch 2 --seed 40 --store {d}"
        ))
        .unwrap();
        assert!(
            warm.contains("store: 1 hits, 0 writes, 1 entries"),
            "{warm}"
        );
        assert_eq!(warm.matches("engine=replay").count(), 2, "{warm}");

        // Admin surface: ls, verify, export, import into a second store.
        let ls = run_str(&format!("schedules ls --store {d}")).unwrap();
        assert!(ls.contains("kernel=average"), "{ls}");
        assert!(ls.contains("1 entries"), "{ls}");
        let verify = run_str(&format!("schedules verify --store {d}")).unwrap();
        assert!(verify.contains("1 sound, 0 damaged"), "{verify}");

        let pack = std::env::temp_dir().join(format!("smache-cli-pack-{}", std::process::id()));
        let dir2 = std::env::temp_dir().join(format!("smache-cli-store2-{}", std::process::id()));
        std::fs::remove_dir_all(&dir2).ok();
        let exported = run_str(&format!(
            "schedules export --store {d} --out {}",
            pack.display()
        ))
        .unwrap();
        assert!(exported.contains("exported 1 entries"), "{exported}");
        let imported = run_str(&format!(
            "schedules import --store {} --from {}",
            dir2.display(),
            pack.display()
        ))
        .unwrap();
        assert!(
            imported.contains("imported 1 entries (0 replaced)"),
            "{imported}"
        );
        let ls2 = run_str(&format!("schedules ls --store {}", dir2.display())).unwrap();
        assert!(ls2.contains("1 entries"), "{ls2}");

        std::fs::remove_file(&pack).ok();
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn schedules_validates_its_arguments() {
        assert!(matches!(
            run_str("schedules"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        assert!(matches!(
            run_str("schedules ls"),
            Err(CliError::Args(ArgError::MissingValue(_)))
        ));
        assert!(matches!(
            run_str("schedules frobnicate --store /tmp/nope"),
            Err(CliError::UnknownCommand(_))
        ));
        assert!(matches!(
            run_str("schedules export --store /tmp/smache-cli-noout"),
            Err(CliError::Args(ArgError::MissingValue(_)))
        ));
    }

    #[test]
    fn call_validates_its_arguments() {
        assert!(matches!(
            run_str("call --json {}"),
            Err(CliError::Args(ArgError::MissingValue(_)))
        ));
        assert!(matches!(
            run_str_with(&["call", "--to", "unix:/tmp/x.sock", "--json", "not json"]),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        assert!(matches!(
            run_str("serve --listen bogus"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }
}
