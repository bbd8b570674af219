//! `smache-perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|explore|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds its inputs from `--seed`, measures the workload for about
//! `--seconds`, checks every output it samples against an oracle
//! (`golden_run`, a full simulation, or a direct `RunRequest::execute`),
//! prints a table of every metric with its unit and sample count, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). The traced run also writes its spans as
//! Chrome trace JSON under `.perfbench/` in the working directory. The
//! process exits non-zero when any check fails.

mod batch;
mod gen;
mod probe;
mod serve;
mod specs;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use smache_sim::Json;

use crate::stats::median;
use crate::trace::{SpanId, Tracer, GROUP, NO_SPAN};

/// The end-to-end metrics every workload reports on its JSON line, in
/// `BENCHMARK.json` order. `serve` also prints its round-trip latencies
/// in the table.
const E2E_METRICS: &[&str] = &[
    "cell_updates_per_s",
    "sim_cycles_per_cell",
    "dram_bytes_per_cell",
    "setup_s",
    "peak_rss_mb",
];

/// What a workload run needs from the command line.
pub struct Ctx<'a> {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Worker threads (`nproc`).
    pub threads: usize,
    /// Span recorder (off in untraced runs).
    pub tracer: &'a Tracer,
    /// Working directory for stores, sockets and traces.
    pub work: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// Extra context for the table (e.g. which percentile).
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }
}

/// Set-up repetitions spread over a run's measuring time.
pub const SETUP_REPS: usize = 24;

/// Repeats set-up between measured calls: one timed repetition each
/// 1/[`SETUP_REPS`] of the measuring time, after the first set-up. The
/// host's speed changes within seconds, so `setup_s`, the median of every
/// repetition, samples the whole run rather than its first moment.
pub struct SetupClock<'a> {
    rep: Option<Box<dyn FnMut() -> f64 + 'a>>,
    every_s: f64,
    last: Instant,
    times: Vec<f64>,
}

impl<'a> SetupClock<'a> {
    /// A clock whose first set-up took `first_s`; `rep` runs one more
    /// set-up and returns its time in seconds.
    pub fn new(first_s: f64, seconds: f64, rep: impl FnMut() -> f64 + 'a) -> SetupClock<'a> {
        SetupClock {
            rep: Some(Box::new(rep)),
            every_s: seconds / SETUP_REPS as f64,
            last: Instant::now(),
            times: vec![first_s],
        }
    }

    /// A clock that repeats nothing.
    pub fn idle() -> SetupClock<'static> {
        SetupClock {
            rep: None,
            every_s: f64::INFINITY,
            last: Instant::now(),
            times: Vec::new(),
        }
    }

    /// Runs a set-up repetition when one is due.
    pub fn tick(&mut self) {
        if let Some(rep) = self.rep.as_mut() {
            if self.last.elapsed().as_secs_f64() >= self.every_s {
                self.times.push(rep());
                self.last = Instant::now();
            }
        }
    }

    /// `setup_s`: the median set-up time, with its sample count.
    fn metric(&self) -> Metric {
        Metric::new("setup_s", median(&self.times), "s", self.times.len())
    }
}

/// Runs `f` and returns its result and wall seconds.
pub fn timed_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// What a measured workload run produced.
pub struct Outcome {
    /// Operations attempted (lanes or requests).
    pub attempted: u64,
    /// Operations failed, refused or wrong.
    pub failed: u64,
    /// Operations whose output was wrong or that errored: the run is
    /// incorrect when this is not zero.
    pub wrong: u64,
    /// The first few failures, described.
    pub notes: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics the workload itself measured.
    pub layer: Vec<Metric>,
    /// Wall time of the measured work (for capture-share estimates).
    pub busy_wall_s: f64,
}

impl Outcome {
    fn get(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// CPU time of the whole process so far (every thread), in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: utime and stime are
    // the 12th and 13th, in clock ticks (100 per second on Linux).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    if f.len() > 12 {
        (f[11] + f[12]) / 100.0
    } else {
        0.0
    }
}

/// Machine-wide CPU ticks so far: (all, stolen by the hypervisor).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (f.iter().take(8).sum(), f.get(7).copied().unwrap_or(0))
}

/// Share of CPU time the hypervisor stole between two [`cpu_ticks`].
pub fn steal_share(a: (u64, u64), b: (u64, u64)) -> f64 {
    (b.1 - a.1) as f64 / (b.0 - a.0).max(1) as f64
}

/// Peak resident set size of the process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let workload = get("workload")?.clone();
    if !["sweep", "explore", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (sweep|explore|serve)"
        ));
    }
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1) as f64,
        trace,
    })
}

/// Runs a workload's measured part once.
fn measure(ctx: &Ctx, root: SpanId, setup: &mut Setup, clock: &mut SetupClock) -> Outcome {
    match setup {
        Setup::Batch(kind, prepared, captures) => {
            let (outcome, caps) = batch::measure(ctx, *kind, prepared, root, clock);
            *captures = caps;
            outcome
        }
        Setup::Serve(state) => serve::measure(ctx, state, root, clock),
    }
}

enum Setup {
    Batch(batch::Kind, Vec<batch::Prepared>, Vec<usize>),
    Serve(Box<serve::State>),
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work =
        PathBuf::from(".perfbench").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let off = Tracer::new(false);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        tracer: &off,
        work: work.clone(),
    };

    // Set-up: plans and seeded inputs, or the filled store and the
    // started server. Drawing the problem lists is not timed.
    let (mut setup, first_s) = match args.workload.as_str() {
        "sweep" | "explore" => {
            let (kind, problems, lanes) = batch_problems(&args.workload);
            let (p, s) = timed_s(|| batch::prepare(&problems, args.seed, lanes));
            (Setup::Batch(kind, p, Vec::new()), s)
        }
        _ => {
            let (state, s) = serve::setup(&ctx);
            (Setup::Serve(Box::new(state)), s)
        }
    };

    let mut table: Vec<Metric> = Vec::new();
    let (outcome, chosen): (Outcome, Vec<String>) = if !args.trace {
        let t0 = cpu_ticks();
        let ctx = &ctx;
        let mut clock = match &setup {
            Setup::Batch(..) => {
                let (_, problems, lanes) = batch_problems(&args.workload);
                SetupClock::new(first_s, args.seconds, move || {
                    timed_s(|| batch::prepare(&problems, ctx.seed, lanes)).1
                })
            }
            Setup::Serve(state) => {
                let problems = state.problems();
                SetupClock::new(first_s, args.seconds, move || {
                    serve::setup_rep(ctx, &problems)
                })
            }
        };
        let o = measure(ctx, NO_SPAN, &mut setup, &mut clock);
        table.push(Metric::new(
            "host.steal_share",
            steal_share(t0, cpu_ticks()),
            "share",
            1,
        ));
        table.extend(o.e2e.iter().cloned());
        table.push(clock.metric());
        if o.get("peak_rss_mb").is_none() {
            table.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
        }
        (o, E2E_METRICS.iter().map(|s| s.to_string()).collect())
    } else {
        traced(&args, &ctx, &mut setup, &mut table)
    };
    if let Setup::Serve(state) = setup {
        serve::teardown(*state);
    }
    let _ = std::fs::remove_dir_all(&work);

    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    table.push(Metric::new(
        "failed_share",
        failed_share,
        "share",
        outcome.attempted as usize,
    ));
    println!(
        "workload {} seed {} nproc {threads}",
        args.workload, args.seed
    );
    for m in &table {
        println!(
            "  {:<34} {:>16.6} {:<8} n={:<7} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    for n in &outcome.notes {
        println!("  FAILED: {n}");
    }
    let metrics = chosen
        .iter()
        .map(|name| {
            let m = table
                .iter()
                .find(|m| &m.name == name)
                .expect("chosen metric measured");
            (
                name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    let correct = outcome.wrong == 0;
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    if !correct {
        std::process::exit(1);
    }
}

/// The traced run: an untraced pass and a traced pass of half the time
/// each (their difference is the tracing overhead), then the per-layer
/// probes. Prints the blocking-path self-time table of the traced pass.
fn traced(
    args: &Args,
    ctx: &Ctx,
    setup: &mut Setup,
    table: &mut Vec<Metric>,
) -> (Outcome, Vec<String>) {
    let half = Ctx {
        seed: ctx.seed,
        seconds: (args.seconds / 2.0).max(1.0),
        threads: ctx.threads,
        tracer: ctx.tracer,
        work: ctx.work.clone(),
    };
    let plain = measure(&half, NO_SPAN, setup, &mut SetupClock::idle());

    // The traced pass draws its own inputs, so the serve pass does not
    // replay the first pass's (spec, seed) pairs into a warm cache.
    let tracer = Tracer::new(true);
    let tctx = Ctx {
        seed: ctx.seed ^ 0x7ace,
        tracer: &tracer,
        ..half
    };
    let root = tracer.open(&format!("{} (traced)", args.workload), GROUP, NO_SPAN);
    let mut outcome = measure(&tctx, root, setup, &mut SetupClock::idle());
    tracer.close(root);
    let spans = tracer.spans();
    let wall = (spans[root].end - spans[root].start) as f64;
    let path = trace::blocking_path(&spans, root);
    let own = trace::layer_self_times(&spans);
    println!(
        "blocking path of the traced pass ({:.3} s wall):",
        wall / 1e9
    );
    for (layer, t) in &path {
        let name = if *layer == GROUP {
            "unattributed"
        } else {
            layer
        };
        println!(
            "  {:<14} {:>10.3} ms on path {:>6.2}%   self {:>10.3} ms",
            name,
            t / 1e6,
            100.0 * t / wall,
            own.get(layer).copied().unwrap_or(0) as f64 / 1e6
        );
    }
    let unattributed = path.get(GROUP).copied().unwrap_or(0.0) / wall;

    // Per-layer probes over the workload's own problems.
    let probe_root = tracer.open("probes", GROUP, NO_SPAN);
    let probed = probe::probe(&tctx, &setup_problems(setup), probe_root);
    // Workloads that do not serve take the serve-side metrics from a
    // short pass of the serve loop.
    let side = matches!(setup, Setup::Batch(..)).then(|| serve::side_pass(&tctx, probe_root));
    tracer.close(probe_root);
    let mut layer = probed.metrics;
    for m in outcome
        .layer
        .drain(..)
        .chain(side.iter().flat_map(|s| s.layer.iter().cloned()))
    {
        layer.insert(m.name.clone(), m);
    }
    if let Setup::Batch(_, prepared, captures) = setup {
        // Pass 1 of `run_batch` captures serially: estimate its share of
        // the calls' time from the probed capture time per cell update.
        let serial: f64 = captures
            .iter()
            .zip(prepared.iter())
            .map(|(&n, pr)| (n as u64 * pr.problem.cell_updates()) as f64)
            .sum::<f64>()
            * probed.capture_s_per_update;
        let n: usize = captures.iter().sum();
        layer.insert(
            "batch.serial_capture_share".into(),
            Metric::new(
                "batch.serial_capture_share",
                serial / outcome.busy_wall_s,
                "share",
                n,
            ),
        );
    }
    let key = "cell_updates_per_s";
    let (a, b) = (
        plain.get(key).unwrap_or(0.0),
        outcome.get(key).unwrap_or(0.0),
    );
    let mut m = Metric::new("trace.overhead", a / b - 1.0, "share", 2);
    m.note = format!("{key}: untraced {a:.4}, traced {b:.4}");
    layer.insert(m.name.clone(), m);
    layer.insert(
        "trace.unattributed_share".into(),
        Metric::new(
            "trace.unattributed_share",
            unattributed,
            "share",
            spans.len(),
        ),
    );

    let all = tracer.spans();
    let path = ctx
        .work
        .parent()
        .unwrap_or(&ctx.work)
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    match std::fs::write(&path, trace::chrome_json(&all).compact()) {
        Ok(()) => println!("trace: {} ({} spans)", path.display(), all.len()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    let names: Vec<String> = probe::LAYER_METRICS
        .iter()
        .map(|s| s.to_string())
        .chain([
            "trace.overhead".to_string(),
            "trace.unattributed_share".to_string(),
        ])
        .collect();
    for name in &names {
        let m = layer
            .remove(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
        table.push(m);
    }
    for o in std::iter::once(plain).chain(side) {
        outcome.attempted += o.attempted;
        outcome.failed += o.failed;
        outcome.wrong += o.wrong;
        outcome.notes.extend(o.notes);
    }
    (outcome, names)
}

/// A batch workload's kind, problems and seeds per problem.
fn batch_problems(workload: &str) -> (batch::Kind, Vec<specs::Problem>, usize) {
    match workload {
        "sweep" => (
            batch::Kind::Sweep,
            specs::sweep_problems(),
            batch::SWEEP_LANES,
        ),
        _ => (
            batch::Kind::Explore,
            specs::explore_problems(specs::DESIGN_SEED, batch::EXPLORE_SPECS),
            1,
        ),
    }
}

fn setup_problems(setup: &Setup) -> Vec<specs::Problem> {
    match setup {
        Setup::Batch(_, prepared, _) => prepared.iter().map(|p| p.problem.clone()).collect(),
        Setup::Serve(state) => state.problems(),
    }
}
