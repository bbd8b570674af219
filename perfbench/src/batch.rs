//! The `sweep` and `explore` workloads: lanes through
//! `SmacheSystem::run_batch` with default `BatchOptions` and
//! `threads = nproc`.
//!
//! A *lane* is one run of one problem on one seeded input. Each workload
//! repeats one batch call for the measuring time: every seed of every
//! spec in `sweep`, the whole design space in `explore`. A call's time
//! covers `run_batch` and the pipelined specs' steps, not building the
//! `BatchJob`s (they own copies of the inputs, which is benchmark work);
//! throughput is the fast-phase rate over calls
//! (`stats::fast_phase_rate`). Pipelined specs have no `BatchJob` form, so
//! they run through the same steps `run_batch` takes, from outside:
//! `TemporalPipeline::run_captured` once, then
//! `ControlSchedule::replay_lanes` over lane blocks on `nproc` threads.

use std::sync::Arc;
use std::time::Instant;

use smache::config::BufferPlan;
use smache::functional::golden::golden_run;
use smache::system::{
    BatchJob, BatchOptions, KernelFactory, RunEngine, RunReport, DEFAULT_LANE_BLOCK,
};
use smache::{CoreResult, SmacheSystem, TemporalPipeline};
use smache_sim::hash::stream_seed;

use crate::specs::{kernel, Problem};
use crate::stats::fast_phase_rate;
use crate::trace::{SpanId, Tracer, GROUP};
use crate::{cpu_seconds, Ctx, Metric, Outcome, SetupClock};

/// Seeds per spec in `sweep`, and lanes of a `high` sweep call.
pub const SWEEP_LANES: usize = 512;
/// Distinct specs in `explore`.
pub const EXPLORE_SPECS: usize = 48;
/// Fewest batch calls a run makes.
const MIN_CALLS: usize = 5;

/// A problem ready to run: its plan and its seeded inputs.
pub struct Prepared {
    /// The problem.
    pub problem: Problem,
    /// `spec.builder().plan()`.
    pub plan: BufferPlan,
    /// Seeded inputs, one per lane.
    pub inputs: Vec<Vec<u64>>,
}

/// Builds plans and inputs: `lanes` seeded inputs per problem.
pub fn prepare(problems: &[Problem], seed: u64, lanes: usize) -> Vec<Prepared> {
    problems
        .iter()
        .map(|p| {
            let base = stream_seed(seed, &p.label);
            Prepared {
                problem: p.clone(),
                plan: p.spec.builder().plan().expect("benchmark plans are valid"),
                inputs: (0..lanes as u64)
                    .map(|i| smache::spec::seeded_input(p.cells(), base.wrapping_add(i)))
                    .collect(),
            }
        })
        .collect()
}

fn factory() -> KernelFactory {
    Arc::new(kernel)
}

/// One lane of a call: (problem index, input index).
pub type Lane = (usize, usize);

/// Seconds a batch call spent outside `run_batch` proper.
pub struct CallTimes {
    /// Building the `BatchJob`s.
    pub build_s: f64,
    /// Running the pipelined specs.
    pub piped_s: f64,
}

/// Runs one batch call and returns each lane's result in lane order.
/// Plain specs go through one `run_batch`; each pipelined spec is
/// captured once and replayed over lane blocks.
pub fn run_call(
    ctx: &Ctx,
    prepared: &[Prepared],
    lanes: &[Lane],
    parent: SpanId,
) -> (Vec<CoreResult<RunReport>>, CallTimes) {
    let tracer = ctx.tracer;
    let build_t = Instant::now();
    let mut build_s = 0.0;
    let mut results: Vec<Option<CoreResult<RunReport>>> = (0..lanes.len()).map(|_| None).collect();
    let plain: Vec<usize> = (0..lanes.len())
        .filter(|&i| !prepared[lanes[i].0].problem.pipelined())
        .collect();
    if !plain.is_empty() {
        let jobs: Vec<BatchJob> = tracer.span("build jobs", "bench", parent, |_| {
            let f = factory();
            plain
                .iter()
                .map(|&i| {
                    let (p, s) = lanes[i];
                    let pr = &prepared[p];
                    BatchJob::new(
                        pr.plan.clone(),
                        Arc::clone(&f),
                        pr.inputs[s].clone(),
                        pr.problem.instances,
                    )
                    .with_config(pr.problem.system_config())
                })
                .collect()
        });
        build_s = build_t.elapsed().as_secs_f64();
        let report = tracer.span("run_batch", "batch", parent, |_| {
            SmacheSystem::run_batch(jobs, BatchOptions::new().threads(ctx.threads))
        });
        for (&i, lane) in plain.iter().zip(report.lanes) {
            results[i] = Some(lane);
        }
    }
    let mut piped: Vec<usize> = (0..lanes.len())
        .filter(|&i| prepared[lanes[i].0].problem.pipelined())
        .map(|i| lanes[i].0)
        .collect();
    piped.sort_unstable();
    piped.dedup();
    let piped_t = Instant::now();
    for p in piped {
        let idx: Vec<usize> = (0..lanes.len()).filter(|&i| lanes[i].0 == p).collect();
        let pr = &prepared[p];
        for (i, r) in idx.iter().zip(run_pipelined(
            ctx,
            pr,
            &idx.iter().map(|&i| lanes[i].1).collect::<Vec<_>>(),
            parent,
        )) {
            results[*i] = Some(r);
        }
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every lane ran"))
        .collect();
    let piped_s = piped_t.elapsed().as_secs_f64();
    (results, CallTimes { build_s, piped_s })
}

/// Captures a pipelined spec on its first lane and replays the rest in
/// lane blocks on `ctx.threads` threads.
fn run_pipelined(
    ctx: &Ctx,
    pr: &Prepared,
    inputs: &[usize],
    parent: SpanId,
) -> Vec<CoreResult<RunReport>> {
    let tracer = ctx.tracer;
    let first = tracer.span("TemporalPipeline::run_captured", "pipeline", parent, |_| {
        TemporalPipeline::new(pr.plan.clone(), kernel(), pr.problem.pipeline_config())
            .and_then(|mut pipe| pipe.run_captured(&pr.inputs[inputs[0]], pr.problem.passes()))
    });
    let (report, schedule) = match first {
        Ok(pair) => pair,
        Err(e) => return inputs.iter().map(|_| Err(e.clone())).collect(),
    };
    let blocks: Vec<&[usize]> = inputs[1..].chunks(DEFAULT_LANE_BLOCK).collect();
    let replayed = tracer.span("replay blocks", GROUP, parent, |blocks_span| {
        smache_sim::run_batch(blocks, ctx.threads, |block| {
            let views: Vec<&[u64]> = block.iter().map(|&s| pr.inputs[s].as_slice()).collect();
            tracer.span(
                "ControlSchedule::replay_lanes",
                "replay",
                blocks_span,
                |_| schedule.replay_lanes(kernel().as_ref(), &views),
            )
        })
    });
    let mut out = vec![Ok(report)];
    for (block, result) in inputs[1..].chunks(DEFAULT_LANE_BLOCK).zip(replayed) {
        match result {
            Ok(reports) => out.extend(reports.into_iter().map(Ok)),
            Err(refusal) => out.extend(
                block
                    .iter()
                    .map(|_| Err(smache::CoreError::ReplayRefused(refusal.clone()))),
            ),
        }
    }
    out
}

/// A full simulation of `input` — the oracle replayed lanes must match.
pub fn full_sim(pr: &Prepared, input: &[u64]) -> CoreResult<RunReport> {
    if pr.problem.pipelined() {
        TemporalPipeline::new(pr.plan.clone(), kernel(), pr.problem.pipeline_config())?
            .run(input, pr.problem.passes())
    } else {
        SmacheSystem::new(pr.plan.clone(), kernel(), pr.problem.system_config())?
            .run(input, pr.problem.instances)
    }
}

/// The golden software result for `input`.
pub fn golden(pr: &Prepared, input: &[u64]) -> Vec<u64> {
    let s = &pr.problem.spec;
    golden_run(
        &s.grid,
        &s.bounds,
        &s.shape,
        kernel().as_ref(),
        input,
        pr.problem.instances,
    )
    .expect("golden model runs every benchmark spec")
}

/// Which workload a batch run is.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seed sweep.
    Sweep,
    /// Design-space run.
    Explore,
}

/// State shared by a run's checks.
struct Checker {
    /// Full-simulation reference per problem (sweep).
    reference: Vec<Option<RunReport>>,
    /// Golden output per problem for its first input (explore).
    golden_first: Vec<Option<Vec<u64>>>,
    /// Problems whose lanes were golden-checked block by block.
    sampled: Vec<bool>,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Checks one call's lanes (outside the timed region).
    fn check(
        &mut self,
        kind: Kind,
        prepared: &[Prepared],
        lanes: &[Lane],
        results: &[CoreResult<RunReport>],
        seed: u64,
    ) {
        let block_pick = (stream_seed(seed, "pick") % DEFAULT_LANE_BLOCK as u64) as usize;
        let mut bad = Vec::new();
        for (&(p, s), r) in lanes.iter().zip(results) {
            let pr = &prepared[p];
            let label = &pr.problem.label;
            let report = match r {
                Ok(r) => r,
                Err(e) => {
                    bad.push(format!("{label} lane {s}: {e}"));
                    continue;
                }
            };
            match kind {
                Kind::Explore => {
                    let want =
                        self.golden_first[p].get_or_insert_with(|| golden(pr, &pr.inputs[s]));
                    if report.output != *want {
                        bad.push(format!("{label}: output differs from golden_run"));
                    }
                }
                Kind::Sweep => {
                    let reference = self.reference[p]
                        .get_or_insert_with(|| full_sim(pr, &pr.inputs[0]).expect("reference run"));
                    if report.stats != reference.stats
                        || report.metrics.cycles != reference.metrics.cycles
                        || report.metrics.dram != reference.metrics.dram
                    {
                        bad.push(format!(
                            "{label} lane {s} ({}): cycle stats differ from full simulation",
                            report.engine.label()
                        ));
                    }
                    // Lane 0 and one lane from every lane block of every
                    // spec, in the first call.
                    if !self.sampled[p] {
                        if s == 0 && report.output != reference.output {
                            bad.push(format!("{label}: lane 0 differs from full simulation"));
                        }
                        if s % DEFAULT_LANE_BLOCK == block_pick
                            && report.output != golden(pr, &pr.inputs[s])
                        {
                            bad.push(format!("{label} lane {s}: output differs from golden_run"));
                        }
                    }
                }
            }
        }
        if kind == Kind::Sweep {
            for &(p, _) in lanes {
                self.sampled[p] = true;
            }
        }
        for note in bad {
            self.fail(note);
        }
    }
}

/// The lanes of one batch call: every seed of every spec (`sweep`), or
/// every spec of the design space (`explore`).
fn call_lanes(kind: Kind, prepared: &[Prepared]) -> Vec<Lane> {
    match kind {
        Kind::Sweep => (0..prepared.len())
            .flat_map(|p| (0..SWEEP_LANES).map(move |s| (p, s)))
            .collect(),
        Kind::Explore => (0..prepared.len()).map(|p| (p, 0)).collect(),
    }
}

/// Issues the workload's batch call until `ctx.seconds` are spent (and at
/// least [`MIN_CALLS`] times), checking every call's lanes after timing it
/// and calling `clock` between calls. Returns the outcome and, per
/// problem, the lanes captured or simulated in full (for the traced run's
/// serial-capture estimate).
pub fn measure(
    ctx: &Ctx,
    kind: Kind,
    prepared: &[Prepared],
    root: SpanId,
    clock: &mut SetupClock,
) -> (Outcome, Vec<usize>) {
    let tracer: &Tracer = ctx.tracer;
    let n = prepared.len();
    let mut checker = Checker {
        reference: (0..n).map(|_| None).collect(),
        golden_first: (0..n).map(|_| None).collect(),
        sampled: vec![false; n],
        failed: 0,
        notes: Vec::new(),
    };
    let lanes = call_lanes(kind, prepared);
    let updates: u64 = lanes
        .iter()
        .map(|&(p, _)| prepared[p].problem.cell_updates())
        .sum();
    let mut captures = vec![0usize; n];
    let mut per_problem: Vec<Option<(u64, u64, u64)>> = vec![None; n];
    let (mut calls, mut replayed, mut busy_wall_s, mut piped_s) = (0usize, 0u64, 0.0, 0.0);
    let mut call_rate = Vec::new();
    let started = Instant::now();
    let cpu0 = cpu_seconds();
    while calls < MIN_CALLS || started.elapsed().as_secs_f64() < ctx.seconds {
        let call_span = tracer.open("call", GROUP, root);
        let t = Instant::now();
        let (results, times) = run_call(ctx, prepared, &lanes, call_span);
        let wall = t.elapsed().as_secs_f64() - times.build_s;
        tracer.close(call_span);
        calls += 1;
        busy_wall_s += wall;
        piped_s += times.piped_s;
        call_rate.push(updates as f64 / wall);
        for (&(p, _), r) in lanes.iter().zip(&results) {
            if let Ok(r) = r {
                if r.engine == RunEngine::Replay {
                    replayed += 1;
                } else {
                    captures[p] += 1;
                }
                per_problem[p].get_or_insert((
                    r.metrics.cycles,
                    r.metrics.dram.total_bytes(),
                    prepared[p].problem.cell_updates(),
                ));
            }
        }
        tracer.span("checks", "check", root, |_| {
            checker.check(kind, prepared, &lanes, &results, ctx.seed)
        });
        clock.tick();
    }
    let cpu_s = cpu_seconds() - cpu0;
    let wall_s = started.elapsed().as_secs_f64();
    let attempted = (calls * lanes.len()) as u64;
    let (cyc, bytes, upd) = per_problem
        .iter()
        .flatten()
        .fold((0u64, 0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    let e2e = vec![
        Metric::new(
            "cell_updates_per_s",
            fast_phase_rate(&call_rate),
            "1/s",
            calls,
        ),
        Metric::new(
            "sim_cycles_per_cell",
            cyc as f64 / upd.max(1) as f64,
            "cycles",
            n,
        ),
        Metric::new(
            "dram_bytes_per_cell",
            bytes as f64 / upd.max(1) as f64,
            "B",
            n,
        ),
        Metric::new(
            "batch.pipelined_time_share",
            piped_s / busy_wall_s,
            "share",
            calls,
        ),
    ];
    let layer = vec![
        Metric::new("batch.cores_busy", cpu_s / wall_s, "cores", calls),
        Metric::new(
            "batch.replayed_lane_share",
            replayed as f64 / attempted.max(1) as f64,
            "share",
            attempted as usize,
        ),
    ];
    let outcome = Outcome {
        attempted,
        failed: checker.failed,
        wrong: checker.failed,
        notes: checker.notes,
        e2e,
        layer,
        busy_wall_s,
    };
    (outcome, captures)
}
