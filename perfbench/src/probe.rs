//! Per-layer probes for the traced run: each layer's public functions,
//! called from outside on the workload's own problems and timed one by
//! one under a span.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use smache::system::{
    BatchJob, BatchOptions, ControlSchedule, RunEngine, RunReport, ScheduleStore,
};
use smache::{SmacheSystem, TemporalPipeline};
use smache_serve::{Request, RequestBody, ResultCache};

use crate::specs::{kernel, Problem};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{cpu_seconds, Ctx, Metric};

/// Every per-layer metric, in `BENCHMARK.json` order (the traced run adds
/// `trace.overhead` and `trace.unattributed_share`).
pub const LAYER_METRICS: &[&str] = &[
    "config.plan_us",
    "system.sim_ns_per_cell",
    "system.host_ns_per_sim_cycle",
    "system.build_us",
    "system.capture_overhead",
    "system.stall_cycles_per_cell",
    "mem.row_hit_ratio",
    "mem.read_stall_cycles_per_cell",
    "pipeline.ns_per_cell",
    "replay.lanes_ns_per_cell",
    "replay.single_ns_per_cell",
    "replay.schedule_bytes_per_cell",
    "batch.cores_busy",
    "batch.serial_capture_share",
    "batch.replayed_lane_share",
    "store.load_us",
    "store.save_us",
    "store.hit_ratio",
    "report.to_json_us",
    "protocol.parse_us",
    "protocol.key_us",
    "cache.result_hit_ratio",
    "cache.schedule_hit_ratio",
    "cache.result_get_us",
    "pool.queue_depth_mean",
    "pool.rejected_share",
    "pool.wait_ms",
    "reactor.hit_rtt_us",
    "reactor.bufpool_reuse_ratio",
    "serve.class_p50_ms.hit",
    "serve.class_p50_ms.replay",
    "serve.class_p50_ms.capture",
];

/// Problems probed at most (spread evenly over the workload's list).
const MAX_PROBED: usize = 12;
/// Lanes of the probed `replay_lanes` block and of each probe batch spec.
const PROBE_LANES: usize = 16;
/// Repetitions of sub-millisecond calls.
const REPS: usize = 5;

/// Times `f` under a span and returns its result and wall seconds.
fn timed<R>(
    tracer: &Tracer,
    name: &str,
    layer: &'static str,
    parent: SpanId,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t = Instant::now();
    let out = tracer.span(name, layer, parent, |_| f());
    (out, t.elapsed().as_secs_f64())
}

/// Median wall seconds of `REPS` calls of `f`.
fn timed_reps<R>(
    tracer: &Tracer,
    name: &str,
    layer: &'static str,
    parent: SpanId,
    mut f: impl FnMut() -> R,
) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| timed(tracer, name, layer, parent, &mut f).1)
        .collect();
    median(&v)
}

#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, k: &'static str, v: f64) {
        self.0.entry(k).or_default().push(v);
    }
    fn metric(&self, k: &'static str, unit: &'static str) -> Metric {
        let v = self.0.get(k).cloned().unwrap_or_default();
        Metric::new(
            k,
            if v.is_empty() { 0.0 } else { median(&v) },
            unit,
            v.len(),
        )
    }
}

/// What the probes measured.
pub struct Probed {
    /// Per-layer metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Probed capture wall seconds per cell update.
    pub capture_s_per_update: f64,
}

/// Probes every layer but the serve-side ones (see `serve::measure`) on
/// (up to [`MAX_PROBED`] of) `problems`.
pub fn probe(ctx: &Ctx, problems: &[Problem], parent: SpanId) -> Probed {
    let tracer = ctx.tracer;
    let step = problems.len().div_ceil(MAX_PROBED).max(1);
    let chosen: Vec<&Problem> = problems.iter().step_by(step).collect();
    let mut s = Samples::default();
    let mut capture_s = HashMap::new();
    let (mut stall, mut hits, mut misses, mut rstall, mut updates) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let store_dir = ctx.work.join("probe-sched");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = ScheduleStore::open(&store_dir, 0).expect("probe store opens");
    let mut cache = ResultCache::new(4 << 20);
    for (i, p) in chosen.iter().enumerate() {
        let cell_updates = p.cell_updates() as f64;
        let plan_s = timed_reps(
            tracer,
            "ProblemSpec::builder().plan()",
            "config",
            parent,
            || p.spec.builder().plan().expect("valid plan"),
        );
        s.push("config.plan_us", plan_s * 1e6);
        let plan = p.spec.builder().plan().expect("valid plan");
        let input = smache::spec::seeded_input(p.cells(), 11 + i as u64);
        let (run, run_s, captured, cap_s): (RunReport, f64, Arc<ControlSchedule>, f64) = if p
            .pipelined()
        {
            let build_s = timed_reps(tracer, "TemporalPipeline::new", "system", parent, || {
                TemporalPipeline::new(plan.clone(), kernel(), p.pipeline_config())
                    .expect("pipeline builds")
            });
            s.push("system.build_us", build_s * 1e6);
            let mut pipe = TemporalPipeline::new(plan.clone(), kernel(), p.pipeline_config())
                .expect("pipeline builds");
            let (run, run_s) = timed(tracer, "TemporalPipeline::run", "pipeline", parent, || {
                pipe.run(&input, p.passes()).expect("pipeline runs")
            });
            s.push("pipeline.ns_per_cell", run_s * 1e9 / cell_updates);
            let mut pipe = TemporalPipeline::new(plan.clone(), kernel(), p.pipeline_config())
                .expect("pipeline builds");
            let ((_, sched), cap_s) = timed(
                tracer,
                "TemporalPipeline::run_captured",
                "pipeline",
                parent,
                || {
                    pipe.run_captured(&input, p.passes())
                        .expect("pipeline captures")
                },
            );
            (run, run_s, sched, cap_s)
        } else {
            let build_s = timed_reps(tracer, "SmacheSystem::new", "system", parent, || {
                SmacheSystem::new(plan.clone(), kernel(), p.system_config()).expect("system builds")
            });
            s.push("system.build_us", build_s * 1e6);
            let mut sys = SmacheSystem::new(plan.clone(), kernel(), p.system_config())
                .expect("system builds");
            let (run, run_s) = timed(tracer, "SmacheSystem::run", "system", parent, || {
                sys.run(&input, p.instances).expect("system runs")
            });
            s.push("system.sim_ns_per_cell", run_s * 1e9 / cell_updates);
            s.push(
                "system.host_ns_per_sim_cycle",
                run_s * 1e9 / run.metrics.cycles as f64,
            );
            let mut sys = SmacheSystem::new(plan.clone(), kernel(), p.system_config())
                .expect("system builds");
            let ((_, sched), cap_s) = timed(
                tracer,
                "SmacheSystem::run_captured",
                "system",
                parent,
                || {
                    sys.run_captured(&input, p.instances)
                        .expect("system captures")
                },
            );
            (run, run_s, sched, cap_s)
        };
        capture_s.insert(p.label.clone(), cap_s);
        s.push("system.capture_overhead", cap_s / run_s);
        stall += run.stats.stall_cycles;
        hits += run.metrics.dram.row_hits;
        misses += run.metrics.dram.row_misses;
        rstall += run.metrics.dram.read_stall_cycles;
        updates += p.cell_updates();

        let other = smache::spec::seeded_input(p.cells(), 101 + i as u64);
        let single_s = timed_reps(tracer, "ControlSchedule::replay", "replay", parent, || {
            captured.replay(kernel().as_ref(), &other).expect("replays")
        });
        s.push("replay.single_ns_per_cell", single_s * 1e9 / cell_updates);
        let lanes: Vec<Vec<u64>> = (0..PROBE_LANES as u64)
            .map(|l| smache::spec::seeded_input(p.cells(), 1000 + l))
            .collect();
        let views: Vec<&[u64]> = lanes.iter().map(Vec::as_slice).collect();
        let lanes_s = timed_reps(
            tracer,
            "ControlSchedule::replay_lanes",
            "replay",
            parent,
            || {
                captured
                    .replay_lanes(kernel().as_ref(), &views)
                    .expect("replays lanes")
            },
        );
        s.push(
            "replay.lanes_ns_per_cell",
            lanes_s * 1e9 / (cell_updates * PROBE_LANES as f64),
        );
        s.push(
            "replay.schedule_bytes_per_cell",
            captured.approx_bytes() as f64 / p.cells() as f64,
        );

        let json_s = timed_reps(tracer, "RunReport::to_json", "report", parent, || {
            run.to_json().compact()
        });
        s.push("report.to_json_us", json_s * 1e6);

        let key = captured.key();
        let (saved_ok, save_s) = timed(tracer, "ScheduleStore::save", "store", parent, || {
            store.save(key, &captured)
        });
        saved_ok.expect("probe store write");
        s.push("store.save_us", save_s * 1e6);
        let (loaded, load_s) = timed(tracer, "ScheduleStore::load", "store", parent, || {
            store.load(key)
        });
        assert!(matches!(loaded, Ok(Some(_))), "a saved schedule loads back");
        s.push("store.load_us", load_s * 1e6);

        if let Some(line) = p.request_line(&i.to_string(), 77 + i as u64) {
            let parse_s = timed_reps(tracer, "Request::parse_line", "protocol", parent, || {
                Request::parse_line(&line).expect("line parses")
            });
            s.push("protocol.parse_us", parse_s * 1e6);
            let RequestBody::Run(req) = Request::parse_line(&line).expect("line parses").body
            else {
                unreachable!("a run request")
            };
            let key_s = timed_reps(
                tracer,
                "RunRequest::cache_key+schedule_key",
                "protocol",
                parent,
                || (req.cache_key(), req.schedule_key()),
            );
            s.push("protocol.key_us", key_s * 1e6);
            let ((doc, sched), _) = timed(
                tracer,
                "RunRequest::execute_capture",
                "system",
                parent,
                || req.execute_capture().expect("captures"),
            );
            let sched = sched.expect("replayable");
            timed_reps(
                tracer,
                "RunRequest::execute_replay",
                "replay",
                parent,
                || req.execute_replay(&sched).expect("replays"),
            );
            cache.insert(req.cache_key(), doc.compact());
            let get_s = timed_reps(tracer, "ResultCache::get", "cache", parent, || {
                cache.get(req.cache_key())
            });
            s.push("cache.result_get_us", get_s * 1e6);
        }
    }

    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut out: Vec<Metric> = [
        ("config.plan_us", "us"),
        ("system.sim_ns_per_cell", "ns"),
        ("system.host_ns_per_sim_cycle", "ns"),
        ("system.build_us", "us"),
        ("system.capture_overhead", "x"),
        ("pipeline.ns_per_cell", "ns"),
        ("replay.single_ns_per_cell", "ns"),
        ("replay.lanes_ns_per_cell", "ns"),
        ("replay.schedule_bytes_per_cell", "B"),
        ("report.to_json_us", "us"),
        ("store.save_us", "us"),
        ("store.load_us", "us"),
        ("protocol.parse_us", "us"),
        ("protocol.key_us", "us"),
        ("cache.result_get_us", "us"),
    ]
    .iter()
    .map(|&(k, u)| s.metric(k, u))
    .collect();
    let upd = updates.max(1) as f64;
    out.push(Metric::new(
        "system.stall_cycles_per_cell",
        stall as f64 / upd,
        "cycles",
        chosen.len(),
    ));
    out.push(Metric::new(
        "mem.row_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "share",
        chosen.len(),
    ));
    out.push(Metric::new(
        "mem.read_stall_cycles_per_cell",
        rstall as f64 / upd,
        "cycles",
        chosen.len(),
    ));
    out.extend(probe_batch(ctx, &chosen, &capture_s, parent));
    let metrics = out.into_iter().map(|m| (m.name.clone(), m)).collect();
    Probed {
        metrics,
        capture_s_per_update: capture_s.values().sum::<f64>() / upd,
    }
}

/// `run_batch` on the probed single-step problems, `PROBE_LANES` seeds
/// each, for the batch-layer ratios of workloads that do not batch.
fn probe_batch(
    ctx: &Ctx,
    problems: &[&Problem],
    capture_s: &HashMap<String, f64>,
    parent: SpanId,
) -> Vec<Metric> {
    let f: smache::system::KernelFactory = Arc::new(kernel);
    let mut jobs = Vec::new();
    for p in problems.iter().filter(|p| !p.pipelined()) {
        let plan = p.spec.builder().plan().expect("valid plan");
        for l in 0..PROBE_LANES as u64 {
            jobs.push(
                BatchJob::new(
                    plan.clone(),
                    Arc::clone(&f),
                    smache::spec::seeded_input(p.cells(), l),
                    p.instances,
                )
                .with_config(p.system_config()),
            );
        }
    }
    let lanes = jobs.len();
    // Pass 1 captures each distinct spec serially on the calling thread.
    let serial: f64 = problems
        .iter()
        .filter(|p| !p.pipelined())
        .map(|p| capture_s[&p.label])
        .sum();
    let cpu0 = cpu_seconds();
    let (report, wall) = timed(
        ctx.tracer,
        "SmacheSystem::run_batch",
        "batch",
        parent,
        || SmacheSystem::run_batch(jobs, BatchOptions::new().threads(ctx.threads)),
    );
    let cpu = cpu_seconds() - cpu0;
    let replayed = report
        .lanes
        .iter()
        .filter(|l| l.as_ref().is_ok_and(|r| r.engine == RunEngine::Replay))
        .count();
    vec![
        Metric::new("batch.cores_busy", cpu / wall, "cores", 1),
        Metric::new(
            "batch.replayed_lane_share",
            replayed as f64 / lanes.max(1) as f64,
            "share",
            lanes,
        ),
        Metric::new("batch.serial_capture_share", serial / wall, "share", lanes),
    ]
}
