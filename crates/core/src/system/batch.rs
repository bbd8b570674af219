//! Batched execution of independent Smache runs across worker threads.
//!
//! Parameter sweeps (Fig. 2's nine boundary cases, Table I's design points,
//! seed sweeps for statistics) run many *independent* simulations. A
//! [`SmacheSystem`] itself is single-threaded, but a batch shards perfectly:
//! every lane describes one run as plain `Send` data ([`BatchJob`]) plus a
//! kernel *factory* (the [`Kernel`] trait objects themselves are not
//! `Send`), and each worker thread builds and drives its own system.
//!
//! The single entry point is [`SmacheSystem::run_batch`] with a
//! [`BatchOptions`]: threads, [`ReplayMode`], an optional persistent
//! [`ScheduleStore`], and the replay lane-block size all live on one
//! builder-style options struct, so new batch knobs grow there instead of
//! spawning new entry points. (The former `run_batch_replay` /
//! `run_batch_replay_stored` shims served their one-release deprecation
//! window and are gone.)
//!
//! Results come back in job order regardless of which worker finished
//! first, so a batched sweep is bit-identical to a serial one — the same
//! guarantee [`smache_sim::run_batch`] gives at the simulator level, which
//! this module builds on. Replay-eligible lanes that share a
//! [`schedule_key`] are grouped into lane blocks and driven through
//! [`ControlSchedule::replay_lanes`], one kernel call per run of the
//! gather rows for the whole block.

use std::collections::HashMap;
use std::sync::Arc;

use smache_sim::CycleStats;

use crate::arch::kernel::Kernel;
use crate::config::BufferPlan;
use crate::error::CoreError;
use crate::pipeline::PipelineConfig;
use crate::system::replay::{schedule_key, ControlSchedule, ReplayMode};
use crate::system::smache_system::{RunReport, SmacheSystem};
use crate::system::store::ScheduleStore;
use crate::CoreResult;

/// Builds a fresh kernel instance inside a worker thread.
///
/// Kernels are cheap, stateless descriptions, but as `Box<dyn Kernel>` they
/// are not `Send`; a shared factory closure crosses the thread boundary
/// instead.
pub type KernelFactory = Arc<dyn Fn() -> Box<dyn Kernel> + Send + Sync>;

/// Default number of lanes replayed per block.
///
/// Big enough to amortise the per-run kernel call across many lanes,
/// small enough that a block's interleaved grids stay cache-resident
/// and blocks still spread across worker threads.
pub const DEFAULT_LANE_BLOCK: usize = 16;

/// One lane of a batch: everything needed to construct and run one system.
pub struct BatchJob {
    /// The buffer plan the lane's system is built from.
    pub plan: BufferPlan,
    /// Constructs the lane's kernel (invoked on the worker thread).
    pub kernel: KernelFactory,
    /// The engine geometry and its system tunables: lanes, depth,
    /// channels, DRAM timing, skid depth, double buffering.
    pub config: PipelineConfig,
    /// The input grid for the run.
    pub input: Vec<u64>,
    /// Passes to run, as [`SmacheSystem::run`] counts them: work-instances
    /// for the single step, `depth` timesteps each for a pipeline.
    pub instances: u64,
}

impl BatchJob {
    /// A job on the paper's single-step geometry with the default
    /// [`SystemConfig`](crate::system::SystemConfig).
    pub fn new(plan: BufferPlan, kernel: KernelFactory, input: Vec<u64>, instances: u64) -> Self {
        BatchJob {
            plan,
            kernel,
            config: PipelineConfig::default(),
            input,
            instances,
        }
    }

    /// Replaces the configuration: a
    /// [`SystemConfig`](crate::system::SystemConfig) sets the single step,
    /// a [`PipelineConfig`] any geometry.
    pub fn with_config(mut self, config: impl Into<PipelineConfig>) -> Self {
        self.config = config.into();
        self
    }
}

/// How a batch executes: the one growth point for batch behaviour.
///
/// Builder-style — start from [`BatchOptions::new`] (or `default()`) and
/// chain the knobs you care about:
///
/// ```ignore
/// let report = SmacheSystem::run_batch(
///     jobs,
///     BatchOptions::new().threads(4).replay(ReplayMode::Auto),
/// );
/// ```
///
/// Defaults: one thread, [`ReplayMode::Auto`], no persistent store,
/// [`DEFAULT_LANE_BLOCK`] lanes per replay block.
pub struct BatchOptions<'s> {
    /// Worker threads for the parallel pass.
    pub threads: usize,
    /// Full simulation vs schedule replay policy.
    pub replay: ReplayMode,
    /// Persistent schedule store consulted before capturing and written
    /// back after (see [`ScheduleStore`]).
    pub store: Option<&'s mut ScheduleStore>,
    /// Lanes replayed per block (clamped to ≥ 1).
    pub lane_block: usize,
}

impl BatchOptions<'_> {
    /// The default options: 1 thread, replay `auto`, no store,
    /// [`DEFAULT_LANE_BLOCK`] lanes per block.
    pub fn new() -> Self {
        BatchOptions {
            threads: 1,
            replay: ReplayMode::Auto,
            store: None,
            lane_block: DEFAULT_LANE_BLOCK,
        }
    }

    /// Sets the worker-thread count (0 is treated as 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the replay policy.
    pub fn replay(mut self, mode: ReplayMode) -> Self {
        self.replay = mode;
        self
    }

    /// Sets the replay lane-block size (0 is treated as 1).
    pub fn lane_block(mut self, lanes: usize) -> Self {
        self.lane_block = lanes;
        self
    }
}

impl<'s> BatchOptions<'s> {
    /// Attaches a persistent schedule store.
    pub fn store(self, store: &'s mut ScheduleStore) -> BatchOptions<'s> {
        BatchOptions {
            store: Some(store),
            ..self
        }
    }
}

impl Default for BatchOptions<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// The outcome of [`SmacheSystem::run_batch`]: per-lane results in job
/// order, plus the merged cycle accounting of the successful lanes.
#[derive(Debug)]
pub struct BatchReport {
    /// One entry per job, in the order the jobs were submitted.
    pub lanes: Vec<CoreResult<RunReport>>,
    /// [`CycleStats`] merged over every successful lane.
    pub aggregate: CycleStats,
}

impl BatchReport {
    /// Number of lanes that completed without error.
    pub fn succeeded(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_ok()).count()
    }

    fn collect(lanes: Vec<CoreResult<RunReport>>) -> BatchReport {
        let mut aggregate = CycleStats::default();
        for lane in lanes.iter().flatten() {
            aggregate.merge(&lane.stats);
        }
        BatchReport { lanes, aggregate }
    }
}

fn run_one(job: BatchJob) -> CoreResult<RunReport> {
    let mut system = SmacheSystem::new(job.plan, (job.kernel)(), job.config)?;
    system.run(&job.input, job.instances)
}

/// Captures `job` under `key`, the [`schedule_key`] pass 1 derived for
/// it, so the key text is not formatted a second time while sealing.
fn capture_one(job: &BatchJob, key: (u64, u64)) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
    let mut system = SmacheSystem::new(job.plan.clone(), (job.kernel)(), job.config)?;
    system.run_captured_keyed(&job.input, job.instances, key)
}

/// A batch spec seen in pass 1, memoised so its [`schedule_key`] — which
/// formats and fingerprints the whole plan — is derived **once** per batch
/// rather than once per lane (the old fallback path re-keyed every lane of
/// a refused spec).
struct SpecKey {
    kernel: KernelFactory,
    instances: u64,
    config: PipelineConfig,
    plan: BufferPlan,
    key: (u64, u64),
}

impl SpecKey {
    fn matches(&self, job: &BatchJob) -> bool {
        Arc::ptr_eq(&self.kernel, &job.kernel)
            && self.instances == job.instances
            && self.config == job.config
            && self.plan == job.plan
    }
}

/// What a worker has to do for one unit of pass-2 work. Each unit carries
/// the job indices it resolves, so results scatter back into job order.
enum Work {
    /// The lane already ran (it was a capture lane, or it failed up front).
    Done(usize, CoreResult<RunReport>),
    /// Run the full simulation for one lane.
    Full(usize, BatchJob),
    /// Replay the captured schedule over a lane block.
    Replay(Arc<ControlSchedule>, Vec<(usize, BatchJob)>),
}

fn replay_block(
    schedule: &ControlSchedule,
    lanes: Vec<(usize, BatchJob)>,
    mode: ReplayMode,
) -> Vec<(usize, CoreResult<RunReport>)> {
    let kernel = (lanes[0].1.kernel)();
    let views: Vec<&[u64]> = lanes.iter().map(|(_, j)| j.input.as_slice()).collect();
    match schedule.replay_lanes(kernel.as_ref(), &views) {
        Ok(reports) => lanes
            .into_iter()
            .zip(reports)
            .map(|((idx, _), report)| (idx, Ok(report)))
            .collect(),
        // The block refused as a whole (e.g. one lane's input length is
        // wrong): resolve each lane individually so the healthy lanes
        // still replay and only the mismatched ones fall back / error.
        Err(_) => lanes
            .into_iter()
            .map(|(idx, job)| {
                let result = match schedule.replay((job.kernel)().as_ref(), &job.input) {
                    Ok(report) => Ok(report),
                    Err(refusal) if mode == ReplayMode::On => {
                        Err(CoreError::ReplayRefused(refusal))
                    }
                    Err(_) => run_one(job),
                };
                (idx, result)
            })
            .collect(),
    }
}

impl SmacheSystem {
    /// Runs every job according to `options` and returns the lane reports
    /// in job order — the single batch entry point.
    ///
    /// Each worker constructs its own system from the lane's plan and
    /// kernel factory, so lanes share no state; the result is identical to
    /// running the jobs serially, independent of `options.threads`.
    ///
    /// **Replay** ([`BatchOptions::replay`], default [`ReplayMode::Auto`]):
    /// lanes that share a [`schedule_key`] (same plan, geometry and
    /// config, kernel, pass count and — for active latency-only fault plans — chaos
    /// seed; *data* seeds do not matter) capture the control plane **once**
    /// and replay it for every other lane, bit-exact with the full
    /// simulation. Replay lanes are grouped into blocks of
    /// [`BatchOptions::lane_block`] lanes and driven through
    /// [`ControlSchedule::replay_lanes`], so the kernel runs once per run
    /// of the gather rows for the whole block.
    ///
    /// * [`ReplayMode::Off`] — every lane runs the full simulation.
    /// * [`ReplayMode::Auto`] — one lane per distinct key runs the full
    ///   capturing simulation on the calling thread; the remaining lanes
    ///   replay on the workers. Any capture or replay refusal falls back
    ///   to the full simulation for the affected lanes.
    /// * [`ReplayMode::On`] — like `Auto`, but a refusal is surfaced as
    ///   [`CoreError::ReplayRefused`] on every lane of the refused key
    ///   instead of falling back.
    ///
    /// **Store** ([`BatchOptions::store`]): before capturing a distinct
    /// key, the persistent [`ScheduleStore`] is consulted — a sound
    /// on-disk entry replays directly (no capture lane at all), and every
    /// fresh capture is written back, so a *subsequent* batch of the same
    /// specs starts warm. Damaged entries are discarded and recaptured;
    /// store I/O failures degrade to the storeless path.
    ///
    /// Except for forced refusals under `On`, every lane's report is
    /// bit-identical to a full-simulation run of that lane (only
    /// [`RunReport::engine`] differs).
    pub fn run_batch(jobs: Vec<BatchJob>, options: BatchOptions<'_>) -> BatchReport {
        let BatchOptions {
            threads,
            replay: mode,
            mut store,
            lane_block,
        } = options;
        let lane_block = lane_block.max(1);
        if mode == ReplayMode::Off {
            return BatchReport::collect(smache_sim::run_batch(jobs, threads, run_one));
        }
        let total = jobs.len();
        // Pass 1 (serial): load or capture one schedule per distinct key.
        // The capture lane is itself a complete full-simulation run, so
        // its report is kept — nothing is simulated twice. Specs are
        // memoised so each distinct spec is keyed exactly once, and
        // replay lanes accumulate into open per-key lane blocks.
        let mut specs: Vec<SpecKey> = Vec::new();
        let mut schedules: HashMap<(u64, u64), Result<Arc<ControlSchedule>, CoreError>> =
            HashMap::new();
        let mut open_block: HashMap<(u64, u64), usize> = HashMap::new();
        let mut work: Vec<Work> = Vec::new();
        for (idx, job) in jobs.into_iter().enumerate() {
            let key = match specs.iter().find(|s| s.matches(&job)) {
                Some(spec) => spec.key,
                None => {
                    let key = schedule_key(
                        &job.plan,
                        &job.config,
                        (job.kernel)().as_ref(),
                        job.instances,
                    );
                    specs.push(SpecKey {
                        kernel: Arc::clone(&job.kernel),
                        instances: job.instances,
                        config: job.config,
                        plan: job.plan.clone(),
                        key,
                    });
                    key
                }
            };
            if let std::collections::hash_map::Entry::Vacant(slot) = schedules.entry(key) {
                if let Some(store) = store.as_deref_mut() {
                    if let Ok(Some(schedule)) = store.load_or_evict(key) {
                        slot.insert(Ok(schedule));
                    }
                }
            }
            match schedules.get(&key) {
                None => match capture_one(&job, key) {
                    Ok((report, schedule)) => {
                        if let Some(store) = store.as_deref_mut() {
                            store.save(key, &schedule).ok();
                        }
                        schedules.insert(key, Ok(schedule));
                        work.push(Work::Done(idx, Ok(report)));
                    }
                    Err(e) => {
                        schedules.insert(key, Err(e.clone()));
                        match (mode, &e) {
                            // Forced replay: the refusal is the result.
                            (ReplayMode::On, CoreError::ReplayRefused(_)) => {
                                work.push(Work::Done(idx, Err(e)));
                            }
                            // Auto: an ineligible spec runs the full sim.
                            (_, CoreError::ReplayRefused(_)) => work.push(Work::Full(idx, job)),
                            // A genuine run failure is this lane's result
                            // regardless of mode (full sim would hit it too).
                            _ => work.push(Work::Done(idx, Err(e))),
                        }
                    }
                },
                Some(Ok(schedule)) => match open_block.get(&key) {
                    Some(&slot) if matches!(&work[slot], Work::Replay(_, lanes) if lanes.len() < lane_block) => {
                        if let Work::Replay(_, lanes) = &mut work[slot] {
                            lanes.push((idx, job));
                        }
                    }
                    _ => {
                        open_block.insert(key, work.len());
                        work.push(Work::Replay(Arc::clone(schedule), vec![(idx, job)]));
                    }
                },
                Some(Err(e)) => match (mode, e) {
                    (ReplayMode::On, CoreError::ReplayRefused(_)) => {
                        work.push(Work::Done(idx, Err(e.clone())));
                    }
                    // No schedule for this key: run the lane in full (its
                    // own input may well succeed even if the capture lane's
                    // run failed).
                    _ => work.push(Work::Full(idx, job)),
                },
            }
        }
        // Pass 2 (parallel): replay the lane blocks, full-simulate the
        // rest; the scatter restores job order.
        let lanes = smache_sim::run_scatter(work, threads, total, move |w| match w {
            Work::Done(idx, r) => vec![(idx, r)],
            Work::Full(idx, job) => vec![(idx, run_one(job))],
            Work::Replay(schedule, lanes) => replay_block(&schedule, lanes, mode),
        });
        BatchReport::collect(lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::kernel::AverageKernel;
    use crate::builder::SmacheBuilder;
    use crate::system::report::RunEngine;
    use crate::system::SystemConfig;
    use smache_stencil::GridSpec;

    fn paper_plan() -> BufferPlan {
        SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
            .plan()
            .expect("plan")
    }

    fn average_factory() -> KernelFactory {
        Arc::new(|| Box::new(AverageKernel))
    }

    fn jobs(seeds: &[u64]) -> Vec<BatchJob> {
        let kernel = average_factory();
        seeds
            .iter()
            .map(|&s| {
                let input: Vec<u64> = (0..121).map(|i| i * 7 + s).collect();
                BatchJob::new(paper_plan(), Arc::clone(&kernel), input, 2)
            })
            .collect()
    }

    fn full_sim(seeds: &[u64]) -> BatchReport {
        SmacheSystem::run_batch(jobs(seeds), BatchOptions::new().replay(ReplayMode::Off))
    }

    #[test]
    fn batch_matches_serial_run() {
        let report_serial = full_sim(&[1, 2, 3, 4]);
        let report_batched = SmacheSystem::run_batch(
            jobs(&[1, 2, 3, 4]),
            BatchOptions::new().threads(4).replay(ReplayMode::Off),
        );
        assert_eq!(report_serial.lanes.len(), 4);
        assert_eq!(report_batched.succeeded(), 4);
        for (a, b) in report_serial.lanes.iter().zip(&report_batched.lanes) {
            let (a, b) = (
                a.as_ref().expect("serial ok"),
                b.as_ref().expect("batch ok"),
            );
            assert_eq!(a.output, b.output);
            assert_eq!(a.metrics.cycles, b.metrics.cycles);
            assert_eq!(a.stats, b.stats);
        }
        assert_eq!(report_serial.aggregate, report_batched.aggregate);
    }

    #[test]
    fn lanes_come_back_in_job_order() {
        // Distinct inputs per lane: lane i's first output word identifies
        // it. Replay on, so ordering also covers the scatter path.
        let report =
            SmacheSystem::run_batch(jobs(&[100, 200, 300]), BatchOptions::new().threads(3));
        let firsts: Vec<u64> = report
            .lanes
            .iter()
            .map(|l| l.as_ref().expect("ok").output[0])
            .collect();
        assert!(firsts[0] < firsts[1] && firsts[1] < firsts[2]);
    }

    #[test]
    fn replay_batch_is_bit_identical_to_full_batch() {
        let full = full_sim(&[1, 2, 3, 4]);
        let fast = SmacheSystem::run_batch(jobs(&[1, 2, 3, 4]), BatchOptions::new().threads(2));
        assert_eq!(full.aggregate, fast.aggregate);
        for (i, (a, b)) in full.lanes.iter().zip(&fast.lanes).enumerate() {
            let (a, b) = (a.as_ref().expect("full ok"), b.as_ref().expect("fast ok"));
            assert_eq!(a.output, b.output, "lane {i}");
            assert_eq!(a.stats, b.stats, "lane {i}");
            assert_eq!(a.metrics.cycles, b.metrics.cycles, "lane {i}");
            // Lane 0 captured (a full run); the rest replayed.
            let expect = if i == 0 {
                RunEngine::FullSim
            } else {
                RunEngine::Replay
            };
            assert_eq!(b.engine, expect, "lane {i}");
        }
    }

    #[test]
    fn small_lane_blocks_produce_identical_reports() {
        let seeds: Vec<u64> = (0..9).collect();
        let full = full_sim(&seeds);
        // lane_block 3 forces several blocks; threads 2 exercises the
        // scatter of out-of-order block results.
        let blocked =
            SmacheSystem::run_batch(jobs(&seeds), BatchOptions::new().threads(2).lane_block(3));
        for (i, (a, b)) in full.lanes.iter().zip(&blocked.lanes).enumerate() {
            let (a, b) = (a.as_ref().expect("full ok"), b.as_ref().expect("block ok"));
            assert_eq!(a.output, b.output, "lane {i}");
            assert_eq!(a.stats, b.stats, "lane {i}");
            if i > 0 {
                assert_eq!(b.engine, RunEngine::Replay, "lane {i}");
            }
        }
    }

    fn chaotic_jobs(seeds: &[u64], profile: smache_mem::ChaosProfile) -> Vec<BatchJob> {
        use smache_mem::FaultPlan;
        jobs(seeds)
            .into_iter()
            .map(|j| {
                j.with_config(SystemConfig {
                    fault_plan: FaultPlan::new(7, profile),
                    ..SystemConfig::default()
                })
            })
            .collect()
    }

    #[test]
    fn the_batch_seals_under_the_key_run_captured_derives() {
        use smache_mem::ChaosProfile;
        let plain = jobs(&[1]).remove(0);
        let chaotic = chaotic_jobs(&[1], ChaosProfile::jitter()).remove(0);
        for job in [plain, chaotic] {
            let key = schedule_key(
                &job.plan,
                &job.config,
                (job.kernel)().as_ref(),
                job.instances,
            );
            let (_, sealed) = capture_one(&job, key).expect("capture");
            assert_eq!(sealed.key(), key, "sealed under the pass-1 key");
            let mut system =
                SmacheSystem::new(job.plan.clone(), (job.kernel)(), job.config).expect("system");
            let (_, own) = system
                .run_captured(&job.input, job.instances)
                .expect("capture");
            assert_eq!(own.key(), key, "run_captured derives the same key");
        }
    }

    #[test]
    fn latency_only_chaos_replays_across_data_seeds() {
        use smache_mem::ChaosProfile;
        // Latency-only chaos is a pure function of (chaos-seed, cycle):
        // forced replay succeeds, and every lane matches the full sim.
        let full = SmacheSystem::run_batch(
            chaotic_jobs(&[1, 2, 3], ChaosProfile::jitter()),
            BatchOptions::new().replay(ReplayMode::Off),
        );
        let forced = SmacheSystem::run_batch(
            chaotic_jobs(&[1, 2, 3], ChaosProfile::jitter()),
            BatchOptions::new().replay(ReplayMode::On),
        );
        assert_eq!(forced.succeeded(), 3);
        for (i, (a, b)) in full.lanes.iter().zip(&forced.lanes).enumerate() {
            let (a, b) = (a.as_ref().expect("full ok"), b.as_ref().expect("replay ok"));
            assert_eq!(a.output, b.output, "lane {i}");
            assert_eq!(a.stats, b.stats, "lane {i}");
            if i > 0 {
                assert_eq!(b.engine, RunEngine::Replay, "lane {i}");
            }
        }
    }

    #[test]
    fn corrupting_jobs_refuse_forced_replay_and_fall_back_in_auto() {
        use smache_mem::ChaosProfile;
        // Bit flips couple the fault effect to the data: replay refuses.
        let forced = SmacheSystem::run_batch(
            chaotic_jobs(&[1, 2], ChaosProfile::flip(40)),
            BatchOptions::new().threads(2).replay(ReplayMode::On),
        );
        for lane in &forced.lanes {
            assert!(matches!(
                lane,
                Err(CoreError::ReplayRefused(
                    smache_sim::ReplayUnsupported::FaultPlan
                ))
            ));
        }
        // Auto falls back to the full simulation — which, for a bit-flip
        // plan, surfaces the same typed FaultDetected diagnosis a plain
        // run does (the flip is caught at the response ingress), *not* a
        // replay refusal: the fallback genuinely ran the lane.
        let auto = SmacheSystem::run_batch(
            chaotic_jobs(&[1, 2], ChaosProfile::flip(40)),
            BatchOptions::new().threads(2),
        );
        let off = SmacheSystem::run_batch(
            chaotic_jobs(&[1, 2], ChaosProfile::flip(40)),
            BatchOptions::new().threads(2).replay(ReplayMode::Off),
        );
        for (a, o) in auto.lanes.iter().zip(&off.lanes) {
            match (a, o) {
                (Ok(a), Ok(o)) => assert_eq!(a.output, o.output),
                (Err(a), Err(o)) => {
                    assert!(matches!(a, CoreError::FaultDetected(_)));
                    assert_eq!(a.to_string(), o.to_string());
                }
                _ => panic!("auto fallback diverged from the full simulation"),
            }
        }
    }

    #[test]
    fn stored_batch_warm_starts_from_disk() {
        use crate::system::store::ScheduleStore;
        let dir = std::env::temp_dir().join(format!("smache-batch-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let mut store = ScheduleStore::open(&dir, 0).expect("open");
        let cold = SmacheSystem::run_batch(jobs(&[1, 2]), BatchOptions::new().store(&mut store));
        assert_eq!(cold.succeeded(), 2);
        assert_eq!(store.stats().writes, 1, "one capture, written back");

        // A fresh handle on the same directory (think: a new process):
        // the single spec replays straight from disk — zero captures, so
        // even the first lane reports the replay engine.
        let mut store = ScheduleStore::open(&dir, 0).expect("reopen");
        let warm = SmacheSystem::run_batch(jobs(&[3, 4]), BatchOptions::new().store(&mut store));
        assert_eq!(store.stats().hits, 1);
        let full = full_sim(&[3, 4]);
        for (i, (w, f)) in warm.lanes.iter().zip(&full.lanes).enumerate() {
            let (w, f) = (w.as_ref().expect("warm ok"), f.as_ref().expect("full ok"));
            assert_eq!(w.engine, RunEngine::Replay, "lane {i} came from the store");
            assert_eq!(w.output, f.output, "lane {i}");
            assert_eq!(w.stats, f.stats, "lane {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Grouping compares plans by value: separately built equal plans share
    /// one capture, while a plan that differs only in its range decisions
    /// is a different spec with a capture of its own.
    #[test]
    fn spec_grouping_is_by_plan_value_not_identity() {
        let (a, b) = (paper_plan(), paper_plan());
        assert!(!Arc::ptr_eq(&a.decisions, &b.decisions));
        assert_eq!(a, b);
        let mut c = paper_plan();
        let last = Arc::make_mut(&mut c.decisions)
            .last_mut()
            .expect("decisions");
        last.cost.stream_words += 1;
        assert_ne!(a, c);

        let kernel = average_factory();
        let job = |plan: BufferPlan, s: u64| {
            let input: Vec<u64> = (0..121).map(|i| i * 7 + s).collect();
            BatchJob::new(plan, Arc::clone(&kernel), input, 2)
        };
        let jobs = vec![
            job(a.clone(), 1),
            job(b, 2),
            job(c.clone(), 3),
            job(a, 4),
            job(c, 5),
        ];
        let report = SmacheSystem::run_batch(jobs, BatchOptions::new());
        let engines: Vec<RunEngine> = report
            .lanes
            .iter()
            .map(|l| l.as_ref().expect("ok").engine)
            .collect();
        use RunEngine::{FullSim, Replay};
        assert_eq!(engines, [FullSim, Replay, FullSim, Replay, Replay]);
        let full = full_sim(&[1, 2, 3, 4, 5]);
        for (f, r) in full.lanes.iter().zip(&report.lanes) {
            assert_eq!(
                f.as_ref().expect("ok").output,
                r.as_ref().expect("ok").output
            );
        }
    }

    #[test]
    fn aggregate_merges_all_lanes() {
        let report = SmacheSystem::run_batch(
            jobs(&[5, 6]),
            BatchOptions::new().threads(2).replay(ReplayMode::Off),
        );
        let sum: u64 = report
            .lanes
            .iter()
            .map(|l| l.as_ref().expect("ok").stats.cycles)
            .sum();
        assert_eq!(report.aggregate.cycles, sum);
        assert_eq!(report.aggregate.transfers, 2 * 242);
    }
}
