//! Schedule replay: capture the control plane once, stream data through it.
//!
//! The paper's central observation is that a stencil's memory-access
//! pattern is a *static* function of the spec — offsets, reaches and
//! boundary ranges are known before the first datum arrives. The same is
//! true of the simulator: for a fixed (plan, system config, kernel,
//! instance count), every FSM transition, buffer address, DRAM issue cycle
//! and stall decision of [`SmacheSystem`] is independent of the data words
//! flowing through the datapath. So the control plane can be **recorded
//! once and replayed**:
//!
//! 1. **Capture** ([`SmacheSystem::run_captured`]): one full cycle-accurate
//!    run with the per-cycle control recorder attached, yielding a
//!    [`ControlSchedule`] — the packed [`ControlTrace`], the per-element
//!    [`GatherTable`], and the run's data-independent report template.
//! 2. **Replay** ([`ControlSchedule::replay`]): for each work-instance,
//!    every output element is the kernel applied to its gathered slots —
//!    indexed grid reads resolved at capture time, no delta settling, no
//!    module dispatch. Outputs and cycle counts are **bit-exact** versus
//!    the full simulation; capture verifies this on its own input before
//!    handing the schedule out ([`ReplayUnsupported::ScheduleDivergence`]
//!    otherwise — replay never silently diverges).
//!
//! Why one gather table serves every instance: each instance's input is the
//! previous instance's output, and *all* architectural reads resolve to
//! current-instance grid indices — a stream tap at offset `o` reads grid
//! index `e + o` of the streamed (current) region, and a static-bank slot
//! holds the previous instance's captured output (or, without double
//! buffering, the re-prefetched previous output region), which is exactly
//! the current input at the same index.
//!
//! Replay **refuses** with a typed [`ReplayUnsupported`] whenever the
//! control plane stops being data-independent: corrupting fault plans,
//! stall schedules, external backpressure, or attached observers (tracer,
//! telemetry, result tap). **Latency-only** fault plans are the deliberate
//! exception: their chaos draws are a pure function of (chaos-seed,
//! cycle), so a schedule captured under one — keyed on (spec, chaos-seed)
//! — replays across data seeds like any clean schedule.
//!
//! Both engines — [`SmacheSystem`] and the temporal pipeline — seal and
//! self-verify their captures through the same function, and
//! [`ReplayMode::capture_or_run`] is the one fallback policy every front
//! end uses: `auto` falls back to the full simulation on a refusal, `on`
//! surfaces it as [`CoreError::ReplayRefused`].
//!
//! Schedules are keyed by [`fingerprint128`] of a canonical, data-seed-
//! independent rendering of the spec ([`schedule_key`]) and cached:
//! [`SmacheSystem::run_batch`](crate::system::SmacheSystem::run_batch)
//! captures once per distinct key and replays the other lanes — grouped
//! into structure-of-arrays lane blocks driven by
//! [`ControlSchedule::replay_lanes`] — and `smache serve` keeps a
//! second-level schedule cache behind its result cache. See
//! `docs/PERFORMANCE.md` §6 for measured speedups.

use std::sync::Arc;

use smache_mem::Word;
use smache_sim::hash::fingerprint128;
use smache_sim::{ControlTrace, GatherTable, ReplayUnsupported, SlotSource};

use crate::arch::kernel::Kernel;
use crate::config::{BufferPlan, SourceRef};
use crate::error::CoreError;
use crate::system::report::{RunEngine, RunReport};
use crate::system::smache_system::{SmacheSystem, SystemConfig};
use crate::CoreResult;

/// How a front end chooses between full simulation and schedule replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// Replay when eligible, fall back to full simulation on any typed
    /// refusal. The default.
    #[default]
    Auto,
    /// Replay or fail: a refusal surfaces as [`CoreError::ReplayRefused`].
    On,
    /// Always run the full simulation.
    Off,
}

impl ReplayMode {
    /// Stable flag/label text (`auto` / `on` / `off`).
    pub fn label(&self) -> &'static str {
        match self {
            ReplayMode::Auto => "auto",
            ReplayMode::On => "on",
            ReplayMode::Off => "off",
        }
    }

    /// Parses a label written by [`ReplayMode::label`].
    pub fn from_label(s: &str) -> Option<ReplayMode> {
        match s {
            "auto" => Some(ReplayMode::Auto),
            "on" => Some(ReplayMode::On),
            "off" => Some(ReplayMode::Off),
            _ => None,
        }
    }
}

/// The canonical text fingerprinted into a schedule's cache key: every
/// parameter that shapes the control plane, and nothing that doesn't.
/// *Data* seeds and input data are deliberately absent — that is what
/// makes the key shareable across differing-seed runs of one spec. The
/// *chaos* seed and profile of an active latency-only fault plan **are**
/// present: chaos draws are a pure function of (chaos-seed, cycle), so
/// they shape the control plane exactly like any other spec parameter.
pub fn schedule_key_text(
    plan: &BufferPlan,
    config: &SystemConfig,
    kernel: &dyn Kernel,
    instances: u64,
) -> String {
    // `Debug` renderings are deterministic for these plain-data types. An
    // inactive fault plan (any seed) does not touch the control plane, so
    // it contributes nothing — keeping the inactive-plan key text
    // byte-identical to pre-chaos-replay schedules already on disk.
    let mut text = format!(
        "sched-v1;plan={:?};dram={:?};resp_high_water={};watchdog={};double_buffering={};kernel={}:{};instances={}",
        plan,
        config.dram,
        config.resp_high_water,
        config.watchdog_cycles_per_element,
        config.double_buffering,
        kernel.name(),
        kernel.latency(),
        instances,
    );
    if config.fault_plan.is_active() {
        text.push_str(&format!(
            ";chaos={}:{:?}",
            config.fault_plan.seed, config.fault_plan.profile
        ));
    }
    text
}

/// The 128-bit content address of a control schedule
/// ([`fingerprint128`] of [`schedule_key_text`]).
pub fn schedule_key(
    plan: &BufferPlan,
    config: &SystemConfig,
    kernel: &dyn Kernel,
    instances: u64,
) -> (u64, u64) {
    fingerprint128(schedule_key_text(plan, config, kernel, instances).as_bytes())
}

/// A captured control schedule: everything needed to reproduce a run of
/// the captured spec over fresh data without re-simulating.
#[derive(Debug, Clone)]
pub struct ControlSchedule {
    key: (u64, u64),
    n: usize,
    instances: u64,
    kernel_name: String,
    kernel_latency: u64,
    gather: GatherTable,
    trace: ControlTrace,
    /// The capture run's report with the output cleared: every remaining
    /// field (cycles, DRAM traffic, resources, warm-up, stats) is
    /// data-independent, so replay clones it and fills in fresh outputs.
    template: RunReport,
}

impl ControlSchedule {
    /// The schedule's content-address ([`schedule_key`] of the captured
    /// spec).
    pub fn key(&self) -> (u64, u64) {
        self.key
    }

    /// Grid elements per instance.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a degenerate zero-element schedule (never produced by a
    /// valid plan).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Work-instances the schedule was captured for.
    pub fn instances(&self) -> u64 {
        self.instances
    }

    /// Name of the kernel the schedule was captured with.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Pipeline latency of the kernel the schedule was captured with.
    pub fn kernel_latency(&self) -> u64 {
        self.kernel_latency
    }

    /// The data-independent report template replay clones and fills in.
    /// Its `output` is always empty — outputs come from the replayed data.
    pub fn template(&self) -> &RunReport {
        &self.template
    }

    /// Reassembles a schedule from its parts (store deserialisation). The
    /// caller is responsible for structural validity — the store decoder
    /// checksums and cross-validates every field before calling this.
    #[allow(clippy::too_many_arguments)] // mirrors the serialised field list
    pub(crate) fn from_parts(
        key: (u64, u64),
        n: usize,
        instances: u64,
        kernel_name: String,
        kernel_latency: u64,
        gather: GatherTable,
        trace: ControlTrace,
        template: RunReport,
    ) -> ControlSchedule {
        ControlSchedule {
            key,
            n,
            instances,
            kernel_name,
            kernel_latency,
            gather,
            trace,
            template,
        }
    }

    /// The recorded per-cycle control-plane trace.
    pub fn trace(&self) -> &ControlTrace {
        &self.trace
    }

    /// The per-element gather table.
    pub fn gather(&self) -> &GatherTable {
        &self.gather
    }

    /// Approximate heap footprint in bytes, for cache budgeting.
    pub fn approx_bytes(&self) -> usize {
        self.gather.approx_bytes()
            + self.trace.approx_bytes()
            + self.kernel_name.len()
            + self.template.fault_events.len() * 32
            + 512
    }

    /// Replays the schedule over `input`: advances the datapath directly
    /// from the recorded control plane — per instance, each element is the
    /// kernel applied to its gathered slots — and returns a report
    /// bit-exact with the full simulation of the same input (verified at
    /// capture time).
    ///
    /// Refuses with a typed reason when the request does not match the
    /// captured spec (kernel, grid size, instance count).
    pub fn replay(
        &self,
        kernel: &dyn Kernel,
        input: &[Word],
    ) -> Result<RunReport, ReplayUnsupported> {
        if kernel.name() != self.kernel_name || kernel.latency() != self.kernel_latency {
            return Err(ReplayUnsupported::KernelMismatch {
                expected: format!("{} (latency {})", self.kernel_name, self.kernel_latency),
                actual: format!("{} (latency {})", kernel.name(), kernel.latency()),
            });
        }
        if input.len() != self.n {
            return Err(ReplayUnsupported::InputLength {
                expected: self.n,
                actual: input.len(),
            });
        }
        let mut cur = input.to_vec();
        let mut next = vec![0u64; self.n];
        let mut values: Vec<Word> = Vec::with_capacity(8);
        for _ in 0..self.instances {
            for (e, out) in next.iter_mut().enumerate() {
                values.clear();
                for s in self.gather.slots(e) {
                    values.push(match *s {
                        SlotSource::Grid(i) => cur[i as usize],
                        SlotSource::Const(v) => v,
                        SlotSource::Hole => 0,
                    });
                }
                *out = kernel.apply(&values, self.gather.masks[e]);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        let mut report = self.template.clone();
        report.output = cur;
        report.engine = RunEngine::Replay;
        Ok(report)
    }

    /// Data-parallel replay: one schedule walk drives **all** lanes of a
    /// sweep at once.
    ///
    /// The grids are interleaved into a structure-of-arrays block — the
    /// word for (element `e`, lane `l`) lives at `e * lanes + l` — so each
    /// element's gather row is decoded *once* and applied across every
    /// lane. Constants and boundary holes are lane-invariant and resolved
    /// outside the lane loop; only grid reads differ per lane, and those
    /// land on consecutive words of the block. Per lane the result is
    /// bit-exact with [`ControlSchedule::replay`] of that lane's input
    /// (and therefore with the full simulation).
    ///
    /// Refuses with a typed reason when the kernel or any lane's input
    /// length does not match the captured spec. An empty `inputs` returns
    /// an empty report list.
    pub fn replay_lanes(
        &self,
        kernel: &dyn Kernel,
        inputs: &[&[Word]],
    ) -> Result<Vec<RunReport>, ReplayUnsupported> {
        if kernel.name() != self.kernel_name || kernel.latency() != self.kernel_latency {
            return Err(ReplayUnsupported::KernelMismatch {
                expected: format!("{} (latency {})", self.kernel_name, self.kernel_latency),
                actual: format!("{} (latency {})", kernel.name(), kernel.latency()),
            });
        }
        for input in inputs {
            if input.len() != self.n {
                return Err(ReplayUnsupported::InputLength {
                    expected: self.n,
                    actual: input.len(),
                });
            }
        }
        let lanes = inputs.len();
        if lanes == 0 {
            return Ok(Vec::new());
        }
        // Interleave: lane l's element e goes to cur[e * lanes + l].
        let mut cur = vec![0u64; self.n * lanes];
        for (l, input) in inputs.iter().enumerate() {
            for (e, &w) in input.iter().enumerate() {
                cur[e * lanes + l] = w;
            }
        }
        let mut next = vec![0u64; self.n * lanes];
        let mut values: Vec<Word> = Vec::with_capacity(8);
        let mut grid_slots: Vec<(usize, usize)> = Vec::with_capacity(8);
        for _ in 0..self.instances {
            for e in 0..self.n {
                // Decode the CSR row once per element: constants and holes
                // fill `values` up front, grid slots are kept as (position,
                // interleaved base index) for the per-lane overwrite.
                let (slots, mask) = self.gather.row(e);
                values.clear();
                grid_slots.clear();
                for (p, s) in slots.iter().enumerate() {
                    values.push(match *s {
                        SlotSource::Grid(i) => {
                            grid_slots.push((p, i as usize * lanes));
                            0
                        }
                        SlotSource::Const(v) => v,
                        SlotSource::Hole => 0,
                    });
                }
                let row = &mut next[e * lanes..(e + 1) * lanes];
                for (l, out) in row.iter_mut().enumerate() {
                    for &(p, base) in &grid_slots {
                        values[p] = cur[base + l];
                    }
                    *out = kernel.apply(&values, mask);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        let mut reports = Vec::with_capacity(lanes);
        for l in 0..lanes {
            let mut report = self.template.clone();
            report.output = (0..self.n).map(|e| cur[e * lanes + l]).collect();
            report.engine = RunEngine::Replay;
            reports.push(report);
        }
        Ok(reports)
    }
}

/// Derives the per-element gather table from the plan. Every architectural
/// source resolves to a current-instance grid index: a stream tap at window
/// position `p` serves offset `lookahead + 1 − p`, i.e. grid index
/// `e + o`; a static-bank slot holds grid index `region_start + slot` of
/// the current input (the previous instance's captured output).
pub(crate) fn build_gather_table(plan: &BufferPlan) -> CoreResult<GatherTable> {
    let n = plan.grid.len();
    let mut table = GatherTable {
        starts: Vec::with_capacity(n + 1),
        sources: Vec::new(),
        masks: Vec::with_capacity(n),
    };
    let mut srcs: Vec<Option<SourceRef>> = Vec::new();
    for e in 0..n {
        table.starts.push(table.sources.len() as u32);
        plan.sources_for(e, &mut srcs)?;
        let mut mask = 0u64;
        for (p, src) in srcs.iter().enumerate() {
            let slot = match *src {
                None => SlotSource::Hole,
                Some(SourceRef::Constant(v)) => {
                    mask |= 1 << p;
                    SlotSource::Const(v)
                }
                Some(SourceRef::Tap { pos }) => {
                    mask |= 1 << p;
                    let offset = plan.lookahead as i64 + 1 - pos as i64;
                    let g = e as i64 + offset;
                    if g < 0 || g >= n as i64 {
                        return Err(CoreError::Config(format!(
                            "gather: tap offset {offset} of element {e} escapes the grid"
                        )));
                    }
                    SlotSource::Grid(g as u32)
                }
                Some(SourceRef::Static { buffer, slot, .. }) => {
                    mask |= 1 << p;
                    let b = plan.static_buffers.get(buffer).ok_or_else(|| {
                        CoreError::Config(format!("gather: unknown static buffer {buffer}"))
                    })?;
                    let g = b.region_start + slot;
                    if g >= n {
                        return Err(CoreError::Config(format!(
                            "gather: static slot {slot} of buffer {buffer} escapes the grid"
                        )));
                    }
                    SlotSource::Grid(g as u32)
                }
            };
            table.sources.push(slot);
        }
        table.masks.push(mask);
    }
    table.starts.push(table.sources.len() as u32);
    Ok(table)
}

/// Seals a recording run into a [`ControlSchedule`]: the one sealing path
/// every capturing engine goes through.
///
/// `trace` is the control trace recorded while the engine ran `input`,
/// `report` that run's report, and `instances` the timesteps the schedule
/// must replay. Before the schedule is handed out, sealing checks that
/// the trace totals reproduce the run's cycle accounting, clears the
/// template's data, and replays the capture input through the fresh
/// schedule, demanding bit-exactness. Any mismatch surfaces as
/// [`CoreError::ReplayRefused`]`(`[`ReplayUnsupported::ScheduleDivergence`]`)`
/// — a loud, typed failure instead of a silently wrong schedule.
pub(crate) fn seal_capture(
    key: (u64, u64),
    plan: &BufferPlan,
    kernel: &dyn Kernel,
    instances: u64,
    trace: ControlTrace,
    report: RunReport,
    input: &[Word],
) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
    let gather = build_gather_table(plan)?;
    let totals = trace.totals();
    let diverged =
        |detail: String| CoreError::ReplayRefused(ReplayUnsupported::ScheduleDivergence { detail });
    if totals.cycles != report.stats.cycles
        || totals.stall_cycles != report.stats.stall_cycles
        || totals.transfers != report.stats.transfers
        || totals.warmup_cycles != report.warmup_cycles
    {
        return Err(diverged(format!(
            "trace totals {totals:?} disagree with run stats {:?} (warmup {})",
            report.stats, report.warmup_cycles
        )));
    }

    let mut template = report.clone();
    template.output = Vec::new();
    let schedule = ControlSchedule {
        key,
        n: plan.grid.len(),
        instances,
        kernel_name: kernel.name().to_string(),
        kernel_latency: kernel.latency(),
        gather,
        trace,
        template,
    };

    // Replay the capture input through the fresh schedule and demand
    // bit-exactness before anyone else trusts it.
    let replayed = schedule
        .replay(kernel, input)
        .map_err(|e| diverged(format!("self-replay refused: {e}")))?;
    if replayed.output != report.output {
        let idx = replayed
            .output
            .iter()
            .zip(&report.output)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(diverged(format!(
            "self-replay output mismatch at element {idx}"
        )));
    }

    Ok((report, Arc::new(schedule)))
}

/// How [`ReplayMode::capture_or_run`] resolved one run.
#[derive(Debug)]
pub enum CaptureOutcome {
    /// [`ReplayMode::Off`]: the plain full simulation ran.
    FullSim(RunReport),
    /// Capture succeeded: the capturing run's report and its sealed,
    /// self-verified schedule.
    Captured(RunReport, Arc<ControlSchedule>),
    /// [`ReplayMode::Auto`]: capture refused with this typed reason, so
    /// the plain full simulation ran instead.
    Fallback(RunReport, ReplayUnsupported),
}

impl ReplayMode {
    /// Runs one engine under this mode — the single place the replay
    /// fallback policy is written, for every engine and front end.
    ///
    /// * `Off` calls `run`, the plain full simulation.
    /// * `Auto` calls `capture`; on a typed [`CoreError::ReplayRefused`]
    ///   it calls `run` on the same engine instead.
    /// * `On` calls `capture` and returns a refusal as the error.
    ///
    /// Any other error is returned unchanged in every mode.
    pub fn capture_or_run<E>(
        self,
        engine: &mut E,
        run: impl FnOnce(&mut E) -> CoreResult<RunReport>,
        capture: impl FnOnce(&mut E) -> CoreResult<(RunReport, Arc<ControlSchedule>)>,
    ) -> CoreResult<CaptureOutcome> {
        if self == ReplayMode::Off {
            return run(engine).map(CaptureOutcome::FullSim);
        }
        match capture(engine) {
            Ok((report, schedule)) => Ok(CaptureOutcome::Captured(report, schedule)),
            Err(CoreError::ReplayRefused(why)) if self == ReplayMode::Auto => {
                Ok(CaptureOutcome::Fallback(run(engine)?, why))
            }
            Err(e) => Err(e),
        }
    }
}

impl SmacheSystem {
    /// Runs the full cycle-accurate simulation *once* with the control
    /// recorder attached and returns both the run's report and the
    /// captured [`ControlSchedule`], sealed and self-verified (see
    /// [`ReplayUnsupported::ScheduleDivergence`]).
    ///
    /// Refuses (typed) when the system is not replay-eligible — see
    /// [`SmacheSystem::replay_eligibility`].
    pub fn run_captured(
        &mut self,
        input: &[Word],
        instances: u64,
    ) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
        self.replay_eligibility()
            .map_err(CoreError::ReplayRefused)?;
        self.begin_capture();
        let outcome = self.run(input, instances);
        let trace = self.take_capture().unwrap_or_default();
        let key = schedule_key(self.plan(), self.config(), self.kernel(), instances);
        seal_capture(
            key,
            self.plan(),
            self.kernel(),
            instances,
            trace,
            outcome?,
            input,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::kernel::{AverageKernel, MaxKernel};
    use crate::builder::SmacheBuilder;
    use smache_stencil::GridSpec;

    fn paper_system() -> SmacheSystem {
        SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
            .build()
            .expect("build")
    }

    fn ramp(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 3 + 1).collect()
    }

    #[test]
    fn capture_report_matches_plain_run() {
        let input = ramp(121);
        let mut a = paper_system();
        let plain = a.run(&input, 3).expect("run");
        let mut b = paper_system();
        let (captured, schedule) = b.run_captured(&input, 3).expect("capture");
        assert_eq!(captured.output, plain.output);
        assert_eq!(captured.stats, plain.stats);
        assert_eq!(captured.engine, RunEngine::FullSim);
        assert_eq!(schedule.trace().len() as u64, plain.stats.cycles);
        assert_eq!(schedule.instances(), 3);
    }

    #[test]
    fn replay_is_bit_exact_for_fresh_inputs() {
        let mut sys = paper_system();
        let (_, schedule) = sys.run_captured(&ramp(121), 2).expect("capture");
        // A different input through the same schedule vs a fresh full run.
        let other: Vec<u64> = (0..121u64).map(|i| (i * 97 + 13) % 4096).collect();
        let replayed = schedule.replay(&AverageKernel, &other).expect("replay");
        let mut fresh = paper_system();
        let full = fresh.run(&other, 2).expect("run");
        assert_eq!(replayed.output, full.output);
        assert_eq!(replayed.stats, full.stats);
        assert_eq!(replayed.metrics.cycles, full.metrics.cycles);
        assert_eq!(replayed.warmup_cycles, full.warmup_cycles);
        assert_eq!(replayed.engine, RunEngine::Replay);
        assert_eq!(full.engine, RunEngine::FullSim);
    }

    #[test]
    fn replay_refuses_mismatched_requests() {
        let mut sys = paper_system();
        let (_, schedule) = sys.run_captured(&ramp(121), 1).expect("capture");
        assert!(matches!(
            schedule.replay(&MaxKernel, &ramp(121)),
            Err(ReplayUnsupported::KernelMismatch { .. })
        ));
        assert!(matches!(
            schedule.replay(&AverageKernel, &ramp(64)),
            Err(ReplayUnsupported::InputLength {
                expected: 121,
                actual: 64
            })
        ));
    }

    #[test]
    fn capture_refuses_ineligible_systems() {
        use smache_mem::{ChaosProfile, FaultPlan};
        // A *corrupting* plan refuses: the fault effect depends on data.
        let mut corrupting = SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
            .fault_plan(FaultPlan::new(3, ChaosProfile::flip(40)))
            .build()
            .expect("build");
        assert!(matches!(
            corrupting.run_captured(&ramp(121), 1),
            Err(CoreError::ReplayRefused(ReplayUnsupported::FaultPlan))
        ));

        let mut traced = paper_system();
        traced.attach_telemetry(smache_sim::TelemetryConfig::default());
        assert!(matches!(
            traced.run_captured(&ramp(121), 1),
            Err(CoreError::ReplayRefused(ReplayUnsupported::Telemetry))
        ));

        let mut stalled = paper_system();
        stalled.set_stall_schedule(Box::new(|c| c % 5 == 0));
        assert!(matches!(
            stalled.run_captured(&ramp(121), 1),
            Err(CoreError::ReplayRefused(ReplayUnsupported::StallSchedule))
        ));
    }

    /// The replay policy over engine × mode × {clean, corrupting chaos}:
    /// `Off` always runs the full simulation, `Auto` captures or falls back
    /// with the typed reason, `On` captures or refuses. Every report that
    /// comes back is the plain run's.
    #[test]
    fn capture_or_run_applies_one_policy_to_both_engines() {
        use crate::pipeline::{PipelineConfig, TemporalPipeline};
        use smache_mem::{ChaosProfile, FaultPlan};

        fn check<E>(
            engine: impl Fn() -> E,
            run: impl Fn(&mut E) -> CoreResult<RunReport>,
            capture: impl FnOnce(&mut E) -> CoreResult<(RunReport, Arc<ControlSchedule>)>,
            mode: ReplayMode,
            corrupting: bool,
            case: &str,
        ) {
            let plain = run(&mut engine()).expect("plain run").output;
            let outcome = mode.capture_or_run(&mut engine(), run, capture);
            match (mode, corrupting, outcome) {
                (ReplayMode::Off, _, Ok(CaptureOutcome::FullSim(r))) => {
                    assert_eq!(r.output, plain, "{case}");
                }
                (ReplayMode::Auto | ReplayMode::On, false, Ok(CaptureOutcome::Captured(r, s))) => {
                    assert_eq!(r.output, plain, "{case}");
                    assert_eq!(s.len(), plain.len(), "{case}");
                }
                (ReplayMode::Auto, true, Ok(CaptureOutcome::Fallback(r, why))) => {
                    assert_eq!(why, ReplayUnsupported::FaultPlan, "{case}");
                    assert_eq!(r.output, plain, "{case}");
                }
                (ReplayMode::On, true, Err(CoreError::ReplayRefused(why))) => {
                    assert_eq!(why, ReplayUnsupported::FaultPlan, "{case}");
                }
                (_, _, other) => panic!("{case}: unexpected {other:?}"),
            }
        }

        let input = ramp(121);
        for corrupting in [false, true] {
            // The flip targets a read this small run never reaches: the
            // plan is corrupting, so capture refuses, yet the full
            // simulation completes cleanly.
            let fault_plan = if corrupting {
                FaultPlan::new(3, ChaosProfile::flip(1 << 40))
            } else {
                FaultPlan::default()
            };
            for mode in [ReplayMode::Off, ReplayMode::Auto, ReplayMode::On] {
                let case = format!("{} corrupting={corrupting}", mode.label());
                check(
                    || {
                        SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
                            .fault_plan(fault_plan)
                            .build()
                            .expect("build")
                    },
                    |s: &mut SmacheSystem| s.run(&input, 2),
                    |s: &mut SmacheSystem| s.run_captured(&input, 2),
                    mode,
                    corrupting,
                    &format!("system {case}"),
                );
                check(
                    || {
                        let plan = SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
                            .plan()
                            .expect("plan");
                        let config = PipelineConfig {
                            depth: 2,
                            system: SystemConfig {
                                fault_plan,
                                ..SystemConfig::default()
                            },
                            ..PipelineConfig::default()
                        };
                        TemporalPipeline::new(plan, Box::new(AverageKernel), config)
                            .expect("pipeline")
                    },
                    |p: &mut TemporalPipeline| p.run(&input, 1),
                    |p: &mut TemporalPipeline| p.run_captured(&input, 1),
                    mode,
                    corrupting,
                    &format!("pipeline {case}"),
                );
            }
        }
    }

    #[test]
    fn latency_only_chaos_captures_and_replays_across_data_seeds() {
        use smache_mem::{ChaosProfile, FaultPlan};
        let chaotic = || {
            SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
                .fault_plan(FaultPlan::new(7, ChaosProfile::storms()))
                .build()
                .expect("build")
        };
        let mut sys = chaotic();
        let (report, schedule) = sys.run_captured(&ramp(121), 2).expect("capture");
        assert!(
            report.stats.stall_cycles > 0,
            "storms actually perturbed the captured run"
        );
        // Fresh data through the chaotic schedule vs a fresh chaotic run.
        let other: Vec<u64> = (0..121u64).map(|i| (i * 131 + 5) % 8192).collect();
        let replayed = schedule.replay(&AverageKernel, &other).expect("replay");
        let full = chaotic().run(&other, 2).expect("run");
        assert_eq!(replayed.output, full.output);
        assert_eq!(replayed.stats, full.stats);
        assert_eq!(replayed.metrics.faults, full.metrics.faults);
    }

    #[test]
    fn chaos_seed_and_profile_are_part_of_the_key_only_when_active() {
        use smache_mem::{ChaosProfile, FaultPlan};
        let with_plan = |plan: FaultPlan| {
            SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
                .fault_plan(plan)
                .build()
                .expect("build")
        };
        let clean = paper_system();
        let clean_key = schedule_key(clean.plan(), clean.config(), &AverageKernel, 4);
        // Inactive plans (any seed) key identically to no plan at all — the
        // key *text* is byte-identical, so on-disk schedules stay valid.
        let idle = with_plan(FaultPlan::new(99, ChaosProfile::none()));
        assert_eq!(
            schedule_key_text(clean.plan(), clean.config(), &AverageKernel, 4),
            schedule_key_text(idle.plan(), idle.config(), &AverageKernel, 4),
        );
        // An active plan forks the key, per chaos seed and per profile.
        let a = with_plan(FaultPlan::new(7, ChaosProfile::storms()));
        let key_a = schedule_key(a.plan(), a.config(), &AverageKernel, 4);
        assert_ne!(key_a, clean_key);
        let b = with_plan(FaultPlan::new(8, ChaosProfile::storms()));
        assert_ne!(
            key_a,
            schedule_key(b.plan(), b.config(), &AverageKernel, 4),
            "chaos seed is part of the key"
        );
        let c = with_plan(FaultPlan::new(7, ChaosProfile::jitter()));
        assert_ne!(
            key_a,
            schedule_key(c.plan(), c.config(), &AverageKernel, 4),
            "chaos profile is part of the key"
        );
    }

    #[test]
    fn lane_batched_replay_matches_per_lane_replay() {
        let mut sys = paper_system();
        let (_, schedule) = sys.run_captured(&ramp(121), 2).expect("capture");
        let inputs: Vec<Vec<u64>> = (0..5u64)
            .map(|s| (0..121u64).map(|i| (i * 97 + 13 * s) % 4096).collect())
            .collect();
        let views: Vec<&[u64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let batched = schedule
            .replay_lanes(&AverageKernel, &views)
            .expect("lanes");
        assert_eq!(batched.len(), 5);
        for (lane, input) in batched.iter().zip(&inputs) {
            let single = schedule.replay(&AverageKernel, input).expect("replay");
            assert_eq!(lane.output, single.output);
            assert_eq!(lane.stats, single.stats);
            assert_eq!(lane.engine, RunEngine::Replay);
        }
        assert!(schedule
            .replay_lanes(&AverageKernel, &[])
            .expect("empty")
            .is_empty());
        assert!(matches!(
            schedule.replay_lanes(&MaxKernel, &views),
            Err(ReplayUnsupported::KernelMismatch { .. })
        ));
        assert!(matches!(
            schedule.replay_lanes(&AverageKernel, &[&[0u64; 64][..]]),
            Err(ReplayUnsupported::InputLength {
                expected: 121,
                actual: 64
            })
        ));
    }

    #[test]
    fn schedule_keys_are_seed_independent_and_spec_sensitive() {
        let a = paper_system();
        let b = paper_system();
        let key_a = schedule_key(a.plan(), a.config(), &AverageKernel, 4);
        let key_b = schedule_key(b.plan(), b.config(), &AverageKernel, 4);
        assert_eq!(key_a, key_b, "same spec, same key — no seed involved");
        assert_ne!(
            key_a,
            schedule_key(a.plan(), a.config(), &AverageKernel, 5),
            "instances are part of the key"
        );
        assert_ne!(
            key_a,
            schedule_key(a.plan(), a.config(), &MaxKernel, 4),
            "kernel is part of the key"
        );
    }

    #[test]
    fn gather_table_covers_every_element() {
        let sys = paper_system();
        let table = build_gather_table(sys.plan()).expect("gather");
        assert_eq!(table.len(), 121);
        // Interior element: four grid sources, full mask.
        assert_eq!(table.slots(60).len(), 4);
        assert_eq!(table.masks[60], 0b1111);
        assert_eq!(
            table.slots(60),
            &[
                SlotSource::Grid(49),
                SlotSource::Grid(59),
                SlotSource::Grid(61),
                SlotSource::Grid(71),
            ]
        );
        // NW corner: west point is a hole, north wraps to the bottom row.
        assert_eq!(table.masks[0], 0b1101);
        assert_eq!(table.slots(0)[0], SlotSource::Grid(110));
        assert_eq!(table.slots(0)[1], SlotSource::Hole);
    }
}
