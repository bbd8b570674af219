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
//!    [`ControlSchedule`] — the run-length [`ControlTrace`], the gather
//!    pattern in run form ([`GatherRuns`]: per run of elements that share
//!    a stencil case, its first element, row and mask), and the run's
//!    data-independent report template.
//! 2. **Replay** ([`ControlSchedule::replay_lanes`], one lane in
//!    [`ControlSchedule::replay`]): for each work-instance, every output
//!    element is the kernel applied to its gathered slots — indexed grid
//!    reads resolved at capture time, one kernel call per run of elements
//!    that share a stencil case, no delta settling, no module dispatch.
//!    Outputs and cycle counts are **bit-exact** versus the full
//!    simulation; capture verifies this on its own input before handing
//!    the schedule out ([`ReplayUnsupported::ScheduleDivergence`]
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
//! stall schedules, or attached observers (telemetry, result tap).
//! **Latency-only** fault plans are the deliberate exception: their chaos
//! draws are a pure function of (chaos-seed, cycle), so a schedule
//! captured under one — keyed on (spec, chaos-seed) — replays across data
//! seeds like any clean schedule.
//!
//! The one cycle engine — single-step or pipelined — seals and
//! self-verifies its captures through one function, and
//! [`ReplayMode::capture_or_run`] is the one fallback policy every front
//! end uses: `auto` falls back to the full simulation on a refusal, `on`
//! surfaces it as [`CoreError::ReplayRefused`].
//!
//! Schedules are keyed by [`fingerprint128`] of a canonical, data-seed-
//! independent rendering of the spec ([`schedule_key`]) and cached:
//! [`SmacheSystem::run_batch`](crate::system::SmacheSystem::run_batch)
//! captures once per distinct key and replays the other lanes — grouped
//! into lane blocks driven by [`ControlSchedule::replay_lanes`] — and
//! `smache serve` keeps a second-level schedule cache behind its result
//! cache. See `docs/PERFORMANCE.md` §6 for measured speedups.

use std::sync::Arc;

use smache_mem::Word;
use smache_sim::hash::fingerprint128;
use smache_sim::{ControlTrace, GatherRuns, GatherTable, ReplayUnsupported};

use crate::arch::kernel::Kernel;
use crate::config::BufferPlan;
use crate::error::CoreError;
use crate::pipeline::PipelineConfig;
use crate::system::report::{RunEngine, RunReport};
use crate::system::smache_system::SmacheSystem;
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
///
/// `passes` counts what [`SmacheSystem::run`] takes; the text names the
/// `depth × passes` timesteps the schedule carries. A pipeline appends its
/// geometry (`;pipeline=depth:channels:interleave:cmd_gap`); the single
/// step appends nothing, so its keys stay byte-identical to those already
/// on disk.
pub fn schedule_key_text(
    plan: &BufferPlan,
    config: &PipelineConfig,
    kernel: &dyn Kernel,
    passes: u64,
) -> String {
    let system = &config.system;
    // `Debug` renderings are deterministic for these plain-data types. An
    // inactive fault plan (any seed) does not touch the control plane, so
    // it contributes nothing — keeping the inactive-plan key text
    // byte-identical to pre-chaos-replay schedules already on disk.
    let mut text = format!(
        "sched-v1;plan={:?};dram={:?};resp_high_water={};watchdog={};double_buffering={};kernel={}:{};instances={}",
        plan,
        system.dram,
        system.resp_high_water,
        system.watchdog_cycles_per_element,
        system.double_buffering,
        kernel.name(),
        kernel.latency(),
        config.depth as u64 * passes,
    );
    if system.fault_plan.is_active() {
        text.push_str(&format!(
            ";chaos={}:{:?}",
            system.fault_plan.seed, system.fault_plan.profile
        ));
    }
    if !config.single_step() {
        text.push_str(&format!(
            ";pipeline={}:{}:{}:{}",
            config.depth, config.channels, config.interleave_words, config.cmd_gap
        ));
    }
    text
}

/// The 128-bit content address of a control schedule
/// ([`fingerprint128`] of [`schedule_key_text`]).
pub fn schedule_key(
    plan: &BufferPlan,
    config: &PipelineConfig,
    kernel: &dyn Kernel,
    passes: u64,
) -> (u64, u64) {
    fingerprint128(schedule_key_text(plan, config, kernel, passes).as_bytes())
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
    /// The gather pattern in run form, cut from the engine's rows.
    gather: GatherRuns,
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
        gather: GatherRuns,
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

    /// The gather pattern in run form.
    pub fn gather(&self) -> &GatherRuns {
        &self.gather
    }

    /// Approximate heap footprint in bytes, for cache budgeting: what the
    /// schedule holds, the run-form gather and the run-length trace.
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
    /// capture time). One lane of [`ControlSchedule::replay_lanes`].
    ///
    /// Refuses with a typed reason when the request does not match the
    /// captured spec (kernel, grid size, instance count).
    pub fn replay(
        &self,
        kernel: &dyn Kernel,
        input: &[Word],
    ) -> Result<RunReport, ReplayUnsupported> {
        let mut reports = self.replay_lanes(kernel, &[input])?;
        Ok(reports.pop().expect("one report per lane"))
    }

    /// Replays the schedule over every lane's input at once
    /// ([`GatherRuns::replay`]): one [`Kernel::apply_lanes`] call per run
    /// of the gather pattern, whose tuples are the run's (element, lane)
    /// pairs. Per lane the result is bit-exact with the full simulation.
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
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let outputs = self
            .gather
            .replay(inputs, self.instances, |slots, mask, out| {
                kernel.apply_lanes(slots, mask, out)
            });
        Ok(outputs
            .into_iter()
            .map(|output| {
                let mut report = self.template.clone();
                report.output = output;
                report.engine = RunEngine::Replay;
                report
            })
            .collect())
    }
}

/// Seals a recording run into a [`ControlSchedule`]: the one sealing path
/// every capturing engine goes through.
///
/// `gather` is the engine's lowered gather rows, of which the schedule
/// keeps the run form, `trace` the control trace recorded while the
/// engine ran `input`, `report` that run's report, and `instances` the
/// timesteps the schedule must replay. Before the schedule is handed out, sealing checks that
/// the trace totals reproduce the run's cycle accounting, clears the
/// template's data, and replays the capture input through the fresh
/// schedule, demanding bit-exactness. Any mismatch surfaces as
/// [`CoreError::ReplayRefused`]`(`[`ReplayUnsupported::ScheduleDivergence`]`)`
/// — a loud, typed failure instead of a silently wrong schedule.
pub(crate) fn seal_capture(
    key: (u64, u64),
    gather: &GatherTable,
    kernel: &dyn Kernel,
    instances: u64,
    mut trace: ControlTrace,
    mut report: RunReport,
    input: &[Word],
) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
    // The trace grew a pair at a time; a cached schedule keeps only its
    // pairs.
    trace.shrink_to_fit();
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

    let output = std::mem::take(&mut report.output);
    let template = report.clone();
    report.output = output;
    let schedule = ControlSchedule {
        key,
        n: gather.len(),
        instances,
        kernel_name: kernel.name().to_string(),
        kernel_latency: kernel.latency(),
        gather: gather.to_runs(),
        trace,
        template,
    };

    // Replay the capture input through the fresh schedule and demand
    // bit-exactness before anyone else trusts it: the run loop calls the
    // kernel's `apply_lanes`, a fast path with the full simulation as its
    // oracle, just like `apply`.
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
    /// Runs `engine` over `input` for `passes` passes under this mode —
    /// the single place the replay fallback policy is written, for every
    /// front end.
    ///
    /// * `Off` runs the plain full simulation.
    /// * `Auto` captures; on a typed [`CoreError::ReplayRefused`] it runs
    ///   the plain full simulation on the same engine instead.
    /// * `On` captures and returns a refusal as the error.
    ///
    /// Any other error is returned unchanged in every mode.
    pub fn capture_or_run(
        self,
        engine: &mut SmacheSystem,
        input: &[Word],
        passes: u64,
    ) -> CoreResult<CaptureOutcome> {
        if self == ReplayMode::Off {
            return engine.run(input, passes).map(CaptureOutcome::FullSim);
        }
        match engine.run_captured(input, passes) {
            Ok((report, schedule)) => Ok(CaptureOutcome::Captured(report, schedule)),
            Err(CoreError::ReplayRefused(why)) if self == ReplayMode::Auto => {
                Ok(CaptureOutcome::Fallback(engine.run(input, passes)?, why))
            }
            Err(e) => Err(e),
        }
    }
}

impl SmacheSystem {
    /// The canonical key text of a schedule captured from this system for
    /// `passes` passes: [`schedule_key_text`] of its plan, geometry and
    /// kernel.
    pub fn schedule_key_text(&self, passes: u64) -> String {
        schedule_key_text(self.plan(), self.pipeline_config(), self.kernel(), passes)
    }

    /// Runs the full cycle-accurate simulation *once* with the control
    /// recorder attached and returns both the run's report and the
    /// captured [`ControlSchedule`] for `depth × passes` timesteps, sealed
    /// and self-verified (see [`ReplayUnsupported::ScheduleDivergence`]).
    /// A pipelined schedule replays through the same single-step
    /// machinery ([`ControlSchedule::replay`] / `replay_lanes`).
    ///
    /// Refuses (typed) when the system is not replay-eligible — see
    /// [`SmacheSystem::replay_eligibility`].
    pub fn run_captured(
        &mut self,
        input: &[Word],
        passes: u64,
    ) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
        let key = fingerprint128(self.schedule_key_text(passes).as_bytes());
        self.run_captured_keyed(input, passes, key)
    }

    /// [`Self::run_captured`] with the schedule key already derived: `key`
    /// is the [`fingerprint128`] of [`Self::schedule_key_text`] for
    /// `passes`. A batch keys each spec once while grouping its lanes and
    /// hands that key on, so the key text is formatted once per spec.
    pub(crate) fn run_captured_keyed(
        &mut self,
        input: &[Word],
        passes: u64,
        key: (u64, u64),
    ) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
        self.replay_eligibility()
            .map_err(CoreError::ReplayRefused)?;
        self.begin_capture();
        let outcome = self.run(input, passes);
        let trace = self.take_capture().unwrap_or_default();
        seal_capture(
            key,
            self.source_rows().gather(),
            self.kernel(),
            self.depth() as u64 * passes,
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
    use crate::config::SourceRef;
    use crate::system::SystemConfig;
    use smache_sim::SlotSource;
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

    /// Sealing holds `apply_lanes` to the full simulation: a kernel whose
    /// lane entry point disagrees with its per-tuple one refuses to
    /// capture.
    #[test]
    fn seal_refuses_a_kernel_whose_lanes_disagree() {
        struct SkewedLanes;
        impl Kernel for SkewedLanes {
            fn name(&self) -> &str {
                "skewed"
            }
            fn apply(&self, values: &[Word], mask: u64) -> Word {
                AverageKernel.apply(values, mask)
            }
            fn apply_lanes(&self, slots: &[&[Word]], mask: u64, out: &mut [Word]) {
                AverageKernel.apply_lanes(slots, mask, out);
                out[0] ^= 1;
            }
            fn resources(&self) -> smache_sim::ResourceUsage {
                AverageKernel.resources()
            }
        }
        let mut sys = SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
            .kernel(Box::new(SkewedLanes))
            .build()
            .expect("build");
        match sys.run_captured(&ramp(121), 2) {
            Err(CoreError::ReplayRefused(ReplayUnsupported::ScheduleDivergence { detail })) => {
                assert!(
                    detail.starts_with("self-replay output mismatch"),
                    "{detail}"
                );
            }
            other => panic!("expected a divergence refusal, got {other:?}"),
        }
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

    /// The replay policy over engine geometry × mode × {clean, corrupting chaos}:
    /// `Off` always runs the full simulation, `Auto` captures or falls back
    /// with the typed reason, `On` captures or refuses. Every report that
    /// comes back is the plain run's.
    #[test]
    fn capture_or_run_applies_one_policy_to_both_engines() {
        use crate::pipeline::PipelineConfig;
        use smache_mem::{ChaosProfile, FaultPlan};

        let input = ramp(121);
        let plan = SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
            .plan()
            .expect("plan");
        for corrupting in [false, true] {
            // The flip targets a read this small run never reaches: the
            // plan is corrupting, so capture refuses, yet the full
            // simulation completes cleanly.
            let fault_plan = if corrupting {
                FaultPlan::new(3, ChaosProfile::flip(1 << 40))
            } else {
                FaultPlan::default()
            };
            // Two single-step instances, or one pass of a 2-stage pipeline.
            for (depth, passes) in [(1usize, 2u64), (2, 1)] {
                let engine = || {
                    let config = PipelineConfig {
                        depth,
                        system: SystemConfig {
                            fault_plan,
                            ..SystemConfig::default()
                        },
                        ..PipelineConfig::default()
                    };
                    SmacheSystem::new(plan.clone(), Box::new(AverageKernel), config)
                        .expect("engine")
                };
                let plain = engine().run(&input, passes).expect("plain run").output;
                for mode in [ReplayMode::Off, ReplayMode::Auto, ReplayMode::On] {
                    let case = format!("depth {depth} {} corrupting={corrupting}", mode.label());
                    match (
                        mode,
                        corrupting,
                        mode.capture_or_run(&mut engine(), &input, passes),
                    ) {
                        (ReplayMode::Off, _, Ok(CaptureOutcome::FullSim(r))) => {
                            assert_eq!(r.output, plain, "{case}");
                        }
                        (
                            ReplayMode::Auto | ReplayMode::On,
                            false,
                            Ok(CaptureOutcome::Captured(r, s)),
                        ) => {
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
        let clean_key = schedule_key(clean.plan(), clean.pipeline_config(), &AverageKernel, 4);
        // Inactive plans (any seed) key identically to no plan at all — the
        // key *text* is byte-identical, so on-disk schedules stay valid.
        let idle = with_plan(FaultPlan::new(99, ChaosProfile::none()));
        assert_eq!(
            schedule_key_text(clean.plan(), clean.pipeline_config(), &AverageKernel, 4),
            schedule_key_text(idle.plan(), idle.pipeline_config(), &AverageKernel, 4),
        );
        // An active plan forks the key, per chaos seed and per profile.
        let a = with_plan(FaultPlan::new(7, ChaosProfile::storms()));
        let key_a = schedule_key(a.plan(), a.pipeline_config(), &AverageKernel, 4);
        assert_ne!(key_a, clean_key);
        let b = with_plan(FaultPlan::new(8, ChaosProfile::storms()));
        assert_ne!(
            key_a,
            schedule_key(b.plan(), b.pipeline_config(), &AverageKernel, 4),
            "chaos seed is part of the key"
        );
        let c = with_plan(FaultPlan::new(7, ChaosProfile::jitter()));
        assert_ne!(
            key_a,
            schedule_key(c.plan(), c.pipeline_config(), &AverageKernel, 4),
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
            let full = paper_system().run(input, 2).expect("run");
            assert_eq!(lane.output, full.output);
            assert_eq!(lane.stats, full.stats);
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
        let key_a = schedule_key(a.plan(), a.pipeline_config(), &AverageKernel, 4);
        let key_b = schedule_key(b.plan(), b.pipeline_config(), &AverageKernel, 4);
        assert_eq!(key_a, key_b, "same spec, same key — no seed involved");
        assert_ne!(
            key_a,
            schedule_key(a.plan(), a.pipeline_config(), &AverageKernel, 5),
            "instances are part of the key"
        );
        assert_ne!(
            key_a,
            schedule_key(a.plan(), a.pipeline_config(), &MaxKernel, 4),
            "kernel is part of the key"
        );
    }

    #[test]
    fn gather_table_covers_every_element() {
        let sys = paper_system();
        let table = sys.source_rows().gather();
        assert_eq!(table.len(), 121);
        // Interior element: four grid sources, full mask.
        assert_eq!(table.arity(), 4);
        assert_eq!(table.row(60).1, 0b1111);
        assert_eq!(
            table.slots(60).collect::<Vec<_>>(),
            [
                SlotSource::Grid(49),
                SlotSource::Grid(59),
                SlotSource::Grid(61),
                SlotSource::Grid(71),
            ]
        );
        // NW corner: west point is a hole, north wraps to the bottom row.
        assert_eq!(table.row(0).1, 0b1101);
        assert_eq!(table.source(0, 0), SlotSource::Grid(110));
        assert_eq!(table.source(0, 1), SlotSource::Hole);
    }

    /// The gather table as sealing derived it per element before the
    /// engine lowered it once: [`BufferPlan::sources_for`] for every
    /// element, each source mapped to the grid index it reads.
    fn per_element_gather_table(plan: &BufferPlan) -> GatherTable {
        let (n, arity) = (plan.grid.len(), plan.shape.len());
        let mut rows = GatherTable::builder(n, arity).expect("arity");
        let mut masks = Vec::with_capacity(n);
        let mut srcs = Vec::new();
        for e in 0..n {
            plan.sources_for(e, &mut srcs).expect("sources");
            let mut mask = 0u64;
            for (p, src) in srcs.iter().enumerate() {
                let slot = match *src {
                    None => SlotSource::Hole,
                    Some(SourceRef::Constant(v)) => SlotSource::Const(v),
                    Some(SourceRef::Tap { pos }) => {
                        let offset = plan.lookahead as i64 + 1 - pos as i64;
                        SlotSource::Grid((e as i64 + offset) as u32)
                    }
                    Some(SourceRef::Static { buffer, slot, .. }) => {
                        SlotSource::Grid((plan.static_buffers[buffer].region_start + slot) as u32)
                    }
                };
                if src.is_some() {
                    mask |= 1 << p;
                }
                rows.push(slot).expect("slot");
            }
            masks.push(mask);
        }
        rows.finish(masks).expect("table")
    }

    #[test]
    fn lowered_table_equals_the_per_element_derivation() {
        use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, StencilShape};
        let uniform = |b: Boundary| BoundarySpec::new(&[AxisBoundaries::both(b); 2]).expect("2D");
        let shapes = [
            StencilShape::four_point_2d(),
            StencilShape::nine_point_2d(),
            StencilShape::cross_2d(3).expect("cross"),
        ];
        let mut compared = 0;
        for shape in shapes {
            for bounds in [
                BoundarySpec::paper_case(),
                BoundarySpec::all_open(2).expect("open"),
                BoundarySpec::all_circular(2).expect("torus"),
                uniform(Boundary::Mirror),
                uniform(Boundary::Constant(5)),
            ] {
                for dedupe in [false, true] {
                    // Region dedupe can fold three reads of one element
                    // onto one buffer, which no engine builds.
                    let Ok(sys) = SmacheBuilder::new(GridSpec::d2(9, 12).expect("grid"))
                        .shape(shape.clone())
                        .boundaries(bounds.clone())
                        .dedupe_static_regions(dedupe)
                        .build()
                    else {
                        continue;
                    };
                    compared += 1;
                    assert_eq!(
                        **sys.source_rows().gather(),
                        per_element_gather_table(sys.plan()),
                        "{shape:?} {bounds:?} dedupe={dedupe}"
                    );
                }
            }
        }
        assert!(compared >= 20, "only {compared} engines built");
    }
}
