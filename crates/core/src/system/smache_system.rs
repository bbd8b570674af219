//! The complete cycle-accurate Smache system:
//! DRAM → Smache module(s) → kernel pipeline → DRAM.
//!
//! One instance of this struct is the simulated analogue of the paper's
//! Fig. 1(b) block diagram plus its testbench: the off-chip DRAM holds the
//! grid in two ping-pong regions; a read engine streams the input region
//! one word per cycle into the Smache module; FSM-2 emits one stencil
//! tuple per cycle to the kernel; the kernel's pipelined results are
//! written back to the output region while FSM-3 write-through-captures
//! the static-buffer rows; regions and static banks swap every
//! work-instance.
//!
//! The same engine chains `depth` such modules for temporal blocking (see
//! [`crate::pipeline`]): stage `t + 1` streams stage `t`'s results through
//! an on-chip [`StageLink`] and only the last stage writes back, so one
//! DRAM pass advances the grid `depth` timesteps. The paper's system is
//! the one-stage, one-channel case ([`PipelineConfig::single_step`]).
//!
//! The DRAM bus width `dram.bus_words = P` is the engine's lane count
//! (ref \[5\]'s spatial parallelism): each cycle stage 0 reads one
//! `P`-word beat, its module shifts in and emits up to `P` elements, and
//! write-back stores one `P`-word beat. The last beat of a grid
//! over-fetches up to `P − 1` pad words: they count as DRAM traffic and
//! are discarded at the instance boundary. At `P = 1` every step is the
//! single-word step; a wider bus needs one stage over one channel.

use std::collections::VecDeque;
use std::sync::Arc;

use smache_mem::{DramConfig, FaultPlan, FaultyFifo, MultiChannelConfig, MultiChannelDram};
use smache_mem::{StormGen, Word, MAX_BEAT_WORDS};
use smache_sim::telemetry::{ProbeKind, Probed, Telemetry, TelemetryConfig, TelemetrySnapshot};
use smache_sim::{Beat, CycleStats, ResourceUsage};

use crate::arch::controller::{phase_code, ControllerPhase, SmacheModule, SmacheResourceBreakdown};
use crate::arch::kernel::Kernel;
use crate::arch::source_rows::SourceRows;
use crate::config::BufferPlan;
use crate::cost::FreqModel;
use crate::error::{CoreError, FaultDiagnostic};
use crate::pipeline::{PipelineConfig, StageLink, PIPE_STALL_COMPONENT};
use crate::system::metrics::DesignMetrics;
use crate::CoreResult;

pub use crate::system::report::RunReport;

/// Component name the single-step stall-storm generator reports under.
pub const STALL_COMPONENT: &str = "sys.stall";

/// Tunables of the simulated system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// DRAM timing/geometry.
    pub dram: DramConfig,
    /// Skid-buffer depth between DRAM responses and the stream shift; the
    /// read engine pauses issuing above this level (absorbs stalls).
    pub resp_high_water: usize,
    /// Watchdog: maximum cycles per element per instance before the run is
    /// declared hung.
    pub watchdog_cycles_per_element: u64,
    /// Transparent double buffering of the static buffers (the paper's
    /// architecture). With `false`, every instance boundary returns to the
    /// FSM-1 warm-up and re-prefetches the static buffers from DRAM — the
    /// design double buffering makes unnecessary (ablation).
    pub double_buffering: bool,
    /// Seeded fault-injection schedule (inactive by default). Latency-only
    /// faults are absorbed; data faults surface as
    /// [`CoreError::FaultDetected`].
    pub fault_plan: FaultPlan,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            dram: DramConfig::default(),
            resp_high_water: 8,
            watchdog_cycles_per_element: 64,
            double_buffering: true,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Everything that differs between the paper's single-step system and a
/// pipeline besides the datapath, decided once at construction by
/// [`PipelineConfig::single_step`] (`docs/PIPELINE.md` §3).
struct Geometry {
    /// Static buffers double-buffer across instance boundaries.
    double_buffering: bool,
    /// Component the stall-storm chaos generator reports under.
    storm: &'static str,
    /// Handshake probes, in the order stall, emit, read accept, response,
    /// write accept.
    handshakes: [&'static str; 5],
    /// [`DesignMetrics::name`] of every run.
    metric_name: String,
    /// The single-step telemetry view: FSM residency counters, one
    /// `stall.dram_starved` counter, and probes on stage 0's module and
    /// the one DRAM device (whose release queue is the in-flight count).
    /// Otherwise starvation is pinned per channel, DRAM counters are also
    /// reported per channel, and the multi-channel port is probed.
    device_view: bool,
}

impl Geometry {
    fn new(config: &PipelineConfig, plan: &BufferPlan) -> Self {
        let lanes = config.system.dram.bus_words;
        if config.single_step() {
            Geometry {
                double_buffering: config.system.double_buffering,
                storm: STALL_COMPONENT,
                handshakes: [
                    "sys.stall",
                    "fsm2.emit",
                    "axi.read_accept",
                    "axi.resp",
                    "axi.write_accept",
                ],
                metric_name: if lanes == 1 {
                    format!("Smache-{}", plan.hybrid.label())
                } else {
                    format!("Smache-x{lanes}")
                },
                device_view: true,
            }
        } else {
            Geometry {
                double_buffering: false,
                storm: PIPE_STALL_COMPONENT,
                handshakes: [
                    "pipe.stall",
                    "pipe.emit",
                    "pipe.read_accept",
                    "pipe.resp",
                    "pipe.write_accept",
                ],
                metric_name: format!("Smache-pipe{}x{}", config.depth, config.channels),
                device_view: false,
            }
        }
    }
}

/// Human-readable FSM provenance for fault diagnostics.
fn phase_name(phase: ControllerPhase) -> &'static str {
    match phase {
        ControllerPhase::Warmup => "FSM-1 warm-up",
        ControllerPhase::Streaming => "FSM-2/3 streaming",
        ControllerPhase::Done => "done",
    }
}

/// What stage 0 staged on the DRAM read channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadKind {
    None,
    Prefetch,
    Stream,
}

/// What happened in one cycle, handed to the telemetry sampler.
#[derive(Debug, Clone, Copy, Default)]
struct CycleFacts {
    stalled: bool,
    external_stall: bool,
    chaos_stall: bool,
    sched_stall: bool,
    /// Stage 0 wanted a DRAM word that had not arrived.
    starved_dram: bool,
    /// A later stage wanted a word its upstream link had not produced.
    starved_link: bool,
    /// The last stage emitted a tuple.
    emitted: bool,
    read_accepted: bool,
    responded: bool,
    write_accepted: bool,
}

/// The simulated system: one or more chained Smache stages over DRAM.
pub struct SmacheSystem {
    stages: Vec<SmacheModule>,
    kernel: Box<dyn Kernel>,
    config: PipelineConfig,
    geometry: Geometry,
    dram: MultiChannelDram,
    n: usize,
    base: [usize; 2],
    /// Region index the current instance reads from.
    in_region: usize,

    // Stage-0 DRAM read engine.
    prefetch_issue: usize,
    prefetch_resp_remaining: usize,
    read_ptr: usize,
    issued_kind: ReadKind,
    resp_queue: FaultyFifo,
    /// Chaos stall-storm generator (present only with an active plan).
    storm: Option<StormGen>,

    // Inter-stage plumbing: links[t] carries stage t's output into stage
    // t+1; link_prefetch_issue[t] is stage t+1's warm-up progress into it.
    links: Vec<StageLink>,
    link_prefetch_issue: Vec<usize>,
    /// Per-stage kernel pipelines: (remaining latency, element, result).
    pipes: Vec<VecDeque<(u64, usize, Word)>>,

    /// Elements per cycle: the DRAM bus width in words.
    lanes: usize,
    write_queue: VecDeque<(usize, Word)>,
    /// The words of the write beat staged this cycle.
    write_beat: Vec<Word>,
    writes_done: usize,
    passes_left: u64,
    /// Passes requested by the last [`arm`](Self::arm) — selects the
    /// output region once the run drains.
    armed_passes: u64,
    cycle: u64,
    warmup_cycles: u64,
    /// Cycles the datapath was frozen (external stall, schedule, or storm).
    stall_cycles: u64,
    /// Last-stage kernel results emitted (one per element per pass).
    transfer_count: u64,
    stall: Option<Box<dyn FnMut(u64) -> bool>>,
    /// Observer invoked for every last-stage kernel result (the AXI output
    /// stream).
    result_tap: Option<Box<dyn FnMut(Beat)>>,
    /// Optional structured telemetry (typed probes + profiling counters).
    /// `None` costs one branch per cycle; see `docs/OBSERVABILITY.md`.
    telemetry: Option<Box<Telemetry>>,
    /// The most recent cycle's handshake/stall facts, kept so an external
    /// probe registry (e.g. a [`smache_sim::Simulator`] sampling an
    /// [`AxiSmache`](crate::system::axi::AxiSmache)) can read them through
    /// [`Probed::sample_probes`].
    facts: CycleFacts,
    scratch_values: Vec<Word>,
    /// Control-plane recorder for schedule capture (see
    /// [`crate::system::replay`]). `None` costs one branch per cycle.
    recorder: Option<smache_sim::ControlTrace>,
}

impl SmacheSystem {
    /// Refuses a geometry the engine cannot run `plan` at, with the error
    /// [`SmacheSystem::new`] gives: a zero depth, channel count, interleave
    /// or command gap, more lanes than a beat carries, a wide bus under a
    /// pipeline, several channels or an active fault plan,
    /// region-deduplicated static buffers, or more lanes than the two BRAM
    /// ports of a static buffer serve.
    pub fn check_geometry(plan: &BufferPlan, config: &PipelineConfig) -> CoreResult<()> {
        let geometry = [config.depth, config.channels, config.interleave_words];
        if geometry.contains(&0) || config.cmd_gap == 0 {
            return Err(CoreError::Config(
                "pipeline depth, channels, interleave_words and cmd_gap must be >= 1".into(),
            ));
        }
        let lanes = config.system.dram.bus_words;
        if lanes == 0 || lanes > MAX_BEAT_WORDS {
            return Err(CoreError::LaneCountUnsupported {
                lanes,
                max: MAX_BEAT_WORDS,
            });
        }
        if lanes > 1 {
            if config.depth > 1 || config.channels > 1 {
                return Err(CoreError::Config(format!(
                    "a {lanes}-word DRAM bus needs one stage over one channel"
                )));
            }
            // Wide beats bypass the chaos release queue.
            if config.system.fault_plan.is_active() {
                return Err(CoreError::ChaosUnsupported {
                    system: "multilane",
                });
            }
            if plan.statics_are_regions {
                return Err(CoreError::Config(
                    "multi-lane requires per-offset static buffers (no region dedupe)".into(),
                ));
            }
            if !plan.static_buffers.is_empty() && lanes > 2 {
                return Err(CoreError::Config(
                    "static buffers expose two BRAM ports: more than two lanes \
                     would need P-way slot banking (not implemented)"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    /// Builds the system around a plan and a kernel. A [`SystemConfig`]
    /// builds the paper's single-step system; a [`PipelineConfig`] chains
    /// `depth` stages over `channels` DRAM channels. Every stage executes
    /// the same plan and kernel — the pipeline *is* the same timestep
    /// applied `depth` times per pass. A `P`-word DRAM bus runs `P` lanes
    /// (see the module docs).
    pub fn new(
        plan: BufferPlan,
        kernel: Box<dyn Kernel>,
        config: impl Into<PipelineConfig>,
    ) -> CoreResult<Self> {
        let config = config.into();
        Self::check_geometry(&plan, &config)?;
        let fault_plan = config.system.fault_plan;
        let lanes = config.system.dram.bus_words;
        if kernel.latency() == 0 {
            return Err(CoreError::KernelLatencyZero);
        }
        let geometry = Geometry::new(&config, &plan);
        let n = plan.grid.len();
        // Ping-pong regions aligned to DRAM rows so reads and writes of one
        // instance live in distinct rows; each holds the grid plus the pad
        // words the last beat over-fetches.
        let row = config.system.dram.row_words;
        let region = (n + lanes - 1).div_ceil(row) * row;
        let dram = MultiChannelDram::new(
            2 * region + row,
            MultiChannelConfig {
                channel: config.system.dram,
                channels: config.channels,
                interleave_words: config.interleave_words,
                cmd_gap: config.cmd_gap,
            },
            fault_plan,
        )?;
        let storm = (fault_plan.is_active() && fault_plan.profile.stall_storm_prob > 0.0)
            .then(|| StormGen::new(fault_plan, geometry.storm));
        // The plan's sources are lowered once and shared by every stage
        // (and by any schedule this engine seals).
        let rows = Arc::new(SourceRows::lower(&plan)?);
        let stages = (0..config.depth)
            .map(|_| SmacheModule::new(plan.clone(), lanes, Arc::clone(&rows)))
            .collect::<CoreResult<Vec<_>>>()?;
        Ok(SmacheSystem {
            stages,
            kernel,
            geometry,
            dram,
            n,
            base: [0, region],
            in_region: 0,
            prefetch_issue: 0,
            prefetch_resp_remaining: 0,
            read_ptr: 0,
            issued_kind: ReadKind::None,
            resp_queue: FaultyFifo::new(fault_plan),
            storm,
            links: (1..config.depth).map(|_| StageLink::new(n)).collect(),
            link_prefetch_issue: vec![0; config.depth - 1],
            pipes: (0..config.depth).map(|_| VecDeque::new()).collect(),
            lanes,
            write_queue: VecDeque::new(),
            write_beat: Vec::with_capacity(lanes),
            writes_done: 0,
            passes_left: 0,
            armed_passes: 0,
            cycle: 0,
            warmup_cycles: 0,
            stall_cycles: 0,
            transfer_count: 0,
            config,
            stall: None,
            result_tap: None,
            telemetry: None,
            facts: CycleFacts::default(),
            scratch_values: Vec::new(),
            recorder: None,
        })
    }

    /// The plan every stage executes.
    pub fn plan(&self) -> &BufferPlan {
        self.stages[0].plan()
    }

    /// The plan's lowered sources, shared by every stage.
    pub fn source_rows(&self) -> &Arc<SourceRows> {
        self.stages[0].rows()
    }

    /// The per-stage system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config.system
    }

    /// The full configuration, pipeline geometry included.
    pub fn pipeline_config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The kernel driving the datapath.
    pub(crate) fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// Number of chained stages (timesteps per pass).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Checks whether this system's control plane is a pure function of
    /// the spec, i.e. whether a control schedule captured from it would be
    /// sound to replay. Anything that perturbs timing data-dependently or
    /// observes the datapath mid-run (corrupting fault injection, stall
    /// schedules, telemetry, result taps) makes the answer "no",
    /// with a typed reason.
    ///
    /// A **latency-only** fault plan (jitter, stall storms, slow drain —
    /// see [`smache_mem::FaultPlan::is_replayable`]) is eligible: its
    /// chaos draws are a pure function of (chaos-seed, cycle), so with the
    /// chaos seed folded into the schedule key the perturbed control plane
    /// is still a deterministic function of the spec. Plans that corrupt
    /// data (bit flips, dropped or duplicated beats) still refuse — their
    /// *outputs* depend on which words the faults land on.
    pub fn replay_eligibility(&self) -> Result<(), smache_sim::ReplayUnsupported> {
        use smache_sim::ReplayUnsupported as R;
        let fault_plan = &self.config.system.fault_plan;
        if fault_plan.is_active() && !fault_plan.is_replayable() {
            return Err(R::FaultPlan);
        }
        if self.stall.is_some() {
            return Err(R::StallSchedule);
        }
        if self.telemetry.is_some() {
            return Err(R::Telemetry);
        }
        if self.result_tap.is_some() {
            return Err(R::ResultTap);
        }
        Ok(())
    }

    /// Starts recording the per-cycle control-plane trace. The recorder is
    /// drained with [`Self::take_capture`]; capture orchestration lives in
    /// [`crate::system::replay`].
    pub(crate) fn begin_capture(&mut self) {
        self.recorder = Some(smache_sim::ControlTrace::new());
    }

    /// Detaches and returns the recorded control trace, if any.
    pub(crate) fn take_capture(&mut self) -> Option<smache_sim::ControlTrace> {
        self.recorder.take()
    }

    /// Installs an external stall schedule (`true` = datapath frozen that
    /// cycle) — the paper's AXI4-Stream stall integration, as a testbench
    /// hook.
    pub fn set_stall_schedule(&mut self, stall: Box<dyn FnMut(u64) -> bool>) {
        self.stall = Some(stall);
    }

    /// Installs an observer receiving every kernel result as a [`Beat`]
    /// (data, element index, work-instance) — the module's output stream.
    pub fn set_result_tap(&mut self, tap: Box<dyn FnMut(Beat)>) {
        self.result_tap = Some(tap);
    }

    /// Attaches structured telemetry: every component's typed probes are
    /// registered now and sampled once per cycle at the end of the commit
    /// sequence, and the profiling counters (stall attribution, FSM state
    /// residency, queue-occupancy histograms; link occupancy and
    /// per-channel attribution for a pipeline) start accumulating. A run's
    /// counters travel in [`RunReport::telemetry`]. With no telemetry
    /// attached the per-cycle cost is a single branch and behaviour is
    /// bit-identical (see `docs/OBSERVABILITY.md`).
    pub fn attach_telemetry(&mut self, config: TelemetryConfig) {
        let mut tel = Telemetry::new(config);
        self.register_probes(&mut tel.probes);
        self.telemetry = Some(Box::new(tel));
    }

    /// The attached telemetry bundle, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Mutable access to the attached telemetry (export, clear).
    pub fn telemetry_mut(&mut self) -> Option<&mut Telemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current controller phase of stage 0, the DRAM-facing stage.
    pub fn phase(&self) -> ControllerPhase {
        self.stages[0].phase()
    }

    /// Arms the system for external clocking: resets all state, loads the
    /// input grid and schedules `passes` passes (instances, for one
    /// stage), without stepping the clock. Drive it with
    /// [`step`](Self::step) until [`finished`](Self::finished), then read
    /// the grid back with [`armed_output`](Self::armed_output).
    /// [`run`](Self::run) is this plus an internal watchdog loop.
    pub fn arm(&mut self, input: &[Word], passes: u64) -> CoreResult<()> {
        if input.len() != self.n {
            return Err(CoreError::InputLengthMismatch {
                expected: self.n,
                actual: input.len(),
            });
        }
        self.reset();
        self.dram.preload(self.base[0], input)?;
        self.dram.reset_stats();
        self.passes_left = passes;
        self.armed_passes = passes;
        Ok(())
    }

    /// True once every armed pass has completed.
    pub fn finished(&self) -> bool {
        self.passes_left == 0
    }

    /// The output grid of a finished armed run (the region the last pass
    /// wrote).
    pub fn armed_output(&self) -> CoreResult<Vec<Word>> {
        let out_region = (self.armed_passes % 2) as usize;
        Ok(self.dram.dump(self.base[out_region], self.n)?)
    }

    /// Advances the system by one clock cycle.
    pub fn step(&mut self) -> CoreResult<()> {
        self.step_external(false)
    }

    /// Advances one clock cycle with an externally supplied stall signal
    /// (OR-ed with the installed stall schedule) — the AXI integration
    /// point.
    pub fn step_external(&mut self, external_stall: bool) -> CoreResult<()> {
        let depth = self.stages.len();
        // Chaos decisions are drawn exactly once per cycle, before anything
        // else, so the fault schedule depends only on the cycle count.
        let chaos_stall = match self.storm.as_mut() {
            Some(s) => s.stalled(self.cycle),
            None => false,
        };
        self.resp_queue.begin_cycle();
        // The schedule closure is consulted only when nothing earlier
        // already stalls the cycle (kept explicit so telemetry can
        // attribute the stall to its cause).
        let sched_stall = if external_stall || chaos_stall {
            false
        } else {
            match self.stall.as_mut() {
                Some(f) => f(self.cycle),
                None => false,
            }
        };
        let stalled = external_stall || chaos_stall || sched_stall;

        // --- Stage-0 DRAM read channel -----------------------------------
        let in_base = self.base[self.in_region];
        self.issued_kind = ReadKind::None;
        match self.stages[0].phase() {
            ControllerPhase::Warmup => {
                if let Some(&addr) = self.stages[0].prefetch_addrs().get(self.prefetch_issue) {
                    self.dram.hold_read(in_base + addr)?;
                    self.issued_kind = ReadKind::Prefetch;
                }
            }
            ControllerPhase::Streaming => {
                if self.read_ptr < self.n
                    && self.resp_queue.len() < self.config.system.resp_high_water * self.lanes
                {
                    self.dram.hold_read_beat(in_base + self.read_ptr)?;
                    self.issued_kind = ReadKind::Stream;
                }
            }
            ControllerPhase::Done => {}
        }
        if self.issued_kind == ReadKind::None {
            self.dram.cancel_read();
        }

        // --- Last-stage DRAM write channel -------------------------------
        // Results enter the queue a whole emission group at a time, so the
        // front `lanes` words are one group: consecutive addresses.
        let write_beat = self.write_queue.len().min(self.lanes);
        if let Some(&(addr, _)) = self.write_queue.front() {
            self.write_beat.clear();
            self.write_beat
                .extend(self.write_queue.iter().take(write_beat).map(|&(_, w)| w));
            self.dram.hold_write_beat(addr, &self.write_beat)?;
        } else {
            self.dram.cancel_write();
        }

        // --- Clock the DRAM ---------------------------------------------
        let report = self.dram.tick();
        // Parity-style corruption check at the response ingress: a flipped
        // word must never flow silently into the buffers.
        if let Some(fault) = self.dram.take_fault() {
            return Err(CoreError::FaultDetected(FaultDiagnostic {
                cycle: self.cycle,
                phase: phase_name(self.stages[0].phase()),
                component: fault.component,
                kind: fault.kind,
                detail: fault.detail,
            }));
        }
        if report.read_accepted.is_some() {
            match self.issued_kind {
                ReadKind::Prefetch => {
                    self.prefetch_issue += 1;
                    self.prefetch_resp_remaining += 1;
                }
                ReadKind::Stream => self.read_ptr = self.n.min(self.read_ptr + self.lanes),
                ReadKind::None => {
                    return Err(CoreError::Config(
                        "DRAM accepted a read the system did not stage".into(),
                    ))
                }
            }
        }
        let responded = report.response.is_some() || report.wide_response.is_some();
        if let Some((_, w)) = report.response {
            if self.prefetch_resp_remaining > 0 {
                self.stages[0].prefetch_word(w)?;
                self.prefetch_resp_remaining -= 1;
            } else {
                self.resp_queue.push_back(w);
            }
        }
        for w in report.wide_response.into_iter().flat_map(|(_, beat)| beat) {
            self.resp_queue.push_back(w);
        }
        if report.write_accepted.is_some() {
            self.write_queue.drain(..write_beat);
            self.writes_done += write_beat;
        }

        // Warm-up attribution is stage 0's (the DRAM-facing FSM-1). The
        // phase may advance before the end-of-cycle bookkeeping below, so
        // it is latched here, where the counter increments (the recorder
        // must agree with it exactly).
        let warmup_cycle = self.stages[0].phase() == ControllerPhase::Warmup;
        if warmup_cycle {
            self.warmup_cycles += 1;
        }

        // --- Link warm-up feed --------------------------------------------
        // A downstream stage in FSM-1 prefetches its static buffers from
        // the upstream link: random access into the produced prefix, one
        // word per stage per cycle (matching stage 0's one-word DRAM port).
        for t in 1..depth {
            if self.stages[t].phase() != ControllerPhase::Warmup {
                continue;
            }
            let issued = self.link_prefetch_issue[t - 1];
            if let Some(&addr) = self.stages[t].prefetch_addrs().get(issued) {
                if self.links[t - 1].available(addr) {
                    let w = self.links[t - 1].peek(addr);
                    self.stages[t].prefetch_word(w)?;
                    self.link_prefetch_issue[t - 1] = issued + 1;
                }
            }
        }

        // --- Per-stage datapaths (FSM-2) ----------------------------------
        let mut emitted = false;
        let mut starved_dram = false;
        let mut starved_link = false;
        if !stalled {
            for t in 0..depth {
                let stage = &mut self.stages[t];
                if stage.phase() != ControllerPhase::Streaming {
                    continue;
                }
                // Emission reads the settled (pre-edge) window and bank state.
                if let Some(group) = stage.emit_ready() {
                    let mut values = std::mem::take(&mut self.scratch_values);
                    for (lane, e) in group.enumerate() {
                        let mask = stage.gather(e, lane, &mut values)?;
                        let result = self.kernel.apply(&values, mask);
                        self.pipes[t].push_back((self.kernel.latency(), e, result));
                    }
                    self.scratch_values = values;
                    if t + 1 == depth {
                        emitted = true;
                    }
                }
                // Shift in up to one word per lane (real data, then flush
                // zeros).
                for _ in 0..self.lanes {
                    if !stage.wants_shift() {
                        break;
                    }
                    if stage.real_words_remaining() == 0 {
                        stage.shift_in(0);
                        continue;
                    }
                    let word = if t == 0 {
                        self.resp_queue.pop_front()
                    } else {
                        self.links[t - 1].pop_next()
                    };
                    let Some(w) = word else {
                        starved_dram |= t == 0;
                        starved_link |= t > 0;
                        break;
                    };
                    stage.shift_in(w);
                }
                // Pre-issue next element's static reads (1-cycle bank latency).
                stage.preissue_static_reads()?;
            }
        }

        // --- Kernel pipelines & FSM-3 capture/hand-off ---------------------
        // Drained results go to the next stage's link — or, from the last
        // stage, to the DRAM write queue and the result tap. The hand-off
        // is registered: a word pushed this cycle is visible downstream
        // next cycle.
        if !stalled {
            let out_base = self.base[1 - self.in_region];
            for (t, pipe) in self.pipes.iter_mut().enumerate() {
                for entry in pipe.iter_mut() {
                    entry.0 -= 1;
                }
                while pipe.front().is_some_and(|e| e.0 == 0) {
                    let (_, e, w) = pipe.pop_front().expect("checked front");
                    self.stages[t].capture(e, w)?;
                    if t + 1 < depth {
                        self.links[t].push(e, w);
                        continue;
                    }
                    self.write_queue.push_back((out_base + e, w));
                    if let Some(tap) = self.result_tap.as_mut() {
                        tap(Beat {
                            data: w,
                            index: e as u64,
                            instance: self.stages[t].instance(),
                        });
                    }
                }
            }
        }

        // --- Instance (pass) boundary ---------------------------------------
        if self
            .stages
            .iter()
            .all(|s| s.phase() == ControllerPhase::Streaming && s.instance_emitted())
            && self.writes_done == self.n
            && self.pipes.iter().all(VecDeque::is_empty)
            && self.write_queue.is_empty()
        {
            self.passes_left -= 1;
            if self.geometry.double_buffering {
                self.stages[0].end_instance(self.passes_left);
            } else {
                // Without double buffering — and always in a pipeline, where
                // a stage's next-pass static contents are its *upstream*
                // stage's next-pass output — every stage re-enters FSM-1.
                for s in &mut self.stages {
                    s.end_instance_without_double_buffering(self.passes_left);
                }
                self.prefetch_issue = 0;
                self.link_prefetch_issue.fill(0);
                for l in &mut self.links {
                    l.reset();
                }
            }
            self.writes_done = 0;
            self.read_ptr = 0;
            self.in_region = 1 - self.in_region;
            // Drop the pad words the last beat over-fetched.
            self.resp_queue.clear();
        }

        // --- Cycle accounting ---------------------------------------------
        if stalled {
            self.stall_cycles += 1;
        }
        if emitted {
            self.transfer_count += 1;
        }

        // --- Structured telemetry -----------------------------------------
        // Sampled after every state update, before the clock edge — so
        // enabling it cannot perturb control flow, chaos draws, or cycle
        // counts.
        self.facts = CycleFacts {
            stalled,
            external_stall,
            chaos_stall,
            sched_stall,
            starved_dram,
            starved_link,
            emitted,
            read_accepted: report.read_accepted.is_some(),
            responded,
            write_accepted: report.write_accepted.is_some(),
        };
        if let Some(mut tel) = self.telemetry.take() {
            self.sample_telemetry(&mut tel);
            self.telemetry = Some(tel);
        }

        // --- Control-schedule capture -------------------------------------
        // Sampled at the same point as telemetry, so the recorded trace
        // reproduces exactly the per-cycle accounting the run itself
        // performs (warm-up, stalls, transfers).
        if let Some(rec) = self.recorder.as_mut() {
            use smache_sim::CycleRecord;
            let mut flags = 0u8;
            if stalled {
                flags |= CycleRecord::STALLED;
            }
            if emitted {
                // One last-stage tuple emitted = one transfer counted.
                flags |= CycleRecord::EMITTED | CycleRecord::TRANSFER;
            }
            if warmup_cycle {
                flags |= CycleRecord::WARMUP;
            }
            if starved_dram || starved_link {
                flags |= CycleRecord::STARVED;
            }
            if responded {
                flags |= CycleRecord::RESPONDED;
            }
            rec.record(CycleRecord::pack(
                phase_code(self.stages[0].phase()) as u8,
                flags,
            ));
        }

        // --- Clock the stages ---------------------------------------------
        for s in &mut self.stages {
            s.tick()?;
        }
        self.cycle += 1;
        Ok(())
    }

    /// Records one cycle's probes, stall attribution, FSM residency and
    /// queue occupancy. Reads system state only — never mutates it.
    fn sample_telemetry(&self, tel: &mut Telemetry) {
        let facts = self.facts;
        if tel.probes.enabled() {
            self.sample_probes(self.cycle, &mut tel.probes);
        }
        let ctr = &mut tel.counters;
        let bump = |ctr: &mut smache_sim::CounterRegistry, name: &str| {
            let id = ctr.counter(name);
            ctr.inc(id);
        };
        // Stall attribution: at most one cause per cycle, priority matching
        // the short-circuit order of the stall computation. Starvation is
        // not a frozen-datapath stall (it lands in idle cycles) but it is a
        // throughput loss, so it competes in the same ranking. A pipeline
        // pins a DRAM-starved cycle on the channel the oldest outstanding
        // read is waiting in, or on the command-rate limit when nothing is
        // outstanding at all.
        if facts.external_stall {
            bump(ctr, "stall.axi_backpressure");
        } else if facts.chaos_stall {
            bump(ctr, "stall.chaos_storm");
        } else if facts.sched_stall {
            bump(ctr, "stall.schedule");
        } else if facts.starved_dram {
            match (self.geometry.device_view, self.dram.starving_channel()) {
                (true, _) => bump(ctr, "stall.dram_starved"),
                (false, Some(c)) => bump(ctr, &format!("stall.dram_ch{c}")),
                (false, None) => bump(ctr, "stall.dram_issue"),
            }
        } else if facts.starved_link {
            bump(ctr, "stall.link_starved");
        }
        if self.geometry.device_view {
            // FSM state residency: exactly one state per FSM per cycle, so
            // every FSM's states sum to the run's total cycle count.
            let phase = self.stages[0].phase();
            bump(
                ctr,
                match phase {
                    ControllerPhase::Warmup => "residency.fsm1.prefetch",
                    ControllerPhase::Streaming => "residency.fsm1.idle",
                    ControllerPhase::Done => "residency.fsm1.done",
                },
            );
            bump(
                ctr,
                match phase {
                    ControllerPhase::Warmup => "residency.fsm2.warmup",
                    ControllerPhase::Done => "residency.fsm2.done",
                    ControllerPhase::Streaming => {
                        if facts.stalled {
                            "residency.fsm2.stalled"
                        } else if facts.emitted {
                            "residency.fsm2.emit"
                        } else if facts.starved_dram {
                            "residency.fsm2.starved"
                        } else {
                            "residency.fsm2.fill"
                        }
                    }
                },
            );
            bump(
                ctr,
                match phase {
                    ControllerPhase::Done => "residency.fsm3.done",
                    _ if facts.write_accepted => "residency.fsm3.write",
                    _ => "residency.fsm3.idle",
                },
            );
        }
        let h = ctr.histogram("occupancy.resp_fifo");
        ctr.observe(h, self.resp_queue.len() as u64);
        let h = ctr.histogram("occupancy.write_queue");
        ctr.observe(h, self.write_queue.len() as u64);
        // Reads issued but not yet delivered: the release queue of the one
        // DRAM device, or every channel's outstanding and reordered reads.
        let inflight = if self.geometry.device_view {
            self.dram.channel(0).inflight()
        } else {
            self.dram.inflight()
        };
        let h = ctr.histogram("occupancy.dram_inflight");
        ctr.observe(h, inflight as u64);
        for (t, link) in self.links.iter().enumerate() {
            let h = ctr.histogram(&format!("occupancy.link{t}"));
            ctr.observe(h, link.occupancy() as u64);
        }
    }

    /// Resets all run state so the system can execute a fresh workload.
    /// Called automatically at the start of [`SmacheSystem::run`].
    pub fn reset(&mut self) {
        for s in &mut self.stages {
            s.reset();
        }
        self.in_region = 0;
        self.prefetch_issue = 0;
        self.prefetch_resp_remaining = 0;
        self.read_ptr = 0;
        self.issued_kind = ReadKind::None;
        self.resp_queue.clear();
        self.resp_queue.reset_chaos();
        self.dram.reset_chaos();
        self.dram.reset_port();
        if let Some(s) = self.storm.as_mut() {
            s.reset_chaos();
        }
        for l in &mut self.links {
            l.reset();
        }
        self.link_prefetch_issue.fill(0);
        for p in &mut self.pipes {
            p.clear();
        }
        self.write_queue.clear();
        self.writes_done = 0;
        self.cycle = 0;
        self.warmup_cycles = 0;
        self.stall_cycles = 0;
        self.transfer_count = 0;
        // Telemetry data is per-run; registrations survive.
        if let Some(tel) = self.telemetry.as_mut() {
            tel.clear();
        }
    }

    /// Loads `input` into DRAM, runs `passes` passes (each pass = `depth`
    /// timesteps; one instance for a single stage), and returns the output
    /// grid with the measured metrics (per run: the cycle counter and DRAM
    /// statistics restart from zero). The output equals `depth × passes`
    /// sequential single-step runs, bit-exactly.
    pub fn run(&mut self, input: &[Word], passes: u64) -> CoreResult<RunReport> {
        self.arm(input, passes)?;

        let depth = self.stages.len() as u64;
        // Wrap-heavy plans serialise the stages within a pass, so a pass
        // can cost up to depth × the single-step budget.
        let budget = (passes + 2)
            * (self.n as u64 * depth * self.config.system.watchdog_cycles_per_element + 512)
            + 4096;
        while self.passes_left > 0 {
            if self.cycle >= budget {
                return Err(CoreError::Sim(smache_sim::SimError::Watchdog {
                    budget,
                    waiting_for: "smache run completion".into(),
                }));
            }
            self.step()?;
        }

        let output = self.armed_output()?;

        let mut faults = self.dram.counters();
        faults.merge(self.resp_queue.counters());
        if let Some(s) = self.storm.as_ref() {
            faults.merge(s.counters());
        }
        let mut fault_events = self.dram.drain_events();
        if let Some(s) = self.storm.as_mut() {
            fault_events.extend(s.drain_events());
        }
        fault_events.sort_by_key(|e| e.cycle);

        let stats = CycleStats {
            cycles: self.cycle,
            transfers: self.transfer_count,
            stall_cycles: self.stall_cycles,
            idle_cycles: self
                .cycle
                .saturating_sub(self.transfer_count + self.stall_cycles),
        };

        // Fold end-of-run component statistics into the telemetry counters
        // (they are cheaper to copy once than to track per cycle), then
        // snapshot for the report.
        let dram_stats = *self.dram.stats();
        let per_channel: Vec<smache_mem::DramStats> = if self.geometry.device_view {
            Vec::new()
        } else {
            (0..self.dram.channels())
                .map(|c| *self.dram.channel_stats(c))
                .collect()
        };
        let telemetry: Option<TelemetrySnapshot> = self.telemetry.as_mut().map(|tel| {
            let ctr = &mut tel.counters;
            let mut set = |name: &str, value: u64| {
                let id = ctr.counter(name);
                ctr.set(id, value);
            };
            set("dram.reads", dram_stats.reads);
            set("dram.writes", dram_stats.writes);
            set("dram.row_hits", dram_stats.row_hits);
            set("dram.row_misses", dram_stats.row_misses);
            set("dram.read_stall_cycles", dram_stats.read_stall_cycles);
            for (c, s) in per_channel.iter().enumerate() {
                set(&format!("dram.ch{c}.reads"), s.reads);
                set(&format!("dram.ch{c}.writes"), s.writes);
            }
            set("chaos.jitter_events", faults.jitter_events);
            set("chaos.jitter_cycles_added", faults.jitter_cycles_added);
            set("chaos.stall_storms", faults.stall_storms);
            set("chaos.storm_cycles", faults.storm_cycles);
            set("chaos.slow_drain_cycles", faults.slow_drain_cycles);
            set("chaos.beats_dropped", faults.beats_dropped);
            set("chaos.beats_duplicated", faults.beats_duplicated);
            tel.snapshot()
        });

        let plan = self.stages[0].plan();
        let metrics = DesignMetrics {
            name: self.geometry.metric_name.clone(),
            cycles: self.cycle,
            fmax_mhz: FreqModel.smache_fmax(plan, self.lanes),
            dram: dram_stats,
            ops: plan.shape.ops_per_point() * self.n as u64 * depth * passes,
            resources: self.resources(),
            faults,
        };
        Ok(RunReport {
            output,
            metrics,
            warmup_cycles: self.warmup_cycles,
            fault_events,
            stats,
            breakdown: self.resource_breakdown(),
            telemetry,
            engine: crate::system::report::RunEngine::FullSim,
        })
    }

    /// Synthesised resources of the full design: every stage's module and
    /// kernel, plus the inter-stage link storage (one grid-sized BRAM
    /// buffer per link). Lanes replicate the gather logic and the kernel,
    /// so ALMs and kernel resources scale with the lane count; the window
    /// and static banks are shared.
    pub fn resources(&self) -> ResourceUsage {
        let lanes = self.lanes as u64;
        let kernel = self.kernel.resources();
        let mut total = ResourceUsage::default();
        for s in &self.stages {
            let module = s.resource_breakdown().total();
            total += ResourceUsage {
                alms: (module.alms + kernel.alms) * lanes,
                registers: module.registers + kernel.registers * lanes,
                bram_bits: module.bram_bits + kernel.bram_bits * lanes,
                dsps: module.dsps + kernel.dsps * lanes,
            };
        }
        total
            + ResourceUsage {
                bram_bits: (self.links.len() * self.n) as u64 * u64::from(self.plan().word_bits),
                ..ResourceUsage::default()
            }
    }

    /// Render helper for external drivers: exports the probe trace in the
    /// named format (`vcd`, `chrome` or `ascii`). Returns `None` when no
    /// telemetry is attached or the format is unknown.
    pub fn export_trace(&self, format: &str, top: &str) -> Option<String> {
        let tel = self.telemetry.as_deref()?;
        match format {
            "vcd" => Some(tel.probes.export_vcd(top)),
            "chrome" => Some(tel.probes.export_chrome(top)),
            "ascii" => Some(tel.probes.export_ascii()),
            _ => None,
        }
    }

    /// Per-part resource breakdown of one stage.
    pub fn resource_breakdown(&self) -> SmacheResourceBreakdown {
        self.stages[0].resource_breakdown()
    }
}

impl Probed for SmacheSystem {
    /// Registers every component's probes plus the handshake and stall
    /// bits — the same probe set whether the registry lives on the system
    /// itself ([`SmacheSystem::attach_telemetry`]) or on an enclosing
    /// simulator sampling an [`AxiSmache`](crate::system::axi::AxiSmache).
    /// The single-step system exposes its module and its one DRAM channel;
    /// a pipeline exposes the multi-channel port and its links.
    fn register_probes(&self, reg: &mut smache_sim::ProbeRegistry) {
        if self.geometry.device_view {
            self.stages[0].register_probes(reg);
            self.dram.channel(0).register_probes(reg);
        } else {
            self.dram.register_probes(reg);
        }
        self.resp_queue.register_probes(reg);
        for name in self.geometry.handshakes {
            reg.register(name, ProbeKind::Bit);
        }
        for t in 0..self.links.len() {
            reg.register(&format!("pipe.link{t}.occupancy"), ProbeKind::Vector(16));
        }
    }

    fn sample_probes(&self, cycle: u64, reg: &mut smache_sim::ProbeRegistry) {
        if self.geometry.device_view {
            self.stages[0].sample_probes(cycle, reg);
            self.dram.channel(0).sample_probes(cycle, reg);
        } else {
            self.dram.sample_probes(cycle, reg);
        }
        self.resp_queue.sample_probes(cycle, reg);
        let facts = self.facts;
        let bits = [
            facts.stalled,
            facts.emitted,
            facts.read_accepted,
            facts.responded,
            facts.write_accepted,
        ];
        for (name, bit) in self.geometry.handshakes.iter().zip(bits) {
            reg.sample_path(cycle, name, u64::from(bit));
        }
        for (t, link) in self.links.iter().enumerate() {
            reg.sample_path(
                cycle,
                &format!("pipe.link{t}.occupancy"),
                link.occupancy() as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::kernel::AverageKernel;
    use crate::config::{HybridMode, PlanStrategy};
    use crate::functional::golden::golden_run;
    use smache_mem::MemKind;
    use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

    fn paper_system(hybrid: HybridMode) -> SmacheSystem {
        let plan = BufferPlan::analyse(
            GridSpec::d2(11, 11).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            PlanStrategy::GlobalWindow,
            hybrid,
            MemKind::Bram,
            32,
        )
        .unwrap();
        SmacheSystem::new(plan, Box::new(AverageKernel), SystemConfig::default()).unwrap()
    }

    /// The plan is lowered once per engine: every stage gathers from the
    /// same rows, which cost at most 4 B per slot, 1 tag byte per slot and
    /// 8 B per element beyond the constants and the bank routes. A sealed
    /// schedule keeps its own run form of them, and counts only that.
    #[test]
    fn stages_and_the_sealed_schedule_share_one_lowering() {
        let plan = crate::SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
            .plan()
            .unwrap();
        let config = PipelineConfig {
            depth: 3,
            ..PipelineConfig::default()
        };
        let mut sys = SmacheSystem::new(plan, Box::new(AverageKernel), config).unwrap();
        let rows = Arc::clone(sys.source_rows());
        assert_eq!(sys.stages.len(), 3);
        for stage in &sys.stages {
            assert!(Arc::ptr_eq(stage.rows(), &rows));
        }
        let input: Vec<Word> = (0..121).collect();
        let (_, schedule) = sys.run_captured(&input, 2).unwrap();
        assert_eq!(*schedule.gather(), rows.gather().to_runs());
        let (n, slots) = (121, 121 * 4);
        let statics = sys.plan().static_buffers.len();
        assert!(rows.approx_bytes() <= slots * 4 + slots + n * 8 + 8 + statics * 32);
        let runs = schedule.gather().len();
        assert!(runs < n);
        let (gather, trace) = (schedule.gather(), schedule.trace());
        assert_eq!(
            gather.approx_bytes(),
            runs * (4 + 4 * 4 + 8) + gather.consts().len() * 8
        );
        assert!(schedule.approx_bytes() <= gather.approx_bytes() + trace.approx_bytes() + 1024);
        assert!(schedule.approx_bytes() < rows.approx_bytes());
    }

    fn golden_for(h: usize, w: usize, input: &[Word], instances: u64) -> Vec<Word> {
        golden_run(
            &GridSpec::d2(h, w).unwrap(),
            &BoundarySpec::paper_case(),
            &StencilShape::four_point_2d(),
            &AverageKernel,
            input,
            instances,
        )
        .unwrap()
    }

    #[test]
    fn single_instance_matches_golden() {
        let mut sys = paper_system(HybridMode::default());
        let input: Vec<Word> = (0..121).map(|i| i * 7 + 3).collect();
        let report = sys.run(&input, 1).unwrap();
        assert_eq!(report.output, golden_for(11, 11, &input, 1));
    }

    #[test]
    fn hundred_instances_match_golden_and_paper_cycle_regime() {
        let mut sys = paper_system(HybridMode::default());
        let input: Vec<Word> = (0..121).collect();
        let report = sys.run(&input, 100).unwrap();
        assert_eq!(report.output, golden_for(11, 11, &input, 100));
        // The paper reports 14039 cycles for this workload; our simulated
        // substrate must land in the same regime (±15%).
        let cycles = report.metrics.cycles as f64;
        assert!(
            (cycles - 14039.0).abs() / 14039.0 < 0.15,
            "cycles {cycles} vs paper 14039"
        );
        // Traffic regime: paper reports 95.5 KB.
        let kb = report.metrics.traffic_kb();
        assert!(
            (kb - 95.5).abs() / 95.5 < 0.10,
            "traffic {kb} KB vs paper 95.5"
        );
    }

    #[test]
    fn case_r_and_case_h_produce_identical_outputs_and_cycles() {
        let input: Vec<Word> = (0..121).map(|i| (i * 31) % 255).collect();
        let mut r = paper_system(HybridMode::CaseR);
        let mut h = paper_system(HybridMode::default());
        let rr = r.run(&input, 5).unwrap();
        let rh = h.run(&input, 5).unwrap();
        assert_eq!(rr.output, rh.output, "hybridisation must be transparent");
        assert_eq!(rr.metrics.cycles, rh.metrics.cycles);
        // But the resource split differs (the whole point of Case-H).
        assert!(rr.metrics.resources.registers > rh.metrics.resources.registers);
        assert!(rr.metrics.resources.bram_bits < rh.metrics.resources.bram_bits);
    }

    #[test]
    fn stall_schedule_slows_but_preserves_output() {
        let input: Vec<Word> = (0..121).map(|i| i + 1).collect();
        let mut clean = paper_system(HybridMode::default());
        let clean_report = clean.run(&input, 3).unwrap();

        let mut stalled = paper_system(HybridMode::default());
        stalled.set_stall_schedule(Box::new(|c| c % 4 == 1));
        let stalled_report = stalled.run(&input, 3).unwrap();

        assert_eq!(stalled_report.output, clean_report.output);
        assert!(
            stalled_report.metrics.cycles > clean_report.metrics.cycles,
            "stalls must cost cycles: {} vs {}",
            stalled_report.metrics.cycles,
            clean_report.metrics.cycles
        );
    }

    #[test]
    fn open_boundary_grid_no_static_buffers() {
        let plan = BufferPlan::analyse(
            GridSpec::d2(9, 13).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::all_open(2).unwrap(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap();
        let mut sys =
            SmacheSystem::new(plan, Box::new(AverageKernel), SystemConfig::default()).unwrap();
        let input: Vec<Word> = (0..117).map(|i| i * 5).collect();
        let report = sys.run(&input, 4).unwrap();
        let golden = golden_run(
            &GridSpec::d2(9, 13).unwrap(),
            &BoundarySpec::all_open(2).unwrap(),
            &StencilShape::four_point_2d(),
            &AverageKernel,
            &input,
            4,
        )
        .unwrap();
        assert_eq!(report.output, golden);
        assert_eq!(report.warmup_cycles, 0, "no static buffers, no warm-up");
    }

    #[test]
    fn full_torus_matches_golden() {
        let plan = BufferPlan::analyse(
            GridSpec::d2(8, 8).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::all_circular(2).unwrap(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap();
        let mut sys =
            SmacheSystem::new(plan, Box::new(AverageKernel), SystemConfig::default()).unwrap();
        let input: Vec<Word> = (0..64).map(|i| (i * i) % 101).collect();
        let report = sys.run(&input, 6).unwrap();
        let golden = golden_run(
            &GridSpec::d2(8, 8).unwrap(),
            &BoundarySpec::all_circular(2).unwrap(),
            &StencilShape::four_point_2d(),
            &AverageKernel,
            &input,
            6,
        )
        .unwrap();
        assert_eq!(report.output, golden);
    }

    #[test]
    fn zero_instances_returns_input() {
        let mut sys = paper_system(HybridMode::default());
        let input: Vec<Word> = (0..121).collect();
        let report = sys.run(&input, 0).unwrap();
        assert_eq!(report.output, input);
        assert_eq!(report.metrics.ops, 0);
    }

    #[test]
    fn throughput_is_one_tuple_per_cycle_steady_state() {
        let mut sys = paper_system(HybridMode::default());
        let input: Vec<Word> = (0..121).collect();
        let report = sys.run(&input, 50).unwrap();
        let per_instance = (report.metrics.cycles - report.warmup_cycles) as f64 / 50.0;
        // N + window fill + kernel latency + small constant.
        assert!(
            per_instance < 121.0 + 25.0,
            "per-instance cycles {per_instance} too high"
        );
        assert!(per_instance >= 121.0, "cannot beat one element per cycle");
    }

    #[test]
    fn wrong_input_length_rejected() {
        let mut sys = paper_system(HybridMode::default());
        assert!(sys.run(&[1, 2, 3], 1).is_err());
    }

    #[test]
    fn disabling_double_buffering_costs_cycles_but_not_correctness() {
        let plan = || {
            BufferPlan::analyse(
                GridSpec::d2(11, 11).unwrap(),
                StencilShape::four_point_2d(),
                BoundarySpec::paper_case(),
                PlanStrategy::GlobalWindow,
                HybridMode::default(),
                smache_mem::MemKind::Bram,
                32,
            )
            .unwrap()
        };
        let input: Vec<Word> = (0..121).map(|i| i * 5 + 2).collect();

        let mut with_db =
            SmacheSystem::new(plan(), Box::new(AverageKernel), SystemConfig::default()).unwrap();
        let db = with_db.run(&input, 10).unwrap();

        let mut without_db = SmacheSystem::new(
            plan(),
            Box::new(AverageKernel),
            SystemConfig {
                double_buffering: false,
                ..SystemConfig::default()
            },
        )
        .unwrap();
        let no_db = without_db.run(&input, 10).unwrap();

        assert_eq!(
            no_db.output, db.output,
            "both architectures compute the same grids"
        );
        assert!(
            no_db.metrics.cycles > db.metrics.cycles,
            "re-prefetching every instance must cost cycles: {} vs {}",
            no_db.metrics.cycles,
            db.metrics.cycles
        );
        // The re-prefetch also costs DRAM reads: 22 extra per later instance.
        assert_eq!(no_db.metrics.dram.reads, db.metrics.dram.reads + 22 * 9);
        assert!(no_db.warmup_cycles > db.warmup_cycles);
    }

    #[test]
    fn telemetry_records_phase_and_handshakes() {
        let mut sys = paper_system(HybridMode::default());
        sys.attach_telemetry(TelemetryConfig::default());
        let input: Vec<Word> = (0..121).collect();
        sys.run(&input, 2).unwrap();
        let probes = &sys.telemetry().expect("attached").probes;
        let values =
            |path: &str| -> Vec<u64> { probes.events_for(path).iter().map(|&(_, v)| v).collect() };
        // The phase walked warmup (0) → streaming (1) → done (2).
        assert_eq!(values("ctrl.phase"), vec![0, 1, 2]);
        // Emission pulsed on and off at least once per instance.
        assert!(probes.events_for("fsm2.emit").len() >= 4);
        // The instance counter reached 2.
        assert_eq!(values("ctrl.instance").last(), Some(&2));
        // A waveform can be rendered.
        assert!(probes.export_ascii().contains("fsm2.emit"));
    }

    fn chaos_system(plan: smache_mem::FaultPlan) -> SmacheSystem {
        let bp = BufferPlan::analyse(
            GridSpec::d2(11, 11).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap();
        SmacheSystem::new(
            bp,
            Box::new(AverageKernel),
            SystemConfig {
                fault_plan: plan,
                ..SystemConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn latency_only_chaos_is_absorbed_and_costs_cycles() {
        use smache_mem::{ChaosProfile, FaultPlan};
        let input: Vec<Word> = (0..121).map(|i| i * 13 + 5).collect();
        let mut clean = paper_system(HybridMode::default());
        let clean_report = clean.run(&input, 3).unwrap();

        let mut chaotic = chaos_system(FaultPlan::new(77, ChaosProfile::heavy()));
        let report = chaotic.run(&input, 3).unwrap();

        assert_eq!(report.output, clean_report.output, "chaos must be absorbed");
        assert!(report.metrics.cycles > clean_report.metrics.cycles);
        assert!(
            report.metrics.faults.any(),
            "faults must have been injected"
        );
        assert_eq!(report.metrics.faults.data_faults_injected(), 0);
        assert!(!report.fault_events.is_empty());
        assert!(report.stats.stall_cycles > 0, "storms freeze the datapath");
    }

    #[test]
    fn chaos_runs_are_seed_reproducible() {
        use smache_mem::{ChaosProfile, FaultPlan};
        let input: Vec<Word> = (0..121).collect();
        let mut sys = chaos_system(FaultPlan::new(5, ChaosProfile::heavy()));
        let a = sys.run(&input, 2).unwrap();
        let b = sys.run(&input, 2).unwrap();
        assert_eq!(a.metrics.cycles, b.metrics.cycles, "same seed, same run");
        assert_eq!(a.metrics.faults, b.metrics.faults);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn bit_flip_surfaces_as_typed_fault_with_provenance() {
        use smache_mem::{ChaosProfile, FaultKind, FaultPlan};
        let input: Vec<Word> = (0..121).collect();
        // Response 30 lands mid-stream of the first instance (after the
        // 22-word warm-up prefetch).
        let mut sys = chaos_system(FaultPlan::new(9, ChaosProfile::flip(30)));
        let err = sys.run(&input, 1).unwrap_err();
        match err {
            CoreError::FaultDetected(d) => {
                assert_eq!(d.component, smache_mem::fault::DRAM_COMPONENT);
                assert_eq!(d.kind, FaultKind::BitFlip);
                assert!(d.cycle > 0);
                assert_eq!(d.phase, "FSM-2/3 streaming");
                assert!(d.detail < 32, "flipped bit position");
            }
            other => panic!("expected FaultDetected, got {other:?}"),
        }
    }

    #[test]
    fn run_report_stats_account_every_cycle() {
        let mut sys = paper_system(HybridMode::default());
        let input: Vec<Word> = (0..121).collect();
        let report = sys.run(&input, 4).unwrap();
        let s = &report.stats;
        assert_eq!(s.cycles, report.metrics.cycles);
        assert_eq!(s.transfers, 121 * 4, "one emission per element");
        assert_eq!(s.cycles, s.transfers + s.stall_cycles + s.idle_cycles);
        assert_eq!(s.stall_cycles, 0, "no stalls without back-pressure");
    }

    /// A `lanes`-wide system: a 4-point plan of `h × w` under `bounds`
    /// behind a `lanes`-word DRAM bus.
    fn lanes_system(
        h: usize,
        w: usize,
        bounds: &BoundarySpec,
        lanes: usize,
        mut config: SystemConfig,
    ) -> CoreResult<SmacheSystem> {
        let plan = crate::SmacheBuilder::new(GridSpec::d2(h, w).unwrap())
            .boundaries(bounds.clone())
            .plan()
            .unwrap();
        config.dram.bus_words = lanes;
        SmacheSystem::new(plan, Box::new(AverageKernel), config)
    }

    fn golden_bounds(
        h: usize,
        w: usize,
        bounds: &BoundarySpec,
        input: &[Word],
        n: u64,
    ) -> Vec<Word> {
        golden_run(
            &GridSpec::d2(h, w).unwrap(),
            bounds,
            &StencilShape::four_point_2d(),
            &AverageKernel,
            input,
            n,
        )
        .unwrap()
    }

    #[test]
    fn open_boundaries_scale_to_many_lanes() {
        let bounds = BoundarySpec::all_open(2).unwrap();
        let input: Vec<Word> = (0..240u64).map(|i| (i * 37 + 1) % 1021).collect();
        let expected = golden_bounds(12, 20, &bounds, &input, 3);
        let mut cycles = Vec::new();
        for lanes in [1usize, 2, 4, 8] {
            let mut sys = lanes_system(12, 20, &bounds, lanes, SystemConfig::default()).unwrap();
            let report = sys.run(&input, 3).unwrap();
            assert_eq!(report.output, expected, "{lanes} lanes");
            let name = match lanes {
                1 => "Smache-h".to_string(),
                _ => format!("Smache-x{lanes}"),
            };
            assert_eq!(report.metrics.name, name);
            cycles.push(report.metrics.cycles);
        }
        // Throughput scales: 4 lanes at least 2.5x faster than 1.
        let speedup = cycles[0] as f64 / cycles[2] as f64;
        assert!(speedup > 2.5, "4-lane speed-up {speedup:.2}");
    }

    #[test]
    fn two_lanes_with_wrap_boundaries_match_golden() {
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).collect();
        let expected = golden_bounds(11, 11, &bounds, &input, 5);
        let mut two = lanes_system(11, 11, &bounds, 2, SystemConfig::default()).unwrap();
        let report = two.run(&input, 5).unwrap();
        assert_eq!(report.output, expected);
        // Two lanes beat one on cycles for the same workload.
        let mut one = lanes_system(11, 11, &bounds, 1, SystemConfig::default()).unwrap();
        let single = one.run(&input, 5).unwrap();
        assert_eq!(single.output, expected);
        assert!(report.metrics.cycles < single.metrics.cycles);
        // Both prefetch the same static buffers.
        assert_eq!(report.warmup_cycles, single.warmup_cycles);
    }

    #[test]
    fn single_lane_matches_the_reference_system() {
        // A one-word bus is the paper's system, cycle for cycle.
        let input: Vec<Word> = (0..121).map(|i| i * 3 + 1).collect();
        let mut one = lanes_system(
            11,
            11,
            &BoundarySpec::paper_case(),
            1,
            SystemConfig::default(),
        )
        .unwrap();
        let m = one.run(&input, 4).unwrap();
        let mut reference = crate::SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
            .build()
            .unwrap();
        let r = reference.run(&input, 4).unwrap();
        assert_eq!(m.output, r.output);
        assert_eq!(m.metrics.cycles, r.metrics.cycles);
    }

    #[test]
    fn two_lanes_without_double_buffering_match_golden() {
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).map(|i| i * 5 + 2).collect();
        let config = SystemConfig {
            double_buffering: false,
            ..SystemConfig::default()
        };
        let mut sys = lanes_system(11, 11, &bounds, 2, config).unwrap();
        let report = sys.run(&input, 4).unwrap();
        assert_eq!(report.output, golden_bounds(11, 11, &bounds, &input, 4));
    }

    #[test]
    fn invalid_lane_configurations_rejected() {
        let wrap = BoundarySpec::paper_case();
        let open = BoundarySpec::all_open(2).unwrap();
        let default = SystemConfig::default;
        for lanes in [0, MAX_BEAT_WORDS + 1] {
            assert!(matches!(
                lanes_system(8, 8, &open, lanes, default()).map(|_| ()),
                Err(CoreError::LaneCountUnsupported { .. })
            ));
        }
        // Wrap boundaries (static buffers) cap lanes at the two BRAM ports.
        let err = lanes_system(11, 11, &wrap, 4, default())
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("ports"), "{err}");
        let mut deduped = crate::SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
            .plan()
            .unwrap();
        deduped.dedupe_static_regions();
        let mut config = default();
        config.dram.bus_words = 2;
        assert!(SmacheSystem::new(deduped, Box::new(AverageKernel), config)
            .map(|_| ())
            .is_err());
        // A wide beat bypasses the chaos wrappers.
        let chaos = SystemConfig {
            fault_plan: smache_mem::FaultPlan::new(3, smache_mem::ChaosProfile::jitter()),
            ..default()
        };
        assert!(matches!(
            lanes_system(8, 8, &open, 2, chaos).map(|_| ()),
            Err(CoreError::ChaosUnsupported {
                system: "multilane"
            })
        ));
        // A wide bus needs one stage over one channel.
        let plan = crate::SmacheBuilder::new(GridSpec::d2(8, 8).unwrap())
            .boundaries(open.clone())
            .plan()
            .unwrap();
        for (depth, channels) in [(2, 1), (1, 2)] {
            let pipeline = PipelineConfig {
                depth,
                channels,
                system: config,
                ..PipelineConfig::default()
            };
            assert!(
                SmacheSystem::new(plan.clone(), Box::new(AverageKernel), pipeline)
                    .map(|_| ())
                    .is_err()
            );
        }
    }

    #[test]
    fn traffic_is_unchanged_by_lanes() {
        let bounds = BoundarySpec::all_open(2).unwrap();
        let input: Vec<Word> = (0..256).collect();
        let run = |lanes| {
            let mut sys = lanes_system(16, 16, &bounds, lanes, SystemConfig::default()).unwrap();
            sys.run(&input, 4).unwrap().metrics
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.dram.total_bytes(), four.dram.total_bytes());
        assert_eq!(one.ops, four.ops);
        assert!(
            four.fmax_mhz < one.fmax_mhz,
            "wider mux clocks a little lower"
        );
    }

    #[test]
    fn metrics_fields_are_consistent() {
        let mut sys = paper_system(HybridMode::default());
        let input: Vec<Word> = (0..121).collect();
        let report = sys.run(&input, 10).unwrap();
        let m = &report.metrics;
        assert_eq!(m.ops, 4 * 121 * 10);
        assert!(m.fmax_mhz > 200.0 && m.fmax_mhz < 300.0);
        assert!(m.exec_us() > 0.0);
        assert!(m.mops() > 0.0);
        assert_eq!(m.resources.registers, sys.resources().registers);
        // Reads: warm-up 22 + 121/instance; writes 121/instance.
        assert_eq!(m.dram.reads, 22 + 121 * 10);
        assert_eq!(m.dram.writes, 121 * 10);
    }
}
