//! The temporal-blocking pipeline: T chained Smache stages, one DRAM pass.
//!
//! A [`TemporalPipeline`] instantiates `depth` complete Smache stage
//! modules back-to-back. Stage 0 streams the input region from DRAM
//! exactly like a [`SmacheSystem`](crate::system::SmacheSystem); every
//! later stage's AXI input is its predecessor's kernel-output stream,
//! carried through an on-chip [`StageLink`] — so one *pass* over DRAM
//! advances the grid by `depth` timesteps and the intermediate timesteps
//! never touch memory. `passes` passes therefore compute
//! `depth × passes` timesteps with the DRAM traffic of `passes`
//! single-step runs.
//!
//! **Boundary handling per stage.** Each stage owns a full copy of the
//! plan: its own stream window, static buffers and 3-FSM controller, so
//! arbitrary boundaries (including circular wrap) work at every timestep.
//! The one architectural difference from the single-step system is that
//! static buffers cannot be transparently double-buffered here: stage
//! `t`'s next-pass static contents are stage `t−1`'s next-pass *output*,
//! not stage `t`'s own — the shadow-bank write-through would capture the
//! wrong timestep. So every pass boundary re-enters FSM-1 and
//! re-prefetches: stage 0 from DRAM, later stages from their link (random
//! access into the produced prefix). Plans without static buffers skip
//! warm-up entirely and the stages overlap almost perfectly; wrap-heavy
//! plans serialise the stages within a pass (the far-end static region
//! only becomes available late), which costs cycles but not traffic.
//!
//! **Memory substrate.** DRAM is a [`MultiChannelDram`]: `channels`
//! independent HBM-like channels behind an in-order port, with a
//! channel-interleaved address map and a per-channel read-command-rate
//! limit (`cmd_gap`). With `cmd_gap > 1` a single channel cannot feed
//! stage 0 at one word per cycle; interleaving across `channels ≥
//! cmd_gap` restores full rate — the cycles/cell win the `temporal`
//! bench measures.
//!
//! **Capture/replay.** The pipeline's control plane is a pure function of
//! (plan, system config, pipeline geometry, kernel, passes), so
//! [`TemporalPipeline::run_captured`] records one [`ControlSchedule`]
//! keyed on all of those; because one pass is functionally `depth`
//! sequential timesteps, the schedule carries `depth × passes` instances
//! and replays through the unchanged single-step machinery (including
//! lane-batched replay). See `docs/PIPELINE.md`.

use std::collections::VecDeque;
use std::sync::Arc;

use smache_mem::{FaultyFifo, MultiChannelConfig, MultiChannelDram, StormGen, Word};
use smache_sim::hash::fingerprint128;
use smache_sim::telemetry::{ProbeKind, Probed, Telemetry, TelemetryConfig, TelemetrySnapshot};
use smache_sim::{CycleStats, ReplayUnsupported, ResourceUsage};

use crate::arch::controller::{ControllerPhase, SmacheModule, SmacheResourceBreakdown};
use crate::arch::kernel::Kernel;
use crate::config::BufferPlan;
use crate::cost::FreqModel;
use crate::error::{CoreError, FaultDiagnostic};
use crate::pipeline::link::StageLink;
use crate::system::metrics::DesignMetrics;
use crate::system::replay::{schedule_key_text, seal_capture, ControlSchedule};
use crate::system::report::{RunEngine, RunReport};
use crate::system::smache_system::SystemConfig;
use crate::CoreResult;

/// Component name the pipeline-level stall-storm generator reports under.
pub const PIPE_STALL_COMPONENT: &str = "pipe.stall";

/// Geometry and tunables of a [`TemporalPipeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Chained Smache stages — timesteps per DRAM pass (>= 1).
    pub depth: usize,
    /// Independent DRAM channels (>= 1).
    pub channels: usize,
    /// Words per channel-interleave block.
    pub interleave_words: usize,
    /// Minimum cycles between accepted read commands on one channel
    /// (1 = full rate; the per-channel bandwidth knob).
    pub cmd_gap: u64,
    /// The per-stage system tunables (DRAM timing, skid depth, watchdog,
    /// fault plan). `double_buffering` is ignored: a pipeline always
    /// re-prefetches at pass boundaries (see the module docs).
    pub system: SystemConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            depth: 1,
            channels: 1,
            interleave_words: 1,
            cmd_gap: 1,
            system: SystemConfig::default(),
        }
    }
}

/// What stage 0 staged on the DRAM read channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadKind {
    None,
    Prefetch,
    Stream,
}

/// One cycle's handshake/stall facts, for telemetry and probes.
#[derive(Debug, Clone, Copy, Default)]
struct PipeFacts {
    stalled: bool,
    starved_dram: bool,
    starved_link: bool,
    emitted_last: bool,
    read_accepted: bool,
    responded: bool,
    write_accepted: bool,
}

/// T chained Smache stages over a multi-channel DRAM.
pub struct TemporalPipeline {
    stages: Vec<SmacheModule>,
    kernel: Box<dyn Kernel>,
    config: PipelineConfig,
    dram: MultiChannelDram,
    n: usize,
    base: [usize; 2],
    in_region: usize,

    // Stage-0 DRAM read engine (identical to the single-step system).
    prefetch_issue: usize,
    prefetch_resp_remaining: usize,
    read_ptr: usize,
    issued_kind: ReadKind,
    resp_queue: FaultyFifo,
    storm: Option<StormGen>,

    // Inter-stage plumbing: links[t] carries stage t's output into stage
    // t+1; link_prefetch_issue[t] is stage t+1's warm-up progress into it.
    links: Vec<StageLink>,
    link_prefetch_issue: Vec<usize>,
    /// Per-stage kernel pipelines: (remaining latency, element, result).
    pipes: Vec<VecDeque<(u64, usize, Word)>>,

    write_queue: VecDeque<(usize, Word)>,
    writes_done: usize,
    passes_left: u64,
    /// Passes requested by the last [`arm`](Self::arm) — selects the
    /// output region once the run drains.
    armed_passes: u64,
    cycle: u64,
    warmup_cycles: u64,
    stall_cycles: u64,
    /// Last-stage emissions — one per element per pass.
    transfer_count: u64,
    telemetry: Option<Box<Telemetry>>,
    facts: PipeFacts,
    scratch_values: Vec<Word>,
    recorder: Option<smache_sim::ControlTrace>,
}

/// Human-readable FSM provenance for fault diagnostics.
fn phase_name(phase: ControllerPhase) -> &'static str {
    match phase {
        ControllerPhase::Warmup => "FSM-1 warm-up",
        ControllerPhase::Streaming => "FSM-2/3 streaming",
        ControllerPhase::Done => "done",
    }
}

impl TemporalPipeline {
    /// Builds a `config.depth`-stage pipeline around a plan and a kernel.
    /// Every stage executes the same plan and kernel — the pipeline *is*
    /// the same timestep applied `depth` times per pass.
    pub fn new(
        plan: BufferPlan,
        kernel: Box<dyn Kernel>,
        config: PipelineConfig,
    ) -> CoreResult<Self> {
        if kernel.latency() == 0 {
            return Err(CoreError::KernelLatencyZero);
        }
        if config.depth == 0 {
            return Err(CoreError::Config("pipeline depth must be >= 1".into()));
        }
        let n = plan.grid.len();
        let row = config.system.dram.row_words;
        let region = n.div_ceil(row) * row;
        let dram = MultiChannelDram::new(
            2 * region + row,
            MultiChannelConfig {
                channel: config.system.dram,
                channels: config.channels,
                interleave_words: config.interleave_words,
                cmd_gap: config.cmd_gap,
            },
            config.system.fault_plan,
        )?;
        let storm = (config.system.fault_plan.is_active()
            && config.system.fault_plan.profile.stall_storm_prob > 0.0)
            .then(|| StormGen::new(config.system.fault_plan, PIPE_STALL_COMPONENT));
        let stages = (0..config.depth)
            .map(|_| SmacheModule::new(plan.clone()))
            .collect::<CoreResult<Vec<_>>>()?;
        let links = (1..config.depth).map(|_| StageLink::new(n)).collect();
        Ok(TemporalPipeline {
            pipes: (0..config.depth).map(|_| VecDeque::new()).collect(),
            link_prefetch_issue: vec![0; config.depth - 1],
            stages,
            kernel,
            dram,
            n,
            base: [0, region],
            in_region: 0,
            prefetch_issue: 0,
            prefetch_resp_remaining: 0,
            read_ptr: 0,
            issued_kind: ReadKind::None,
            resp_queue: FaultyFifo::new(config.system.fault_plan),
            storm,
            links,
            write_queue: VecDeque::new(),
            writes_done: 0,
            passes_left: 0,
            armed_passes: 0,
            cycle: 0,
            warmup_cycles: 0,
            stall_cycles: 0,
            transfer_count: 0,
            config,
            telemetry: None,
            facts: PipeFacts::default(),
            scratch_values: Vec::new(),
            recorder: None,
        })
    }

    /// The plan every stage executes.
    pub fn plan(&self) -> &BufferPlan {
        self.stages[0].plan()
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of chained stages (timesteps per pass).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether a schedule captured from this pipeline would be sound to
    /// replay — same contract as
    /// [`SmacheSystem::replay_eligibility`](crate::system::SmacheSystem::replay_eligibility):
    /// corrupting fault plans and attached observers refuse, latency-only
    /// chaos is eligible (its seed is folded into the schedule key).
    pub fn replay_eligibility(&self) -> Result<(), ReplayUnsupported> {
        let plan = &self.config.system.fault_plan;
        if plan.is_active() && !plan.is_replayable() {
            return Err(ReplayUnsupported::FaultPlan);
        }
        if self.telemetry.is_some() {
            return Err(ReplayUnsupported::Telemetry);
        }
        Ok(())
    }

    /// Attaches structured telemetry (typed probes + profiling counters):
    /// inter-stage link occupancy histograms, per-channel stall
    /// attribution, DRAM/chaos counters. Behaviour stays bit-identical.
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

    /// The canonical key text of a schedule captured from this pipeline
    /// for `passes` passes: the single-step
    /// [`schedule_key_text`] over `depth × passes` instances, extended
    /// with the pipeline geometry (every knob that shapes the pipelined
    /// control plane).
    pub fn schedule_key_text(&self, passes: u64) -> String {
        let instances = self.stages.len() as u64 * passes;
        let mut text = schedule_key_text(
            self.plan(),
            &self.config.system,
            self.kernel.as_ref(),
            instances,
        );
        text.push_str(&format!(
            ";pipeline={}:{}:{}:{}",
            self.stages.len(),
            self.config.channels,
            self.config.interleave_words,
            self.config.cmd_gap
        ));
        text
    }

    /// Advances the pipeline by one clock cycle.
    fn step(&mut self) -> CoreResult<()> {
        let depth = self.stages.len();
        // Chaos decisions first, exactly once per cycle.
        let chaos_stall = match self.storm.as_mut() {
            Some(s) => s.stalled(self.cycle),
            None => false,
        };
        self.resp_queue.begin_cycle();
        let stalled = chaos_stall;

        // --- Stage-0 DRAM read channel ----------------------------------
        let in_base = self.base[self.in_region];
        match self.stages[0].phase() {
            ControllerPhase::Warmup => {
                let addrs = self.stages[0].prefetch_addrs();
                if self.prefetch_issue < addrs.len() {
                    let addr = addrs[self.prefetch_issue];
                    self.dram.hold_read(in_base + addr)?;
                    self.issued_kind = ReadKind::Prefetch;
                } else {
                    self.dram.cancel_read();
                    self.issued_kind = ReadKind::None;
                }
            }
            ControllerPhase::Streaming => {
                if self.read_ptr < self.n
                    && self.resp_queue.len() < self.config.system.resp_high_water
                {
                    self.dram.hold_read(in_base + self.read_ptr)?;
                    self.issued_kind = ReadKind::Stream;
                } else {
                    self.dram.cancel_read();
                    self.issued_kind = ReadKind::None;
                }
            }
            ControllerPhase::Done => {
                self.dram.cancel_read();
                self.issued_kind = ReadKind::None;
            }
        }

        // --- Last-stage DRAM write channel ------------------------------
        if let Some(&(addr, w)) = self.write_queue.front() {
            self.dram.hold_write(addr, w)?;
        } else {
            self.dram.cancel_write();
        }

        // --- Clock the DRAM ---------------------------------------------
        let report = self.dram.tick();
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
                ReadKind::Stream => self.read_ptr += 1,
                ReadKind::None => {
                    return Err(CoreError::Config(
                        "DRAM accepted a read the pipeline did not stage".into(),
                    ))
                }
            }
        }
        if let Some((_, w)) = report.response {
            if self.prefetch_resp_remaining > 0 {
                self.stages[0].prefetch_word(w)?;
                self.prefetch_resp_remaining -= 1;
            } else {
                self.resp_queue.push_back(w);
            }
        }
        if report.write_accepted.is_some() {
            self.write_queue.pop_front();
            self.writes_done += 1;
        }

        // Warm-up attribution is stage 0's (the DRAM-facing FSM-1); it is
        // latched before the datapath can advance the phase, exactly as in
        // the single-step system, so the recorder agrees with the counter.
        let warmup_cycle = self.stages[0].phase() == ControllerPhase::Warmup;
        if warmup_cycle {
            self.warmup_cycles += 1;
        }

        // --- Link warm-up feed ------------------------------------------
        // A downstream stage in FSM-1 prefetches its static buffers from
        // the upstream link: random access into the produced prefix, one
        // word per stage per cycle (matching the one-word DRAM port the
        // single-step warm-up has).
        for t in 1..depth {
            if self.stages[t].phase() != ControllerPhase::Warmup {
                continue;
            }
            let issued = self.link_prefetch_issue[t - 1];
            let addrs = self.stages[t].prefetch_addrs();
            if issued < addrs.len() {
                let addr = addrs[issued];
                if self.links[t - 1].available(addr) {
                    let w = self.links[t - 1].peek(addr);
                    self.stages[t].prefetch_word(w)?;
                    self.link_prefetch_issue[t - 1] = issued + 1;
                }
            }
        }

        // --- Per-stage datapaths (FSM-2) --------------------------------
        let mut emitted_last = false;
        let mut starved_dram = false;
        let mut starved_link = false;
        if !stalled {
            for t in 0..depth {
                if self.stages[t].phase() != ControllerPhase::Streaming {
                    continue;
                }
                if let Some(e) = self.stages[t].emit_ready() {
                    let mut values = std::mem::take(&mut self.scratch_values);
                    let mask = self.stages[t].gather(e, &mut values)?;
                    let result = self.kernel.apply(&values, mask);
                    self.scratch_values = values;
                    self.pipes[t].push_back((self.kernel.latency(), e, result));
                    if t + 1 == depth {
                        emitted_last = true;
                    }
                }
                if self.stages[t].wants_shift() {
                    if self.stages[t].real_words_remaining() > 0 {
                        let word = if t == 0 {
                            self.resp_queue.pop_front()
                        } else {
                            self.links[t - 1].pop_next()
                        };
                        match word {
                            Some(w) => self.stages[t].shift_in(w),
                            None if t == 0 => starved_dram = true,
                            None => starved_link = true,
                        }
                    } else {
                        self.stages[t].shift_in(0);
                    }
                }
                self.stages[t].preissue_static_reads()?;
            }
        }

        // --- Kernel pipelines & FSM-3 capture/hand-off -------------------
        // Drained results go to the next stage's link — or, from the last
        // stage, to the DRAM write queue. The hand-off is registered: a
        // word pushed this cycle is visible downstream next cycle.
        if !stalled {
            for t in 0..depth {
                for entry in self.pipes[t].iter_mut() {
                    entry.0 -= 1;
                }
                while self.pipes[t].front().is_some_and(|e| e.0 == 0) {
                    let (_, e, w) = self.pipes[t].pop_front().expect("checked front");
                    self.stages[t].capture(e, w)?;
                    if t + 1 < depth {
                        self.links[t].push(e, w);
                    } else {
                        let out_base = self.base[1 - self.in_region];
                        self.write_queue.push_back((out_base + e, w));
                    }
                }
            }
        }

        // --- Pass boundary ------------------------------------------------
        if self
            .stages
            .iter()
            .all(|s| s.phase() == ControllerPhase::Streaming && s.instance_emitted())
            && self.writes_done == self.n
            && self.pipes.iter().all(VecDeque::is_empty)
            && self.write_queue.is_empty()
        {
            self.passes_left -= 1;
            // Static contents of the next pass are the *upstream* stage's
            // next-pass output, so shadow-bank double buffering cannot
            // apply — every stage re-enters FSM-1 (see the module docs).
            for s in &mut self.stages {
                s.end_instance_without_double_buffering(self.passes_left);
            }
            self.prefetch_issue = 0;
            for i in &mut self.link_prefetch_issue {
                *i = 0;
            }
            for l in &mut self.links {
                l.reset();
            }
            self.writes_done = 0;
            self.read_ptr = 0;
            self.in_region = 1 - self.in_region;
        }

        // --- Cycle accounting ---------------------------------------------
        if stalled {
            self.stall_cycles += 1;
        }
        if emitted_last {
            self.transfer_count += 1;
        }

        // --- Structured telemetry -----------------------------------------
        self.facts = PipeFacts {
            stalled,
            starved_dram,
            starved_link,
            emitted_last,
            read_accepted: report.read_accepted.is_some(),
            responded: report.response.is_some(),
            write_accepted: report.write_accepted.is_some(),
        };
        if let Some(mut tel) = self.telemetry.take() {
            self.sample_telemetry(&mut tel);
            self.telemetry = Some(tel);
        }

        // --- Control-schedule capture -------------------------------------
        if let Some(rec) = self.recorder.as_mut() {
            use smache_sim::CycleRecord;
            let phase = match self.stages[0].phase() {
                ControllerPhase::Warmup => 0,
                ControllerPhase::Streaming => 1,
                ControllerPhase::Done => 2,
            };
            let mut flags = 0u8;
            if stalled {
                flags |= CycleRecord::STALLED;
            }
            if emitted_last {
                // One last-stage tuple emitted = one transfer counted.
                flags |= CycleRecord::EMITTED | CycleRecord::TRANSFER;
            }
            if warmup_cycle {
                flags |= CycleRecord::WARMUP;
            }
            if starved_dram || starved_link {
                flags |= CycleRecord::STARVED;
            }
            if report.response.is_some() {
                flags |= CycleRecord::RESPONDED;
            }
            rec.record(CycleRecord::pack(phase, flags));
        }

        // --- Clock the stages ---------------------------------------------
        for s in &mut self.stages {
            s.tick()?;
        }
        self.cycle += 1;
        Ok(())
    }

    /// Records one cycle's probes, stall attribution and occupancy.
    fn sample_telemetry(&self, tel: &mut Telemetry) {
        let facts = self.facts;
        let cycle = self.cycle;
        if tel.probes.enabled() {
            self.sample_probes(cycle, &mut tel.probes);
        }
        let ctr = &mut tel.counters;
        let bump = |ctr: &mut smache_sim::CounterRegistry, name: &str| {
            let id = ctr.counter(name);
            ctr.inc(id);
        };
        // Stall attribution: at most one cause per cycle. A DRAM-starved
        // cycle is pinned on the channel the oldest outstanding read is
        // waiting in — the per-channel attribution the multi-channel map
        // exists to explain — or on the command-rate limit when nothing is
        // outstanding at all.
        if facts.stalled {
            bump(ctr, "stall.chaos_storm");
        } else if facts.starved_dram {
            match self.dram.starving_channel() {
                Some(c) => bump(ctr, &format!("stall.dram_ch{c}")),
                None => bump(ctr, "stall.dram_issue"),
            }
        } else if facts.starved_link {
            bump(ctr, "stall.link_starved");
        }
        let h = ctr.histogram("occupancy.resp_fifo");
        ctr.observe(h, self.resp_queue.len() as u64);
        let h = ctr.histogram("occupancy.write_queue");
        ctr.observe(h, self.write_queue.len() as u64);
        let h = ctr.histogram("occupancy.dram_inflight");
        ctr.observe(h, self.dram.inflight() as u64);
        for (t, link) in self.links.iter().enumerate() {
            let h = ctr.histogram(&format!("occupancy.link{t}"));
            ctr.observe(h, link.occupancy() as u64);
        }
    }

    /// Resets all run state for a fresh workload.
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
        for i in &mut self.link_prefetch_issue {
            *i = 0;
        }
        for p in &mut self.pipes {
            p.clear();
        }
        self.write_queue.clear();
        self.writes_done = 0;
        self.cycle = 0;
        self.warmup_cycles = 0;
        self.stall_cycles = 0;
        self.transfer_count = 0;
        if let Some(tel) = self.telemetry.as_mut() {
            tel.clear();
        }
    }

    /// Arms the pipeline for external clocking (e.g. wrapped as a
    /// [`smache_sim::Module`] inside a `Simulator`): loads `input` and
    /// schedules `passes` passes. Drive it with
    /// [`step_cycle`](Self::step_cycle) until [`finished`](Self::finished),
    /// then read the grid back with [`armed_output`](Self::armed_output).
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

    /// Advances an armed pipeline by one clock cycle.
    pub fn step_cycle(&mut self) -> CoreResult<()> {
        self.step()
    }

    /// The output grid of a finished armed run (the region the last pass
    /// wrote).
    pub fn armed_output(&mut self) -> CoreResult<Vec<Word>> {
        let out_region = (self.armed_passes % 2) as usize;
        Ok(self.dram.dump(self.base[out_region], self.n)?)
    }

    /// Loads `input` into DRAM, runs `passes` pipeline passes (each pass =
    /// `depth` timesteps), and returns the output grid with measured
    /// metrics. The output equals `depth × passes` sequential single-step
    /// runs, bit-exactly.
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
                    waiting_for: "temporal pipeline pass completion".into(),
                }));
            }
            self.step()?;
        }

        let out_region = (passes % 2) as usize;
        let output = self.dram.dump(self.base[out_region], self.n)?;

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

        let dram_stats = *self.dram.stats();
        let per_channel: Vec<smache_mem::DramStats> = (0..self.dram.channels())
            .map(|c| *self.dram.channel_stats(c))
            .collect();
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
        let breakdown = self.stages[0].resource_breakdown();
        let metrics = DesignMetrics {
            name: format!("Smache-pipe{}x{}", self.stages.len(), self.config.channels),
            cycles: self.cycle,
            fmax_mhz: FreqModel.smache_fmax(plan),
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
            breakdown,
            telemetry,
            engine: RunEngine::FullSim,
        })
    }

    /// Runs the full pipelined simulation once with the control recorder
    /// attached and returns both the report and a captured
    /// [`ControlSchedule`] for `depth × passes` timesteps. The schedule
    /// replays through the unchanged single-step machinery
    /// ([`ControlSchedule::replay`] / `replay_lanes`) and is sealed and
    /// self-verified by the same code as
    /// [`SmacheSystem::run_captured`](crate::system::SmacheSystem::run_captured).
    pub fn run_captured(
        &mut self,
        input: &[Word],
        passes: u64,
    ) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
        self.replay_eligibility()
            .map_err(CoreError::ReplayRefused)?;
        self.recorder = Some(smache_sim::ControlTrace::new());
        let outcome = self.run(input, passes);
        let trace = self.recorder.take().unwrap_or_default();
        let key = fingerprint128(self.schedule_key_text(passes).as_bytes());
        seal_capture(
            key,
            self.plan(),
            self.kernel.as_ref(),
            self.stages.len() as u64 * passes,
            trace,
            outcome?,
            input,
        )
    }

    /// Synthesised resources of the full pipeline: every stage's module
    /// and kernel, plus the inter-stage link storage (one grid-sized BRAM
    /// buffer per link).
    pub fn resources(&self) -> ResourceUsage {
        let mut total = ResourceUsage::default();
        for s in &self.stages {
            total += s.resource_breakdown().total() + self.kernel.resources();
        }
        let plan = self.stages[0].plan();
        total
            + ResourceUsage {
                bram_bits: (self.links.len() * self.n) as u64 * u64::from(plan.word_bits),
                ..ResourceUsage::default()
            }
    }

    /// Per-part resource breakdown of one stage.
    pub fn resource_breakdown(&self) -> SmacheResourceBreakdown {
        self.stages[0].resource_breakdown()
    }
}

impl Probed for TemporalPipeline {
    fn register_probes(&self, reg: &mut smache_sim::ProbeRegistry) {
        self.dram.register_probes(reg);
        self.resp_queue.register_probes(reg);
        reg.register("pipe.stall", ProbeKind::Bit);
        reg.register("pipe.emit", ProbeKind::Bit);
        reg.register("pipe.read_accept", ProbeKind::Bit);
        reg.register("pipe.resp", ProbeKind::Bit);
        reg.register("pipe.write_accept", ProbeKind::Bit);
        for t in 0..self.links.len() {
            reg.register(&format!("pipe.link{t}.occupancy"), ProbeKind::Vector(16));
        }
    }

    fn sample_probes(&self, cycle: u64, reg: &mut smache_sim::ProbeRegistry) {
        self.dram.sample_probes(cycle, reg);
        self.resp_queue.sample_probes(cycle, reg);
        let facts = self.facts;
        reg.sample_path(cycle, "pipe.stall", u64::from(facts.stalled));
        reg.sample_path(cycle, "pipe.emit", u64::from(facts.emitted_last));
        reg.sample_path(cycle, "pipe.read_accept", u64::from(facts.read_accepted));
        reg.sample_path(cycle, "pipe.resp", u64::from(facts.responded));
        reg.sample_path(cycle, "pipe.write_accept", u64::from(facts.write_accepted));
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
    use crate::system::smache_system::SmacheSystem;
    use smache_mem::MemKind;
    use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};

    fn plan_for(bounds: BoundarySpec, h: usize, w: usize) -> BufferPlan {
        BufferPlan::analyse(
            GridSpec::d2(h, w).unwrap(),
            StencilShape::four_point_2d(),
            bounds,
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap()
    }

    fn pipeline(bounds: BoundarySpec, h: usize, w: usize, depth: usize) -> TemporalPipeline {
        TemporalPipeline::new(
            plan_for(bounds, h, w),
            Box::new(AverageKernel),
            PipelineConfig {
                depth,
                ..PipelineConfig::default()
            },
        )
        .unwrap()
    }

    fn golden(bounds: &BoundarySpec, h: usize, w: usize, input: &[Word], steps: u64) -> Vec<Word> {
        golden_run(
            &GridSpec::d2(h, w).unwrap(),
            bounds,
            &StencilShape::four_point_2d(),
            &AverageKernel,
            input,
            steps,
        )
        .unwrap()
    }

    #[test]
    fn paper_case_pipeline_matches_golden_timesteps() {
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).map(|i| i * 7 + 3).collect();
        for depth in [1usize, 2, 3, 4] {
            for passes in [1u64, 2, 3] {
                let mut pipe = pipeline(bounds.clone(), 11, 11, depth);
                let report = pipe.run(&input, passes).unwrap();
                let steps = depth as u64 * passes;
                assert_eq!(
                    report.output,
                    golden(&bounds, 11, 11, &input, steps),
                    "depth {depth}, passes {passes}"
                );
            }
        }
    }

    #[test]
    fn static_free_pipelines_match_golden() {
        let mirror_constant = BoundarySpec::new(&[
            AxisBoundaries::both(Boundary::Mirror),
            AxisBoundaries::both(Boundary::Constant(50)),
        ])
        .unwrap();
        for (bounds, h, w) in [
            (BoundarySpec::all_open(2).unwrap(), 9, 13),
            (mirror_constant, 10, 10),
        ] {
            let input: Vec<Word> = (0..(h * w) as Word).map(|i| i * 5).collect();
            let mut pipe = pipeline(bounds.clone(), h, w, 3);
            let report = pipe.run(&input, 2).unwrap();
            assert_eq!(
                report.output,
                golden(&bounds, h, w, &input, 6),
                "{bounds:?}"
            );
            assert_eq!(report.warmup_cycles, 0, "no static buffers, no warm-up");
        }
    }

    #[test]
    fn pipeline_equals_sequential_single_step_runs() {
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).map(|i| (i * 31) % 255).collect();
        let depth = 4usize;
        let mut pipe = pipeline(bounds.clone(), 11, 11, depth);
        let piped = pipe.run(&input, 1).unwrap();

        let mut sys = SmacheSystem::new(
            plan_for(bounds, 11, 11),
            Box::new(AverageKernel),
            SystemConfig::default(),
        )
        .unwrap();
        let mut grid = input.clone();
        for _ in 0..depth {
            grid = sys.run(&grid, 1).unwrap().output;
        }
        assert_eq!(piped.output, grid);
    }

    #[test]
    fn deeper_pipelines_cut_dram_traffic() {
        for (bounds, h, w) in [
            (BoundarySpec::paper_case(), 11, 11),
            (BoundarySpec::all_open(2).unwrap(), 16, 16),
        ] {
            let input: Vec<Word> = (0..(h * w) as Word).collect();
            // 12 timesteps as 12 / 6 / 3 passes.
            let metrics = |depth: usize, passes: u64| {
                let mut pipe = pipeline(bounds.clone(), h, w, depth);
                pipe.run(&input, passes).unwrap().metrics
            };
            let m1 = metrics(1, 12);
            let m2 = metrics(2, 6);
            let m4 = metrics(4, 3);
            let (t1, t2, t4) = (
                m1.dram.total_bytes(),
                m2.dram.total_bytes(),
                m4.dram.total_bytes(),
            );
            assert_eq!(m1.ops, m4.ops, "{h}x{w}: same computation performed");
            assert!(t2 < t1, "{h}x{w}: 2-deep must cut traffic: {t2} vs {t1}");
            assert!(t4 < t2, "{h}x{w}: 4-deep must cut further: {t4} vs {t2}");
            // Stream + write-back traffic scales with passes.
            let ratio = t1 as f64 / t4 as f64;
            assert!(
                (ratio - 4.0).abs() < 0.05,
                "{h}x{w}: DRAM traffic must drop ~4x, got {ratio:.2}"
            );
            assert!(
                m4.cycles < m1.cycles,
                "{h}x{w}: fewer passes, fewer cycles: {} vs {}",
                m4.cycles,
                m1.cycles
            );
            // The price: more than 3x the on-chip buffering.
            assert!(
                m4.resources.total_memory_bits() > 3 * m1.resources.total_memory_bits(),
                "{h}x{w}: buffering must grow with depth"
            );
        }
    }

    #[test]
    fn channels_restore_rate_under_command_gap() {
        let bounds = BoundarySpec::all_open(2).unwrap();
        let input: Vec<Word> = (0..117).collect();
        let cycles = |channels: usize| {
            let mut pipe = TemporalPipeline::new(
                plan_for(bounds.clone(), 9, 13),
                Box::new(AverageKernel),
                PipelineConfig {
                    depth: 2,
                    channels,
                    cmd_gap: 4,
                    ..PipelineConfig::default()
                },
            )
            .unwrap();
            let report = pipe.run(&input, 2).unwrap();
            assert_eq!(report.output, golden(&bounds, 9, 13, &input, 4));
            report.metrics.cycles
        };
        let slow = cycles(1);
        let fast = cycles(4);
        assert!(
            fast * 2 < slow,
            "4 channels must beat 1 throttled channel: {fast} vs {slow}"
        );
    }

    #[test]
    fn zero_passes_returns_input() {
        let input: Vec<Word> = (0..121).collect();
        let mut pipe = pipeline(BoundarySpec::paper_case(), 11, 11, 3);
        let report = pipe.run(&input, 0).unwrap();
        assert_eq!(report.output, input);
        assert_eq!(report.metrics.ops, 0);
    }

    #[test]
    fn wrong_input_length_rejected() {
        let mut pipe = pipeline(BoundarySpec::paper_case(), 11, 11, 2);
        assert!(pipe.run(&[1, 2, 3], 1).is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let plan = plan_for(BoundarySpec::paper_case(), 11, 11);
        assert!(TemporalPipeline::new(
            plan.clone(),
            Box::new(AverageKernel),
            PipelineConfig {
                depth: 0,
                ..PipelineConfig::default()
            },
        )
        .is_err());
        assert!(TemporalPipeline::new(
            plan,
            Box::new(AverageKernel),
            PipelineConfig {
                channels: 0,
                ..PipelineConfig::default()
            },
        )
        .is_err());
    }

    #[test]
    fn captured_schedule_replays_fresh_data_bit_exactly() {
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).map(|i| i * 3 + 1).collect();
        let mut pipe = pipeline(bounds.clone(), 11, 11, 3);
        let (report, schedule) = pipe.run_captured(&input, 2).unwrap();
        assert_eq!(report.output, golden(&bounds, 11, 11, &input, 6));
        assert_eq!(schedule.instances(), 6, "depth x passes timesteps");

        let other: Vec<Word> = (0..121).map(|i| (i * 97 + 13) % 4096).collect();
        let replayed = schedule.replay(&AverageKernel, &other).unwrap();
        let mut fresh = pipeline(bounds, 11, 11, 3);
        let full = fresh.run(&other, 2).unwrap();
        assert_eq!(replayed.output, full.output);
        assert_eq!(replayed.stats, full.stats);
        assert_eq!(replayed.engine, RunEngine::Replay);
    }

    #[test]
    fn schedule_keys_fork_on_pipeline_geometry() {
        let mk = |depth: usize, channels: usize, gap: u64| {
            TemporalPipeline::new(
                plan_for(BoundarySpec::paper_case(), 11, 11),
                Box::new(AverageKernel),
                PipelineConfig {
                    depth,
                    channels,
                    cmd_gap: gap,
                    ..PipelineConfig::default()
                },
            )
            .unwrap()
        };
        let base = mk(2, 1, 1).schedule_key_text(3);
        assert_ne!(base, mk(3, 1, 1).schedule_key_text(2), "depth forks");
        assert_ne!(base, mk(2, 4, 1).schedule_key_text(3), "channels fork");
        assert_ne!(base, mk(2, 1, 4).schedule_key_text(3), "cmd_gap forks");
        assert!(base.contains(";pipeline=2:1:1:1"));
    }

    #[test]
    fn latency_only_chaos_is_absorbed_and_replayable() {
        use smache_mem::{ChaosProfile, FaultPlan};
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).map(|i| i * 13 + 5).collect();
        let mut clean = pipeline(bounds.clone(), 11, 11, 2);
        let clean_report = clean.run(&input, 2).unwrap();

        let chaotic = || {
            TemporalPipeline::new(
                plan_for(bounds.clone(), 11, 11),
                Box::new(AverageKernel),
                PipelineConfig {
                    depth: 2,
                    system: SystemConfig {
                        fault_plan: FaultPlan::new(77, ChaosProfile::storms()),
                        ..SystemConfig::default()
                    },
                    ..PipelineConfig::default()
                },
            )
            .unwrap()
        };
        let mut sys = chaotic();
        let (report, schedule) = sys.run_captured(&input, 2).unwrap();
        assert_eq!(report.output, clean_report.output, "chaos absorbed");
        assert!(report.metrics.cycles > clean_report.metrics.cycles);
        assert!(report.stats.stall_cycles > 0, "storms froze the datapath");

        // Fresh data through the chaotic schedule vs a fresh chaotic run.
        let other: Vec<Word> = (0..121).map(|i| (i * 131 + 5) % 8192).collect();
        let replayed = schedule.replay(&AverageKernel, &other).unwrap();
        let full = chaotic().run(&other, 2).unwrap();
        assert_eq!(replayed.output, full.output);
        assert_eq!(replayed.stats, full.stats);
    }

    #[test]
    fn corrupting_chaos_refuses_capture() {
        use smache_mem::{ChaosProfile, FaultPlan};
        let mut pipe = TemporalPipeline::new(
            plan_for(BoundarySpec::paper_case(), 11, 11),
            Box::new(AverageKernel),
            PipelineConfig {
                depth: 2,
                system: SystemConfig {
                    fault_plan: FaultPlan::new(3, ChaosProfile::flip(40)),
                    ..SystemConfig::default()
                },
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            pipe.run_captured(&(0..121).collect::<Vec<Word>>(), 1),
            Err(CoreError::ReplayRefused(ReplayUnsupported::FaultPlan))
        ));
    }

    #[test]
    fn telemetry_covers_links_and_channels() {
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).collect();
        let mut pipe = TemporalPipeline::new(
            plan_for(bounds, 11, 11),
            Box::new(AverageKernel),
            PipelineConfig {
                depth: 3,
                channels: 2,
                cmd_gap: 2,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        pipe.attach_telemetry(TelemetryConfig::default());
        pipe.run(&input, 2).unwrap();
        let snap = pipe.telemetry().unwrap().snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"dram.ch0.reads"));
        assert!(names.contains(&"dram.ch1.reads"));
        let hists: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert!(hists.contains(&"occupancy.link0"));
        assert!(hists.contains(&"occupancy.link1"));
        // Telemetry makes the pipeline replay-ineligible, like the system.
        assert!(matches!(
            pipe.replay_eligibility(),
            Err(ReplayUnsupported::Telemetry)
        ));
    }

    #[test]
    fn stats_account_every_cycle_and_transfers_count_last_stage() {
        let mut pipe = pipeline(BoundarySpec::paper_case(), 11, 11, 3);
        let input: Vec<Word> = (0..121).collect();
        let report = pipe.run(&input, 4).unwrap();
        let s = &report.stats;
        assert_eq!(s.cycles, report.metrics.cycles);
        assert_eq!(
            s.transfers,
            121 * 4,
            "one last-stage emission per element per pass"
        );
        assert_eq!(s.cycles, s.transfers + s.stall_cycles + s.idle_cycles);
    }

    #[test]
    fn resources_scale_with_depth() {
        let r = |depth: usize| {
            pipeline(BoundarySpec::paper_case(), 11, 11, depth)
                .resources()
                .total_memory_bits()
        };
        assert!(r(2) > r(1));
        assert!(r(4) > r(2));
    }
}
