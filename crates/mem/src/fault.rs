//! Deterministic, seed-reproducible fault injection for the memory layer.
//!
//! The paper's claim is robustness: the Smache controller streams correctly
//! under *any* stall/valid schedule on its interfaces. This module provides
//! the adversary that proves it. A [`FaultPlan`] — a seed plus a
//! [`ChaosProfile`] — drives wrapper components that perturb the memory
//! substrate in two distinct classes:
//!
//! * **Latency-only faults** (DRAM response jitter, stall storms, FIFO
//!   slow-drain, valid bubbles) reshape *when* data moves, never *what*
//!   moves. The ready/valid handshakes and skid buffering of the design
//!   must absorb them: the output stays bit-exact versus the golden model.
//! * **Data-corruption faults** (single-bit flips, dropped or duplicated
//!   beats) change the data itself. These must never pass silently — the
//!   wrappers carry parity-style side information so the consuming system
//!   can surface a typed diagnostic at the exact cycle of delivery.
//!
//! ## Reproducibility contract
//!
//! Every random decision is drawn from a per-component [`ChaosRng`] stream
//! derived as `splitmix64(seed ^ fnv1a(component_name))`, and each stream is
//! advanced exactly once per clock cycle (or per response) by its owner.
//! Two runs with the same plan, input and configuration therefore inject
//! the *identical* fault schedule — independent of delta-pass count, thread
//! count, or host. See `docs/RESILIENCE.md`.

use std::collections::VecDeque;
use std::fmt;

use smache_sim::hash::splitmix64;
use smache_sim::telemetry::{ProbeKind, ProbeRegistry, Probed};
use smache_sim::{SimResult, Word};

use crate::dram::{Dram, DramConfig, DramStats, DramTick};

/// Cap on the per-component fault-event log; counters stay exact beyond it.
const MAX_EVENTS: usize = 1024;

/// The taxonomy of injectable faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Extra cycles added to a DRAM read response (latency-only).
    LatencyJitter,
    /// A multi-cycle burst of deasserted `ready` on a stream interface
    /// (latency-only).
    StallStorm,
    /// A cycle on which a FIFO's read side refused to drain (latency-only).
    SlowDrain,
    /// A single bit inverted in a data word (corruption; must be detected).
    BitFlip,
    /// A stream beat that was removed from the sequence (corruption).
    DroppedBeat,
    /// A stream beat that was delivered twice (corruption).
    DuplicatedBeat,
}

impl FaultKind {
    /// The stable textual label (also the `Display` form).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LatencyJitter => "latency-jitter",
            FaultKind::StallStorm => "stall-storm",
            FaultKind::SlowDrain => "slow-drain",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::DroppedBeat => "dropped-beat",
            FaultKind::DuplicatedBeat => "duplicated-beat",
        }
    }

    /// Parses the stable textual label back into the kind.
    pub fn from_label(s: &str) -> Option<FaultKind> {
        Some(match s {
            "latency-jitter" => FaultKind::LatencyJitter,
            "stall-storm" => FaultKind::StallStorm,
            "slow-drain" => FaultKind::SlowDrain,
            "bit-flip" => FaultKind::BitFlip,
            "dropped-beat" => FaultKind::DroppedBeat,
            "duplicated-beat" => FaultKind::DuplicatedBeat,
            _ => return None,
        })
    }

    /// True for fault kinds that only reshape timing and must be absorbed.
    pub fn is_latency_only(&self) -> bool {
        matches!(
            self,
            FaultKind::LatencyJitter | FaultKind::StallStorm | FaultKind::SlowDrain
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One injected fault, with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Local clock cycle of the component at injection/delivery time.
    pub cycle: u64,
    /// The component that injected or detected the fault.
    pub component: &'static str,
    /// What happened.
    pub kind: FaultKind,
    /// Kind-specific detail: added cycles for jitter, burst length for a
    /// storm, flipped bit position for a bit flip, beat index for
    /// drop/duplicate.
    pub detail: u64,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {:>6}  {:<14} {} (detail {})",
            self.cycle, self.component, self.kind, self.detail
        )
    }
}

/// Per-fault counters accumulated by the chaos wrappers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// DRAM read responses that received extra latency.
    pub jitter_events: u64,
    /// Total extra cycles added by jitter.
    pub jitter_cycles_added: u64,
    /// Stall storms started.
    pub stall_storms: u64,
    /// Cycles spent inside a stall storm.
    pub storm_cycles: u64,
    /// Cycles a FIFO's read side was throttled while data waited.
    pub slow_drain_cycles: u64,
    /// Single-bit flips injected into data words.
    pub bit_flips_injected: u64,
    /// Bit flips caught by the parity-style check at delivery.
    pub bit_flips_detected: u64,
    /// Stream beats removed from a sequence.
    pub beats_dropped: u64,
    /// Stream beats delivered more than once.
    pub beats_duplicated: u64,
}

impl FaultCounters {
    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.jitter_events += other.jitter_events;
        self.jitter_cycles_added += other.jitter_cycles_added;
        self.stall_storms += other.stall_storms;
        self.storm_cycles += other.storm_cycles;
        self.slow_drain_cycles += other.slow_drain_cycles;
        self.bit_flips_injected += other.bit_flips_injected;
        self.bit_flips_detected += other.bit_flips_detected;
        self.beats_dropped += other.beats_dropped;
        self.beats_duplicated += other.beats_duplicated;
    }

    /// True when any fault of any class was injected.
    pub fn any(&self) -> bool {
        *self != FaultCounters::default()
    }

    /// Data-corruption faults injected (flips + drops + duplicates).
    pub fn data_faults_injected(&self) -> u64 {
        self.bit_flips_injected + self.beats_dropped + self.beats_duplicated
    }
}

impl fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "jitter {}x (+{} cyc), storms {}x ({} cyc), slow-drain {} cyc, \
             flips {}/{} detected, beats -{}/+{}",
            self.jitter_events,
            self.jitter_cycles_added,
            self.stall_storms,
            self.storm_cycles,
            self.slow_drain_cycles,
            self.bit_flips_detected,
            self.bit_flips_injected,
            self.beats_dropped,
            self.beats_duplicated
        )
    }
}

/// Fault intensities; combined with a seed this forms a [`FaultPlan`].
///
/// Probabilities are per-opportunity (per response for jitter, per cycle
/// for storms and slow-drain). The `Option<u64>` data faults target the
/// k-th opportunity (k-th DRAM read response, k-th stream beat) exactly
/// once, which makes every corruption plan individually checkable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosProfile {
    /// Probability that a DRAM read response receives extra latency.
    pub read_jitter_prob: f64,
    /// Maximum extra cycles per jittered response (uniform in `1..=max`).
    pub read_jitter_max: u64,
    /// Per-cycle probability that a stall storm starts.
    pub stall_storm_prob: f64,
    /// Maximum storm length in cycles (uniform in `1..=max`).
    pub stall_storm_max: u64,
    /// Per-cycle probability that a FIFO's read side refuses to drain.
    pub slow_drain_prob: f64,
    /// Flip one bit in the k-th DRAM read response (0-based), if set.
    pub bit_flip_read: Option<u64>,
    /// Drop the k-th stream beat (0-based), if set (AXI fuzz source only).
    pub drop_beat: Option<u64>,
    /// Duplicate the k-th stream beat (0-based), if set (AXI fuzz source
    /// only).
    pub dup_beat: Option<u64>,
}

impl ChaosProfile {
    /// No faults at all (the default).
    pub fn none() -> Self {
        ChaosProfile {
            read_jitter_prob: 0.0,
            read_jitter_max: 0,
            stall_storm_prob: 0.0,
            stall_storm_max: 0,
            slow_drain_prob: 0.0,
            bit_flip_read: None,
            drop_beat: None,
            dup_beat: None,
        }
    }

    /// DRAM latency jitter only.
    pub fn jitter() -> Self {
        ChaosProfile {
            read_jitter_prob: 0.2,
            read_jitter_max: 6,
            ..Self::none()
        }
    }

    /// Stall storms on the datapath only.
    pub fn storms() -> Self {
        ChaosProfile {
            stall_storm_prob: 0.02,
            stall_storm_max: 12,
            ..Self::none()
        }
    }

    /// FIFO slow-drain only.
    pub fn drain() -> Self {
        ChaosProfile {
            slow_drain_prob: 0.15,
            ..Self::none()
        }
    }

    /// Everything latency-only at once: jitter + storms + slow-drain.
    pub fn heavy() -> Self {
        ChaosProfile {
            read_jitter_prob: 0.2,
            read_jitter_max: 6,
            stall_storm_prob: 0.02,
            stall_storm_max: 12,
            slow_drain_prob: 0.15,
            bit_flip_read: None,
            drop_beat: None,
            dup_beat: None,
        }
    }

    /// A single-bit flip in the k-th DRAM read response (corrupting).
    pub fn flip(k: u64) -> Self {
        ChaosProfile {
            bit_flip_read: Some(k),
            ..Self::none()
        }
    }

    /// Parses a profile name as accepted by the CLI/bench `--chaos-profile`
    /// flag: `off`, `jitter`, `storms`, `drain`, `heavy`, `flip:<k>`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "off" | "none" => Some(Self::none()),
            "jitter" => Some(Self::jitter()),
            "storms" => Some(Self::storms()),
            "drain" => Some(Self::drain()),
            "heavy" => Some(Self::heavy()),
            _ => {
                let k = name.strip_prefix("flip:")?;
                k.parse::<u64>().ok().map(Self::flip)
            }
        }
    }

    /// True when the profile can inject at least one fault.
    pub fn is_active(&self) -> bool {
        self.read_jitter_prob > 0.0
            || self.stall_storm_prob > 0.0
            || self.slow_drain_prob > 0.0
            || self.bit_flip_read.is_some()
            || self.drop_beat.is_some()
            || self.dup_beat.is_some()
    }

    /// True when every enabled fault is latency-only (absorbable).
    pub fn is_latency_only(&self) -> bool {
        self.bit_flip_read.is_none() && self.drop_beat.is_none() && self.dup_beat.is_none()
    }
}

impl Default for ChaosProfile {
    fn default() -> Self {
        Self::none()
    }
}

/// A complete, reproducible fault schedule: a seed plus a profile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Master seed; every component derives an independent stream from it.
    pub seed: u64,
    /// Fault intensities.
    pub profile: ChaosProfile,
}

impl FaultPlan {
    /// Creates a plan.
    pub fn new(seed: u64, profile: ChaosProfile) -> Self {
        FaultPlan { seed, profile }
    }

    /// True when the plan can inject at least one fault.
    pub fn is_active(&self) -> bool {
        self.profile.is_active()
    }

    /// True when an *active* plan is still a pure function of
    /// (seed, cycle) — i.e. every enabled fault is latency-only. Such a
    /// plan's control-plane perturbations are deterministic per chaos
    /// seed, so a control schedule captured under it can be replayed
    /// across data seeds. Corrupting plans (bit flips, dropped or
    /// duplicated beats) are never replayable: the fault's *effect*
    /// depends on the data words it lands on.
    pub fn is_replayable(&self) -> bool {
        self.profile.is_latency_only()
    }

    /// Derives the deterministic per-component random stream.
    ///
    /// The `seed ^ fnv1a(name)` rule is the shared
    /// [`smache_sim::hash::stream_seed`] helper, so every seeded subsystem
    /// (chaos here, the serve-layer result cache, future samplers) derives
    /// keys the same pinned way.
    pub fn stream(&self, component: &str) -> ChaosRng {
        ChaosRng::new(smache_sim::hash::stream_seed(self.seed, component))
    }
}

/// A small, dependency-free xorshift64* PRNG for fault decisions.
///
/// Not cryptographic — it only needs to be deterministic, well-mixed, and
/// identical on every platform.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Seeds the generator (any seed is valid, including 0).
    pub fn new(seed: u64) -> Self {
        // splitmix64 never maps to 0 for distinct inputs except one; guard
        // anyway because xorshift has a fixed point at 0.
        let s = splitmix64(seed);
        ChaosRng {
            state: if s == 0 { 0x9e37_79b9 } else { s },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut s = self.state;
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        self.state = s;
        s.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Still burn a draw so enabling a zero-probability fault does
            // not shift the schedule of the other faults on this stream.
            let _ = self.next_u64();
            return false;
        }
        if p >= 1.0 {
            let _ = self.next_u64();
            return true;
        }
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Uniform value in `lo..=hi` (requires `lo <= hi`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo + 1;
        lo + self.next_u64() % span
    }
}

/// Generates seeded multi-cycle stall bursts ("storms") on an interface.
///
/// Call [`StormGen::stalled`] exactly once per clock cycle; it returns
/// whether the interface is inside a storm that cycle. One random draw is
/// consumed per *non-storm* cycle, so the schedule depends only on the
/// cycle count, never on how many delta passes a cycle takes.
#[derive(Debug, Clone)]
pub struct StormGen {
    rng: ChaosRng,
    plan: FaultPlan,
    component: &'static str,
    remaining: u64,
    counters: FaultCounters,
    events: Vec<FaultEvent>,
}

impl StormGen {
    /// Creates a storm generator for `component` under `plan`.
    pub fn new(plan: FaultPlan, component: &'static str) -> Self {
        StormGen {
            rng: plan.stream(component),
            plan,
            component,
            remaining: 0,
            counters: FaultCounters::default(),
            events: Vec::new(),
        }
    }

    /// Advances one cycle; true while inside a stall storm.
    pub fn stalled(&mut self, cycle: u64) -> bool {
        if self.remaining > 0 {
            self.remaining -= 1;
            self.counters.storm_cycles += 1;
            return true;
        }
        let p = self.plan.profile;
        if p.stall_storm_prob > 0.0 && self.rng.chance(p.stall_storm_prob) {
            let len = self.rng.range(1, p.stall_storm_max.max(1));
            self.remaining = len - 1;
            self.counters.stall_storms += 1;
            self.counters.storm_cycles += 1;
            if self.events.len() < MAX_EVENTS {
                self.events.push(FaultEvent {
                    cycle,
                    component: self.component,
                    kind: FaultKind::StallStorm,
                    detail: len,
                });
            }
            return true;
        }
        false
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Drains the recorded storm-start events.
    pub fn drain_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// Restores the generator to its post-construction state (same seed),
    /// so consecutive runs see the identical storm schedule.
    pub fn reset_chaos(&mut self) {
        self.rng = self.plan.stream(self.component);
        self.remaining = 0;
        self.counters = FaultCounters::default();
        self.events.clear();
    }
}

/// Component name used by [`FaultyDram`] in events and diagnostics.
pub const DRAM_COMPONENT: &str = "mem.dram";

/// A [`Dram`] wrapper that injects response-latency jitter and single-bit
/// data flips according to a [`FaultPlan`].
///
/// With an inactive plan the wrapper is a bit- and cycle-exact passthrough.
/// With an active plan, every narrow read response is routed through an
/// in-order release queue: jitter delays the release (later responses
/// cannot overtake a delayed earlier one — an in-order AXI read channel),
/// and the configured bit flip inverts one random bit of the k-th response.
/// Flipped words carry parity-style side information; the flip is reported
/// via [`FaultyDram::take_fault`] on the delivery cycle so the consuming
/// system can fail loudly instead of computing garbage.
pub struct FaultyDram {
    inner: Dram,
    plan: FaultPlan,
    rng: ChaosRng,
    /// In-order delayed responses: (release_cycle, addr, word, flipped bit).
    delayed: VecDeque<(u64, usize, Word, Option<u32>)>,
    reads_delivered: u64,
    pending_fault: Option<FaultEvent>,
    counters: FaultCounters,
    events: Vec<FaultEvent>,
    cycle: u64,
}

impl FaultyDram {
    /// Creates a DRAM of `words` zeroed words under `plan`.
    pub fn new(words: usize, config: DramConfig, plan: FaultPlan) -> SimResult<Self> {
        Ok(FaultyDram {
            inner: Dram::new(words, config)?,
            plan,
            rng: plan.stream(DRAM_COMPONENT),
            delayed: VecDeque::new(),
            reads_delivered: 0,
            pending_fault: None,
            counters: FaultCounters::default(),
            events: Vec::new(),
            cycle: 0,
        })
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        self.inner.config()
    }

    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when sized zero (never: the constructor rejects it).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Accumulated traffic statistics (of the wrapped device).
    pub fn stats(&self) -> &DramStats {
        self.inner.stats()
    }

    /// The row currently open in `bank`'s row buffer (see
    /// [`Dram::open_row`]).
    pub fn open_row(&self, bank: usize) -> Option<usize> {
        self.inner.open_row(bank)
    }

    /// Number of read responses held back in the in-order chaos release
    /// queue (0 when the fault plan adds no latency).
    pub fn inflight(&self) -> usize {
        self.delayed.len()
    }

    /// Resets the traffic statistics.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Accumulated fault counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Drains the recorded fault events.
    pub fn drain_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// Takes the fault detected on the current cycle, if any. The consuming
    /// system should surface it as a typed error: a taken fault means a
    /// corrupted word was just delivered.
    pub fn take_fault(&mut self) -> Option<FaultEvent> {
        self.pending_fault.take()
    }

    /// Restores the chaos state (RNG, queues, counters, local clock) to its
    /// post-construction value so consecutive runs replay the identical
    /// fault schedule. Does not touch memory contents or traffic stats.
    pub fn reset_chaos(&mut self) {
        self.rng = self.plan.stream(DRAM_COMPONENT);
        self.delayed.clear();
        self.reads_delivered = 0;
        self.pending_fault = None;
        self.counters = FaultCounters::default();
        self.events.clear();
        self.cycle = 0;
        // Cold timing state, or the fault schedule (and even the fault-free
        // cycle count) would depend on what ran before on this device.
        self.inner.precharge_all();
    }

    /// Loads initial contents starting at `base`.
    pub fn preload(&mut self, base: usize, words: &[Word]) -> SimResult<()> {
        self.inner.preload(base, words)
    }

    /// Copies out `len` words starting at `base`.
    pub fn dump(&self, base: usize, len: usize) -> SimResult<Vec<Word>> {
        self.inner.dump(base, len)
    }

    /// True when a staged read command will be accepted at tick.
    pub fn read_path_free(&self) -> bool {
        self.inner.read_path_free()
    }

    /// True when a staged write command will be accepted at tick.
    pub fn write_path_free(&self) -> bool {
        self.inner.write_path_free()
    }

    /// Holds a read request (see [`Dram::hold_read`]).
    pub fn hold_read(&mut self, addr: usize) -> SimResult<()> {
        self.inner.hold_read(addr)
    }

    /// Withdraws a held read request.
    pub fn cancel_read(&mut self) {
        self.inner.cancel_read();
    }

    /// Holds a write request (see [`Dram::hold_write`]).
    pub fn hold_write(&mut self, addr: usize, data: Word) -> SimResult<()> {
        self.inner.hold_write(addr, data)
    }

    /// Holds a wide read (see [`Dram::hold_read_wide`]). Wide responses
    /// bypass the chaos release queue.
    pub fn hold_read_wide(&mut self, addr: usize) -> SimResult<()> {
        self.inner.hold_read_wide(addr)
    }

    /// Holds a wide write (see [`Dram::hold_write_wide`]).
    pub fn hold_write_wide(&mut self, addr: usize, words: &[Word]) -> SimResult<()> {
        self.inner.hold_write_wide(addr, words)
    }

    /// Withdraws a held write request.
    pub fn cancel_write(&mut self) {
        self.inner.cancel_write();
    }

    /// Local clock (ticks since construction or [`FaultyDram::reset_chaos`]).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    fn push_event(&mut self, kind: FaultKind, detail: u64) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(FaultEvent {
                cycle: self.cycle,
                component: DRAM_COMPONENT,
                kind,
                detail,
            });
        }
    }

    /// Advances one cycle (see [`Dram::tick`]), applying the fault plan to
    /// the read-response path.
    pub fn tick(&mut self) -> DramTick {
        let mut report = self.inner.tick();
        if self.plan.is_active() {
            // Intercept the device response into the in-order release queue.
            if let Some((addr, word)) = report.response.take() {
                let idx = self.reads_delivered;
                self.reads_delivered += 1;
                let mut word = word;
                let mut flipped = None;
                if self.plan.profile.bit_flip_read == Some(idx) {
                    let bit = (self.rng.next_u64() % 32) as u32;
                    word ^= 1 << bit;
                    flipped = Some(bit);
                    self.counters.bit_flips_injected += 1;
                    self.push_event(FaultKind::BitFlip, bit as u64);
                }
                let p = self.plan.profile;
                let mut release = self.cycle;
                if p.read_jitter_prob > 0.0 && self.rng.chance(p.read_jitter_prob) {
                    let d = self.rng.range(1, p.read_jitter_max.max(1));
                    release += d;
                    self.counters.jitter_events += 1;
                    self.counters.jitter_cycles_added += d;
                    self.push_event(FaultKind::LatencyJitter, d);
                }
                // In-order channel: never overtake a delayed predecessor.
                if let Some(&(prev, ..)) = self.delayed.back() {
                    release = release.max(prev);
                }
                self.delayed.push_back((release, addr, word, flipped));
            }
            // Deliver at most one due response from the front of the queue.
            if let Some(&(due, addr, word, flipped)) = self.delayed.front() {
                if due <= self.cycle {
                    self.delayed.pop_front();
                    report.response = Some((addr, word));
                    if let Some(bit) = flipped {
                        self.counters.bit_flips_detected += 1;
                        self.pending_fault = Some(FaultEvent {
                            cycle: self.cycle,
                            component: DRAM_COMPONENT,
                            kind: FaultKind::BitFlip,
                            detail: bit as u64,
                        });
                    }
                }
            }
        }
        self.cycle += 1;
        report
    }
}

/// Component name used by [`FaultyFifo`] in events and diagnostics.
pub const FIFO_COMPONENT: &str = "mem.resp_fifo";

/// A response skid FIFO whose read side can be throttled ("slow-drain").
///
/// Models the first-word-fall-through skid buffer between the DRAM read
/// channel and the stream shift: pushes land immediately, pops observe the
/// per-cycle drain decision made by [`FaultyFifo::begin_cycle`]. A blocked
/// cycle looks exactly like DRAM latency to the consumer, so a correct
/// controller absorbs it. With an inactive plan the FIFO never blocks.
pub struct FaultyFifo {
    plan: FaultPlan,
    rng: ChaosRng,
    inner: VecDeque<Word>,
    drain_blocked: bool,
    counters: FaultCounters,
}

impl FaultyFifo {
    /// Creates an empty FIFO under `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultyFifo {
            plan,
            rng: plan.stream(FIFO_COMPONENT),
            inner: VecDeque::new(),
            drain_blocked: false,
            counters: FaultCounters::default(),
        }
    }

    /// Decides this cycle's drain fate. Call exactly once per clock cycle,
    /// before any pops.
    pub fn begin_cycle(&mut self) {
        let p = self.plan.profile.slow_drain_prob;
        if p > 0.0 {
            self.drain_blocked = self.rng.chance(p);
            if self.drain_blocked && !self.inner.is_empty() {
                self.counters.slow_drain_cycles += 1;
            }
        } else {
            self.drain_blocked = false;
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Appends a word (writes are never throttled).
    pub fn push_back(&mut self, word: Word) {
        self.inner.push_back(word);
    }

    /// Pops the oldest word, unless empty or this cycle's drain is blocked.
    pub fn pop_front(&mut self) -> Option<Word> {
        if self.drain_blocked {
            None
        } else {
            self.inner.pop_front()
        }
    }

    /// Discards all contents (run reset); chaos state is untouched — use
    /// [`FaultyFifo::reset_chaos`] for schedule reproducibility.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Accumulated fault counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Restores the chaos state (RNG, counters, drain flag) to its
    /// post-construction value.
    pub fn reset_chaos(&mut self) {
        self.rng = self.plan.stream(FIFO_COMPONENT);
        self.drain_blocked = false;
        self.counters = FaultCounters::default();
    }
}

impl Probed for FaultyDram {
    fn register_probes(&self, reg: &mut ProbeRegistry) {
        reg.register("dram.inflight", ProbeKind::Vector(16));
        for bank in 0..self.config().num_banks {
            reg.register(&format!("dram.row_open.{bank}"), ProbeKind::Vector(32));
        }
    }

    fn sample_probes(&self, cycle: u64, reg: &mut ProbeRegistry) {
        reg.sample_path(cycle, "dram.inflight", self.inflight() as u64);
        for bank in 0..self.config().num_banks {
            // Encode the row-buffer state as row+1, with 0 = precharged,
            // so a closed bank is distinguishable from an open row 0.
            let v = self.open_row(bank).map(|r| r as u64 + 1).unwrap_or(0);
            reg.sample_path(cycle, &format!("dram.row_open.{bank}"), v);
        }
    }
}

impl Probed for FaultyFifo {
    fn register_probes(&self, reg: &mut ProbeRegistry) {
        reg.register("resp_fifo.occupancy", ProbeKind::Vector(16));
        reg.register("resp_fifo.stall.drain_blocked", ProbeKind::Bit);
    }

    fn sample_probes(&self, cycle: u64, reg: &mut ProbeRegistry) {
        reg.sample_path(cycle, "resp_fifo.occupancy", self.len() as u64);
        reg.sample_path(
            cycle,
            "resp_fifo.stall.drain_blocked",
            u64::from(self.drain_blocked),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let plan = FaultPlan::new(42, ChaosProfile::heavy());
        let mut a1 = plan.stream("mem.dram");
        let mut a2 = plan.stream("mem.dram");
        let mut b = plan.stream("mem.resp_fifo");
        let xs: Vec<u64> = (0..8).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| a2.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "same component, same stream");
        assert_ne!(xs, zs, "different components, different streams");
    }

    #[test]
    fn chance_respects_probability_extremes_and_burns_draws() {
        let mut r = ChaosRng::new(7);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // A zero-probability draw still advances the stream.
        let mut a = ChaosRng::new(9);
        let mut b = ChaosRng::new(9);
        let _ = a.chance(0.0);
        let _ = b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = ChaosRng::new(3);
        for _ in 0..1000 {
            let v = r.range(2, 9);
            assert!((2..=9).contains(&v));
        }
    }

    #[test]
    fn storm_gen_bursts_have_bounded_length_and_reset_replays() {
        let plan = FaultPlan::new(5, ChaosProfile::storms());
        let mut g = StormGen::new(plan, "test.storm");
        let sched: Vec<bool> = (0..500).map(|c| g.stalled(c)).collect();
        assert!(g.counters().stall_storms > 0, "storms must occur");
        assert!(g.counters().storm_cycles >= g.counters().stall_storms);
        // Burst length never exceeds the profile maximum.
        let mut run = 0u64;
        for &s in &sched {
            if s {
                run += 1;
                assert!(run <= ChaosProfile::storms().stall_storm_max);
            } else {
                run = 0;
            }
        }
        g.reset_chaos();
        let replay: Vec<bool> = (0..500).map(|c| g.stalled(c)).collect();
        assert_eq!(sched, replay, "reset_chaos replays the schedule");
    }

    #[test]
    fn inactive_plan_is_cycle_exact_passthrough() {
        let cfg = DramConfig::default();
        let mut plain = Dram::new(64, cfg).unwrap();
        let mut chaotic = FaultyDram::new(64, cfg, FaultPlan::default()).unwrap();
        let data: Vec<Word> = (0..32).collect();
        plain.preload(0, &data).unwrap();
        chaotic.preload(0, &data).unwrap();
        let mut next = 0usize;
        for _ in 0..200 {
            if next < 32 {
                plain.hold_read(next).unwrap();
                chaotic.hold_read(next).unwrap();
            }
            let a = plain.tick();
            let b = chaotic.tick();
            assert_eq!(a, b, "passthrough must be tick-for-tick identical");
            if a.read_accepted.is_some() {
                next += 1;
            }
        }
        assert!(!chaotic.counters().any());
    }

    #[test]
    fn jitter_delays_but_preserves_order_and_data() {
        let cfg = DramConfig::default();
        let plan = FaultPlan::new(11, ChaosProfile::jitter());
        let mut d = FaultyDram::new(256, cfg, plan).unwrap();
        let data: Vec<Word> = (0..128).map(|i| i * 3 + 1).collect();
        d.preload(0, &data).unwrap();
        let mut got = Vec::new();
        let mut next = 0usize;
        for _ in 0..2000 {
            if next < 128 {
                d.hold_read(next).unwrap();
            }
            let r = d.tick();
            if r.read_accepted.is_some() {
                next += 1;
            }
            if let Some((a, v)) = r.response {
                got.push((a, v));
            }
            if got.len() == 128 {
                break;
            }
        }
        let expect: Vec<(usize, Word)> = data.iter().copied().enumerate().collect();
        assert_eq!(got, expect, "jitter must not reorder or corrupt");
        assert!(d.counters().jitter_events > 0, "jitter must occur");
        assert!(d.take_fault().is_none(), "latency-only: nothing to detect");
    }

    #[test]
    fn bit_flip_is_injected_once_and_detected_at_delivery() {
        let cfg = DramConfig::default();
        let plan = FaultPlan::new(23, ChaosProfile::flip(2));
        let mut d = FaultyDram::new(64, cfg, plan).unwrap();
        d.preload(0, &[10, 20, 30, 40]).unwrap();
        let mut next = 0usize;
        let mut got = Vec::new();
        let mut fault = None;
        for _ in 0..200 {
            if next < 4 {
                d.hold_read(next).unwrap();
            }
            let r = d.tick();
            if r.read_accepted.is_some() {
                next += 1;
            }
            if let Some((_, v)) = r.response {
                got.push(v);
                if let Some(f) = d.take_fault() {
                    fault = Some((f, got.len() - 1));
                }
            }
        }
        let (event, at) = fault.expect("flip must be detected");
        assert_eq!(at, 2, "detected on the delivery of response 2");
        assert_eq!(event.kind, FaultKind::BitFlip);
        assert_eq!(event.component, DRAM_COMPONENT);
        assert_eq!(got[2], 30 ^ (1 << event.detail as u32));
        assert_eq!(d.counters().bit_flips_injected, 1);
        assert_eq!(d.counters().bit_flips_detected, 1);
    }

    #[test]
    fn faulty_fifo_blocks_drain_but_never_loses_words() {
        let plan = FaultPlan::new(31, ChaosProfile::drain());
        let mut f = FaultyFifo::new(plan);
        let mut out = Vec::new();
        let mut pushed = 0u64;
        for _cycle in 0..600 {
            f.begin_cycle();
            if pushed < 100 {
                f.push_back(pushed * 7);
                pushed += 1;
            }
            if let Some(w) = f.pop_front() {
                out.push(w);
            }
            if out.len() == 100 {
                break;
            }
        }
        assert_eq!(out, (0..100).map(|i| i * 7).collect::<Vec<_>>());
        assert!(f.counters().slow_drain_cycles > 0, "drain must throttle");
    }

    #[test]
    fn profile_names_round_trip() {
        assert_eq!(ChaosProfile::from_name("off"), Some(ChaosProfile::none()));
        assert_eq!(
            ChaosProfile::from_name("heavy"),
            Some(ChaosProfile::heavy())
        );
        assert_eq!(
            ChaosProfile::from_name("flip:17"),
            Some(ChaosProfile::flip(17))
        );
        assert_eq!(ChaosProfile::from_name("bogus"), None);
        assert!(ChaosProfile::heavy().is_latency_only());
        assert!(!ChaosProfile::flip(0).is_latency_only());
        assert!(!ChaosProfile::none().is_active());
    }

    #[test]
    fn counters_merge_sums_every_field() {
        let mut a = FaultCounters {
            jitter_events: 1,
            bit_flips_injected: 2,
            ..FaultCounters::default()
        };
        let b = FaultCounters {
            jitter_events: 3,
            beats_dropped: 4,
            ..FaultCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.jitter_events, 4);
        assert_eq!(a.bit_flips_injected, 2);
        assert_eq!(a.beats_dropped, 4);
        assert!(a.any());
        assert_eq!(a.data_faults_injected(), 6);
    }
}
