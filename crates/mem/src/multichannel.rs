//! Multi-channel DRAM: `N` independent HBM-like channels behind one port.
//!
//! HBM-class memories expose many narrow channels instead of one wide bus;
//! SASA-style stencil frameworks exploit exactly that by striping the grid
//! across channels so consecutive stream addresses land on different
//! channels and the per-channel command-rate limit stops being the
//! bottleneck. This module models that substrate:
//!
//! * every channel is a full [`FaultyDram`] (own bank/row state, own
//!   latency, own seed-derived chaos stream), so per-channel timing and
//!   fault behaviour are independent;
//! * a **channel-interleaved address map** stripes the flat address space
//!   in `interleave_words` blocks: `channel = (addr / interleave) % N`;
//! * a per-channel **command-rate limit** (`cmd_gap` cycles between
//!   accepted read commands) models per-channel bandwidth — with `gap > 1`
//!   a single channel cannot sustain one word per cycle, but `N >= gap`
//!   interleaved channels can;
//! * responses are delivered strictly **in issue order** through a
//!   sequence-tagged reorder buffer, so the consumer sees the same
//!   in-order stream contract as a single [`Dram`](crate::Dram) — faster
//!   channels simply wait in the reorder buffer.
//!
//! With `channels = 1`, `interleave_words = 1` and `cmd_gap = 1` the model
//! is cycle-identical to a bare [`FaultyDram`]: routing and reordering add
//! no latency. A one-channel port also moves **wide beats** of
//! `bus_words` consecutive words per command (the bus of a multi-lane
//! datapath); a one-word beat is the narrow command.

use std::collections::VecDeque;

use smache_sim::telemetry::{ProbeKind, ProbeRegistry, Probed};
use smache_sim::{SimError, SimResult, Word};

use crate::dram::{DramConfig, DramStats, DramTick};
use crate::fault::{FaultCounters, FaultEvent, FaultPlan, FaultyDram};

/// Geometry and timing of a [`MultiChannelDram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiChannelConfig {
    /// Per-channel DRAM timing/geometry.
    pub channel: DramConfig,
    /// Number of independent channels (>= 1).
    pub channels: usize,
    /// Words per interleave block: address `a` belongs to channel
    /// `(a / interleave_words) % channels`.
    pub interleave_words: usize,
    /// Minimum cycles between accepted *read* commands on one channel
    /// (1 = full rate). The per-channel bandwidth knob.
    pub cmd_gap: u64,
}

impl Default for MultiChannelConfig {
    fn default() -> Self {
        MultiChannelConfig {
            channel: DramConfig::default(),
            channels: 1,
            interleave_words: 1,
            cmd_gap: 1,
        }
    }
}

impl MultiChannelConfig {
    /// A config with `channels` full-rate channels and word interleaving.
    pub fn with_channels(channels: usize) -> Self {
        MultiChannelConfig {
            channels,
            ..Self::default()
        }
    }
}

/// `N` independent DRAM channels behind a single in-order read/write port.
pub struct MultiChannelDram {
    config: MultiChannelConfig,
    channels: Vec<FaultyDram>,
    words: usize,

    staged_read: Option<usize>,
    /// The staged read is a wide beat.
    staged_read_wide: bool,
    staged_write: Option<(usize, Word)>,
    /// A wide write beat is staged on the one channel.
    staged_write_wide: bool,
    /// Next cycle each channel may accept a read command.
    read_ready_at: Vec<u64>,
    /// Issue-order bookkeeping: per channel, the (sequence, global address)
    /// of reads issued but not yet responded.
    pending: Vec<VecDeque<(u64, usize)>>,
    /// Out-of-order responses parked until their sequence number is due:
    /// slot `i` holds sequence `next_deliver + i` once it has arrived.
    reorder: VecDeque<Option<(usize, Word)>>,
    /// Responses parked in `reorder` (its filled slots).
    parked: usize,
    next_seq: u64,
    next_deliver: u64,
    cycle: u64,
    /// Aggregate stats snapshot, rebuilt on demand.
    stats: DramStats,
}

impl MultiChannelDram {
    /// Builds a multi-channel DRAM covering `words` flat addresses.
    ///
    /// An active `plan` gives every channel its own chaos stream (the plan
    /// seed is folded with the channel index), so channels jitter
    /// independently but reproducibly.
    pub fn new(words: usize, config: MultiChannelConfig, plan: FaultPlan) -> SimResult<Self> {
        if config.channels == 0 {
            return Err(SimError::Config("channel count must be >= 1".into()));
        }
        if config.interleave_words == 0 {
            return Err(SimError::Config("interleave_words must be >= 1".into()));
        }
        if config.cmd_gap == 0 {
            return Err(SimError::Config("cmd_gap must be >= 1".into()));
        }
        let c = config.channels;
        let stride = config.interleave_words * c;
        // Per-channel capacity: enough local words for any global address.
        let local_words = words.div_ceil(stride).max(1) * config.interleave_words;
        let channels = (0..c)
            .map(|i| {
                // Channel 0 keeps the plan seed unchanged so the one-channel
                // model is stream-identical to a bare FaultyDram.
                let seed = plan.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                FaultyDram::new(
                    local_words,
                    config.channel,
                    FaultPlan::new(seed, plan.profile),
                )
            })
            .collect::<SimResult<Vec<_>>>()?;
        Ok(MultiChannelDram {
            config,
            channels,
            words,
            staged_read: None,
            staged_read_wide: false,
            staged_write: None,
            staged_write_wide: false,
            read_ready_at: vec![0; c],
            pending: (0..c).map(|_| VecDeque::new()).collect(),
            reorder: VecDeque::new(),
            parked: 0,
            next_seq: 0,
            next_deliver: 0,
            cycle: 0,
            stats: DramStats::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &MultiChannelConfig {
        &self.config
    }

    /// Flat capacity in words.
    pub fn len(&self) -> usize {
        self.words
    }

    /// True when the capacity is zero words.
    pub fn is_empty(&self) -> bool {
        self.words == 0
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// The channel a flat address maps to.
    #[inline]
    pub fn channel_of(&self, addr: usize) -> usize {
        self.route(addr).0
    }

    /// The (channel, channel-local address) pair of a flat address.
    #[inline]
    fn route(&self, addr: usize) -> (usize, usize) {
        let ilv = self.config.interleave_words;
        let n = self.channels.len();
        let block = addr / ilv;
        (block % n, (block / n) * ilv + addr % ilv)
    }

    fn check_addr(&self, addr: usize) -> SimResult<()> {
        if addr >= self.words {
            return Err(SimError::AddressOutOfRange {
                memory: "mcdram".to_string(),
                addr,
                depth: self.words,
            });
        }
        Ok(())
    }

    /// Aggregate statistics summed over every channel.
    pub fn stats(&mut self) -> &DramStats {
        let mut total = DramStats::default();
        for ch in &self.channels {
            let s = ch.stats();
            total.reads += s.reads;
            total.writes += s.writes;
            total.bytes_read += s.bytes_read;
            total.bytes_written += s.bytes_written;
            total.row_hits += s.row_hits;
            total.row_misses += s.row_misses;
            total.sequential_reads += s.sequential_reads;
            total.read_stall_cycles += s.read_stall_cycles;
        }
        self.stats = total;
        &self.stats
    }

    /// Statistics of one channel.
    pub fn channel_stats(&self, channel: usize) -> &DramStats {
        self.channels[channel].stats()
    }

    /// One channel's device, for its probes and chaos queue.
    pub fn channel(&self, channel: usize) -> &FaultyDram {
        &self.channels[channel]
    }

    /// Resets every channel's statistics.
    pub fn reset_stats(&mut self) {
        for ch in &mut self.channels {
            ch.reset_stats();
        }
    }

    /// Merged fault counters of every channel.
    pub fn counters(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for ch in &self.channels {
            total.merge(ch.counters());
        }
        total
    }

    /// Drains the fault-event logs of every channel, in channel order.
    pub fn drain_events(&mut self) -> Vec<FaultEvent> {
        let mut events = Vec::new();
        for ch in &mut self.channels {
            events.extend(ch.drain_events());
        }
        events.sort_by_key(|e| e.cycle);
        events
    }

    /// A pending data-corruption fault detected on any channel, if any.
    pub fn take_fault(&mut self) -> Option<FaultEvent> {
        self.channels.iter_mut().find_map(FaultyDram::take_fault)
    }

    /// Re-seeds every channel's chaos stream and precharges all banks.
    pub fn reset_chaos(&mut self) {
        for ch in &mut self.channels {
            ch.reset_chaos();
        }
    }

    /// Clears the port state (staged commands, reorder buffer, sequence
    /// counters) without touching memory contents or statistics.
    pub fn reset_port(&mut self) {
        self.staged_read = None;
        self.staged_read_wide = false;
        self.cancel_write();
        self.read_ready_at = vec![0; self.channels.len()];
        for q in &mut self.pending {
            q.clear();
        }
        self.reorder.clear();
        self.parked = 0;
        self.next_seq = 0;
        self.next_deliver = 0;
        self.cycle = 0;
    }

    /// Scatters `words` into the channels starting at flat address `base`.
    pub fn preload(&mut self, base: usize, words: &[Word]) -> SimResult<()> {
        if !words.is_empty() {
            self.check_addr(base + words.len() - 1)?;
        }
        for (i, &w) in words.iter().enumerate() {
            let addr = base + i;
            let (c, l) = self.route(addr);
            self.channels[c].preload(l, &[w])?;
        }
        Ok(())
    }

    /// Gathers `len` words from the channels starting at flat address
    /// `base`.
    pub fn dump(&self, base: usize, len: usize) -> SimResult<Vec<Word>> {
        if len > 0 {
            self.check_addr(base + len - 1)?;
        }
        let mut out = Vec::with_capacity(len);
        for addr in base..base + len {
            let (c, l) = self.route(addr);
            out.push(self.channels[c].dump(l, 1)?[0]);
        }
        Ok(out)
    }

    /// Reads issued but not yet delivered (includes reordered responses).
    pub fn inflight(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum::<usize>() + self.parked
    }

    /// The channel the oldest outstanding read belongs to — where a
    /// starved consumer is actually waiting. `None` when nothing is
    /// outstanding.
    pub fn starving_channel(&self) -> Option<usize> {
        if self.reorder.front().is_some_and(Option::is_some) {
            // The word is already here; delivery is next tick.
            return None;
        }
        self.pending
            .iter()
            .position(|q| q.front().is_some_and(|&(seq, _)| seq == self.next_deliver))
    }

    /// Stages a read command for the next tick (idempotent).
    pub fn hold_read(&mut self, addr: usize) -> SimResult<()> {
        self.check_addr(addr)?;
        self.staged_read = Some(addr);
        self.staged_read_wide = false;
        Ok(())
    }

    /// Stages one read beat for the next tick: `bus_words` consecutive
    /// words from `addr`, delivered together as a
    /// [`DramTick::wide_response`]. On a one-word bus this is
    /// [`hold_read`](Self::hold_read). A wider beat needs a one-channel
    /// port: it bypasses the reorder buffer, which orders single words.
    pub fn hold_read_beat(&mut self, addr: usize) -> SimResult<()> {
        self.hold_read(addr)?;
        if self.config.channel.bus_words > 1 {
            self.check_wide_port()?;
            self.staged_read_wide = true;
        }
        Ok(())
    }

    /// Withdraws any staged read.
    pub fn cancel_read(&mut self) {
        self.staged_read = None;
        self.staged_read_wide = false;
    }

    /// Stages a write command for the next tick (idempotent).
    pub fn hold_write(&mut self, addr: usize, data: Word) -> SimResult<()> {
        self.check_addr(addr)?;
        self.cancel_write();
        self.staged_write = Some((addr, data));
        Ok(())
    }

    /// Stages one write beat of up to `bus_words` consecutive words at
    /// `addr`. A one-word beat is [`hold_write`](Self::hold_write); a
    /// wider one needs a one-channel port.
    pub fn hold_write_beat(&mut self, addr: usize, words: &[Word]) -> SimResult<()> {
        if let [word] = words {
            return self.hold_write(addr, *word);
        }
        self.check_wide_port()?;
        self.cancel_write();
        // One channel: the address map is the identity.
        self.channels[0].hold_write_wide(addr, words)?;
        self.staged_write_wide = true;
        Ok(())
    }

    /// Withdraws any staged write.
    pub fn cancel_write(&mut self) {
        self.staged_write = None;
        if std::mem::take(&mut self.staged_write_wide) {
            self.channels[0].cancel_write();
        }
    }

    fn check_wide_port(&self) -> SimResult<()> {
        if self.channels.len() == 1 {
            Ok(())
        } else {
            Err(SimError::Config(format!(
                "mcdram: wide beats need one channel, not {}",
                self.channels.len()
            )))
        }
    }

    /// Advances every channel one cycle and reports, in global terms, what
    /// the port did: accepted commands carry their flat addresses, and at
    /// most one response is delivered per cycle, strictly in issue order.
    pub fn tick(&mut self) -> DramTick {
        // Route the staged commands to their channels; everything else is
        // explicitly cancelled so no stale staging survives.
        let read_route = self.staged_read.map(|addr| {
            let (c, local) = self.route(addr);
            (addr, c, local)
        });
        let write_route = self.staged_write.map(|(addr, w)| {
            let (c, local) = self.route(addr);
            (addr, c, local, w)
        });
        for (c, ch) in self.channels.iter_mut().enumerate() {
            match read_route {
                Some((_, rc, local)) if rc == c && self.cycle >= self.read_ready_at[c] => {
                    if self.staged_read_wide {
                        ch.hold_read_wide(local)
                    } else {
                        ch.hold_read(local)
                    }
                    .expect("local address in range");
                }
                _ => ch.cancel_read(),
            }
            match write_route {
                Some((_, wc, local, w)) if wc == c => {
                    ch.hold_write(local, w).expect("local address in range");
                }
                // A wide beat stays staged on the channel it was held on.
                _ if self.staged_write_wide => {}
                _ => ch.cancel_write(),
            }
        }

        let mut out = DramTick::default();
        for c in 0..self.channels.len() {
            let tick = self.channels[c].tick();
            if tick.read_accepted.is_some() {
                let (gaddr, _, _) = read_route.expect("accept implies a routed read");
                out.read_accepted = Some(gaddr);
                if !self.staged_read_wide {
                    self.pending[c].push_back((self.next_seq, gaddr));
                    self.next_seq += 1;
                }
                self.read_ready_at[c] = self.cycle + self.config.cmd_gap;
                self.cancel_read();
            }
            if let Some(local) = tick.write_accepted {
                // A wide beat's one channel maps addresses to themselves.
                out.write_accepted = Some(write_route.map_or(local, |(gaddr, ..)| gaddr));
                self.cancel_write();
            }
            if tick.wide_response.is_some() {
                out.wide_response = tick.wide_response;
            }
            if let Some((_, w)) = tick.response {
                let (seq, gaddr) = self.pending[c]
                    .pop_front()
                    .expect("response implies an outstanding read");
                let slot = (seq - self.next_deliver) as usize;
                if self.reorder.len() <= slot {
                    self.reorder.resize(slot + 1, None);
                }
                self.reorder[slot] = Some((gaddr, w));
                self.parked += 1;
            }
        }

        // Deliver the next in-order response, if it has arrived.
        if self.reorder.front().is_some_and(Option::is_some) {
            out.response = self.reorder.pop_front().flatten();
            self.parked -= 1;
            self.next_deliver += 1;
        }
        self.cycle += 1;
        out
    }
}

impl Probed for MultiChannelDram {
    fn register_probes(&self, reg: &mut ProbeRegistry) {
        for c in 0..self.channels.len() {
            reg.register(&format!("mcdram.ch{c}.inflight"), ProbeKind::Vector(16));
        }
        reg.register("mcdram.reorder", ProbeKind::Vector(16));
    }

    fn sample_probes(&self, cycle: u64, reg: &mut ProbeRegistry) {
        for (c, q) in self.pending.iter().enumerate() {
            reg.sample_path(cycle, &format!("mcdram.ch{c}.inflight"), q.len() as u64);
        }
        reg.sample_path(cycle, "mcdram.reorder", self.parked as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ChaosProfile;

    fn clean(words: usize, cfg: MultiChannelConfig) -> MultiChannelDram {
        MultiChannelDram::new(words, cfg, FaultPlan::default()).expect("mcdram")
    }

    /// Streams `n` sequential reads through `m`, returning the (cycle,
    /// word) of every delivered response.
    fn stream_reads(m: &mut MultiChannelDram, n: usize, budget: u64) -> Vec<(u64, Word)> {
        let mut next = 0usize;
        let mut got = Vec::new();
        for cycle in 0..budget {
            if next < n {
                m.hold_read(next).unwrap();
            } else {
                m.cancel_read();
            }
            let tick = m.tick();
            if tick.read_accepted.is_some() {
                next += 1;
            }
            if let Some((_, w)) = tick.response {
                got.push((cycle, w));
            }
            if got.len() == n {
                break;
            }
        }
        got
    }

    #[test]
    fn address_map_round_trips() {
        let m = clean(
            64,
            MultiChannelConfig {
                channels: 4,
                interleave_words: 2,
                ..MultiChannelConfig::default()
            },
        );
        // Blocks of 2 words rotate across 4 channels.
        assert_eq!(m.channel_of(0), 0);
        assert_eq!(m.channel_of(1), 0);
        assert_eq!(m.channel_of(2), 1);
        assert_eq!(m.channel_of(7), 3);
        assert_eq!(m.channel_of(8), 0);
        // Local addresses are dense per channel.
        assert_eq!(m.route(0).1, 0);
        assert_eq!(m.route(1).1, 1);
        assert_eq!(m.route(8).1, 2);
        assert_eq!(m.route(9).1, 3);
    }

    #[test]
    fn preload_dump_round_trips_across_channels() {
        for channels in [1usize, 2, 3, 4] {
            let mut m = clean(100, MultiChannelConfig::with_channels(channels));
            let words: Vec<Word> = (0..100).map(|i| i * 13 + 7).collect();
            m.preload(0, &words).unwrap();
            assert_eq!(m.dump(0, 100).unwrap(), words, "{channels} channels");
            // An offset window too.
            assert_eq!(m.dump(25, 50).unwrap(), words[25..75]);
        }
    }

    #[test]
    fn single_channel_is_stream_identical_to_faulty_dram() {
        let words: Vec<Word> = (0..64).map(|i| i * 3 + 1).collect();
        let mut multi = clean(64, MultiChannelConfig::default());
        multi.preload(0, &words).unwrap();
        let multi_got = stream_reads(&mut multi, 64, 4096);

        let mut single = FaultyDram::new(64, DramConfig::default(), FaultPlan::default()).unwrap();
        single.preload(0, &words).unwrap();
        let mut next = 0usize;
        let mut single_got = Vec::new();
        for cycle in 0..4096u64 {
            if next < 64 {
                single.hold_read(next).unwrap();
            } else {
                single.cancel_read();
            }
            let tick = single.tick();
            if tick.read_accepted.is_some() {
                next += 1;
            }
            if let Some((_, w)) = tick.response {
                single_got.push((cycle, w));
            }
            if single_got.len() == 64 {
                break;
            }
        }
        assert_eq!(multi_got, single_got, "cycle-identical delivery");
    }

    #[test]
    fn responses_are_delivered_in_issue_order() {
        let mut m = clean(
            64,
            MultiChannelConfig {
                channels: 4,
                ..MultiChannelConfig::default()
            },
        );
        let words: Vec<Word> = (0..64).map(|i| i + 100).collect();
        m.preload(0, &words).unwrap();
        let got = stream_reads(&mut m, 64, 8192);
        let data: Vec<Word> = got.iter().map(|&(_, w)| w).collect();
        assert_eq!(data, words, "in-order despite channel parallelism");
    }

    #[test]
    fn command_gap_throttles_one_channel_but_not_many() {
        let gap = 4u64;
        let run = |channels: usize| {
            let mut m = clean(
                256,
                MultiChannelConfig {
                    channels,
                    cmd_gap: gap,
                    ..MultiChannelConfig::default()
                },
            );
            let words: Vec<Word> = (0..256).collect();
            m.preload(0, &words).unwrap();
            let got = stream_reads(&mut m, 256, 65536);
            assert_eq!(got.len(), 256);
            got.last().unwrap().0
        };
        let slow = run(1);
        let fast = run(4);
        assert!(
            fast * 2 < slow,
            "4 channels must beat 1 throttled channel: {fast} vs {slow}"
        );
    }

    #[test]
    fn writes_land_on_the_right_channel() {
        let mut m = clean(32, MultiChannelConfig::with_channels(4));
        for addr in 0..32usize {
            m.hold_write(addr, addr as Word * 11).unwrap();
            for _ in 0..64 {
                if m.tick().write_accepted.is_some() {
                    break;
                }
            }
        }
        assert_eq!(
            m.dump(0, 32).unwrap(),
            (0..32).map(|i| i * 11).collect::<Vec<Word>>()
        );
    }

    #[test]
    fn chaos_streams_differ_per_channel_but_are_reproducible() {
        let plan = FaultPlan::new(9, ChaosProfile::jitter());
        let mk = || {
            let mut m = MultiChannelDram::new(128, MultiChannelConfig::with_channels(2), plan)
                .expect("mcdram");
            m.preload(0, &(0..128).collect::<Vec<Word>>()).unwrap();
            stream_reads(&mut m, 128, 65536)
        };
        assert_eq!(mk(), mk(), "same seed, same timing");
    }

    #[test]
    fn one_channel_moves_wide_beats() {
        let wide = MultiChannelConfig {
            channel: DramConfig {
                bus_words: 4,
                ..DramConfig::default()
            },
            ..MultiChannelConfig::default()
        };
        let mut m = clean(16, wide);
        m.preload(0, &(0..16).collect::<Vec<Word>>()).unwrap();
        m.hold_read_beat(4).unwrap();
        let beat = (0..16).find_map(|_| m.tick().wide_response);
        assert_eq!(
            beat.map(|(a, w)| (a, w.to_vec())),
            Some((4, vec![4, 5, 6, 7]))
        );
        m.hold_write_beat(8, &[9, 8, 7]).unwrap();
        assert_eq!(m.tick().write_accepted, Some(8));
        assert_eq!(m.dump(8, 4).unwrap(), vec![9, 8, 7, 11]);
        assert!(m.hold_write_beat(0, &[1; 5]).is_err(), "wider than the bus");
        // A wide beat bypasses the reorder buffer, so it needs one channel.
        let mut two = clean(
            16,
            MultiChannelConfig {
                channels: 2,
                ..wide
            },
        );
        assert!(two.hold_read_beat(0).is_err());
        assert!(two.hold_write_beat(0, &[1, 2]).is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad =
            |cfg: MultiChannelConfig| MultiChannelDram::new(16, cfg, FaultPlan::default()).is_err();
        assert!(bad(MultiChannelConfig {
            channels: 0,
            ..MultiChannelConfig::default()
        }));
        assert!(bad(MultiChannelConfig {
            interleave_words: 0,
            ..MultiChannelConfig::default()
        }));
        assert!(bad(MultiChannelConfig {
            cmd_gap: 0,
            ..MultiChannelConfig::default()
        }));
        let mut m = clean(16, MultiChannelConfig::default());
        assert!(m.hold_read(16).is_err(), "out-of-range address");
    }

    #[test]
    fn aggregate_stats_sum_channels() {
        let mut m = clean(64, MultiChannelConfig::with_channels(4));
        m.preload(0, &(0..64).collect::<Vec<Word>>()).unwrap();
        let got = stream_reads(&mut m, 64, 8192);
        assert_eq!(got.len(), 64);
        assert_eq!(m.stats().reads, 64);
        assert!(
            m.stats().bytes_read > 0,
            "the aggregate carries byte traffic, not just command counts"
        );
        let per_channel: u64 = (0..4).map(|c| m.channel_stats(c).reads).sum();
        assert_eq!(per_channel, 64);
        // Word-interleaved sequential stream spreads evenly.
        assert_eq!(m.channel_stats(0).reads, 16);
        assert_eq!(m.channel_stats(3).reads, 16);
    }
}
