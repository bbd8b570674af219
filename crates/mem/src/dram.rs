//! Off-chip DRAM model with bank/row state and traffic accounting.
//!
//! The paper's argument is that stencil boundary handling done naively
//! "breaks the continuity of streaming" by turning contiguous DRAM access
//! into random and redundant access. This model charges exactly that:
//!
//! * A **sequential** read (address = previous address + 1) always streams
//!   at one word per cycle — the controller hides row activations behind
//!   the burst (hit-under-activate), which is the paper's premise of
//!   "continuous and contiguous streaming from the DRAM".
//! * A **random** read occupies the command path for one cycle on a
//!   row-buffer hit and `1 + row_miss_penalty` cycles on a miss.
//! * Reads and writes travel on independent channels (an AXI-style
//!   controller with separate R/W queues); each channel accepts at most one
//!   command per cycle.
//!
//! Every accepted command is counted so the DRAM-traffic column of the
//! paper's Fig. 2 falls directly out of [`DramStats`].

use std::collections::VecDeque;

use smache_sim::{SimError, SimResult, Word};

/// Timing and geometry parameters of the DRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Bytes per word (the paper's experiments use 32-bit words).
    pub word_bytes: u32,
    /// Words per DRAM row (row-buffer reach).
    pub row_words: usize,
    /// Number of banks; rows interleave across banks round-robin.
    pub num_banks: usize,
    /// Cycles from command acceptance to read data availability.
    pub cas_latency: u64,
    /// Extra command-path occupancy on a row-buffer miss (precharge +
    /// activate), charged to non-sequential accesses only.
    pub row_miss_penalty: u64,
    /// Data-bus width in words per beat: one accepted command moves up to
    /// this many consecutive words per cycle (wide interfaces feed
    /// multi-lane designs). The narrow `hold_read`/`hold_write` API always
    /// moves one word regardless.
    pub bus_words: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        // Calibrated so the 11x11 experiment of the paper lands in the
        // reported regime: at that scale the whole grid fits one row, so
        // baseline random reads are mostly row hits (~1 cycle each) while
        // large grids expose the row-miss cliff. See DESIGN.md.
        DramConfig {
            word_bytes: 4,
            row_words: 256,
            num_banks: 8,
            cas_latency: 3,
            row_miss_penalty: 6,
            bus_words: 1,
        }
    }
}

/// Traffic and behaviour counters accumulated by the model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read commands accepted.
    pub reads: u64,
    /// Write commands accepted.
    pub writes: u64,
    /// Bytes moved from DRAM to the chip.
    pub bytes_read: u64,
    /// Bytes moved from the chip to DRAM.
    pub bytes_written: u64,
    /// Random (non-sequential) reads that hit the open row.
    pub row_hits: u64,
    /// Random reads that missed the open row.
    pub row_misses: u64,
    /// Reads recognised as sequential streaming.
    pub sequential_reads: u64,
    /// Cycles a read request was pending but the command path was busy.
    pub read_stall_cycles: u64,
}

impl DramStats {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Total traffic in the paper's KB (1000-byte) units.
    pub fn total_kb(&self) -> f64 {
        self.total_bytes() as f64 / 1000.0
    }
}

/// Most words one wide command moves: the widest bus a [`Dram`] takes.
pub const MAX_BEAT_WORDS: usize = 16;

/// The up to [`MAX_BEAT_WORDS`] consecutive words one wide command moves,
/// held inline so that holding, issuing and delivering a beat allocate
/// nothing. Reads as a slice of its words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideBeat {
    words: [Word; MAX_BEAT_WORDS],
    len: usize,
}

impl WideBeat {
    /// A beat of `words`. Callers check the bus width first: more than
    /// [`MAX_BEAT_WORDS`] words panic.
    fn from_slice(words: &[Word]) -> WideBeat {
        let mut beat = WideBeat {
            words: [0; MAX_BEAT_WORDS],
            len: words.len(),
        };
        beat.words[..words.len()].copy_from_slice(words);
        beat
    }
}

impl std::ops::Deref for WideBeat {
    type Target = [Word];

    fn deref(&self) -> &[Word] {
        &self.words[..self.len]
    }
}

impl IntoIterator for WideBeat {
    type Item = Word;
    type IntoIter = std::iter::Take<std::array::IntoIter<Word, MAX_BEAT_WORDS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.words.into_iter().take(self.len)
    }
}

/// Report of what the DRAM did during one clock tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramTick {
    /// Address of the read command accepted this cycle, if any.
    pub read_accepted: Option<usize>,
    /// Address of the write command accepted this cycle, if any.
    pub write_accepted: Option<usize>,
    /// A read response (address, data) delivered this cycle, if any.
    pub response: Option<(usize, Word)>,
    /// A wide read response (base address, words) delivered this cycle, if
    /// any (only produced for commands issued via `hold_read_wide`).
    pub wide_response: Option<(usize, WideBeat)>,
}

/// The DRAM device plus its controller front-end.
pub struct Dram {
    config: DramConfig,
    storage: Vec<Word>,
    /// Open row per bank (None = all banks precharged).
    open_rows: Vec<Option<usize>>,
    /// Cycle (local clock) at which the read command path frees up.
    read_busy_until: u64,
    /// Cycle at which the write command path frees up.
    write_busy_until: u64,
    /// One past the last word the previous read command covered
    /// (sequential-burst detection for both narrow and wide reads).
    last_read_end: Option<usize>,
    /// In-flight read responses: (deliver_at_cycle, addr, data).
    inflight: VecDeque<(u64, usize, Word)>,
    /// In-flight wide responses: (deliver_at_cycle, base addr, words).
    inflight_wide: VecDeque<(u64, usize, WideBeat)>,
    staged_read: Option<usize>,
    staged_read_wide: Option<usize>,
    staged_write: Option<(usize, Word)>,
    staged_write_wide: Option<(usize, WideBeat)>,
    cycle: u64,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM of `words` zeroed words.
    pub fn new(words: usize, config: DramConfig) -> SimResult<Self> {
        if words == 0 {
            return Err(SimError::Config("dram: size must be positive".into()));
        }
        if config.num_banks == 0 || config.row_words == 0 {
            return Err(SimError::Config(
                "dram: banks and row_words must be positive".into(),
            ));
        }
        if config.bus_words > MAX_BEAT_WORDS {
            return Err(SimError::Config(format!(
                "dram: a {}-word bus exceeds the {MAX_BEAT_WORDS}-word beat",
                config.bus_words
            )));
        }
        Ok(Dram {
            storage: vec![0; words],
            open_rows: vec![None; config.num_banks],
            read_busy_until: 0,
            write_busy_until: 0,
            last_read_end: None,
            inflight: VecDeque::new(),
            inflight_wide: VecDeque::new(),
            staged_read: None,
            staged_read_wide: None,
            staged_write: None,
            staged_write_wide: None,
            cycle: 0,
            stats: DramStats::default(),
            config,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// True when sized zero (never: constructor rejects it).
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// The row currently open in `bank`'s row buffer, or `None` when the
    /// bank is precharged (or out of range). Exposed for row-buffer-state
    /// telemetry probes.
    pub fn open_row(&self, bank: usize) -> Option<usize> {
        self.open_rows.get(bank).copied().flatten()
    }

    /// Resets the statistics (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Returns the device to its power-on timing state: precharges every
    /// bank, forgets burst detection and cancels all staged and in-flight
    /// traffic. Contents and statistics are kept. Without this, a run
    /// following another starts with warm row buffers and finishes a few
    /// cycles earlier — breaking run-to-run reproducibility.
    pub fn precharge_all(&mut self) {
        self.open_rows = vec![None; self.config.num_banks];
        self.read_busy_until = 0;
        self.write_busy_until = 0;
        self.last_read_end = None;
        self.inflight.clear();
        self.inflight_wide.clear();
        self.staged_read = None;
        self.staged_read_wide = None;
        self.staged_write = None;
        self.staged_write_wide = None;
        self.cycle = 0;
    }

    /// Loads initial contents starting at `base`.
    pub fn preload(&mut self, base: usize, words: &[Word]) -> SimResult<()> {
        let end = base
            .checked_add(words.len())
            .ok_or_else(|| SimError::Config("dram: preload overflow".into()))?;
        if end > self.storage.len() {
            return Err(SimError::AddressOutOfRange {
                memory: "dram".into(),
                addr: end - 1,
                depth: self.storage.len(),
            });
        }
        self.storage[base..end].copy_from_slice(words);
        Ok(())
    }

    /// Copies out `len` words starting at `base` (testbench readback).
    pub fn dump(&self, base: usize, len: usize) -> SimResult<Vec<Word>> {
        let end = base
            .checked_add(len)
            .ok_or_else(|| SimError::Config("dram: dump overflow".into()))?;
        if end > self.storage.len() {
            return Err(SimError::AddressOutOfRange {
                memory: "dram".into(),
                addr: end.saturating_sub(1),
                depth: self.storage.len(),
            });
        }
        Ok(self.storage[base..end].to_vec())
    }

    /// True when a read command staged this cycle will be accepted at tick.
    pub fn read_path_free(&self) -> bool {
        self.cycle >= self.read_busy_until
    }

    /// True when a write command staged this cycle will be accepted at tick.
    pub fn write_path_free(&self) -> bool {
        self.cycle >= self.write_busy_until
    }

    /// Holds a read request. Idempotent; the request is accepted at the
    /// next tick on which the read path is free (held across cycles, like
    /// a valid signal held until ready).
    pub fn hold_read(&mut self, addr: usize) -> SimResult<()> {
        if addr >= self.storage.len() {
            return Err(SimError::AddressOutOfRange {
                memory: "dram".into(),
                addr,
                depth: self.storage.len(),
            });
        }
        self.staged_read = Some(addr);
        self.staged_read_wide = None;
        Ok(())
    }

    /// Withdraws a held read request.
    pub fn cancel_read(&mut self) {
        self.staged_read = None;
        self.staged_read_wide = None;
    }

    /// Holds a write request (accepted when the write path is free).
    pub fn hold_write(&mut self, addr: usize, data: Word) -> SimResult<()> {
        if addr >= self.storage.len() {
            return Err(SimError::AddressOutOfRange {
                memory: "dram".into(),
                addr,
                depth: self.storage.len(),
            });
        }
        self.staged_write = Some((addr, data));
        Ok(())
    }

    /// Withdraws a held write request.
    pub fn cancel_write(&mut self) {
        self.staged_write = None;
        self.staged_write_wide = None;
    }

    /// Holds a wide read: one command that, when accepted, returns up to
    /// `bus_words` consecutive words starting at `addr` (clamped at the
    /// end of memory). Mutually exclusive with a narrow held read.
    pub fn hold_read_wide(&mut self, addr: usize) -> SimResult<()> {
        if addr >= self.storage.len() {
            return Err(SimError::AddressOutOfRange {
                memory: "dram".into(),
                addr,
                depth: self.storage.len(),
            });
        }
        self.staged_read = None;
        self.staged_read_wide = Some(addr);
        Ok(())
    }

    /// Holds a wide write of `words` starting at `addr` (one command).
    pub fn hold_write_wide(&mut self, addr: usize, words: &[Word]) -> SimResult<()> {
        if words.is_empty() || words.len() > self.config.bus_words {
            return Err(SimError::Config(format!(
                "dram: wide write of {} words exceeds the {}-word bus",
                words.len(),
                self.config.bus_words
            )));
        }
        let end = addr
            .checked_add(words.len())
            .filter(|&e| e <= self.storage.len());
        if end.is_none() {
            return Err(SimError::AddressOutOfRange {
                memory: "dram".into(),
                addr: addr + words.len() - 1,
                depth: self.storage.len(),
            });
        }
        self.staged_write = None;
        self.staged_write_wide = Some((addr, WideBeat::from_slice(words)));
        Ok(())
    }

    fn row_of(&self, addr: usize) -> usize {
        addr / self.config.row_words
    }

    fn bank_of(&self, row: usize) -> usize {
        row % self.config.num_banks
    }

    /// Advances one cycle: accepts held commands if their paths are free,
    /// applies writes, delivers at most one due read response.
    pub fn tick(&mut self) -> DramTick {
        let mut report = DramTick::default();

        // Deliver a due response (in order, per queue).
        if let Some(&(due, addr, data)) = self.inflight.front() {
            if due <= self.cycle {
                self.inflight.pop_front();
                report.response = Some((addr, data));
            }
        }
        if let Some(&(due, _, _)) = self.inflight_wide.front() {
            if due <= self.cycle {
                let (_, addr, words) = self.inflight_wide.pop_front().expect("checked front");
                report.wide_response = Some((addr, words));
            }
        }

        // Read command path (narrow or wide; at most one staged).
        let staged = if let Some(addr) = self.staged_read {
            Some((addr, 1usize, false))
        } else {
            self.staged_read_wide.map(|addr| {
                (
                    addr,
                    self.config.bus_words.min(self.storage.len() - addr),
                    true,
                )
            })
        };
        if let Some((addr, width, wide)) = staged {
            if self.cycle >= self.read_busy_until {
                let sequential = self.last_read_end == Some(addr);
                let row = self.row_of(addr);
                let bank = self.bank_of(row);
                let occupancy = if sequential {
                    self.stats.sequential_reads += 1;
                    1
                } else if self.open_rows[bank] == Some(row) {
                    self.stats.row_hits += 1;
                    1
                } else {
                    self.stats.row_misses += 1;
                    1 + self.config.row_miss_penalty
                };
                self.open_rows[bank] = Some(row);
                self.read_busy_until = self.cycle + occupancy;
                let due = self.cycle + occupancy - 1 + self.config.cas_latency;
                if wide {
                    self.inflight_wide.push_back((
                        due,
                        addr,
                        WideBeat::from_slice(&self.storage[addr..addr + width]),
                    ));
                    self.staged_read_wide = None;
                } else {
                    self.inflight.push_back((due, addr, self.storage[addr]));
                    self.staged_read = None;
                }
                self.last_read_end = Some(addr + width);
                self.stats.reads += 1;
                self.stats.bytes_read += self.config.word_bytes as u64 * width as u64;
                report.read_accepted = Some(addr);
            } else {
                self.stats.read_stall_cycles += 1;
            }
        }

        // Write command path (independent channel; write data applied
        // immediately on acceptance — completion latency is invisible to
        // the producer side).
        if let Some((addr, data)) = self.staged_write {
            if self.cycle >= self.write_busy_until {
                self.storage[addr] = data;
                self.write_busy_until = self.cycle + 1;
                self.stats.writes += 1;
                self.stats.bytes_written += self.config.word_bytes as u64;
                self.staged_write = None;
                report.write_accepted = Some(addr);
            }
        } else if let Some((addr, words)) = self.staged_write_wide {
            if self.cycle >= self.write_busy_until {
                let width = words.len();
                self.storage[addr..addr + width].copy_from_slice(&words);
                self.write_busy_until = self.cycle + 1;
                self.stats.writes += 1;
                self.stats.bytes_written += self.config.word_bytes as u64 * width as u64;
                self.staged_write_wide = None;
                report.write_accepted = Some(addr);
            }
        }

        self.cycle += 1;
        report
    }

    /// Local clock (number of ticks so far).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(words: usize) -> Dram {
        Dram::new(words, DramConfig::default()).unwrap()
    }

    /// Runs ticks until a response arrives, returning (cycles_waited, addr, data).
    fn next_response(d: &mut Dram, budget: u64) -> (u64, usize, Word) {
        for i in 0..budget {
            let r = d.tick();
            if let Some((a, v)) = r.response {
                return (i, a, v);
            }
        }
        panic!("no response within {budget} cycles");
    }

    #[test]
    fn read_roundtrip_with_cas_latency() {
        let mut d = dram(64);
        d.preload(0, &[5, 6, 7]).unwrap();
        d.hold_read(1).unwrap();
        let (waited, addr, data) = next_response(&mut d, 20);
        assert_eq!((addr, data), (1, 6));
        // First read misses the (closed) row: occupancy 7, then CAS 3.
        let expected =
            1 + DramConfig::default().row_miss_penalty + DramConfig::default().cas_latency - 1;
        assert_eq!(waited, expected);
    }

    #[test]
    fn sequential_stream_sustains_one_word_per_cycle() {
        let mut d = dram(1024);
        let data: Vec<Word> = (0..512).collect();
        d.preload(0, &data).unwrap();
        let mut received = Vec::new();
        let mut next_addr = 0usize;
        let mut cycles = 0u64;
        while received.len() < 512 && cycles < 2000 {
            if next_addr < 512 {
                d.hold_read(next_addr).unwrap();
            }
            let r = d.tick();
            if r.read_accepted.is_some() {
                next_addr += 1;
            }
            if let Some((_, v)) = r.response {
                received.push(v);
            }
            cycles += 1;
        }
        assert_eq!(received, data);
        // 512 words at 1/cycle + initial row miss + CAS: small constant slack.
        assert!(cycles <= 512 + 16, "streaming took {cycles} cycles");
    }

    #[test]
    fn random_row_misses_are_penalised() {
        let cfg = DramConfig::default();
        let mut d = Dram::new(cfg.row_words * cfg.num_banks * 4, cfg).unwrap();
        // Alternate between two rows mapping to the SAME bank:
        // rows 0 and num_banks both map to bank 0.
        let a0 = 0usize;
        let a1 = cfg.row_words * cfg.num_banks;
        let mut accepted = 0;
        let mut cycles = 0u64;
        while accepted < 10 && cycles < 1000 {
            let addr = if accepted % 2 == 0 { a0 } else { a1 };
            d.hold_read(addr).unwrap();
            let r = d.tick();
            if r.read_accepted.is_some() {
                accepted += 1;
            }
            cycles += 1;
        }
        assert_eq!(accepted, 10);
        assert_eq!(d.stats().row_misses, 10, "every alternating access misses");
        // Accepts are spaced by the full occupancy (1 + penalty); the last
        // accept lands at cycle 9*(1+penalty), so the loop runs one more.
        assert!(cycles > 9 * (1 + cfg.row_miss_penalty), "cycles={cycles}");
    }

    #[test]
    fn row_hits_after_first_access_in_same_row() {
        let mut d = dram(1024);
        // Non-sequential but same-row accesses: first miss, then hits.
        for (i, addr) in [10usize, 20, 14, 30].iter().enumerate() {
            d.hold_read(*addr).unwrap();
            // Tick until accepted.
            loop {
                let r = d.tick();
                if r.read_accepted.is_some() {
                    break;
                }
            }
            if i == 0 {
                assert_eq!(d.stats().row_misses, 1);
            }
        }
        assert_eq!(d.stats().row_misses, 1);
        assert_eq!(d.stats().row_hits, 3);
    }

    #[test]
    fn writes_travel_on_independent_channel() {
        let mut d = dram(64);
        // Saturate the read path with a row miss, then write concurrently.
        d.hold_read(0).unwrap();
        d.tick();
        d.hold_write(5, 99).unwrap();
        let r = d.tick();
        assert_eq!(
            r.write_accepted,
            Some(5),
            "write accepted while read path busy"
        );
        assert_eq!(d.dump(5, 1).unwrap(), vec![99]);
    }

    #[test]
    fn held_request_retries_until_path_free() {
        let mut d = dram(64);
        d.hold_read(0).unwrap();
        d.tick(); // accepted, path busy for miss penalty
        d.hold_read(1).unwrap();
        let mut waits = 0;
        loop {
            let r = d.tick();
            if r.read_accepted == Some(1) {
                break;
            }
            waits += 1;
            assert!(waits < 20);
        }
        assert!(waits > 0, "second read must wait out the first's occupancy");
        assert!(d.stats().read_stall_cycles > 0);
    }

    #[test]
    fn traffic_accounting_in_bytes() {
        let mut d = dram(64);
        d.hold_read(0).unwrap();
        while d.tick().read_accepted.is_none() {}
        d.hold_write(1, 7).unwrap();
        while d.tick().write_accepted.is_none() {}
        assert_eq!(d.stats().bytes_read, 4);
        assert_eq!(d.stats().bytes_written, 4);
        assert_eq!(d.stats().total_bytes(), 8);
        assert!((d.stats().total_kb() - 0.008).abs() < 1e-12);
    }

    #[test]
    fn responses_are_in_order() {
        let mut d = dram(64);
        d.preload(0, &[100, 101, 102, 103]).unwrap();
        let mut next = 0usize;
        let mut got = Vec::new();
        for _ in 0..40 {
            if next < 4 {
                d.hold_read(next).unwrap();
            }
            let r = d.tick();
            if r.read_accepted.is_some() {
                next += 1;
            }
            if let Some((a, v)) = r.response {
                got.push((a, v));
            }
        }
        assert_eq!(got, vec![(0, 100), (1, 101), (2, 102), (3, 103)]);
    }

    #[test]
    fn bounds_and_config_validation() {
        assert!(Dram::new(0, DramConfig::default()).is_err());
        let mut d = dram(8);
        assert!(d.hold_read(8).is_err());
        assert!(d.hold_write(9, 0).is_err());
        assert!(d.preload(6, &[1, 2, 3]).is_err());
        assert!(d.dump(7, 2).is_err());
        let bad = DramConfig {
            num_banks: 0,
            ..DramConfig::default()
        };
        assert!(Dram::new(8, bad).is_err());
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut d = dram(8);
        d.hold_read(0).unwrap();
        while d.tick().read_accepted.is_none() {}
        assert!(d.stats().reads > 0);
        d.reset_stats();
        assert_eq!(d.stats(), &DramStats::default());
    }

    #[test]
    fn cancel_withdraws_requests() {
        let mut d = dram(8);
        d.hold_read(0).unwrap();
        d.cancel_read();
        d.hold_write(0, 1).unwrap();
        d.cancel_write();
        let r = d.tick();
        assert_eq!(r.read_accepted, None);
        assert_eq!(r.write_accepted, None);
    }

    #[test]
    fn wide_reads_move_bus_words_per_command() {
        let cfg = DramConfig {
            bus_words: 4,
            ..DramConfig::default()
        };
        let mut d = Dram::new(64, cfg).unwrap();
        let init: Vec<Word> = (0..64u64).map(|i| i * 10).collect();
        d.preload(0, &init).unwrap();

        let mut got: Vec<Word> = Vec::new();
        let mut next_addr = 0usize;
        let mut cycles = 0u64;
        while got.len() < 16 && cycles < 200 {
            if next_addr < 16 {
                d.hold_read_wide(next_addr).unwrap();
            }
            let r = d.tick();
            if r.read_accepted.is_some() {
                next_addr += 4;
            }
            if let Some((base, words)) = r.wide_response {
                assert_eq!(base % 4, 0);
                assert_eq!(words.len(), 4);
                got.extend(words);
            }
            cycles += 1;
        }
        assert_eq!(got, init[..16].to_vec());
        // 4 commands, 16 words, sequential after the first.
        assert_eq!(d.stats().reads, 4);
        assert_eq!(d.stats().bytes_read, 64);
        assert_eq!(d.stats().sequential_reads, 3);
        assert!(cycles <= 4 + 12, "wide streaming is one command per cycle");
    }

    #[test]
    fn wide_read_clamps_at_end_of_memory() {
        let cfg = DramConfig {
            bus_words: 8,
            ..DramConfig::default()
        };
        let mut d = Dram::new(10, cfg).unwrap();
        d.preload(0, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]).unwrap();
        d.hold_read_wide(8).unwrap();
        let mut words = None;
        for _ in 0..20 {
            if let Some((_, w)) = d.tick().wide_response {
                words = Some(w);
                break;
            }
        }
        assert_eq!(
            words.unwrap().to_vec(),
            vec![9, 10],
            "clamped to the remaining words"
        );
    }

    #[test]
    fn wide_writes_land_in_one_command() {
        let cfg = DramConfig {
            bus_words: 4,
            ..DramConfig::default()
        };
        let mut d = Dram::new(16, cfg).unwrap();
        d.hold_write_wide(4, &[9, 8, 7, 6]).unwrap();
        while d.tick().write_accepted.is_none() {}
        assert_eq!(d.dump(4, 4).unwrap(), vec![9, 8, 7, 6]);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().bytes_written, 16);
        // Over-width writes rejected.
        assert!(d.hold_write_wide(0, &[1, 2, 3, 4, 5]).is_err());
        assert!(
            d.hold_write_wide(14, &[1, 2, 3]).is_err(),
            "runs past the end"
        );
    }

    #[test]
    fn narrow_and_wide_sequential_detection_compose() {
        let cfg = DramConfig {
            bus_words: 4,
            ..DramConfig::default()
        };
        let mut d = Dram::new(64, cfg).unwrap();
        // Wide read [0..4), then narrow read of 4: sequential.
        d.hold_read_wide(0).unwrap();
        while d.tick().read_accepted.is_none() {}
        d.hold_read(4).unwrap();
        while d.tick().read_accepted.is_none() {}
        assert_eq!(d.stats().sequential_reads, 1);
        // Then wide read of 5: sequential again.
        d.hold_read_wide(5).unwrap();
        while d.tick().read_accepted.is_none() {}
        assert_eq!(d.stats().sequential_reads, 2);
    }
}
