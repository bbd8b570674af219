//! Control-schedule capture and replay primitives.
//!
//! The paper's central observation — a stencil's memory-access pattern is a
//! *static* function of the spec — applies to the simulator too: for a given
//! (plan, system config, kernel, instance count), every control-plane
//! decision the cycle-accurate model makes (FSM transitions, buffer
//! addresses, DRAM issue cycles, stall/valid handshakes) is independent of
//! the data flowing through the datapath. That makes the control plane
//! *recordable*: run the full simulation once, capture its per-cycle trace
//! and the per-element gather pattern, and subsequent runs of the same spec
//! can **replay** the schedule — indexed buffer moves plus the kernel, no
//! delta settling, no module dispatch — with bit-exact outputs and cycle
//! counts.
//!
//! This module holds the engine-agnostic pieces:
//!
//! * [`SlotSource`] / [`GatherTable`] — the per-element read pattern: for
//!   each output element, where each stencil-shape value comes from (a
//!   current-instance grid index, a boundary constant, or a hole masked out
//!   of the kernel), lowered once into fixed-arity rows of indices into an
//!   extended grid.
//! * [`ControlTrace`] — the packed per-cycle control-plane record
//!   ([`CycleRecord`]: FSM phase plus handshake/stall flags) with the
//!   derived totals that replay reports instead of re-simulating.
//! * [`ReplayUnsupported`] — the typed refusal reasons. Replay is only
//!   sound while control stays data-independent; anything that breaks that
//!   (fault injection, stall fuzzing, external backpressure, attached
//!   observers) must refuse, never silently diverge.
//! * [`ScheduleCache`] — a byte-budgeted LRU for captured schedules keyed
//!   by [`fingerprint128`](crate::hash::fingerprint128) of the canonical
//!   spec text.
//!
//! The Smache-specific capture/replay executor lives in
//! `smache_core::system::replay`; `smache serve` stacks a [`ScheduleCache`]
//! behind its result cache so differing-seed requests for one spec hit the
//! fast path.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::Word;

/// Where one stencil-shape slot of one output element reads from during
/// replay. Derived once per spec from the buffer plan; identical for every
/// instance because each instance's input is the previous instance's output
/// and all architectural reads (stream taps and static banks alike) resolve
/// to current-instance grid indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotSource {
    /// Read the current-instance input grid at this flat index.
    Grid(u32),
    /// A boundary constant, injected by the plan.
    Const(Word),
    /// Outside the grid under an open boundary: contributes nothing; the
    /// kernel mask bit for this slot is cleared.
    Hole,
}

/// The per-element gather pattern, lowered once into fixed-arity rows.
///
/// Replay reads every slot from one row of an *extended grid*: rows
/// `0..n` are the current instance's grid cells, then comes one row per
/// distinct boundary constant, then a final zero row that boundary holes
/// read. Element `e`'s slots are the `arity` row indices
/// [`GatherTable::row`] returns, and its kernel mask keeps bit `p` set
/// when slot `p` is present. The lowering happens once, slot by slot
/// through [`GatherTable::builder`], when an engine is built or a schedule
/// is loaded from the store, so a replay indexes and never matches on a
/// [`SlotSource`]. [`GatherTable::source`] recovers the source a row index
/// stands for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GatherTable {
    arity: usize,
    /// `arity` extended-grid row indices per element, element-major.
    rows: Vec<u32>,
    /// Kernel mask per element.
    masks: Vec<u64>,
    /// The distinct boundary constants, in first-use order; constant `c`
    /// lives in extended row `n + c`.
    consts: Vec<Word>,
}

impl GatherTable {
    /// Most slots a row may have: kernel masks are `u64`.
    pub const MAX_ARITY: usize = 64;

    /// Starts lowering the gather pattern of `n` elements with `arity`
    /// slots each: push every slot in element-major order with
    /// [`GatherRows::push`], then seal the rows with
    /// [`GatherRows::finish`]. Fails when `arity` exceeds
    /// [`GatherTable::MAX_ARITY`].
    pub fn builder(n: usize, arity: usize) -> Result<GatherRows, String> {
        if arity > Self::MAX_ARITY {
            return Err(format!("gather arity {arity} exceeds {}", Self::MAX_ARITY));
        }
        Ok(GatherRows {
            n,
            arity,
            rows: Vec::new(),
            consts: Vec::new(),
            const_rows: BTreeMap::new(),
            holes: false,
        })
    }

    /// Number of elements covered by the table.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// True when the table covers no elements.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Slots per element.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Rows of the extended grid: the grid cells, one row per constant,
    /// and the zero row holes read.
    fn extended_len(&self) -> usize {
        self.len() + self.consts.len() + 1
    }

    /// Lays the lanes' grids (one value per element each) out as the
    /// extended grid in structure-of-arrays form: row `r`'s word for lane
    /// `l` lives at `r * lanes + l`. Each constant row holds its constant
    /// in every lane and the hole row is zero. With one lane this is the
    /// grid, the constants, then a zero.
    pub fn extend(&self, grids: &[&[Word]]) -> Vec<Word> {
        let (n, lanes) = (self.len(), grids.len());
        let mut ext = vec![0; self.extended_len() * lanes];
        for (l, grid) in grids.iter().enumerate() {
            for (e, &w) in grid[..n].iter().enumerate() {
                ext[e * lanes + l] = w;
            }
        }
        for (c, &v) in self.consts.iter().enumerate() {
            ext[(n + c) * lanes..(n + c + 1) * lanes].fill(v);
        }
        ext
    }

    /// The gather row of element `e`: its `arity` extended-grid row
    /// indices and its kernel mask.
    #[inline]
    pub fn row(&self, e: usize) -> (&[u32], u64) {
        (
            &self.rows[e * self.arity..(e + 1) * self.arity],
            self.masks[e],
        )
    }

    /// The source slot `p` of element `e` reads, recovered from its row
    /// index.
    pub fn source(&self, e: usize, p: usize) -> SlotSource {
        self.row_source(self.rows[e * self.arity + p])
    }

    /// The source extended-grid row `r` stands for.
    #[inline]
    pub fn row_source(&self, r: u32) -> SlotSource {
        let r = r as usize;
        match r.checked_sub(self.len()) {
            None => SlotSource::Grid(r as u32),
            Some(c) if c < self.consts.len() => SlotSource::Const(self.consts[c]),
            Some(_) => SlotSource::Hole,
        }
    }

    /// The sources of element `e`'s slots, in slot order.
    pub fn slots(&self, e: usize) -> impl Iterator<Item = SlotSource> + '_ {
        (0..self.arity).map(move |p| self.source(e, p))
    }

    /// Approximate heap footprint in bytes (cache accounting).
    pub fn approx_bytes(&self) -> usize {
        self.rows.len() * 4 + self.masks.len() * 8 + self.consts.len() * 8
    }
}

/// A [`GatherTable`] being lowered one slot at a time, element-major.
///
/// A slot is written straight into its `u32` row: a grid cell is its own
/// index, a boundary constant gets its row on first use, and a hole is
/// pointed at the zero row once the constant count (and so the hole
/// row's index) is known.
#[derive(Debug)]
pub struct GatherRows {
    n: usize,
    arity: usize,
    rows: Vec<u32>,
    consts: Vec<Word>,
    const_rows: BTreeMap<Word, u32>,
    /// Some slot is a hole, written as [`GatherRows::HOLE`] until
    /// [`GatherRows::finish`].
    holes: bool,
}

impl GatherRows {
    /// Placeholder row of a hole before the hole row is known. No grid or
    /// constant row can take it: both lie below the hole row, which must
    /// itself fit a `u32`.
    const HOLE: u32 = u32::MAX;

    /// Reserves room for `slots` more slots.
    pub fn reserve(&mut self, slots: usize) {
        self.rows.reserve(slots);
    }

    /// Lowers the next slot. Fails, naming the fault, when a grid index
    /// escapes the grid or a constant row outgrows `u32` indices.
    pub fn push(&mut self, source: SlotSource) -> Result<(), String> {
        let row = match source {
            SlotSource::Grid(i) if (i as usize) < self.n => i,
            SlotSource::Grid(i) => {
                return Err(format!(
                    "grid index {i} escapes the {}-element grid",
                    self.n
                ))
            }
            SlotSource::Const(v) => match self.const_rows.get(&v) {
                Some(&row) => row,
                None => {
                    let row = u32::try_from(self.n + self.consts.len())
                        .ok()
                        .filter(|&r| r != Self::HOLE)
                        .ok_or_else(|| {
                            format!(
                                "constant row {} exceeds u32 indices",
                                self.n + self.consts.len()
                            )
                        })?;
                    self.consts.push(v);
                    self.const_rows.insert(v, row);
                    row
                }
            },
            SlotSource::Hole => {
                self.holes = true;
                Self::HOLE
            }
        };
        self.rows.push(row);
        Ok(())
    }

    /// Seals the rows with their kernel masks, one per element. Fails
    /// when the pushed slots do not form `n` rows of `arity`, `masks` does
    /// not cover `n` elements, or the extended grid outgrows `u32` row
    /// indices.
    pub fn finish(mut self, masks: Vec<u64>) -> Result<GatherTable, String> {
        let n = self.n;
        if masks.len() != n {
            return Err(format!("{} masks for {n} elements", masks.len()));
        }
        if Some(self.rows.len()) != n.checked_mul(self.arity) {
            return Err(format!(
                "{} slot sources do not form {n} rows of {}",
                self.rows.len(),
                self.arity
            ));
        }
        let hole = n + self.consts.len();
        if hole > u32::MAX as usize {
            return Err(format!(
                "extended grid of {} rows exceeds u32 indices",
                hole + 1
            ));
        }
        if self.holes {
            for r in self.rows.iter_mut().filter(|r| **r == Self::HOLE) {
                *r = hole as u32;
            }
        }
        Ok(GatherTable {
            arity: self.arity,
            rows: self.rows,
            masks,
            consts: self.consts,
        })
    }
}

/// One cycle of the recorded control plane, packed into a byte:
/// bits 0–1 the FSM phase code, bits 2–7 the handshake/stall flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleRecord(pub u8);

impl CycleRecord {
    /// Mask of the two phase bits (`warmup`/`streaming`/`done` encoding).
    pub const PHASE_MASK: u8 = 0b11;
    /// The datapath froze this cycle (any stall cause).
    pub const STALLED: u8 = 1 << 2;
    /// FSM-2 emitted one stencil tuple into the kernel pipeline.
    pub const EMITTED: u8 = 1 << 3;
    /// The observed stream transferred a beat (a kernel result drained).
    pub const TRANSFER: u8 = 1 << 4;
    /// The FSM-1 warm-up counter advanced this cycle.
    pub const WARMUP: u8 = 1 << 5;
    /// FSM-2 wanted to shift but no response word was available.
    pub const STARVED: u8 = 1 << 6;
    /// A DRAM read response was routed this cycle.
    pub const RESPONDED: u8 = 1 << 7;

    /// Packs a record from the phase code and the flag bits.
    pub fn pack(phase: u8, flags: u8) -> CycleRecord {
        CycleRecord((phase & Self::PHASE_MASK) | (flags & !Self::PHASE_MASK))
    }

    /// The FSM phase code recorded for this cycle.
    pub fn phase(self) -> u8 {
        self.0 & Self::PHASE_MASK
    }

    /// True when `flag` (one of the bit constants) is set.
    pub fn has(self, flag: u8) -> bool {
        self.0 & flag != 0
    }
}

/// Totals derived by scanning a [`ControlTrace`] — the replay-side source
/// of the cycle statistics a full simulation counts as it goes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Total recorded cycles.
    pub cycles: u64,
    /// Cycles with [`CycleRecord::STALLED`] set.
    pub stall_cycles: u64,
    /// Cycles with [`CycleRecord::TRANSFER`] set.
    pub transfers: u64,
    /// Cycles with [`CycleRecord::WARMUP`] set.
    pub warmup_cycles: u64,
    /// Cycles with [`CycleRecord::EMITTED`] set.
    pub emitted: u64,
}

/// The per-cycle control-plane trace of one captured run.
#[derive(Debug, Clone, Default)]
pub struct ControlTrace {
    records: Vec<CycleRecord>,
}

impl ControlTrace {
    /// Creates an empty trace.
    pub fn new() -> ControlTrace {
        ControlTrace::default()
    }

    /// Rebuilds a trace from its recorded cycles — the inverse of
    /// [`ControlTrace::records`], used when deserialising a persisted
    /// schedule.
    pub fn from_records(records: Vec<CycleRecord>) -> ControlTrace {
        ControlTrace { records }
    }

    /// Appends one cycle's record.
    #[inline]
    pub fn record(&mut self, record: CycleRecord) {
        self.records.push(record);
    }

    /// Releases the record buffer's spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.records.shrink_to_fit();
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recorded cycles in order.
    pub fn records(&self) -> &[CycleRecord] {
        &self.records
    }

    /// Scans the trace into its totals.
    pub fn totals(&self) -> TraceTotals {
        let mut t = TraceTotals {
            cycles: self.records.len() as u64,
            ..TraceTotals::default()
        };
        for r in &self.records {
            t.stall_cycles += u64::from(r.has(CycleRecord::STALLED));
            t.transfers += u64::from(r.has(CycleRecord::TRANSFER));
            t.warmup_cycles += u64::from(r.has(CycleRecord::WARMUP));
            t.emitted += u64::from(r.has(CycleRecord::EMITTED));
        }
        t
    }

    /// Approximate heap footprint in bytes (cache accounting).
    pub fn approx_bytes(&self) -> usize {
        self.records.len()
    }
}

/// Why a capture or replay refused to run.
///
/// Replay is sound exactly while the control plane is a pure function of
/// the spec. Each variant names a way that stops being true (or a way the
/// recorded schedule fails to match the request). Refusal is the *typed
/// fallback path*: callers run the full simulation instead — replay never
/// silently diverges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayUnsupported {
    /// An active *corrupting* fault-injection plan couples the outcome to
    /// the data (latency-only plans are data-independent and replayable).
    FaultPlan,
    /// An external stall schedule (stall fuzzing) drives backpressure.
    StallSchedule,
    /// Telemetry is attached; replay produces no telemetry samples.
    Telemetry,
    /// A result tap observes the datapath mid-run.
    ResultTap,
    /// The schedule was recorded for a different kernel.
    KernelMismatch {
        /// Kernel name the schedule was captured with.
        expected: String,
        /// Kernel name the replay was asked to run.
        actual: String,
    },
    /// The input length does not match the captured grid size.
    InputLength {
        /// Grid length the schedule was captured for.
        expected: usize,
        /// Input length supplied to replay.
        actual: usize,
    },
    /// The instance count does not match the captured schedule.
    InstancesMismatch {
        /// Instance count the schedule was captured for.
        expected: u64,
        /// Instance count supplied to replay.
        actual: u64,
    },
    /// Capture self-verification failed: replaying the capture input did
    /// not reproduce the full simulation bit-exactly. Never expected; the
    /// typed refusal keeps the failure loud and the fallback safe.
    ScheduleDivergence {
        /// What diverged.
        detail: String,
    },
}

impl ReplayUnsupported {
    /// Short machine-friendly label (stats, log lines, test assertions).
    pub fn label(&self) -> &'static str {
        match self {
            ReplayUnsupported::FaultPlan => "fault_plan",
            ReplayUnsupported::StallSchedule => "stall_schedule",
            ReplayUnsupported::Telemetry => "telemetry",
            ReplayUnsupported::ResultTap => "result_tap",
            ReplayUnsupported::KernelMismatch { .. } => "kernel_mismatch",
            ReplayUnsupported::InputLength { .. } => "input_length",
            ReplayUnsupported::InstancesMismatch { .. } => "instances_mismatch",
            ReplayUnsupported::ScheduleDivergence { .. } => "schedule_divergence",
        }
    }
}

impl std::fmt::Display for ReplayUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayUnsupported::FaultPlan => {
                write!(f, "replay unsupported: active corrupting fault-injection plan")
            }
            ReplayUnsupported::StallSchedule => {
                write!(f, "replay unsupported: external stall schedule attached")
            }
            ReplayUnsupported::Telemetry => write!(f, "replay unsupported: telemetry attached"),
            ReplayUnsupported::ResultTap => write!(f, "replay unsupported: result tap attached"),
            ReplayUnsupported::KernelMismatch { expected, actual } => write!(
                f,
                "replay refused: schedule captured with kernel `{expected}`, asked to run `{actual}`"
            ),
            ReplayUnsupported::InputLength { expected, actual } => write!(
                f,
                "replay refused: schedule covers {expected} elements, input has {actual}"
            ),
            ReplayUnsupported::InstancesMismatch { expected, actual } => write!(
                f,
                "replay refused: schedule captured for {expected} instance(s), asked for {actual}"
            ),
            ReplayUnsupported::ScheduleDivergence { detail } => {
                write!(f, "schedule diverged from full simulation: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplayUnsupported {}

/// Running totals a [`ScheduleCache`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Schedules larger than the whole budget, never stored.
    pub oversize: u64,
}

struct CacheEntry<V> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

/// A byte-budgeted LRU cache for captured control schedules (or any other
/// fingerprint-keyed value with an explicit byte cost).
///
/// Same deterministic policy as the serve layer's result cache: every hit
/// and insert stamps the entry with a monotonic use counter, and inserts
/// evict the lowest-stamped entries until the budget holds. Values are
/// handed out as [`Arc`] clones so a hit is O(1) regardless of schedule
/// size.
pub struct ScheduleCache<V> {
    budget: usize,
    bytes: usize,
    tick: u64,
    entries: BTreeMap<(u64, u64), CacheEntry<V>>,
    stats: ScheduleCacheStats,
}

impl<V> ScheduleCache<V> {
    /// Creates an empty cache holding at most `budget` bytes of schedules.
    pub fn new(budget: usize) -> ScheduleCache<V> {
        ScheduleCache {
            budget,
            bytes: 0,
            tick: 0,
            entries: BTreeMap::new(),
            stats: ScheduleCacheStats::default(),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: (u64, u64)) -> Option<Arc<V>> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// True when `key` is resident, *without* refreshing its recency or
    /// counting a lookup — a pure probe. The serve reactor uses it to
    /// classify requests at admission (a resident schedule means the job
    /// is a cheap replay) without the classification itself perturbing
    /// the LRU order or the hit/miss statistics.
    pub fn contains(&self, key: (u64, u64)) -> bool {
        self.entries.contains_key(&key)
    }

    /// Stores `value` under `key` with an explicit byte cost, evicting
    /// least-recently-used entries until the budget holds. A value larger
    /// than the entire budget is not stored.
    pub fn insert(&mut self, key: (u64, u64), value: Arc<V>, bytes: usize) {
        if bytes > self.budget {
            self.stats.oversize += 1;
            return;
        }
        self.tick += 1;
        if let Some(old) = self.entries.insert(
            key,
            CacheEntry {
                value,
                bytes,
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.bytes;
        } else {
            self.stats.insertions += 1;
        }
        self.bytes += bytes;

        while self.bytes > self.budget {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("over budget implies non-empty");
            let evicted = self.entries.remove(&victim).expect("victim exists");
            self.bytes -= evicted.bytes;
            self.stats.evictions += 1;
        }
    }

    /// Bytes of schedule data currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The byte budget this cache was created with. A `0` budget can
    /// never store anything — callers use it as "caching disabled".
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The running hit/miss/eviction totals.
    pub fn stats(&self) -> ScheduleCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_record_packs_phase_and_flags() {
        let r = CycleRecord::pack(1, CycleRecord::STALLED | CycleRecord::TRANSFER);
        assert_eq!(r.phase(), 1);
        assert!(r.has(CycleRecord::STALLED));
        assert!(r.has(CycleRecord::TRANSFER));
        assert!(!r.has(CycleRecord::EMITTED));
        // Phase bits never leak into flags and vice versa.
        let r = CycleRecord::pack(2, 0);
        assert_eq!(r.phase(), 2);
        assert!(!r.has(CycleRecord::STALLED));
    }

    #[test]
    fn trace_totals_count_flags() {
        let mut t = ControlTrace::new();
        t.record(CycleRecord::pack(0, CycleRecord::WARMUP));
        t.record(CycleRecord::pack(
            1,
            CycleRecord::EMITTED | CycleRecord::TRANSFER,
        ));
        t.record(CycleRecord::pack(1, CycleRecord::STALLED));
        let totals = t.totals();
        assert_eq!(totals.cycles, 3);
        assert_eq!(totals.warmup_cycles, 1);
        assert_eq!(totals.emitted, 1);
        assert_eq!(totals.transfers, 1);
        assert_eq!(totals.stall_cycles, 1);
    }

    /// Lowers `sources` (element-major, `arity` per element) through the
    /// builder; `masks.len()` is the element count.
    fn lower(arity: usize, sources: &[SlotSource], masks: Vec<u64>) -> Result<GatherTable, String> {
        let mut rows = GatherTable::builder(masks.len(), arity)?;
        for &s in sources {
            rows.push(s)?;
        }
        rows.finish(masks)
    }

    #[test]
    fn gather_table_lowers_to_fixed_arity_rows() {
        let sources = [
            SlotSource::Grid(2),
            SlotSource::Hole,
            SlotSource::Const(9),
            SlotSource::Const(0),
            SlotSource::Const(9),
            SlotSource::Grid(0),
        ];
        let table = lower(2, &sources, vec![0b01, 0b11, 0b11]).expect("lower");
        assert_eq!(table.len(), 3);
        assert_eq!(table.arity(), 2);
        // Extended grid: 3 cells, constants 9 and 0, then the hole row.
        assert_eq!(table.extended_len(), 6);
        assert_eq!(table.extend(&[&[7, 8, 6]]), vec![7, 8, 6, 9, 0, 0]);
        assert_eq!(
            table.extend(&[&[7, 8, 6], &[1, 2, 3]]),
            vec![7, 1, 8, 2, 6, 3, 9, 9, 0, 0, 0, 0]
        );
        assert_eq!(table.row(0), (&[2, 5][..], 0b01));
        assert_eq!(table.row(1), (&[3, 4][..], 0b11));
        assert_eq!(table.row(2), (&[3, 0][..], 0b11));
        // Every slot un-lowers to the source it came from; `Const(0)` and
        // `Hole` stay distinct although both read a zero.
        let back: Vec<SlotSource> = (0..3).flat_map(|e| table.slots(e)).collect();
        assert_eq!(back, sources);
        assert_eq!(table.approx_bytes(), 6 * 4 + 3 * 8 + 2 * 8);
    }

    #[test]
    fn gather_table_refuses_unlowerable_patterns() {
        let grid = |n: usize| vec![SlotSource::Grid(0); n];
        assert!(lower(65, &grid(65), vec![0]).is_err());
        assert!(lower(64, &grid(64), vec![0]).is_ok());
        assert!(lower(2, &grid(3), vec![0, 0]).is_err());
        let escapes = [SlotSource::Grid(1)];
        assert!(lower(1, &escapes, vec![1]).is_err());
        let empty = lower(0, &[], Vec::new()).expect("empty");
        assert!(empty.is_empty());
        assert_eq!(empty.extended_len(), 1);
    }

    #[test]
    fn schedule_cache_is_lru_under_byte_budget() {
        let mut c: ScheduleCache<&'static str> = ScheduleCache::new(30);
        let key = |n: u64| (n, n.wrapping_mul(31));
        c.insert(key(1), Arc::new("a"), 10);
        c.insert(key(2), Arc::new("b"), 10);
        c.insert(key(3), Arc::new("c"), 10);
        assert!(c.get(key(1)).is_some()); // refresh 1
        c.insert(key(4), Arc::new("d"), 10);
        assert!(c.get(key(2)).is_none(), "LRU victim must be 2");
        assert!(c.get(key(1)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.bytes(), 30);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn schedule_cache_rejects_oversize() {
        let mut c: ScheduleCache<u8> = ScheduleCache::new(10);
        c.insert((1, 1), Arc::new(0), 11);
        assert!(c.is_empty());
        assert_eq!(c.stats().oversize, 1);
    }

    #[test]
    fn refusal_labels_are_stable() {
        assert_eq!(ReplayUnsupported::FaultPlan.label(), "fault_plan");
        assert_eq!(ReplayUnsupported::Telemetry.label(), "telemetry");
        let e = ReplayUnsupported::InstancesMismatch {
            expected: 4,
            actual: 5,
        };
        assert_eq!(e.label(), "instances_mismatch");
        assert!(e.to_string().contains("4 instance(s)"));
    }
}
