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
//!   extended grid. An engine reads these rows element by element.
//! * [`GatherRuns`] — the same pattern in run form: per run of elements
//!   that share one stencil case, only the first element, its row and the
//!   mask. A sealed schedule keeps and replays this form, so its size
//!   follows the runs (about three per 2D grid row), not the elements.
//! * [`ControlTrace`] — the control-plane record ([`CycleRecord`]: FSM
//!   phase plus handshake/stall flags), run-length encoded, with the
//!   derived totals that replay reports instead of re-simulating.
//! * [`ReplayUnsupported`] — the typed refusal reasons. Replay is only
//!   sound while control stays data-independent; anything that breaks that
//!   (fault injection, stall fuzzing, external backpressure, attached
//!   observers) must refuse, never silently diverge.
//!
//! The Smache-specific capture/replay executor lives in
//! `smache_core::system::replay`; `smache serve` stacks a
//! [`ScheduleCache`](crate::ScheduleCache) behind its result cache so
//! differing-seed requests for one spec hit the fast path.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::Range;

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
/// through [`GatherTable::builder`], when an engine is built, so a
/// controller indexes and never matches on a [`SlotSource`].
/// [`GatherTable::source`] recovers the source a row index stands for.
///
/// An engine reads the table element by element; a sealed schedule keeps
/// only its run form ([`GatherTable::to_runs`]).
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

    /// Most elements one run may span.
    pub const MAX_RUN: usize = 256;

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

    /// Cuts the elements into runs and keeps, per run, its first element,
    /// that element's row and the run's mask: the run form a sealed
    /// schedule replays from.
    ///
    /// A run is a maximal stretch of at most [`GatherTable::MAX_RUN`]
    /// consecutive elements that share the kernel mask of its first
    /// element `s`, and whose rows follow `s`'s: element `s + i` reads
    /// grid row `r + i` wherever `s` reads grid row `r`, and the same
    /// constant or hole row wherever `s` reads one. One stencil case
    /// along one grid row is one run, so the kernel can take a whole run
    /// in one call.
    pub fn to_runs(&self) -> GatherRuns {
        let n = self.len();
        let mut runs = GatherRuns {
            n,
            arity: self.arity,
            consts: self.consts.clone(),
            ..GatherRuns::default()
        };
        let mut s = 0;
        while s < n {
            let (first, mask) = self.row(s);
            let mut e = s + 1;
            while e < n && e - s < Self::MAX_RUN && self.follows(first, mask, e, e - s) {
                e += 1;
            }
            // `finish` keeps every row index, so every element, below
            // `u32::MAX`.
            runs.starts.push(s as u32);
            runs.rows.extend_from_slice(first);
            runs.masks.push(mask);
            runs.longest = runs.longest.max(e - s);
            s = e;
        }
        runs
    }

    /// True when element `e` continues a run whose first row is `first`
    /// and mask `mask`, `i` elements on.
    fn follows(&self, first: &[u32], mask: u64, e: usize, i: usize) -> bool {
        let n = self.len();
        let (row, m) = self.row(e);
        m == mask
            && first.iter().zip(row).all(|(&f, &r)| {
                let (f, r) = (f as usize, r as usize);
                if f < n {
                    r == f + i && r < n
                } else {
                    r == f
                }
            })
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
        row_source(self.len(), &self.consts, r)
    }

    /// The sources of element `e`'s slots, in slot order.
    pub fn slots(&self, e: usize) -> impl Iterator<Item = SlotSource> + '_ {
        (0..self.arity).map(move |p| self.source(e, p))
    }

    /// Approximate heap footprint in bytes: 4 per slot row, 8 per mask
    /// and constant.
    pub fn approx_bytes(&self) -> usize {
        self.rows.len() * 4 + self.masks.len() * 8 + self.consts.len() * 8
    }
}

/// The source extended-grid row `r` stands for, in a table of `n`
/// elements with boundary constants `consts`.
fn row_source(n: usize, consts: &[Word], r: u32) -> SlotSource {
    let r = r as usize;
    match r.checked_sub(n) {
        None => SlotSource::Grid(r as u32),
        Some(c) if c < consts.len() => SlotSource::Const(consts[c]),
        Some(_) => SlotSource::Hole,
    }
}

/// A gather table in run form ([`GatherTable::to_runs`]): per run, its
/// first element, that element's extended-grid row and the run's kernel
/// mask, plus the boundary constants — `4 + 4 × arity + 8` bytes a run,
/// whatever the run's length.
///
/// Element `s + i` of the run that starts at `s` reads grid row `r + i`
/// wherever `s` reads grid row `r`, and the same constant or hole row
/// wherever `s` reads one, so every element decodes from its run
/// ([`GatherRuns::source`]) and replay takes each run in one kernel call
/// ([`GatherRuns::replay`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GatherRuns {
    /// Elements covered.
    n: usize,
    arity: usize,
    /// First element of each run, ascending from 0.
    starts: Vec<u32>,
    /// The first element's `arity` row indices, run-major.
    rows: Vec<u32>,
    /// Kernel mask per run.
    masks: Vec<u64>,
    /// The distinct boundary constants; constant `c` lives in extended
    /// row `n + c`, and the hole row follows them.
    consts: Vec<Word>,
    /// Elements in the longest run.
    longest: usize,
}

impl GatherRuns {
    /// Reassembles a run form of `n` elements with `arity` slots each from
    /// its parts (store deserialisation): the runs' first elements, their
    /// first rows (run-major) and masks, and the boundary constants. Fails,
    /// naming the fault, unless the runs start at element 0, ascend, cover
    /// every element, span at most [`GatherTable::MAX_RUN`] elements each,
    /// and every row index names a row of the extended grid that its whole
    /// run can read.
    pub fn from_parts(
        n: usize,
        arity: usize,
        consts: Vec<Word>,
        starts: Vec<u32>,
        rows: Vec<u32>,
        masks: Vec<u64>,
    ) -> Result<GatherRuns, String> {
        if arity > GatherTable::MAX_ARITY {
            return Err(format!(
                "gather arity {arity} exceeds {}",
                GatherTable::MAX_ARITY
            ));
        }
        if masks.len() != starts.len() || Some(rows.len()) != starts.len().checked_mul(arity) {
            return Err(format!(
                "{} rows and {} masks for {} runs of arity {arity}",
                rows.len(),
                masks.len(),
                starts.len()
            ));
        }
        let hole = n.saturating_add(consts.len());
        if hole > u32::MAX as usize {
            return Err(format!(
                "extended grid of {} rows exceeds u32 indices",
                hole as u128 + 1
            ));
        }
        if n > 0 && starts.first() != Some(&0) {
            return Err("runs must start at element 0".into());
        }
        let mut runs = GatherRuns {
            n,
            arity,
            starts,
            rows,
            masks,
            consts,
            longest: 0,
        };
        let mut longest = 0;
        for (i, run) in runs.iter().enumerate() {
            if run.is_empty() || run.end > n || run.len() > GatherTable::MAX_RUN {
                return Err(format!("run {i} covers elements {run:?} of {n}"));
            }
            for &r in runs.first_row(i).0 {
                let r = r as usize;
                if r < n && r + run.len() > n {
                    return Err(format!("run {i} reads grid row {r} past the grid"));
                }
                if r > hole {
                    return Err(format!("row {r} lies beyond the hole row {hole}"));
                }
            }
            longest = longest.max(run.len());
        }
        runs.longest = longest;
        Ok(runs)
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when there are no elements to cut.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Number of elements the runs cover.
    pub fn elements(&self) -> usize {
        self.n
    }

    /// Slots per element.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Elements in the longest run (0 when there are none).
    pub fn longest(&self) -> usize {
        self.longest
    }

    /// The distinct boundary constants, in extended-row order.
    pub fn consts(&self) -> &[Word] {
        &self.consts
    }

    /// The runs' element ranges, in order; together they cover every
    /// element once.
    pub fn iter(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let ends = self
            .starts
            .iter()
            .skip(1)
            .map(|&s| s as usize)
            .chain(std::iter::once(self.n));
        self.starts.iter().zip(ends).map(|(&s, e)| s as usize..e)
    }

    /// Run `i`'s first row and its mask.
    #[inline]
    pub fn first_row(&self, i: usize) -> (&[u32], u64) {
        (
            &self.rows[i * self.arity..(i + 1) * self.arity],
            self.masks[i],
        )
    }

    /// The run element `e` belongs to, and how far into it `e` lies.
    fn locate(&self, e: usize) -> (usize, usize) {
        assert!(e < self.n, "element {e} of {}", self.n);
        let i = self.starts.partition_point(|&s| s as usize <= e) - 1;
        (i, e - self.starts[i] as usize)
    }

    /// The kernel mask of element `e`.
    pub fn mask(&self, e: usize) -> u64 {
        self.masks[self.locate(e).0]
    }

    /// The source slot `p` of element `e` reads, decoded from its run.
    pub fn source(&self, e: usize, p: usize) -> SlotSource {
        let (i, off) = self.locate(e);
        match row_source(self.n, &self.consts, self.first_row(i).0[p]) {
            SlotSource::Grid(g) => SlotSource::Grid(g + off as u32),
            other => other,
        }
    }

    /// The sources of element `e`'s slots, in slot order.
    pub fn slots(&self, e: usize) -> impl Iterator<Item = SlotSource> + '_ {
        (0..self.arity).map(move |p| self.source(e, p))
    }

    /// Runs `instances` timesteps over every lane's grid at once, run by
    /// run, and returns each lane's final grid. `apply(slots, mask, out)`
    /// computes `out.len()` tuples under `mask`, tuple `i` being
    /// `slots[p][i]` for every slot `p`.
    ///
    /// The lanes' grids are interleaved element-major — the word for
    /// (element `e`, lane `l`) lives at `e * lanes + l` — and each
    /// constant and the hole row get a splat region of `longest run ×
    /// lanes` copies after them. A run's elements read consecutive grid
    /// rows and fixed constant or hole rows, so each of its slots is one
    /// contiguous slice of `run length × lanes` words, and one `apply`
    /// call takes the run's (element, lane) pairs. The two buffers are
    /// the calling thread's, reused from call to call; only the lanes'
    /// grids are allocated.
    ///
    /// Every grid must hold [`GatherRuns::elements`] words.
    pub fn replay(
        &self,
        grids: &[&[Word]],
        instances: u64,
        mut apply: impl FnMut(&[&[Word]], u64, &mut [Word]),
    ) -> Vec<Vec<Word>> {
        let (n, lanes) = (self.n, grids.len());
        assert!(
            grids.iter().all(|g| g.len() == n),
            "every grid holds {n} words"
        );
        if lanes == 0 {
            return Vec::new();
        }
        let grid = n * lanes;
        let splat = self.longest * lanes;
        let len = grid + (self.consts.len() + 1) * splat;
        let [mut cur, mut next] = REPLAY_BUFFERS.take();
        // The constant and hole regions are filled in both buffers; only
        // the grid rows are ever rewritten, every one of them each
        // instance, so neither buffer needs clearing.
        for buf in [&mut cur, &mut next] {
            if buf.len() < len {
                buf.resize(len, 0);
            }
            let regions = buf[grid..len].chunks_exact_mut(splat.max(1));
            for (region, &v) in regions.zip(self.consts.iter().chain([&0])) {
                region.fill(v);
            }
        }
        if lanes == 1 {
            cur[..n].copy_from_slice(grids[0]);
        } else {
            for (e, words) in cur[..grid].chunks_exact_mut(lanes).enumerate() {
                for (w, g) in words.iter_mut().zip(grids) {
                    *w = g[e];
                }
            }
        }
        for _ in 0..instances {
            let mut slots: [&[Word]; GatherTable::MAX_ARITY] = [&[]; GatherTable::MAX_ARITY];
            let slots = &mut slots[..self.arity];
            for (i, run) in self.iter().enumerate() {
                let (row, mask) = self.first_row(i);
                let words = run.len() * lanes;
                for (s, &r) in slots.iter_mut().zip(row) {
                    let r = r as usize;
                    let base = match r.checked_sub(n) {
                        None => r * lanes,
                        Some(c) => grid + c * splat,
                    };
                    *s = &cur[base..base + words];
                }
                apply(slots, mask, &mut next[run.start * lanes..run.end * lanes]);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        let out = if lanes == 1 {
            vec![cur[..n].to_vec()]
        } else {
            let mut out: Vec<Vec<Word>> = (0..lanes).map(|_| Vec::with_capacity(n)).collect();
            for words in cur[..grid].chunks_exact(lanes) {
                for (o, &w) in out.iter_mut().zip(words) {
                    o.push(w);
                }
            }
            out
        };
        REPLAY_BUFFERS.set([cur, next]);
        out
    }

    /// Heap footprint in bytes: per run 4 for its start, 4 per slot of
    /// its first row and 8 for its mask; 8 per constant.
    pub fn approx_bytes(&self) -> usize {
        self.starts.len() * 4 + self.rows.len() * 4 + self.masks.len() * 8 + self.consts.len() * 8
    }
}

thread_local! {
    /// The two buffers of [`GatherRuns::replay`], kept by each thread
    /// across the calls it makes.
    static REPLAY_BUFFERS: Cell<[Vec<Word>; 2]> = const { Cell::new([Vec::new(), Vec::new()]) };
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

/// Totals derived by summing a [`ControlTrace`] — the replay-side source
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

/// The control-plane trace of one captured run, run-length encoded: a
/// list of (record, repeat) pairs, each a [`CycleRecord`] and the number
/// of consecutive cycles it held. The control plane changes only at
/// phase and handshake edges, so a trace holds a few pairs per instance
/// however many cycles it spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlTrace {
    runs: Vec<(CycleRecord, u32)>,
    cycles: u64,
}

impl ControlTrace {
    /// Creates an empty trace.
    pub fn new() -> ControlTrace {
        ControlTrace::default()
    }

    /// Rebuilds a trace from its (record, repeat) pairs — the inverse of
    /// [`ControlTrace::runs`], used when deserialising a persisted
    /// schedule.
    pub fn from_runs(runs: Vec<(CycleRecord, u32)>) -> ControlTrace {
        let cycles = runs.iter().map(|&(_, n)| u64::from(n)).sum();
        ControlTrace { runs, cycles }
    }

    /// Appends one cycle's record, extending the last pair when the
    /// record repeats it.
    #[inline]
    pub fn record(&mut self, record: CycleRecord) {
        self.cycles += 1;
        match self.runs.last_mut() {
            Some((last, n)) if *last == record && *n < u32::MAX => *n += 1,
            _ => self.runs.push((record, 1)),
        }
    }

    /// Releases the pair buffer's spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.runs.shrink_to_fit();
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.cycles as usize
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0
    }

    /// The (record, repeat) pairs in cycle order.
    pub fn runs(&self) -> &[(CycleRecord, u32)] {
        &self.runs
    }

    /// Sums the pairs into the trace's totals.
    pub fn totals(&self) -> TraceTotals {
        let mut t = TraceTotals {
            cycles: self.cycles,
            ..TraceTotals::default()
        };
        for &(r, n) in &self.runs {
            let n = u64::from(n);
            t.stall_cycles += n * u64::from(r.has(CycleRecord::STALLED));
            t.transfers += n * u64::from(r.has(CycleRecord::TRANSFER));
            t.warmup_cycles += n * u64::from(r.has(CycleRecord::WARMUP));
            t.emitted += n * u64::from(r.has(CycleRecord::EMITTED));
        }
        t
    }

    /// Heap footprint in bytes (cache accounting): 8 per pair.
    pub fn approx_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<(CycleRecord, u32)>()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleCache;
    use std::sync::Arc;

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
        let warm = CycleRecord::pack(0, CycleRecord::WARMUP);
        let emit = CycleRecord::pack(1, CycleRecord::EMITTED | CycleRecord::TRANSFER);
        let stall = CycleRecord::pack(1, CycleRecord::STALLED);
        for r in [warm, warm, emit, stall, stall, stall, emit] {
            t.record(r);
        }
        // Repeats fold into their pair.
        assert_eq!(t.runs(), [(warm, 2), (emit, 1), (stall, 3), (emit, 1)]);
        assert_eq!(t.len(), 7);
        assert_eq!(t.approx_bytes(), 4 * 8);
        let totals = t.totals();
        assert_eq!(totals.cycles, 7);
        assert_eq!(totals.warmup_cycles, 2);
        assert_eq!(totals.emitted, 2);
        assert_eq!(totals.transfers, 2);
        assert_eq!(totals.stall_cycles, 3);
        assert_eq!(ControlTrace::from_runs(t.runs().to_vec()), t);
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
        // Extended grid: 3 cells, constants 9 and 0 (rows 3 and 4), then
        // the hole row.
        assert_eq!(table.row(0), (&[2, 5][..], 0b01));
        assert_eq!(table.row(1), (&[3, 4][..], 0b11));
        assert_eq!(table.row(2), (&[3, 0][..], 0b11));
        // Every slot un-lowers to the source it came from; `Const(0)` and
        // `Hole` stay distinct although both read a zero.
        let back: Vec<SlotSource> = (0..3).flat_map(|e| table.slots(e)).collect();
        assert_eq!(back, sources);
        // Element 1 cannot start a run with element 0 (their masks differ)
        // nor continue into element 2 (its constant slot changes).
        let runs = table.to_runs();
        assert_eq!(runs.iter().collect::<Vec<_>>(), [0..1, 1..2, 2..3]);
        assert_eq!(runs.longest(), 1);
        // 4 B per slot row, 8 per mask and constant.
        assert_eq!(table.approx_bytes(), 6 * 4 + 3 * 8 + 2 * 8);
        // Per run 4 B of start, 4 per first-row slot and 8 of mask; 8 per
        // constant.
        assert_eq!(runs.approx_bytes(), 3 * (4 + 2 * 4 + 8) + 2 * 8);
    }

    #[test]
    fn gather_runs_follow_grid_rows_and_hold_constants() {
        use SlotSource::{Const, Grid};
        // Six elements of a 6-cell grid, two slots each: a stretch whose
        // grid slot advances by one and whose other slot holds one
        // constant, a break where the constant changes, and a grid slot
        // that would step past the last cell onto the first constant's
        // row (row 6).
        let sources = [
            Grid(1),
            Const(4),
            Grid(2),
            Const(4),
            Grid(3),
            Const(4),
            Grid(4),
            Const(5),
            Grid(5),
            Const(5),
            Const(4),
            Const(5),
        ];
        let table = lower(2, &sources, vec![0b11; 6]).expect("lower");
        assert_eq!(table.row(3).0, [4, 7]);
        assert_eq!(table.row(5).0, [6, 7]);
        let runs = table.to_runs();
        assert_eq!(runs.iter().collect::<Vec<_>>(), [0..3, 3..5, 5..6]);
        assert_eq!(runs.longest(), 3);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs.first_row(1), (&[4, 7][..], 0b11));
        // Every element decodes from its run to the table's sources.
        for e in 0..table.len() {
            assert_eq!(
                runs.slots(e).collect::<Vec<_>>(),
                table.slots(e).collect::<Vec<_>>()
            );
            assert_eq!(runs.mask(e), table.row(e).1);
        }
        // A long stretch is cut at the cap.
        let n = GatherTable::MAX_RUN * 2 + 3;
        let long: Vec<SlotSource> = (0..n as u32).map(Grid).collect();
        let runs = lower(1, &long, vec![1; n]).expect("lower").to_runs();
        let cap = GatherTable::MAX_RUN;
        assert_eq!(
            runs.iter().collect::<Vec<_>>(),
            [0..cap, cap..2 * cap, 2 * cap..n]
        );
        assert_eq!(runs.longest(), cap);
    }

    /// Splits `runs` into the parts `GatherRuns::from_parts` takes.
    fn parts(runs: &GatherRuns) -> (Vec<u32>, Vec<u32>, Vec<u64>) {
        let starts = runs.iter().map(|r| r.start as u32).collect();
        let (mut rows, mut masks) = (Vec::new(), Vec::new());
        for i in 0..runs.len() {
            let (row, mask) = runs.first_row(i);
            rows.extend_from_slice(row);
            masks.push(mask);
        }
        (starts, rows, masks)
    }

    #[test]
    fn run_form_rebuilds_from_its_parts_and_refuses_broken_ones() {
        use SlotSource::{Const, Grid, Hole};
        // Six cells, two slots: runs 0..3, 3..5, 5..6; rows 6 and 7 are
        // the constants, row 8 the hole.
        let sources = [
            Grid(1),
            Const(4),
            Grid(2),
            Const(4),
            Grid(3),
            Const(4),
            Grid(4),
            Const(5),
            Grid(5),
            Const(5),
            Hole,
            Const(5),
        ];
        let runs = lower(2, &sources, vec![0b11, 0b11, 0b11, 0b11, 0b11, 0b10])
            .expect("lower")
            .to_runs();
        let (starts, rows, masks) = parts(&runs);
        let rebuild = |starts: Vec<u32>, rows: Vec<u32>, masks: Vec<u64>| {
            GatherRuns::from_parts(6, 2, vec![4, 5], starts, rows, masks)
        };
        assert_eq!(
            rebuild(starts.clone(), rows.clone(), masks.clone()),
            Ok(runs)
        );
        let refuse = |starts: Vec<u32>, rows: Vec<u32>, masks: Vec<u64>, why: &str| {
            let err = rebuild(starts, rows, masks).expect_err(why);
            assert!(err.contains(why), "{err}");
        };
        refuse(
            vec![1, 3, 5],
            rows.clone(),
            masks.clone(),
            "start at element 0",
        );
        refuse(
            vec![0, 3, 3],
            rows.clone(),
            masks.clone(),
            "covers elements",
        );
        refuse(
            vec![0, 3, 7],
            rows.clone(),
            masks.clone(),
            "covers elements",
        );
        refuse(
            starts.clone(),
            rows[1..].to_vec(),
            masks.clone(),
            "runs of arity",
        );
        refuse(
            starts.clone(),
            rows.clone(),
            masks[1..].to_vec(),
            "runs of arity",
        );
        // The first run (three elements) may not start past grid row 3.
        let mut past = rows.clone();
        past[0] = 4;
        refuse(starts.clone(), past, masks.clone(), "past the grid");
        let mut beyond = rows.clone();
        beyond[1] = 9;
        refuse(starts.clone(), beyond, masks.clone(), "beyond the hole row");
        let wide = GatherRuns::from_parts(1, 65, Vec::new(), vec![0], vec![0; 65], vec![1]);
        assert!(wide.expect_err("arity").contains("arity 65"));
        let cap = GatherTable::MAX_RUN;
        let long = GatherRuns::from_parts(
            cap + 1,
            1,
            Vec::new(),
            vec![0],
            vec![cap as u32 + 1],
            vec![1],
        );
        assert!(long.expect_err("cap").contains("covers elements"));
        let empty = GatherRuns::from_parts(0, 4, Vec::new(), Vec::new(), Vec::new(), Vec::new());
        assert!(empty.expect("empty").is_empty());
    }

    /// Sums the present slots of each tuple: a kernel for `replay`.
    fn sum_present(slots: &[&[Word]], mask: u64, out: &mut [Word]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = (0..slots.len())
                .filter(|&p| mask >> p & 1 == 1)
                .fold(0, |a: Word, p| a.wrapping_add(slots[p][i]));
        }
    }

    /// [`sum_present`] over `instances` timesteps, element by element from
    /// the slots' sources.
    fn sum_reference(table: &GatherTable, grid: &[Word], instances: u64) -> Vec<Word> {
        let mut cur = grid.to_vec();
        for _ in 0..instances {
            cur = (0..table.len())
                .map(|e| {
                    let mask = table.row(e).1;
                    table
                        .slots(e)
                        .enumerate()
                        .filter(|&(p, _)| mask >> p & 1 == 1)
                        .fold(0, |a: Word, (_, s)| {
                            a.wrapping_add(match s {
                                SlotSource::Grid(g) => cur[g as usize],
                                SlotSource::Const(v) => v,
                                SlotSource::Hole => 0,
                            })
                        })
                })
                .collect();
        }
        cur
    }

    #[test]
    fn replay_runs_equal_the_element_by_element_reference() {
        use SlotSource::{Const, Grid, Hole};
        let tables = [
            lower(
                2,
                &[Grid(2), Hole, Const(9), Const(0), Const(9), Grid(0)],
                vec![0b01, 0b11, 0b11],
            ),
            // Runs of three and two elements, the second reading the
            // second constant's splat region, then a hole.
            lower(
                3,
                &[
                    Grid(5),
                    Grid(1),
                    Const(7),
                    Grid(0),
                    Grid(2),
                    Const(7),
                    Grid(1),
                    Grid(3),
                    Const(7),
                    Grid(2),
                    Grid(4),
                    Const(8),
                    Grid(3),
                    Grid(5),
                    Const(8),
                    Grid(4),
                    Grid(0),
                    Hole,
                ],
                vec![0b111, 0b111, 0b111, 0b111, 0b111, 0b011],
            ),
        ];
        for table in tables {
            let table = table.expect("lower");
            let n = table.len();
            let grids: Vec<Vec<Word>> = (0..3u64)
                .map(|l| (0..n as u64).map(|e| e * 10 + l + 1).collect())
                .collect();
            let views: Vec<&[Word]> = grids.iter().map(Vec::as_slice).collect();
            let runs = table.to_runs();
            for lanes in 1..=3 {
                for instances in [0, 1, 2, 3] {
                    let out = runs.replay(&views[..lanes], instances, sum_present);
                    for (got, grid) in out.iter().zip(&grids) {
                        assert_eq!(*got, sum_reference(&table, grid, instances));
                    }
                }
            }
            assert!(runs.replay(&[], 2, sum_present).is_empty());
        }
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
        assert!(empty.to_runs().is_empty());
        assert_eq!(empty.to_runs().iter().count(), 0);
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
