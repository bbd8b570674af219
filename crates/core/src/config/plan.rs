//! The buffer plan: Algorithm 1's decisions turned into an architecture.
//!
//! A [`BufferPlan`] fixes everything §III of the paper configures at its
//! two levels: the *number of static buffers* (from the static analysis of
//! the stencil code) and the *parameters* (window geometry, tap positions,
//! hybrid segmentation, buffer regions).

use std::sync::Arc;

use smache_mem::MemKind;
use smache_stencil::{access, split_ranges, Access, BoundarySpec, GridSpec, StencilShape};

use smache_stencil::RangeSpec;

use crate::config::algorithm1::{Algorithm1, RangeDecision, SplitCost};
use crate::error::CoreError;
use crate::CoreResult;

/// Window `(lo, hi)` implied by a set of decisions' stream offsets
/// (always anchored to include 0, the element itself).
fn decisions_window(decisions: &[RangeDecision]) -> (i64, i64) {
    let mut lo = 0i64;
    let mut hi = 0i64;
    for d in decisions {
        for &o in &d.stream_offsets {
            lo = lo.min(o);
            hi = hi.max(o);
        }
    }
    (lo, hi)
}

/// Folds statified offsets that the current global window already covers
/// back into the stream (strictly cheaper: the window never grows).
fn refine_decisions(decisions: &mut [RangeDecision]) {
    loop {
        let (lo, hi) = decisions_window(decisions);
        let mut changed = false;
        for d in decisions.iter_mut() {
            let (keep, fold): (Vec<i64>, Vec<i64>) =
                d.static_offsets.iter().partition(|&&o| o < lo || o > hi);
            if !fold.is_empty() {
                d.stream_offsets.extend(fold);
                d.stream_offsets.sort_unstable();
                d.static_offsets = keep;
                d.cost.static_words = d.static_offsets.len() as u64 * d.range.len as u64;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Globally exact split: enumerate candidate windows `(lo, hi)` over the
/// distinct negative/positive offsets (plus 0); for each window the
/// statification of every range is forced, so the cheapest candidate is
/// the optimum of `window_words + Σ static_words`.
fn global_window_decisions(ranges: &[RangeSpec]) -> Vec<RangeDecision> {
    let mut lows: Vec<i64> = vec![0];
    let mut highs: Vec<i64> = vec![0];
    for r in ranges {
        for &o in r.tuple.offsets() {
            if o < 0 {
                lows.push(o);
            } else {
                highs.push(o);
            }
        }
    }
    lows.sort_unstable();
    lows.dedup();
    highs.sort_unstable();
    highs.dedup();

    let cost_of = |lo: i64, hi: i64| -> u64 {
        let window = (hi - lo) as u64 + 1;
        let statics: u64 = ranges
            .iter()
            .map(|r| {
                r.tuple
                    .offsets()
                    .iter()
                    .filter(|&&o| o < lo || o > hi)
                    .count() as u64
                    * r.len as u64
            })
            .sum();
        window + statics
    };

    let mut best = (0i64, 0i64, u64::MAX);
    for &lo in &lows {
        for &hi in &highs {
            let c = cost_of(lo, hi);
            // Tie-break towards the smaller window (fewer stream words).
            let better = c < best.2 || (c == best.2 && (hi - lo) < (best.1 - best.0));
            if better {
                best = (lo, hi, c);
            }
        }
    }
    let (lo, hi, _) = best;

    ranges
        .iter()
        .map(|r| {
            let (stream_offsets, static_offsets): (Vec<i64>, Vec<i64>) =
                r.tuple.offsets().iter().partition(|&&o| o >= lo && o <= hi);
            let slo = stream_offsets.iter().copied().min().unwrap_or(0).min(0);
            let shi = stream_offsets.iter().copied().max().unwrap_or(0).max(0);
            let cost = SplitCost {
                stream_words: (shi - slo) as u64 + 1,
                static_words: static_offsets.len() as u64 * r.len as u64,
            };
            RangeDecision {
                range: r.clone(),
                static_offsets,
                stream_offsets,
                cost,
            }
        })
        .collect()
}

/// How the stream/static split is decided across ranges.
///
/// The paper's Algorithm 1 minimises each range independently, but the
/// stream buffer is *shared* ("we only ever need a single stream buffer,
/// the one with the largest reach"), so per-range minimisation of
/// `stream_j + static_j` does not minimise the true objective
/// `max_j(stream_j) + Σ_j static_j` — with fragmented ranges it statifies
/// offsets the shared window would have covered for free.
/// [`PlanStrategy::GlobalWindow`] fixes this by searching the window
/// directly: candidate windows are bounded by the distinct offsets, and
/// for a fixed window every range's statification cost is forced, so
/// enumerating all `(lo, hi)` candidate pairs is globally exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanStrategy {
    /// Paper-faithful: per-range Algorithm 1 (greedy or exact) followed by
    /// a refinement pass folding statics already covered by the resulting
    /// global window back into the stream.
    PerRange(Algorithm1),
    /// Globally exact window search (our extension; the default).
    #[default]
    GlobalWindow,
    /// No static buffers at all: the stream buffer spans the full reach of
    /// every tuple. This is the "conventional window buffer" the paper
    /// argues against — for circular boundaries it buffers (nearly) the
    /// whole grid on-chip ("storing entire arrays on-chip is simply not an
    /// option"). Provided as a comparison point for experiments.
    AllStream,
}

/// Stream-buffer implementation style (§III "Hybrid use of registers and
/// BRAM").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridMode {
    /// Case-R: the entire stream buffer in registers.
    CaseR,
    /// Case-H: registers only at tap/staging positions; stretches of at
    /// least `min_bram_stretch` dead positions go to BRAM FIFOs (each
    /// stretch keeps one input and one output staging register in fabric).
    CaseH {
        /// Minimum dead-stretch length converted to a BRAM FIFO. Shorter
        /// stretches stay in registers. Must be ≥ 3 (in-reg + ≥1 BRAM word
        /// + out-reg).
        min_bram_stretch: usize,
    },
}

impl Default for HybridMode {
    fn default() -> Self {
        HybridMode::CaseH {
            min_bram_stretch: 3,
        }
    }
}

impl HybridMode {
    /// Short label for reports ("r" / "h", as in the paper's Table I).
    pub fn label(&self) -> &'static str {
        match self {
            HybridMode::CaseR => "r",
            HybridMode::CaseH { .. } => "h",
        }
    }
}

/// One static buffer the plan instantiates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticBufferSpec {
    /// Dense id (index into the architecture's bank list).
    pub id: usize,
    /// Report name: "T" (holds the top row), "B" (bottom row), or "S{id}".
    pub name: String,
    /// First stream index of the served range.
    pub range_start: usize,
    /// Elements in the served range (= buffer depth in words).
    pub len: usize,
    /// The statified stream offset this buffer stands in for.
    pub offset: i64,
    /// First grid index of the *contents* region: `range_start + offset`.
    /// (Ranges are contiguous and the offset constant, so the contents are
    /// a contiguous grid region.)
    pub region_start: usize,
    /// Memory placement of the (double-buffered) banks.
    pub kind: MemKind,
}

impl StaticBufferSpec {
    /// True when grid index `g` falls inside this buffer's contents region.
    pub fn contains_region(&self, g: usize) -> bool {
        g >= self.region_start && g < self.region_start + self.len
    }
}

/// One contiguous section of the stream-buffer window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Register positions `first .. first+len`.
    Regs {
        /// First window position.
        first: usize,
        /// Number of positions.
        len: usize,
    },
    /// A BRAM stretch covering `first .. first+len` window positions:
    /// one input staging register, `len−2` BRAM FIFO words, one output
    /// staging register.
    Stretch {
        /// First window position.
        first: usize,
        /// Number of positions (≥ 3).
        len: usize,
    },
}

impl Segment {
    /// Number of window positions covered.
    pub fn len(&self) -> usize {
        match self {
            Segment::Regs { len, .. } | Segment::Stretch { len, .. } => *len,
        }
    }

    /// Never true; segments are constructed non-empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First position covered.
    pub fn first(&self) -> usize {
        match self {
            Segment::Regs { first, .. } | Segment::Stretch { first, .. } => *first,
        }
    }
}

/// Where one stencil point of one element is served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceRef {
    /// A stream-buffer tap at this window position.
    Tap {
        /// Window position (0 = newest element in the buffer).
        pos: usize,
    },
    /// A static buffer slot.
    Static {
        /// Static buffer id.
        buffer: usize,
        /// Word index within the buffer.
        slot: usize,
        /// BRAM read port (0 unless a merged-region buffer serves two
        /// points of the same element; plan analysis bounds this at 2).
        port: usize,
    },
    /// A constant boundary value.
    Constant(u64),
}

/// The complete buffer configuration for one problem.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferPlan {
    /// The grid being streamed.
    pub grid: GridSpec,
    /// The stencil shape.
    pub shape: StencilShape,
    /// The boundary conditions.
    pub bounds: BoundarySpec,
    /// Logical word width in bits.
    pub word_bits: u32,
    /// Per-range split decisions (post refinement). Shared behind an
    /// [`Arc`] so cloned plans reuse one table, and comparing two clones
    /// short-circuits on pointer identity instead of walking every range.
    pub decisions: Arc<Vec<RangeDecision>>,
    /// Largest stream offset ahead of the element (window reach forward).
    pub lookahead: usize,
    /// Largest stream offset behind the element.
    pub lookback: usize,
    /// Stream buffer capacity in words: `lookahead + lookback + 1` plus one
    /// staging word at each end.
    pub capacity: usize,
    /// Window positions that must be readable concurrently (sorted).
    pub taps: Vec<usize>,
    /// The static buffers.
    pub static_buffers: Vec<StaticBufferSpec>,
    /// Stream-buffer placement mode.
    pub hybrid: HybridMode,
    /// Number of distinct stencil cases (distinct exact tuple signatures;
    /// nine for the paper's validation grid).
    pub n_cases: usize,
    /// True after [`BufferPlan::dedupe_static_regions`]: static lookups are
    /// region-based (buffer containing `e + o`) instead of per-offset.
    pub statics_are_regions: bool,
}

impl BufferPlan {
    /// Analyses a problem and produces its plan.
    ///
    /// Steps: range analysis (exact split + coalescing) → stream/static
    /// split per [`PlanStrategy`] → architecture derivation (window
    /// geometry, taps, hybrid segmentation, static buffer regions).
    pub fn analyse(
        grid: GridSpec,
        shape: StencilShape,
        bounds: BoundarySpec,
        strategy: PlanStrategy,
        hybrid: HybridMode,
        static_kind: MemKind,
        word_bits: u32,
    ) -> CoreResult<Self> {
        if shape.ndim() != grid.ndim() {
            return Err(CoreError::DimensionMismatch {
                what: "shape",
                got: shape.ndim(),
                grid: grid.ndim(),
            });
        }
        if bounds.ndim() != grid.ndim() {
            return Err(CoreError::DimensionMismatch {
                what: "boundary spec",
                got: bounds.ndim(),
                grid: grid.ndim(),
            });
        }
        if let HybridMode::CaseH { min_bram_stretch } = hybrid {
            if min_bram_stretch < 3 {
                return Err(CoreError::HybridStretchTooShort { min_bram_stretch });
            }
        }
        if word_bits == 0 || word_bits > 64 {
            return Err(CoreError::WordBitsOutOfRange { bits: word_bits });
        }
        // Decisions run over the *exact* ranges (maximal runs of identical
        // per-element tuples). Coalesced/union ranges would attribute wrap
        // offsets to edge elements that skip them, inflating static costs
        // and letting merged regions escape the grid for diagonal wraps;
        // the buffer-merging pass below reassembles the fragmented rows
        // into single physical buffers instead.
        let ranges = split_ranges(&grid, &bounds, &shape)?;
        // The number of distinct stencil cases (the paper's "nine different
        // stencil cases" for the validation grid): distinct tuple
        // signatures over the exact ranges.
        let n_cases = {
            let mut sigs: Vec<_> = ranges.iter().map(|r| r.tuple.clone()).collect();
            sigs.sort_by(|a, b| a.offsets().cmp(b.offsets()));
            sigs.dedup();
            sigs.len()
        };
        let decisions = match strategy {
            PlanStrategy::PerRange(algorithm) => {
                // Paper-faithful granularity: Algorithm 1 over the
                // coalesced (union-tuple) ranges — per-range optimisation
                // over the fine exact ranges would statify offsets the
                // shared window covers for free. Union tuples can make a
                // merged static region escape the grid for diagonal wraps;
                // the region check below reports that as a configuration
                // error (use GlobalWindow for such shapes).
                let coalesced = smache_stencil::coalesce_ranges(ranges.clone());
                let (mut decisions, _) = algorithm.decide_all(&coalesced);
                refine_decisions(&mut decisions);
                decisions
            }
            PlanStrategy::GlobalWindow => global_window_decisions(&ranges),
            PlanStrategy::AllStream => ranges
                .iter()
                .map(|r| {
                    let stream_offsets = r.tuple.offsets().to_vec();
                    let cost = SplitCost {
                        stream_words: r.tuple.anchored_reach() + 1,
                        static_words: 0,
                    };
                    RangeDecision {
                        range: r.clone(),
                        static_offsets: Vec::new(),
                        stream_offsets,
                        cost,
                    }
                })
                .collect(),
        };

        let (lo, hi) = decisions_window(&decisions);
        let lookahead = hi.max(0) as usize;
        let lookback = (-lo.min(0)) as usize;
        let capacity = lookahead + lookback + 3;

        // Tap positions: every distinct stream offset across ranges.
        let mut taps: Vec<usize> = decisions
            .iter()
            .flat_map(|d| d.stream_offsets.iter())
            .map(|&o| (lookahead as i64 + 1 - o) as usize)
            .collect();
        taps.sort_unstable();
        taps.dedup();

        // Static buffers: one per (range, statified offset), then adjacent
        // buffers with the same offset merge into one physical buffer (the
        // range analysis may fragment a row at its open-boundary columns).
        let mut raw: Vec<StaticBufferSpec> = Vec::new();
        for d in &decisions {
            for &offset in &d.static_offsets {
                let region_start_i = d.range.start as i64 + offset;
                if region_start_i < 0 || (region_start_i as usize + d.range.len) > grid.len() {
                    return Err(CoreError::Config(format!(
                        "static region for offset {offset} at range {} escapes the grid",
                        d.range.start
                    )));
                }
                raw.push(StaticBufferSpec {
                    id: 0,
                    name: String::new(),
                    range_start: d.range.start,
                    len: d.range.len,
                    offset,
                    region_start: region_start_i as usize,
                    kind: static_kind,
                });
            }
        }
        raw.sort_by_key(|b| (b.offset, b.range_start));
        let mut static_buffers: Vec<StaticBufferSpec> = Vec::new();
        for b in raw {
            match static_buffers.last_mut() {
                Some(last)
                    if last.offset == b.offset && last.range_start + last.len == b.range_start =>
                {
                    last.len += b.len;
                }
                _ => static_buffers.push(b),
            }
        }
        static_buffers.sort_by_key(|b| b.range_start);
        let last_row_start = grid.len() - grid.row_width();
        for (id, b) in static_buffers.iter_mut().enumerate() {
            b.id = id;
            b.name = if b.region_start == 0 && b.len == grid.row_width() {
                "T".to_string()
            } else if b.region_start == last_row_start && b.len == grid.row_width() {
                "B".to_string()
            } else {
                format!("S{id}")
            };
        }

        Ok(BufferPlan {
            grid,
            shape,
            bounds,
            word_bits,
            decisions: Arc::new(decisions),
            lookahead,
            lookback,
            capacity,
            taps,
            static_buffers,
            hybrid,
            n_cases,
            statics_are_regions: false,
        })
    }

    /// Window position serving stream offset `o` at emission time.
    pub fn pos_of_offset(&self, o: i64) -> usize {
        (self.lookahead as i64 + 1 - o) as usize
    }

    /// The window position of the element being emitted.
    pub fn centre_pos(&self) -> usize {
        self.lookahead + 1
    }

    /// Stream-buffer segmentation for the configured hybrid mode.
    ///
    /// Register positions are the taps, the two end staging positions, and
    /// (in Case-H) the per-stretch staging registers; everything else in a
    /// sufficiently long dead stretch becomes BRAM.
    pub fn segments(&self) -> Vec<Segment> {
        match self.hybrid {
            HybridMode::CaseR => vec![Segment::Regs {
                first: 0,
                len: self.capacity,
            }],
            HybridMode::CaseH { min_bram_stretch } => {
                let mut anchors: Vec<usize> = self.taps.clone();
                anchors.push(0);
                anchors.push(self.capacity - 1);
                anchors.sort_unstable();
                anchors.dedup();

                let mut segs: Vec<Segment> = Vec::new();
                let push_regs = |segs: &mut Vec<Segment>, first: usize, len: usize| {
                    if len == 0 {
                        return;
                    }
                    if let Some(Segment::Regs { len: l, first: f }) = segs.last_mut() {
                        if *f + *l == first {
                            *l += len;
                            return;
                        }
                    }
                    segs.push(Segment::Regs { first, len });
                };

                let mut prev: Option<usize> = None;
                for &a in &anchors {
                    if let Some(p) = prev {
                        let gap = a - p - 1;
                        if gap >= min_bram_stretch {
                            segs.push(Segment::Stretch {
                                first: p + 1,
                                len: gap,
                            });
                        } else {
                            push_regs(&mut segs, p + 1, gap);
                        }
                    }
                    push_regs(&mut segs, a, 1);
                    prev = Some(a);
                }
                segs
            }
        }
    }

    /// Number of register-resident window positions in the current mode.
    pub fn register_positions(&self) -> usize {
        self.segments()
            .iter()
            .map(|s| match s {
                Segment::Regs { len, .. } => *len,
                Segment::Stretch { .. } => 2, // in/out staging registers
            })
            .sum()
    }

    /// Total BRAM-resident window positions (ideal, before depth rounding).
    pub fn bram_positions(&self) -> usize {
        self.segments()
            .iter()
            .map(|s| match s {
                Segment::Regs { .. } => 0,
                Segment::Stretch { len, .. } => len - 2,
            })
            .sum()
    }

    /// Finds the decision covering stream element `e`: a binary search
    /// over the ranges, which an analysed plan lays out in stream order,
    /// then a scan for a plan whose ranges are not in order.
    pub fn decision_for(&self, e: usize) -> CoreResult<&RangeDecision> {
        let covers = |d: &&RangeDecision| e >= d.range.start && e < d.range.end();
        let i = self.decisions.partition_point(|d| d.range.end() <= e);
        self.decisions
            .get(i)
            .filter(covers)
            .or_else(|| self.decisions.iter().find(covers))
            .ok_or_else(|| CoreError::Config(format!("element {e} not covered by any range")))
    }

    /// Resolves the data sources for element `e`'s stencil points,
    /// *positionally*: `out[p]` is the source of shape point `p`, `None`
    /// for boundary-skipped points. `out` is cleared and refilled.
    pub fn sources_for(&self, e: usize, out: &mut Vec<Option<SourceRef>>) -> CoreResult<()> {
        out.clear();
        let coords = self.grid.coords(e)?;
        let decision = self.decision_for(e)?;
        for off in self.shape.offsets() {
            match access::resolve(&self.grid, &self.bounds, &coords, off)? {
                Access::Skip => out.push(None),
                Access::Constant(v) => out.push(Some(SourceRef::Constant(v))),
                Access::Inside(target) => {
                    let o = target as i64 - e as i64;
                    if decision.static_offsets.contains(&o) {
                        let buffer = if self.statics_are_regions {
                            self.static_buffers
                                .iter()
                                .find(|b| b.contains_region(target))
                        } else {
                            self.static_buffers.iter().find(|b| {
                                b.offset == o && e >= b.range_start && e < b.range_start + b.len
                            })
                        }
                        .ok_or_else(|| {
                            CoreError::Config(format!(
                                "no static buffer for offset {o} serving element {e}"
                            ))
                        })?;
                        let slot = if self.statics_are_regions {
                            target - buffer.region_start
                        } else {
                            e - buffer.range_start
                        };
                        let port = out
                            .iter()
                            .flatten()
                            .filter(|s| matches!(s, SourceRef::Static { buffer: b, .. } if *b == buffer.id))
                            .count();
                        if port >= 2 {
                            return Err(CoreError::Config(format!(
                                "element {e} needs more than two concurrent reads \
                                 of static buffer {}",
                                buffer.id
                            )));
                        }
                        out.push(Some(SourceRef::Static {
                            buffer: buffer.id,
                            slot,
                            port,
                        }));
                    } else {
                        out.push(Some(SourceRef::Tap {
                            pos: self.pos_of_offset(o),
                        }));
                    }
                }
            }
        }
        Ok(())
    }

    /// Static-buffer captures for the *output* at grid index `g`: which
    /// buffer slots FSM-3 must write through.
    pub fn captures_for(&self, g: usize, out: &mut Vec<(usize, usize)>) {
        for b in &self.static_buffers {
            if b.contains_region(g) {
                out.push((b.id, g - b.region_start));
            }
        }
    }

    /// Merges static buffers whose contents regions overlap or touch into
    /// single physical buffers, eliminating the duplicate storage the
    /// per-offset model creates (e.g. a reach-2 row wrap stores the last
    /// row twice: once in the ±W·(H−1) buffer and once in the ±(W·(H−1)±W)
    /// one). Lookups become region-based: a statified access `(e, o)` is
    /// served by the buffer containing grid index `e + o`.
    ///
    /// This is an extension beyond the paper's one-buffer-per-tuple-element
    /// formulation; resource accounting changes accordingly, so it is
    /// opt-in (see `SmacheBuilder::dedupe_static_regions`).
    pub fn dedupe_static_regions(&mut self) {
        if self.static_buffers.len() < 2 {
            return;
        }
        let mut regions: Vec<(usize, usize)> = self
            .static_buffers
            .iter()
            .map(|b| (b.region_start, b.region_start + b.len))
            .collect();
        regions.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::new();
        for (start, end) in regions {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        let kind = self.static_buffers[0].kind;
        let last_row_start = self.grid.len() - self.grid.row_width();
        self.static_buffers = merged
            .into_iter()
            .enumerate()
            .map(|(id, (start, end))| {
                let len = end - start;
                let name = if start == 0 && len == self.grid.row_width() {
                    "T".to_string()
                } else if start == last_row_start && len == self.grid.row_width() {
                    "B".to_string()
                } else {
                    format!("S{id}")
                };
                StaticBufferSpec {
                    id,
                    name,
                    // After merging, range bookkeeping is region-based:
                    // every element whose statified target falls in the
                    // region is served (see `sources_for`).
                    range_start: start,
                    len,
                    offset: 0,
                    region_start: start,
                    kind,
                }
            })
            .collect();
        self.statics_are_regions = true;
    }

    /// Total words held in static buffers (single-bank view, the formal
    /// model's `Σ static_j`).
    pub fn static_words(&self) -> u64 {
        self.static_buffers.iter().map(|b| b.len as u64).sum()
    }

    /// The formal model's plan cost: `max(stream) + Σ static` in words
    /// (window without staging, single-banked statics).
    pub fn model_words(&self) -> u64 {
        (self.lookahead + self.lookback + 1) as u64 + self.static_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smache_stencil::Boundary;

    fn paper_plan(hybrid: HybridMode) -> BufferPlan {
        BufferPlan::analyse(
            GridSpec::d2(11, 11).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            PlanStrategy::GlobalWindow,
            hybrid,
            MemKind::Bram,
            32,
        )
        .unwrap()
    }

    #[test]
    fn paper_geometry() {
        let p = paper_plan(HybridMode::default());
        assert_eq!(p.lookahead, 11);
        assert_eq!(p.lookback, 11);
        assert_eq!(p.capacity, 25);
        assert_eq!(p.taps, vec![1, 11, 13, 23]);
        assert_eq!(p.centre_pos(), 12);
        assert_eq!(p.model_words(), 23 + 22);
    }

    #[test]
    fn paper_static_buffers_are_t_and_b() {
        let p = paper_plan(HybridMode::default());
        assert_eq!(p.static_buffers.len(), 2);
        let b = &p.static_buffers[0];
        assert_eq!(b.name, "B", "top-row range reads the bottom row");
        assert_eq!(b.region_start, 110);
        assert_eq!(b.len, 11);
        assert_eq!(b.offset, 110);
        let t = &p.static_buffers[1];
        assert_eq!(t.name, "T", "bottom-row range reads the top row");
        assert_eq!(t.region_start, 0);
        assert_eq!(t.offset, -110);
    }

    #[test]
    fn case_h_segmentation_matches_calibration() {
        let p = paper_plan(HybridMode::default());
        let segs = p.segments();
        // {0,1} regs, stretch 2..=10, {11,12,13} regs, stretch 14..=22, {23,24} regs.
        assert_eq!(
            segs,
            vec![
                Segment::Regs { first: 0, len: 2 },
                Segment::Stretch { first: 2, len: 9 },
                Segment::Regs { first: 11, len: 3 },
                Segment::Stretch { first: 14, len: 9 },
                Segment::Regs { first: 23, len: 2 },
            ]
        );
        assert_eq!(p.register_positions(), 11, "paper Table I: 352 bits / 32");
        assert_eq!(p.bram_positions(), 14, "paper Table I: 448 bits / 32");
    }

    #[test]
    fn case_r_is_one_register_segment() {
        let p = paper_plan(HybridMode::CaseR);
        assert_eq!(p.segments(), vec![Segment::Regs { first: 0, len: 25 }]);
        assert_eq!(p.register_positions(), 25);
        assert_eq!(p.bram_positions(), 0);
    }

    #[test]
    fn large_grid_geometry_matches_table1() {
        let p = BufferPlan::analyse(
            GridSpec::d2(1024, 1024).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap();
        assert_eq!(p.capacity, 2051);
        assert_eq!(p.register_positions(), 11, "constant register share");
        assert_eq!(p.bram_positions(), 2 * 1020);
        assert_eq!(p.static_words(), 2048);
    }

    #[test]
    fn sources_for_interior_and_boundary_elements() {
        let p = paper_plan(HybridMode::default());
        let mut src = Vec::new();
        // Interior element 60 = (5,5): all four from taps.
        p.sources_for(60, &mut src).unwrap();
        assert_eq!(
            src,
            vec![
                Some(SourceRef::Tap { pos: 23 }), // -11 (north)
                Some(SourceRef::Tap { pos: 13 }), // -1 (west)
                Some(SourceRef::Tap { pos: 11 }), // +1 (east)
                Some(SourceRef::Tap { pos: 1 }),  // +11 (south)
            ]
        );
        // Top-row element 5 = (0,5): north from static buffer B slot 5.
        p.sources_for(5, &mut src).unwrap();
        assert_eq!(
            src[0],
            Some(SourceRef::Static {
                buffer: 0,
                slot: 5,
                port: 0
            })
        );
        // NW corner 0 = (0,0): west (point 1) skipped, positionally.
        p.sources_for(0, &mut src).unwrap();
        assert_eq!(src.len(), 4);
        assert_eq!(src[1], None, "west point is absent, not omitted");
        assert_eq!(src.iter().flatten().count(), 3);
    }

    #[test]
    fn captures_cover_static_regions_only() {
        let p = paper_plan(HybridMode::default());
        let mut caps = Vec::new();
        p.captures_for(0, &mut caps);
        assert_eq!(caps, vec![(1, 0)], "grid 0 is slot 0 of buffer T");
        caps.clear();
        p.captures_for(115, &mut caps);
        assert_eq!(caps, vec![(0, 5)], "grid 115 is slot 5 of buffer B");
        caps.clear();
        p.captures_for(60, &mut caps);
        assert!(caps.is_empty(), "interior outputs are not captured");
    }

    #[test]
    fn refinement_folds_coverable_offsets_back_to_stream() {
        // Full torus: the column wraps (±(W−1)) fit inside the row window
        // (±W), so refinement must leave only the two row-wrap buffers.
        let p = BufferPlan::analyse(
            GridSpec::d2(8, 8).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::all_circular(2).unwrap(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap();
        assert_eq!(p.lookahead, 8);
        assert_eq!(p.lookback, 8);
        assert_eq!(
            p.static_buffers.len(),
            2,
            "only the row wraps need static buffers: {:?}",
            p.static_buffers
        );
    }

    #[test]
    fn unrefined_plan_keeps_per_range_decisions() {
        let refined = BufferPlan::analyse(
            GridSpec::d2(8, 8).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::all_circular(2).unwrap(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap();
        // Without refinement the per-range optimiser may keep more statics.
        assert!(refined.static_buffers.len() >= 2);
    }

    #[test]
    fn open_boundaries_need_no_static_buffers() {
        let p = BufferPlan::analyse(
            GridSpec::d2(16, 16).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::all_open(2).unwrap(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap();
        assert!(p.static_buffers.is_empty());
        assert_eq!(p.capacity, 2 * 16 + 3);
    }

    #[test]
    fn constant_boundary_sources() {
        use smache_stencil::AxisBoundaries;
        let p = BufferPlan::analyse(
            GridSpec::d2(5, 5).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::new(&[
                AxisBoundaries::both(Boundary::Constant(9)),
                AxisBoundaries::both(Boundary::Open),
            ])
            .unwrap(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap();
        let mut src = Vec::new();
        p.sources_for(2, &mut src).unwrap();
        assert!(src.contains(&Some(SourceRef::Constant(9))));
        assert!(p.static_buffers.is_empty());
    }

    #[test]
    fn mismatched_dimensions_rejected() {
        let bad = BufferPlan::analyse(
            GridSpec::d1(16).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::all_open(2).unwrap(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        );
        assert!(bad.is_err());
        let bad = BufferPlan::analyse(
            GridSpec::d2(4, 4).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::all_open(1).unwrap(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn tiny_stretch_threshold_rejected() {
        let bad = BufferPlan::analyse(
            GridSpec::d2(4, 4).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::all_open(2).unwrap(),
            PlanStrategy::GlobalWindow,
            HybridMode::CaseH {
                min_bram_stretch: 2,
            },
            MemKind::Bram,
            32,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn all_stream_strategy_buffers_the_whole_reach() {
        let p = BufferPlan::analyse(
            GridSpec::d2(11, 11).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            PlanStrategy::AllStream,
            HybridMode::CaseR,
            MemKind::Bram,
            32,
        )
        .unwrap();
        assert!(p.static_buffers.is_empty());
        // The wrap offsets stay in stream: window spans ±110.
        assert_eq!(p.lookahead, 110);
        assert_eq!(p.lookback, 110);
        assert_eq!(p.capacity, 223, "nearly twice the grid on-chip");

        // It still runs correctly (small grids only!).
        let mut sys = crate::system::smache_system::SmacheSystem::new(
            p,
            Box::new(crate::arch::kernel::AverageKernel),
            crate::system::smache_system::SystemConfig::default(),
        )
        .unwrap();
        let input: Vec<u64> = (0..121).collect();
        let report = sys.run(&input, 2).unwrap();
        let golden = crate::functional::golden::golden_run(
            &GridSpec::d2(11, 11).unwrap(),
            &BoundarySpec::paper_case(),
            &StencilShape::four_point_2d(),
            &crate::arch::kernel::AverageKernel,
            &input,
            2,
        )
        .unwrap();
        assert_eq!(report.output, golden);
        assert_eq!(report.warmup_cycles, 0, "no static buffers, no warm-up");
    }

    #[test]
    fn segments_tile_the_window() {
        for hybrid in [
            HybridMode::CaseR,
            HybridMode::CaseH {
                min_bram_stretch: 3,
            },
            HybridMode::CaseH {
                min_bram_stretch: 6,
            },
        ] {
            let p = paper_plan(hybrid);
            let segs = p.segments();
            let mut next = 0usize;
            for s in &segs {
                assert_eq!(s.first(), next, "segments must tile: {segs:?}");
                next += s.len();
            }
            assert_eq!(next, p.capacity);
            assert_eq!(p.register_positions() + p.bram_positions(), p.capacity);
        }
    }
}
