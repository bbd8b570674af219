//! Source rows: the plan's per-element gather, lowered once per engine.
//!
//! [`BufferPlan::sources_for`] answers "where does shape point `p` of
//! element `e` come from?" by rebuilding the element's coordinates,
//! resolving its boundaries and scanning the static buffers. The answer is
//! a static function of the plan (the paper's premise), so an engine asks
//! it once per element, in stream order, and lowers the answers into
//! [`SourceRows`]:
//!
//! * the [`GatherTable`]'s `u32` rows — per slot a grid index, a constant
//!   row or the hole row, plus a kernel mask per element. A sealed
//!   schedule keeps their run form ([`GatherTable::to_runs`]).
//! * one tag byte per slot naming the architectural source of a grid row:
//!   a stream tap, or a static bank and BRAM port.
//!
//! Every stage's controller shares one lowering through an [`Arc`]. [`SourceRows::source`] decodes a slot back into
//! the [`SourceRef`] `sources_for` gave it.
//!
//! Every architectural source of element `e` resolves to a
//! current-instance grid index `g`: a tap serves stream offset `g − e` at
//! window position `lookahead + 1 − (g − e)`, and a static bank holds grid
//! index `g` in slot `g − region_start`.

use std::sync::Arc;

use smache_sim::{GatherTable, SlotSource};

use crate::config::{BufferPlan, SourceRef};
use crate::error::CoreError;
use crate::CoreResult;

/// Tag of a slot that is not a static read: a tap on a grid row, and
/// ignored on constant and hole rows.
const TAP: u8 = 0;

/// Static banks share a tag when their ids agree modulo this many; a plan
/// with more banks than tag values (a per-row greedy plan on a tall grid)
/// tells them apart by which one serves the slot.
const BANK_CLASSES: usize = 127;

/// The tag of a static read from `bank` on `port` (0 or 1).
fn static_tag(bank: usize, port: usize) -> u8 {
    (1 + ((bank % BANK_CLASSES) << 1 | port)) as u8
}

/// What decoding needs of one static buffer.
#[derive(Debug, Clone, Copy)]
struct BankRoute {
    region_start: usize,
    range_start: usize,
    len: usize,
    offset: i64,
}

/// A plan's per-element sources, lowered once (see the module docs).
#[derive(Debug)]
pub struct SourceRows {
    gather: Arc<GatherTable>,
    /// One tag per slot, element-major like the gather rows.
    tags: Vec<u8>,
    lookahead: usize,
    banks: Vec<BankRoute>,
    /// Static reads are region-based ([`BufferPlan::statics_are_regions`]).
    regions: bool,
}

impl SourceRows {
    /// Lowers `plan`'s sources for every element through
    /// [`BufferPlan::sources_for`], so decoding a slot yields exactly what
    /// it returns, and lowering fails where it fails.
    pub fn lower(plan: &BufferPlan) -> CoreResult<SourceRows> {
        let (n, arity) = (plan.grid.len(), plan.shape.offsets().len());
        let gather_err = |e: String| CoreError::Config(format!("gather: {e}"));
        let grid = |g: usize| {
            u32::try_from(g)
                .map(SlotSource::Grid)
                .map_err(|_| gather_err(format!("grid index {g} exceeds u32")))
        };
        let mut rows = GatherTable::builder(n, arity).map_err(gather_err)?;
        rows.reserve(n * arity);
        let mut tags = Vec::with_capacity(n * arity);
        let mut masks = Vec::with_capacity(n);
        let mut sources = Vec::with_capacity(arity);
        for e in 0..n {
            plan.sources_for(e, &mut sources)?;
            let mut mask = 0u64;
            for (p, source) in sources.iter().enumerate() {
                // Every architectural source resolves to the grid index it
                // reads (see the module docs).
                let (slot, tag) = match *source {
                    None => (SlotSource::Hole, TAP),
                    Some(SourceRef::Constant(v)) => (SlotSource::Const(v), TAP),
                    Some(SourceRef::Tap { pos }) => (grid(e + plan.lookahead + 1 - pos)?, TAP),
                    Some(SourceRef::Static { buffer, slot, port }) => {
                        let bank = &plan.static_buffers[buffer];
                        let g = if plan.statics_are_regions {
                            bank.region_start + slot
                        } else {
                            (e as i64 + bank.offset) as usize
                        };
                        (grid(g)?, static_tag(buffer, port))
                    }
                };
                if source.is_some() {
                    mask |= 1 << p;
                }
                rows.push(slot).map_err(gather_err)?;
                tags.push(tag);
            }
            masks.push(mask);
        }
        let banks = plan
            .static_buffers
            .iter()
            .map(|b| BankRoute {
                region_start: b.region_start,
                range_start: b.range_start,
                len: b.len,
                offset: b.offset,
            })
            .collect();
        Ok(SourceRows {
            gather: Arc::new(rows.finish(masks).map_err(gather_err)?),
            tags,
            lookahead: plan.lookahead,
            banks,
            regions: plan.statics_are_regions,
        })
    }

    /// The gather rows the stages read, element by element.
    pub fn gather(&self) -> &Arc<GatherTable> {
        &self.gather
    }

    /// Element `e`'s slot tags, in slot order.
    #[inline]
    pub fn tags(&self, e: usize) -> &[u8] {
        let arity = self.gather.arity();
        &self.tags[e * arity..(e + 1) * arity]
    }

    /// Decodes the slot of element `e` that reads extended-grid row `row`
    /// with `tag`: `None` for a hole.
    #[inline]
    pub fn decode(&self, e: usize, row: u32, tag: u8) -> Option<SourceRef> {
        if let Some((buffer, slot, port)) = self.static_read(e, row, tag) {
            return Some(SourceRef::Static { buffer, slot, port });
        }
        match self.gather.row_source(row) {
            SlotSource::Grid(g) => Some(SourceRef::Tap {
                pos: (self.lookahead as i64 + 1 - (g as i64 - e as i64)) as usize,
            }),
            SlotSource::Const(v) => Some(SourceRef::Constant(v)),
            SlotSource::Hole => None,
        }
    }

    /// The static read `(bank, slot, port)` of element `e`'s slot on
    /// extended-grid row `row` with `tag`, or `None` when the slot is not
    /// a static read (only a static read carries a nonzero tag, and always
    /// on a grid row).
    #[inline]
    pub fn static_read(&self, e: usize, row: u32, tag: u8) -> Option<(usize, usize, usize)> {
        if tag == TAP {
            return None;
        }
        let g = row as usize;
        let class = usize::from(tag - 1) >> 1;
        let bank = if class + BANK_CLASSES >= self.banks.len() {
            class
        } else {
            (class..self.banks.len())
                .step_by(BANK_CLASSES)
                .find(|&b| self.serves(b, e, g))
                .unwrap_or(class)
        };
        Some((
            bank,
            g - self.banks[bank].region_start,
            usize::from(tag - 1) & 1,
        ))
    }

    /// True when static bank `b` serves element `e`'s read of grid index
    /// `g` (the rule [`BufferPlan::sources_for`] picks banks by).
    fn serves(&self, b: usize, e: usize, g: usize) -> bool {
        let bank = &self.banks[b];
        if self.regions {
            g >= bank.region_start && g < bank.region_start + bank.len
        } else {
            bank.offset == g as i64 - e as i64
                && e >= bank.range_start
                && e < bank.range_start + bank.len
        }
    }

    /// The source of shape point `p` of element `e`, as
    /// [`BufferPlan::sources_for`] gives it.
    pub fn source(&self, e: usize, p: usize) -> Option<SourceRef> {
        let (row, _) = self.gather.row(e);
        self.decode(e, row[p], self.tags(e)[p])
    }

    /// Heap footprint in bytes: 4 per slot row, 1 per slot tag and 8 per
    /// element mask, plus the constants and the bank routes.
    pub fn approx_bytes(&self) -> usize {
        self.gather.approx_bytes()
            + self.tags.len()
            + self.banks.len() * std::mem::size_of::<BankRoute>()
    }
}
