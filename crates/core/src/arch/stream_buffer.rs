//! The stream buffer: a tapped delay line over the stencil window.
//!
//! Window position 0 holds the newest element; position `capacity−1` the
//! oldest. Case-R realises every position as a register; Case-H keeps
//! registers only at tap/staging positions and routes each long dead
//! stretch through a BRAM FIFO framed by one input and one output staging
//! register ("accessed logically as a FIFO, but never require more than
//! one concurrent read access", §III). Reads are only legal at register
//! positions — the structural constraint that makes the hybrid valid is
//! *enforced*, not assumed.
//!
//! A `P`-lane module shifts up to `P` words per cycle, which a BRAM FIFO
//! cannot take, so its window is all registers and `3P + 4` words longer
//! than the plan's: shifts may run up to a beat ahead of emission and the
//! trailing group still needs its lookback.

use smache_mem::{BramFifo, ShiftReg, Word};
use smache_sim::{ResourceUsage, SimError, SimResult};

use crate::config::{BufferPlan, Segment};
use crate::cost::synthesis::clog2;
use crate::CoreResult;

enum Section {
    Regs {
        first: usize,
        regs: ShiftReg,
    },
    Stretch {
        first: usize,
        len: usize,
        in_reg: Word,
        fifo: BramFifo,
        out_reg: Word,
    },
}

impl Section {
    fn first(&self) -> usize {
        match self {
            Section::Regs { first, .. } | Section::Stretch { first, .. } => *first,
        }
    }

    fn len(&self) -> usize {
        match self {
            Section::Regs { regs, .. } => regs.len(),
            Section::Stretch { len, .. } => *len,
        }
    }

    /// The value currently leaving this section (its oldest position).
    fn tail_value(&self) -> Word {
        match self {
            Section::Regs { regs, .. } => regs.tap(regs.len() - 1).expect("len>0"),
            Section::Stretch { out_reg, .. } => *out_reg,
        }
    }
}

/// Shifts one word through every section at once. Each section's
/// outgoing word is read before that section moves, so all sections shift
/// simultaneously (synchronous semantics).
fn shift_sections(sections: &mut [Section], word: Word) -> SimResult<()> {
    let mut carry = word;
    for section in sections {
        let tail = section.tail_value();
        match section {
            Section::Regs { regs, .. } => {
                regs.stage_shift(carry);
                regs.tick();
            }
            Section::Stretch {
                in_reg,
                fifo,
                out_reg,
                ..
            } => {
                // out_reg <= fifo head (once the delay line is primed);
                // fifo <= in_reg; in_reg <= carry.
                if fifo.is_full() {
                    *out_reg = fifo.head().expect("full fifo has a head");
                    fifo.stage_pop();
                }
                fifo.stage_push(*in_reg);
                fifo.tick()?;
                *in_reg = carry;
            }
        }
        carry = tail;
    }
    Ok(())
}

/// The stream buffer.
pub struct StreamBuffer {
    sections: Vec<Section>,
    /// The section holding each window position, resolved once at
    /// construction ([`StreamBuffer::NO_SECTION`] where none does).
    section_at: Vec<u32>,
    capacity: usize,
    word_bits: u32,
    /// Words staged this cycle, oldest first.
    staged: Vec<Word>,
    /// Total words shifted in since construction/reset.
    pushed: u64,
}

impl StreamBuffer {
    /// Marks a window position no section holds.
    const NO_SECTION: u32 = u32::MAX;

    /// Builds the buffer of a `lanes`-wide module from a plan's
    /// segmentation (one lane) or as one register line (more lanes).
    pub fn from_plan(plan: &BufferPlan, lanes: usize) -> CoreResult<Self> {
        let (segments, capacity) = if lanes == 1 {
            (plan.segments(), plan.capacity)
        } else {
            let len = plan.lookahead + plan.lookback + 3 * lanes + 4;
            (vec![Segment::Regs { first: 0, len }], len)
        };
        let mut sections = Vec::new();
        for (i, seg) in segments.into_iter().enumerate() {
            match seg {
                Segment::Regs { first, len } => sections.push(Section::Regs {
                    first,
                    regs: ShiftReg::new(&format!("sm.regs{i}"), len, plan.word_bits)?,
                }),
                Segment::Stretch { first, len } => sections.push(Section::Stretch {
                    first,
                    len,
                    in_reg: 0,
                    fifo: BramFifo::new(&format!("sm.fifo{i}"), len - 2, plan.word_bits)?,
                    out_reg: 0,
                }),
            }
        }
        let mut section_at = vec![Self::NO_SECTION; capacity];
        for (i, s) in sections.iter().enumerate() {
            let covered = s.first().min(capacity)..(s.first() + s.len()).min(capacity);
            section_at[covered].fill(i as u32);
        }
        Ok(StreamBuffer {
            sections,
            section_at,
            capacity,
            word_bits: plan.word_bits,
            staged: Vec::new(),
            pushed: 0,
        })
    }

    /// Window capacity in words.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Words shifted in so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Stages a shift: `word` enters position 0 at the next tick, after
    /// any word staged before it this cycle. Absence of a staged shift
    /// holds the line (stall).
    pub fn stage_shift(&mut self, word: Word) {
        self.staged.push(word);
    }

    /// Cancels the staged shifts.
    pub fn cancel_shift(&mut self) {
        self.staged.clear();
    }

    /// True when a shift is staged for the upcoming tick.
    pub fn shift_staged(&self) -> bool {
        !self.staged.is_empty()
    }

    /// Words staged for the upcoming tick.
    pub fn staged_shifts(&self) -> usize {
        self.staged.len()
    }

    /// Reads a register-resident window position. Reading inside a BRAM
    /// stretch returns [`SimError::PortConflict`]-class configuration
    /// errors — the hybrid's structural constraint.
    pub fn read_pos(&self, pos: usize) -> SimResult<Word> {
        let section = self
            .section_at
            .get(pos)
            .and_then(|&i| self.sections.get(i as usize))
            .ok_or_else(|| SimError::AddressOutOfRange {
                memory: "stream_buffer".into(),
                addr: pos,
                depth: self.capacity,
            })?;
        match section {
            Section::Regs { first, regs } => regs.tap(pos - first),
            Section::Stretch {
                first,
                len,
                in_reg,
                out_reg,
                ..
            } => {
                if pos == *first {
                    Ok(*in_reg)
                } else if pos == first + len - 1 {
                    Ok(*out_reg)
                } else {
                    Err(SimError::Config(format!(
                        "window position {pos} is inside a BRAM stretch and has no tap"
                    )))
                }
            }
        }
    }

    /// Applies the staged shifts (or holds). Call once per cycle.
    pub fn tick(&mut self) -> SimResult<()> {
        for &word in &self.staged {
            shift_sections(&mut self.sections, word)?;
        }
        self.pushed += self.staged.len() as u64;
        self.staged.clear();
        Ok(())
    }

    /// Reconstructs the logical window contents (position 0 first), reading
    /// through BRAM stretches — testbench only; hardware cannot do this.
    pub fn logical_window(&self) -> Vec<Word> {
        let mut out = vec![0; self.capacity];
        for section in &self.sections {
            match section {
                Section::Regs { first, regs } => {
                    for (i, w) in regs.contents().iter().enumerate() {
                        out[first + i] = *w;
                    }
                }
                Section::Stretch {
                    first,
                    len,
                    in_reg,
                    fifo,
                    out_reg,
                } => {
                    out[*first] = *in_reg;
                    out[first + len - 1] = *out_reg;
                    // A word pushed into the FIFO j shifts ago sits at
                    // window position `first + j`; the head (oldest, j =
                    // fill) therefore maps to `first + fill`, walking down
                    // to `first + 1` for the newest occupied slot. Slots
                    // not yet reached during warm-up stay zero, matching a
                    // zero-initialised register line.
                    let fill = fifo.len();
                    let mut pos = first + fill;
                    let mut probe = fifo.clone();
                    while let Some(head) = probe.head() {
                        out[pos] = head;
                        probe.stage_pop();
                        probe.tick().expect("pop within fill");
                        pos -= 1;
                    }
                }
            }
        }
        out
    }

    /// Synthesised resources: the register segments, the stretch staging
    /// registers, the (power-of-two rounded) FIFO BRAM, and the shared
    /// occupancy counter of the lock-stepped FIFO pair.
    pub fn resources(&self) -> ResourceUsage {
        let mut r = ResourceUsage::ZERO;
        let mut max_depth = 0u64;
        for s in &self.sections {
            match s {
                Section::Regs { regs, .. } => r += regs.resources(),
                Section::Stretch { fifo, .. } => {
                    r += ResourceUsage::regs(2 * self.word_bits as u64);
                    r += fifo.resources();
                    max_depth = max_depth.max(fifo.capacity() as u64);
                }
            }
        }
        r += ResourceUsage::regs(clog2(max_depth));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HybridMode, PlanStrategy};
    use smache_mem::MemKind;
    use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

    fn plan(hybrid: HybridMode) -> BufferPlan {
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

    /// Reference model: a plain shift register of the same capacity.
    fn reference_shift(cap: usize, words: &[Word]) -> Vec<Word> {
        let mut line = vec![0u64; cap];
        for &w in words {
            line.rotate_right(1);
            line[0] = w;
        }
        line
    }

    #[test]
    fn case_r_behaves_as_shift_line() {
        let p = plan(HybridMode::CaseR);
        let mut sb = StreamBuffer::from_plan(&p, 1).unwrap();
        let words: Vec<Word> = (1..=40).collect();
        for &w in &words {
            sb.stage_shift(w);
            sb.tick().unwrap();
        }
        assert_eq!(sb.logical_window(), reference_shift(p.capacity, &words));
        assert_eq!(sb.pushed(), 40);
    }

    #[test]
    fn case_h_is_behaviourally_identical_to_case_r() {
        // The hybrid must be a drop-in: same logical window contents after
        // any number of shifts, including through warm-up.
        let pr = plan(HybridMode::CaseR);
        let ph = plan(HybridMode::default());
        let mut r = StreamBuffer::from_plan(&pr, 1).unwrap();
        let mut h = StreamBuffer::from_plan(&ph, 1).unwrap();
        for step in 0..100u64 {
            let w = step.wrapping_mul(0x9e37_79b9) & 0xffff_ffff;
            r.stage_shift(w);
            h.stage_shift(w);
            r.tick().unwrap();
            h.tick().unwrap();
            assert_eq!(
                r.logical_window(),
                h.logical_window(),
                "windows diverged after {} shifts",
                step + 1
            );
        }
    }

    #[test]
    fn taps_read_correct_elements() {
        let p = plan(HybridMode::default());
        let mut sb = StreamBuffer::from_plan(&p, 1).unwrap();
        // Push elements 0..60 (values = indices). When k words are pushed,
        // position q holds element k-1-q.
        for w in 0..60u64 {
            sb.stage_shift(w);
            sb.tick().unwrap();
        }
        for &tap in &p.taps {
            assert_eq!(sb.read_pos(tap).unwrap(), 60 - 1 - tap as u64);
        }
        // The centre (emission) position is a register too.
        assert_eq!(sb.read_pos(p.centre_pos()).unwrap(), 60 - 1 - 12);
    }

    #[test]
    fn reading_inside_a_stretch_is_rejected() {
        let p = plan(HybridMode::default());
        let sb = StreamBuffer::from_plan(&p, 1).unwrap();
        // Positions 3..=9 are BRAM interior in the 11×11 plan.
        assert!(sb.read_pos(5).is_err());
        assert!(sb.read_pos(0).is_ok(), "staging head is a register");
        assert!(sb.read_pos(2).is_ok(), "stretch input staging register");
        assert!(sb.read_pos(10).is_ok(), "stretch output staging register");
        assert!(sb.read_pos(25).is_err(), "out of window");
    }

    #[test]
    fn stall_holds_the_window() {
        let p = plan(HybridMode::default());
        let mut sb = StreamBuffer::from_plan(&p, 1).unwrap();
        for w in 0..30u64 {
            sb.stage_shift(w);
            sb.tick().unwrap();
        }
        let before = sb.logical_window();
        sb.tick().unwrap(); // no staged shift: hold
        assert_eq!(sb.logical_window(), before);
        sb.stage_shift(99);
        sb.cancel_shift();
        sb.tick().unwrap();
        assert_eq!(sb.logical_window(), before);
        assert_eq!(sb.pushed(), 30);
    }

    #[test]
    fn resources_match_synthesis_model() {
        use crate::cost::SynthesisModel;
        for hybrid in [HybridMode::CaseR, HybridMode::default()] {
            let p = plan(hybrid);
            let sb = StreamBuffer::from_plan(&p, 1).unwrap();
            let m = SynthesisModel.memory(&p);
            assert_eq!(sb.resources().registers, m.r_stream, "{hybrid:?}");
            assert_eq!(sb.resources().bram_bits, m.b_stream, "{hybrid:?}");
        }
    }

    #[test]
    fn large_grid_hybrid_window_equivalence_spot_check() {
        let p = BufferPlan::analyse(
            GridSpec::d2(64, 64).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap();
        let mut sb = StreamBuffer::from_plan(&p, 1).unwrap();
        let n = 3 * p.capacity as u64;
        for w in 0..n {
            sb.stage_shift(w);
            sb.tick().unwrap();
        }
        for &tap in &p.taps {
            assert_eq!(sb.read_pos(tap).unwrap(), n - 1 - tap as u64);
        }
    }
}
