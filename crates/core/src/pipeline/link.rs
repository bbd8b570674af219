//! The on-chip inter-stage link of a temporal pipeline.
//!
//! Stage `t` of a [`TemporalPipeline`](crate::pipeline::TemporalPipeline)
//! streams its kernel results into a [`StageLink`], and stage `t+1` draws
//! from it in two ways:
//!
//! * **sequentially**, as the AXI word stream feeding stage `t+1`'s shift
//!   window ([`StageLink::pop_next`]);
//! * **randomly**, during stage `t+1`'s per-pass warm-up, when its static
//!   buffers prefetch arbitrary grid indices of the upstream output
//!   ([`StageLink::peek`] gated by [`StageLink::available`]).
//!
//! The random-access requirement is what makes the link a full-pass
//! buffer rather than a bounded FIFO: a wrap-around boundary's static
//! region sits at the far end of the upstream output, so the downstream
//! warm-up may only start once the upstream stage is nearly done. For
//! stream-only plans (open/mirror/constant boundaries) the prefetch set is
//! empty and consumption tracks production with FIFO-like occupancy.
//! Either way the link is on-chip (its bits are counted in the pipeline's
//! resource report) and intermediate timesteps never touch DRAM.

use smache_mem::Word;

/// A single-pass inter-stage buffer: upstream produces element results in
/// order, downstream consumes them sequentially and peeks them randomly.
#[derive(Debug, Clone)]
pub struct StageLink {
    words: Vec<Word>,
    produced: usize,
    consumed: usize,
}

impl StageLink {
    /// An empty link covering `n` grid elements.
    pub fn new(n: usize) -> StageLink {
        StageLink {
            words: vec![0; n],
            produced: 0,
            consumed: 0,
        }
    }

    /// Grid elements the link covers.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True for a zero-element link.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Accepts the upstream result for element `e` (elements arrive
    /// strictly in order — the kernel pipeline preserves emission order).
    pub fn push(&mut self, e: usize, word: Word) {
        debug_assert_eq!(e, self.produced, "upstream results arrive in order");
        self.words[e] = word;
        self.produced += 1;
    }

    /// True when the word at grid index `addr` has been produced.
    pub fn available(&self, addr: usize) -> bool {
        addr < self.produced
    }

    /// The produced word at grid index `addr` (warm-up random access).
    pub fn peek(&self, addr: usize) -> Word {
        debug_assert!(self.available(addr));
        self.words[addr]
    }

    /// The next sequential word, if produced — the downstream stream feed.
    pub fn pop_next(&mut self) -> Option<Word> {
        if self.consumed < self.produced {
            let w = self.words[self.consumed];
            self.consumed += 1;
            Some(w)
        } else {
            None
        }
    }

    /// Words produced so far this pass.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// Words consumed sequentially so far this pass.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Produced-but-not-yet-consumed words — the FIFO-occupancy analogue
    /// sampled by the pipeline's telemetry.
    pub fn occupancy(&self) -> usize {
        self.produced - self.consumed
    }

    /// Rewinds the link for the next pass without touching storage.
    pub fn reset(&mut self) {
        self.produced = 0;
        self.consumed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_random_access_track_production() {
        let mut link = StageLink::new(4);
        assert_eq!(link.pop_next(), None);
        assert!(!link.available(0));
        link.push(0, 10);
        link.push(1, 11);
        assert!(link.available(1));
        assert!(!link.available(2));
        assert_eq!(link.peek(1), 11);
        assert_eq!(link.occupancy(), 2);
        assert_eq!(link.pop_next(), Some(10));
        assert_eq!(link.occupancy(), 1);
        link.push(2, 12);
        link.push(3, 13);
        assert_eq!(link.pop_next(), Some(11));
        assert_eq!(link.pop_next(), Some(12));
        assert_eq!(link.pop_next(), Some(13));
        assert_eq!(link.pop_next(), None);
        link.reset();
        assert_eq!(link.occupancy(), 0);
        assert!(!link.available(0));
    }
}
