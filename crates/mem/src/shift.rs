//! Register shift line with tap access.
//!
//! The Case-R stream buffer is a single [`ShiftReg`] spanning the whole
//! stencil reach; the hybrid (Case-H) buffer uses short `ShiftReg` segments
//! around the tap positions with BRAM FIFOs covering the stretches between
//! them.

use smache_sim::{ResourceUsage, SimError, SimResult, Word};

/// A shift line of `len` word registers.
///
/// Data enters at position 0 when a shift is staged and moves towards
/// position `len-1`; any position can be read combinationally (register
/// memory). The element shifted out of the tail is returned by `tick`.
#[derive(Debug, Clone)]
pub struct ShiftReg {
    name: String,
    width_bits: u32,
    regs: Vec<Word>,
    staged_in: Option<Word>,
}

impl ShiftReg {
    /// Creates a zero-initialised shift line.
    pub fn new(name: &str, len: usize, width_bits: u32) -> SimResult<Self> {
        if len == 0 {
            return Err(SimError::Config(format!(
                "shiftreg `{name}`: length must be positive"
            )));
        }
        if width_bits == 0 || width_bits > 64 {
            return Err(SimError::Config(format!(
                "shiftreg `{name}`: width {width_bits} outside 1..=64"
            )));
        }
        Ok(ShiftReg {
            name: name.to_string(),
            width_bits,
            regs: vec![0; len],
            staged_in: None,
        })
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of register stages.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Always false (length is validated positive); present for API
    /// completeness alongside [`ShiftReg::len`].
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Logical word width in bits.
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// Combinational read of stage `pos` (0 = newest element).
    pub fn tap(&self, pos: usize) -> SimResult<Word> {
        self.regs
            .get(pos)
            .copied()
            .ok_or_else(|| SimError::AddressOutOfRange {
                memory: self.name.clone(),
                addr: pos,
                depth: self.regs.len(),
            })
    }

    /// Stages a shift: on the next [`ShiftReg::tick`], `word` enters at
    /// position 0 and everything moves up one stage. Idempotent (re-staging
    /// replaces the pending input). Staging `None`-equivalent is expressed
    /// by calling [`ShiftReg::cancel_shift`].
    pub fn stage_shift(&mut self, word: Word) {
        self.staged_in = Some(word);
    }

    /// Cancels a staged shift (the line holds this cycle).
    pub fn cancel_shift(&mut self) {
        self.staged_in = None;
    }

    /// True if a shift is currently staged.
    pub fn shift_staged(&self) -> bool {
        self.staged_in.is_some()
    }

    /// Applies the staged shift, if any, returning the word expelled from
    /// the tail (`None` if the line held).
    pub fn tick(&mut self) -> Option<Word> {
        match self.staged_in.take() {
            Some(input) => {
                let expelled = *self.regs.last().expect("len>0");
                let len = self.regs.len();
                self.regs.copy_within(..len - 1, 1);
                self.regs[0] = input;
                Some(expelled)
            }
            None => None,
        }
    }

    /// Testbench backdoor: set a stage directly.
    pub fn poke(&mut self, pos: usize, word: Word) {
        self.regs[pos] = word;
    }

    /// Immutable view of all stages (index 0 = newest).
    pub fn contents(&self) -> &[Word] {
        &self.regs
    }

    /// Resource report: `len × width` register bits.
    pub fn resources(&self) -> ResourceUsage {
        ResourceUsage::regs(self.regs.len() as u64 * self.width_bits as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifts_move_data_towards_tail() {
        let mut s = ShiftReg::new("s", 3, 32).unwrap();
        for v in [1, 2, 3] {
            s.stage_shift(v);
            s.tick();
        }
        assert_eq!(s.tap(0).unwrap(), 3, "newest at head");
        assert_eq!(s.tap(1).unwrap(), 2);
        assert_eq!(s.tap(2).unwrap(), 1, "oldest at tail");
    }

    #[test]
    fn tick_returns_expelled_word() {
        let mut s = ShiftReg::new("s", 2, 32).unwrap();
        s.stage_shift(10);
        assert_eq!(s.tick(), Some(0), "zero-initialised tail expelled first");
        s.stage_shift(20);
        s.tick();
        s.stage_shift(30);
        assert_eq!(s.tick(), Some(10));
    }

    #[test]
    fn hold_cycle_preserves_contents() {
        let mut s = ShiftReg::new("s", 2, 32).unwrap();
        s.stage_shift(5);
        s.tick();
        assert_eq!(s.tick(), None, "no staged shift: line holds");
        assert_eq!(s.tap(0).unwrap(), 5);
    }

    #[test]
    fn cancel_shift_holds_the_line() {
        let mut s = ShiftReg::new("s", 2, 32).unwrap();
        s.stage_shift(5);
        s.cancel_shift();
        assert!(!s.shift_staged());
        assert_eq!(s.tick(), None);
        assert_eq!(s.tap(0).unwrap(), 0);
    }

    #[test]
    fn restaging_replaces_pending_input() {
        let mut s = ShiftReg::new("s", 1, 32).unwrap();
        s.stage_shift(1);
        s.stage_shift(2);
        s.tick();
        assert_eq!(s.tap(0).unwrap(), 2);
    }

    #[test]
    fn tap_bounds_checked() {
        let s = ShiftReg::new("s", 2, 32).unwrap();
        assert!(s.tap(2).is_err());
    }

    #[test]
    fn resources_count_register_bits() {
        let s = ShiftReg::new("s", 25, 32).unwrap();
        assert_eq!(s.resources().registers, 800);
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(ShiftReg::new("s", 0, 32).is_err());
        assert!(ShiftReg::new("s", 2, 0).is_err());
        assert!(ShiftReg::new("s", 2, 70).is_err());
    }
}
