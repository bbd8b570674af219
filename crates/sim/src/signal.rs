//! Wires, registers and the shared simulation context.
//!
//! [`Wire`] models a combinational net: values driven during a delta pass
//! become visible immediately to subsequent readers, and the simulator keeps
//! running passes until a full pass changes nothing. [`Reg`] models a D-type
//! flip-flop bank: `d()` stages the next value during evaluation and
//! [`Reg::tick`] latches it during commit.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::error::SimError;

/// Identifies a wire within one [`SimCtx`]; allocated densely from zero in
/// creation order.
pub type WireId = u32;

/// Shared bookkeeping for one simulator instance.
///
/// Every [`Wire`] created from a context reports value changes and drive
/// conflicts back to it; the [`Simulator`](crate::Simulator) uses the change
/// count to detect delta convergence.
#[derive(Clone)]
pub struct SimCtx {
    inner: Rc<CtxInner>,
}

struct CtxInner {
    /// Monotonically increasing id of the current delta pass.
    pass: Cell<u64>,
    /// Number of wire value changes observed during the current pass.
    changes: Cell<u64>,
    /// Cycle counter mirrored here so wires can report errors with context.
    cycle: Cell<u64>,
    /// First drive conflict observed (reported at end of pass).
    conflict: RefCell<Option<SimError>>,
    /// Next wire id to hand out.
    next_wire: Cell<WireId>,
    /// Wire names, indexed by [`WireId`]. Names are cold data (traces and
    /// error messages only), so they live here rather than inside every
    /// `WireInner` — the per-wire hot path never touches a `String`.
    names: RefCell<Vec<Box<str>>>,
}

impl SimCtx {
    /// Creates a fresh context. Usually done via [`Simulator::new`](crate::Simulator::new).
    pub fn new() -> Self {
        SimCtx {
            inner: Rc::new(CtxInner {
                pass: Cell::new(0),
                changes: Cell::new(0),
                cycle: Cell::new(0),
                conflict: RefCell::new(None),
                next_wire: Cell::new(0),
                names: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Creates a named wire with an initial value.
    pub fn wire<T: Copy + PartialEq + fmt::Debug + 'static>(&self, name: &str, init: T) -> Wire<T> {
        let id = self.inner.next_wire.get();
        self.inner.next_wire.set(id + 1);
        self.inner.names.borrow_mut().push(name.into());
        Wire {
            ctx: self.clone(),
            inner: Rc::new(WireInner {
                id,
                value: Cell::new(init),
                driven_pass: Cell::new(u64::MAX),
            }),
        }
    }

    /// Begins a new delta pass; resets the change counter.
    ///
    /// The simulator calls this internally; testbench code calls it before
    /// driving external stimulus between steps, so that a changed stimulus
    /// value is not mistaken for a multi-driver conflict.
    pub fn begin_pass(&self) {
        self.inner.pass.set(self.inner.pass.get().wrapping_add(1));
        self.inner.changes.set(0);
    }

    /// Number of wire changes recorded in the current pass.
    pub(crate) fn changes(&self) -> u64 {
        self.inner.changes.get()
    }

    pub(crate) fn set_cycle(&self, cycle: u64) {
        self.inner.cycle.set(cycle);
    }

    /// Current cycle as seen by the wires (for error reporting).
    pub fn cycle(&self) -> u64 {
        self.inner.cycle.get()
    }

    pub(crate) fn take_conflict(&self) -> Option<SimError> {
        self.inner.conflict.borrow_mut().take()
    }

    fn record_change(&self) {
        self.inner.changes.set(self.inner.changes.get() + 1);
    }

    fn record_conflict(&self, wire: WireId) {
        let mut slot = self.inner.conflict.borrow_mut();
        if slot.is_none() {
            *slot = Some(SimError::DoubleDrive {
                wire: self.wire_name(wire),
                cycle: self.inner.cycle.get(),
            });
        }
    }

    /// The name `wire` was created with (traces and error messages).
    pub fn wire_name(&self, wire: WireId) -> String {
        self.inner
            .names
            .borrow()
            .get(wire as usize)
            .map(|n| n.to_string())
            .unwrap_or_else(|| format!("wire#{wire}"))
    }
}

impl Default for SimCtx {
    fn default() -> Self {
        Self::new()
    }
}

struct WireInner<T> {
    id: WireId,
    value: Cell<T>,
    /// Pass id during which this wire was last driven, used to detect
    /// multiple conflicting drivers within one pass.
    driven_pass: Cell<u64>,
}

/// A combinational net carrying a `Copy` value.
///
/// Cloning a `Wire` yields another handle onto the same net, so a producer
/// module and a consumer module each hold a clone.
pub struct Wire<T: Copy + PartialEq + fmt::Debug + 'static> {
    ctx: SimCtx,
    inner: Rc<WireInner<T>>,
}

impl<T: Copy + PartialEq + fmt::Debug + 'static> Clone for Wire<T> {
    fn clone(&self) -> Self {
        Wire {
            ctx: self.ctx.clone(),
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T: Copy + PartialEq + fmt::Debug + 'static> Wire<T> {
    /// Reads the current value of the net.
    #[inline]
    pub fn get(&self) -> T {
        self.inner.value.get()
    }

    /// Drives a value onto the net.
    ///
    /// Driving the same value repeatedly is allowed (idempotent evaluation);
    /// driving a *different* value twice within the same delta pass records
    /// a [`SimError::DoubleDrive`] that the simulator surfaces at the end of
    /// the pass.
    pub fn drive(&self, value: T) {
        let pass = self.ctx.inner.pass.get();
        let prev = self.inner.value.get();
        if prev != value {
            if self.inner.driven_pass.get() == pass {
                // A different driver already set a different value this pass.
                self.ctx.record_conflict(self.inner.id);
            }
            self.inner.value.set(value);
            self.ctx.record_change();
        }
        self.inner.driven_pass.set(pass);
    }

    /// Name given at construction (used in traces and error messages).
    ///
    /// Names live in a context-owned side table indexed by [`WireId`], so
    /// this is a lookup producing an owned `String` — cheap for the cold
    /// paths that need it, free for the hot paths that don't.
    pub fn name(&self) -> String {
        self.ctx.wire_name(self.inner.id)
    }
}

impl<T: Copy + PartialEq + fmt::Debug + 'static> fmt::Debug for Wire<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Wire({} = {:?})",
            self.ctx.wire_name(self.inner.id),
            self.inner.value.get()
        )
    }
}

/// A bank-of-flip-flops register: next value staged with [`Reg::set`], made
/// architectural by [`Reg::tick`] during the commit phase.
#[derive(Debug, Clone)]
pub struct Reg<T: Copy> {
    q: T,
    d: T,
}

impl<T: Copy> Reg<T> {
    /// Creates a register holding `init` (also the reset value of `d`).
    pub fn new(init: T) -> Self {
        Reg { q: init, d: init }
    }

    /// Current (architectural) value — the flip-flop output `Q`.
    #[inline]
    pub fn q(&self) -> T {
        self.q
    }

    /// Stages the next value — the flip-flop input `D`. May be called any
    /// number of times per cycle; the last staged value wins, mirroring the
    /// last assignment in a clocked HDL process.
    #[inline]
    pub fn set(&mut self, value: T) {
        self.d = value;
    }

    /// Latches `D` into `Q`. Call exactly once per cycle, from
    /// [`Module::commit`](crate::Module::commit).
    #[inline]
    pub fn tick(&mut self) {
        self.q = self.d;
    }

    /// Resets both `Q` and the staged `D` to `value`.
    pub fn reset(&mut self, value: T) {
        self.q = value;
        self.d = value;
    }
}

impl<T: Copy + Default> Default for Reg<T> {
    fn default() -> Self {
        Reg::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_reads_back_driven_value() {
        let ctx = SimCtx::new();
        let w = ctx.wire("w", 0u32);
        ctx.begin_pass();
        w.drive(5);
        assert_eq!(w.get(), 5);
        assert_eq!(ctx.changes(), 1);
    }

    #[test]
    fn redriving_same_value_is_not_a_change() {
        let ctx = SimCtx::new();
        let w = ctx.wire("w", 7u32);
        ctx.begin_pass();
        w.drive(7);
        assert_eq!(ctx.changes(), 0);
        assert!(ctx.take_conflict().is_none());
    }

    #[test]
    fn conflicting_drivers_in_one_pass_are_detected() {
        let ctx = SimCtx::new();
        let w = ctx.wire("bus", 0u32);
        ctx.begin_pass();
        w.drive(1);
        w.drive(2);
        let err = ctx.take_conflict().expect("conflict expected");
        assert!(matches!(err, SimError::DoubleDrive { ref wire, .. } if wire == "bus"));
    }

    #[test]
    fn same_driver_may_update_across_passes() {
        let ctx = SimCtx::new();
        let w = ctx.wire("w", 0u32);
        ctx.begin_pass();
        w.drive(1);
        ctx.begin_pass();
        w.drive(2);
        assert!(ctx.take_conflict().is_none());
        assert_eq!(w.get(), 2);
    }

    #[test]
    fn cloned_wires_share_the_net() {
        let ctx = SimCtx::new();
        let a = ctx.wire("n", 0u8);
        let b = a.clone();
        ctx.begin_pass();
        a.drive(9);
        assert_eq!(b.get(), 9);
        assert_eq!(b.name(), "n");
    }

    #[test]
    fn reg_latches_on_tick_only() {
        let mut r = Reg::new(0u32);
        r.set(42);
        assert_eq!(r.q(), 0, "Q must not change before the clock edge");
        r.tick();
        assert_eq!(r.q(), 42);
    }

    #[test]
    fn reg_last_staged_value_wins() {
        let mut r = Reg::new(0u32);
        r.set(1);
        r.set(2);
        r.tick();
        assert_eq!(r.q(), 2);
    }

    #[test]
    fn reg_holds_value_without_set() {
        let mut r = Reg::new(3u32);
        r.tick();
        assert_eq!(r.q(), 3, "a register re-latches its staged value");
    }

    #[test]
    fn reg_reset_clears_both_stages() {
        let mut r = Reg::new(0u32);
        r.set(5);
        r.reset(9);
        r.tick();
        assert_eq!(r.q(), 9);
    }
}
