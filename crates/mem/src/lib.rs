//! # smache-mem — on-chip and off-chip memory substrates
//!
//! Clocked memory component models used by the Smache and baseline designs:
//!
//! * [`Bram`] — synchronous block RAM (M20K-style): 1-cycle read latency,
//!   bounded port count, read-before-write semantics, and a calibrated
//!   "synthesised" resource report (the extra output-register word that the
//!   paper's Table I *actual* column shows).
//! * [`RegFile`] — distributed/register memory: combinational read,
//!   synchronous write; costs register bits.
//! * [`ShiftReg`] — a register shift line with arbitrary tap positions; the
//!   Case-R stream buffer and the register segments of the hybrid (Case-H)
//!   stream buffer are built from it.
//! * [`BramFifo`] / [`RegFifo`] — FIFOs for the "dead stretches" between
//!   stencil taps in the hybrid stream buffer.
//! * [`DoubleBuffer`] — the paper's transparently double-buffered static
//!   buffer store: an active copy serving reads and a shadow copy absorbing
//!   write-through updates, swapped between work-instances.
//! * [`Dram`] — the off-chip memory model: bank/row state, burst streaming
//!   at one word per cycle, row-hit/row-miss latency for random access, and
//!   full traffic accounting. This is the substrate on which the paper's
//!   streaming-vs-random argument is measured.
//!
//! All components follow the two-phase discipline of `smache-sim`: requests
//! are *staged* with idempotent setters during evaluation and take effect in
//! `tick()`, which the owning module calls exactly once per cycle from its
//! commit phase.
//!
//! The [`fault`] module adds seed-reproducible chaos wrappers around the
//! substrates ([`FaultyDram`], [`FaultyFifo`]) — see `docs/RESILIENCE.md`.
//! The [`multichannel`] module stripes the flat address space across `N`
//! independent HBM-like [`FaultyDram`] channels behind one in-order port
//! ([`MultiChannelDram`]) — see `docs/PIPELINE.md`.

#![warn(missing_docs)]

pub mod bram;
pub mod double_buffer;
pub mod dram;
pub mod fault;
pub mod fifo;
pub mod multichannel;
pub mod regfile;
pub mod shift;

pub use bram::Bram;
pub use double_buffer::{DoubleBuffer, MemKind};
pub use dram::{Dram, DramConfig, DramStats, WideBeat, MAX_BEAT_WORDS};
pub use fault::{
    ChaosProfile, ChaosRng, FaultCounters, FaultEvent, FaultKind, FaultPlan, FaultyDram,
    FaultyFifo, StormGen, DRAM_COMPONENT, FIFO_COMPONENT,
};
pub use fifo::{BramFifo, RegFifo};
pub use multichannel::{MultiChannelConfig, MultiChannelDram};
pub use regfile::RegFile;
pub use shift::ShiftReg;

pub use smache_sim::ResourceUsage;
pub use smache_sim::Word;
