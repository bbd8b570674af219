//! # smache-sim — cycle-level synchronous simulation kernel
//!
//! A small hardware-simulation substrate standing in for the RTL simulator
//! used by the Smache paper (Nabi & Vanderbauwhede, RAW/IPDPSW 2019).
//!
//! The model is a classic two-phase synchronous simulation:
//!
//! 1. **Evaluate**: every [`Module`] computes its combinational outputs from
//!    the current values of its input [`Wire`]s and its registered state.
//!    Evaluation repeats in *delta passes* until no wire changes value,
//!    which settles combinational chains that span modules (e.g. ready/valid
//!    back-pressure). `eval` must therefore be idempotent and must not
//!    mutate architectural state.
//! 2. **Commit**: every module latches its next state ([`Reg::tick`],
//!    memory writes, counters). This runs exactly once per cycle.
//!
//! A minimal design — one sequential module driving a wire from its
//! registered state:
//!
//! ```
//! use smache_sim::{Module, Simulator, Wire};
//!
//! struct Counter { out: Wire<u64>, count: u64 }
//!
//! impl Module for Counter {
//!     fn name(&self) -> &str { "counter" }
//!     // Idempotent: drives the *registered* count, never mutates it.
//!     fn eval(&mut self, _cycle: u64) { self.out.drive(self.count); }
//!     // Runs exactly once per cycle: the state update lives here.
//!     fn commit(&mut self, _cycle: u64) { self.count += 1; }
//! }
//!
//! let mut sim = Simulator::new();
//! let out = sim.ctx().wire("count", 0u64);
//! sim.add(Box::new(Counter { out: out.clone(), count: 0 }));
//! for _ in 0..5 { sim.step()?; }
//! assert_eq!(out.get(), 4); // the value driven during cycle 5's eval
//! # Ok::<(), smache_sim::SimError>(())
//! ```
//!
//! ## Settling
//!
//! Every delta pass evaluates every module in registration order; passes
//! repeat until one changes no wire, so convergence never depends on that
//! order. A design that never settles within the pass budget is reported
//! as [`SimError::CombinationalLoop`].
//!
//! For sharding many independent simulations across threads, see
//! [`parallel`].
//!
//! On top of the kernel the crate provides:
//!
//! * [`stream`] — ready/valid streaming links modelled on AXI4-Stream
//!   (`valid`/`ready`/`data`/`last`), the paper's integration interface.
//! * [`stats`] — cycle and throughput accounting.
//! * [`telemetry`] — first-class observability: a hierarchical typed
//!   [`ProbeRegistry`] sampled in the commit phase, profiling
//!   counters/histograms, and real VCD / Chrome `trace_event` exporters.
//! * [`resources`] — FPGA resource accounting (ALMs, registers, BRAM bits)
//!   shared by every simulated module; this is how "actual" utilisation
//!   numbers for Table I of the paper are produced.
//! * [`replay`] — control-schedule capture/replay primitives: the packed
//!   per-cycle control trace, the per-element gather table, the typed
//!   [`ReplayUnsupported`] refusal reasons. See `docs/PERFORMANCE.md` §6.
//! * [`cache`] — the one byte-budgeted LRU, [`ScheduleCache`]: captured
//!   schedules in serve's second-level cache, result texts in its first.
//! * [`json`] — the workspace's dependency-free JSON tree, serialisers
//!   (pretty artefacts, compact wire format) and strict parser.
//! * [`hash`] — stable FNV-1a/splitmix64 helpers: per-component chaos
//!   stream seeds and content-addressed cache fingerprints.

#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod hash;
pub mod json;
pub mod module;
pub mod parallel;
pub mod replay;
pub mod resources;
pub mod signal;
pub mod sim;
pub mod stats;
pub mod stream;
pub mod telemetry;

pub use cache::{CacheStats, ScheduleCache};
pub use error::SimError;
pub use json::{Json, JsonError};
pub use module::Module;
pub use parallel::{run_batch, run_scatter};
pub use replay::{
    ControlTrace, CycleRecord, GatherRows, GatherRuns, GatherTable, ReplayUnsupported, SlotSource,
    TraceTotals,
};
pub use resources::ResourceUsage;
pub use signal::{Reg, SimCtx, Wire, WireId};
pub use sim::Simulator;
pub use stats::{CycleStats, RunningStats};
pub use stream::{Beat, SinkBuffer, StreamLink, StreamSink, StreamSource};
pub use telemetry::{
    CounterRegistry, Histogram, ProbeId, ProbeKind, ProbeRegistry, Probed, Telemetry,
    TelemetryConfig, TelemetrySnapshot,
};

/// The raw transfer word used throughout the simulated designs.
///
/// Hardware words of up to 64 logical bits are carried in a `u64`; the
/// logical width (32 bits for every experiment in the paper) is tracked by
/// the memory models for resource accounting.
pub type Word = u64;

/// Convenient `Result` alias for simulation fallible operations.
pub type SimResult<T> = Result<T, SimError>;
