//! # smache — the Smart-Cache (Smache) architecture
//!
//! A full reproduction of *"Smart-Cache: Optimising Memory Accesses for
//! Arbitrary Boundaries and Stencils on FPGAs"* (Nabi & Vanderbauwhede,
//! RAW/IPDPSW 2019) as a software-simulated hardware library.
//!
//! Smache keeps DRAM↔FPGA traffic fully streaming for stencil computations
//! with arbitrary stencil shapes and boundary conditions by combining:
//!
//! * a **stream buffer** — a moving window spanning the stencil *reach* of
//!   nearby offsets, optionally **hybrid**: concurrently-read tap positions
//!   in registers, the dead stretches between them in BRAM FIFOs;
//! * **static buffers** — fixed element sets for offsets whose reach would
//!   be unaffordable (e.g. circular boundaries reaching across the grid),
//!   transparently double-buffered with a write-through update policy;
//! * a controller of **three concurrent FSMs** (prefetch / gather-and-emit
//!   / write-back capture).
//!
//! ## Crate map
//!
//! | module | paper artefact |
//! |---|---|
//! | [`config`] | §II Algorithm 1 — optimal stream/static buffer split, and the resulting [`config::BufferPlan`] |
//! | [`cost`] | the memory-utilisation cost model (Table I estimates), the simulated-synthesis "actual" model, and the Fmax model |
//! | [`arch`] | §III — stream buffer (Case-R/Case-H), static buffers, kernel, the 3-FSM controller |
//! | [`system`] | the one cycle-accurate engine (DRAM → Smache stage(s) → kernel → DRAM), its metrics, and the batched sweep driver [`SmacheSystem::run_batch`](system::SmacheSystem::run_batch) |
//! | [`pipeline`] | beyond the paper: temporal blocking — the same engine with `depth` chained Smache stages over multi-channel DRAM ([`pipeline::TemporalPipeline`]) |
//! | [`functional`] | the fast golden/functional models used for verification |
//! | [`builder`] | the high-level public API: [`builder::SmacheBuilder`] |
//! | [`spec`] | the textual problem schema shared by the CLI and `smache serve` |
//!
//! ## Quick start
//!
//! ```
//! use smache::prelude::*;
//!
//! // The paper's validation problem: 11×11 grid, 4-point stencil,
//! // circular top/bottom boundaries, open left/right.
//! let grid = GridSpec::d2(11, 11).unwrap();
//! let mut system = SmacheBuilder::new(grid)
//!     .shape(StencilShape::four_point_2d())
//!     .boundaries(BoundarySpec::paper_case())
//!     .build()
//!     .unwrap();
//!
//! let input: Vec<u64> = (0..121).collect();
//! let report = system.run(&input, 1).unwrap();
//! assert_eq!(report.output.len(), 121);
//! ```

#![warn(missing_docs)]

pub mod arch;
pub mod builder;
pub mod config;
pub mod cost;
pub mod error;
pub mod functional;
pub mod pipeline;
pub mod spec;
pub mod system;

pub use builder::SmacheBuilder;
pub use config::{Algorithm1, BufferPlan, HybridMode, PlanStrategy};
pub use error::CoreError;
pub use pipeline::{PipelineConfig, TemporalPipeline};
pub use spec::{ProblemSpec, SpecError, SpecSource};
pub use system::{DesignMetrics, SmacheSystem};

/// Result alias for this crate.
pub type CoreResult<T> = Result<T, CoreError>;

/// Logical word width used by every experiment in the paper.
pub const WORD_BITS: u32 = 32;

/// One-line import for the common workflow: configure a problem with
/// [`SmacheBuilder`], run it, read the [`RunReport`](system::RunReport).
///
/// ```
/// use smache::prelude::*;
///
/// let mut system = SmacheBuilder::new(GridSpec::d2(8, 8).unwrap())
///     .build()
///     .unwrap();
/// let report = system.run(&(0..64).collect::<Vec<Word>>(), 1).unwrap();
/// assert_eq!(report.output.len(), 64);
/// ```
pub mod prelude {
    pub use crate::arch::kernel::{AverageKernel, Kernel, MaxKernel, SumKernel, WeightedKernel};
    pub use crate::builder::SmacheBuilder;
    pub use crate::config::{BufferPlan, HybridMode, PlanStrategy};
    pub use crate::error::{CoreError, FaultDiagnostic};
    pub use crate::functional::golden::golden_run;
    pub use crate::pipeline::{PipelineConfig, TemporalPipeline};
    pub use crate::system::{
        ControlSchedule, DesignMetrics, ReplayMode, RunEngine, RunReport, SmacheSystem,
        SystemConfig,
    };
    pub use crate::{CoreResult, WORD_BITS};
    pub use smache_mem::{ChaosProfile, FaultPlan, MemKind, Word};
    pub use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};
}
