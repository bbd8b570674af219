//! Temporal-blocking pipeline: chained Smache stages over multi-channel
//! DRAM.
//!
//! The FPGA-stencil literature is unambiguous that the paper's spatial
//! reuse composes with **temporal blocking**: chain T complete stencil
//! stages on chip and one pass over DRAM advances the grid T timesteps —
//! the intermediate timesteps never touch memory. This module is that
//! composition for Smache:
//!
//! * [`TemporalPipeline`] — the cycle engine
//!   [`SmacheSystem`](crate::system::SmacheSystem) with `depth` full Smache
//!   stage instances (each with its own stream window, static buffers and
//!   3-FSM controller, so every boundary case works at every timestep)
//!   chained through on-chip [`StageLink`] buffers, fed by a
//!   [`MultiChannelDram`](smache_mem::MultiChannelDram);
//! * [`PipelineConfig`] — depth, channel count, interleave granularity and
//!   per-channel command-rate limit on top of the familiar
//!   [`SystemConfig`](crate::system::SystemConfig); its one-stage,
//!   one-channel case is the paper's single-step system;
//! * capture/replay integration: a pipelined run captures one
//!   [`ControlSchedule`](crate::system::ControlSchedule) covering
//!   `depth × passes` timesteps, keyed on spec *and* pipeline geometry, and
//!   replays through the unchanged single-step machinery.
//!
//! See `docs/PIPELINE.md` for the architecture walk-through and
//! `EXPERIMENTS.md` for the temporal sweep recipe.

pub mod link;
pub mod temporal;

pub use link::StageLink;
pub use temporal::{PipelineConfig, TemporalPipeline, PIPE_STALL_COMPONENT};
