//! The Smache hardware architecture (§III of the paper).
//!
//! * [`kernel`] — the computation kernel contract and the paper's 4-point
//!   averaging filter.
//! * [`static_buffer`] — double-buffered static buffer banks with
//!   write-through capture.
//! * [`stream_buffer`] — the stream buffer: a tapped delay line built from
//!   register segments (Case-R) or register segments plus BRAM FIFO
//!   stretches (Case-H).
//! * [`source_rows`] — the plan's per-element sources, lowered once per
//!   engine into the rows the controller gathers from and replay reuses.
//! * [`controller`] — the Smache module proper: the three concurrent FSMs
//!   orchestrating prefetch, gather/emit and write-back capture.

pub mod controller;
pub mod kernel;
pub mod source_rows;
pub mod static_buffer;
pub mod stream_buffer;

pub use controller::{ControllerPhase, SmacheModule};
pub use kernel::{AverageKernel, Kernel, MaxKernel, SumKernel};
pub use source_rows::SourceRows;
pub use static_buffer::StaticBank;
pub use stream_buffer::StreamBuffer;
