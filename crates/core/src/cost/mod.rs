//! The memory-utilisation cost model and its companions.
//!
//! Three layers, matching §III/§IV of the paper:
//!
//! * [`estimate`] — the analytic **estimate** (Table I "Estimate" rows):
//!   pure formulas over the [`BufferPlan`](crate::BufferPlan), no synthesis
//!   knowledge. This is the model that "can easily be incorporated in a
//!   larger cost-model for design-space exploration".
//! * [`synthesis`] — the simulated-synthesis **actual** model (Table I
//!   "Actual" rows): walks the instantiated design, counting real allocated
//!   storage plus the calibrated synthesis overheads (BRAM output-register
//!   words, FIFO depth rounding, controller state/counters and write-enable
//!   fanout duplication).
//! * [`freq`] — the Fmax model converting cycle counts into wall-clock time
//!   and MOPS, calibrated against the paper's two synthesis anchors.

pub mod cycles;
pub mod estimate;
pub mod freq;
pub mod synthesis;

pub use cycles::{CycleModel, CyclePrediction, Unmodelled};
pub use estimate::{CostEstimate, MemoryBreakdown};
pub use freq::FreqModel;
pub use synthesis::SynthesisModel;
