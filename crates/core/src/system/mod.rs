//! The full cycle-accurate Smache system and its metrics.

pub mod axi;
pub mod batch;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod report_json;
pub mod smache_system;
pub mod store;

pub use axi::{AxiSmache, StallFuzzSink, StallFuzzSource};
pub use batch::{BatchJob, BatchOptions, BatchReport, KernelFactory, DEFAULT_LANE_BLOCK};
pub use metrics::{DesignMetrics, NormalisedMetrics};
pub use replay::{schedule_key, schedule_key_text, CaptureOutcome, ControlSchedule, ReplayMode};
pub use report::{RunEngine, RunReport};
pub use report_json::REPORT_SCHEMA_VERSION;
pub use smache_system::{SmacheSystem, SystemConfig};
pub use store::{ScheduleStore, StoreError, StoreStats, STORE_FORMAT_VERSION};
