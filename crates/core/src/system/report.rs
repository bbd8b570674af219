//! The unified run report — one result shape for every way of running a
//! Smache system.
//!
//! Historically three ad-hoc shapes grew side by side: the report returned
//! by [`SmacheSystem::run`](crate::system::SmacheSystem::run), the per-lane
//! wrapper produced by
//! [`SmacheSystem::run_batch`](crate::system::SmacheSystem::run_batch), and
//! the row tuples assembled by the bench sweeps. They carried overlapping
//! data under different names. [`RunReport`] replaces all three: a batch
//! lane *is* a `RunReport`, and the bench harnesses consume it directly.

use smache_mem::{FaultEvent, Word};
use smache_sim::{CycleStats, TelemetrySnapshot};

use crate::arch::controller::SmacheResourceBreakdown;
use crate::system::metrics::DesignMetrics;

/// Which execution path produced a [`RunReport`] — full cycle-accurate
/// simulation, or a replay of a captured control schedule (see
/// [`crate::system::replay`]). Replay is bit-exact by construction, so the
/// field is provenance, not a quality warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunEngine {
    /// The full event-driven cycle-accurate simulation ran.
    #[default]
    FullSim,
    /// The datapath was driven from a recorded
    /// [`ControlSchedule`](crate::system::replay::ControlSchedule): no
    /// delta settling, no module dispatch, identical outputs and cycle
    /// counts.
    Replay,
}

impl RunEngine {
    /// Stable wire/report label.
    pub fn label(&self) -> &'static str {
        match self {
            RunEngine::FullSim => "full_sim",
            RunEngine::Replay => "replay",
        }
    }

    /// Parses a label written by [`RunEngine::label`].
    pub fn from_label(s: &str) -> Option<RunEngine> {
        match s {
            "full_sim" => Some(RunEngine::FullSim),
            "replay" => Some(RunEngine::Replay),
            _ => None,
        }
    }
}

/// Everything a completed run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The final grid contents after the last work-instance.
    pub output: Vec<Word>,
    /// The Fig. 2 metrics of the run (cycles, Fmax, DRAM traffic, ops,
    /// resources, fault counters).
    pub metrics: DesignMetrics,
    /// Cycles spent in the FSM-1 warm-up prefetch.
    pub warmup_cycles: u64,
    /// Chronological log of injected faults (empty without a fault plan;
    /// capped per component — the counters in `metrics.faults` stay exact).
    pub fault_events: Vec<FaultEvent>,
    /// Cycle accounting of the run: transfers (kernel results emitted),
    /// stall cycles (datapath frozen by back-pressure or chaos), idle.
    pub stats: CycleStats,
    /// Per-module resource breakdown (Table I's columns).
    pub breakdown: SmacheResourceBreakdown,
    /// Profiling counters and histograms of the run (stall attribution,
    /// FSM state residency, queue occupancy, DRAM row-buffer locality).
    /// `None` unless telemetry was attached before the run.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Which execution path produced this report (full simulation or
    /// schedule replay).
    pub engine: RunEngine,
}

impl RunReport {
    /// Fraction of cycles the datapath was frozen by stalls.
    pub fn stall_fraction(&self) -> f64 {
        self.stats.stall_fraction()
    }

    /// Renders the bottleneck report (top-`k` stall contributors, FSM
    /// state residency, occupancy histograms), or an explanatory line when
    /// the run carried no telemetry.
    pub fn render_analysis(&self, top_k: usize) -> String {
        match &self.telemetry {
            Some(t) => t.render_analysis(self.stats.cycles, top_k),
            None => "no telemetry recorded (run with telemetry attached)\n".to_string(),
        }
    }
}
