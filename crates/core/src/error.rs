//! Error type for the Smache core crate.

use std::fmt;

use smache_mem::FaultKind;
use smache_sim::SimError;
use smache_stencil::ModelError;

/// Provenance of a detected data-corruption fault: which component injected
/// it, what kind it was, and where the controller was when it surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDiagnostic {
    /// System clock cycle on which the corrupted data was delivered.
    pub cycle: u64,
    /// The controller FSM/phase active at detection time.
    pub phase: &'static str,
    /// The component that injected the fault (e.g. `mem.dram`).
    pub component: &'static str,
    /// The fault class.
    pub kind: FaultKind,
    /// Kind-specific detail (flipped bit position, beat index, …).
    pub detail: u64,
}

impl fmt::Display for FaultDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} from {} at cycle {} during {} (detail {})",
            self.kind, self.component, self.cycle, self.phase, self.detail
        )
    }
}

/// Errors from configuration, planning or simulation of a Smache design.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Propagated formal-model error.
    Model(ModelError),
    /// Propagated simulation error.
    Sim(SimError),
    /// Planning failed: the design cannot fit the given on-chip budget.
    BudgetExceeded {
        /// Bits required by the best plan found.
        required_bits: u64,
        /// Bits available.
        budget_bits: u64,
    },
    /// The design configuration is inconsistent.
    Config(String),
    /// A verification mismatch between two models (golden vs simulated).
    Mismatch {
        /// First differing element index.
        index: usize,
        /// Expected word.
        expected: u64,
        /// Actual word.
        actual: u64,
    },
    /// The stencil shape or boundary spec has a different dimensionality
    /// than the grid.
    DimensionMismatch {
        /// What disagreed with the grid ("shape" or "boundary spec").
        what: &'static str,
        /// Its dimensionality.
        got: usize,
        /// The grid's dimensionality.
        grid: usize,
    },
    /// The logical word width is outside `1..=64` bits.
    WordBitsOutOfRange {
        /// The rejected width.
        bits: u32,
    },
    /// A Case-H BRAM stretch shorter than the in-reg + BRAM + out-reg
    /// minimum of 3.
    HybridStretchTooShort {
        /// The rejected minimum stretch length.
        min_bram_stretch: usize,
    },
    /// A kernel declared a pipeline latency of zero cycles.
    KernelLatencyZero,
    /// A weighted kernel with no non-zero weight.
    KernelNeedsNonZeroWeight,
    /// The input grid does not match the planned grid size.
    InputLengthMismatch {
        /// Words the plan's grid holds.
        expected: usize,
        /// Words supplied.
        actual: usize,
    },
    /// The requested lane count is outside what the design supports.
    LaneCountUnsupported {
        /// Lanes requested.
        lanes: usize,
        /// Maximum supported.
        max: usize,
    },
    /// An active fault plan was given to a geometry that has no chaos
    /// wrappers (a multi-lane engine's wide DRAM beats bypass them).
    ChaosUnsupported {
        /// The rejecting system.
        system: &'static str,
    },
    /// A data-corruption fault was injected and the hardware caught it.
    FaultDetected(FaultDiagnostic),
    /// Schedule capture or replay refused to run, with the typed reason
    /// (see [`smache_sim::ReplayUnsupported`]). Surfaced only when replay
    /// was *forced*; the auto mode falls back to full simulation instead.
    ReplayRefused(smache_sim::ReplayUnsupported),
    /// The cycle model declines a geometry the engine runs, with the typed
    /// reason (see [`crate::cost::Unmodelled`]).
    Unmodelled(crate::cost::Unmodelled),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::BudgetExceeded {
                required_bits,
                budget_bits,
            } => write!(
                f,
                "on-chip budget exceeded: need {required_bits} bits, have {budget_bits}"
            ),
            CoreError::Config(msg) => write!(f, "configuration error: {msg}"),
            CoreError::Mismatch {
                index,
                expected,
                actual,
            } => write!(
                f,
                "output mismatch at element {index}: expected {expected}, got {actual}"
            ),
            CoreError::DimensionMismatch { what, got, grid } => {
                write!(f, "{what} is {got}D but grid is {grid}D")
            }
            CoreError::WordBitsOutOfRange { bits } => {
                write!(f, "word width {bits} outside 1..=64 bits")
            }
            CoreError::HybridStretchTooShort { min_bram_stretch } => write!(
                f,
                "min_bram_stretch {min_bram_stretch} < 3 (in-reg + bram + out-reg)"
            ),
            CoreError::KernelLatencyZero => write!(f, "kernel latency must be >= 1"),
            CoreError::KernelNeedsNonZeroWeight => {
                write!(f, "weighted kernel needs a non-zero weight")
            }
            CoreError::InputLengthMismatch { expected, actual } => write!(
                f,
                "input length {actual} does not match grid size {expected}"
            ),
            CoreError::LaneCountUnsupported { lanes, max } => {
                write!(f, "lane count {lanes} unsupported (1..={max})")
            }
            CoreError::ChaosUnsupported { system } => write!(
                f,
                "the {system} system has no fault-injection wrappers; \
                 an active fault plan is not supported"
            ),
            CoreError::FaultDetected(d) => write!(f, "fault detected: {d}"),
            CoreError::ReplayRefused(r) => write!(f, "{r}"),
            CoreError::Unmodelled(why) => write!(f, "cycle model: {why}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::ReplayRefused(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_wrap_sources() {
        let m: CoreError = ModelError::BadGrid("x".into()).into();
        assert!(matches!(m, CoreError::Model(_)));
        let s: CoreError = SimError::Config("y".into()).into();
        assert!(matches!(s, CoreError::Sim(_)));
        use std::error::Error;
        assert!(m.source().is_some());
        assert!(s.source().is_some());
    }

    #[test]
    fn display_messages() {
        use std::error::Error;
        let e = CoreError::BudgetExceeded {
            required_bits: 100,
            budget_bits: 50,
        };
        assert!(e.to_string().contains("100"));
        let e = CoreError::Mismatch {
            index: 3,
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("element 3"));
        assert!(CoreError::Config("bad".into()).source().is_none());
    }

    #[test]
    fn typed_validation_variants_display() {
        assert!(CoreError::KernelLatencyZero.to_string().contains(">= 1"));
        assert!(CoreError::InputLengthMismatch {
            expected: 121,
            actual: 3
        }
        .to_string()
        .contains("121"));
        assert!(CoreError::LaneCountUnsupported { lanes: 17, max: 16 }
            .to_string()
            .contains("17"));
        assert!(CoreError::WordBitsOutOfRange { bits: 65 }
            .to_string()
            .contains("65"));
        assert!(CoreError::DimensionMismatch {
            what: "shape",
            got: 1,
            grid: 2
        }
        .to_string()
        .contains("shape"));
        assert!(CoreError::ChaosUnsupported {
            system: "multilane"
        }
        .to_string()
        .contains("multilane"));
    }

    #[test]
    fn fault_detected_carries_full_provenance() {
        let diag = FaultDiagnostic {
            cycle: 99,
            phase: "FSM-2 streaming",
            component: "mem.dram",
            kind: smache_mem::FaultKind::BitFlip,
            detail: 7,
        };
        let e = CoreError::FaultDetected(diag);
        let msg = e.to_string();
        assert!(msg.contains("cycle 99"));
        assert!(msg.contains("mem.dram"));
        assert!(msg.contains("bit-flip"));
        assert!(msg.contains("FSM-2"));
    }
}
