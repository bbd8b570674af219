//! The Fmax (synthesis frequency) model.
//!
//! The paper reports frequencies from full Stratix-V synthesis: 372.9 MHz
//! for the baseline and 235.3 MHz for Smache at 11×11, and uses them only
//! to convert simulated cycle counts into wall-clock time and MOPS. We
//! replace Quartus with an explicit critical-path model:
//!
//! ```text
//! τ(ns) = τ0 + τ_level · L + τ_route · ⌈log2 N⌉
//! f(MHz) = 1000 / τ
//! ```
//!
//! * `L` — logic levels on the critical path: 5 for the baseline's simple
//!   address-generate/gather datapath; `6 + ⌈log2 n_cases⌉` for Smache,
//!   whose gather multiplexer selects among the stencil cases (the paper's
//!   nine) in front of the kernel.
//! * the `⌈log2 N⌉` term models routing/counter growth with problem size.
//!
//! The two constants are calibrated on the paper's two anchors; the tests
//! pin both to within 1%.

use crate::config::BufferPlan;
use crate::cost::synthesis::clog2;

/// Fitted constant: flip-flop + clock overhead, ns.
const TAU0_NS: f64 = 1.0117;
/// Fitted constant: delay per logic level, ns.
const TAU_LEVEL_NS: f64 = 0.313;
/// Routing/counter growth per bit of index width, ns.
const TAU_ROUTE_NS: f64 = 0.015;

/// The frequency model.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreqModel;

impl FreqModel {
    /// Fmax for a critical path of `levels` logic levels at problem size `n`.
    pub fn fmax_mhz(&self, levels: u64, n: u64) -> f64 {
        let tau = TAU0_NS + TAU_LEVEL_NS * levels as f64 + TAU_ROUTE_NS * clog2(n) as f64;
        1000.0 / tau
    }

    /// Critical-path levels of the baseline design.
    pub fn baseline_levels(&self) -> u64 {
        5
    }

    /// Critical-path levels of a Smache design with `n_cases` stencil cases.
    pub fn smache_levels(&self, n_cases: u64) -> u64 {
        6 + clog2(n_cases)
    }

    /// Fmax of the baseline design on a problem of `n` elements.
    pub fn baseline_fmax(&self, n: u64) -> f64 {
        self.fmax_mhz(self.baseline_levels(), n)
    }

    /// Fmax of a `lanes`-wide Smache instance. The case count comes from
    /// the plan's static analysis (nine for the paper's validation grid);
    /// the lane multiplexing adds `⌈log2 lanes⌉` levels.
    pub fn smache_fmax(&self, plan: &BufferPlan, lanes: usize) -> f64 {
        self.fmax_mhz(
            self.smache_levels(plan.n_cases as u64) + clog2(lanes as u64),
            plan.grid.len() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HybridMode, PlanStrategy};
    use smache_mem::MemKind;
    use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

    fn plan11() -> BufferPlan {
        BufferPlan::analyse(
            GridSpec::d2(11, 11).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap()
    }

    #[test]
    fn baseline_anchor_within_one_percent() {
        let f = FreqModel.baseline_fmax(121);
        let err = (f - 372.9).abs() / 372.9;
        assert!(err < 0.01, "baseline fmax {f} vs paper 372.9");
    }

    #[test]
    fn smache_anchor_within_one_percent() {
        let f = FreqModel.smache_fmax(&plan11(), 1);
        let err = (f - 235.3).abs() / 235.3;
        assert!(err < 0.01, "smache fmax {f} vs paper 235.3");
    }

    #[test]
    fn smache_is_slower_than_baseline() {
        // The paper's point: Smache clocks lower yet wins overall.
        assert!(FreqModel.smache_fmax(&plan11(), 1) < FreqModel.baseline_fmax(121));
    }

    #[test]
    fn frequency_degrades_gently_with_problem_size() {
        let small = FreqModel.baseline_fmax(121);
        let large = FreqModel.baseline_fmax(1 << 20);
        assert!(large < small);
        assert!(large > small * 0.9, "only a routing-growth effect");
    }

    #[test]
    fn more_cases_mean_deeper_gather_mux() {
        assert!(FreqModel.smache_levels(16) > FreqModel.smache_levels(4));
        assert_eq!(FreqModel.smache_levels(9), 10);
    }
}
