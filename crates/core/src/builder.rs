//! The high-level public API: configure a problem, get a runnable system.

use smache_mem::MemKind;
use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

use crate::arch::kernel::{AverageKernel, Kernel};
use crate::config::{BufferPlan, HybridMode, PlanStrategy};
use crate::error::CoreError;
use crate::pipeline::PipelineConfig;
use crate::system::smache_system::{SmacheSystem, SystemConfig};
use crate::{CoreResult, WORD_BITS};

/// Builder for a complete Smache system.
///
/// Defaults reproduce the paper's validation configuration where not
/// overridden: 4-point stencil, circular-rows/open-columns boundaries, the
/// averaging kernel, hybrid (Case-H) stream buffer, BRAM static buffers,
/// 32-bit words.
///
/// ```
/// use smache::SmacheBuilder;
/// use smache_stencil::GridSpec;
///
/// let mut system = SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
///     .build()
///     .unwrap();
/// let input: Vec<u64> = (0..121).collect();
/// let report = system.run(&input, 1).unwrap();
/// assert_eq!(report.output.len(), 121);
/// ```
pub struct SmacheBuilder {
    grid: GridSpec,
    shape: StencilShape,
    bounds: BoundarySpec,
    strategy: PlanStrategy,
    hybrid: HybridMode,
    static_kind: MemKind,
    word_bits: u32,
    kernel: Box<dyn Kernel>,
    config: PipelineConfig,
    budget_bits: Option<u64>,
    dedupe_statics: bool,
    telemetry: Option<smache_sim::TelemetryConfig>,
}

impl SmacheBuilder {
    /// Starts a builder for `grid` with the paper's default configuration.
    pub fn new(grid: GridSpec) -> Self {
        let ndim = grid.ndim();
        let bounds = if ndim == 2 {
            BoundarySpec::paper_case()
        } else {
            BoundarySpec::all_open(ndim).expect("ndim >= 1")
        };
        SmacheBuilder {
            grid,
            shape: StencilShape::four_point_2d(),
            bounds,
            strategy: PlanStrategy::GlobalWindow,
            hybrid: HybridMode::default(),
            static_kind: MemKind::Bram,
            word_bits: WORD_BITS,
            kernel: Box::new(AverageKernel),
            config: PipelineConfig::default(),
            budget_bits: None,
            dedupe_statics: false,
            telemetry: None,
        }
    }

    /// Sets the stencil shape.
    pub fn shape(mut self, shape: StencilShape) -> Self {
        self.shape = shape;
        self
    }

    /// Sets the boundary conditions.
    pub fn boundaries(mut self, bounds: BoundarySpec) -> Self {
        self.bounds = bounds;
        self
    }

    /// Sets the stream/static split strategy.
    pub fn strategy(mut self, strategy: PlanStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the stream-buffer placement (Case-R / Case-H).
    pub fn hybrid(mut self, hybrid: HybridMode) -> Self {
        self.hybrid = hybrid;
        self
    }

    /// Places the static buffers in BRAM or registers.
    pub fn static_kind(mut self, kind: MemKind) -> Self {
        self.static_kind = kind;
        self
    }

    /// Sets the logical word width (1..=64 bits).
    pub fn word_bits(mut self, bits: u32) -> Self {
        self.word_bits = bits;
        self
    }

    /// Sets the computation kernel.
    pub fn kernel(mut self, kernel: Box<dyn Kernel>) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the simulated system tunables (DRAM timing etc.).
    pub fn system_config(mut self, config: SystemConfig) -> Self {
        self.config.system = config;
        self
    }

    /// Chains `depth` Smache stages over `channels` DRAM channels — the
    /// temporal pipeline of [`crate::pipeline`]. `(1, 1)`, the default,
    /// is the paper's single-step system.
    pub fn pipeline(mut self, depth: usize, channels: usize) -> Self {
        self.config.depth = depth;
        self.config.channels = channels;
        self
    }

    /// Arms a seeded fault-injection plan (see `docs/RESILIENCE.md`).
    ///
    /// Latency-only faults are absorbed bit-exactly; data-corrupting faults
    /// surface as [`CoreError::FaultDetected`]
    /// (see [`crate::error::FaultDiagnostic`]).
    pub fn fault_plan(mut self, plan: smache_mem::FaultPlan) -> Self {
        self.config.system.fault_plan = plan;
        self
    }

    /// Attaches structured telemetry to the built system (typed probes,
    /// stall-attribution counters, FSM residency, occupancy histograms);
    /// see `docs/OBSERVABILITY.md`. Runs then carry a
    /// [`TelemetrySnapshot`](smache_sim::TelemetrySnapshot) in their
    /// report. Off by default — and when off, behaviour is bit-identical.
    pub fn telemetry(mut self, config: smache_sim::TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Merges overlapping static-buffer regions into single physical
    /// buffers (see [`BufferPlan::dedupe_static_regions`]); off by default
    /// to preserve the paper's per-tuple-element accounting.
    pub fn dedupe_static_regions(mut self, on: bool) -> Self {
        self.dedupe_statics = on;
        self
    }

    /// Declares the on-chip memory budget in bits; [`SmacheBuilder::build`]
    /// fails with [`CoreError::BudgetExceeded`] if the planned buffers do
    /// not fit ("as long as the sum of sizes of all static buffers and the
    /// stream buffer fits in the on-chip memory", §II).
    pub fn on_chip_budget_bits(mut self, bits: u64) -> Self {
        self.budget_bits = Some(bits);
        self
    }

    /// Runs the analysis and produces the plan without instantiating the
    /// system (useful for cost-model-only exploration).
    pub fn plan(&self) -> CoreResult<BufferPlan> {
        let mut plan = BufferPlan::analyse(
            self.grid.clone(),
            self.shape.clone(),
            self.bounds.clone(),
            self.strategy,
            self.hybrid,
            self.static_kind,
            self.word_bits,
        )?;
        if self.dedupe_statics {
            plan.dedupe_static_regions();
        }
        if let Some(budget) = self.budget_bits {
            let required = crate::cost::CostEstimate.total_bits(&plan);
            if required > budget {
                return Err(CoreError::BudgetExceeded {
                    required_bits: required,
                    budget_bits: budget,
                });
            }
        }
        Ok(plan)
    }

    /// Builds the runnable cycle-accurate system.
    pub fn build(self) -> CoreResult<SmacheSystem> {
        let plan = self.plan()?;
        let mut system = SmacheSystem::new(plan, self.kernel, self.config)?;
        if let Some(config) = self.telemetry {
            system.attach_telemetry(config);
        }
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::kernel::MaxKernel;
    use smache_stencil::Boundary;

    #[test]
    fn default_build_reproduces_paper_configuration() {
        let builder = SmacheBuilder::new(GridSpec::d2(11, 11).unwrap());
        let plan = builder.plan().unwrap();
        assert_eq!(plan.capacity, 25);
        assert_eq!(plan.static_buffers.len(), 2);
        assert_eq!(plan.n_cases, 9);
    }

    #[test]
    fn overrides_flow_through() {
        let plan = SmacheBuilder::new(GridSpec::d2(8, 8).unwrap())
            .shape(StencilShape::five_point_2d())
            .boundaries(BoundarySpec::all_open(2).unwrap())
            .hybrid(HybridMode::CaseR)
            .static_kind(MemKind::Reg)
            .word_bits(16)
            .plan()
            .unwrap();
        assert!(plan.static_buffers.is_empty());
        assert_eq!(plan.word_bits, 16);
        assert_eq!(plan.hybrid, HybridMode::CaseR);
    }

    #[test]
    fn budget_is_enforced() {
        let err = SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
            .on_chip_budget_bits(100)
            .plan()
            .unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
        // A generous budget passes.
        assert!(SmacheBuilder::new(GridSpec::d2(11, 11).unwrap())
            .on_chip_budget_bits(1 << 20)
            .plan()
            .is_ok());
    }

    #[test]
    fn built_system_runs_with_custom_kernel() {
        let mut sys = SmacheBuilder::new(GridSpec::d2(5, 5).unwrap())
            .kernel(Box::new(MaxKernel))
            .build()
            .unwrap();
        let input: Vec<u64> = (0..25).collect();
        let report = sys.run(&input, 2).unwrap();
        assert_eq!(report.output.len(), 25);
    }

    #[test]
    fn fault_plan_flows_into_the_system() {
        use smache_mem::{ChaosProfile, FaultPlan};
        let mut sys = SmacheBuilder::new(GridSpec::d2(5, 5).unwrap())
            .fault_plan(FaultPlan::new(3, ChaosProfile::jitter()))
            .build()
            .unwrap();
        let input: Vec<u64> = (0..25).collect();
        let report = sys.run(&input, 1).unwrap();
        assert!(report.metrics.faults.jitter_events > 0);
        // Jitter is latency-only: output still matches the plain build.
        let mut plain = SmacheBuilder::new(GridSpec::d2(5, 5).unwrap())
            .build()
            .unwrap();
        assert_eq!(report.output, plain.run(&input, 1).unwrap().output);
    }

    #[test]
    fn non_2d_grid_gets_open_default_boundaries() {
        let builder = SmacheBuilder::new(GridSpec::d1(32).unwrap())
            .shape(StencilShape::symmetric_1d(2).unwrap());
        let plan = builder.plan().unwrap();
        assert!(plan.static_buffers.is_empty());
        assert_eq!(plan.capacity, 2 + 2 + 3);
    }

    #[test]
    fn constant_boundary_build() {
        use smache_stencil::AxisBoundaries;
        let mut sys = SmacheBuilder::new(GridSpec::d2(6, 6).unwrap())
            .boundaries(
                BoundarySpec::new(&[
                    AxisBoundaries::both(Boundary::Constant(100)),
                    AxisBoundaries::both(Boundary::Mirror),
                ])
                .unwrap(),
            )
            .build()
            .unwrap();
        let input: Vec<u64> = (0..36).collect();
        let report = sys.run(&input, 1).unwrap();
        let golden = crate::functional::golden::golden_run(
            &GridSpec::d2(6, 6).unwrap(),
            &BoundarySpec::new(&[
                AxisBoundaries::both(Boundary::Constant(100)),
                AxisBoundaries::both(Boundary::Mirror),
            ])
            .unwrap(),
            &StencilShape::four_point_2d(),
            &AverageKernel,
            &input,
            1,
        )
        .unwrap();
        assert_eq!(report.output, golden);
    }
}
