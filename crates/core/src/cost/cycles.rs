//! Analytical cycle-count model — the time half of the DSE cost model.
//!
//! The paper's §III closes with a memory cost model "that can easily be
//! incorporated in a larger cost-model for design-space exploration"; a
//! larger model also needs *time*. [`CycleModel::predict`] predicts the
//! engine's cycles at the one geometry it takes, a [`PipelineConfig`]
//! (lanes, depth, channels, `cmd_gap`), so a DSE sweep can rank thousands
//! of configurations without simulating them. `tests/cycle_model.rs`
//! checks it against the simulator and states its bound.

use std::collections::BTreeSet;

use smache_mem::DramConfig;

use crate::config::BufferPlan;
use crate::cost::FreqModel;
use crate::error::CoreError;
use crate::pipeline::PipelineConfig;
use crate::system::SmacheSystem;
use crate::CoreResult;

/// Per-instance issue overhead of the baseline design, in cycles.
const BASELINE_INSTANCE_OVERHEAD: u64 = 12;

/// Per-element issue overhead of the baseline FSM (the address-setup
/// cycle) plus the amortised response-drain bubble.
const BASELINE_ELEMENT_OVERHEAD: f64 = 1.03;

/// Why [`CycleModel::predict`] declines a geometry the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unmodelled {
    /// An active fault plan: chaos jitter and stall storms add cycles the
    /// model does not draw.
    FaultPlan,
}

impl std::fmt::Display for Unmodelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unmodelled::FaultPlan => {
                f.write_str("an active fault plan adds cycles it does not draw")
            }
        }
    }
}

/// The analytical time model.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleModel;

/// A prediction for one design on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclePrediction {
    /// Predicted total cycles.
    pub cycles: u64,
    /// Predicted warm-up share of those cycles.
    pub warmup_cycles: u64,
    /// Modelled Fmax in MHz (from [`FreqModel`]).
    pub fmax_mhz: f64,
}

impl CyclePrediction {
    /// Predicted wall-clock time in microseconds.
    pub fn exec_us(&self) -> f64 {
        self.cycles as f64 / self.fmax_mhz
    }
}

/// One geometry's timing: every pass streams `⌈N/P⌉` beats, each stage
/// adds its lookahead fill and kernel drain, and stage 0 warms its static
/// buffers up from DRAM — once for the double-buffered single step, every
/// pass for a pipeline. A later stage prefetches its static buffers from
/// its upstream link, so it waits for each static region to be produced:
/// wrap-heavy plans serialise their stages within a pass.
struct Timing<'a> {
    plan: &'a BufferPlan,
    config: &'a PipelineConfig,
    kernel_latency: f64,
    /// Extra cycles per streamed beat when the channels cannot feed one
    /// beat per cycle (`1/rate − 1`).
    slow: f64,
    /// Per static region in prefetch order: its last grid index and the
    /// prefetch words that follow it.
    regions: Vec<(f64, f64)>,
}

impl Timing<'_> {
    /// Cycles and warm-up cycles of pass `index` (0-based); every pass
    /// from the third on repeats the third.
    fn pass(&self, index: u64) -> (f64, f64) {
        let dram: &DramConfig = &self.config.system.dram;
        let (n, lanes, channels) = (self.plan.grid.len(), dram.bus_words, self.config.channels);
        let (cas, miss) = (dram.cas_latency as f64, dram.row_miss_penalty as f64);
        // A pass starts with a row activation unless an earlier pass left
        // the first row of its ping-pong region (in one channel's rows) open.
        let region = (n + lanes - 1).div_ceil(dram.row_words) * dram.row_words;
        let hit = match index {
            0 => false,
            1 => region / channels < dram.row_words,
            _ => 2 * region.div_ceil(channels * dram.row_words) <= dram.num_banks,
        };
        let double_buffered = self.config.single_step() && self.config.system.double_buffering;
        let (warmup, start) = if !self.regions.is_empty() && (index == 0 || !double_buffered) {
            // The warm-up reads every static word, one more activation when
            // the regions span rows; the stream starts in a row it opened.
            let rows = self
                .plan
                .static_buffers
                .iter()
                .map(|b| b.region_start / dram.row_words);
            let activations = match (hit, rows.collect::<BTreeSet<_>>().len() > 1) {
                (true, _) => 0.0,
                (false, spans) => 1.0 + f64::from(u8::from(spans)),
            };
            let words = self.plan.static_words() as f64 * (1.0 + self.slow);
            (words + cas - 1.0 + activations * miss, 2.0 + cas)
        } else {
            // The second pass may continue the first pass's burst.
            let sequential = index == 1 && channels == 1 && n.div_ceil(lanes) * lanes == region;
            (0.0, 1.0 + cas + if hit || sequential { 0.0 } else { miss })
        };
        let shift0 = warmup + start - 2.0;
        let mut ready = Vec::with_capacity(self.config.depth);
        for t in 1..self.config.depth {
            let warm = self
                .regions
                .iter()
                .map(|&(last, after)| self.produced(t - 1, last, shift0, &ready) + after);
            ready.push(warm.fold(f64::NEG_INFINITY, f64::max));
        }
        let last = n as f64 - 1.0;
        let end = self.produced(self.config.depth - 1, last, shift0, &ready);
        (end + 2.0, warmup)
    }

    /// The cycle stage `t` hands element `e`'s result on: its word
    /// `e + A + 1` shifted in (flush zeros past the grid), plus the kernel.
    /// `shift0` places stage 0's first beat; `ready[t − 1]` is the cycle
    /// stage `t` finishes its warm-up (−∞ without static buffers).
    fn produced(&self, t: usize, e: f64, shift0: f64, ready: &[f64]) -> f64 {
        let lanes = self.config.system.dram.bus_words as f64;
        let last = self.plan.grid.len() as f64 - 1.0;
        let word = e + self.plan.lookahead as f64 + 1.0;
        let (k, flush) = (word.min(last), ((word - last) / lanes).ceil().max(0.0));
        let shifted = if t == 0 {
            let beats = ((k + 1.0) / lanes).ceil();
            shift0 + beats - 1.0 + (beats - 2.0).max(0.0) * self.slow
        } else {
            (ready[t - 1] + k).max(self.produced(t - 1, k, shift0, ready))
        };
        self.kernel_latency + 1.0 + shifted + flush
    }
}

impl CycleModel {
    /// Predicts the Smache engine's cycles for `passes` passes of the
    /// geometry `config` (work-instances for the single step, `depth`
    /// timesteps each for a pipeline).
    ///
    /// Refuses what [`SmacheSystem::new`] refuses, with the same error
    /// ([`SmacheSystem::check_geometry`]), and what the model does not cover
    /// with [`CoreError::Unmodelled`].
    pub fn predict(
        &self,
        plan: &BufferPlan,
        config: &PipelineConfig,
        kernel_latency: u64,
        passes: u64,
    ) -> CoreResult<CyclePrediction> {
        SmacheSystem::check_geometry(plan, config)?;
        if kernel_latency == 0 {
            return Err(CoreError::KernelLatencyZero);
        }
        if config.system.fault_plan.is_active() {
            return Err(CoreError::Unmodelled(Unmodelled::FaultPlan));
        }
        // A block of `interleave_words` consecutive words sits on one
        // channel, which accepts a read every `cmd_gap` cycles.
        let (gap, block) = (config.cmd_gap as f64, config.interleave_words as f64);
        let rate = (config.channels as f64 / gap).min(block / ((block - 1.0) * gap + 1.0));
        let mut after = plan.static_words();
        let timing = Timing {
            plan,
            config,
            kernel_latency: kernel_latency as f64,
            slow: 1.0 / rate.min(1.0) - 1.0,
            regions: plan
                .static_buffers
                .iter()
                .map(|b| {
                    after -= b.len as u64;
                    ((b.region_start + b.len - 1) as f64, after as f64)
                })
                .collect(),
        };
        let (mut cycles, mut warmup) = (0.0, 0.0);
        for (index, times) in [(0, 1), (1, 1), (2, passes.saturating_sub(2))] {
            if index < passes {
                let (c, w) = timing.pass(index);
                cycles += times as f64 * c;
                warmup += times as f64 * w;
            }
        }
        Ok(CyclePrediction {
            cycles: cycles.round() as u64,
            warmup_cycles: warmup.round() as u64,
            fmax_mhz: FreqModel.smache_fmax(plan, config.system.dram.bus_words),
        })
    }

    /// Predicts the baseline design's cycles.
    ///
    /// The issue engine is the bottleneck: one read command per cycle,
    /// `reads(e)` per element, one address-setup cycle per element, and
    /// row misses charged per non-sequential row crossing. `avg_reads` is
    /// the mean per-element in-grid stencil reads (e.g. 462/121 for the
    /// paper's validation grid).
    pub fn baseline(
        &self,
        n: u64,
        avg_reads: f64,
        miss_fraction: f64,
        dram: &DramConfig,
        instances: u64,
    ) -> CyclePrediction {
        let per_element = 1.0
            + avg_reads * (1.0 + miss_fraction * dram.row_miss_penalty as f64)
            + (BASELINE_ELEMENT_OVERHEAD - 1.0);
        let per_instance = (n as f64 * per_element).round() as u64 + BASELINE_INSTANCE_OVERHEAD;
        CyclePrediction {
            cycles: instances * per_instance,
            warmup_cycles: 0,
            fmax_mhz: FreqModel.baseline_fmax(n),
        }
    }

    /// Convenience: average in-grid reads per element for a plan's problem
    /// (counts resolved `Inside` accesses over the whole grid — exact, but
    /// O(N); cache it when sweeping).
    pub fn avg_reads(&self, plan: &BufferPlan) -> f64 {
        let mut total = 0usize;
        for coords in plan.grid.iter_coords() {
            for off in plan.shape.offsets() {
                if let Ok(smache_stencil::Access::Inside(_)) =
                    smache_stencil::resolve(&plan.grid, &plan.bounds, &coords, off)
                {
                    total += 1;
                }
            }
        }
        total as f64 / plan.grid.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::kernel::{AverageKernel, Kernel};
    use crate::builder::SmacheBuilder;
    use smache_mem::{ChaosProfile, FaultPlan};
    use smache_stencil::{BoundarySpec, GridSpec};

    fn plan(dim: usize, bounds: BoundarySpec) -> BufferPlan {
        SmacheBuilder::new(GridSpec::d2(dim, dim).expect("grid"))
            .boundaries(bounds)
            .plan()
            .expect("plan")
    }

    /// The model's relative error against a full simulation of `config`.
    fn error(plan: BufferPlan, config: PipelineConfig, passes: u64) -> f64 {
        let predicted = CycleModel
            .predict(&plan, &config, AverageKernel.latency(), passes)
            .expect("modelled");
        let n = plan.grid.len() as u64;
        let mut system = SmacheSystem::new(plan, Box::new(AverageKernel), config).expect("sys");
        let measured = system
            .run(&(0..n).collect::<Vec<_>>(), passes)
            .expect("run");
        assert_eq!(predicted.fmax_mhz, measured.metrics.fmax_mhz);
        predicted.cycles.abs_diff(measured.metrics.cycles) as f64 / measured.metrics.cycles as f64
    }

    #[test]
    fn smache_prediction_tracks_simulation() {
        for (dim, instances) in [(11, 100), (16, 20), (32, 10), (64, 5)] {
            let err = error(
                plan(dim, BoundarySpec::paper_case()),
                PipelineConfig::default(),
                instances,
            );
            assert!(err <= 0.01, "{dim}x{dim}/{instances}: {err:.4}");
        }
    }

    #[test]
    fn multilane_prediction_tracks_simulation() {
        for lanes in [1usize, 2, 4, 8] {
            let mut config = PipelineConfig::default();
            config.system.dram.bus_words = lanes;
            let open = plan(32, BoundarySpec::all_open(2).expect("bounds"));
            let err = error(open, config, 6);
            assert!(err <= 0.06, "lanes {lanes}: {err:.4}");
        }
    }

    #[test]
    fn cascade_prediction_tracks_simulation() {
        for depth in [1usize, 2, 4] {
            let config = PipelineConfig {
                depth,
                ..PipelineConfig::default()
            };
            let open = plan(24, BoundarySpec::all_open(2).expect("bounds"));
            let err = error(open, config, 4);
            assert!(err <= 0.06, "depth {depth}: {err:.4}");
            // Static buffers serialise the stages within a pass.
            let err = error(plan(11, BoundarySpec::paper_case()), config, 4);
            assert!(err <= 0.06, "paper case, depth {depth}: {err:.4}");
        }
    }

    #[test]
    fn predictions_scale_linearly_with_instances() {
        // Both ping-pong regions are open from the third pass on, so every
        // later pass costs the same.
        let wrap = plan(16, BoundarySpec::paper_case());
        for config in [
            PipelineConfig::default(),
            PipelineConfig {
                depth: 3,
                channels: 2,
                ..PipelineConfig::default()
            },
        ] {
            let cycles = |passes| CycleModel.predict(&wrap, &config, 2, passes).expect("ok");
            let (two, three, ten) = (cycles(2), cycles(3), cycles(10));
            assert_eq!(ten.cycles - two.cycles, 8 * (three.cycles - two.cycles));
            assert_eq!(
                ten.warmup_cycles - two.warmup_cycles,
                8 * (three.warmup_cycles - two.warmup_cycles)
            );
        }
    }

    #[test]
    fn warmup_only_with_static_buffers() {
        let config = PipelineConfig::default();
        let open = plan(8, BoundarySpec::all_open(2).expect("bounds"));
        let p = CycleModel.predict(&open, &config, 1, 5).expect("modelled");
        assert_eq!(p.warmup_cycles, 0);

        let wrap = plan(8, BoundarySpec::paper_case());
        let once = CycleModel.predict(&wrap, &config, 1, 5).expect("modelled");
        assert!(once.warmup_cycles >= 16);
        // A pipeline re-warms every pass.
        let piped = PipelineConfig { depth: 2, ..config };
        let every = CycleModel.predict(&wrap, &piped, 1, 5).expect("modelled");
        assert!(every.warmup_cycles >= 5 * 16);
        assert!(once.exec_us() > 0.0);
    }

    #[test]
    fn refuses_what_the_engine_refuses_and_what_it_cannot_model() {
        let wrap = plan(8, BoundarySpec::paper_case());
        let mut wide = PipelineConfig::default();
        wide.system.dram.bus_words = 4;
        assert_eq!(
            CycleModel.predict(&wrap, &wide, 2, 1).unwrap_err(),
            SmacheSystem::check_geometry(&wrap, &wide).unwrap_err()
        );
        let mut chaos = PipelineConfig::default();
        chaos.system.fault_plan = FaultPlan::new(1, ChaosProfile::storms());
        assert_eq!(
            CycleModel.predict(&wrap, &chaos, 2, 1),
            Err(CoreError::Unmodelled(Unmodelled::FaultPlan))
        );
        let zero_depth = PipelineConfig {
            depth: 0,
            ..PipelineConfig::default()
        };
        assert!(CycleModel.predict(&wrap, &zero_depth, 2, 1).is_err());
        assert_eq!(
            CycleModel.predict(&wrap, &PipelineConfig::default(), 0, 1),
            Err(CoreError::KernelLatencyZero)
        );
    }
}
