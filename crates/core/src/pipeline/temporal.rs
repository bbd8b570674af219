//! The temporal-blocking pipeline: T chained Smache stages, one DRAM pass.
//!
//! A [`TemporalPipeline`] is the one cycle engine,
//! [`SmacheSystem`], built from a [`PipelineConfig`]: `depth` complete
//! Smache stage modules back-to-back. Stage 0 streams the input region
//! from DRAM exactly like the single-step system; every later stage's AXI
//! input is its predecessor's kernel-output stream, carried through an
//! on-chip [`StageLink`](crate::pipeline::StageLink) — so one *pass* over
//! DRAM advances the grid by `depth` timesteps and the intermediate
//! timesteps never touch memory. `passes` passes therefore compute
//! `depth × passes` timesteps with the DRAM traffic of `passes`
//! single-step runs.
//!
//! **Boundary handling per stage.** Each stage owns a full copy of the
//! plan: its own stream window, static buffers and 3-FSM controller, so
//! arbitrary boundaries (including circular wrap) work at every timestep.
//! The one architectural difference from the single-step system is that
//! static buffers cannot be transparently double-buffered here: stage
//! `t`'s next-pass static contents are stage `t−1`'s next-pass *output*,
//! not stage `t`'s own — the shadow-bank write-through would capture the
//! wrong timestep. So every pass boundary re-enters FSM-1 and
//! re-prefetches: stage 0 from DRAM, later stages from their link (random
//! access into the produced prefix). Plans without static buffers skip
//! warm-up entirely and the stages overlap almost perfectly; wrap-heavy
//! plans serialise the stages within a pass (the far-end static region
//! only becomes available late), which costs cycles but not traffic.
//!
//! **Memory substrate.** DRAM is a [`MultiChannelDram`]: `channels`
//! independent HBM-like channels behind an in-order port, with a
//! channel-interleaved address map and a per-channel read-command-rate
//! limit (`cmd_gap`). With `cmd_gap > 1` a single channel cannot feed
//! stage 0 at one word per cycle; interleaving across `channels ≥
//! cmd_gap` restores full rate — the cycles/cell win the `temporal`
//! bench measures.
//!
//! **Capture/replay.** The pipeline's control plane is a pure function of
//! (plan, system config, pipeline geometry, kernel, passes), so
//! [`SmacheSystem::run_captured`] records one
//! [`ControlSchedule`](crate::system::ControlSchedule) keyed on all of
//! those; because one pass is functionally `depth` sequential timesteps,
//! the schedule carries `depth × passes` instances and replays through the
//! unchanged single-step machinery (including lane-batched replay). See
//! `docs/PIPELINE.md`.
//!
//! [`MultiChannelDram`]: smache_mem::MultiChannelDram

use crate::system::smache_system::{SmacheSystem, SystemConfig};

/// Component name the pipeline-level stall-storm generator reports under.
pub const PIPE_STALL_COMPONENT: &str = "pipe.stall";

/// The temporal pipeline is the cycle engine built from a
/// [`PipelineConfig`].
pub type TemporalPipeline = SmacheSystem;

/// Geometry and tunables of the cycle engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Chained Smache stages — timesteps per DRAM pass (>= 1).
    pub depth: usize,
    /// Independent DRAM channels (>= 1).
    pub channels: usize,
    /// Words per channel-interleave block.
    pub interleave_words: usize,
    /// Minimum cycles between accepted read commands on one channel
    /// (1 = full rate; the per-channel bandwidth knob).
    pub cmd_gap: u64,
    /// The per-stage system tunables (DRAM timing, skid depth, watchdog,
    /// double buffering, fault plan). `double_buffering` applies only to
    /// the [`single_step`](Self::single_step) geometry: a pipeline always
    /// re-prefetches at pass boundaries (see the module docs).
    pub system: SystemConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            depth: 1,
            channels: 1,
            interleave_words: 1,
            cmd_gap: 1,
            system: SystemConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// True for the paper's single-step system: one stage over one
    /// full-rate DRAM channel — the geometry of a spec that is not
    /// [`pipelined`](crate::ProblemSpec::pipelined). This one rule decides
    /// everything that differs between the single-step system and a
    /// pipeline: whether `double_buffering` applies, the schedule key's
    /// `;pipeline=` suffix, the stall-storm chaos component, the metric
    /// name and the telemetry naming. A throttled channel (`cmd_gap > 1`)
    /// counts as pipelined, so its schedules never share a key with the
    /// full-rate system's.
    pub fn single_step(&self) -> bool {
        self.depth == 1 && self.channels == 1 && self.cmd_gap == 1
    }
}

impl From<SystemConfig> for PipelineConfig {
    /// The single-step geometry around `system`.
    fn from(system: SystemConfig) -> Self {
        PipelineConfig {
            system,
            ..PipelineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::kernel::AverageKernel;
    use crate::config::{BufferPlan, HybridMode, PlanStrategy};
    use crate::error::CoreError;
    use crate::functional::golden::golden_run;
    use crate::system::report::RunEngine;
    use smache_mem::{MemKind, Word};
    use smache_sim::{ReplayUnsupported, TelemetryConfig};
    use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};

    fn plan_for(bounds: BoundarySpec, h: usize, w: usize) -> BufferPlan {
        BufferPlan::analyse(
            GridSpec::d2(h, w).unwrap(),
            StencilShape::four_point_2d(),
            bounds,
            PlanStrategy::GlobalWindow,
            HybridMode::default(),
            MemKind::Bram,
            32,
        )
        .unwrap()
    }

    fn pipeline(bounds: BoundarySpec, h: usize, w: usize, depth: usize) -> TemporalPipeline {
        TemporalPipeline::new(
            plan_for(bounds, h, w),
            Box::new(AverageKernel),
            PipelineConfig {
                depth,
                ..PipelineConfig::default()
            },
        )
        .unwrap()
    }

    fn golden(bounds: &BoundarySpec, h: usize, w: usize, input: &[Word], steps: u64) -> Vec<Word> {
        golden_run(
            &GridSpec::d2(h, w).unwrap(),
            bounds,
            &StencilShape::four_point_2d(),
            &AverageKernel,
            input,
            steps,
        )
        .unwrap()
    }

    #[test]
    fn paper_case_pipeline_matches_golden_timesteps() {
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).map(|i| i * 7 + 3).collect();
        for depth in [1usize, 2, 3, 4] {
            for passes in [1u64, 2, 3] {
                let mut pipe = pipeline(bounds.clone(), 11, 11, depth);
                let report = pipe.run(&input, passes).unwrap();
                let steps = depth as u64 * passes;
                assert_eq!(
                    report.output,
                    golden(&bounds, 11, 11, &input, steps),
                    "depth {depth}, passes {passes}"
                );
            }
        }
    }

    #[test]
    fn static_free_pipelines_match_golden() {
        let mirror_constant = BoundarySpec::new(&[
            AxisBoundaries::both(Boundary::Mirror),
            AxisBoundaries::both(Boundary::Constant(50)),
        ])
        .unwrap();
        for (bounds, h, w) in [
            (BoundarySpec::all_open(2).unwrap(), 9, 13),
            (mirror_constant, 10, 10),
        ] {
            let input: Vec<Word> = (0..(h * w) as Word).map(|i| i * 5).collect();
            let mut pipe = pipeline(bounds.clone(), h, w, 3);
            let report = pipe.run(&input, 2).unwrap();
            assert_eq!(
                report.output,
                golden(&bounds, h, w, &input, 6),
                "{bounds:?}"
            );
            assert_eq!(report.warmup_cycles, 0, "no static buffers, no warm-up");
        }
    }

    #[test]
    fn pipeline_equals_sequential_single_step_runs() {
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).map(|i| (i * 31) % 255).collect();
        let depth = 4usize;
        let mut pipe = pipeline(bounds.clone(), 11, 11, depth);
        let piped = pipe.run(&input, 1).unwrap();

        let mut sys = SmacheSystem::new(
            plan_for(bounds, 11, 11),
            Box::new(AverageKernel),
            SystemConfig::default(),
        )
        .unwrap();
        let mut grid = input.clone();
        for _ in 0..depth {
            grid = sys.run(&grid, 1).unwrap().output;
        }
        assert_eq!(piped.output, grid);
    }

    /// The one-stage, one-channel pipeline is the single-step system: same
    /// output, cycles, warm-up, traffic, metric name and schedule key, with
    /// double buffering on and off — and double buffering applies to it.
    #[test]
    fn one_stage_pipeline_is_the_single_step_system() {
        let input: Vec<Word> = (0..121).map(|i| (i * 17 + 4) % 1000).collect();
        let mut cycles = Vec::new();
        for double_buffering in [true, false] {
            let system = SystemConfig {
                double_buffering,
                ..SystemConfig::default()
            };
            let plan = plan_for(BoundarySpec::paper_case(), 11, 11);
            let mut sys = SmacheSystem::new(plan.clone(), Box::new(AverageKernel), system).unwrap();
            let config = PipelineConfig {
                system,
                ..PipelineConfig::default()
            };
            let mut pipe = TemporalPipeline::new(plan, Box::new(AverageKernel), config).unwrap();
            let a = sys.run(&input, 4).unwrap();
            let b = pipe.run(&input, 4).unwrap();
            assert_eq!(a.output, b.output, "double_buffering={double_buffering}");
            assert_eq!(a.stats, b.stats, "double_buffering={double_buffering}");
            assert_eq!(a.warmup_cycles, b.warmup_cycles);
            assert_eq!(a.metrics.dram, b.metrics.dram);
            assert_eq!(a.metrics.name, b.metrics.name);
            assert_eq!(sys.schedule_key_text(4), pipe.schedule_key_text(4));
            assert!(!pipe.schedule_key_text(4).contains(";pipeline="));
            cycles.push(b.stats.cycles);
        }
        assert!(
            cycles[0] < cycles[1],
            "double buffering saves the re-prefetch: {cycles:?}"
        );
    }

    #[test]
    fn deeper_pipelines_cut_dram_traffic() {
        for (bounds, h, w) in [
            (BoundarySpec::paper_case(), 11, 11),
            (BoundarySpec::all_open(2).unwrap(), 16, 16),
        ] {
            let input: Vec<Word> = (0..(h * w) as Word).collect();
            // 12 timesteps as 12 / 6 / 3 passes. Every depth re-prefetches
            // at each pass, depth 1 included, so the traffic ratio counts
            // passes alone.
            let metrics = |depth: usize, passes: u64| {
                let config = PipelineConfig {
                    depth,
                    system: SystemConfig {
                        double_buffering: false,
                        ..SystemConfig::default()
                    },
                    ..PipelineConfig::default()
                };
                let mut pipe = TemporalPipeline::new(
                    plan_for(bounds.clone(), h, w),
                    Box::new(AverageKernel),
                    config,
                )
                .unwrap();
                pipe.run(&input, passes).unwrap().metrics
            };
            let m1 = metrics(1, 12);
            let m2 = metrics(2, 6);
            let m4 = metrics(4, 3);
            let (t1, t2, t4) = (
                m1.dram.total_bytes(),
                m2.dram.total_bytes(),
                m4.dram.total_bytes(),
            );
            assert_eq!(m1.ops, m4.ops, "{h}x{w}: same computation performed");
            assert!(t2 < t1, "{h}x{w}: 2-deep must cut traffic: {t2} vs {t1}");
            assert!(t4 < t2, "{h}x{w}: 4-deep must cut further: {t4} vs {t2}");
            // Stream + write-back traffic scales with passes.
            let ratio = t1 as f64 / t4 as f64;
            assert!(
                (ratio - 4.0).abs() < 0.05,
                "{h}x{w}: DRAM traffic must drop ~4x, got {ratio:.2}"
            );
            assert!(
                m4.cycles < m1.cycles,
                "{h}x{w}: fewer passes, fewer cycles: {} vs {}",
                m4.cycles,
                m1.cycles
            );
            // The price: more than 3x the on-chip buffering.
            assert!(
                m4.resources.total_memory_bits() > 3 * m1.resources.total_memory_bits(),
                "{h}x{w}: buffering must grow with depth"
            );
        }
    }

    #[test]
    fn channels_restore_rate_under_command_gap() {
        let bounds = BoundarySpec::all_open(2).unwrap();
        let input: Vec<Word> = (0..117).collect();
        let cycles = |channels: usize| {
            let mut pipe = TemporalPipeline::new(
                plan_for(bounds.clone(), 9, 13),
                Box::new(AverageKernel),
                PipelineConfig {
                    depth: 2,
                    channels,
                    cmd_gap: 4,
                    ..PipelineConfig::default()
                },
            )
            .unwrap();
            let report = pipe.run(&input, 2).unwrap();
            assert_eq!(report.output, golden(&bounds, 9, 13, &input, 4));
            report.metrics.cycles
        };
        let slow = cycles(1);
        let fast = cycles(4);
        assert!(
            fast * 2 < slow,
            "4 channels must beat 1 throttled channel: {fast} vs {slow}"
        );
    }

    #[test]
    fn zero_passes_returns_input() {
        let input: Vec<Word> = (0..121).collect();
        let mut pipe = pipeline(BoundarySpec::paper_case(), 11, 11, 3);
        let report = pipe.run(&input, 0).unwrap();
        assert_eq!(report.output, input);
        assert_eq!(report.metrics.ops, 0);
    }

    #[test]
    fn wrong_input_length_rejected() {
        let mut pipe = pipeline(BoundarySpec::paper_case(), 11, 11, 2);
        assert!(pipe.run(&[1, 2, 3], 1).is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let plan = plan_for(BoundarySpec::paper_case(), 11, 11);
        assert!(TemporalPipeline::new(
            plan.clone(),
            Box::new(AverageKernel),
            PipelineConfig {
                depth: 0,
                ..PipelineConfig::default()
            },
        )
        .is_err());
        assert!(TemporalPipeline::new(
            plan,
            Box::new(AverageKernel),
            PipelineConfig {
                channels: 0,
                ..PipelineConfig::default()
            },
        )
        .is_err());
    }

    #[test]
    fn captured_schedule_replays_fresh_data_bit_exactly() {
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).map(|i| i * 3 + 1).collect();
        let mut pipe = pipeline(bounds.clone(), 11, 11, 3);
        let (report, schedule) = pipe.run_captured(&input, 2).unwrap();
        assert_eq!(report.output, golden(&bounds, 11, 11, &input, 6));
        assert_eq!(schedule.instances(), 6, "depth x passes timesteps");

        let other: Vec<Word> = (0..121).map(|i| (i * 97 + 13) % 4096).collect();
        let replayed = schedule.replay(&AverageKernel, &other).unwrap();
        let mut fresh = pipeline(bounds, 11, 11, 3);
        let full = fresh.run(&other, 2).unwrap();
        assert_eq!(replayed.output, full.output);
        assert_eq!(replayed.stats, full.stats);
        assert_eq!(replayed.engine, RunEngine::Replay);
    }

    #[test]
    fn schedule_keys_fork_on_pipeline_geometry() {
        let mk = |depth: usize, channels: usize, gap: u64| {
            TemporalPipeline::new(
                plan_for(BoundarySpec::paper_case(), 11, 11),
                Box::new(AverageKernel),
                PipelineConfig {
                    depth,
                    channels,
                    cmd_gap: gap,
                    ..PipelineConfig::default()
                },
            )
            .unwrap()
        };
        let base = mk(2, 1, 1).schedule_key_text(3);
        assert_ne!(base, mk(3, 1, 1).schedule_key_text(2), "depth forks");
        assert_ne!(base, mk(2, 4, 1).schedule_key_text(3), "channels fork");
        assert_ne!(base, mk(2, 1, 4).schedule_key_text(3), "cmd_gap forks");
        assert!(base.contains(";pipeline=2:1:1:1"));
    }

    #[test]
    fn latency_only_chaos_is_absorbed_and_replayable() {
        use smache_mem::{ChaosProfile, FaultPlan};
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).map(|i| i * 13 + 5).collect();
        let mut clean = pipeline(bounds.clone(), 11, 11, 2);
        let clean_report = clean.run(&input, 2).unwrap();

        let chaotic = || {
            TemporalPipeline::new(
                plan_for(bounds.clone(), 11, 11),
                Box::new(AverageKernel),
                PipelineConfig {
                    depth: 2,
                    system: SystemConfig {
                        fault_plan: FaultPlan::new(77, ChaosProfile::storms()),
                        ..SystemConfig::default()
                    },
                    ..PipelineConfig::default()
                },
            )
            .unwrap()
        };
        let mut sys = chaotic();
        let (report, schedule) = sys.run_captured(&input, 2).unwrap();
        assert_eq!(report.output, clean_report.output, "chaos absorbed");
        assert!(report.metrics.cycles > clean_report.metrics.cycles);
        assert!(report.stats.stall_cycles > 0, "storms froze the datapath");

        // Fresh data through the chaotic schedule vs a fresh chaotic run.
        let other: Vec<Word> = (0..121).map(|i| (i * 131 + 5) % 8192).collect();
        let replayed = schedule.replay(&AverageKernel, &other).unwrap();
        let full = chaotic().run(&other, 2).unwrap();
        assert_eq!(replayed.output, full.output);
        assert_eq!(replayed.stats, full.stats);
    }

    #[test]
    fn corrupting_chaos_refuses_capture() {
        use smache_mem::{ChaosProfile, FaultPlan};
        let mut pipe = TemporalPipeline::new(
            plan_for(BoundarySpec::paper_case(), 11, 11),
            Box::new(AverageKernel),
            PipelineConfig {
                depth: 2,
                system: SystemConfig {
                    fault_plan: FaultPlan::new(3, ChaosProfile::flip(40)),
                    ..SystemConfig::default()
                },
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(matches!(
            pipe.run_captured(&(0..121).collect::<Vec<Word>>(), 1),
            Err(CoreError::ReplayRefused(ReplayUnsupported::FaultPlan))
        ));
    }

    #[test]
    fn telemetry_covers_links_and_channels() {
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).collect();
        let mut pipe = TemporalPipeline::new(
            plan_for(bounds, 11, 11),
            Box::new(AverageKernel),
            PipelineConfig {
                depth: 3,
                channels: 2,
                cmd_gap: 2,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        pipe.attach_telemetry(TelemetryConfig::default());
        pipe.run(&input, 2).unwrap();
        let snap = pipe.telemetry().unwrap().snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"dram.ch0.reads"));
        assert!(names.contains(&"dram.ch1.reads"));
        let hists: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert!(hists.contains(&"occupancy.link0"));
        assert!(hists.contains(&"occupancy.link1"));
        // Telemetry makes the pipeline replay-ineligible, like the system.
        assert!(matches!(
            pipe.replay_eligibility(),
            Err(ReplayUnsupported::Telemetry)
        ));
    }

    #[test]
    fn stats_account_every_cycle_and_transfers_count_last_stage() {
        let mut pipe = pipeline(BoundarySpec::paper_case(), 11, 11, 3);
        let input: Vec<Word> = (0..121).collect();
        let report = pipe.run(&input, 4).unwrap();
        let s = &report.stats;
        assert_eq!(s.cycles, report.metrics.cycles);
        assert_eq!(
            s.transfers,
            121 * 4,
            "one last-stage emission per element per pass"
        );
        assert_eq!(s.cycles, s.transfers + s.stall_cycles + s.idle_cycles);
    }

    #[test]
    fn resources_scale_with_depth() {
        let r = |depth: usize| {
            pipeline(BoundarySpec::paper_case(), 11, 11, depth)
                .resources()
                .total_memory_bits()
        };
        assert!(r(2) > r(1));
        assert!(r(4) > r(2));
    }
}
