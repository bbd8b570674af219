//! One batch path and one schedule key at every geometry.
//!
//! `SmacheSystem::run_batch` takes any [`PipelineConfig`]: pipelined jobs,
//! clean and under latency-only chaos, capture once per schedule key and
//! replay the other lanes, bit-exact with each lane's own full simulation
//! and with the golden reference, and their schedules round-trip through
//! a [`ScheduleStore`]. The key texts are pinned to the bytes earlier
//! releases derived, so schedules already on disk stay valid.

use std::sync::Arc;

use smache::prelude::*;
use smache::system::{schedule_key_text, BatchJob, BatchOptions, KernelFactory, ScheduleStore};
use smache_sim::hash::fingerprint128;

fn paper_plan() -> BufferPlan {
    SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
        .plan()
        .expect("plan")
}

fn pipeline(chaos: bool) -> PipelineConfig {
    let mut config = PipelineConfig {
        depth: 2,
        channels: 2,
        cmd_gap: 2,
        ..PipelineConfig::default()
    };
    if chaos {
        config.system.fault_plan = FaultPlan::new(5, ChaosProfile::jitter());
    }
    config
}

fn hex((hi, lo): (u64, u64)) -> String {
    format!("{hi:016x}{lo:016x}")
}

#[test]
fn key_texts_are_byte_identical_to_earlier_releases() {
    let plan = paper_plan();
    let single = PipelineConfig::default();
    let text = schedule_key_text(&plan, &single, &AverageKernel, 3);
    assert_eq!(text.len(), 7804);
    assert!(text.starts_with("sched-v1;plan=") && text.ends_with(";instances=3"));
    assert_eq!(
        hex(fingerprint128(text.as_bytes())),
        "869c7b8e2d6cefb99fd0b666b2d276ac"
    );

    let piped = pipeline(true);
    let text = schedule_key_text(&plan, &piped, &AverageKernel, 2);
    assert_eq!(text.len(), 8007);
    assert!(text.contains(";instances=4;chaos=5:") && text.ends_with(";pipeline=2:2:1:2"));
    assert_eq!(
        hex(fingerprint128(text.as_bytes())),
        "ded25b4197e2e42b5601701d666d851b"
    );
    // The engine derives its keys through the same function.
    let system = SmacheSystem::new(plan, Box::new(AverageKernel), piped).expect("system");
    assert_eq!(system.schedule_key_text(2), text);
}

fn jobs(seeds: &[u64], config: PipelineConfig, passes: u64) -> Vec<BatchJob> {
    let kernel: KernelFactory = Arc::new(|| Box::new(AverageKernel));
    seeds
        .iter()
        .map(|&seed| {
            let input: Vec<Word> = (0..121).map(|i| (i * 31 + seed * 977) % 4096).collect();
            BatchJob::new(paper_plan(), Arc::clone(&kernel), input, passes).with_config(config)
        })
        .collect()
}

#[test]
fn pipelined_batches_replay_bit_exactly_and_persist() {
    let passes = 2;
    let mixed = |seeds: &[u64]| {
        let mut all = jobs(seeds, pipeline(false), passes);
        all.extend(jobs(seeds, pipeline(true), passes));
        all
    };
    let dir = std::env::temp_dir().join(format!("smache-batch-geometry-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut store = ScheduleStore::open(&dir, 0).expect("store");
    let seeds = [1, 2, 3];
    let cold = SmacheSystem::run_batch(
        mixed(&seeds),
        BatchOptions::new()
            .threads(2)
            .lane_block(2)
            .store(&mut store),
    );
    assert_eq!(store.stats().writes, 2, "one capture per key, written back");
    let engines: Vec<RunEngine> = cold
        .lanes
        .iter()
        .map(|l| l.as_ref().expect("lane runs").engine)
        .collect();
    use RunEngine::{FullSim, Replay};
    assert_eq!(engines, [FullSim, Replay, Replay, FullSim, Replay, Replay]);

    // A fresh handle on the same directory replays every lane from disk.
    let mut store = ScheduleStore::open(&dir, 0).expect("reopen");
    let warm = SmacheSystem::run_batch(mixed(&seeds), BatchOptions::new().store(&mut store));
    assert_eq!(store.stats().hits, 2);

    for (i, job) in mixed(&seeds).into_iter().enumerate() {
        let mut system =
            SmacheSystem::new(job.plan.clone(), (job.kernel)(), job.config).expect("system");
        let full = system.run(&job.input, job.instances).expect("full run");
        let golden = golden_run(
            &job.plan.grid,
            &job.plan.bounds,
            &job.plan.shape,
            &AverageKernel,
            &job.input,
            job.config.depth as u64 * job.instances,
        )
        .expect("golden");
        assert_eq!(full.output, golden, "lane {i}: full simulation");
        for report in [&cold.lanes[i], &warm.lanes[i]] {
            let report = report.as_ref().expect("lane runs");
            assert_eq!(report.output, full.output, "lane {i}");
            assert_eq!(report.stats, full.stats, "lane {i}");
            assert_eq!(report.metrics.cycles, full.metrics.cycles, "lane {i}");
        }
        assert_eq!(
            warm.lanes[i].as_ref().expect("ok").engine,
            Replay,
            "lane {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
