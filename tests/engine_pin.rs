//! Pins the cycle engine's observable behaviour to a fixed table.
//!
//! Every row runs one configuration twice — a plain `run` and a
//! `run_captured` — and compares the plain run's cycle accounting, DRAM
//! traffic and output fingerprint, plus the captured schedule's key,
//! against values recorded from the engine before the single-step system
//! and the temporal pipeline shared one step loop. The rows cover:
//!
//! * the nine-boundary-case 11×11 grid as a single-step system, with
//!   double buffering on and off, at 1 and 3 instances;
//! * temporal pipelines of depth 2 and 3, and depth 2 over two channels
//!   with a command gap of 2;
//! * a latency-only chaos plan (jitter plus stall storms) at depth 1 and
//!   depth 2.
//!
//! Any change to a number here is a behaviour change of the engine.

use smache::prelude::*;

/// One pinned configuration and the values it must reproduce.
struct Pin {
    name: &'static str,
    depth: usize,
    channels: usize,
    cmd_gap: u64,
    double_buffering: bool,
    chaos: bool,
    /// Instances for a single-step row, passes for a pipelined one.
    count: u64,
    cycles: u64,
    warmup_cycles: u64,
    stall_cycles: u64,
    transfers: u64,
    dram_reads: u64,
    dram_writes: u64,
    row_hits: u64,
    output_fp: &'static str,
    schedule_key: &'static str,
}

const PINS: &[Pin] = &[
    Pin {
        name: "single-step, double buffering, 1 instance",
        depth: 1,
        channels: 1,
        cmd_gap: 1,
        double_buffering: true,
        chaos: false,
        count: 1,
        cycles: 170,
        warmup_cycles: 30,
        stall_cycles: 0,
        transfers: 121,
        dram_reads: 143,
        dram_writes: 121,
        row_hits: 2,
        output_fp: "bc157d39233915b3f9f678f3ba13afde",
        schedule_key: "869c798e2d6cec5300c2d331d8e8164f",
    },
    Pin {
        name: "single-step, double buffering, 3 instances",
        depth: 1,
        channels: 1,
        cmd_gap: 1,
        double_buffering: true,
        chaos: false,
        count: 3,
        cycles: 454,
        warmup_cycles: 30,
        stall_cycles: 0,
        transfers: 363,
        dram_reads: 385,
        dram_writes: 363,
        row_hits: 3,
        output_fp: "90b8a165419ce1a9df5a05116c07e372",
        schedule_key: "869c7b8e2d6cefb99fd0b666b2d276ac",
    },
    Pin {
        name: "single-step, no double buffering, 1 instance",
        depth: 1,
        channels: 1,
        cmd_gap: 1,
        double_buffering: false,
        chaos: false,
        count: 1,
        cycles: 170,
        warmup_cycles: 30,
        stall_cycles: 0,
        transfers: 121,
        dram_reads: 143,
        dram_writes: 121,
        row_hits: 2,
        output_fp: "bc157d39233915b3f9f678f3ba13afde",
        schedule_key: "a34617df5158061abf5f3c7ae72bb59a",
    },
    Pin {
        name: "single-step, no double buffering, 3 instances",
        depth: 1,
        channels: 1,
        cmd_gap: 1,
        double_buffering: false,
        chaos: false,
        count: 3,
        cycles: 504,
        warmup_cycles: 84,
        stall_cycles: 0,
        transfers: 363,
        dram_reads: 429,
        dram_writes: 363,
        row_hits: 7,
        output_fp: "90b8a165419ce1a9df5a05116c07e372",
        schedule_key: "a34615df515802b4451189e1517b559a",
    },
    Pin {
        name: "depth 2, 2 passes",
        depth: 2,
        channels: 1,
        cmd_gap: 1,
        double_buffering: true,
        chaos: false,
        count: 2,
        cycles: 632,
        warmup_cycles: 60,
        stall_cycles: 0,
        transfers: 242,
        dram_reads: 286,
        dram_writes: 242,
        row_hits: 4,
        output_fp: "b93eaeb70f0beaf5cb6acba1f97ad831",
        schedule_key: "a332c9a1cf4a9121e796259b7d116ab5",
    },
    Pin {
        name: "depth 3, 2 passes",
        depth: 3,
        channels: 1,
        cmd_gap: 1,
        double_buffering: true,
        chaos: false,
        count: 2,
        cycles: 924,
        warmup_cycles: 60,
        stall_cycles: 0,
        transfers: 242,
        dram_reads: 286,
        dram_writes: 242,
        row_hits: 4,
        output_fp: "26d90057276fd4f7387838b2d50a3fe1",
        schedule_key: "1ca3ceeded243f4cc5f51b38d30121bb",
    },
    Pin {
        name: "depth 2, 2 channels, cmd_gap 2, 2 passes",
        depth: 2,
        channels: 2,
        cmd_gap: 2,
        double_buffering: true,
        chaos: false,
        count: 2,
        cycles: 627,
        warmup_cycles: 55,
        stall_cycles: 0,
        transfers: 242,
        dram_reads: 286,
        dram_writes: 242,
        row_hits: 10,
        output_fp: "b93eaeb70f0beaf5cb6acba1f97ad831",
        schedule_key: "b73538b3c4b52c0177d162c34ab29e16",
    },
    Pin {
        name: "depth 1, 2 channels, 3 passes",
        depth: 1,
        channels: 2,
        cmd_gap: 1,
        double_buffering: true,
        chaos: false,
        count: 3,
        cycles: 498,
        warmup_cycles: 78,
        stall_cycles: 0,
        transfers: 363,
        dram_reads: 429,
        dram_writes: 363,
        row_hits: 16,
        output_fp: "90b8a165419ce1a9df5a05116c07e372",
        schedule_key: "5515bae7b5d7dd62ac5f0acb2f8cc1b3",
    },
    Pin {
        name: "single-step, jitter and storms, 3 instances",
        depth: 1,
        channels: 1,
        cmd_gap: 1,
        double_buffering: true,
        chaos: true,
        count: 3,
        cycles: 542,
        warmup_cycles: 35,
        stall_cycles: 62,
        transfers: 363,
        dram_reads: 385,
        dram_writes: 363,
        row_hits: 3,
        output_fp: "90b8a165419ce1a9df5a05116c07e372",
        schedule_key: "e0a72e402688b9781a9145075e28efd0",
    },
    Pin {
        name: "depth 2, jitter and storms, 2 passes",
        depth: 2,
        channels: 1,
        cmd_gap: 1,
        double_buffering: true,
        chaos: true,
        count: 2,
        cycles: 722,
        warmup_cycles: 71,
        stall_cycles: 77,
        transfers: 242,
        dram_reads: 286,
        dram_writes: 242,
        row_hits: 4,
        output_fp: "b93eaeb70f0beaf5cb6acba1f97ad831",
        schedule_key: "a7e8b3d71e4a907430a12be82c47547e",
    },
];

fn hex128((hi, lo): (u64, u64)) -> String {
    format!("{hi:016x}{lo:016x}")
}

fn output_fp(output: &[Word]) -> String {
    let bytes: Vec<u8> = output.iter().flat_map(|w| w.to_le_bytes()).collect();
    hex128(smache_sim::hash::fingerprint128(&bytes))
}

/// Jitter plus stall storms: latency-only, so the run stays capturable.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(
        29,
        ChaosProfile {
            read_jitter_prob: 0.2,
            read_jitter_max: 6,
            stall_storm_prob: 0.02,
            stall_storm_max: 12,
            ..ChaosProfile::none()
        },
    )
}

/// The observed values of one row, rendered in the table's field order.
fn observe(pin: &Pin) -> String {
    let grid = GridSpec::d2(11, 11).expect("grid");
    let plan = SmacheBuilder::new(grid.clone()).plan().expect("plan");
    let input: Vec<Word> = (0..grid.len() as Word)
        .map(|i| (i * 37 + 11) % 4099)
        .collect();
    let system = SystemConfig {
        double_buffering: pin.double_buffering,
        fault_plan: if pin.chaos {
            chaos_plan()
        } else {
            FaultPlan::default()
        },
        ..SystemConfig::default()
    };
    let (report, captured, schedule) = if pin.depth == 1 && pin.channels == 1 {
        let sys = || SmacheSystem::new(plan.clone(), Box::new(AverageKernel), system);
        let report = sys().and_then(|mut s| s.run(&input, pin.count));
        let captured = sys().and_then(|mut s| s.run_captured(&input, pin.count));
        let (captured, schedule) = captured.expect("capture");
        (report.expect("run"), captured, schedule)
    } else {
        let config = PipelineConfig {
            depth: pin.depth,
            channels: pin.channels,
            cmd_gap: pin.cmd_gap,
            system,
            ..PipelineConfig::default()
        };
        let pipe = || TemporalPipeline::new(plan.clone(), Box::new(AverageKernel), config);
        let report = pipe().and_then(|mut p| p.run(&input, pin.count));
        let captured = pipe().and_then(|mut p| p.run_captured(&input, pin.count));
        let (captured, schedule) = captured.expect("capture");
        (report.expect("run"), captured, schedule)
    };
    assert_eq!(
        captured.output, report.output,
        "{}: capture diverged",
        pin.name
    );
    assert_eq!(
        captured.stats, report.stats,
        "{}: capture diverged",
        pin.name
    );
    let dram = &report.metrics.dram;
    format!(
        "cycles: {}, warmup_cycles: {}, stall_cycles: {}, transfers: {}, dram_reads: {}, \
         dram_writes: {}, row_hits: {}, output_fp: {:?}, schedule_key: {:?}",
        report.stats.cycles,
        report.warmup_cycles,
        report.stats.stall_cycles,
        report.stats.transfers,
        dram.reads,
        dram.writes,
        dram.row_hits,
        output_fp(&report.output),
        hex128(schedule.key()),
    )
}

#[test]
fn engine_matches_the_pinned_table() {
    let mut mismatches = Vec::new();
    for pin in PINS {
        let expected = format!(
            "cycles: {}, warmup_cycles: {}, stall_cycles: {}, transfers: {}, dram_reads: {}, \
             dram_writes: {}, row_hits: {}, output_fp: {:?}, schedule_key: {:?}",
            pin.cycles,
            pin.warmup_cycles,
            pin.stall_cycles,
            pin.transfers,
            pin.dram_reads,
            pin.dram_writes,
            pin.row_hits,
            pin.output_fp,
            pin.schedule_key,
        );
        let got = observe(pin);
        if got != expected {
            mismatches.push(format!(
                "{}\n  expected {expected}\n  got      {got}",
                pin.name
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Replays `schedule` over `input` — in memory, and through an encoded
/// and decoded store entry — and demands `full`'s report byte for byte,
/// save the engine that produced it.
fn assert_replay_is_full_sim(
    schedule: &ControlSchedule,
    input: &[Word],
    full: &RunReport,
    what: &str,
) {
    use smache::system::store::{decode_entry, encode_entry};
    let (_, decoded) =
        decode_entry(&encode_entry(schedule.key(), schedule)).expect("entry decodes");
    let mut want = full.clone();
    want.engine = RunEngine::Replay;
    let want = want.to_json().compact();
    for (from, s) in [("memory", schedule), ("store", &decoded)] {
        let got = s.replay(&AverageKernel, input).expect("replays");
        assert_eq!(got.output, full.output, "{what} ({from})");
        assert_eq!(got.stats, full.stats, "{what} ({from})");
        assert_eq!(got.to_json().compact(), want, "{what} ({from})");
    }
}

/// Every pinned row's schedule replays fresh data exactly as the full
/// simulation runs it: output, cycles and every report field.
#[test]
fn replay_matches_every_pinned_row() {
    let grid = GridSpec::d2(11, 11).expect("grid");
    let plan = SmacheBuilder::new(grid.clone()).plan().expect("plan");
    let capture: Vec<Word> = (0..grid.len() as Word).collect();
    let fresh: Vec<Word> = (0..grid.len() as Word)
        .map(|i| (i * 37 + 11) % 4099)
        .collect();
    for pin in PINS {
        let config = PipelineConfig {
            depth: pin.depth,
            channels: pin.channels,
            cmd_gap: pin.cmd_gap,
            system: SystemConfig {
                double_buffering: pin.double_buffering,
                fault_plan: if pin.chaos {
                    chaos_plan()
                } else {
                    FaultPlan::default()
                },
                ..SystemConfig::default()
            },
            ..PipelineConfig::default()
        };
        let engine = || SmacheSystem::new(plan.clone(), Box::new(AverageKernel), config);
        let (_, schedule) = engine()
            .and_then(|mut s| s.run_captured(&capture, pin.count))
            .expect("capture");
        let full = engine()
            .and_then(|mut s| s.run(&fresh, pin.count))
            .expect("run");
        assert_replay_is_full_sim(&schedule, &fresh, &full, pin.name);
    }
}
