//! Pins the spatially parallel (multi-lane) engine to a fixed table.
//!
//! A `P`-word DRAM bus (`DramConfig::bus_words`) makes the cycle engine
//! process `P` consecutive elements per cycle. Every row runs one
//! configuration and compares its cycle count, DRAM traffic, output
//! fingerprint, Fmax and resources against values recorded from the
//! separate multi-lane system the engine replaced. The rows cover:
//!
//! * a 12×20 open grid at 1, 2, 4 and 8 lanes, for 1 and 3 instances;
//! * the 11×11 paper case (wrap rows, so static buffers) at 1 and 2
//!   lanes, for 1 and 5 instances;
//! * a 64×64 open grid at 1, 2, 4 and 8 lanes, for 4 instances — the
//!   lane-scaling ablation.
//!
//! The rules:
//!
//! * outputs, DRAM reads, writes and bytes, and Fmax match exactly;
//! * resources match exactly; one-lane rows carry the single-step
//!   engine's resources (the old system modelled its window as registers
//!   even at one lane);
//! * cycles match exactly at one instance. Across instance boundaries
//!   they may differ by at most [`BOUNDARY_SLACK`] cycles per boundary:
//!   the old system sized each ping-pong region one word larger than the
//!   grid plus the last beat's over-fetch, so on a grid that fills its
//!   DRAM rows exactly its next instance's first read was a row miss
//!   rather than a continued sequential burst.

use smache::prelude::*;
use smache_sim::ResourceUsage;
use smache_stencil::BoundarySpec;

/// Largest cycle difference allowed per instance boundary.
const BOUNDARY_SLACK: u64 = 4;

/// One pinned configuration and the values it must reproduce.
struct Pin {
    h: usize,
    w: usize,
    /// Paper-case boundaries (wrap rows) instead of all-open.
    wrap: bool,
    lanes: usize,
    instances: u64,
    cycles: u64,
    dram_reads: u64,
    dram_writes: u64,
    dram_bytes: u64,
    output_fp: &'static str,
    fmax_mhz: f64,
    alms: u64,
    registers: u64,
    bram_bits: u64,
    dsps: u64,
}

const PINS: &[Pin] = &[
    Pin {
        h: 12,
        w: 20,
        wrap: false,
        lanes: 1,
        instances: 1,
        cycles: 273,
        dram_reads: 240,
        dram_writes: 240,
        dram_bytes: 1920,
        output_fp: "f934fae87c1319fc2033760b0ccf8122",
        fmax_mhz: 234.64814510641293,
        alms: 444,
        registers: 533,
        bram_bits: 1024,
        dsps: 0,
    },
    Pin {
        h: 12,
        w: 20,
        wrap: false,
        lanes: 1,
        instances: 3,
        cycles: 813,
        dram_reads: 720,
        dram_writes: 720,
        dram_bytes: 5760,
        output_fp: "e4a3e5b3648bb3674ccd5f4a0bb7af21",
        fmax_mhz: 234.64814510641293,
        alms: 444,
        registers: 533,
        bram_bits: 1024,
        dsps: 0,
    },
    Pin {
        h: 12,
        w: 20,
        wrap: false,
        lanes: 2,
        instances: 1,
        cycles: 143,
        dram_reads: 120,
        dram_writes: 120,
        dram_bytes: 1920,
        output_fp: "f934fae87c1319fc2033760b0ccf8122",
        fmax_mhz: 218.5935689772007,
        alms: 888,
        registers: 1867,
        bram_bits: 0,
        dsps: 0,
    },
    Pin {
        h: 12,
        w: 20,
        wrap: false,
        lanes: 2,
        instances: 3,
        cycles: 423,
        dram_reads: 360,
        dram_writes: 360,
        dram_bytes: 5760,
        output_fp: "e4a3e5b3648bb3674ccd5f4a0bb7af21",
        fmax_mhz: 218.5935689772007,
        alms: 888,
        registers: 1867,
        bram_bits: 0,
        dsps: 0,
    },
    Pin {
        h: 12,
        w: 20,
        wrap: false,
        lanes: 4,
        instances: 1,
        cycles: 78,
        dram_reads: 60,
        dram_writes: 60,
        dram_bytes: 1920,
        output_fp: "f934fae87c1319fc2033760b0ccf8122",
        fmax_mhz: 204.5952083802197,
        alms: 1776,
        registers: 2239,
        bram_bits: 0,
        dsps: 0,
    },
    Pin {
        h: 12,
        w: 20,
        wrap: false,
        lanes: 4,
        instances: 3,
        cycles: 228,
        dram_reads: 180,
        dram_writes: 180,
        dram_bytes: 5760,
        output_fp: "e4a3e5b3648bb3674ccd5f4a0bb7af21",
        fmax_mhz: 204.5952083802197,
        alms: 1776,
        registers: 2239,
        bram_bits: 0,
        dsps: 0,
    },
    Pin {
        h: 12,
        w: 20,
        wrap: false,
        lanes: 8,
        instances: 1,
        cycles: 45,
        dram_reads: 30,
        dram_writes: 30,
        dram_bytes: 1920,
        output_fp: "f934fae87c1319fc2033760b0ccf8122",
        fmax_mhz: 192.28180821812447,
        alms: 3552,
        registers: 2983,
        bram_bits: 0,
        dsps: 0,
    },
    Pin {
        h: 12,
        w: 20,
        wrap: false,
        lanes: 8,
        instances: 3,
        cycles: 129,
        dram_reads: 90,
        dram_writes: 90,
        dram_bytes: 5760,
        output_fp: "e4a3e5b3648bb3674ccd5f4a0bb7af21",
        fmax_mhz: 192.28180821812447,
        alms: 3552,
        registers: 2983,
        bram_bits: 0,
        dsps: 0,
    },
    Pin {
        h: 11,
        w: 11,
        wrap: true,
        lanes: 1,
        instances: 1,
        cycles: 170,
        dram_reads: 143,
        dram_writes: 121,
        dram_bytes: 1056,
        output_fp: "bc157d39233915b3f9f678f3ba13afde",
        fmax_mhz: 235.47695857960295,
        alms: 522,
        registers: 515,
        bram_bits: 2048,
        dsps: 0,
    },
    Pin {
        h: 11,
        w: 11,
        wrap: true,
        lanes: 1,
        instances: 5,
        cycles: 732,
        dram_reads: 627,
        dram_writes: 605,
        dram_bytes: 4928,
        output_fp: "dbf0f51403ab3e968314d7bdca85bb6f",
        fmax_mhz: 235.47695857960295,
        alms: 522,
        registers: 515,
        bram_bits: 2048,
        dsps: 0,
    },
    Pin {
        h: 11,
        w: 11,
        wrap: true,
        lanes: 2,
        instances: 1,
        cycles: 104,
        dram_reads: 83,
        dram_writes: 61,
        dram_bytes: 1060,
        output_fp: "bc157d39233915b3f9f678f3ba13afde",
        fmax_mhz: 219.31267407943503,
        alms: 1044,
        registers: 1274,
        bram_bits: 1536,
        dsps: 0,
    },
    Pin {
        h: 11,
        w: 11,
        wrap: true,
        lanes: 2,
        instances: 5,
        cycles: 402,
        dram_reads: 327,
        dram_writes: 305,
        dram_bytes: 4948,
        output_fp: "dbf0f51403ab3e968314d7bdca85bb6f",
        fmax_mhz: 219.31267407943503,
        alms: 1044,
        registers: 1274,
        bram_bits: 1536,
        dsps: 0,
    },
    Pin {
        h: 64,
        w: 64,
        wrap: false,
        lanes: 1,
        instances: 4,
        cycles: 16692,
        dram_reads: 16384,
        dram_writes: 16384,
        dram_bytes: 131072,
        output_fp: "1eb179f5d5d8b113481abde887d0ee3c",
        fmax_mhz: 231.39042506421086,
        alms: 452,
        registers: 611,
        bram_bits: 4096,
        dsps: 0,
    },
    Pin {
        h: 64,
        w: 64,
        wrap: false,
        lanes: 2,
        instances: 4,
        cycles: 8372,
        dram_reads: 8192,
        dram_writes: 8192,
        dram_bytes: 131072,
        output_fp: "1eb179f5d5d8b113481abde887d0ee3c",
        fmax_mhz: 215.76369560057827,
        alms: 904,
        registers: 4759,
        bram_bits: 0,
        dsps: 0,
    },
    Pin {
        h: 64,
        w: 64,
        wrap: false,
        lanes: 4,
        instances: 4,
        cycles: 4212,
        dram_reads: 4096,
        dram_writes: 4096,
        dram_bytes: 131072,
        output_fp: "1eb179f5d5d8b113481abde887d0ee3c",
        fmax_mhz: 202.11411362855466,
        alms: 1808,
        registers: 5131,
        bram_bits: 0,
        dsps: 0,
    },
    Pin {
        h: 64,
        w: 64,
        wrap: false,
        lanes: 8,
        instances: 4,
        cycles: 2132,
        dram_reads: 2048,
        dram_writes: 2048,
        dram_bytes: 131072,
        output_fp: "1eb179f5d5d8b113481abde887d0ee3c",
        fmax_mhz: 190.08877145627008,
        alms: 3616,
        registers: 5875,
        bram_bits: 0,
        dsps: 0,
    },
];

fn hex128((hi, lo): (u64, u64)) -> String {
    format!("{hi:016x}{lo:016x}")
}

fn output_fp(output: &[Word]) -> String {
    let bytes: Vec<u8> = output.iter().flat_map(|w| w.to_le_bytes()).collect();
    hex128(smache_sim::hash::fingerprint128(&bytes))
}

fn plan(pin: &Pin) -> BufferPlan {
    let bounds = if pin.wrap {
        BoundarySpec::paper_case()
    } else {
        BoundarySpec::all_open(2).expect("bounds")
    };
    SmacheBuilder::new(GridSpec::d2(pin.h, pin.w).expect("grid"))
        .boundaries(bounds)
        .plan()
        .expect("plan")
}

fn input(pin: &Pin) -> Vec<Word> {
    (0..(pin.h * pin.w) as Word)
        .map(|i| (i * 37 + 11) % 4099)
        .collect()
}

fn name(pin: &Pin) -> String {
    format!(
        "{}x{} {} at {} lane(s), {} instance(s)",
        pin.h,
        pin.w,
        if pin.wrap { "paper case" } else { "open" },
        pin.lanes,
        pin.instances
    )
}

/// Renders every exactly-pinned field of a row, in the table's order.
fn exact_fields(
    dram_reads: u64,
    dram_writes: u64,
    dram_bytes: u64,
    output_fp: &str,
    fmax_mhz: f64,
    resources: ResourceUsage,
) -> String {
    format!(
        "dram_reads: {dram_reads}, dram_writes: {dram_writes}, dram_bytes: {dram_bytes}, \
         output_fp: {output_fp:?}, fmax_mhz: {fmax_mhz:?}, alms: {}, registers: {}, \
         bram_bits: {}, dsps: {}",
        resources.alms, resources.registers, resources.bram_bits, resources.dsps
    )
}

#[test]
fn lanes_match_the_pinned_table() {
    let mut mismatches = Vec::new();
    for pin in PINS {
        let mut config = SystemConfig::default();
        config.dram.bus_words = pin.lanes;
        let mut sys =
            SmacheSystem::new(plan(pin), Box::new(AverageKernel), config).expect("system");
        let report = sys.run(&input(pin), pin.instances).expect("run");
        let m = &report.metrics;
        let expected = exact_fields(
            pin.dram_reads,
            pin.dram_writes,
            pin.dram_bytes,
            pin.output_fp,
            pin.fmax_mhz,
            ResourceUsage {
                alms: pin.alms,
                registers: pin.registers,
                bram_bits: pin.bram_bits,
                dsps: pin.dsps,
            },
        );
        let got = exact_fields(
            m.dram.reads,
            m.dram.writes,
            m.dram.total_bytes(),
            &output_fp(&report.output),
            m.fmax_mhz,
            m.resources,
        );
        if got != expected {
            mismatches.push(format!(
                "{}\n  expected {expected}\n  got      {got}",
                name(pin)
            ));
        }
        let slack = BOUNDARY_SLACK * (pin.instances - 1);
        if m.cycles.abs_diff(pin.cycles) > slack {
            mismatches.push(format!(
                "{}: {} cycles, pinned {} (allowed difference {slack})",
                name(pin),
                m.cycles,
                pin.cycles
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Every pinned row's schedule replays fresh data — in memory, and
/// through an encoded and decoded store entry — exactly as the full
/// simulation runs it: output, cycles and every report field, byte for
/// byte, save the engine that produced it.
#[test]
fn replay_matches_every_pinned_row() {
    use smache::system::store::{decode_entry, encode_entry};
    for pin in PINS {
        let mut config = SystemConfig::default();
        config.dram.bus_words = pin.lanes;
        let engine = || SmacheSystem::new(plan(pin), Box::new(AverageKernel), config);
        let capture: Vec<Word> = (0..(pin.h * pin.w) as Word).collect();
        let (_, schedule) = engine()
            .and_then(|mut s| s.run_captured(&capture, pin.instances))
            .expect("capture");
        let mut full = engine()
            .and_then(|mut s| s.run(&input(pin), pin.instances))
            .expect("run");
        let (_, decoded) =
            decode_entry(&encode_entry(schedule.key(), &schedule)).expect("entry decodes");
        full.engine = RunEngine::Replay;
        let want = full.to_json().compact();
        for (from, s) in [("memory", &*schedule), ("store", &decoded)] {
            let got = s.replay(&AverageKernel, &input(pin)).expect("replays");
            assert_eq!(got.output, full.output, "{} ({from})", name(pin));
            assert_eq!(got.to_json().compact(), want, "{} ({from})", name(pin));
        }
    }
}
