//! Telemetry contract tests: exporter well-formedness, the golden VCD
//! artifact, residency accounting, and the zero-overhead (bit-identity)
//! guarantee.
//!
//! The probe registry samples in the commit phase, after every module's
//! state has settled. The golden file pins the exact artifact; regenerate
//! deliberately with `UPDATE_GOLDEN=1 cargo test --test telemetry_trace`.

use smache::system::axi::AxiSmache;
use smache::SmacheBuilder;
use smache_mem::{ChaosProfile, FaultPlan};
use smache_sim::telemetry::{chrome_self_check, vcd_self_check};
use smache_sim::{ProbeRegistry, Simulator, StreamLink, StreamSink, TelemetryConfig};
use smache_stencil::GridSpec;

const W: usize = 11;

/// Deterministic pseudo-random input grid.
fn grid_input(seed: u64) -> Vec<u64> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..(W * W))
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % (1 << 20)
        })
        .collect()
}

/// Runs the paper's 11×11 4-point workload through [`AxiSmache`] with a
/// simulator-attached probe registry; returns the registry after
/// completion.
fn run_traced(input: &[u64], instances: u64) -> ProbeRegistry {
    let mut sim = Simulator::new();
    let system = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .build()
        .expect("system");
    let link = StreamLink::new(sim.ctx(), "results");
    let axi = AxiSmache::new(system, link.clone(), input, instances).expect("arm");
    sim.add(Box::new(axi));
    let (sink, buf) = StreamSink::new("consumer", link);
    sim.add(Box::new(sink));
    sim.attach_telemetry(ProbeRegistry::new(TelemetryConfig::default()));

    let expect = (W * W) as u64 * instances;
    sim.run_until(100_000, "stream completion", |_| {
        buf.borrow().len() as u64 == expect
    })
    .expect("pipeline completes");
    sim.take_telemetry().expect("registry attached")
}

#[test]
fn vcd_is_well_formed_and_covers_the_design() {
    let input = grid_input(3);
    let reg = run_traced(&input, 1);
    vcd_self_check(&reg.export_vcd("smache")).expect("well-formed VCD");
    assert!(reg.probe_count() > 10, "full design is instrumented");
    assert_eq!(reg.dropped(), 0, "default capacity holds the short run");
}

#[test]
fn chrome_trace_is_well_formed() {
    let input = grid_input(17);
    let chrome = run_traced(&input, 1).export_chrome("smache");
    chrome_self_check(&chrome).expect("well-formed trace JSON");
    // FSM states appear as duration slices, stalls as async spans.
    assert!(chrome.contains("\"ph\":\"X\""), "state slices");
    assert!(chrome.contains("traceEvents"));
}

#[test]
fn golden_vcd_artifact_is_stable() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/telemetry_11x11.vcd"
    );
    // The canonical workload: ramp input, one instance, default system.
    let input: Vec<u64> = (0..(W * W) as u64).collect();
    let mut system = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .telemetry(TelemetryConfig::default())
        .build()
        .expect("system");
    system.run(&input, 1).expect("run");
    let vcd = system
        .export_trace("vcd", "smache")
        .expect("telemetry attached");
    vcd_self_check(&vcd).expect("well-formed VCD");

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path, &vcd).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        vcd, golden,
        "VCD artifact changed; regenerate deliberately with UPDATE_GOLDEN=1"
    );
}

#[test]
fn vcd_timestamps_are_strictly_monotonic() {
    let input = grid_input(9);
    let reg = run_traced(&input, 1);
    let vcd = reg.export_vcd("smache");
    let stamps: Vec<u64> = vcd
        .lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|t| t.parse().expect("numeric timestamp"))
        .collect();
    assert!(!stamps.is_empty());
    assert!(
        stamps.windows(2).all(|w| w[0] < w[1]),
        "timestamps strictly increase"
    );
}

#[test]
fn fsm_residency_sums_to_total_cycles() {
    let input = grid_input(5);
    let mut system = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .telemetry(TelemetryConfig::default())
        .build()
        .expect("system");
    let report = system.run(&input, 3).expect("run");
    let tel = report.telemetry.as_ref().expect("snapshot in report");
    let fsms = tel.fsms();
    assert_eq!(fsms, vec!["fsm1", "fsm2", "fsm3"]);
    for fsm in &fsms {
        let total: u64 = tel.residency(fsm).iter().map(|(_, v)| v).sum();
        assert_eq!(
            total, report.stats.cycles,
            "{fsm}: states must sum to total cycles"
        );
    }
    // The analysis renders without telemetry being re-attached.
    let analysis = report.render_analysis(5);
    assert!(analysis.contains("fsm2 state residency"), "{analysis}");
}

#[test]
fn telemetry_off_is_bit_identical_including_chaos() {
    let input = grid_input(11);
    let chaos = FaultPlan::new(0xFEED, ChaosProfile::heavy());

    let mut plain = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .fault_plan(chaos)
        .build()
        .expect("system");
    let plain_report = plain.run(&input, 2).expect("run");

    let mut traced = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .fault_plan(chaos)
        .telemetry(TelemetryConfig::default())
        .build()
        .expect("system");
    let traced_report = traced.run(&input, 2).expect("run");

    assert_eq!(plain_report.metrics.cycles, traced_report.metrics.cycles);
    assert_eq!(plain_report.output, traced_report.output);
    assert_eq!(plain_report.stats, traced_report.stats);
    assert_eq!(
        format!("{:?}", plain_report.metrics.faults),
        format!("{:?}", traced_report.metrics.faults),
        "chaos schedule must not be perturbed by telemetry"
    );
    assert_eq!(
        plain_report
            .fault_events
            .iter()
            .map(|e| (e.cycle, e.kind, e.detail))
            .collect::<Vec<_>>(),
        traced_report
            .fault_events
            .iter()
            .map(|e| (e.cycle, e.kind, e.detail))
            .collect::<Vec<_>>()
    );
    assert!(plain_report.telemetry.is_none());
    assert!(traced_report.telemetry.is_some());
}

#[test]
fn stall_attribution_counts_chaos_storms() {
    let input = grid_input(2);
    let chaos = FaultPlan::new(42, ChaosProfile::storms());
    let mut system = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .fault_plan(chaos)
        .telemetry(TelemetryConfig::default())
        .build()
        .expect("system");
    let report = system.run(&input, 2).expect("run");
    let tel = report.telemetry.as_ref().expect("snapshot");
    let storms = tel.counter("stall.chaos_storm").unwrap_or(0);
    assert_eq!(
        storms, report.metrics.faults.storm_cycles,
        "every storm cycle attributed to the chaos_storm cause"
    );
    assert!(storms > 0, "the storm profile actually fired");
}
