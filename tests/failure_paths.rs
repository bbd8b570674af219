//! Failure injection: the error paths users will actually hit must be
//! loud, typed, and descriptive.

use smache::arch::kernel::AverageKernel;
use smache::system::multilane::MultilaneSystem;
use smache::system::smache_system::SystemConfig;
use smache::{CoreError, SmacheBuilder};
use smache_sim::SimError;
use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

#[test]
fn permanent_stall_trips_the_watchdog() {
    let mut sys = SmacheBuilder::new(GridSpec::d2(8, 8).expect("grid"))
        .build()
        .expect("build");
    // A consumer that never unstalls: the run must abort with a watchdog
    // error rather than spin forever.
    sys.set_stall_schedule(Box::new(|_| true));
    let input: Vec<u64> = (0..64).collect();
    let err = sys.run(&input, 1).expect_err("deadlock must be detected");
    match err {
        CoreError::Sim(SimError::Watchdog { waiting_for, .. }) => {
            assert!(waiting_for.contains("smache"), "{waiting_for}");
        }
        other => panic!("expected watchdog, got {other}"),
    }
}

#[test]
fn stall_released_before_budget_recovers() {
    // A long-but-finite stall burst must not trip the watchdog.
    let mut sys = SmacheBuilder::new(GridSpec::d2(8, 8).expect("grid"))
        .build()
        .expect("build");
    sys.set_stall_schedule(Box::new(|c| c < 500));
    let input: Vec<u64> = (0..64).collect();
    let report = sys.run(&input, 1).expect("recovers after the burst");
    assert!(report.metrics.cycles > 500);
}

#[test]
fn config_errors_are_descriptive() {
    // Multilane refuses too many lanes against dual-port banks.
    let plan = SmacheBuilder::new(GridSpec::d2(8, 8).expect("grid"))
        .boundaries(BoundarySpec::paper_case())
        .plan()
        .expect("plan");
    let err = MultilaneSystem::new(plan, Box::new(AverageKernel), 3, SystemConfig::default())
        .map(|_| ())
        .expect_err("lanes capped");
    assert!(err.to_string().contains("ports"), "{err}");

    // Budget violations carry both numbers.
    let err = SmacheBuilder::new(GridSpec::d2(64, 64).expect("grid"))
        .on_chip_budget_bits(64)
        .plan()
        .expect_err("budget");
    match err {
        CoreError::BudgetExceeded {
            required_bits,
            budget_bits,
        } => {
            assert!(required_bits > budget_bits);
            assert_eq!(budget_bits, 64);
        }
        other => panic!("expected budget error, got {other}"),
    }
}

#[test]
fn dimension_mismatches_reported_at_plan_time() {
    let err = SmacheBuilder::new(GridSpec::d3(4, 4, 4).expect("grid"))
        .shape(StencilShape::four_point_2d())
        .boundaries(BoundarySpec::all_open(3).expect("bounds"))
        .plan()
        .expect_err("2D shape on a 3D grid");
    assert!(
        err.to_string().contains("2D") || err.to_string().contains("dims"),
        "{err}"
    );
}

#[test]
fn input_length_errors_name_both_sizes() {
    let mut sys = SmacheBuilder::new(GridSpec::d2(5, 5).expect("grid"))
        .build()
        .expect("build");
    let err = sys.run(&[1, 2, 3], 1).expect_err("length check");
    let msg = err.to_string();
    assert!(msg.contains('3') && msg.contains("25"), "{msg}");
}
