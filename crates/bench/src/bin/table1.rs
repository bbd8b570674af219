//! Regenerates **Table I** of the paper: estimated vs actual on-chip
//! memory utilisation for {11×11, 1024×1024} grids × {Case-R, Case-H}
//! stream buffers.
//!
//! ```text
//! cargo run -p smache-bench --bin table1 --release
//! ```
//!
//! The four design points are planned independently, so `--jobs J` shards
//! them across worker threads; `--json [PATH]` additionally writes a
//! machine-readable summary (default `BENCH_table1.json`).

use smache::cost::{CostEstimate, MemoryBreakdown, SynthesisModel};
use smache::{HybridMode, SmacheBuilder};
use smache_bench::json::Json;
use smache_bench::report::Table;
use smache_stencil::GridSpec;

/// The paper's Table I values: (problem, Rsc, Bsc, Rsm, Bsm, Rtot, Btot)
/// per (estimate, actual) pair.
const PAPER: &[(&str, [u64; 6], [u64; 6])] = &[
    (
        "11x11r",
        [0, 1408, 800, 0, 800, 1408],
        [0, 1536, 928, 0, 998, 1536],
    ),
    (
        "11x11h",
        [0, 1408, 352, 448, 352, 1856],
        [0, 1536, 355, 512, 425, 2048],
    ),
    (
        "1024x1024r",
        [0, 131_072, 65_632, 0, 65_632, 131_072],
        [0, 131_200, 65_670, 0, 66_857, 131_200],
    ),
    (
        "1024x1024h",
        [0, 131_072, 352, 65_280, 352, 196_352],
        [0, 131_200, 362, 65_536, 1549, 196_736],
    ),
];

/// `--flag value` lookup over raw args.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The four Table I design points, planned and costed. Each point is
/// independent, so they shard across `jobs` worker threads.
fn design_points(jobs: usize) -> Vec<(&'static str, MemoryBreakdown, MemoryBreakdown)> {
    let points = vec![
        (11usize, HybridMode::CaseR, "11x11r"),
        (11, HybridMode::default(), "11x11h"),
        (1024, HybridMode::CaseR, "1024x1024r"),
        (1024, HybridMode::default(), "1024x1024h"),
    ];
    smache_sim::run_batch(points, jobs, |(dim, hybrid, label)| {
        let plan = SmacheBuilder::new(GridSpec::d2(dim, dim).expect("valid"))
            .hybrid(hybrid)
            .plan()
            .expect("paper plan");
        (
            label,
            CostEstimate.memory(&plan),
            SynthesisModel.memory(&plan),
        )
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs: usize = arg_value(&args, "--jobs")
        .map(|v| v.parse().expect("--jobs wants a number"))
        .unwrap_or(1);
    let json_path = args.iter().any(|a| a == "--json").then(|| {
        arg_value(&args, "--json")
            .filter(|v| !v.starts_with("--"))
            .unwrap_or_else(|| "BENCH_table1.json".into())
    });

    let points = design_points(jobs);

    let mut t = Table::new(vec![
        "Problem", "Rsc", "Bsc", "Rsm", "Bsm", "Rtotal", "Btotal",
    ]);
    let mut json_rows = Vec::new();

    for (label, est, act) in &points {
        let paper = PAPER
            .iter()
            .find(|(p, _, _)| p == label)
            .expect("known row");

        for (tag, m, reference) in [("Estimate", est, paper.1), ("Actual", act, paper.2)] {
            t.row(vec![
                format!("{label} {tag} (ours)"),
                m.r_static.to_string(),
                m.b_static.to_string(),
                m.r_stream.to_string(),
                m.b_stream.to_string(),
                m.r_total().to_string(),
                m.b_total().to_string(),
            ]);
            t.row(vec![
                format!("{label} {tag} (paper)"),
                reference[0].to_string(),
                reference[1].to_string(),
                reference[2].to_string(),
                reference[3].to_string(),
                reference[4].to_string(),
                reference[5].to_string(),
            ]);
            json_rows.push(Json::obj(vec![
                ("problem", Json::str(*label)),
                ("kind", Json::str(tag)),
                ("r_static", Json::Int(m.r_static as i64)),
                ("b_static", Json::Int(m.b_static as i64)),
                ("r_stream", Json::Int(m.r_stream as i64)),
                ("b_stream", Json::Int(m.b_stream as i64)),
                ("r_total", Json::Int(m.r_total() as i64)),
                ("b_total", Json::Int(m.b_total() as i64)),
                (
                    "paper",
                    Json::Arr(reference.iter().map(|&v| Json::Int(v as i64)).collect()),
                ),
            ]));
        }
    }

    println!("== Table I: estimated vs actual on-chip memory utilisation ==");
    println!("   (R = register bits, B = BRAM bits; sc = static buffers,");
    println!("    sm = streaming buffer; each 'ours' row is followed by the");
    println!("    paper's reported row)");
    println!();
    println!("{t}");

    // Tracking quality summary: the paper's claim is that the estimate
    // "very closely tracks the actual resource utilization".
    println!("== Estimate-vs-actual tracking (buffer columns, ours) ==");
    let mut q = Table::new(vec!["Problem", "worst column error"]);
    for (label, est, act) in &points {
        let err = [
            (est.r_static, act.r_static),
            (est.b_static, act.b_static),
            (est.r_stream, act.r_stream),
            (est.b_stream, act.b_stream),
        ]
        .into_iter()
        .map(|(e, a)| {
            if a == 0 {
                if e == 0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                (e as f64 - a as f64).abs() / a as f64
            }
        })
        .fold(0.0_f64, f64::max);
        q.row(vec![label.to_string(), format!("{:.1}%", err * 100.0)]);
    }
    println!("{q}");

    if let Some(path) = json_path {
        let doc = Json::obj(vec![
            ("artefact", Json::str("table1")),
            ("jobs", Json::Int(jobs as i64)),
            ("rows", Json::Arr(json_rows)),
        ]);
        std::fs::write(&path, doc.pretty()).expect("write table1 summary");
        println!("summary written to {path}");
    }
}
