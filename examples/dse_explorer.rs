//! Design-space exploration with the cost model — what §III's
//! "Memory Utilization Cost Model for Design-Space Exploration" enables.
//!
//! Given an on-chip budget (registers and BRAM left over for Smache after
//! the kernel and shell take their share), the explorer sweeps hybrid
//! modes and static-buffer placements across problem sizes in parallel,
//! keeps the feasible points, and prints the Pareto frontier of
//! (registers, BRAM) per problem.
//!
//! ```text
//! cargo run --example dse_explorer --release
//! ```

use smache::cost::{FreqModel, SynthesisModel};
use smache::{HybridMode, SmacheBuilder};
use smache_bench::report::Table;
use smache_mem::MemKind;
use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

/// One candidate design point.
#[derive(Debug, Clone)]
struct Candidate {
    problem: (usize, usize),
    hybrid: HybridMode,
    static_kind: MemKind,
}

/// Evaluated candidate.
#[derive(Debug, Clone)]
struct Evaluated {
    candidate: Candidate,
    registers: u64,
    bram_bits: u64,
    fmax: f64,
}

fn label(c: &Candidate) -> String {
    format!(
        "{}x{} {} statics={}",
        c.problem.0,
        c.problem.1,
        match c.hybrid {
            HybridMode::CaseR => "case-R".to_string(),
            HybridMode::CaseH { min_bram_stretch } => format!("case-H(min={min_bram_stretch})"),
        },
        c.static_kind.label()
    )
}

fn main() {
    // Device budget left for the caching layer (a mid-size Stratix-V
    // fraction): 100K registers, 2 Mbit of BRAM.
    const REG_BUDGET: u64 = 100_000;
    const BRAM_BUDGET: u64 = 2 * 1024 * 1024;

    let mut candidates = Vec::new();
    for problem in [(64usize, 64usize), (256, 256), (1024, 1024)] {
        for hybrid in [
            HybridMode::CaseR,
            HybridMode::CaseH {
                min_bram_stretch: 3,
            },
            HybridMode::CaseH {
                min_bram_stretch: 16,
            },
        ] {
            for static_kind in [MemKind::Bram, MemKind::Reg] {
                candidates.push(Candidate {
                    problem,
                    hybrid,
                    static_kind,
                });
            }
        }
    }

    let evaluated: Vec<Option<Evaluated>> = smache_sim::run_batch(candidates, 8, |c| {
        let plan = SmacheBuilder::new(GridSpec::d2(c.problem.0, c.problem.1).expect("valid grid"))
            .shape(StencilShape::four_point_2d())
            .boundaries(BoundarySpec::paper_case())
            .hybrid(c.hybrid)
            .static_kind(c.static_kind)
            .plan()
            .ok()?;
        let m = SynthesisModel.memory(&plan);
        Some(Evaluated {
            candidate: c,
            registers: m.r_total(),
            bram_bits: m.b_total(),
            fmax: FreqModel.smache_fmax(&plan, 1),
        })
    });

    println!(
        "== DSE: feasible design points under {REG_BUDGET} regs / {BRAM_BUDGET} BRAM bits ==\n"
    );
    let mut t = Table::new(vec![
        "design point",
        "registers",
        "BRAM bits",
        "Fmax(MHz)",
        "fits?",
    ]);
    let mut feasible: Vec<Evaluated> = Vec::new();
    for e in evaluated.into_iter().flatten() {
        let fits = e.registers <= REG_BUDGET && e.bram_bits <= BRAM_BUDGET;
        t.row(vec![
            label(&e.candidate),
            e.registers.to_string(),
            e.bram_bits.to_string(),
            format!("{:.1}", e.fmax),
            if fits { "yes".into() } else { "NO".to_string() },
        ]);
        if fits {
            feasible.push(e);
        }
    }
    println!("{t}");

    // Pareto frontier per problem: no other feasible point dominates in
    // both registers and BRAM.
    println!("== Pareto-optimal points (registers vs BRAM) ==\n");
    let mut p = Table::new(vec!["design point", "registers", "BRAM bits"]);
    for problem in [(64usize, 64usize), (256, 256), (1024, 1024)] {
        let points: Vec<&Evaluated> = feasible
            .iter()
            .filter(|e| e.candidate.problem == problem)
            .collect();
        for e in &points {
            let dominated = points.iter().any(|o| {
                (o.registers < e.registers && o.bram_bits <= e.bram_bits)
                    || (o.registers <= e.registers && o.bram_bits < e.bram_bits)
            });
            if !dominated {
                p.row(vec![
                    label(&e.candidate),
                    e.registers.to_string(),
                    e.bram_bits.to_string(),
                ]);
            }
        }
    }
    println!("{p}");
    println!("the register<->BRAM trade (\"exploited to meet design constraints\", §IV)");
    println!("is exactly the Case-R / Case-H / static-placement choice above.");
}
