//! The problems each workload runs, drawn from the workload seed.
//!
//! A [`Problem`] is a [`ProblemSpec`] plus what a run of it needs: the
//! grid updates to perform and an optional latency-only chaos plan. Specs
//! are written in the vocabulary `smache serve` accepts, so the same
//! problem can be run through a batch or sent as a request line; only
//! shapes the protocol cannot name (`cross_2d(k)`) have no request line.

use std::collections::BTreeMap;

use smache::arch::kernel::{AverageKernel, Kernel};
use smache::system::SystemConfig;
use smache::{PipelineConfig, ProblemSpec};
use smache_mem::{ChaosProfile, FaultPlan};
use smache_sim::Json;
use smache_stencil::StencilShape;

use crate::gen::Rng;

/// Seed of the design space. The problem sets are fixed so that runs
/// with different workload seeds measure the same problems; the workload
/// seed drives their data, the arrival schedule and the request mix.
pub const DESIGN_SEED: u64 = 2019;

/// The kernel every workload runs (the one `smache serve` runs).
pub fn kernel() -> Box<dyn Kernel> {
    Box::new(AverageKernel)
}

/// One problem of a workload.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Short label for tables and traces.
    pub label: String,
    /// Spec keys in the serve protocol's vocabulary.
    pub words: BTreeMap<String, String>,
    /// The parsed spec.
    pub spec: ProblemSpec,
    /// Grid updates per run. Pipelined specs advance `timesteps` updates
    /// per DRAM pass, so this is `timesteps × passes` for them.
    pub instances: u64,
    /// Latency-only chaos: (chaos seed, profile name).
    pub chaos: Option<(u64, &'static str)>,
    /// `cross_2d` reach, when the shape is one the protocol cannot name.
    pub cross: Option<usize>,
}

impl Problem {
    /// A problem from protocol spec words.
    pub fn new(label: &str, words: &[(&str, &str)], instances: u64) -> Problem {
        let words: BTreeMap<String, String> = words
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let spec = ProblemSpec::from_source(&words).expect("benchmark specs are valid");
        Problem {
            label: label.to_string(),
            words,
            spec,
            instances,
            chaos: None,
            cross: None,
        }
    }

    /// Adds a latency-only chaos plan.
    pub fn with_chaos(mut self, seed: u64, profile: &'static str) -> Problem {
        let p = ChaosProfile::from_name(profile).expect("known chaos profile");
        assert!(p.is_latency_only(), "benchmark chaos stays replayable");
        self.chaos = Some((seed, profile));
        self
    }

    /// Replaces the shape with `cross_2d(k)`.
    pub fn with_cross(mut self, k: usize) -> Problem {
        self.spec.shape = StencilShape::cross_2d(k).expect("k >= 1");
        self.cross = Some(k);
        self
    }

    /// Grid cells.
    pub fn cells(&self) -> usize {
        self.spec.grid.len()
    }

    /// Cell updates of one run: cells × grid updates.
    pub fn cell_updates(&self) -> u64 {
        self.cells() as u64 * self.instances
    }

    /// Whether the spec runs on the temporal pipeline.
    pub fn pipelined(&self) -> bool {
        self.spec.pipelined()
    }

    /// DRAM passes of a pipelined run.
    pub fn passes(&self) -> u64 {
        self.instances / self.spec.timesteps
    }

    /// The fault plan (inactive without chaos).
    pub fn fault_plan(&self) -> FaultPlan {
        match self.chaos {
            Some((seed, name)) => {
                FaultPlan::new(seed, ChaosProfile::from_name(name).expect("known profile"))
            }
            None => FaultPlan::default(),
        }
    }

    /// Single-step system configuration.
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            fault_plan: self.fault_plan(),
            ..SystemConfig::default()
        }
    }

    /// Temporal-pipeline configuration, as `smache serve` builds it.
    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            depth: self.spec.timesteps as usize,
            channels: self.spec.channels,
            system: self.system_config(),
            ..PipelineConfig::default()
        }
    }

    /// The serve request line for `seed`, or `None` when the protocol
    /// cannot express the shape.
    pub fn request_line(&self, id: &str, seed: u64) -> Option<String> {
        if self.cross.is_some() {
            return None;
        }
        let spec = Json::Obj(
            self.words
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
                .collect(),
        );
        let mut fields = vec![
            ("id", Json::str(id)),
            (
                "cmd",
                Json::str(if self.chaos.is_some() {
                    "chaos"
                } else {
                    "simulate"
                }),
            ),
            ("spec", spec),
            ("seed", Json::Int(seed as i64)),
            ("instances", Json::Int(self.instances as i64)),
        ];
        if let Some((chaos_seed, profile)) = self.chaos {
            fields.push(("profile", Json::str(profile)));
            fields.push(("chaos-seed", Json::Int(chaos_seed as i64)));
        }
        Some(Json::obj(fields).compact())
    }
}

/// The seed sweep's problems: the paper's 11×11 four-point grid
/// (circular rows, open columns), a larger nine-point grid, a pipelined
/// spec over two channels, and a latency-only chaos spec. The pipelined
/// spec is small (about a tenth of a seed's cell updates) because it does
/// not go through `run_batch`.
pub fn sweep_problems() -> Vec<Problem> {
    vec![
        Problem::new("paper-11x11", &[("grid", "11x11")], 4),
        Problem::new(
            "nine-40x40",
            &[("grid", "40x40"), ("shape", "nine"), ("rows", "mirror")],
            2,
        ),
        Problem::new(
            "pipe-16x16-t2c2",
            &[
                ("grid", "16x16"),
                ("shape", "five"),
                ("timesteps", "2"),
                ("channels", "2"),
            ],
            2,
        ),
        Problem::new("chaos-16x16", &[("grid", "16x16")], 4).with_chaos(7, "jitter"),
    ]
}

const BOUNDS: &[&str] = &["open", "circular", "mirror", "const:7"];

/// `count` distinct design points drawn from `seed`: grid size and
/// aspect, shape (4/5/9-point, `cross_2d(k)`, 3D seven-point),
/// boundaries, and pipeline depth and channels.
pub fn explore_problems(seed: u64, count: usize) -> Vec<Problem> {
    let mut rng = Rng::new(seed, "explore");
    let mut out: Vec<Problem> = Vec::with_capacity(count);
    while out.len() < count {
        let i = out.len();
        let kind = rng.range(0, 8);
        let p = if kind == 0 {
            let dims: Vec<String> = (0..3).map(|_| rng.range(5, 10).to_string()).collect();
            let grid = dims.join("x");
            let bounds = *rng.pick(BOUNDS);
            Problem::new(
                &format!("x{i}-7pt-{grid}"),
                &[("grid", &grid), ("bounds", bounds)],
                rng.range(1, 3),
            )
        } else {
            let grid = format!("{}x{}", rng.range(12, 33), rng.range(12, 33));
            let rows = *rng.pick(BOUNDS);
            let cols = *rng.pick(BOUNDS);
            let shape = *rng.pick(&["four", "five", "nine", "cross2", "cross3"]);
            let mut words = vec![("grid", grid.as_str()), ("rows", rows), ("cols", cols)];
            if !shape.starts_with("cross") {
                words.push(("shape", shape));
            }
            let (t, c) = if kind <= 2 {
                (rng.range(2, 5), rng.range(1, 5))
            } else {
                (1, 1)
            };
            let (ts, cs) = (t.to_string(), c.to_string());
            if t > 1 {
                words.push(("timesteps", &ts));
                words.push(("channels", &cs));
            }
            let instances = t * rng.range(1, 3);
            let label = format!("x{i}-{shape}-{grid}-{rows}-{cols}-t{t}c{c}");
            let p = Problem::new(&label, &words, instances);
            match shape {
                "cross2" => p.with_cross(2),
                "cross3" => p.with_cross(3),
                _ => p,
            }
        };
        let fresh = out
            .iter()
            .all(|q| q.spec != p.spec || q.instances != p.instances);
        if fresh && p.spec.builder().plan().is_ok() {
            out.push(p);
        }
    }
    out
}

/// The serve workload's known specs: 2D grids from 8×8 to 20×20 in every
/// shape and boundary mix, some pipelined and some under latency-only
/// chaos. Index order is popularity order for the Zipf draw.
pub fn serve_problems(seed: u64, count: usize, salt: &str) -> Vec<Problem> {
    let mut rng = Rng::new(seed, salt);
    let mut out: Vec<Problem> = Vec::with_capacity(count);
    while out.len() < count {
        let i = out.len();
        let grid = format!("{}x{}", rng.range(16, 41), rng.range(16, 41));
        let rows = *rng.pick(BOUNDS);
        let cols = *rng.pick(BOUNDS);
        let shape = *rng.pick(&["four", "five", "nine"]);
        let mut words = vec![
            ("grid", grid.as_str()),
            ("shape", shape),
            ("rows", rows),
            ("cols", cols),
        ];
        let kind = rng.range(0, 6);
        if kind == 0 {
            words.push(("timesteps", "2"));
            words.push(("channels", "2"));
        }
        let instances = if kind == 0 { 2 } else { rng.range(1, 3) };
        let p = Problem::new(&format!("{salt}{i}-{shape}-{grid}"), &words, instances);
        let p = if kind == 1 {
            p.with_chaos(rng.range(1, 1 << 20), "jitter")
        } else {
            p
        };
        let fresh = out
            .iter()
            .all(|q| q.spec != p.spec || q.instances != p.instances || q.chaos != p.chaos);
        if fresh && p.spec.builder().plan().is_ok() {
            out.push(p);
        }
    }
    out
}

/// Never-seen specs [`fresh_problem`] can name.
const FRESH_SPECS: usize = 16 * 25 * 3 * 4 * 4 * 2;

/// The `i`-th never-seen spec of the `serve` workload, or `None` when it
/// does not plan. Its grid has 41–56 columns, wider than any known spec,
/// so it never names a known spec; distinct `i` below 19 200 name distinct
/// specs. Consecutive `i` are scattered over the whole space (a stride
/// coprime to its size), so the cost of the never-seen specs does not
/// drift over a run.
pub fn fresh_problem(i: usize) -> Option<Problem> {
    let mut rest = (i * 7919) % FRESH_SPECS;
    let mut digit = |n: usize| {
        let d = rest % n;
        rest /= n;
        d
    };
    let grid = format!("{}x{}", 41 + digit(16), 16 + digit(25));
    let shape = ["four", "five", "nine"][digit(3)];
    let (rows, cols) = (BOUNDS[digit(4)], BOUNDS[digit(4)]);
    let instances = 1 + digit(2) as u64;
    let words = [
        ("grid", grid.as_str()),
        ("shape", shape),
        ("rows", rows),
        ("cols", cols),
    ];
    let source: BTreeMap<String, String> = words
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let plans = ProblemSpec::from_source(&source).is_ok_and(|spec| spec.builder().plan().is_ok());
    plans.then(|| Problem::new(&format!("n{i}-{shape}-{grid}"), &words, instances))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_cell_updates_count_grid_updates() {
        let p = Problem::new(
            "p",
            &[("grid", "24x24"), ("timesteps", "4"), ("channels", "2")],
            8,
        );
        assert!(p.pipelined());
        assert_eq!(p.passes(), 2, "two DRAM passes of four stages");
        assert_eq!(p.cell_updates(), 576 * 8, "instances count grid updates");
        let flat = Problem::new("f", &[("grid", "24x24")], 8);
        assert_eq!(flat.cell_updates(), p.cell_updates());
    }

    #[test]
    fn problem_sets_are_deterministic_per_seed() {
        let a: Vec<String> = explore_problems(3, 24)
            .iter()
            .map(|p| p.label.clone())
            .collect();
        let b: Vec<String> = explore_problems(3, 24)
            .iter()
            .map(|p| p.label.clone())
            .collect();
        let c: Vec<String> = explore_problems(4, 24)
            .iter()
            .map(|p| p.label.clone())
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let s = serve_problems(3, 16, "k");
        assert_eq!(s.len(), 16);
        assert!(s.iter().all(|p| p.request_line("1", 5).is_some()));
    }

    #[test]
    fn fresh_specs_are_distinct_and_never_known() {
        let known = serve_problems(DESIGN_SEED, 48, "k");
        let fresh: Vec<Problem> = (0..400).filter_map(fresh_problem).collect();
        assert!(fresh.len() > 300, "most fresh specs plan: {}", fresh.len());
        for (i, f) in fresh.iter().enumerate() {
            assert!(known.iter().all(|k| k.spec != f.spec), "{}", f.label);
            assert!(fresh[..i]
                .iter()
                .all(|g| g.spec != f.spec || g.instances != f.instances));
            assert!(f.request_line("1", 5).is_some());
        }
    }

    #[test]
    fn request_lines_parse_back_to_the_same_spec() {
        for p in sweep_problems() {
            let line = p
                .request_line("7", 42)
                .expect("sweep specs are expressible");
            let req = smache_serve::Request::parse_line(&line).expect("line parses");
            let smache_serve::RequestBody::Run(run) = req.body else {
                panic!("a run request")
            };
            assert_eq!(run.spec, p.spec);
            assert_eq!((run.seed, run.instances), (42, p.instances));
        }
    }
}
