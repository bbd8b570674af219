//! Textual problem specification — one schema shared by every front end.
//!
//! The CLI (`smache plan --grid 11x11 --rows circular ...`) and the job
//! server (`{"cmd":"simulate","spec":{"grid":"11x11","rows":"circular"}}`)
//! accept the *same* problem vocabulary. This module is the single parser
//! behind both, so the two surfaces cannot drift: a front end only has to
//! expose its key/value pairs through [`SpecSource`] and call
//! [`ProblemSpec::from_source`].
//!
//! A parsed [`ProblemSpec`] also has a [canonical form](ProblemSpec::canonical)
//! — a deterministic, normalised string rendering. Equivalent spellings
//! (`--grid 11x11` vs `--grid=11X11`, `--hybrid h` vs `--hybrid h:3`)
//! canonicalise identically, which is what lets the serve-layer result
//! cache content-address runs by specification rather than by request
//! text.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smache_mem::MemKind;
use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};

use crate::config::{Algorithm1, HybridMode, PlanStrategy};

/// A rejected specification value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The key whose value was rejected.
    pub key: String,
    /// The offending value.
    pub value: String,
    /// What was expected instead.
    pub expected: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} `{}`: expected {}",
            self.key, self.value, self.expected
        )
    }
}

impl std::error::Error for SpecError {}

fn bad(key: &str, value: &str, expected: &str) -> SpecError {
    SpecError {
        key: key.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    }
}

/// Anything that can answer "what was given for key `k`?".
///
/// The CLI's argument map and the server's JSON `spec` object both
/// implement this, which is what keeps the two front ends on one schema.
pub trait SpecSource {
    /// The raw textual value supplied for `key`, if any.
    fn get_value(&self, key: &str) -> Option<&str>;
}

impl SpecSource for std::collections::BTreeMap<String, String> {
    fn get_value(&self, key: &str) -> Option<&str> {
        self.get(key).map(String::as_str)
    }
}

/// The specification keys [`ProblemSpec::from_source`] understands.
///
/// Front ends use this to validate inputs eagerly (the CLI rejects
/// unknown `--options`; the server rejects unknown `spec` fields).
pub const SPEC_KEYS: &[&str] = &[
    "grid",
    "shape",
    "rows",
    "cols",
    "bounds",
    "hybrid",
    "strategy",
    "statics",
    "word-bits",
    "timesteps",
    "channels",
];

/// A fully parsed problem specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemSpec {
    /// The grid.
    pub grid: GridSpec,
    /// The stencil shape.
    pub shape: StencilShape,
    /// Boundary conditions.
    pub bounds: BoundarySpec,
    /// Stream-buffer style.
    pub hybrid: HybridMode,
    /// Split strategy.
    pub strategy: PlanStrategy,
    /// Static-buffer placement.
    pub static_kind: MemKind,
    /// Word width in bits.
    pub word_bits: u32,
    /// Temporal-pipeline depth: chained Smache stages, i.e. timesteps
    /// advanced per DRAM pass (1 = the single-step system).
    pub timesteps: u64,
    /// Independent DRAM channels feeding the design (1 = single-channel).
    pub channels: usize,
}

/// Parses `HxW` (e.g. `11x11`) or a single `N` for 1D grids.
pub fn parse_grid(s: &str) -> Result<GridSpec, SpecError> {
    let mk = |g: Result<GridSpec, _>| g.map_err(|_| bad("grid", s, "positive dimensions"));
    if let Some((h, w)) = s.split_once(['x', 'X']) {
        if let Some((hh, rest)) = w.split_once(['x', 'X']) {
            // 3D: HxWxD style (h=first).
            let a: usize = h.parse().map_err(|_| bad("grid", s, "DxHxW"))?;
            let b: usize = hh.parse().map_err(|_| bad("grid", s, "DxHxW"))?;
            let c: usize = rest.parse().map_err(|_| bad("grid", s, "DxHxW"))?;
            return mk(GridSpec::d3(a, b, c));
        }
        let h: usize = h.parse().map_err(|_| bad("grid", s, "HxW"))?;
        let w: usize = w.parse().map_err(|_| bad("grid", s, "HxW"))?;
        return mk(GridSpec::d2(h, w));
    }
    let n: usize = s.parse().map_err(|_| bad("grid", s, "HxW or N"))?;
    mk(GridSpec::d1(n))
}

/// Parses a boundary word: `open`, `circular`, `mirror`, `const:<v>`.
pub fn parse_boundary(key: &str, s: &str) -> Result<Boundary, SpecError> {
    match s {
        "open" => Ok(Boundary::Open),
        "circular" | "wrap" | "periodic" => Ok(Boundary::Circular),
        "mirror" | "reflect" => Ok(Boundary::Mirror),
        _ => {
            if let Some(v) = s.strip_prefix("const:") {
                let v: u64 = v
                    .parse()
                    .map_err(|_| bad(key, s, "const:<unsigned value>"))?;
                Ok(Boundary::Constant(v))
            } else {
                Err(bad(key, s, "open|circular|mirror|const:<v>"))
            }
        }
    }
}

/// Parses a shape word for the grid's dimensionality.
pub fn parse_shape(s: &str, ndim: usize) -> Result<StencilShape, SpecError> {
    match (s, ndim) {
        ("four" | "4pt", 2) => Ok(StencilShape::four_point_2d()),
        ("five" | "5pt", 2) => Ok(StencilShape::five_point_2d()),
        ("nine" | "9pt", 2) => Ok(StencilShape::nine_point_2d()),
        ("seven" | "7pt", 3) => Ok(StencilShape::seven_point_3d()),
        (_, 1) => {
            let k: usize = s.parse().map_err(|_| bad("shape", s, "reach k for 1D"))?;
            StencilShape::symmetric_1d(k).map_err(|_| bad("shape", s, "k >= 1"))
        }
        _ => Err(bad("shape", s, "four|five|nine (2D), seven (3D), k (1D)")),
    }
}

/// Parses a hybrid word: `r`, `h`, or `h:<threshold>`.
pub fn parse_hybrid(s: &str) -> Result<HybridMode, SpecError> {
    match s {
        "r" | "caser" | "case-r" => Ok(HybridMode::CaseR),
        "h" | "caseh" | "case-h" => Ok(HybridMode::default()),
        _ => {
            if let Some(thr) = s.strip_prefix("h:") {
                let t: usize = thr
                    .parse()
                    .map_err(|_| bad("hybrid", s, "h:<stretch>=3>"))?;
                if t < 3 {
                    return Err(bad("hybrid", s, "threshold >= 3"));
                }
                Ok(HybridMode::CaseH {
                    min_bram_stretch: t,
                })
            } else {
                Err(bad("hybrid", s, "r|h|h:<threshold>"))
            }
        }
    }
}

/// Parses a strategy word.
pub fn parse_strategy(s: &str) -> Result<PlanStrategy, SpecError> {
    match s {
        "global" => Ok(PlanStrategy::GlobalWindow),
        "greedy" => Ok(PlanStrategy::PerRange(Algorithm1::Greedy)),
        "exact" => Ok(PlanStrategy::PerRange(Algorithm1::Exact)),
        "allstream" | "naive" => Ok(PlanStrategy::AllStream),
        _ => Err(bad("strategy", s, "global|greedy|exact|allstream")),
    }
}

fn boundary_word(b: Boundary) -> String {
    match b {
        Boundary::Open => "open".to_string(),
        Boundary::Circular => "circular".to_string(),
        Boundary::Mirror => "mirror".to_string(),
        Boundary::Constant(v) => format!("const:{v}"),
    }
}

impl ProblemSpec {
    /// Builds a spec from any key/value source; every part has the paper's
    /// default.
    pub fn from_source(src: &dyn SpecSource) -> Result<ProblemSpec, SpecError> {
        let get_or = |key: &str, default: &'static str| src.get_value(key).unwrap_or(default);

        let grid = parse_grid(get_or("grid", "11x11"))?;
        let ndim = grid.ndim();

        let default_shape = match ndim {
            1 => "1",
            3 => "seven",
            _ => "four",
        };
        let shape = parse_shape(get_or("shape", default_shape), ndim)?;

        // Boundary defaults: the paper case for 2D, open otherwise.
        let bounds = if ndim == 2 {
            let rows = get_or("rows", "circular");
            let cols = get_or("cols", "open");
            BoundarySpec::new(&[
                AxisBoundaries::both(parse_boundary("rows", rows)?),
                AxisBoundaries::both(parse_boundary("cols", cols)?),
            ])
            .map_err(|_| bad("rows", rows, "valid boundary"))?
        } else {
            let word = get_or("bounds", "open");
            let b = parse_boundary("bounds", word)?;
            BoundarySpec::new(&vec![AxisBoundaries::both(b); ndim])
                .map_err(|_| bad("bounds", word, "valid boundary"))?
        };

        let hybrid = parse_hybrid(get_or("hybrid", "h"))?;
        let strategy = parse_strategy(get_or("strategy", "global"))?;
        let static_kind = match get_or("statics", "bram") {
            "bram" => MemKind::Bram,
            "reg" | "regs" => MemKind::Reg,
            other => return Err(bad("statics", other, "bram|reg")),
        };
        let word_bits: u32 = match src.get_value("word-bits") {
            None => 32,
            Some(v) => v.parse().map_err(|_| bad("word-bits", v, "a number"))?,
        };
        if word_bits == 0 || word_bits > 64 {
            return Err(bad("word-bits", &word_bits.to_string(), "1..=64"));
        }
        let timesteps: u64 = match src.get_value("timesteps") {
            None => 1,
            Some(v) => v.parse().map_err(|_| bad("timesteps", v, "a number"))?,
        };
        if timesteps == 0 || timesteps > 64 {
            return Err(bad("timesteps", &timesteps.to_string(), "1..=64"));
        }
        let channels: usize = match src.get_value("channels") {
            None => 1,
            Some(v) => v.parse().map_err(|_| bad("channels", v, "a number"))?,
        };
        if channels == 0 || channels > 64 {
            return Err(bad("channels", &channels.to_string(), "1..=64"));
        }

        Ok(ProblemSpec {
            grid,
            shape,
            bounds,
            hybrid,
            strategy,
            static_kind,
            word_bits,
            timesteps,
            channels,
        })
    }

    /// Applies the spec to a builder, pipeline geometry included: a
    /// [`pipelined`](Self::pipelined) spec builds a `timesteps`-stage
    /// pipeline over `channels` DRAM channels, whose `run` counts passes
    /// of `timesteps` updates each.
    pub fn builder(&self) -> crate::SmacheBuilder {
        crate::SmacheBuilder::new(self.grid.clone())
            .shape(self.shape.clone())
            .boundaries(self.bounds.clone())
            .hybrid(self.hybrid)
            .strategy(self.strategy)
            .static_kind(self.static_kind)
            .word_bits(self.word_bits)
            .pipeline(self.timesteps as usize, self.channels)
    }

    /// The canonical, normalised rendering of this specification.
    ///
    /// Two requests that parse to the same problem produce byte-identical
    /// canonical strings regardless of how they were spelled, so this is
    /// the spec component of a content-addressed cache key. The format is
    /// also re-parseable: every value is in the vocabulary
    /// [`from_source`](Self::from_source) accepts.
    pub fn canonical(&self) -> String {
        let grid = self
            .grid
            .dims()
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x");
        let shape = self
            .shape
            .offsets()
            .iter()
            .map(|o| {
                let parts: Vec<String> = o.iter().map(|c| c.to_string()).collect();
                format!("({})", parts.join(","))
            })
            .collect::<String>();
        let bounds = self
            .bounds
            .axes()
            .iter()
            .map(|a| format!("{}/{}", boundary_word(a.low), boundary_word(a.high)))
            .collect::<Vec<_>>()
            .join(",");
        let hybrid = match self.hybrid {
            HybridMode::CaseR => "r".to_string(),
            HybridMode::CaseH { min_bram_stretch } => format!("h:{min_bram_stretch}"),
        };
        let strategy = match self.strategy {
            PlanStrategy::GlobalWindow => "global",
            PlanStrategy::PerRange(Algorithm1::Greedy) => "greedy",
            PlanStrategy::PerRange(Algorithm1::Exact) => "exact",
            PlanStrategy::AllStream => "allstream",
        };
        let statics = match self.static_kind {
            MemKind::Bram => "bram",
            MemKind::Reg => "reg",
        };
        let mut text = format!(
            "grid={grid};shape={shape};bounds={bounds};hybrid={hybrid};strategy={strategy};statics={statics};word-bits={}",
            self.word_bits
        );
        // The pipeline knobs appear only when non-default, so every
        // canonical string (and therefore every content-addressed cache
        // key) minted before they existed stays byte-identical — the same
        // treatment the schedule key gives an inactive chaos plan.
        if self.pipelined() {
            text.push_str(&format!(
                ";timesteps={};channels={}",
                self.timesteps, self.channels
            ));
        }
        text
    }

    /// True when the spec asks for the temporal pipeline — more than one
    /// timestep per pass and/or more than one DRAM channel.
    pub fn pipelined(&self) -> bool {
        self.timesteps > 1 || self.channels > 1
    }

    /// The engine passes that advance the grid `instances` updates: each
    /// pass of the [`builder`](Self::builder)'s engine advances it
    /// `timesteps` updates, so `instances` must be a multiple of
    /// `timesteps`.
    pub fn passes(&self, instances: u64) -> Result<u64, SpecError> {
        if !instances.is_multiple_of(self.timesteps) {
            return Err(bad(
                "instances",
                &instances.to_string(),
                &format!(
                    "a multiple of `timesteps` ({}): each DRAM pass of the pipeline \
                     advances the grid that many updates",
                    self.timesteps
                ),
            ));
        }
        Ok(instances / self.timesteps)
    }
}

/// The workspace's standard seeded input: `n` words uniform in
/// `0..2^20`, drawn from `SmallRng::seed_from_u64(seed)`.
///
/// Every front end that materialises an input grid from a seed (the CLI's
/// `--seed`, batch lanes, the job server) uses this one function, so a
/// `(spec, seed)` pair names exactly one input everywhere — the invariant
/// the content-addressed result cache depends on.
pub fn seeded_input(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..1u64 << 20)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn src(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn defaults_reproduce_paper_case() {
        let spec = ProblemSpec::from_source(&src(&[])).unwrap();
        assert_eq!(spec.grid.dims(), &[11, 11]);
        assert_eq!(spec.shape.len(), 4);
        assert!(spec.bounds.has_circular());
        assert_eq!(spec.word_bits, 32);
        let plan = spec.builder().plan().unwrap();
        assert_eq!(plan.capacity, 25);
    }

    #[test]
    fn grid_forms() {
        assert_eq!(parse_grid("11x11").unwrap().dims(), &[11, 11]);
        assert_eq!(parse_grid("3x4x5").unwrap().dims(), &[3, 4, 5]);
        assert_eq!(parse_grid("64").unwrap().dims(), &[64]);
        assert!(parse_grid("0x4").is_err());
        assert!(parse_grid("abc").is_err());
    }

    #[test]
    fn boundary_words() {
        assert_eq!(parse_boundary("rows", "open").unwrap(), Boundary::Open);
        assert_eq!(parse_boundary("rows", "wrap").unwrap(), Boundary::Circular);
        assert_eq!(parse_boundary("rows", "mirror").unwrap(), Boundary::Mirror);
        assert_eq!(
            parse_boundary("rows", "const:9").unwrap(),
            Boundary::Constant(9)
        );
        assert!(parse_boundary("rows", "const:x").is_err());
        assert!(parse_boundary("rows", "weird").is_err());
    }

    #[test]
    fn shapes_match_dimensionality() {
        assert!(parse_shape("four", 2).is_ok());
        assert!(parse_shape("seven", 3).is_ok());
        assert!(parse_shape("2", 1).is_ok());
        assert!(parse_shape("four", 3).is_err());
        assert!(parse_shape("seven", 2).is_err());
    }

    #[test]
    fn hybrid_forms() {
        assert_eq!(parse_hybrid("r").unwrap(), HybridMode::CaseR);
        assert_eq!(parse_hybrid("h").unwrap(), HybridMode::default());
        assert_eq!(
            parse_hybrid("h:8").unwrap(),
            HybridMode::CaseH {
                min_bram_stretch: 8
            }
        );
        assert!(parse_hybrid("h:2").is_err());
        assert!(parse_hybrid("q").is_err());
    }

    #[test]
    fn full_custom_spec() {
        let spec = ProblemSpec::from_source(&src(&[
            ("grid", "8x16"),
            ("shape", "nine"),
            ("rows", "mirror"),
            ("cols", "const:5"),
            ("hybrid", "h:4"),
            ("strategy", "exact"),
            ("statics", "reg"),
            ("word-bits", "16"),
        ]))
        .unwrap();
        assert_eq!(spec.grid.dims(), &[8, 16]);
        assert_eq!(spec.shape.len(), 9);
        assert_eq!(spec.word_bits, 16);
        assert_eq!(spec.static_kind, MemKind::Reg);
        assert!(spec.builder().plan().is_ok());
    }

    #[test]
    fn bad_word_bits_rejected() {
        assert!(ProblemSpec::from_source(&src(&[("word-bits", "0")])).is_err());
        assert!(ProblemSpec::from_source(&src(&[("word-bits", "65")])).is_err());
    }

    #[test]
    fn canonical_normalises_equivalent_spellings() {
        let a = ProblemSpec::from_source(&src(&[("grid", "11x11"), ("hybrid", "h")])).unwrap();
        let b = ProblemSpec::from_source(&src(&[
            ("grid", "11X11"),
            ("hybrid", "h:3"),
            ("rows", "wrap"),
        ]))
        .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        let c = ProblemSpec::from_source(&src(&[("grid", "11x12")])).unwrap();
        assert_ne!(a.canonical(), c.canonical());
    }

    #[test]
    fn canonical_is_reparseable() {
        let spec = ProblemSpec::from_source(&src(&[
            ("grid", "8x16"),
            ("shape", "nine"),
            ("rows", "mirror"),
            ("cols", "const:5"),
            ("hybrid", "h:4"),
            ("strategy", "exact"),
            ("statics", "reg"),
            ("word-bits", "16"),
        ]))
        .unwrap();
        // Round-trip the canonical form through the parser: simple keys
        // parse straight back; the canonical text itself is stable.
        let text = spec.canonical();
        assert!(text.contains("grid=8x16"));
        assert!(text.contains("bounds=mirror/mirror,const:5/const:5"));
        assert!(text.contains("hybrid=h:4"));
        assert!(text.contains("word-bits=16"));
        assert_eq!(text, spec.canonical());
    }

    #[test]
    fn pipeline_knobs_default_off_and_keep_canonical_stable() {
        let plain = ProblemSpec::from_source(&src(&[])).unwrap();
        assert_eq!(plain.timesteps, 1);
        assert_eq!(plain.channels, 1);
        assert!(!plain.pipelined());
        assert!(
            !plain.canonical().contains("timesteps"),
            "default canonical stays byte-identical to pre-pipeline keys"
        );

        let piped =
            ProblemSpec::from_source(&src(&[("timesteps", "4"), ("channels", "2")])).unwrap();
        assert!(piped.pipelined());
        assert!(piped.canonical().ends_with(";timesteps=4;channels=2"));
        // Either knob alone is enough to fork the canonical form.
        let t_only = ProblemSpec::from_source(&src(&[("timesteps", "4")])).unwrap();
        assert!(t_only.canonical().ends_with(";timesteps=4;channels=1"));
        let c_only = ProblemSpec::from_source(&src(&[("channels", "2")])).unwrap();
        assert!(c_only.canonical().ends_with(";timesteps=1;channels=2"));
        assert_ne!(piped.canonical(), plain.canonical());
        assert_ne!(t_only.canonical(), c_only.canonical());
    }

    #[test]
    fn bad_pipeline_knobs_rejected() {
        assert!(ProblemSpec::from_source(&src(&[("timesteps", "0")])).is_err());
        assert!(ProblemSpec::from_source(&src(&[("timesteps", "65")])).is_err());
        assert!(ProblemSpec::from_source(&src(&[("channels", "0")])).is_err());
        assert!(ProblemSpec::from_source(&src(&[("channels", "65")])).is_err());
        assert!(ProblemSpec::from_source(&src(&[("channels", "x")])).is_err());
    }

    #[test]
    fn passes_divide_instances_by_timesteps() {
        let plain = ProblemSpec::from_source(&src(&[("channels", "2")])).unwrap();
        assert_eq!(plain.passes(7), Ok(7));
        let piped = ProblemSpec::from_source(&src(&[("timesteps", "3")])).unwrap();
        assert_eq!(piped.passes(9), Ok(3));
        let err = piped.passes(8).unwrap_err();
        assert_eq!(err.key, "instances");
        assert!(
            err.expected.contains("multiple of `timesteps` (3)"),
            "{err}"
        );
    }

    #[test]
    fn seeded_input_is_deterministic_and_bounded() {
        let a = seeded_input(64, 9);
        let b = seeded_input(64, 9);
        let c = seeded_input(64, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&w| w < (1 << 20)));
    }
}
