//! First-class observability: typed probes, profiling counters, and
//! industry-format trace exporters. This is the workspace's one waveform
//! recorder:
//!
//! * [`ProbeRegistry`] — hierarchical, *typed* probes ([`ProbeKind::Bit`],
//!   [`ProbeKind::Vector`], [`ProbeKind::State`]) registered once and
//!   sampled every cycle in the commit phase, after evaluation has
//!   converged, and recorded only on change.
//! * [`CounterRegistry`] — named `u64` counters and occupancy
//!   [`Histogram`]s owned by the simulation thread (lock-free in spirit:
//!   plain cells, snapshotted per run into a [`TelemetrySnapshot`]).
//! * Exporters — a real VCD writer ([`ProbeRegistry::export_vcd`],
//!   IEEE 1364 §18, viewable in GTKWave) and a Chrome `trace_event` JSON
//!   writer ([`ProbeRegistry::export_chrome`], viewable in
//!   `chrome://tracing` / Perfetto), each with a structural self-check
//!   ([`vcd_self_check`], [`chrome_self_check`]).
//! * [`TelemetrySnapshot::render_analysis`] — the bottleneck report: top-k
//!   stall contributors and per-FSM state-residency tables.
//!
//! # Probe naming scheme
//!
//! Probe paths are `.`-separated hierarchies (`ctrl.phase`,
//! `dram.row_open.3`); the last segment is the VCD variable name, the
//! leading segments become nested `$scope`s. Counters follow the
//! conventions `stall.<cause>` (stall attribution, in cycles),
//! `residency.<fsm>.<state>` (FSM state residency, in cycles — the states
//! of one FSM sum to the cycles that FSM existed) and `<component>.<stat>`
//! for everything else. Histograms are named `occupancy.<queue>`.
//!
//! # Overhead contract
//!
//! A design that does not attach telemetry pays exactly one
//! `Option::is_some` check per cycle; cycle counts, outputs and seeded
//! chaos schedules are bit-identical with and without telemetry attached.
//! See `docs/OBSERVABILITY.md` for the full contract and the tests
//! enforcing it.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Configuration shared by the telemetry stores.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Maximum number of probe change events retained. The event store is
    /// a ring: on overflow the oldest event is evicted, its value is kept
    /// as the probe's baseline, and the drop is counted (never silent).
    pub capacity: usize,
    /// Probe samples before this cycle are ignored (counters still run).
    pub start_cycle: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            capacity: 1 << 16,
            start_cycle: 0,
        }
    }
}

/// The declared shape of a probe's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// A single-bit signal (handshakes, pulses, stall lines).
    Bit,
    /// A multi-bit bus of the given width (counters, addresses, indices).
    Vector(u32),
    /// An FSM state register; values index into the label list.
    State(&'static [&'static str]),
}

impl ProbeKind {
    /// Bit width of the probe in exported waveforms.
    pub fn width(&self) -> u32 {
        match self {
            ProbeKind::Bit => 1,
            ProbeKind::Vector(w) => (*w).max(1),
            ProbeKind::State(labels) => {
                let n = labels.len().max(2) as u64;
                (64 - (n - 1).leading_zeros()).max(1)
            }
        }
    }

    /// The state label for `value`, if this is a [`ProbeKind::State`]
    /// probe and the value is in range.
    pub fn label(&self, value: u64) -> Option<&'static str> {
        match self {
            ProbeKind::State(labels) => labels.get(value as usize).copied(),
            _ => None,
        }
    }
}

/// Handle to a registered probe (index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeId(usize);

/// One recorded change event: `probe` took `value` at `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSample {
    /// Cycle at which the probe changed.
    pub cycle: u64,
    /// The probe that changed.
    pub probe: ProbeId,
    /// The new value.
    pub value: u64,
}

#[derive(Debug, Clone)]
struct ProbeDef {
    path: String,
    kind: ProbeKind,
}

/// Hierarchical registry of typed probes with an on-change event store.
///
/// Modules register probes once (at elaboration) and sample them each
/// cycle in the commit phase. Only changes are recorded. The store is a
/// bounded ring: overflow evicts the oldest event but remembers the
/// evicted value as the probe's *baseline*, so exported waveforms keep
/// correct initial values, and the dropped count is reported in every
/// export format.
pub struct ProbeRegistry {
    config: TelemetryConfig,
    probes: Vec<ProbeDef>,
    by_path: BTreeMap<String, usize>,
    events: VecDeque<TraceSample>,
    last: Vec<Option<u64>>,
    baseline: Vec<Option<u64>>,
    dropped: u64,
    enabled: bool,
    /// Highest cycle ever sampled (closes open spans in exports).
    latest: u64,
}

impl ProbeRegistry {
    /// Creates an enabled registry.
    pub fn new(config: TelemetryConfig) -> Self {
        ProbeRegistry {
            config,
            probes: Vec::new(),
            by_path: BTreeMap::new(),
            events: VecDeque::new(),
            last: Vec::new(),
            baseline: Vec::new(),
            dropped: 0,
            enabled: true,
            latest: 0,
        }
    }

    /// The fast gate modules check once per cycle before sampling.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses (`false`) or resumes (`true`) sampling.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Registers a probe (idempotent: re-registering a path returns the
    /// existing id; the first registration's kind wins).
    pub fn register(&mut self, path: &str, kind: ProbeKind) -> ProbeId {
        if let Some(&i) = self.by_path.get(path) {
            return ProbeId(i);
        }
        let i = self.probes.len();
        self.probes.push(ProbeDef {
            path: path.to_string(),
            kind,
        });
        self.by_path.insert(path.to_string(), i);
        self.last.push(None);
        self.baseline.push(None);
        ProbeId(i)
    }

    /// Number of registered probes.
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// All registered probe paths, in registration order.
    pub fn paths(&self) -> Vec<&str> {
        self.probes.iter().map(|p| p.path.as_str()).collect()
    }

    /// Samples a probe by id; records an event only on change.
    pub fn sample(&mut self, cycle: u64, probe: ProbeId, value: u64) {
        if !self.enabled || cycle < self.config.start_cycle {
            return;
        }
        self.latest = self.latest.max(cycle);
        let i = probe.0;
        if self.last[i] == Some(value) {
            return;
        }
        self.last[i] = Some(value);
        if self.events.len() >= self.config.capacity.max(1) {
            if let Some(old) = self.events.pop_front() {
                self.baseline[old.probe.0] = Some(old.value);
                self.dropped += 1;
            }
        }
        self.events.push_back(TraceSample {
            cycle,
            probe,
            value,
        });
    }

    /// Samples a probe by path, auto-registering unknown paths as 64-bit
    /// vectors (convenient for ad-hoc probes).
    pub fn sample_path(&mut self, cycle: u64, path: &str, value: u64) {
        if !self.enabled {
            return;
        }
        let id = match self.by_path.get(path) {
            Some(&i) => ProbeId(i),
            None => self.register(path, ProbeKind::Vector(64)),
        };
        self.sample(cycle, id, value);
    }

    /// Retained change events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceSample> {
        self.events.iter()
    }

    /// `(cycle, value)` change pairs for one probe path.
    pub fn events_for(&self, path: &str) -> Vec<(u64, u64)> {
        match self.by_path.get(path) {
            Some(&i) => self
                .events
                .iter()
                .filter(|e| e.probe.0 == i)
                .map(|e| (e.cycle, e.value))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Events evicted by the ring capacity so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears events, baselines and last-values while keeping the probe
    /// definitions — called between runs.
    pub fn clear(&mut self) {
        self.events.clear();
        self.last.iter_mut().for_each(|v| *v = None);
        self.baseline.iter_mut().for_each(|v| *v = None);
        self.dropped = 0;
        self.latest = 0;
    }

    /// Short printable VCD identifier for probe `i` (chars `'!'..='~'`).
    fn ident(i: usize) -> String {
        let mut n = i;
        let mut s = String::new();
        loop {
            s.push((b'!' + (n % 94) as u8) as char);
            n /= 94;
            if n == 0 {
                break;
            }
        }
        s
    }

    /// Renders a Value Change Dump (IEEE 1364 §18). Probe paths become
    /// nested `$scope`s; every probe dumps at its declared width; the
    /// `$dumpvars` block carries baselines (evicted or unknown-yet values
    /// render as `x`). One VCD timestep equals one clock cycle.
    pub fn export_vcd(&self, top: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date smache telemetry $end");
        let _ = writeln!(out, "$version smache-sim probe registry $end");
        let _ = writeln!(out, "$timescale 1ns $end");
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "$comment {} earlier events dropped by ring capacity $end",
                self.dropped
            );
        }
        let _ = writeln!(out, "$scope module {top} $end");
        self.emit_scope_tree(&mut out, 1);
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        // Initial values: baselines where known, x otherwise.
        let _ = writeln!(out, "$dumpvars");
        for (i, p) in self.probes.iter().enumerate() {
            let id = Self::ident(i);
            match self.baseline[i] {
                Some(v) => {
                    if p.kind.width() == 1 {
                        let _ = writeln!(out, "{}{}", v & 1, id);
                    } else {
                        let _ = writeln!(out, "b{v:b} {id}");
                    }
                }
                None => {
                    if p.kind.width() == 1 {
                        let _ = writeln!(out, "x{id}");
                    } else {
                        let _ = writeln!(out, "bx {id}");
                    }
                }
            }
        }
        let _ = writeln!(out, "$end");

        let mut current: Option<u64> = None;
        for e in &self.events {
            if current != Some(e.cycle) {
                let _ = writeln!(out, "#{}", e.cycle);
                current = Some(e.cycle);
            }
            let id = Self::ident(e.probe.0);
            if self.probes[e.probe.0].kind.width() == 1 {
                let _ = writeln!(out, "{}{}", e.value & 1, id);
            } else {
                let _ = writeln!(out, "b{:b} {}", e.value, id);
            }
        }
        out
    }

    /// Emits nested `$scope`/`$var` declarations grouped by path segments.
    fn emit_scope_tree(&self, out: &mut String, depth: usize) {
        // Group probes by their first path segment; leaves (single-segment
        // paths) become $var lines, groups recurse as $scope blocks.
        #[derive(Default)]
        struct Level {
            vars: Vec<(String, usize)>,
            subs: BTreeMap<String, Vec<(Vec<String>, usize)>>,
        }
        fn build(paths: Vec<(Vec<String>, usize)>) -> Level {
            let mut level = Level::default();
            for (mut segs, idx) in paths {
                if segs.len() == 1 {
                    level.vars.push((segs.pop().expect("one segment"), idx));
                } else {
                    let head = segs.remove(0);
                    level.subs.entry(head).or_default().push((segs, idx));
                }
            }
            level
        }
        fn emit(reg: &ProbeRegistry, level: Level, out: &mut String, depth: usize) {
            let pad = "  ".repeat(depth);
            for (name, idx) in level.vars {
                let width = reg.probes[idx].kind.width();
                let _ = writeln!(
                    out,
                    "{pad}$var wire {width} {} {name} $end",
                    ProbeRegistry::ident(idx)
                );
            }
            for (name, paths) in level.subs {
                let _ = writeln!(out, "{pad}$scope module {name} $end");
                emit(reg, build(paths), out, depth + 1);
                let _ = writeln!(out, "{pad}$upscope $end");
            }
        }
        let paths: Vec<(Vec<String>, usize)> = self
            .probes
            .iter()
            .enumerate()
            .map(|(i, p)| (p.path.split('.').map(str::to_string).collect(), i))
            .collect();
        emit(self, build(paths), out, depth);
    }

    /// Renders a Chrome `trace_event` JSON document (open it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>). One trace `ts`
    /// unit equals one clock cycle.
    ///
    /// * [`ProbeKind::State`] probes become complete duration slices
    ///   (`"ph":"X"`), one slice per state interval, on a thread named
    ///   after the probe — FSM activity reads as a timeline.
    /// * [`ProbeKind::Bit`] probes whose path contains `stall` become
    ///   async spans (`"ph":"b"`/`"ph":"e"`), so stalls overlay the FSM
    ///   slices.
    /// * Everything else becomes counter events (`"ph":"C"`).
    pub fn export_chrome(&self, process: &str) -> String {
        let mut ev: Vec<String> = Vec::new();
        ev.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(process)
        ));
        for (i, p) in self.probes.iter().enumerate() {
            ev.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{i},\"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&p.path)
            ));
        }
        if self.dropped > 0 {
            ev.push(format!(
                "{{\"ph\":\"i\",\"name\":\"dropped {} events\",\"pid\":0,\"tid\":0,\"ts\":0,\"s\":\"g\"}}",
                self.dropped
            ));
        }
        let end = self.latest + 1;
        for (i, p) in self.probes.iter().enumerate() {
            let changes: Vec<(u64, u64)> = self
                .events
                .iter()
                .filter(|e| e.probe.0 == i)
                .map(|e| (e.cycle, e.value))
                .collect();
            match p.kind {
                ProbeKind::State(_) => {
                    for (j, &(start, value)) in changes.iter().enumerate() {
                        let stop = changes.get(j + 1).map(|c| c.0).unwrap_or(end);
                        let name = p
                            .kind
                            .label(value)
                            .map(str::to_string)
                            .unwrap_or_else(|| format!("s{value}"));
                        ev.push(format!(
                            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"fsm\",\"pid\":0,\"tid\":{i},\"ts\":{start},\"dur\":{}}}",
                            json_escape(&name),
                            stop.saturating_sub(start).max(1)
                        ));
                    }
                }
                ProbeKind::Bit if p.path.contains("stall") => {
                    let mut open = false;
                    for &(cycle, value) in &changes {
                        if value != 0 && !open {
                            open = true;
                            ev.push(format!(
                                "{{\"ph\":\"b\",\"name\":\"{}\",\"cat\":\"stall\",\"id\":{i},\"pid\":0,\"tid\":{i},\"ts\":{cycle}}}",
                                json_escape(&p.path)
                            ));
                        } else if value == 0 && open {
                            open = false;
                            ev.push(format!(
                                "{{\"ph\":\"e\",\"name\":\"{}\",\"cat\":\"stall\",\"id\":{i},\"pid\":0,\"tid\":{i},\"ts\":{cycle}}}",
                                json_escape(&p.path)
                            ));
                        }
                    }
                    if open {
                        ev.push(format!(
                            "{{\"ph\":\"e\",\"name\":\"{}\",\"cat\":\"stall\",\"id\":{i},\"pid\":0,\"tid\":{i},\"ts\":{end}}}",
                            json_escape(&p.path)
                        ));
                    }
                }
                _ => {
                    for &(cycle, value) in &changes {
                        ev.push(format!(
                            "{{\"ph\":\"C\",\"name\":\"{}\",\"pid\":0,\"tid\":{i},\"ts\":{cycle},\"args\":{{\"v\":{value}}}}}",
                            json_escape(&p.path)
                        ));
                    }
                }
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(&ev.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// Renders the trace as an aligned change list (the `ascii` trace
    /// format), ending with the dropped-event count when non-zero.
    pub fn export_ascii(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let p = &self.probes[e.probe.0];
            match p.kind.label(e.value) {
                Some(label) => {
                    let _ = writeln!(out, "@{:>8} {:<28} = {label}", e.cycle, p.path);
                }
                None => {
                    let _ = writeln!(out, "@{:>8} {:<28} = {:#x}", e.cycle, p.path, e.value);
                }
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} earlier events dropped)", self.dropped);
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Structurally validates a VCD document produced by
/// [`ProbeRegistry::export_vcd`] (or any simple VCD): declarations close
/// with `$enddefinitions`, at least one `$var` exists, timestamps strictly
/// increase, and every value change references a declared identifier.
pub fn vcd_self_check(vcd: &str) -> Result<(), String> {
    let mut idents: Vec<String> = Vec::new();
    let mut in_defs = true;
    let mut saw_timescale = false;
    let mut last_ts: Option<u64> = None;
    for (ln, raw) in vcd.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if in_defs {
            if line.starts_with("$timescale") {
                saw_timescale = true;
            } else if line.starts_with("$var") {
                let parts: Vec<&str> = line.split_whitespace().collect();
                // $var wire <width> <ident> <name> $end
                if parts.len() < 6 || parts.last() != Some(&"$end") {
                    return Err(format!("line {}: malformed $var", ln + 1));
                }
                parts[2]
                    .parse::<u32>()
                    .map_err(|_| format!("line {}: bad $var width", ln + 1))?;
                idents.push(parts[3].to_string());
            } else if line.starts_with("$enddefinitions") {
                in_defs = false;
            }
            continue;
        }
        if let Some(ts) = line.strip_prefix('#') {
            let ts: u64 = ts
                .parse()
                .map_err(|_| format!("line {}: bad timestamp", ln + 1))?;
            if let Some(prev) = last_ts {
                if ts <= prev {
                    return Err(format!(
                        "line {}: timestamp #{ts} not after #{prev}",
                        ln + 1
                    ));
                }
            }
            last_ts = Some(ts);
        } else if let Some(rest) = line.strip_prefix('b') {
            let mut parts = rest.split_whitespace();
            let value = parts.next().unwrap_or("");
            let id = parts.next().unwrap_or("");
            if value.is_empty() || !value.chars().all(|c| matches!(c, '0' | '1' | 'x' | 'z')) {
                return Err(format!("line {}: bad vector value", ln + 1));
            }
            if !idents.iter().any(|k| k == id) {
                return Err(format!("line {}: unknown identifier `{id}`", ln + 1));
            }
        } else if let Some(c) = line.chars().next() {
            if matches!(c, '0' | '1' | 'x' | 'z') {
                let id = &line[1..];
                if !idents.iter().any(|k| k == id) {
                    return Err(format!("line {}: unknown identifier `{id}`", ln + 1));
                }
            } else if !line.starts_with('$') {
                return Err(format!("line {}: unrecognised `{line}`", ln + 1));
            }
        }
    }
    if in_defs {
        return Err("no $enddefinitions section".into());
    }
    if !saw_timescale {
        return Err("no $timescale declaration".into());
    }
    if idents.is_empty() {
        return Err("no $var declarations".into());
    }
    Ok(())
}

/// Validates that `json` is a single well-formed JSON value containing a
/// `traceEvents` key — the shape Chrome's trace viewer expects. The
/// parser is a minimal recursive-descent well-formedness checker (this
/// workspace deliberately carries no serde).
pub fn chrome_self_check(json: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("byte {}: expected `{}`", self.i, c as char))
            }
        }
        fn lit(&mut self, s: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(s.as_bytes()) {
                self.i += s.len();
                Ok(())
            } else {
                Err(format!("byte {}: expected `{s}`", self.i))
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            while let Some(c) = self.peek() {
                self.i += 1;
                match c {
                    b'"' => return Ok(()),
                    b'\\' => {
                        self.i += 1; // skip escaped char (\uXXXX digits are plain chars)
                    }
                    _ => {}
                }
            }
            Err("unterminated string".into())
        }
        fn number(&mut self) -> Result<(), String> {
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            while self.peek().is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                self.i += 1;
            }
            if self.i == start {
                Err(format!("byte {start}: expected number"))
            } else {
                Ok(())
            }
        }
        fn value(&mut self) -> Result<(), String> {
            self.ws();
            match self.peek() {
                Some(b'{') => {
                    self.i += 1;
                    self.ws();
                    if self.peek() == Some(b'}') {
                        self.i += 1;
                        return Ok(());
                    }
                    loop {
                        self.ws();
                        self.string()?;
                        self.ws();
                        self.eat(b':')?;
                        self.value()?;
                        self.ws();
                        match self.peek() {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("byte {}: expected , or }}", self.i)),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    self.ws();
                    if self.peek() == Some(b']') {
                        self.i += 1;
                        return Ok(());
                    }
                    loop {
                        self.value()?;
                        self.ws();
                        match self.peek() {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(());
                            }
                            _ => return Err(format!("byte {}: expected , or ]", self.i)),
                        }
                    }
                }
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(_) => self.number(),
                None => Err("unexpected end of input".into()),
            }
        }
    }
    let mut p = P {
        b: json.as_bytes(),
        i: 0,
    };
    p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("byte {}: trailing data after JSON value", p.i));
    }
    if !json.contains("\"traceEvents\"") {
        return Err("missing traceEvents key".into());
    }
    Ok(())
}

/// Number of histogram buckets: exact 0, powers of two up to `2^16`, and
/// one overflow bucket.
const HIST_BUCKETS: usize = 18;

/// A fixed power-of-two bucketed occupancy histogram.
///
/// Bucket 0 counts exact zeros; bucket `i` (1..=16) counts values in
/// `[2^(i-1), 2^i)`; the last bucket counts everything at or above
/// `2^16`. This covers FIFO depths and queue lengths with a handful of
/// `u64` cells and no allocation on the sampling path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one observation of `value`.
    pub fn observe(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Human-readable label of bucket `i` (`"0"`, `"1"`, `"2-3"`, ...).
    pub fn bucket_label(i: usize) -> String {
        match i {
            0 => "0".to_string(),
            1 => "1".to_string(),
            _ if i < HIST_BUCKETS - 1 => format!("{}-{}", 1u64 << (i - 1), (1u64 << i) - 1),
            _ => format!("{}+", 1u64 << (HIST_BUCKETS - 2)),
        }
    }

    /// Non-empty buckets as `(label, count)` pairs.
    pub fn non_empty(&self) -> Vec<(String, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_label(i), c))
            .collect()
    }

    /// Resets all buckets.
    pub fn clear(&mut self) {
        self.buckets = [0; HIST_BUCKETS];
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Named `u64` profiling counters and occupancy histograms.
///
/// Plain cells owned by the simulation thread — incrementing is an array
/// write, no locks, no atomics. A [`TelemetrySnapshot`] is taken per run
/// and travels with the run report.
#[derive(Debug, Default)]
pub struct CounterRegistry {
    counters: Vec<(String, u64)>,
    counter_ix: BTreeMap<String, usize>,
    hists: Vec<(String, Histogram)>,
    hist_ix: BTreeMap<String, usize>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&i) = self.counter_ix.get(name) {
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counters.push((name.to_string(), 0));
        self.counter_ix.insert(name.to_string(), i);
        CounterId(i)
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Overwrites a counter (for end-of-run copies of external stats).
    pub fn set(&mut self, id: CounterId, value: u64) {
        self.counters[id.0].1 = value;
    }

    /// Reads a counter by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counter_ix.get(name).map(|&i| self.counters[i].1)
    }

    /// Registers (or finds) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(&i) = self.hist_ix.get(name) {
            return HistogramId(i);
        }
        let i = self.hists.len();
        self.hists.push((name.to_string(), Histogram::default()));
        self.hist_ix.insert(name.to_string(), i);
        HistogramId(i)
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.hists[id.0].1.observe(value);
    }

    /// Zeroes every counter and histogram, keeping registrations.
    pub fn clear(&mut self) {
        self.counters.iter_mut().for_each(|c| c.1 = 0);
        self.hists.iter_mut().for_each(|h| h.1.clear());
    }

    /// Copies the current values into an owned snapshot (sorted by name
    /// for stable output).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters: Vec<(String, u64)> = self.counters.clone();
        counters.sort();
        let mut histograms: Vec<(String, Vec<(String, u64)>)> = self
            .hists
            .iter()
            .map(|(name, h)| (name.clone(), h.non_empty()))
            .collect();
        histograms.sort();
        TelemetrySnapshot {
            counters,
            histograms,
        }
    }
}

/// A per-run copy of every telemetry counter and histogram — the
/// `telemetry` section of a run report and of `BENCH_*.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, non-empty (bucket label, count) pairs)`, sorted by name.
    pub histograms: Vec<(String, Vec<(String, u64)>)>,
}

impl TelemetrySnapshot {
    /// Reads one counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Counters under `prefix.` with the prefix stripped.
    pub fn with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        let p = format!("{prefix}.");
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(&p))
            .map(|(n, v)| (n[p.len()..].to_string(), *v))
            .collect()
    }

    /// The top-`k` stall contributors (`stall.*` counters, largest first).
    pub fn top_stalls(&self, k: usize) -> Vec<(String, u64)> {
        let mut stalls = self.with_prefix("stall");
        stalls.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        stalls.truncate(k);
        stalls
    }

    /// State residency of one FSM: `(state, cycles)` pairs from the
    /// `residency.<fsm>.<state>` counters, in name order. For a correctly
    /// instrumented FSM the values sum to the run's total cycles.
    pub fn residency(&self, fsm: &str) -> Vec<(String, u64)> {
        self.with_prefix(&format!("residency.{fsm}"))
    }

    /// Names of every FSM with residency counters.
    pub fn fsms(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .counters
            .iter()
            .filter_map(|(n, _)| n.strip_prefix("residency."))
            .filter_map(|rest| rest.split('.').next())
            .map(str::to_string)
            .collect();
        names.dedup();
        names.sort();
        names.dedup();
        names
    }

    /// Renders the bottleneck report: top-`k` stall contributors against
    /// `total_cycles`, per-FSM state-residency tables (each row shows the
    /// fraction of that FSM's cycles), and any non-empty histograms.
    pub fn render_analysis(&self, total_cycles: u64, top_k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "bottleneck report ({total_cycles} cycles)");
        let stalls = self.top_stalls(top_k);
        if stalls.is_empty() {
            let _ = writeln!(out, "  stalls: none recorded");
        } else {
            let _ = writeln!(out, "  top stall contributors:");
            for (name, cycles) in &stalls {
                let pct = if total_cycles > 0 {
                    100.0 * *cycles as f64 / total_cycles as f64
                } else {
                    0.0
                };
                let _ = writeln!(out, "    {name:<24} {cycles:>10} cycles  ({pct:>5.1}%)");
            }
        }
        for fsm in self.fsms() {
            let rows = self.residency(&fsm);
            let fsm_total: u64 = rows.iter().map(|&(_, v)| v).sum();
            let _ = writeln!(out, "  {fsm} state residency ({fsm_total} cycles):");
            for (state, cycles) in rows {
                let pct = if fsm_total > 0 {
                    100.0 * cycles as f64 / fsm_total as f64
                } else {
                    0.0
                };
                let _ = writeln!(out, "    {state:<24} {cycles:>10} cycles  ({pct:>5.1}%)");
            }
        }
        for (name, buckets) in &self.histograms {
            if buckets.is_empty() {
                continue;
            }
            let cells: Vec<String> = buckets
                .iter()
                .map(|(label, count)| format!("{label}:{count}"))
                .collect();
            let _ = writeln!(out, "  histogram {name}: {}", cells.join(" "));
        }
        out
    }
}

/// The full telemetry bundle a system carries when observability is on:
/// probes for waveforms, counters for profiling.
pub struct Telemetry {
    /// Typed probes and the change-event ring.
    pub probes: ProbeRegistry,
    /// Profiling counters and histograms.
    pub counters: CounterRegistry,
}

impl Telemetry {
    /// Creates an enabled bundle.
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            probes: ProbeRegistry::new(config),
            counters: CounterRegistry::new(),
        }
    }

    /// Clears recorded data (events and counter values) between runs,
    /// keeping every registration.
    pub fn clear(&mut self) {
        self.probes.clear();
        self.counters.clear();
    }

    /// Snapshot of the counters and histograms.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.counters.snapshot()
    }
}

/// Implemented by components that expose typed probes.
///
/// Components register their probes once at elaboration and are sampled
/// every cycle *after* the commit phase, when every value has settled.
/// Sampling must not mutate architectural state.
pub trait Probed {
    /// Declares this component's probes (idempotent).
    fn register_probes(&self, reg: &mut ProbeRegistry);
    /// Samples every declared probe for `cycle`.
    fn sample_probes(&self, cycle: u64, reg: &mut ProbeRegistry);
}

#[cfg(test)]
mod tests {
    use super::*;

    const PHASES: &[&str] = &["warmup", "streaming", "done"];

    #[test]
    fn probe_kind_widths() {
        assert_eq!(ProbeKind::Bit.width(), 1);
        assert_eq!(ProbeKind::Vector(16).width(), 16);
        assert_eq!(ProbeKind::Vector(0).width(), 1);
        assert_eq!(ProbeKind::State(PHASES).width(), 2);
        assert_eq!(ProbeKind::State(&["a", "b"]).width(), 1);
        assert_eq!(ProbeKind::State(&["a", "b", "c", "d", "e"]).width(), 3);
    }

    #[test]
    fn registry_records_only_changes() {
        let mut reg = ProbeRegistry::new(TelemetryConfig::default());
        let p = reg.register("ctrl.phase", ProbeKind::State(PHASES));
        reg.sample(0, p, 0);
        reg.sample(1, p, 0);
        reg.sample(2, p, 1);
        reg.sample(3, p, 1);
        assert_eq!(reg.events_for("ctrl.phase"), vec![(0, 0), (2, 1)]);
    }

    #[test]
    fn register_is_idempotent() {
        let mut reg = ProbeRegistry::new(TelemetryConfig::default());
        let a = reg.register("x", ProbeKind::Bit);
        let b = reg.register("x", ProbeKind::Vector(8));
        assert_eq!(a, b);
        assert_eq!(reg.probe_count(), 1);
    }

    #[test]
    fn ring_eviction_preserves_baseline_and_counts_drops() {
        let mut reg = ProbeRegistry::new(TelemetryConfig {
            capacity: 2,
            start_cycle: 0,
        });
        let p = reg.register("v", ProbeKind::Vector(8));
        reg.sample(0, p, 1);
        reg.sample(1, p, 2);
        reg.sample(2, p, 3);
        assert_eq!(reg.dropped(), 1);
        assert_eq!(reg.events_for("v"), vec![(1, 2), (2, 3)]);
        // The evicted value survives as the baseline: the VCD initial
        // dump shows 1, not x.
        let vcd = reg.export_vcd("t");
        assert!(vcd.contains("$dumpvars\nb1 !"), "{vcd}");
        assert!(vcd.contains("dropped"), "{vcd}");
    }

    #[test]
    fn vcd_is_hierarchical_and_self_checks() {
        let mut reg = ProbeRegistry::new(TelemetryConfig::default());
        let phase = reg.register("ctrl.phase", ProbeKind::State(PHASES));
        let stall = reg.register("ctrl.stall", ProbeKind::Bit);
        let row = reg.register("dram.row_open.0", ProbeKind::Vector(32));
        reg.sample(0, phase, 0);
        reg.sample(0, stall, 0);
        reg.sample(0, row, 5);
        reg.sample(3, phase, 1);
        reg.sample(7, stall, 1);
        let vcd = reg.export_vcd("smache");
        assert!(vcd.contains("$scope module smache $end"));
        assert!(vcd.contains("$scope module ctrl $end"));
        assert!(vcd.contains("$scope module dram $end"));
        assert!(vcd.contains("$var wire 2 ! phase $end"), "{vcd}");
        assert!(vcd.contains("$var wire 1 \" stall $end"), "{vcd}");
        assert!(vcd.contains("#0\n"));
        assert!(vcd.contains("#3\n"));
        vcd_self_check(&vcd).expect("structurally valid");
    }

    #[test]
    fn vcd_self_check_rejects_broken_documents() {
        assert!(vcd_self_check("").is_err());
        // Non-monotonic timestamps.
        let bad =
            "$timescale 1ns $end\n$var wire 1 ! v $end\n$enddefinitions $end\n#5\n1!\n#3\n0!\n";
        assert!(vcd_self_check(bad).unwrap_err().contains("timestamp"));
        // Unknown identifier.
        let bad = "$timescale 1ns $end\n$var wire 1 ! v $end\n$enddefinitions $end\n#1\n1?\n";
        assert!(vcd_self_check(bad).unwrap_err().contains("unknown"));
    }

    #[test]
    fn chrome_export_is_well_formed_and_typed() {
        let mut reg = ProbeRegistry::new(TelemetryConfig::default());
        let phase = reg.register("ctrl.phase", ProbeKind::State(PHASES));
        let stall = reg.register("ctrl.stall", ProbeKind::Bit);
        let occ = reg.register("fifo.occupancy", ProbeKind::Vector(16));
        reg.sample(0, phase, 0);
        reg.sample(2, phase, 1);
        reg.sample(4, stall, 1);
        reg.sample(6, stall, 0);
        reg.sample(8, occ, 3);
        reg.sample(9, phase, 2);
        let json = reg.export_chrome("smache");
        chrome_self_check(&json).expect("well-formed");
        // FSM slices carry state labels; duration of warmup is 2 cycles.
        assert!(json.contains("\"name\":\"warmup\""), "{json}");
        assert!(json.contains("\"dur\":2"), "{json}");
        // The stall is an async span pair.
        assert!(json.contains("\"ph\":\"b\""), "{json}");
        assert!(json.contains("\"ph\":\"e\""), "{json}");
        // The occupancy probe is a counter event.
        assert!(json.contains("\"ph\":\"C\""), "{json}");
    }

    #[test]
    fn chrome_self_check_rejects_malformed_json() {
        assert!(chrome_self_check("{").is_err());
        assert!(chrome_self_check("{\"traceEvents\":[}").is_err());
        assert!(chrome_self_check("{\"a\":1}")
            .unwrap_err()
            .contains("traceEvents"));
        assert!(chrome_self_check("{\"traceEvents\":[]} trailing").is_err());
        chrome_self_check("{\"traceEvents\":[{\"ts\":0.5,\"name\":\"a\\\"b\"}]}").unwrap();
    }

    #[test]
    fn ascii_export_uses_state_labels_and_reports_drops() {
        let mut reg = ProbeRegistry::new(TelemetryConfig {
            capacity: 2,
            start_cycle: 0,
        });
        let p = reg.register("ctrl.phase", ProbeKind::State(PHASES));
        reg.sample(0, p, 0);
        reg.sample(5, p, 1);
        reg.sample(9, p, 2);
        let txt = reg.export_ascii();
        assert!(txt.contains("= streaming"), "{txt}");
        assert!(txt.contains("= done"), "{txt}");
        assert!(txt.contains("1 earlier events dropped"), "{txt}");
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut reg = ProbeRegistry::new(TelemetryConfig::default());
        let p = reg.register("v", ProbeKind::Bit);
        reg.set_enabled(false);
        assert!(!reg.enabled());
        reg.sample(0, p, 1);
        reg.sample_path(1, "v", 0);
        assert_eq!(reg.events().count(), 0);
    }

    #[test]
    fn histogram_buckets_and_labels() {
        let mut h = Histogram::default();
        for v in [0, 0, 1, 2, 3, 4, 7, 8, 1 << 20] {
            h.observe(v);
        }
        assert_eq!(h.total(), 9);
        let rows = h.non_empty();
        assert!(rows.contains(&("0".to_string(), 2)));
        assert!(rows.contains(&("1".to_string(), 1)));
        assert!(rows.contains(&("2-3".to_string(), 2)));
        assert!(rows.contains(&("4-7".to_string(), 2)));
        assert!(rows.contains(&("8-15".to_string(), 1)));
        assert!(rows.contains(&("65536+".to_string(), 1)));
    }

    #[test]
    fn counter_registry_snapshot_and_analysis() {
        let mut c = CounterRegistry::new();
        let storm = c.counter("stall.chaos_storm");
        let bp = c.counter("stall.backpressure");
        c.add(storm, 40);
        c.add(bp, 10);
        for (fsm, states) in [
            ("fsm1", vec![("prefetch", 22u64), ("idle", 78)]),
            ("fsm2", vec![("emit", 60), ("fill", 40)]),
        ] {
            for (state, v) in states {
                let id = c.counter(&format!("residency.{fsm}.{state}"));
                c.add(id, v);
            }
        }
        let occ = c.histogram("occupancy.resp_fifo");
        c.observe(occ, 0);
        c.observe(occ, 3);

        let snap = c.snapshot();
        assert_eq!(snap.counter("stall.chaos_storm"), Some(40));
        assert_eq!(snap.top_stalls(1), vec![("chaos_storm".to_string(), 40)]);
        assert_eq!(snap.fsms(), vec!["fsm1".to_string(), "fsm2".to_string()]);
        let res: u64 = snap.residency("fsm1").iter().map(|&(_, v)| v).sum();
        assert_eq!(res, 100);
        let report = snap.render_analysis(100, 5);
        assert!(report.contains("chaos_storm"), "{report}");
        assert!(report.contains("( 40.0%)"), "{report}");
        assert!(
            report.contains("fsm1 state residency (100 cycles)"),
            "{report}"
        );
        assert!(report.contains("histogram occupancy.resp_fifo"), "{report}");
    }

    #[test]
    fn clear_keeps_registrations_but_zeroes_data() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        let p = t.probes.register("v", ProbeKind::Bit);
        let c = t.counters.counter("stall.x");
        t.probes.sample(0, p, 1);
        t.counters.inc(c);
        t.clear();
        assert_eq!(t.probes.events().count(), 0);
        assert_eq!(t.probes.probe_count(), 1);
        assert_eq!(t.snapshot().counter("stall.x"), Some(0));
        // Re-sampling the same value after clear records it again (no
        // stale last-value suppression across runs).
        t.probes.sample(0, p, 1);
        assert_eq!(t.probes.events().count(), 1);
    }

    #[test]
    fn json_escaping_in_chrome_export() {
        let mut reg = ProbeRegistry::new(TelemetryConfig::default());
        let p = reg.register("odd\"name", ProbeKind::Vector(8));
        reg.sample(0, p, 1);
        let json = reg.export_chrome("proc\\x");
        chrome_self_check(&json).expect("escaped");
    }
}
