//! Versioned JSON serialisation of [`RunReport`].
//!
//! Served and cached reports outlive the process that produced them, so
//! the JSON shape is explicitly versioned: every document carries a
//! top-level `schema_version`, and [`RunReport::from_json`] refuses
//! versions it does not understand instead of misreading them.
//!
//! The encoding is **canonical**: field order is fixed, integers stay
//! integers, floats use shortest-round-trip rendering. That buys the
//! strongest compatibility property a cache can ask for —
//! `serialize(parse(serialize(r)))` is byte-identical to `serialize(r)` —
//! which `tests/report_roundtrip.rs` pins.

use smache_mem::{DramStats, FaultCounters, FaultEvent, FaultKind, Word};
use smache_sim::json::Json;
use smache_sim::{CycleStats, ResourceUsage, TelemetrySnapshot};

use crate::arch::controller::SmacheResourceBreakdown;
use crate::pipeline::PIPE_STALL_COMPONENT;
use crate::system::axi::AXI_COMPONENT;
use crate::system::metrics::DesignMetrics;
use crate::system::report::{RunEngine, RunReport};
use crate::system::smache_system::STALL_COMPONENT;

/// The current `schema_version` written by [`RunReport::to_json`].
pub const REPORT_SCHEMA_VERSION: i64 = 1;

/// Component names a serialised fault event may carry.
///
/// [`FaultEvent::component`] is a `&'static str`; parsing interns against
/// this closed set so deserialised events alias the same statics the live
/// system produces.
const KNOWN_COMPONENTS: &[&str] = &[
    smache_mem::DRAM_COMPONENT,
    smache_mem::FIFO_COMPONENT,
    AXI_COMPONENT,
    STALL_COMPONENT,
    PIPE_STALL_COMPONENT,
];

fn ju(v: u64) -> Json {
    debug_assert!(v <= i64::MAX as u64, "u64 field exceeds JSON int range");
    Json::Int(v as i64)
}

fn resources_json(r: &ResourceUsage) -> Json {
    Json::obj(vec![
        ("alms", ju(r.alms)),
        ("registers", ju(r.registers)),
        ("bram_bits", ju(r.bram_bits)),
        ("dsps", ju(r.dsps)),
    ])
}

fn counters_json(pairs: &[(String, u64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(name, v)| (name.clone(), ju(*v)))
            .collect(),
    )
}

/// A typed "missing or wrong field" error for report parsing.
fn missing(ctx: &str, field: &str) -> String {
    format!("report JSON: {ctx}: missing or mistyped `{field}`")
}

fn get_u64(v: &Json, ctx: &str, field: &str) -> Result<u64, String> {
    v.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| missing(ctx, field))
}

fn get_f64(v: &Json, ctx: &str, field: &str) -> Result<f64, String> {
    v.get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| missing(ctx, field))
}

fn get_str<'a>(v: &'a Json, ctx: &str, field: &str) -> Result<&'a str, String> {
    v.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| missing(ctx, field))
}

fn parse_resources(v: &Json, ctx: &str) -> Result<ResourceUsage, String> {
    Ok(ResourceUsage {
        alms: get_u64(v, ctx, "alms")?,
        registers: get_u64(v, ctx, "registers")?,
        bram_bits: get_u64(v, ctx, "bram_bits")?,
        dsps: get_u64(v, ctx, "dsps")?,
    })
}

fn parse_counter_map(v: &Json, ctx: &str) -> Result<Vec<(String, u64)>, String> {
    v.as_obj()
        .ok_or_else(|| missing(ctx, "object"))?
        .iter()
        .map(|(name, val)| {
            val.as_u64()
                .map(|u| (name.clone(), u))
                .ok_or_else(|| missing(ctx, name))
        })
        .collect()
}

impl RunReport {
    /// Serialises the full report as a versioned, canonical JSON tree.
    pub fn to_json(&self) -> Json {
        let m = &self.metrics;
        Json::obj(vec![
            ("schema_version", Json::Int(REPORT_SCHEMA_VERSION)),
            ("engine", Json::str(self.engine.label())),
            (
                "output",
                Json::Arr(self.output.iter().map(|&w| ju(w)).collect()),
            ),
            (
                "metrics",
                Json::obj(vec![
                    ("name", Json::str(m.name.clone())),
                    ("cycles", ju(m.cycles)),
                    ("fmax_mhz", Json::Num(m.fmax_mhz)),
                    ("ops", ju(m.ops)),
                    (
                        "dram",
                        Json::obj(vec![
                            ("reads", ju(m.dram.reads)),
                            ("writes", ju(m.dram.writes)),
                            ("bytes_read", ju(m.dram.bytes_read)),
                            ("bytes_written", ju(m.dram.bytes_written)),
                            ("row_hits", ju(m.dram.row_hits)),
                            ("row_misses", ju(m.dram.row_misses)),
                            ("sequential_reads", ju(m.dram.sequential_reads)),
                            ("read_stall_cycles", ju(m.dram.read_stall_cycles)),
                        ]),
                    ),
                    ("resources", resources_json(&m.resources)),
                    (
                        "faults",
                        Json::obj(vec![
                            ("jitter_events", ju(m.faults.jitter_events)),
                            ("jitter_cycles_added", ju(m.faults.jitter_cycles_added)),
                            ("stall_storms", ju(m.faults.stall_storms)),
                            ("storm_cycles", ju(m.faults.storm_cycles)),
                            ("slow_drain_cycles", ju(m.faults.slow_drain_cycles)),
                            ("bit_flips_injected", ju(m.faults.bit_flips_injected)),
                            ("bit_flips_detected", ju(m.faults.bit_flips_detected)),
                            ("beats_dropped", ju(m.faults.beats_dropped)),
                            ("beats_duplicated", ju(m.faults.beats_duplicated)),
                        ]),
                    ),
                ]),
            ),
            ("warmup_cycles", ju(self.warmup_cycles)),
            (
                "stats",
                Json::obj(vec![
                    ("cycles", ju(self.stats.cycles)),
                    ("transfers", ju(self.stats.transfers)),
                    ("stall_cycles", ju(self.stats.stall_cycles)),
                    ("idle_cycles", ju(self.stats.idle_cycles)),
                ]),
            ),
            (
                "breakdown",
                Json::obj(vec![
                    ("stream", resources_json(&self.breakdown.stream)),
                    ("statics", resources_json(&self.breakdown.statics)),
                    ("controller", resources_json(&self.breakdown.controller)),
                ]),
            ),
            (
                "fault_events",
                Json::Arr(
                    self.fault_events
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("cycle", ju(e.cycle)),
                                ("component", Json::str(e.component)),
                                ("kind", Json::str(e.kind.label())),
                                ("detail", ju(e.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "telemetry",
                match &self.telemetry {
                    None => Json::Null,
                    Some(t) => Json::obj(vec![
                        ("counters", counters_json(&t.counters)),
                        (
                            "histograms",
                            Json::Obj(
                                t.histograms
                                    .iter()
                                    .map(|(name, buckets)| (name.clone(), counters_json(buckets)))
                                    .collect(),
                            ),
                        ),
                    ]),
                },
            ),
        ])
    }

    /// Parses a report serialised by [`RunReport::to_json`].
    ///
    /// Rejects unknown `schema_version`s and malformed documents with a
    /// descriptive message rather than guessing.
    pub fn from_json(doc: &Json) -> Result<RunReport, String> {
        let version = doc
            .get("schema_version")
            .and_then(Json::as_i64)
            .ok_or_else(|| missing("top level", "schema_version"))?;
        if version != REPORT_SCHEMA_VERSION {
            return Err(format!(
                "report JSON: unsupported schema_version {version} (this build reads {REPORT_SCHEMA_VERSION})"
            ));
        }

        let output: Vec<Word> = doc
            .get("output")
            .and_then(Json::as_arr)
            .ok_or_else(|| missing("top level", "output"))?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| missing("output", "word")))
            .collect::<Result<_, _>>()?;

        let m = doc
            .get("metrics")
            .ok_or_else(|| missing("top level", "metrics"))?;
        let dram = m.get("dram").ok_or_else(|| missing("metrics", "dram"))?;
        let faults = m
            .get("faults")
            .ok_or_else(|| missing("metrics", "faults"))?;
        let metrics = DesignMetrics {
            name: get_str(m, "metrics", "name")?.to_string(),
            cycles: get_u64(m, "metrics", "cycles")?,
            fmax_mhz: get_f64(m, "metrics", "fmax_mhz")?,
            ops: get_u64(m, "metrics", "ops")?,
            dram: DramStats {
                reads: get_u64(dram, "dram", "reads")?,
                writes: get_u64(dram, "dram", "writes")?,
                bytes_read: get_u64(dram, "dram", "bytes_read")?,
                bytes_written: get_u64(dram, "dram", "bytes_written")?,
                row_hits: get_u64(dram, "dram", "row_hits")?,
                row_misses: get_u64(dram, "dram", "row_misses")?,
                sequential_reads: get_u64(dram, "dram", "sequential_reads")?,
                read_stall_cycles: get_u64(dram, "dram", "read_stall_cycles")?,
            },
            resources: parse_resources(
                m.get("resources")
                    .ok_or_else(|| missing("metrics", "resources"))?,
                "resources",
            )?,
            faults: FaultCounters {
                jitter_events: get_u64(faults, "faults", "jitter_events")?,
                jitter_cycles_added: get_u64(faults, "faults", "jitter_cycles_added")?,
                stall_storms: get_u64(faults, "faults", "stall_storms")?,
                storm_cycles: get_u64(faults, "faults", "storm_cycles")?,
                slow_drain_cycles: get_u64(faults, "faults", "slow_drain_cycles")?,
                bit_flips_injected: get_u64(faults, "faults", "bit_flips_injected")?,
                bit_flips_detected: get_u64(faults, "faults", "bit_flips_detected")?,
                beats_dropped: get_u64(faults, "faults", "beats_dropped")?,
                beats_duplicated: get_u64(faults, "faults", "beats_duplicated")?,
            },
        };

        let stats_j = doc
            .get("stats")
            .ok_or_else(|| missing("top level", "stats"))?;
        let stats = CycleStats {
            cycles: get_u64(stats_j, "stats", "cycles")?,
            transfers: get_u64(stats_j, "stats", "transfers")?,
            stall_cycles: get_u64(stats_j, "stats", "stall_cycles")?,
            idle_cycles: get_u64(stats_j, "stats", "idle_cycles")?,
        };

        let bd = doc
            .get("breakdown")
            .ok_or_else(|| missing("top level", "breakdown"))?;
        let breakdown = SmacheResourceBreakdown {
            stream: parse_resources(
                bd.get("stream")
                    .ok_or_else(|| missing("breakdown", "stream"))?,
                "breakdown.stream",
            )?,
            statics: parse_resources(
                bd.get("statics")
                    .ok_or_else(|| missing("breakdown", "statics"))?,
                "breakdown.statics",
            )?,
            controller: parse_resources(
                bd.get("controller")
                    .ok_or_else(|| missing("breakdown", "controller"))?,
                "breakdown.controller",
            )?,
        };

        let fault_events = doc
            .get("fault_events")
            .and_then(Json::as_arr)
            .ok_or_else(|| missing("top level", "fault_events"))?
            .iter()
            .map(|e| {
                let name = get_str(e, "fault_events", "component")?;
                let component = KNOWN_COMPONENTS
                    .iter()
                    .find(|&&c| c == name)
                    .copied()
                    .ok_or_else(|| format!("report JSON: unknown fault component `{name}`"))?;
                let kind_label = get_str(e, "fault_events", "kind")?;
                let kind = FaultKind::from_label(kind_label)
                    .ok_or_else(|| format!("report JSON: unknown fault kind `{kind_label}`"))?;
                Ok(FaultEvent {
                    cycle: get_u64(e, "fault_events", "cycle")?,
                    component,
                    kind,
                    detail: get_u64(e, "fault_events", "detail")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let telemetry = match doc
            .get("telemetry")
            .ok_or_else(|| missing("top level", "telemetry"))?
        {
            Json::Null => None,
            t => {
                let counters = parse_counter_map(
                    t.get("counters")
                        .ok_or_else(|| missing("telemetry", "counters"))?,
                    "telemetry.counters",
                )?;
                let histograms = t
                    .get("histograms")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| missing("telemetry", "histograms"))?
                    .iter()
                    .map(|(name, buckets)| {
                        parse_counter_map(buckets, "telemetry.histograms")
                            .map(|b| (name.clone(), b))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(TelemetrySnapshot {
                    counters,
                    histograms,
                })
            }
        };

        let warmup_cycles = get_u64(doc, "top level", "warmup_cycles")?;

        // `engine` is optional for compatibility with pre-replay documents
        // (still schema 1): absent means the full simulation produced it.
        let engine = match doc.get("engine") {
            None => RunEngine::FullSim,
            Some(v) => {
                let label = v.as_str().ok_or_else(|| missing("top level", "engine"))?;
                RunEngine::from_label(label)
                    .ok_or_else(|| format!("report JSON: unknown engine \"{label}\""))?
            }
        };

        Ok(RunReport {
            output,
            metrics,
            warmup_cycles,
            fault_events,
            stats,
            breakdown,
            telemetry,
            engine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SmacheBuilder;
    use smache_stencil::GridSpec;

    fn small_report() -> RunReport {
        let mut system = SmacheBuilder::new(GridSpec::d2(8, 8).expect("grid"))
            .build()
            .expect("build");
        let input: Vec<u64> = (0..64).collect();
        system.run(&input, 2).expect("run")
    }

    #[test]
    fn report_serialises_with_schema_version() {
        let doc = small_report().to_json();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_i64),
            Some(REPORT_SCHEMA_VERSION)
        );
        assert!(doc.get("metrics").is_some());
        assert_eq!(doc.get("telemetry"), Some(&Json::Null));
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let report = small_report();
        let doc = report.to_json();
        let parsed = RunReport::from_json(&doc).expect("parse");
        assert_eq!(parsed.output, report.output);
        assert_eq!(parsed.metrics.cycles, report.metrics.cycles);
        assert_eq!(parsed.metrics.dram, report.metrics.dram);
        assert_eq!(parsed.stats, report.stats);
        assert_eq!(parsed.warmup_cycles, report.warmup_cycles);
        // Serialize → parse → serialize is byte-identical.
        assert_eq!(parsed.to_json().compact(), doc.compact());
        assert_eq!(parsed.to_json().pretty(), doc.pretty());
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut doc = small_report().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs[0].1 = Json::Int(999);
        }
        let err = RunReport::from_json(&doc).unwrap_err();
        assert!(err.contains("unsupported schema_version 999"), "{err}");
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        let err = RunReport::from_json(&Json::obj(vec![(
            "schema_version",
            Json::Int(REPORT_SCHEMA_VERSION),
        )]))
        .unwrap_err();
        assert!(err.contains("output"), "{err}");
        let err = RunReport::from_json(&Json::Null).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }
}
