//! The newline-delimited JSON request/response protocol.
//!
//! One request per line, one response per line. A request names a command
//! and, for run commands, a problem specification in exactly the
//! vocabulary the CLI accepts (the `spec` object's keys are
//! [`smache::spec::SPEC_KEYS`]):
//!
//! ```json
//! {"id":"r1","cmd":"simulate","spec":{"grid":"11x11","rows":"circular"},"seed":7,"instances":2}
//! ```
//!
//! Responses carry the request's `id` back (or `null`), a `status` of
//! `ok` / `rejected` / `error`, and for successful runs the versioned
//! [`RunReport`](smache::system::RunReport) JSON under `report` plus a
//! `cached` flag. Rejections are *typed*: `reason` is `overloaded`
//! (admission control), `deadline` (expired waiting in the queue, or
//! the run itself overran — checked again at completion write-back),
//! `draining` (server shutting down), or `idle_timeout` (the server
//! closed a connection with no traffic and no job in flight for longer
//! than its `--conn-idle-ms`; sent with `id: null` just before the
//! close).
//!
//! ## Content addressing
//!
//! Every run request has a [canonical text](RunRequest::canonical) built
//! from the spec's canonical form plus the run parameters that affect the
//! result — and nothing else (`id`, `deadline_ms` and `replay` are
//! excluded; schedule replay is bit-exact, so the replay mode never
//! changes the report).
//! Equivalent spellings canonicalise identically, and the 128-bit
//! [`fingerprint`](RunRequest::cache_key) of that text is the result-cache
//! key. This is sound because runs are deterministic: a `(spec, seed,
//! fault plan, trace options)` tuple names exactly one report.

use std::sync::Arc;

use smache::arch::kernel::AverageKernel;
use smache::spec::{seeded_input, ProblemSpec, SPEC_KEYS};
use smache::system::{CaptureOutcome, ControlSchedule, ReplayMode};
use smache_mem::{ChaosProfile, FaultPlan};
use smache_sim::hash::fingerprint128;
use smache_sim::{Json, TelemetryConfig};

/// Protocol revision spoken by this build (bumped on breaking changes).
pub const PROTOCOL_VERSION: i64 = 1;

/// What kind of run a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// Plan only: run Algorithm 1 and return the buffer split. No
    /// simulation, cheap, still cacheable.
    Plan,
    /// Cycle-accurate simulation of the specified problem.
    Simulate,
    /// Simulation under a seeded fault-injection plan.
    Chaos,
    /// Simulation with telemetry attached; the report carries the
    /// counters and histograms.
    Trace,
}

impl RunKind {
    /// The wire name (also the `cmd` value that selects this kind).
    pub fn label(&self) -> &'static str {
        match self {
            RunKind::Plan => "plan",
            RunKind::Simulate => "simulate",
            RunKind::Chaos => "chaos",
            RunKind::Trace => "trace",
        }
    }
}

/// A fully parsed, validated run request.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// What to run.
    pub kind: RunKind,
    /// The problem, parsed through the shared schema.
    pub spec: ProblemSpec,
    /// Input-generation seed (`seeded_input`).
    pub seed: u64,
    /// Work instances (timesteps) to simulate.
    pub instances: u64,
    /// Chaos profile name (canonical; `"off"` unless `kind` is `Chaos`).
    pub profile: String,
    /// Fault-plan seed (chaos runs only).
    pub chaos_seed: u64,
    /// How the server may use cached control schedules for this request,
    /// mirroring the CLI's `--replay` flag: `Auto` (default) replays when
    /// a sound schedule exists, `On` demands replay eligibility (a refusal
    /// is an error, not a silent fallback), `Off` always runs the full
    /// simulation. Replay is bit-exact, so this knob never changes the
    /// result — it is excluded from [`canonical`](Self::canonical).
    pub replay: ReplayMode,
    /// Per-request deadline in milliseconds, measured from admission.
    /// Checked twice: at dequeue (expired jobs are dropped before
    /// burning a worker) and again at completion write-back (a run that
    /// overran its promise is answered `rejected`/`deadline`, though its
    /// result still populates the cache for the next request).
    pub deadline_ms: Option<u64>,
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<String>,
    /// The command.
    pub body: RequestBody,
}

/// The command a request carries.
#[derive(Debug, Clone)]
pub enum RequestBody {
    /// Execute (or serve from cache) a run.
    Run(Box<RunRequest>),
    /// Snapshot the server's metrics.
    Stats,
    /// Begin a graceful drain: finish queued work, then exit.
    Shutdown,
}

const TOP_KEYS: &[&str] = &[
    "cmd",
    "id",
    "spec",
    "seed",
    "instances",
    "profile",
    "chaos-seed",
    "replay",
    "deadline_ms",
];

impl Request {
    /// Parses one request line. Errors are human-readable strings that go
    /// straight into an `error` response.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let obj = doc.as_obj().ok_or("request must be a JSON object")?;
        for (key, _) in obj {
            if !TOP_KEYS.contains(&key.as_str()) {
                return Err(format!("unknown request key `{key}`"));
            }
        }
        let id = doc.get("id").and_then(Json::as_str).map(String::from);
        let cmd = doc
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing `cmd`")?;

        let kind = match cmd {
            "stats" => {
                return Ok(Request {
                    id,
                    body: RequestBody::Stats,
                })
            }
            "shutdown" => {
                return Ok(Request {
                    id,
                    body: RequestBody::Shutdown,
                })
            }
            "plan" => RunKind::Plan,
            "simulate" => RunKind::Simulate,
            "chaos" => RunKind::Chaos,
            "trace" => RunKind::Trace,
            other => {
                return Err(format!(
                    "unknown cmd `{other}` (plan|simulate|chaos|trace|stats|shutdown)"
                ))
            }
        };

        let spec = parse_spec(&doc)?;
        let seed = opt_u64(&doc, "seed")?.unwrap_or(0);
        let instances = opt_u64(&doc, "instances")?.unwrap_or(1);
        if instances == 0 {
            return Err("`instances` must be >= 1".to_string());
        }
        if kind != RunKind::Plan {
            spec.passes(instances).map_err(|e| e.to_string())?;
        }
        let deadline_ms = opt_u64(&doc, "deadline_ms")?;

        let replay = match doc.get("replay") {
            None => ReplayMode::Auto,
            Some(v) => {
                let name = v.as_str().ok_or("`replay` must be a string")?;
                ReplayMode::from_label(name)
                    .ok_or_else(|| format!("unknown replay mode `{name}` (auto|on|off)"))?
            }
        };

        let (profile, chaos_seed) = if kind == RunKind::Chaos {
            let name = doc.get("profile").and_then(Json::as_str).unwrap_or("heavy");
            if ChaosProfile::from_name(name).is_none() {
                return Err(format!(
                    "unknown chaos profile `{name}` (off|jitter|storms|drain|heavy|flip:<k>)"
                ));
            }
            (
                name.to_string(),
                opt_u64(&doc, "chaos-seed")?.unwrap_or(seed),
            )
        } else {
            if doc.get("profile").is_some() || doc.get("chaos-seed").is_some() {
                return Err(format!(
                    "`profile`/`chaos-seed` only apply to cmd `chaos`, not `{cmd}`"
                ));
            }
            ("off".to_string(), 0)
        };

        Ok(Request {
            id,
            body: RequestBody::Run(Box::new(RunRequest {
                kind,
                spec,
                seed,
                instances,
                profile,
                chaos_seed,
                replay,
                deadline_ms,
            })),
        })
    }
}

fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn parse_spec(doc: &Json) -> Result<ProblemSpec, String> {
    let mut map = std::collections::BTreeMap::new();
    if let Some(spec) = doc.get("spec") {
        let pairs = spec.as_obj().ok_or("`spec` must be an object")?;
        for (key, value) in pairs {
            if !SPEC_KEYS.contains(&key.as_str()) {
                return Err(format!("unknown spec key `{key}`"));
            }
            let text = value
                .as_str()
                .map(String::from)
                .or_else(|| value.as_i64().map(|i| i.to_string()))
                .ok_or_else(|| format!("spec key `{key}` must be a string"))?;
            map.insert(key.clone(), text);
        }
    }
    ProblemSpec::from_source(&map).map_err(|e| e.to_string())
}

impl RunRequest {
    /// The canonical request text: everything that determines the result,
    /// nothing that doesn't. Equivalent requests produce byte-identical
    /// canonical texts.
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "v{PROTOCOL_VERSION};cmd={};spec={}",
            self.kind.label(),
            self.spec.canonical()
        );
        match self.kind {
            RunKind::Plan => {}
            RunKind::Simulate | RunKind::Trace => {
                s.push_str(&format!(";seed={};instances={}", self.seed, self.instances));
            }
            RunKind::Chaos => {
                s.push_str(&format!(
                    ";seed={};instances={};chaos={}:{}",
                    self.seed, self.instances, self.profile, self.chaos_seed
                ));
            }
        }
        s
    }

    /// The content-address of this request: the 128-bit fingerprint of
    /// [`canonical`](Self::canonical).
    pub fn cache_key(&self) -> (u64, u64) {
        fingerprint128(self.canonical().as_bytes())
    }

    /// Runs the request to completion on the calling thread and returns
    /// the result JSON (a versioned report, or a plan summary).
    pub fn execute(&self) -> Result<Json, String> {
        if self.kind == RunKind::Plan {
            let plan = self.spec.builder().plan().map_err(|e| e.to_string())?;
            return Ok(Json::obj(vec![
                ("spec", Json::str(self.spec.canonical())),
                ("capacity", Json::Int(plan.capacity as i64)),
                ("lookahead", Json::Int(plan.lookahead as i64)),
                ("lookback", Json::Int(plan.lookback as i64)),
                (
                    "taps",
                    Json::Arr(plan.taps.iter().map(|&t| Json::Int(t as i64)).collect()),
                ),
                (
                    "static_buffers",
                    Json::Int(plan.static_buffers.len() as i64),
                ),
                ("n_cases", Json::Int(plan.n_cases as i64)),
            ]));
        }

        self.run(ReplayMode::Off).map(|(report, _)| report)
    }

    /// The request's fault plan (inactive unless `kind` is `Chaos`).
    fn fault_plan(&self) -> Result<FaultPlan, String> {
        if self.kind != RunKind::Chaos {
            return Ok(FaultPlan::default());
        }
        let profile = ChaosProfile::from_name(&self.profile)
            .ok_or_else(|| format!("unknown chaos profile `{}`", self.profile))?;
        Ok(FaultPlan::new(self.chaos_seed, profile))
    }

    /// The canonical text of the control *schedule* this request would
    /// exercise: the spec plus the instance count, **no data seed** — that
    /// is what lets differing-seed requests for one spec share a schedule.
    /// `Some` for plain `simulate` runs and for `chaos` runs whose profile
    /// is latency-only (faults that stretch timing without corrupting
    /// data leave the control plane a pure function of the spec and the
    /// chaos seed, so the chaos suffix joins the key and the data seed
    /// still does not). Plan requests have no schedule; trace runs and
    /// corrupting chaos profiles are not replay-eligible.
    pub fn schedule_canonical(&self) -> Option<String> {
        let chaos_active = match self.kind {
            RunKind::Simulate => false,
            RunKind::Chaos => {
                let profile = ChaosProfile::from_name(&self.profile)?;
                if !profile.is_latency_only() {
                    return None;
                }
                FaultPlan::new(self.chaos_seed, profile).is_active()
            }
            _ => return None,
        };
        let mut text = format!(
            "sched-v{PROTOCOL_VERSION};spec={};instances={}",
            self.spec.canonical(),
            self.instances
        );
        if chaos_active {
            text.push_str(&format!(";chaos={}:{}", self.profile, self.chaos_seed));
        }
        Some(text)
    }

    /// The schedule-cache key: the 128-bit fingerprint of
    /// [`schedule_canonical`](Self::schedule_canonical).
    pub fn schedule_key(&self) -> Option<(u64, u64)> {
        self.schedule_canonical()
            .map(|t| fingerprint128(t.as_bytes()))
    }

    /// Like [`execute`](Self::execute), but additionally captures the
    /// run's [`ControlSchedule`] so later same-spec requests can replay it.
    /// Applies to every request with a
    /// [`schedule_canonical`](Self::schedule_canonical) — plain `simulate`
    /// runs and latency-only `chaos` runs — under the request's `replay`
    /// mode ([`ReplayMode::capture_or_run`]): a typed capture refusal falls
    /// back to the plain run and returns `None` for the schedule, unless
    /// the request forces `replay: on`, which surfaces the refusal as an
    /// error; `replay: off` runs plainly. Only genuine run failures error
    /// otherwise.
    pub fn execute_capture(&self) -> Result<(Json, Option<Arc<ControlSchedule>>), String> {
        if self.schedule_canonical().is_none() {
            return self.execute().map(|r| (r, None));
        }
        self.run(self.replay)
    }

    /// Builds the request's engine once — the spec's geometry, with the
    /// request's fault plan, and telemetry for a `trace` run — and runs it
    /// under `mode`.
    fn run(&self, mode: ReplayMode) -> Result<(Json, Option<Arc<ControlSchedule>>), String> {
        let passes = self
            .spec
            .passes(self.instances)
            .map_err(|e| e.to_string())?;
        let input = seeded_input(self.spec.grid.len(), self.seed);
        let mut builder = self.spec.builder().fault_plan(self.fault_plan()?);
        if self.kind == RunKind::Trace {
            builder = builder.telemetry(TelemetryConfig::default());
        }
        let mut engine = builder.build().map_err(|e| e.to_string())?;
        let outcome = mode.capture_or_run(&mut engine, &input, passes);
        Ok(match outcome.map_err(|e| e.to_string())? {
            CaptureOutcome::Captured(report, schedule) => (report.to_json(), Some(schedule)),
            CaptureOutcome::FullSim(report) | CaptureOutcome::Fallback(report, _) => {
                (report.to_json(), None)
            }
        })
    }

    /// Replays a cached schedule over this request's seeded input instead
    /// of re-simulating. Bit-exact with [`execute`](Self::execute) for the
    /// spec the schedule was captured from; refusals (mismatched schedule)
    /// surface as errors for the caller to fall back on.
    pub fn execute_replay(&self, schedule: &ControlSchedule) -> Result<Json, String> {
        let input = seeded_input(self.spec.grid.len(), self.seed);
        let report = schedule
            .replay(&AverageKernel, &input)
            .map_err(|e| e.to_string())?;
        Ok(report.to_json())
    }
}

/// Builds a success response line. `report_text` is the already-compact
/// result JSON — it is embedded verbatim, so a cached report is handed
/// out byte-identically to the run that produced it.
pub fn ok_line(id: Option<&str>, cached: bool, report_text: &str) -> String {
    format!(
        "{{\"id\":{},\"status\":\"ok\",\"cached\":{cached},\"report\":{report_text}}}",
        id_json(id)
    )
}

/// Builds a typed rejection response line.
pub fn rejected_line(id: Option<&str>, reason: &str) -> String {
    Json::obj(vec![
        ("id", id_value(id)),
        ("status", Json::str("rejected")),
        ("reason", Json::str(reason)),
    ])
    .compact()
}

/// Builds an error response line.
pub fn error_line(id: Option<&str>, message: &str) -> String {
    Json::obj(vec![
        ("id", id_value(id)),
        ("status", Json::str("error")),
        ("error", Json::str(message)),
    ])
    .compact()
}

/// Builds the error line of a job that panicked: `reason` `internal`,
/// and the panic's message.
pub fn internal_line(id: Option<&str>, message: &str) -> String {
    Json::obj(vec![
        ("id", id_value(id)),
        ("status", Json::str("error")),
        ("reason", Json::str("internal")),
        ("error", Json::str(message)),
    ])
    .compact()
}

fn id_value(id: Option<&str>) -> Json {
    match id {
        Some(s) => Json::str(s),
        None => Json::Null,
    }
}

fn id_json(id: Option<&str>) -> String {
    id_value(id).compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> RunRequest {
        match Request::parse_line(line).expect("parses").body {
            RequestBody::Run(r) => *r,
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_full_simulate_request() {
        let r = run(
            r#"{"id":"r1","cmd":"simulate","spec":{"grid":"8x8","rows":"mirror"},"seed":7,"instances":2,"deadline_ms":500}"#,
        );
        assert_eq!(r.kind, RunKind::Simulate);
        assert_eq!(r.spec.grid.dims(), &[8, 8]);
        assert_eq!(r.seed, 7);
        assert_eq!(r.instances, 2);
        assert_eq!(r.deadline_ms, Some(500));
        assert_eq!(r.profile, "off");
    }

    #[test]
    fn defaults_match_the_cli() {
        let r = run(r#"{"cmd":"simulate"}"#);
        assert_eq!(r.spec.grid.dims(), &[11, 11]);
        assert_eq!(r.seed, 0);
        assert_eq!(r.instances, 1);
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn chaos_requests_carry_profile_and_seed() {
        let r = run(r#"{"cmd":"chaos","profile":"jitter","chaos-seed":3,"seed":9}"#);
        assert_eq!(r.kind, RunKind::Chaos);
        assert_eq!(r.profile, "jitter");
        assert_eq!(r.chaos_seed, 3);
        // chaos-seed defaults to seed.
        let r = run(r#"{"cmd":"chaos","seed":9}"#);
        assert_eq!(r.chaos_seed, 9);
        assert_eq!(r.profile, "heavy");
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("not json", "bad JSON"),
            ("[1,2]", "object"),
            (r#"{"id":"x"}"#, "missing `cmd`"),
            (r#"{"cmd":"frobnicate"}"#, "unknown cmd"),
            (r#"{"cmd":"simulate","bogus":1}"#, "unknown request key"),
            (
                r#"{"cmd":"simulate","spec":{"gird":"8x8"}}"#,
                "unknown spec key",
            ),
            (r#"{"cmd":"simulate","spec":{"grid":"abc"}}"#, "grid"),
            (r#"{"cmd":"simulate","seed":-1}"#, "non-negative"),
            (r#"{"cmd":"simulate","instances":0}"#, ">= 1"),
            (r#"{"cmd":"chaos","profile":"nope"}"#, "chaos profile"),
            (r#"{"cmd":"simulate","profile":"jitter"}"#, "only apply"),
        ] {
            let err = Request::parse_line(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn stats_and_shutdown_parse() {
        assert!(matches!(
            Request::parse_line(r#"{"cmd":"stats"}"#).unwrap().body,
            RequestBody::Stats
        ));
        assert!(matches!(
            Request::parse_line(r#"{"cmd":"shutdown","id":"bye"}"#)
                .unwrap()
                .body,
            RequestBody::Shutdown
        ));
    }

    #[test]
    fn canonical_ignores_spelling_id_and_deadline() {
        let a =
            run(r#"{"id":"a","cmd":"simulate","spec":{"grid":"11X11","rows":"wrap"},"seed":7}"#);
        let b = run(
            r#"{"id":"b","cmd":"simulate","spec":{"grid":"11x11","rows":"circular"},"seed":7,"deadline_ms":9}"#,
        );
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn canonical_separates_what_changes_the_result() {
        let base = run(r#"{"cmd":"simulate","seed":7}"#);
        for other in [
            run(r#"{"cmd":"simulate","seed":8}"#),
            run(r#"{"cmd":"simulate","seed":7,"instances":2}"#),
            run(r#"{"cmd":"trace","seed":7}"#),
            run(r#"{"cmd":"chaos","seed":7,"profile":"jitter"}"#),
            run(r#"{"cmd":"simulate","seed":7,"spec":{"grid":"11x12"}}"#),
        ] {
            assert_ne!(base.cache_key(), other.cache_key(), "{}", other.canonical());
        }
        // Plan requests ignore seed entirely.
        let p1 = run(r#"{"cmd":"plan","seed":1}"#);
        let p2 = run(r#"{"cmd":"plan","seed":2}"#);
        assert_eq!(p1.cache_key(), p2.cache_key());
    }

    #[test]
    fn execute_plan_and_simulate() {
        let plan = run(r#"{"cmd":"plan"}"#).execute().expect("plan");
        assert_eq!(plan.get("capacity").and_then(Json::as_i64), Some(25));
        assert_eq!(plan.get("n_cases").and_then(Json::as_i64), Some(9));

        let report = run(r#"{"cmd":"simulate","spec":{"grid":"8x8"},"seed":1}"#)
            .execute()
            .expect("simulate");
        assert_eq!(report.get("schema_version").and_then(Json::as_i64), Some(1));
        assert_eq!(
            report
                .get("output")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(64)
        );
        // Trace runs attach telemetry; plain runs don't.
        assert_eq!(report.get("telemetry"), Some(&Json::Null));
        let traced = run(r#"{"cmd":"trace","spec":{"grid":"8x8"},"seed":1}"#)
            .execute()
            .expect("trace");
        assert!(traced.get("telemetry").unwrap().get("counters").is_some());
    }

    #[test]
    fn schedule_keys_are_seed_blind_and_simulate_only() {
        let a = run(r#"{"cmd":"simulate","spec":{"grid":"8x8"},"seed":1,"instances":2}"#);
        let b = run(r#"{"cmd":"simulate","spec":{"grid":"8x8"},"seed":99,"instances":2}"#);
        assert_ne!(a.cache_key(), b.cache_key(), "result keys see the seed");
        assert_eq!(
            a.schedule_key(),
            b.schedule_key(),
            "schedule keys do not see the seed"
        );
        let c = run(r#"{"cmd":"simulate","spec":{"grid":"8x8"},"seed":1,"instances":3}"#);
        assert_ne!(a.schedule_key(), c.schedule_key(), "instances are keyed");
        for other in [
            run(r#"{"cmd":"plan"}"#),
            run(r#"{"cmd":"chaos","spec":{"grid":"8x8"},"profile":"flip:3"}"#),
            run(r#"{"cmd":"trace","spec":{"grid":"8x8"}}"#),
        ] {
            assert_eq!(other.schedule_key(), None, "{:?}", other.kind);
        }
    }

    #[test]
    fn latency_only_chaos_schedule_keys_see_the_chaos_seed_not_the_data_seed() {
        let chaos = |line: &str| {
            run(line)
                .schedule_key()
                .expect("latency-only chaos has a key")
        };
        let a = chaos(
            r#"{"cmd":"chaos","spec":{"grid":"8x8"},"profile":"jitter","chaos-seed":3,"seed":1,"instances":2}"#,
        );
        let b = chaos(
            r#"{"cmd":"chaos","spec":{"grid":"8x8"},"profile":"jitter","chaos-seed":3,"seed":42,"instances":2}"#,
        );
        assert_eq!(a, b, "the data seed is not part of a chaos schedule key");

        let other_chaos_seed = chaos(
            r#"{"cmd":"chaos","spec":{"grid":"8x8"},"profile":"jitter","chaos-seed":4,"seed":1,"instances":2}"#,
        );
        assert_ne!(a, other_chaos_seed, "the chaos seed forks the key");
        let other_profile = chaos(
            r#"{"cmd":"chaos","spec":{"grid":"8x8"},"profile":"storms","chaos-seed":3,"seed":1,"instances":2}"#,
        );
        assert_ne!(a, other_profile, "the profile forks the key");

        let plain = run(r#"{"cmd":"simulate","spec":{"grid":"8x8"},"seed":1,"instances":2}"#)
            .schedule_key()
            .expect("simulate has a key");
        assert_ne!(a, plain, "an active chaos plan never shares a plain key");
        // An inactive plan (`profile: off`) is byte-identical to plain
        // simulation, so it legitimately shares the plain schedule key.
        let off = chaos(
            r#"{"cmd":"chaos","spec":{"grid":"8x8"},"profile":"off","seed":1,"instances":2}"#,
        );
        assert_eq!(off, plain, "an inactive plan shares the plain key");
    }

    #[test]
    fn capture_then_replay_matches_plain_execute() {
        let a = run(r#"{"cmd":"simulate","spec":{"grid":"8x8"},"seed":1,"instances":2}"#);
        let (doc_a, schedule) = a.execute_capture().expect("capture");
        let schedule = schedule.expect("simulate runs capture a schedule");
        assert_eq!(doc_a.get("output"), a.execute().expect("run").get("output"));

        // A different seed replayed through the cached schedule matches a
        // fresh full simulation, word for word.
        let b = run(r#"{"cmd":"simulate","spec":{"grid":"8x8"},"seed":42,"instances":2}"#);
        let replayed = b.execute_replay(&schedule).expect("replay");
        let full = b.execute().expect("run");
        assert_eq!(replayed.get("output"), full.get("output"));
        assert_eq!(replayed.get("stats"), full.get("stats"));
        assert_eq!(
            replayed.get("engine").and_then(Json::as_str),
            Some("replay")
        );
        assert_eq!(full.get("engine").and_then(Json::as_str), Some("full_sim"));

        // Non-eligible kinds fall back inside execute_capture.
        let t = run(r#"{"cmd":"trace","spec":{"grid":"8x8"},"seed":1}"#);
        let (doc_t, none) = t.execute_capture().expect("trace capture");
        assert!(none.is_none());
        assert!(doc_t.get("telemetry").unwrap().get("counters").is_some());
    }

    #[test]
    fn latency_only_chaos_captures_and_replays_across_data_seeds() {
        let chaos = |seed: u64| {
            run(&format!(
                r#"{{"cmd":"chaos","spec":{{"grid":"8x8"}},"profile":"jitter","chaos-seed":3,"seed":{seed},"instances":2}}"#,
            ))
        };
        let (doc_a, schedule) = chaos(1).execute_capture().expect("capture");
        let schedule = schedule.expect("latency-only chaos captures a schedule");
        assert_eq!(
            doc_a.get("output"),
            chaos(1).execute().expect("run").get("output")
        );

        // A different data seed replayed through the captured chaotic
        // schedule matches a fresh chaotic full simulation, word for word
        // — including the fault metrics.
        let replayed = chaos(42).execute_replay(&schedule).expect("replay");
        let full = chaos(42).execute().expect("run");
        assert_eq!(replayed.get("output"), full.get("output"));
        assert_eq!(replayed.get("stats"), full.get("stats"));
        assert_eq!(replayed.get("metrics"), full.get("metrics"));
        assert_eq!(
            replayed.get("engine").and_then(Json::as_str),
            Some("replay")
        );
    }

    #[test]
    fn pipelined_requests_validate_fork_keys_and_replay() {
        // Parse-time validation: instances must divide by timesteps.
        for cmd in ["simulate", "trace"] {
            let err = Request::parse_line(&format!(
                r#"{{"cmd":"{cmd}","spec":{{"grid":"8x8","timesteps":3}},"instances":8}}"#
            ))
            .unwrap_err();
            assert!(err.contains("multiple of `timesteps`"), "{err}");
        }

        // The pipeline knobs fork both the result and the schedule key.
        let plain = run(r#"{"cmd":"simulate","spec":{"grid":"8x8"},"seed":1,"instances":4}"#);
        let piped = run(
            r#"{"cmd":"simulate","spec":{"grid":"8x8","timesteps":2,"channels":2},"seed":1,"instances":4}"#,
        );
        assert_ne!(plain.cache_key(), piped.cache_key());
        assert_ne!(plain.schedule_key(), piped.schedule_key());

        // Execute, capture, and cross-seed replay — all bit-exact. The
        // pipelined output equals the single-step output for the same
        // total timestep count (the very point of temporal blocking).
        let full = piped.execute().expect("pipelined run");
        assert_eq!(
            full.get("output"),
            plain.execute().expect("run").get("output")
        );
        assert_eq!(
            full.get("metrics")
                .unwrap()
                .get("name")
                .and_then(Json::as_str),
            Some("Smache-pipe2x2")
        );
        // A pipelined trace runs the same pipeline with telemetry attached.
        let traced = run(
            r#"{"cmd":"trace","spec":{"grid":"8x8","timesteps":2,"channels":2},"seed":1,"instances":4}"#,
        )
        .execute()
        .expect("pipelined trace");
        assert_eq!(traced.get("output"), full.get("output"));
        assert!(traced.get("telemetry").unwrap().get("counters").is_some());
        let (doc, schedule) = piped.execute_capture().expect("capture");
        let schedule = schedule.expect("pipelined simulate captures");
        assert_eq!(doc.get("output"), full.get("output"));
        let other = run(
            r#"{"cmd":"simulate","spec":{"grid":"8x8","timesteps":2,"channels":2},"seed":9,"instances":4}"#,
        );
        let replayed = other.execute_replay(&schedule).expect("replay");
        let fresh = other.execute().expect("run");
        assert_eq!(replayed.get("output"), fresh.get("output"));
        assert_eq!(replayed.get("stats"), fresh.get("stats"));
    }

    #[test]
    fn replay_mode_parses_and_never_touches_the_cache_key() {
        let r = run(r#"{"cmd":"simulate","seed":7,"replay":"off"}"#);
        assert_eq!(r.replay, ReplayMode::Off);
        assert_eq!(
            run(r#"{"cmd":"simulate","seed":7}"#).replay,
            ReplayMode::Auto
        );
        // Replay is bit-exact, so the mode is excluded from the canonical
        // text: all three spellings share one result-cache entry.
        let base = run(r#"{"cmd":"simulate","seed":7}"#);
        for mode in ["auto", "on", "off"] {
            let other = run(&format!(
                r#"{{"cmd":"simulate","seed":7,"replay":"{mode}"}}"#
            ));
            assert_eq!(base.cache_key(), other.cache_key(), "replay={mode}");
        }
        let err = Request::parse_line(r#"{"cmd":"simulate","replay":"maybe"}"#).unwrap_err();
        assert!(err.contains("auto|on|off"), "{err}");
        let err = Request::parse_line(r#"{"cmd":"simulate","replay":1}"#).unwrap_err();
        assert!(err.contains("string"), "{err}");
    }

    #[test]
    fn response_lines_are_valid_json() {
        let ok = ok_line(Some("r\"1"), true, r#"{"x":1}"#);
        let doc = Json::parse(&ok).expect("ok line parses");
        assert_eq!(doc.get("id").and_then(Json::as_str), Some("r\"1"));
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("report").unwrap().get("x").and_then(Json::as_i64),
            Some(1)
        );

        let rej = Json::parse(&rejected_line(None, "overloaded")).expect("parses");
        assert_eq!(rej.get("id"), Some(&Json::Null));
        assert_eq!(rej.get("reason").and_then(Json::as_str), Some("overloaded"));

        let err = Json::parse(&error_line(Some("x"), "boom")).expect("parses");
        assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
    }
}
