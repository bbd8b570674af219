//! The `serve` workload: a closed loop of requests against an in-process
//! `smache_serve::start`.
//!
//! One sender thread keeps [`IN_FLIGHT_PER_WORKER`] × `nproc` requests in
//! flight and one receiver thread reads the responses, over a single
//! connection to the server's Unix socket (inside the working directory).
//! Requests go out in rounds of [`ROUND`]; a round's rate is the cell
//! updates it answered over its wall time, and the run reports the
//! fast-phase rate over its rounds (`stats::fast_phase_rate`), as the
//! batch workloads do over their calls.
//!
//! Traffic: spec popularity is Zipf over [`KNOWN`] specs, more than the
//! schedule cache holds. About a third of requests repeat a recent
//! (spec, seed) pair (result-cache hits answered on the reactor thread),
//! a few name a never-seen spec (a capture, then writes and evictions in
//! the caches and the store), and the rest are fresh seeds of known specs
//! (replays from the schedule cache or the store).
//!
//! A shorter pass of the same loop gives the serve-side per-layer metrics
//! of the traced `sweep` and `explore` runs ([`side_pass`]).

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use smache::system::ScheduleStore;
use smache_serve::{start, Listen, Request, RequestBody, ServeConfig, ServerHandle, ServerMetrics};
use smache_sim::hash::fingerprint128;
use smache_sim::Json;

use crate::gen::{Rng, Zipf};
use crate::specs::{fresh_problem, serve_problems, Problem, DESIGN_SEED};
use crate::stats::{fast_phase_rate, median, summarise};
use crate::trace::{SpanId, GROUP};
use crate::{Ctx, Metric, Outcome, SetupClock};

/// Known specs (popularity ranks of the Zipf draw).
pub const KNOWN: usize = 48;
/// Zipf exponent of spec popularity.
const ZIPF_S: f64 = 1.0;
/// Share of requests repeating a recent (spec, seed) pair.
const REPEAT_SHARE: f64 = 0.33;
/// Share of requests naming a never-seen spec.
const FRESH_SHARE: f64 = 0.03;
/// Repeats pick a pair sent between this many requests ago (beyond the
/// requests in flight, so its first response is back)...
const REPEAT_MIN_AGO: usize = 16;
/// ...and this many.
const REPEAT_MAX_AGO: usize = 64;
/// Requests in flight per server worker.
const IN_FLIGHT_PER_WORKER: usize = 4;
/// Requests per round.
const ROUND: usize = 1000;
/// Fewest rounds a run makes; the first warms the caches and is not rated.
const MIN_ROUNDS: usize = 6;
/// Result-cache budget (smaller than the run's distinct results).
const CACHE_BYTES: usize = 256 << 10;
/// Schedule-cache budget (smaller than the known specs' schedules).
const SCHEDULE_CACHE_BYTES: usize = 512 << 10;
/// One in this many responses is checked against a direct execution.
const CHECK_EVERY: usize = 250;
/// Cache hits sent one at a time after the loop (`reactor.hit_rtt_us`).
const HIT_PROBES: usize = 50;
/// Measuring time of the side pass of the traced batch runs, seconds.
const SIDE_SECONDS: f64 = 3.0;

/// A running server with its problem set.
pub struct State {
    handle: Option<ServerHandle>,
    known: Vec<Problem>,
    store_dir: PathBuf,
}

impl State {
    /// The known problems.
    pub fn problems(&self) -> Vec<Problem> {
        self.known.clone()
    }

    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server running")
    }
}

/// Starts a server with `workers = nproc` and small caches over `store`,
/// listening on a Unix socket next to the store.
fn start_server(ctx: &Ctx, store_dir: &Path, store_bytes: u64) -> ServerHandle {
    start(ServeConfig {
        listen: Listen::Unix(ctx.work.join(format!(
            "{}.sock",
            store_dir.file_name().and_then(|n| n.to_str()).unwrap_or("serve")
        ))),
        workers: ctx.threads,
        cache_bytes: CACHE_BYTES,
        schedule_cache_bytes: SCHEDULE_CACHE_BYTES,
        store_dir: Some(store_dir.to_path_buf()),
        store_bytes,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

/// Captures every known spec into a fresh store directory, then starts a
/// server over it with a little more room than the known set, so that
/// captures of never-seen specs evict.
fn fill_and_start(ctx: &Ctx, dir: &Path, known: &[Problem]) -> ServerHandle {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = ScheduleStore::open(dir, 0).expect("store opens");
    for (i, p) in known.iter().enumerate() {
        let line = p.request_line(&i.to_string(), 0).expect("expressible");
        let RequestBody::Run(run) = Request::parse_line(&line).expect("valid line").body else {
            unreachable!("a run request")
        };
        let (_, schedule) = run.execute_capture().expect("known specs capture");
        let schedule = schedule.expect("known specs are replayable");
        store
            .save(run.schedule_key().expect("replayable"), &schedule)
            .expect("store write");
    }
    let bytes = store.bytes();
    drop(store);
    start_server(ctx, dir, bytes + bytes / 5)
}

/// Set-up: fill the store by capturing every known spec, then start the
/// server. Returns the state and the set-up time; drawing the specs is
/// input generation and is not timed.
pub fn setup(ctx: &Ctx) -> (State, f64) {
    let known = serve_problems(DESIGN_SEED, KNOWN, "k");
    let dir = ctx.work.join("store");
    let t = Instant::now();
    let handle = fill_and_start(ctx, &dir, &known);
    let setup_s = t.elapsed().as_secs_f64();
    let state = State {
        handle: Some(handle),
        known,
        store_dir: dir,
    };
    (state, setup_s)
}

/// One more timed set-up into a scratch store; the server it starts is
/// stopped untimed.
pub fn setup_rep(ctx: &Ctx, known: &[Problem]) -> f64 {
    let dir = ctx.work.join("setup-store");
    let t = Instant::now();
    let handle = fill_and_start(ctx, &dir, known);
    let setup_s = t.elapsed().as_secs_f64();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    setup_s
}

/// Stops the server and removes its store.
pub fn teardown(mut state: State) {
    if let Some(h) = state.handle.take() {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&state.store_dir);
}

/// One planned request.
struct Planned {
    line: String,
    /// Index of the (spec, seed) pair among the run's pairs.
    pair: usize,
    target: Target,
    problem: Arc<Problem>,
}

/// Response class, from the `status`, the `cached` flag and the report's
/// `engine`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Hit,
    Replay,
    Capture,
    /// A typed rejection (`overloaded`, `deadline`): load, not a fault.
    Refused,
    /// An error line, or no response at all: the server is at fault.
    Error,
}

impl Class {
    fn ok(self) -> bool {
        matches!(self, Class::Hit | Class::Replay | Class::Capture)
    }

    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Replay => "replay",
            Class::Capture => "capture",
            Class::Refused => "refused",
            Class::Error => "error",
        }
    }
}

/// A 128-bit report fingerprint.
type Fp = (u64, u64);

/// One received response.
struct Got {
    at: Instant,
    class: Class,
    /// Fingerprint of the report text as served.
    fp: Fp,
    /// Fingerprint with the `engine` label normalised: a replayed and a
    /// simulated run of one (spec, seed) differ only there.
    fp_norm: Fp,
    text: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Target {
    Known(usize),
    Fresh(usize),
}

/// A (spec, seed) pair.
#[derive(Clone)]
struct Pair {
    id: usize,
    target: Target,
    seed: u64,
    problem: Arc<Problem>,
}

/// Draws request plans; shared across rounds so repeats and seeds stay
/// consistent over the whole run. It holds only the pairs that may still
/// repeat, so its memory does not grow with the run.
struct Planner {
    rng: Rng,
    zipf: Zipf,
    known: Vec<Arc<Problem>>,
    /// Never-seen specs drawn so far, and the next index to try.
    fresh: usize,
    next_fresh: usize,
    pairs: usize,
    next_seed: u64,
    /// The pairs of the last [`REPEAT_MAX_AGO`] requests, oldest first.
    recent: VecDeque<Pair>,
}

impl Planner {
    fn new(seed: u64, known: Vec<Problem>) -> Planner {
        Planner {
            rng: Rng::new(seed, "serve-mix"),
            zipf: Zipf::new(known.len(), ZIPF_S),
            known: known.into_iter().map(Arc::new).collect(),
            fresh: 0,
            next_fresh: 0,
            pairs: 0,
            next_seed: seed.wrapping_mul(1_000_003) % (1 << 40) + 1,
            recent: VecDeque::with_capacity(REPEAT_MAX_AGO + 1),
        }
    }

    fn new_pair(&mut self, target: Target, problem: Arc<Problem>) -> Pair {
        self.next_seed += 1;
        self.pairs += 1;
        Pair {
            id: self.pairs - 1,
            target,
            seed: self.next_seed,
            problem,
        }
    }

    fn request(&mut self, pair: Pair, id: usize) -> Planned {
        let planned = Planned {
            line: pair
                .problem
                .request_line(&id.to_string(), pair.seed)
                .expect("serve specs are expressible"),
            pair: pair.id,
            target: pair.target,
            problem: Arc::clone(&pair.problem),
        };
        self.recent.push_back(pair);
        if self.recent.len() > REPEAT_MAX_AGO {
            self.recent.pop_front();
        }
        planned
    }

    /// The next `count` requests of the mix, with ids from `first_id`.
    fn plan(&mut self, count: usize, first_id: usize) -> Vec<Planned> {
        (0..count)
            .map(|k| {
                let u = self.rng.unit();
                let n = self.recent.len();
                let pair = if u < REPEAT_SHARE && n == REPEAT_MAX_AGO {
                    let ago = self.rng.range(REPEAT_MIN_AGO as u64, REPEAT_MAX_AGO as u64) as usize;
                    self.recent[n - ago].clone()
                } else if u < REPEAT_SHARE + FRESH_SHARE {
                    let p = loop {
                        self.next_fresh += 1;
                        if let Some(p) = fresh_problem(self.next_fresh - 1) {
                            break p;
                        }
                    };
                    self.fresh += 1;
                    self.new_pair(Target::Fresh(self.fresh - 1), Arc::new(p))
                } else {
                    let rank = self.zipf.sample(&mut self.rng);
                    let p = Arc::clone(&self.known[rank]);
                    self.new_pair(Target::Known(rank), p)
                };
                self.request(pair, first_id + k)
            })
            .collect()
    }

    /// Repeats of the `count` most recent distinct pairs: cache hits.
    fn repeat_recent(&mut self, count: usize, first_id: usize) -> Vec<Planned> {
        let mut seen = HashSet::new();
        let recent: Vec<Pair> = self
            .recent
            .iter()
            .rev()
            .filter(|p| seen.insert(p.id))
            .take(count)
            .cloned()
            .collect();
        recent
            .into_iter()
            .enumerate()
            .map(|(k, pair)| self.request(pair, first_id + k))
            .collect()
    }
}

/// What one round measured.
struct Round {
    planned: Vec<Planned>,
    sent: Vec<Instant>,
    got: Vec<Option<Got>>,
    start: Instant,
    /// The last response (or when the receiver gave up).
    end: Instant,
    /// `serve.queue.depth`, sampled at every send.
    depth: Vec<f64>,
}

impl Round {
    fn ok(&self, j: usize) -> Option<&Got> {
        self.got[j].as_ref().filter(|g| g.class.ok())
    }

    /// Round trip of request `j` from its send, ms.
    fn rtt_ms(&self, j: usize) -> Option<f64> {
        self.ok(j)
            .map(|g| g.at.saturating_duration_since(self.sent[j]).as_secs_f64() * 1e3)
    }

    /// Cell updates answered per second.
    fn rate(&self) -> f64 {
        let cells: u64 = (0..self.planned.len())
            .filter(|&j| self.ok(j).is_some())
            .map(|j| self.planned[j].problem.cell_updates())
            .sum();
        cells as f64 / (self.end - self.start).as_secs_f64()
    }
}

const REPLAY_LABEL: &str = "\"engine\":\"replay\"";
const ENGINE_KEY: &str = "\"engine\":\"";

/// Fingerprint of a report with its `engine` value left out.
fn engine_blind_fp(report: &str) -> Fp {
    let Some(at) = report.find(ENGINE_KEY).map(|i| i + ENGINE_KEY.len()) else {
        return fingerprint128(report.as_bytes());
    };
    let end = report[at..].find('"').map_or(report.len(), |i| at + i);
    let (a, b) = (
        fingerprint128(&report.as_bytes()[..at]),
        fingerprint128(&report.as_bytes()[end..]),
    );
    (a.0 ^ b.0.rotate_left(17), a.1 ^ b.1.rotate_left(29))
}

fn class_of(line: &str) -> Class {
    if line.contains("\"status\":\"rejected\"") {
        Class::Refused
    } else if !line.contains("\"status\":\"ok\"") {
        Class::Error
    } else if line.contains("\"cached\":true") {
        Class::Hit
    } else if line.contains(REPLAY_LABEL) {
        Class::Replay
    } else {
        Class::Capture
    }
}

/// The `report` payload of an ok line.
fn report_text(line: &str) -> &str {
    line.find("\"report\":")
        .map(|i| &line[i + 9..line.len() - 1])
        .unwrap_or("")
}

fn parse_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    rest[..rest.find('"')?].parse().ok()
}

/// Sends one round closed-loop, at most `in_flight` requests outstanding,
/// and collects every response; the text of request `j` is kept when
/// `keep[j]` (or when it is not ok).
fn run_round(
    stream: &UnixStream,
    reader: &mut BufReader<UnixStream>,
    metrics: &ServerMetrics,
    planned: Vec<Planned>,
    first_id: usize,
    in_flight: usize,
    keep: &[bool],
) -> Round {
    let n = planned.len();
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<()>();
    let lines = &planned;
    let ((sent, depth), (got, end)) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut w = stream;
            let mut sent = vec![start; n];
            let mut depth = Vec::with_capacity(n);
            for (j, p) in lines.iter().enumerate() {
                // Wait for a response once the window is full; the
                // receiver hangs up when it gives up.
                if j >= in_flight && rx.recv().is_err() {
                    break;
                }
                sent[j] = Instant::now();
                if w.write_all(format!("{}\n", p.line).as_bytes()).is_err() {
                    break;
                }
                depth.push(metrics.counter("serve.queue.depth") as f64);
            }
            (sent, depth)
        });
        let receiver = s.spawn(move || {
            let mut got: Vec<Option<Got>> = (0..n).map(|_| None).collect();
            let mut line = Vec::new();
            let (mut count, mut last) = (0, Instant::now());
            while count < n && last.elapsed() < Duration::from_secs(30) {
                match reader.read_until(b'\n', &mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with(b"\n") => {
                        let at = Instant::now();
                        let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                        line.clear();
                        let Some(idx) = parse_id(&text)
                            .and_then(|i| i.checked_sub(first_id))
                            .filter(|&i| i < n)
                        else {
                            continue;
                        };
                        let class = class_of(&text);
                        let report = report_text(&text);
                        got[idx] = Some(Got {
                            at,
                            class,
                            fp: fingerprint128(report.as_bytes()),
                            fp_norm: engine_blind_fp(report),
                            text: (keep[idx] || !class.ok()).then_some(text),
                        });
                        count += 1;
                        last = at;
                        let _ = tx.send(());
                    }
                    Ok(_) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => break,
                }
            }
            (got, last)
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    Round {
        planned,
        sent,
        got,
        start,
        end,
        depth,
    }
}

fn connect(handle: &ServerHandle) -> (UnixStream, BufReader<UnixStream>) {
    let path = handle.addr().strip_prefix("unix:").expect("unix listener");
    let stream = UnixStream::connect(path).expect("connect to the server socket");
    let read = stream.try_clone().expect("clone stream");
    read.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    (stream, BufReader::new(read))
}

/// Asks for a `stats` snapshot so the server publishes its gauges.
fn publish_stats(stream: &UnixStream, reader: &mut BufReader<UnixStream>) {
    let mut w = stream;
    w.write_all(b"{\"cmd\":\"stats\",\"id\":\"stats\"}\n")
        .expect("stats request");
    let mut line = Vec::new();
    let give_up = Instant::now() + Duration::from_secs(10);
    while Instant::now() < give_up {
        match reader.read_until(b'\n', &mut line) {
            Ok(_) if line.ends_with(b"\n") => {
                if line.starts_with(b"{\"id\":\"stats\"") {
                    return;
                }
                line.clear();
            }
            Ok(0) => return,
            _ => {}
        }
    }
}

const COUNTERS: &[&str] = &[
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.schedule_cache.hits",
    "serve.schedule_cache.misses",
    "serve.store.hits",
    "serve.store.misses",
    "serve.bufpool.reused",
    "serve.bufpool.allocated",
];

fn counters(m: &ServerMetrics) -> Vec<u64> {
    COUNTERS.iter().map(|n| m.counter(n)).collect()
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Cache, store and buffer-pool ratios from counter deltas.
fn counter_metrics(d: &[u64]) -> Vec<Metric> {
    let m = |name: &str, a: usize| {
        let n = d[a] + d[a + 1];
        Metric::new(name, d[a] as f64 / n.max(1) as f64, "share", n as usize)
    };
    vec![
        m("cache.result_hit_ratio", 0),
        m("cache.schedule_hit_ratio", 2),
        m("store.hit_ratio", 4),
        m("reactor.bufpool_reuse_ratio", 6),
    ]
}

/// Runs rounds for the measuring time, checking each round's responses
/// and calling `clock` after it, then the serial cache-hit probe.
pub fn measure(ctx: &Ctx, state: &mut State, root: SpanId, clock: &mut SetupClock) -> Outcome {
    let tracer = ctx.tracer;
    let handle = state.handle();
    let metrics = handle.metrics();
    let (stream, mut reader) = connect(handle);
    let mut planner = Planner::new(ctx.seed, state.known.clone());
    let in_flight = IN_FLIGHT_PER_WORKER * ctx.threads;
    let before = counters(metrics);
    let mut tally = Tally::default();
    let mut requested: HashSet<Target> = HashSet::new();
    let (mut rounds, mut next_id) = (0, 0);
    let started = Instant::now();
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < ctx.seconds {
        let planned = tracer.span("plan requests", "bench", root, |_| {
            planner.plan(ROUND, next_id)
        });
        // Keep texts to check (one in CHECK_EVERY) and the first response
        // of every known spec, which prices its simulated cost.
        let keep: Vec<bool> = planned
            .iter()
            .enumerate()
            .map(|(j, p)| {
                let first = matches!(p.target, Target::Known(_)) && requested.insert(p.target);
                (next_id + j).is_multiple_of(CHECK_EVERY) || first
            })
            .collect();
        let span = tracer.open("round", GROUP, root);
        let round = run_round(
            &stream,
            &mut reader,
            metrics,
            planned,
            next_id,
            in_flight,
            &keep,
        );
        tracer.close(span);
        record_requests(ctx, &round, span, next_id);
        tracer.span("checks", "check", root, |_| {
            tally.add(&round, next_id, rounds > 0)
        });
        next_id += round.planned.len();
        rounds += 1;
        clock.tick();
    }
    let requests_s = started.elapsed().as_secs_f64();

    // Cache hits one at a time: the reactor's own round trip.
    let planned = planner.repeat_recent(HIT_PROBES, next_id);
    let keep = vec![false; planned.len()];
    let span = tracer.open("hit probe", GROUP, root);
    let probe = run_round(&stream, &mut reader, metrics, planned, next_id, 1, &keep);
    tracer.close(span);
    record_requests(ctx, &probe, span, next_id);
    tally.add(&probe, next_id, false);
    let hit_rtt: Vec<f64> = (0..probe.planned.len())
        .filter(|&j| probe.ok(j).is_some_and(|g| g.class == Class::Hit))
        .filter_map(|j| probe.rtt_ms(j))
        .collect();
    publish_stats(&stream, &mut reader);
    let d: Vec<u64> = counters(metrics)
        .iter()
        .zip(&before)
        .map(|(a, b)| a - b)
        .collect();

    let t = &tally;
    let rtt: Vec<f64> = t.rtt_ms.values().flatten().copied().collect();
    let rtt_sum = summarise(&rtt);
    let mut rtt_tail = Metric::new("serve.rtt_tail_ms", rtt_sum.tail, "ms", rtt_sum.n);
    rtt_tail.note = format!("p{} of every ok response's round trip", rtt_sum.tail_p);
    let per_cell = |v: u64| v as f64 / t.priced_updates.max(1) as f64;
    let e2e = vec![
        Metric::new(
            "cell_updates_per_s",
            fast_phase_rate(&t.rates),
            "1/s",
            t.rates.len(),
        ),
        Metric::new(
            "sim_cycles_per_cell",
            per_cell(t.priced_cycles),
            "cycles",
            t.priced.len(),
        ),
        Metric::new(
            "dram_bytes_per_cell",
            per_cell(t.priced_bytes),
            "B",
            t.priced.len(),
        ),
        Metric::new("peak_rss_mb", crate::peak_rss_mb(), "MB", 1),
        Metric::new("serve.rtt_p50_ms", rtt_sum.p50, "ms", rtt_sum.n),
        rtt_tail,
    ];

    let mut layer = Vec::new();
    let (mut wait, mut waited) = (0.0, 0usize);
    for c in [Class::Hit, Class::Replay, Class::Capture] {
        let v = t.rtt_ms.get(c.name()).map_or(&[][..], Vec::as_slice);
        let p50 = median_or_zero(v);
        layer.push(Metric::new(
            &format!("serve.class_p50_ms.{}", c.name()),
            p50,
            "ms",
            v.len(),
        ));
        if let Some(exec) = t.exec_ms.get(c.name()).filter(|e| !e.is_empty()) {
            wait += (p50 - median(exec)) * v.len() as f64;
            waited += v.len();
        }
    }
    let mut wait_m = Metric::new("pool.wait_ms", wait / waited.max(1) as f64, "ms", waited);
    wait_m.note = "class round trip minus the class's direct execution time".into();
    layer.push(wait_m);
    layer.push(Metric::new(
        "reactor.hit_rtt_us",
        median_or_zero(&hit_rtt) * 1e3,
        "us",
        hit_rtt.len(),
    ));
    layer.push(Metric::new(
        "pool.queue_depth_mean",
        t.depth_sum / t.depth_n.max(1) as f64,
        "jobs",
        t.depth_n,
    ));
    layer.push(Metric::new(
        "pool.rejected_share",
        t.rated_refused as f64 / t.rated_sent.max(1) as f64,
        "share",
        t.rated_sent,
    ));
    layer.extend(counter_metrics(&d));
    Outcome {
        attempted: tally.attempted,
        failed: tally.wrong + tally.refused,
        wrong: tally.wrong,
        notes: tally.notes,
        e2e,
        layer,
        busy_wall_s: requests_s,
    }
}

/// One span per request, from its send to its response, in the layer that
/// answered it.
fn record_requests(ctx: &Ctx, round: &Round, parent: SpanId, first_id: usize) {
    if !ctx.tracer.on() {
        return;
    }
    for (j, g) in round.got.iter().enumerate() {
        let end = g.as_ref().map_or(round.end, |g| g.at);
        let layer = match g.as_ref().map(|g| g.class) {
            Some(Class::Hit) => "reactor",
            Some(Class::Replay) => "replay",
            Some(Class::Capture) => "system",
            _ => "refused",
        };
        let req = Some((first_id + j) as u64);
        ctx.tracer
            .record("request", layer, parent, req, round.sent[j], end);
    }
}

/// What the rounds measured and what their checks found, kept small so
/// the client's memory does not grow with the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    wrong: u64,
    refused: u64,
    notes: Vec<String>,
    /// Per rated round: cell updates answered per second.
    rates: Vec<f64>,
    /// Round trips of rated rounds' ok responses by class, ms.
    rtt_ms: HashMap<&'static str, Vec<f64>>,
    depth_sum: f64,
    depth_n: usize,
    rated_sent: usize,
    rated_refused: usize,
    /// Per pair that may still repeat: the request index it was last
    /// sent at, the normalised fingerprint of its first response, and
    /// every report text served for it.
    seen: HashMap<usize, (usize, Fp, Vec<Fp>)>,
    /// Direct execution times of checked requests by class, ms.
    exec_ms: HashMap<&'static str, Vec<f64>>,
    /// Known specs priced so far, with their simulated totals.
    priced: HashSet<Target>,
    priced_cycles: u64,
    priced_bytes: u64,
    priced_updates: u64,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.wrong += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    /// Takes in one round whose first request had id `first_id`.
    /// Correctness, outside the timed region: every response of a pair
    /// matches its first one modulo the `engine` label, a cache hit repeats
    /// a served text byte for byte, and one response in [`CHECK_EVERY`]
    /// equals a direct `RunRequest::execute` of the same line.
    fn add(&mut self, round: &Round, first_id: usize, rated: bool) {
        let n = round.planned.len();
        self.attempted += n as u64;
        if rated {
            self.rates.push(round.rate());
            self.depth_sum += round.depth.iter().sum::<f64>();
            self.depth_n += round.depth.len();
            self.rated_sent += n;
        }
        for (j, p) in round.planned.iter().enumerate() {
            let Some(g) = round.ok(j) else {
                match round.got[j].as_ref() {
                    Some(g) if g.class == Class::Refused => {
                        self.refused += 1;
                        self.rated_refused += rated as usize;
                    }
                    g => {
                        let why = g.and_then(|g| g.text.clone());
                        self.fail(why.unwrap_or_else(|| format!("no response: {}", p.line)));
                    }
                }
                continue;
            };
            if rated {
                let rtt = round.rtt_ms(j).expect("ok responses have a round trip");
                self.rtt_ms.entry(g.class.name()).or_default().push(rtt);
            }
            let at = first_id + j;
            match self.seen.get_mut(&p.pair) {
                Some((last, norm, texts)) => {
                    *last = at;
                    let why = if *norm != g.fp_norm {
                        "report differs from its first response"
                    } else if g.class == Class::Hit && !texts.contains(&g.fp) {
                        "cache hit not byte-identical to a served report"
                    } else {
                        ""
                    };
                    texts.push(g.fp);
                    if !why.is_empty() {
                        self.fail(format!("pair {}: {why}", p.pair));
                    }
                }
                None => {
                    self.seen.insert(p.pair, (at, g.fp_norm, vec![g.fp]));
                }
            }
            let Some(text) = g.text.as_deref() else {
                continue;
            };
            if matches!(p.target, Target::Known(_)) && !self.priced.contains(&p.target) {
                self.price(p, text);
            }
            if at.is_multiple_of(CHECK_EVERY) {
                match check_direct(&p.line, text, g.class) {
                    Ok(Some(ms)) => self.exec_ms.entry(g.class.name()).or_default().push(ms),
                    Ok(None) => {}
                    Err(e) => {
                        let label = &p.problem.label;
                        self.fail(format!("{label} ({}): {e}", g.class.name()));
                    }
                }
            }
        }
        // A pair repeats only within REPEAT_MAX_AGO requests of its last
        // send; older ones are done.
        let horizon = (first_id + n).saturating_sub(REPEAT_MAX_AGO + 1);
        self.seen.retain(|_, (last, _, _)| *last >= horizon);
    }

    /// Adds a known spec's simulated cycles and traffic, from its report:
    /// they depend on the spec alone.
    fn price(&mut self, p: &Planned, text: &str) {
        let Ok(doc) = Json::parse(report_text(text)) else {
            return;
        };
        let m = doc.get("metrics");
        let dram = m.and_then(|m| m.get("dram"));
        let get = |j: Option<&Json>, k: &str| {
            j.and_then(|j| j.get(k)).and_then(Json::as_u64).unwrap_or(0)
        };
        self.priced.insert(p.target);
        self.priced_cycles += get(m, "cycles");
        self.priced_bytes += get(dram, "bytes_read") + get(dram, "bytes_written");
        self.priced_updates += p.problem.cell_updates();
    }
}

/// Re-runs a request line with `RunRequest::execute` and compares the
/// result with the served report, ignoring only the `engine` label. For a
/// replayed or captured response, also times the call the server made
/// (`execute_replay` on a fresh capture, or `execute_capture`), in ms.
fn check_direct(line: &str, response: &str, class: Class) -> Result<Option<f64>, String> {
    let RequestBody::Run(run) = Request::parse_line(line).map_err(|e| e.to_string())?.body else {
        return Err("not a run request".into());
    };
    let want = run
        .execute()
        .map_err(|e| format!("direct execute failed: {e}"))?;
    let got = Json::parse(report_text(response)).map_err(|e| format!("bad report JSON: {e}"))?;
    let strip = |j: Json| match j {
        Json::Obj(pairs) => Json::Obj(pairs.into_iter().filter(|(k, _)| k != "engine").collect()),
        other => other,
    };
    if strip(want) != strip(got) {
        return Err(format!("served report differs from direct execute: {line}"));
    }
    if class == Class::Hit {
        return Ok(None);
    }
    let t = Instant::now();
    let (_, schedule) = run
        .execute_capture()
        .map_err(|e| format!("direct capture failed: {e}"))?;
    let capture_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(match (class, schedule) {
        (Class::Capture, _) => Some(capture_ms),
        (Class::Replay, Some(schedule)) => {
            let t = Instant::now();
            run.execute_replay(&schedule)
                .map_err(|e| format!("direct replay failed: {e}"))?;
            Some(t.elapsed().as_secs_f64() * 1e3)
        }
        _ => None,
    })
}

/// A short pass of the serve loop against a fresh server, for the
/// serve-side per-layer metrics of workloads that do not serve.
pub fn side_pass(ctx: &Ctx, parent: SpanId) -> Outcome {
    let short = Ctx {
        seed: ctx.seed,
        seconds: SIDE_SECONDS.min(ctx.seconds),
        threads: ctx.threads,
        tracer: ctx.tracer,
        work: ctx.work.join("side"),
    };
    std::fs::create_dir_all(&short.work).expect("side pass directory");
    let (mut state, _) = setup(&short);
    let outcome = measure(&short, &mut state, parent, &mut SetupClock::idle());
    teardown(state);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64) -> Vec<String> {
        let known = serve_problems(DESIGN_SEED, KNOWN, "k");
        let mut planner = Planner::new(seed, known);
        let mut out: Vec<String> = planner.plan(600, 0).into_iter().map(|p| p.line).collect();
        out.extend(planner.repeat_recent(10, 600).into_iter().map(|p| p.line));
        out
    }

    #[test]
    fn request_plan_is_deterministic_per_seed() {
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
    }

    #[test]
    fn request_mix_repeats_and_adds_never_seen_specs() {
        let known = serve_problems(DESIGN_SEED, KNOWN, "k");
        let mut planner = Planner::new(3, known);
        let planned = planner.plan(3000, 0);
        let mut pairs = HashSet::new();
        let first: Vec<&Planned> = planned.iter().filter(|p| pairs.insert(p.pair)).collect();
        let repeats = planned.len() - first.len();
        let fresh = first
            .iter()
            .filter(|p| matches!(p.target, Target::Fresh(_)))
            .count();
        assert!(
            (900..1100).contains(&repeats),
            "about a third repeat: {repeats}"
        );
        assert!((50..140).contains(&fresh), "about 3 % never seen: {fresh}");
        // Ids run on from the first id, and repeats name recent pairs.
        assert!(planned[17].line.starts_with("{\"id\":\"17\""));
        let recent = planner.repeat_recent(5, 3000);
        assert!(
            planner.recent.len() <= REPEAT_MAX_AGO,
            "the planner forgets old pairs"
        );
        assert!(recent
            .iter()
            .all(|p| planned[2990..].iter().any(|q| q.pair == p.pair)));
    }
}
