//! Load generator for `smache serve`: throughput, latency percentiles,
//! and cache effectiveness versus request repeat ratio — plus a
//! concurrency-ramp mode that stress-tests the epoll reactor.
//!
//! **Repeat-ratio sweep** (the default): for each repeat ratio
//! (0% / 50% / 100%) a fresh server is started on a Unix socket and
//! driven two ways:
//!
//! * **closed loop** — C client threads (sharded with the same
//!   [`run_batch`] primitive the simulator uses),
//!   each holding one connection and issuing requests in lockstep;
//!   per-request latencies give p50/p95/p99.
//! * **open loop** — one connection pipelines every request before
//!   reading any response; wall time gives peak throughput unthrottled
//!   by client think-time.
//!
//! A "repeat" re-issues one hot request (same spec, same seed — a cache
//! hit after first execution); a "unique" request uses a fresh seed and
//! must simulate. The headline check: 100%-repeat throughput must beat
//! 0%-repeat by a wide margin, demonstrating the content-addressed cache.
//! The ratio sweep runs with the schedule cache *disabled* so it measures
//! the result cache alone; a final pass re-runs the all-unique workload
//! with the schedule cache enabled, demonstrating the second-level cache:
//! same-spec/fresh-seed traffic is served by replaying the captured
//! control schedule instead of simulating.
//! Results land in `BENCH_serve.json` (`--json PATH` overrides).
//!
//! **Concurrency ramp** (`--ramp`): one server (adaptive admission on,
//! small queue) is driven by open-loop client rungs of 16 → 4096
//! connections (capped by `--max-clients`). Every rung is half
//! *replay-class* clients (the warm hot spec with fresh seeds — the
//! schedule cache is resident, so admission classifies them cheap) and
//! half *capture-class* clients (a never-repeated spec per request — a
//! cold capture every time). Each client pipelines its requests and then
//! drains responses, so at high rungs the queue saturates and admission
//! control decides who gets rejected. Per rung and class the ramp
//! records p50/p95/p99 latency, reject rates, and process RSS, and
//! asserts that at overload (>= 1024 clients) the schedule-resident
//! class sees a lower reject rate and lower p99 than cold captures.
//! Results land in `BENCH_loadgen.json` (`--ramp-json PATH` overrides).
//!
//! ```text
//! cargo run -p smache-bench --bin loadgen --release
//! cargo run -p smache-bench --bin loadgen --release -- --ramp
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use smache_bench::json::Json;
use smache_bench::report::Table;
use smache_serve::{start, Client, Listen, ServeConfig};
use smache_sim::run_batch;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(&format!("{flag}=")).map(str::to_string))
        })
}

/// The benchmark workload: expensive enough that a miss visibly
/// simulates, small enough that a full sweep stays in seconds.
const GRID: &str = "32x32";
const INSTANCES: u64 = 2;
/// The hot request every "repeat" re-issues.
const HOT_SEED: u64 = 42;

fn request_line(id: usize, seed: u64) -> Json {
    Json::obj(vec![
        ("id", Json::str(format!("r{id}"))),
        ("cmd", Json::str("simulate")),
        ("spec", Json::obj(vec![("grid", Json::str(GRID))])),
        ("seed", Json::Int(seed as i64)),
        ("instances", Json::Int(INSTANCES as i64)),
    ])
}

/// The seed for request `j` of client `client` at `repeat_pct`:
/// repeats hit [`HOT_SEED`], uniques never collide across clients.
fn seed_for(repeat_pct: u32, client: usize, j: usize) -> u64 {
    let is_repeat = match repeat_pct {
        0 => false,
        100 => true,
        _ => j.is_multiple_of(2),
    };
    if is_repeat {
        HOT_SEED
    } else {
        1_000 + (client as u64) * 10_000 + j as u64
    }
}

struct LoopResult {
    wall_s: f64,
    latencies_us: Vec<u64>,
    hits: u64,
    oks: u64,
    rejected: u64,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn closed_loop(addr: &str, clients: usize, per_client: usize, repeat_pct: u32) -> LoopResult {
    let started = Instant::now();
    let shards = run_batch((0..clients).collect(), clients, |client| {
        let mut conn = Client::connect(addr).expect("connect");
        let mut latencies = Vec::with_capacity(per_client);
        let (mut hits, mut oks, mut rejected) = (0u64, 0u64, 0u64);
        for j in 0..per_client {
            let req = request_line(client * per_client + j, seed_for(repeat_pct, client, j));
            let t0 = Instant::now();
            let resp = conn.call(&req).expect("call");
            latencies.push(t0.elapsed().as_micros() as u64);
            match resp.get("status").and_then(Json::as_str) {
                Some("ok") => {
                    oks += 1;
                    if resp.get("cached").and_then(Json::as_bool) == Some(true) {
                        hits += 1;
                    }
                }
                Some("rejected") => rejected += 1,
                other => panic!("unexpected response status {other:?}"),
            }
        }
        (latencies, hits, oks, rejected)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = LoopResult {
        wall_s,
        latencies_us: Vec::new(),
        hits: 0,
        oks: 0,
        rejected: 0,
    };
    for (lat, hits, oks, rejected) in shards {
        out.latencies_us.extend(lat);
        out.hits += hits;
        out.oks += oks;
        out.rejected += rejected;
    }
    out.latencies_us.sort_unstable();
    out
}

fn open_loop(addr: &str, total: usize, repeat_pct: u32) -> LoopResult {
    // Client id 999 keeps open-loop unique seeds disjoint from the
    // closed-loop pass's, so 0%-repeat traffic really misses.
    let mut conn = Client::connect(addr).expect("connect");
    let started = Instant::now();
    for j in 0..total {
        conn.send(&request_line(j, seed_for(repeat_pct, 999, j)))
            .expect("send");
    }
    let (mut hits, mut oks, mut rejected) = (0u64, 0u64, 0u64);
    for _ in 0..total {
        let resp = conn.recv().expect("recv");
        match resp.get("status").and_then(Json::as_str) {
            Some("ok") => {
                oks += 1;
                if resp.get("cached").and_then(Json::as_bool) == Some(true) {
                    hits += 1;
                }
            }
            _ => rejected += 1,
        }
    }
    LoopResult {
        wall_s: started.elapsed().as_secs_f64(),
        latencies_us: Vec::new(),
        hits,
        oks,
        rejected,
    }
}

// ---------------------------------------------------------------------------
// Concurrency ramp (--ramp)
// ---------------------------------------------------------------------------

/// Open-loop concurrency rungs; `--max-clients` truncates the list.
const RAMP_RUNGS: &[usize] = &[16, 64, 256, 1024, 2048, 4096];
/// A rung this size or larger counts as "overload" for the
/// class-separation assertions.
const OVERLOAD_RUNG: usize = 1024;
/// The hot spec's warm-up seed; also reused for the byte-identity probe.
const WARM_SEED: u64 = 31_337;

/// Fresh seeds for ramp traffic: globally unique, so the *result* cache
/// never hits and replay-class wins come from the schedule cache alone.
static NEXT_SEED: AtomicU64 = AtomicU64::new(10_000_000);
/// Fresh `(grid, instances)` combos for capture-class traffic: every
/// request carries a schedule key the server has never seen.
static NEXT_COMBO: AtomicU64 = AtomicU64::new(0);

fn replay_request(id: &str) -> Json {
    Json::obj(vec![
        ("id", Json::str(id)),
        ("cmd", Json::str("simulate")),
        ("spec", Json::obj(vec![("grid", Json::str(GRID))])),
        (
            "seed",
            Json::Int(NEXT_SEED.fetch_add(1, Ordering::Relaxed) as i64),
        ),
        ("instances", Json::Int(INSTANCES as i64)),
    ])
}

fn capture_request(id: &str) -> Json {
    let n = NEXT_COMBO.fetch_add(1, Ordering::Relaxed);
    let w = 8 + (n % 57);
    let h = 8 + ((n / 57) % 57);
    let instances = 1 + n / (57 * 57);
    Json::obj(vec![
        ("id", Json::str(id)),
        ("cmd", Json::str("simulate")),
        (
            "spec",
            Json::obj(vec![("grid", Json::str(format!("{w}x{h}")))]),
        ),
        (
            "seed",
            Json::Int(NEXT_SEED.fetch_add(1, Ordering::Relaxed) as i64),
        ),
        ("instances", Json::Int(instances as i64)),
    ])
}

/// Connect with retries: at a 2048-client rung the listener backlog
/// overflows transiently while the reactor drains its accept loop.
fn connect_retry(addr: &str) -> Client {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match Client::connect(addr) {
            Ok(c) => return c,
            Err(e) => {
                if Instant::now() >= deadline {
                    panic!("connect {addr}: {e}");
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

#[derive(Default)]
struct ClassStats {
    sent: u64,
    oks: u64,
    rejected: u64,
    /// Latency of *ok* responses only; rejects return fast and would
    /// flatter the overloaded class.
    latencies_us: Vec<u64>,
}

impl ClassStats {
    fn merge(&mut self, other: ClassStats) {
        self.sent += other.sent;
        self.oks += other.oks;
        self.rejected += other.rejected;
        self.latencies_us.extend(other.latencies_us);
    }

    fn reject_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.rejected as f64 / self.sent as f64
        }
    }

    fn json(&self) -> Json {
        Json::obj(vec![
            ("sent", Json::Int(self.sent as i64)),
            ("ok", Json::Int(self.oks as i64)),
            ("rejected", Json::Int(self.rejected as i64)),
            ("reject_rate", Json::Num(self.reject_rate())),
            (
                "p50_us",
                Json::Int(percentile(&self.latencies_us, 0.50) as i64),
            ),
            (
                "p95_us",
                Json::Int(percentile(&self.latencies_us, 0.95) as i64),
            ),
            (
                "p99_us",
                Json::Int(percentile(&self.latencies_us, 0.99) as i64),
            ),
        ])
    }
}

/// One open-loop ramp client: pipeline every request, then drain every
/// response, correlating latency by request id (responses interleave).
fn ramp_client(addr: &str, client: usize, per_client: usize, replay: bool) -> ClassStats {
    let mut conn = connect_retry(addr);
    let mut sent_at: HashMap<String, Instant> = HashMap::with_capacity(per_client);
    for j in 0..per_client {
        let id = format!("c{client}r{j}");
        let req = if replay {
            replay_request(&id)
        } else {
            capture_request(&id)
        };
        sent_at.insert(id, Instant::now());
        conn.send(&req).expect("send");
    }
    let mut stats = ClassStats {
        sent: per_client as u64,
        ..ClassStats::default()
    };
    for _ in 0..per_client {
        let resp = conn.recv().expect("recv");
        let latency = resp
            .get("id")
            .and_then(Json::as_str)
            .and_then(|id| sent_at.get(id))
            .map(|t0| t0.elapsed().as_micros() as u64);
        match resp.get("status").and_then(Json::as_str) {
            Some("ok") => {
                stats.oks += 1;
                if let Some(us) = latency {
                    stats.latencies_us.push(us);
                }
            }
            Some("rejected") => stats.rejected += 1,
            other => panic!("unexpected response status {other:?}"),
        }
    }
    stats
}

fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Raw wire-level call over the Unix socket: returns the response line
/// verbatim (the typed [`Client`] would re-serialise and mask byte-level
/// differences).
fn raw_call(path: &std::path::Path, line: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::os::unix::net::UnixStream::connect(path).expect("raw connect");
    stream.write_all(line.as_bytes()).expect("raw write");
    stream.write_all(b"\n").expect("raw write");
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("raw read");
    resp
}

fn run_ramp(max_clients: usize, workers: usize, path: &str) {
    // One server for the whole ramp: the schedule cache stays warm
    // across rungs, which is exactly what the replay class relies on.
    // The queue is deliberately tiny relative to the top rungs so the
    // admission policy — not the OS — decides who gets rejected.
    let queue_cap = 64;
    let max_conns = 8192;
    let sock =
        std::env::temp_dir().join(format!("smache-loadgen-ramp-{}.sock", std::process::id()));
    let handle = start(ServeConfig {
        listen: Listen::Unix(sock.clone()),
        workers,
        queue_cap,
        cache_bytes: 64 << 20,
        schedule_cache_bytes: 32 << 20,
        max_conns,
        adaptive: true,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Warm-up: capture the hot spec's schedule (first call) and park one
    // result-cache entry (same seed) for the byte-identity probe below.
    let mut warm = Client::connect(&addr).expect("connect");
    for tag in ["warm0", "warm1"] {
        let req = Json::obj(vec![
            ("id", Json::str(tag)),
            ("cmd", Json::str("simulate")),
            ("spec", Json::obj(vec![("grid", Json::str(GRID))])),
            ("seed", Json::Int(WARM_SEED as i64)),
            ("instances", Json::Int(INSTANCES as i64)),
        ]);
        let resp = warm.call(&req).expect("warm call");
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "warm-up failed: {}",
            resp.compact()
        );
    }
    drop(warm);

    println!(
        "== serve ramp: hot {GRID} x{INSTANCES} vs cold captures, {workers} workers, queue {queue_cap}, adaptive on ==\n"
    );

    let mut table = Table::new(vec![
        "Clients", "Class", "sent", "ok", "rejected", "rej rate", "p50 us", "p95 us", "p99 us",
    ]);
    let mut rungs_json = Vec::new();

    for &clients in RAMP_RUNGS.iter().filter(|&&c| c <= max_clients) {
        // Fewer requests per client at high rungs keeps each rung's total
        // bounded; the point up there is concurrent connections, not volume.
        let per_client = (2048 / clients).clamp(2, 32);
        let started = Instant::now();
        let shards = run_batch((0..clients).collect(), clients, |client| {
            let replay = client % 2 == 0;
            (replay, ramp_client(&addr, client, per_client, replay))
        });
        let wall_s = started.elapsed().as_secs_f64();
        let (mut replay, mut capture) = (ClassStats::default(), ClassStats::default());
        for (is_replay, stats) in shards {
            if is_replay {
                replay.merge(stats);
            } else {
                capture.merge(stats);
            }
        }
        replay.latencies_us.sort_unstable();
        capture.latencies_us.sort_unstable();
        let rss_kb = vm_rss_kb();

        for (class, s) in [("replay", &replay), ("capture", &capture)] {
            table.row(vec![
                clients.to_string(),
                class.to_string(),
                s.sent.to_string(),
                s.oks.to_string(),
                s.rejected.to_string(),
                format!("{:.2}", s.reject_rate()),
                percentile(&s.latencies_us, 0.50).to_string(),
                percentile(&s.latencies_us, 0.95).to_string(),
                percentile(&s.latencies_us, 0.99).to_string(),
            ]);
        }
        rungs_json.push(Json::obj(vec![
            ("clients", Json::Int(clients as i64)),
            ("requests_per_client", Json::Int(per_client as i64)),
            ("wall_s", Json::Num(wall_s)),
            ("vm_rss_kb", Json::Int(rss_kb as i64)),
            ("replay", replay.json()),
            ("capture", capture.json()),
        ]));

        // RSS must stay bounded: thousands of connections cost fds and
        // pooled buffers, not gigabytes.
        assert!(
            rss_kb < 2 << 20,
            "RSS exceeded 2 GiB at {clients} clients: {rss_kb} kB"
        );

        if clients >= OVERLOAD_RUNG {
            assert!(
                capture.rejected > 0,
                "{clients} pipelining clients over a {queue_cap}-slot queue must overload"
            );
            assert!(
                replay.reject_rate() < capture.reject_rate(),
                "schedule-resident class must see a lower reject rate at {clients} clients: \
                 replay {:.3} vs capture {:.3}",
                replay.reject_rate(),
                capture.reject_rate()
            );
            if replay.latencies_us.len() >= 5 && capture.latencies_us.len() >= 5 {
                let (rp99, cp99) = (
                    percentile(&replay.latencies_us, 0.99),
                    percentile(&capture.latencies_us, 0.99),
                );
                assert!(
                    rp99 < cp99,
                    "schedule-resident class must see a lower p99 at {clients} clients: \
                     replay {rp99}us vs capture {cp99}us"
                );
            }
        }
    }

    println!("{table}");

    // Byte-identity probe: two raw wire-level calls of the warmed hot
    // request must produce byte-identical response lines.
    let probe = Json::obj(vec![
        ("id", Json::str("probe")),
        ("cmd", Json::str("simulate")),
        ("spec", Json::obj(vec![("grid", Json::str(GRID))])),
        ("seed", Json::Int(WARM_SEED as i64)),
        ("instances", Json::Int(INSTANCES as i64)),
    ])
    .compact();
    let first = raw_call(&sock, &probe);
    let second = raw_call(&sock, &probe);
    assert_eq!(
        first, second,
        "cached responses must be byte-identical across connections"
    );
    assert!(
        first.contains("\"status\":\"ok\""),
        "byte-identity probe must succeed, got: {first}"
    );
    println!(
        "byte-identity probe: two raw cached responses identical ({} bytes)",
        first.len()
    );

    let metrics = handle.metrics();
    let doc = Json::obj(vec![
        ("bench", Json::str("serve_ramp")),
        ("grid", Json::str(GRID)),
        ("instances", Json::Int(INSTANCES as i64)),
        ("workers", Json::Int(workers as i64)),
        ("queue_cap", Json::Int(queue_cap as i64)),
        ("max_conns", Json::Int(max_conns as i64)),
        ("adaptive", Json::Bool(true)),
        ("max_clients", Json::Int(max_clients as i64)),
        ("byte_identical_repeat", Json::Bool(true)),
        (
            "admitted_replay",
            Json::Int(metrics.counter("serve.admission.replay") as i64),
        ),
        (
            "admitted_capture",
            Json::Int(metrics.counter("serve.admission.capture") as i64),
        ),
        (
            "conns_opened",
            Json::Int(metrics.counter("serve.conn.opened") as i64),
        ),
        ("rungs", Json::Arr(rungs_json)),
    ]);
    handle.shutdown();
    std::fs::write(path, doc.pretty()).expect("write json");
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--ramp") {
        let max_clients: usize = arg_value(&args, "--max-clients")
            .map(|v| v.parse().expect("--max-clients wants a number"))
            .unwrap_or(2048);
        let workers: usize = arg_value(&args, "--workers")
            .map(|v| v.parse().expect("--workers wants a number"))
            .unwrap_or(2);
        let path = arg_value(&args, "--ramp-json").unwrap_or_else(|| "BENCH_loadgen.json".into());
        run_ramp(max_clients, workers, &path);
        return;
    }

    let clients: usize = arg_value(&args, "--clients")
        .map(|v| v.parse().expect("--clients wants a number"))
        .unwrap_or(4);
    let per_client: usize = arg_value(&args, "--requests")
        .map(|v| v.parse().expect("--requests wants a number"))
        .unwrap_or(16);
    let workers: usize = arg_value(&args, "--workers")
        .map(|v| v.parse().expect("--workers wants a number"))
        .unwrap_or(4);
    let path = arg_value(&args, "--json").unwrap_or_else(|| "BENCH_serve.json".into());

    let total = clients * per_client;
    println!(
        "== serve loadgen: {GRID} x{INSTANCES}, {clients} clients x {per_client} requests, {workers} workers ==\n"
    );

    let mut table = Table::new(vec![
        "Repeat", "Mode", "req/s", "p50 us", "p95 us", "p99 us", "hit rate", "rejected",
    ]);
    let mut rows = Vec::new();
    let mut closed_rps = std::collections::BTreeMap::new();

    for repeat_pct in [0u32, 50, 100] {
        // A fresh server per ratio: cold cache, zeroed metrics. The
        // open-loop pass reuses the closed-loop pass's warm cache, so it
        // measures steady-state repeat traffic.
        let sock = std::env::temp_dir().join(format!(
            "smache-loadgen-{}-{repeat_pct}.sock",
            std::process::id()
        ));
        let handle = start(ServeConfig {
            listen: Listen::Unix(sock.clone()),
            workers,
            queue_cap: clients * 2 + total,
            cache_bytes: 64 << 20,
            // Schedule cache off: this sweep isolates the result cache.
            // (Enabled, it would replay every unique-seed request of the
            // same spec and flatten the very ratio being measured.)
            schedule_cache_bytes: 0,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let addr = handle.addr().to_string();

        let closed = closed_loop(&addr, clients, per_client, repeat_pct);
        let open = open_loop(&addr, total, repeat_pct);
        handle.shutdown();

        for (mode, r) in [("closed", &closed), ("open", &open)] {
            let rps = r.oks as f64 / r.wall_s;
            let hit_rate = if r.oks == 0 {
                0.0
            } else {
                r.hits as f64 / r.oks as f64
            };
            let (p50, p95, p99) = (
                percentile(&r.latencies_us, 0.50),
                percentile(&r.latencies_us, 0.95),
                percentile(&r.latencies_us, 0.99),
            );
            let cell = |v: u64| {
                if r.latencies_us.is_empty() {
                    "-".into()
                } else {
                    v.to_string()
                }
            };
            table.row(vec![
                format!("{repeat_pct}%"),
                mode.to_string(),
                format!("{rps:.0}"),
                cell(p50),
                cell(p95),
                cell(p99),
                format!("{:.2}", hit_rate),
                r.rejected.to_string(),
            ]);
            let mut row = vec![
                ("repeat_pct", Json::Int(repeat_pct as i64)),
                ("mode", Json::str(mode)),
                ("requests", Json::Int(r.oks as i64)),
                ("throughput_rps", Json::Num(rps)),
            ];
            // Open mode collects no per-request latencies: its rows carry
            // no percentiles rather than zeros.
            if !r.latencies_us.is_empty() {
                row.extend([
                    ("p50_us", Json::Int(p50 as i64)),
                    ("p95_us", Json::Int(p95 as i64)),
                    ("p99_us", Json::Int(p99 as i64)),
                ]);
            }
            row.extend([
                ("hit_rate", Json::Num(hit_rate)),
                ("rejected", Json::Int(r.rejected as i64)),
            ]);
            rows.push(Json::obj(row));
            if mode == "closed" {
                closed_rps.insert(repeat_pct, rps);
            }
        }
    }

    println!("{table}");

    let speedup = closed_rps[&100] / closed_rps[&0];
    println!("cache speedup (100% vs 0% repeats, closed loop): {speedup:.1}x");
    assert!(
        speedup >= 5.0,
        "content-addressed cache must yield >= 5x throughput on repeat traffic, got {speedup:.1}x"
    );

    // Second-level cache: the same all-unique workload (same spec, fresh
    // seed every request — the result cache never hits) with the schedule
    // cache enabled. The first request captures its control schedule;
    // every later request replays it instead of simulating.
    let sock =
        std::env::temp_dir().join(format!("smache-loadgen-{}-sched.sock", std::process::id()));
    let handle = start(ServeConfig {
        listen: Listen::Unix(sock.clone()),
        workers,
        queue_cap: clients * 2 + total,
        cache_bytes: 64 << 20,
        schedule_cache_bytes: 4 << 20,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let sched = closed_loop(handle.addr(), clients, per_client, 0);
    handle.shutdown();
    let sched_rps = sched.oks as f64 / sched.wall_s;
    let sched_speedup = sched_rps / closed_rps[&0];
    println!(
        "schedule-cache speedup (0% repeats, replay vs full sim, closed loop): {sched_speedup:.1}x"
    );
    assert!(
        sched.hits == 0,
        "unique-seed traffic must never hit the result cache, got {} hits",
        sched.hits
    );
    assert!(
        sched_speedup >= 2.0,
        "schedule replay must yield >= 2x throughput on same-spec unique-seed traffic, got {sched_speedup:.1}x"
    );
    rows.push(Json::obj(vec![
        ("repeat_pct", Json::Int(0)),
        ("mode", Json::str("closed+schedule_cache")),
        ("requests", Json::Int(sched.oks as i64)),
        ("throughput_rps", Json::Num(sched_rps)),
        (
            "p50_us",
            Json::Int(percentile(&sched.latencies_us, 0.50) as i64),
        ),
        (
            "p95_us",
            Json::Int(percentile(&sched.latencies_us, 0.95) as i64),
        ),
        (
            "p99_us",
            Json::Int(percentile(&sched.latencies_us, 0.99) as i64),
        ),
        ("hit_rate", Json::Num(0.0)),
        ("rejected", Json::Int(sched.rejected as i64)),
    ]));

    let doc = Json::obj(vec![
        ("bench", Json::str("serve_loadgen")),
        ("grid", Json::str(GRID)),
        ("instances", Json::Int(INSTANCES as i64)),
        ("clients", Json::Int(clients as i64)),
        ("requests_per_client", Json::Int(per_client as i64)),
        ("workers", Json::Int(workers as i64)),
        ("cache_speedup_closed", Json::Num(speedup)),
        ("schedule_speedup_closed", Json::Num(sched_speedup)),
        ("rows", Json::Arr(rows)),
    ]);
    std::fs::write(&path, doc.pretty()).expect("write json");
    println!("wrote {path}");
}
