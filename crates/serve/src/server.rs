//! The long-running job server.
//!
//! ## Architecture
//!
//! ```text
//!              ┌───────────────── reactor thread (epoll) ─────────────────┐
//!  clients ──► │ accept ─► per-conn state machine ─┬─► cache hit ─► wbuf  │
//!              │   ▲   (rbuf ─► line ─► dispatch)  └─► AdmissionQueue ────┼──► workers
//!              │   └──────── completions ◄── wake pipe ◄──────────────────┼──── results
//!              └───────────────────────────────────────────────────────────┘
//! ```
//!
//! One **reactor thread** owns every socket: it accepts connections
//! (Unix or TCP), reads request bytes into per-connection buffers,
//! frames newline-delimited requests, and writes responses — all
//! non-blocking, driven by a level-triggered epoll loop (the vendored
//! [`epoll`] shim). Thousands of idle connections cost one registered
//! fd each, not a parked thread each.
//!
//! CPU-bound work stays on the **worker pool**: run requests that miss
//! the content-addressed [`ResultCache`] are classified by their
//! seed-blind schedule key (resident schedule → cheap replay, cold →
//! full capture) and pushed into the two-class
//! [`AdmissionQueue`], which admits
//! replays ahead of captures under overload and refuses the rest
//! *right now* with a typed `overloaded` rejection. Workers pop jobs
//! (replay lane first), check deadlines at dequeue **and again at
//! completion write-back**, execute through the cache hierarchy, and
//! hand the finished response line back to the reactor through a
//! completion list plus a [`WakePipe`] — workers never touch sockets.
//!
//! With [`--adaptive`](ServeConfig::adaptive) the admission limit is no
//! longer the fixed queue capacity but an AIMD controller
//! ([`AimdController`]): on-time completions grow it additively,
//! deadline misses halve it (with a cooldown), so the server sheds load
//! before queues turn into deadline graveyards.
//!
//! Behind the result cache sit two more levels for replay-eligible runs
//! (`simulate`, and `chaos` with a latency-only profile): an in-memory
//! [`ScheduleCache`] of captured control schedules, and — with
//! [`ServeConfig::store_dir`] set — a persistent [`ScheduleStore`] on
//! disk, so a restarted server replays previously captured specs
//! instead of recapturing them (see `docs/DEPLOYMENT.md`).
//!
//! `shutdown` begins a **graceful drain**: admission stops (`draining`
//! rejections), queued jobs still run to completion and their responses
//! are delivered through the reactor, pending write buffers get a
//! bounded grace period to flush, then workers and the reactor exit.
//!
//! Responses may interleave across a connection in any order when
//! multiple requests are in flight — clients correlate by `id`.

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epoll::WakePipe;
use smache::system::store::ScheduleStore;
use smache::system::{ControlSchedule, ReplayMode};
use smache_sim::ScheduleCache;

use crate::adaptive::{AimdConfig, AimdController};
use crate::bufpool::BufferPool;
use crate::cache::ResultCache;
use crate::metrics::ServerMetrics;
use crate::pool::AdmissionQueue;
use crate::protocol::{error_line, internal_line, ok_line, rejected_line, RunRequest};
use crate::reactor::Reactor;

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A Unix-domain socket at this path (created on start, removed on
    /// clean shutdown).
    Unix(PathBuf),
    /// A TCP bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    Tcp(String),
}

impl Listen {
    /// Parses the textual address form shared with the client:
    /// `unix:<path>` or `tcp:<host>:<port>`.
    pub fn parse(addr: &str) -> Result<Listen, String> {
        if let Some(path) = addr.strip_prefix("unix:") {
            Ok(Listen::Unix(PathBuf::from(path)))
        } else if let Some(hostport) = addr.strip_prefix("tcp:") {
            Ok(Listen::Tcp(hostport.to_string()))
        } else {
            Err(format!("address `{addr}` must start with unix: or tcp:"))
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address.
    pub listen: Listen,
    /// Worker threads executing runs.
    pub workers: usize,
    /// Admission-queue capacity (jobs waiting for a worker). With
    /// [`adaptive`](Self::adaptive) on, this is the AIMD controller's
    /// ceiling rather than a fixed limit.
    pub queue_cap: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Schedule-cache byte budget (second-level cache of captured control
    /// schedules, keyed by spec + instances but **not** seed — a
    /// differing-seed `simulate` request that misses the result cache can
    /// still replay a cached schedule instead of re-simulating).
    pub schedule_cache_bytes: usize,
    /// Persistent schedule-store directory (third level). `Some(dir)`
    /// warm-starts the schedule cache from disk and writes every fresh
    /// capture back, so schedules survive restarts; `None` disables
    /// persistence (PR-5 behaviour).
    pub store_dir: Option<PathBuf>,
    /// Disk byte budget for the persistent store's LRU (`0` = unbounded).
    pub store_bytes: u64,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Open connections the reactor holds at once; further accepts are
    /// turned away with a typed error line.
    pub max_conns: usize,
    /// Drive the admission limit with the AIMD controller instead of the
    /// fixed [`queue_cap`](Self::queue_cap).
    pub adaptive: bool,
    /// Byte budget for the recycled connection-buffer pool.
    pub buffer_pool_bytes: usize,
    /// Close connections with no read/write progress and no job in
    /// flight for this long (typed `idle_timeout` notice). `None`
    /// disables the sweep.
    pub conn_idle_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            workers: 2,
            queue_cap: 32,
            cache_bytes: 4 << 20,
            schedule_cache_bytes: 4 << 20,
            store_dir: None,
            store_bytes: 64 << 20,
            default_deadline_ms: None,
            max_conns: 1024,
            adaptive: false,
            buffer_pool_bytes: 1 << 20,
            conn_idle_ms: None,
        }
    }
}

/// A job admitted to the queue: the parsed request plus the reactor
/// token of the connection awaiting the response.
pub(crate) struct Job {
    pub(crate) request: RunRequest,
    pub(crate) id: Option<String>,
    pub(crate) token: u64,
    pub(crate) admitted: Instant,
    pub(crate) deadline: Option<Duration>,
}

/// A finished response line travelling worker → reactor.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) line: String,
}

/// The listening socket, handed to the reactor.
pub(crate) enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

pub(crate) struct Shared {
    pub(crate) queue: AdmissionQueue<Job>,
    pub(crate) cache: Mutex<ResultCache>,
    pub(crate) schedules: Mutex<ScheduleCache<ControlSchedule>>,
    pub(crate) store: Option<Mutex<ScheduleStore>>,
    pub(crate) metrics: ServerMetrics,
    pub(crate) shutdown: AtomicBool,
    pub(crate) default_deadline: Option<Duration>,
    /// The configured ceiling; the effective limit when not adaptive.
    pub(crate) queue_cap: usize,
    pub(crate) adaptive: Option<Mutex<AimdController>>,
    /// Finished response lines awaiting the reactor (paired with `wake`).
    pub(crate) completions: Mutex<Vec<Completion>>,
    pub(crate) wake: WakePipe,
    /// Jobs admitted whose completion the reactor has not yet consumed —
    /// the drain-exit condition.
    pub(crate) jobs_inflight: AtomicUsize,
    pub(crate) bufpool: BufferPool,
}

impl Shared {
    /// The state a server with `config` starts from: empty caches, the
    /// store opened, no socket yet.
    fn new(config: &ServeConfig) -> std::io::Result<Shared> {
        let store = match &config.store_dir {
            Some(dir) => Some(Mutex::new(
                ScheduleStore::open(dir, config.store_bytes)
                    .map_err(|e| std::io::Error::other(e.to_string()))?,
            )),
            None => None,
        };
        let queue_cap = config.queue_cap.max(1);
        // With replay serving off entirely, every job is a capture — a
        // reserved replay band would only shrink the usable queue.
        let replay_possible = config.schedule_cache_bytes > 0 || config.store_dir.is_some();
        Ok(Shared {
            queue: if replay_possible {
                AdmissionQueue::new()
            } else {
                AdmissionQueue::unbanded()
            },
            cache: Mutex::new(ResultCache::new(config.cache_bytes)),
            schedules: Mutex::new(ScheduleCache::new(config.schedule_cache_bytes)),
            store,
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            default_deadline: config.default_deadline_ms.map(Duration::from_millis),
            queue_cap,
            adaptive: config
                .adaptive
                .then(|| Mutex::new(AimdController::new(AimdConfig::for_capacity(queue_cap)))),
            completions: Mutex::new(Vec::new()),
            wake: WakePipe::new()?,
            jobs_inflight: AtomicUsize::new(0),
            bufpool: BufferPool::new(config.buffer_pool_bytes),
        })
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.drain();
        self.wake.wake();
    }

    /// The admission limit in force right now: the AIMD controller's
    /// output when adaptive, the fixed queue capacity otherwise.
    pub(crate) fn effective_limit(&self) -> usize {
        match &self.adaptive {
            Some(ctl) => ctl.lock().expect("adaptive poisoned").limit(),
            None => self.queue_cap,
        }
    }

    fn note_deadline_miss(&self, at_dequeue: bool) {
        self.metrics.deadline_miss(at_dequeue);
        self.metrics.rejected("deadline");
        if let Some(ctl) = &self.adaptive {
            ctl.lock()
                .expect("adaptive poisoned")
                .on_miss(Instant::now());
        }
        self.publish_adaptive_state();
    }

    fn note_success(&self) {
        if let Some(ctl) = &self.adaptive {
            let mut ctl = ctl.lock().expect("adaptive poisoned");
            ctl.on_success();
        }
        self.publish_adaptive_state();
    }

    pub(crate) fn publish_adaptive_state(&self) {
        if let Some(ctl) = &self.adaptive {
            let ctl = ctl.lock().expect("adaptive poisoned");
            self.metrics
                .adaptive_state(ctl.limit() as u64, ctl.increases(), ctl.decreases());
        }
    }

    pub(crate) fn publish_queue_depth(&self) {
        let (replay, capture) = self.queue.depth_by_class();
        self.metrics.queue_depth(replay as u64, capture as u64);
    }

    pub(crate) fn publish_cache_state(&self) {
        let cache = lock(&self.cache);
        let stats = cache.stats();
        self.metrics
            .cache_state(stats.evictions, cache.bytes() as u64, cache.len() as u64);
    }

    pub(crate) fn publish_store_state(&self) {
        if let Some(store) = &self.store {
            let store = lock(store);
            self.metrics.store_state(store.bytes(), store.len() as u64);
        }
    }

    /// Makes a schedule resident in the in-memory schedule cache.
    fn cache_schedule(&self, key: (u64, u64), schedule: &Arc<ControlSchedule>) {
        let bytes = schedule.approx_bytes();
        let mut schedules = lock(&self.schedules);
        schedules.insert(key, Arc::clone(schedule), bytes);
        self.metrics.schedule_cache_state(schedules.bytes() as u64);
    }

    pub(crate) fn publish_bufpool_state(&self) {
        let stats = self.bufpool.stats();
        self.metrics
            .bufpool_state(stats.pooled_bytes, stats.reused, stats.allocated);
    }

    /// Hands a finished response line back to the reactor.
    fn complete(&self, token: u64, line: String) {
        self.completions
            .lock()
            .expect("completions poisoned")
            .push(Completion { token, line });
        self.wake.wake();
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown`](ServerHandle::shutdown) or [`join`](ServerHandle::join).
pub struct ServerHandle {
    addr: String,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    unix_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The server's reachable address in `unix:`/`tcp:` form (with the
    /// actual port when TCP bound port 0).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Direct metrics access (tests and the stats command share it).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Initiates the graceful drain, then [`join`](Self::join)s.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_inner();
    }

    /// Blocks until the server exits (a client's `shutdown` request, or a
    /// prior [`shutdown`](Self::shutdown) call, triggers the drain).
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Starts the server and returns its handle.
///
/// Binds the listen address, spawns the reactor and `workers` worker
/// threads, and returns immediately; the handle reports the actual bound
/// address.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let shared = Arc::new(Shared::new(&config)?);
    shared.publish_store_state();
    shared.publish_adaptive_state();

    let (listener, addr, unix_path) = match &config.listen {
        Listen::Unix(path) => {
            // A stale socket file from a killed process would fail the
            // bind; remove it (connect() distinguishes live servers).
            if path.exists() {
                let _ = std::fs::remove_file(path);
            }
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            (
                Listener::Unix(listener),
                format!("unix:{}", path.display()),
                Some(path.clone()),
            )
        }
        Listen::Tcp(hostport) => {
            let listener = TcpListener::bind(hostport)?;
            listener.set_nonblocking(true)?;
            let local = listener.local_addr()?;
            (Listener::Tcp(listener), format!("tcp:{local}"), None)
        }
    };

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, run_job))
        })
        .collect();

    let reactor = Reactor::new(
        Arc::clone(&shared),
        listener,
        config.max_conns.max(1),
        config.conn_idle_ms.map(Duration::from_millis),
    )?;
    let reactor = std::thread::Builder::new()
        .name("serve-reactor".to_string())
        .spawn(move || reactor.run())?;

    Ok(ServerHandle {
        addr,
        shared,
        reactor: Some(reactor),
        workers,
        unix_path,
    })
}

/// Executes a run on a worker. After the (already-missed) result-cache
/// lookup, replay-eligible runs — `simulate`, and `chaos` with a
/// latency-only profile (keyed on the chaos seed) — walk the rest of the
/// cache hierarchy, honouring the request's `replay` mode (`off` skips
/// the hierarchy entirely; `on` turns every silent fallback into a typed
/// error): an
/// in-memory schedule-cache hit replays the captured control plane over
/// this request's seeded input (bit-exact, seed-independent key); a miss
/// consults the persistent store, where a sound on-disk entry also
/// replays (and repopulates the memory cache — the warm-start path); only
/// when every level misses does the full capturing simulation run, and
/// the fresh schedule is written back to both levels so the *next*
/// same-spec request — even in a future process — replays.
///
/// A damaged store entry is discarded and counted (`serve.store.corrupt`)
/// and the request recaptures: corruption degrades to a cache miss, never
/// to a wrong or failed response.
fn run_job(request: &RunRequest, shared: &Arc<Shared>) -> Result<smache_sim::Json, String> {
    if request.replay == ReplayMode::Off {
        return request.execute(); // the client opted out of replay
    }
    let Some(key) = request.schedule_key() else {
        // Plan/trace/corrupting-chaos runs have no replayable schedule.
        if request.replay == ReplayMode::On {
            return Err(format!(
                "replay=on, but `{}` runs have no replayable control schedule",
                request.kind.label()
            ));
        }
        return request.execute();
    };
    let (disabled, hit) = {
        let mut schedules = lock(&shared.schedules);
        if schedules.budget() == 0 {
            (true, None)
        } else {
            (false, schedules.get(key))
        }
    };
    if disabled && shared.store.is_none() {
        return request.execute(); // schedule caching disabled
    }
    if !disabled {
        shared.metrics.schedule_cache_lookup(hit.is_some());
    }
    // Third level: the persistent store.
    let resident = hit.or_else(|| {
        let store = shared.store.as_ref()?;
        let loaded = lock(store).load_or_evict(key);
        match loaded {
            Ok(Some(schedule)) => {
                shared.metrics.store_lookup(true);
                if !disabled {
                    shared.cache_schedule(key, &schedule);
                }
                shared.publish_store_state();
                Some(schedule)
            }
            Ok(None) => {
                shared.metrics.store_lookup(false);
                None
            }
            Err(_) => {
                // Typed damage: the entry is already discarded; recapture.
                shared.metrics.store_corrupt();
                shared.publish_store_state();
                None
            }
        }
    });
    if let Some(schedule) = resident {
        // A stale or mismatched schedule refuses cleanly; fall back to the
        // full simulation rather than failing the request — unless the
        // client forced `replay: on`, which surfaces the refusal.
        return match request.execute_replay(&schedule) {
            Err(e) if request.replay == ReplayMode::On => Err(e),
            Err(_) => request.execute(),
            ok => ok,
        };
    }

    let (doc, schedule) = request.execute_capture()?;
    if let Some(schedule) = schedule {
        if !disabled {
            shared.cache_schedule(key, &schedule);
        }
        if let Some(store) = &shared.store {
            let saved = lock(store).save(key, &schedule);
            if saved.is_ok() {
                shared.metrics.store_write();
            }
            shared.publish_store_state();
        }
    }
    Ok(doc)
}

/// Locks one of the structures a job works on (result cache, schedule
/// cache, store), recovering it when a panicking job poisoned it. A panic
/// costs its own request ([`worker_loop`]), not the structure: each
/// changes its state only after the step that can fail — a store entry
/// is indexed only once it decoded or was written, a cache entry only
/// once it is built.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a job's panic said, for its `internal` error line.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message");
    format!("job panicked: {text}")
}

/// Serves jobs until the queue drains, executing each with `run`
/// ([`run_job`] in a server). A job that panics costs one request: the
/// worker answers it with a typed `internal` error line, counts
/// `serve.worker.panics`, and carries on with the next job.
fn worker_loop(
    shared: &Arc<Shared>,
    run: impl Fn(&RunRequest, &Arc<Shared>) -> Result<smache_sim::Json, String>,
) {
    while let Some(job) = shared.queue.pop() {
        shared.publish_queue_depth();
        // First deadline checkpoint: the job expired while queued — a
        // worker picking it up now would only burn CPU on a response the
        // client has already written off.
        if let Some(deadline) = job.deadline {
            if job.admitted.elapsed() >= deadline {
                shared.note_deadline_miss(true);
                shared.complete(job.token, rejected_line(job.id.as_deref(), "deadline"));
                continue;
            }
        }
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run(&job.request, shared)));
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(payload) => {
                shared.metrics.worker_panic();
                shared.metrics.error();
                let message = panic_message(payload.as_ref());
                shared.complete(job.token, internal_line(job.id.as_deref(), &message));
                continue;
            }
        };
        match outcome {
            Ok(result) => {
                let text = result.compact();
                // The result is computed either way: cache it so the next
                // same-key request hits, even when *this* response misses
                // its deadline below.
                lock(&shared.cache).insert(job.request.cache_key(), text.clone());
                shared.publish_cache_state();
                // Second deadline checkpoint: the run itself overran. The
                // dequeue-time check can't see this — a job admitted with
                // 1 ms left passes it, runs for 50 ms, and would be
                // delivered long past its promise.
                let overran = job.deadline.is_some_and(|d| job.admitted.elapsed() >= d);
                if overran {
                    shared.note_deadline_miss(false);
                    shared.complete(job.token, rejected_line(job.id.as_deref(), "deadline"));
                } else {
                    shared.metrics.ok(false);
                    let us = job.admitted.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    shared.metrics.observe_latency_us(us);
                    shared.note_success();
                    shared.complete(job.token, ok_line(job.id.as_deref(), false, &text));
                }
            }
            Err(msg) => {
                shared.metrics.error();
                shared.complete(job.token, error_line(job.id.as_deref(), &msg));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_addresses_parse() {
        assert_eq!(
            Listen::parse("unix:/tmp/s.sock").unwrap(),
            Listen::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:7777").unwrap(),
            Listen::Tcp("127.0.0.1:7777".to_string())
        );
        assert!(Listen::parse("http://x").is_err());
    }

    /// A job that panics costs its own request: the worker answers it
    /// with an `internal` error line and carries on, even after a panic
    /// that poisoned the store lock, and the next job is served from the
    /// store as usual.
    #[test]
    fn a_panicking_job_costs_one_request() {
        use crate::pool::JobClass;
        use crate::protocol::{Request, RequestBody};

        let dir = std::env::temp_dir().join(format!("smache-serve-panic-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let shared = Arc::new(
            Shared::new(&ServeConfig {
                store_dir: Some(dir.clone()),
                ..ServeConfig::default()
            })
            .expect("shared state"),
        );
        for seed in 1..=3 {
            let line = format!(r#"{{"cmd":"simulate","spec":{{"grid":"8x8"}},"seed":{seed}}}"#);
            let RequestBody::Run(request) = Request::parse_line(&line).expect("parses").body else {
                unreachable!("a run request")
            };
            let job = Job {
                request: *request,
                id: Some(seed.to_string()),
                token: seed,
                admitted: Instant::now(),
                deadline: None,
            };
            assert!(shared.queue.try_push(job, JobClass::Capture, 8).is_ok());
        }
        shared.queue.drain();
        // Seed 1 panics holding the store lock, seed 2 outside any lock,
        // seed 3 runs.
        worker_loop(&shared, |request, shared| match request.seed {
            1 => {
                let _store = lock(shared.store.as_ref().expect("a store"));
                panic!("on purpose, store locked")
            }
            2 => panic!("on purpose"),
            _ => run_job(request, shared),
        });

        let lines: Vec<String> = lock(&shared.completions)
            .iter()
            .map(|c| c.line.clone())
            .collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        for (line, message) in lines.iter().zip(["on purpose, store locked", "on purpose"]) {
            assert!(line.contains(r#""status":"error""#), "{line}");
            assert!(line.contains(r#""reason":"internal""#), "{line}");
            assert!(line.contains(message), "{line}");
        }
        assert!(lines[2].contains(r#""status":"ok""#), "{}", lines[2]);
        assert!(shared.store.as_ref().expect("a store").is_poisoned());
        assert_eq!(shared.metrics.counter("serve.worker.panics"), 2);
        assert_eq!(shared.metrics.counter("serve.store.writes"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_cap >= 1);
        assert!(c.cache_bytes > 0);
        assert!(c.max_conns >= 1);
        assert!(!c.adaptive);
        assert!(c.conn_idle_ms.is_none());
    }
}
