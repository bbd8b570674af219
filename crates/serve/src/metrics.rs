//! Server-side metrics, reusing the simulator's telemetry primitives.
//!
//! The same [`CounterRegistry`] that attributes simulator stalls also
//! counts server events here: request outcomes, cache effectiveness,
//! queue depth, and a power-of-two service-latency histogram. A `stats`
//! request snapshots the registry into the same `counters`/`histograms`
//! JSON shape reports use, so one decoder reads both.

use smache_sim::telemetry::{CounterId, CounterRegistry, HistogramId};
use smache_sim::Json;
use std::sync::Mutex;

/// Thread-safe server metrics.
pub struct ServerMetrics {
    reg: Mutex<Registry>,
}

struct Registry {
    counters: CounterRegistry,
    requests: CounterId,
    ok: CounterId,
    cached: CounterId,
    rejected_overload: CounterId,
    rejected_deadline: CounterId,
    rejected_draining: CounterId,
    errors: CounterId,
    worker_panics: CounterId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    cache_evictions: CounterId,
    cache_bytes: CounterId,
    cache_entries: CounterId,
    schedule_hits: CounterId,
    schedule_misses: CounterId,
    schedule_bytes: CounterId,
    store_hits: CounterId,
    store_misses: CounterId,
    store_writes: CounterId,
    store_corrupt: CounterId,
    store_bytes: CounterId,
    store_entries: CounterId,
    queue_depth: CounterId,
    queue_depth_replay: CounterId,
    queue_depth_capture: CounterId,
    conn_opened: CounterId,
    conn_closed: CounterId,
    conn_open: CounterId,
    conn_idle_closed: CounterId,
    conn_max_rejected: CounterId,
    rejected_idle: CounterId,
    deadline_dequeue: CounterId,
    deadline_completion: CounterId,
    adaptive_limit: CounterId,
    adaptive_increases: CounterId,
    adaptive_decreases: CounterId,
    admission_replay: CounterId,
    admission_capture: CounterId,
    bufpool_pooled_bytes: CounterId,
    bufpool_reused: CounterId,
    bufpool_allocated: CounterId,
    latency_us: HistogramId,
}

/// The rejection reasons [`ServerMetrics::rejected`] recognises.
const REASONS: &[&str] = &["overloaded", "deadline", "draining", "idle_timeout"];

impl ServerMetrics {
    /// Creates a zeroed metrics registry.
    pub fn new() -> ServerMetrics {
        let mut counters = CounterRegistry::new();
        let requests = counters.counter("serve.requests");
        let ok = counters.counter("serve.ok");
        let cached = counters.counter("serve.ok_cached");
        let rejected_overload = counters.counter("serve.rejected.overloaded");
        let rejected_deadline = counters.counter("serve.rejected.deadline");
        let rejected_draining = counters.counter("serve.rejected.draining");
        let errors = counters.counter("serve.errors");
        let worker_panics = counters.counter("serve.worker.panics");
        let cache_hits = counters.counter("serve.cache.hits");
        let cache_misses = counters.counter("serve.cache.misses");
        let cache_evictions = counters.counter("serve.cache.evictions");
        let cache_bytes = counters.counter("serve.cache.bytes");
        let cache_entries = counters.counter("serve.cache.entries");
        let schedule_hits = counters.counter("serve.schedule_cache.hits");
        let schedule_misses = counters.counter("serve.schedule_cache.misses");
        let schedule_bytes = counters.counter("serve.schedule_cache.bytes");
        let store_hits = counters.counter("serve.store.hits");
        let store_misses = counters.counter("serve.store.misses");
        let store_writes = counters.counter("serve.store.writes");
        let store_corrupt = counters.counter("serve.store.corrupt");
        let store_bytes = counters.counter("serve.store.bytes");
        let store_entries = counters.counter("serve.store.entries");
        let queue_depth = counters.counter("serve.queue.depth");
        let queue_depth_replay = counters.counter("serve.queue.depth_replay");
        let queue_depth_capture = counters.counter("serve.queue.depth_capture");
        let conn_opened = counters.counter("serve.conn.opened");
        let conn_closed = counters.counter("serve.conn.closed");
        let conn_open = counters.counter("serve.conn.open");
        let conn_idle_closed = counters.counter("serve.conn.idle_closed");
        let conn_max_rejected = counters.counter("serve.conn.max_conns_rejected");
        let rejected_idle = counters.counter("serve.rejected.idle_timeout");
        let deadline_dequeue = counters.counter("serve.deadline.dequeue");
        let deadline_completion = counters.counter("serve.deadline.completion");
        let adaptive_limit = counters.counter("serve.adaptive.limit");
        let adaptive_increases = counters.counter("serve.adaptive.increases");
        let adaptive_decreases = counters.counter("serve.adaptive.decreases");
        let admission_replay = counters.counter("serve.admission.replay");
        let admission_capture = counters.counter("serve.admission.capture");
        let bufpool_pooled_bytes = counters.counter("serve.bufpool.pooled_bytes");
        let bufpool_reused = counters.counter("serve.bufpool.reused");
        let bufpool_allocated = counters.counter("serve.bufpool.allocated");
        let latency_us = counters.histogram("serve.latency_us");
        ServerMetrics {
            reg: Mutex::new(Registry {
                counters,
                requests,
                ok,
                cached,
                rejected_overload,
                rejected_deadline,
                rejected_draining,
                errors,
                worker_panics,
                cache_hits,
                cache_misses,
                cache_evictions,
                cache_bytes,
                cache_entries,
                schedule_hits,
                schedule_misses,
                schedule_bytes,
                store_hits,
                store_misses,
                store_writes,
                store_corrupt,
                store_bytes,
                store_entries,
                queue_depth,
                queue_depth_replay,
                queue_depth_capture,
                conn_opened,
                conn_closed,
                conn_open,
                conn_idle_closed,
                conn_max_rejected,
                rejected_idle,
                deadline_dequeue,
                deadline_completion,
                adaptive_limit,
                adaptive_increases,
                adaptive_decreases,
                admission_replay,
                admission_capture,
                bufpool_pooled_bytes,
                bufpool_reused,
                bufpool_allocated,
                latency_us,
            }),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        f(&mut self.reg.lock().expect("metrics poisoned"))
    }

    /// Counts an arriving request (any command).
    pub fn request(&self) -> &Self {
        self.with(|r| r.counters.inc(r.requests));
        self
    }

    /// Counts a successful run response; `cached` marks cache hits.
    pub fn ok(&self, cached: bool) {
        self.with(|r| {
            r.counters.inc(r.ok);
            if cached {
                r.counters.inc(r.cached);
            }
        });
    }

    /// Counts a typed rejection (`overloaded` / `deadline` / `draining` /
    /// `idle_timeout`).
    pub fn rejected(&self, reason: &str) {
        debug_assert!(REASONS.contains(&reason), "unknown reason {reason}");
        self.with(|r| {
            let id = match reason {
                "deadline" => r.rejected_deadline,
                "draining" => r.rejected_draining,
                "idle_timeout" => r.rejected_idle,
                _ => r.rejected_overload,
            };
            r.counters.inc(id);
        });
    }

    /// Counts an error response (parse failures, failed runs).
    pub fn error(&self) {
        self.with(|r| r.counters.inc(r.errors));
    }

    /// Counts a job that panicked (answered with an `internal` error).
    pub fn worker_panic(&self) {
        self.with(|r| r.counters.inc(r.worker_panics));
    }

    /// Records a cache lookup outcome.
    pub fn cache_lookup(&self, hit: bool) {
        self.with(|r| {
            r.counters
                .inc(if hit { r.cache_hits } else { r.cache_misses })
        });
    }

    /// Publishes the cache's current totals (evictions, bytes, entries).
    pub fn cache_state(&self, evictions: u64, bytes: u64, entries: u64) {
        self.with(|r| {
            r.counters.set(r.cache_evictions, evictions);
            r.counters.set(r.cache_bytes, bytes);
            r.counters.set(r.cache_entries, entries);
        });
    }

    /// Records a schedule-cache lookup outcome (second-level cache:
    /// consulted only after a result-cache miss on a `simulate` run).
    pub fn schedule_cache_lookup(&self, hit: bool) {
        self.with(|r| {
            r.counters.inc(if hit {
                r.schedule_hits
            } else {
                r.schedule_misses
            })
        });
    }

    /// Publishes the schedule cache's current byte footprint.
    pub fn schedule_cache_state(&self, bytes: u64) {
        self.with(|r| r.counters.set(r.schedule_bytes, bytes));
    }

    /// Records a persistent-store lookup outcome (third level: consulted
    /// only after both the result cache and the in-memory schedule cache
    /// miss).
    pub fn store_lookup(&self, hit: bool) {
        self.with(|r| {
            r.counters
                .inc(if hit { r.store_hits } else { r.store_misses })
        });
    }

    /// Counts one schedule written back to the persistent store.
    pub fn store_write(&self) {
        self.with(|r| r.counters.inc(r.store_writes));
    }

    /// Counts one damaged store entry discarded (and recaptured).
    pub fn store_corrupt(&self) {
        self.with(|r| r.counters.inc(r.store_corrupt));
    }

    /// Publishes the store's current disk footprint.
    pub fn store_state(&self, bytes: u64, entries: u64) {
        self.with(|r| {
            r.counters.set(r.store_bytes, bytes);
            r.counters.set(r.store_entries, entries);
        });
    }

    /// Publishes the queue depth gauges (total plus per-lane).
    pub fn queue_depth(&self, replay: u64, capture: u64) {
        self.with(|r| {
            r.counters.set(r.queue_depth, replay + capture);
            r.counters.set(r.queue_depth_replay, replay);
            r.counters.set(r.queue_depth_capture, capture);
        });
    }

    /// Counts one accepted connection and publishes the open gauge.
    pub fn conn_opened(&self, open_now: u64) {
        self.with(|r| {
            r.counters.inc(r.conn_opened);
            r.counters.set(r.conn_open, open_now);
        });
    }

    /// Counts one closed connection and publishes the open gauge.
    /// `idle` marks closes forced by the idle/read timeout.
    pub fn conn_closed(&self, open_now: u64, idle: bool) {
        self.with(|r| {
            r.counters.inc(r.conn_closed);
            r.counters.set(r.conn_open, open_now);
            if idle {
                r.counters.inc(r.conn_idle_closed);
            }
        });
    }

    /// Counts one connection turned away at accept because
    /// `--max-conns` was reached.
    pub fn conn_max_rejected(&self) {
        self.with(|r| r.counters.inc(r.conn_max_rejected));
    }

    /// Counts one deadline miss; `at_dequeue` distinguishes jobs that
    /// expired waiting in the queue from jobs that expired while
    /// running (detected at completion write-back).
    pub fn deadline_miss(&self, at_dequeue: bool) {
        self.with(|r| {
            r.counters.inc(if at_dequeue {
                r.deadline_dequeue
            } else {
                r.deadline_completion
            });
        });
    }

    /// Publishes the adaptive controller's limit gauge and step totals.
    pub fn adaptive_state(&self, limit: u64, increases: u64, decreases: u64) {
        self.with(|r| {
            r.counters.set(r.adaptive_limit, limit);
            r.counters.set(r.adaptive_increases, increases);
            r.counters.set(r.adaptive_decreases, decreases);
        });
    }

    /// Counts one admitted job by class (`replay` = schedule resident).
    pub fn admitted(&self, replay: bool) {
        self.with(|r| {
            r.counters.inc(if replay {
                r.admission_replay
            } else {
                r.admission_capture
            });
        });
    }

    /// Publishes the buffer pool's totals.
    pub fn bufpool_state(&self, pooled_bytes: u64, reused: u64, allocated: u64) {
        self.with(|r| {
            r.counters.set(r.bufpool_pooled_bytes, pooled_bytes);
            r.counters.set(r.bufpool_reused, reused);
            r.counters.set(r.bufpool_allocated, allocated);
        });
    }

    /// Records one served request's admission→response latency.
    pub fn observe_latency_us(&self, us: u64) {
        self.with(|r| r.counters.observe(r.latency_us, us));
    }

    /// The value of one counter, for tests and assertions.
    pub fn counter(&self, name: &str) -> u64 {
        self.with(|r| r.counters.get(name).unwrap_or(0))
    }

    /// Snapshots every counter and histogram as the `stats` payload.
    pub fn to_json(&self) -> Json {
        let snap = self.with(|r| r.counters.snapshot());
        Json::obj(vec![
            (
                "counters",
                Json::Obj(
                    snap.counters
                        .iter()
                        .map(|(name, v)| (name.clone(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    snap.histograms
                        .iter()
                        .map(|(name, buckets)| {
                            (
                                name.clone(),
                                Json::Obj(
                                    buckets
                                        .iter()
                                        .map(|(b, v)| (b.clone(), Json::Int(*v as i64)))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_outcome() {
        let m = ServerMetrics::new();
        m.request().ok(false);
        m.request().ok(true);
        m.request().rejected("overloaded");
        m.request().rejected("deadline");
        m.request().error();
        assert_eq!(m.counter("serve.requests"), 5);
        assert_eq!(m.counter("serve.ok"), 2);
        assert_eq!(m.counter("serve.ok_cached"), 1);
        assert_eq!(m.counter("serve.rejected.overloaded"), 1);
        assert_eq!(m.counter("serve.rejected.deadline"), 1);
        assert_eq!(m.counter("serve.errors"), 1);
    }

    #[test]
    fn gauges_set_rather_than_add() {
        let m = ServerMetrics::new();
        m.queue_depth(4, 3);
        m.queue_depth(1, 2);
        assert_eq!(m.counter("serve.queue.depth"), 3);
        assert_eq!(m.counter("serve.queue.depth_replay"), 1);
        assert_eq!(m.counter("serve.queue.depth_capture"), 2);
        m.cache_state(2, 4096, 9);
        assert_eq!(m.counter("serve.cache.bytes"), 4096);
        assert_eq!(m.counter("serve.cache.entries"), 9);
        m.schedule_cache_state(1024);
        m.schedule_cache_state(2048);
        assert_eq!(m.counter("serve.schedule_cache.bytes"), 2048);
    }

    #[test]
    fn schedule_cache_counters_accumulate() {
        let m = ServerMetrics::new();
        m.schedule_cache_lookup(false);
        m.schedule_cache_lookup(true);
        m.schedule_cache_lookup(true);
        assert_eq!(m.counter("serve.schedule_cache.hits"), 2);
        assert_eq!(m.counter("serve.schedule_cache.misses"), 1);
    }

    #[test]
    fn store_counters_accumulate_and_gauges_set() {
        let m = ServerMetrics::new();
        m.store_lookup(true);
        m.store_lookup(false);
        m.store_write();
        m.store_write();
        m.store_corrupt();
        assert_eq!(m.counter("serve.store.hits"), 1);
        assert_eq!(m.counter("serve.store.misses"), 1);
        assert_eq!(m.counter("serve.store.writes"), 2);
        assert_eq!(m.counter("serve.store.corrupt"), 1);
        m.store_state(8192, 3);
        m.store_state(4096, 2);
        assert_eq!(m.counter("serve.store.bytes"), 4096);
        assert_eq!(m.counter("serve.store.entries"), 2);
    }

    #[test]
    fn connection_lifecycle_counters_track_the_open_gauge() {
        let m = ServerMetrics::new();
        m.conn_opened(1);
        m.conn_opened(2);
        m.conn_closed(1, false);
        m.conn_closed(0, true);
        assert_eq!(m.counter("serve.conn.opened"), 2);
        assert_eq!(m.counter("serve.conn.closed"), 2);
        assert_eq!(m.counter("serve.conn.open"), 0);
        assert_eq!(m.counter("serve.conn.idle_closed"), 1);
        m.conn_max_rejected();
        assert_eq!(m.counter("serve.conn.max_conns_rejected"), 1);
        m.rejected("idle_timeout");
        assert_eq!(m.counter("serve.rejected.idle_timeout"), 1);
    }

    #[test]
    fn deadline_misses_split_by_detection_point() {
        let m = ServerMetrics::new();
        m.deadline_miss(true);
        m.deadline_miss(false);
        m.deadline_miss(false);
        assert_eq!(m.counter("serve.deadline.dequeue"), 1);
        assert_eq!(m.counter("serve.deadline.completion"), 2);
    }

    #[test]
    fn adaptive_and_admission_counters_publish() {
        let m = ServerMetrics::new();
        m.adaptive_state(12, 5, 2);
        assert_eq!(m.counter("serve.adaptive.limit"), 12);
        assert_eq!(m.counter("serve.adaptive.increases"), 5);
        assert_eq!(m.counter("serve.adaptive.decreases"), 2);
        m.admitted(true);
        m.admitted(true);
        m.admitted(false);
        assert_eq!(m.counter("serve.admission.replay"), 2);
        assert_eq!(m.counter("serve.admission.capture"), 1);
        m.bufpool_state(8192, 10, 4);
        assert_eq!(m.counter("serve.bufpool.pooled_bytes"), 8192);
        assert_eq!(m.counter("serve.bufpool.reused"), 10);
        assert_eq!(m.counter("serve.bufpool.allocated"), 4);
    }

    #[test]
    fn snapshot_serialises_counters_and_latency_histogram() {
        let m = ServerMetrics::new();
        m.request().ok(false);
        m.observe_latency_us(100);
        m.observe_latency_us(90_000);
        let doc = m.to_json();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("serve.ok"))
                .and_then(Json::as_i64),
            Some(1)
        );
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("serve.latency_us"))
            .and_then(Json::as_obj)
            .expect("latency histogram present");
        let total: i64 = hist.iter().filter_map(|(_, v)| v.as_i64()).sum();
        assert_eq!(total, 2);
    }
}
