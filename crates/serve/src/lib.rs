//! # smache-serve — a concurrent job server for Smache runs
//!
//! Long-running daemon behind `smache serve`: accepts newline-delimited
//! JSON requests (simulate / chaos / trace / plan — the same problem
//! vocabulary as the CLI, via the shared [`smache::spec`] schema) over a
//! Unix socket or TCP, executes them on a bounded worker pool, and
//! replies with versioned [`RunReport`](smache::system::RunReport) JSON.
//!
//! Four properties make it a *server* rather than a loop around the
//! library:
//!
//! * **An epoll reactor** ([`reactor`]) — one thread owns every socket:
//!   non-blocking accept, per-connection read/frame/write state
//!   machines over pooled buffers ([`bufpool`]), idle-timeout sweeps,
//!   and a wake-pipe back-channel from the workers. Thousands of open
//!   connections cost fds, not threads.
//! * **Admission control** ([`pool`], [`adaptive`]) — a two-class
//!   queue that rejects overload explicitly (`rejected`/`overloaded`),
//!   admits schedule-resident replays ahead of cold captures, enforces
//!   per-request deadlines at dequeue *and* completion, optionally
//!   drives the limit with an AIMD controller, and drains gracefully on
//!   shutdown: admitted work always completes and responds.
//! * **Content-addressed caching** ([`cache`]) — runs are deterministic,
//!   so results are cached under the 128-bit fingerprint of the
//!   [canonical request](protocol::RunRequest::canonical). Repeat
//!   requests are answered byte-identically without re-simulating, under
//!   an LRU byte budget.
//! * **Observability** ([`metrics`]) — request outcomes, cache hit rate,
//!   connection and queue gauges, adaptive-limit state, and latency
//!   histograms, snapshotted by the `stats` command in the same JSON
//!   shape as report telemetry.
//!
//! ```no_run
//! use smache_serve::{start, Client, Listen, ServeConfig};
//! use smache_sim::Json;
//!
//! let handle = start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let response = client
//!     .call(&Json::parse(r#"{"cmd":"simulate","spec":{"grid":"8x8"},"seed":1}"#).unwrap())
//!     .unwrap();
//! assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"));
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod bufpool;
pub mod cache;
pub mod client;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use adaptive::{AimdConfig, AimdController};
pub use bufpool::{BufPoolStats, BufferPool};
pub use cache::{CacheStats, ResultCache};
pub use client::Client;
pub use metrics::ServerMetrics;
pub use pool::{AdmissionQueue, JobClass, PushError};
pub use protocol::{Request, RequestBody, RunKind, RunRequest, PROTOCOL_VERSION};
pub use server::{start, Listen, ServeConfig, ServerHandle};
