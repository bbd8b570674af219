//! The epoll reactor: one thread owning every socket.
//!
//! The reactor replaces the thread-per-connection design: a single
//! thread drives a level-triggered [`epoll::Poller`] over the listener,
//! a [`WakePipe`](epoll::WakePipe), and every client connection. Each
//! connection is a small state machine —
//!
//! ```text
//!   read bytes ─► rbuf ─► NDJSON line framing ─► dispatch ─► wbuf ─► write bytes
//! ```
//!
//! — with all I/O non-blocking. A connection costs two pooled buffers
//! and a map entry; a thousand idle clients cost no threads and no
//! syscalls until they become readable.
//!
//! Work splits by cost. The reactor itself handles everything cheap and
//! bounded: parsing, `stats`, `shutdown`, and result-cache hits (an
//! `Arc<str>` clone). CPU-bound runs are classified by their seed-blind
//! schedule key — resident in the schedule cache or store means the job
//! is a cheap **replay**, otherwise a cold **capture** — and pushed into
//! the two-class [`AdmissionQueue`](crate::pool::AdmissionQueue) under
//! the current (possibly adaptive) limit. Workers send finished lines
//! back through `Shared::completions` and the wake pipe; the reactor
//! appends them to the owning connection's write buffer and flushes.
//!
//! `EPOLLOUT` is armed only while a write buffer is non-empty (the
//! classic level-triggered discipline — a permanently-armed writable
//! interest would spin). The idle sweep closes connections with no
//! read/write progress and no job in flight for longer than the
//! configured timeout, after queueing a best-effort typed
//! `idle_timeout` notice — the slow-loris defence.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use epoll::{Event, Interest, Poller};
use smache::system::ReplayMode;

use crate::pool::JobClass;
use crate::protocol::{error_line, ok_line, rejected_line, Request, RequestBody, RunRequest};
use crate::server::{lock, Completion, Job, Listener, Shared};

/// Token of the listening socket.
const LISTENER: u64 = 0;
/// Token of the wake pipe's read end.
const WAKE: u64 = 1;
/// First token handed to a client connection.
const FIRST_CONN: u64 = 2;

/// A request line (or trailing partial line) larger than this closes the
/// connection with an error — the framing bound that keeps one client
/// from ballooning the read buffer.
const MAX_LINE: usize = 1 << 20;

/// How long pending write buffers may keep the drained reactor alive.
const DRAIN_FLUSH_GRACE: Duration = Duration::from_secs(5);

enum Sock {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Sock {
    fn fd(&self) -> RawFd {
        match self {
            Sock::Unix(s) => s.as_raw_fd(),
            Sock::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Unix(s) => s.read(buf),
            Sock::Tcp(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Unix(s) => s.write(buf),
            Sock::Tcp(s) => s.write(buf),
        }
    }
}

/// Per-connection state machine.
struct Conn {
    sock: Sock,
    /// Unparsed request bytes (up to one partial line after framing).
    rbuf: Vec<u8>,
    /// Pending response bytes; `wpos..` is the unwritten tail.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Jobs admitted for this connection whose completion is pending.
    inflight: usize,
    /// Last moment any byte moved in either direction.
    last_activity: Instant,
    /// Whether `EPOLLOUT` is currently armed.
    armed_writable: bool,
    /// The peer closed its write side (EOF seen); close once quiet.
    read_closed: bool,
}

impl Conn {
    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// The reactor loop. Constructed on the starting thread (so bind/register
/// errors surface from [`start`](crate::server::start)), then moved onto
/// its own thread and [`run`](Reactor::run).
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: Listener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    max_conns: usize,
    idle: Option<Duration>,
}

impl Reactor {
    pub(crate) fn new(
        shared: Arc<Shared>,
        listener: Listener,
        max_conns: usize,
        idle: Option<Duration>,
    ) -> std::io::Result<Reactor> {
        let poller = Poller::new()?;
        let listener_fd = match &listener {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        };
        poller.add(listener_fd, LISTENER, Interest::READ)?;
        poller.add(shared.wake.read_fd(), WAKE, Interest::READ)?;
        Ok(Reactor {
            shared,
            poller,
            listener,
            conns: HashMap::new(),
            next_token: FIRST_CONN,
            max_conns,
            idle,
        })
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let draining = self.shared.shutdown.load(Ordering::SeqCst);
            if draining && self.shared.jobs_inflight.load(Ordering::SeqCst) == 0 {
                break;
            }
            let _ = self.poller.wait(&mut events, self.wait_timeout(draining));
            // `events` only borrows the poller, but the handlers need
            // `&mut self`; detach the batch first.
            let batch: Vec<Event> = std::mem::take(&mut events);
            for ev in batch {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKE => self.shared.wake.drain(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.pump_completions();
            self.sweep_idle();
        }
        self.flush_and_close_all();
    }

    /// Poll timeout: short while draining (the exit condition is a
    /// counter, not an fd), half the idle timeout while sweeping, lazy
    /// otherwise (the wake pipe cuts through all of these).
    fn wait_timeout(&self, draining: bool) -> i32 {
        if draining {
            return 10;
        }
        match self.idle {
            Some(d) => (d.as_millis() / 2).clamp(5, 200) as i32,
            None => 200,
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Listener::Unix(l) => l.accept().map(|(s, _)| Sock::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Sock::Tcp(s)),
            };
            let mut sock = match accepted {
                Ok(sock) => sock,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept errors (ECONNABORTED and friends):
                // drop this one, keep listening.
                Err(_) => return,
            };
            // The accepted socket does not inherit the listener's
            // non-blocking flag.
            let nonblocking = match &sock {
                Sock::Unix(s) => s.set_nonblocking(true),
                Sock::Tcp(s) => s.set_nonblocking(true),
            };
            if nonblocking.is_err() {
                continue;
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                let line = rejected_line(None, "draining");
                let _ = sock.write(line.as_bytes());
                let _ = sock.write(b"\n");
                continue; // dropped: closing the socket says the rest
            }
            if self.conns.len() >= self.max_conns {
                self.shared.metrics.conn_max_rejected();
                let line = error_line(None, "connection limit reached (--max-conns)");
                let _ = sock.write(line.as_bytes());
                let _ = sock.write(b"\n");
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self.poller.add(sock.fd(), token, Interest::READ).is_err() {
                continue;
            }
            self.conns.insert(
                token,
                Conn {
                    sock,
                    rbuf: self.shared.bufpool.get(),
                    wbuf: self.shared.bufpool.get(),
                    wpos: 0,
                    inflight: 0,
                    last_activity: Instant::now(),
                    armed_writable: false,
                    read_closed: false,
                },
            );
            self.shared.metrics.conn_opened(self.conns.len() as u64);
        }
    }

    fn conn_ready(&mut self, token: u64, ev: Event) {
        // Readable first: even on hangup the socket may hold final
        // request bytes (level-triggered EPOLLRDHUP arrives with them).
        if ev.readable || ev.closed {
            self.handle_readable(token);
        }
        if ev.writable && self.conns.contains_key(&token) {
            self.after_io(token);
        }
        // A pure error event with nothing left to do: drop the connection.
        if ev.closed && !ev.readable && !ev.writable {
            let finished = self
                .conns
                .get(&token)
                .is_some_and(|c| c.read_closed && !c.wants_write() && c.inflight == 0);
            if finished {
                self.close(token, false);
            }
        }
    }

    fn handle_readable(&mut self, token: u64) {
        let mut chunk = [0u8; 8192];
        let fatal = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            loop {
                match conn.sock.read(&mut chunk) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break false;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break true,
                }
            }
        };
        if fatal {
            self.close(token, false);
            return;
        }
        self.process_buffered(token);
        self.after_io(token);
    }

    /// Frames and dispatches every complete line sitting in `rbuf`.
    fn process_buffered(&mut self, token: u64) {
        loop {
            enum Framed {
                Line(String),
                Oversize,
                Quiet,
            }
            let framed = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                match conn.rbuf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        let raw: Vec<u8> = conn.rbuf.drain(..=pos).collect();
                        Framed::Line(String::from_utf8_lossy(&raw[..raw.len() - 1]).into_owned())
                    }
                    // No complete line. A partial line past the framing
                    // bound will never terminate usefully — refuse and
                    // hang up.
                    None if conn.rbuf.len() > MAX_LINE => Framed::Oversize,
                    None => Framed::Quiet,
                }
            };
            match framed {
                Framed::Line(line) => {
                    let trimmed = line.trim();
                    if !trimmed.is_empty() {
                        self.process_line(token, trimmed);
                    }
                }
                Framed::Oversize => {
                    self.shared.metrics.request();
                    self.shared.metrics.error();
                    self.respond(token, error_line(None, "request line too long"));
                    self.after_io(token);
                    self.close(token, false);
                    return;
                }
                Framed::Quiet => return,
            }
        }
    }

    fn process_line(&mut self, token: u64, line: &str) {
        self.shared.metrics.request();
        match Request::parse_line(line) {
            Err(msg) => {
                self.shared.metrics.error();
                self.respond(token, error_line(None, &msg));
            }
            Ok(Request { id, body }) => match body {
                RequestBody::Stats => {
                    self.shared.publish_queue_depth();
                    self.shared.publish_cache_state();
                    self.shared.publish_store_state();
                    self.shared.publish_adaptive_state();
                    self.shared.publish_bufpool_state();
                    let stats = self.shared.metrics.to_json().compact();
                    let id = id_text(&id);
                    self.respond(
                        token,
                        format!("{{\"id\":{id},\"status\":\"ok\",\"stats\":{stats}}}"),
                    );
                }
                RequestBody::Shutdown => {
                    let id = id_text(&id);
                    self.respond(
                        token,
                        format!("{{\"id\":{id},\"status\":\"ok\",\"draining\":true}}"),
                    );
                    self.shared.begin_shutdown();
                }
                RequestBody::Run(request) => self.handle_run(token, *request, id),
            },
        }
    }

    fn handle_run(&mut self, token: u64, request: RunRequest, id: Option<String>) {
        let key = request.cache_key();
        let hit = lock(&self.shared.cache).get(key);
        self.shared.metrics.cache_lookup(hit.is_some());
        if let Some(text) = hit {
            // Serving a hit is an Arc clone plus a buffer append — cheap
            // enough to stay on the reactor thread.
            self.shared.metrics.ok(true);
            self.respond(token, ok_line(id.as_deref(), true, &text));
            return;
        }

        let deadline = request
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.shared.default_deadline);
        let class = self.classify(&request);
        let limit = self.shared.effective_limit();
        let job = Job {
            request,
            id,
            token,
            admitted: Instant::now(),
            deadline,
        };
        match self.shared.queue.try_push(job, class, limit) {
            Ok(()) => {
                self.shared.jobs_inflight.fetch_add(1, Ordering::SeqCst);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.inflight += 1;
                }
                self.shared.metrics.admitted(class == JobClass::Replay);
            }
            Err(refused) => {
                let reason = refused.reason();
                let job = refused.into_inner();
                self.shared.metrics.rejected(reason);
                self.respond(token, rejected_line(job.id.as_deref(), reason));
            }
        }
        self.shared.publish_queue_depth();
    }

    /// Classifies a run for admission: a request whose seed-blind
    /// schedule is already resident (in-memory cache or on-disk store) is
    /// a cheap replay; everything else is a cold capture. Pure probes —
    /// no recency refresh, no hit/miss counting — so classification never
    /// perturbs the caches it reads.
    fn classify(&self, request: &RunRequest) -> JobClass {
        if request.replay == ReplayMode::Off {
            return JobClass::Capture;
        }
        let Some(key) = request.schedule_key() else {
            return JobClass::Capture;
        };
        let in_cache = lock(&self.shared.schedules).contains(key);
        let resident = in_cache
            || self
                .shared
                .store
                .as_ref()
                .is_some_and(|store| lock(store).contains(key));
        if resident {
            JobClass::Replay
        } else {
            JobClass::Capture
        }
    }

    /// Queues `line` on the connection's write buffer (flushed by the
    /// caller's `after_io`).
    fn respond(&mut self, token: u64, line: String) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.wbuf.extend_from_slice(line.as_bytes());
            conn.wbuf.push(b'\n');
        }
    }

    /// Post-I/O bookkeeping: flush what the socket will take, arm or
    /// disarm `EPOLLOUT` to match the remaining buffer, and close once a
    /// peer-closed connection has nothing left to say.
    fn after_io(&mut self, token: u64) {
        let poller = &self.poller;
        let (fatal, finished) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let fatal = loop {
                if conn.wpos >= conn.wbuf.len() {
                    break false;
                }
                match conn.sock.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => break false,
                    Ok(n) => {
                        conn.wpos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break true,
                }
            };
            if conn.wpos == conn.wbuf.len() && conn.wpos > 0 {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            let wants_write = conn.wants_write();
            if !fatal && wants_write != conn.armed_writable {
                let interest = if wants_write {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                if poller.modify(conn.sock.fd(), token, interest).is_ok() {
                    conn.armed_writable = wants_write;
                }
            }
            (
                fatal,
                conn.read_closed && !wants_write && conn.inflight == 0,
            )
        };
        if fatal || finished {
            self.close(token, false);
        }
    }

    /// Delivers finished worker responses to their connections.
    fn pump_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut completions = self
                .shared
                .completions
                .lock()
                .expect("completions poisoned");
            std::mem::take(&mut *completions)
        };
        for Completion { token, line } in batch {
            self.shared.jobs_inflight.fetch_sub(1, Ordering::SeqCst);
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.inflight -= 1;
                conn.wbuf.extend_from_slice(line.as_bytes());
                conn.wbuf.push(b'\n');
                self.after_io(token);
            }
            // Connection gone: the client vanished mid-job; the response
            // is dropped, matching the old writer behaviour.
        }
    }

    /// Closes connections with no progress and no job in flight past the
    /// idle timeout, after queueing a best-effort typed notice. Stalled
    /// writers (a full wbuf the peer never drains) age out the same way —
    /// `last_activity` only moves on actual byte progress.
    fn sweep_idle(&mut self) {
        let Some(idle) = self.idle else {
            return;
        };
        let now = Instant::now();
        let victims: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.inflight == 0 && now.duration_since(c.last_activity) >= idle)
            .map(|(&t, _)| t)
            .collect();
        for token in victims {
            self.shared.metrics.rejected("idle_timeout");
            if let Some(conn) = self.conns.get_mut(&token) {
                let line = rejected_line(None, "idle_timeout");
                // One direct write attempt; if the peer won't take it the
                // close itself is the signal.
                let _ = conn.sock.write(line.as_bytes());
                let _ = conn.sock.write(b"\n");
            }
            self.close(token, true);
        }
    }

    fn close(&mut self, token: u64, idle: bool) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.sock.fd());
            self.shared.bufpool.put(conn.rbuf);
            self.shared.bufpool.put(conn.wbuf);
            self.shared
                .metrics
                .conn_closed(self.conns.len() as u64, idle);
            // Dropping `conn.sock` closes the fd.
        }
    }

    /// Drain epilogue: give pending write buffers a bounded grace period
    /// to reach their clients, then close everything.
    fn flush_and_close_all(&mut self) {
        let deadline = Instant::now() + DRAIN_FLUSH_GRACE;
        let mut events: Vec<Event> = Vec::new();
        loop {
            let pending: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.wants_write())
                .map(|(&t, _)| t)
                .collect();
            if pending.is_empty() || Instant::now() >= deadline {
                break;
            }
            for token in pending {
                self.after_io(token);
            }
            if self.conns.values().any(Conn::wants_write) {
                let _ = self.poller.wait(&mut events, 50);
            }
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close(token, false);
        }
    }
}

fn id_text(id: &Option<String>) -> String {
    match id {
        Some(s) => smache_sim::Json::str(s.as_str()).compact(),
        None => "null".to_string(),
    }
}
