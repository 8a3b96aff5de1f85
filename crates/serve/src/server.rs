//! The TCP front end: accept loop, pipelined connections, result-cache
//! probe, a worker pool for the misses, graceful shutdown.
//!
//! [`Server::start`] serves HTTP/1.1 ([`HttpProtocol`]). The connection
//! layer owns byte-level line accumulation, size caps and timeouts; the
//! protocol's [`RequestParser`](crate::RequestParser) frames those
//! lines into requests.
//!
//! Threading model (all std, shared-nothing where it matters):
//!
//! - an **accept thread** owns the listener and spawns one handler per
//!   connection;
//! - each **connection** runs a reader and a writer. The reader
//!   accumulates request lines, feeds them through the connection's
//!   parser, and probes the result cache for every query
//!   right after parse ([`Engine::probe`]). A **hit** is answered on the
//!   spot: its pre-rendered payload goes straight to the writer, with
//!   no queue. Only a **miss** becomes a job in the shared
//!   [`BoundedQueue`], carrying its normalized key. Clients may
//!   pipeline arbitrarily many requests without waiting. The writer
//!   re-sequences responses (hits overtake queued misses, and workers
//!   finish misses out of order relative to other connections' jobs)
//!   and writes them back in request order;
//! - a **worker pool** resolves the misses one job at a time: a worker
//!   blocks on the queue until it holds a job ([`BoundedQueue::pop`]),
//!   resolves it through [`Engine::resolve_miss`] — which never probes
//!   the cache again, so each read is probed and counted exactly once —
//!   replies, and loops. Nothing waits for other jobs to arrive. Every
//!   result is rendered once when it fills the cache, so the next hit
//!   writes without any formatting work;
//! - **backpressure**: a miss that finds the queue full is rejected
//!   immediately with [`Reject::Busy`] (`503`) instead of queueing
//!   unboundedly — the client sees the overload in-band, in request
//!   order;
//! - **shutdown**: [`ServerHandle::shutdown`] flips a flag, nudges the
//!   accept loop awake, joins every connection (readers poll the flag
//!   on a read timeout), closes the queue — pending requests still
//!   drain — and joins the workers. Misses racing the wind-down get
//!   [`Reject::Shutdown`] (`503`).

use crate::engine::{Engine, Probe};
use crate::http::HttpProtocol;
use crate::metrics::{self, as_us, ServeMetrics, SlowEntry};
use crate::protocol::{Protocol, Reject, Request};
use crate::queue::{BoundedQueue, PushError};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the serving front end. [`ServerConfig::builder`] is the
/// ergonomic way to set these; the struct stays public (and `Copy`) so
/// a tuned config can be computed and passed around as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads draining the request queue. Defaults to the
    /// machine's available parallelism.
    pub workers: usize,
    /// Request queue capacity; pushes beyond it are rejected with a
    /// `503` (explicit backpressure, no unbounded growth).
    pub queue_depth: usize,
    /// Socket read timeout — the shutdown-poll interval for idle
    /// connections, not a client deadline (reads simply retry).
    pub read_timeout: Duration,
    /// Socket write timeout; a client that stops reading for this long
    /// has its connection dropped.
    pub write_timeout: Duration,
    /// Maximum line length in bytes (one HTTP request, header or body
    /// line). A connection that exceeds it (e.g.
    /// streams data with no newline) gets one reject and is dropped —
    /// per-connection buffering stays bounded no matter what the client
    /// sends.
    pub max_line_bytes: usize,
    /// Maximum live connections. Accepts beyond the cap are dropped
    /// immediately, so connection count (each costs two threads) stays
    /// bounded even against a client that opens sockets and never
    /// sends a request — traffic the queue bound cannot see.
    pub max_connections: usize,
    /// Requests slower than this (receipt → resolved) are recorded in
    /// the engine's slow-query ring (`GET /debug/slow`).
    pub slow_threshold: Duration,
    /// Additionally record every Nth request regardless of latency, so
    /// the trace carries a baseline sample even when nothing is slow
    /// (clamped to ≥ 1).
    pub slow_sample_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_depth: 1024,
            read_timeout: Duration::from_millis(25),
            write_timeout: Duration::from_secs(5),
            max_line_bytes: 64 * 1024,
            max_connections: 1024,
            slow_threshold: crate::metrics::DEFAULT_SLOW_THRESHOLD,
            slow_sample_every: crate::metrics::DEFAULT_SLOW_SAMPLE_EVERY,
        }
    }
}

impl ServerConfig {
    /// Starts from the defaults; see [`ServerConfigBuilder`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`ServerConfig`] — validated knobs over field soup.
///
/// Starts from [`ServerConfig::default`]; [`ServerConfigBuilder::build`]
/// clamps every knob into its valid range (counts ≥ 1, timeouts ≥ 1ms
/// so shutdown polling and write deadlines cannot be disabled by a
/// zero) rather than failing, so a config assembled from untrusted
/// flags still produces a working server.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use websyn_serve::ServerConfig;
///
/// let config = ServerConfig::builder()
///     .workers(4)
///     .queue_depth(256)
///     .slow_threshold(Duration::from_millis(5))
///     .build();
/// assert_eq!(config.workers, 4);
/// assert_eq!(ServerConfig::builder().workers(0).build().workers, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Worker threads draining the request queue (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Request queue capacity (clamped to ≥ 1).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Socket read timeout / shutdown-poll interval (clamped to ≥ 1ms —
    /// a zero read timeout means *blocking* reads on std sockets, which
    /// would make idle connections unkillable).
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.config.read_timeout = timeout;
        self
    }

    /// Socket write timeout (clamped to ≥ 1ms, same reasoning).
    pub fn write_timeout(mut self, timeout: Duration) -> Self {
        self.config.write_timeout = timeout;
        self
    }

    /// Maximum line length in bytes (clamped to ≥ 1).
    pub fn max_line_bytes(mut self, bytes: usize) -> Self {
        self.config.max_line_bytes = bytes;
        self
    }

    /// Maximum live connections (clamped to ≥ 1).
    pub fn max_connections(mut self, connections: usize) -> Self {
        self.config.max_connections = connections;
        self
    }

    /// Slow-query trace latency threshold.
    pub fn slow_threshold(mut self, threshold: Duration) -> Self {
        self.config.slow_threshold = threshold;
        self
    }

    /// Record every Nth request in the slow trace regardless of
    /// latency (clamped to ≥ 1).
    pub fn slow_sample_every(mut self, every: u64) -> Self {
        self.config.slow_sample_every = every;
        self
    }

    /// Validates the knobs (clamping them into range) and returns the
    /// config.
    pub fn build(self) -> ServerConfig {
        let c = self.config;
        ServerConfig {
            workers: c.workers.max(1),
            queue_depth: c.queue_depth.max(1),
            read_timeout: c.read_timeout.max(Duration::from_millis(1)),
            write_timeout: c.write_timeout.max(Duration::from_millis(1)),
            max_line_bytes: c.max_line_bytes.max(1),
            max_connections: c.max_connections.max(1),
            slow_threshold: c.slow_threshold,
            slow_sample_every: c.slow_sample_every.max(1),
        }
    }
}

/// A sequenced response on its way back to a connection's writer: the
/// payload, and whether the connection closes after writing it.
type Reply = (u64, Arc<str>, bool);

/// One queued cache miss: the decoded query and its normalized cache
/// key, its per-connection sequence number, whether the connection
/// closes after the response, and the connection's response channel.
struct Job {
    seq: u64,
    query: String,
    /// `normalized(query)`, computed once by the reader's probe.
    key: String,
    close: bool,
    reply: Sender<Reply>,
    /// When the request's first line was read — the anchor of
    /// the slow-trace total.
    received_at: Instant,
    /// When the job entered the queue (queue-wait stage starts here).
    enqueued_at: Instant,
    /// Request parse time, microseconds.
    parse_us: u64,
    /// The reader's result-cache probe time, microseconds.
    cache_us: u64,
}

/// The serving front end. `start` is the only entry point; the running
/// server is controlled through the returned [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port),
    /// spawns the accept loop and worker pool serving HTTP/1.1, and
    /// returns immediately. One engine may back any number of servers,
    /// which then share one cache.
    ///
    /// # Errors
    /// Returns the bind error if the address is unavailable.
    pub fn start<A: ToSocketAddrs>(
        engine: Arc<Engine>,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let queue = Arc::new(BoundedQueue::new(config.queue_depth));
        let shutdown = Arc::new(AtomicBool::new(false));
        engine
            .metrics()
            .set_slow_config(config.slow_threshold, config.slow_sample_every);

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || worker_loop(&engine, &queue))
            })
            .collect();

        let accept = {
            let queue = Arc::clone(&queue);
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                accept_loop(&listener, &engine, &queue, &shutdown, config);
            })
        };

        Ok(ServerHandle {
            addr: local_addr,
            engine,
            queue,
            shutdown,
            accept: Some(accept),
            workers,
        })
    }
}

/// Control of a running server: its address, its engine (for dictionary
/// swaps and stats), and graceful shutdown. Dropping the handle shuts
/// the server down too.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<Engine>,
    queue: Arc<BoundedQueue<Job>>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the server — swap dictionaries or read cache
    /// stats through this while the server runs.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Gracefully stops the server: no new connections, in-flight
    /// requests drain, every thread is joined. Returns once everything
    /// has stopped.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.accept.is_none() && self.workers.is_empty() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Close the queue first: already-accepted requests drain and
        // get real responses, while anything arriving during the
        // wind-down is rejected in-band with a shutdown `503` instead of being served from a dying process.
        self.queue.close();
        // The accept loop polls a nonblocking listener, so it observes
        // the flag within one poll interval on its own. The self-
        // connect is only a best-effort nudge to wake it a little
        // sooner; shutdown does not depend on it succeeding.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accepts connections until shutdown, then joins every handler.
fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<Engine>,
    queue: &Arc<BoundedQueue<Job>>,
    shutdown: &Arc<AtomicBool>,
    config: ServerConfig,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    // Nonblocking accept + flag polling: shutdown never depends on a
    // wake-up connection reaching us (which can fail under fd
    // exhaustion or on wildcard binds — exactly the moments an
    // operator is trying to stop the server).
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                // Accepted sockets inherit nonblocking mode on some
                // platforms; connection io must block (with its own
                // timeouts).
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                stream
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(_) => {
                // Persistent accept errors (fd exhaustion under a
                // connection flood) would otherwise busy-spin this
                // loop at 100% CPU exactly when the server is
                // overloaded — back off briefly instead.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        handlers.retain(|h| !h.is_finished());
        if handlers.len() >= config.max_connections.max(1) {
            // Shed the connection outright: the client sees an
            // immediate close instead of a server that silently grows
            // a thread per idle socket.
            drop(stream);
            continue;
        }
        let engine = Arc::clone(engine);
        let queue = Arc::clone(queue);
        let shutdown = Arc::clone(shutdown);
        handlers.push(std::thread::spawn(move || {
            let _ = handle_connection(stream, &engine, &queue, &shutdown, config);
        }));
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// One worker: take one queued miss, resolve it, reply, and loop until
/// the queue is closed and drained.
fn worker_loop(engine: &Engine, queue: &BoundedQueue<Job>) {
    let m = engine.metrics();
    while let Some(job) = queue.pop() {
        let queue_us = as_us(job.enqueued_at.elapsed());
        m.queue_wait.record(queue_us);
        let (rendered, stage) = engine.resolve_miss(&job.key);
        // The slow gate runs before the reply send so `total_us` has a
        // fixed meaning (receipt → resolved, write excluded) regardless
        // of how fast the client drains its socket.
        let total_us = as_us(job.received_at.elapsed());
        if m.should_trace(total_us) {
            m.slow.push(SlowEntry {
                query: metrics::truncate_query(&job.query, 128),
                total_us,
                parse_us: job.parse_us,
                queue_us,
                cache_us: job.cache_us,
                segment_us: stage.segment_us,
                render_us: stage.render_us,
            });
        }
        // A send error means the connection died mid-flight; the result
        // is simply dropped.
        let _ = job.reply.send((job.seq, rendered.http, job.close));
    }
}

/// Serves one connection: reader (scoped thread) feeds the queue,
/// writer (this thread) re-sequences and responds.
fn handle_connection(
    stream: TcpStream,
    engine: &Arc<Engine>,
    queue: &Arc<BoundedQueue<Job>>,
    shutdown: &Arc<AtomicBool>,
    config: ServerConfig,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let read_half = stream.try_clone()?;
    let (tx, rx) = std::sync::mpsc::channel::<Reply>();
    std::thread::scope(|scope| {
        scope.spawn(|| reader_loop(read_half, engine, queue, shutdown, tx, config));
        let result = writer_loop(&stream, rx, engine.metrics());
        // If the writer died first (write timeout — the client stopped
        // reading — or a close-marked response), the reader would
        // otherwise keep parsing and enqueuing work whose results
        // nobody can receive. Shut the socket down so the reader's next
        // read fails and the whole connection is torn down. (On the
        // normal path the reader has already exited and this is a
        // no-op on a closing socket.)
        let _ = stream.shutdown(std::net::Shutdown::Both);
        result
    })
}

/// Feeds request lines through the connection's parser and
/// dispatches the requests it produces; responds in-band to result-cache
/// hits, stats requests, parse rejects and backpressure rejects (through
/// the same sequenced channel, so ordering is preserved) and queues the
/// misses.
fn reader_loop(
    read_half: TcpStream,
    engine: &Engine,
    queue: &BoundedQueue<Job>,
    shutdown: &AtomicBool,
    reply: Sender<Reply>,
    config: ServerConfig,
) {
    let protocol = HttpProtocol;
    let mut parser = protocol.parser();
    let m = engine.metrics();
    let mut reader = BufReader::new(read_half);
    // Lines accumulate as raw bytes: `read_line`'s UTF-8 guard would
    // silently discard a partial read that a timeout cut mid-way
    // through a multi-byte character, corrupting the stream. Bytes are
    // decoded only once a line is complete — by the parser, whose
    // business decoding is.
    let mut line: Vec<u8> = Vec::new();
    let mut seq = 0u64;
    // Parse-stage accounting. A request spans many lines (headers),
    // so parse time accumulates across `on_line` calls
    // and `request_started` anchors at the request's *first* line —
    // that instant is the receipt time the slow trace measures from.
    let mut parse_acc = Duration::ZERO;
    let mut request_started: Option<Instant> = None;
    // Dispatches one complete (still byte-form, terminator-stripped)
    // line; returns false when reading must stop — the writer
    // is gone, or a close-marked request was dispatched.
    let mut handle = |raw: &[u8], seq: &mut u64| -> bool {
        let line_start = Instant::now();
        let received_at = *request_started.get_or_insert(line_start);
        let parsed = parser.on_line(raw);
        parse_acc += line_start.elapsed();
        let Some(request) = parsed else {
            // Mid-request (a header line): nothing to answer yet,
            // and no sequence number consumed.
            return true;
        };
        let parse_us = as_us(parse_acc);
        m.parse.record(parse_us);
        parse_acc = Duration::ZERO;
        request_started = None;
        let (response, close): (Option<Arc<str>>, bool) = match request {
            Request::Query { query, close } => match engine.probe(&query) {
                // A hit is answered here, on the connection thread, in
                // request order through the same sequenced channel: no
                // queue.
                (Probe::Hit(rendered), cache_us) => {
                    let total_us = as_us(received_at.elapsed());
                    if m.should_trace(total_us) {
                        m.slow.push(SlowEntry {
                            query: metrics::truncate_query(&query, 128),
                            total_us,
                            parse_us,
                            queue_us: 0,
                            cache_us,
                            segment_us: 0,
                            render_us: 0,
                        });
                    }
                    (Some(rendered.http), close)
                }
                (Probe::Miss(key), cache_us) => match queue.push(Job {
                    seq: *seq,
                    query,
                    key,
                    close,
                    reply: reply.clone(),
                    received_at,
                    enqueued_at: Instant::now(),
                    parse_us,
                    cache_us,
                }) {
                    Ok(()) => (None, close),
                    Err(PushError::Full) => {
                        metrics::count_reject(Reject::Busy);
                        (Some(protocol.render_reject(Reject::Busy)), close)
                    }
                    Err(PushError::Closed) => {
                        metrics::count_reject(Reject::Shutdown);
                        (Some(protocol.render_reject(Reject::Shutdown)), close)
                    }
                },
            },
            // Stats, metrics and the slow trace are answered at receipt
            // time, never queued.
            Request::Stats { close } => (
                Some(protocol.render_stats(
                    &engine.cache_stats(),
                    engine.swaps(),
                    engine.window_cache_stats(),
                    engine.dict_stats(),
                    engine.uptime_seconds(),
                )),
                close,
            ),
            // Dictionary deltas are applied before the acknowledgement
            // is written: once the client sees the 200, the new
            // surfaces are live for every subsequent query.
            Request::DictDelta { body, close } => match engine.apply_delta_tsv(&body) {
                Ok((applied, stats)) => (Some(protocol.render_dict_delta(applied, &stats)), close),
                Err(_) => {
                    metrics::count_reject(Reject::Malformed);
                    (Some(protocol.render_reject(Reject::Malformed)), close)
                }
            },
            Request::Metrics { close } => (
                Some(protocol.render_metrics(&metrics::prometheus_text(engine))),
                close,
            ),
            Request::DebugSlow { close } => (
                Some(protocol.render_slow(&metrics::slow_json(engine))),
                close,
            ),
            Request::Reject { reject, close } => {
                metrics::count_reject(reject);
                (Some(protocol.render_reject(reject)), close)
            }
        };
        let alive = match response {
            Some(response) => reply.send((*seq, response, close)).is_ok(),
            None => true,
        };
        *seq += 1;
        // After a close-marked request the client gets its response
        // (the writer exits after writing it) but nothing further is
        // read — `Connection: close` semantics.
        alive && !close
    };
    loop {
        // Bound the per-connection buffer: once the (terminated or
        // not) line exceeds the cap, answer once and drop the
        // connection — we cannot resynchronize mid-line. The `take`
        // below guarantees `line` never grows past cap + 1 bytes even
        // against a client streaming data with no newline.
        if line.len() > config.max_line_bytes {
            metrics::count_reject(Reject::TooLarge);
            let _ = reply.send((seq, protocol.render_reject(Reject::TooLarge), true));
            break;
        }
        let allowed = (config.max_line_bytes + 1 - line.len()) as u64;
        match (&mut reader).take(allowed).read_until(b'\n', &mut line) {
            // True EOF (`allowed` is never 0 here): the client closed
            // its half. Process a final unterminated line, then stop.
            Ok(0) => {
                if !line.is_empty() {
                    handle(&line, &mut seq);
                }
                break;
            }
            Ok(_) => {
                if line.last() != Some(&b'\n') {
                    // Mid-line: either the cap cut the read (caught at
                    // the top of the loop) or the client hit EOF
                    // without a newline (next read returns Ok(0)).
                    continue;
                }
                line.pop(); // the parser contract: no trailing '\n'
                if !handle(&line, &mut seq) {
                    break;
                }
                line.clear();
                // A client that streams requests back-to-back never
                // hits the read-timeout branch, so shutdown must also
                // be observed here or a busy connection would block
                // ServerHandle::shutdown indefinitely.
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Timeout: `line` keeps any partial read; poll the flag
            // and retry.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // Dropping `reply` here lets the writer exit once the last queued
    // job for this connection has been answered.
}

/// Writes responses in request order: cache hits overtake queued
/// misses and workers answer misses out of order, so responses park in
/// a min-heap until their predecessor has been written. Responses are
/// self-framed (`Content-Length`). A close-marked response is the
/// connection's last: the writer flushes it and exits, which closes
/// the socket.
fn writer_loop(stream: &TcpStream, rx: Receiver<Reply>, metrics: &ServeMetrics) -> io::Result<()> {
    let mut out = BufWriter::new(stream);
    let mut pending: BinaryHeap<Reverse<Reply>> = BinaryHeap::new();
    let mut next = 0u64;
    while let Ok(msg) = rx.recv() {
        pending.push(Reverse(msg));
        // Batch whatever already arrived before paying for a flush.
        while let Ok(more) = rx.try_recv() {
            pending.push(Reverse(more));
        }
        // One write-stage sample per flush cycle (buffer fill + flush).
        // Responses only reach the client at the flush, so each cycle's
        // duration lies inside the latency window of the requests it
        // answers — the stage-sum invariant holds for `write` too.
        let cycle_start = Instant::now();
        let mut wrote = false;
        while pending
            .peek()
            .is_some_and(|Reverse((seq, ..))| *seq == next)
        {
            let Reverse((_, response, close)) = pending.pop().expect("peeked");
            out.write_all(response.as_bytes())?;
            next += 1;
            wrote = true;
            if close {
                let result = out.flush();
                metrics.write.record(as_us(cycle_start.elapsed()));
                return result;
            }
        }
        if wrote {
            out.flush()?;
            metrics.write.record(as_us(cycle_start.elapsed()));
        }
    }
    out.flush()
}
