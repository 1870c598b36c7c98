//! Line transports: stdio (tests, `vpd serve --stdio`) and a
//! **multiplexed** nonblocking TCP loop (`vpd serve`), plus the thin
//! [`call`] client used by `vpd call`.
//!
//! Both transports share one shape: read a request line, admit it (or
//! shed it), submit it to the bounded [`WorkerPool`], and let the
//! worker write the response line. Every accepted line gets **exactly
//! one** terminal response line — rejections included — so clients can
//! count instead of guessing.
//!
//! # Multiplexing
//!
//! TCP connections are served by **one** event-loop thread over
//! nonblocking sockets: an accept burst, then a read burst per
//! connection, splitting complete lines out of per-connection buffers.
//! Ten thousand idle clients therefore cost ten thousand small buffers
//! — not ten thousand threads. Workers write responses through a
//! connection's shared writer (a [`std::net::TcpStream`] clone wrapped
//! in a bounded retry loop, since the fd is nonblocking); a writer that
//! stays blocked past its budget marks the connection dead and drops
//! further bytes, so a stalled client cannot wedge a worker.
//!
//! # Admission control
//!
//! Overload degrades predictably instead of queueing unboundedly:
//!
//! * a full bounded queue rejects with `queue_full` (as before), and
//! * a request carrying `deadline_ms` that cannot meet it — estimated
//!   queue wait (EMA of recent service times × queue depth / workers)
//!   exceeding the budget — is **shed at admission** with the typed
//!   `shed` code, before it wastes queue space it is doomed to time out
//!   in. Requests without deadlines are never shed, and an idle queue
//!   never sheds (so a zero-deadline probe still reaches the dequeue
//!   check and fails deterministically there).
//!
//! Shutdown semantics (see DESIGN §12/§15):
//!
//! * A `shutdown` request is acknowledged, then the pool **drains**:
//!   in-flight requests (streams included) complete and their
//!   responses are written; queued requests are handed back and
//!   answered with `{"code":"draining"}`; the listener closes.
//! * End of input (stdio EOF / client disconnect) **finishes** instead:
//!   everything already accepted runs to completion. On TCP, a single
//!   client hanging up does not stop the server; only a `shutdown`
//!   request (or killing the process) does. The workspace forbids
//!   `unsafe`, so no signal handler is installed — drive shutdown
//!   through the protocol.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::Dispatcher;
use crate::pool::{SubmitError, WorkerPool};
use crate::proto::{ErrorCode, Request, Response, Work, PROTOCOL_VERSION};
use vpd_core::Architecture;
use vpd_report::Json;

/// A connection buffering more than this many bytes without a newline
/// is answered with a parse error and closed.
const MAX_LINE_BYTES: usize = 4 << 20;

/// How long a worker retries a nonblocking connection write before
/// declaring the client dead.
const WRITE_BUDGET: Duration = Duration::from_secs(5);

/// Event-loop sleep when an iteration made no progress.
const IDLE_POLL: Duration = Duration::from_micros(200);

/// Service tuning knobs. `vpd serve` sets the first three from its
/// flags; `shed_staleness` has no flag.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads executing analyses (min 1).
    pub workers: usize,
    /// Bounded queue depth; a full queue rejects with `queue_full`.
    pub queue_depth: usize,
    /// Scenario-cache capacity in compiled entries (0 disables).
    pub cache_capacity: usize,
    /// How long the shed estimator's service-time EMA stays trusted
    /// after the last completion. Past this window the estimate is
    /// treated as cold: post-idle requests are admitted rather than
    /// shed on stale history, and the next completion re-seeds the EMA
    /// instead of blending into it.
    pub shed_staleness: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 64,
            cache_capacity: 32,
            shed_staleness: Duration::from_secs(5),
        }
    }
}

/// One queued unit: the parsed request plus where its response goes.
struct Job<W: Write + Send + 'static> {
    request: Request,
    accepted_at: Instant,
    writer: Arc<Mutex<W>>,
}

fn write_line<W: Write>(writer: &Mutex<W>, response: &Response) {
    // Serialize outside the lock and write the line in one call:
    // formatted IO straight onto an unbuffered socket would issue one
    // syscall per format fragment.
    let mut line = response.to_json().to_string();
    line.push('\n');
    let mut w = writer.lock().expect("response writer poisoned");
    // A torn-down connection makes writes fail; that request's client
    // is gone, which is not the server's problem.
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

/// Whether a request accepted at `accepted_at` is past its
/// `deadline_ms`; if so, counts the rejection and answers
/// `deadline_exceeded` with `message(waited_ms, budget_ms)`. `>=` so a
/// zero deadline deterministically expires (useful for tests and as an
/// explicit "reject unless immediate" probe); no deadline never
/// expires.
fn deadline_expired<W: Write>(
    writer: &Mutex<W>,
    id: Option<i64>,
    accepted_at: Instant,
    deadline_ms: Option<u64>,
    message: impl FnOnce(u128, u64) -> String,
) -> bool {
    let Some(budget_ms) = deadline_ms else {
        return false;
    };
    let waited_ms = accepted_at.elapsed().as_millis();
    if waited_ms < u128::from(budget_ms) {
        return false;
    }
    vpd_obs::incr("serve.rejected.deadline");
    write_line(
        writer,
        &Response::error(
            id,
            ErrorCode::DeadlineExceeded,
            message(waited_ms, budget_ms),
        ),
    );
    true
}

fn run_job<W: Write + Send + 'static>(dispatcher: &Dispatcher, worker: usize, job: Job<W>) {
    vpd_obs::incr("serve.requests");
    let _span = vpd_obs::span("serve.request_ns");
    if let Work::TransientStream { arch, chunk } = job.request.work {
        // Streams own their deadline: the budget is re-checked between
        // chunks, so expiry mid-stream ends the stream with a typed
        // error record instead of a silent truncation.
        run_stream(
            dispatcher,
            worker,
            job.request.id,
            arch,
            chunk,
            job.accepted_at,
            job.request.deadline_ms,
            &job.writer,
        );
        return;
    }
    if deadline_expired(
        &job.writer,
        job.request.id,
        job.accepted_at,
        job.request.deadline_ms,
        |waited_ms, budget_ms| {
            format!("request waited {waited_ms} ms in queue, past its {budget_ms} ms deadline")
        },
    ) {
        return;
    }
    let response = match dispatcher.dispatch_on(worker, &job.request.work) {
        Ok((result, cached)) => {
            vpd_obs::incr("serve.ok");
            Response::ok(job.request.id, job.request.work.kind(), cached, result)
        }
        Err((code, message)) => {
            vpd_obs::incr("serve.errors");
            Response::error(job.request.id, code, message)
        }
    };
    write_line(&job.writer, &response);
}

/// Drives one `transient_stream` request: chunk records with
/// `"done":false` and ascending `seq`, then a terminal record — the
/// summary on success, a typed error on deadline expiry or solver
/// failure. The deadline is checked before the compile/check-out and
/// again between chunks; an expired stream still returns its compiled
/// scenario to the cache (the run drops, the drop checks it back in).
#[allow(clippy::too_many_arguments)]
fn run_stream<W: Write + Send + 'static>(
    dispatcher: &Dispatcher,
    worker: usize,
    id: Option<i64>,
    arch: Architecture,
    chunk: usize,
    accepted_at: Instant,
    deadline_ms: Option<u64>,
    writer: &Mutex<W>,
) {
    let expired = |emitted: usize| {
        deadline_expired(writer, id, accepted_at, deadline_ms, |_, budget_ms| {
            format!("stream deadline of {budget_ms} ms expired after {emitted} chunk records")
        })
    };
    if expired(0) {
        return;
    }
    let mut run = match dispatcher.begin_transient_stream_on(worker, arch, chunk) {
        Ok(run) => run,
        Err((code, message)) => {
            vpd_obs::incr("serve.errors");
            write_line(writer, &Response::error(id, code, message));
            return;
        }
    };
    let cached = run.cached();
    let mut seq = 0usize;
    loop {
        match run.next_chunk() {
            Ok(Some(doc)) => {
                write_line(
                    writer,
                    &Response::stream(id, "transient_stream", cached, seq, false, doc),
                );
                seq += 1;
                if expired(seq) {
                    return;
                }
            }
            Ok(None) => break,
            Err((code, message)) => {
                vpd_obs::incr("serve.errors");
                write_line(writer, &Response::error(id, code, message));
                return;
            }
        }
    }
    vpd_obs::incr("serve.ok");
    write_line(
        writer,
        &Response::stream(id, "transient_stream", cached, seq, true, run.finish()),
    );
}

/// What ended a serve session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ended {
    /// Input exhausted; all accepted work completed.
    Eof,
    /// A `shutdown` request drained the service.
    Shutdown,
}

/// Deadline-aware load shedding: an exponential moving average of
/// recent per-request service times estimates how long a request would
/// wait behind the current queue; a deadline the estimate already
/// blows is rejected at admission with the typed `shed` code.
struct Admission {
    workers: u64,
    /// EMA of service time, nanoseconds; 0 until the first completion.
    est_ns: AtomicU64,
    /// When the EMA was last fed, as nanoseconds since `epoch`; 0 until
    /// the first completion.
    last_done_ns: AtomicU64,
    epoch: Instant,
    staleness: Duration,
}

impl Admission {
    fn new(workers: usize, staleness: Duration) -> Self {
        Self {
            workers: workers.max(1) as u64,
            est_ns: AtomicU64::new(0),
            last_done_ns: AtomicU64::new(0),
            epoch: Instant::now(),
            staleness,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1)
    }

    /// Whether the estimate reflects traffic older than the staleness
    /// window (or no traffic at all).
    fn is_stale(&self) -> bool {
        let last = self.last_done_ns.load(Ordering::Relaxed);
        if last == 0 {
            return true;
        }
        let idle = self.now_ns().saturating_sub(last);
        u128::from(idle) > self.staleness.as_nanos()
    }

    fn record(&self, elapsed: Duration) {
        let obs = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        // The first completion after an idle gap re-seeds the EMA: the
        // pre-idle service profile is history, not a prior.
        let stale = self.is_stale();
        let old = self.est_ns.load(Ordering::Relaxed);
        let next = if stale || old == 0 {
            obs
        } else {
            (3 * (old / 4)) + obs / 4
        };
        self.est_ns.store(next.max(1), Ordering::Relaxed);
        self.last_done_ns.store(self.now_ns(), Ordering::Relaxed);
    }

    /// Estimated queue wait for a request entering behind `queued`
    /// jobs, in milliseconds. Zero until any request has completed.
    fn estimated_wait_ms(&self, queued: usize) -> u64 {
        let est = self.est_ns.load(Ordering::Relaxed);
        (est / 1_000_000).saturating_mul(queued as u64) / self.workers
    }

    /// A reject message when the request should be shed, `None` to
    /// admit. Never sheds deadline-less requests, an idle queue, or on
    /// a stale estimate — a post-idle burst must be measured before it
    /// can be shed, exactly like a cold start.
    fn should_shed(&self, queued: usize, deadline_ms: Option<u64>) -> Option<String> {
        let budget_ms = deadline_ms?;
        if queued == 0 || self.is_stale() {
            return None;
        }
        let wait_ms = self.estimated_wait_ms(queued);
        if wait_ms > budget_ms {
            Some(format!(
                "shed: estimated queue wait {wait_ms} ms exceeds the {budget_ms} ms deadline \
                 ({queued} queued); retry with backoff or a larger budget"
            ))
        } else {
            None
        }
    }
}

/// Builds the worker pool around a shared dispatcher.
fn build_pool<W: Write + Send + 'static>(
    dispatcher: &Arc<Dispatcher>,
    admission: &Arc<Admission>,
    cfg: &ServeConfig,
) -> WorkerPool<Job<W>> {
    let dispatcher = Arc::clone(dispatcher);
    let admission = Arc::clone(admission);
    WorkerPool::new(cfg.workers, cfg.queue_depth, move |worker, job: Job<W>| {
        let started = Instant::now();
        run_job(&dispatcher, worker, job);
        admission.record(started.elapsed());
    })
}

/// Handles one request line; returns `true` when the line was a
/// `shutdown` request (the caller then drains).
fn handle_line<W: Write + Send + 'static>(
    line: &str,
    pool: &WorkerPool<Job<W>>,
    admission: &Admission,
    writer: &Arc<Mutex<W>>,
) -> bool {
    if line.trim().is_empty() {
        return false;
    }
    let request = match Request::parse_line(line) {
        Ok(req) => req,
        Err(e) => {
            vpd_obs::incr("serve.rejected.invalid");
            write_line(writer, &Response::error(e.id, e.code, e.message));
            return false;
        }
    };
    if request.work == Work::Shutdown {
        return true;
    }
    if let Some(message) = admission.should_shed(pool.queued(), request.deadline_ms) {
        vpd_obs::incr("serve.shed.deadline");
        write_line(
            writer,
            &Response::error(request.id, ErrorCode::Shed, message),
        );
        return false;
    }
    let job = Job {
        request,
        accepted_at: Instant::now(),
        writer: Arc::clone(writer),
    };
    if let Err(err) = pool.submit(job) {
        let (job, code, message) = match err {
            SubmitError::QueueFull(job) => {
                vpd_obs::incr("serve.rejected.queue_full");
                vpd_obs::incr("serve.shed.queue_full");
                (job, ErrorCode::QueueFull, "queue is full; retry later")
            }
            SubmitError::Draining(job) => {
                vpd_obs::incr("serve.rejected.draining");
                vpd_obs::incr("serve.shed.draining");
                (job, ErrorCode::Draining, "server is draining")
            }
        };
        write_line(writer, &Response::error(job.request.id, code, message));
    }
    false
}

/// Acknowledges a shutdown request and drains the pool, answering every
/// pulled-back queued job with a typed `draining` rejection.
fn drain_with_rejections<W: Write + Send + 'static>(
    id: Option<i64>,
    pool: &WorkerPool<Job<W>>,
    writer: &Arc<Mutex<W>>,
) {
    write_line(
        writer,
        &Response::ok(
            id,
            "shutdown",
            false,
            vpd_report::Json::obj([("command", vpd_report::Json::from("shutdown"))]),
        ),
    );
    for job in pool.drain() {
        vpd_obs::incr("serve.rejected.draining");
        vpd_obs::incr("serve.shed.draining");
        write_line(
            &job.writer,
            &Response::error(
                job.request.id,
                ErrorCode::Draining,
                "server is draining for shutdown",
            ),
        );
    }
}

/// Serves one NDJSON session over arbitrary line I/O — the stdio mode,
/// and the deterministic harness the shutdown tests drive.
///
/// Returns the writer (all workers joined, so it is exclusively owned
/// again) plus how the session ended.
///
/// # Errors
///
/// Propagates read errors from `reader`.
pub fn serve_lines<R, W>(reader: R, writer: W, cfg: &ServeConfig) -> std::io::Result<(W, Ended)>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let dispatcher = Arc::new(Dispatcher::with_workers(cfg.cache_capacity, cfg.workers));
    let admission = Arc::new(Admission::new(cfg.workers, cfg.shed_staleness));
    let writer = Arc::new(Mutex::new(writer));
    let pool = build_pool(&dispatcher, &admission, cfg);
    let mut ended = Ended::Eof;
    for line in reader.lines() {
        let line = line?;
        if handle_line(&line, &pool, &admission, &writer) {
            let id = Request::parse_line(&line).ok().and_then(|r| r.id);
            drain_with_rejections(id, &pool, &writer);
            ended = Ended::Shutdown;
            break;
        }
    }
    if ended == Ended::Eof {
        pool.finish();
    }
    let writer = Arc::into_inner(writer)
        .expect("workers joined; no writer clones remain")
        .into_inner()
        .expect("response writer poisoned");
    Ok((writer, ended))
}

/// A worker-side writer over a nonblocking connection: retries
/// `WouldBlock` in a bounded loop, and past the budget (or on any hard
/// error) marks the connection dead and swallows further bytes so a
/// stalled or vanished client cannot wedge a worker thread.
struct ConnWriter {
    stream: TcpStream,
    dead: bool,
}

impl Write for ConnWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead || buf.is_empty() {
            return Ok(buf.len());
        }
        let started = Instant::now();
        loop {
            match self.stream.write(buf) {
                Ok(0) => {
                    self.dead = true;
                    return Ok(buf.len());
                }
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if started.elapsed() > WRITE_BUDGET {
                        self.dead = true;
                        return Ok(buf.len());
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return Ok(buf.len());
                }
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.dead {
            let _ = self.stream.flush();
        }
        Ok(())
    }
}

/// One multiplexed connection's event-loop state.
struct Conn {
    stream: TcpStream,
    writer: Arc<Mutex<ConnWriter>>,
    buf: Vec<u8>,
    closed: bool,
}

impl Conn {
    fn accept(stream: TcpStream) -> std::io::Result<Self> {
        // One-line requests and responses are far smaller than a
        // segment; Nagle + delayed ACK would add ~40 ms per turn.
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        let writer = ConnWriter {
            stream: stream.try_clone()?,
            dead: false,
        };
        Ok(Self {
            stream,
            writer: Arc::new(Mutex::new(writer)),
            buf: Vec::new(),
            closed: false,
        })
    }
}

/// A bound TCP service, not yet accepting.
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7171`, or port 0 for an ephemeral
    /// port — see [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            cfg,
        })
    }

    /// The actually-bound address.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections on one multiplexed event-loop
    /// thread until a `shutdown` request arrives, then drains and
    /// returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let dispatcher = Arc::new(Dispatcher::with_workers(
            self.cfg.cache_capacity,
            self.cfg.workers,
        ));
        let admission = Arc::new(Admission::new(self.cfg.workers, self.cfg.shed_staleness));
        let pool: WorkerPool<Job<ConnWriter>> = build_pool(&dispatcher, &admission, &self.cfg);
        let mut conns: Vec<Conn> = Vec::new();
        let mut scratch = [0u8; 64 * 1024];
        loop {
            let mut progress = false;
            // Accept burst.
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        vpd_obs::incr("serve.connections");
                        if let Ok(conn) = Conn::accept(stream) {
                            conns.push(conn);
                        }
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            // Read burst per connection, splitting complete lines.
            for conn in &mut conns {
                loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            // EOF: a trailing unterminated line still
                            // counts (matches BufRead::lines).
                            if !conn.buf.is_empty() {
                                let line = String::from_utf8_lossy(&conn.buf).into_owned();
                                conn.buf.clear();
                                if handle_line(&line, &pool, &admission, &conn.writer) {
                                    let id = Request::parse_line(&line).ok().and_then(|r| r.id);
                                    drain_with_rejections(id, &pool, &conn.writer);
                                    return Ok(());
                                }
                            }
                            conn.closed = true;
                            break;
                        }
                        Ok(n) => {
                            progress = true;
                            conn.buf.extend_from_slice(&scratch[..n]);
                            let mut start = 0usize;
                            while let Some(pos) = conn.buf[start..].iter().position(|&b| b == b'\n')
                            {
                                let line = String::from_utf8_lossy(&conn.buf[start..start + pos])
                                    .into_owned();
                                start += pos + 1;
                                if handle_line(&line, &pool, &admission, &conn.writer) {
                                    let id = Request::parse_line(&line).ok().and_then(|r| r.id);
                                    drain_with_rejections(id, &pool, &conn.writer);
                                    return Ok(());
                                }
                            }
                            conn.buf.drain(..start);
                            if conn.buf.len() > MAX_LINE_BYTES {
                                vpd_obs::incr("serve.rejected.invalid");
                                write_line(
                                    &conn.writer,
                                    &Response::error(
                                        None,
                                        ErrorCode::Parse,
                                        "request line exceeds the size limit",
                                    ),
                                );
                                conn.closed = true;
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            conn.closed = true;
                            break;
                        }
                    }
                }
            }
            // A closed connection's pending responses keep flowing:
            // workers hold the writer clone until their jobs finish.
            conns.retain(|c| !c.closed);
            if !progress {
                std::thread::sleep(IDLE_POLL);
            }
        }
    }
}

/// Sends request lines over one connection and reads one **terminal**
/// response line per request — the `vpd call` client.
///
/// The first response's `version` field is checked against this
/// client's [`PROTOCOL_VERSION`]: a missing or different version fails
/// fast with `InvalidData` instead of misparsing a foreign protocol.
///
/// When `shutdown` is true a `{"kind":"shutdown"}` request is appended
/// after the payload lines. Responses arrive in completion order; match
/// them up by `id`. Streaming requests (`transient_stream`) emit chunk
/// records carrying `"done":false` before their terminal record — the
/// chunks are collected into the returned lines but do not count toward
/// the per-request tally, so a stream of any length still satisfies
/// exactly one expected response.
///
/// # Errors
///
/// Propagates connection and I/O failures. A clean server-side close
/// before all terminal responses arrive yields `UnexpectedEof`; a
/// protocol-version mismatch yields `InvalidData`.
pub fn call(addr: &str, lines: &[String], shutdown: bool) -> std::io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut expected = 0usize;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        writeln!(writer, "{line}")?;
        expected += 1;
    }
    if shutdown {
        writer.write_all(b"{\"kind\":\"shutdown\",\"id\":-1}\n")?;
        expected += 1;
    }
    writer.flush()?;
    let mut responses = Vec::with_capacity(expected);
    let mut terminal = 0usize;
    let mut version_checked = false;
    let mut buf = String::new();
    while terminal < expected {
        buf.clear();
        let n = reader.read_line(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("server closed after {terminal} of {expected} responses"),
            ));
        }
        let text = buf.trim_end().to_owned();
        let doc = Json::parse(&text).ok();
        if !version_checked {
            match doc
                .as_ref()
                .and_then(|j| j.get("version"))
                .and_then(Json::as_i64)
            {
                Some(v) if v == PROTOCOL_VERSION => version_checked = true,
                Some(v) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "server speaks protocol version {v}; this client speaks \
                             {PROTOCOL_VERSION} — upgrade the older side"
                        ),
                    ))
                }
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "server response carries no protocol version (pre-v{PROTOCOL_VERSION} \
                             server); upgrade the server or use a matching client"
                        ),
                    ))
                }
            }
        }
        // A chunk record (`"done":false`) belongs to a still-open
        // stream; anything else — plain results, errors, and stream
        // summaries (`"done":true`) — terminates its request.
        let is_chunk = doc.is_some_and(|j| matches!(j.get("done"), Some(Json::Bool(false))));
        if !is_chunk {
            terminal += 1;
        }
        responses.push(text);
    }
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn serve_script(lines: &[&str], cfg: &ServeConfig) -> (Vec<String>, Ended) {
        let input = lines.join("\n");
        let (out, ended) =
            serve_lines(Cursor::new(input), Vec::<u8>::new(), cfg).expect("serve session");
        let text = String::from_utf8(out).expect("utf8 output");
        (text.lines().map(str::to_owned).collect(), ended)
    }

    #[test]
    fn stdio_session_answers_every_line_and_finishes_on_eof() {
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let (out, ended) = serve_script(
            &[
                r#"{"id":1,"kind":"ping"}"#,
                "",
                r#"{"id":2,"kind":"sharing","params":{"modules":12}}"#,
                "not json",
                r#"{"id":4,"kind":"stats"}"#,
            ],
            &cfg,
        );
        assert_eq!(ended, Ended::Eof);
        assert_eq!(out.len(), 4, "one response per non-empty line: {out:?}");
        // The reader thread answers parse errors inline while the
        // worker writes results, so only membership is deterministic —
        // clients match responses by id, and so does this test.
        let ping = out.iter().find(|l| l.contains(r#""id":1"#)).unwrap();
        assert!(ping.contains(r#""ok":true"#) && ping.contains(r#""command":"ping""#));
        assert!(ping.contains(r#""version":2"#), "{ping}");
        let sharing = out.iter().find(|l| l.contains(r#""id":2"#)).unwrap();
        assert!(sharing.contains(r#""command":"sharing""#), "{sharing}");
        assert!(out.iter().any(|l| l.contains(r#""code":"parse""#)));
        let stats = out.iter().find(|l| l.contains(r#""id":4"#)).unwrap();
        assert!(stats.contains(r#""command":"stats""#));
        assert!(stats.contains(r#""cache""#), "{stats}");
    }

    #[test]
    fn shutdown_request_acks_then_rejects_queued_work() {
        // Single worker and a script whose first request occupies it
        // long enough for the rest to queue is inherently racy — so
        // drive the deterministic half here (shutdown first, work
        // after) and leave the in-flight half to the pool tests.
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let (out, ended) = serve_script(
            &[
                r#"{"id":10,"kind":"shutdown"}"#,
                r#"{"id":11,"kind":"ping"}"#,
                r#"{"id":12,"kind":"ping"}"#,
            ],
            &cfg,
        );
        assert_eq!(ended, Ended::Shutdown);
        // The ack is written; the lines after shutdown are never read.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains(r#""id":10"#) && out[0].contains(r#""kind":"shutdown""#));
    }

    #[test]
    fn transient_stream_emits_ordered_chunks_then_a_summary() {
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let (out, ended) = serve_script(
            &[r#"{"id":7,"kind":"transient_stream","params":{"arch":"a2","chunk":2000}}"#],
            &cfg,
        );
        assert_eq!(ended, Ended::Eof);
        // 60 µs at 10 ns is 6001 samples: chunks of 2000, 2000, 2000,
        // and 1, then the summary record.
        assert_eq!(out.len(), 5, "{}", out.len());
        for (i, line) in out[..4].iter().enumerate() {
            assert!(line.contains(&format!(r#""seq":{i}"#)), "{line}");
            assert!(line.contains(r#""done":false"#), "{line}");
            assert!(line.contains(r#""id":7"#), "{line}");
        }
        assert!(out[4].contains(r#""done":true"#), "{}", out[4]);
        assert!(out[4].contains(r#""seq":4"#), "{}", out[4]);
        assert!(out[4].contains(r#""command":"transient_stream""#));
        assert!(out[4].contains(r#""samples":6001"#) && out[4].contains(r#""chunks":4"#));
    }

    #[test]
    fn expired_stream_deadline_yields_a_typed_error_record() {
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        // A zero budget has always expired by the stream's first
        // deadline check: the stream terminates with one typed error
        // record and zero chunk records.
        let (out, _) = serve_script(
            &[r#"{"id":8,"kind":"transient_stream","params":{"arch":"a0"},"deadline_ms":0}"#],
            &cfg,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].contains(r#""code":"deadline_exceeded""#) && out[0].contains("0 chunk records"),
            "{}",
            out[0]
        );
    }

    #[test]
    fn deadline_zero_rejects_at_dequeue() {
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        // A zero deadline with an idle queue is never shed at
        // admission; it reaches the dequeue check and expires there.
        let (out, _) = serve_script(&[r#"{"id":5,"kind":"ping","deadline_ms":0}"#], &cfg);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].contains(r#""code":"deadline_exceeded""#),
            "{}",
            out[0]
        );
    }

    #[test]
    fn admission_sheds_only_doomed_deadlines_behind_a_queue() {
        let fresh = Duration::from_secs(60);
        let a = Admission::new(1, fresh);
        // No completions yet: never shed.
        assert!(a.should_shed(10, Some(1)).is_none());
        // 20 ms EMA, 4 queued → ~80 ms estimated wait.
        a.record(Duration::from_millis(20));
        assert_eq!(a.estimated_wait_ms(4), 80);
        assert!(
            a.should_shed(4, Some(50)).is_some(),
            "50 ms budget is doomed"
        );
        assert!(a.should_shed(4, Some(100)).is_none(), "100 ms budget fits");
        // Deadline-less requests and idle queues are never shed.
        assert!(a.should_shed(4, None).is_none());
        assert!(a.should_shed(0, Some(1)).is_none());
        // Two workers halve the wait.
        let a2 = Admission::new(2, fresh);
        a2.record(Duration::from_millis(20));
        assert_eq!(a2.estimated_wait_ms(4), 40);
        // The EMA tracks a shifting service time.
        a.record(Duration::from_millis(4));
        let est = a.estimated_wait_ms(1);
        assert!(est < 20, "EMA moved toward the faster observation: {est}");
    }

    #[test]
    fn stale_estimates_never_shed_and_the_next_completion_reseeds() {
        let a = Admission::new(1, Duration::from_millis(30));
        // A slow burst builds a large estimate; within the staleness
        // window it sheds a doomed deadline as before.
        a.record(Duration::from_millis(50));
        assert!(a.should_shed(4, Some(10)).is_some());
        // Idle past the window: the estimate is history, not a prior —
        // the first post-idle request is admitted, not shed.
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            a.should_shed(4, Some(10)).is_none(),
            "a stale estimate must not shed post-idle requests"
        );
        // The first post-idle completion re-seeds the EMA instead of
        // blending into the stale value: 50 ms ⋅ ¾ would leave ~38 ms,
        // a re-seed leaves exactly the 2 ms observation.
        a.record(Duration::from_millis(2));
        assert_eq!(a.est_ns.load(Ordering::Relaxed), 2_000_000);
        assert!(a.should_shed(4, Some(10)).is_none(), "8 ms wait fits 10 ms");
        assert!(a.should_shed(4, Some(7)).is_some(), "7 ms budget is doomed");
    }
}
