//! The server: a thread-per-connection TCP front door over a
//! [`Service`].
//!
//! Std-only by design — the deployment environment has no async runtime,
//! and the concurrency story the service already has (bounded queue, worker
//! pool, single-flight cache) does the heavy lifting; the network layer
//! only needs one cheap blocking thread per connection, and none per job:
//!
//! * the **accept loop** runs on its own thread and hands each connection
//!   to a handler thread,
//! * each **connection handler** reads frames with a read timeout (so it
//!   can poll the shutdown flag while idle), decodes requests, and answers
//!   on a mutex-guarded write half — whole frames are written under the
//!   lock, so responses from concurrent jobs never interleave mid-frame.
//!   Writes carry a timeout too: job frames are written by shared service
//!   workers, and a client that stops reading must not wedge a worker
//!   forever. The first write failure (timeout included) marks the
//!   connection **dead** — its socket is shut down, its streams are
//!   cancelled, and every later write fails fast without touching the
//!   socket. So does the end of the request loop (EOF, `bye`, a protocol
//!   error), which is why `bye-ok` is the last frame on a connection,
//! * each **count job** is written back by the thread that runs it: its
//!   `Chunk` frames by the service worker, through the progress watcher,
//!   and its `Final` (or `Error`) frame by its completion hook
//!   ([`JobHandle::on_done`](sgc_service::JobHandle::on_done)), which runs
//!   on whichever thread fulfils the job — after the last chunk, which is
//!   what guarantees every chunk precedes its final on the wire. The hook
//!   frees the job's id before it writes, so a client may reuse the id as
//!   soon as it reads the terminal frame.
//!
//! The accept loop and the connection handlers are the only threads the
//! server spawns.
//!
//! Counting work is never duplicated for the wire: requests flow through
//! [`Service::submit_with_progress`], so network jobs share the same
//! admission control, adaptive scheduling, and single-flight result cache
//! as in-process callers, and their outputs are bit-identical to
//! [`Service::run`] with the same parameters.

use crate::proto::{
    ChunkFrame, CountSpec, DeltaSpec, ErrorFrame, ErrorKind, JobId, Request, Response, WatchFrame,
    WireEstimate, WireOutput,
};
use crate::wire::{self, FrameError, RawFrame, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION};
use sgc_graph::CsrGraph;
use sgc_service::{
    CancelToken, ChunkUpdate, CountJob, EdgeDelta, ProgressFn, Service, ServiceConfig,
    ServiceError, VersionId, WatchFn, WatchHandle,
};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Construction-time configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Configuration of the embedded counting [`Service`].
    pub service: ServiceConfig,
    /// Per-connection read timeout: how often an idle connection handler
    /// wakes to poll the shutdown flag. Not a client deadline — an idle
    /// tick simply loops, and a stall *inside* a frame keeps waiting (the
    /// frame reader retries timeouts mid-frame, so a retransmission-length
    /// hiccup never kills a healthy connection).
    pub read_timeout: Duration,
    /// Per-connection write timeout. Response frames — including the chunk
    /// and final frames written by shared service worker threads — must
    /// land within this window; a client that stops reading until its TCP
    /// window fills is declared dead (its jobs are cancelled and the
    /// connection is closed) instead of blocking a worker indefinitely.
    pub write_timeout: Duration,
    /// Maximum accepted frame length (tag + payload bytes); oversized
    /// frames are rejected with a `bad-frame` error and the connection is
    /// closed.
    pub max_frame_len: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            service: ServiceConfig::default(),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

/// A snapshot of a server's connection and frame counters, from
/// [`Server::stats`]. Over the wire the same numbers are the `net_*` lines
/// of the `stats` verb's exposition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Frames read from clients.
    pub frames_read: u64,
    /// Frames written to clients.
    pub frames_written: u64,
    /// Count streams opened (jobs started over the wire).
    pub streams_opened: u64,
    /// Count streams currently running.
    pub streams_active: u64,
    /// Cancels that hit an active job.
    pub jobs_cancelled: u64,
    /// Malformed frames / protocol violations observed.
    pub protocol_errors: u64,
}

/// Live server counters (atomics; snapshot with
/// [`ServerCounters::snapshot`]).
#[derive(Default)]
struct ServerCounters {
    connections_accepted: AtomicU64,
    connections_open: AtomicU64,
    frames_read: AtomicU64,
    frames_written: AtomicU64,
    streams_opened: AtomicU64,
    streams_active: AtomicU64,
    jobs_cancelled: AtomicU64,
    protocol_errors: AtomicU64,
}

impl ServerCounters {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
            streams_opened: self.streams_opened.load(Ordering::Relaxed),
            streams_active: self.streams_active.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// State shared by the accept loop, every connection handler, and
/// [`Server::shutdown`].
struct ServerShared {
    service: Service,
    read_timeout: Duration,
    write_timeout: Duration,
    max_frame_len: usize,
    shutdown: AtomicBool,
    counters: ServerCounters,
    /// Socket clones of every open connection, keyed by connection id, so
    /// shutdown can unblock handlers stuck in a read.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Handler threads to join on shutdown.
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    next_conn_id: AtomicU64,
}

/// A running TCP server; see the [module docs](self) for the architecture.
///
/// Dropping the server shuts it down: the listener stops accepting, open
/// connections are closed, in-flight jobs drain, and every thread is
/// joined.
pub struct Server {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port; see
    /// [`local_addr`](Server::local_addr)), builds a [`Service`] over
    /// `graph`, and starts accepting connections.
    ///
    /// # Errors
    /// The socket-level errors of [`TcpListener::bind`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        graph: Arc<CsrGraph>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            service: Service::with_config(graph, config.service),
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            max_frame_len: config.max_frame_len,
            shutdown: AtomicBool::new(false),
            counters: ServerCounters::default(),
            conns: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(1),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("sgc-net-accept".to_string())
            .spawn(move || accept_loop(accept_shared, listener))
            .expect("failed to spawn accept thread");
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the listener is bound to (the resolved ephemeral port
    /// when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The embedded counting service — the same instance the wire verbs
    /// use, so tests and co-located callers can submit jobs and read
    /// metrics directly.
    pub fn service(&self) -> &Service {
        &self.shared.service
    }

    /// A snapshot of the network-layer counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// The full metrics exposition — the same sorted `name value` lines the
    /// `stats` wire verb returns, covering stage histograms, engine and
    /// kernel counters, and this server's `service_*` and `net_*` numbers.
    pub fn exposition(&self) -> String {
        exposition(&self.shared)
    }

    /// The slow-query trace log — the same rendering the `trace` wire verb
    /// returns.
    pub fn trace_report(&self) -> String {
        self.shared.service.trace_report()
    }

    /// Stops the server: no new connections, open connections are closed
    /// immediately (streaming clients lose their sockets — terminal frames
    /// are not guaranteed on the wire, but every in-flight job still
    /// settles service-side), the service drains, and every thread is
    /// joined. Closing sockets *before* draining is what keeps shutdown
    /// deadlock-free: a worker blocked writing a chunk to a client that
    /// stopped reading is unblocked by the close instead of being joined
    /// against forever. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection; it checks
        // the flag before handling anything.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        // Close client sockets FIRST. This unblocks connection handlers
        // stuck in a read and — critically — any service worker blocked in
        // a streaming chunk write to a client that stopped reading; only
        // then is draining the service (which joins its workers) safe.
        {
            let conns = self.shared.conns.lock().unwrap_or_else(|p| p.into_inner());
            for stream in conns.values() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        // Drain the service: every in-flight job settles (completes, or
        // fails with ShuttingDown) and its completion hook runs, failing
        // fast on the closed socket and releasing its connection.
        self.shared.service.shutdown();
        let handlers: Vec<JoinHandle<()>> = {
            let mut threads = self
                .shared
                .conn_threads
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            threads.drain(..).collect()
        };
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: Arc<ServerShared>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(&shared);
        let handler = std::thread::Builder::new()
            .name(format!("sgc-net-conn-{conn_id}"))
            .spawn(move || handle_conn(conn_shared, stream, conn_id));
        match handler {
            Ok(handle) => {
                let mut threads = shared
                    .conn_threads
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                // Reap handlers that already exited so a long-lived server
                // holds handles proportional to *open* connections, not to
                // every connection ever accepted.
                threads.retain(|thread| !thread.is_finished());
                threads.push(handle);
            }
            Err(_) => continue,
        }
    }
}

/// One live id on a connection.
enum Stream {
    /// A count job, from submission until its completion hook frees the id.
    Count(CancelToken),
    /// A watch subscription, until `cancel` or a dead connection
    /// unsubscribes it.
    Watch(WatchHandle),
}

/// Per-connection state shared between the request loop and the service
/// threads that write its jobs' frames.
struct Conn {
    shared: Arc<ServerShared>,
    /// The write half (a socket clone). Whole frames are written and
    /// flushed under this lock, so concurrent writers never interleave.
    writer: Mutex<TcpStream>,
    /// Set, under the writer lock, on the first write failure (timeout
    /// included), after `bye-ok`, and at teardown: the client is
    /// unreachable or gone, or a timed-out `write_all` left a torn frame on
    /// the stream. Either way nothing coherent can be sent anymore, so
    /// every later `send` fails fast without taking the socket's write
    /// timeout again — which is what bounds how long a stalled client can
    /// occupy a shared service worker.
    dead: AtomicBool,
    /// Every live count and watch id on this connection. Never held while
    /// a frame is written.
    streams: Mutex<HashMap<JobId, Stream>>,
}

impl Conn {
    /// Writes one response frame. Write failures mean the client is gone
    /// (or stopped reading past its write timeout); the connection is
    /// marked dead and its jobs cancelled — callers treat the error as
    /// "stop talking", never as a server error.
    fn send(&self, response: &Response) -> std::io::Result<()> {
        self.write(response, false)
    }

    /// Writes `response` as the connection's last frame: the connection is
    /// marked dead before the writer lock is released, so no frame can
    /// follow it.
    fn send_last(&self, response: &Response) {
        let _ = self.write(response, true);
    }

    fn write(&self, response: &Response, last: bool) -> std::io::Result<()> {
        let payload = {
            let _span = sgc_obs::span(sgc_obs::Stage::NetEncode);
            response.encode()
        };
        let _span = sgc_obs::span(sgc_obs::Stage::NetWrite);
        let mut writer = self.lock_writer();
        if self.dead.load(Ordering::SeqCst) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "connection marked dead",
            ));
        }
        let result = wire::write_frame(
            &mut *writer,
            response.tag(),
            &payload,
            self.shared.max_frame_len,
        )
        .and_then(|()| writer.flush());
        if result.is_ok() {
            self.shared
                .counters
                .frames_written
                .fetch_add(1, Ordering::Relaxed);
        }
        if last || result.is_err() {
            self.mark_dead(&writer);
        }
        result
    }

    /// Declares the connection dead, given its locked write half: shuts
    /// the socket down (unblocking the request loop's reader), cancels
    /// every count so service workers stop computing — and stop writing —
    /// for a connection nobody reads, and unsubscribes every watch. A
    /// count keeps its id until its completion hook runs. Not latched on
    /// the flag: teardown calls it once more to catch streams the request
    /// loop started after a failed write.
    fn mark_dead(&self, writer: &TcpStream) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = writer.shutdown(std::net::Shutdown::Both);
        self.lock_streams().retain(|_, stream| match stream {
            Stream::Count(token) => {
                token.cancel();
                true
            }
            Stream::Watch(handle) => {
                self.shared.service.unwatch(handle.id());
                false
            }
        });
    }

    fn lock_writer(&self) -> MutexGuard<'_, TcpStream> {
        self.writer.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_streams(&self) -> MutexGuard<'_, HashMap<JobId, Stream>> {
        self.streams.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn send_error(&self, id: JobId, kind: ErrorKind, message: impl Into<String>) {
        let _ = self.send(&Response::Error(ErrorFrame::new(id, kind, message)));
    }
}

fn handle_conn(shared: Arc<ServerShared>, stream: TcpStream, conn_id: u64) {
    shared
        .counters
        .connections_accepted
        .fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .connections_open
        .fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.write_timeout));
    // Three socket handles: the buffered read half (owned here), the
    // mutex-guarded write half, and a clone registered for shutdown.
    let conn = match (stream.try_clone(), stream.try_clone()) {
        (Ok(writer), Ok(for_shutdown)) => {
            shared
                .conns
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(conn_id, for_shutdown);
            Arc::new(Conn {
                shared: Arc::clone(&shared),
                writer: Mutex::new(writer),
                dead: AtomicBool::new(false),
                streams: Mutex::new(HashMap::new()),
            })
        }
        _ => {
            shared
                .counters
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut greeted = false;
    loop {
        let raw = match wire::read_frame(&mut reader, shared.max_frame_len) {
            Ok(Some(raw)) => raw,
            // Clean EOF at a frame boundary: the client left.
            Ok(None) => break,
            Err(FrameError::IdleTimeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                conn.send_error(0, ErrorKind::BadFrame, e.to_string());
                break;
            }
        };
        shared.counters.frames_read.fetch_add(1, Ordering::Relaxed);
        if !handle_frame(&conn, raw, &mut greeted) {
            break;
        }
    }
    // The request loop is done: the client left, said goodbye or broke the
    // protocol. Close the connection and cancel every stream; each count's
    // completion hook still runs when its job settles, and writes nothing.
    conn.mark_dead(&conn.lock_writer());
    shared
        .conns
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&conn_id);
    shared
        .counters
        .connections_open
        .fetch_sub(1, Ordering::Relaxed);
}

/// Dispatches one decoded frame. Returns `false` when the connection should
/// close (goodbye, protocol violation, or a dead socket).
fn handle_frame(conn: &Arc<Conn>, raw: RawFrame, greeted: &mut bool) -> bool {
    let request = match Request::decode(raw.tag, &raw.payload) {
        Ok(request) => request,
        Err(e) => {
            conn.shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            conn.send_error(0, ErrorKind::BadFrame, e.to_string());
            return false;
        }
    };
    if !*greeted && !matches!(request, Request::Hello { .. }) {
        conn.shared
            .counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        conn.send_error(0, ErrorKind::BadRequest, "expected hello first");
        return false;
    }
    match request {
        Request::Hello { version } => {
            if version != PROTOCOL_VERSION {
                conn.send_error(
                    0,
                    ErrorKind::BadRequest,
                    format!(
                        "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                    ),
                );
                return false;
            }
            *greeted = true;
            conn.send(&Response::HelloOk {
                version: PROTOCOL_VERSION,
            })
            .is_ok()
        }
        Request::Count(spec) => {
            start_count(conn, spec);
            true
        }
        Request::Cancel(id) => {
            let was_active = {
                let mut streams = conn.lock_streams();
                match streams.get(&id) {
                    // The id stays taken until the job's hook writes its
                    // terminal frame.
                    Some(Stream::Count(token)) => {
                        token.cancel();
                        true
                    }
                    // `cancel` doubles as unsubscribe so v3 needs no extra
                    // verb.
                    Some(Stream::Watch(handle)) => {
                        conn.shared.service.unwatch(handle.id());
                        streams.remove(&id);
                        true
                    }
                    None => false,
                }
            };
            if was_active {
                conn.shared
                    .counters
                    .jobs_cancelled
                    .fetch_add(1, Ordering::Relaxed);
            }
            conn.send(&Response::CancelOk { id, was_active }).is_ok()
        }
        Request::Delta(spec) => handle_delta(conn, spec),
        Request::Watch(spec) => {
            start_watch(conn, spec);
            true
        }
        Request::Explain { pattern } => {
            let response = match conn.shared.service.engine().explain_str(&pattern) {
                Ok(report) => Response::ExplainOk {
                    report: report.to_string(),
                },
                Err(sgc_core::SgcError::Pattern(e)) => {
                    Response::Error(ErrorFrame::from_parse_error(0, &e))
                }
                Err(e) => Response::Error(ErrorFrame::new(0, ErrorKind::Count, e.to_string())),
            };
            conn.send(&response).is_ok()
        }
        Request::Stats => conn
            .send(&Response::StatsOk {
                exposition: exposition(&conn.shared),
            })
            .is_ok(),
        Request::Bye => {
            conn.send_last(&Response::ByeOk);
            false
        }
        Request::Trace => conn
            .send(&Response::TraceOk {
                report: conn.shared.service.trace_report(),
            })
            .is_ok(),
    }
}

/// Renders the full registry exposition with this server's service and
/// `net_*` numbers merged in, read from the live counters in the same call:
/// nothing is stored in the process-wide registry, so another server in the
/// process never shows through.
fn exposition(shared: &ServerShared) -> String {
    let stats = shared.counters.snapshot();
    shared.service.exposition_with(&[
        ("net_connections_accepted", stats.connections_accepted),
        ("net_connections_open", stats.connections_open),
        ("net_frames_read", stats.frames_read),
        ("net_frames_written", stats.frames_written),
        ("net_streams_opened", stats.streams_opened),
        ("net_streams_active", stats.streams_active),
        ("net_jobs_cancelled", stats.jobs_cancelled),
        ("net_protocol_errors", stats.protocol_errors),
    ])
}

/// Builds the service job for one wire spec. Parse errors become spanned
/// error frames with the parser's caret diagnostic.
fn build_job(conn: &Conn, spec: &CountSpec) -> Option<CountJob> {
    if spec.id == 0 {
        conn.send_error(
            0,
            ErrorKind::BadRequest,
            "job id 0 is reserved for connection-level errors",
        );
        return None;
    }
    let job = match CountJob::from_pattern_str(&spec.pattern) {
        Ok(job) => job,
        Err(e) => {
            let _ = conn.send(&Response::Error(ErrorFrame::from_parse_error(spec.id, &e)));
            return None;
        }
    };
    let mut job = job
        .algorithm(spec.algorithm)
        .seed(spec.seed)
        .budget(spec.budget as usize);
    if let Some(precision) = spec.precision {
        job = job.precision(precision);
    }
    if let Some(trace_id) = spec.trace {
        job = job.trace(trace_id);
    }
    Some(job)
}

/// The progress watcher for one streaming job: writes a `Chunk` frame per
/// completed trial chunk, on the service worker thread, strictly before the
/// final result is fulfilled. A write failure (the client vanished, or
/// stopped reading past the write timeout) marks the connection dead inside
/// [`Conn::send`], which cancels this very job — so the worker stops at the
/// next chunk boundary instead of streaming into a void.
fn chunk_watcher(conn: &Arc<Conn>, id: JobId, confidence: f64) -> ProgressFn {
    let conn = Arc::clone(conn);
    Arc::new(move |update: &ChunkUpdate| {
        let _ = conn.send(&Response::Chunk(ChunkFrame {
            id,
            trials_run: update.trials_run as u64,
            budget: update.budget as u64,
            estimated_subgraphs: update.estimate.estimated_subgraphs,
            relative_half_width: update.estimate.relative_half_width(confidence),
        }));
    })
}

/// Maps a service-level failure onto the wire error taxonomy.
fn service_error_frame(id: JobId, e: &ServiceError) -> ErrorFrame {
    let kind = match e {
        ServiceError::QueueFull { .. } => ErrorKind::QueueFull,
        ServiceError::ShuttingDown => ErrorKind::ShuttingDown,
        ServiceError::InvalidPrecision { .. } => ErrorKind::InvalidPrecision,
        ServiceError::Cancelled => ErrorKind::Cancelled,
        ServiceError::WorkerLost => ErrorKind::Internal,
        ServiceError::Count(sgc_core::SgcError::Pattern(parse)) => {
            return ErrorFrame::from_parse_error(id, parse)
        }
        ServiceError::Count(_) => ErrorKind::Count,
        ServiceError::UnknownVersion { .. } => ErrorKind::UnknownVersion,
        ServiceError::Delta { .. } => ErrorKind::Delta,
    };
    ErrorFrame::new(id, kind, e.to_string())
}

/// Answers `bad-request` and returns `true` when a count stream or a watch
/// subscription on this connection already uses `id`: both would carry it,
/// and `cancel` could reach only one of them. Ids are checked and
/// registered on the connection's one reader thread, so no other request
/// can claim `id` in between.
fn refuse_id_in_use(conn: &Conn, id: JobId) -> bool {
    let in_use = conn.lock_streams().contains_key(&id);
    if in_use {
        conn.send_error(
            id,
            ErrorKind::BadRequest,
            format!("job id {id} is already active on this connection"),
        );
    }
    in_use
}

/// Starts one streaming count job, or answers its refusal. The job's chunk
/// frames are written by [`chunk_watcher`]; its terminal frame by its
/// completion hook, on whichever thread fulfils it, which first frees the
/// id and the `streams_active` slot.
fn start_count(conn: &Arc<Conn>, spec: CountSpec) {
    let Some(job) = build_job(conn, &spec) else {
        return;
    };
    if refuse_id_in_use(conn, spec.id) {
        return;
    }
    let id = spec.id;
    let confidence = spec.precision.map(|p| p.confidence).unwrap_or(0.95);
    let watcher = chunk_watcher(conn, id, confidence);
    let handle = match conn.shared.service.submit_with_progress(job, watcher) {
        Ok(handle) => handle,
        Err(e) => {
            let _ = conn.send(&Response::Error(service_error_frame(id, &e)));
            return;
        }
    };
    let counters = &conn.shared.counters;
    counters.streams_opened.fetch_add(1, Ordering::Relaxed);
    counters.streams_active.fetch_add(1, Ordering::Relaxed);
    conn.lock_streams()
        .insert(id, Stream::Count(handle.cancel_token()));
    let conn = Arc::clone(conn);
    handle.on_done(move |result| {
        // Free the id first: a client may reuse it once it reads the frame.
        conn.lock_streams().remove(&id);
        conn.shared
            .counters
            .streams_active
            .fetch_sub(1, Ordering::Relaxed);
        let response = match result {
            Ok(output) => Response::Final {
                id,
                output: WireOutput {
                    trials_run: output.trials_run as u64,
                    budget: output.budget as u64,
                    stop: output.stop,
                    from_cache: output.from_cache,
                    estimate: WireEstimate::from_estimate(&output.estimate),
                },
            },
            Err(e) => Response::Error(service_error_frame(id, &e)),
        };
        let _ = conn.send(&response);
    });
}

/// Applies one edge-delta batch to the service's versioned graph head and
/// answers with the new version id. `apply_delta` returns once every live
/// watch's re-emission is scheduled, without waiting for any: `delta-ok`
/// may therefore reach this client before the version's `watch-chunk`
/// frames reach their watchers, which worker threads write when the
/// emissions complete. A watch whose previous emission is still running
/// when the delta lands skips to the newest version once it is free. The
/// queue never refuses a delta for its watchers.
fn handle_delta(conn: &Arc<Conn>, spec: DeltaSpec) -> bool {
    let delta = match EdgeDelta::new(spec.inserts, spec.deletes) {
        Ok(delta) => delta,
        Err(e) => {
            return conn
                .send(&Response::Error(ErrorFrame::new(
                    0,
                    ErrorKind::Delta,
                    e.to_string(),
                )))
                .is_ok();
        }
    };
    match conn.shared.service.apply_delta(&delta) {
        Ok(version) => conn
            .send(&Response::DeltaOk {
                version: version.as_u64(),
            })
            .is_ok(),
        Err(e) => conn
            .send(&Response::Error(service_error_frame(0, &e)))
            .is_ok(),
    }
}

/// Registers a live watch subscription: the job re-runs at new graph
/// versions and each result streams back as a `watch-chunk` frame tagged
/// with the version that produced it. The initial emission (at the current
/// head) is written before this returns, on the connection's reader
/// thread; later ones are written by the service worker that completed
/// them — in increasing version order, at the newest version when deltas
/// outpace the watch — each write bounded by the connection's write
/// timeout, like [`chunk_watcher`]'s. `cancel` with the same id
/// unsubscribes.
fn start_watch(conn: &Arc<Conn>, spec: CountSpec) {
    let Some(job) = build_job(conn, &spec) else {
        return;
    };
    if refuse_id_in_use(conn, spec.id) {
        return;
    }
    let confidence = spec.precision.map(|p| p.confidence).unwrap_or(0.95);
    let id = spec.id;
    let cb_conn = Arc::clone(conn);
    let callback: WatchFn = Arc::new(move |version: VersionId, update: &ChunkUpdate| {
        let _ = cb_conn.send(&Response::WatchChunk(WatchFrame {
            id,
            version: version.as_u64(),
            trials_run: update.trials_run as u64,
            budget: update.budget as u64,
            estimated_subgraphs: update.estimate.estimated_subgraphs,
            relative_half_width: update.estimate.relative_half_width(confidence),
        }));
    });
    match conn.shared.service.watch(job, callback) {
        Ok(handle) => {
            conn.shared
                .counters
                .streams_opened
                .fetch_add(1, Ordering::Relaxed);
            conn.lock_streams().insert(id, Stream::Watch(handle));
        }
        Err(e) => {
            let _ = conn.send(&Response::Error(service_error_frame(id, &e)));
        }
    }
}
