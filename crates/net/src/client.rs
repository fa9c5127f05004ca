//! The blocking client: a connection handle, a count builder, and a
//! streaming iterator over estimate frames.
//!
//! ```no_run
//! use sgc_net::{Client, StreamEvent};
//!
//! let mut client = Client::connect("127.0.0.1:7471").unwrap();
//! let mut stream = client.count("cycle(5)").budget(256).stream().unwrap();
//! for event in &mut stream {
//!     match event.unwrap() {
//!         StreamEvent::Chunk(chunk) => {
//!             eprintln!(
//!                 "{}/{} trials, ±{:.1}%",
//!                 chunk.trials_run,
//!                 chunk.budget,
//!                 100.0 * chunk.relative_half_width
//!             );
//!         }
//!         StreamEvent::Final(output) => {
//!             println!("count ≈ {}", output.estimate.estimated_subgraphs);
//!         }
//!     }
//! }
//! ```

use crate::proto::{
    ChunkFrame, CountSpec, DeltaSpec, ErrorFrame, JobId, Request, Response, StatsFrame, WatchFrame,
    WireOutput,
};
use crate::wire::{self, FrameError, WireError, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION};
use sgc_core::Algorithm;
use sgc_service::Precision;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Ways a client call can fail.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(std::io::Error),
    /// A frame could not be read (truncated, oversized, …).
    Frame(FrameError),
    /// A frame was read but its payload did not decode.
    Wire(WireError),
    /// The `hello` handshake failed (version mismatch, or the peer is not
    /// an sgc server).
    Handshake(String),
    /// The server sent a response that makes no sense in this state.
    Unexpected(String),
    /// The server answered with a typed error frame. Check
    /// [`ErrorFrame::kind`] — [`is_retryable`](crate::ErrorKind::is_retryable)
    /// identifies admission-control rejections worth resubmitting.
    Remote(ErrorFrame),
    /// The connection closed before the expected response arrived.
    ConnectionClosed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Wire(e) => write!(f, "malformed response payload: {e}"),
            ClientError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
            ClientError::Unexpected(msg) => write!(f, "unexpected response: {msg}"),
            ClientError::Remote(frame) => write!(f, "server error: {frame}"),
            ClientError::ConnectionClosed => write!(f, "connection closed by the server"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A blocking connection to an sgc server.
///
/// One request runs at a time (`count` streams to completion before the
/// next verb); job ids are assigned internally. Dropping the client closes
/// the connection without a goodbye — call [`bye`](Client::bye) for a clean
/// shutdown handshake.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_frame_len: usize,
    next_id: JobId,
}

impl Client {
    /// Connects and performs the `hello` handshake.
    ///
    /// # Errors
    /// Socket errors, or [`ClientError::Handshake`] when the peer does not
    /// speak this protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            next_id: 1,
        };
        client.send(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match client.read_response()? {
            Response::HelloOk { version } if version == PROTOCOL_VERSION => Ok(client),
            Response::HelloOk { version } => Err(ClientError::Handshake(format!(
                "server speaks protocol version {version}, this client {PROTOCOL_VERSION}"
            ))),
            Response::Error(frame) => Err(ClientError::Handshake(frame.to_string())),
            other => Err(ClientError::Unexpected(format!(
                "expected hello-ok, got tag 0x{:02x}",
                other.tag()
            ))),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let payload = request.encode();
        wire::write_frame(
            &mut self.writer,
            request.tag(),
            &payload,
            self.max_frame_len,
        )?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        match wire::read_frame(&mut self.reader, self.max_frame_len)? {
            Some(raw) => Ok(Response::decode(raw.tag, &raw.payload)?),
            None => Err(ClientError::ConnectionClosed),
        }
    }

    /// Starts building a count request for `pattern` (the textual pattern
    /// grammar of `sgc_query::parse`); finish with
    /// [`stream`](CountBuilder::stream) or [`run`](CountBuilder::run).
    pub fn count<'a>(&'a mut self, pattern: &str) -> CountBuilder<'a> {
        CountBuilder {
            client: self,
            pattern: pattern.to_string(),
            algorithm: Algorithm::DegreeBased,
            seed: 0x5eed,
            budget: 64,
            precision: None,
            trace: None,
        }
    }

    /// Asks the server to plan `pattern` and returns the rendered report.
    ///
    /// # Errors
    /// [`ClientError::Remote`] with a spanned `parse` frame for malformed
    /// patterns.
    pub fn explain(&mut self, pattern: &str) -> Result<String, ClientError> {
        self.send(&Request::Explain {
            pattern: pattern.to_string(),
        })?;
        match self.read_response()? {
            Response::ExplainOk { report } => Ok(report),
            Response::Error(frame) => Err(ClientError::Remote(frame)),
            other => Err(ClientError::Unexpected(format!(
                "expected explain-ok, got tag 0x{:02x}",
                other.tag()
            ))),
        }
    }

    /// Fetches the service metrics and server counters.
    pub fn stats(&mut self) -> Result<StatsFrame, ClientError> {
        self.send(&Request::Stats)?;
        match self.read_response()? {
            Response::StatsOk(frame) => Ok(frame),
            Response::Error(frame) => Err(ClientError::Remote(frame)),
            other => Err(ClientError::Unexpected(format!(
                "expected stats-ok, got tag 0x{:02x}",
                other.tag()
            ))),
        }
    }

    /// Fetches the server's full metrics exposition: sorted `name value`
    /// lines covering stage histograms, engine/kernel/shard counters,
    /// service gauges, and the network layer's own counters.
    ///
    /// # Errors
    /// Transport failures, or [`ClientError::Remote`] error frames.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.send(&Request::Metrics)?;
        match self.read_response()? {
            Response::MetricsOk { exposition } => Ok(exposition),
            Response::Error(frame) => Err(ClientError::Remote(frame)),
            other => Err(ClientError::Unexpected(format!(
                "expected metrics-ok, got tag 0x{:02x}",
                other.tag()
            ))),
        }
    }

    /// Fetches the server's slow-query trace log, rendered slowest job
    /// first.
    ///
    /// # Errors
    /// Transport failures, or [`ClientError::Remote`] error frames.
    pub fn trace_log(&mut self) -> Result<String, ClientError> {
        self.send(&Request::Trace)?;
        match self.read_response()? {
            Response::TraceOk { report } => Ok(report),
            Response::Error(frame) => Err(ClientError::Remote(frame)),
            other => Err(ClientError::Unexpected(format!(
                "expected trace-ok, got tag 0x{:02x}",
                other.tag()
            ))),
        }
    }

    /// Applies one batch of edge inserts and deletes to the server's graph,
    /// returning the new version id. The server acknowledges once every
    /// live watch subscription's re-emission is scheduled: the watch
    /// streams deliver it afterwards, so this call returns without waiting
    /// for any watcher, and a watch whose previous emission was still
    /// running skips to the newest version.
    ///
    /// Use a dedicated connection for mutations when this client also holds
    /// a [`watch`](CountBuilder::watch) stream — the stream owns the
    /// connection's incoming frames while it is being iterated.
    ///
    /// # Errors
    /// [`ClientError::Remote`] with a `delta` frame when the batch is
    /// rejected (self-loop, duplicate edge, vertex out of range, inserting
    /// an existing edge, deleting a missing one), plus transport failures.
    pub fn apply_delta(
        &mut self,
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
    ) -> Result<u64, ClientError> {
        self.send(&Request::Delta(DeltaSpec {
            inserts: inserts.to_vec(),
            deletes: deletes.to_vec(),
        }))?;
        match self.read_response()? {
            Response::DeltaOk { version } => Ok(version),
            Response::Error(frame) => Err(ClientError::Remote(frame)),
            other => Err(ClientError::Unexpected(format!(
                "expected delta-ok, got tag 0x{:02x}",
                other.tag()
            ))),
        }
    }

    /// Clean goodbye: the server acknowledges and closes the connection.
    /// The client is consumed — the socket is useless afterwards.
    ///
    /// # Errors
    /// Transport failures while saying goodbye.
    pub fn bye(mut self) -> Result<(), ClientError> {
        self.send(&Request::Bye)?;
        match self.read_response()? {
            Response::ByeOk => Ok(()),
            Response::Error(frame) => Err(ClientError::Remote(frame)),
            other => Err(ClientError::Unexpected(format!(
                "expected bye-ok, got tag 0x{:02x}",
                other.tag()
            ))),
        }
    }
}

/// A count request under construction; defaults mirror
/// [`sgc_service::CountJob`].
pub struct CountBuilder<'a> {
    client: &'a mut Client,
    pattern: String,
    algorithm: Algorithm,
    seed: u64,
    budget: u64,
    precision: Option<Precision>,
    trace: Option<u64>,
}

impl<'a> CountBuilder<'a> {
    /// Selects the cycle-solving algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trial budget.
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the early-stop precision target.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Stamps the job with a caller-chosen trace ID for the server's
    /// slow-query log; the server mints one when not set.
    pub fn trace(mut self, trace_id: u64) -> Self {
        self.trace = Some(trace_id);
        self
    }

    /// Sends the request and returns the estimate stream.
    ///
    /// # Errors
    /// Transport failures while sending; server-side rejections arrive as
    /// the stream's first (and only) item.
    pub fn stream(self) -> Result<CountStream<'a>, ClientError> {
        let id = self.client.next_id;
        self.client.next_id += 1;
        let spec = CountSpec {
            id,
            pattern: self.pattern,
            algorithm: self.algorithm,
            seed: self.seed,
            budget: self.budget,
            precision: self.precision,
            trace: self.trace,
        };
        self.client.send(&Request::Count(spec))?;
        Ok(CountStream {
            client: self.client,
            id,
            done: false,
        })
    }

    /// Subscribes to live re-estimation: the server runs the job once at
    /// the current graph version (the stream's first item, emitted
    /// immediately) and again after every later `delta`, streaming one
    /// version-tagged [`WatchFrame`] per run, in increasing version order.
    /// When deltas land faster than the job counts, the server skips to the
    /// newest version instead of queueing every one, so the stream may pass
    /// over versions. The stream blocks between versions; call
    /// [`WatchStream::cancel`] (or drop the connection) to unsubscribe.
    ///
    /// Apply deltas from a *different* connection — this one's incoming
    /// frames belong to the watch stream while it is live.
    ///
    /// ```no_run
    /// use sgc_net::Client;
    ///
    /// let mut client = Client::connect("127.0.0.1:7471").unwrap();
    /// let mut watch = client.count("triangle").budget(64).watch().unwrap();
    /// for frame in &mut watch {
    ///     let frame = frame.unwrap();
    ///     println!(
    ///         "v{:016x}: count ≈ {}",
    ///         frame.version, frame.estimated_subgraphs
    ///     );
    /// }
    /// ```
    ///
    /// # Errors
    /// Transport failures while subscribing; server-side rejections arrive
    /// as the stream's first (and only) item.
    pub fn watch(self) -> Result<WatchStream<'a>, ClientError> {
        let id = self.client.next_id;
        self.client.next_id += 1;
        let spec = CountSpec {
            id,
            pattern: self.pattern,
            algorithm: self.algorithm,
            seed: self.seed,
            budget: self.budget,
            precision: self.precision,
            trace: self.trace,
        };
        self.client.send(&Request::Watch(spec))?;
        Ok(WatchStream {
            client: self.client,
            id,
            done: false,
        })
    }

    /// Sends the request and blocks to the final output, discarding the
    /// streamed chunks.
    ///
    /// # Errors
    /// Everything [`stream`](CountBuilder::stream) and the stream itself
    /// can report, including [`ClientError::Remote`] for typed server
    /// errors.
    pub fn run(self) -> Result<WireOutput, ClientError> {
        let mut stream = self.stream()?;
        let mut last = None;
        for event in &mut stream {
            if let StreamEvent::Final(output) = event? {
                last = Some(output);
            }
        }
        last.ok_or(ClientError::ConnectionClosed)
    }
}

/// One item of a [`CountStream`].
#[derive(Clone, Debug, PartialEq)]
pub enum StreamEvent {
    /// An in-progress anytime estimate (one per completed trial chunk).
    Chunk(ChunkFrame),
    /// The final result; the stream ends after yielding it.
    Final(WireOutput),
}

/// A blocking iterator over the estimate frames of one count job: zero or
/// more [`StreamEvent::Chunk`]s, then exactly one [`StreamEvent::Final`]
/// (or one `Err` — a typed server rejection or a transport failure), then
/// `None`.
pub struct CountStream<'a> {
    client: &'a mut Client,
    id: JobId,
    done: bool,
}

impl CountStream<'_> {
    /// The server-visible id of this job.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Requests cancellation of the job: the server stops it at the next
    /// chunk boundary, after which the stream yields its terminal frame —
    /// a `Final` with `StopReason::Cancelled` (and the partial estimate)
    /// when at least one chunk had run, a `cancelled` error otherwise.
    /// Keep consuming the iterator after cancelling.
    ///
    /// # Errors
    /// Transport failures while sending the cancel frame.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        self.client.send(&Request::Cancel(self.id))
    }
}

/// A blocking iterator over the version-tagged estimate frames of one watch
/// subscription: one [`WatchFrame`] per graph version, starting with the
/// version current at subscription time. Ends after [`cancel`]
/// (acknowledged by the server) or a terminal error.
///
/// [`cancel`]: WatchStream::cancel
pub struct WatchStream<'a> {
    client: &'a mut Client,
    id: JobId,
    done: bool,
}

impl WatchStream<'_> {
    /// The server-visible id of this subscription.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Unsubscribes: the server stops re-emitting and acknowledges, after
    /// which the iterator yields `None`. Keep consuming the iterator after
    /// cancelling — frames already in flight still arrive.
    ///
    /// # Errors
    /// Transport failures while sending the cancel frame.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        self.client.send(&Request::Cancel(self.id))
    }
}

impl Iterator for WatchStream<'_> {
    type Item = Result<WatchFrame, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let response = match self.client.read_response() {
                Ok(response) => response,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            match response {
                Response::WatchChunk(frame) if frame.id == self.id => return Some(Ok(frame)),
                Response::Error(frame) if frame.id == self.id || frame.id == 0 => {
                    self.done = true;
                    return Some(Err(ClientError::Remote(frame)));
                }
                // The server acknowledged our cancel: the subscription is
                // gone, the stream is over.
                Response::CancelOk { id, .. } if id == self.id => {
                    self.done = true;
                    return None;
                }
                // Frames for other jobs on this connection: not ours, skip.
                Response::WatchChunk(_)
                | Response::Chunk(_)
                | Response::Final { .. }
                | Response::Error(_)
                | Response::CancelOk { .. } => {}
                other => {
                    self.done = true;
                    return Some(Err(ClientError::Unexpected(format!(
                        "mid-watch frame with tag 0x{:02x}",
                        other.tag()
                    ))));
                }
            }
        }
    }
}

impl Iterator for CountStream<'_> {
    type Item = Result<StreamEvent, ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let response = match self.client.read_response() {
                Ok(response) => response,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            match response {
                Response::Chunk(chunk) if chunk.id == self.id => {
                    return Some(Ok(StreamEvent::Chunk(chunk)))
                }
                Response::Final { id, output } if id == self.id => {
                    self.done = true;
                    return Some(Ok(StreamEvent::Final(output)));
                }
                Response::Error(frame) if frame.id == self.id || frame.id == 0 => {
                    self.done = true;
                    return Some(Err(ClientError::Remote(frame)));
                }
                // Acknowledgement of our cancel; the terminal frame is
                // still coming.
                Response::CancelOk { id, .. } if id == self.id => {}
                // Frames for other (older, already-failed) jobs on this
                // connection: not ours, skip.
                Response::Chunk(_) | Response::Final { .. } | Response::Error(_) => {}
                other => {
                    self.done = true;
                    return Some(Err(ClientError::Unexpected(format!(
                        "mid-stream frame with tag 0x{:02x}",
                        other.tag()
                    ))));
                }
            }
        }
    }
}
