//! The message layer: typed requests and responses over [`crate::wire`]
//! frames.
//!
//! Tag assignments (requests `0x01..`, responses `0x81..`):
//!
//! | tag    | message    | payload                                            |
//! |--------|------------|----------------------------------------------------|
//! | `0x01` | Hello      | protocol version (`u32`)                           |
//! | `0x02` | Count      | [`CountSpec`]                                      |
//! | `0x03` | —          | retired in protocol v4 (was Batch); not reused     |
//! | `0x04` | Cancel     | job id (`u64`)                                     |
//! | `0x05` | Explain    | pattern text (`str`)                               |
//! | `0x06` | Stats      | —                                                  |
//! | `0x07` | Bye        | —                                                  |
//! | `0x08` | —          | retired in protocol v5 (was Metrics); not reused   |
//! | `0x09` | Trace      | —                                                  |
//! | `0x0A` | Delta      | [`DeltaSpec`] (edge inserts + deletes)             |
//! | `0x0B` | Watch      | [`CountSpec`] (re-run at every new version)        |
//! | `0x81` | HelloOk    | server protocol version (`u32`)                    |
//! | `0x82` | Chunk      | [`ChunkFrame`]                                     |
//! | `0x83` | Final      | job id, [`WireOutput`]                             |
//! | `0x84` | Error      | [`ErrorFrame`]                                     |
//! | `0x85` | ExplainOk  | rendered plan report (`str`)                       |
//! | `0x86` | StatsOk    | registry exposition (`str`)                        |
//! | `0x87` | CancelOk   | job id, `was_active` (`bool`)                      |
//! | `0x88` | ByeOk      | —                                                  |
//! | `0x89` | —          | retired in protocol v5 (was the metrics reply)     |
//! | `0x8A` | TraceOk    | slow-query log rendering (`str`)                   |
//! | `0x8B` | DeltaOk    | new head version id (`u64`)                        |
//! | `0x8C` | WatchChunk | [`WatchFrame`] (version-tagged estimate chunk)     |
//!
//! Estimates cross the wire as [`WireEstimate`]: every `f64` travels as its
//! IEEE-754 bit pattern and the per-trial counts travel verbatim, so the
//! decoded estimate is **bit-identical** to the one the service computed —
//! the invariant the loopback tests pin down.

use crate::wire::{self, Reader, WireError};
use sgc_core::{Algorithm, Estimate};
use sgc_service::{Precision, StopReason};

/// Job ids are caller-assigned `u64`s, unique per connection; `0` in an
/// [`ErrorFrame`] means "about the connection, not any job".
pub type JobId = u64;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Handshake: the client's protocol version, sent first on every
    /// connection.
    Hello {
        /// The client's [`wire::PROTOCOL_VERSION`].
        version: u32,
    },
    /// Start a counting job; the server streams [`Response::Chunk`] frames
    /// as trials complete, then exactly one [`Response::Final`] or
    /// [`Response::Error`] with the same id.
    Count(CountSpec),
    /// Cancel the active job with this id at its next chunk boundary.
    Cancel(JobId),
    /// Plan a pattern without running it; answered with
    /// [`Response::ExplainOk`].
    Explain {
        /// The pattern text, in the grammar of `sgc_query::parse`.
        pattern: String,
    },
    /// Fetch the metrics exposition: every histogram, counter and gauge
    /// the process accumulated, plus the serving server's own `service_*`
    /// and `net_*` numbers; answered with [`Response::StatsOk`].
    Stats,
    /// Clean goodbye: the server answers [`Response::ByeOk`] and closes.
    Bye,
    /// Fetch the slow-query trace log; answered with
    /// [`Response::TraceOk`].
    Trace,
    /// Apply an edge delta to the server's head graph version; answered
    /// with [`Response::DeltaOk`] carrying the new version id once every
    /// live watch's re-emission is scheduled (the `watch-chunk` frames may
    /// follow it). Rejected deltas answer a `delta` error and leave the
    /// graph unchanged.
    Delta(DeltaSpec),
    /// Subscribe to a live count: the server answers one
    /// [`Response::WatchChunk`] at the current head immediately, then a
    /// fresh version-tagged chunk every time a delta lands. `Cancel` with
    /// the same id unsubscribes.
    Watch(CountSpec),
}

/// An edge delta in wire form: vertex-id pairs to insert and to delete.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaSpec {
    /// Edges to insert (must not already exist).
    pub inserts: Vec<(u32, u32)>,
    /// Edges to delete (must exist).
    pub deletes: Vec<(u32, u32)>,
}

/// Everything a `count` request carries: the textual pattern plus the
/// parameters of a [`sgc_service::CountJob`].
#[derive(Clone, Debug, PartialEq)]
pub struct CountSpec {
    /// Caller-assigned id, echoed on every response frame for this job.
    pub id: JobId,
    /// The pattern text, in the grammar of `sgc_query::parse`.
    pub pattern: String,
    /// Cycle-solving algorithm.
    pub algorithm: Algorithm,
    /// Base RNG seed (trial `i` colors with `seed + i`).
    pub seed: u64,
    /// Maximum number of trials.
    pub budget: u64,
    /// Optional early-stop target.
    pub precision: Option<Precision>,
    /// Optional client-supplied trace ID, propagated into the service's
    /// slow-query log; `None` lets the server mint one at submission.
    /// Never part of the job's cache identity.
    pub trace: Option<u64>,
}

impl Request {
    /// The frame tag of this request.
    pub fn tag(&self) -> u8 {
        match self {
            Request::Hello { .. } => 0x01,
            Request::Count(_) => 0x02,
            Request::Cancel(_) => 0x04,
            Request::Explain { .. } => 0x05,
            Request::Stats => 0x06,
            Request::Bye => 0x07,
            Request::Trace => 0x09,
            Request::Delta(_) => 0x0A,
            Request::Watch(_) => 0x0B,
        }
    }

    /// Encodes the payload (everything after the tag byte).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello { version } => wire::put_u32(&mut buf, *version),
            Request::Count(spec) => encode_count_spec(&mut buf, spec),
            Request::Cancel(id) => wire::put_u64(&mut buf, *id),
            Request::Explain { pattern } => wire::put_str(&mut buf, pattern),
            Request::Stats | Request::Bye | Request::Trace => {}
            Request::Delta(delta) => {
                encode_edges(&mut buf, &delta.inserts);
                encode_edges(&mut buf, &delta.deletes);
            }
            Request::Watch(spec) => encode_count_spec(&mut buf, spec),
        }
        buf
    }

    /// Decodes a request from its frame tag and payload.
    ///
    /// # Errors
    /// A typed [`WireError`] for unknown tags and malformed payloads; never
    /// panics.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let request = match tag {
            0x01 => Request::Hello { version: r.u32()? },
            0x02 => Request::Count(decode_count_spec(&mut r)?),
            0x04 => Request::Cancel(r.u64()?),
            0x05 => Request::Explain { pattern: r.str()? },
            0x06 => Request::Stats,
            0x07 => Request::Bye,
            0x09 => Request::Trace,
            0x0A => Request::Delta(DeltaSpec {
                inserts: decode_edges(&mut r)?,
                deletes: decode_edges(&mut r)?,
            }),
            0x0B => Request::Watch(decode_count_spec(&mut r)?),
            tag => return Err(WireError::BadTag { tag }),
        };
        r.finish()?;
        Ok(request)
    }
}

fn encode_edges(buf: &mut Vec<u8>, edges: &[(u32, u32)]) {
    wire::put_u32(buf, edges.len() as u32);
    for &(u, v) in edges {
        wire::put_u32(buf, u);
        wire::put_u32(buf, v);
    }
}

fn decode_edges(r: &mut Reader<'_>) -> Result<Vec<(u32, u32)>, WireError> {
    let count = r.u32()? as usize;
    // Each edge is 8 bytes on the wire; the remaining payload bounds the
    // plausible count, so a hostile length cannot reserve gigabytes.
    let max = r.remaining() / 8;
    if count > max {
        return Err(WireError::LengthOverflow {
            declared: count,
            max,
        });
    }
    let mut edges = Vec::with_capacity(count);
    for _ in 0..count {
        edges.push((r.u32()?, r.u32()?));
    }
    Ok(edges)
}

fn encode_count_spec(buf: &mut Vec<u8>, spec: &CountSpec) {
    wire::put_u64(buf, spec.id);
    wire::put_str(buf, &spec.pattern);
    wire::put_u8(buf, encode_algorithm(spec.algorithm));
    wire::put_u64(buf, spec.seed);
    wire::put_u64(buf, spec.budget);
    match spec.precision {
        None => wire::put_u8(buf, 0),
        Some(p) => {
            wire::put_u8(buf, 1);
            wire::put_f64(buf, p.target);
            wire::put_f64(buf, p.confidence);
        }
    }
    match spec.trace {
        None => wire::put_u8(buf, 0),
        Some(id) => {
            wire::put_u8(buf, 1);
            wire::put_u64(buf, id);
        }
    }
}

fn decode_count_spec(r: &mut Reader<'_>) -> Result<CountSpec, WireError> {
    let id = r.u64()?;
    let pattern = r.str()?;
    let algorithm = decode_algorithm(r.u8()?)?;
    let seed = r.u64()?;
    let budget = r.u64()?;
    let precision = match r.u8()? {
        0 => None,
        1 => Some(Precision {
            target: r.f64()?,
            confidence: r.f64()?,
        }),
        value => {
            return Err(WireError::BadEnum {
                what: "precision option",
                value,
            })
        }
    };
    let trace = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        value => {
            return Err(WireError::BadEnum {
                what: "trace option",
                value,
            })
        }
    };
    Ok(CountSpec {
        id,
        pattern,
        algorithm,
        seed,
        budget,
        precision,
        trace,
    })
}

fn encode_algorithm(a: Algorithm) -> u8 {
    match a {
        Algorithm::DegreeBased => 0,
        Algorithm::PathSplitting => 1,
    }
}

fn decode_algorithm(v: u8) -> Result<Algorithm, WireError> {
    match v {
        0 => Ok(Algorithm::DegreeBased),
        1 => Ok(Algorithm::PathSplitting),
        value => Err(WireError::BadEnum {
            what: "algorithm",
            value,
        }),
    }
}

fn encode_stop(s: StopReason) -> u8 {
    match s {
        StopReason::BudgetExhausted => 0,
        StopReason::PrecisionMet => 1,
        StopReason::Cancelled => 2,
    }
}

fn decode_stop(v: u8) -> Result<StopReason, WireError> {
    match v {
        0 => Ok(StopReason::BudgetExhausted),
        1 => Ok(StopReason::PrecisionMet),
        2 => Ok(StopReason::Cancelled),
        value => Err(WireError::BadEnum {
            what: "stop reason",
            value,
        }),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement with the server's protocol version.
    HelloOk {
        /// The server's [`wire::PROTOCOL_VERSION`].
        version: u32,
    },
    /// An in-progress anytime estimate for a streaming job.
    Chunk(ChunkFrame),
    /// The final result of a job; exactly one per successful job, after all
    /// its chunks.
    Final {
        /// The job this result belongs to.
        id: JobId,
        /// The completed output.
        output: WireOutput,
    },
    /// A job-level (`id != 0`) or connection-level (`id == 0`) error.
    Error(ErrorFrame),
    /// The rendered plan report for an `explain` request.
    ExplainOk {
        /// `PlanReport`'s `Display` rendering.
        report: String,
    },
    /// The metrics exposition for a `stats` request.
    StatsOk {
        /// Sorted `name value` lines: the registry plus the serving
        /// server's `service_*` and `net_*` numbers.
        exposition: String,
    },
    /// Acknowledges a `cancel` request.
    CancelOk {
        /// The id the cancel named.
        id: JobId,
        /// Whether that id was an active job on this connection when the
        /// cancel arrived (`false` = already finished or never existed).
        was_active: bool,
    },
    /// Acknowledges `bye`; the server closes the connection after sending.
    ByeOk,
    /// The slow-query trace log for a `trace` request.
    TraceOk {
        /// The rendered trace ring, slowest job first.
        report: String,
    },
    /// Acknowledges a `delta` request: the delta applied and every live
    /// watch's re-emission is scheduled (not yet delivered).
    DeltaOk {
        /// The new head version id.
        version: u64,
    },
    /// One version-tagged estimate chunk of a `watch` subscription: sent
    /// once at registration (the current head), then once per applied
    /// delta — or, when deltas land faster than the watch counts, once at
    /// the newest version it was owed.
    WatchChunk(WatchFrame),
}

/// One watch emission: a [`ChunkFrame`]-shaped estimate stamped with the
/// graph version it was computed at.
#[derive(Clone, Debug, PartialEq)]
pub struct WatchFrame {
    /// The watch subscription this emission belongs to.
    pub id: JobId,
    /// The graph version the estimate was computed at.
    pub version: u64,
    /// Trials executed for this emission.
    pub trials_run: u64,
    /// The watch job's trial budget.
    pub budget: u64,
    /// Estimated subgraph count at this version (bit pattern preserved).
    pub estimated_subgraphs: f64,
    /// Relative half-width of the confidence interval at this version.
    pub relative_half_width: f64,
}

/// One streamed progress update: the anytime estimate after a completed
/// chunk of trials.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkFrame {
    /// The job this update belongs to.
    pub id: JobId,
    /// Trials executed so far.
    pub trials_run: u64,
    /// The job's trial budget.
    pub budget: u64,
    /// Estimated subgraph count so far (bit pattern preserved).
    pub estimated_subgraphs: f64,
    /// Relative half-width of the 95% confidence interval so far.
    pub relative_half_width: f64,
}

/// A [`sgc_service::JobOutput`] in wire form.
#[derive(Clone, Debug, PartialEq)]
pub struct WireOutput {
    /// Trials executed.
    pub trials_run: u64,
    /// The submitted budget.
    pub budget: u64,
    /// Why the trial loop stopped.
    pub stop: StopReason,
    /// Whether the result came from the service's result cache.
    pub from_cache: bool,
    /// The full estimate, bit-identical to the service's.
    pub estimate: WireEstimate,
}

/// A [`sgc_core::Estimate`] in wire form: all nine fields, floats as bit
/// patterns, per-trial counts verbatim. `from_estimate` / `into_estimate`
/// round-trip bit-exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct WireEstimate {
    /// Colorful-match counts per trial.
    pub per_trial: Vec<u64>,
    /// Mean of `per_trial`.
    pub mean_colorful: f64,
    /// Inverse-hit-probability scale factor.
    pub scale: f64,
    /// Estimated (labelled) match count.
    pub estimated_matches: f64,
    /// Estimated subgraph count (matches / automorphisms).
    pub estimated_subgraphs: f64,
    /// Automorphism count of the query.
    pub automorphisms: u64,
    /// Sample variance of the per-trial counts.
    pub variance: f64,
    /// Coefficient of variation of the per-trial counts.
    pub coefficient_of_variation: f64,
    /// Wall-clock seconds the trials took (informational; not part of the
    /// bit-identity contract, but transported bit-exactly anyway).
    pub total_seconds: f64,
}

impl WireEstimate {
    /// Captures an engine estimate for the wire.
    pub fn from_estimate(e: &Estimate) -> Self {
        WireEstimate {
            per_trial: e.per_trial.clone(),
            mean_colorful: e.mean_colorful,
            scale: e.scale,
            estimated_matches: e.estimated_matches,
            estimated_subgraphs: e.estimated_subgraphs,
            automorphisms: e.automorphisms,
            variance: e.variance,
            coefficient_of_variation: e.coefficient_of_variation,
            total_seconds: e.total_seconds,
        }
    }

    /// Reconstructs the engine estimate, bit-identical to the original.
    pub fn into_estimate(self) -> Estimate {
        Estimate {
            per_trial: self.per_trial,
            mean_colorful: self.mean_colorful,
            scale: self.scale,
            estimated_matches: self.estimated_matches,
            estimated_subgraphs: self.estimated_subgraphs,
            automorphisms: self.automorphisms,
            variance: self.variance,
            coefficient_of_variation: self.coefficient_of_variation,
            total_seconds: self.total_seconds,
        }
    }
}

/// The error taxonomy of the wire protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The pattern failed to parse; the frame carries the span and the
    /// caret diagnostic.
    Parse,
    /// Admission control rejected the job: the work queue is full. The only
    /// *retryable* error — back off and resubmit.
    QueueFull,
    /// The service is shutting down.
    ShuttingDown,
    /// The precision target was invalid.
    InvalidPrecision,
    /// The counting engine rejected the job.
    Count,
    /// The job was cancelled before any trials completed.
    Cancelled,
    /// A `cancel` named an id that is not an active job (informational —
    /// the server answers [`Response::CancelOk`] with `was_active: false`
    /// instead of this in the normal case).
    UnknownJob,
    /// The frame itself was malformed (bad tag, truncated or oversized
    /// payload). Connection-level: the server closes after sending.
    BadFrame,
    /// The request was well-formed but invalid in context (e.g. a duplicate
    /// active job id, or a verb before `hello`).
    BadRequest,
    /// The server failed internally (worker lost).
    Internal,
    /// A `count-at` or version-pinned request named a graph version the
    /// server does not hold.
    UnknownVersion,
    /// A `delta` request was rejected by the snapshot layer (deleting an
    /// absent edge, inserting an existing one, a vertex out of range). The
    /// graph is unchanged.
    Delta,
}

impl ErrorKind {
    /// Whether the client may retry the identical request and expect it to
    /// succeed. Only admission-control rejections qualify.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ErrorKind::QueueFull)
    }

    fn encode(self) -> u8 {
        match self {
            ErrorKind::Parse => 0,
            ErrorKind::QueueFull => 1,
            ErrorKind::ShuttingDown => 2,
            ErrorKind::InvalidPrecision => 3,
            ErrorKind::Count => 4,
            ErrorKind::Cancelled => 5,
            ErrorKind::UnknownJob => 6,
            ErrorKind::BadFrame => 7,
            ErrorKind::BadRequest => 8,
            ErrorKind::Internal => 9,
            ErrorKind::UnknownVersion => 10,
            ErrorKind::Delta => 11,
        }
    }

    fn decode(v: u8) -> Result<ErrorKind, WireError> {
        Ok(match v {
            0 => ErrorKind::Parse,
            1 => ErrorKind::QueueFull,
            2 => ErrorKind::ShuttingDown,
            3 => ErrorKind::InvalidPrecision,
            4 => ErrorKind::Count,
            5 => ErrorKind::Cancelled,
            6 => ErrorKind::UnknownJob,
            7 => ErrorKind::BadFrame,
            8 => ErrorKind::BadRequest,
            9 => ErrorKind::Internal,
            10 => ErrorKind::UnknownVersion,
            11 => ErrorKind::Delta,
            value => {
                return Err(WireError::BadEnum {
                    what: "error kind",
                    value,
                })
            }
        })
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorKind::Parse => "parse",
            ErrorKind::QueueFull => "queue-full",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::InvalidPrecision => "invalid-precision",
            ErrorKind::Count => "count",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::UnknownJob => "unknown-job",
            ErrorKind::BadFrame => "bad-frame",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Internal => "internal",
            ErrorKind::UnknownVersion => "unknown-version",
            ErrorKind::Delta => "delta",
        };
        f.write_str(name)
    }
}

/// A typed error response.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorFrame {
    /// The job the error belongs to; `0` for connection-level errors.
    pub id: JobId,
    /// The error class — drives client retry behaviour.
    pub kind: ErrorKind,
    /// Human-readable one-line message.
    pub message: String,
    /// For [`ErrorKind::Parse`]: the byte span of the offending pattern
    /// text.
    pub span: Option<(u64, u64)>,
    /// For [`ErrorKind::Parse`]: the multi-line caret rendering produced by
    /// the parser's diagnostic machinery.
    pub diagnostic: Option<String>,
}

impl ErrorFrame {
    /// A plain error with neither span nor diagnostic.
    pub fn new(id: JobId, kind: ErrorKind, message: impl Into<String>) -> Self {
        ErrorFrame {
            id,
            kind,
            message: message.into(),
            span: None,
            diagnostic: None,
        }
    }

    /// A parse error carrying the parser's span and caret diagnostic.
    pub fn from_parse_error(id: JobId, e: &sgc_query::PatternParseError) -> Self {
        let span = e.span();
        ErrorFrame {
            id,
            kind: ErrorKind::Parse,
            message: e.message().to_string(),
            span: Some((span.start as u64, span.end as u64)),
            diagnostic: Some(e.diagnostic()),
        }
    }
}

/// The caret diagnostic when present, otherwise `kind: message`.
impl std::fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.diagnostic {
            Some(diagnostic) => f.write_str(diagnostic),
            None => write!(f, "{}: {}", self.kind, self.message),
        }
    }
}

impl Response {
    /// The frame tag of this response.
    pub fn tag(&self) -> u8 {
        match self {
            Response::HelloOk { .. } => 0x81,
            Response::Chunk(_) => 0x82,
            Response::Final { .. } => 0x83,
            Response::Error(_) => 0x84,
            Response::ExplainOk { .. } => 0x85,
            Response::StatsOk { .. } => 0x86,
            Response::CancelOk { .. } => 0x87,
            Response::ByeOk => 0x88,
            Response::TraceOk { .. } => 0x8A,
            Response::DeltaOk { .. } => 0x8B,
            Response::WatchChunk(_) => 0x8C,
        }
    }

    /// Encodes the payload (everything after the tag byte).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::HelloOk { version } => wire::put_u32(&mut buf, *version),
            Response::Chunk(c) => {
                wire::put_u64(&mut buf, c.id);
                wire::put_u64(&mut buf, c.trials_run);
                wire::put_u64(&mut buf, c.budget);
                wire::put_f64(&mut buf, c.estimated_subgraphs);
                wire::put_f64(&mut buf, c.relative_half_width);
            }
            Response::Final { id, output } => {
                wire::put_u64(&mut buf, *id);
                wire::put_u64(&mut buf, output.trials_run);
                wire::put_u64(&mut buf, output.budget);
                wire::put_u8(&mut buf, encode_stop(output.stop));
                wire::put_bool(&mut buf, output.from_cache);
                encode_estimate(&mut buf, &output.estimate);
            }
            Response::Error(e) => {
                wire::put_u64(&mut buf, e.id);
                wire::put_u8(&mut buf, e.kind.encode());
                wire::put_str(&mut buf, &e.message);
                match e.span {
                    None => wire::put_u8(&mut buf, 0),
                    Some((start, end)) => {
                        wire::put_u8(&mut buf, 1);
                        wire::put_u64(&mut buf, start);
                        wire::put_u64(&mut buf, end);
                    }
                }
                match &e.diagnostic {
                    None => wire::put_u8(&mut buf, 0),
                    Some(d) => {
                        wire::put_u8(&mut buf, 1);
                        wire::put_str(&mut buf, d);
                    }
                }
            }
            Response::ExplainOk { report } => wire::put_str(&mut buf, report),
            Response::StatsOk { exposition } => wire::put_str(&mut buf, exposition),
            Response::CancelOk { id, was_active } => {
                wire::put_u64(&mut buf, *id);
                wire::put_bool(&mut buf, *was_active);
            }
            Response::ByeOk => {}
            Response::TraceOk { report } => wire::put_str(&mut buf, report),
            Response::DeltaOk { version } => wire::put_u64(&mut buf, *version),
            Response::WatchChunk(w) => {
                wire::put_u64(&mut buf, w.id);
                wire::put_u64(&mut buf, w.version);
                wire::put_u64(&mut buf, w.trials_run);
                wire::put_u64(&mut buf, w.budget);
                wire::put_f64(&mut buf, w.estimated_subgraphs);
                wire::put_f64(&mut buf, w.relative_half_width);
            }
        }
        buf
    }

    /// Decodes a response from its frame tag and payload.
    ///
    /// # Errors
    /// A typed [`WireError`] for unknown tags and malformed payloads; never
    /// panics.
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let response = match tag {
            0x81 => Response::HelloOk { version: r.u32()? },
            0x82 => Response::Chunk(ChunkFrame {
                id: r.u64()?,
                trials_run: r.u64()?,
                budget: r.u64()?,
                estimated_subgraphs: r.f64()?,
                relative_half_width: r.f64()?,
            }),
            0x83 => Response::Final {
                id: r.u64()?,
                output: WireOutput {
                    trials_run: r.u64()?,
                    budget: r.u64()?,
                    stop: decode_stop(r.u8()?)?,
                    from_cache: r.bool()?,
                    estimate: decode_estimate(&mut r)?,
                },
            },
            0x84 => Response::Error(ErrorFrame {
                id: r.u64()?,
                kind: ErrorKind::decode(r.u8()?)?,
                message: r.str()?,
                span: match r.u8()? {
                    0 => None,
                    1 => Some((r.u64()?, r.u64()?)),
                    value => {
                        return Err(WireError::BadEnum {
                            what: "span option",
                            value,
                        })
                    }
                },
                diagnostic: match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?),
                    value => {
                        return Err(WireError::BadEnum {
                            what: "diagnostic option",
                            value,
                        })
                    }
                },
            }),
            0x85 => Response::ExplainOk { report: r.str()? },
            0x86 => Response::StatsOk {
                exposition: r.str()?,
            },
            0x87 => Response::CancelOk {
                id: r.u64()?,
                was_active: r.bool()?,
            },
            0x88 => Response::ByeOk,
            0x8A => Response::TraceOk { report: r.str()? },
            0x8B => Response::DeltaOk { version: r.u64()? },
            0x8C => Response::WatchChunk(WatchFrame {
                id: r.u64()?,
                version: r.u64()?,
                trials_run: r.u64()?,
                budget: r.u64()?,
                estimated_subgraphs: r.f64()?,
                relative_half_width: r.f64()?,
            }),
            tag => return Err(WireError::BadTag { tag }),
        };
        r.finish()?;
        Ok(response)
    }
}

fn encode_estimate(buf: &mut Vec<u8>, e: &WireEstimate) {
    wire::put_u64s(buf, &e.per_trial);
    wire::put_f64(buf, e.mean_colorful);
    wire::put_f64(buf, e.scale);
    wire::put_f64(buf, e.estimated_matches);
    wire::put_f64(buf, e.estimated_subgraphs);
    wire::put_u64(buf, e.automorphisms);
    wire::put_f64(buf, e.variance);
    wire::put_f64(buf, e.coefficient_of_variation);
    wire::put_f64(buf, e.total_seconds);
}

fn decode_estimate(r: &mut Reader<'_>) -> Result<WireEstimate, WireError> {
    Ok(WireEstimate {
        per_trial: r.u64s()?,
        mean_colorful: r.f64()?,
        scale: r.f64()?,
        estimated_matches: r.f64()?,
        estimated_subgraphs: r.f64()?,
        automorphisms: r.u64()?,
        variance: r.f64()?,
        coefficient_of_variation: r.f64()?,
        total_seconds: r.f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let decoded = Request::decode(req.tag(), &req.encode()).unwrap();
        assert_eq!(decoded, req);
    }

    fn round_trip_response(resp: Response) {
        let decoded = Response::decode(resp.tag(), &resp.encode()).unwrap();
        assert_eq!(decoded, resp);
    }

    fn demo_spec(id: JobId) -> CountSpec {
        CountSpec {
            id,
            pattern: "cycle(5)".to_string(),
            algorithm: Algorithm::PathSplitting,
            seed: 0x5eed,
            budget: 64,
            precision: Some(Precision::within(0.1).at_confidence(0.99)),
            trace: Some(0xABCD),
        }
    }

    fn demo_estimate() -> WireEstimate {
        WireEstimate {
            per_trial: vec![3, 0, 7, 2],
            mean_colorful: 3.0,
            scale: 12.7,
            estimated_matches: 38.1,
            estimated_subgraphs: 6.35,
            automorphisms: 6,
            variance: 8.666,
            coefficient_of_variation: 0.98,
            total_seconds: 0.0123,
        }
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Hello { version: 1 });
        round_trip_request(Request::Count(demo_spec(1)));
        round_trip_request(Request::Count(CountSpec {
            precision: None,
            trace: None,
            ..demo_spec(2)
        }));
        round_trip_request(Request::Cancel(42));
        round_trip_request(Request::Explain {
            pattern: "a-b, b-c".to_string(),
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Bye);
        round_trip_request(Request::Trace);
        round_trip_request(Request::Delta(DeltaSpec {
            inserts: vec![(0, 3), (17, 99)],
            deletes: vec![(1, 2)],
        }));
        round_trip_request(Request::Delta(DeltaSpec::default()));
        round_trip_request(Request::Watch(demo_spec(7)));
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::HelloOk { version: 1 });
        round_trip_response(Response::Chunk(ChunkFrame {
            id: 9,
            trials_run: 16,
            budget: 64,
            estimated_subgraphs: 123.456,
            relative_half_width: 0.25,
        }));
        round_trip_response(Response::Final {
            id: 9,
            output: WireOutput {
                trials_run: 64,
                budget: 64,
                stop: StopReason::BudgetExhausted,
                from_cache: true,
                estimate: demo_estimate(),
            },
        });
        round_trip_response(Response::Error(ErrorFrame {
            id: 0,
            kind: ErrorKind::Parse,
            message: "unexpected token".to_string(),
            span: Some((2, 3)),
            diagnostic: Some("a--b\n  ^".to_string()),
        }));
        round_trip_response(Response::Error(ErrorFrame::new(
            7,
            ErrorKind::QueueFull,
            "work queue is full",
        )));
        round_trip_response(Response::ExplainOk {
            report: "plan: 2 components".to_string(),
        });
        round_trip_response(Response::CancelOk {
            id: 42,
            was_active: true,
        });
        round_trip_response(Response::ByeOk);
        round_trip_response(Response::StatsOk {
            exposition: "span_coloring_count 3\nspan_coloring_p50_ns 1024".to_string(),
        });
        round_trip_response(Response::StatsOk {
            exposition: String::new(),
        });
        round_trip_response(Response::TraceOk {
            report: "trace_id=1 label=5n5e/PS seed=7 outcome=precision_met".to_string(),
        });
        round_trip_response(Response::DeltaOk {
            version: 0xDEAD_BEEF_0123,
        });
        round_trip_response(Response::WatchChunk(WatchFrame {
            id: 7,
            version: 0xDEAD_BEEF_0123,
            trials_run: 32,
            budget: 64,
            estimated_subgraphs: 98.5,
            relative_half_width: 0.125,
        }));
    }

    #[test]
    fn delta_edge_lists_bound_their_declared_length() {
        // A delta promising more edges than bytes must be refused before
        // reserving.
        let mut buf = Vec::new();
        wire::put_u32(&mut buf, u32::MAX);
        assert!(matches!(
            Request::decode(0x0A, &buf),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn estimates_cross_the_wire_bit_identically() {
        // NaN and signed-zero bit patterns survive, which plain `==` on
        // floats cannot even express.
        let mut e = demo_estimate();
        e.variance = f64::NAN;
        e.scale = -0.0;
        let mut buf = Vec::new();
        encode_estimate(&mut buf, &e);
        let mut r = Reader::new(&buf);
        let back = decode_estimate(&mut r).unwrap();
        r.finish().unwrap();
        assert!(back.variance.is_nan());
        assert_eq!(back.scale.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.per_trial, e.per_trial);
        assert_eq!(
            back.estimated_matches.to_bits(),
            e.estimated_matches.to_bits()
        );
        // And the Estimate conversion is lossless in both directions
        // (checked on the NaN-free estimate: derived `PartialEq` on floats
        // cannot compare NaNs — the bit-pattern asserts above cover those).
        let original = demo_estimate();
        let est = original.clone().into_estimate();
        assert_eq!(WireEstimate::from_estimate(&est), original);
    }

    #[test]
    fn parse_errors_carry_the_caret_diagnostic() {
        let parse_err = sgc_query::Pattern::parse("a--b").unwrap_err();
        let frame = ErrorFrame::from_parse_error(3, &parse_err);
        assert_eq!(frame.kind, ErrorKind::Parse);
        assert_eq!(frame.span, Some((2, 3)));
        let diagnostic = frame.diagnostic.clone().unwrap();
        assert!(diagnostic.contains('^'), "diagnostic: {diagnostic}");
        // Display renders the caret form; the round trip preserves it.
        assert_eq!(frame.to_string(), diagnostic);
        round_trip_response(Response::Error(frame));
    }

    #[test]
    fn unknown_tags_and_enums_are_typed_errors() {
        assert_eq!(
            Request::decode(0x7F, &[]),
            Err(WireError::BadTag { tag: 0x7F })
        );
        assert_eq!(
            Response::decode(0x01, &[]),
            Err(WireError::BadTag { tag: 0x01 })
        );
        // Bad algorithm discriminant inside a count spec.
        let mut buf = Vec::new();
        wire::put_u64(&mut buf, 1);
        wire::put_str(&mut buf, "triangle");
        wire::put_u8(&mut buf, 9); // not an algorithm
        assert!(matches!(
            Request::decode(0x02, &buf),
            Err(WireError::BadEnum {
                what: "algorithm",
                ..
            })
        ));
        // Trailing bytes after a complete message.
        let mut buf = Request::Cancel(1).encode();
        buf.push(0);
        assert_eq!(
            Request::decode(0x04, &buf),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
        // The retired batch and metrics tags are unknown, not messages.
        for tag in [0x03, 0x08] {
            assert_eq!(Request::decode(tag, &[]), Err(WireError::BadTag { tag }));
        }
        assert_eq!(
            Response::decode(0x89, &[]),
            Err(WireError::BadTag { tag: 0x89 })
        );
    }

    #[test]
    fn retryability_is_queue_full_only() {
        assert!(ErrorKind::QueueFull.is_retryable());
        for kind in [
            ErrorKind::Parse,
            ErrorKind::ShuttingDown,
            ErrorKind::InvalidPrecision,
            ErrorKind::Count,
            ErrorKind::Cancelled,
            ErrorKind::UnknownJob,
            ErrorKind::BadFrame,
            ErrorKind::BadRequest,
            ErrorKind::Internal,
            ErrorKind::UnknownVersion,
            ErrorKind::Delta,
        ] {
            assert!(!kind.is_retryable(), "{kind} must not be retryable");
        }
    }
}
