//! # sgc-net — the TCP front door of the counting service
//!
//! A std-only network layer over [`sgc_service::Service`]: clients connect
//! over TCP, submit textual pattern queries, and receive **streaming
//! anytime results** — one estimate frame per completed chunk of trials,
//! tightening as the confidence interval narrows, terminated by a final
//! result frame. The protocol speaks length-prefixed binary frames with a
//! hand-rolled codec (no runtime, no serde: the deployment image has
//! neither), and its one hard invariant is **bit-identity**: the estimate
//! a client decodes is bit-for-bit the estimate
//! [`Service::run`](sgc_service::Service::run) returns for the same job
//! parameters — floats travel as IEEE-754 bit patterns, per-trial counts
//! verbatim.
//!
//! * [`wire`] — frames (`[u32 len][u8 tag][payload]`) and bounds-checked
//!   primitive encode/decode; malformed input is a typed error, never a
//!   panic or a hang,
//! * [`proto`] — the verb vocabulary: `hello`, `count` (streams; several
//!   may be in flight on one connection, so a batch is a loop of counts),
//!   `cancel`, `explain`, `stats` (the metrics exposition), `trace`,
//!   `delta` (mutate the graph, get the new version id), `watch` (a live subscription
//!   re-emitting a version-tagged estimate whenever a delta lands), `bye`,
//!   and the response/error taxonomy
//!   ([`ErrorKind::QueueFull`] is the one *retryable* error — admission
//!   control on the wire),
//! * [`server`] — [`Server`]: thread-per-connection accept loop, no
//!   thread per job: chunk frames written by the service workers through
//!   progress watchers, the final frame by the job's completion hook after
//!   them, cooperative cancel at chunk boundaries, clean shutdown,
//! * [`client`] — [`Client`]: a blocking connection with a streaming
//!   iterator of estimate events.
//!
//! ```no_run
//! use sgc_graph::GraphBuilder;
//! use sgc_net::{Client, Server, ServerConfig, StreamEvent};
//! use std::sync::Arc;
//!
//! let mut b = GraphBuilder::new(6);
//! b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
//! let mut server = Server::bind(
//!     "127.0.0.1:0",
//!     Arc::new(b.build()),
//!     ServerConfig::default(),
//! )
//! .unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let stream = client.count("triangle").seed(7).budget(64).stream().unwrap();
//! for event in stream {
//!     if let StreamEvent::Final(output) = event.unwrap() {
//!         println!("triangles ≈ {}", output.estimate.estimated_subgraphs);
//!     }
//! }
//! client.bye().unwrap();
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, CountBuilder, CountStream, StreamEvent, WatchStream};
pub use proto::{
    ChunkFrame, CountSpec, DeltaSpec, ErrorFrame, ErrorKind, JobId, Request, Response, WatchFrame,
    WireEstimate, WireOutput,
};
pub use server::{Server, ServerConfig, ServerStats};
pub use wire::{FrameError, WireError, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION};
