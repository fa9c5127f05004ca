//! Loopback integration tests of the `sgc-net` TCP layer.
//!
//! Everything runs against a real server on an ephemeral localhost port.
//! The central acceptance criterion is **bit-identity**: the outputs a
//! client decodes off the wire equal — to the bit — what
//! [`Service::run`] produces for the same job parameters, for every
//! pattern in the built-in registry. On top of that: streamed chunk
//! frames arrive before the final (and replay bit-identically through a
//! fresh incremental stream), concurrent clients share the single-flight
//! cache, cancellation stops a stream at a chunk boundary with a partial
//! estimate, admission control surfaces as the one retryable wire error,
//! and malformed frames and patterns produce typed, spanned errors.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use subgraph_counting::gen::erdos_renyi::gnp;
use subgraph_counting::graph::{CsrGraph, GraphBuilder};
use subgraph_counting::net::{
    wire, Client, ClientError, CountSpec, ErrorKind, Request, Response, Server, ServerConfig,
    StreamEvent, WireOutput, PROTOCOL_VERSION,
};
use subgraph_counting::query::{catalog, Registry};
use subgraph_counting::{
    CountJob, Engine, JobOutput, Precision, Service, ServiceConfig, StopReason,
};

fn test_graph() -> Arc<CsrGraph> {
    Arc::new(gnp(60, 0.12, 42))
}

fn server_config(workers: usize, queue_capacity: usize, chunk_trials: usize) -> ServerConfig {
    ServerConfig {
        service: ServiceConfig {
            workers,
            queue_capacity,
            chunk_trials,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn start_server(workers: usize, queue_capacity: usize, chunk_trials: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        test_graph(),
        server_config(workers, queue_capacity, chunk_trials),
    )
    .expect("ephemeral bind")
}

fn write_request(raw: &mut TcpStream, request: &Request) {
    wire::write_frame(raw, request.tag(), &request.encode(), 1 << 20).unwrap();
}

/// Reads one response off a raw socket; `None` once the server closed it.
fn read_response(raw: &mut TcpStream) -> Option<Response> {
    let frame = wire::read_frame(raw, 1 << 20).unwrap()?;
    Some(Response::decode(frame.tag, &frame.payload).unwrap())
}

/// A raw socket past the `hello` handshake.
fn raw_client(addr: SocketAddr) -> TcpStream {
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    write_request(
        &mut raw,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        },
    );
    assert!(matches!(
        read_response(&mut raw),
        Some(Response::HelloOk { .. })
    ));
    raw
}

fn count_spec(id: u64, pattern: &str, seed: u64, budget: u64) -> CountSpec {
    CountSpec {
        id,
        pattern: pattern.to_string(),
        algorithm: subgraph_counting::Algorithm::DegreeBased,
        seed,
        budget,
        precision: None,
        trace: None,
    }
}

/// Asserts a wire output equals a service output bit-for-bit, field by
/// field.
fn assert_outputs_bit_identical(wire: &WireOutput, local: &JobOutput, context: &str) {
    assert_eq!(wire.trials_run as usize, local.trials_run, "{context}");
    assert_eq!(wire.budget as usize, local.budget, "{context}");
    assert_eq!(wire.stop, local.stop, "{context}");
    let w = &wire.estimate;
    let l = &local.estimate;
    assert_eq!(w.per_trial, l.per_trial, "{context}");
    assert_eq!(w.automorphisms, l.automorphisms, "{context}");
    for (name, ours, theirs) in [
        ("mean_colorful", w.mean_colorful, l.mean_colorful),
        ("scale", w.scale, l.scale),
        (
            "estimated_matches",
            w.estimated_matches,
            l.estimated_matches,
        ),
        (
            "estimated_subgraphs",
            w.estimated_subgraphs,
            l.estimated_subgraphs,
        ),
        ("variance", w.variance, l.variance),
        (
            "coefficient_of_variation",
            w.coefficient_of_variation,
            l.coefficient_of_variation,
        ),
    ] {
        assert_eq!(
            ours.to_bits(),
            theirs.to_bits(),
            "{context}: {name} differs ({ours} vs {theirs})"
        );
    }
}

/// The tentpole invariant: for every pattern in the built-in registry, the
/// output decoded off the wire is bit-identical to `Service::run` with the
/// same job parameters against the same graph.
#[test]
fn wire_outputs_are_bit_identical_to_service_run_for_every_registry_query() {
    let mut server = start_server(2, 64, 4);
    let reference = Service::with_config(
        test_graph(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            chunk_trials: 4,
            ..ServiceConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let names = Registry::builtin().names();
    assert!(!names.is_empty());
    for name in names {
        let over_wire = client
            .count(name)
            .seed(1234)
            .budget(6)
            .run()
            .unwrap_or_else(|e| panic!("wire count of {name} failed: {e}"));
        let local = reference
            .run(
                CountJob::from_pattern_str(name)
                    .expect("registry names parse")
                    .seed(1234)
                    .budget(6),
            )
            .unwrap_or_else(|e| panic!("local count of {name} failed: {e}"));
        assert_outputs_bit_identical(&over_wire, &local, name);
    }
    client.bye().expect("clean goodbye");
    server.shutdown();
}

/// A precision-targeted job streams its anytime estimates: at least two
/// chunk frames arrive before the final, trials increase monotonically,
/// and every chunk replays bit-identically through a fresh incremental
/// stream of exactly that many trials.
#[test]
fn precision_jobs_stream_chunks_before_the_final_and_chunks_replay_bitwise() {
    let graph = test_graph();
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&graph), server_config(1, 16, 4))
        .expect("ephemeral bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // An unreachably tight target: the job runs its whole 12-trial budget
    // in 4-trial chunks, deterministically streaming 3 chunk frames.
    let stream = client
        .count("cycle(3)")
        .seed(77)
        .budget(12)
        .precision(Precision::within(1e-4))
        .stream()
        .expect("send count");
    let mut chunks = Vec::new();
    let mut finals = Vec::new();
    for event in stream {
        match event.expect("stream event") {
            StreamEvent::Chunk(chunk) => {
                assert!(finals.is_empty(), "chunk arrived after the final frame");
                chunks.push(chunk);
            }
            StreamEvent::Final(output) => finals.push(output),
        }
    }
    assert_eq!(chunks.len(), 3, "12-trial budget in 4-trial chunks");
    assert_eq!(finals.len(), 1);
    let final_output = &finals[0];
    assert_eq!(final_output.stop, StopReason::BudgetExhausted);
    assert_eq!(final_output.trials_run, 12);
    assert!(
        chunks.windows(2).all(|w| w[0].trials_run < w[1].trials_run),
        "chunk trial counts must increase monotonically"
    );
    // Each streamed snapshot is anytime-consistent: a fresh incremental
    // stream over the same engine parameters, run to exactly the chunk's
    // trial count, reproduces the estimate bit for bit.
    let engine = Engine::new(&graph);
    let query = subgraph_counting::query::Pattern::parse("cycle(3)")
        .expect("well-formed")
        .into_query();
    for chunk in &chunks {
        let mut replay = engine
            .count(&query)
            .seed(77)
            .estimate_incremental()
            .expect("plannable");
        replay.run_chunk(chunk.trials_run as usize);
        let estimate = replay.estimate().expect("non-empty");
        assert_eq!(
            chunk.estimated_subgraphs.to_bits(),
            estimate.estimated_subgraphs.to_bits(),
            "chunk at {} trials",
            chunk.trials_run
        );
        assert_eq!(
            chunk.relative_half_width.to_bits(),
            estimate.relative_half_width(0.95).to_bits(),
            "chunk at {} trials",
            chunk.trials_run
        );
    }
    client.bye().expect("clean goodbye");
    server.shutdown();
}

/// N clients submitting the identical job concurrently: one computation,
/// N bit-identical answers, N−1 cache hits (in-flight joins or served
/// entries — either way, never a second computation).
#[test]
fn concurrent_clients_share_the_single_flight_cache() {
    const CLIENTS: usize = 4;
    let mut server = start_server(4, 64, 4);
    let addr = server.local_addr();
    let outputs: Vec<WireOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let output = client
                        .count("glet1")
                        .seed(99)
                        .budget(16)
                        .run()
                        .expect("count");
                    client.bye().expect("clean goodbye");
                    output
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for output in &outputs[1..] {
        assert_eq!(output.estimate.per_trial, outputs[0].estimate.per_trial);
        assert_eq!(
            output.estimate.estimated_matches.to_bits(),
            outputs[0].estimate.estimated_matches.to_bits()
        );
    }
    let metrics = server.service().metrics();
    assert_eq!(metrics.cache_misses, 1, "exactly one computation");
    assert_eq!(metrics.cache_hits, (CLIENTS - 1) as u64);
    assert_eq!(metrics.jobs_completed, CLIENTS as u64);
    server.shutdown();
}

/// Cancelling mid-stream stops the job at the next chunk boundary: the
/// terminal frame is a `Final` with `StopReason::Cancelled` carrying the
/// partial anytime estimate, which replays bit-identically — and the
/// partial result is never cached.
#[test]
fn cancel_mid_stream_yields_a_partial_cancelled_final() {
    let graph = test_graph();
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&graph), server_config(1, 16, 2))
        .expect("ephemeral bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let budget: u64 = 200_000; // far more than can run before the cancel lands
    let mut stream = client
        .count("cycle(3)")
        .seed(5)
        .budget(budget)
        .precision(Precision::within(1e-12))
        .stream()
        .expect("send count");
    let mut cancelled = false;
    let mut saw_chunks = 0usize;
    let mut final_output = None;
    while let Some(event) = stream.next() {
        match event.expect("stream event") {
            StreamEvent::Chunk(_) => {
                saw_chunks += 1;
                if !cancelled {
                    stream.cancel().expect("send cancel");
                    cancelled = true;
                }
            }
            StreamEvent::Final(output) => final_output = Some(output),
        }
    }
    let output = final_output.expect("terminal frame");
    assert!(saw_chunks >= 1);
    assert_eq!(output.stop, StopReason::Cancelled);
    assert!(
        output.trials_run < budget,
        "cancel must stop before the budget: ran {}",
        output.trials_run
    );
    assert_eq!(output.estimate.per_trial.len() as u64, output.trials_run);
    // The partial estimate is still anytime-consistent.
    let engine = Engine::new(&graph);
    let query = subgraph_counting::query::Pattern::parse("cycle(3)")
        .expect("well-formed")
        .into_query();
    let mut replay = engine
        .count(&query)
        .seed(5)
        .estimate_incremental()
        .expect("plannable");
    replay.run_chunk(output.trials_run as usize);
    assert_eq!(
        replay.estimate().unwrap().estimated_matches.to_bits(),
        output.estimate.estimated_matches.to_bits()
    );
    // Cancelled outputs are not cached: nothing is stored under this key.
    let metrics = server.service().metrics();
    assert!(metrics.jobs_cancelled >= 1);
    assert_eq!(metrics.cached_results, 0);
    client.bye().expect("clean goodbye");
    server.shutdown();
}

/// With zero workers and a one-slot queue, the second submission is
/// rejected at admission — surfacing on the wire as the one *retryable*
/// error kind.
#[test]
fn queue_full_is_a_typed_retryable_wire_error() {
    let mut server = start_server(0, 1, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Fills the only queue slot; never completes (no workers), so drop the
    // stream without reading it.
    let _ = client
        .count("cycle(3)")
        .seed(1)
        .stream()
        .expect("first submission admitted");
    let err = client
        .count("cycle(3)")
        .seed(2)
        .run()
        .expect_err("second submission must be rejected");
    match err {
        ClientError::Remote(frame) => {
            assert_eq!(frame.kind, ErrorKind::QueueFull);
            assert!(frame.kind.is_retryable());
            assert!(frame.message.contains("full"), "message: {}", frame.message);
        }
        other => panic!("expected a remote queue-full error, got {other}"),
    }
    let metrics = server.service().metrics();
    assert_eq!(metrics.jobs_rejected, 1);
    server.shutdown();
}

/// A batch is a loop of counts: several `count` frames in flight on one
/// connection stream and complete independently, and each final is
/// bit-identical to its solo `Service::run`.
#[test]
fn counts_in_flight_together_match_solo_service_runs_bitwise() {
    let mut server = start_server(2, 64, 4);
    let reference = Service::with_config(test_graph(), ServiceConfig::default());
    let jobs = [(1u64, "cycle(3)", 21u64, 10u64), (2, "glet1", 4, 6)];
    let mut raw = raw_client(server.local_addr());
    // Both frames are written before any response is read.
    for &(id, pattern, seed, budget) in &jobs {
        write_request(
            &mut raw,
            &Request::Count(count_spec(id, pattern, seed, budget)),
        );
    }
    let mut finals = std::collections::HashMap::new();
    while finals.len() < jobs.len() {
        match read_response(&mut raw).expect("the connection stays open") {
            Response::Chunk(chunk) => {
                assert!(!finals.contains_key(&chunk.id), "a chunk after its final");
            }
            Response::Final { id, output } => {
                assert!(finals.insert(id, output).is_none(), "two finals for {id}");
            }
            other => panic!("unexpected frame with tag 0x{:02x}", other.tag()),
        }
    }
    for (id, pattern, seed, budget) in jobs {
        let local = reference
            .run(
                CountJob::from_pattern_str(pattern)
                    .unwrap()
                    .seed(seed)
                    .budget(budget as usize),
            )
            .unwrap();
        assert_outputs_bit_identical(&finals[&id], &local, pattern);
    }
    write_request(&mut raw, &Request::Bye);
    assert!(matches!(read_response(&mut raw), Some(Response::ByeOk)));
    server.shutdown();
}

/// A `count` may not reuse the id of a live watch on its connection: both
/// streams would carry the id, and `cancel` could reach only one of them.
/// The count is refused, and `cancel` still unsubscribes the watch.
#[test]
fn a_count_cannot_reuse_a_live_watch_id() {
    let mut server = start_server(1, 16, 4);
    let mut raw = raw_client(server.local_addr());
    write_request(&mut raw, &Request::Watch(count_spec(7, "cycle(3)", 3, 4)));
    match read_response(&mut raw) {
        Some(Response::WatchChunk(frame)) => assert_eq!(frame.id, 7),
        other => panic!("expected the initial watch chunk, got {other:?}"),
    }
    write_request(&mut raw, &Request::Count(count_spec(7, "cycle(4)", 3, 4)));
    match read_response(&mut raw) {
        Some(Response::Error(frame)) => {
            assert_eq!(frame.id, 7);
            assert_eq!(frame.kind, ErrorKind::BadRequest);
        }
        other => panic!("expected a bad-request error, got {other:?}"),
    }
    write_request(&mut raw, &Request::Cancel(7));
    match read_response(&mut raw) {
        Some(Response::CancelOk { id, was_active }) => {
            assert_eq!(id, 7);
            assert!(was_active);
        }
        other => panic!("expected cancel-ok, got {other:?}"),
    }
    assert_eq!(server.service().watch_count(), 0, "the watch is gone");
    assert_eq!(
        server.service().metrics().jobs_submitted,
        1,
        "only the watch ran"
    );
    write_request(&mut raw, &Request::Bye);
    assert!(matches!(read_response(&mut raw), Some(Response::ByeOk)));
    server.shutdown();
}

/// A count's id is free again by the time its terminal frame is on the
/// wire: a client that reuses one id for every job, sending the next count
/// the moment it reads the previous `final`, is never refused.
#[test]
fn an_id_is_free_again_once_its_final_is_read() {
    let mut server = start_server(2, 16, 2);
    let mut raw = raw_client(server.local_addr());
    // Each count goes out the moment the previous final is read.
    raw.set_nodelay(true).unwrap();
    for seed in 0..200 {
        write_request(
            &mut raw,
            &Request::Count(count_spec(1, "cycle(3)", seed, 2)),
        );
        loop {
            match read_response(&mut raw) {
                Some(Response::Chunk(frame)) => assert_eq!(frame.id, 1),
                Some(Response::Final { id, output }) => {
                    assert_eq!(id, 1);
                    assert_eq!(output.trials_run, 2, "count {seed}");
                    break;
                }
                other => panic!("count {seed}: expected its final, got {other:?}"),
            }
        }
    }
    write_request(&mut raw, &Request::Bye);
    assert!(matches!(read_response(&mut raw), Some(Response::ByeOk)));
    server.shutdown();
    assert_eq!(server.stats().streams_opened, 200);
    assert_eq!(server.stats().streams_active, 0);
}

/// `bye-ok` is the last frame on a connection: a count still streaming when
/// the client says goodbye is cancelled, and its terminal frame is never
/// written after the acknowledgement. The job still settles: after
/// shutdown no stream is left active.
#[test]
fn bye_ok_is_the_last_frame() {
    let mut server = start_server(1, 16, 2);
    let mut raw = raw_client(server.local_addr());
    let endless = CountSpec {
        budget: 1 << 40,
        precision: Some(Precision::within(1e-15)),
        ..count_spec(1, "cycle(3)", 5, 0)
    };
    write_request(&mut raw, &Request::Count(endless));
    assert!(matches!(read_response(&mut raw), Some(Response::Chunk(_))));
    write_request(&mut raw, &Request::Bye);
    let mut last = None;
    while let Some(response) = read_response(&mut raw) {
        last = Some(response);
    }
    assert!(
        matches!(last, Some(Response::ByeOk)),
        "the last frame was {last:?}"
    );
    server.shutdown();
    assert_eq!(server.stats().streams_active, 0);
}

/// A scripted peer on an ephemeral port: accepts one connection, answers
/// its `hello`, then runs `script` against the raw socket. Join the handle
/// to surface the script's assertions.
fn scripted_peer(
    script: impl FnOnce(&mut TcpStream) + Send + 'static,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut raw, _) = listener.accept().expect("accept");
        assert!(matches!(read_request(&mut raw), Request::Hello { .. }));
        write_response(
            &mut raw,
            &Response::HelloOk {
                version: PROTOCOL_VERSION,
            },
        );
        script(&mut raw);
    });
    (addr, peer)
}

fn read_request(raw: &mut TcpStream) -> Request {
    let frame = wire::read_frame(raw, 1 << 20).unwrap().expect("a request");
    Request::decode(frame.tag, &frame.payload).unwrap()
}

fn write_response(raw: &mut TcpStream, response: &Response) {
    wire::write_frame(raw, response.tag(), &response.encode(), 1 << 20).unwrap();
}

/// A job's `final` is written by its completion hook and its `cancel-ok` by
/// the connection handler, so either can reach the client first. The
/// client consumes the one ack it is owed in both orders: the stream ends
/// at its `final`, and the next verb reads its own answer.
#[test]
fn a_cancel_ok_owed_by_a_count_is_consumed_in_either_order() {
    for ack_first in [false, true] {
        let output = WireOutput {
            trials_run: 2,
            budget: 64,
            stop: StopReason::Cancelled,
            from_cache: false,
            estimate: subgraph_counting::net::WireEstimate {
                per_trial: vec![3, 5],
                mean_colorful: 4.0,
                scale: 2.0,
                estimated_matches: 8.0,
                estimated_subgraphs: 4.0,
                automorphisms: 2,
                variance: 2.0,
                coefficient_of_variation: 0.35,
                total_seconds: 0.001,
            },
        };
        let scripted = output.clone();
        let (addr, peer) = scripted_peer(move |raw| {
            let Request::Count(spec) = read_request(raw) else {
                panic!("expected count");
            };
            write_response(
                raw,
                &Response::Chunk(subgraph_counting::net::ChunkFrame {
                    id: spec.id,
                    trials_run: 1,
                    budget: 64,
                    estimated_subgraphs: 3.0,
                    relative_half_width: 0.5,
                }),
            );
            assert!(matches!(read_request(raw), Request::Cancel(id) if id == spec.id));
            let ack = Response::CancelOk {
                id: spec.id,
                was_active: true,
            };
            let last = Response::Final {
                id: spec.id,
                output: scripted,
            };
            let (first, second) = if ack_first { (ack, last) } else { (last, ack) };
            write_response(raw, &first);
            write_response(raw, &second);
            assert!(matches!(read_request(raw), Request::Bye));
            write_response(raw, &Response::ByeOk);
        });
        let mut client = Client::connect(addr).expect("connect");
        let mut stream = client.count("cycle(3)").budget(64).stream().unwrap();
        assert!(matches!(stream.next(), Some(Ok(StreamEvent::Chunk(_)))));
        stream.cancel().expect("send cancel");
        match stream.next() {
            Some(Ok(StreamEvent::Final(got))) => assert_eq!(got, output),
            other => panic!("ack_first = {ack_first}: expected the final, got {other:?}"),
        }
        assert!(stream.next().is_none());
        client.bye().expect("clean goodbye");
        peer.join().expect("scripted peer");
    }
}

/// A watch emission already being delivered when the cancel lands can reach
/// the socket after the `cancel-ok`. The watch stream ends at the ack, and
/// the client drops the late emission instead of handing it to the next
/// verb.
#[test]
fn a_watch_chunk_after_its_cancel_ok_is_dropped() {
    let (addr, peer) = scripted_peer(|raw| {
        let Request::Watch(spec) = read_request(raw) else {
            panic!("expected watch");
        };
        let chunk = |version| {
            Response::WatchChunk(subgraph_counting::net::WatchFrame {
                id: spec.id,
                version,
                trials_run: 8,
                budget: 8,
                estimated_subgraphs: 1.0,
                relative_half_width: 0.5,
            })
        };
        write_response(raw, &chunk(1));
        assert!(matches!(read_request(raw), Request::Cancel(id) if id == spec.id));
        write_response(
            raw,
            &Response::CancelOk {
                id: spec.id,
                was_active: true,
            },
        );
        write_response(raw, &chunk(2));
        assert!(matches!(read_request(raw), Request::Bye));
        write_response(raw, &Response::ByeOk);
    });
    let mut client = Client::connect(addr).expect("connect");
    let mut watch = client.count("cycle(3)").budget(8).watch().unwrap();
    assert_eq!(watch.next().unwrap().unwrap().version, 1);
    watch.cancel().expect("send cancel");
    assert!(watch.next().is_none());
    client.bye().expect("clean goodbye");
    peer.join().expect("scripted peer");
}

/// The plain `count` verb answers at the **root** — the graph the server
/// was bound to — however many deltas have landed, in the cache slot of
/// `count_at(root)`; the head is what `count_at(head)` answers.
#[test]
fn plain_count_answers_at_the_root_after_deltas() {
    let graph = test_graph();
    let mut server = start_server(2, 64, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let count = |client: &mut Client, seed| {
        let request = client.count("cycle(3)").seed(seed).budget(8);
        request.run().expect("count")
    };
    let before = count(&mut client, 11);

    // Close a triangle over an existing path u–v–w whose ends are not
    // adjacent, so the head's triangle counts differ from the root's.
    let (u, w) = (0..graph.num_vertices() as u32)
        .flat_map(|v| {
            let around = graph.neighbors(v);
            around
                .iter()
                .flat_map(move |&u| around.iter().map(move |&w| (u, w)))
        })
        .find(|&(u, w)| u < w && !graph.neighbors(u).contains(&w))
        .expect("a sparse random graph has an open wedge");
    let head = client.apply_delta(&[(u, w)], &[]).expect("delta");

    // The pre-delta job again, and one the server has never seen: both
    // answer on the root graph.
    let after = count(&mut client, 11);
    assert!(after.from_cache);
    assert_eq!(after.estimate.per_trial, before.estimate.per_trial);
    let fresh = count(&mut client, 12);
    assert!(!fresh.from_cache);
    let root_engine = Engine::new(&graph);
    let triangle = catalog::triangle();
    let on_root = |seed| {
        let request = root_engine.count(&triangle).seed(seed);
        request.trials(8).estimate().unwrap()
    };
    assert_eq!(before.estimate.per_trial, on_root(11).per_trial);
    assert_eq!(fresh.estimate.per_trial, on_root(12).per_trial);
    assert_eq!(
        fresh.estimate.estimated_matches.to_bits(),
        on_root(12).estimated_matches.to_bits()
    );

    // `count_at(root)` of the same job is the same cache slot ...
    let service = server.service();
    let job = || CountJob::new(catalog::triangle()).seed(12).budget(8);
    let at_root = service.count_at(service.root_version(), job()).unwrap();
    assert!(at_root.from_cache);
    assert_eq!(at_root.estimate.per_trial, fresh.estimate.per_trial);
    // ... while `count_at(head)` sees the delta, as a fresh build does.
    assert_eq!(service.head_version().as_u64(), head);
    let at_head = service.count_at(service.head_version(), job()).unwrap();
    let mut rebuilt = GraphBuilder::new(graph.num_vertices());
    rebuilt.extend_edges(graph.edges());
    rebuilt.add_edge(u, w);
    let on_head = Engine::new(&rebuilt.build())
        .count(&catalog::triangle())
        .seed(12)
        .trials(8)
        .estimate()
        .unwrap();
    assert_eq!(at_head.estimate.per_trial, on_head.per_trial);
    assert_ne!(at_head.estimate.per_trial, at_root.estimate.per_trial);

    client.bye().expect("clean goodbye");
    server.shutdown();
}

/// Malformed patterns come back as spanned parse errors carrying the
/// caret diagnostic — for `count` and `explain` alike — and the connection
/// stays usable afterwards.
#[test]
fn malformed_patterns_are_spanned_errors_with_caret_diagnostics() {
    let mut server = start_server(1, 16, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for attempt in ["count", "explain"] {
        let err = match attempt {
            "count" => client.count("a--b").run().expect_err("must fail"),
            _ => client.explain("a--b").expect_err("must fail"),
        };
        match err {
            ClientError::Remote(frame) => {
                assert_eq!(frame.kind, ErrorKind::Parse, "{attempt}");
                assert_eq!(frame.span, Some((2, 3)), "{attempt}");
                let diagnostic = frame.diagnostic.as_deref().expect("caret diagnostic");
                assert!(diagnostic.contains('^'), "{attempt}: {diagnostic}");
                assert!(diagnostic.contains("a--b"), "{attempt}: {diagnostic}");
            }
            other => panic!("{attempt}: expected a remote parse error, got {other}"),
        }
    }
    // The connection survives pattern-level errors: a well-formed query
    // still answers.
    let output = client.count("cycle(3)").budget(4).run().expect("recovery");
    assert_eq!(output.trials_run, 4);
    client.bye().expect("clean goodbye");
    server.shutdown();
}

/// Protocol-level misbehaviour gets a typed `bad-frame`/`bad-request`
/// error and a closed connection — the server never hangs or panics.
#[test]
fn malformed_frames_are_rejected_with_typed_errors() {
    let mut server = start_server(1, 16, 4);
    let addr = server.local_addr();

    // Unknown tags after a proper hello: 0x7F was never assigned, 0x03
    // (the batch verb before protocol v4) and 0x08 (the metrics verb
    // before protocol v5) are retired.
    for (tag, payload) in [
        (0x7F, Vec::new()),
        (0x03, 0u32.to_be_bytes().to_vec()),
        (0x08, Vec::new()),
    ] {
        let mut raw = raw_client(addr);
        wire::write_frame(&mut raw, tag, &payload, 1 << 20).unwrap();
        match read_response(&mut raw) {
            Some(Response::Error(frame)) => {
                assert_eq!(frame.id, 0);
                assert_eq!(frame.kind, ErrorKind::BadFrame, "tag 0x{tag:02x}");
            }
            other => panic!("tag 0x{tag:02x}: expected an error frame, got {other:?}"),
        }
        assert!(
            read_response(&mut raw).is_none(),
            "tag 0x{tag:02x}: not closed"
        );
    }

    // A verb before hello is a bad request, and so is a hello of another
    // protocol version.
    for first in [Request::Stats, Request::Hello { version: 3 }] {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        write_request(&mut raw, &first);
        match read_response(&mut raw) {
            Some(Response::Error(frame)) => assert_eq!(frame.kind, ErrorKind::BadRequest),
            other => panic!("{first:?}: expected an error frame, got {other:?}"),
        }
        assert!(read_response(&mut raw).is_none(), "{first:?}: not closed");
    }

    assert!(server.stats().protocol_errors >= 3);
    // A bad frame closes only its own connection: the server still counts.
    let mut client = Client::connect(addr).expect("connect");
    let output = client.count("cycle(3)").budget(4).run().expect("count");
    assert_eq!(output.trials_run, 4);
    client.bye().expect("clean goodbye");
    server.shutdown();
}

/// A client that starts a long streaming job and then vanishes without
/// reading must not wedge the shared worker pool: its socket dies (here
/// via the RST a kernel sends when a connection closes with unread data —
/// the same `Conn::send` failure path a write timeout takes), the
/// connection is declared dead, the job is cancelled at its next chunk
/// boundary, and other clients (and shutdown) proceed normally.
#[test]
fn a_client_that_vanishes_mid_stream_gets_its_job_cancelled() {
    use std::time::{Duration, Instant};
    let mut config = server_config(1, 16, 2);
    config.write_timeout = Duration::from_millis(250);
    let mut server = Server::bind("127.0.0.1:0", test_graph(), config).expect("ephemeral bind");
    let addr = server.local_addr();

    // A raw socket that handshakes and submits an effectively endless
    // streaming job.
    let mut raw = raw_client(addr);
    let endless = CountSpec {
        budget: 1 << 40,
        precision: Some(Precision::within(1e-15)),
        ..count_spec(1, "cycle(3)", 5, 0)
    };
    write_request(&mut raw, &Request::Count(endless));
    // Wait for the first streamed chunk (the job is computing on the only
    // worker), then vanish: dropping the socket with chunk frames still
    // unread makes the kernel reset the connection, so the server's next
    // chunk write fails.
    assert!(matches!(read_response(&mut raw), Some(Response::Chunk(_))));
    drop(raw);
    // The server must cancel the orphaned job rather than hold the (only)
    // worker hostage streaming into a dead socket.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.service().metrics().jobs_cancelled == 0 {
        assert!(
            Instant::now() < deadline,
            "vanished client was never detected: {:?}",
            server.service().metrics()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The worker pool is usable again: a healthy client is served.
    let mut client = Client::connect(addr).expect("connect");
    let output = client
        .count("cycle(3)")
        .seed(1)
        .budget(4)
        .run()
        .expect("healthy client");
    assert_eq!(output.trials_run, 4);
    client.bye().expect("clean goodbye");
    // And shutdown completes with the orphaned job fully settled.
    server.shutdown();
    assert_eq!(server.stats().streams_active, 0);
}

/// The value of `name` in an exposition.
fn exposition_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from exposition"))
        .parse()
        .unwrap()
}

/// Every `service_*` and `net_*` line one server publishes, read from its
/// in-process snapshots.
fn instance_lines(server: &Server) -> Vec<(&'static str, u64)> {
    let m = server.service().metrics();
    let s = server.stats();
    vec![
        ("net_connections_accepted", s.connections_accepted),
        ("net_connections_open", s.connections_open),
        ("net_frames_read", s.frames_read),
        ("net_frames_written", s.frames_written),
        ("net_jobs_cancelled", s.jobs_cancelled),
        ("net_protocol_errors", s.protocol_errors),
        ("net_streams_active", s.streams_active),
        ("net_streams_opened", s.streams_opened),
        ("service_batches_submitted", 0),
        ("service_cache_evictions", m.cache_evictions),
        ("service_cache_hits", m.cache_hits),
        ("service_cache_misses", m.cache_misses),
        ("service_cached_results", m.cached_results as u64),
        ("service_jobs_cancelled", m.jobs_cancelled),
        ("service_jobs_completed", m.jobs_completed),
        ("service_jobs_rejected", m.jobs_rejected),
        ("service_jobs_submitted", m.jobs_submitted),
        ("service_queue_depth", m.queue_depth as u64),
        ("service_trials_executed", m.trials_executed),
        ("service_trials_saved", m.trials_saved),
        (
            "service_watch_emissions_coalesced",
            m.watch_emissions_coalesced,
        ),
        ("service_watchers", m.watchers as u64),
    ]
}

/// The `stats` verb answers with the exposition, and its `service_*` and
/// `net_*` lines are the serving server's own numbers, read by name.
#[test]
fn stats_verb_round_trips_the_metrics_snapshot() {
    let mut server = start_server(1, 16, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .count("cycle(3)")
        .seed(8)
        .budget(8)
        .run()
        .expect("count");
    // Every frame is counted before it is written, so the reply's render
    // misses only the reply itself.
    let exposition = client.stats().expect("stats");
    let value = |name| exposition_value(&exposition, name);
    assert_eq!(value("service_jobs_submitted"), 1);
    assert_eq!(value("service_jobs_completed"), 1);
    assert_eq!(value("service_trials_executed"), 8);
    assert!(value("net_streams_opened") >= 1);
    assert!(value("net_frames_written") >= 2);
    // At quiescence every instance line equals the in-process snapshots,
    // less the reply's own frame.
    let published: Vec<(&str, u64)> = exposition
        .lines()
        .filter(|line| line.starts_with("service_") || line.starts_with("net_"))
        .map(|line| {
            let (name, value) = line.split_once(' ').unwrap();
            (name, value.parse().unwrap())
        })
        .collect();
    let mut expected = instance_lines(&server);
    for (name, value) in &mut expected {
        if *name == "net_frames_written" {
            *value -= 1;
        }
    }
    assert_eq!(published, expected);
    client.bye().expect("clean goodbye");
    server.shutdown();
}

/// Two servers in one process share the process-wide registry, yet every
/// `stats` reply carries its own server's numbers, even while both servers
/// answer `stats` at once.
#[test]
fn two_servers_in_one_process_answer_stats_with_their_own_numbers() {
    use std::sync::Barrier;
    const THREADS: usize = 2;
    const CALLS: usize = 200;
    let servers = [start_server(1, 16, 4), start_server(1, 16, 4)];
    // Different traffic first: one connection and job on the first server,
    // three on the second.
    for (server, connections) in servers.iter().zip([1u64, 3]) {
        for seed in 0..connections {
            let mut client = Client::connect(server.local_addr()).expect("connect");
            client
                .count("cycle(3)")
                .seed(seed)
                .budget(4)
                .run()
                .expect("count");
            client.bye().expect("clean goodbye");
        }
    }
    let barrier = Barrier::new(THREADS * servers.len());
    let replies: Vec<Vec<(usize, u64, u64)>> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..THREADS)
            .flat_map(|_| servers.iter().enumerate())
            .map(|(which, server)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(server.local_addr()).expect("connect");
                    barrier.wait();
                    let replies: Vec<(usize, u64, u64)> = (0..CALLS)
                        .map(|_| {
                            let exposition = client.stats().expect("stats");
                            (
                                which,
                                exposition_value(&exposition, "net_connections_accepted"),
                                exposition_value(&exposition, "service_jobs_submitted"),
                            )
                        })
                        .collect();
                    client.bye().expect("clean goodbye");
                    replies
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let own: Vec<(u64, u64)> = servers
        .iter()
        .map(|server| {
            (
                server.stats().connections_accepted,
                server.service().metrics().jobs_submitted,
            )
        })
        .collect();
    assert_eq!(own, [(1 + THREADS as u64, 1), (3 + THREADS as u64, 3)]);
    let replies: Vec<(usize, u64, u64)> = replies.into_iter().flatten().collect();
    assert_eq!(replies.len(), THREADS * CALLS * servers.len());
    for (which, accepted, submitted) in replies {
        assert_eq!((accepted, submitted), own[which], "server {which}");
    }
}
