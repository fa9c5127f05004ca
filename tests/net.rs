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

use std::sync::Arc;
use subgraph_counting::gen::erdos_renyi::gnp;
use subgraph_counting::graph::{CsrGraph, GraphBuilder};
use subgraph_counting::net::{
    Client, ClientError, ErrorKind, Server, ServerConfig, StreamEvent, WireOutput,
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
            trial_parallelism: false,
            obs: true,
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
            trial_parallelism: false,
            obs: true,
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

/// Batch members stream and complete independently, and each is
/// bit-identical to its solo `Service::run`.
#[test]
fn wire_batches_match_solo_service_runs_bitwise() {
    let mut server = start_server(2, 64, 4);
    let reference = Service::with_config(test_graph(), ServiceConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let members = [
        ("cycle(3)", 21u64, 10u64),
        ("cycle(4)", 21, 10),
        ("glet1", 4, 6),
    ];
    let requests = members
        .iter()
        .map(|(pattern, seed, budget)| {
            subgraph_counting::net::BatchRequest::new(*pattern)
                .seed(*seed)
                .budget(*budget)
        })
        .collect();
    let results = client.batch(requests).expect("batch transport");
    assert_eq!(results.len(), members.len());
    for ((pattern, seed, budget), result) in members.iter().zip(results) {
        let over_wire = result.unwrap_or_else(|e| panic!("member {pattern} failed: {e}"));
        let local = reference
            .run(
                CountJob::from_pattern_str(pattern)
                    .unwrap()
                    .seed(*seed)
                    .budget(*budget as usize),
            )
            .unwrap();
        assert_outputs_bit_identical(&over_wire, &local, pattern);
    }
    assert_eq!(server.service().metrics().batches_submitted, 1);
    client.bye().expect("clean goodbye");
    server.shutdown();
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
    use std::io::{Read, Write};
    let mut server = start_server(1, 16, 4);
    let addr = server.local_addr();

    // An unknown tag after a proper hello.
    {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
        // hello first so the frame reaches the dispatcher.
        let hello = subgraph_counting::net::Request::Hello {
            version: subgraph_counting::net::PROTOCOL_VERSION,
        };
        let payload = hello.encode();
        let mut frame = ((payload.len() + 1) as u32).to_be_bytes().to_vec();
        frame.push(0x01);
        frame.extend_from_slice(&payload);
        raw.write_all(&frame).unwrap();
        // Unknown tag 0x7F, empty payload.
        raw.write_all(&1u32.to_be_bytes()).unwrap();
        raw.write_all(&[0x7F]).unwrap();
        let mut bytes = Vec::new();
        raw.read_to_end(&mut bytes).expect("server closes cleanly");
        // The reply stream holds hello-ok then a bad-frame error.
        let mut cursor = std::io::Cursor::new(bytes);
        let first = subgraph_counting::net::wire::read_frame(&mut cursor, 1 << 20)
            .unwrap()
            .expect("hello-ok frame");
        assert_eq!(first.tag, 0x81);
        let second = subgraph_counting::net::wire::read_frame(&mut cursor, 1 << 20)
            .unwrap()
            .expect("error frame");
        let response =
            subgraph_counting::net::Response::decode(second.tag, &second.payload).unwrap();
        match response {
            subgraph_counting::net::Response::Error(frame) => {
                assert_eq!(frame.id, 0);
                assert_eq!(frame.kind, ErrorKind::BadFrame);
            }
            other => panic!("expected an error frame, got tag 0x{:02x}", other.tag()),
        }
    }

    // A verb before hello is a bad request.
    {
        let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
        let stats = subgraph_counting::net::Request::Stats;
        let payload = stats.encode();
        let mut frame = ((payload.len() + 1) as u32).to_be_bytes().to_vec();
        frame.push(stats.tag());
        frame.extend_from_slice(&payload);
        raw.write_all(&frame).unwrap();
        let mut bytes = Vec::new();
        raw.read_to_end(&mut bytes).expect("server closes cleanly");
        let mut cursor = std::io::Cursor::new(bytes);
        let reply = subgraph_counting::net::wire::read_frame(&mut cursor, 1 << 20)
            .unwrap()
            .expect("error frame");
        let response = subgraph_counting::net::Response::decode(reply.tag, &reply.payload).unwrap();
        match response {
            subgraph_counting::net::Response::Error(frame) => {
                assert_eq!(frame.kind, ErrorKind::BadRequest);
            }
            other => panic!("expected an error frame, got tag 0x{:02x}", other.tag()),
        }
    }

    assert!(server.stats().protocol_errors >= 2);
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
    use std::io::Write;
    use std::time::{Duration, Instant};
    let mut config = server_config(1, 16, 2);
    config.write_timeout = Duration::from_millis(250);
    let mut server = Server::bind("127.0.0.1:0", test_graph(), config).expect("ephemeral bind");
    let addr = server.local_addr();

    // A raw socket that handshakes and submits an effectively endless
    // streaming job.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    let hello = subgraph_counting::net::Request::Hello {
        version: subgraph_counting::net::PROTOCOL_VERSION,
    };
    let payload = hello.encode();
    let mut frame = ((payload.len() + 1) as u32).to_be_bytes().to_vec();
    frame.push(hello.tag());
    frame.extend_from_slice(&payload);
    raw.write_all(&frame).unwrap();
    let reply = subgraph_counting::net::wire::read_frame(&mut raw, 1 << 20)
        .unwrap()
        .expect("hello-ok");
    assert_eq!(reply.tag, 0x81);
    let count = subgraph_counting::net::Request::Count(subgraph_counting::net::CountSpec {
        id: 1,
        pattern: "cycle(3)".to_string(),
        algorithm: subgraph_counting::Algorithm::DegreeBased,
        seed: 5,
        budget: 1 << 40,
        precision: Some(Precision::within(1e-15)),
        trace: None,
    });
    let payload = count.encode();
    let mut frame = ((payload.len() + 1) as u32).to_be_bytes().to_vec();
    frame.push(count.tag());
    frame.extend_from_slice(&payload);
    raw.write_all(&frame).unwrap();
    // Wait for the first streamed chunk (the job is computing on the only
    // worker), then vanish: dropping the socket with chunk frames still
    // unread makes the kernel reset the connection, so the server's next
    // chunk write fails.
    let first = subgraph_counting::net::wire::read_frame(&mut raw, 1 << 20)
        .unwrap()
        .expect("first chunk");
    assert_eq!(first.tag, 0x82);
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

/// Stats travel the wire in full: the decoded service metrics snapshot
/// renders through the same stable `Display` form the server prints.
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
    let stats = client.stats().expect("stats");
    assert_eq!(stats.service.jobs_submitted, 1);
    assert_eq!(stats.service.jobs_completed, 1);
    assert_eq!(stats.service.trials_executed, 8);
    assert!(stats.server.streams_opened >= 1);
    assert!(stats.server.frames_written >= 2);
    // The wire snapshot and a direct snapshot render identically through
    // the stable text contract (both taken at quiescence).
    assert_eq!(
        stats.service.to_string(),
        server.service().metrics().to_string()
    );
    let text = stats.service.to_string();
    assert!(text.starts_with("jobs_submitted"));
    assert!(text.contains("\ntrials_saved"));
    client.bye().expect("clean goodbye");
    server.shutdown();
}
