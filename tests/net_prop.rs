//! Property tests on the `sgc-net` wire codec.
//!
//! The codec is hand-rolled, so these pin down the safety contract
//! directly: decoding arbitrary bytes never panics (it returns typed
//! [`WireError`]s / [`FrameError`]s), every truncation or padding of a
//! valid encoding is rejected, encodings are canonical (decode∘encode is
//! the identity on accepted byte strings), and frames round-trip through
//! the length-prefixed transport layer — including f64 payloads with
//! arbitrary bit patterns, which must survive bit-exactly. The protocol-v3
//! frames (`delta`, `watch`, `delta-ok`, `watch-chunk`) are held to the
//! same contract.

use proptest::prelude::*;
use subgraph_counting::core::Algorithm;
use subgraph_counting::net::wire::{read_frame, write_frame, FrameError};
use subgraph_counting::net::{
    ChunkFrame, CountSpec, DeltaSpec, Request, Response, WatchFrame, DEFAULT_MAX_FRAME_LEN,
};
use subgraph_counting::Precision;

/// A small pool of pattern texts (codec-level: the server parses later, so
/// even ill-formed and empty patterns must travel unharmed).
fn pattern_from(selector: u8) -> &'static str {
    const POOL: [&str; 6] = ["glet1", "cycle(4)", "a-b, b-c, c-a", "", "a--b", "héllo ^"];
    POOL[selector as usize % POOL.len()]
}

fn spec_from(id: u64, selector: u8, seed: u64, budget: u64, precision: u8) -> CountSpec {
    CountSpec {
        id,
        pattern: pattern_from(selector).to_string(),
        algorithm: if selector.is_multiple_of(2) {
            Algorithm::DegreeBased
        } else {
            Algorithm::PathSplitting
        },
        seed,
        budget,
        precision: match precision {
            0 => None,
            p => Some(Precision {
                target: p as f64 * 1e-3,
                confidence: 0.95,
            }),
        },
        trace: (seed % 2 == 1).then_some(seed),
    }
}

/// Every strict prefix of `payload`, and `payload` padded with `pad` bytes,
/// fails `decodes`: the decoder consumes exactly the payload.
fn rejects_truncation_and_padding(
    payload: &[u8],
    pad: usize,
    decodes: impl Fn(&[u8]) -> bool,
) -> Result<(), TestCaseError> {
    for cut in 0..payload.len() {
        prop_assert!(
            !decodes(&payload[..cut]),
            "prefix of {cut}/{} bytes must not decode",
            payload.len()
        );
    }
    let mut padded = payload.to_vec();
    padded.extend(std::iter::repeat_n(0xAA, pad));
    prop_assert!(!decodes(&padded), "{pad} bytes of padding must not decode");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes through both decoders: no panic, and when a payload
    /// *is* accepted, re-encoding reproduces it byte for byte (encodings
    /// are canonical, so the wire form is a bijection onto its image).
    #[test]
    fn decoding_random_garbage_never_panics_and_accepts_only_canonical_bytes(
        tag in 0u8..255,
        bytes in proptest::collection::vec(0u8..255, 0..64),
    ) {
        if let Ok(request) = Request::decode(tag, &bytes) {
            prop_assert_eq!(request.tag(), tag);
            prop_assert_eq!(request.encode(), bytes.clone());
        }
        if let Ok(response) = Response::decode(tag, &bytes) {
            prop_assert_eq!(response.tag(), tag);
            prop_assert_eq!(response.encode(), bytes);
        }
    }

    /// Random count specs round-trip exactly through the request codec.
    #[test]
    fn count_specs_round_trip(
        params in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..1_000_000),
        knobs in (0u8..255, 0u8..8),
    ) {
        let ((id, seed, budget), (selector, precision)) = (params, knobs);
        let request = Request::Count(spec_from(id, selector, seed, budget, precision));
        let decoded = Request::decode(request.tag(), &request.encode());
        prop_assert_eq!(decoded.as_ref(), Ok(&request));
    }

    /// Every strict prefix of a valid encoding is a typed error, and so is
    /// any padded extension: the decoder consumes exactly the payload,
    /// never silently more or less.
    #[test]
    fn truncated_and_padded_encodings_are_typed_errors(
        params in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..1_000_000),
        knobs in (0u8..255, 0u8..8),
        pad in 1usize..9,
    ) {
        let ((id, seed, budget), (selector, precision)) = (params, knobs);
        let request = Request::Count(spec_from(id, selector, seed, budget, precision));
        let payload = request.encode();
        for cut in 0..payload.len() {
            prop_assert!(
                Request::decode(request.tag(), &payload[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode", payload.len()
            );
        }
        let mut padded = payload;
        padded.extend(std::iter::repeat_n(0xAA, pad));
        prop_assert!(Request::decode(request.tag(), &padded).is_err());
    }

    /// Frames round-trip through the transport layer, and every truncation
    /// of the byte stream surfaces as a typed frame error — never a panic,
    /// a hang, or a phantom frame.
    #[test]
    fn frames_round_trip_and_truncations_are_typed_errors(
        tag in 0u8..255,
        payload in proptest::collection::vec(0u8..255, 0..64),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag, &payload, DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        let frame = read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN)
            .expect("well-formed frame")
            .expect("not at EOF");
        prop_assert_eq!(frame.tag, tag);
        prop_assert_eq!(frame.payload, payload);
        // A second read on the drained stream is a clean end, not an error.
        prop_assert!(matches!(read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN), Ok(None)));
        for cut in 0..buf.len() {
            let mut cursor = std::io::Cursor::new(&buf[..cut]);
            match read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN) {
                Ok(None) => prop_assert_eq!(cut, 0, "mid-frame cut reported as clean EOF"),
                Ok(Some(_)) => prop_assert!(false, "phantom frame from a {cut}-byte prefix"),
                Err(FrameError::Truncated { .. }) => {}
                Err(e) => prop_assert!(false, "unexpected error for a {cut}-byte prefix: {e}"),
            }
        }
    }

    /// The frame reader never trusts a declared length beyond the
    /// configured cap: random 4-byte headers either fit or are rejected as
    /// `TooLarge`/`Empty` before any allocation of the declared size.
    #[test]
    fn declared_lengths_beyond_the_cap_are_rejected(
        declared in 0u64..4_294_967_295,
        tag in 0u8..255,
    ) {
        let declared = declared as u32;
        let mut buf = (declared).to_be_bytes().to_vec();
        buf.push(tag); // at most one body byte actually present
        let mut cursor = std::io::Cursor::new(buf);
        const CAP: usize = 1 << 10;
        match read_frame(&mut cursor, CAP) {
            Err(FrameError::Empty) => prop_assert_eq!(declared, 0),
            Err(FrameError::TooLarge { len, max }) => {
                prop_assert_eq!(len, declared as usize);
                prop_assert_eq!(max, CAP);
                prop_assert!(len > CAP);
            }
            Err(FrameError::Truncated { .. }) => {
                prop_assert!(declared as usize > 1 && declared as usize <= CAP);
            }
            Ok(Some(frame)) => {
                prop_assert_eq!(declared, 1);
                prop_assert_eq!(frame.tag, tag);
                prop_assert!(frame.payload.is_empty());
            }
            other => prop_assert!(false, "unexpected outcome: {other:?}"),
        }
    }

    /// Chunk frames carry their f64s bit-exactly — NaN payloads, signed
    /// zeros, subnormals and all — because the codec ships raw IEEE bits.
    #[test]
    fn chunk_frames_preserve_arbitrary_f64_bits(
        counters in (1u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        bits in (0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let ((id, trials_run, budget), (subgraph_bits, width_bits)) = (counters, bits);
        let chunk = Response::Chunk(ChunkFrame {
            id,
            trials_run,
            budget,
            estimated_subgraphs: f64::from_bits(subgraph_bits),
            relative_half_width: f64::from_bits(width_bits),
        });
        let decoded = Response::decode(chunk.tag(), &chunk.encode()).expect("round trip");
        let Response::Chunk(decoded) = decoded else { panic!("tag preserved") };
        prop_assert_eq!(decoded.id, id);
        prop_assert_eq!(decoded.estimated_subgraphs.to_bits(), subgraph_bits);
        prop_assert_eq!(decoded.relative_half_width.to_bits(), width_bits);
    }

    /// `delta` requests with random insert and delete lists, and `watch`
    /// requests, round-trip exactly; every truncation or padding of their
    /// payloads is a typed error.
    #[test]
    fn v3_requests_round_trip_and_reject_truncation_and_padding(
        inserts in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 0..6),
        deletes in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX), 0..6),
        params in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..1_000_000),
        knobs in (0u8..255, 0u8..8, 1usize..9),
    ) {
        let ((id, seed, budget), (selector, precision, pad)) = (params, knobs);
        let delta = Request::Delta(DeltaSpec { inserts, deletes });
        let watch = Request::Watch(spec_from(id, selector, seed, budget, precision));
        for request in [delta, watch] {
            let payload = request.encode();
            let decoded = Request::decode(request.tag(), &payload);
            prop_assert_eq!(decoded.as_ref(), Ok(&request));
            rejects_truncation_and_padding(&payload, pad, |bytes| {
                Request::decode(request.tag(), bytes).is_ok()
            })?;
        }
    }

    /// `delta-ok` and `watch-chunk` responses round-trip exactly — the
    /// chunk's f64s with arbitrary bit patterns, NaN payloads included —
    /// and every truncation or padding of their payloads is a typed error.
    #[test]
    fn v3_responses_round_trip_bit_exactly_and_reject_truncation_and_padding(
        ids in (0u64..u64::MAX, 0u64..u64::MAX),
        counters in (0u64..u64::MAX, 0u64..u64::MAX),
        bits in (0u64..u64::MAX, 0u64..u64::MAX, 1usize..9),
    ) {
        let ((id, version), (trials_run, budget), (subgraph_bits, width_bits, pad)) =
            (ids, counters, bits);
        let delta_ok = Response::DeltaOk { version };
        let decoded = Response::decode(delta_ok.tag(), &delta_ok.encode());
        prop_assert_eq!(decoded.as_ref(), Ok(&delta_ok));
        let chunk = Response::WatchChunk(WatchFrame {
            id,
            version,
            trials_run,
            budget,
            estimated_subgraphs: f64::from_bits(subgraph_bits),
            relative_half_width: f64::from_bits(width_bits),
        });
        let decoded = Response::decode(chunk.tag(), &chunk.encode()).expect("round trip");
        let Response::WatchChunk(decoded) = decoded else { panic!("tag preserved") };
        prop_assert_eq!(
            (decoded.id, decoded.version, decoded.trials_run, decoded.budget),
            (id, version, trials_run, budget)
        );
        prop_assert_eq!(decoded.estimated_subgraphs.to_bits(), subgraph_bits);
        prop_assert_eq!(decoded.relative_half_width.to_bits(), width_bits);
        for response in [delta_ok, chunk] {
            rejects_truncation_and_padding(&response.encode(), pad, |bytes| {
                Response::decode(response.tag(), bytes).is_ok()
            })?;
        }
    }
}
