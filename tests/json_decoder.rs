//! The decoders' robustness contract: `serde_json::from_str` and the HTTP
//! `RequestParser` return `Ok` or `Err` for any input, and never panic.
//!
//! Every request body the server and the CLI's `--design`/`--techdb`
//! decode goes through `from_str`, so a panic here is a crash on
//! hostile input. The properties feed it arbitrary bytes, JSON-token soup
//! and valid request bodies with random byte edits, and decode each text
//! as a raw `Value` and as every request-shaped type. The request parser
//! gets arbitrary bytes and edited valid requests in random-sized pieces,
//! as a socket delivers them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::sweep::SweepAxis;
use eco_chip::packaging::{InterposerConfig, PackagingArchitecture, RdlFanoutConfig};
use eco_chip::serve::api::{IndexRange, OptimizeRequest, SweepRequest};
use eco_chip::serve::http::RequestParser;
use eco_chip::techdb::{TechDb, TechNode, TimeSpan};
use eco_chip::testcases::{catalog, ga102};
use eco_chip::System;

/// Run `decode`, returning its panic message if it panicked.
fn no_panic<T>(decode: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(decode)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// Decode `text` as every request-shaped type, returning the panic message
/// if any decode panicked.
fn decode_everything(text: &str) -> Result<(), String> {
    no_panic(|| {
        let _ = serde_json::from_str::<serde::Value>(text);
        let _ = serde_json::from_str::<System>(text);
        let _ = serde_json::from_str::<TechDb>(text);
        let _ = serde_json::from_str::<SweepRequest>(text);
        let _ = serde_json::from_str::<OptimizeRequest>(text);
    })
}

/// Apply random byte edits to `bytes`: each `edit` replaces, inserts or
/// deletes one byte (a byte drawn from `alphabet`) at a position it picks.
fn apply_edits(bytes: &mut Vec<u8>, edits: &[u64], alphabet: &[u8]) {
    for &edit in edits {
        let at = (edit >> 16) as usize % (bytes.len() + 1);
        let byte = alphabet[(edit >> 2) as usize % alphabet.len()];
        match edit % 3 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
}

/// Feed `bytes` to one `RequestParser` in `piece`-byte appends, the way
/// the event loop hands it socket reads, draining each parsed request's
/// consumed bytes. Returns the number of requests parsed before the bytes
/// ran out or the parser refused them, or a description of the panic or
/// of a consumed length outside `1..=buffered`.
fn parse_stream(bytes: &[u8], piece: usize) -> Result<usize, String> {
    no_panic(|| {
        let mut parser = RequestParser::new();
        let mut buf = Vec::new();
        let mut parsed = 0usize;
        for chunk in bytes.chunks(piece.max(1)) {
            buf.extend_from_slice(chunk);
            loop {
                match parser.next_request(&buf) {
                    Ok(Some((_, consumed))) if consumed == 0 || consumed > buf.len() => {
                        return Err(format!("consumed {consumed} of {} bytes", buf.len()));
                    }
                    Ok(Some((_, consumed))) => {
                        buf.drain(..consumed);
                        parsed += 1;
                    }
                    Ok(None) => break,
                    Err(_) => return Ok(parsed),
                }
            }
        }
        Ok(parsed)
    })?
}

/// Valid request streams: each valid body POSTed with its Content-Length,
/// a body-less GET, and pipelined pairs of both.
fn valid_requests() -> &'static [Vec<u8>] {
    static REQUESTS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    REQUESTS.get_or_init(|| {
        let get = b"GET /v1/healthz?probe=1 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec();
        let mut requests = vec![get.clone()];
        for (at, body) in valid_bodies().iter().enumerate() {
            let post = format!(
                "POST /v1/sweep HTTP/1.1\r\nHost: localhost\r\nX-Ecochip-Trace: t{at}\r\n\
                 Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
            requests.push([post.as_slice(), &get].concat());
            requests.push(post);
        }
        requests
    })
}

/// Valid bodies of every decoded type: named and inline sweep and optimize
/// requests (the inline ones carry every structured axis shape, tuples
/// included), the default `TechDb` and a pretty-printed system.
fn valid_bodies() -> &'static [String] {
    static BODIES: OnceLock<Vec<String>> = OnceLock::new();
    BODIES.get_or_init(build_valid_bodies)
}

fn build_valid_bodies() -> Vec<String> {
    let db = TechDb::default();
    let base = catalog::build(&db, "ga102-3chiplet").expect("built-in test case");
    let nodes = NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10);
    let blocks = ga102::soc_blocks(&db).expect("GA102 blocks");
    let axes = vec![
        SweepAxis::Systems(vec![("a \"quoted\"\nlabel".into(), base.clone())]),
        SweepAxis::NodeTuples {
            blocks: blocks.clone(),
            tuples: vec![nodes],
        },
        SweepAxis::ChipletCounts {
            blocks,
            nodes,
            counts: vec![1, 2],
        },
        SweepAxis::ChipletNode {
            index: 0,
            nodes: vec![TechNode::N5, TechNode::N7],
        },
        SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
        ]),
        SweepAxis::Lifetimes(vec![TimeSpan::from_years(2.0)]),
    ];
    let sweep = SweepRequest {
        testcase: None,
        system: Some(base.clone()),
        axis: None,
        axes: Some(axes.clone()),
        range: Some(IndexRange { start: 1, end: 3 }),
        ..SweepRequest::named("", "")
    };
    let optimize = OptimizeRequest {
        testcase: None,
        system: Some(base.clone()),
        axis: None,
        axes: Some(axes),
        method: Some("genetic".into()),
        budget: Some(16),
        seed: Some(3),
        ..OptimizeRequest::named("", "")
    };
    vec![
        serde_json::to_string(&SweepRequest::named("ga102-3chiplet", "packaging")).unwrap(),
        serde_json::to_string(&sweep).unwrap(),
        serde_json::to_string(&OptimizeRequest::named("a15", "nodes")).unwrap(),
        serde_json::to_string(&optimize).unwrap(),
        serde_json::to_string(&db).unwrap(),
        serde_json::to_string_pretty(&base).unwrap(),
    ]
}

/// Bytes a random edit writes: mostly JSON structure, escapes and number
/// syntax, so edits land on decoder branches rather than in string bodies.
const EDIT_BYTES: &[u8] = b"{}[]\":,\\-+.0123456789eEunltfr \n\x00\x1f\xff";

/// Bytes a random edit of an HTTP request writes: line breaks, header
/// punctuation, digits (Content-Length values) and non-UTF-8 bytes.
const HTTP_EDIT_BYTES: &[u8] = b"\r\n\r\n: /?0123456789HTTP1.GETPOS\t\x00\xff";

/// HTTP fragments whose concatenations reach the request-line, header and
/// body-length branches of the parser.
const HTTP_TOKENS: &[&[u8]] = &[
    b"GET",
    b"POST",
    b" ",
    b"/v1/sweep",
    b"?a=b",
    b"HTTP/1.1",
    b"HTTP/1.0",
    b"HTTP/2",
    b"\r\n",
    b"\n",
    b":",
    b"Content-Length: ",
    b"Transfer-Encoding: chunked",
    b"Connection: close",
    b"0",
    b"7",
    b"-1",
    b"18446744073709551616",
    b"{}",
    b"\xff",
];

/// JSON fragments whose concatenations reach deep into the decoder.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"name\"",
    "\"chiplets\"",
    "\"nodes\"",
    "\"kind\"",
    "\"Systems\"",
    "\"axes\"",
    "\"7\"",
    "0",
    "-1",
    "-",
    "1e",
    "1e999",
    "-0.0",
    "18446744073709551616",
    "null",
    "true",
    "fals",
    "\"\\ud800\"",
    "\"\\u00e9\"",
    "\"\\q\"",
    "\"é\"",
    " ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, made UTF-8 the lossy way, never panic the decoder.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let outcome = decode_everything(&text);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {text:?}");
    }

    /// Random sequences of JSON tokens never panic the decoder.
    #[test]
    fn decoder_never_panics_on_token_soup(
        tokens in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..48),
    ) {
        let text = tokens.concat();
        let outcome = decode_everything(&text);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {text:?}");
    }

    /// Valid request bodies with a few random byte replacements,
    /// insertions and deletions never panic the decoder.
    #[test]
    fn decoder_never_panics_on_edited_request_bodies(
        body in 0usize..6,
        edits in prop::collection::vec(0u64..u64::MAX, 1..6),
    ) {
        let mut bytes = valid_bodies()[body].clone().into_bytes();
        apply_edits(&mut bytes, &edits, EDIT_BYTES);
        let text = String::from_utf8_lossy(&bytes);
        let outcome = decode_everything(&text);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {text:?}");
    }

    /// Arbitrary bytes and HTTP-token soup, delivered in arbitrary
    /// pieces, never panic the request parser or make it consume bytes it
    /// was not given.
    #[test]
    fn request_parser_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..512),
        tokens in prop::collection::vec(prop::sample::select(HTTP_TOKENS.to_vec()), 0..48),
        piece in 1usize..64,
    ) {
        for bytes in [bytes, tokens.concat()] {
            let outcome = parse_stream(&bytes, piece);
            prop_assert!(outcome.is_ok(), "{outcome:?} on {:?}", String::from_utf8_lossy(&bytes));
        }
    }

    /// Valid and pipelined requests with a few random byte edits never
    /// panic the request parser, whole or in pieces.
    #[test]
    fn request_parser_never_panics_on_edited_requests(
        request in 0usize..13,
        edits in prop::collection::vec(0u64..u64::MAX, 1..6),
        piece in 1usize..96,
    ) {
        let mut bytes = valid_requests()[request].clone();
        apply_edits(&mut bytes, &edits, HTTP_EDIT_BYTES);
        for piece in [piece, bytes.len()] {
            let outcome = parse_stream(&bytes, piece);
            prop_assert!(outcome.is_ok(), "{outcome:?} on {:?}", String::from_utf8_lossy(&bytes));
        }
    }
}

#[test]
fn valid_requests_decode() {
    let requests = valid_requests();
    assert_eq!(requests.len(), 13);
    for (at, request) in requests.iter().enumerate() {
        // Odd entries are a POST pipelined with a GET.
        let expected = if at % 2 == 1 { 2 } else { 1 };
        assert_eq!(
            parse_stream(request, request.len()),
            Ok(expected),
            "request {at}"
        );
        assert_eq!(
            parse_stream(request, 7),
            Ok(expected),
            "request {at} in pieces"
        );
    }
}

#[test]
fn every_valid_body_decodes_as_its_own_type() {
    let bodies = valid_bodies();
    assert_eq!(bodies.len(), 6);
    for body in &bodies[..2] {
        serde_json::from_str::<SweepRequest>(body).expect("sweep request");
    }
    for body in &bodies[2..4] {
        serde_json::from_str::<OptimizeRequest>(body).expect("optimize request");
    }
    serde_json::from_str::<TechDb>(&bodies[4]).expect("techdb");
    serde_json::from_str::<System>(&bodies[5]).expect("system");
}

/// A multi-field tuple variant, externally tagged: `{"Pair":[a,b]}`.
#[derive(Debug, PartialEq, serde::Deserialize)]
enum External {
    Pair(u32, u32),
}

/// The same variant adjacently tagged: `{"kind":"Pair","value":[a,b]}`.
#[derive(Debug, PartialEq, serde::Deserialize)]
#[serde(tag = "kind", content = "value")]
enum Adjacent {
    Pair(u32, u32),
}

#[test]
fn tuple_variants_refuse_the_wrong_length() {
    let decode = |text: &str| {
        catch_unwind(|| {
            (
                serde_json::from_str::<External>(text).ok(),
                serde_json::from_str::<Adjacent>(text).ok(),
            )
        })
        .unwrap_or_else(|_| panic!("decoding {text:?} panicked"))
    };
    assert_eq!(decode(r#"{"Pair":[1,2]}"#).0, Some(External::Pair(1, 2)));
    assert_eq!(
        decode(r#"{"kind":"Pair","value":[1,2]}"#).1,
        Some(Adjacent::Pair(1, 2))
    );
    for text in [
        r#"{"Pair":[1]}"#,
        r#"{"Pair":[]}"#,
        r#"{"Pair":[1,2,3]}"#,
        r#"{"kind":"Pair","value":[1]}"#,
        r#"{"kind":"Pair","value":[]}"#,
        r#"{"kind":"Pair","value":[1,2,3]}"#,
    ] {
        assert_eq!(decode(text), (None, None), "{text}");
    }
}
