//! The decoders' contracts.
//!
//! Robustness: `serde_json::from_str` and the HTTP `RequestParser` return
//! `Ok` or `Err` for any input, and never panic. Every request body the
//! server and the CLI's `--design`/`--techdb` decode goes through
//! `from_str`, so a panic here is a crash on hostile input. The properties
//! feed it arbitrary bytes, JSON-token soup and valid request bodies with
//! random byte edits, and decode each text as a raw `Value` and as every
//! request-shaped type. The request parser gets arbitrary bytes and edited
//! valid requests in random-sized pieces, as a socket delivers them.
//!
//! Semantics: `from_str` reads each type straight from the text with a
//! pull parser. The pinned cases fix what it builds and the error text it
//! reports: how numbers classify, which duplicate key wins, that a syntax
//! error anywhere beats a schema error, that struct errors follow field
//! declaration order, that an enum tag may come first or last, and that
//! unknown keys still count toward the nesting cap.
//!
//! Round trip: random systems and request bodies of every decoded type,
//! batches included, decode from both the compact and the pretty encoding
//! back to the values that wrote them.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::TestRng;
use serde::Value;

use eco_chip::core::disaggregation::{NodeTuple, SocBlocks};
use eco_chip::core::opt::{FrontierPoint, ObjectiveValue};
use eco_chip::core::sweep::SweepAxis;
use eco_chip::design::VolumeScenario;
use eco_chip::packaging::{InterposerConfig, PackagingArchitecture, RdlFanoutConfig, ThreeDConfig};
use eco_chip::serve::api::{EstimateRequest, IndexRange, OptimizeRequest, SweepRequest};
use eco_chip::serve::http::RequestParser;
use eco_chip::techdb::{Area, DesignType, Energy, EnergySource, TechDb, TechNode, TimeSpan};
use eco_chip::testcases::{catalog, ga102};
use eco_chip::{ChipletSize, System, UsageProfile};

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

// ---------------------------------------------------------------------------
// Decode semantics, pinned: what `from_str` accepts, what it builds and the
// error text it reports.
// ---------------------------------------------------------------------------

/// Two required integers, for field-order and error-text checks.
#[derive(Debug, PartialEq, serde::Deserialize)]
struct S {
    a: u32,
    b: u32,
}

/// An optional field next to a required one.
#[derive(Debug, PartialEq, serde::Deserialize)]
struct WithOption {
    a: Option<u32>,
    b: u32,
}

fn decode_error<T: serde::Deserialize + std::fmt::Debug>(text: &str) -> String {
    serde_json::from_str::<T>(text).expect_err(text).to_string()
}

#[test]
fn numbers_decode_as_before() {
    // An integer-looking `-0` is the integer 0, so it reads as `+0.0`.
    assert_eq!(serde_json::from_str::<f64>("-0").unwrap().to_bits(), 0);
    assert_eq!(
        serde_json::from_str::<f64>("-0.0").unwrap().to_bits(),
        (-0.0f64).to_bits()
    );
    // Integers past 2^53 round to the nearest float.
    assert_eq!(
        serde_json::from_str::<f64>("9007199254740993").unwrap(),
        9_007_199_254_740_992.0
    );
    assert_eq!(serde_json::from_str::<f64>("1e999").unwrap(), f64::INFINITY);
    assert_eq!(decode_error::<u32>("7.0"), "expected integer, got number");
    assert_eq!(
        decode_error::<u32>("-7"),
        "negative value for unsigned integer"
    );
    assert_eq!(decode_error::<u8>("300"), "integer out of range for u8");
    assert_eq!(
        decode_error::<i64>("18446744073709551615"),
        "integer out of range"
    );
    assert_eq!(
        decode_error::<u64>("18446744073709551616"),
        "expected integer, got number"
    );
    assert_eq!(decode_error::<f64>("\"7\""), "expected number, got string");
    assert_eq!(
        decode_error::<f64>("1e"),
        "invalid number `1e` at offset 2 while parsing JSON"
    );
}

#[test]
fn duplicate_keys_keep_the_first_value_and_maps_the_last() {
    let range: IndexRange = serde_json::from_str(r#"{"start":1,"end":3,"start":2}"#).unwrap();
    assert_eq!(range, IndexRange { start: 1, end: 3 });
    // A later duplicate is never decoded, so its type does not matter.
    let range: IndexRange = serde_json::from_str(r#"{"start":1,"end":3,"start":"x"}"#).unwrap();
    assert_eq!(range, IndexRange { start: 1, end: 3 });
    let map: BTreeMap<String, u32> = serde_json::from_str(r#"{"a":1,"a":2}"#).unwrap();
    assert_eq!(map, BTreeMap::from([("a".to_string(), 2)]));
}

#[test]
fn a_syntax_error_anywhere_beats_a_schema_error() {
    assert_eq!(
        decode_error::<S>(r#"{"a":"x", "b": ]"#),
        "unexpected character `]` at offset 15 while parsing JSON"
    );
    assert_eq!(
        decode_error::<S>(r#"{"a":"x","b":1} x"#),
        "trailing characters at offset 16 while parsing JSON"
    );
    assert_eq!(
        decode_error::<Vec<u32>>(r#"["x", 1, {"a" 1}]"#),
        "expected `:` at offset 14 while parsing JSON"
    );
    assert_eq!(
        decode_error::<S>(r#"{"a":1,"b":2,}"#),
        "expected `\"` at offset 13 while parsing JSON"
    );
    assert_eq!(
        decode_error::<S>(r#"{"a":1 "b":2}"#),
        "expected `,` or `}` at offset 8 while parsing JSON"
    );
    assert_eq!(
        decode_error::<S>(r#"{"a":1,"b":"\q"}"#),
        "invalid escape sequence at offset 14 while parsing JSON"
    );
    assert_eq!(
        decode_error::<S>(""),
        "unexpected end of input at offset 0 while parsing JSON"
    );
    assert_eq!(
        decode_error::<S>(r#"{"a":nul}"#),
        "expected `null` at offset 5 while parsing JSON"
    );
}

#[test]
fn schema_errors_follow_field_declaration_order() {
    assert_eq!(
        decode_error::<S>(r#"{"b":"y","a":"x"}"#),
        "S.a: expected integer, got string"
    );
    assert_eq!(decode_error::<S>(r#"{"b":"y"}"#), "missing field `a` in S");
    assert_eq!(
        decode_error::<S>(r#"{"a":1,"b":[2]}"#),
        "S.b: expected integer, got array"
    );
    assert_eq!(
        decode_error::<S>("[1,2]"),
        "expected object while deserializing S"
    );
    // A missing `Option` is `None`; a missing required field is named.
    assert_eq!(
        serde_json::from_str::<WithOption>(r#"{"b":2}"#).unwrap(),
        WithOption { a: None, b: 2 }
    );
    assert_eq!(
        serde_json::from_str::<WithOption>(r#"{"a":null,"b":2}"#).unwrap(),
        WithOption { a: None, b: 2 }
    );
    assert_eq!(
        decode_error::<WithOption>(r#"{"a":1}"#),
        "missing field `b` in WithOption"
    );
    // Field paths nest.
    assert_eq!(
        decode_error::<SweepRequest>(r#"{"range":{"start":1,"end":-2}}"#),
        "SweepRequest.range: IndexRange.end: negative value for unsigned integer"
    );
}

#[test]
fn tagged_enums_decode_the_same_with_the_tag_first_or_last() {
    /// Move the tag, the first entry of a compact tagged object, to its
    /// end: the tag entry `"tag":"wire"` holds no comma.
    fn tag_last(text: &str) -> String {
        let inner = &text[1..text.len() - 1];
        let (tag, rest) = inner.split_once(',').expect("a tag and content");
        format!("{{{rest},{tag}}}")
    }
    fn check<T>(value: T)
    where
        T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
    {
        let first = serde_json::to_string(&value).unwrap();
        let last = tag_last(&first);
        assert_ne!(first, last);
        assert_eq!(serde_json::from_str::<T>(&first).unwrap(), value, "{first}");
        assert_eq!(serde_json::from_str::<T>(&last).unwrap(), value, "{last}");
    }
    check(ChipletSize::Transistors(1.5e9));
    check(ChipletSize::AreaAtNode {
        area: Area::from_mm2(12.5),
        node: TechNode::N7,
    });
    check(PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()));
    check(PackagingArchitecture::ActiveInterposer(
        InterposerConfig::default(),
    ));
    check(UsageProfile::default());
    check(UsageProfile::Battery {
        battery_wh: 12.0,
        charges_per_year: 300.0,
        charger_efficiency: 0.9,
    });
    // The tag's own errors name it; an unknown tag names the enum.
    assert_eq!(
        decode_error::<ChipletSize>(r#"{"value":1.0}"#),
        "missing field `kind` in ChipletSize"
    );
    assert_eq!(
        decode_error::<ChipletSize>(r#"{"value":1.0,"kind":7}"#),
        "ChipletSize.kind: expected string, got integer"
    );
    assert_eq!(
        decode_error::<ChipletSize>(r#"{"value":1.0,"kind":"atoms"}"#),
        "unknown ChipletSize variant \"atoms\""
    );
    assert_eq!(
        decode_error::<ChipletSize>(r#"{"kind":"area_at_node"}"#),
        "missing field `value` in ChipletSize"
    );
    assert_eq!(
        decode_error::<ChipletSize>(r#"{"kind":"transistors","value":"x"}"#),
        "ChipletSize.value: expected number, got string"
    );
    assert_eq!(
        decode_error::<PackagingArchitecture>(r#"{"tech":65,"type":"rdl_fanout"}"#),
        "missing field `layers` in RdlFanoutConfig"
    );
    assert_eq!(
        decode_error::<UsageProfile>(r#"{"battery_wh":1,"type":"battery"}"#),
        "missing field `charges_per_year` in UsageProfile::Battery"
    );
}

/// An internally tagged newtype whose content sees every key but the tag.
#[derive(Debug, PartialEq, serde::Deserialize)]
#[serde(tag = "type")]
enum Tagged {
    Map(BTreeMap<String, u32>),
    Raw(Value),
}

#[test]
fn an_internal_tag_is_hidden_from_the_variant_content() {
    let map = |entries: &[(&str, u32)]| {
        Tagged::Map(entries.iter().map(|&(k, v)| (k.to_string(), v)).collect())
    };
    for text in [
        r#"{"type":"Map","a":1,"b":2}"#,
        r#"{"a":1,"type":"Map","b":2}"#,
        r#"{"a":1,"b":2,"type":"Map","type":7}"#,
    ] {
        assert_eq!(
            serde_json::from_str::<Tagged>(text).unwrap(),
            map(&[("a", 1), ("b", 2)]),
            "{text}"
        );
    }
    assert_eq!(
        serde_json::from_str::<Tagged>(r#"{"x":{"type":1},"type":"Raw"}"#).unwrap(),
        Tagged::Raw(Value::Object(vec![(
            "x".into(),
            Value::Object(vec![("type".into(), Value::Int(1))])
        )]))
    );
    assert_eq!(
        decode_error::<Tagged>(r#"{"type":"Map","a":"x"}"#),
        "expected integer, got string"
    );
}

#[test]
fn externally_tagged_enums_and_tuples_check_their_shape_first() {
    assert_eq!(
        decode_error::<External>(r#"{"Pair":[1,"x",3]}"#),
        "wrong tuple length for External::Pair"
    );
    assert_eq!(
        decode_error::<External>(r#"{"Pair":[1,"x"]}"#),
        "expected integer, got string"
    );
    assert_eq!(
        decode_error::<External>(r#"{"Pair":[1,"x"],"Other":1}"#),
        "unrecognised External representation"
    );
    assert_eq!(
        decode_error::<External>(r#""Pair""#),
        "unknown External variant \"Pair\""
    );
    assert_eq!(
        decode_error::<External>("7"),
        "expected string or object while deserializing External"
    );
    assert_eq!(
        decode_error::<Adjacent>(r#"{"value":[1,"x",3],"kind":"Pair"}"#),
        "wrong tuple length for Adjacent::Pair"
    );
    assert_eq!(
        decode_error::<(u32, u32)>(r#"[1,"x",3]"#),
        "wrong tuple length"
    );
    assert_eq!(
        serde_json::from_str::<EnergySource>(r#"{"custom":42.0}"#).unwrap(),
        EnergySource::Custom(42.0)
    );
    assert_eq!(
        decode_error::<EnergySource>(r#""sunlight""#),
        "unknown EnergySource variant \"sunlight\""
    );
    assert_eq!(
        decode_error::<TechNode>("6"),
        "invalid TechNode: unknown technology node: 6 nm"
    );
}

#[test]
fn map_keys_are_tried_as_integers_then_as_strings() {
    let numbers: BTreeMap<u32, u32> = serde_json::from_str(r#"{"7":1,"+8":2}"#).unwrap();
    assert_eq!(numbers, BTreeMap::from([(7, 1), (8, 2)]));
    let strings: BTreeMap<String, u32> = serde_json::from_str(r#"{"7":1,"x\ny":2}"#).unwrap();
    assert_eq!(
        strings,
        BTreeMap::from([("7".to_string(), 1), ("x\ny".to_string(), 2)])
    );
    assert_eq!(
        decode_error::<BTreeMap<u32, u32>>(r#"{"x":1}"#),
        "expected integer, got string"
    );
    let db = TechDb::default();
    let text = serde_json::to_string(&db).unwrap();
    assert_eq!(
        serde_json::to_string(&serde_json::from_str::<TechDb>(&text).unwrap()).unwrap(),
        text
    );
}

#[test]
fn unknown_keys_nested_past_the_depth_cap_are_refused() {
    // The object is one level, so 127 arrays inside it reach the cap.
    let nested = |depth: usize| {
        format!(
            r#"{{"start":1,"x":{}{},"end":2}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    assert_eq!(
        serde_json::from_str::<IndexRange>(&nested(127)).unwrap(),
        IndexRange { start: 1, end: 2 }
    );
    let error = decode_error::<IndexRange>(&nested(128));
    assert!(error.contains("nesting deeper than 128 levels"), "{error}");
    let error = decode_error::<Value>(&nested(128));
    assert!(error.contains("nesting deeper than 128 levels"), "{error}");
}

// ---------------------------------------------------------------------------
// Round trip: every wire value decodes back to itself, compact or pretty.
// ---------------------------------------------------------------------------

/// Names that exercise string escapes: quotes, backslashes, control
/// characters, non-ASCII and astral-plane characters.
const NAMES: &[&str] = &[
    "",
    "plain",
    "a \"quoted\" name",
    "back\\slash / slash",
    "tab\tnew\nline\r",
    "\u{1}\u{1f}",
    "é ü 漢字",
    "🦀 crab",
];

/// A random float: mostly modest magnitudes, sometimes zeros, integers,
/// extremes or an arbitrary bit pattern, all below 1e300 in magnitude so
/// unit conversions stay finite.
fn random_f64(rng: &mut TestRng) -> f64 {
    match rng.next_below(8) {
        0 => [0.0, -0.0, 1.0, 5.0, 1e21, -1e299, f64::MIN_POSITIVE, 5e-324]
            [rng.next_below(8) as usize],
        1 => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.abs() < 1e300 {
                break f;
            }
        },
        2 => rng.next_below(1_000_000) as f64,
        _ => (rng.next_f64() - 0.25) * 10f64.powi(rng.next_below(24) as i32 - 12),
    }
}

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.next_below(options.len() as u64) as usize]
}

fn random_name(rng: &mut TestRng) -> String {
    pick(rng, NAMES).to_string()
}

fn random_node(rng: &mut TestRng) -> TechNode {
    pick(rng, &TechNode::ALL)
}

fn random_packaging(rng: &mut TestRng) -> PackagingArchitecture {
    let interposer = InterposerConfig {
        tech: random_node(rng),
        beol_layers: rng.next_below(12) as u32,
        active_area_fraction: random_f64(rng),
    };
    match rng.next_below(4) {
        0 => PackagingArchitecture::RdlFanout(RdlFanoutConfig {
            tech: random_node(rng),
            layers: rng.next_below(10) as u32,
        }),
        1 => PackagingArchitecture::PassiveInterposer(interposer),
        2 => PackagingArchitecture::ActiveInterposer(interposer),
        _ => PackagingArchitecture::ThreeD(ThreeDConfig {
            bonding_epa_kwh_per_cm2: random_f64(rng),
            ..ThreeDConfig::default()
        }),
    }
}

/// A catalog system with its names, nodes, sizes, packaging, usage,
/// lifetime and volumes perturbed.
fn random_system(rng: &mut TestRng) -> System {
    static CATALOG: OnceLock<Vec<System>> = OnceLock::new();
    let catalog = CATALOG.get_or_init(|| {
        let db = TechDb::default();
        catalog::names()
            .iter()
            .map(|name| catalog::build(&db, name).expect("built-in test case"))
            .collect()
    });
    let mut system = catalog[rng.next_below(catalog.len() as u64) as usize].clone();
    if rng.next_below(2) == 0 {
        system.name = random_name(rng);
    }
    for chiplet in &mut system.chiplets {
        if rng.next_below(2) == 0 {
            chiplet.name = random_name(rng);
            chiplet.node = random_node(rng);
            chiplet.design_type = pick(rng, &DesignType::ALL);
            chiplet.size = if rng.next_below(2) == 0 {
                ChipletSize::Transistors(random_f64(rng))
            } else {
                ChipletSize::AreaAtNode {
                    area: Area::from_mm2(random_f64(rng)),
                    node: random_node(rng),
                }
            };
        }
    }
    if rng.next_below(2) == 0 {
        system.packaging = random_packaging(rng);
    }
    system.usage = match rng.next_below(4) {
        0 => UsageProfile::Battery {
            battery_wh: random_f64(rng),
            charges_per_year: random_f64(rng),
            charger_efficiency: random_f64(rng),
        },
        1 => UsageProfile::Measured {
            energy_per_year: Energy::from_kwh(random_f64(rng)),
        },
        _ => system.usage,
    };
    system.lifetime = TimeSpan::from_years(random_f64(rng));
    system.volumes = VolumeScenario {
        chiplet_volume: rng.next_u64(),
        system_volume: rng.next_below(1 << 20),
    };
    system
}

fn random_axis(rng: &mut TestRng) -> SweepAxis {
    let nodes = NodeTuple::new(random_node(rng), random_node(rng), random_node(rng));
    let blocks = SocBlocks::new(
        random_name(rng),
        random_f64(rng),
        random_f64(rng),
        random_f64(rng),
    );
    let len = rng.next_below(4) as usize;
    match rng.next_below(9) {
        0 => SweepAxis::NodeTuples {
            blocks,
            tuples: vec![nodes; len],
        },
        1 => SweepAxis::Packaging((0..len).map(|_| random_packaging(rng)).collect()),
        2 => SweepAxis::Volumes(
            (0..len)
                .map(|_| VolumeScenario {
                    chiplet_volume: rng.next_u64(),
                    system_volume: rng.next_u64(),
                })
                .collect(),
        ),
        3 => SweepAxis::Lifetimes(
            (0..len)
                .map(|_| TimeSpan::from_years(random_f64(rng)))
                .collect(),
        ),
        4 => SweepAxis::ChipletCounts {
            blocks,
            nodes,
            counts: (0..len).map(|_| rng.next_below(64) as usize).collect(),
        },
        5 => SweepAxis::ChipletNode {
            index: rng.next_below(8) as usize,
            nodes: (0..len).map(|_| random_node(rng)).collect(),
        },
        6 => SweepAxis::FabEnergySources(
            (0..len)
                .map(|_| match rng.next_below(3) {
                    0 => EnergySource::Custom(random_f64(rng)),
                    1 => EnergySource::Solar,
                    _ => EnergySource::Coal,
                })
                .collect(),
        ),
        7 => SweepAxis::Systems(
            (0..len)
                .map(|_| (random_name(rng), random_system(rng)))
                .collect(),
        ),
        _ => SweepAxis::lifetimes_years(&[1.0, 2.5]),
    }
}

fn maybe<T>(rng: &mut TestRng, value: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (rng.next_below(2) == 0).then(|| value(rng))
}

fn random_estimate(rng: &mut TestRng) -> EstimateRequest {
    EstimateRequest {
        testcase: maybe(rng, random_name),
        system: maybe(rng, random_system),
    }
}

fn random_sweep(rng: &mut TestRng) -> SweepRequest {
    SweepRequest {
        testcase: maybe(rng, random_name),
        system: maybe(rng, random_system),
        axis: maybe(rng, random_name),
        axes: maybe(rng, |rng| {
            (0..rng.next_below(4)).map(|_| random_axis(rng)).collect()
        }),
        shard: maybe(rng, random_name),
        range: maybe(rng, |rng| IndexRange {
            start: rng.next_below(1 << 40) as usize,
            end: rng.next_u64() as usize,
        }),
        format: maybe(rng, random_name),
    }
}

fn random_optimize(rng: &mut TestRng) -> OptimizeRequest {
    let sweep = random_sweep(rng);
    OptimizeRequest {
        testcase: sweep.testcase,
        system: sweep.system,
        axis: sweep.axis,
        axes: sweep.axes,
        shard: sweep.shard,
        method: maybe(rng, random_name),
        budget: maybe(rng, |rng| rng.next_u64() as usize),
        seed: maybe(rng, TestRng::next_u64),
        objectives: maybe(rng, random_name),
        island: maybe(rng, |rng| rng.next_below(16) as usize),
        frontier: maybe(rng, |rng| {
            (0..rng.next_below(4))
                .map(|index| FrontierPoint {
                    index: index as usize,
                    label: random_name(rng),
                    objectives: (0..rng.next_below(4))
                        .map(|_| ObjectiveValue {
                            objective: random_name(rng),
                            value: random_f64(rng),
                        })
                        .collect(),
                })
                .collect()
        }),
    }
}

/// `from_str` inverts both `to_string` and `to_string_pretty`.
fn round_trips<T>(value: &T) -> Result<(), String>
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    for text in [
        serde_json::to_string(value).map_err(|e| e.to_string())?,
        serde_json::to_string_pretty(value).map_err(|e| e.to_string())?,
    ] {
        match serde_json::from_str::<T>(&text) {
            Ok(decoded) if decoded == *value => {}
            Ok(decoded) => return Err(format!("{text} decoded as {decoded:?}")),
            Err(error) => return Err(format!("{text} failed: {error}")),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random systems and request bodies of every decoded request type,
    /// batches included, decode back to the values that encoded them.
    #[test]
    fn wire_values_round_trip(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::seed_from_u64(seed);
        let outcome = round_trips(&random_system(rng))
            .and_then(|()| round_trips(&random_estimate(rng)))
            .and_then(|()| round_trips(&random_sweep(rng)))
            .and_then(|()| round_trips(&random_optimize(rng)))
            .and_then(|()| {
                round_trips(&(0..rng.next_below(4)).map(|_| random_estimate(rng)).collect::<Vec<_>>())
            });
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
