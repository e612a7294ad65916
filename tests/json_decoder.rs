//! The JSON decoder's robustness contract: `serde_json::from_str` returns
//! `Ok` or `Err` for any text, and never panics.
//!
//! Every request body the server, the CLI's `--design`/`--techdb` and memo
//! import decode goes through `from_str`, so a panic here is a crash on
//! hostile input. The properties feed it arbitrary bytes, JSON-token soup
//! and valid request bodies with random byte edits, and decode each text
//! as a raw `Value` and as every request-shaped type.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::sweep::SweepAxis;
use eco_chip::packaging::{InterposerConfig, PackagingArchitecture, RdlFanoutConfig};
use eco_chip::serve::api::{IndexRange, OptimizeRequest, SweepRequest};
use eco_chip::techdb::{TechDb, TechNode, TimeSpan};
use eco_chip::testcases::{catalog, ga102};
use eco_chip::System;

/// Decode `text` as every request-shaped type, returning the panic message
/// if any decode panicked.
fn decode_everything(text: &str) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = serde_json::from_str::<serde::Value>(text);
        let _ = serde_json::from_str::<System>(text);
        let _ = serde_json::from_str::<TechDb>(text);
        let _ = serde_json::from_str::<SweepRequest>(text);
        let _ = serde_json::from_str::<OptimizeRequest>(text);
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
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
        for edit in edits {
            let at = (edit >> 16) as usize % (bytes.len() + 1);
            let byte = EDIT_BYTES[(edit >> 2) as usize % EDIT_BYTES.len()];
            match edit % 3 {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let outcome = decode_everything(&text);
        prop_assert!(outcome.is_ok(), "{outcome:?} on {text:?}");
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
