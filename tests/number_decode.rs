//! Differential test of the JSON shim's number decoder against the
//! standard library. The decoder reads short integers and decimals from
//! digits it accumulates while scanning; every other number goes through
//! `str::parse`. Whatever path a text takes, it must decode as the
//! reference below, which classifies and converts with `str::parse`
//! alone: integer text that fits `i64` is an `Int`, else one that fits
//! `u64` a `UInt`, else (and any fraction or exponent) a `Float`, bit for
//! bit `str::parse::<f64>`. Each text is also decoded as `u32`, `u64` and
//! `i64`, whose error texts follow from that classification.
//!
//! `random_numbers_100m` is the long variant; run it with
//! `cargo test --release --test number_decode -- --ignored`.

use serde::Value;

/// How the decoder must read `text`: `Ok` with its classification, or
/// `Err` for text `str::parse` refuses.
fn reference(text: &str) -> Result<Value, ()> {
    let integer = !text.contains(['.', 'e', 'E']);
    if integer {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
    }
    text.parse::<f64>().map(Value::Float).map_err(|_| ())
}

/// The value, or the error text, of decoding `text` as `T`.
fn decoded<T: serde::Deserialize>(text: &str) -> Result<T, String> {
    serde_json::from_str::<T>(text).map_err(|error| error.to_string())
}

/// What decoding a number as an integer type must give, from its
/// reference classification: `from_int` and `from_uint` narrow an `Int`
/// and a `UInt`, naming the type in their errors.
fn integer_outcome<T>(
    reference: &Value,
    from_int: impl Fn(i64) -> Result<T, String>,
    from_uint: impl Fn(u64) -> Result<T, String>,
) -> Result<T, String> {
    match *reference {
        Value::Int(i) => from_int(i),
        Value::UInt(u) => from_uint(u),
        Value::Float(_) => Err("expected integer, got number".into()),
        _ => unreachable!("numbers classify as numbers"),
    }
}

fn out_of_range(ty: &str) -> String {
    format!("integer out of range for {ty}")
}

const NEGATIVE: &str = "negative value for unsigned integer";

/// Check every decode of `text` against the reference.
fn check(text: &str) {
    let Ok(expected) = reference(text) else {
        let error = format!(
            "invalid number `{text}` at offset {} while parsing JSON",
            text.len()
        );
        assert_eq!(decoded::<Value>(text), Err(error.clone()), "{text}");
        assert_eq!(decoded::<f64>(text).map(f64::to_bits), Err(error), "{text}");
        return;
    };
    let value = decoded::<Value>(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let bits = |value: &Value| match *value {
        Value::Float(f) => f.to_bits(),
        _ => 0,
    };
    assert_eq!(value, expected, "{text}");
    assert_eq!(bits(&value), bits(&expected), "{text}");
    let float = match expected {
        Value::Int(i) => i as f64,
        Value::UInt(u) => u as f64,
        Value::Float(f) => f,
        _ => unreachable!(),
    };
    assert_eq!(
        decoded::<f64>(text).map(f64::to_bits),
        Ok(float.to_bits()),
        "{text}"
    );
    let u32_outcome = integer_outcome(
        &expected,
        |i| match u64::try_from(i) {
            Ok(u) => u32::try_from(u).map_err(|_| out_of_range("u32")),
            Err(_) => Err(NEGATIVE.into()),
        },
        |u| u32::try_from(u).map_err(|_| out_of_range("u32")),
    );
    assert_eq!(decoded::<u32>(text), u32_outcome, "{text} as u32");
    let u64_outcome = integer_outcome(
        &expected,
        |i| u64::try_from(i).map_err(|_| NEGATIVE.to_string()),
        Ok,
    );
    assert_eq!(decoded::<u64>(text), u64_outcome, "{text} as u64");
    let i64_outcome = integer_outcome(&expected, Ok, |_| Err("integer out of range".into()));
    assert_eq!(decoded::<i64>(text), i64_outcome, "{text} as i64");
}

/// SplitMix64: a seeded stream of well-mixed 64-bit words.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Append `count` random digits: uniform, or runs of `0` and `9` that
/// sit on rounding and range boundaries.
fn push_digits(rng: &mut SplitMix, count: u64, text: &mut String) {
    let style = rng.below(4);
    for _ in 0..count {
        let digit = match style {
            0 => [b'0', b'9'][rng.below(2) as usize],
            1 if rng.below(4) > 0 => b'0',
            _ => b'0' + rng.below(10) as u8,
        };
        text.push(char::from(digit));
    }
}

/// A random number text: an integer, a decimal or an exponent form of
/// 1–25 digits before the exponent, with signs, `-0`, leading zeros, and
/// now and then an empty part (`1.`, `-.5`) or an invalid text (`-`,
/// `1e`, `-.`).
fn random_number(rng: &mut SplitMix, text: &mut String) {
    text.clear();
    if rng.below(2) == 0 {
        text.push('-');
    }
    if rng.below(8) == 0 {
        let zeros = 1 + rng.below(3);
        text.extend(std::iter::repeat_n('0', zeros as usize));
    }
    let digits = 1 + rng.below(25);
    match rng.below(3) {
        0 => push_digits(rng, digits, text),
        form => {
            // A decimal, rarely with an empty integer or fraction part;
            // only a `-` may come straight before the point.
            let whole = match rng.below(16) {
                0 => 0,
                _ => rng.below(digits + 1),
            }
            .max(u64::from(text.is_empty()));
            push_digits(rng, whole, text);
            text.push('.');
            push_digits(rng, digits - whole, text);
            if form == 2 {
                text.push(['e', 'E'][rng.below(2) as usize]);
                match rng.below(3) {
                    0 => text.push('-'),
                    1 => text.push('+'),
                    _ => {}
                }
                let exponent = rng.below(4);
                push_digits(rng, exponent, text);
            }
        }
    }
}

/// Texts on the decoder's own boundaries: the longest integers and
/// decimals it reads from its accumulated digits and the shortest it
/// does not, `i64`/`u64` limits, `-0` and leading zeros.
const EDGES: &[&str] = &[
    "0",
    "-0",
    "00",
    "-000",
    "0.0",
    "-0.0",
    "-00.000",
    "007",
    "1.",
    "-.5",
    "-.",
    "-",
    "1e",
    "1e+",
    "-e5",
    "0e0",
    "1e999",
    "-1e999",
    "1e-999",
    "999999999999999999",
    "-999999999999999999",
    "1000000000000000000",
    "-1000000000000000000",
    "0000000000000000000001",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "9007199254740993",
    "999999999999999.9",
    "99999999999999.99",
    "123456789012345.6",
    "12345678901234.5",
    "1234567890.12345",
    "0.000000000000000000001",
    "0.0000000000000000000001",
    "0.00000000000000000000001",
    "1.0000000000000000000000",
    "1.00000000000000000000000",
    "8280000000.0",
    "0.1",
    "0.3",
    "2.2250738585072014e-308",
    "4.9e-324",
];

fn check_random_numbers(seed: u64, count: usize) {
    let mut rng = SplitMix(seed);
    let mut text = String::new();
    for _ in 0..count {
        random_number(&mut rng, &mut text);
        check(&text);
    }
}

#[test]
fn edge_numbers() {
    for text in EDGES {
        check(text);
    }
}

#[test]
fn random_numbers() {
    check_random_numbers(0x5eed_0d0c, 1_000_000);
}

#[test]
#[ignore = "100 M samples; run in release with --ignored"]
fn random_numbers_100m() {
    check_random_numbers(0x5eed_0d64, 100_000_000);
}
