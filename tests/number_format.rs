//! Differential tests of the JSON shim's hand-rolled emitters against the
//! standard library: every `f64` must print as `format!("{f}")` plus `.0`
//! when that has no decimal point, every integer as `to_string()`, and
//! every string as the reference escaper below. The multiplier tables of
//! the float emitter are re-derived here with exact arithmetic. The
//! emitter memoizes texts per thread, so every float is written twice and
//! a pooled run repeats values in random order.
//!
//! `random_bit_patterns_100m` is the long variant; run it with
//! `cargo test --release --test number_format -- --ignored`.

use std::cmp::Ordering;

/// What the float emitter must produce: `Display`, plus `.0` for integral
/// values.
fn reference(f: f64) -> String {
    let mut s = format!("{f}");
    if !s.contains('.') {
        s.push_str(".0");
    }
    s
}

fn emitted(f: f64) -> String {
    let mut out = String::new();
    serde::write_json_f64(f, &mut out).expect("finite");
    out
}

/// Emit `f` twice, so a memoized text is checked on its first write and
/// on the write that copies it back.
fn check(f: f64) {
    if f.is_finite() {
        let expected = reference(f);
        for write in ["first", "second"] {
            assert_eq!(
                emitted(f),
                expected,
                "{write} write of bits {:#018x}",
                f.to_bits()
            );
        }
    }
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
}

fn check_random_bit_patterns(seed: u64, count: usize) {
    let mut rng = SplitMix(seed);
    for _ in 0..count {
        check(f64::from_bits(rng.next()));
    }
}

#[test]
fn random_bit_patterns() {
    check_random_bit_patterns(0x5eed_0001, 1_000_000);
}

#[test]
#[ignore = "100 M samples; run in release with --ignored"]
fn random_bit_patterns_100m() {
    check_random_bit_patterns(0x5eed_0100, 100_000_000);
}

/// Draw `count` values in random order from a pool of 4,096: raw bit
/// patterns, floats of moderate magnitude and short decimals. Repeats hit
/// the emitter's per-thread memo, and different values sharing a slot
/// evict each other in between.
fn check_pooled_values(seed: u64, count: usize) {
    let mut rng = SplitMix(seed);
    let pool: Vec<f64> = (0..4_096u64)
        .map(|i| {
            let word = rng.next();
            match i % 3 {
                0 => f64::from_bits(word),
                1 => {
                    // Keep the sign and mantissa; take the exponent from
                    // 2^-24 to 2^47.
                    let exponent = 1023 - 24 + (word >> 52) % 72;
                    let sign_and_mantissa = (1 << 63) | ((1 << 52) - 1);
                    f64::from_bits((word & sign_and_mantissa) | (exponent << 52))
                }
                _ => (word % 2_000_000) as f64 / 1_000.0 - 1_000.0,
            }
        })
        .collect();
    for _ in 0..count {
        let f = pool[(rng.next() % pool.len() as u64) as usize];
        if f.is_finite() {
            assert_eq!(emitted(f), reference(f), "bits {:#018x}", f.to_bits());
        }
    }
}

#[test]
fn pooled_values_through_the_memo() {
    check_pooled_values(0x5eed_0002, 1_000_000);
}

#[test]
fn exact_tie_rounds_up_like_display() {
    // 2^-25 = 0.0000000298023223876953125 exactly; its 17-digit shortest
    // candidates …695312 and …695313 are equally near, and `Display`
    // picks the upper one where Ryu's reference picks the even one.
    let f = f64::from_bits(0x3e60_0000_0000_0000);
    assert_eq!(f, 2f64.powi(-25));
    assert_eq!(reference(f), "0.000000029802322387695313");
    assert_eq!(emitted(f), "0.000000029802322387695313");
}

#[test]
fn powers_of_two_and_their_neighbours() {
    for k in -1074i32..=1023 {
        let bits = if k >= -1022 {
            ((k + 1023) as u64) << 52
        } else {
            1u64 << (k + 1074)
        };
        for b in [bits - 1, bits, bits + 1] {
            check(f64::from_bits(b));
            check(-f64::from_bits(b));
        }
    }
}

#[test]
fn integers_around_two_to_the_53() {
    let base = 1u64 << 53;
    for d in 0..4096u64 {
        check((base - d) as f64);
        check((base + d) as f64);
    }
    for i in 0..10_000u64 {
        check(i as f64);
    }
}

#[test]
fn quarters_and_thousandths() {
    for i in 0..200_000u32 {
        check(f64::from(i) / 4.0);
        check(f64::from(i) * 1e-3);
        check(-f64::from(i) * 1e-3);
    }
}

#[test]
fn decimal_powers_and_their_multiples() {
    for k in -320i32..=308 {
        for mantissa in ["1", "5", "123456789012345"] {
            let f: f64 = format!("{mantissa}e{k}").parse().unwrap();
            check(f);
            check(-f);
        }
    }
}

#[test]
fn special_values() {
    for f in [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1,
        0.2 + 0.1,
        1.0 / 3.0,
    ] {
        check(f);
    }
    assert_eq!(emitted(0.0), "0.0");
    assert_eq!(emitted(-0.0), "-0.0");
    assert_eq!(emitted(7.0), "7.0");
    assert_eq!(emitted(1e21), "1000000000000000000000.0");
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(serde::write_json_f64(f, &mut String::new()).is_err());
    }
}

#[test]
fn integers_match_to_string() {
    // 0, 9, 10, 99, 100, … and the extremes.
    let mut signed = vec![0, 1, -1, i64::MIN, i64::MAX];
    let mut unsigned = vec![0, u64::MAX, i64::MAX as u64 + 1];
    for p in 1..19 {
        let ten = 10i64.pow(p);
        signed.extend([ten - 1, ten, ten + 1, -ten, 1 - ten]);
        unsigned.extend([ten as u64 - 1, ten as u64, ten as u64 * 10]);
    }
    let mut rng = SplitMix(7);
    for _ in 0..10_000 {
        let word = rng.next();
        signed.push(word as i64 >> (word % 64));
        unsigned.push(word >> (word % 64));
    }
    for i in signed {
        let mut out = String::new();
        serde::write_json_i64(i, &mut out);
        assert_eq!(out, i.to_string());
    }
    for u in unsigned {
        let mut out = String::new();
        serde::write_json_u64(u, &mut out);
        assert_eq!(out, u.to_string());
    }
}

/// The escaper the JSON shim used before run-at-a-time copying.
fn reference_escape(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[test]
fn strings_match_reference_escaper() {
    let alphabet: Vec<char> = "ab\"\\\n\r\t\u{0}\u{1f}\u{7f}é€😀 /"
        .chars()
        .chain((0u8..0x20).map(char::from))
        .collect();
    let mut rng = SplitMix(11);
    let mut cases = vec![String::new(), "plain".to_string(), "\"".to_string()];
    for _ in 0..5_000 {
        let len = (rng.next() % 12) as usize;
        cases.push(
            (0..len)
                .map(|_| alphabet[(rng.next() % alphabet.len() as u64) as usize])
                .collect(),
        );
    }
    for s in cases {
        let mut out = String::new();
        serde::write_json_str(&s, &mut out);
        assert_eq!(out, reference_escape(&s), "{s:?}");
    }
}

/// Little-endian 64-bit limbs of an unsigned integer, no leading zeros.
struct Big(Vec<u64>);

impl Big {
    fn from_u128(v: u128) -> Big {
        let mut big = Big(vec![v as u64, (v >> 64) as u64]);
        big.trim();
        big
    }

    fn pow2(j: u32) -> Big {
        let mut limbs = vec![0u64; j as usize / 64 + 1];
        limbs[j as usize / 64] = 1 << (j % 64);
        Big(limbs)
    }

    fn trim(&mut self) {
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    fn mul(&self, other: &Big) -> Big {
        let mut limbs = vec![0u64; self.0.len() + other.0.len()];
        for (i, &a) in self.0.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.0.iter().enumerate() {
                let t = u128::from(a) * u128::from(b) + u128::from(limbs[i + j]) + carry;
                limbs[i + j] = t as u64;
                carry = t >> 64;
            }
            limbs[i + other.0.len()] = carry as u64;
        }
        let mut big = Big(limbs);
        big.trim();
        big
    }

    fn bits(&self) -> u32 {
        match self.0.last() {
            Some(top) => 64 * (self.0.len() as u32 - 1) + (64 - top.leading_zeros()),
            None => 0,
        }
    }

    /// The low 128 bits of `self >> shift`.
    fn shr_u128(&self, shift: u32) -> u128 {
        let bit = |k: u32| -> u128 {
            let limb = (k / 64) as usize;
            u128::from(self.0.get(limb).is_some_and(|w| w >> (k % 64) & 1 == 1))
        };
        (0..128).fold(0u128, |acc, k| acc | (bit(shift + k) << k))
    }

    fn cmp(&self, other: &Big) -> Ordering {
        self.0
            .len()
            .cmp(&other.0.len())
            .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
    }
}

fn entry(split: &[u64; 2]) -> u128 {
    u128::from(split[1]) << 64 | u128::from(split[0])
}

#[test]
fn multiplier_tables_are_exact() {
    use serde::num::{POW5_BITCOUNT, POW5_INV_BITCOUNT, POW5_INV_SPLIT, POW5_SPLIT};
    let five = Big::from_u128(5);
    let mut pow5 = Big::from_u128(1);
    for i in 0..POW5_INV_SPLIT.len().max(POW5_SPLIT.len()) {
        let bits = pow5.bits();
        if let Some(split) = POW5_SPLIT.get(i) {
            let count = POW5_BITCOUNT as u32;
            let expected = if bits <= count {
                pow5.shr_u128(0) << (count - bits)
            } else {
                pow5.shr_u128(bits - count)
            };
            assert_eq!(entry(split), expected, "POW5_SPLIT[{i}]");
        }
        if let Some(split) = POW5_INV_SPLIT.get(i) {
            // entry = floor(2^j / 5^i) + 1  <=>  (entry - 1) * 5^i <= 2^j < entry * 5^i
            let j = bits - 1 + POW5_INV_BITCOUNT as u32;
            let inv = entry(split);
            let two_j = Big::pow2(j);
            assert_ne!(
                Big::from_u128(inv - 1).mul(&pow5).cmp(&two_j),
                Ordering::Greater,
                "POW5_INV_SPLIT[{i}] too large"
            );
            assert_eq!(
                Big::from_u128(inv).mul(&pow5).cmp(&two_j),
                Ordering::Greater,
                "POW5_INV_SPLIT[{i}] too small"
            );
        }
        pow5 = pow5.mul(&five);
    }
}
