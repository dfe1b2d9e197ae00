//! Hostile input for the JSON half of the wire, and a round trip over
//! arbitrary trees.
//!
//! Seeded byte mutations (flip, insert, delete, truncate, duplicate a span)
//! of every golden request line and of a 200-row reply must never make
//! `serde_json::from_str` or `parse_request` panic, and `from_str` must
//! allocate at most in proportion to the line's length. Nesting past 128
//! levels is refused. The proptest holds `from_str` and `to_string` to each
//! other on trees carrying every kind of name, string and number the writer
//! prints.

use ir_serve::parse_request;
use ir_serve::protocol::ok_response;
use proptest::prelude::*;
use proptest::{FnStrategy, TestRng};
use serde_json::{Error, Key, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use support::{allocations, answer};

mod support;

/// A uniform pick from `0..n` (`n > 0`).
fn pick(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// The golden request lines of `wire_golden.rs`: every builder's line, and
/// a `whatif` carrying each golden delta object.
fn golden_requests() -> Vec<String> {
    let deltas = [
        r#"{"kind":"link_down","a":1,"b":2}"#,
        r#"{"kind":"link_up","a":1,"b":2}"#,
        r#"{"kind":"neighbor_pref","of":3,"neighbor":4,"delta":-120}"#,
        r#"{"kind":"neighbor_pref","of":3,"neighbor":4,"delta":50}"#,
        r#"{"kind":"neighbor_pref","of":3,"neighbor":4,"delta":null}"#,
        r#"{"kind":"export_prepend","of":3,"neighbor":4,"count":3}"#,
        r#"{"kind":"export_prepend","of":3,"neighbor":4,"count":null}"#,
        r#"{"kind":"partial_transit","of":3,"neighbor":4,"customer_routes_only":true}"#,
        r#"{"kind":"partial_transit","of":3,"neighbor":4,"customer_routes_only":false}"#,
        r#"{"kind":"selective_announce","of":3,"prefix":"10.0.0.0/24","allowed":[5,6]}"#,
        r#"{"kind":"selective_announce","of":3,"prefix":"10.0.0.0/24","allowed":[]}"#,
        r#"{"kind":"selective_announce","of":3,"prefix":"10.0.0.0/24","allowed":null}"#,
        r#"{"kind":"poison_filter","of":3,"enabled":true}"#,
        r#"{"kind":"poison_filter","of":3,"enabled":false}"#,
        r#"{"kind":"announce","origin":7,"prefix":"10.0.0.0/24","via":[8],"poison":[9,1]}"#,
        r#"{"kind":"announce","origin":7,"prefix":"10.0.0.0/24","via":null,"poison":[]}"#,
        r#"{"kind":"hijack","attacker":5,"forged_origin":6,"poison":[7],"stealth":false}"#,
        r#"{"kind":"hijack","attacker":8,"forged_origin":null,"poison":[],"stealth":true}"#,
        r#"{"kind":"withdraw"}"#,
    ];
    let builders = [
        r#"{"id":9,"op":"whatif","prefix":"10.0.0.0/24","deltas":[{"kind":"link_down","a":1,"b":2}],"budget":500}"#,
        r#"{"op":"whatif","prefix":"10.0.0.0/24","deltas":[]}"#,
        r#"{"id":3,"op":"hijack","prefix":"10.0.0.0/24","attacker":65000,"forged_origin":64500,"stealth":true,"budget":7}"#,
        r#"{"op":"hijack","prefix":"10.0.0.0/24","attacker":65000,"forged_origin":null,"stealth":false}"#,
        r#"{"id":5,"op":"route","prefix":"10.0.0.0/24","asn":174}"#,
        r#"{"op":"route","prefix":"10.0.0.0/24","asn":174}"#,
        r#"{"id":1,"op":"health"}"#,
        r#"{"op":"shutdown"}"#,
    ];
    let mut lines: Vec<String> = builders.iter().map(|l| l.to_string()).collect();
    lines.extend(
        deltas
            .iter()
            .map(|d| format!(r#"{{"id":7,"op":"whatif","prefix":"10.0.0.0/24","deltas":[{d}]}}"#)),
    );
    lines
}

/// Bytes an insertion draws from half the time: JSON's delimiters, digits,
/// escape letters and lead bytes of multi-byte chars. The other half is any
/// byte at all.
const SALT: &[u8] = b"{}[]\":,\\-+.0123456789eEnultrfasbu \xc3\xe2\xf0\xff";

/// `line` after one to three seeded edits.
fn mutate(line: &str, rng: &mut TestRng) -> String {
    let mut out = line.as_bytes().to_vec();
    for _ in 0..1 + pick(rng, 3) {
        let len = out.len();
        let at = pick(rng, len + 1);
        match pick(rng, 5) {
            0 if len > 0 => out[pick(rng, len)] ^= 1 << pick(rng, 8),
            1 => {
                let byte = if pick(rng, 2) == 0 {
                    SALT[pick(rng, SALT.len())]
                } else {
                    rng.next_u64() as u8
                };
                out.insert(at, byte);
            }
            2 => {
                let end = (at + 1 + pick(rng, 16)).min(len);
                out.drain(at..end);
            }
            3 => out.truncate(at),
            _ => {
                let end = (at + 1 + pick(rng, 64)).min(len);
                let span = out[at..end].to_vec();
                let to = pick(rng, len + 1);
                out.splice(to..to, span);
            }
        }
    }
    // The server answers a line that is not UTF-8 before parsing it; keep
    // every case a parser case.
    String::from_utf8_lossy(&out).into_owned()
}

/// Runs both parsers on `line` and returns the allocations `from_str`
/// made, failing with the line itself if either one panics.
fn parse_hostile(line: &str) -> usize {
    catch_unwind(AssertUnwindSafe(|| {
        let (_, n) = allocations(|| serde_json::from_str::<Value>(line));
        let _ = parse_request(line);
        n
    }))
    .unwrap_or_else(|_| panic!("a parser panicked on {line:?}"))
}

/// The most `from_str` may allocate for a line of `len` bytes. Each of the
/// tree's allocations is a non-empty string, array or object, which takes
/// at least three bytes of input; the rest is the parser's two scratch
/// stacks, grown by doubling, and an error message.
fn allocation_bound(len: usize) -> usize {
    len / 3 + 32
}

#[test]
fn mutated_lines_never_panic_and_allocate_by_length() {
    let mut rng = TestRng::seed_from_u64(0x5EED_7C0D);
    let reply = ok_response(Some(7), &answer(200));
    let mut corpus: Vec<(String, usize)> = golden_requests()
        .into_iter()
        .map(|line| (line, 700))
        .collect();
    corpus.push((reply, 1_000));
    let mut cases = 0;
    for (line, mutations) in &corpus {
        for _ in 0..*mutations {
            let hostile = mutate(line, &mut rng);
            let n = parse_hostile(&hostile);
            let bound = allocation_bound(hostile.len());
            assert!(
                n <= bound,
                "{n} allocations (bound {bound}) parsing {hostile:?}"
            );
            cases += 1;
        }
    }
    assert!(cases >= 19_000, "{cases} cases");
}

#[test]
fn nesting_past_128_levels_is_refused() {
    let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    let objects = |depth: usize| r#"{"a":"#.repeat(depth) + "0" + &"}".repeat(depth);
    let parse = |line: &str| serde_json::from_str::<Value>(line);
    assert!(parse(&arrays(128)).is_ok());
    assert!(parse(&objects(128)).is_ok());
    assert_eq!(
        parse(&arrays(129)),
        Err(Error::new("nesting deeper than 128 at byte 128"))
    );
    assert_eq!(
        parse(&objects(129)),
        Err(Error::new("nesting deeper than 128 at byte 640"))
    );
    // An unclosed run far past the cap stops at the cap, not at the stack.
    assert_eq!(
        parse(&"[".repeat(1 << 20)),
        Err(Error::new("nesting deeper than 128 at byte 128"))
    );
    // The request object is the first level.
    let request = |depth: usize| format!(r#"{{"op":"health","x":{}}}"#, arrays(depth - 1));
    assert!(parse_request(&request(128)).is_ok());
    let err = parse_request(&request(129)).unwrap_err();
    assert!(err.message.contains("nesting deeper than 128"), "{err:?}");
}

/// Chars generated names and strings draw from: ASCII, everything the
/// writer escapes (quote, backslash, control characters) and non-ASCII
/// text of two, three and four bytes.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '中',
    '\u{2028}',
    '\u{fffd}',
    '😀',
    '\u{10ffff}',
];

/// A string of exactly `0..=max` bytes.
fn text(rng: &mut TestRng, max: usize) -> String {
    let len = pick(rng, max + 1);
    let mut s = String::new();
    loop {
        let c = CHARS[pick(rng, CHARS.len())];
        if s.len() + c.len_utf8() > len {
            break;
        }
        s.push(c);
    }
    while s.len() < len {
        s.push('k');
    }
    s
}

/// A member name of 0–40 bytes, so both sides of `Key::INLINE` show up;
/// a quarter come from a small pool, so objects repeat names.
fn name(rng: &mut TestRng) -> Key {
    const POOL: [&str; 4] = [
        "",
        "id",
        "twenty-three-bytes-long",
        "twenty-four-bytes-long!!",
    ];
    if pick(rng, 4) == 0 {
        POOL[pick(rng, POOL.len())].into()
    } else {
        text(rng, 40).into()
    }
}

/// A finite float of random bits.
fn any_finite(rng: &mut TestRng) -> f64 {
    loop {
        let f = f64::from_bits(rng.next_u64());
        if f.is_finite() {
            return f;
        }
    }
}

/// A number as the parser reads one back: `UInt` for every non-negative
/// integer, `Int` only below zero, and floats in every form the writer
/// prints (fractional, integral as `x.0`, and from 1e15 on with an
/// exponent).
fn number(rng: &mut TestRng) -> Value {
    match pick(rng, 8) {
        0 => Value::Int(i64::MIN),
        1 => Value::UInt(u64::MAX),
        2 => Value::Int(-1 - (rng.next_u64() >> 1) as i64),
        3 => Value::UInt(rng.next_u64() >> pick(rng, 64)),
        4 => Value::Float((rng.next_u64() % 1_000_000) as f64 / 64.0 - 7_812.5),
        5 => Value::Float((rng.next_u64() % 1_000_000_000_000_000) as f64 - 5e14),
        6 => Value::Float(1e15 * (1 + pick(rng, 1 << 20)) as f64),
        _ => Value::Float(any_finite(rng)),
    }
}

/// A tree whose containers nest at most `6 - depth` levels deeper.
fn tree(rng: &mut TestRng, depth: usize) -> Value {
    let kinds = if depth < 6 { 7 } else { 5 };
    let width = |rng: &mut TestRng| pick(rng, 5);
    match pick(rng, kinds) {
        0 => Value::Null,
        1 => Value::Bool(pick(rng, 2) == 0),
        2 | 3 => number(rng),
        4 => Value::String(text(rng, 40)),
        5 => Value::Array((0..width(rng)).map(|_| tree(rng, depth + 1)).collect()),
        _ => Value::Object(
            (0..width(rng))
                .map(|_| (name(rng), tree(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// A top-level array or object up to six levels deep.
fn arbitrary_tree() -> impl Strategy<Value = Value> {
    FnStrategy(|rng: &mut TestRng| loop {
        let v = tree(rng, 0);
        if matches!(v, Value::Array(_) | Value::Object(_)) {
            return v;
        }
    })
}

/// `line` with every non-ASCII char written as a `\u` escape, astral ones
/// as a surrogate pair. JSON text holds non-ASCII chars only inside
/// strings, so the result means the same tree.
fn escape_non_ascii(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    for c in line.chars() {
        if c.is_ascii() {
            out.push(c);
        } else {
            for unit in c.encode_utf16(&mut [0; 2]) {
                out.push_str(&format!("\\u{unit:04X}"));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    #[test]
    fn trees_round_trip_through_text(v in arbitrary_tree()) {
        let line = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), line.clone());
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(serde_json::from_str::<Value>(&pretty), Ok(v.clone()));
        prop_assert_eq!(serde_json::from_str::<Value>(&escape_non_ascii(&line)), Ok(v));
    }
}
