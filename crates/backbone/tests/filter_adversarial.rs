//! Adversarial front-end tests and the differential oracle matrix for
//! compiled content filters (DESIGN §6.13).
//!
//! Two obligations are pinned here:
//!
//! 1. **The front end is hostile-input safe.** Predicates arrive from
//!    subscribers (and, federated, from remote brokers), so oversized
//!    expressions, pathological nesting, unknown fields, type confusion
//!    and plain garbage must all come back as *typed* [`FilterError`]s —
//!    no panics, no unbounded recursion, no resource blow-up.
//! 2. **The compiled evaluator agrees with the oracle.** The wire-image
//!    programs must produce the same verdict as naive
//!    decode-then-[`eval_record`](StreamFilter::eval_record) across a
//!    generated matrix of formats × architectures × expressions ×
//!    records, and fail closed (non-match, counted error, no panic) on
//!    malformed messages — one message at a time, in
//!    [`select`](StreamFilter::select)'s runs, which resolve a program
//!    once per run of equal sender architectures, and in a
//!    [`FilterSet`](backbone::filter::FilterSet)'s, which evaluates a
//!    stream's predicates together and must give each program exactly
//!    what it gives alone.

use std::time::Duration;

use backbone::filter::{FilterError, StreamFilter, MAX_EXPR_DEPTH, MAX_EXPR_LEN};
use backbone::{Broker, Event};
use clayout::{Architecture, CType, Primitive, Record, StructField, StructType};
use pbio::format::{Format, FormatId};
use proptest::prelude::*;

fn ticks() -> StructType {
    StructType::new(
        "Tick",
        vec![
            StructField::new("price", CType::Prim(Primitive::Long)),
            StructField::new("qty", CType::Prim(Primitive::UInt)),
            StructField::new("weight", CType::Prim(Primitive::Double)),
            StructField::new("dest", CType::String),
        ],
    )
}

fn flights() -> StructType {
    StructType::new(
        "Flight",
        vec![
            StructField::new("callsign", CType::String),
            StructField::new("alt", CType::Prim(Primitive::ULongLong)),
            StructField::new("temp", CType::Prim(Primitive::Float)),
            StructField::new("heading", CType::Prim(Primitive::Short)),
        ],
    )
}

fn encode(record: &Record, st: &StructType, arch: Architecture) -> Vec<u8> {
    let format = Format::new(FormatId(7), st.clone(), arch).unwrap();
    pbio::ndr::encode(record, &format).unwrap()
}

// ---------------------------------------------------------------------------
// Adversarial front end: every hostile shape gets a typed refusal.
// ---------------------------------------------------------------------------

#[test]
fn oversized_expressions_are_refused_before_parsing() {
    let bomb = format!("price > {}", "1".repeat(MAX_EXPR_LEN));
    match StreamFilter::compile(&bomb, &ticks()) {
        Err(FilterError::TooLong { len, max }) => {
            assert_eq!(len, bomb.len());
            assert_eq!(max, MAX_EXPR_LEN);
        }
        other => panic!("expected TooLong, got {other:?}"),
    }
}

#[test]
fn nesting_beyond_the_depth_limit_is_refused() {
    // Deep parens would otherwise recurse the parser off the stack.
    let depth = MAX_EXPR_DEPTH + 8;
    let bomb = format!("{}price > 1{}", "(".repeat(depth), ")".repeat(depth));
    match StreamFilter::compile(&bomb, &ticks()) {
        Err(FilterError::TooDeep { max }) => assert_eq!(max, MAX_EXPR_DEPTH),
        other => panic!("expected TooDeep, got {other:?}"),
    }
    // Same limit via `!` chains (a different recursion path).
    let bangs = format!("{}qty == 1", "!".repeat(depth));
    assert!(matches!(
        StreamFilter::compile(&bangs, &ticks()),
        Err(FilterError::TooDeep { .. })
    ));
}

#[test]
fn unknown_fields_name_the_offender() {
    match StreamFilter::compile("altitude > 3", &ticks()) {
        Err(FilterError::UnknownField { field }) => assert_eq!(field, "altitude"),
        other => panic!("expected UnknownField, got {other:?}"),
    }
}

#[test]
fn type_confusion_is_a_typed_mismatch() {
    let st = ticks();
    // Ordering a string, stringing a number, prefixing a number,
    // unsigned field vs negative literal: each a distinct confusion.
    for expr in ["dest > 5", "price == \"ATL\"", "qty ^= \"A\"", "qty > -1", "dest < \"B\""] {
        match StreamFilter::compile(expr, &st) {
            Err(FilterError::TypeMismatch { .. }) => {}
            other => panic!("{expr:?}: expected TypeMismatch, got {other:?}"),
        }
    }
}

#[test]
fn parse_garbage_is_a_positioned_parse_error() {
    for expr in ["", "&&", "price >", "price > 1 extra", "price @ 3", "\"unterminated"] {
        match StreamFilter::compile(expr, &ticks()) {
            Err(FilterError::Parse { .. }) => {}
            other => panic!("{expr:?}: expected Parse, got {other:?}"),
        }
    }
}

#[test]
fn malformed_messages_fail_closed_with_counted_errors() {
    let st = ticks();
    let f = StreamFilter::compile("price > 100", &st).unwrap();
    let record = Record::new()
        .with("price", 150i64)
        .with("qty", 1u64)
        .with("weight", 0.0f64)
        .with("dest", "ATL");
    let msg = encode(&record, &st, Architecture::host());
    assert!(f.matches_message(&msg));

    // Empty image, header-only prefix, and a message of a *different*
    // format (fingerprint mismatch) must all be counted non-matches.
    assert!(!f.matches_message(&[]));
    assert!(!f.matches_message(&msg[..msg.len().min(8)]));
    let foreign = Record::new()
        .with("callsign", "DL1202")
        .with("alt", 31_000u64)
        .with("temp", -40.0f64)
        .with("heading", 270i64);
    assert!(!f.matches_message(&encode(&foreign, &flights(), Architecture::host())));

    let stats = f.stats();
    assert_eq!(stats.evals, 4);
    assert_eq!(stats.matches, 1);
    assert_eq!(stats.errors, 3);
}

/// A fleet of filtered subscribers shares compiled programs: 2 000
/// subscriptions over 16 distinct predicates build 16 programs, each
/// evaluated once per event (not once per subscriber), and every
/// subscriber receives exactly what its predicate accepts.
#[test]
fn a_subscriber_fleet_shares_programs_evaluated_once_per_event() {
    const SUBSCRIBERS: usize = 2_000;
    const UNIQUE: usize = 16;
    let st = ticks();
    let broker = Broker::new();
    broker.create_stream("quotes", None);
    broker.register_stream_type("quotes", st.clone()).expect("register type");

    let thresholds: Vec<i64> = (0..UNIQUE as i64).map(|j| 9_400 + 40 * j).collect();
    let exprs: Vec<String> = thresholds.iter().map(|t| format!("price >= {t}")).collect();
    let subs: Vec<_> = (0..SUBSCRIBERS)
        .map(|i| broker.subscribe_filtered("quotes", &exprs[i % UNIQUE]).expect("subscribe"))
        .collect();
    let cache = broker.filter_cache_stats();
    assert_eq!((cache.built, cache.resident), (UNIQUE as u64, UNIQUE));
    assert!(cache.hits >= (SUBSCRIBERS - UNIQUE) as u64, "only {} cache hits", cache.hits);
    let programs: Vec<_> =
        exprs.iter().map(|e| broker.compile_filter("quotes", e).expect("cache hit")).collect();

    // A permutation of the multiples of 20 below 10 000 — a few percent
    // of the events land at or above each threshold — and a last event
    // every predicate accepts: once a subscriber holds it, nothing more
    // is on its way to that subscriber.
    let mut prices: Vec<i64> = (0..500i64).map(|i| (i * 9_973 % 500) * 20).collect();
    prices.push(10_000);
    for &price in &prices {
        let record = Record::new()
            .with("price", price)
            .with("qty", 1u64)
            .with("weight", 0.5f64)
            .with("dest", "ATL");
        let payload = encode(&record, &st, Architecture::host());
        broker.publish(Event::new("quotes", "Tick", payload)).expect("publish");
    }
    for (i, sub) in subs.iter().enumerate() {
        for _ in prices.iter().filter(|&&p| p >= thresholds[i % UNIQUE]) {
            sub.recv_timeout(Duration::from_secs(30)).expect("filtered delivery");
        }
    }
    for sub in &subs {
        assert!(sub.try_recv().is_none(), "a subscriber got an event its predicate rejects");
    }
    for (program, expr) in programs.iter().zip(&exprs) {
        assert_eq!(program.stats().evals, prices.len() as u64, "{expr}: not once per event");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Printable-ASCII garbage never panics the front end: it either
    /// compiles (and then evaluates without panicking) or yields a
    /// typed error.
    #[test]
    fn fuzzed_expressions_never_panic(expr in "[ -~]{0,64}") {
        if let Ok(f) = StreamFilter::compile(&expr, &ticks()) {
            let record = Record::new()
                .with("price", 1i64)
                .with("qty", 1u64)
                .with("weight", 1.0f64)
                .with("dest", "A");
            let msg = encode(&record, &ticks(), Architecture::host());
            let _ = f.matches_message(&msg);
        }
    }

    /// Arbitrary byte soup and truncated real messages never panic the
    /// evaluator, and its counters stay coherent.
    #[test]
    fn fuzzed_messages_never_panic(
        soup in proptest::collection::vec(any::<u8>(), 0..96),
        cut in 0usize..128,
    ) {
        let st = ticks();
        let f = StreamFilter::compile("price > 100 && dest ^= \"A\"", &st).unwrap();
        let _ = f.matches_message(&soup);
        let record = Record::new()
            .with("price", 500i64)
            .with("qty", 2u64)
            .with("weight", 0.5f64)
            .with("dest", "ATL");
        let msg = encode(&record, &st, Architecture::host());
        let _ = f.matches_message(&msg[..cut.min(msg.len())]);
        let stats = f.stats();
        prop_assert!(stats.matches + stats.errors <= stats.evals);
    }
}

// ---------------------------------------------------------------------------
// Differential matrix: compiled wire programs vs the decode-then-eval
// oracle, across formats × architectures × expressions × records.
// ---------------------------------------------------------------------------

fn cmp_ops() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(vec!["==", "!=", "<", "<=", ">", ">="])
}

fn tick_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (cmp_ops(), -40i64..40).prop_map(|(op, v)| format!("price {op} {v}")),
        (cmp_ops(), 0u64..40).prop_map(|(op, v)| format!("qty {op} {v}")),
        (cmp_ops(), -40i64..40).prop_map(|(op, v)| format!("weight {op} {}.5", v)),
        (
            proptest::sample::select(vec!["==", "!=", "^="]),
            proptest::sample::select(vec!["ATL", "BOS", "A", "B", "Z"]),
        )
            .prop_map(|(op, s)| format!("dest {op} \"{s}\"")),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} && {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} || {b})")),
            inner.prop_map(|a| format!("!({a})")),
        ]
    })
}

fn tick_record() -> impl Strategy<Value = Record> {
    (-40i64..40, 0u64..40, -40i64..40, proptest::sample::select(vec!["ATL", "BOS", "AB", "Z", ""]))
        .prop_map(|(price, qty, w, dest)| {
            Record::new()
                .with("price", price)
                .with("qty", qty)
                .with("weight", w as f64 + 0.5)
                .with("dest", dest)
        })
}

fn flight_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (cmp_ops(), 0u64..50_000).prop_map(|(op, v)| format!("alt {op} {v}")),
        (cmp_ops(), -60i64..60).prop_map(|(op, v)| format!("temp {op} {v}")),
        (cmp_ops(), -180i64..180).prop_map(|(op, v)| format!("heading {op} {v}")),
        (
            proptest::sample::select(vec!["==", "!=", "^="]),
            proptest::sample::select(vec!["DL", "DL1202", "UA9", "X"]),
        )
            .prop_map(|(op, s)| format!("callsign {op} \"{s}\"")),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} && {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} || {b})")),
            inner.prop_map(|a| format!("!({a})")),
        ]
    })
}

fn flight_record() -> impl Strategy<Value = Record> {
    (
        proptest::sample::select(vec!["DL1202", "DL88", "UA910", "SW4"]),
        0u64..50_000,
        -60i64..60,
        -180i64..180,
    )
        .prop_map(|(callsign, alt, temp, heading)| {
            Record::new()
                .with("callsign", callsign)
                .with("alt", alt)
                .with("temp", temp as f64)
                .with("heading", heading)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compiled_programs_agree_with_the_oracle_on_ticks(
        expr in tick_expr(),
        record in tick_record(),
    ) {
        let st = ticks();
        let f = StreamFilter::compile(&expr, &st).expect("generated exprs are well-typed");
        let want = f.eval_record(&record);
        for arch in Architecture::ALL {
            let msg = encode(&record, &st, arch);
            prop_assert_eq!(
                f.matches_message(&msg),
                want,
                "expr {:?} on {:?} under {}",
                expr,
                record,
                arch
            );
        }
        prop_assert_eq!(f.stats().errors, 0);
    }

    #[test]
    fn compiled_programs_agree_with_the_oracle_on_flights(
        expr in flight_expr(),
        record in flight_record(),
    ) {
        let st = flights();
        let f = StreamFilter::compile(&expr, &st).expect("generated exprs are well-typed");
        let want = f.eval_record(&record);
        for arch in Architecture::ALL {
            let msg = encode(&record, &st, arch);
            prop_assert_eq!(
                f.matches_message(&msg),
                want,
                "expr {:?} on {:?} under {}",
                expr,
                record,
                arch
            );
        }
        prop_assert_eq!(f.stats().errors, 0);
    }
}

// ---------------------------------------------------------------------------
// `select` differential: one call over a whole run vs the per-message
// oracle, on runs that switch sender architecture and carry bad messages.
// ---------------------------------------------------------------------------

/// A splitmix64 stream: the run generator's only source of choices.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One generated run of 1–200 messages, each with what the oracle says
/// of it: `Some(record)` for a well-formed `Tick` message (it matches
/// exactly when `eval_record` does), `None` for one that must fail
/// closed as a counted error — a header cut short, a `Flight` message
/// (a foreign fingerprint) or byte soup. The sender architecture is
/// drawn afresh either for every message or for runs of up to 24.
fn generated_run(seed: u64) -> Vec<(Vec<u8>, Option<Record>)> {
    let mut mix = Mix(seed);
    let st = ticks();
    let len = 1 + mix.below(200) as usize;
    let alternate = mix.below(2) == 0;
    let mut arch = Architecture::ALL[mix.below(6) as usize];
    let mut left_in_run = 0;
    let dests = ["ATL", "BOS", "AB", "Z", ""];
    (0..len)
        .map(|_| {
            if alternate || left_in_run == 0 {
                arch = Architecture::ALL[mix.below(6) as usize];
                left_in_run = 1 + mix.below(24);
            }
            left_in_run -= 1;
            let record = Record::new()
                .with("price", mix.below(80) as i64 - 40)
                .with("qty", mix.below(40))
                .with("weight", (mix.below(80) as i64 - 40) as f64 + 0.5)
                .with("dest", dests[mix.below(5) as usize]);
            match mix.below(16) {
                0 => {
                    let msg = encode(&record, &st, arch);
                    let cut = mix.below(pbio::header::FIXED_HEADER_LEN as u64 + 4) as usize;
                    (msg[..cut].to_vec(), None)
                }
                1 => {
                    let flight = Record::new()
                        .with("callsign", "DL1202")
                        .with("alt", mix.below(50_000))
                        .with("temp", -40.0f64)
                        .with("heading", 270i64);
                    (encode(&flight, &flights(), arch), None)
                }
                2 => ((0..mix.below(96)).map(|_| mix.next() as u8).collect(), None),
                _ => (encode(&record, &st, arch), Some(record)),
            }
        })
        .collect()
}

fn delta(before: backbone::filter::FilterStats, after: backbone::filter::FilterStats) -> [u64; 3] {
    [
        after.evals - before.evals,
        after.matches - before.matches,
        after.errors - before.errors,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `select` over a run yields exactly the keys of the messages the
    /// decode-then-`eval_record` oracle accepts, and moves the counters
    /// exactly as one `matches_message` per message does — however often
    /// the sender architecture changes inside the run.
    #[test]
    fn select_agrees_with_the_per_message_oracle(expr in tick_expr(), seed in any::<u64>()) {
        let f = StreamFilter::compile(&expr, &ticks()).expect("generated exprs are well-typed");
        let run = generated_run(seed);
        let want: Vec<usize> = run
            .iter()
            .enumerate()
            .filter(|(_, (_, record))| record.as_ref().is_some_and(|r| f.eval_record(r)))
            .map(|(k, _)| k)
            .collect();

        let before = f.stats();
        let mut got = Vec::new();
        f.select(run.iter().enumerate().map(|(k, (msg, _))| (k, msg.as_slice())), &mut got);
        let selected = f.stats();
        prop_assert_eq!(&got, &want, "expr {:?}, seed {}", expr, seed);

        let one_by_one: Vec<usize> =
            (0..run.len()).filter(|&k| f.matches_message(&run[k].0)).collect();
        let after = f.stats();
        prop_assert_eq!(&one_by_one, &want, "expr {:?}, seed {}", expr, seed);
        prop_assert_eq!(delta(before, selected), delta(selected, after));
        let bad = run.iter().filter(|(_, record)| record.is_none()).count() as u64;
        prop_assert_eq!(
            delta(before, selected),
            [run.len() as u64, want.len() as u64, bad]
        );
    }
}

// ---------------------------------------------------------------------------
// Front-end mutation differential: seeded mutants of generated predicates
// either fail with a typed error or compile to the oracle's verdict on
// every architecture.
// ---------------------------------------------------------------------------

/// A generated predicate's vocabulary: each field with literals of its
/// own class (already rendered as source text).
type Vocabulary = &'static [(&'static str, bool, &'static [&'static str])];

const TICK_WORDS: Vocabulary = &[
    ("price", false, &["-40", "-3", "0", "7", "39"]),
    ("qty", false, &["0", "3", "9", "39"]),
    ("weight", false, &["-2.5", "0.5", "1.25", "39.5", "3"]),
    ("dest", true, &["\"ATL\"", "\"BOS\"", "\"A\"", "\"\""]),
];

const FLIGHT_WORDS: Vocabulary = &[
    ("callsign", true, &["\"DL\"", "\"DL1202\"", "\"UA9\"", "\"\""]),
    ("alt", false, &["0", "31000", "49999"]),
    ("temp", false, &["-40", "0.5", "-40.0", "12"]),
    ("heading", false, &["-180", "0", "270"]),
];

/// Literals of every class, for the literal-class mutation.
const ANY_LITERAL: &[&str] =
    &["-3", "7", "18446744073709551615", "2.5", "-0.0", "1e308", "\"AT\"", "\"\""];

/// Operators and keywords, for the operator-swap mutation.
const ANY_OPERATOR: &[&str] =
    &["==", "!=", "<", "<=", ">", ">=", "^=", "&&", "||", "!", "IN", "BETWEEN", "AND", ","];

/// Field names of both structs and a few that exist in neither.
const ANY_FIELD: &[&str] = &[
    "price", "qty", "weight", "dest", "callsign", "alt", "temp", "heading", "nope", "price.x",
];

fn pick<'a>(mix: &mut Mix, from: &[&'a str]) -> &'a str {
    from[mix.below(from.len() as u64) as usize]
}

fn generated_leaf(mix: &mut Mix, words: Vocabulary) -> String {
    let (field, string, lits) = words[mix.below(words.len() as u64) as usize];
    match mix.below(4) {
        0 => {
            let n = 1 + mix.below(3);
            let items: Vec<&str> = (0..n).map(|_| pick(mix, lits)).collect();
            format!("{field} IN ({})", items.join(", "))
        }
        1 if !string => {
            format!("{field} BETWEEN {} AND {}", pick(mix, lits), pick(mix, lits))
        }
        _ if string => format!("{field} {} {}", pick(mix, &["==", "!=", "^="]), pick(mix, lits)),
        _ => format!("{field} {} {}", pick(mix, &["==", "!=", "<", "<=", ">", ">="]), pick(mix, lits)),
    }
}

fn generated_predicate(mix: &mut Mix, words: Vocabulary, depth: u32) -> String {
    if depth == 0 || mix.below(3) == 0 {
        return generated_leaf(mix, words);
    }
    match mix.below(3) {
        0 => format!(
            "({} && {})",
            generated_predicate(mix, words, depth - 1),
            generated_predicate(mix, words, depth - 1)
        ),
        1 => format!(
            "{} || {}",
            generated_predicate(mix, words, depth - 1),
            generated_predicate(mix, words, depth - 1)
        ),
        _ => format!("!({})", generated_predicate(mix, words, depth - 1)),
    }
}

/// What a token span of a predicate source is, for targeted mutation.
#[derive(Clone, Copy, PartialEq)]
enum Span {
    Name,
    Literal,
    Operator,
}

/// Splits an ASCII predicate source into classified spans. Tolerant of
/// anything a previous mutation left behind: unknown bytes are skipped.
fn spans(src: &str) -> Vec<(Span, usize, usize)> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        let kind = match b[i] {
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += 1 + usize::from(b[i] == b'\\');
                }
                i = (i + 1).min(b.len());
                Span::Literal
            }
            b'-' | b'0'..=b'9' => {
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'.') {
                    i += 1;
                }
                Span::Literal
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                while i < b.len() && (b[i] == b'_' || b[i] == b'.' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                if matches!(&src[start..i], "IN" | "BETWEEN" | "AND") {
                    Span::Operator
                } else {
                    Span::Name
                }
            }
            b'=' | b'!' | b'<' | b'>' | b'^' | b'&' | b'|' | b',' => {
                i += 1;
                if i < b.len() && matches!(b[i], b'=' | b'&' | b'|') {
                    i += 1;
                }
                Span::Operator
            }
            _ => {
                i += 1;
                continue;
            }
        };
        out.push((kind, start, i));
    }
    out
}

/// Applies one seeded mutation: a byte flip, a cut, or a swapped
/// operator, literal or field name.
fn mutate(src: &str, mix: &mut Mix) -> String {
    let replace = |kind: Span, with: &[&str], mix: &mut Mix| {
        let targets: Vec<_> = spans(src).into_iter().filter(|s| s.0 == kind).collect();
        if targets.is_empty() {
            return src.to_owned();
        }
        let (_, start, end) = targets[mix.below(targets.len() as u64) as usize];
        format!("{}{}{}", &src[..start], pick(mix, with), &src[end..])
    };
    match mix.below(5) {
        0 if !src.is_empty() => {
            let mut bytes = src.as_bytes().to_vec();
            let at = mix.below(bytes.len() as u64) as usize;
            bytes[at] = b' ' + mix.below(95) as u8;
            String::from_utf8(bytes).expect("printable ASCII")
        }
        1 => src[..mix.below(src.len() as u64 + 1) as usize].to_owned(),
        2 => replace(Span::Operator, ANY_OPERATOR, mix),
        3 => replace(Span::Literal, ANY_LITERAL, mix),
        _ => replace(Span::Name, ANY_FIELD, mix),
    }
}

fn generated_tick(mix: &mut Mix) -> Record {
    Record::new()
        .with("price", mix.below(80) as i64 - 40)
        .with("qty", mix.below(40))
        .with("weight", [-2.5, 0.5, 1.25, 3.0, 39.5][mix.below(5) as usize])
        .with("dest", ["ATL", "BOS", "AB", "A", ""][mix.below(5) as usize])
}

fn generated_flight(mix: &mut Mix) -> Record {
    Record::new()
        .with("callsign", ["DL1202", "DL", "UA910", ""][mix.below(4) as usize])
        .with("alt", [0, 31_000, 49_999, 7][mix.below(4) as usize])
        .with("temp", [-40.0, 0.5, 12.0, -2.5][mix.below(4) as usize])
        .with("heading", [-180i64, 0, 270, 5][mix.below(4) as usize])
}

/// Runs `mutants` seeded mutants of predicates generated from `words`
/// against `st`; returns how many compiled and how many were refused.
fn mutation_differential(
    st: &StructType,
    words: Vocabulary,
    record: fn(&mut Mix) -> Record,
    seed: u64,
    mutants: usize,
) -> (usize, usize) {
    let mut mix = Mix(seed);
    let (mut compiled, mut refused) = (0, 0);
    for _ in 0..mutants {
        let mut src = generated_predicate(&mut mix, words, 2);
        for _ in 0..1 + mix.below(2) {
            src = mutate(&src, &mut mix);
        }
        let filter = match StreamFilter::compile(&src, st) {
            Ok(filter) => filter,
            Err(e) => {
                assert!(
                    !matches!(
                        e,
                        FilterError::Layout { .. }
                            | FilterError::HiddenField { .. }
                            | FilterError::TypeChanged { .. }
                    ),
                    "{src:?}: {e:?} is not a front-end error"
                );
                assert!(!e.to_string().is_empty());
                refused += 1;
                continue;
            }
        };
        compiled += 1;
        for _ in 0..2 {
            let record = record(&mut mix);
            for arch in Architecture::ALL {
                let format = Format::new(FormatId(7), st.clone(), arch).unwrap();
                let msg = pbio::ndr::encode(&record, &format).unwrap();
                let decoded = pbio::ndr::decode_with(&msg, &format).unwrap();
                assert_eq!(
                    filter.matches_message(&msg),
                    filter.eval_record(&decoded),
                    "{src:?} ({}) on {record:?} under {arch}",
                    filter.normalized()
                );
            }
        }
        assert_eq!(filter.stats().errors, 0, "{src:?}");
    }
    (compiled, refused)
}

#[test]
fn mutated_predicates_are_refused_or_agree_with_the_oracle() {
    const MUTANTS: usize = 6_000;
    for (st, words, record, seed) in [
        (ticks(), TICK_WORDS, generated_tick as fn(&mut Mix) -> Record, 0x7157),
        (flights(), FLIGHT_WORDS, generated_flight as fn(&mut Mix) -> Record, 0xF119),
    ] {
        let (compiled, refused) = mutation_differential(&st, words, record, seed, MUTANTS);
        assert_eq!(compiled + refused, MUTANTS);
        // Both outcomes must be common, or the differential has no teeth.
        assert!(compiled > MUTANTS / 20, "{}: only {compiled} mutants compiled", st.name);
        assert!(refused > MUTANTS / 10, "{}: only {refused} mutants refused", st.name);
    }
}

// ---------------------------------------------------------------------------
// Golden table: every field class × literal class × operator form, and
// what the front end makes of it (normalized form or error text).
// ---------------------------------------------------------------------------

/// One field of every class the front end distinguishes.
fn every_class() -> StructType {
    StructType::new(
        "Classes",
        vec![
            StructField::new("i", CType::Prim(Primitive::Long)),
            StructField::new("u", CType::Prim(Primitive::UInt)),
            StructField::new("d", CType::Prim(Primitive::Double)),
            StructField::new("s", CType::String),
            StructField::new("a", CType::fixed_array(CType::Prim(Primitive::Int), 2)),
            StructField::new(
                "n",
                CType::Struct(StructType::new(
                    "Inner",
                    vec![StructField::new("x", CType::Prim(Primitive::Int))],
                )),
            ),
        ],
    )
}

fn golden_table() -> String {
    // Two literals of each class, so `IN` and `BETWEEN` stay in class.
    let literals = [
        ("-3", "-7"),
        ("7", "9"),
        ("18446744073709551615", "9223372036854775808"),
        ("2.5", "-0.0"),
        ("\"AT\"", "\"a\\\"b\""),
    ];
    let st = every_class();
    let mut table = String::new();
    for field in ["i", "u", "d", "s", "a", "n"] {
        for (lit, other) in literals {
            let mut forms: Vec<String> = ["==", "!=", "<", "<=", ">", ">=", "^="]
                .iter()
                .map(|op| format!("{field} {op} {lit}"))
                .collect();
            forms.push(format!("{field} IN ({lit},{other})"));
            forms.push(format!("{field} BETWEEN {lit} AND {other}"));
            for src in forms {
                let verdict = match StreamFilter::compile(&src, &st) {
                    Ok(filter) => format!("ok  {}", filter.normalized()),
                    Err(e) => format!("err {e}"),
                };
                table.push_str(&format!("{src}\t{verdict}\n"));
            }
        }
    }
    table
}

/// The committed table is the contract: a change to the front end's
/// accept/refuse rules, its coercions, its error text or its canonical
/// form (the filter cache's key) shows up here as a changed row.
#[test]
fn every_class_literal_and_operator_form_is_pinned() {
    let want = include_str!("filter_forms.txt");
    let got = golden_table();
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "row {}", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------------
// IEEE semantics on both paths.
// ---------------------------------------------------------------------------

fn floats() -> StructType {
    StructType::new(
        "Floats",
        vec![
            StructField::new("d", CType::Prim(Primitive::Double)),
            StructField::new("f", CType::Prim(Primitive::Float)),
        ],
    )
}

/// NaN fails every test but `!=`; `-0.0 == 0.0`; a `float` field is
/// widened to `f64` before the compare — on the wire program and the
/// `eval_record` oracle alike, on every architecture.
#[test]
fn ieee_semantics_hold_on_both_paths() {
    let st = floats();
    let nan = (f64::NAN, [
        ("!= 1.0", true),
        ("!= 0", true),
        ("== 1.0", false),
        ("< 1.0", false),
        ("<= 1.0", false),
        ("> 1.0", false),
        (">= 1.0", false),
        ("IN (1.0, 0.0, -1.0)", false),
        ("BETWEEN -1e308 AND 1e308", false),
    ]);
    let negative_zero = (-0.0, [
        ("== 0.0", true),
        ("== 0", true),
        ("== -0.0", true),
        ("!= 0.0", false),
        ("< 0.0", false),
        (">= 0", true),
        ("IN (0.0)", true),
        ("BETWEEN 0.0 AND 0.0", true),
        ("BETWEEN -0.0 AND -0.0", true),
    ]);
    let tenth = (0.1, [
        // 0.1 stored as an f32 widens to 0.10000000149011612.
        ("== 0.1", true),
        ("== 0.10000000149011612", false),
        ("!= 0.1", false),
        ("> 0.1", false),
        ("< 0.10000000149011612", true),
        ("IN (0.1)", true),
        ("BETWEEN 0.1 AND 0.1", true),
        ("BETWEEN 0.0 AND 0.1", true),
        ("<= 0.1", true),
    ]);
    let widened = [
        ("f == 0.1", false),
        ("f == 0.10000000149011612", true),
        ("f != 0.1", true),
        ("f > 0.1", true),
        ("f IN (0.1)", false),
        ("f IN (0.10000000149011612)", true),
        ("f BETWEEN 0.0 AND 0.1", false),
    ];
    let mut cases: Vec<(f64, f64, String, bool)> = Vec::new();
    for (value, tests) in [nan, negative_zero] {
        for (test, want) in tests {
            cases.push((value, value, format!("d {test}"), want));
            cases.push((value, value, format!("f {test}"), want));
        }
    }
    for (test, want) in tenth.1 {
        cases.push((tenth.0, 0.0, format!("d {test}"), want));
    }
    for (test, want) in widened {
        cases.push((0.0, tenth.0, test.to_owned(), want));
    }
    for (d, f, src, want) in cases {
        let filter = StreamFilter::compile(&src, &st).expect("well-typed");
        let record = Record::new().with("d", d).with("f", f);
        for arch in Architecture::ALL {
            let format = Format::new(FormatId(7), st.clone(), arch).unwrap();
            let msg = pbio::ndr::encode(&record, &format).unwrap();
            let decoded = pbio::ndr::decode_with(&msg, &format).unwrap();
            assert_eq!(filter.matches_message(&msg), want, "wire: {src} on d={d} f={f} {arch}");
            assert_eq!(filter.eval_record(&decoded), want, "oracle: {src} on d={d} f={f} {arch}");
        }
    }
}

// ---------------------------------------------------------------------------
// Predicate-set differential: a stream's predicates evaluated together by a
// `FilterSet` vs each alone, a test-side model that knows bad strings, and
// the `eval_record` oracle.
// ---------------------------------------------------------------------------

/// A field's value class, as generated predicates and records see it.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Int,
    UInt,
    Float,
    Str,
}

/// `ticks` with a second string field and a `float` one, so a set's
/// programs share string loads and widen.
fn quotes() -> StructType {
    StructType::new(
        "Quote",
        vec![
            StructField::new("price", CType::Prim(Primitive::Long)),
            StructField::new("qty", CType::Prim(Primitive::UInt)),
            StructField::new("weight", CType::Prim(Primitive::Double)),
            StructField::new("dest", CType::String),
            StructField::new("org", CType::String),
            StructField::new("temp", CType::Prim(Primitive::Float)),
        ],
    )
}

/// A struct type the set differential draws from, its fields' classes in
/// field order.
struct Shape {
    st: StructType,
    fields: &'static [(&'static str, Kind)],
}

fn shapes() -> [Shape; 2] {
    use Kind::*;
    [
        Shape {
            st: quotes(),
            fields: &[
                ("price", Int),
                ("qty", UInt),
                ("weight", Float),
                ("dest", Str),
                ("org", Str),
                ("temp", Float),
            ],
        },
        Shape {
            st: flights(),
            fields: &[("callsign", Str), ("alt", UInt), ("temp", Float), ("heading", Int)],
        },
    ]
}

/// Literals of each class, as source text.
fn literals(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Int => &["-40", "-3", "0", "7", "39"],
        Kind::UInt => &["0", "3", "9", "39"],
        Kind::Float => &["-2.5", "0.5", "3", "-0.0", "12", "39.5", "0.1"],
        Kind::Str => &["\"ATL\"", "\"BOS\"", "\"A\"", "\"\"", "\"AT\"", "\"ATLANTA\""],
    }
}

/// A generated predicate, kept as a tree so the model can evaluate it.
#[derive(Debug)]
enum Pred {
    /// One field, an operator or keyword, and its literals.
    Leaf(usize, &'static str, Vec<&'static str>),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

fn render_pred(pred: &Pred, shape: &Shape) -> String {
    match pred {
        Pred::Leaf(field, op, lits) => {
            let name = shape.fields[*field].0;
            match *op {
                "IN" => format!("{name} IN ({})", lits.join(", ")),
                "BETWEEN" => format!("{name} BETWEEN {} AND {}", lits[0], lits[1]),
                _ => format!("{name} {op} {}", lits[0]),
            }
        }
        Pred::And(l, r) => format!("({} && {})", render_pred(l, shape), render_pred(r, shape)),
        Pred::Or(l, r) => format!("({} || {})", render_pred(l, shape), render_pred(r, shape)),
        Pred::Not(inner) => format!("!({})", render_pred(inner, shape)),
    }
}

fn generated_pred_leaf(mix: &mut Mix, shape: &Shape) -> Pred {
    let field = mix.below(shape.fields.len() as u64) as usize;
    let kind = shape.fields[field].1;
    let lits = literals(kind);
    match mix.below(5) {
        0 => {
            let items = (0..1 + mix.below(3)).map(|_| pick(mix, lits)).collect();
            Pred::Leaf(field, "IN", items)
        }
        1 if kind != Kind::Str => Pred::Leaf(field, "BETWEEN", vec![pick(mix, lits), pick(mix, lits)]),
        // A bound pair on one field, in either order: the range fold.
        2 if kind != Kind::Str => {
            let lower = Pred::Leaf(field, pick(mix, &[">", ">="]), vec![pick(mix, lits)]);
            let upper = Pred::Leaf(field, pick(mix, &["<", "<="]), vec![pick(mix, lits)]);
            match mix.below(2) {
                0 => Pred::And(lower.into(), upper.into()),
                _ => Pred::And(upper.into(), lower.into()),
            }
        }
        _ if kind == Kind::Str => {
            Pred::Leaf(field, pick(mix, &["==", "!=", "^="]), vec![pick(mix, lits)])
        }
        _ => Pred::Leaf(field, pick(mix, &["==", "!=", "<", "<=", ">", ">="]), vec![pick(mix, lits)]),
    }
}

fn generated_pred(mix: &mut Mix, shape: &Shape, depth: u32) -> Pred {
    if depth == 0 || mix.below(3) == 0 {
        return generated_pred_leaf(mix, shape);
    }
    let sub = |mix: &mut Mix| Box::new(generated_pred(mix, shape, depth - 1));
    match mix.below(5) {
        0 | 1 => Pred::And(sub(mix), sub(mix)),
        2 | 3 => Pred::Or(sub(mix), sub(mix)),
        _ => Pred::Not(sub(mix)),
    }
}

/// A field's value in a generated record; `Bad` is a string whose
/// pointer is out of bounds, unterminated or to non-UTF-8 bytes.
#[derive(Clone, Debug)]
enum Val {
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(&'static str),
    Bad(u8),
}

fn generated_val(mix: &mut Mix, kind: Kind) -> Val {
    match kind {
        Kind::Int => Val::Int(mix.below(80) as i64 - 40),
        Kind::UInt => Val::UInt(mix.below(40)),
        // Each exact in binary32, so a `float` field holds it as is.
        Kind::Float => Val::Float([-2.5, 0.5, 3.0, -0.0, 12.0, f64::NAN, 39.5][mix.below(7) as usize]),
        Kind::Str if mix.below(4) == 0 => Val::Bad(mix.below(3) as u8),
        Kind::Str => Val::Str(["ATL", "BOS", "AB", "A", "", "ATLANTA"][mix.below(6) as usize]),
    }
}

/// The literal as a number of `kind`'s class.
fn literal_order(val: &Val, lit: &str) -> Option<std::cmp::Ordering> {
    match val {
        Val::Int(v) => Some(v.cmp(&lit.parse::<i64>().expect("an integer literal"))),
        Val::UInt(v) => Some(v.cmp(&lit.parse::<u64>().expect("a non-negative literal"))),
        Val::Float(v) => v.partial_cmp(&lit.parse::<f64>().expect("a numeric literal")),
        Val::Str(_) | Val::Bad(_) => unreachable!("strings are compared as bytes"),
    }
}

/// The model: the predicate's verdict on `record`, or `Err` when it
/// reaches a bad string — which fails the whole predicate, however it
/// is negated or combined, exactly where evaluation reaches it.
fn model(pred: &Pred, record: &[Val]) -> Result<bool, ()> {
    use std::cmp::Ordering::*;
    match pred {
        Pred::And(l, r) => Ok(model(l, record)? && model(r, record)?),
        Pred::Or(l, r) => Ok(model(l, record)? || model(r, record)?),
        Pred::Not(inner) => Ok(!model(inner, record)?),
        Pred::Leaf(field, op, lits) => {
            let val = &record[*field];
            if let Val::Bad(_) = val {
                return Err(());
            }
            if let Val::Str(s) = val {
                let lit = |l: &str| l.trim_matches('"').to_owned();
                return Ok(match *op {
                    "==" => *s == lit(lits[0]),
                    "!=" => *s != lit(lits[0]),
                    "^=" => s.starts_with(&lit(lits[0])),
                    _ => lits.iter().any(|l| *s == lit(l)),
                });
            }
            let ord = |l: &str| literal_order(val, l);
            Ok(match *op {
                "IN" => lits.iter().any(|l| ord(l) == Some(Equal)),
                "BETWEEN" => {
                    matches!(ord(lits[0]), Some(Greater | Equal))
                        && matches!(ord(lits[1]), Some(Less | Equal))
                }
                "!=" => ord(lits[0]) != Some(Equal),
                "==" => ord(lits[0]) == Some(Equal),
                "<" => ord(lits[0]) == Some(Less),
                "<=" => matches!(ord(lits[0]), Some(Less | Equal)),
                ">" => ord(lits[0]) == Some(Greater),
                _ => matches!(ord(lits[0]), Some(Greater | Equal)),
            })
        }
    }
}

/// One message of a generated run and what the model makes of it.
enum Sent {
    /// Fails before evaluation, for every filter: a header cut short or
    /// byte soup.
    Error,
    /// A message of shape `.0` whose payload is shorter than its fixed
    /// part: evaluated by that shape's filters, matched by none.
    Short(usize),
    /// A message of shape `.0` carrying these values.
    Record(usize, Vec<Val>),
}

/// Encodes `values` as a message of `shape` from `arch`, then points
/// every `Bad` string out of bounds, at unterminated bytes or at
/// non-UTF-8 bytes appended to the image.
fn encode_with_bad_strings(shape: &Shape, values: &[Val], arch: Architecture) -> Vec<u8> {
    let mut record = Record::new();
    for ((name, _), val) in shape.fields.iter().zip(values) {
        record = match val {
            Val::Int(v) => record.with(*name, *v),
            Val::UInt(v) => record.with(*name, *v),
            Val::Float(v) => record.with(*name, *v),
            Val::Str(s) => record.with(*name, *s),
            Val::Bad(_) => record.with(*name, "placeholder"),
        };
    }
    let mut msg = encode(&record, &shape.st, arch);
    let header_len = pbio::header::WireHeader::peek(&msg).unwrap().header_len;
    let layout = clayout::Layout::of_struct(&shape.st, &arch).unwrap();
    for (field, val) in values.iter().enumerate() {
        let Val::Bad(how) = val else { continue };
        let image_len = (msg.len() - header_len) as u64;
        let target = match how {
            0 => image_len + 3,
            1 => {
                msg.extend_from_slice(b"ZZ");
                image_len
            }
            _ => {
                msg.extend_from_slice(&[0xC3, 0x28, 0]);
                image_len
            }
        };
        let clayout::Access::Str(pointer) = layout.fields[field].access else {
            unreachable!("a string field");
        };
        pointer.write_raw(&mut msg, header_len + layout.fields[field].offset, target);
    }
    msg
}

/// One generated case: a set of 1–24 predicates, each with the shape it
/// is over, and a run of 1–120 messages from six sender architectures.
struct SetCase {
    preds: Vec<(usize, Pred)>,
    run: Vec<(Vec<u8>, Sent)>,
}

fn generated_set_case(seed: u64, shapes: &[Shape; 2]) -> SetCase {
    let mut mix = Mix(seed);
    let both = mix.below(3) == 0;
    let preds: Vec<(usize, Pred)> = (0..1 + mix.below(24))
        .map(|_| {
            let s = usize::from(both && mix.below(4) == 0);
            (s, generated_pred(&mut mix, &shapes[s], 3))
        })
        .collect();
    let mut arch = Architecture::ALL[mix.below(6) as usize];
    let run = (0..1 + mix.below(120))
        .map(|_| {
            if mix.below(4) == 0 {
                arch = Architecture::ALL[mix.below(6) as usize];
            }
            let s = usize::from(mix.below(4) == 0);
            let values: Vec<Val> =
                shapes[s].fields.iter().map(|(_, kind)| generated_val(&mut mix, *kind)).collect();
            let msg = encode_with_bad_strings(&shapes[s], &values, arch);
            match mix.below(20) {
                0 => {
                    let cut = mix.below(pbio::header::FIXED_HEADER_LEN as u64 + 4) as usize;
                    (msg[..cut].to_vec(), Sent::Error)
                }
                1 => ((0..mix.below(96)).map(|_| mix.next() as u8).collect(), Sent::Error),
                2 => {
                    let header_len = pbio::header::WireHeader::peek(&msg).unwrap().header_len;
                    let fixed = clayout::Layout::of_struct(&shapes[s].st, &arch).unwrap().size;
                    let cut = header_len + mix.below(fixed as u64) as usize;
                    (msg[..cut].to_vec(), Sent::Short(s))
                }
                _ => (msg, Sent::Record(s, values)),
            }
        })
        .collect();
    SetCase { preds, run }
}

/// A `FilterSet` over generated predicates yields, for every program, the
/// keys and the counter deltas of that program's own `select` over the
/// run, and the model's verdicts — through cut headers, foreign
/// fingerprints, short payloads, and bad strings reached or skipped under
/// `!`, `||` and `&&`. Where a record has no bad string, the model is held
/// to the `eval_record` oracle.
#[test]
fn a_filter_set_agrees_with_each_filter_alone_and_with_the_model() {
    use backbone::filter::FilterSet;
    use std::sync::Arc;
    let shapes = shapes();
    let formats: Vec<Vec<Format>> = shapes
        .iter()
        .map(|shape| {
            Architecture::ALL
                .iter()
                .map(|arch| Format::new(FormatId(7), shape.st.clone(), *arch).unwrap())
                .collect()
        })
        .collect();
    let (mut skipped_bad, mut reached_bad) = (0, 0);
    for seed in 0..400u64 {
        let SetCase { preds, run } = generated_set_case(0x5E7 ^ seed << 16, &shapes);
        let filters: Vec<Arc<StreamFilter>> = preds
            .iter()
            .map(|(s, pred)| {
                let src = render_pred(pred, &shapes[*s]);
                Arc::new(StreamFilter::compile(&src, &shapes[*s].st).expect("well-typed"))
            })
            .collect();
        // What the model says each program selects and counts.
        let want: Vec<(Vec<usize>, [u64; 3])> = preds
            .iter()
            .map(|(s, pred)| {
                let mut keys = Vec::new();
                let mut errors = 0;
                for (k, (_, sent)) in run.iter().enumerate() {
                    match sent {
                        Sent::Record(t, values) if t == s => {
                            let verdict = model(pred, values);
                            match &verdict {
                                Err(()) => reached_bad += 1,
                                Ok(_) if values.iter().any(|v| matches!(v, Val::Bad(_))) => {
                                    skipped_bad += 1
                                }
                                Ok(_) => {}
                            }
                            if verdict == Ok(true) {
                                keys.push(k);
                            }
                        }
                        Sent::Short(t) if t == s => {}
                        _ => errors += 1,
                    }
                }
                let matched = keys.len() as u64;
                (keys, [run.len() as u64, matched, errors])
            })
            .collect();

        let before: Vec<_> = filters.iter().map(|f| f.stats()).collect();
        let mut set = FilterSet::new(filters.clone());
        let mut got = vec![Vec::new(); filters.len()];
        set.select(run.iter().enumerate().map(|(k, (msg, _))| (k, msg.as_slice())), &mut got);
        let after_set: Vec<_> = filters.iter().map(|f| f.stats()).collect();
        for (p, filter) in filters.iter().enumerate() {
            let context = format!("seed {seed}, program {p}: {}", filter.normalized());
            assert_eq!(got[p], want[p].0, "set keys, {context}");
            assert_eq!(delta(before[p], after_set[p]), want[p].1, "set counters, {context}");
            let mut alone = Vec::new();
            filter.select(run.iter().enumerate().map(|(k, (msg, _))| (k, msg.as_slice())), &mut alone);
            assert_eq!(alone, want[p].0, "select keys, {context}");
            assert_eq!(delta(after_set[p], filter.stats()), want[p].1, "select counters, {context}");
        }
        // The model against the library's oracle, on the decodable records.
        for (msg, sent) in &run {
            let Sent::Record(s, values) = sent else { continue };
            if values.iter().any(|v| matches!(v, Val::Bad(_))) {
                continue;
            }
            let peek = pbio::header::WireHeader::peek(msg).unwrap();
            let arch = Architecture::ALL.iter().position(|a| a.descriptor() == peek.descriptor);
            let decoded = pbio::ndr::decode_with(msg, &formats[*s][arch.unwrap()]).unwrap();
            for ((t, pred), filter) in preds.iter().zip(&filters) {
                if t == s {
                    assert_eq!(filter.eval_record(&decoded), model(pred, values) == Ok(true));
                }
            }
        }
    }
    // Both ways past a bad string must be common, or the test has no teeth.
    assert!(reached_bad > 1000 && skipped_bad > 1000, "reached {reached_bad}, skipped {skipped_bad}");
}
