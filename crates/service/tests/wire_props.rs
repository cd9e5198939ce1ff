//! Wire-format property tests for the request lines.
//!
//! * The tracing surface: `decode ∘ encode = id` for `trace_ctx`
//!   contexts riding `map` / `map_delta` lines and for the `trace_dump`
//!   request/reply pair, plus totality on truncations and random byte
//!   mutations (a dropped connection or corrupted line must yield a
//!   typed error, never a panic).
//! * The one-pass request codec against the tree codec it stands in
//!   for: `to_line` writes the bytes `encode().render()` renders, the
//!   one-pass reader takes every line the encoders write, and on any
//!   line — re-rendered layouts, altered term lists, every strict prefix
//!   and single-byte mutation — `from_line` returns what decoding the
//!   parsed tree returns: the same value or the same error message.

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::OnceLock;

use hatt_core::{HattOptions, Variant};
use hatt_fermion::models::{molecule_catalog, FermiHubbard, NeutrinoModel};
use hatt_fermion::{FermionOperator, HamiltonianDelta, MajoranaSum};
use hatt_mappings::SelectionPolicy;
use hatt_pauli::json::Json;
use hatt_pauli::wire::WireError;
use hatt_pauli::Complex64;
use hatt_service::{
    MapDeltaRequest, MapRequest, RequestLine, TraceDumpReply, TraceDumpRequest, TraceSpan,
    TraceTree,
};
use hatt_trace::TraceCtx;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A wire-legal trace context: IDs are minted below `2^63` (the JSON
/// integer range) and the trace ID is never zero.
fn random_ctx(rng: &mut StdRng) -> TraceCtx {
    TraceCtx {
        trace_id: rng.gen_range(1..i64::MAX as u64),
        // Zero = "root span" is a legal parent on the wire.
        parent_span: rng.gen_range(0..i64::MAX as u64),
    }
}

fn random_span(rng: &mut StdRng) -> TraceSpan {
    let names = [
        "request",
        "queue.wait",
        "construct",
        "route.forward",
        "write.drain",
    ];
    TraceSpan {
        span_id: rng.gen_range(1..i64::MAX as u64),
        parent_span: rng.gen_range(0..i64::MAX as u64),
        name: names[rng.gen_range(0..names.len())].to_string(),
        start_ns: rng.gen_range(0..i64::MAX as u64),
        dur_ns: rng.gen_range(0..i64::MAX as u64),
    }
}

fn random_reply(rng: &mut StdRng) -> TraceDumpReply {
    let traces = (0..rng.gen_range(0usize..4))
        .map(|i| TraceTree {
            // Distinct ascending IDs keep the reply canonical (the
            // reply encoder preserves trace order as-is).
            trace_id: 1 + i as u64 * 7919 + rng.gen_range(0..1000),
            spans: (0..rng.gen_range(1usize..5))
                .map(|_| random_span(rng))
                .collect(),
        })
        .collect();
    TraceDumpReply {
        id: format!("dump-{}", rng.gen_range(0..1000)),
        enabled: rng.gen_bool(0.9),
        traces,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn map_request_trace_ctx_roundtrips(seed in 0u64..1000, traced in proptest::bool::ANY) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut req = MapRequest::new("props", vec![MajoranaSum::uniform_singles(3)]);
        req.trace = traced.then(|| random_ctx(&mut rng));
        // Through the value tree…
        let back = MapRequest::decode(&req.encode()).expect("decode value");
        prop_assert_eq!(back.trace, req.trace);
        // …and through actual bytes (the socket path).
        let back = MapRequest::from_line(&req.to_line()).expect("decode text");
        prop_assert_eq!(back.trace, req.trace);
        prop_assert_eq!(back.id, req.id);
        prop_assert_eq!(back.hamiltonians, req.hamiltonians);
    }

    #[test]
    fn map_delta_trace_ctx_roundtrips(seed in 0u64..1000, traced in proptest::bool::ANY) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut delta = HamiltonianDelta::new(3);
        delta.push_add(Complex64::real(0.5), &[0, 1, 2, 3]).unwrap();
        let mut req = MapDeltaRequest::new("props", MajoranaSum::uniform_singles(3), delta);
        req.trace = traced.then(|| random_ctx(&mut rng));
        let back = MapDeltaRequest::from_line(&req.to_line()).expect("decode text");
        prop_assert_eq!(back.trace, req.trace);
        prop_assert_eq!(back.id, req.id);
    }

    #[test]
    fn trace_dump_request_roundtrips(seed in 0u64..1000, capped in proptest::bool::ANY) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut req = TraceDumpRequest::new(format!("dump-{}", rng.gen_range(0..1000)));
        if capped {
            req = req.with_max_traces(rng.gen_range(0..64));
        }
        let back = TraceDumpRequest::decode(&req.encode()).expect("decode value");
        prop_assert_eq!(&back, &req);
        let back = TraceDumpRequest::from_line(&req.to_line()).expect("decode text");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn trace_dump_reply_roundtrips(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reply = random_reply(&mut rng);
        let back = TraceDumpReply::decode(&reply.encode()).expect("decode value");
        prop_assert_eq!(&back, &reply);
        let back = TraceDumpReply::from_line(&reply.to_line()).expect("decode text");
        prop_assert_eq!(back, reply);
    }

    #[test]
    fn mutated_trace_lines_decode_to_typed_errors_not_panics(
        doc in 0usize..3,
        pos in 0usize..4096,
        byte in 0u8..=255,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = trace_corpus(&mut rng)[doc].1.clone();
        let mut bytes = line.into_bytes();
        let at = pos % bytes.len();
        bytes[at] = byte;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        // Ok (the mutation was benign) and Err are both fine; only a
        // panic would fail the case.
        let _ = RequestLine::from_line(&mutated);
        let _ = TraceDumpReply::from_line(&mutated);
    }
}

/// One valid rendered line per tracing wire surface: a traced `map`
/// request, a capped `trace_dump_request`, and a populated reply.
fn trace_corpus(rng: &mut StdRng) -> Vec<(&'static str, String)> {
    let mut map = MapRequest::new("fuzz", vec![MajoranaSum::uniform_singles(3)]);
    map.trace = Some(random_ctx(rng));
    vec![
        ("traced map_request", map.to_line()),
        (
            "trace_dump_request",
            TraceDumpRequest::new("fuzz").with_max_traces(4).to_line(),
        ),
        ("trace_dump reply", random_reply(rng).to_line()),
    ]
}

/// Truncation totality: every strict prefix of every tracing wire line
/// must come back as a typed error.
#[test]
fn every_strict_prefix_of_a_trace_line_is_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(0x7ace);
    for (name, line) in trace_corpus(&mut rng) {
        let full_request = RequestLine::from_line(&line).is_ok();
        let full_reply = TraceDumpReply::from_line(&line).is_ok();
        assert!(
            full_request || full_reply,
            "{name}: the full line must decode"
        );
        for end in 0..line.len() {
            if !line.is_char_boundary(end) {
                continue;
            }
            let prefix = &line[..end];
            assert!(
                RequestLine::from_line(prefix).is_err()
                    && TraceDumpReply::from_line(prefix).is_err(),
                "{name}: prefix of {end}/{} bytes decoded",
                line.len()
            );
        }
    }
}

// ---------------------------------------------------------------------
// The one-pass request codec against the tree codec.
// ---------------------------------------------------------------------

/// Ids a client may send: empty, escaped, non-ASCII and control text.
const IDS: [&str; 6] = [
    "r-1",
    "",
    "quote\"back\\slash/",
    "\u{3bb}-\u{1d11e}-\u{e9}",
    "ctl\u{1}\n\t",
    "sweep-7/step-42",
];

fn random_coeff(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => 0.0,
        1 => f64::from(rng.gen_range(-3i32..4)),
        2 => rng.gen_range(-1.0..1.0),
        _ => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-13..13)),
    }
}

/// A small random Hamiltonian: 1–4 modes, up to 6 terms of 0–4 indices.
/// Negated a third of the time, which stores -0.0 for every zero
/// component.
fn random_sum(rng: &mut StdRng) -> MajoranaSum {
    let n = rng.gen_range(1usize..5);
    let mut h = MajoranaSum::new(n);
    for _ in 0..rng.gen_range(0..7) {
        let idx: Vec<u32> = (0..rng.gen_range(0..5))
            .map(|_| rng.gen_range(0..2 * n as u32))
            .collect();
        h.add(Complex64::new(random_coeff(rng), random_coeff(rng)), &idx);
    }
    if rng.gen_bool(0.3) {
        h = h.scaled(-1.0);
    }
    h
}

fn random_options(rng: &mut StdRng) -> Option<HattOptions> {
    let variants = [Variant::Unopt, Variant::Paired, Variant::Cached];
    let policies = [
        SelectionPolicy::Greedy,
        SelectionPolicy::Vanilla,
        SelectionPolicy::Restarts,
        SelectionPolicy::Beam { width: 4 },
        SelectionPolicy::Lookahead { width: 3 },
    ];
    rng.gen_bool(0.5).then(|| HattOptions {
        variant: variants[rng.gen_range(0..variants.len())],
        policy: policies[rng.gen_range(0..policies.len())],
        naive_weight: rng.gen_bool(0.5),
        ..Default::default()
    })
}

fn random_request(rng: &mut StdRng) -> MapRequest {
    let hams = (0..rng.gen_range(0..3)).map(|_| random_sum(rng)).collect();
    let mut req = MapRequest::new(IDS[rng.gen_range(0..IDS.len())], hams);
    req.options = random_options(rng);
    req.n_modes = rng.gen_bool(0.3).then(|| rng.gen_range(0..6));
    req.trace = rng.gen_bool(0.5).then(|| random_ctx(rng));
    req
}

fn random_delta(rng: &mut StdRng) -> MapDeltaRequest {
    let base = random_sum(rng);
    let n = base.n_modes() as u32;
    let mut delta = HamiltonianDelta::new(base.n_modes());
    for _ in 0..rng.gen_range(0..3) {
        let idx: Vec<u32> = (0..rng.gen_range(1..4))
            .map(|_| rng.gen_range(0..2 * n))
            .collect();
        let coeff = Complex64::new(random_coeff(rng), 1.0);
        // A term the delta's own checks refuse is simply not pushed.
        let _ = if rng.gen_bool(0.7) {
            delta.push_add(coeff, &idx)
        } else {
            delta.push_remove(coeff, &idx)
        };
    }
    let mut req = MapDeltaRequest::new(IDS[rng.gen_range(0..IDS.len())], base, delta);
    req.options = random_options(rng);
    req.trace = rng.gen_bool(0.5).then(|| random_ctx(rng));
    req
}

fn preprocess(h: &FermionOperator) -> MajoranaSum {
    let mut m = MajoranaSum::from_fermion(h);
    let _ = m.take_identity();
    m.prune(1e-10);
    m
}

/// The Table I molecules, two neutrino models and three Hubbard
/// lattices up to the 98-mode 7x7 the session benchmark edits. Built
/// once per test binary.
fn roster() -> &'static [(String, MajoranaSum)] {
    static ROSTER: OnceLock<Vec<(String, MajoranaSum)>> = OnceLock::new();
    ROSTER.get_or_init(|| {
        let mut cases: Vec<(String, MajoranaSum)> = molecule_catalog()
            .into_iter()
            .map(|spec| (spec.name.to_string(), preprocess(&spec.hamiltonian())))
            .collect();
        for (s, f) in [(3usize, 2usize), (4, 2)] {
            let model = NeutrinoModel::new(s, f);
            cases.push((model.label(), preprocess(&model.hamiltonian())));
        }
        for (rows, cols) in [(2usize, 2usize), (3, 3), (7, 7)] {
            let model = FermiHubbard::new(rows, cols);
            cases.push((model.label(), preprocess(&model.hamiltonian())));
        }
        cases
    })
}

/// What a decoded request is compared by: its re-rendered line (which
/// tells -0.0 from 0.0) and its Hamiltonians.
type Fingerprint = (String, Vec<MajoranaSum>);

fn map_fp(r: &MapRequest) -> Fingerprint {
    (r.to_line(), r.hamiltonians.clone())
}

fn delta_fp(r: &MapDeltaRequest) -> Fingerprint {
    (r.to_line(), vec![r.hamiltonian.clone()])
}

fn line_fp(r: &RequestLine) -> Fingerprint {
    match r {
        RequestLine::Map(m) => map_fp(m),
        RequestLine::Delta(d) => delta_fp(d),
        RequestLine::Stats(s) => (s.to_line(), Vec::new()),
        RequestLine::TraceDump(t) => (t.to_line(), Vec::new()),
    }
}

/// Fails unless both decoders return the same value or the same error.
fn agree<T>(
    what: &str,
    line: &str,
    typed: Result<T, WireError>,
    tree: Result<T, WireError>,
    fp: fn(&T) -> Fingerprint,
) {
    match (typed, tree) {
        (Ok(a), Ok(b)) => {
            let ((line_a, sums_a), (line_b, sums_b)) = (fp(&a), fp(&b));
            assert_eq!(sums_a, sums_b, "{what}: Hamiltonians differ on {line:?}");
            assert_eq!(line_a, line_b, "{what}: values differ on {line:?}");
        }
        (Err(a), Err(b)) => assert_eq!(
            a.to_string(),
            b.to_string(),
            "{what}: errors differ on {line:?}"
        ),
        (a, b) => panic!(
            "{what}: one decoder failed on {line:?}: from_line {:?}, tree {:?}",
            a.map(|v| fp(&v).0),
            b.map(|v| fp(&v).0)
        ),
    }
}

/// `from_line` against decoding the parsed tree, for every decoder that
/// reads a request line.
fn check_line(line: &str) {
    let tree = Json::parse(line).map_err(WireError::from);
    agree(
        "RequestLine",
        line,
        RequestLine::from_line(line),
        tree.clone().and_then(|v| RequestLine::decode(&v)),
        line_fp,
    );
    agree(
        "MapRequest",
        line,
        MapRequest::from_line(line),
        tree.clone().and_then(|v| MapRequest::decode(&v)),
        map_fp,
    );
    agree(
        "MapDeltaRequest",
        line,
        MapDeltaRequest::from_line(line),
        tree.and_then(|v| MapDeltaRequest::decode(&v)),
        delta_fp,
    );
}

/// One deliberate change to a request document before it is rendered.
#[derive(Debug, Clone, Copy)]
enum Alter {
    /// Every zero coefficient component written as `-0.0`.
    NegativeZero,
    /// Integral float coefficients written as integers.
    IntegerCoeffs,
    /// One term's coefficient set to `0`.
    ZeroCoeff,
    /// A term repeated, with another coefficient.
    DuplicateSupport,
    /// One term's indices reversed.
    UnsortedIndices,
    /// One term's index repeated.
    RepeatedIndex,
    /// One term's support emptied.
    EmptySupport,
    /// One index at or past `2·n_modes`.
    OutOfRange,
    /// Members no decoder knows, anywhere.
    UnknownMembers,
    /// Members repeated with other values, mostly after the original.
    DuplicateMembers,
}

const ALTERS: [Alter; 10] = [
    Alter::NegativeZero,
    Alter::IntegerCoeffs,
    Alter::ZeroCoeff,
    Alter::DuplicateSupport,
    Alter::UnsortedIndices,
    Alter::RepeatedIndex,
    Alter::EmptySupport,
    Alter::OutOfRange,
    Alter::UnknownMembers,
    Alter::DuplicateMembers,
];

/// Calls `f` with the mode count and term list of every Hamiltonian
/// payload in the document.
fn for_each_sum(v: &mut Json, f: &mut impl FnMut(usize, &mut Vec<Json>)) {
    match v {
        Json::Obj(pairs) => {
            let n = pairs.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("n_modes", Json::Int(n)) => Some(*n as usize),
                _ => None,
            });
            for (k, v) in pairs.iter_mut() {
                match (n, k.as_str(), &mut *v) {
                    (Some(n), "terms", Json::Arr(terms)) => f(n, terms),
                    _ => for_each_sum(v, f),
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(|v| for_each_sum(v, f)),
        _ => {}
    }
}

/// Calls `f` on every object in the document, outermost first.
fn for_each_obj(v: &mut Json, f: &mut impl FnMut(&mut Vec<(String, Json)>)) {
    match v {
        Json::Obj(pairs) => {
            f(pairs);
            pairs.iter_mut().for_each(|(_, v)| for_each_obj(v, f));
        }
        Json::Arr(items) => items.iter_mut().for_each(|v| for_each_obj(v, f)),
        _ => {}
    }
}

fn member<'a>(term: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match term {
        Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn indices(term: &mut Json) -> Option<&mut Vec<Json>> {
    match member(term, "idx") {
        Some(Json::Arr(idx)) => Some(idx),
        _ => None,
    }
}

/// A different value of the same shape, for a duplicated member.
fn other_value(v: &Json) -> Json {
    match v {
        Json::Null => Json::Int(0),
        Json::Bool(b) => Json::Bool(!b),
        Json::Int(i) => Json::Int(i + 1),
        Json::Num(x) => Json::Num(2.0 * x + 1.0),
        Json::Str(s) => Json::str(format!("{s}-dup")),
        Json::Arr(items) => Json::Arr(items.iter().rev().skip(1).cloned().collect()),
        Json::Obj(pairs) => Json::Obj(pairs.iter().skip(1).cloned().collect()),
    }
}

fn alter(doc: &mut Json, how: Alter, rng: &mut StdRng) {
    let pick = |rng: &mut StdRng, len: usize| rng.gen_range(0..len.max(1));
    match how {
        Alter::NegativeZero | Alter::IntegerCoeffs => for_each_sum(doc, &mut |_, terms| {
            for term in terms.iter_mut() {
                for key in ["re", "im"] {
                    if let Some(c) = member(term, key) {
                        *c = match (how, &*c) {
                            (Alter::NegativeZero, Json::Int(0)) => Json::Num(-0.0),
                            (Alter::NegativeZero, Json::Num(x)) if *x == 0.0 => Json::Num(-0.0),
                            (Alter::IntegerCoeffs, Json::Num(x))
                                if x.fract() == 0.0 && x.abs() < 1e15 =>
                            {
                                Json::Int(*x as i64)
                            }
                            _ => c.clone(),
                        };
                    }
                }
            }
        }),
        Alter::ZeroCoeff => for_each_sum(doc, &mut |_, terms| {
            let at = pick(rng, terms.len());
            if let Some(term) = terms.get_mut(at) {
                for key in ["re", "im"] {
                    if let Some(c) = member(term, key) {
                        *c = Json::Int(0);
                    }
                }
            }
        }),
        Alter::DuplicateSupport => for_each_sum(doc, &mut |_, terms| {
            if let Some(term) = terms.get(pick(rng, terms.len())) {
                let mut copy = term.clone();
                if let Some(re) = member(&mut copy, "re") {
                    *re = Json::Num(0.25);
                }
                let at = rng.gen_range(0..=terms.len());
                terms.insert(at, copy);
            }
        }),
        Alter::UnsortedIndices | Alter::RepeatedIndex | Alter::EmptySupport => {
            for_each_sum(doc, &mut |_, terms| {
                let at = pick(rng, terms.len());
                if let Some(idx) = terms.get_mut(at).and_then(indices) {
                    match how {
                        Alter::UnsortedIndices => idx.reverse(),
                        Alter::RepeatedIndex if !idx.is_empty() => {
                            let copy = idx[pick(rng, idx.len())].clone();
                            let at = rng.gen_range(0..=idx.len());
                            idx.insert(at, copy);
                        }
                        Alter::EmptySupport => idx.clear(),
                        _ => {}
                    }
                }
            })
        }
        Alter::OutOfRange => for_each_sum(doc, &mut |n, terms| {
            let at = pick(rng, terms.len());
            if let Some(idx) = terms.get_mut(at).and_then(indices) {
                let past = Json::Int((2 * n + rng.gen_range(0..3)) as i64);
                match idx.len() {
                    0 => idx.push(past),
                    len => idx[rng.gen_range(0..len)] = past,
                }
            }
        }),
        Alter::UnknownMembers => for_each_obj(doc, &mut |pairs| {
            if rng.gen_bool(0.4) {
                let value = match rng.gen_range(0..4) {
                    0 => Json::Null,
                    1 => Json::Arr(vec![Json::Int(1), Json::str("x")]),
                    2 => Json::Obj(vec![("idx".into(), Json::Arr(vec![]))]),
                    _ => Json::Num(-0.5),
                };
                let at = rng.gen_range(0..=pairs.len());
                pairs.insert(at, ("x-extra".into(), value));
            }
        }),
        Alter::DuplicateMembers => for_each_obj(doc, &mut |pairs| {
            if !pairs.is_empty() && rng.gen_bool(0.5) {
                let i = rng.gen_range(0..pairs.len());
                let dup = (pairs[i].0.clone(), other_value(&pairs[i].1));
                let at = if rng.gen_bool(0.8) {
                    rng.gen_range(i + 1..=pairs.len())
                } else {
                    rng.gen_range(0..=i)
                };
                pairs.insert(at, dup);
            }
        }),
    }
}

/// How a document is written out: the compact encoder layout, or with
/// permuted keys, whitespace, `\u` escapes and other number forms.
#[derive(Debug, Clone, Copy, Default)]
struct Layout {
    shuffle_keys: bool,
    spaces: bool,
    escapes: bool,
    number_forms: bool,
}

impl Layout {
    fn random(rng: &mut StdRng) -> Layout {
        Layout {
            shuffle_keys: rng.gen_bool(0.5),
            spaces: rng.gen_bool(0.5),
            escapes: rng.gen_bool(0.5),
            number_forms: rng.gen_bool(0.5),
        }
    }
}

fn space(layout: Layout, rng: &mut StdRng, out: &mut String) {
    if layout.spaces && rng.gen_bool(0.3) {
        out.push_str([" ", "\n", "\t ", "\r\n  "][rng.gen_range(0..4)]);
    }
}

fn write_text(s: &str, layout: Layout, rng: &mut StdRng, out: &mut String) {
    if !layout.escapes {
        out.push_str(&Json::str(s).render());
        return;
    }
    out.push('"');
    for ch in s.chars() {
        if rng.gen_bool(0.4) {
            let mut units = [0u16; 2];
            for unit in ch.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04X}"));
            }
        } else {
            let one = Json::str(ch.to_string()).render();
            out.push_str(&one[1..one.len() - 1]);
        }
    }
    out.push('"');
}

fn write_number(x: f64, layout: Layout, rng: &mut StdRng, out: &mut String) {
    if x == 0.0 && x.is_sign_negative() {
        // Json renders -0.0 as "-0", which parses back as the integer 0.
        out.push_str("-0.0");
    } else if layout.number_forms {
        out.push_str(&match rng.gen_range(0..3) {
            0 => format!("{x:e}"),
            1 => format!("{x:?}"),
            _ => Json::Num(x).render(),
        });
    } else {
        out.push_str(&Json::Num(x).render());
    }
}

fn write_doc(v: &Json, layout: Layout, rng: &mut StdRng, out: &mut String) {
    match v {
        Json::Num(x) => write_number(*x, layout, rng, out),
        Json::Str(s) => write_text(s, layout, rng, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(layout, rng, out);
                write_doc(item, layout, rng, out);
                space(layout, rng, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            let mut order: Vec<usize> = (0..pairs.len()).collect();
            if layout.shuffle_keys {
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
            }
            out.push('{');
            for (i, &k) in order.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(layout, rng, out);
                write_text(&pairs[k].0, layout, rng, out);
                space(layout, rng, out);
                out.push(':');
                space(layout, rng, out);
                write_doc(&pairs[k].1, layout, rng, out);
                space(layout, rng, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.render()),
    }
}

/// The encoder lines of a seeded corpus: random map and remap requests
/// with and without options, an `n_modes` pin and `trace_ctx`.
fn encoder_lines(seed: u64, count: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            if i % 3 == 2 {
                random_delta(&mut rng).to_line()
            } else {
                random_request(&mut rng).to_line()
            }
        })
        .collect()
}

/// Each alteration alone in the encoder layout (where the one-pass
/// reader runs), then random combinations in random layouts.
fn variants(line: &str, rng: &mut StdRng) -> Vec<String> {
    let doc = Json::parse(line).unwrap();
    let mut out = Vec::new();
    for how in ALTERS {
        let mut d = doc.clone();
        alter(&mut d, how, rng);
        let mut text = String::new();
        write_doc(&d, Layout::default(), rng, &mut text);
        out.push(text);
    }
    for _ in 0..6 {
        let mut d = doc.clone();
        for how in ALTERS {
            if rng.gen_bool(0.3) {
                alter(&mut d, how, rng);
            }
        }
        let mut text = String::new();
        write_doc(&d, Layout::random(rng), rng, &mut text);
        out.push(text);
    }
    out
}

#[test]
fn request_to_line_is_the_tree_render_byte_for_byte() {
    let mut rng = StdRng::seed_from_u64(0xB17E);
    for _ in 0..200 {
        let req = random_request(&mut rng);
        assert_eq!(req.to_line(), req.encode().render(), "{req:?}");
        let req = random_delta(&mut rng);
        assert_eq!(req.to_line(), req.encode().render(), "{req:?}");
    }
    for (name, h) in roster() {
        let mut req = MapRequest::new(name.as_str(), vec![h.clone()]);
        assert_eq!(req.to_line(), req.encode().render(), "{name}");
        req.options = Some(HattOptions::with_policy(SelectionPolicy::Restarts));
        req.n_modes = Some(h.n_modes());
        req.trace = Some(TraceCtx {
            trace_id: 7,
            parent_span: 11,
        });
        assert_eq!(req.to_line(), req.encode().render(), "{name} with options");
        // Sweeps rescale coefficients; a negative scale stores -0.0.
        let req = MapRequest::new(name.as_str(), vec![h.scaled(-0.75)]);
        assert_eq!(req.to_line(), req.encode().render(), "{name} rescaled");
    }
}

#[test]
fn the_one_pass_reader_takes_every_line_the_encoders_write() {
    // Without this pin a one-pass reader that always declined would pass
    // every other test here, through the tree fallback, and silently
    // give up its speed.
    for line in encoder_lines(0x0A55, 150) {
        let request = RequestLine::read_line(&line);
        assert!(request.is_ok(), "{request:?} on {line:?}");
        check_line(&line);
    }
    // The roster's lines are long, so they are compared through the one
    // decoder the daemons run rather than every decoder `check_line` runs.
    for (name, h) in roster() {
        let mut delta = HamiltonianDelta::new(h.n_modes());
        delta.push_add(Complex64::real(0.5), &[0, 1, 2, 3]).unwrap();
        for line in [
            MapRequest::new(name.as_str(), vec![h.scaled(-2.5), h.clone()]).to_line(),
            MapDeltaRequest::new(name.as_str(), h.clone(), delta).to_line(),
        ] {
            let typed = RequestLine::read_line(&line);
            assert!(typed.is_ok(), "{name}: {:?}", typed.err());
            let tree = RequestLine::decode(&Json::parse(&line).unwrap());
            agree(name, &line, typed, tree, line_fp);
        }
    }
}

#[test]
fn altered_and_rerendered_request_lines_decode_as_the_tree_decodes_them() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for line in encoder_lines(0xD1FF, 60) {
        for variant in variants(&line, &mut rng) {
            check_line(&variant);
        }
    }
    // Hand-written corner cases of the term list and the envelope.
    let sum = |payload: &str| {
        format!(
            r#"{{"format":"hatt-wire/1","kind":"map_request","payload":{{"id":"c","hamiltonians":[{payload}]}}}}"#
        )
    };
    for line in [
        sum(r#"{"n_modes":1,"terms":[{"re":-0.0,"im":0.5,"idx":[0,1]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":-0.0,"im":-0.0,"idx":[0]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":0,"im":0,"idx":[0]},{"re":1,"im":0,"idx":[1]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":1,"im":0,"idx":[0]},{"re":-1,"im":0,"idx":[0]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":1,"im":0,"idx":[1,0]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":1,"im":0,"idx":[0,0,1]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":1,"im":0,"idx":[]},{"re":1,"im":0,"idx":[0]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":1,"im":0,"idx":[1]},{"re":1,"im":0,"idx":[0]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":1,"im":0,"idx":[2]}]}"#),
        sum(r#"{"terms":[{"re":1,"im":0,"idx":[3]}],"n_modes":2}"#),
        sum(r#"{"terms":[{"re":1,"im":0,"idx":[4]}],"n_modes":2}"#),
        sum(r#"{"n_modes":1,"n_modes":3,"terms":[{"re":1,"im":0,"re":2,"idx":[5],"idx":[0]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":1e-13,"im":0,"idx":[0]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":1,"im":0,"idx":[-0]}]}"#),
        sum(r#"{"n_modes":1,"terms":[{"re":1,"im":0,"idx":[0.0]}]}"#),
        sum(r#"{"n_modes":-0,"terms":[]}"#),
        sum(r#"{"n_modes":1048577,"terms":[]}"#),
        r#"{"kind":"map_request","payload":{"id":"late-format","hamiltonians":[]},"format":"hatt-wire/1"}"#.to_string(),
        r#"{"format":"hatt-wire/1","kind":"map_request","payload":{"id":"a","id":"b","hamiltonians":[]},"payload":7}"#.to_string(),
        r#"{"format":"hatt-wire/1","kind":"map_delta","kind":"map_request","payload":{"id":"d","hamiltonians":[]}}"#.to_string(),
        r#"{"format":"hatt-wire/1","kind":"stats_request","payload":{"id":"s"}}"#.to_string(),
        r#"{"format":"hatt-wire/1","kind":"map_request","payload":{"\u0069d":"\u00e9\ud834\udd1e","hamiltonians":[],"options":null,"n_modes":null,"trace_ctx":null}}"#.to_string(),
    ] {
        check_line(&line);
    }
}

#[test]
fn every_prefix_and_byte_mutation_of_a_request_line_decodes_as_the_tree_does() {
    // Short lines of both kinds, each also altered twice: with -0.0
    // coefficients in the encoder layout, and at random.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut lines: Vec<String> = encoder_lines(0x5EED, 40)
        .into_iter()
        .filter(|line| line.len() <= 360)
        .take(5)
        .collect();
    let altered: Vec<String> = lines
        .iter()
        .flat_map(|line| variants(line, &mut rng).into_iter().step_by(9))
        .collect();
    lines.extend(altered);
    for line in &lines {
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            check_line(&line[..end]);
        }
        let mut bytes = line.clone().into_bytes();
        for at in 0..bytes.len() {
            let was = bytes[at];
            for &b in b"\"\\{}],:9-e " {
                if b == was {
                    continue;
                }
                bytes[at] = b;
                if let Ok(mutated) = std::str::from_utf8(&bytes) {
                    check_line(mutated);
                }
            }
            bytes[at] = was;
        }
    }
}
