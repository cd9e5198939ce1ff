//! Workspace-level property tests: mapping validity invariants,
//! cross-mapping isospectrality on randomly generated fermionic
//! Hamiltonians, and fuzz-style totality checks on the JSON parser and
//! every `hatt-wire/1` decoder (random bytes, truncations and
//! single-byte mutations must yield typed errors, never panics).

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hatt::core::{HattOptions, Mapper, Variant};
use hatt::fermion::models::random_hermitian;
use hatt::fermion::{HamiltonianDelta, MajoranaSum};
use hatt::mappings::{
    balanced_ternary_tree, bravyi_kitaev, jordan_wigner, parity, validate, FermionMapping,
};
use hatt::pauli::json::Json;
use hatt::pauli::{Complex64, PauliSum};
use hatt::service::{
    MapDeltaRequest, MapDone, MapRequest, RequestLine, ResponseLine, StatsRequest, TraceDumpReply,
    TraceDumpRequest, TraceSpan, TraceTree,
};
use hatt::sim::spectrum;
use proptest::prelude::*;

/// One construction through the `Mapper` handle (a fresh handle per
/// call, so every construction is cold).
fn hatt_with(h: &MajoranaSum, opts: &HattOptions) -> hatt::core::HattMapping {
    Mapper::with_options(*opts)
        .map(h)
        .expect("valid Hamiltonian")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn constructive_mappings_are_always_valid(n in 1usize..16) {
        for m in [
            Box::new(jordan_wigner(n)) as Box<dyn FermionMapping>,
            Box::new(parity(n)),
            Box::new(bravyi_kitaev(n)),
            Box::new(balanced_ternary_tree(n)),
        ] {
            let report = validate(&*m);
            prop_assert!(report.is_valid(), "{} invalid at n={n}", m.name());
            prop_assert!(report.vacuum_preserving, "{} breaks vacuum at n={n}", m.name());
        }
    }

    #[test]
    fn hatt_is_valid_on_random_hamiltonians(
        n in 3usize..8,
        one in 2usize..8,
        two in 1usize..6,
        seed in 0u64..1000,
    ) {
        let op = random_hermitian(n, one, two, seed);
        let h = MajoranaSum::from_fermion(&op);
        for variant in [Variant::Unopt, Variant::Cached] {
            let m = hatt_with(&h, &HattOptions { variant, naive_weight: false, ..Default::default() });
            let report = validate(&m);
            prop_assert!(report.is_valid(), "{variant:?} invalid: {report:?}");
            if variant == Variant::Cached {
                prop_assert!(report.vacuum_preserving, "{variant:?} broke vacuum");
            }
        }
    }

    #[test]
    fn hatt_weight_objective_matches_mapped_weight(
        n in 3usize..7,
        seed in 0u64..100,
    ) {
        let op = random_hermitian(n, 5, 3, seed);
        let mut h = MajoranaSum::from_fermion(&op);
        let _ = h.take_identity();
        let m = hatt_with(&h, &HattOptions { variant: Variant::Cached, naive_weight: false, ..Default::default() });
        let mut hq = m.map_majorana_sum(&h);
        let _ = hq.take_identity();
        // The greedy objective counts per-term weights without merging;
        // merging can only reduce the realized weight.
        prop_assert!(hq.weight() <= m.stats().total_weight());
    }

    #[test]
    fn json_parser_never_panics_on_random_bytes(bytes in proptest::collection::vec(0u8..=255, 0usize..200)) {
        let text = String::from_utf8_lossy(&bytes);
        // Totality: any byte soup parses or fails with a typed error.
        if let Ok(v) = Json::parse(&text) {
            // And anything that parsed must round-trip through render.
            prop_assert!(Json::parse(&v.render()).is_ok(), "render/reparse drifted on {:?}", text);
        }
    }

    #[test]
    fn mutated_wire_lines_decode_to_typed_errors_not_panics(
        doc in 0usize..11,
        pos in 0usize..4096,
        byte in 0u8..=255,
    ) {
        let (name, line, decode) = &wire_corpus()[doc];
        let mut bytes = line.clone().into_bytes();
        let at = pos % bytes.len();
        bytes[at] = byte;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        // Ok (the mutation was benign) and Err are both fine; only a
        // panic would fail the case.
        let _ = decode(&mutated);
        prop_assert!(!name.is_empty());
    }

    #[test]
    fn mappings_are_isospectral_on_random_hamiltonians(seed in 0u64..40) {
        let op = random_hermitian(3, 4, 2, seed);
        let h = MajoranaSum::from_fermion(&op);
        let reference = spectrum(&jordan_wigner(3).map_majorana_sum(&h));
        for m in [
            Box::new(bravyi_kitaev(3)) as Box<dyn FermionMapping>,
            Box::new(balanced_ternary_tree(3)),
            Box::new(hatt_with(&h, &HattOptions::default())),
        ] {
            let s = spectrum(&m.map_majorana_sum(&h));
            for (a, b) in reference.iter().zip(&s) {
                prop_assert!((a - b).abs() < 1e-7,
                    "{} spectrum deviates at seed {seed}", m.name());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Wire fuzz corpus: one valid line per `hatt-wire/1` kind, paired with
// the decoder the service layer would feed it to.
// ---------------------------------------------------------------------

type WireDecoder = fn(&str) -> Result<(), String>;

fn decode_via<T, E: std::fmt::Display>(
    text: &str,
    f: impl Fn(&Json) -> Result<T, E>,
) -> Result<(), String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    f(&v).map(|_| ()).map_err(|e| e.to_string())
}

/// Every wire kind in the registry with a valid rendered line and its
/// decoder. Index order is stable so proptest cases can address it.
fn wire_corpus() -> Vec<(&'static str, String, WireDecoder)> {
    let h = MajoranaSum::uniform_singles(3);
    let mapping = Mapper::new().map(&h).unwrap();
    let mut pauli = PauliSum::new(2);
    pauli.add(Complex64::new(0.5, -0.25), "XY".parse().unwrap());
    let mut delta = HamiltonianDelta::new(3);
    delta.push_add(Complex64::real(0.5), &[0, 1, 2, 3]).unwrap();

    vec![
        (
            "pauli_string",
            hatt::pauli::wire::encode_pauli_string(&"XYZI".parse().unwrap()).render(),
            (|t| decode_via(t, hatt::pauli::wire::decode_pauli_string)) as WireDecoder,
        ),
        (
            "pauli_sum",
            hatt::pauli::wire::encode_pauli_sum(&pauli).render(),
            |t| decode_via(t, hatt::pauli::wire::decode_pauli_sum),
        ),
        (
            "majorana_sum",
            hatt::fermion::wire::encode_majorana_sum(&h).render(),
            |t| decode_via(t, hatt::fermion::wire::decode_majorana_sum),
        ),
        (
            "hamiltonian_delta",
            hatt::fermion::wire::encode_hamiltonian_delta(&delta).render(),
            |t| decode_via(t, hatt::fermion::wire::decode_hamiltonian_delta),
        ),
        (
            "ternary_tree",
            hatt::mappings::wire::encode_ternary_tree(mapping.tree()).render(),
            |t| decode_via(t, hatt::mappings::wire::decode_ternary_tree),
        ),
        (
            "hatt_mapping",
            hatt::core::wire::encode_hatt_mapping(&mapping).render(),
            |t| decode_via(t, hatt::core::wire::decode_hatt_mapping),
        ),
        (
            "map_request",
            MapRequest::new("fuzz", vec![h.clone()]).to_line(),
            |t| {
                RequestLine::from_line(t)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            },
        ),
        (
            "map_delta",
            {
                let mut d = HamiltonianDelta::new(3);
                d.push_add(Complex64::real(0.5), &[0, 1, 2, 3]).unwrap();
                MapDeltaRequest::new("fuzz", MajoranaSum::uniform_singles(3), d).to_line()
            },
            |t| {
                RequestLine::from_line(t)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            },
        ),
        (
            "stats_request / map_done",
            StatsRequest::new("fuzz").to_line(),
            |t| {
                RequestLine::from_line(t)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            },
        ),
        (
            "trace_dump_request",
            TraceDumpRequest::new("fuzz").with_max_traces(4).to_line(),
            |t| {
                RequestLine::from_line(t)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            },
        ),
        (
            "trace_dump",
            TraceDumpReply {
                id: "fuzz".into(),
                enabled: true,
                traces: vec![TraceTree {
                    trace_id: 7,
                    spans: vec![TraceSpan {
                        span_id: 11,
                        parent_span: 0,
                        name: "request".into(),
                        start_ns: 100,
                        dur_ns: 250,
                    }],
                }],
            }
            .to_line(),
            |t| {
                TraceDumpReply::from_line(t)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            },
        ),
    ]
}

/// Truncation totality: **every strict prefix** of every valid wire
/// line must come back as a typed error — a dropped connection mid-line
/// can never panic a reader or silently decode to something shorter.
#[test]
fn every_strict_prefix_of_a_valid_wire_line_is_a_typed_error() {
    for (name, line, decode) in wire_corpus() {
        assert!(decode(&line).is_ok(), "{name}: the full line must decode");
        for end in 0..line.len() {
            if !line.is_char_boundary(end) {
                continue;
            }
            let prefix = &line[..end];
            assert!(
                decode(prefix).is_err(),
                "{name}: prefix of {end}/{} bytes decoded",
                line.len()
            );
        }
    }
}

/// The response-side decoders are total on truncations too.
#[test]
fn every_strict_prefix_of_a_response_line_is_a_typed_error() {
    let done = MapDone {
        id: "fuzz".into(),
        items: 2,
        errors: 1,
    };
    let line = done.to_line();
    assert!(ResponseLine::from_line(&line).is_ok());
    for end in 0..line.len() {
        assert!(
            ResponseLine::from_line(&line[..end]).is_err(),
            "map_done prefix of {end} bytes decoded"
        );
    }
}
