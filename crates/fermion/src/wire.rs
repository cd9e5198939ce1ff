//! `hatt-wire/1` codec for Majorana Hamiltonians — the payload every
//! `hatt-service` `MapRequest` item carries over the socket.
//!
//! A [`MajoranaSum`] is encoded as its canonical term list (sorted index
//! sets with exact complex coefficients):
//!
//! ```json
//! {"format":"hatt-wire/1","kind":"majorana_sum","payload":{
//!   "n_modes": 2,
//!   "terms": [{"re":1.0,"im":0.0,"idx":[0,1]}]
//! }}
//! ```
//!
//! Decoding validates every index against the declared mode count and
//! returns a typed [`WireError`] on any malformed document — no panic is
//! reachable from wire input.
//!
//! [`write_majorana_sum_payload`] and [`read_majorana_sum_payload`] are
//! the same payload codec without the [`Json`] tree: they write and read
//! the text directly, for the service's one-pass request lines.
//!
//! # Examples
//!
//! ```
//! use hatt_fermion::wire::{decode_majorana_sum, encode_majorana_sum};
//! use hatt_fermion::MajoranaSum;
//! use hatt_pauli::json::Json;
//! use hatt_pauli::Complex64;
//!
//! let mut h = MajoranaSum::new(2);
//! h.add(Complex64::new(0.0, 0.5), &[0, 1]);
//! h.add(Complex64::real(0.25), &[0, 1, 2, 3]);
//!
//! let text = encode_majorana_sum(&h).render();
//! let back = decode_majorana_sum(&Json::parse(&text)?)?;
//! assert_eq!(back, h);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt::Write as _;

use hatt_pauli::json::{write_f64, Json, Reader};
use hatt_pauli::wire::{
    as_arr, as_f64, as_obj, as_str, as_usize, checked_modes, coeff_fields, decode_coeff, envelope,
    field, open_envelope, WireError,
};
use hatt_pauli::Complex64;

use crate::{DeltaOp, HamiltonianDelta, MajoranaSum};

const KIND: &str = "majorana_sum";
const KIND_DELTA: &str = "hamiltonian_delta";

/// Encodes a [`MajoranaSum`] as a `hatt-wire/1` envelope.
pub fn encode_majorana_sum(h: &MajoranaSum) -> Json {
    envelope(KIND, majorana_sum_payload(h))
}

/// The bare (un-enveloped) payload of a Hamiltonian — composed into
/// larger documents by `hatt-service` request lines.
pub fn majorana_sum_payload(h: &MajoranaSum) -> Json {
    let terms = h
        .iter()
        .map(|(idx, c)| {
            let mut pairs = coeff_fields(c).to_vec();
            pairs.push((
                "idx".into(),
                Json::Arr(idx.iter().map(|&i| Json::int(u64::from(i))).collect()),
            ));
            Json::Obj(pairs)
        })
        .collect();
    Json::Obj(vec![
        ("n_modes".into(), Json::int(h.n_modes() as u64)),
        ("terms".into(), Json::Arr(terms)),
    ])
}

/// Decodes a [`MajoranaSum`] envelope, validating every Majorana index
/// against the declared mode count.
pub fn decode_majorana_sum(v: &Json) -> Result<MajoranaSum, WireError> {
    decode_majorana_sum_payload(open_envelope(v, KIND)?)
}

/// Decodes a bare Hamiltonian payload (see [`majorana_sum_payload`]).
pub fn decode_majorana_sum_payload(v: &Json) -> Result<MajoranaSum, WireError> {
    const CTX: &str = "majorana_sum payload";
    let pairs = as_obj(v, CTX)?;
    let n = checked_modes(as_usize(field(pairs, "n_modes", CTX)?, CTX)?, CTX)?;
    let mut sum = MajoranaSum::new(n);
    for term in as_arr(field(pairs, "terms", CTX)?, CTX)? {
        const TCTX: &str = "majorana_sum term";
        let tp = as_obj(term, TCTX)?;
        let coeff = decode_coeff(tp, TCTX)?;
        let mut indices = Vec::new();
        for idx in as_arr(field(tp, "idx", TCTX)?, TCTX)? {
            let i = as_usize(idx, TCTX)?;
            if i >= 2 * n {
                return Err(WireError::ModeMismatch {
                    context: "majorana_sum term index",
                    declared: n,
                    required: i / 2 + 1,
                });
            }
            indices.push(i as u32);
        }
        sum.add(coeff, &indices);
    }
    Ok(sum)
}

/// Appends the bare payload of a Hamiltonian straight to `out`, byte for
/// byte as rendering [`majorana_sum_payload`] writes it, with no tree in
/// between.
pub fn write_majorana_sum_payload(out: &mut String, h: &MajoranaSum) {
    let _ = write!(out, "{{\"n_modes\":{},\"terms\":[", h.n_modes());
    for (k, (idx, c)) in h.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str("{\"re\":");
        write_f64(out, c.re);
        out.push_str(",\"im\":");
        write_f64(out, c.im);
        out.push_str(",\"idx\":[");
        for (j, i) in idx.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{i}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// Reads a bare Hamiltonian payload in one pass, straight from the text
/// under `r`: the [`MajoranaSum`] [`decode_majorana_sum_payload`] makes
/// of the parsed tree, with no tree in between. As there, the first
/// occurrence of each key counts and unknown members are ignored.
///
/// Terms that arrive canonical (indices strictly ascending within each
/// term, supports strictly ascending from term to term, as
/// [`write_majorana_sum_payload`] writes them) are stored in one bulk
/// build. Any other term list is merged through [`MajoranaSum::add`] in
/// order, exactly as the tree decoder merges it.
///
/// An error only means this reader does not take the payload, not why:
/// [`decode_majorana_sum_payload`] gives the diagnostic.
pub fn read_majorana_sum_payload(r: &mut Reader<'_>) -> Result<MajoranaSum, WireError> {
    const CTX: &str = "majorana_sum payload";
    let mut n_modes = None;
    let mut terms: Option<Vec<(Vec<u32>, Complex64)>> = None;
    // One past the largest index read, checked once n_modes is known.
    let mut top = 0usize;
    let mut canonical = true;
    r.object(|r, key| {
        match key {
            "n_modes" if n_modes.is_none() => {
                n_modes = Some(checked_modes(as_usize(&r.value()?, CTX)?, CTX)?);
            }
            "terms" if terms.is_none() => {
                let mut list: Vec<(Vec<u32>, Complex64)> = Vec::new();
                r.array(|r| {
                    let (idx, c) = read_term(r, &mut top)?;
                    canonical &= idx.windows(2).all(|w| w[0] < w[1])
                        && list.last().is_none_or(|(prev, _)| *prev < idx);
                    list.push((idx, c));
                    Ok::<(), WireError>(())
                })?;
                terms = Some(list);
            }
            _ => drop(r.value()?),
        }
        Ok::<(), WireError>(())
    })?;
    let (Some(n), Some(terms)) = (n_modes, terms) else {
        return Err(WireError::schema(CTX, "missing n_modes or terms"));
    };
    if top > 2 * n {
        return Err(WireError::ModeMismatch {
            context: "majorana_sum term index",
            declared: n,
            required: (top - 1) / 2 + 1,
        });
    }
    if canonical {
        return Ok(MajoranaSum::from_canonical_terms(n, terms));
    }
    let mut sum = MajoranaSum::new(n);
    for (idx, c) in &terms {
        sum.add(*c, idx);
    }
    Ok(sum)
}

/// One `{"re":…,"im":…,"idx":[…]}` term, raising `top` past its largest
/// index. Indices are range-checked by the caller before any is used.
fn read_term(r: &mut Reader<'_>, top: &mut usize) -> Result<(Vec<u32>, Complex64), WireError> {
    const TCTX: &str = "majorana_sum term";
    let (mut re, mut im, mut idx) = (None, None, None);
    r.object(|r, key| {
        match key {
            "re" if re.is_none() => re = Some(as_f64(&r.value()?, TCTX)?),
            "im" if im.is_none() => im = Some(as_f64(&r.value()?, TCTX)?),
            "idx" if idx.is_none() => {
                let mut indices = Vec::new();
                r.array(|r| {
                    let i = as_usize(&r.value()?, TCTX)?;
                    *top = (*top).max(i.saturating_add(1));
                    indices.push(i as u32);
                    Ok::<(), WireError>(())
                })?;
                idx = Some(indices);
            }
            _ => drop(r.value()?),
        }
        Ok::<(), WireError>(())
    })?;
    match (re, im, idx) {
        (Some(re), Some(im), Some(idx)) => Ok((idx, Complex64::new(re, im))),
        _ => Err(WireError::schema(TCTX, "missing re, im or idx")),
    }
}

/// Encodes a [`HamiltonianDelta`] as a `hatt-wire/1` envelope.
pub fn encode_hamiltonian_delta(d: &HamiltonianDelta) -> Json {
    envelope(KIND_DELTA, hamiltonian_delta_payload(d))
}

/// The bare (un-enveloped) payload of a structural delta — composed
/// into `map_delta` request lines by `hatt-service`:
///
/// ```json
/// {"n_modes": 2,
///  "ops": [{"op":"add","re":0.5,"im":0.0,"idx":[2,3]},
///          {"op":"remove","re":1.0,"im":0.0,"idx":[0,1]}]}
/// ```
pub fn hamiltonian_delta_payload(d: &HamiltonianDelta) -> Json {
    let ops = d
        .ops()
        .iter()
        .map(|op| {
            let (tag, coeff, support) = match op {
                DeltaOp::Add { coeff, support } => ("add", coeff, support),
                DeltaOp::Remove { coeff, support } => ("remove", coeff, support),
            };
            let mut pairs = vec![("op".to_string(), Json::str(tag))];
            pairs.extend(coeff_fields(*coeff));
            pairs.push((
                "idx".into(),
                Json::Arr(support.iter().map(|&i| Json::int(u64::from(i))).collect()),
            ));
            Json::Obj(pairs)
        })
        .collect();
    Json::Obj(vec![
        ("n_modes".into(), Json::int(d.n_modes() as u64)),
        ("ops".into(), Json::Arr(ops)),
    ])
}

/// Decodes a [`HamiltonianDelta`] envelope.
pub fn decode_hamiltonian_delta(v: &Json) -> Result<HamiltonianDelta, WireError> {
    decode_hamiltonian_delta_payload(open_envelope(v, KIND_DELTA)?)
}

/// Decodes a bare delta payload (see [`hamiltonian_delta_payload`]),
/// validating every index and re-running the delta's own construction
/// checks (identity terms, zero coefficients) so a decoded delta is as
/// well-formed as a locally built one.
pub fn decode_hamiltonian_delta_payload(v: &Json) -> Result<HamiltonianDelta, WireError> {
    const CTX: &str = "hamiltonian_delta payload";
    let pairs = as_obj(v, CTX)?;
    let n = checked_modes(as_usize(field(pairs, "n_modes", CTX)?, CTX)?, CTX)?;
    let mut delta = HamiltonianDelta::new(n);
    for op in as_arr(field(pairs, "ops", CTX)?, CTX)? {
        const OCTX: &str = "hamiltonian_delta op";
        let op_pairs = as_obj(op, OCTX)?;
        let tag = as_str(field(op_pairs, "op", OCTX)?, OCTX)?;
        let coeff = decode_coeff(op_pairs, OCTX)?;
        let mut indices = Vec::new();
        for idx in as_arr(field(op_pairs, "idx", OCTX)?, OCTX)? {
            let i = as_usize(idx, OCTX)?;
            if i >= 2 * n {
                return Err(WireError::ModeMismatch {
                    context: "hamiltonian_delta op index",
                    declared: n,
                    required: i / 2 + 1,
                });
            }
            indices.push(i as u32);
        }
        let pushed = match tag {
            "add" => delta.push_add(coeff, &indices),
            "remove" => delta.push_remove(coeff, &indices),
            other => {
                return Err(WireError::schema(
                    OCTX,
                    format!("unknown op {other:?} (expected \"add\" or \"remove\")"),
                ))
            }
        };
        pushed.map_err(|e| WireError::schema(OCTX, format!("{e}")))?;
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatt_pauli::Complex64;

    fn sample() -> MajoranaSum {
        let mut h = MajoranaSum::new(3);
        h.add(Complex64::new(0.0, 0.5), &[0, 1]);
        h.add(Complex64::new(-0.5, 0.0), &[2, 3]);
        h.add(Complex64::real(0.125), &[2, 3, 4, 5]);
        h
    }

    #[test]
    fn round_trip_preserves_terms_and_structure() {
        let h = sample();
        let back = decode_majorana_sum(&encode_majorana_sum(&h)).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.n_modes(), 3);
    }

    #[test]
    fn out_of_range_index_is_a_mode_mismatch() {
        let doc = Json::parse(
            r#"{"format":"hatt-wire/1","kind":"majorana_sum","payload":
                {"n_modes":1,"terms":[{"re":1,"im":0,"idx":[0,2]}]}}"#,
        )
        .unwrap();
        match decode_majorana_sum(&doc) {
            Err(WireError::ModeMismatch {
                declared, required, ..
            }) => {
                assert_eq!(declared, 1);
                assert_eq!(required, 2);
            }
            other => panic!("expected ModeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn non_canonical_wire_terms_are_canonicalized_on_decode() {
        // M1 M0 = -M0 M1: legal on the wire, folded on decode.
        let doc = Json::parse(
            r#"{"format":"hatt-wire/1","kind":"majorana_sum","payload":
                {"n_modes":1,"terms":[{"re":1,"im":0,"idx":[1,0]}]}}"#,
        )
        .unwrap();
        let h = decode_majorana_sum(&doc).unwrap();
        assert!(h
            .coefficient_of(&[0, 1])
            .approx_eq(Complex64::real(-1.0), 1e-12));
    }

    #[test]
    fn delta_round_trips_bit_identically() {
        let mut d = HamiltonianDelta::new(3);
        d.push_add(Complex64::new(0.25, -0.5), &[0, 1, 4, 5])
            .unwrap();
        d.push_remove(Complex64::real(0.125), &[2, 3]).unwrap();
        let text = encode_hamiltonian_delta(&d).render();
        let back = decode_hamiltonian_delta(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn malformed_delta_documents_fail_with_typed_errors() {
        for payload in [
            r#"{"ops":[]}"#,
            r#"{"n_modes":1,"ops":[{"op":"warp","re":1,"im":0,"idx":[0]}]}"#,
            r#"{"n_modes":1,"ops":[{"op":"add","re":1,"im":0,"idx":[2]}]}"#,
            r#"{"n_modes":1,"ops":[{"op":"add","re":0,"im":0,"idx":[0]}]}"#,
            r#"{"n_modes":1,"ops":[{"op":"add","re":1,"im":0,"idx":[0,0]}]}"#,
            r#"{"n_modes":1,"ops":[{"op":"add","re":1,"im":0}]}"#,
            r#"{"n_modes":1,"ops":{}}"#,
        ] {
            let doc = Json::parse(&format!(
                r#"{{"format":"hatt-wire/1","kind":"hamiltonian_delta","payload":{payload}}}"#
            ))
            .unwrap();
            assert!(decode_hamiltonian_delta(&doc).is_err(), "{payload}");
        }
    }

    #[test]
    fn malformed_documents_fail_with_typed_errors() {
        for payload in [
            r#"{"terms":[]}"#,
            r#"{"n_modes":"two","terms":[]}"#,
            r#"{"n_modes":1,"terms":[{"re":1,"im":0}]}"#,
            r#"{"n_modes":1,"terms":[{"re":1,"im":0,"idx":[-1]}]}"#,
            r#"{"n_modes":1,"terms":[{"re":1,"im":0,"idx":"01"}]}"#,
        ] {
            let doc = Json::parse(&format!(
                r#"{{"format":"hatt-wire/1","kind":"majorana_sum","payload":{payload}}}"#
            ))
            .unwrap();
            assert!(decode_majorana_sum(&doc).is_err(), "{payload}");
        }
    }
}
