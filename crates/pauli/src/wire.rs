//! The `hatt-wire/1` versioned JSON wire format — Pauli-layer codecs
//! plus the envelope and decode helpers every other crate's codec
//! builds on (`hatt-fermion::wire`, `hatt-mappings::wire`,
//! `hatt-core::wire`, `hatt-service`).
//!
//! Every document is an envelope
//!
//! ```json
//! {"format": "hatt-wire/1", "kind": "<kind>", "payload": { ... }}
//! ```
//!
//! so readers can reject unknown versions and kinds up front. Decoding
//! is total: malformed input of any shape produces a typed
//! [`WireError`], never a panic — the service layer feeds untrusted
//! bytes straight into these functions.
//!
//! # Examples
//!
//! ```
//! use hatt_pauli::wire::{decode_pauli_sum, encode_pauli_sum};
//! use hatt_pauli::{Complex64, PauliSum};
//!
//! let mut h = PauliSum::new(2);
//! h.add(Complex64::real(0.5), "ZI".parse()?);
//! h.add(Complex64::new(0.0, 1.0), "XX".parse()?);
//!
//! let text = encode_pauli_sum(&h).render();
//! assert!(text.starts_with(r#"{"format":"hatt-wire/1","kind":"pauli_sum""#));
//! let back = decode_pauli_sum(&hatt_pauli::json::Json::parse(&text)?)?;
//! assert_eq!(back, h);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use crate::json::{write_str, Json, JsonParseError, Reader};
use crate::{Complex64, PauliString, PauliSum};

/// The wire-format version tag every envelope carries.
pub const WIRE_FORMAT: &str = "hatt-wire/1";

/// Largest qubit/mode count a decoder will allocate for. Wire documents
/// claiming more are rejected — a malformed request must not be able to
/// demand terabytes of bit-vector.
pub const MAX_WIRE_MODES: usize = 1 << 20;

/// Typed error for everything that can go wrong decoding `hatt-wire/1`
/// documents.
///
/// # Examples
///
/// ```
/// use hatt_pauli::json::Json;
/// use hatt_pauli::wire::{decode_pauli_sum, WireError};
///
/// let wrong = Json::parse(r#"{"format":"hatt-wire/9","kind":"pauli_sum","payload":{}}"#)?;
/// assert!(matches!(decode_pauli_sum(&wrong), Err(WireError::Format { .. })));
/// # Ok::<(), hatt_pauli::json::JsonParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The document is not valid JSON at all.
    Parse(JsonParseError),
    /// The `format` tag is missing or names an unsupported version.
    Format {
        /// What the document carried (empty when absent).
        found: String,
    },
    /// The `kind` tag does not match what the decoder expected.
    Kind {
        /// The kind the decoder was asked to read.
        expected: &'static str,
        /// The kind the document carried (empty when absent).
        found: String,
    },
    /// A field is missing, has the wrong type, or holds a value outside
    /// the schema (bad Pauli letter, oversized count, …).
    Schema {
        /// Which part of the payload failed.
        context: &'static str,
        /// What exactly was wrong.
        message: String,
    },
    /// An index or string refers to more modes/qubits than the document
    /// declares.
    ModeMismatch {
        /// Where the mismatch was found.
        context: &'static str,
        /// Modes/qubits the document declares.
        declared: usize,
        /// Modes/qubits the offending value requires.
        required: usize,
    },
}

impl WireError {
    /// Builds a [`WireError::Schema`] with formatted detail.
    pub fn schema(context: &'static str, message: impl Into<String>) -> Self {
        WireError::Schema {
            context,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Parse(e) => write!(f, "wire document is not JSON: {e}"),
            WireError::Format { found } if found.is_empty() => {
                write!(f, "missing wire format tag (expected {WIRE_FORMAT:?})")
            }
            WireError::Format { found } => {
                write!(f, "unsupported wire format {found:?} (expected {WIRE_FORMAT:?})")
            }
            WireError::Kind { expected, found } => {
                write!(f, "wrong wire kind {found:?} (expected {expected:?})")
            }
            WireError::Schema { context, message } => {
                write!(f, "invalid {context}: {message}")
            }
            WireError::ModeMismatch {
                context,
                declared,
                required,
            } => write!(
                f,
                "mode mismatch in {context}: document declares {declared} but the value requires {required}"
            ),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonParseError> for WireError {
    fn from(e: JsonParseError) -> Self {
        WireError::Parse(e)
    }
}

// ---------------------------------------------------------------------
// Envelope + decode helpers shared by every codec in the workspace.
// ---------------------------------------------------------------------

/// Wraps a payload in the versioned envelope.
pub fn envelope(kind: &str, payload: Json) -> Json {
    Json::Obj(vec![
        ("format".into(), Json::str(WIRE_FORMAT)),
        ("kind".into(), Json::str(kind)),
        ("payload".into(), payload),
    ])
}

/// Opens an envelope: checks the format version and kind, returns the
/// payload.
pub fn open_envelope<'a>(v: &'a Json, kind: &'static str) -> Result<&'a Json, WireError> {
    let obj = as_obj(v, "envelope")?;
    let format = get(obj, "format").and_then(|v| as_str_value(v).ok());
    match format {
        Some(f) if f == WIRE_FORMAT => {}
        found => {
            return Err(WireError::Format {
                found: found.unwrap_or_default().to_string(),
            })
        }
    }
    let found_kind = get(obj, "kind")
        .and_then(|v| as_str_value(v).ok())
        .unwrap_or_default();
    if found_kind != kind {
        return Err(WireError::Kind {
            expected: kind,
            found: found_kind.to_string(),
        });
    }
    get(obj, "payload").ok_or(WireError::Schema {
        context: "envelope",
        message: "missing payload".into(),
    })
}

/// Appends an envelope's head, `{"format":"hatt-wire/1","kind":"<kind>","payload":`,
/// byte for byte as rendering [`envelope`] writes it. The caller appends
/// the payload and the closing `}`.
pub fn write_envelope_head(out: &mut String, kind: &str) {
    out.push_str("{\"format\":");
    write_str(out, WIRE_FORMAT);
    out.push_str(",\"kind\":");
    write_str(out, kind);
    out.push_str(",\"payload\":");
}

/// Reads an envelope in one pass, with no [`Json`] tree: `payload` is
/// called with the envelope's kind while `r` sits at the payload, and
/// reads it. The first occurrence of each key counts, as in
/// [`open_envelope`]; other members are parsed and ignored.
///
/// An error only means this reader does not take the document, not why.
/// It declines a document whose format or kind comes after its payload,
/// which [`open_envelope`] accepts. A caller falls back to
/// [`open_envelope`] on the parsed tree, which also gives the diagnostic.
pub fn read_envelope<'a, T>(
    r: &mut Reader<'a>,
    payload: impl FnOnce(&mut Reader<'a>, &str) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut format = None;
    let mut kind = None;
    let mut payload = Some(payload);
    let mut out = None;
    r.object(|r, key| {
        match key {
            "format" if format.is_none() => format = Some(r.value()?),
            "kind" if kind.is_none() => kind = Some(r.value()?),
            "payload" if out.is_none() => match (&format, &kind, payload.take()) {
                (Some(Json::Str(f)), Some(Json::Str(k)), Some(read)) if f == WIRE_FORMAT => {
                    out = Some(read(r, k)?);
                }
                _ => {
                    return Err(WireError::schema(
                        "envelope",
                        "the format and kind must precede the payload",
                    ))
                }
            },
            _ => drop(r.value()?),
        }
        Ok(())
    })?;
    out.ok_or(WireError::Schema {
        context: "envelope",
        message: "missing payload".into(),
    })
}

/// Views a value as an object's key/value pairs.
pub fn as_obj<'a>(v: &'a Json, context: &'static str) -> Result<&'a [(String, Json)], WireError> {
    match v {
        Json::Obj(pairs) => Ok(pairs),
        other => Err(WireError::schema(
            context,
            format!("expected an object, got {}", kind_of(other)),
        )),
    }
}

/// Views a value as an array's items.
pub fn as_arr<'a>(v: &'a Json, context: &'static str) -> Result<&'a [Json], WireError> {
    match v {
        Json::Arr(items) => Ok(items),
        other => Err(WireError::schema(
            context,
            format!("expected an array, got {}", kind_of(other)),
        )),
    }
}

/// Looks a key up in an object (first occurrence), if present.
pub fn get<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Looks a required key up in an object.
pub fn field<'a>(
    pairs: &'a [(String, Json)],
    key: &'static str,
    context: &'static str,
) -> Result<&'a Json, WireError> {
    get(pairs, key).ok_or(WireError::Schema {
        context,
        message: format!("missing field {key:?}"),
    })
}

/// Views a value as a string.
pub fn as_str<'a>(v: &'a Json, context: &'static str) -> Result<&'a str, WireError> {
    as_str_value(v)
        .map_err(|got| WireError::schema(context, format!("expected a string, got {got}")))
}

fn as_str_value(v: &Json) -> Result<&str, &'static str> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(kind_of(other)),
    }
}

/// Views a value as a non-negative integer count.
pub fn as_usize(v: &Json, context: &'static str) -> Result<usize, WireError> {
    match v {
        Json::Int(i) if *i >= 0 => {
            usize::try_from(*i).map_err(|_| WireError::schema(context, "count out of range"))
        }
        other => Err(WireError::schema(
            context,
            format!("expected a non-negative integer, got {}", kind_of(other)),
        )),
    }
}

/// Views a value as an unsigned 64-bit counter.
pub fn as_u64(v: &Json, context: &'static str) -> Result<u64, WireError> {
    match v {
        Json::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(WireError::schema(
            context,
            format!("expected a non-negative integer, got {}", kind_of(other)),
        )),
    }
}

/// Views a value as a finite float (integers coerce).
pub fn as_f64(v: &Json, context: &'static str) -> Result<f64, WireError> {
    match v {
        Json::Num(x) => Ok(*x),
        Json::Int(i) => Ok(*i as f64),
        other => Err(WireError::schema(
            context,
            format!("expected a number, got {}", kind_of(other)),
        )),
    }
}

/// Views a value as a bool.
pub fn as_bool(v: &Json, context: &'static str) -> Result<bool, WireError> {
    match v {
        Json::Bool(b) => Ok(*b),
        other => Err(WireError::schema(
            context,
            format!("expected a bool, got {}", kind_of(other)),
        )),
    }
}

fn kind_of(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "a bool",
        Json::Num(_) | Json::Int(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    }
}

/// Validates a declared mode/qubit count against [`MAX_WIRE_MODES`].
pub fn checked_modes(n: usize, context: &'static str) -> Result<usize, WireError> {
    if n > MAX_WIRE_MODES {
        return Err(WireError::schema(
            context,
            format!("{n} exceeds the wire limit of {MAX_WIRE_MODES}"),
        ));
    }
    Ok(n)
}

/// Encodes a complex coefficient as the two fields every term object
/// carries.
pub fn coeff_fields(c: Complex64) -> [(String, Json); 2] {
    [
        ("re".into(), Json::Num(c.re)),
        ("im".into(), Json::Num(c.im)),
    ]
}

/// Decodes the `re`/`im` coefficient fields of a term object.
pub fn decode_coeff(
    pairs: &[(String, Json)],
    context: &'static str,
) -> Result<Complex64, WireError> {
    let re = as_f64(field(pairs, "re", context)?, context)?;
    let im = as_f64(field(pairs, "im", context)?, context)?;
    Ok(Complex64::new(re, im))
}

// ---------------------------------------------------------------------
// PauliString / PauliSum codecs.
// ---------------------------------------------------------------------

const KIND_PAULI_STRING: &str = "pauli_string";
const KIND_PAULI_SUM: &str = "pauli_sum";

/// Encodes a [`PauliString`] (letters in the paper's N-length form plus
/// the raw phase exponent, so the operator round-trips exactly).
pub fn encode_pauli_string(s: &PauliString) -> Json {
    envelope(KIND_PAULI_STRING, pauli_string_payload(s))
}

fn pauli_string_payload(s: &PauliString) -> Json {
    Json::Obj(vec![
        ("n_qubits".into(), Json::int(s.n_qubits() as u64)),
        ("letters".into(), Json::str(s.normalized().to_string())),
        (
            "phase".into(),
            Json::int(u64::from(s.coefficient_phase().exponent())),
        ),
    ])
}

/// Decodes a [`PauliString`] envelope.
pub fn decode_pauli_string(v: &Json) -> Result<PauliString, WireError> {
    decode_pauli_string_payload(open_envelope(v, KIND_PAULI_STRING)?)
}

fn decode_pauli_string_payload(payload: &Json) -> Result<PauliString, WireError> {
    const CTX: &str = "pauli_string payload";
    let pairs = as_obj(payload, CTX)?;
    let n = checked_modes(as_usize(field(pairs, "n_qubits", CTX)?, CTX)?, CTX)?;
    let letters = as_str(field(pairs, "letters", CTX)?, CTX)?;
    let phase = as_u64(field(pairs, "phase", CTX)?, CTX)?;
    if phase > 3 {
        return Err(WireError::schema(CTX, "phase exponent must be 0..=3"));
    }
    let s: PauliString = letters
        .parse()
        .map_err(|e| WireError::schema(CTX, format!("{e}")))?;
    if s.n_qubits() != n {
        return Err(WireError::ModeMismatch {
            context: "pauli_string letters",
            declared: n,
            required: s.n_qubits(),
        });
    }
    Ok(s.times_phase(crate::Phase::new(phase as u8)))
}

/// Encodes a [`PauliSum`] with exact coefficients (Rust's shortest
/// round-trip float rendering makes encode∘decode the identity).
pub fn encode_pauli_sum(h: &PauliSum) -> Json {
    let terms = h
        .iter()
        .map(|(c, s)| {
            let mut pairs = coeff_fields(c).to_vec();
            pairs.push(("s".into(), Json::str(s.to_string())));
            Json::Obj(pairs)
        })
        .collect();
    envelope(
        KIND_PAULI_SUM,
        Json::Obj(vec![
            ("n_qubits".into(), Json::int(h.n_qubits() as u64)),
            ("terms".into(), Json::Arr(terms)),
        ]),
    )
}

/// Decodes a [`PauliSum`] envelope.
pub fn decode_pauli_sum(v: &Json) -> Result<PauliSum, WireError> {
    const CTX: &str = "pauli_sum payload";
    let pairs = as_obj(open_envelope(v, KIND_PAULI_SUM)?, CTX)?;
    let n = checked_modes(as_usize(field(pairs, "n_qubits", CTX)?, CTX)?, CTX)?;
    let mut sum = PauliSum::new(n);
    for term in as_arr(field(pairs, "terms", CTX)?, CTX)? {
        const TCTX: &str = "pauli_sum term";
        let tp = as_obj(term, TCTX)?;
        let coeff = decode_coeff(tp, TCTX)?;
        let letters = as_str(field(tp, "s", TCTX)?, TCTX)?;
        let s: PauliString = letters
            .parse()
            .map_err(|e| WireError::schema(TCTX, format!("{e}")))?;
        if s.n_qubits() != n {
            return Err(WireError::ModeMismatch {
                context: "pauli_sum term",
                declared: n,
                required: s.n_qubits(),
            });
        }
        sum.add(coeff, s);
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pauli;

    #[test]
    fn pauli_sum_round_trips() {
        let mut h = PauliSum::new(3);
        h.add(Complex64::real(0.5), "ZIZ".parse().unwrap());
        h.add(Complex64::new(-0.25, 1.5), "XYI".parse().unwrap());
        h.add(Complex64::new(0.0, 1e-3), "IIY".parse().unwrap());
        let text = encode_pauli_sum(&h).render();
        let back = decode_pauli_sum(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn pauli_string_round_trips_with_phase() {
        // iZ: a string whose coefficient is not +1.
        let iz = PauliString::from_ops(2, &[(0, Pauli::X), (0, Pauli::Y)]);
        let text = encode_pauli_string(&iz).render();
        let back = decode_pauli_string(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, iz);
        assert_eq!(back.coefficient_phase(), iz.coefficient_phase());
    }

    #[test]
    fn envelope_rejects_wrong_version_and_kind() {
        let doc = encode_pauli_sum(&PauliSum::new(1));
        assert!(matches!(
            open_envelope(&doc, "majorana_sum"),
            Err(WireError::Kind { .. })
        ));
        let tampered = Json::Obj(vec![
            ("format".into(), Json::str("hatt-wire/2")),
            ("kind".into(), Json::str("pauli_sum")),
            ("payload".into(), Json::Obj(vec![])),
        ]);
        assert!(matches!(
            decode_pauli_sum(&tampered),
            Err(WireError::Format { .. })
        ));
        assert!(matches!(
            decode_pauli_sum(&Json::Null),
            Err(WireError::Schema { .. })
        ));
    }

    #[test]
    fn malformed_payloads_are_typed_errors_not_panics() {
        for payload in [
            r#"{"n_qubits":2}"#,
            r#"{"n_qubits":-1,"terms":[]}"#,
            r#"{"n_qubits":2,"terms":[{"re":1,"im":0,"s":"XQ"}]}"#,
            r#"{"n_qubits":2,"terms":[{"re":1,"im":0,"s":"XXX"}]}"#,
            r#"{"n_qubits":2,"terms":[{"re":"x","im":0,"s":"XX"}]}"#,
            r#"{"n_qubits":2,"terms":{}}"#,
        ] {
            let doc = Json::parse(&format!(
                r#"{{"format":"hatt-wire/1","kind":"pauli_sum","payload":{payload}}}"#
            ))
            .unwrap();
            assert!(decode_pauli_sum(&doc).is_err(), "{payload}");
        }
    }

    #[test]
    fn oversized_mode_counts_are_rejected() {
        let doc = Json::parse(&format!(
            r#"{{"format":"hatt-wire/1","kind":"pauli_sum","payload":{{"n_qubits":{},"terms":[]}}}}"#,
            MAX_WIRE_MODES + 1
        ))
        .unwrap();
        assert!(matches!(
            decode_pauli_sum(&doc),
            Err(WireError::Schema { .. })
        ));
    }

    #[test]
    fn wire_errors_display_useful_messages() {
        let e = WireError::ModeMismatch {
            context: "pauli_sum term",
            declared: 2,
            required: 3,
        };
        assert!(e.to_string().contains("declares 2"));
        let e = WireError::Format {
            found: String::new(),
        };
        assert!(e.to_string().contains("missing wire format"));
    }
}
