//! The `hatt-wire/1` request/response protocol spoken over the `hattd`
//! socket (JSON lines: one request per line in, one response line per
//! batch item out, closed by a `map_done` line).
//!
//! ## Request line
//!
//! ```json
//! {"format":"hatt-wire/1","kind":"map_request","payload":{
//!   "id": "req-1",
//!   "options": {"variant":"cached","policy":"restarts","naive_weight":false},
//!   "n_modes": 8,
//!   "hamiltonians": [ {"n_modes":8,"terms":[...]}, ... ]
//! }}
//! ```
//!
//! `options` and `n_modes` are optional: missing options fall back to
//! the server mapper's configuration; a present `n_modes` pins every
//! item to that size (mismatching items fail individually with
//! `mode_mismatch`, the rest of the batch still maps).
//!
//! Request lines are decoded in one pass. [`MapRequest::from_line`],
//! [`MapDeltaRequest::from_line`] and [`RequestLine::from_line`] read a
//! `map_request` or `map_delta` line straight into the request, and each
//! Hamiltonian's terms straight into its `MajoranaSum`, with no [`Json`]
//! tree; `to_line` writes straight into the output string. A line the
//! one-pass reader does not take goes to the tree decoder
//! (`decode(&Json::parse(line)?)`) unchanged: a malformed line, another
//! kind, or a format or kind placed after the payload. The tree decoder
//! stays the reference. It alone produces error messages, and the
//! differential tests in `tests/wire_props.rs` hold the one-pass reader
//! to it. Reply lines, `stats` and `trace_dump` stay on the tree.
//!
//! ## Response lines
//!
//! One `map_item` line per Hamiltonian **as it completes** (so a slow
//! item does not block a fast one), then one `map_done` line:
//!
//! ```json
//! {"format":"hatt-wire/1","kind":"map_item","payload":{
//!   "id":"req-1","index":0,"ok":true,"n_modes":8,"pauli_weight":123,
//!   "mapping":{ ...hatt_mapping payload... }}}
//! {"format":"hatt-wire/1","kind":"map_item","payload":{
//!   "id":"req-1","index":1,"ok":false,
//!   "error":{"code":"empty_hamiltonian","message":"..."}}}
//! {"format":"hatt-wire/1","kind":"map_done","payload":{"id":"req-1","items":2,"errors":1}}
//! ```
//!
//! A line that fails to parse as a request at all produces a single
//! `map_item` with `index: null` and code `invalid_request`, then
//! `map_done` — the connection stays usable.

use std::io::Write;

use hatt_core::wire::{decode_hatt_mapping_payload, hatt_mapping_payload};
use hatt_core::StoreTierStats;
use hatt_core::{HattError, HattMapping, HattOptions, Variant};
use hatt_fermion::wire::{
    decode_hamiltonian_delta_payload, decode_majorana_sum_payload, hamiltonian_delta_payload,
    majorana_sum_payload, read_majorana_sum_payload, write_majorana_sum_payload,
};
use hatt_fermion::{HamiltonianDelta, MajoranaSum};
use hatt_mappings::{FermionMapping, SelectionPolicy};
use hatt_pauli::json::{write_str, Json, Reader};
use hatt_pauli::wire::{
    as_arr, as_bool, as_obj, as_str, as_u64, as_usize, envelope, field, get, open_envelope,
    read_envelope, write_envelope_head, WireError,
};
use hatt_trace::{SpanRecord, TraceCtx};

const KIND_REQUEST: &str = "map_request";
const KIND_DELTA_REQUEST: &str = "map_delta";
const KIND_ITEM: &str = "map_item";
const KIND_DONE: &str = "map_done";
const KIND_STATS_REQUEST: &str = "stats_request";
const KIND_STATS: &str = "stats";
const KIND_TRACE_DUMP_REQUEST: &str = "trace_dump_request";
const KIND_TRACE_DUMP: &str = "trace_dump";

/// Encodes a propagated trace context as the optional `trace_ctx`
/// request field. IDs are 63-bit by construction ([`hatt_trace`] mints
/// them that way); out-of-range values are masked rather than panicking.
fn encode_trace_ctx(ctx: TraceCtx) -> Json {
    let mask = i64::MAX as u64;
    Json::Obj(vec![
        ("trace_id".into(), Json::int(ctx.trace_id & mask)),
        ("parent_span".into(), Json::int(ctx.parent_span & mask)),
    ])
}

fn decode_trace_ctx(v: &Json) -> Result<TraceCtx, WireError> {
    const CTX: &str = "trace_ctx";
    let pairs = as_obj(v, CTX)?;
    Ok(TraceCtx {
        trace_id: as_u64(field(pairs, "trace_id", CTX)?, CTX)?,
        parent_span: match get(pairs, "parent_span") {
            None | Some(Json::Null) => 0,
            Some(v) => as_u64(v, CTX)?,
        },
    })
}

/// A batch mapping request: one or more Majorana Hamiltonians to map
/// under one option set.
///
/// # Examples
///
/// ```
/// use hatt_fermion::MajoranaSum;
/// use hatt_service::MapRequest;
///
/// let req = MapRequest::new("sweep-7", vec![MajoranaSum::uniform_singles(3)]);
/// let line = req.to_line();
/// let back = MapRequest::from_line(&line)?;
/// assert_eq!(back.id, "sweep-7");
/// assert_eq!(back.hamiltonians.len(), 1);
/// # Ok::<(), hatt_pauli::wire::WireError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MapRequest {
    /// Caller-chosen identifier, echoed on every response line.
    pub id: String,
    /// Construction options (`None` = use the server mapper's
    /// configuration). The worker-thread cap is *not* part of the wire
    /// protocol — scheduling is the server's concern.
    pub options: Option<HattOptions>,
    /// Optional mode-count pin: items of any other size fail
    /// individually with `mode_mismatch`.
    pub n_modes: Option<usize>,
    /// Optional propagated trace context (`trace_ctx` on the wire): a
    /// traced caller's trace ID plus its active span, so the server's
    /// spans join the caller's tree. Absent means "not traced by the
    /// caller" — a `--trace` server then roots a fresh trace itself.
    pub trace: Option<TraceCtx>,
    /// The Hamiltonians to map, in order.
    pub hamiltonians: Vec<MajoranaSum>,
}

impl MapRequest {
    /// A request with default (server-side) options and no mode pin.
    pub fn new(id: impl Into<String>, hamiltonians: Vec<MajoranaSum>) -> Self {
        MapRequest {
            id: id.into(),
            options: None,
            n_modes: None,
            trace: None,
            hamiltonians,
        }
    }

    /// Encodes the request envelope.
    pub fn encode(&self) -> Json {
        let mut payload = vec![("id".into(), Json::str(&self.id))];
        if let Some(options) = &self.options {
            payload.push(("options".into(), encode_options(options)));
        }
        if let Some(n) = self.n_modes {
            payload.push(("n_modes".into(), Json::int(n as u64)));
        }
        if let Some(ctx) = self.trace {
            payload.push(("trace_ctx".into(), encode_trace_ctx(ctx)));
        }
        payload.push((
            "hamiltonians".into(),
            Json::Arr(self.hamiltonians.iter().map(majorana_sum_payload).collect()),
        ));
        envelope(KIND_REQUEST, Json::Obj(payload))
    }

    /// Decodes a request envelope.
    pub fn decode(v: &Json) -> Result<Self, WireError> {
        const CTX: &str = "map_request payload";
        let pairs = as_obj(open_envelope(v, KIND_REQUEST)?, CTX)?;
        let id = as_str(field(pairs, "id", CTX)?, CTX)?.to_string();
        let options = match get(pairs, "options") {
            None | Some(Json::Null) => None,
            Some(v) => Some(decode_options(v)?),
        };
        let n_modes = match get(pairs, "n_modes") {
            None | Some(Json::Null) => None,
            Some(v) => Some(as_usize(v, CTX)?),
        };
        // Additive (tracing): absent on lines from untraced clients.
        let trace = match get(pairs, "trace_ctx") {
            None | Some(Json::Null) => None,
            Some(v) => Some(decode_trace_ctx(v)?),
        };
        let hamiltonians = as_arr(field(pairs, "hamiltonians", CTX)?, CTX)?
            .iter()
            .map(decode_majorana_sum_payload)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MapRequest {
            id,
            options,
            n_modes,
            trace,
            hamiltonians,
        })
    }

    /// Renders the request as one JSON line (no trailing newline),
    /// writing straight into the output: the bytes of
    /// `self.encode().render()` with no tree in between.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        write_envelope_head(&mut out, KIND_REQUEST);
        write_head(&mut out, &self.id, self.options.as_ref());
        if let Some(n) = self.n_modes {
            push_member(&mut out, "n_modes", &Json::int(n as u64));
        }
        if let Some(ctx) = self.trace {
            push_member(&mut out, "trace_ctx", &encode_trace_ctx(ctx));
        }
        out.push_str(",\"hamiltonians\":[");
        for (i, h) in self.hamiltonians.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_majorana_sum_payload(&mut out, h);
        }
        out.push_str("]}}");
        out
    }

    /// Parses a request line: in one pass when [`RequestLine::read_line`]
    /// takes it, otherwise through the tree ([`MapRequest::decode`]),
    /// which also produces every error.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        match RequestLine::read_line(line) {
            Ok(RequestLine::Map(req)) => Ok(req),
            _ => Self::decode(&Json::parse(line)?),
        }
    }
}

/// A session-edit request (`kind: "map_delta"`): a base Hamiltonian
/// plus a structural [`HamiltonianDelta`] to apply to it. A HATT tree
/// depends only on the term structure, so an edit is just the
/// post-delta Hamiltonian to map: the daemon applies the delta as the
/// line arrives and serves the one-item [`MapRequest`] that results,
/// under the same id, options and trace context. The reply is that
/// request's: one `map_item` and a `map_done` line. A router places the
/// edit on the shard that owns the post-delta structure. A delta that
/// does not apply is answered on arrival with one `map_item` at index 0
/// carrying code `delta`.
///
/// # Examples
///
/// ```
/// use hatt_fermion::{HamiltonianDelta, MajoranaSum};
/// use hatt_pauli::Complex64;
/// use hatt_service::MapDeltaRequest;
///
/// let base = MajoranaSum::uniform_singles(3);
/// let mut delta = HamiltonianDelta::new(3);
/// delta.push_add(Complex64::real(0.5), &[0, 1, 2, 3]).unwrap();
/// let req = MapDeltaRequest::new("step-42", base, delta);
/// let back = MapDeltaRequest::from_line(&req.to_line())?;
/// assert_eq!(back.id, "step-42");
/// assert_eq!(back.delta.len(), 1);
/// # Ok::<(), hatt_pauli::wire::WireError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MapDeltaRequest {
    /// Caller-chosen identifier, echoed on every response line.
    pub id: String,
    /// Construction options (`None` = use the server mapper's
    /// configuration), exactly as on [`MapRequest`].
    pub options: Option<HattOptions>,
    /// Optional propagated trace context, exactly as on [`MapRequest`].
    pub trace: Option<TraceCtx>,
    /// The base Hamiltonian the delta applies to.
    pub hamiltonian: MajoranaSum,
    /// The structural edit to apply before mapping.
    pub delta: HamiltonianDelta,
}

impl MapDeltaRequest {
    /// A remap request with default (server-side) options.
    pub fn new(id: impl Into<String>, hamiltonian: MajoranaSum, delta: HamiltonianDelta) -> Self {
        MapDeltaRequest {
            id: id.into(),
            options: None,
            trace: None,
            hamiltonian,
            delta,
        }
    }

    /// Encodes the request envelope.
    pub fn encode(&self) -> Json {
        let mut payload = vec![("id".into(), Json::str(&self.id))];
        if let Some(options) = &self.options {
            payload.push(("options".into(), encode_options(options)));
        }
        if let Some(ctx) = self.trace {
            payload.push(("trace_ctx".into(), encode_trace_ctx(ctx)));
        }
        payload.push((
            "hamiltonian".into(),
            majorana_sum_payload(&self.hamiltonian),
        ));
        payload.push(("delta".into(), hamiltonian_delta_payload(&self.delta)));
        envelope(KIND_DELTA_REQUEST, Json::Obj(payload))
    }

    /// Decodes a remap-request envelope.
    pub fn decode(v: &Json) -> Result<Self, WireError> {
        const CTX: &str = "map_delta payload";
        let pairs = as_obj(open_envelope(v, KIND_DELTA_REQUEST)?, CTX)?;
        let id = as_str(field(pairs, "id", CTX)?, CTX)?.to_string();
        let options = match get(pairs, "options") {
            None | Some(Json::Null) => None,
            Some(v) => Some(decode_options(v)?),
        };
        let trace = match get(pairs, "trace_ctx") {
            None | Some(Json::Null) => None,
            Some(v) => Some(decode_trace_ctx(v)?),
        };
        let hamiltonian = decode_majorana_sum_payload(field(pairs, "hamiltonian", CTX)?)?;
        let delta = decode_hamiltonian_delta_payload(field(pairs, "delta", CTX)?)?;
        Ok(MapDeltaRequest {
            id,
            options,
            trace,
            hamiltonian,
            delta,
        })
    }

    /// Renders the request as one JSON line (no trailing newline),
    /// writing straight into the output: the bytes of
    /// `self.encode().render()`.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        write_envelope_head(&mut out, KIND_DELTA_REQUEST);
        write_head(&mut out, &self.id, self.options.as_ref());
        if let Some(ctx) = self.trace {
            push_member(&mut out, "trace_ctx", &encode_trace_ctx(ctx));
        }
        out.push_str(",\"hamiltonian\":");
        write_majorana_sum_payload(&mut out, &self.hamiltonian);
        push_member(&mut out, "delta", &hamiltonian_delta_payload(&self.delta));
        out.push_str("}}");
        out
    }

    /// Parses a remap-request line: in one pass when
    /// [`RequestLine::read_line`] takes it, otherwise through the tree
    /// ([`MapDeltaRequest::decode`]), which also produces every error.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        match RequestLine::read_line(line) {
            Ok(RequestLine::Delta(req)) => Ok(req),
            _ => Self::decode(&Json::parse(line)?),
        }
    }

    /// The `map_request` this edit names: the post-delta Hamiltonian as
    /// its one item, under the same id, options and trace context. A
    /// delta that does not apply returns the item that answers it
    /// instead: index 0, code `delta`.
    pub(crate) fn into_map_request(self) -> Result<MapRequest, Box<MapItem>> {
        match self.delta.apply(&self.hamiltonian) {
            Ok(next) => Ok(MapRequest {
                id: self.id,
                options: self.options,
                n_modes: None,
                trace: self.trace,
                hamiltonians: vec![next],
            }),
            Err(e) => Err(Box::new(MapItem {
                id: self.id,
                index: Some(0),
                payload: ItemPayload::Err(ItemError::from_hatt(&HattError::from(e))),
            })),
        }
    }
}

/// Appends a request payload's opening: `{"id":…` and the options when
/// set. The optional members stay small, so they render through their
/// trees.
fn write_head(out: &mut String, id: &str, options: Option<&HattOptions>) {
    out.push_str("{\"id\":");
    write_str(out, id);
    if let Some(options) = options {
        push_member(out, "options", &encode_options(options));
    }
}

/// Appends `,"key":value`.
fn push_member(out: &mut String, key: &str, value: &Json) {
    out.push(',');
    write_str(out, key);
    out.push(':');
    out.push_str(&value.render());
}

/// A member the tree decoders read as absent when it is `null`.
fn nullable<T>(
    v: Json,
    decode: impl FnOnce(&Json) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    match v {
        Json::Null => Ok(None),
        v => decode(&v).map(Some),
    }
}

/// The one-pass `map_request` payload reader: [`MapRequest::decode`]'s
/// rules, member by member. Each member counts at its first occurrence
/// (a later duplicate is parsed and ignored, as [`get`] ignores it), and
/// the small `options` and `trace_ctx` values go through their tree
/// decoders.
fn read_map_payload(r: &mut Reader<'_>) -> Result<MapRequest, WireError> {
    const CTX: &str = "map_request payload";
    let (mut id, mut options, mut n_modes, mut trace, mut hamiltonians) =
        (None, None, None, None, None);
    r.object(|r, key| {
        match key {
            "id" if id.is_none() => id = Some(as_str(&r.value()?, CTX)?.to_string()),
            "options" if options.is_none() => options = Some(nullable(r.value()?, decode_options)?),
            "n_modes" if n_modes.is_none() => {
                n_modes = Some(nullable(r.value()?, |v| as_usize(v, CTX))?);
            }
            "trace_ctx" if trace.is_none() => trace = Some(nullable(r.value()?, decode_trace_ctx)?),
            "hamiltonians" if hamiltonians.is_none() => {
                let mut hams = Vec::new();
                r.array(|r| {
                    hams.push(read_majorana_sum_payload(r)?);
                    Ok::<(), WireError>(())
                })?;
                hamiltonians = Some(hams);
            }
            _ => drop(r.value()?),
        }
        Ok::<(), WireError>(())
    })?;
    match (id, hamiltonians) {
        (Some(id), Some(hamiltonians)) => Ok(MapRequest {
            id,
            options: options.flatten(),
            n_modes: n_modes.flatten(),
            trace: trace.flatten(),
            hamiltonians,
        }),
        _ => Err(WireError::schema(CTX, "missing id or hamiltonians")),
    }
}

/// The one-pass `map_delta` payload reader, by the rules of
/// [`read_map_payload`].
fn read_delta_payload(r: &mut Reader<'_>) -> Result<MapDeltaRequest, WireError> {
    const CTX: &str = "map_delta payload";
    let (mut id, mut options, mut trace, mut hamiltonian, mut delta) =
        (None, None, None, None, None);
    r.object(|r, key| {
        match key {
            "id" if id.is_none() => id = Some(as_str(&r.value()?, CTX)?.to_string()),
            "options" if options.is_none() => options = Some(nullable(r.value()?, decode_options)?),
            "trace_ctx" if trace.is_none() => trace = Some(nullable(r.value()?, decode_trace_ctx)?),
            "hamiltonian" if hamiltonian.is_none() => {
                hamiltonian = Some(read_majorana_sum_payload(r)?);
            }
            "delta" if delta.is_none() => {
                delta = Some(decode_hamiltonian_delta_payload(&r.value()?)?);
            }
            _ => drop(r.value()?),
        }
        Ok::<(), WireError>(())
    })?;
    match (id, hamiltonian, delta) {
        (Some(id), Some(hamiltonian), Some(delta)) => Ok(MapDeltaRequest {
            id,
            options: options.flatten(),
            trace: trace.flatten(),
            hamiltonian,
            delta,
        }),
        _ => Err(WireError::schema(CTX, "missing id, hamiltonian or delta")),
    }
}

fn encode_options(options: &HattOptions) -> Json {
    Json::Obj(vec![
        ("variant".into(), Json::str(options.variant.key())),
        ("policy".into(), Json::str(options.policy.to_string())),
        ("naive_weight".into(), Json::Bool(options.naive_weight)),
    ])
}

fn decode_options(v: &Json) -> Result<HattOptions, WireError> {
    const CTX: &str = "map_request options";
    let pairs = as_obj(v, CTX)?;
    let variant = match get(pairs, "variant") {
        None => Variant::default(),
        Some(v) => {
            let key = as_str(v, CTX)?;
            Variant::from_key(key)
                .ok_or_else(|| WireError::schema(CTX, format!("unknown variant {key:?}")))?
        }
    };
    let policy = match get(pairs, "policy") {
        None => SelectionPolicy::default(),
        Some(v) => as_str(v, CTX)?
            .parse::<SelectionPolicy>()
            .map_err(|e| WireError::schema(CTX, format!("{e}")))?,
    };
    let naive_weight = match get(pairs, "naive_weight") {
        None => false,
        Some(v) => as_bool(v, CTX)?,
    };
    Ok(HattOptions {
        variant,
        policy,
        naive_weight,
        threads: None,
    })
}

/// The error object of a failed item: a stable machine-readable code
/// (see [`HattError::code`]) plus the human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemError {
    /// Stable error code (`empty_hamiltonian`, `mode_mismatch`,
    /// `invalid_policy`, `wire`, `invalid_request`, …).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl ItemError {
    /// Builds the wire error object for a mapping failure.
    pub fn from_hatt(e: &HattError) -> Self {
        ItemError {
            code: e.code().to_string(),
            message: e.to_string(),
        }
    }

    /// The request-level error for an unparsable request line.
    pub fn invalid_request(message: impl Into<String>) -> Self {
        ItemError {
            code: "invalid_request".into(),
            message: message.into(),
        }
    }
}

/// One per-item response: either the finished mapping or a typed error.
#[derive(Debug, Clone)]
pub enum ItemPayload {
    /// The item mapped successfully.
    Ok {
        /// The constructed mapping (tree + options + stats).
        mapping: HattMapping,
        /// Pauli weight of the mapped Hamiltonian (after term merging).
        pauli_weight: usize,
    },
    /// The item failed.
    Err(ItemError),
}

/// One streamed response line (`kind: "map_item"`).
#[derive(Debug, Clone)]
pub struct MapItem {
    /// Echo of the request id.
    pub id: String,
    /// Position of this item in the request's Hamiltonian list
    /// (`None` for request-level failures).
    pub index: Option<usize>,
    /// The result.
    pub payload: ItemPayload,
}

impl MapItem {
    /// Whether the item succeeded.
    pub fn is_ok(&self) -> bool {
        matches!(self.payload, ItemPayload::Ok { .. })
    }

    /// The mapping of a successful item.
    pub fn mapping(&self) -> Option<&HattMapping> {
        match &self.payload {
            ItemPayload::Ok { mapping, .. } => Some(mapping),
            ItemPayload::Err(_) => None,
        }
    }

    /// The error of a failed item.
    pub fn error(&self) -> Option<&ItemError> {
        match &self.payload {
            ItemPayload::Ok { .. } => None,
            ItemPayload::Err(e) => Some(e),
        }
    }

    /// Encodes the item envelope.
    pub fn encode(&self) -> Json {
        let mut payload = vec![
            ("id".into(), Json::str(&self.id)),
            (
                "index".into(),
                self.index.map_or(Json::Null, |i| Json::int(i as u64)),
            ),
            ("ok".into(), Json::Bool(self.is_ok())),
        ];
        match &self.payload {
            ItemPayload::Ok {
                mapping,
                pauli_weight,
            } => {
                payload.push(("n_modes".into(), Json::int(mapping.n_modes() as u64)));
                payload.push(("pauli_weight".into(), Json::int(*pauli_weight as u64)));
                payload.push(("mapping".into(), hatt_mapping_payload(mapping)));
            }
            ItemPayload::Err(e) => {
                payload.push((
                    "error".into(),
                    Json::Obj(vec![
                        ("code".into(), Json::str(&e.code)),
                        ("message".into(), Json::str(&e.message)),
                    ]),
                ));
            }
        }
        envelope(KIND_ITEM, Json::Obj(payload))
    }

    /// Decodes an item envelope.
    pub fn decode(v: &Json) -> Result<Self, WireError> {
        const CTX: &str = "map_item payload";
        let pairs = as_obj(open_envelope(v, KIND_ITEM)?, CTX)?;
        let id = as_str(field(pairs, "id", CTX)?, CTX)?.to_string();
        let index = match field(pairs, "index", CTX)? {
            Json::Null => None,
            v => Some(as_usize(v, CTX)?),
        };
        let ok = as_bool(field(pairs, "ok", CTX)?, CTX)?;
        let payload = if ok {
            let mapping = decode_hatt_mapping_payload(field(pairs, "mapping", CTX)?)?;
            let pauli_weight = as_usize(field(pairs, "pauli_weight", CTX)?, CTX)?;
            ItemPayload::Ok {
                mapping,
                pauli_weight,
            }
        } else {
            const ECTX: &str = "map_item error";
            let ep = as_obj(field(pairs, "error", CTX)?, ECTX)?;
            ItemPayload::Err(ItemError {
                code: as_str(field(ep, "code", ECTX)?, ECTX)?.to_string(),
                message: as_str(field(ep, "message", ECTX)?, ECTX)?.to_string(),
            })
        };
        Ok(MapItem { id, index, payload })
    }

    /// Renders the item as one JSON line.
    pub fn to_line(&self) -> String {
        self.encode().render()
    }
}

/// The terminal line of a response stream (`kind: "map_done"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapDone {
    /// Echo of the request id.
    pub id: String,
    /// Number of `map_item` lines that preceded this one.
    pub items: usize,
    /// How many of them carried errors.
    pub errors: usize,
}

impl MapDone {
    /// Encodes the done envelope.
    pub fn encode(&self) -> Json {
        envelope(
            KIND_DONE,
            Json::Obj(vec![
                ("id".into(), Json::str(&self.id)),
                ("items".into(), Json::int(self.items as u64)),
                ("errors".into(), Json::int(self.errors as u64)),
            ]),
        )
    }

    /// Decodes a done envelope.
    pub fn decode(v: &Json) -> Result<Self, WireError> {
        const CTX: &str = "map_done payload";
        let pairs = as_obj(open_envelope(v, KIND_DONE)?, CTX)?;
        Ok(MapDone {
            id: as_str(field(pairs, "id", CTX)?, CTX)?.to_string(),
            items: as_usize(field(pairs, "items", CTX)?, CTX)?,
            errors: as_usize(field(pairs, "errors", CTX)?, CTX)?,
        })
    }

    /// Renders the done marker as one JSON line.
    pub fn to_line(&self) -> String {
        self.encode().render()
    }
}

/// The observability verb (`kind: "stats_request"`): ask the daemon
/// for its counters. Answered with one [`StatsReply`] line.
///
/// # Examples
///
/// ```
/// use hatt_service::StatsRequest;
///
/// let req = StatsRequest::new("probe-1");
/// let back = StatsRequest::from_line(&req.to_line())?;
/// assert_eq!(back.id, "probe-1");
/// # Ok::<(), hatt_pauli::wire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsRequest {
    /// Caller-chosen identifier, echoed on the reply line.
    pub id: String,
}

impl StatsRequest {
    /// A stats request with the given id.
    pub fn new(id: impl Into<String>) -> Self {
        StatsRequest { id: id.into() }
    }

    /// Encodes the request envelope.
    pub fn encode(&self) -> Json {
        envelope(
            KIND_STATS_REQUEST,
            Json::Obj(vec![("id".into(), Json::str(&self.id))]),
        )
    }

    /// Decodes a stats-request envelope.
    pub fn decode(v: &Json) -> Result<Self, WireError> {
        const CTX: &str = "stats_request payload";
        let pairs = as_obj(open_envelope(v, KIND_STATS_REQUEST)?, CTX)?;
        Ok(StatsRequest {
            id: as_str(field(pairs, "id", CTX)?, CTX)?.to_string(),
        })
    }

    /// Renders the request as one JSON line.
    pub fn to_line(&self) -> String {
        self.encode().render()
    }

    /// Parses a stats-request line.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        Self::decode(&Json::parse(line)?)
    }
}

/// Hit/miss counters of one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Probes answered by this tier.
    pub hits: u64,
    /// Probes this tier could not answer.
    pub misses: u64,
    /// Entries currently held.
    pub entries: usize,
}

/// One histogram bucket of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBucket {
    /// Inclusive upper bound in nanoseconds; `None` is the overflow
    /// bucket.
    pub le_ns: Option<u64>,
    /// Observations that landed in this bucket.
    pub count: u64,
}

/// Per-policy job latency distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyLatency {
    /// The selection policy label (`greedy`, `restarts`, `beam:8`, …).
    pub policy: String,
    /// Total jobs observed under this policy.
    pub count: u64,
    /// Sum of observed latencies in nanoseconds.
    pub total_ns: u64,
    /// The bucketed distribution, ascending bounds, overflow last.
    pub buckets: Vec<LatencyBucket>,
}

/// Health and traffic counters of one routed shard. Only populated by
/// `hattd --route`; a single daemon reports an empty shard list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's address as configured on the router command line.
    pub addr: String,
    /// False while the shard's last forward (including its reconnect
    /// retry) failed; true again after the next success.
    pub healthy: bool,
    /// Jobs accepted for this shard, not yet forwarded.
    pub queue_depth: usize,
    /// Items relayed back from this shard since boot. A `map_delta`
    /// whose delta does not apply is answered by the router itself and
    /// never counts here.
    pub forwarded: u64,
    /// Forward attempts answered with typed errors instead (shard
    /// unreachable or mid-response failure after retry).
    pub errors: u64,
    /// Items shed with `overloaded` because the shard queue was full.
    pub shed: u64,
}

/// Requests served since boot, by verb. All counters are additive wire
/// fields: lines from older daemons decode as zeroes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerbCounters {
    /// `map_request` lines accepted (parse failures excluded).
    pub map: u64,
    /// `map_delta` lines accepted, including edits whose delta does not
    /// apply (answered with a `delta` error item).
    pub map_delta: u64,
    /// `stats_request` lines answered.
    pub stats: u64,
    /// `trace_dump_request` lines answered.
    pub trace_dump: u64,
}

/// Summary of the trace collector, embedded in [`StatsReply`] when the
/// daemon runs with `--trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Ring-buffer capacity (spans retained).
    pub capacity: usize,
    /// Spans recorded since boot (including later-evicted ones).
    pub recorded: u64,
    /// Spans evicted because the ring was full.
    pub dropped: u64,
}

/// The daemon's observability snapshot (`kind: "stats"`), answering a
/// [`StatsRequest`]: queue depth, connection counters, per-tier cache
/// hit/miss, persistent-store health and per-policy latency histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    /// Echo of the request id.
    pub id: String,
    /// Milliseconds since the daemon booted.
    pub uptime_ms: u64,
    /// Requests served since boot, by verb.
    pub verbs: VerbCounters,
    /// Trace-collector summary (`None` when tracing is off).
    pub trace: Option<TraceSummary>,
    /// Jobs queued in the scheduler, not yet dispatched.
    pub queue_depth: usize,
    /// Connections currently being served.
    pub connections: usize,
    /// The configured connection cap.
    pub connection_limit: usize,
    /// Connections turned away at the cap since boot.
    pub connections_rejected: u64,
    /// Request lines discarded for exceeding the line-length cap.
    pub oversize_lines: u64,
    /// Map requests accepted into the scheduler (or, on a router, into
    /// the shard queues) since boot, `map_delta` edits included. An edit
    /// whose delta does not apply is answered before it reaches either,
    /// so it counts only under `verbs.map_delta`.
    pub requests: u64,
    /// Real constructions run (both cache tiers missed and the build
    /// returned a mapping), `map_delta` edits included. Input a build
    /// refuses, such as a zero-mode Hamiltonian, counts nothing.
    pub constructions: u64,
    /// Retired: a `map_delta` edit is counted in `constructions` like
    /// any other build, so daemons always report 0. The wire key stays
    /// for clients that still read it.
    pub remaps: u64,
    /// Queued items skipped because their connection hung up before
    /// dispatch — work the disconnect cancellation saved.
    pub cancelled_items: u64,
    /// Event-loop poll returns across every reactor worker since boot.
    /// An idle server should barely move this counter.
    pub event_loop_wakeups: u64,
    /// The in-memory structure cache tier.
    pub cache: TierStats,
    /// The persistent store tier (`None` when running memory-only).
    pub store: Option<StoreTierStats>,
    /// Per-policy latency histograms, deterministically ordered.
    pub policies: Vec<PolicyLatency>,
    /// Per-shard router health (`hattd --route` only; empty otherwise).
    pub shards: Vec<ShardStats>,
}

impl StatsReply {
    /// Encodes the stats envelope.
    pub fn encode(&self) -> Json {
        let cache = Json::Obj(vec![
            ("hits".into(), Json::int(self.cache.hits)),
            ("misses".into(), Json::int(self.cache.misses)),
            ("entries".into(), Json::int(self.cache.entries as u64)),
        ]);
        let store = match &self.store {
            None => Json::Null,
            Some(s) => Json::Obj(vec![
                ("hits".into(), Json::int(s.hits)),
                ("misses".into(), Json::int(s.misses)),
                ("writes".into(), Json::int(s.writes)),
                ("write_errors".into(), Json::int(s.write_errors)),
                ("entries".into(), Json::int(s.entries as u64)),
                ("file_bytes".into(), Json::int(s.file_bytes)),
            ]),
        };
        let policies = self
            .policies
            .iter()
            .map(|p| {
                let buckets = p
                    .buckets
                    .iter()
                    .map(|b| {
                        Json::Obj(vec![
                            ("le_ns".into(), b.le_ns.map_or(Json::Null, Json::int)),
                            ("count".into(), Json::int(b.count)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("policy".into(), Json::str(&p.policy)),
                    ("count".into(), Json::int(p.count)),
                    ("total_ns".into(), Json::int(p.total_ns)),
                    ("buckets".into(), Json::Arr(buckets)),
                ])
            })
            .collect();
        envelope(
            KIND_STATS,
            Json::Obj(vec![
                ("id".into(), Json::str(&self.id)),
                ("uptime_ms".into(), Json::int(self.uptime_ms)),
                (
                    "verbs".into(),
                    Json::Obj(vec![
                        // Counter keys are the verbs' wire kinds (the
                        // consts, so the registry sees one literal each).
                        ("map".into(), Json::int(self.verbs.map)),
                        (KIND_DELTA_REQUEST.into(), Json::int(self.verbs.map_delta)),
                        (KIND_STATS.into(), Json::int(self.verbs.stats)),
                        (KIND_TRACE_DUMP.into(), Json::int(self.verbs.trace_dump)),
                    ]),
                ),
                (
                    "trace".into(),
                    match &self.trace {
                        None => Json::Null,
                        Some(t) => Json::Obj(vec![
                            ("capacity".into(), Json::int(t.capacity as u64)),
                            ("recorded".into(), Json::int(t.recorded)),
                            ("dropped".into(), Json::int(t.dropped)),
                        ]),
                    },
                ),
                ("queue_depth".into(), Json::int(self.queue_depth as u64)),
                ("connections".into(), Json::int(self.connections as u64)),
                (
                    "connection_limit".into(),
                    Json::int(self.connection_limit as u64),
                ),
                (
                    "connections_rejected".into(),
                    Json::int(self.connections_rejected),
                ),
                ("oversize_lines".into(), Json::int(self.oversize_lines)),
                ("requests".into(), Json::int(self.requests)),
                ("constructions".into(), Json::int(self.constructions)),
                ("remaps".into(), Json::int(self.remaps)),
                ("cancelled_items".into(), Json::int(self.cancelled_items)),
                (
                    "event_loop_wakeups".into(),
                    Json::int(self.event_loop_wakeups),
                ),
                ("cache".into(), cache),
                ("store".into(), store),
                ("policies".into(), Json::Arr(policies)),
                (
                    "shards".into(),
                    Json::Arr(
                        self.shards
                            .iter()
                            .map(|s| {
                                Json::Obj(vec![
                                    ("addr".into(), Json::str(&s.addr)),
                                    ("healthy".into(), Json::Bool(s.healthy)),
                                    ("queue_depth".into(), Json::int(s.queue_depth as u64)),
                                    ("forwarded".into(), Json::int(s.forwarded)),
                                    ("errors".into(), Json::int(s.errors)),
                                    ("shed".into(), Json::int(s.shed)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        )
    }

    /// Decodes a stats envelope.
    pub fn decode(v: &Json) -> Result<Self, WireError> {
        const CTX: &str = "stats payload";
        let pairs = as_obj(open_envelope(v, KIND_STATS)?, CTX)?;
        const CCTX: &str = "stats cache";
        let cp = as_obj(field(pairs, "cache", CTX)?, CCTX)?;
        let cache = TierStats {
            hits: as_u64(field(cp, "hits", CCTX)?, CCTX)?,
            misses: as_u64(field(cp, "misses", CCTX)?, CCTX)?,
            entries: as_usize(field(cp, "entries", CCTX)?, CCTX)?,
        };
        const SCTX: &str = "stats store";
        let store = match field(pairs, "store", CTX)? {
            Json::Null => None,
            v => {
                let sp = as_obj(v, SCTX)?;
                Some(StoreTierStats {
                    hits: as_u64(field(sp, "hits", SCTX)?, SCTX)?,
                    misses: as_u64(field(sp, "misses", SCTX)?, SCTX)?,
                    writes: as_u64(field(sp, "writes", SCTX)?, SCTX)?,
                    write_errors: as_u64(field(sp, "write_errors", SCTX)?, SCTX)?,
                    entries: as_usize(field(sp, "entries", SCTX)?, SCTX)?,
                    file_bytes: as_u64(field(sp, "file_bytes", SCTX)?, SCTX)?,
                })
            }
        };
        const PCTX: &str = "stats policy";
        let mut policies = Vec::new();
        for p in as_arr(field(pairs, "policies", CTX)?, CTX)? {
            let pp = as_obj(p, PCTX)?;
            let mut buckets = Vec::new();
            for b in as_arr(field(pp, "buckets", PCTX)?, PCTX)? {
                let bp = as_obj(b, PCTX)?;
                buckets.push(LatencyBucket {
                    le_ns: match field(bp, "le_ns", PCTX)? {
                        Json::Null => None,
                        v => Some(as_u64(v, PCTX)?),
                    },
                    count: as_u64(field(bp, "count", PCTX)?, PCTX)?,
                });
            }
            policies.push(PolicyLatency {
                policy: as_str(field(pp, "policy", PCTX)?, PCTX)?.to_string(),
                count: as_u64(field(pp, "count", PCTX)?, PCTX)?,
                total_ns: as_u64(field(pp, "total_ns", PCTX)?, PCTX)?,
                buckets,
            });
        }
        Ok(StatsReply {
            id: as_str(field(pairs, "id", CTX)?, CTX)?.to_string(),
            // Additive (tracing PR): absent on lines from older daemons.
            uptime_ms: match get(pairs, "uptime_ms") {
                None | Some(Json::Null) => 0,
                Some(v) => as_u64(v, CTX)?,
            },
            verbs: match get(pairs, "verbs") {
                None | Some(Json::Null) => VerbCounters::default(),
                Some(v) => {
                    const VCTX: &str = "stats verbs";
                    let vp = as_obj(v, VCTX)?;
                    let count = |key: &str| -> Result<u64, WireError> {
                        match get(vp, key) {
                            None | Some(Json::Null) => Ok(0),
                            Some(v) => as_u64(v, VCTX),
                        }
                    };
                    VerbCounters {
                        map: count("map")?,
                        map_delta: count(KIND_DELTA_REQUEST)?,
                        stats: count(KIND_STATS)?,
                        trace_dump: count(KIND_TRACE_DUMP)?,
                    }
                }
            },
            trace: match get(pairs, "trace") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    const TCTX: &str = "stats trace";
                    let tp = as_obj(v, TCTX)?;
                    Some(TraceSummary {
                        capacity: as_usize(field(tp, "capacity", TCTX)?, TCTX)?,
                        recorded: as_u64(field(tp, "recorded", TCTX)?, TCTX)?,
                        dropped: as_u64(field(tp, "dropped", TCTX)?, TCTX)?,
                    })
                }
            },
            queue_depth: as_usize(field(pairs, "queue_depth", CTX)?, CTX)?,
            connections: as_usize(field(pairs, "connections", CTX)?, CTX)?,
            connection_limit: as_usize(field(pairs, "connection_limit", CTX)?, CTX)?,
            connections_rejected: as_u64(field(pairs, "connections_rejected", CTX)?, CTX)?,
            oversize_lines: as_u64(field(pairs, "oversize_lines", CTX)?, CTX)?,
            requests: as_u64(field(pairs, "requests", CTX)?, CTX)?,
            constructions: as_u64(field(pairs, "constructions", CTX)?, CTX)?,
            // Absent on lines from pre-remap daemons; default to zero so
            // newer probes can read older servers.
            remaps: match get(pairs, "remaps") {
                None | Some(Json::Null) => 0,
                Some(v) => as_u64(v, CTX)?,
            },
            // Likewise additive (event-loop rework): tolerate absence.
            cancelled_items: match get(pairs, "cancelled_items") {
                None | Some(Json::Null) => 0,
                Some(v) => as_u64(v, CTX)?,
            },
            event_loop_wakeups: match get(pairs, "event_loop_wakeups") {
                None | Some(Json::Null) => 0,
                Some(v) => as_u64(v, CTX)?,
            },
            cache,
            store,
            policies,
            // Additive (shard router): absent means "not a router".
            shards: match get(pairs, "shards") {
                None | Some(Json::Null) => Vec::new(),
                Some(v) => {
                    const SHCTX: &str = "stats shard";
                    let mut shards = Vec::new();
                    for s in as_arr(v, CTX)? {
                        let sp = as_obj(s, SHCTX)?;
                        shards.push(ShardStats {
                            addr: as_str(field(sp, "addr", SHCTX)?, SHCTX)?.to_string(),
                            healthy: as_bool(field(sp, "healthy", SHCTX)?, SHCTX)?,
                            queue_depth: as_usize(field(sp, "queue_depth", SHCTX)?, SHCTX)?,
                            forwarded: as_u64(field(sp, "forwarded", SHCTX)?, SHCTX)?,
                            errors: as_u64(field(sp, "errors", SHCTX)?, SHCTX)?,
                            shed: as_u64(field(sp, "shed", SHCTX)?, SHCTX)?,
                        });
                    }
                    shards
                }
            },
        })
    }

    /// Renders the stats reply as one JSON line.
    pub fn to_line(&self) -> String {
        self.encode().render()
    }

    /// Parses a stats line.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        Self::decode(&Json::parse(line)?)
    }
}

/// The trace verb (`kind: "trace_dump_request"`): ask a `--trace`
/// daemon for its recently retained span trees. Answered with one
/// [`TraceDumpReply`] line.
///
/// # Examples
///
/// ```
/// use hatt_service::TraceDumpRequest;
///
/// let req = TraceDumpRequest::new("dump-1").with_max_traces(8);
/// let back = TraceDumpRequest::from_line(&req.to_line())?;
/// assert_eq!(back.id, "dump-1");
/// assert_eq!(back.max_traces, Some(8));
/// # Ok::<(), hatt_pauli::wire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDumpRequest {
    /// Caller-chosen identifier, echoed on the reply line.
    pub id: String,
    /// Most-recent trace cap (`None` = every retained trace).
    pub max_traces: Option<usize>,
}

impl TraceDumpRequest {
    /// A dump request for every retained trace.
    pub fn new(id: impl Into<String>) -> Self {
        TraceDumpRequest {
            id: id.into(),
            max_traces: None,
        }
    }

    /// Caps the reply to the `max` most recent traces.
    pub fn with_max_traces(mut self, max: usize) -> Self {
        self.max_traces = Some(max);
        self
    }

    /// Encodes the request envelope.
    pub fn encode(&self) -> Json {
        let mut payload = vec![("id".into(), Json::str(&self.id))];
        if let Some(max) = self.max_traces {
            payload.push(("max_traces".into(), Json::int(max as u64)));
        }
        envelope(KIND_TRACE_DUMP_REQUEST, Json::Obj(payload))
    }

    /// Decodes a trace-dump-request envelope.
    pub fn decode(v: &Json) -> Result<Self, WireError> {
        const CTX: &str = "trace_dump_request payload";
        let pairs = as_obj(open_envelope(v, KIND_TRACE_DUMP_REQUEST)?, CTX)?;
        Ok(TraceDumpRequest {
            id: as_str(field(pairs, "id", CTX)?, CTX)?.to_string(),
            max_traces: match get(pairs, "max_traces") {
                None | Some(Json::Null) => None,
                Some(v) => Some(as_usize(v, CTX)?),
            },
        })
    }

    /// Renders the request as one JSON line.
    pub fn to_line(&self) -> String {
        self.encode().render()
    }

    /// Parses a trace-dump-request line.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        Self::decode(&Json::parse(line)?)
    }
}

/// One completed span on the wire (inside a [`TraceTree`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Host-unique span identifier.
    pub span_id: u64,
    /// Parent span ID (`0` = root of the trace).
    pub parent_span: u64,
    /// Stage name (`"queue.wait"`, `"construct"`, …).
    pub name: String,
    /// Start time, nanoseconds since the *recording process's*
    /// monotonic epoch — comparable within one daemon only.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Every retained span of one trace, in recording order (children
/// complete before their parents). The tree shape is carried by
/// `parent_span` links; spans forwarded across daemons share the trace
/// ID, so router and shard dumps merge by concatenation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// The trace these spans belong to.
    pub trace_id: u64,
    /// The spans, oldest first.
    pub spans: Vec<TraceSpan>,
}

/// The trace dump (`kind: "trace_dump"`), answering a
/// [`TraceDumpRequest`] with recent span trees, oldest trace first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDumpReply {
    /// Echo of the request id.
    pub id: String,
    /// Whether the daemon records spans (`false` = no `--trace`; the
    /// trace list is then empty).
    pub enabled: bool,
    /// Retained traces, ordered by first recorded span.
    pub traces: Vec<TraceTree>,
}

impl TraceDumpReply {
    /// Groups a collector snapshot into per-trace span lists, keeping
    /// the `max_traces` most recent traces (by first appearance).
    pub fn from_spans(
        id: impl Into<String>,
        enabled: bool,
        spans: &[SpanRecord],
        max_traces: Option<usize>,
    ) -> Self {
        let mut order: Vec<u64> = Vec::new();
        let mut groups: std::collections::BTreeMap<u64, Vec<TraceSpan>> =
            std::collections::BTreeMap::new();
        for s in spans {
            let group = groups.entry(s.trace_id).or_default();
            if group.is_empty() {
                order.push(s.trace_id);
            }
            group.push(TraceSpan {
                span_id: s.span_id,
                parent_span: s.parent_span,
                name: s.name.to_string(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
            });
        }
        let keep = max_traces.unwrap_or(usize::MAX);
        let skip = order.len().saturating_sub(keep);
        let traces = order
            .into_iter()
            .skip(skip)
            .map(|trace_id| TraceTree {
                trace_id,
                spans: groups.remove(&trace_id).unwrap_or_default(),
            })
            .collect();
        TraceDumpReply {
            id: id.into(),
            enabled,
            traces,
        }
    }

    /// Encodes the dump envelope.
    pub fn encode(&self) -> Json {
        let mask = i64::MAX as u64;
        let traces = self
            .traces
            .iter()
            .map(|t| {
                let spans = t
                    .spans
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("span_id".into(), Json::int(s.span_id & mask)),
                            ("parent_span".into(), Json::int(s.parent_span & mask)),
                            ("name".into(), Json::str(&s.name)),
                            ("start_ns".into(), Json::int(s.start_ns & mask)),
                            ("dur_ns".into(), Json::int(s.dur_ns & mask)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("trace_id".into(), Json::int(t.trace_id & mask)),
                    ("spans".into(), Json::Arr(spans)),
                ])
            })
            .collect();
        envelope(
            KIND_TRACE_DUMP,
            Json::Obj(vec![
                ("id".into(), Json::str(&self.id)),
                ("enabled".into(), Json::Bool(self.enabled)),
                ("traces".into(), Json::Arr(traces)),
            ]),
        )
    }

    /// Decodes a dump envelope.
    pub fn decode(v: &Json) -> Result<Self, WireError> {
        const CTX: &str = "trace_dump payload";
        let pairs = as_obj(open_envelope(v, KIND_TRACE_DUMP)?, CTX)?;
        const TCTX: &str = "trace_dump trace";
        let mut traces = Vec::new();
        for t in as_arr(field(pairs, "traces", CTX)?, CTX)? {
            let tp = as_obj(t, TCTX)?;
            let mut spans = Vec::new();
            for s in as_arr(field(tp, "spans", TCTX)?, TCTX)? {
                let sp = as_obj(s, TCTX)?;
                spans.push(TraceSpan {
                    span_id: as_u64(field(sp, "span_id", TCTX)?, TCTX)?,
                    parent_span: as_u64(field(sp, "parent_span", TCTX)?, TCTX)?,
                    name: as_str(field(sp, "name", TCTX)?, TCTX)?.to_string(),
                    start_ns: as_u64(field(sp, "start_ns", TCTX)?, TCTX)?,
                    dur_ns: as_u64(field(sp, "dur_ns", TCTX)?, TCTX)?,
                });
            }
            traces.push(TraceTree {
                trace_id: as_u64(field(tp, "trace_id", TCTX)?, TCTX)?,
                spans,
            });
        }
        Ok(TraceDumpReply {
            id: as_str(field(pairs, "id", CTX)?, CTX)?.to_string(),
            enabled: as_bool(field(pairs, "enabled", CTX)?, CTX)?,
            traces,
        })
    }

    /// Renders the dump as one JSON line.
    pub fn to_line(&self) -> String {
        self.encode().render()
    }

    /// Parses a trace-dump line.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        Self::decode(&Json::parse(line)?)
    }
}

/// One parsed request line: a mapping batch, a session edit, a stats
/// probe or a trace dump.
#[derive(Debug, Clone)]
pub enum RequestLine {
    /// A batch mapping request.
    Map(MapRequest),
    /// A session-edit request.
    Delta(MapDeltaRequest),
    /// An observability probe.
    Stats(StatsRequest),
    /// A span-tree dump request.
    TraceDump(TraceDumpRequest),
}

impl RequestLine {
    /// Parses one request line, dispatching on the envelope kind: a
    /// `map_request` or `map_delta` line in one pass when
    /// [`RequestLine::read_line`] takes it, any other line through the
    /// tree ([`RequestLine::decode`]), which also produces every error.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        Self::read_line(line).or_else(|_| Self::decode(&Json::parse(line)?))
    }

    /// The one-pass reader behind every request `from_line`: decodes a
    /// `map_request` or `map_delta` line straight into the request, with
    /// no [`Json`] tree (see [`read_envelope`]). It takes every line
    /// [`MapRequest::to_line`] and [`MapDeltaRequest::to_line`] write, and
    /// returns what [`RequestLine::decode`] would. An error only means it
    /// does not take the line, not why.
    pub fn read_line(line: &str) -> Result<Self, WireError> {
        let mut r = Reader::new(line);
        let req = read_envelope(&mut r, |r, kind| match kind {
            KIND_REQUEST => read_map_payload(r).map(RequestLine::Map),
            KIND_DELTA_REQUEST => read_delta_payload(r).map(RequestLine::Delta),
            _ => Err(WireError::schema("request line", "not read in one pass")),
        })?;
        r.finish()?;
        Ok(req)
    }

    /// Decodes a parsed request line, dispatching on the envelope kind.
    pub fn decode(v: &Json) -> Result<Self, WireError> {
        let pairs = as_obj(v, "request envelope")?;
        let kind = get(pairs, "kind")
            .and_then(|k| match k {
                Json::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .unwrap_or_default();
        match kind {
            KIND_STATS_REQUEST => Ok(RequestLine::Stats(StatsRequest::decode(v)?)),
            KIND_TRACE_DUMP_REQUEST => Ok(RequestLine::TraceDump(TraceDumpRequest::decode(v)?)),
            KIND_DELTA_REQUEST => Ok(RequestLine::Delta(MapDeltaRequest::decode(v)?)),
            // Anything else goes through the map-request decoder so the
            // error message names the expected kind (and legacy clients
            // that only speak map_request keep their exact errors).
            _ => Ok(RequestLine::Map(MapRequest::decode(v)?)),
        }
    }
}

/// One parsed response line: an item or the done marker.
// The size difference between the variants is fine: response lines are
// transient parse results, never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ResponseLine {
    /// A per-item result.
    Item(MapItem),
    /// The end-of-response marker.
    Done(MapDone),
}

impl ResponseLine {
    /// Parses one response line, dispatching on the envelope kind.
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        let v = Json::parse(line)?;
        let pairs = as_obj(&v, "response envelope")?;
        let kind = get(pairs, "kind")
            .and_then(|k| match k {
                Json::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .unwrap_or_default();
        match kind {
            KIND_ITEM => Ok(ResponseLine::Item(MapItem::decode(&v)?)),
            KIND_DONE => Ok(ResponseLine::Done(MapDone::decode(&v)?)),
            other => Err(WireError::Kind {
                expected: "map_item | map_done",
                found: other.to_string(),
            }),
        }
    }
}

/// Sends `line` and its terminating `\n` in one `write_all`. Sent as
/// two writes, the newline of a long line can sit behind Nagle's
/// algorithm until the peer's delayed ACK (~40 ms), while the peer waits
/// for that newline before it answers.
pub(crate) fn write_line(w: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatt_core::Mapper;
    use hatt_pauli::Complex64;

    fn sample_hams() -> Vec<MajoranaSum> {
        let mut a = MajoranaSum::new(2);
        a.add(Complex64::ONE, &[0, 1]);
        a.add(Complex64::real(0.5), &[0, 1, 2, 3]);
        vec![a, MajoranaSum::uniform_singles(3)]
    }

    #[test]
    fn request_round_trips_with_options_and_pin() {
        let mut req = MapRequest::new("r1", sample_hams());
        req.options = Some(HattOptions {
            policy: SelectionPolicy::Beam { width: 4 },
            ..Default::default()
        });
        req.n_modes = Some(2);
        let back = MapRequest::from_line(&req.to_line()).unwrap();
        assert_eq!(back.id, "r1");
        assert_eq!(
            back.options.unwrap().policy,
            SelectionPolicy::Beam { width: 4 }
        );
        assert_eq!(back.n_modes, Some(2));
        assert_eq!(back.hamiltonians.len(), 2);
        assert_eq!(back.hamiltonians[0], req.hamiltonians[0]);
    }

    #[test]
    fn item_round_trips_both_arms() {
        let h = sample_hams().remove(0);
        let mapping = Mapper::new().map(&h).unwrap();
        let weight = mapping.map_majorana_sum(&h).weight();
        let item = MapItem {
            id: "r1".into(),
            index: Some(0),
            payload: ItemPayload::Ok {
                mapping: mapping.clone(),
                pauli_weight: weight,
            },
        };
        match ResponseLine::from_line(&item.to_line()).unwrap() {
            ResponseLine::Item(back) => {
                assert_eq!(back.index, Some(0));
                assert_eq!(back.mapping().unwrap().tree(), mapping.tree());
            }
            other => panic!("{other:?}"),
        }
        let err_item = MapItem {
            id: "r1".into(),
            index: None,
            payload: ItemPayload::Err(ItemError::invalid_request("nope")),
        };
        match ResponseLine::from_line(&err_item.to_line()).unwrap() {
            ResponseLine::Item(back) => {
                assert_eq!(back.index, None);
                assert_eq!(back.error().unwrap().code, "invalid_request");
            }
            other => panic!("{other:?}"),
        }
        let done = MapDone {
            id: "r1".into(),
            items: 2,
            errors: 1,
        };
        match ResponseLine::from_line(&done.to_line()).unwrap() {
            ResponseLine::Done(back) => assert_eq!(back, done),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delta_request_round_trips_and_dispatches() {
        let base = sample_hams().remove(0);
        let mut delta = hatt_fermion::HamiltonianDelta::new(base.n_modes());
        delta.push_add(Complex64::real(0.25), &[0, 2]).unwrap();
        delta.push_remove(Complex64::ONE, &[0, 1]).unwrap();
        let mut req = MapDeltaRequest::new("d1", base.clone(), delta.clone());
        req.options = Some(HattOptions {
            policy: SelectionPolicy::Vanilla,
            ..Default::default()
        });
        let back = MapDeltaRequest::from_line(&req.to_line()).unwrap();
        assert_eq!(back.id, "d1");
        assert_eq!(back.options.unwrap().policy, SelectionPolicy::Vanilla);
        assert_eq!(back.hamiltonian, base);
        assert_eq!(back.delta.ops(), delta.ops());
        match RequestLine::from_line(&req.to_line()).unwrap() {
            RequestLine::Delta(d) => assert_eq!(d.id, "d1"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_delta_request_names_the_map_request_of_its_edit() {
        let base = sample_hams().remove(0);
        let mut delta = hatt_fermion::HamiltonianDelta::new(base.n_modes());
        delta.push_add(Complex64::real(0.25), &[0, 2]).unwrap();
        let mut req = MapDeltaRequest::new("d1", base.clone(), delta.clone());
        req.options = Some(HattOptions::with_policy(SelectionPolicy::Vanilla));
        req.trace = Some(TraceCtx {
            trace_id: 7,
            parent_span: 9,
        });
        let map = req.clone().into_map_request().unwrap();
        assert_eq!(
            (map.id.as_str(), map.options, map.n_modes),
            ("d1", req.options, None)
        );
        assert_eq!(map.trace, req.trace);
        assert_eq!(map.hamiltonians, [delta.apply(&base).unwrap()]);

        // Removing a term the base lacks does not apply: the answer is
        // the `delta` error item at index 0.
        req.delta = delta.inverted();
        let item = req.into_map_request().unwrap_err();
        assert_eq!((item.id.as_str(), item.index), ("d1", Some(0)));
        assert_eq!(item.error().unwrap().code, "delta");
    }

    #[test]
    fn malformed_delta_requests_fail_typed() {
        for line in [
            r#"{"format":"hatt-wire/1","kind":"map_delta","payload":{}}"#,
            r#"{"format":"hatt-wire/1","kind":"map_delta","payload":{"id":"x"}}"#,
            r#"{"format":"hatt-wire/1","kind":"map_delta","payload":{"id":"x","hamiltonian":{"n_modes":2,"terms":[]}}}"#,
            r#"{"format":"hatt-wire/1","kind":"map_delta","payload":{"id":"x","hamiltonian":{"n_modes":2,"terms":[]},"delta":{"n_modes":2,"ops":[{"op":"frob","re":1,"im":0,"idx":[0]}]}}}"#,
        ] {
            assert!(MapDeltaRequest::from_line(line).is_err(), "{line:?}");
            assert!(RequestLine::from_line(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn malformed_requests_fail_typed() {
        for line in [
            "",
            "not json",
            r#"{"format":"hatt-wire/1","kind":"map_request","payload":{}}"#,
            r#"{"format":"hatt-wire/1","kind":"map_request","payload":{"id":"x"}}"#,
            r#"{"format":"hatt-wire/1","kind":"map_request","payload":{"id":"x","options":{"policy":"bogus"},"hamiltonians":[]}}"#,
            r#"{"format":"hatt-wire/0","kind":"map_request","payload":{"id":"x","hamiltonians":[]}}"#,
        ] {
            assert!(MapRequest::from_line(line).is_err(), "{line:?}");
        }
    }
}
