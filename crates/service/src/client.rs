//! Client helper for the `hattd` line protocol: write one request,
//! stream the per-item response lines, return everything once the
//! `map_done` marker arrives.

use std::io::{BufRead, BufReader, Lines};
use std::net::{TcpStream, ToSocketAddrs};

use hatt_pauli::wire::WireError;

use crate::error::ServiceError;
use crate::proto::{
    write_line, MapDeltaRequest, MapDone, MapItem, MapRequest, ResponseLine, StatsReply,
    StatsRequest, TraceDumpReply, TraceDumpRequest,
};

/// A complete response to one request.
#[derive(Debug)]
pub struct MapReply {
    /// The per-item results, in **arrival (completion) order** — use
    /// [`MapReply::into_ordered`] for request order.
    pub items: Vec<MapItem>,
    /// The terminal marker.
    pub done: MapDone,
}

impl MapReply {
    /// The items sorted back into request order (request-level errors,
    /// which carry no index, come first).
    pub fn into_ordered(mut self) -> Vec<MapItem> {
        self.items.sort_by_key(|i| i.index);
        self.items
    }
}

/// Sends `req` to a `hattd` server and collects the streamed response.
///
/// # Examples
///
/// See [`crate::Server`] — the doctest there round-trips a request
/// through a real socket.
pub fn request(addr: impl ToSocketAddrs, req: &MapRequest) -> Result<MapReply, ServiceError> {
    request_streaming(addr, req, |_| {})
}

/// Like [`request`], additionally invoking `on_item` for every item
/// line **as it arrives** — the streaming consumer hook (progress bars,
/// incremental pipelines).
pub fn request_streaming(
    addr: impl ToSocketAddrs,
    req: &MapRequest,
    on_item: impl FnMut(&MapItem),
) -> Result<MapReply, ServiceError> {
    exchange(addr, req.to_line(), &req.id, on_item)
}

/// Sends a [`MapDeltaRequest`] — incremental remapping of a base
/// Hamiltonian plus a structural delta — and collects the single-item
/// response. When the daemon still knows the base structure's tree,
/// the build counts as a remap of it (`stats.remaps`) rather than as a
/// cold construction.
///
/// # Examples
///
/// ```
/// use hatt_core::Mapper;
/// use hatt_fermion::{HamiltonianDelta, MajoranaSum};
/// use hatt_pauli::Complex64;
/// use hatt_service::{client, MapDeltaRequest, MapRequest, Server, ServerConfig};
///
/// let server = Server::bind("127.0.0.1:0", Mapper::new(), ServerConfig::default())?;
/// let base = MajoranaSum::uniform_singles(3);
/// // Warm the daemon's cache with the base structure…
/// client::request(server.local_addr(), &MapRequest::new("warm", vec![base.clone()]))?;
/// // …then remap a one-term edit of it incrementally.
/// let mut delta = HamiltonianDelta::new(3);
/// delta.push_add(Complex64::real(0.5), &[0, 1, 2, 3]).unwrap();
/// let reply = client::remap(server.local_addr(), &MapDeltaRequest::new("step", base, delta))?;
/// assert_eq!(reply.done.items, 1);
/// assert!(reply.items[0].is_ok());
/// let stats = client::stats(server.local_addr(), "probe")?;
/// assert_eq!(stats.remaps, 1);
/// server.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn remap(addr: impl ToSocketAddrs, req: &MapDeltaRequest) -> Result<MapReply, ServiceError> {
    exchange(addr, req.to_line(), &req.id, |_| {})
}

/// Writes one request line and collects the streamed `map_item` lines
/// up to the `map_done` marker — the shared transport loop behind
/// [`request_streaming`] and [`remap`].
fn exchange(
    addr: impl ToSocketAddrs,
    request_line: String,
    id: &str,
    mut on_item: impl FnMut(&MapItem),
) -> Result<MapReply, ServiceError> {
    let mut items = Vec::new();
    for line in send(addr, request_line)? {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match ResponseLine::from_line(&line)? {
            ResponseLine::Item(item) => {
                if item.id != id && !item.id.is_empty() {
                    return Err(ServiceError::Protocol(format!(
                        "response for request {:?} while waiting on {id:?}",
                        item.id
                    )));
                }
                on_item(&item);
                items.push(item);
            }
            ResponseLine::Done(done) => {
                if done.items != items.len() {
                    return Err(ServiceError::Protocol(format!(
                        "done marker counts {} items, received {}",
                        done.items,
                        items.len()
                    )));
                }
                return Ok(MapReply { items, done });
            }
        }
    }
    Err(ServiceError::Protocol(
        "connection closed before map_done".into(),
    ))
}

/// Asks a `hattd` server for its observability snapshot (queue depth,
/// cache and store hit/miss, per-policy latency histograms).
///
/// # Examples
///
/// See [`crate::Server`] — the doctest there probes a live daemon.
pub fn stats(addr: impl ToSocketAddrs, id: impl Into<String>) -> Result<StatsReply, ServiceError> {
    let req = StatsRequest::new(id);
    let reply = probe(addr, req.to_line(), "stats", StatsReply::from_line)?;
    if reply.id != req.id {
        return Err(ServiceError::Protocol(format!(
            "stats for probe {:?} while waiting on {:?}",
            reply.id, req.id
        )));
    }
    Ok(reply)
}

/// Asks a `--trace` daemon for its recent span trees (the `trace_dump`
/// verb). On a daemon without tracing the reply comes back with
/// `enabled: false` and no traces — asking is always safe.
///
/// # Examples
///
/// ```
/// use hatt_core::Mapper;
/// use hatt_fermion::MajoranaSum;
/// use hatt_service::{client, MapRequest, Server, ServerConfig};
///
/// let config = ServerConfig { trace: true, ..ServerConfig::default() };
/// let server = Server::bind("127.0.0.1:0", Mapper::new(), config)?;
/// let req = MapRequest::new("traced", vec![MajoranaSum::uniform_singles(2)]);
/// client::request(server.local_addr(), &req)?;
/// let dump = client::trace_dump(server.local_addr(), "probe")?;
/// assert!(dump.enabled);
/// assert_eq!(dump.traces.len(), 1);
/// assert!(dump.traces[0].spans.iter().any(|s| s.name == "construct"));
/// server.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn trace_dump(
    addr: impl ToSocketAddrs,
    id: impl Into<String>,
) -> Result<TraceDumpReply, ServiceError> {
    let req = TraceDumpRequest::new(id);
    let reply = probe(addr, req.to_line(), "trace_dump", TraceDumpReply::from_line)?;
    if reply.id != req.id {
        return Err(ServiceError::Protocol(format!(
            "trace dump for probe {:?} while waiting on {:?}",
            reply.id, req.id
        )));
    }
    Ok(reply)
}

/// Sends a one-line probe and decodes the first non-blank reply line.
fn probe<R>(
    addr: impl ToSocketAddrs,
    request_line: String,
    what: &str,
    decode: impl FnOnce(&str) -> Result<R, WireError>,
) -> Result<R, ServiceError> {
    for line in send(addr, request_line)? {
        let line = line?;
        if !line.trim().is_empty() {
            return Ok(decode(&line)?);
        }
    }
    Err(ServiceError::Protocol(format!(
        "connection closed before the {what} line"
    )))
}

/// Opens a no-delay connection, writes `request_line` in one write and
/// returns the reply lines.
fn send(
    addr: impl ToSocketAddrs,
    request_line: String,
) -> Result<Lines<BufReader<TcpStream>>, ServiceError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    write_line(&mut stream, request_line)?;
    Ok(reader.lines())
}
