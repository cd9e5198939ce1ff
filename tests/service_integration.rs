//! Service-layer integration: boot `hattd` (the library server the
//! binary wraps) on an ephemeral port, map the Table I roster over the
//! socket, and assert every streamed response is **bit-identical** to
//! the in-process `Mapper` result. Also pins the typed-error paths: a
//! malformed line, a zero-mode item and a mode-pin violation each come
//! back as error lines without wedging the connection or the batch.
//! A server restarted on its store file serves from disk, and the
//! exact lines a non-Rust client writes are answered as documented.

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hatt::core::{HattOptions, Mapper, Variant};
use hatt::fermion::models::{molecule_catalog, NeutrinoModel};
use hatt::fermion::{HamiltonianDelta, MajoranaSum};
use hatt::mappings::{validate, FermionMapping, SelectionPolicy};
use hatt::pauli::Complex64;
use hatt::service::{
    client, MapDeltaRequest, MapRequest, ResponseLine, SchedulerConfig, Server, ServerConfig,
    TierStats,
};

fn preprocess(h: &hatt::fermion::FermionOperator) -> MajoranaSum {
    let mut m = MajoranaSum::from_fermion(h);
    let _ = m.take_identity();
    m.prune(1e-10);
    m
}

/// The Table I roster: every catalog molecule (4–30 modes) plus two
/// neutrino models.
fn roster() -> Vec<(String, MajoranaSum)> {
    let mut cases: Vec<(String, MajoranaSum)> = molecule_catalog()
        .into_iter()
        .map(|spec| (spec.name.to_string(), preprocess(&spec.hamiltonian())))
        .collect();
    for (s, f) in [(3usize, 2usize), (4, 2)] {
        let model = NeutrinoModel::new(s, f);
        cases.push((
            format!("neutrino {}", model.label()),
            preprocess(&model.hamiltonian()),
        ));
    }
    cases
}

fn boot(mapper: Mapper) -> Server {
    Server::bind("127.0.0.1:0", mapper, ServerConfig::default()).expect("bind ephemeral port")
}

#[test]
fn table1_roster_over_tcp_is_bit_identical_to_in_process() {
    let server = boot(Mapper::new());
    let cases = roster();
    let hams: Vec<MajoranaSum> = cases.iter().map(|(_, h)| h.clone()).collect();

    let req = MapRequest::new("table1", hams.clone());
    let reply = client::request(server.local_addr(), &req).expect("socket round trip");
    assert_eq!(reply.done.items, hams.len());
    assert_eq!(reply.done.errors, 0);
    let items = reply.into_ordered();

    // The reference mapper runs the identical configuration in-process.
    let reference = Mapper::new();
    for (i, ((name, h), item)) in cases.iter().zip(&items).enumerate() {
        assert_eq!(item.index, Some(i), "{name}: stream index");
        let remote = item.mapping().unwrap_or_else(|| {
            panic!("{name}: error item {:?}", item.error());
        });
        let local = reference.map(h).expect("roster maps");
        assert_eq!(remote.tree(), local.tree(), "{name}: tree drifted over TCP");
        assert_eq!(
            remote.stats().total_weight(),
            local.stats().total_weight(),
            "{name}: settled weight drifted"
        );
        assert_eq!(
            remote.map_majorana_sum(h).weight(),
            local.map_majorana_sum(h).weight(),
            "{name}: mapped weight drifted"
        );
        let report = validate(remote);
        assert!(report.is_valid(), "{name}: invalid over the wire");
    }
    server.shutdown();
}

#[test]
fn responses_stream_one_line_per_item() {
    let server = boot(Mapper::new());
    let hams: Vec<MajoranaSum> = (2..7).map(MajoranaSum::uniform_singles).collect();
    let req = MapRequest::new("stream", hams.clone());

    // Raw socket: count the lines ourselves.
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send");
    writer.flush().expect("flush");
    let reader = BufReader::new(stream);
    let mut item_lines = 0usize;
    let mut done = false;
    for line in reader.lines() {
        let line = line.expect("read line");
        match ResponseLine::from_line(&line).expect("parse response") {
            ResponseLine::Item(item) => {
                assert!(item.is_ok());
                item_lines += 1;
            }
            ResponseLine::Done(d) => {
                assert_eq!(d.items, hams.len());
                done = true;
                break;
            }
        }
    }
    assert!(done, "missing map_done line");
    assert_eq!(item_lines, hams.len(), "one line per batch item");
    server.shutdown();
}

#[test]
fn request_options_override_the_server_default() {
    let server = boot(Mapper::new()); // greedy default
    let mut h = MajoranaSum::from_fermion(&NeutrinoModel::new(3, 2).hamiltonian());
    let _ = h.take_identity();

    let mut req = MapRequest::new("quality", vec![h.clone()]);
    req.options = Some(HattOptions::with_policy(SelectionPolicy::Restarts));
    let items = client::request(server.local_addr(), &req)
        .expect("round trip")
        .into_ordered();
    let remote = items[0].mapping().expect("ok item");

    let local = Mapper::builder()
        .policy(SelectionPolicy::Restarts)
        .build()
        .unwrap()
        .map(&h)
        .unwrap();
    assert_eq!(remote.tree(), local.tree(), "per-request policy honoured");
    server.shutdown();
}

#[test]
fn malformed_and_invalid_inputs_come_back_as_typed_error_lines() {
    let server = boot(Mapper::new());
    let addr = server.local_addr();

    // 1. Garbage line → invalid_request item + done; connection stays up.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(b"this is not a request\n").expect("send");
    writer.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    match ResponseLine::from_line(&line).expect("parse") {
        ResponseLine::Item(item) => {
            assert!(!item.is_ok());
            assert_eq!(item.index, None);
            assert_eq!(item.error().unwrap().code, "invalid_request");
        }
        other => panic!("{other:?}"),
    }
    line.clear();
    reader.read_line(&mut line).expect("done line");
    assert!(matches!(
        ResponseLine::from_line(&line).expect("parse"),
        ResponseLine::Done(_)
    ));

    // 2. Same connection, now a valid request: still served.
    let req = MapRequest::new("after-error", vec![MajoranaSum::uniform_singles(2)]);
    writer
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send valid");
    writer.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("item line");
    match ResponseLine::from_line(&line).expect("parse") {
        ResponseLine::Item(item) => assert!(item.is_ok(), "connection wedged after error"),
        other => panic!("{other:?}"),
    }

    // 3. Zero-mode and mode-pinned items fail individually via the
    //    client helper; valid siblings still map.
    let mut req = MapRequest::new(
        "mixed",
        vec![
            MajoranaSum::uniform_singles(3),
            MajoranaSum::new(0),
            MajoranaSum::uniform_singles(2),
        ],
    );
    let items = client::request(addr, &req)
        .expect("round trip")
        .into_ordered();
    assert!(items[0].is_ok());
    assert_eq!(items[1].error().unwrap().code, "empty_hamiltonian");
    assert!(items[2].is_ok());

    req.id = "pinned".into();
    req.n_modes = Some(3);
    let items = client::request(addr, &req)
        .expect("round trip")
        .into_ordered();
    assert!(items[0].is_ok());
    assert_eq!(items[1].error().unwrap().code, "mode_mismatch");
    assert_eq!(items[2].error().unwrap().code, "mode_mismatch");
    server.shutdown();
}

#[test]
fn repeated_structures_cache_hit_across_the_socket() {
    let server = boot(Mapper::new());
    let mut h = MajoranaSum::from_fermion(&NeutrinoModel::new(3, 2).hamiltonian());
    let _ = h.take_identity();
    // A coefficient sweep: one structure, five instances.
    let sweep: Vec<MajoranaSum> = (0..5).map(|k| h.scaled(1.0 + 0.25 * k as f64)).collect();
    let req = MapRequest::new("sweep", sweep.clone());
    let items = client::request(server.local_addr(), &req)
        .expect("round trip")
        .into_ordered();
    let reference = Mapper::new();
    let base_tree = reference.map(&h).unwrap();
    for (k, item) in items.iter().enumerate() {
        let m = item.mapping().expect("ok item");
        assert_eq!(m.tree(), base_tree.tree(), "instance {k}");
        // Exact per-instance stats despite the shared structure.
        assert_eq!(
            m.stats().total_weight(),
            reference.map(&sweep[k]).unwrap().stats().total_weight(),
            "instance {k} stats"
        );
    }
    server.shutdown();
}

#[test]
fn oversize_lines_get_a_typed_error_and_the_connection_survives() {
    let config = ServerConfig {
        max_line_bytes: 1024,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Mapper::new(), config).expect("bind ephemeral port");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // A 64 KiB line: far over the 1 KiB cap. The server must discard it
    // as it streams (never buffering it) and answer with a typed error.
    let mut junk = vec![b'x'; 64 * 1024];
    junk.push(b'\n');
    writer.write_all(&junk).expect("send oversize line");
    writer.flush().expect("flush");

    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    match ResponseLine::from_line(&line).expect("parse") {
        ResponseLine::Item(item) => {
            let err = item.error().expect("typed error");
            assert_eq!(err.code, "invalid_request");
            assert!(
                err.message.contains("1024"),
                "message should name the limit: {}",
                err.message
            );
        }
        other => panic!("{other:?}"),
    }
    line.clear();
    reader.read_line(&mut line).expect("done line");
    assert!(matches!(
        ResponseLine::from_line(&line).expect("parse"),
        ResponseLine::Done(_)
    ));

    // The connection is still usable for a (small) valid request.
    let req = MapRequest::new("after-oversize", vec![MajoranaSum::uniform_singles(2)]);
    writer
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send valid");
    writer.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("item line");
    match ResponseLine::from_line(&line).expect("parse") {
        ResponseLine::Item(item) => assert!(item.is_ok(), "connection wedged after oversize"),
        other => panic!("{other:?}"),
    }

    // The incident is counted.
    let stats = client::stats(server.local_addr(), "probe").expect("stats");
    assert_eq!(stats.oversize_lines, 1);
    server.shutdown();
}

#[test]
fn a_request_line_that_is_not_utf8_is_refused_and_the_connection_survives() {
    let server = boot(Mapper::new());
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // A well-formed map_request whose id holds two bytes that are not
    // UTF-8. Decoded lossily, it would be served under a rewritten id
    // that the client could not match to its request.
    let line = MapRequest::new("req-@", vec![MajoranaSum::uniform_singles(2)]).to_line();
    let (head, tail) = line.split_once('@').unwrap();
    let mut bytes = head.as_bytes().to_vec();
    bytes.extend_from_slice(b"\xff\xfe");
    bytes.extend_from_slice(tail.as_bytes());
    bytes.push(b'\n');
    writer.write_all(&bytes).expect("send");

    assert_refused_then_served(&mut reader, &mut writer, "UTF-8");
    server.shutdown();
}

/// Reads the typed `invalid_request` reply to a refused line, whose
/// message names `needle`, then checks the same connection still
/// serves a valid request.
fn assert_refused_then_served(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    needle: &str,
) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    match ResponseLine::from_line(&line).expect("parse") {
        ResponseLine::Item(item) => {
            let err = item.error().expect("a typed error, not a served request");
            assert_eq!(err.code, "invalid_request");
            assert!(err.message.contains(needle), "{}", err.message);
            assert_eq!(item.index, None);
        }
        other => panic!("{other:?}"),
    }
    line.clear();
    reader.read_line(&mut line).expect("done line");
    match ResponseLine::from_line(&line).expect("parse") {
        ResponseLine::Done(done) => assert_eq!((done.items, done.errors), (1, 1)),
        other => panic!("{other:?}"),
    }

    let req = MapRequest::new("after-refusal", vec![MajoranaSum::uniform_singles(2)]);
    writer
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send valid");
    line.clear();
    reader.read_line(&mut line).expect("item line");
    match ResponseLine::from_line(&line).expect("parse") {
        ResponseLine::Item(item) => {
            assert!(item.is_ok(), "connection wedged: {:?}", item.error());
            assert_eq!(item.id, "after-refusal");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn a_policy_width_over_the_bound_is_refused_and_the_connection_survives() {
    let server = boot(Mapper::new());
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // A beam keeps up to `width` engine states per step, so a width
    // over 64 is refused before anything is queued.
    let mut req = MapRequest::new("wide", vec![MajoranaSum::uniform_singles(2)]);
    req.options = Some(HattOptions::with_policy(SelectionPolicy::Beam {
        width: 65,
    }));
    writer
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send");
    assert_refused_then_served(&mut reader, &mut writer, "beam:65");
    server.shutdown();
}

#[test]
fn a_client_disconnecting_mid_stream_does_not_wedge_the_server() {
    let server = boot(Mapper::new());
    let addr = server.local_addr();

    // Send a multi-item request, read a single response line, hang up.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let hams: Vec<MajoranaSum> = (2..8).map(MajoranaSum::uniform_singles).collect();
        let req = MapRequest::new("walkout", hams);
        writer
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .expect("send");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("first item");
        // Drop both halves: the handler's remaining writes fail and the
        // handler must exit instead of wedging a slot forever.
    }

    // The server still serves fresh connections.
    let req = MapRequest::new("aftermath", vec![MajoranaSum::uniform_singles(3)]);
    let reply = client::request(addr, &req).expect("server survived the walkout");
    assert_eq!(reply.done.errors, 0);
    server.shutdown();
}

#[test]
fn connections_beyond_the_cap_get_a_typed_overloaded_line() {
    let config = ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Mapper::new(), config).expect("bind ephemeral port");
    let addr = server.local_addr();

    // Occupy both slots with connections whose handlers are provably
    // live (each completed a round trip, so its slot is claimed).
    let occupy = |id: &str| {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let req = MapRequest::new(id, vec![MajoranaSum::uniform_singles(2)]);
        writer
            .write_all(format!("{}\n", req.to_line()).as_bytes())
            .expect("send");
        writer.flush().expect("flush");
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).expect("line");
            if matches!(
                ResponseLine::from_line(&line).expect("parse"),
                ResponseLine::Done(_)
            ) {
                break;
            }
        }
        (reader, writer)
    };
    let _a = occupy("slot-a");
    let _b = occupy("slot-b");

    // The third connection is rejected with one typed line and closed.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("overloaded line");
    match ResponseLine::from_line(&line).expect("parse") {
        ResponseLine::Item(item) => {
            assert_eq!(item.error().expect("typed error").code, "overloaded");
        }
        other => panic!("{other:?}"),
    }
    line.clear();
    reader.read_line(&mut line).expect("done line");
    assert!(matches!(
        ResponseLine::from_line(&line).expect("parse"),
        ResponseLine::Done(_)
    ));
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "closed");

    // Freeing a slot readmits new connections.
    drop(_a);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let req = MapRequest::new("readmitted", vec![MajoranaSum::uniform_singles(2)]);
        match client::request(addr, &req) {
            Ok(reply)
                if reply
                    .items
                    .iter()
                    .any(|i| i.error().is_some_and(|e| e.code == "overloaded")) =>
            {
                // Still at the cap: the rejection itself is a well-formed
                // reply (one `overloaded` item + done), not a transport
                // error. The freed slot releases when the old handler
                // notices the hangup on its next poll tick; retry briefly.
                if std::time::Instant::now() >= deadline {
                    panic!("slot never freed: still overloaded at deadline");
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Ok(reply) => {
                assert_eq!(reply.done.errors, 0);
                break;
            }
            Err(_) if std::time::Instant::now() < deadline => {
                // The freed slot releases when the handler notices the
                // hangup on its next poll tick; retry briefly.
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn map_delta_over_tcp_matches_a_fresh_build_and_counts_a_construction() {
    let server = boot(Mapper::new());
    let addr = server.local_addr();
    let base = preprocess(&NeutrinoModel::new(3, 2).hamiltonian());

    // Warm the daemon's cache with the base structure.
    let warm = client::request(addr, &MapRequest::new("warm", vec![base.clone()]))
        .expect("warm round trip");
    assert_eq!(warm.done.errors, 0);

    // Map a one-term structural edit of the base.
    let mut delta = HamiltonianDelta::new(base.n_modes());
    delta
        .push_add(Complex64::real(0.125), &[0, 1, 2, 3])
        .expect("delta term");
    let req = MapDeltaRequest::new("edit-1", base.clone(), delta.clone());
    let reply = client::remap(addr, &req).expect("map_delta round trip");
    assert_eq!(reply.done.items, 1);
    assert_eq!(reply.done.errors, 0);
    let remote = reply.items[0].mapping().expect("ok item");

    // Bit-identical to a fresh in-process build of the post-delta
    // Hamiltonian.
    let next = delta.apply(&base).expect("delta applies");
    let local = Mapper::new().map(&next).expect("fresh build");
    assert_eq!(remote.tree(), local.tree(), "remap tree drifted over TCP");
    assert_eq!(
        remote.stats().total_weight(),
        local.stats().total_weight(),
        "remap settled weight drifted"
    );
    assert_eq!(
        remote.map_majorana_sum(&next).weight(),
        local.map_majorana_sum(&next).weight(),
        "remap compile weight drifted"
    );
    assert!(validate(remote).is_valid());

    // The edit is a new structure, so the daemon built it: the base
    // and the edit are one construction each.
    let stats = client::stats(addr, "probe").expect("stats");
    assert_eq!(stats.constructions, 2, "the base and the edit");

    // A delta that does not apply comes back as a typed error item.
    let mut bogus = HamiltonianDelta::new(base.n_modes());
    bogus
        .push_remove(Complex64::real(999.0), &[0, 1, 2, 3])
        .expect("delta term");
    let reply = client::remap(addr, &MapDeltaRequest::new("bad", base, bogus))
        .expect("typed error round trip");
    assert_eq!(reply.done.errors, 1);
    assert_eq!(reply.items[0].error().expect("error item").code, "delta");
    server.shutdown();
}

/// A 32-item request of distinct structures, each of which takes
/// milliseconds to build even in a release build: 48-mode uniform
/// singles plus one distinct pair term, under the literal Algorithm 2
/// walks of `Variant::Paired`, which re-score every candidate on every
/// step. The default variant builds such an item in about a
/// millisecond and smaller ones in microseconds, so a backlog under it
/// can drain within one round trip of a second client.
fn slow_backlog(id: &str) -> MapRequest {
    let hams = (1..=32)
        .map(|k| {
            let mut h = MajoranaSum::uniform_singles(48);
            h.add(Complex64::ONE, &[0, k]);
            h
        })
        .collect();
    let mut request = MapRequest::new(id, hams);
    request.options = Some(HattOptions {
        variant: Variant::Paired,
        ..HattOptions::default()
    });
    request
}

#[test]
fn a_small_client_is_not_starved_behind_a_chatty_one() {
    // With two event loops the two clients land on different loops, so
    // their fairness buckets must stay distinct across loops too.
    for event_workers in [1, 2] {
        small_client_overtakes_chatty_batch(event_workers);
    }
}

fn small_client_overtakes_chatty_batch(event_workers: usize) {
    // One worker runs the jobs one at a time, and the queue pops
    // connections round robin, so client B's lone job is popped right
    // after one more of client A's instead of waiting out A's backlog.
    let config = ServerConfig {
        scheduler: SchedulerConfig {
            workers: 1,
            queue_capacity: 256,
        },
        event_workers,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Mapper::new(), config).expect("bind ephemeral port");
    let addr = server.local_addr();

    // Client A: a 32-item batch of distinct structures (no cache hits).
    let a_request = slow_backlog("chatty");
    let a_total = a_request.hamiltonians.len();
    let a_seen = Arc::new(AtomicUsize::new(0));
    let a_thread = {
        let a_seen = Arc::clone(&a_seen);
        std::thread::spawn(move || {
            client::request_streaming(addr, &a_request, |_| {
                a_seen.fetch_add(1, Ordering::SeqCst);
            })
        })
    };

    // Wait until A's batch is demonstrably in flight…
    while a_seen.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // …then submit B's single-item request on a second connection.
    let req = MapRequest::new("small", vec![MajoranaSum::uniform_singles(3)]);
    let reply = client::request(addr, &req).expect("small client round trip");
    assert_eq!(reply.done.errors, 0);
    let a_done_when_b_finished = a_seen.load(Ordering::SeqCst);

    let a_reply = a_thread
        .join()
        .expect("client thread")
        .expect("chatty client round trip");
    assert_eq!(a_reply.done.items, a_total);
    assert!(
        a_done_when_b_finished < a_total / 2,
        "round-robin drain should answer the small client while the \
         chatty batch is still streaming (saw {a_done_when_b_finished}/{a_total} \
         with {event_workers} event loop(s))"
    );
    server.shutdown();
}

#[test]
fn the_stats_verb_reports_tiers_queue_depth_and_latency_histograms() {
    let server = boot(Mapper::new());
    let addr = server.local_addr();
    let hams: Vec<MajoranaSum> = (2..5).map(MajoranaSum::uniform_singles).collect();
    let n = hams.len();
    let req = MapRequest::new("warmup", hams);
    client::request(addr, &req).expect("round trip");

    let stats = client::stats(addr, "schema-probe").expect("stats");
    assert_eq!(stats.id, "schema-probe");
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.constructions, n as u64);
    assert_eq!(stats.cache.entries, n);
    assert_eq!(stats.cache.misses, n as u64);
    assert_eq!(
        stats.connection_limit,
        ServerConfig::default().max_connections
    );
    assert!(stats.store.is_none(), "no --store configured");
    assert_eq!(stats.queue_depth, 0, "all work drained");

    // One policy histogram (the default policy), internally consistent:
    // finite buckets ascend, the overflow bucket closes the list, and
    // the bucket counts sum to the observation count.
    assert_eq!(stats.policies.len(), 1);
    let p = &stats.policies[0];
    assert_eq!(p.count, n as u64);
    assert!(p.total_ns > 0);
    let bounds: Vec<_> = p.buckets.iter().map(|b| b.le_ns).collect();
    assert!(bounds.windows(2).all(|w| w[0] < w[1] || w[1].is_none()));
    assert_eq!(*bounds.last().expect("buckets"), None, "overflow bucket");
    assert_eq!(
        p.buckets.iter().map(|b| b.count).sum::<u64>(),
        p.count,
        "bucket counts must sum to the total"
    );
    server.shutdown();
}

#[test]
fn router_sharded_roster_is_bit_identical_to_a_single_mapper() {
    // Two independent shard daemons plus a router in front: the Table I
    // roster mapped through the consistent-hash fan-out must be
    // bit-identical to the single in-process reference mapper.
    let shard_a = boot(Mapper::new());
    let shard_b = boot(Mapper::new());
    let shard_addrs = vec![
        shard_a.local_addr().to_string(),
        shard_b.local_addr().to_string(),
    ];
    let router = Server::bind_router("127.0.0.1:0", &shard_addrs, ServerConfig::default())
        .expect("bind router");
    let addr = router.local_addr();

    let cases = roster();
    let hams: Vec<MajoranaSum> = cases.iter().map(|(_, h)| h.clone()).collect();
    let reply = client::request(addr, &MapRequest::new("routed-table1", hams.clone()))
        .expect("routed round trip");
    assert_eq!(reply.done.items, hams.len());
    assert_eq!(reply.done.errors, 0);
    let items = reply.into_ordered();

    let reference = Mapper::new();
    for (i, ((name, h), item)) in cases.iter().zip(&items).enumerate() {
        assert_eq!(item.index, Some(i), "{name}: stream index");
        let remote = item.mapping().unwrap_or_else(|| {
            panic!("{name}: error item {:?}", item.error());
        });
        let local = reference.map(h).expect("roster maps");
        assert_eq!(
            remote.tree(),
            local.tree(),
            "{name}: tree drifted through the router"
        );
        assert_eq!(
            remote.map_majorana_sum(h).weight(),
            local.map_majorana_sum(h).weight(),
            "{name}: mapped weight drifted through the router"
        );
        assert!(validate(remote).is_valid(), "{name}: invalid via router");
    }

    // A map_delta, routed to the shard owning its post-delta structure,
    // matches a fresh in-process build as well. (A singles-only base, so
    // the added quartic term is genuinely new.)
    let base = MajoranaSum::uniform_singles(4);
    let mut delta = HamiltonianDelta::new(base.n_modes());
    delta
        .push_add(Complex64::real(0.125), &[0, 1, 2, 3])
        .expect("delta term");
    let reply = client::remap(
        addr,
        &MapDeltaRequest::new("routed-edit", base.clone(), delta.clone()),
    )
    .expect("routed remap");
    assert_eq!(
        reply.done.errors, 0,
        "routed remap error: {:?}",
        reply.items
    );
    let next = delta.apply(&base).expect("delta applies");
    let local = Mapper::new().map(&next).expect("fresh build");
    assert_eq!(
        reply.items[0].mapping().expect("ok item").tree(),
        local.tree(),
        "routed remap tree drifted"
    );

    // The router's stats expose both shards as healthy and account for
    // every item it forwarded (roster + the one delta).
    let stats = client::stats(addr, "router-probe").expect("router stats");
    assert_eq!(stats.shards.len(), 2);
    assert!(stats.shards.iter().all(|s| s.healthy), "{:?}", stats.shards);
    let forwarded: u64 = stats.shards.iter().map(|s| s.forwarded).sum();
    assert_eq!(forwarded, hams.len() as u64 + 1);

    // The router's own traffic: one map, one map_delta and this probe.
    let v = stats.verbs;
    assert_eq!((v.map, v.map_delta, v.stats, v.trace_dump), (1, 1, 1, 0));
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.queue_depth, 0, "every shard queue drained");
    assert_eq!(
        stats.connection_limit,
        ServerConfig::default().max_connections
    );
    assert!(stats.connections >= 1, "the probe's own connection");
    assert_eq!(
        (
            stats.connections_rejected,
            stats.oversize_lines,
            stats.cancelled_items
        ),
        (0, 0, 0)
    );
    assert!(stats.uptime_ms > 0);
    assert!(stats.event_loop_wakeups > 0);
    assert!(stats.trace.is_none(), "tracing is off");
    // Constructions, caches and latency histograms live on the shards.
    assert_eq!((stats.constructions, stats.remaps), (0, 0));
    assert_eq!(stats.cache, TierStats::default());
    assert!(stats.store.is_none());
    assert!(stats.policies.is_empty());

    router.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
}

/// A 14-mode Hamiltonian of the first `terms` 2-Majorana supports in
/// lexicographic order, with small integer coefficients.
fn pair_terms(terms: usize) -> MajoranaSum {
    let mut h = MajoranaSum::new(14);
    let pairs = (0..28u32).flat_map(|a| (a + 1..28).map(move |b| [a, b]));
    for (i, pair) in pairs.take(terms).enumerate() {
        h.add(Complex64::real((i % 7 + 1) as f64), &pair);
    }
    h
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn a_line_over_the_write_buffer_is_forwarded_without_a_stall() {
    // A request line over 8 KiB must reach the shard as promptly as one
    // under it. Written in two pieces (the line, then its newline) on a
    // socket with Nagle's algorithm on, the newline waits for the
    // shard's delayed ACK, ~40 ms, on every forward of a long line.
    let shard_a = boot(Mapper::new());
    let shard_b = boot(Mapper::new());
    let shard_addrs = vec![
        shard_a.local_addr().to_string(),
        shard_b.local_addr().to_string(),
    ];
    let router = Server::bind_router("127.0.0.1:0", &shard_addrs, ServerConfig::default())
        .expect("bind router");

    let over = MapRequest::new("over", vec![pair_terms(312)]).to_line() + "\n";
    let under = MapRequest::new("under", vec![pair_terms(245)]).to_line() + "\n";
    assert!(over.len() > 9_000, "{} bytes", over.len());
    assert!(under.len() < 7_500, "{} bytes", under.len());

    // One persistent no-delay connection, one write per line, as a
    // latency-sensitive client sends them.
    let stream = TcpStream::connect(router.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut round_trip = |line: &str| -> Duration {
        let start = Instant::now();
        writer.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        loop {
            reply.clear();
            assert!(reader.read_line(&mut reply).expect("reply") > 0, "EOF");
            match ResponseLine::from_line(reply.trim_end()).expect("reply line") {
                ResponseLine::Item(item) => assert!(item.is_ok(), "{:?}", item.error()),
                ResponseLine::Done(_) => return start.elapsed(),
            }
        }
    };

    // Warm both structures, so every timed round trip is a replay.
    round_trip(&over);
    round_trip(&under);
    let (mut over_times, mut under_times) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        over_times.push(round_trip(&over));
        under_times.push(round_trip(&under));
    }
    let (over_median, under_median) = (median(over_times), median(under_times));
    assert!(
        over_median < under_median + Duration::from_millis(20),
        "a {}-byte line took {over_median:?}, a {}-byte line {under_median:?}",
        over.len(),
        under.len()
    );

    router.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
}

#[test]
fn a_slow_reader_does_not_stall_other_connections() {
    // A slowloris-style client requests a large response and refuses to
    // read it: the kernel socket buffer fills, then the server-side
    // write buffer holds the rest. No thread blocks on that socket, so
    // other connections keep getting answers.
    let config = ServerConfig {
        max_write_buffer: 64 * 1024,
        scheduler: SchedulerConfig {
            workers: 1,
            queue_capacity: 1024,
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Mapper::new(), config).expect("bind ephemeral port");
    let addr = server.local_addr();

    // Conn A: one construction plus 299 cache hits — a response far
    // larger than the kernel's socket buffer — left entirely unread.
    let a_stream = TcpStream::connect(addr).expect("connect slow reader");
    let mut a_writer = a_stream.try_clone().expect("clone");
    let a_hams: Vec<MajoranaSum> = (0..300).map(|_| MajoranaSum::uniform_singles(12)).collect();
    let a_total = a_hams.len();
    a_writer
        .write_all(format!("{}\n", MapRequest::new("slow", a_hams).to_line()).as_bytes())
        .expect("send slow request");
    a_writer.flush().expect("flush");

    // While A sits unread, a fast client's round trips complete.
    for k in 0..5 {
        let start = Instant::now();
        let req = MapRequest::new(format!("fast-{k}"), vec![MajoranaSum::uniform_singles(3)]);
        let reply = client::request(addr, &req).expect("fast client round trip");
        assert_eq!(reply.done.errors, 0);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "fast client stalled behind the slow reader"
        );
    }

    // Drain A slowloris-style first — a few single bytes with pauses —
    // then fully: the stream must still be complete and well-formed.
    let mut a_reader = BufReader::new(a_stream);
    let mut prefix = Vec::new();
    let mut byte = [0u8; 1];
    for _ in 0..5 {
        a_reader.read_exact(&mut byte).expect("slow byte");
        prefix.push(byte[0]);
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut rest = String::new();
    a_reader.read_line(&mut rest).expect("rest of first line");
    let first_line = format!("{}{rest}", String::from_utf8_lossy(&prefix));
    let mut seen = 0usize;
    let mut done = None;
    let mut pending = Some(first_line);
    let mut line = String::new();
    while done.is_none() {
        let next = match pending.take() {
            Some(first) => first,
            None => {
                line.clear();
                assert!(
                    a_reader.read_line(&mut line).expect("drain line") > 0,
                    "connection closed before map_done"
                );
                line.clone()
            }
        };
        match ResponseLine::from_line(next.trim_end()).expect("parse") {
            ResponseLine::Item(item) => {
                assert!(item.is_ok(), "{:?}", item.error());
                seen += 1;
            }
            ResponseLine::Done(d) => done = Some(d),
        }
    }
    assert_eq!(seen, a_total, "slow reader lost items");
    let done = done.expect("done line");
    assert_eq!(done.items, a_total);
    assert_eq!(done.errors, 0);
    server.shutdown();
}

#[test]
fn idle_connections_cost_near_zero_wakeups() {
    // 100 idle connections must not spin the event loop: the old
    // thread-per-connection server re-armed a 100 ms read timeout per
    // connection (~2000 syscalls over this window); the readiness loop
    // should wake only for the two stats probes themselves.
    let server = boot(Mapper::new());
    let addr = server.local_addr();

    let idle: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(addr).expect("connect idle"))
        .collect();
    // Let every connection get adopted and settle.
    std::thread::sleep(Duration::from_millis(300));

    let w1 = client::stats(addr, "idle-1")
        .expect("stats")
        .event_loop_wakeups;
    std::thread::sleep(Duration::from_secs(2));
    let w2 = client::stats(addr, "idle-2")
        .expect("stats")
        .event_loop_wakeups;
    assert!(w2 >= w1);
    assert!(
        w2 - w1 <= 20,
        "idle connections churned the event loop: {} wakeups in 2s",
        w2 - w1
    );
    drop(idle);
    server.shutdown();
}

#[test]
fn a_thousand_item_batch_arrives_complete_with_coalesced_writes() {
    // One batch big enough that per-line flushing would dominate: every
    // item line must arrive exactly once, closed by a consistent
    // map_done. (Write coalescing batches the lines per readiness
    // cycle; completeness and framing are the observable contract.)
    let config = ServerConfig {
        scheduler: SchedulerConfig {
            workers: SchedulerConfig::default().workers,
            queue_capacity: 2048,
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Mapper::new(), config).expect("bind ephemeral port");
    let addr = server.local_addr();

    let n = 1000usize;
    let hams: Vec<MajoranaSum> = (0..n).map(|_| MajoranaSum::uniform_singles(3)).collect();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer
        .write_all(format!("{}\n", MapRequest::new("big-batch", hams).to_line()).as_bytes())
        .expect("send");
    writer.flush().expect("flush");

    let reader = BufReader::new(stream);
    let mut index_seen = vec![false; n];
    let mut items = 0usize;
    let mut done = None;
    for line in reader.lines() {
        let line = line.expect("read line");
        match ResponseLine::from_line(&line).expect("parse") {
            ResponseLine::Item(item) => {
                assert!(done.is_none(), "item line after map_done");
                assert!(item.is_ok(), "{:?}", item.error());
                let idx = item.index.expect("indexed item");
                assert!(!index_seen[idx], "index {idx} delivered twice");
                index_seen[idx] = true;
                items += 1;
            }
            ResponseLine::Done(d) => {
                done = Some(d);
                break;
            }
        }
    }
    let done = done.expect("missing map_done");
    assert_eq!(items, n, "batch arrived incomplete");
    assert!(index_seen.iter().all(|&s| s), "an index never arrived");
    assert_eq!(done.items, n);
    assert_eq!(done.errors, 0);
    server.shutdown();
}

#[test]
fn disconnecting_mid_batch_cancels_queued_work() {
    // A client that walks out mid-batch must not keep the scheduler
    // grinding through its queue: the remaining items are cancelled,
    // counted in stats, and the server stays serviceable.
    let config = ServerConfig {
        scheduler: SchedulerConfig {
            workers: 1,
            queue_capacity: 1024,
        },
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Mapper::new(), config).expect("bind ephemeral port");
    let addr = server.local_addr();

    {
        // 32 distinct constructions through a single worker: after the
        // first item streams back, most of the batch is still queued.
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer
            .write_all(format!("{}\n", slow_backlog("walkout").to_line()).as_bytes())
            .expect("send");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("first item");
        assert!(matches!(
            ResponseLine::from_line(&line).expect("parse"),
            ResponseLine::Item(_)
        ));
        // Drop with response bytes unread: the peer reset tells the
        // event loop this connection is gone.
    }

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client::stats(addr, "cancel-probe").expect("stats");
        if stats.cancelled_items > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no queued item was cancelled after the disconnect"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Other connections were never corrupted; fresh work still lands.
    let reply = client::request(
        addr,
        &MapRequest::new("after", vec![MajoranaSum::uniform_singles(3)]),
    )
    .expect("served after cancellation");
    assert_eq!(reply.done.errors, 0);
    server.shutdown();
}

/// A daemon whose scheduler holds at most `capacity` queued jobs.
fn small_queue(capacity: usize) -> ServerConfig {
    ServerConfig {
        scheduler: SchedulerConfig {
            workers: 1,
            queue_capacity: capacity,
        },
        ..ServerConfig::default()
    }
}

#[test]
fn a_request_larger_than_the_queue_is_refused_not_shed() {
    // More items than the queue ever holds: no retry could clear an
    // `overloaded`, so the request is refused whole with
    // `invalid_request`, naming both numbers, and nothing is queued.
    let capacity = 4;
    let server =
        Server::bind("127.0.0.1:0", Mapper::new(), small_queue(capacity)).expect("bind daemon");
    let addr = server.local_addr();
    let hams: Vec<MajoranaSum> = (2..3 + capacity)
        .map(MajoranaSum::uniform_singles)
        .collect();
    let reply = client::request(addr, &MapRequest::new("too-large", hams.clone()))
        .expect("refusal round trip");
    assert_eq!((reply.done.items, reply.done.errors), (1, 1));
    assert_eq!(reply.items[0].index, None, "refused as a whole request");
    let error = reply.items[0].error().expect("typed refusal");
    assert_eq!(error.code, "invalid_request");
    assert!(
        error.message.contains("5 items") && error.message.contains("capacity of 4"),
        "{}",
        error.message
    );
    let stats = client::stats(addr, "after-refusal").expect("stats");
    assert_eq!(
        (stats.requests, stats.queue_depth, stats.constructions),
        (0, 0, 0),
        "nothing of the refused request was queued"
    );
    // The same items, split to fit, are served.
    let fits = MapRequest::new("fits", hams[..capacity].to_vec());
    let reply = client::request(addr, &fits).expect("round trip");
    assert_eq!((reply.done.items, reply.done.errors), (capacity, 0));
    server.shutdown();
}

#[test]
fn a_routed_slice_larger_than_its_shard_queue_is_refused_not_shed() {
    // Each shard holds 2 queued jobs; 8 distinct structures over 2
    // shards put at least 4 on one of them. Every index of a slice over
    // its shard's capacity reads `invalid_request`, every other index
    // is served, and none reads `overloaded`.
    let capacity = 2;
    let shards: Vec<Server> = (0..2)
        .map(|_| {
            Server::bind("127.0.0.1:0", Mapper::new(), small_queue(capacity)).expect("bind shard")
        })
        .collect();
    let shard_addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Server::bind_router("127.0.0.1:0", &shard_addrs, ServerConfig::default())
        .expect("bind router");
    let addr = router.local_addr();
    let hams: Vec<MajoranaSum> = (2..10).map(MajoranaSum::uniform_singles).collect();

    // Each item's owner: the shard whose accepted requests rise when the
    // item is sent alone.
    let accepted = || -> Vec<u64> {
        shards
            .iter()
            .map(|s| {
                client::stats(s.local_addr(), "owner")
                    .expect("stats")
                    .requests
            })
            .collect()
    };
    let owner: Vec<usize> = hams
        .iter()
        .map(|h| {
            let before = accepted();
            let reply = client::request(addr, &MapRequest::new("alone", vec![h.clone()]))
                .expect("routed round trip");
            assert_eq!(reply.done.errors, 0);
            let after = accepted();
            (0..shards.len())
                .find(|&k| after[k] > before[k])
                .expect("one shard served the item")
        })
        .collect();
    let slice = |shard: usize| owner.iter().filter(|&&o| o == shard).count();

    let reply =
        client::request(addr, &MapRequest::new("split", hams.clone())).expect("routed round trip");
    assert_eq!(reply.done.items, hams.len());
    let mut refused = 0;
    for item in reply.into_ordered() {
        let i = item.index.expect("an item per index");
        let over = slice(owner[i]) > capacity;
        match item.error() {
            Some(error) => {
                assert!(over, "item {i} on a slice that fits: {error:?}");
                assert_eq!(error.code, "invalid_request", "item {i}");
                assert!(error.message.contains("capacity of 2"), "{}", error.message);
                refused += 1;
            }
            None => assert!(!over, "item {i} of a slice over capacity was served"),
        }
    }
    assert!(
        refused > capacity,
        "a slice over capacity was refused whole"
    );
    let stats = client::stats(addr, "router").expect("router stats");
    assert!(
        stats.shards.iter().all(|s| s.shed == 0),
        "{:?}",
        stats.shards
    );
    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn an_open_loop_burst_over_the_cap_sheds_typed_overloaded_and_recovers() {
    // An open-loop burst of 12 simultaneous connections against a
    // 4-connection cap: every client gets a well-formed terminal reply —
    // either its mapping or a typed `overloaded` line — and the server
    // serves normally once the burst passes.
    let config = ServerConfig {
        max_connections: 4,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Mapper::new(), config).expect("bind ephemeral port");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..12)
        .map(|k| {
            std::thread::spawn(move || {
                let req =
                    MapRequest::new(format!("burst-{k}"), vec![MajoranaSum::uniform_singles(2)]);
                client::request(addr, &req)
            })
        })
        .collect();
    let mut served = 0usize;
    let mut shed = 0usize;
    for handle in handles {
        match handle.join().expect("burst thread") {
            Ok(reply)
                if reply
                    .items
                    .iter()
                    .any(|i| i.error().is_some_and(|e| e.code == "overloaded")) =>
            {
                shed += 1;
            }
            Ok(reply) => {
                assert_eq!(reply.done.errors, 0);
                served += 1;
            }
            Err(e) => panic!("burst client got a transport error instead of a typed reply: {e}"),
        }
    }
    assert_eq!(served + shed, 12);
    assert!(served >= 1, "the burst starved every client");

    // After the burst the cap has slots again.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let req = MapRequest::new("after-burst", vec![MajoranaSum::uniform_singles(3)]);
        match client::request(addr, &req) {
            Ok(reply)
                if reply
                    .items
                    .iter()
                    .any(|i| i.error().is_some_and(|e| e.code == "overloaded")) =>
            {
                assert!(Instant::now() < deadline, "cap never released after burst");
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(reply) => {
                assert_eq!(reply.done.errors, 0);
                break;
            }
            Err(e) => panic!("server unserviceable after burst: {e}"),
        }
    }
    server.shutdown();
}

#[test]
fn a_restarted_server_serves_the_molecule_roster_from_its_store() {
    let path =
        std::env::temp_dir().join(format!("hattd-restart-test-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let molecules: Vec<MajoranaSum> = molecule_catalog()
        .iter()
        .map(|spec| preprocess(&spec.hamiltonian()))
        .collect();
    assert_eq!(molecules.len(), 8);

    let pass = |label: &str| {
        let mapper = Mapper::builder()
            .store_path(&path)
            .build()
            .expect("store opens");
        let server = boot(mapper);
        let reply = client::request(
            server.local_addr(),
            &MapRequest::new(label, molecules.clone()),
        )
        .expect("round trip");
        assert_eq!(reply.done.errors, 0, "{label}: {:?}", reply.done);
        let items = reply.into_ordered();
        let stats = client::stats(server.local_addr(), label).expect("stats");
        // Shutdown drains the scheduler and flushes the store: the
        // durability boundary the second server depends on.
        server.shutdown();
        (items, stats)
    };
    let (cold_items, cold) = pass("cold");
    let (warm_items, warm) = pass("warm");

    let n = molecules.len() as u64;
    assert_eq!(cold.constructions, n);
    assert_eq!(cold.store.expect("store tier").writes, n);
    assert_eq!(warm.constructions, 0, "the store must serve every molecule");
    assert_eq!(warm.store.expect("store tier").hits, n);
    for (i, (a, b)) in cold_items.iter().zip(&warm_items).enumerate() {
        assert_eq!(
            a.mapping().expect("cold item").tree(),
            b.mapping().expect("warm item").tree(),
            "molecule {i}: the store-replayed tree drifted"
        );
    }
    let bytes = std::fs::read(&path).expect("store file");
    assert!(bytes.starts_with(b"HATS"), "store file magic");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn hand_written_wire_lines_map_remap_and_count_two_constructions() {
    // The exact bytes a non-Rust client writes: a 2-mode map_request,
    // a map_delta on the same structure, then a stats_request.
    const MAP: &str = r#"{"format":"hatt-wire/1","kind":"map_request","payload":{"id":"ci","hamiltonians":[{"n_modes":2,"terms":[{"re":1,"im":0,"idx":[0,1]},{"re":0.5,"im":0,"idx":[0,1,2,3]}]}]}}"#;
    const DELTA: &str = r#"{"format":"hatt-wire/1","kind":"map_delta","payload":{"id":"ci-delta","hamiltonian":{"n_modes":2,"terms":[{"re":1,"im":0,"idx":[0,1]},{"re":0.5,"im":0,"idx":[0,1,2,3]}]},"delta":{"n_modes":2,"ops":[{"op":"add","re":0.25,"im":0,"idx":[2,3]}]}}}"#;
    const STATS: &str =
        r#"{"format":"hatt-wire/1","kind":"stats_request","payload":{"id":"ci-stats"}}"#;

    let server = boot(Mapper::new());
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    // Sends one line and collects reply lines up to the one containing
    // `last`.
    let mut exchange = |line: &str, last: &str| -> Vec<String> {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut lines = Vec::new();
        loop {
            let mut reply = String::new();
            assert!(reader.read_line(&mut reply).expect("reply") > 0, "EOF");
            let done = reply.contains(last);
            lines.push(reply);
            if done {
                return lines;
            }
        }
    };

    for (line, what) in [(MAP, "map_request"), (DELTA, "map_delta")] {
        let replies = exchange(line, r#""kind":"map_done""#);
        assert_eq!(replies.len(), 2, "{what}: one item then done: {replies:?}");
        assert!(
            replies[0].contains(r#""kind":"map_item""#),
            "{what}: {replies:?}"
        );
        assert!(replies[0].contains(r#""ok":true"#), "{what}: {replies:?}");
    }
    let stats = exchange(STATS, "\n");
    assert!(stats[0].contains(r#""constructions":2"#), "{stats:?}");
    server.shutdown();
}
