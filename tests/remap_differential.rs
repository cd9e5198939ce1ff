//! The remap differential harness: for randomized
//! add/remove/compose/undo delta sequences over the Table I roster,
//! neutrino models and synthetic molecules, `Mapper::remap` must be
//! **bit-identical** to a fresh `Mapper::map` of the post-delta
//! Hamiltonian — tree, per-step settled weights, mapped Pauli sum and
//! compiled CNOT/depth — for every policy of the selection portfolio,
//! at 1/2/4 worker threads, and through the `hattd` socket (a single
//! daemon, and a router over two shards) as well as the in-process API.
//! A remap is a map of the post-delta Hamiltonian, so each edit to a
//! new structure is one construction, cached where that structure is
//! looked up.

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hatt::circuit::{trotter_circuit, TermOrder};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hatt::core::{HattError, HattMapping, Mapper};
use hatt::fermion::models::{molecule_catalog, random_hermitian, NeutrinoModel};
use hatt::fermion::{FermionOperator, HamiltonianDelta, MajoranaSum};
use hatt::mappings::{FermionMapping, SelectionPolicy};
use hatt::pauli::Complex64;
use hatt::service::{
    client, ItemError, ItemPayload, MapDeltaRequest, MapDone, MapItem, MapRequest, Server,
    ServerConfig, StatsReply,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EPS: f64 = 1e-12;

/// The acceptance floor: every policy must see at least this many
/// differential cases.
const MIN_CASES_PER_POLICY: usize = 64;

fn preprocess(h: &FermionOperator) -> MajoranaSum {
    let mut m = MajoranaSum::from_fermion(h);
    let _ = m.take_identity();
    m.prune(1e-10);
    m
}

fn mapper_with(policy: SelectionPolicy, threads: Option<usize>) -> Mapper {
    let mut builder = Mapper::builder().policy(policy);
    if let Some(t) = threads {
        builder = builder.threads(t);
    }
    builder.build().expect("mapper builds")
}

/// A random absent-term support: distinct Majorana indices in
/// canonical (sorted) order that do not collide with an existing term.
fn random_absent_support(rng: &mut StdRng, work: &MajoranaSum) -> Vec<u32> {
    let n_majoranas = 2 * work.n_modes();
    loop {
        let k = [2usize, 3, 4, 6][rng.gen_range(0..4usize)].min(n_majoranas);
        let mut support: Vec<u32> = Vec::with_capacity(k);
        while support.len() < k {
            let i = rng.gen_range(0..n_majoranas) as u32;
            if !support.contains(&i) {
                support.push(i);
            }
        }
        support.sort_unstable();
        if work.coefficient_of(&support).is_zero(EPS) {
            return support;
        }
    }
}

/// A coefficient keeping the edited Hamiltonian Hermitian: a Majorana
/// monomial of length `k` conjugates to `(−1)^{k(k−1)/2}` times itself,
/// so its coefficient must be real when that sign is `+` and purely
/// imaginary when it is `−`.
fn hermitian_coeff(k: usize, magnitude: f64) -> Complex64 {
    if (k * (k - 1) / 2) % 2 == 0 {
        Complex64::real(magnitude)
    } else {
        Complex64::new(0.0, magnitude)
    }
}

/// One random applicable edit script of 1–3 term insertions/removals.
fn random_delta(rng: &mut StdRng, h: &MajoranaSum) -> HamiltonianDelta {
    let mut delta = HamiltonianDelta::new(h.n_modes());
    // Track the would-be state so every op in the script stays
    // applicable (no double-adds, no removals below one term).
    let mut work = h.clone();
    for _ in 0..rng.gen_range(1..=3usize) {
        if work.n_terms() > 1 && rng.gen_bool(0.4) {
            let terms: Vec<(Vec<u32>, Complex64)> =
                work.iter().map(|(s, c)| (s.to_vec(), c)).collect();
            let (support, coeff) = terms[rng.gen_range(0..terms.len())].clone();
            delta.push_remove(coeff, &support).expect("removal applies");
            work.remove_term(&support);
        } else {
            let support = random_absent_support(rng, &work);
            let coeff = hermitian_coeff(support.len(), 0.1 + 0.9 * rng.gen_range(0.0..1.0f64));
            delta.push_add(coeff, &support).expect("insertion applies");
            work.add(coeff, &support);
        }
    }
    delta
}

/// The bit-identity contract: everything a caller can observe about the
/// mapping must match a fresh build. Candidate/traversal counters are
/// *excluded* by design — doing less work is the feature.
fn assert_equiv(
    ctx: &str,
    next: &MajoranaSum,
    incremental: &HattMapping,
    fresh: &HattMapping,
    check_compile: bool,
) {
    assert_eq!(incremental.tree(), fresh.tree(), "{ctx}: tree drifted");
    let (a, b) = (incremental.stats(), fresh.stats());
    assert_eq!(a.n_terms, b.n_terms, "{ctx}: n_terms drifted");
    let wa: Vec<usize> = a.iterations.iter().map(|i| i.settled_weight).collect();
    let wb: Vec<usize> = b.iterations.iter().map(|i| i.settled_weight).collect();
    assert_eq!(wa, wb, "{ctx}: per-step settled weights drifted");
    assert_eq!(
        a.total_weight(),
        b.total_weight(),
        "{ctx}: total weight drifted"
    );
    let pa = incremental.map_majorana_sum(next);
    let pb = fresh.map_majorana_sum(next);
    assert_eq!(pa, pb, "{ctx}: mapped Pauli sum drifted");
    if check_compile {
        let ca = trotter_circuit(&pa, 1.0, 1, TermOrder::Lexicographic).metrics();
        let cb = trotter_circuit(&pb, 1.0, 1, TermOrder::Lexicographic).metrics();
        assert_eq!(
            (ca.cnot, ca.depth),
            (cb.cnot, cb.depth),
            "{ctx}: compiled CNOT/depth drifted"
        );
    }
}

/// Runs one randomized delta chain: at every step a random edit (20%
/// an undo of the previous step, 30% a composition of two scripts,
/// otherwise a single script) is applied incrementally through
/// `mapper.remap` and differentially compared against a cold build in
/// an isolated fresh mapper. Returns the incremental mappings, one per
/// case.
fn run_chain(
    label: &str,
    base: &MajoranaSum,
    policy: SelectionPolicy,
    threads: Option<usize>,
    steps: usize,
    seed: u64,
    check_compile: bool,
) -> Vec<HattMapping> {
    let mapper = mapper_with(policy, threads);
    let mut current = base.clone();
    mapper
        .map(&current)
        .unwrap_or_else(|e| panic!("{label}: base maps: {e}"));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut prev_delta: Option<HamiltonianDelta> = None;
    let mut out = Vec::with_capacity(steps);
    for step in 0..steps {
        let delta = match prev_delta.as_ref() {
            Some(d) if rng.gen_bool(0.2) => d.inverted(),
            _ if rng.gen_bool(0.3) => {
                let first = random_delta(&mut rng, &current);
                let mid = first.apply(&current).expect("first half applies");
                let second = random_delta(&mut rng, &mid);
                first.compose(&second).expect("same mode count")
            }
            _ => random_delta(&mut rng, &current),
        };
        let next = delta.apply(&current).expect("chain delta applies");
        let ctx = format!("{label} step {step}");
        let incremental = mapper
            .remap(&current, &delta)
            .unwrap_or_else(|e| panic!("{ctx}: remap: {e}"));
        let fresh = mapper_with(policy, threads)
            .map(&next)
            .unwrap_or_else(|e| panic!("{ctx}: fresh map: {e}"));
        assert_equiv(&ctx, &next, &incremental, &fresh, check_compile);
        out.push(incremental);
        prev_delta = Some(delta);
        current = next;
    }
    out
}

/// The Table I roster plus neutrino models and two synthetic molecules,
/// with a per-base step budget (fewer steps for the 20+ mode cases so
/// the cold reference builds stay affordable).
fn full_roster() -> Vec<(String, MajoranaSum, usize)> {
    let mut cases: Vec<(String, MajoranaSum, usize)> = molecule_catalog()
        .into_iter()
        .map(|spec| {
            let h = preprocess(&spec.hamiltonian());
            let steps = if h.n_modes() >= 20 { 3 } else { 7 };
            (spec.name.to_string(), h, steps)
        })
        .collect();
    for (s, f) in [(3usize, 2usize), (4, 2)] {
        let model = NeutrinoModel::new(s, f);
        cases.push((
            format!("neutrino {}", model.label()),
            preprocess(&model.hamiltonian()),
            7,
        ));
    }
    for seed in [11u64, 12] {
        cases.push((
            format!("synthetic n=10 seed={seed}"),
            preprocess(&random_hermitian(10, 12, 10, seed)),
            7,
        ));
    }
    cases
}

/// Small bases for the expensive portfolio policies (lookahead, beam,
/// restarts): ≤ 12 modes keeps the per-step cold reference builds fast
/// enough to afford 64+ cases per policy.
fn small_roster() -> Vec<(String, MajoranaSum, usize)> {
    let mut cases: Vec<(String, MajoranaSum, usize)> = molecule_catalog()
        .into_iter()
        .filter(|spec| spec.n_modes <= 12)
        .map(|spec| {
            (
                spec.name.to_string(),
                preprocess(&spec.hamiltonian()),
                8usize,
            )
        })
        .collect();
    let model = NeutrinoModel::new(3, 2);
    cases.push((
        format!("neutrino {}", model.label()),
        preprocess(&model.hamiltonian()),
        8,
    ));
    for (i, seed) in [21u64, 22, 23, 24].into_iter().enumerate() {
        let n = 6 + i;
        cases.push((
            format!("synthetic n={n} seed={seed}"),
            preprocess(&random_hermitian(n, 8, 6, seed)),
            8,
        ));
    }
    cases
}

#[test]
fn greedy_and_vanilla_remap_is_bit_identical_on_the_table1_roster() {
    for (pname, policy) in [
        ("greedy", SelectionPolicy::Greedy),
        ("vanilla", SelectionPolicy::Vanilla),
    ] {
        let mut cases = 0usize;
        for (i, (name, base, steps)) in full_roster().into_iter().enumerate() {
            let label = format!("{pname}/{name}");
            // Compile comparison only on the small bases: the Trotter
            // compile of a 30-mode molecule would dominate the runtime
            // without adding differential power (the mapped Pauli sums
            // are compared bit-identically everywhere).
            let check_compile = base.n_modes() <= 14;
            cases += run_chain(
                &label,
                &base,
                policy,
                None,
                steps,
                0xD1F0 + i as u64,
                check_compile,
            )
            .len();
        }
        assert!(
            cases >= MIN_CASES_PER_POLICY,
            "{pname}: only {cases} differential cases (need ≥ {MIN_CASES_PER_POLICY})"
        );
    }
}

#[test]
fn portfolio_policies_remap_is_bit_identical_on_small_molecules() {
    for (pname, policy) in [
        ("lookahead:2", SelectionPolicy::Lookahead { width: 2 }),
        ("beam:4", SelectionPolicy::Beam { width: 4 }),
        ("restarts", SelectionPolicy::Restarts),
    ] {
        let mut cases = 0usize;
        for (i, (name, base, steps)) in small_roster().into_iter().enumerate() {
            let label = format!("{pname}/{name}");
            cases += run_chain(
                &label,
                &base,
                policy,
                None,
                steps,
                0xBEA1 + i as u64,
                base.n_modes() <= 10,
            )
            .len();
        }
        assert!(
            cases >= MIN_CASES_PER_POLICY,
            "{pname}: only {cases} differential cases (need ≥ {MIN_CASES_PER_POLICY})"
        );
    }
}

#[test]
fn remap_chains_are_bit_identical_across_1_2_4_threads() {
    let bases = [
        (
            "neutrino (3,2)",
            preprocess(&NeutrinoModel::new(3, 2).hamiltonian()),
        ),
        ("synthetic n=9", preprocess(&random_hermitian(9, 10, 8, 31))),
    ];
    for (pname, policy) in [
        ("greedy", SelectionPolicy::Greedy),
        ("restarts", SelectionPolicy::Restarts),
    ] {
        for (name, base) in &bases {
            let label = format!("threads/{pname}/{name}");
            // The same seeded chain at every thread count: beyond the
            // per-step fresh-build comparison inside run_chain, the
            // whole chain must be bit-identical across 1/2/4 workers.
            let runs: Vec<Vec<HattMapping>> = [1usize, 2, 4]
                .into_iter()
                .map(|t| run_chain(&label, base, policy, Some(t), 5, 0x7EAD, false))
                .collect();
            for (i, run) in runs.iter().enumerate().skip(1) {
                assert_eq!(run.len(), runs[0].len());
                for (step, (a, b)) in runs[0].iter().zip(run).enumerate() {
                    assert_eq!(
                        a.tree(),
                        b.tree(),
                        "{label}: step {step} tree differs between 1 thread and {} threads",
                        [1, 2, 4][i]
                    );
                    assert_eq!(
                        a.stats().total_weight(),
                        b.stats().total_weight(),
                        "{label}: step {step} weight differs across thread counts"
                    );
                }
            }
        }
    }
}

#[test]
fn single_term_delta_chains_construct_each_edit_once() {
    let base = preprocess(&NeutrinoModel::new(3, 2).hamiltonian());
    let mapper = Mapper::new();
    mapper.map(&base).expect("base maps");
    assert_eq!(mapper.cache().constructions(), 1);

    let mut rng = StdRng::seed_from_u64(0xFA57);
    let mut current = base;
    let k = 8usize;
    for step in 0..k {
        // Exactly one term edited per delta — the adaptive-VQE shape.
        let mut delta = HamiltonianDelta::new(current.n_modes());
        let support = random_absent_support(&mut rng, &current);
        delta
            .push_add(hermitian_coeff(support.len(), 0.5), &support)
            .expect("insertion applies");
        let next = delta.apply(&current).expect("applies");
        let incremental = mapper.remap(&current, &delta).expect("remap");
        let fresh = Mapper::new().map(&next).expect("fresh map");
        assert_equiv(
            &format!("constructions step {step}"),
            &next,
            &incremental,
            &fresh,
            false,
        );
        current = next;
    }
    // Every edit reached a new structure: the base and each edit are
    // one construction.
    assert_eq!(mapper.cache().constructions(), (k + 1) as u64);
}

#[test]
fn compose_and_undo_round_trips_are_bit_identical() {
    let base = preprocess(&random_hermitian(8, 10, 8, 77));
    let mapper = Mapper::new();
    mapper.map(&base).expect("base maps");

    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let d1 = random_delta(&mut rng, &base);
    let mid = d1.apply(&base).expect("d1 applies");
    let d2 = random_delta(&mut rng, &mid);
    let next = d2.apply(&mid).expect("d2 applies");

    // Composition: one remap over d1∘d2 equals the fresh build of the
    // final Hamiltonian.
    let composed = d1.compose(&d2).expect("same mode count");
    let incremental = mapper.remap(&base, &composed).expect("composed remap");
    let fresh = Mapper::new().map(&next).expect("fresh map");
    assert_equiv("compose", &next, &incremental, &fresh, true);

    // Undo: walking the inverse scripts back must land exactly on the
    // original mapping.
    let undo = composed.inverted();
    assert_eq!(undo.apply(&next).expect("undo applies"), base);
    let unwound = mapper.remap(&next, &undo).expect("undo remap");
    let original = Mapper::new().map(&base).expect("fresh base map");
    assert_equiv("undo", &base, &unwound, &original, true);
}

/// The daemons a socket chain runs against: `front` reads the client's
/// lines, `shards` build behind it. A single daemon is its own builder.
struct Topology {
    front: Server,
    shards: Vec<Server>,
}

impl Topology {
    fn single() -> Topology {
        Topology {
            front: Server::bind("127.0.0.1:0", Mapper::new(), ServerConfig::default())
                .expect("bind ephemeral port"),
            shards: Vec::new(),
        }
    }

    /// A router over two shard daemons.
    fn routed() -> Topology {
        let shards: Vec<Server> = (0..2)
            .map(|_| {
                Server::bind("127.0.0.1:0", Mapper::new(), ServerConfig::default())
                    .expect("bind shard")
            })
            .collect();
        let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
        let front = Server::bind_router("127.0.0.1:0", &addrs, ServerConfig::default())
            .expect("bind router");
        Topology { front, shards }
    }

    /// `(constructions, cache hits)` summed over the daemons that build.
    fn totals(&self) -> (u64, u64) {
        let builders = if self.shards.is_empty() {
            std::slice::from_ref(&self.front)
        } else {
            &self.shards[..]
        };
        builders.iter().fold((0, 0), |(built, hits), daemon| {
            let stats = client::stats(daemon.local_addr(), "probe").expect("stats");
            (built + stats.constructions, hits + stats.cache.hits)
        })
    }

    fn shutdown(self) {
        self.front.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// Writes one request line and reads the reply lines up to `map_done`.
fn raw_reply(addr: SocketAddr, line: &str) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    (&stream)
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    loop {
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).expect("reply") > 0, "EOF");
        let done = reply.contains(r#""kind":"map_done""#);
        lines.push(reply.trim_end().to_string());
        if done {
            return lines;
        }
    }
}

/// A 12-edit session over `topology`'s socket: every edit must match a
/// fresh build, be built once, and be cached where a later
/// `map_request` for its structure looks. A delta that does not apply
/// must get the reply bytes a one-item request with a `delta` error
/// gets, and reach no backend.
fn socket_chain(topology: Topology) {
    let addr = topology.front.local_addr();
    let base = preprocess(&NeutrinoModel::new(3, 2).hamiltonian());

    // Warm the daemon with the base structure (one cold construction).
    let warm = client::request(addr, &MapRequest::new("warm", vec![base.clone()]))
        .expect("warm round trip");
    assert_eq!(warm.done.errors, 0);

    let mut rng = StdRng::seed_from_u64(0x50CE);
    let mut current = base;
    let k = 12usize;
    let mut edited = Vec::with_capacity(k);
    for step in 0..k {
        let delta = random_delta(&mut rng, &current);
        let next = delta.apply(&current).expect("applies");
        let req = MapDeltaRequest::new(format!("chain-{step}"), current.clone(), delta);
        let reply = client::remap(addr, &req).expect("map_delta round trip");
        assert_eq!(reply.done.errors, 0, "step {step}");
        let remote = reply.items[0].mapping().expect("ok item");
        let fresh = Mapper::new().map(&next).expect("fresh map");
        assert_eq!(
            remote.tree(),
            fresh.tree(),
            "step {step}: socket remap tree drifted"
        );
        assert_eq!(
            remote.stats().total_weight(),
            fresh.stats().total_weight(),
            "step {step}: socket remap weight drifted"
        );
        assert_eq!(
            remote.map_majorana_sum(&next).weight(),
            fresh.map_majorana_sum(&next).weight(),
            "step {step}: socket remap compile weight drifted"
        );
        edited.push(next.clone());
        current = next;
    }

    // The warm-up and each edit are one construction.
    let (constructions, hits) = topology.totals();
    assert_eq!(constructions, (k + 1) as u64);

    // Each edit was cached where its structure is looked up: mapping
    // every post-delta Hamiltonian again builds nothing.
    let again = client::request(addr, &MapRequest::new("again", edited)).expect("re-map");
    assert_eq!(again.done.errors, 0);
    assert_eq!(
        topology.totals(),
        (constructions, hits + k as u64),
        "a post-delta structure was not cached on the daemon that owns it"
    );

    // A delta that does not apply is answered with the bytes of a
    // one-item reply whose item is the `delta` error.
    let mut bogus = HamiltonianDelta::new(current.n_modes());
    bogus
        .push_remove(Complex64::real(999.0), &[0, 1, 2, 3])
        .expect("delta term");
    let error = bogus
        .apply(&current)
        .expect_err("the remove does not apply");
    let expected = [
        MapItem {
            id: "bad".into(),
            index: Some(0),
            payload: ItemPayload::Err(ItemError::from_hatt(&HattError::from(error))),
        }
        .to_line(),
        MapDone {
            id: "bad".into(),
            items: 1,
            errors: 1,
        }
        .to_line(),
    ];
    assert!(expected[0].contains(r#""code":"delta""#), "{expected:?}");
    let before = client::stats(addr, "before").expect("stats");
    let line = MapDeltaRequest::new("bad", current, bogus).to_line();
    assert_eq!(raw_reply(addr, &line), expected);

    // It counts as a `map_delta` line, but no backend saw it.
    let after = client::stats(addr, "after").expect("stats");
    assert_eq!(after.verbs.map_delta, before.verbs.map_delta + 1);
    assert_eq!(after.requests, before.requests);
    let forwarded = |s: &StatsReply| s.shards.iter().map(|s| s.forwarded).sum::<u64>();
    assert_eq!(forwarded(&after), forwarded(&before));
    assert_eq!(topology.totals(), (constructions, hits + k as u64));
    topology.shutdown();
}

#[test]
fn remap_chain_over_the_hattd_socket_is_bit_identical_and_builds_each_edit() {
    socket_chain(Topology::single());
}

/// The same session through a router: an edit is routed by its
/// post-delta structure, so its cache entry lands on the shard a later
/// `map_request` for that structure reaches.
#[test]
fn remap_chain_through_a_two_shard_router_caches_each_edit_on_its_owner() {
    socket_chain(Topology::routed());
}
