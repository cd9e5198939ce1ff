//! `hattd` — the HATT mapping daemon: JSON lines over TCP
//! (`hatt-wire/1` protocol, see `hatt_service::proto`).
//!
//! ```sh
//! hattd [--addr 127.0.0.1:7878] [--threads N] [--queue N] [--cache N]
//!       [--store PATH] [--max-conns N] [--max-line-bytes N]
//!       [--event-workers N] [--route HOST:PORT,HOST:PORT,...]
//!       [--policy greedy|vanilla|restarts|lookahead:<w>|beam:<w>]
//!       [--variant cached|paired|unopt] [--trace]
//! ```
//!
//! * `--addr` — listen address (`:0` picks an ephemeral port; the bound
//!   address is printed either way as `hattd listening on <addr>`).
//! * `--route` — **shard router mode**: serve the same wire protocol,
//!   but forward each request item to the listed shard daemon that owns
//!   the item's structure key on a consistent-hash ring. A `map_delta`
//!   is applied on arrival and routed by its post-delta structure, so
//!   each edit is cached and stored on that structure's owner. Per-shard
//!   health appears in `stats`; mapping flags (`--store`, `--cache`,
//!   `--policy`, …) are ignored — the shards own the mapping.
//! * `--event-workers` — event-loop worker threads multiplexing the
//!   connections (default: automatic).
//! * `--threads` — the scheduler's worker pool size, which also caps
//!   the threads of constructions (default: `HATT_THREADS` / hardware
//!   count).
//! * `--queue` — bounded scheduler queue capacity (default 256); a
//!   request with more items is refused with `invalid_request`.
//! * `--cache` — LRU bound on the structure cache (default 64 entries;
//!   `0` disables caching). With `--store`, an evicted structure
//!   reloads from disk instead of being rebuilt.
//! * `--store` — persistent content-addressed mapping store: warm-starts
//!   the cache from `PATH` on boot, writes every newly constructed
//!   mapping through, and flushes on shutdown. A restarted daemon
//!   serves previously seen structures from disk with zero selection
//!   work.
//! * `--max-conns` — concurrent-connection cap (default 256); over-cap
//!   connections get one typed `overloaded` line and are closed.
//! * `--max-line-bytes` — longest accepted request line (default 4 MiB);
//!   longer lines are answered with `invalid_request` without buffering.
//! * `--policy` / `--variant` — the server mapper's defaults; requests
//!   may override per call.
//! * `--trace` — record a span tree per request (accept, frame parse,
//!   queue wait, cache probe / construction, forward hop, write drain)
//!   into a bounded in-memory ring; dump recent trees with the
//!   `trace_dump` verb (`hatt_service::client::trace_dump`) and see
//!   recorded/dropped totals in `stats`.

use std::process::ExitCode;

use hatt_core::Mapper;
use hatt_service::{SchedulerConfig, Server, ServerConfig};

/// The structure cache's default LRU bound. Every cache miss adds an
/// entry (~10–13 KB at 98 modes), so an unbounded cache grows with
/// every session edit. 64 entries keep a serving working set of a few
/// dozen structures warm. A session edit hits only when it lands on a
/// structure seen before, such as an undone edit, which is among the
/// most recently used entries.
const DEFAULT_CACHE_ENTRIES: usize = 64;

struct Args {
    addr: String,
    threads: Option<usize>,
    queue: usize,
    cache: usize,
    store: Option<std::path::PathBuf>,
    max_conns: Option<usize>,
    max_line_bytes: Option<usize>,
    event_workers: Option<usize>,
    route: Option<String>,
    policy: Option<String>,
    variant: Option<String>,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        threads: None,
        queue: 256,
        cache: DEFAULT_CACHE_ENTRIES,
        store: None,
        max_conns: None,
        max_line_bytes: None,
        event_workers: None,
        route: None,
        policy: None,
        variant: None,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--queue" => {
                args.queue = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--cache" => {
                args.cache = value("--cache")?
                    .parse()
                    .map_err(|e| format!("--cache: {e}"))?
            }
            "--store" => args.store = Some(value("--store")?.into()),
            "--max-conns" => {
                args.max_conns = Some(
                    value("--max-conns")?
                        .parse()
                        .map_err(|e| format!("--max-conns: {e}"))?,
                )
            }
            "--max-line-bytes" => {
                args.max_line_bytes = Some(
                    value("--max-line-bytes")?
                        .parse()
                        .map_err(|e| format!("--max-line-bytes: {e}"))?,
                )
            }
            "--event-workers" => {
                args.event_workers = Some(
                    value("--event-workers")?
                        .parse()
                        .map_err(|e| format!("--event-workers: {e}"))?,
                )
            }
            "--route" => args.route = Some(value("--route")?),
            "--policy" => args.policy = Some(value("--policy")?),
            "--variant" => args.variant = Some(value("--variant")?),
            "--trace" => args.trace = true,
            "--help" | "-h" => {
                println!(
                    "hattd [--addr IP:PORT] [--threads N] [--queue N] [--cache N] \
                     [--store PATH] [--max-conns N] [--max-line-bytes N] \
                     [--event-workers N] [--route HOST:PORT,...] \
                     [--policy P] [--variant V] [--trace]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn build_mapper(args: &Args) -> Result<Mapper, String> {
    let mut builder = Mapper::builder().cache_capacity(args.cache);
    if let Some(policy) = &args.policy {
        builder = builder.policy_str(policy);
    }
    if let Some(variant) = &args.variant {
        let v = hatt_core::Variant::from_key(variant)
            .ok_or_else(|| format!("--variant: unknown variant {variant:?}"))?;
        builder = builder.variant(v);
    }
    if let Some(threads) = args.threads {
        builder = builder.threads(threads);
    }
    if let Some(store) = &args.store {
        builder = builder.store_path(store);
    }
    builder.build().map_err(|e| e.to_string())
}

fn scheduler_config(args: &Args) -> SchedulerConfig {
    SchedulerConfig {
        workers: args.threads.unwrap_or_else(parallel::max_threads),
        queue_capacity: args.queue,
    }
}

fn server_config(args: &Args) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        scheduler: scheduler_config(args),
        max_line_bytes: args.max_line_bytes.unwrap_or(defaults.max_line_bytes),
        max_connections: args.max_conns.unwrap_or(defaults.max_connections),
        event_workers: args.event_workers.unwrap_or(defaults.event_workers),
        max_write_buffer: defaults.max_write_buffer,
        trace: args.trace,
    }
}

/// Splits a `--route` shard list, rejecting empty entries.
fn parse_shards(route: &str) -> Result<Vec<String>, String> {
    let shards: Vec<String> = route
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if shards.is_empty() {
        return Err("--route: needs at least one HOST:PORT".into());
    }
    Ok(shards)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hattd: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = server_config(&args);
    let bound = if let Some(route) = &args.route {
        let shards = match parse_shards(route) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("hattd: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "hattd routing to {} shard(s): {}",
            shards.len(),
            shards.join(", ")
        );
        Server::bind_router(args.addr.as_str(), &shards, config)
    } else {
        let mapper = match build_mapper(&args) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("hattd: {e}");
                return ExitCode::FAILURE;
            }
        };
        Server::bind(args.addr.as_str(), mapper, config)
    };
    match bound {
        Ok(server) => {
            println!("hattd listening on {}", server.local_addr());
            server.join();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hattd: bind {}: {e}", args.addr);
            ExitCode::FAILURE
        }
    }
}
