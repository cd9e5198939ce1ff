//! # hatt-service
//!
//! The production service surface of the HATT mapping engine: a typed
//! request/response protocol over the `hatt-wire/1` JSON format and a
//! std-only JSON-lines-over-TCP daemon ([`Server`], shipped as the
//! `hattd` binary) with a matching [`client`] helper. Behind the
//! daemon, a bounded-queue scheduler runs each item on a pool of
//! long-lived workers through the shared
//! [`Mapper`](hatt_core::Mapper) cache.
//!
//! ```text
//! client ──(map_request line)──▶ hattd event loop ──▶ Scheduler
//!            non-blocking socket,      (bounded, fair queue)
//!            readiness-multiplexed          │ one job per pool worker
//!                                           ▼
//!                                  Mapper + MappingCache
//!                                           │
//! client ◀─(map_item line per item, streamed)
//!        ◀─(map_done line)
//! ```
//!
//! Connections are owned by a small set of readiness-based event-loop
//! workers (`vendor/poll` over non-blocking sockets) — no per-connection
//! thread, no blocking write to a slow client. Each connection is its
//! own fairness bucket in the scheduler's round-robin queue, and a
//! request that queue cannot hold whole is shed with a typed
//! `overloaded` error instead of blocking an event loop (or refused
//! with `invalid_request` when it has more items than the queue ever
//! holds).
//! [`Server::bind_router`] swaps the scheduler for a consistent-hash
//! shard router that fans request items out to the shard daemons owning
//! their structure keys.
//!
//! Responses stream **one line per batch item as it completes**, so a
//! large batch's fast items arrive while slow ones still construct.
//! Every failure mode of a malformed or oversized request is a typed
//! error line — no panic in this crate is reachable from wire input.
//!
//! # Examples
//!
//! ```
//! use hatt_core::Mapper;
//! use hatt_fermion::MajoranaSum;
//! use hatt_service::{client, MapRequest, Server, ServerConfig};
//!
//! // Boot a daemon on an ephemeral port.
//! let server = Server::bind("127.0.0.1:0", Mapper::new(), ServerConfig::default())?;
//!
//! // Map two Hamiltonians over the socket.
//! let req = MapRequest::new(
//!     "demo",
//!     vec![MajoranaSum::uniform_singles(2), MajoranaSum::uniform_singles(3)],
//! );
//! let items = client::request(server.local_addr(), &req)?.into_ordered();
//! assert!(items.iter().all(|i| i.is_ok()));
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
mod error;
mod metrics;
mod proto;
mod queue;
mod reactor;
mod router;
mod scheduler;
mod server;

pub use client::MapReply;
pub use error::ServiceError;
pub use proto::{
    ItemError, ItemPayload, LatencyBucket, MapDeltaRequest, MapDone, MapItem, MapRequest,
    PolicyLatency, RequestLine, ResponseLine, ShardStats, StatsReply, StatsRequest, TierStats,
    TraceDumpReply, TraceDumpRequest, TraceSpan, TraceSummary, TraceTree, VerbCounters,
};
pub use scheduler::SchedulerConfig;
pub use server::{Server, ServerConfig};
