//! # hatt-core
//!
//! The paper's primary contribution: the **Hamiltonian-Adaptive Ternary
//! Tree** (HATT) fermion-to-qubit mapping construction — a Rust
//! reproduction of *HATT: Hamiltonian Adaptive Ternary Tree for Optimizing
//! Fermion-to-Qubit Mapping* (HPCA 2025).
//!
//! ## Public API
//!
//! The entry point is the configured, reusable [`Mapper`] handle:
//!
//! ```
//! use hatt_core::Mapper;
//! use hatt_fermion::models::FermiHubbard;
//! use hatt_mappings::{jordan_wigner, validate, FermionMapping};
//!
//! let mapper = Mapper::builder().build()?;
//! let hf = FermiHubbard::new(2, 2).hamiltonian();
//! let mapping = mapper.map_fermion(&hf)?;
//! assert!(validate(&mapping).vacuum_preserving);
//!
//! // HATT adapts to the Hamiltonian: its Pauli weight beats Jordan-Wigner.
//! let hatt_weight = mapping.map_fermion(&hf).weight();
//! let jw_weight = jordan_wigner(8).map_fermion(&hf).weight();
//! assert!(hatt_weight < jw_weight);
//! # Ok::<(), hatt_core::HattError>(())
//! ```
//!
//! Every fallible call returns a typed [`HattError`].
//!
//! ## Algorithms
//!
//! Three variants are implemented (see [`Variant`]):
//!
//! * **Algorithm 1** (`Unopt`): bottom-up greedy triple selection,
//!   `O(N⁴)`;
//! * **Algorithm 2** (`Paired`): vacuum-state-preserving operator pairing
//!   with literal tree traversals;
//! * **Algorithm 3** (`Cached`, default): the `mdown`/`mup` maps reduce
//!   pairing traversals to O(1), for `O(N³)` total.
//!
//! Orthogonally, a [`hatt_mappings::SelectionPolicy`] (set via
//! [`Mapper::builder`]) decides *which* candidate triple wins each
//! step — the default amortized greedy, a shortlist lookahead, a beam,
//! or the `restarts` portfolio that never loses to Jordan-Wigner; see
//! the `algorithm`-module docs and `docs/ARCHITECTURE.md`.
//!
//! The construction engine is parallel where the work is independent —
//! the `restarts` portfolio members and the beam's per-state scans fan
//! out over scoped threads (`HATT_THREADS` / `MapperBuilder::threads`
//! bound the workers) with output bit-identical to sequential — and
//! batched: [`Mapper::map_batch`] maps a slice of Hamiltonians
//! concurrently through the handle's structure-keyed [`MappingCache`]
//! (optionally LRU-bounded), so repeated term structures (a service
//! sweeping geometries) skip construction entirely. See the
//! [`batch`-module docs](crate::batch).
//!
//! ## Wire format
//!
//! [`wire`] implements the `hatt-wire/1` JSON codec for mappings
//! (tree + options + stats), composing the `hatt_pauli::wire` /
//! `hatt_fermion::wire` / `hatt_mappings::wire` codecs — the payloads
//! the `hatt-service` request/response layer streams over TCP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithm;
pub mod batch;
mod error;
mod mapper;
mod stats;
mod store;
pub mod wire;

pub use algorithm::{HattMapping, HattOptions, Variant};
pub use batch::{structure_key, MappingCache};
pub use error::HattError;
pub use mapper::{Mapper, MapperBuilder};
pub use stats::{ConstructionStats, IterationStats};
pub use store::StoreTierStats;
