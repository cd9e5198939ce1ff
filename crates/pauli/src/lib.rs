//! # hatt-pauli
//!
//! Pauli-algebra substrate for the HATT fermion-to-qubit mapping framework
//! (a Rust reproduction of *HATT: Hamiltonian Adaptive Ternary Tree for
//! Optimizing Fermion-to-Qubit Mapping*, HPCA 2025).
//!
//! The crate provides exactly the objects the paper's algebra is written
//! in:
//!
//! * [`Pauli`] — single-qubit operators `I, X, Y, Z` and their product
//!   table;
//! * [`Phase`] — the `i^k` phase group, tracked losslessly;
//! * [`PauliString`] — N-qubit strings in symplectic `(x, z)` form with
//!   exact phases, weight, commutation and Clifford conjugation;
//! * [`PauliSum`] — canonicalized weighted sums (qubit Hamiltonians) with
//!   the paper's total-Pauli-weight metric;
//! * [`Bits`] / [`Complex64`] — the supporting bit-vector and complex
//!   scalar types.
//!
//! # Example: the paper's motivating cancellation
//!
//! Multiplying Majorana strings can *cancel* operators: `(X0X1)(Y0Z2)` has
//! weight 3 even though its factors have total weight 4.
//!
//! ```
//! use hatt_pauli::PauliString;
//!
//! let m0: PauliString = "IXX".parse()?; // X1 X0
//! let m5: PauliString = "ZIY".parse()?; // Z2 Y0
//! let prod = m0.mul(&m5);
//! assert_eq!(prod.normalized().to_string(), "ZXZ");
//! assert_eq!(prod.weight(), 3);
//! # Ok::<(), hatt_pauli::ParsePauliStringError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bits;
mod complex;
pub mod json;
mod op;
mod string;
mod sum;
pub mod wire;

pub use bits::{Bits, IterOnes};
pub use complex::Complex64;
pub use op::{Pauli, Phase};
pub use string::{ParsePauliStringError, PauliString};
pub use sum::{PauliSum, COEFF_EPS};

// The parallel construction engine (`hatt-core`'s batch mapping, the
// threaded `restarts` portfolio) shares Hamiltonians across `std::thread::scope`
// workers and moves built mappings back to the caller, so every algebra
// type must stay `Send + Sync` (plain owned data — no `Rc`, `RefCell`,
// or raw pointers). Asserted at compile time so a refactor that breaks
// thread-safety fails here, next to the types, rather than deep inside
// the engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Bits>();
    assert_send_sync::<Complex64>();
    assert_send_sync::<Pauli>();
    assert_send_sync::<Phase>();
    assert_send_sync::<PauliString>();
    assert_send_sync::<PauliSum>();
};
