//! The typed error taxonomy of the public mapping API.
//!
//! Every fallible entry point ([`Mapper`](crate::Mapper) methods, the
//! wire codecs, the batch layer) returns [`HattError`]. No
//! `panic!`/`expect` is reachable from malformed user input on the
//! `Result` path — the service layer relies on this to map untrusted
//! requests safely.

use std::fmt;

use hatt_fermion::DeltaError;
use hatt_mappings::ParsePolicyError;
use hatt_pauli::wire::WireError;

/// Everything the mapping engine can report instead of panicking.
///
/// # Examples
///
/// ```
/// use hatt_core::{HattError, Mapper};
/// use hatt_fermion::MajoranaSum;
///
/// let mapper = Mapper::new();
/// // A zero-mode Hamiltonian is a typed error, not a panic.
/// let err = mapper.map(&MajoranaSum::new(0)).unwrap_err();
/// assert_eq!(err, HattError::EmptyHamiltonian);
///
/// // Policy strings fail with the parse error attached.
/// let err = Mapper::builder().policy_str("anneal:3").build().unwrap_err();
/// assert!(matches!(err, HattError::InvalidPolicy(_)));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HattError {
    /// The Hamiltonian has zero fermionic modes — there is nothing to
    /// map.
    EmptyHamiltonian,
    /// A value refers to a different mode/qubit count than expected
    /// (e.g. a request pinned to `n_modes` carrying a differently-sized
    /// Hamiltonian).
    ModeMismatch {
        /// The mode count the caller expected.
        expected: usize,
        /// The mode count actually found.
        got: usize,
    },
    /// A selection-policy string failed to parse.
    InvalidPolicy(ParsePolicyError),
    /// An explicit worker-thread cap of zero was requested.
    InvalidThreads,
    /// One element of a batch failed; `index` is its position in the
    /// input slice.
    BatchItem {
        /// Position of the failing Hamiltonian in the batch.
        index: usize,
        /// What went wrong with it.
        source: Box<HattError>,
    },
    /// A structural delta could not be applied to its base Hamiltonian
    /// (a removed term was absent, an added term already present, an
    /// index out of range, …) — see [`Mapper::remap`](crate::Mapper::remap).
    Delta(DeltaError),
    /// A `hatt-wire/1` document failed to encode or decode.
    Wire(WireError),
    /// The persistent mapping store failed to open or flush. (Read and
    /// write failures *during* mapping never surface here — they
    /// degrade to cache misses and dropped write-throughs.)
    Store(String),
    /// An internal invariant did not hold. Documented infallible for
    /// valid inputs (and guarded by `debug_assert!` in tests); surfacing
    /// it as an error keeps the invariant out of reach of `panic!` on
    /// the user-facing path.
    Internal(&'static str),
}

impl HattError {
    /// Short machine-readable code, used by the service protocol's error
    /// objects.
    pub fn code(&self) -> &'static str {
        match self {
            HattError::EmptyHamiltonian => "empty_hamiltonian",
            HattError::ModeMismatch { .. } => "mode_mismatch",
            HattError::InvalidPolicy(_) => "invalid_policy",
            HattError::InvalidThreads => "invalid_threads",
            HattError::BatchItem { .. } => "batch_item",
            HattError::Delta(_) => "delta",
            HattError::Wire(_) => "wire",
            HattError::Store(_) => "store",
            HattError::Internal(_) => "internal",
        }
    }

    /// Wraps this error as the failure of batch element `index`.
    pub fn at_index(self, index: usize) -> HattError {
        HattError::BatchItem {
            index,
            source: Box::new(self),
        }
    }
}

impl fmt::Display for HattError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HattError::EmptyHamiltonian => {
                write!(f, "empty Hamiltonian: need at least one mode")
            }
            HattError::ModeMismatch { expected, got } => {
                write!(f, "mode mismatch: expected {expected} modes, got {got}")
            }
            HattError::InvalidPolicy(e) => write!(f, "{e}"),
            HattError::InvalidThreads => {
                write!(f, "invalid worker count: threads must be at least 1")
            }
            HattError::BatchItem { index, source } => {
                write!(f, "batch element {index}: {source}")
            }
            HattError::Delta(e) => write!(f, "cannot apply delta: {e}"),
            HattError::Wire(e) => write!(f, "wire format error: {e}"),
            HattError::Store(msg) => write!(f, "mapping store error: {msg}"),
            HattError::Internal(what) => {
                write!(f, "internal invariant violated: {what} (please report)")
            }
        }
    }
}

impl std::error::Error for HattError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HattError::InvalidPolicy(e) => Some(e),
            HattError::Delta(e) => Some(e),
            HattError::Wire(e) => Some(e),
            HattError::BatchItem { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<WireError> for HattError {
    fn from(e: WireError) -> Self {
        HattError::Wire(e)
    }
}

impl From<ParsePolicyError> for HattError {
    fn from(e: ParsePolicyError) -> Self {
        HattError::InvalidPolicy(e)
    }
}

impl From<DeltaError> for HattError {
    fn from(e: DeltaError) -> Self {
        HattError::Delta(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_the_historic_panic_wording() {
        assert!(HattError::EmptyHamiltonian
            .to_string()
            .contains("at least one mode"));
    }

    #[test]
    fn codes_are_stable() {
        let wire = HattError::Wire(WireError::Format { found: "x".into() });
        assert_eq!(wire.code(), "wire");
        assert_eq!(HattError::EmptyHamiltonian.code(), "empty_hamiltonian");
        assert_eq!(HattError::EmptyHamiltonian.at_index(3).code(), "batch_item");
    }

    #[test]
    fn batch_wrapping_carries_index_and_source() {
        let e = HattError::EmptyHamiltonian.at_index(2);
        assert!(e.to_string().contains("batch element 2"));
        assert!(e.to_string().contains("at least one mode"));
        match e {
            HattError::BatchItem { index, source } => {
                assert_eq!(index, 2);
                assert_eq!(*source, HattError::EmptyHamiltonian);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn conversions_from_lower_layers() {
        let e: HattError = WireError::Format { found: "".into() }.into();
        assert!(matches!(e, HattError::Wire(_)));
        let parse = "bogus"
            .parse::<hatt_mappings::SelectionPolicy>()
            .unwrap_err();
        let e: HattError = parse.into();
        assert!(matches!(e, HattError::InvalidPolicy(_)));
    }
}
