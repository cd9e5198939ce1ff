//! Service-layer errors: everything the scheduler, server and client
//! helpers can fail with beyond the mapping engine's own
//! [`HattError`](hatt_core::HattError).

use std::fmt;

use hatt_pauli::wire::WireError;

/// Errors of the request/response layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServiceError {
    /// Socket or stream I/O failed.
    Io(std::io::Error),
    /// A wire document failed to parse/validate.
    Wire(WireError),
    /// The peer violated the line protocol (unexpected kind, missing
    /// `map_done`, mismatched request id, …).
    Protocol(String),
    /// The server cannot take the request right now: a bounded queue
    /// that cannot hold all of its items sheds it whole, and a
    /// connection beyond the cap is turned away.
    Overloaded,
    /// The scheduler is shutting down.
    ShuttingDown,
}

impl ServiceError {
    /// Stable machine-readable code for wire error objects.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Io(_) => "io",
            ServiceError::Wire(_) => "wire",
            ServiceError::Protocol(_) => "protocol",
            ServiceError::Overloaded => "overloaded",
            ServiceError::ShuttingDown => "shutting_down",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "i/o error: {e}"),
            ServiceError::Wire(e) => write!(f, "wire error: {e}"),
            ServiceError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ServiceError::Overloaded => write!(f, "scheduler queue is full"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            ServiceError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}
