//! Crate-wide error handling.

use std::fmt;
use std::io;

/// The error type returned by fallible operations across the COLE workspace.
#[derive(Debug)]
#[non_exhaustive]
pub enum ColeError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// A byte sequence could not be decoded into the expected type.
    InvalidEncoding(String),
    /// A request referenced data that does not exist.
    NotFound(String),
    /// The storage is in a state that does not permit the operation.
    InvalidState(String),
    /// Integrity verification of query results failed.
    VerificationFailed(String),
    /// A configuration parameter was out of range.
    InvalidConfig(String),
}

impl fmt::Display for ColeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColeError::Io(e) => write!(f, "i/o error: {e}"),
            ColeError::InvalidEncoding(msg) => write!(f, "invalid encoding: {msg}"),
            ColeError::NotFound(msg) => write!(f, "not found: {msg}"),
            ColeError::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            ColeError::VerificationFailed(msg) => write!(f, "verification failed: {msg}"),
            ColeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for ColeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ColeError {
    fn from(e: io::Error) -> Self {
        ColeError::Io(e)
    }
}

/// A convenient alias for `Result<T, ColeError>`.
pub type Result<T> = std::result::Result<T, ColeError>;

/// Returns `n`, an element count read off the wire, if `remaining` bytes can
/// hold `n` elements of at least `elem_len` bytes each.
///
/// Every decoder reserves capacity for a length-prefixed sequence through
/// this check, so a forged count fails before it allocates.
///
/// # Errors
///
/// Returns [`ColeError::InvalidEncoding`] if the count cannot fit.
///
/// # Panics
///
/// Panics if `elem_len` is zero (a caller bug, never wire data).
pub fn check_claim(n: usize, remaining: usize, elem_len: usize) -> Result<usize> {
    if n > remaining / elem_len {
        return Err(ColeError::InvalidEncoding(format!(
            "claims {n} elements of {elem_len} bytes but {remaining} bytes remain"
        )));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ColeError::NotFound("address 0x1".into());
        assert_eq!(e.to_string(), "not found: address 0x1");
        let e = ColeError::VerificationFailed("root mismatch".into());
        assert!(e.to_string().contains("root mismatch"));
    }

    #[test]
    fn io_errors_convert_and_expose_source() {
        let io_err = io::Error::other("boom");
        let e: ColeError = io_err.into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn claims_the_remaining_bytes_cannot_hold_are_rejected() {
        assert_eq!(check_claim(3, 96, 32).unwrap(), 3);
        assert_eq!(check_claim(0, 0, 32).unwrap(), 0);
        assert!(check_claim(4, 127, 32).is_err());
        assert!(check_claim(u32::MAX as usize, 44, 32).is_err());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ColeError>();
    }
}
