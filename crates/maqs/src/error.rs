//! The facade's unified error type.
//!
//! The stack below has two error worlds: [`OrbError`] for everything on
//! the request path and [`QidlError`] for the compiler front end. Facade
//! operations can hit either (a node builder compiles specs; serving
//! weaves and activates), so they return one [`Error`] with stable
//! `source()` chains back to the underlying cause.

use orb::OrbError;
use qidl::QidlError;
use std::fmt;

/// Any failure a MAQS facade operation can produce.
#[derive(Debug)]
pub enum Error {
    /// A request-path / broker failure.
    Orb(OrbError),
    /// A QIDL compilation or repository failure.
    Qidl(QidlError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Orb(e) => write!(f, "orb error: {e}"),
            Error::Qidl(e) => write!(f, "qidl error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Orb(e) => Some(e),
            Error::Qidl(e) => Some(e),
        }
    }
}

impl From<OrbError> for Error {
    fn from(e: OrbError) -> Error {
        Error::Orb(e)
    }
}

impl From<QidlError> for Error {
    fn from(e: QidlError) -> Error {
        Error::Qidl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn from_and_source_chain() {
        let e: Error = OrbError::BadOperation("frob".to_string()).into();
        assert!(matches!(e, Error::Orb(_)));
        let src = e.source().expect("source preserved");
        assert!(src.to_string().contains("frob"), "{src}");
        assert!(e.to_string().starts_with("orb error:"));
    }

    #[test]
    fn qidl_side_converts() {
        let qerr = qidl::compile("interface {").unwrap_err();
        let e: Error = qerr.into();
        assert!(matches!(e, Error::Qidl(_)));
        assert!(e.source().is_some());
    }
}
