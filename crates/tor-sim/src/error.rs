//! Error types for the simulated Tor substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the simulated Tor network.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TorError {
    /// A `.onion` address string could not be parsed.
    InvalidOnionAddress(String),
    /// No descriptor for the requested hidden service is currently announced
    /// on any responsible HSDir.
    DescriptorNotFound(String),
    /// The hidden service is not reachable (not registered or taken down).
    ServiceUnreachable(String),
    /// The consensus has no HSDirs to store a descriptor announcement on.
    NoHsdirs,
}

impl fmt::Display for TorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TorError::InvalidOnionAddress(msg) => write!(f, "invalid onion address: {msg}"),
            TorError::DescriptorNotFound(msg) => write!(f, "descriptor not found: {msg}"),
            TorError::ServiceUnreachable(msg) => write!(f, "hidden service unreachable: {msg}"),
            TorError::NoHsdirs => write!(f, "no HSDirs in the consensus"),
        }
    }
}

impl Error for TorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TorError::DescriptorNotFound("abcdef.onion".to_string());
        assert!(e.to_string().contains("abcdef.onion"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TorError>();
    }
}
