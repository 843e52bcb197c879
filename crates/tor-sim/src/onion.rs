//! `.onion` addresses.
//!
//! A (v2-style) onion address is the base32 encoding of the 80-bit
//! identifier. Tor takes the first 10 bytes of the SHA-1 digest of the
//! hidden service's RSA public key (§III of the paper); the simulated bots
//! derive theirs from the rotation secret instead
//! (`onionbots_core::rotation`).
//!
//! ```
//! use tor_sim::onion::OnionAddress;
//!
//! let addr = OnionAddress::from_identifier([0xab; 10]);
//! assert_eq!(addr.to_string().len(), "xxxxxxxxxxxxxxxx.onion".len());
//! assert_eq!(OnionAddress::parse(&addr.to_string()).unwrap(), addr);
//! ```

use std::fmt;

use onion_crypto::base32;
use serde::{Deserialize, Serialize};

use crate::error::TorError;

/// An 80-bit hidden-service identifier rendered as a 16-character
/// base32 label plus the `.onion` suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OnionAddress {
    identifier: [u8; 10],
}

impl OnionAddress {
    /// Builds an address directly from its 10-byte identifier.
    pub fn from_identifier(identifier: [u8; 10]) -> Self {
        OnionAddress { identifier }
    }

    /// The raw 10-byte identifier.
    pub fn identifier(&self) -> [u8; 10] {
        self.identifier
    }

    /// The 16-character base32 label (without the `.onion` suffix).
    pub fn label(&self) -> String {
        base32::encode(&self.identifier)
    }

    /// Parses a `label.onion` string (the suffix is optional).
    ///
    /// # Errors
    /// Returns [`TorError::InvalidOnionAddress`] when the label is not
    /// 16 base32 characters.
    pub fn parse(s: &str) -> Result<Self, TorError> {
        let label = s.strip_suffix(".onion").unwrap_or(s);
        let bytes = base32::decode(label)
            .map_err(|e| TorError::InvalidOnionAddress(format!("{label}: {e}")))?;
        if bytes.len() != 10 {
            return Err(TorError::InvalidOnionAddress(format!(
                "expected 10-byte identifier, got {} bytes",
                bytes.len()
            )));
        }
        let mut identifier = [0u8; 10];
        identifier.copy_from_slice(&bytes);
        Ok(OnionAddress { identifier })
    }
}

impl fmt::Display for OnionAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.onion", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_is_sixteen_characters() {
        let addr = OnionAddress::from_identifier([1; 10]);
        assert_eq!(addr.label().len(), 16);
        assert!(addr.to_string().ends_with(".onion"));
    }

    #[test]
    fn parse_roundtrip_with_and_without_suffix() {
        let addr = OnionAddress::from_identifier([0xfe; 10]);
        assert_eq!(OnionAddress::parse(&addr.to_string()).unwrap(), addr);
        assert_eq!(OnionAddress::parse(&addr.label()).unwrap(), addr);
    }

    #[test]
    fn parse_rejects_malformed_labels() {
        assert!(OnionAddress::parse("tooshort.onion").is_err());
        assert!(OnionAddress::parse("0000000000000000.onion").is_err());
        assert!(OnionAddress::parse("").is_err());
    }

    #[test]
    fn ordering_is_stable_for_use_as_map_keys() {
        let a = OnionAddress::from_identifier([0; 10]);
        let b = OnionAddress::from_identifier([1; 10]);
        assert!(a < b);
    }
}
