//! Minimal hexadecimal encoding/decoding helpers used by tests, fingerprints
//! and experiment reports.
//!
//! ```
//! let bytes = onion_crypto::hex::decode("deadbeef").unwrap();
//! assert_eq!(onion_crypto::hex::encode(&bytes), "deadbeef");
//! ```

use crate::error::CryptoError;

/// Encodes bytes as lowercase hexadecimal.
pub fn encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0x0f)]));
    }
    s
}

/// Decodes a hexadecimal string (case insensitive, even length).
///
/// # Errors
/// Returns [`CryptoError::InvalidEncoding`] when the input has odd length or
/// contains non-hex characters.
pub fn decode(s: &str) -> Result<Vec<u8>, CryptoError> {
    if !s.len().is_multiple_of(2) {
        return Err(CryptoError::InvalidEncoding(
            "hex string must have even length".to_string(),
        ));
    }
    let chars: Vec<char> = s.chars().collect();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in chars.chunks(2) {
        let hi = pair[0].to_digit(16).ok_or_else(|| {
            CryptoError::InvalidEncoding(format!("invalid hex char {:?}", pair[0]))
        })?;
        let lo = pair[1].to_digit(16).ok_or_else(|| {
            CryptoError::InvalidEncoding(format!("invalid hex char {:?}", pair[1]))
        })?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = [0u8, 1, 2, 254, 255, 16, 32];
        assert_eq!(decode(&encode(&data)).unwrap(), data.to_vec());
    }

    #[test]
    fn every_byte_encodes_as_two_lowercase_digits() {
        let all: Vec<u8> = (0..=255).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(encode(&all), expected);
    }

    #[test]
    fn empty() {
        assert_eq!(encode(&[]), "");
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn uppercase_accepted() {
        assert_eq!(decode("DEADBEEF").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn rejects_odd_length_and_bad_chars() {
        assert!(decode("abc").is_err());
        assert!(decode("zz").is_err());
    }
}
