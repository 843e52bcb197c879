//! Uniform (indistinguishable-from-random) message encoding.
//!
//! The paper requires that relayed OnionBot messages leak nothing about their
//! source, destination or *nature* — "to achieve indistinguishability between
//! all messages, we use constructions such as Elligator" (§IV-D). We model
//! the property, not the elliptic-curve mechanism: every encoded message is a
//! fixed-size cell whose bytes are computationally indistinguishable from a
//! uniform random string to anyone without the link key. This preserves the
//! behaviour the mitigation analysis depends on (relaying bots and
//! authorities cannot filter by message type).
//!
//! Encoding layout (before encryption): `len(payload) as u16 || payload ||
//! zero padding` to [`UNIFORM_CELL_LEN`] bytes, then the whole cell is
//! encrypted with ChaCha20 under the link key and a random nonce; the nonce
//! is transmitted in the clear but is itself uniform.
//!
//! ```
//! use onion_crypto::elligator::UniformEncoder;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let encoder = UniformEncoder::new([5u8; 32]);
//! let cell = encoder.encode(b"broadcast: start mining", &mut rng).unwrap();
//! assert_eq!(cell.len(), onion_crypto::elligator::UNIFORM_CELL_LEN);
//! assert_eq!(encoder.decode(&cell).unwrap(), b"broadcast: start mining");
//! ```

use rand::Rng;

use crate::chacha20::ChaCha20;
use crate::error::CryptoError;

/// Size in bytes of every encoded cell (nonce prefix + encrypted body).
///
/// Sized to hold a signed command together with its rental token. The
/// simulated network counts one uniform cell as five fixed-size 512-byte Tor
/// cells of 505 payload bytes each (see `tor_sim::network`), so observers
/// still only ever see uniform-size units.
pub const UNIFORM_CELL_LEN: usize = 2048;

/// Nonce length prepended to each cell.
pub const NONCE_LEN: usize = 12;

/// Maximum payload that fits inside a single uniform cell.
pub const MAX_PAYLOAD_LEN: usize = UNIFORM_CELL_LEN - NONCE_LEN - 2;

/// Encodes and decodes fixed-size uniform-looking cells under a link key.
#[derive(Debug, Clone)]
pub struct UniformEncoder {
    key: [u8; 32],
}

impl UniformEncoder {
    /// Creates an encoder bound to a 32-byte link key.
    pub fn new(key: [u8; 32]) -> Self {
        UniformEncoder { key }
    }

    /// Encodes `payload` into a fixed-size cell that is indistinguishable
    /// from random bytes without the key.
    ///
    /// # Errors
    /// Returns [`CryptoError::MessageTooLarge`] if the payload exceeds
    /// [`MAX_PAYLOAD_LEN`].
    pub fn encode<R: Rng + ?Sized>(
        &self,
        payload: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, CryptoError> {
        if payload.len() > MAX_PAYLOAD_LEN {
            return Err(CryptoError::MessageTooLarge);
        }
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut nonce);
        let mut body = Vec::with_capacity(UNIFORM_CELL_LEN - NONCE_LEN);
        body.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        body.extend_from_slice(payload);
        // Pad the body with random bytes (not zeros) so even with a broken
        // cipher the trailing bytes carry no structure.
        while body.len() < UNIFORM_CELL_LEN - NONCE_LEN {
            body.push(rng.gen());
        }
        let encrypted = ChaCha20::new(&self.key, &nonce, 0).apply(&body);
        let mut cell = Vec::with_capacity(UNIFORM_CELL_LEN);
        cell.extend_from_slice(&nonce);
        cell.extend_from_slice(&encrypted);
        Ok(cell)
    }

    /// Decodes a cell produced by [`Self::encode`] with the same key.
    ///
    /// # Errors
    /// Returns [`CryptoError::InvalidLength`] for cells of the wrong size and
    /// [`CryptoError::InvalidEncoding`] when the decrypted length field is
    /// inconsistent (wrong key or corrupted cell).
    pub fn decode(&self, cell: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if cell.len() != UNIFORM_CELL_LEN {
            return Err(CryptoError::InvalidLength {
                expected: format!("{UNIFORM_CELL_LEN} bytes"),
                actual: cell.len(),
            });
        }
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&cell[..NONCE_LEN]);
        let body = ChaCha20::new(&self.key, &nonce, 0).apply(&cell[NONCE_LEN..]);
        let len = u16::from_be_bytes([body[0], body[1]]) as usize;
        if len > MAX_PAYLOAD_LEN {
            return Err(CryptoError::InvalidEncoding(
                "decoded length exceeds cell capacity".to_string(),
            ));
        }
        Ok(body[2..2 + len].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_various_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let enc = UniformEncoder::new([0xaau8; 32]);
        for len in [0usize, 1, 10, 100, MAX_PAYLOAD_LEN] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let cell = enc.encode(&payload, &mut rng).unwrap();
            assert_eq!(cell.len(), UNIFORM_CELL_LEN);
            assert_eq!(enc.decode(&cell).unwrap(), payload, "len {len}");
        }
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let enc = UniformEncoder::new([1u8; 32]);
        let payload = vec![0u8; MAX_PAYLOAD_LEN + 1];
        assert_eq!(
            enc.encode(&payload, &mut rng),
            Err(CryptoError::MessageTooLarge)
        );
    }

    #[test]
    fn wrong_size_cell_rejected() {
        let enc = UniformEncoder::new([1u8; 32]);
        assert!(matches!(
            enc.decode(&[0u8; 100]),
            Err(CryptoError::InvalidLength { .. })
        ));
    }

    #[test]
    fn all_cells_have_identical_length_regardless_of_payload() {
        // The property the paper needs: a maintenance ping and an attack
        // command are the same size on the wire.
        let mut rng = StdRng::seed_from_u64(3);
        let enc = UniformEncoder::new([2u8; 32]);
        let a = enc.encode(b"ping", &mut rng).unwrap();
        let b = enc
            .encode(
                b"ddos example.com starting at 2015-01-14T00:00:00Z with 10k rps",
                &mut rng,
            )
            .unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn same_payload_encodes_differently_each_time() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = UniformEncoder::new([3u8; 32]);
        let a = enc.encode(b"ping", &mut rng).unwrap();
        let b = enc.encode(b"ping", &mut rng).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn cells_look_statistically_uniform() {
        // Encode many identical payloads and check the byte histogram of the
        // encrypted bodies is roughly flat (chi-squared well below a loose
        // threshold). This is a smoke test of the indistinguishability claim.
        let mut rng = StdRng::seed_from_u64(5);
        let enc = UniformEncoder::new([4u8; 32]);
        let mut counts = [0u64; 256];
        let samples = 200;
        for _ in 0..samples {
            let cell = enc.encode(b"identical payload", &mut rng).unwrap();
            for &b in &cell[NONCE_LEN..] {
                counts[b as usize] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        let expected = total as f64 / 256.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let diff = c as f64 - expected;
                diff * diff / expected
            })
            .sum();
        // 255 degrees of freedom; mean 255, std ~22.6. Anything under 400 is
        // comfortably consistent with uniformity for a smoke test.
        assert!(chi2 < 400.0, "chi-squared too high: {chi2}");
    }

    #[test]
    fn decoding_with_wrong_key_usually_fails_or_garbles() {
        let mut rng = StdRng::seed_from_u64(6);
        let enc = UniformEncoder::new([7u8; 32]);
        let other = UniformEncoder::new([8u8; 32]);
        let cell = enc.encode(b"secret payload", &mut rng).unwrap();
        match other.decode(&cell) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(decoded, b"secret payload".to_vec()),
        }
    }
}
