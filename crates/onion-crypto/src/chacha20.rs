//! ChaCha20 stream cipher (RFC 7539 construction).
//!
//! OnionBot traffic must be encrypted and indistinguishable hop by hop
//! (§IV-D). The uniform message encoding ([`crate::elligator`]) uses the
//! ChaCha20 keystream to make payloads look like random strings.
//!
//! ```
//! use onion_crypto::chacha20::ChaCha20;
//!
//! let key = [7u8; 32];
//! let nonce = [1u8; 12];
//! let ciphertext = ChaCha20::new(&key, &nonce, 0).apply(b"attack at dawn");
//! let plaintext = ChaCha20::new(&key, &nonce, 0).apply(&ciphertext);
//! assert_eq!(plaintext, b"attack at dawn");
//! ```

/// A ChaCha20 cipher instance bound to a key, nonce and initial counter.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
}

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Creates a cipher from a 32-byte key, 12-byte nonce and block counter.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        let mut key_words = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            key_words[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut nonce_words = [0u32; 3];
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            nonce_words[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 {
            key: key_words,
            nonce: nonce_words,
            counter,
        }
    }

    /// Generates the 64-byte keystream block for the given counter value.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);
        let initial = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Encrypts or decrypts `data` (XOR with the keystream); the operation is
    /// an involution, so calling it twice with the same parameters recovers
    /// the input.
    pub fn apply(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        let mut counter = self.counter;
        for chunk in data.chunks(64) {
            let keystream = self.block(counter);
            counter = counter.wrapping_add(1);
            for (b, k) in chunk.iter().zip(keystream.iter()) {
                out.push(b ^ k);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc7539_quarter_round_vector() {
        // RFC 7539 §2.1.1 test vector.
        let mut state = [0u32; 16];
        state[0] = 0x1111_1111;
        state[1] = 0x0102_0304;
        state[2] = 0x9b8d_6f43;
        state[3] = 0x0123_4567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a_92f4);
        assert_eq!(state[1], 0xcb1c_f8ce);
        assert_eq!(state[2], 0x4581_472e);
        assert_eq!(state[3], 0x5881_c4bb);
    }

    #[test]
    fn encryption_roundtrip() {
        let key = [0x42u8; 32];
        let nonce = [0x24u8; 12];
        let plaintext: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let ct = ChaCha20::new(&key, &nonce, 1).apply(&plaintext);
        assert_ne!(ct, plaintext);
        let pt = ChaCha20::new(&key, &nonce, 1).apply(&ct);
        assert_eq!(pt, plaintext);
    }

    #[test]
    fn different_keys_and_nonces_differ() {
        let msg = [0u8; 64];
        let a = ChaCha20::new(&[1u8; 32], &[0u8; 12], 0).apply(&msg);
        let b = ChaCha20::new(&[2u8; 32], &[0u8; 12], 0).apply(&msg);
        let c = ChaCha20::new(&[1u8; 32], &[1u8; 12], 0).apply(&msg);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn counter_advances_per_block() {
        let cipher = ChaCha20::new(&[9u8; 32], &[3u8; 12], 0);
        let two_blocks = cipher.apply(&[0u8; 128]);
        assert_eq!(&two_blocks[..64], &cipher.block(0)[..]);
        assert_eq!(&two_blocks[64..], &cipher.block(1)[..]);
    }

    #[test]
    fn keystream_is_deterministic() {
        let a = ChaCha20::new(&[5u8; 32], &[6u8; 12], 7).apply(&[0u8; 256]);
        let b = ChaCha20::new(&[5u8; 32], &[6u8; 12], 7).apply(&[0u8; 256]);
        assert_eq!(a, b);
    }

    #[test]
    fn keystream_looks_balanced() {
        // Crude sanity check that the keystream is not obviously biased: the
        // popcount of 4 KiB of keystream should be close to half the bits.
        let ks = ChaCha20::new(&[0xabu8; 32], &[0xcdu8; 12], 0).apply(&[0u8; 4096]);
        let ones: u32 = ks.iter().map(|b| b.count_ones()).sum();
        let total = 4096 * 8;
        let ratio = f64::from(ones) / f64::from(total as u32);
        assert!((0.47..0.53).contains(&ratio), "bit ratio {ratio}");
    }
}
