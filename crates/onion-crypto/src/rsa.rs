//! Textbook RSA key generation, signatures and encryption.
//!
//! The paper relies on RSA in three places:
//!
//! * Tor hidden services derive their `.onion` identifier from the SHA-1
//!   fingerprint of an RSA public key (§III).
//! * Every bot is hard-coded with the botmaster's public key `PK_CC` and
//!   reports its symmetric key as `{K_B}_{PK_CC}` (§IV-D).
//! * Botnet-for-rent tokens are certificates: the botmaster signs the
//!   renter's public key, an expiration time and a command whitelist (§IV-E).
//!
//! This is a *simulation-grade* RSA: deterministic-free textbook padding with
//! a random prefix, SHA-256 message hashing for signatures, and small keys by
//! default so tests stay fast. It must not be used outside the simulator.
//!
//! ```
//! use onion_crypto::rsa::RsaKeyPair;
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let keypair = RsaKeyPair::generate(512, &mut rng);
//! let signature = keypair.sign(b"DDoS example.com at noon");
//! assert!(keypair.public().verify(b"DDoS example.com at noon", &signature));
//! assert!(!keypair.public().verify(b"different message", &signature));
//! ```

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bignum::BigUint;
use crate::digest::Digest;
use crate::error::CryptoError;
use crate::prime::gen_prime;
use crate::sha1::Sha1;
use crate::sha256::Sha256;

/// The public half of an RSA key pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// A full RSA key pair (public modulus/exponent plus the private exponent).
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
}

/// Serializable form of a public key (hex-encoded), used in descriptors and
/// experiment reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedPublicKey {
    /// Hex encoding of the modulus `n`.
    pub n_hex: String,
    /// Hex encoding of the public exponent `e`.
    pub e_hex: String,
}

impl RsaPublicKey {
    /// Constructs a public key from raw modulus and exponent.
    pub fn from_parts(n: BigUint, e: BigUint) -> Self {
        RsaPublicKey { n, e }
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// The modulus size in whole bytes.
    fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Canonical byte encoding of the key: `len(n) || n || len(e) || e`
    /// (big-endian, 4-byte length prefixes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let n_bytes = self.n.to_bytes_be();
        let e_bytes = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + n_bytes.len() + e_bytes.len());
        out.extend_from_slice(&(n_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&n_bytes);
        out.extend_from_slice(&(e_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&e_bytes);
        out
    }

    /// Parses the canonical byte encoding produced by [`Self::to_bytes`].
    ///
    /// # Errors
    /// Returns [`CryptoError::InvalidEncoding`] on truncated input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        fn read_chunk(bytes: &[u8]) -> Result<(BigUint, &[u8]), CryptoError> {
            if bytes.len() < 4 {
                return Err(CryptoError::InvalidEncoding(
                    "truncated rsa key encoding".to_string(),
                ));
            }
            let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
            if bytes.len() < 4 + len {
                return Err(CryptoError::InvalidEncoding(
                    "truncated rsa key body".to_string(),
                ));
            }
            Ok((
                BigUint::from_bytes_be(&bytes[4..4 + len]),
                &bytes[4 + len..],
            ))
        }
        let (n, rest) = read_chunk(bytes)?;
        let (e, _) = read_chunk(rest)?;
        Ok(RsaPublicKey { n, e })
    }

    /// Tor-style fingerprint: the full SHA-1 digest of the key encoding.
    pub fn fingerprint(&self) -> [u8; 20] {
        let digest = Sha1::digest(&self.to_bytes());
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest);
        out
    }

    /// The 80-bit (10-byte) hidden-service identifier: the truncated SHA-1
    /// digest of the public key, exactly as Tor v2 onion services compute it.
    pub fn identifier(&self) -> [u8; 10] {
        let fp = self.fingerprint();
        let mut out = [0u8; 10];
        out.copy_from_slice(&fp[..10]);
        out
    }

    /// Verifies a signature produced by [`RsaKeyPair::sign`].
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        let sig = BigUint::from_bytes_be(signature);
        if sig >= self.n {
            return false;
        }
        let recovered = sig.mod_exp(&self.e, &self.n);
        let expected = BigUint::from_bytes_be(&Sha256::digest(message)).rem_ref(&self.n);
        recovered == expected
    }

    /// Encrypts a short message to this public key.
    ///
    /// Padding layout (simulation-grade PKCS#1-v1.5 analogue):
    /// `0x00 0x02 <random non-zero bytes> 0x00 <message>`.
    ///
    /// # Errors
    /// Returns [`CryptoError::MessageTooLarge`] when the message does not fit
    /// under the modulus with at least 8 bytes of random padding.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        message: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if message.len() + 11 > k {
            return Err(CryptoError::MessageTooLarge);
        }
        let pad_len = k - message.len() - 3;
        let mut block = Vec::with_capacity(k);
        block.push(0x00);
        block.push(0x02);
        for _ in 0..pad_len {
            block.push(rng.gen_range(1..=255u8));
        }
        block.push(0x00);
        block.extend_from_slice(message);
        let m = BigUint::from_bytes_be(&block);
        let c = m.mod_exp(&self.e, &self.n);
        Ok(c.to_bytes_be_padded(k))
    }

    /// Serializable hex representation.
    pub fn encode(&self) -> EncodedPublicKey {
        EncodedPublicKey {
            n_hex: self.n.to_hex(),
            e_hex: self.e.to_hex(),
        }
    }

    /// Reconstructs a key from its hex representation.
    ///
    /// # Errors
    /// Returns [`CryptoError::InvalidEncoding`] when the hex fields are
    /// malformed.
    pub fn decode(encoded: &EncodedPublicKey) -> Result<Self, CryptoError> {
        let n = BigUint::from_hex(&encoded.n_hex)
            .ok_or_else(|| CryptoError::InvalidEncoding("bad modulus hex".to_string()))?;
        let e = BigUint::from_hex(&encoded.e_hex)
            .ok_or_else(|| CryptoError::InvalidEncoding("bad exponent hex".to_string()))?;
        Ok(RsaPublicKey { n, e })
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of roughly `modulus_bits`
    /// bits.
    ///
    /// # Panics
    /// Panics if `modulus_bits < 64`.
    pub fn generate<R: Rng + ?Sized>(modulus_bits: usize, rng: &mut R) -> Self {
        assert!(modulus_bits >= 64, "modulus too small to be meaningful");
        let e = BigUint::from_u64(65_537);
        loop {
            let p = gen_prime(modulus_bits / 2, rng);
            let q = gen_prime(modulus_bits - modulus_bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul_ref(&q);
            let one = BigUint::one();
            let phi = p.sub_ref(&one).mul_ref(&q.sub_ref(&one));
            if !e.gcd(&phi).is_one() {
                continue;
            }
            let d = match e.mod_inverse(&phi) {
                Some(d) => d,
                None => continue,
            };
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                d,
            };
        }
    }

    /// The public half of the key pair.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Signs a message: `SHA-256(message)^d mod n`.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let h = BigUint::from_bytes_be(&Sha256::digest(message)).rem_ref(&self.public.n);
        let s = h.mod_exp(&self.d, &self.public.n);
        s.to_bytes_be_padded(self.public.modulus_len())
    }

    /// Decrypts a ciphertext produced by [`RsaPublicKey::encrypt`].
    ///
    /// # Errors
    /// Returns [`CryptoError::InvalidPadding`] when the padding structure is
    /// not recovered (wrong key or corrupted ciphertext).
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(CryptoError::InvalidPadding);
        }
        let m = c.mod_exp(&self.d, &self.public.n);
        let k = self.public.modulus_len();
        let block = m.to_bytes_be_padded(k);
        if block.len() < 11 || block[0] != 0x00 || block[1] != 0x02 {
            return Err(CryptoError::InvalidPadding);
        }
        let separator = block[2..]
            .iter()
            .position(|&b| b == 0x00)
            .ok_or(CryptoError::InvalidPadding)?;
        Ok(block[2 + separator + 1..].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_keypair(seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(512, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = test_keypair(1);
        let msg = b"maintenance: replace peer 4 with peer 9";
        let sig = kp.sign(msg);
        assert!(kp.public().verify(msg, &sig));
        assert!(!kp.public().verify(b"tampered", &sig));
        let mut bad_sig = sig.clone();
        bad_sig[0] ^= 0xff;
        assert!(!kp.public().verify(msg, &bad_sig));
    }

    #[test]
    fn signatures_do_not_verify_under_other_keys() {
        let kp1 = test_keypair(2);
        let kp2 = test_keypair(3);
        let sig = kp1.sign(b"command");
        assert!(!kp2.public().verify(b"command", &sig));
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let msg = b"K_B = 0123456789abcdef0123456789abcdef";
        let ct = kp.public().encrypt(msg, &mut rng).unwrap();
        assert_eq!(kp.decrypt(&ct).unwrap(), msg.to_vec());
    }

    #[test]
    fn encryption_is_randomized() {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let c1 = kp.public().encrypt(b"same message", &mut rng).unwrap();
        let c2 = kp.public().encrypt(b"same message", &mut rng).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn oversized_message_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let too_big = vec![0xaa; kp.public().modulus_len()];
        assert_eq!(
            kp.public().encrypt(&too_big, &mut rng),
            Err(CryptoError::MessageTooLarge)
        );
    }

    #[test]
    fn decrypt_with_wrong_key_fails() {
        let mut rng = StdRng::seed_from_u64(7);
        let kp1 = RsaKeyPair::generate(512, &mut rng);
        let kp2 = RsaKeyPair::generate(512, &mut rng);
        let ct = kp1.public().encrypt(b"secret", &mut rng).unwrap();
        assert!(kp2.decrypt(&ct).is_err());
    }

    #[test]
    fn key_encoding_roundtrip() {
        let kp = test_keypair(8);
        let bytes = kp.public().to_bytes();
        let restored = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&restored, kp.public());
        let encoded = kp.public().encode();
        let decoded = RsaPublicKey::decode(&encoded).unwrap();
        assert_eq!(&decoded, kp.public());
    }

    #[test]
    fn truncated_encoding_rejected() {
        let kp = test_keypair(9);
        let bytes = kp.public().to_bytes();
        assert!(RsaPublicKey::from_bytes(&bytes[..3]).is_err());
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn identifier_is_ten_bytes_and_stable() {
        let kp = test_keypair(10);
        let id1 = kp.public().identifier();
        let id2 = kp.public().identifier();
        assert_eq!(id1, id2);
        assert_eq!(id1.len(), 10);
        assert_eq!(&kp.public().fingerprint()[..10], &id1);
    }

    #[test]
    fn distinct_keys_have_distinct_identifiers() {
        let a = test_keypair(11);
        let b = test_keypair(12);
        assert_ne!(a.public().identifier(), b.public().identifier());
    }
}
