//! # onion-crypto
//!
//! From-scratch cryptographic primitives for the OnionBots (DSN 2015)
//! defensive research simulator.
//!
//! The reproduction environment only allows a small set of non-cryptographic
//! third-party crates, so every primitive the paper's design depends on is
//! implemented here:
//!
//! * [`bignum`] — arbitrary-precision unsigned integers.
//! * [`prime`] — Miller–Rabin primality testing and prime generation.
//! * [`rsa`] — textbook RSA key pairs, signatures and encryption (hidden
//!   service identities, botmaster keys, rental tokens).
//! * [`sha1`], [`sha256`], [`digest`] — hash functions (Tor identifiers and
//!   descriptor IDs use SHA-1; everything else uses SHA-256).
//! * [`hmac`] — message authentication.
//! * [`chacha20`] — the stream cipher behind the uniform message encoding.
//! * [`base32`] — `.onion` hostname encoding.
//! * [`kdf`] — the paper's `generateKey(PK_CC, H(K_B, i_p))` periodic address
//!   rotation recipe.
//! * [`elligator`] — fixed-size, indistinguishable-from-random message cells
//!   (the property the paper obtains from Elligator).
//!
//! Everything here is **simulation-grade**: correct against published test
//! vectors, but not hardened (no constant-time bignum arithmetic, no
//! side-channel defenses) and not intended for production use.
//!
//! ```
//! use onion_crypto::rsa::RsaKeyPair;
//! use onion_crypto::base32;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let service_key = RsaKeyPair::generate(512, &mut rng);
//! let onion_label = base32::encode(&service_key.public().identifier());
//! assert_eq!(onion_label.len(), 16);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod base32;
pub mod bignum;
pub mod chacha20;
pub mod digest;
pub mod elligator;
pub mod error;
pub mod hex;
pub mod hmac;
pub mod kdf;
pub mod prime;
mod proptests;
pub mod rsa;
pub mod sha1;
pub mod sha256;

pub use error::CryptoError;

#[cfg(test)]
mod integration_tests {
    //! Cross-module tests exercising the flows the rest of the workspace
    //! builds on.

    use crate::base32;
    use crate::digest::Digest;
    use crate::elligator::UniformEncoder;
    use crate::kdf;
    use crate::rsa::RsaKeyPair;
    use crate::sha1::Sha1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn onion_address_derivation_matches_tor_recipe() {
        // .onion = base32(first 10 bytes of SHA-1(public key)).
        let mut rng = StdRng::seed_from_u64(100);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let digest = Sha1::digest(&kp.public().to_bytes());
        let onion = base32::encode(&digest[..10]);
        assert_eq!(onion, base32::encode(&kp.public().identifier()));
        assert_eq!(onion.len(), 16);
    }

    #[test]
    fn bot_key_report_flow() {
        // A bot generates K_B, encrypts it to PK_CC, the botmaster decrypts
        // it and both sides derive the same next-period address seed.
        let mut rng = StdRng::seed_from_u64(101);
        let cc = RsaKeyPair::generate(768, &mut rng);
        let k_b: [u8; 32] = rand::Rng::gen(&mut rng);
        let report = cc.public().encrypt(&k_b, &mut rng).unwrap();
        let recovered = cc.decrypt(&report).unwrap();
        assert_eq!(recovered, k_b.to_vec());
        assert_eq!(
            kdf::derive_period_seed(cc.public(), &k_b, 3),
            kdf::derive_period_seed(cc.public(), &recovered, 3)
        );
    }

    #[test]
    fn signed_uniform_command_flow() {
        // The botmaster signs a command, wraps it in a uniform cell, and a
        // bot unwraps and verifies it.
        let mut rng = StdRng::seed_from_u64(102);
        let cc = RsaKeyPair::generate(512, &mut rng);
        let link_key = kdf::derive_link_key(b"botnet", b"bot-a", b"bot-b");
        let encoder = UniformEncoder::new(link_key);

        let command = b"broadcast:noop-maintenance".to_vec();
        let signature = cc.sign(&command);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(command.len() as u16).to_be_bytes());
        wire.extend_from_slice(&command);
        wire.extend_from_slice(&signature);

        let cell = encoder.encode(&wire, &mut rng).unwrap();
        let received = encoder.decode(&cell).unwrap();
        let cmd_len = u16::from_be_bytes([received[0], received[1]]) as usize;
        let cmd = &received[2..2 + cmd_len];
        let sig = &received[2 + cmd_len..];
        assert_eq!(cmd, command.as_slice());
        assert!(cc.public().verify(cmd, sig));
    }
}
