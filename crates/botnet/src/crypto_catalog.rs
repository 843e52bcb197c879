//! Table I of the paper: cryptographic use in existing botnet families.
//!
//! The paper contrasts the weak or absent cryptography of known botnets
//! (after discovery and reverse engineering, citing Rossow et al.'s "P2PWNED"
//! study) with the OnionBot design, which encrypts every link and signs every
//! command. The catalog is reproduced here so the `table1` harness binary can
//! regenerate the table and tests can assert its contents.

/// Payload encryption used by a botnet family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoUse {
    /// No encryption at all.
    None,
    /// Simple XOR obfuscation.
    Xor,
    /// Chained/rolling XOR obfuscation.
    ChainedXor,
    /// RC4 stream cipher.
    Rc4,
    /// Full transport encryption through Tor circuits plus per-link keys
    /// (the OnionBot design).
    TorAndPerLinkKeys,
}

/// Command signing used by a botnet family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigningUse {
    /// Commands are not signed.
    None,
    /// RSA with the given modulus size in bits.
    Rsa(u32),
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BotnetFamily {
    /// Family name as used in the paper.
    pub name: String,
    /// Payload encryption.
    pub crypto: CryptoUse,
    /// Command signing.
    pub signing: SigningUse,
    /// Whether replayed commands are accepted.
    pub replay_vulnerable: bool,
}

/// The rows of Table I exactly as printed in the paper, plus the OnionBot
/// design row for comparison.
pub fn table_one() -> Vec<BotnetFamily> {
    vec![
        BotnetFamily {
            name: "Miner".to_string(),
            crypto: CryptoUse::None,
            signing: SigningUse::None,
            replay_vulnerable: true,
        },
        BotnetFamily {
            name: "Storm".to_string(),
            crypto: CryptoUse::Xor,
            signing: SigningUse::None,
            replay_vulnerable: true,
        },
        BotnetFamily {
            name: "ZeroAccess v1".to_string(),
            crypto: CryptoUse::Rc4,
            signing: SigningUse::Rsa(512),
            replay_vulnerable: true,
        },
        BotnetFamily {
            name: "Zeus".to_string(),
            crypto: CryptoUse::ChainedXor,
            signing: SigningUse::Rsa(2048),
            replay_vulnerable: true,
        },
    ]
}

/// The comparison row for the OnionBot design (not part of the paper's
/// table, used by the harness to contrast the designs).
pub fn onionbot_row() -> BotnetFamily {
    BotnetFamily {
        name: "OnionBot (this design)".to_string(),
        crypto: CryptoUse::TorAndPerLinkKeys,
        signing: SigningUse::Rsa(2048),
        replay_vulnerable: false,
    }
}

/// Renders the catalog as a fixed-width text table matching the paper's
/// column order (Botnet, Crypto, Signing, Replay).
pub fn render_table(rows: &[BotnetFamily]) -> String {
    fn crypto_label(c: CryptoUse) -> &'static str {
        match c {
            CryptoUse::None => "none",
            CryptoUse::Xor => "XOR",
            CryptoUse::ChainedXor => "chained XOR",
            CryptoUse::Rc4 => "RC4",
            CryptoUse::TorAndPerLinkKeys => "Tor + per-link keys",
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<20} {:<10} {:<6}\n",
        "Botnet", "Crypto", "Signing", "Replay"
    ));
    for row in rows {
        let signing = match row.signing {
            SigningUse::None => "none".to_string(),
            SigningUse::Rsa(bits) => format!("RSA {bits}"),
        };
        out.push_str(&format!(
            "{:<24} {:<20} {:<10} {:<6}\n",
            row.name,
            crypto_label(row.crypto),
            signing,
            if row.replay_vulnerable { "yes" } else { "no" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_the_paper() {
        let rows = table_one();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].name, "Miner");
        assert_eq!(rows[0].crypto, CryptoUse::None);
        assert_eq!(rows[1].name, "Storm");
        assert_eq!(rows[1].crypto, CryptoUse::Xor);
        assert_eq!(rows[2].name, "ZeroAccess v1");
        assert_eq!(rows[2].signing, SigningUse::Rsa(512));
        assert_eq!(rows[3].name, "Zeus");
        assert_eq!(rows[3].crypto, CryptoUse::ChainedXor);
        assert_eq!(rows[3].signing, SigningUse::Rsa(2048));
        assert!(rows.iter().all(|r| r.replay_vulnerable));
    }

    #[test]
    fn onionbot_row_contrasts_with_legacy_families() {
        let row = onionbot_row();
        assert_eq!(row.crypto, CryptoUse::TorAndPerLinkKeys);
        assert!(!row.replay_vulnerable);
    }

    #[test]
    fn rendered_table_contains_every_family() {
        let mut rows = table_one();
        rows.push(onionbot_row());
        let rendered = render_table(&rows);
        for name in ["Miner", "Storm", "ZeroAccess v1", "Zeus", "OnionBot"] {
            assert!(rendered.contains(name), "missing {name}");
        }
        assert!(rendered.contains("RSA 2048"));
        assert_eq!(rendered.lines().count(), 6);
    }
}
