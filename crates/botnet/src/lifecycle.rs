//! Bot life-cycle states (§IV-A).
//!
//! "OnionBot retains the life cycle of a typical peer-to-peer bot", but every
//! stage has Tor-specific behaviour: infection creates a `.onion` identity
//! and key material, rally bootstraps into the self-healing overlay, waiting
//! rotates addresses while listening for commands, execution runs
//! authenticated commands. In this simulator "execution" only increments
//! counters — commands are inert data.

/// The four life-cycle stages of a bot: Infection → Rally → Waiting ⇄
/// Execution; a bot falls back to Rally from Waiting when it loses all of
/// its peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BotState {
    /// Freshly compromised host: generates its key material and `.onion`
    /// identity.
    Infection,
    /// Looking for existing members of the overlay (bootstrapping).
    Rally,
    /// Connected and idle, rotating addresses and relaying traffic.
    Waiting,
    /// Executing an authenticated command from the botmaster.
    Execution,
}

impl std::fmt::Display for BotState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BotState::Infection => "infection",
            BotState::Rally => "rally",
            BotState::Waiting => "waiting",
            BotState::Execution => "execution",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use BotState::{Execution, Infection, Rally, Waiting};

    #[test]
    fn display_names_are_lowercase() {
        for s in [Infection, Rally, Waiting, Execution] {
            assert_eq!(s.to_string(), s.to_string().to_lowercase());
        }
    }
}
