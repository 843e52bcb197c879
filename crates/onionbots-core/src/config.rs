//! Configuration of the DDSR overlay.

/// Parameters of the Dynamic Distributed Self-Repairing overlay (§IV-C).
///
/// Repair adds edges between a deleted node's neighbors, and pruning
/// removes the highest-degree peers when a node exceeds `d_max`. The
/// paper also names a lower bound `d_min`, which "is only applicable as
/// long as there are enough surviving nodes". It is not a parameter here:
/// highest-degree pruning never drops a peer while one of higher degree
/// remains, so while any peer sits above a lower bound, no peer at or
/// below it is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdsrConfig {
    /// Upper bound on the node degree enforced by pruning.
    pub d_max: usize,
    /// Whether the pruning mechanism is enabled (Figure 4 compares both).
    pub pruning: bool,
}

impl DdsrConfig {
    /// Configuration matching the paper's evaluation for an initial
    /// `k`-regular overlay: pruning keeps the degree at or below `k` (at
    /// least 2).
    pub fn for_degree(k: usize) -> Self {
        DdsrConfig {
            d_max: k.max(2),
            pruning: true,
        }
    }

    /// Same degree targets but with pruning disabled (the "without pruning"
    /// series of Figure 4).
    pub fn without_pruning(k: usize) -> Self {
        DdsrConfig {
            pruning: false,
            ..Self::for_degree(k)
        }
    }
}

impl Default for DdsrConfig {
    fn default() -> Self {
        DdsrConfig::for_degree(10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_degree_tracks_k() {
        let c = DdsrConfig::for_degree(10);
        assert_eq!(c.d_max, 10);
        assert!(c.pruning);
    }

    #[test]
    fn small_degrees_are_clamped() {
        let c = DdsrConfig::for_degree(1);
        assert!(c.d_max >= 2);
    }

    #[test]
    fn without_pruning_only_disables_pruning() {
        let with = DdsrConfig::for_degree(5);
        let without = DdsrConfig::without_pruning(5);
        assert!(!without.pruning);
        assert_eq!(with.d_max, without.d_max);
    }

    #[test]
    fn default_matches_paper_headline_setting() {
        assert_eq!(DdsrConfig::default(), DdsrConfig::for_degree(10));
    }
}
