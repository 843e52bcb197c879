//! The network observer's view (§V-A, "Mapping OnionBot").
//!
//! The paper argues that an ISP-level or Tor-level observer cannot map,
//! measure or classify an OnionBot because everything it sees is uniform:
//! fixed-size, encrypted cells with no plaintext source, destination or
//! message type. This module models that observer: it records only what
//! would actually be visible on the simulated wire (cell sizes and counts
//! per observation window) and offers the statistics a defender would try to
//! use, so tests and examples can check that those statistics carry no
//! signal about the underlying commands.

/// One observed wire object (a uniform cell between two unknown endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedCell {
    /// Size in bytes (always the uniform cell length for OnionBot traffic).
    pub size: usize,
    /// Observation window index (e.g. second) the cell was seen in.
    pub window: u64,
}

/// A passive observer accumulating wire-level observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireObserver {
    cells: Vec<ObservedCell>,
}

/// Summary statistics available to the observer.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationSummary {
    /// Total cells observed.
    pub total_cells: usize,
    /// Number of distinct cell sizes seen (1 for OnionBot traffic).
    pub distinct_sizes: usize,
    /// The single size if `distinct_sizes == 1`.
    pub uniform_size: Option<usize>,
    /// Shannon entropy (in bits) of the size distribution; 0.0 means the
    /// sizes carry no information at all.
    pub size_entropy_bits: f64,
    /// Cells per observation window (mean).
    pub mean_cells_per_window: f64,
}

impl WireObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        WireObserver::default()
    }

    /// Records a cell of `size` bytes during `window`.
    pub fn observe(&mut self, size: usize, window: u64) {
        self.cells.push(ObservedCell { size, window });
    }

    /// Records `count` identical cells in one window (convenience for bulk
    /// accounting from the Tor statistics).
    pub fn observe_many(&mut self, size: usize, window: u64, count: usize) {
        for _ in 0..count {
            self.observe(size, window);
        }
    }

    /// Number of observations so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Computes the summary statistics a defender could extract.
    pub fn summarize(&self) -> ObservationSummary {
        use std::collections::BTreeMap;
        // Ordered maps (detlint D001): the entropy fold below sums floats
        // over these counts, and float addition is not associative — with
        // hash order the entropy of a multi-size distribution could
        // differ between two identical runs. BTreeMap pins the fold order.
        let mut size_counts: BTreeMap<usize, usize> = BTreeMap::new();
        let mut windows: BTreeMap<u64, usize> = BTreeMap::new();
        for cell in &self.cells {
            *size_counts.entry(cell.size).or_default() += 1;
            *windows.entry(cell.window).or_default() += 1;
        }
        let total = self.cells.len();
        let entropy = if total == 0 {
            0.0
        } else {
            // A one-size distribution folds to -0.0 (`-1.0 * 0.0`); adding
            // +0.0 makes that +0.0 and leaves every other value's bits.
            size_counts
                .values()
                .map(|&c| {
                    let p = c as f64 / total as f64;
                    -p * p.log2()
                })
                .sum::<f64>()
                + 0.0
        };
        ObservationSummary {
            total_cells: total,
            distinct_sizes: size_counts.len(),
            uniform_size: if size_counts.len() == 1 {
                size_counts.keys().next().copied()
            } else {
                None
            },
            size_entropy_bits: entropy,
            mean_cells_per_window: if windows.is_empty() {
                0.0
            } else {
                total as f64 / windows.len() as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Audience, CommandKind};
    use crate::simulation::BotnetSimulation;
    use onion_crypto::elligator::UNIFORM_CELL_LEN;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_observer_summary_is_neutral() {
        let summary = WireObserver::new().summarize();
        assert_eq!(summary.total_cells, 0);
        assert_eq!(summary.distinct_sizes, 0);
        assert_eq!(summary.size_entropy_bits, 0.0);
    }

    #[test]
    fn uniform_traffic_has_zero_size_entropy() {
        let mut obs = WireObserver::new();
        obs.observe_many(UNIFORM_CELL_LEN, 0, 100);
        obs.observe_many(UNIFORM_CELL_LEN, 1, 50);
        let summary = obs.summarize();
        assert_eq!(summary.distinct_sizes, 1);
        assert_eq!(summary.uniform_size, Some(UNIFORM_CELL_LEN));
        assert_eq!(summary.size_entropy_bits, 0.0);
        assert!((summary.mean_cells_per_window - 75.0).abs() < 1e-9);
    }

    #[test]
    fn one_size_entropy_is_positive_zero() {
        let mut obs = WireObserver::new();
        obs.observe_many(UNIFORM_CELL_LEN, 0, 10);
        let entropy = obs.summarize().size_entropy_bits;
        assert!(entropy.is_sign_positive(), "{entropy}");
        assert_eq!(format!("{entropy:.3}"), "0.000");
    }

    #[test]
    fn mixed_size_traffic_is_distinguishable_by_contrast() {
        // A hypothetical botnet that does NOT pad its messages leaks
        // information through sizes: entropy is strictly positive.
        let mut obs = WireObserver::new();
        obs.observe_many(120, 0, 50);
        obs.observe_many(900, 0, 50);
        let summary = obs.summarize();
        assert_eq!(summary.distinct_sizes, 2);
        assert!(summary.size_entropy_bits > 0.9);
    }

    #[test]
    fn observer_of_a_real_simulation_sees_only_uniform_cells() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sim = BotnetSimulation::new(25, &mut rng);
        sim.infect(12, &mut rng);
        sim.rally(3, &mut rng);
        let mut observer = WireObserver::new();

        // Observe the wire while two very different commands propagate.
        let before = sim.tor().stats().messages_delivered;
        sim.broadcast_command(CommandKind::Maintenance, 2, &mut rng);
        let after_first = sim.tor().stats().messages_delivered;
        observer.observe_many(UNIFORM_CELL_LEN, 0, (after_first - before) as usize);

        let cmd = {
            let now = sim.clock_secs();
            sim.botmaster_mut().issue(
                CommandKind::SimulatedDdos {
                    target: "a-long-target-label.example.invalid".to_string(),
                },
                Audience::Broadcast,
                now,
            )
        };
        sim.propagate(&cmd, 2, &mut rng);
        let after_second = sim.tor().stats().messages_delivered;
        observer.observe_many(UNIFORM_CELL_LEN, 1, (after_second - after_first) as usize);

        let summary = observer.summarize();
        assert!(summary.total_cells > 0);
        assert_eq!(
            summary.distinct_sizes, 1,
            "both commands look identical on the wire"
        );
        assert_eq!(summary.size_entropy_bits, 0.0);
    }
}
