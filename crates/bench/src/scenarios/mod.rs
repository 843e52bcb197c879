//! The registered paper scenarios.
//!
//! Each submodule is one [`Scenario`](sim::scenario_api::Scenario):
//! Figures 3–8, Table I, the two ablations and the scale run.
//! [`registry`] returns them all; the `run_experiments` binary drives the
//! registry through the parallel [`sim::Runner`].

pub mod ablation_non;
pub mod ablation_soap;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod scale;
pub mod table1;

use sim::scenario_api::ScenarioRegistry;

/// Builds the registry holding every paper scenario, in paper order.
pub fn registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry
        .register(fig3::RepairTrace)
        .register(fig4::CentralityUnderTakedown)
        .register(fig5::DdsrVersusNormal)
        .register(fig6::PartitionThreshold)
        .register(fig7::SoapCampaign)
        .register(fig8::SuperOnionRecovery)
        .register(table1::CryptoCatalog)
        .register(ablation_non::NonLookahead)
        .register(ablation_soap::SoapDefenses)
        .register(scale::ScaleChurn);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::scenario_api::ScenarioParams;

    #[test]
    fn registry_contains_every_scenario_exactly_once() {
        let registry = registry();
        let ids = registry.ids();
        let expected = [
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "table1",
            "ablation-non",
            "ablation-soap-defenses",
            "scale",
        ];
        assert_eq!(ids, expected);
        let mut dedup: Vec<&str> = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids are unique");
        assert!(registry.len() >= 10);
    }

    #[test]
    fn every_scenario_reports_at_least_one_part() {
        let params = ScenarioParams::default();
        for scenario in registry().iter() {
            assert!(
                scenario.parts(&params) >= 1,
                "{} has no parts",
                scenario.id()
            );
            assert!(!scenario.title().is_empty());
        }
    }
}
