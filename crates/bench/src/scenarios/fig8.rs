//! Figure 8: the SuperOnion construction (n = 5 hosts, m = 3 virtual
//! nodes, i = 2 peers) and its recovery behaviour when virtual nodes are
//! soaped.

use mitigation::superonion::{HostId, SuperOnion, SuperOnionConfig};
use rand::rngs::StdRng;
use sim::experiment::{ExperimentReport, Series};
use sim::scenario_api::{Scenario, ScenarioParams};

/// The Figure 8 scenario: soaping and recovery of one host's virtual
/// nodes.
pub struct SuperOnionRecovery;

impl Scenario for SuperOnionRecovery {
    fn id(&self) -> &str {
        "fig8"
    }

    fn title(&self) -> &str {
        "Figure 8 — SuperOnion construction and recovery under soaping"
    }

    fn run_part(
        &self,
        _part: usize,
        _params: &ScenarioParams,
        rng: &mut StdRng,
    ) -> Vec<ExperimentReport> {
        let config = SuperOnionConfig::figure8();
        let mut so = SuperOnion::build(config, rng);

        let mut report = ExperimentReport::new(
            "fig8",
            format!(
                "SuperOnion recovery, n = {}, m = {}, i = {}",
                config.hosts, config.virtual_per_host, config.peers_per_virtual
            ),
            "virtual nodes soaped",
            "reachable virtual nodes (host 0)",
        );
        report.push_note(format!(
            "virtual nodes: {}, edges: {}",
            so.virtual_node_count(),
            so.graph().edge_count()
        ));
        for h in 0..config.hosts {
            let host = HostId(h);
            let probe = so.probe(host);
            report.push_note(format!(
                "host {h}: virtual nodes {:?}, probe reachable {}/{}, gossip messages {}",
                so.virtual_nodes(host)
                    .iter()
                    .map(|v| v.index())
                    .collect::<Vec<_>>(),
                probe.reachable.len(),
                config.virtual_per_host,
                probe.messages
            ));
        }

        let host = HostId(0);
        let mut soaped = vec![0.0];
        let mut reachable = vec![so.probe(host).reachable.len() as f64];
        let mut operational = vec![1.0];
        let virtuals = so.virtual_nodes(host);
        for (i, &victim) in virtuals.iter().enumerate() {
            so.soap_virtual_node(victim);
            let probe = so.probe(host);
            soaped.push(i as f64 + 1.0);
            reachable.push(probe.reachable.len() as f64);
            operational.push(f64::from(u8::from(so.host_operational(host))));
            report.push_note(format!(
                "after soaping {} virtual node(s): reachable {}/{} -> host operational: {}",
                i + 1,
                probe.reachable.len(),
                config.virtual_per_host,
                so.host_operational(host)
            ));
        }
        report.push_series(Series::new("reachable", soaped.clone(), reachable));
        report.push_series(Series::new("host operational", soaped, operational));

        let replaced = so.recover(host, rng);
        let probe = so.probe(host);
        report.push_note(format!(
            "recovery: host 0 replaced {replaced} virtual node(s); probe now reaches {}/{} -> operational: {}",
            probe.reachable.len(),
            config.virtual_per_host,
            so.host_operational(host)
        ));
        vec![report]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soaping_all_virtual_nodes_disables_then_recovery_restores() {
        let reports = SuperOnionRecovery.run(&ScenarioParams::default());
        let report = &reports[0];
        let operational = report
            .series
            .iter()
            .find(|s| s.label == "host operational")
            .unwrap();
        assert_eq!(operational.y.first(), Some(&1.0));
        assert_eq!(
            operational.y.last(),
            Some(&0.0),
            "fully soaped host is down"
        );
        assert!(report
            .notes
            .iter()
            .any(|n| n.contains("recovery: host 0 replaced")));
    }
}
