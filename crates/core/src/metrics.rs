//! Aggregated system metrics for the experiment harnesses.

use ofpc_net::sim::Network;

/// One experiment run's summary — what EXPERIMENTS.md tables are built
/// from. All latencies in milliseconds, energies in joules.
#[derive(Debug, Clone, Default)]
pub struct SystemReport {
    pub(crate) delivered: usize,
    pub(crate) computed: usize,
    pub(crate) drops: u64,
    pub mean_latency_ms: f64,
    pub(crate) p50_latency_ms: f64,
    pub p99_latency_ms: f64,
    /// Total in-flight compute energy across all engines.
    pub engine_energy_j: f64,
    /// Total MACs executed by engines.
    pub engine_macs: u64,
}

impl SystemReport {
    /// Collect a report from a finished network simulation.
    pub fn from_network(net: &Network) -> Self {
        let mut engine_energy_j = 0.0;
        let mut engine_macs = 0;
        for n in 0..net.topo.node_count() {
            for slot in net.engines_at(ofpc_net::NodeId(n as u32)) {
                engine_energy_j += slot.energy_j;
                engine_macs += slot.macs;
            }
        }
        SystemReport {
            delivered: net.stats.delivered_count(),
            computed: net.stats.computed_count(),
            drops: net.stats.total_drops(),
            mean_latency_ms: net.stats.mean_latency_ms().unwrap_or(f64::NAN),
            p50_latency_ms: net.stats.latency_percentile_ms(0.5).unwrap_or(f64::NAN),
            p99_latency_ms: net.stats.latency_percentile_ms(0.99).unwrap_or(f64::NAN),
            engine_energy_j,
            engine_macs,
        }
    }

    /// Fraction of delivered packets that were computed in-flight.
    pub fn compute_coverage(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.computed as f64 / self.delivered as f64
        }
    }

    /// Engine energy per MAC (NaN when no MACs ran).
    pub fn energy_per_mac_j(&self) -> f64 {
        if self.engine_macs == 0 {
            f64::NAN
        } else {
            self.engine_energy_j / self.engine_macs as f64
        }
    }
}

impl std::fmt::Display for SystemReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "delivered {} (computed {}, {:.1}% coverage), drops {}",
            self.delivered,
            self.computed,
            100.0 * self.compute_coverage(),
            self.drops
        )?;
        writeln!(
            f,
            "latency ms: mean {:.3}  p50 {:.3}  p99 {:.3}",
            self.mean_latency_ms, self.p50_latency_ms, self.p99_latency_ms
        )?;
        write!(
            f,
            "engines: {} MACs, {:.3e} J total ({:.3e} J/MAC)",
            self.engine_macs,
            self.engine_energy_j,
            self.energy_per_mac_j()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Fig1Scenario;
    use ofpc_photonics::SimRng;

    #[test]
    fn report_from_fig1_run() {
        let mut s = Fig1Scenario::build(1);
        let mut rng = SimRng::seed_from_u64(1);
        s.inject_traffic(6, 1_000_000, &mut rng);
        s.run();
        let report = SystemReport::from_network(&s.system.net);
        assert_eq!(report.delivered, 12);
        assert_eq!(report.computed, 12);
        assert!((report.compute_coverage() - 1.0).abs() < 1e-12);
        assert!(report.engine_macs > 0);
        assert!(report.engine_energy_j > 0.0);
        // Engine energy per MAC sits at the photonic constant plus the
        // per-op ADC readout amortization.
        let per_mac = report.energy_per_mac_j();
        assert!(per_mac >= ofpc_photonics::energy::constants::PHOTONIC_MAC_J);
        assert!(per_mac < 1e-12, "per-MAC energy {per_mac} too high");
        // Display formats without panicking and mentions coverage.
        let s = format!("{report}");
        assert!(s.contains("coverage"));
    }

    #[test]
    fn empty_report_is_well_defined() {
        let report = SystemReport::default();
        assert_eq!(report.compute_coverage(), 0.0);
        assert!(report.energy_per_mac_j().is_nan());
    }
}
